"""Command-line interface: output formats, determinism, exit codes."""

import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from gkmcalc import cli, gkm, polyring, verify
from gkmcalc.cli import main
from gkmcalc.gkm import class_to_json, knutson_tao_class_descent, knutson_tao_class_solve
from gkmcalc.moment_graph import schubert_graph, toric_hexagon_json
from gkmcalc.polyring import MAX_DEGREE
from gkmcalc.root_system import root_system
from gkmcalc.verify import run_suite

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGraphCommand:
    def test_dot_matches_rank_two_structure(self, capsys):
        code, out, _ = run(capsys, "graph", "--type", "A:3", "--w", "321", "--format", "dot")
        assert code == 0
        assert out.count("->") == 9
        assert out.count("[label=") == 6 + 9  # six vertices, nine edges

    def test_json_includes_axiom_report(self, capsys):
        code, out, _ = run(capsys, "graph", "--type", "A:3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["vertices"]) == 6
        assert obj["axioms"]["ok"] is True
        assert obj["root_system"]["cartan_matrix"] == [[2, -1], [-1, 2]]
        assert obj["root_system"]["rank"] == 2

    def test_load_and_check_palais_smale(self, capsys, tmp_path):
        path = tmp_path / "hex.json"
        path.write_text(json.dumps(toric_hexagon_json()))
        code, out, _ = run(capsys, "graph", "--load", str(path), "--check", "palais-smale")
        assert code == 1
        obj = json.loads(out)
        assert obj["holds"] is False and obj["mode"] == "search"

    def test_check_given_orientation_on_schubert(self, capsys):
        code, out, _ = run(
            capsys,
            "graph", "--type", "A:4", "--w", "4321",
            "--check", "palais-smale", "--orientation", "given",
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    def test_check_axioms(self, capsys, tmp_path):
        code, out, _ = run(capsys, "graph", "--type", "G2", "--check", "axioms")
        assert code == 0
        assert json.loads(out)["ok"] is True
        bad = tmp_path / "cycle.json"
        bad.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "edges": [
                        {"tail": "a", "head": "b", "label": "t1 - t2"},
                        {"tail": "b", "head": "a", "label": "t1 - t3"},
                    ],
                    "metadata": {"n": 3},
                }
            )
        )
        code, out, _ = run(capsys, "graph", "--load", str(bad), "--check", "axioms")
        assert code == 1
        assert json.loads(out)["acyclic"] is False

    def test_missing_type_is_usage_error(self, capsys):
        code, _, err = run(capsys, "graph")
        assert code == 2
        assert "error" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "graph", "--load", "/nonexistent/g.json")
        assert code == 2

    def test_determinism(self, capsys):
        for argv in (
            ("graph", "--type", "B2", "--format", "json"),
            ("graph", "--type", "A:3", "--format", "dot"),
            ("class", "--type", "A:3", "--v", "231"),
            ("decompose", "--type", "A:3", "--w", "231"),
        ):
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2 and out1


class TestClassCommand:
    EXPECT_12 = {
        "123": "0",
        "213": "t1 - t2",
        "132": "0",
        "231": "t1 - t2",
        "312": "t1 - t3",
        "321": "t1 - t3",
    }

    def test_displayed_class_json(self, capsys):
        code, out, _ = run(capsys, "class", "--type", "A:3", "--w", "321", "--v", "213")
        assert code == 0
        obj = json.loads(out)
        assert obj["localizations"] == self.EXPECT_12
        assert obj["kt_conditions"]["ok"] is True

    def test_routes_agree(self, capsys):
        code, out, _ = run(
            capsys, "class", "--type", "A:3", "--w", "321", "--v", "213"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["route"] == "billey"
        g = schubert_graph("A:3", "321")
        v = g.vertex_by_str("213")
        for check in (knutson_tao_class_descent, knutson_tao_class_solve):
            assert obj["localizations"] == class_to_json(check(g, v))["localizations"]

    def test_route_option_is_gone(self, capsys):
        for route in ("billey", "descent", "solve", "restrict"):
            with pytest.raises(SystemExit) as exc:
                run(capsys, "class", "--type", "A:3", "--v", "213", "--route", route)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err == "error: unrecognized arguments: --route " + route + "\n"

    def test_help_is_not_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "class", "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: gkmcalc class") and "--route" not in out

    def test_restrict_route_on_schubert(self, capsys):
        code, out, _ = run(
            capsys, "class", "--type", "A:3", "--w", "231", "--v", "213"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["localizations"] == {
            "123": "0",
            "213": "t1 - t2",
            "132": "0",
            "231": "t1 - t2",
        }

    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys,
            "class", "--type", "A:3", "--w", "321", "--v", "213",
            "--format", "table",
        )
        assert code == 0
        assert "213  t1 - t2" in out

    def test_rank_two_class(self, capsys):
        code, out, _ = run(capsys, "class", "--type", "B2", "--v", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["localizations"]["1"] == "a1"

    def test_vertex_outside_variety(self, capsys):
        code, _, err = run(capsys, "class", "--type", "A:3", "--w", "231", "--v", "321")
        assert code == 2

    def test_bad_vertex_string(self, capsys):
        code, _, err = run(capsys, "class", "--type", "A:3", "--v", "999")
        assert code == 2


class TestActCommand:
    def test_displayed_action(self, capsys):
        code, out, _ = run(
            capsys,
            "act", "--type", "A:3", "--w", "321", "--perm", "213", "--v", "213",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["class"]["localizations"]["123"] == "-t1 + t2"
        assert obj["expansion"] == {"123": "-t1 + t2", "213": "1"}


class TestDdiffAndExpand:
    def test_pipeline(self, capsys, tmp_path):
        cpath = tmp_path / "c.json"
        code, out, _ = run(
            capsys,
            "class", "--type", "A:3", "--w", "321", "--v", "213",
            "--output", str(cpath),
        )
        assert code == 0 and cpath.exists()

        code, out, _ = run(capsys, "ddiff", "--side", "left", "--i", "1", "--class", str(cpath))
        assert code == 0
        obj = json.loads(out)
        assert all(v == "1" for v in obj["localizations"].values())

        code, out, _ = run(capsys, "ddiff", "--side", "right", "--i", "1", "--class", str(cpath))
        assert code == 0
        obj = json.loads(out)
        assert all(v == "1" for v in obj["localizations"].values())

        code, out, _ = run(capsys, "expand", "--class", str(cpath))
        assert code == 0
        assert json.loads(out)["coefficients"] == {"213": "1"}

    def test_ddiff_inline_selector(self, capsys):
        code, out, _ = run(
            capsys, "ddiff", "--side", "left", "--i", "1",
            "--type", "A:3", "--w", "321", "--v", "213",
        )
        assert code == 0

    def test_ddiff_refuses_an_external_class(self, capsys, tmp_path):
        graph = {
            "vertices": ["a", "b"],
            "edges": [{"tail": "b", "head": "a", "label": "t1"}],
            "metadata": {"n": 1},
        }
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"graph_ref": {"graph": graph}, "localizations": {}}))
        code, out, err = run(
            capsys, "ddiff", "--side", "left", "--i", "1", "--class", str(path)
        )
        assert (code, out) == (2, "")
        assert err == "error: ddiff needs a class on a flag or Schubert graph\n"

    @pytest.mark.parametrize("i,want", [("1", ["3142"]), ("2", ["3142", "2143"])])
    def test_ddiff_builds_each_class_once(self, capsys, monkeypatch, i, want):
        # the class of --v and the expansion of the left side share a basis;
        # s_2 3142 = 2143 is shorter, so its class enters once as well
        calls = []
        billey = gkm.knutson_tao_class_billey

        def counting(g, v):
            calls.append(g.vertex_str(v))
            return billey(g, v)

        monkeypatch.setattr(gkm, "knutson_tao_class_billey", counting)
        code, _, _ = run(
            capsys, "ddiff", "--side", "left", "--i", i,
            "--type", "A:4", "--w", "3412", "--v", "3142",
        )
        assert code == 0
        assert calls == want

    def test_expand_refuses_a_degree_past_the_bound_at_once(
        self, capsys, tmp_path, monkeypatch
    ):
        # refused while the file is read, before any division
        def no_division(p, f):
            raise AssertionError("exact_divide called")

        monkeypatch.setattr(gkm, "exact_divide", no_division)
        monkeypatch.setattr(polyring, "exact_divide", no_division)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_a3_power_class(10**12)))
        code, out, err = run(capsys, "expand", "--class", str(path))
        assert code == 2 and out == ""
        bound = f"total degree {10**12} is above MAX_DEGREE = {MAX_DEGREE}"
        assert err == f"error: bad class file: {bound}\n"

    @pytest.mark.parametrize("k,code", [(MAX_DEGREE, 0), (MAX_DEGREE + 1, 2)])
    def test_degree_bound_of_a_class_file(self, capsys, tmp_path, k, code):
        # equal localizations: a GKM class that expands without a division
        path = tmp_path / "flat.json"
        loc = {v: f"t1^{k}" for v in ("123", "132", "213", "231", "312", "321")}
        path.write_text(json.dumps(_A3_CLASS | {"localizations": loc}))
        got, out, err = run(capsys, "expand", "--class", str(path))
        assert got == code
        if code == 0:
            assert json.loads(out)["coefficients"] == {"123": f"t1^{k}"}
        else:
            assert "MAX_DEGREE" in err

    def test_repeated_terms_sum_in_both_forms(self, capsys, tmp_path):
        # the text and the object form of 3*t1 at every vertex: a GKM class
        terms = [{"exp": [1, 0, 0], "coeff": "1"}, {"exp": [1, 0, 0], "coeff": "2"}]
        perms = ("123", "132", "213", "231", "312", "321")
        for loc in ("t1 + 2*t1", {"n": 3, "terms": terms}):
            path = tmp_path / "repeated.json"
            cls = _A3_CLASS | {"localizations": dict.fromkeys(perms, loc)}
            path.write_text(json.dumps(cls))
            code, out, _ = run(capsys, "expand", "--class", str(path))
            assert code == 0
            assert json.loads(out)["coefficients"] == {"123": "3*t1"}

    def test_expand_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, err = run(capsys, "expand", "--class", str(path))
        assert code == 2

    def test_class_file_refusals_name_what_is_missing(self, capsys, tmp_path):
        ref = {"type": "A:3", "w": "321"}
        for cls, line in (
            ({"graph_ref": ref}, "a class has no 'localizations' field"),
            ({"graph_ref": {"type": "A:3"}, "localizations": {}}, "graph_ref has no 'w' field"),
            ({"graph_ref": ref, "localizations": {"999": "0"}}, "no vertex named '999'"),
        ):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(cls))
            assert run(capsys, "expand", "--class", str(path)) == (
                2, "", f"error: bad class file: {line}\n"
            )


class TestDecomposeCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "decompose", "--type", "A:3", "--w", "231")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["poincare"] == [1, 2, 1]
        assert obj["generator_invariance"] == {"1": True, "2": True}

    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--type", "A:3", "--w", "231", "--format", "table"
        )
        assert code == 0
        assert "poincare coefficients: [1, 2, 1]" in out

    def test_empty_w_is_parsed_not_unset(self, capsys):
        # B2 reads "" as the identity, as a class file's graph_ref does
        code, out, _ = run(capsys, "decompose", "--type", "B2", "--w", "")
        assert code == 0
        obj = json.loads(out)
        assert obj["w"] == "e" and obj["poincare"] == [1]
        assert run(capsys, "decompose", "--type", "A:3", "--w", "") == (
            2, "", "error: empty permutation text\n"
        )


def _types_named(detail):
    """The root systems a verify detail names, with A:2–A:4 spelled out."""
    names = []
    for first, last, one in re.findall(r"A:(\d+)–A:(\d+)|(A:\d+|B2|G2)", detail):
        names += [f"A:{n}" for n in range(int(first), int(last) + 1)] if first else [one]
    return names


def _record_builds(monkeypatch):
    """The labels of the root systems verify builds, in order.  type_a
    reaches root_system through its own module, so both names are wrapped."""
    built = []
    for name in ("root_system", "type_a"):

        def recording(arg, make=getattr(verify, name)):
            rs = make(arg)
            built.append(rs.label)
            return rs

        monkeypatch.setattr(verify, name, recording)
    return built


class TestVerifyCommand:
    def test_single_suite_ledger(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "root-system", "--max-n", "3")
        assert code == 0
        assert "PASS root_system/" in out
        assert out.strip().endswith("checks passed (max n = 3)")

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--suite", "nope")
        assert exc.value.code == 2

    def test_suite_choices_match_verify(self):
        assert cli.SUITE_NAMES == tuple(verify.SUITES)

    def test_seed_reaches_every_random_row(self, monkeypatch):
        # gkm expansion-roundtrip and repaction ddiff-expansion-formula draw
        # from Random(seed + 7) and Random(seed + 11), so seed 0 keeps the
        # default ledger
        seeds = []

        class Recording(random.Random):
            def __init__(self, x=None):
                seeds.append(x)
                super().__init__(x)

        monkeypatch.setattr(verify.random, "Random", Recording)
        results = run_suite("gkm", max_n=3, seed=5) + run_suite("repaction", max_n=3, seed=5)
        assert all(r.ok for r in results)
        assert seeds == [12, 16]

    @pytest.mark.parametrize("label", ["B2", "G2"])
    def test_wrong_sign_of_alpha_fails_the_simple_action_formula(self, monkeypatch, label):
        # with +alpha_1 in the simple-reflection step's twist, the step no
        # longer matches the pointwise action on the rank-two flag graph
        rs = root_system(label)
        twists = list(rs.simple_twists)
        sub, minus_alpha = twists[0]
        twists[0] = (sub, -minus_alpha)
        monkeypatch.setattr(rs, "simple_twists", tuple(twists))
        rows = {r.name: r.ok for r in run_suite("repaction", max_n=3)}
        assert rows["simple-action-formula"] is False

    def test_root_system_rows_stop_at_a4(self):
        # the whole-group rows stay at desk scale for any --max-n
        results = run_suite("root-system", max_n=7)
        assert all(r.ok for r in results)
        for r in results:
            assert not any(f"A:{n}" in r.detail for n in (5, 6, 7)), r.line()
        assert any("A:4" in r.detail for r in results)

    def test_type_a_crosscheck_stops_at_a4(self, monkeypatch):
        # the row once walked all of S_n up to --max-n, which grows as n!
        sizes = []
        enumerate_group = verify.all_permutations

        def recording(n):
            sizes.append(n)
            return enumerate_group(n)

        monkeypatch.setattr(verify, "all_permutations", recording)
        results = run_suite("root-system", max_n=7)
        assert all(r.ok for r in results)
        assert sizes == [2, 3, 4]

    def test_moment_graph_rows_stop_at_a4(self, monkeypatch):
        # flag-axioms once built and validated every A:n flag graph up to
        # --max-n, which grows as n!
        labels = []
        build = verify.build_flag_moment_graph

        def recording(rs):
            labels.append(rs.label)
            return build(rs)

        monkeypatch.setattr(verify, "build_flag_moment_graph", recording)
        results = run_suite("moment-graph", max_n=7)
        assert all(r.ok for r in results)
        ranks = {int(label[2:]) for label in labels if label.startswith("A:")}
        assert max(ranks) == 4
        assert {"B2", "G2"} <= set(labels)

    def test_default_ledger_rows_and_counts(self, capsys):
        # the rows at --max-n 4 in ledger order, each with the count its
        # detail opens with, if it prints one
        rows = {
            "polyring/ring-axioms": "60 random triples",
            "polyring/divide-roundtrip": "",
            "polyring/ddiff-squares-to-zero": "",
            "polyring/substitution-homomorphism": "",
            "root_system/group-orders": "",
            "root_system/reflections": "",
            "root_system/length-and-reduced-words": "",
            "root_system/simple-edge-recursion": "",
            "root_system/covering-reflection-lemma": "",
            "root_system/bruhat-partial-order": "",
            "root_system/type-a-crosscheck": "",
            "moment_graph/flag-axioms": "",
            "moment_graph/edge-lifting": "",
            "moment_graph/out-label-recursion": "",
            "moment_graph/path-order-is-bruhat": "",
            "moment_graph/schubert-induced-subgraph": "",
            "moment_graph/schubert-palais-smale": "32 Schubert graphs",
            "moment_graph/hexagon-not-palais-smale": "",
            "gkm/kt-support-and-degree": "",
            "gkm/covering-localization-product": "",
            "gkm/neighbor-localizations": "",
            "gkm/route-equivalence": "52 classes",
            "gkm/restriction-preserves-kt": "",
            "gkm/expansion-roundtrip": "",
            "repaction/action-composition": "22 generator pairs",
            "repaction/simple-action-formula": "892 pointwise-vs-formula comparisons",
            "repaction/general-type-action-theorem": "",
            "repaction/action-triangularity": "",
            "repaction/word-independence": "",
            "repaction/divided-difference-basics": "",
            "repaction/ddiff-expansion-formula": "120 random expansions",
            "repaction/averaging-invariance": "",
            "repaction/orbit-sum-read-off": "",
            "repaction/decomposition-report": "",
        }
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0
        *lines, summary = out.splitlines()
        assert summary.startswith("OK: 34/34 checks passed")
        assert [line.split(" -- ")[0] for line in lines] == [f"PASS {row}" for row in rows]
        for line, count in zip(lines, rows.values()):
            assert line.partition(" -- ")[2].startswith(count), line

    @pytest.mark.parametrize("max_n", [3, 4, 6])
    def test_each_detail_names_the_types_its_row_ran(self, monkeypatch, max_n):
        # a row clamped apart from its table entry builds, or checks, other
        # types than its detail names
        built, cases, rows = _record_builds(monkeypatch), [], []

        def counting(check):
            def wrapped(*args):
                verdicts = list(check(*args))
                if args and not isinstance(args[0], int):  # a root system
                    cases.append((args[0].label, len(verdicts)))
                yield from verdicts

            return wrapped

        class Cut(verify.CheckResult):
            # the runner makes a row's result once its checks are done
            def __init__(self, *args):
                super().__init__(*args)
                rows.append((self, built[:], cases[:]))
                built.clear()
                cases.clear()

        monkeypatch.setattr(verify, "CheckResult", Cut)
        table = tuple(row._replace(check=counting(row.check)) for row in verify._ROWS)
        monkeypatch.setattr(verify, "_ROWS", table)
        results = verify.run_suites(list(verify.SUITES), max_n=max_n)
        assert len(results) == 34 and all(r.ok for r in results)
        for entry, (result, labels, ran) in zip(table, rows):
            named = _types_named(result.detail)
            # the table's rule: A:2 up to A:min(max n, cap), then B2 and G2
            top = min(max_n, entry.cap or 1)
            if entry.variables:
                assert named == [] and result.detail.endswith(f"t1..t{top}")
            else:
                rank_two = ["B2", "G2"] if entry.rank_two else []
                assert named == [f"A:{n}" for n in range(2, top + 1)] + rank_two
            assert labels == named, result.line()
            assert [label for label, _ in ran] == named, result.line()
            # every type a row is handed gives a verdict, but on A:2 the one
            # transposition is the simple reflection: nothing to lift
            empty = [label for label, n in ran if n == 0]
            assert empty == (["A:2"] if result.name == "edge-lifting" else []), result.line()

    @pytest.mark.parametrize("max_n", [2, 3, 6])
    def test_summary_names_only_a_size_that_ran(self, capsys, monkeypatch, max_n):
        built = _record_builds(monkeypatch)
        code, out, _ = run(capsys, "verify", "--max-n", str(max_n))
        assert code == 0
        largest = max(int(label[2:]) for label in built if label.startswith("A:"))
        scope = f"max n = {max_n}"
        if largest < max_n:
            scope += f" requested; largest run A:{largest}"
        assert out.splitlines()[-1].endswith(f"checks passed ({scope})")


class TestOutputFiles:
    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GKMCALC_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            "graph", "--type", "A:2", "--format", "json", "--output", "g.json",
        )
        assert code == 0
        obj = json.loads((tmp_path / "g.json").read_text())
        assert obj["vertices"] == ["12", "21"]

    def test_roundtrip_emitted_graph(self, capsys, tmp_path):
        gpath = tmp_path / "hex.json"
        gpath.write_text(json.dumps(toric_hexagon_json()))
        code, out1, _ = run(capsys, "graph", "--load", str(gpath), "--format", "json")
        assert code == 0
        emitted = json.loads(out1)
        emitted.pop("axioms")
        gpath2 = tmp_path / "hex2.json"
        gpath2.write_text(json.dumps(emitted))
        code, out2, _ = run(capsys, "graph", "--load", str(gpath2), "--format", "json")
        assert code == 0
        assert json.loads(out2) == json.loads(out1)


_HEX_CLASS = {
    "graph_ref": {"graph": toric_hexagon_json()},
    "base": "e",
    "localizations": {v: "1" for v in toric_hexagon_json()["vertices"]},
}
_BAD_HEX = toric_hexagon_json()
_BAD_HEX["edges"][0]["label"] = "1/0*t1"
_A3_CLASS = {"graph_ref": {"type": "A:3", "w": "321"}, "base": None, "localizations": {}}


def _a3_power_class(k):
    """The GKM class v -> t_{v(1)}^k on the A:3 flag graph.

    Expanding it divides t_a^k - t_b^k by t_a - t_b, one degree per step.
    """
    perms = ("123", "132", "213", "231", "312", "321")
    return _A3_CLASS | {"localizations": {v: f"t{v[0]}^{k}" for v in perms}}


MALFORMED = [
    (("graph", "--load", "{div0}"), {"div0": _BAD_HEX}),
    (("ddiff", "--side", "left", "--i", "1", "--class", "{cls}"), {"cls": _HEX_CLASS}),
    (("ddiff", "--side", "right", "--i", "1", "--class", "{cls}"), {"cls": _HEX_CLASS}),
    (("graph", "--load", "{nov}"), {"nov": {"edges": []}}),
    (("expand", "--class", "{cls}"), {"cls": _HEX_CLASS | {"base": ["e"]}}),
    (("class", "--type", "A:3", "--v", "1x3"), {}),
    (("act", "--type", "A:3", "--perm", "21", "--v", "213"), {}),
    (("ddiff", "--side", "left", "--i", "1", "--type", "A:3", "--w", "231", "--v", "321"), {}),
    (("expand", "--class", "{cls}"), {"cls": [_A3_CLASS]}),
    (
        ("ddiff", "--side", "left", "--i", "1", "--class", "{cls}"),
        {"cls": _A3_CLASS | {"graph_ref": 5}},
    ),
    (("graph", "--load", "{g}"), {"g": {"vertices": ["a"], "edges": [1]}}),
    (("graph", "--load", "{g}"), {"g": {"vertices": [], "edges": 5}}),
    (("graph", "--load", "{g}"), {"g": {"vertices": 5}}),
    (("graph", "--load", "{g}"), {"g": {"vertices": [], "metadata": 5}}),
    (("graph", "--load", "{g}"), {"g": {"vertices": [], "metadata": {"n": [1]}}}),
    (("expand", "--class", "{cls}"), {"cls": _A3_CLASS | {"localizations": {"123": 5}}}),
    (
        ("expand", "--class", "{cls}"),
        {"cls": _A3_CLASS | {"graph_ref": {"type": 5, "w": "321"}}},
    ),
    (("class", "--type", "A:20", "--v", "1"), {}),
]

# Simple indices outside 1..rank; the error line must say "simple index".
BAD_SIMPLE_INDEX = [
    ("ddiff", "--side", side, "--i", i, "--type", "A:3", "--v", "213")
    for side in ("left", "right")
    for i in ("7", "0", "-1")
] + [("ddiff", "--side", "left", "--i", "-1", "--type", "B2", "--v", "12")]
MALFORMED += [(argv, {}) for argv in BAD_SIMPLE_INDEX]

# A type A selector whose rank is not a number; the error line must say
# "type selector".
BAD_TYPE_SELECTOR = ("class", "--type", "A:x", "--v", "1")
# verify below A:2, where every suite would pass without checking anything
MALFORMED += [
    (("verify", "--max-n", "1"), {}),
    (("verify", "--max-n", "-3"), {}),
    (BAD_TYPE_SELECTOR, {}),
]
# argparse's own usage errors: a missing required option, a bad choice and
# an unknown option (the construction is picked by the graph, not by a flag)
MALFORMED += [
    (("class", "--type", "A:3"), {}),
    (("class", "--type", "A:3", "--v", "213", "--format", "xml"), {}),
    (("class", "--type", "A:3", "--v", "213", "--route", "x"), {}),
]
# an --output that cannot be written: a missing directory, a directory, empty
MALFORMED += [
    (("class", "--type", "A:3", "--v", "213", "--output", out), {})
    for out in ("/nonexistent/dir/x.json", ".", "")
]

# a class that breaks the GKM condition: the A:3 class of 213 with t1 at 123,
# where a divided difference leaves a remainder
_NON_GKM_CLASS = {
    "graph_ref": {"type": "A:3", "w": "321"},
    "base": "213",
    "localizations": {
        "123": "t1", "132": "0", "213": "t1 - t2", "231": "t1 - t2",
        "312": "t1 - t3", "321": "t1 - t3",
    },
}
MALFORMED += [
    (("ddiff", "--side", side, "--i", "1", "--class", "{cls}"), {"cls": _NON_GKM_CLASS})
    for side in ("left", "right")
]


class _Raw(str):
    """File text written as it is, not as JSON."""


# localizations in a broken object form, and JSON nested past the parser's
# recursion limit
MALFORMED += [
    (("expand", "--class", "{c}"), {"c": _A3_CLASS | {"localizations": {"123": loc}}})
    for loc in (
        {"terms": 5},
        {"terms": [5]},
        {"terms": [{"exp": 5, "coeff": "1"}]},
        {"terms": [{"exp": [1, 0, 0], "coeff": "1/0"}]},
    )
] + [
    (("graph", "--load", "{deep}"), {"deep": _Raw("[" * 100000)}),
    (("expand", "--class", "{deep}"), {"deep": _Raw("[" * 100000)}),
]


# a ring dimension that is not an integer in 0..MAX_EXTERNAL_N, given as 'n'
# or implied by a label; each is refused before anything is allocated
_HEX_TEXT = json.dumps(toric_hexagon_json())
_BIG_LABEL = {
    "vertices": ["a", "b"],
    "edges": [{"tail": "b", "head": "a", "label": "t99999999999"}],
}
MALFORMED += [
    (("graph", "--load", "{g}"), {"g": _Raw(_HEX_TEXT.replace('"n": 3', f'"n": {n}'))})
    for n in (10**30, "1e400", 10**18, 3.5, -1, 65)
]
BIG_LABEL = (("graph", "--load", "{g}"), {"g": _BIG_LABEL})
MALFORMED += [BIG_LABEL]

# a valid GKM class on the toric hexagon, t1 - t2 on the path (12), (123),
# (13): the graph has no Knutson-Tao basis to expand it in, since the
# solver finds the constraints at (123) underdetermined
_HEX_GKM_CLASS = {
    "graph_ref": {"graph": toric_hexagon_json()},
    "base": None,
    "localizations": {
        v: "t1 - t2" if v in ("(12)", "(123)", "(13)") else "0"
        for v in toric_hexagon_json()["vertices"]
    },
}
MALFORMED += [(("expand", "--class", "{cls}"), {"cls": _HEX_GKM_CLASS})]

# a degree no packed monomial holds (dividing it out one degree per step
# would take hours), and exponents that are not ints: a list, which cannot
# be hashed, and bools
MALFORMED += [(("expand", "--class", "{cls}"), {"cls": _a3_power_class(10**12)})] + [
    (("expand", "--class", "{c}"), {"c": _A3_CLASS | {"localizations": {"123": loc}}})
    for loc in (
        {"terms": [{"exp": [[1], 0, 0], "coeff": "1"}]},
        {"terms": [{"exp": [True, False, False], "coeff": "1"}]},
    )
]

# a vertex with more out-edges than the degree of a class can reach
MALFORMED += [
    (
        ("graph", "--load", "{star}"),
        {
            "star": {
                "vertices": ["top", *(f"v{i}" for i in range(MAX_DEGREE + 1))],
                "edges": [
                    {"tail": "top", "head": f"v{i}", "label": f"t1 + {i}*t2"}
                    for i in range(MAX_DEGREE + 1)
                ],
                "metadata": {"n": 2},
            }
        },
    )
]

# an edge without a tail, prefixes the output could not be read back with,
# and boolean ring dimensions
_TAILLESS = {"vertices": ["None", "a"], "edges": [{"head": "a", "label": "t1"}]}
MALFORMED += [
    (("graph", "--load", "{g}"), {"g": _TAILLESS | {"metadata": {"n": 1}}}),
] + [
    (("graph", "--load", "{g}"), {"g": toric_hexagon_json() | {"metadata": meta}})
    for meta in ({"n": 3, "var_prefix": "t1"}, {"var_prefix": 5})
] + [
    (("graph", "--load", "{g}"), {"g": {"vertices": ["a"], "metadata": {"n": flag}}})
    for flag in (True, False)
]

# names, edge ends, labels and graph_ref fields that are JSON but not
# strings: each is refused as such, never turned into text such as "None"
_NUMBERED = {
    "vertices": [None, "a", 3],
    "edges": [
        {"tail": None, "head": "a", "label": "t1"},
        {"tail": 3, "head": "a", "label": "t2"},
    ],
    "metadata": {"n": 2},
}
_AB = {"vertices": ["a", "b"], "metadata": {"n": 2}}
NOT_STRINGS = [
    (("graph", "--load", "{g}"), {"g": _NUMBERED}),
    (("graph", "--load", "{g}"), {"g": _NUMBERED | {"vertices": ["None", "a", "3"]}}),
] + [
    (("graph", "--load", "{g}"), {"g": _AB | {"edges": [edge]}})
    for edge in (
        {"tail": "b", "head": "a", "label": 5},
        {"tail": "b", "head": "a", "label": None},
        {"tail": "b", "head": ["a"], "label": "t1"},
    )
] + [
    (("expand", "--class", "{cls}"), {"cls": _A3_CLASS | {"graph_ref": ref}})
    for ref in ({"type": "A:3", "w": None}, {"type": "A:3", "w": 321})
]
MALFORMED += NOT_STRINGS

# the usage line names only options the subcommand has, and ddiff asks for
# --class or --v before it builds anything (A:20 would be refused otherwise)
USAGE_LINES = {
    ("graph", "--format", "json"): "need --type (or --load)",
    ("class", "--v", "12"): "need --type",
    ("act", "--perm", "21", "--v", "12"): "need --type",
    ("decompose",): "need --type",
    ("ddiff", "--side", "left", "--i", "1", "--v", "12"): "need --type",
    ("ddiff", "--side", "left", "--i", "1"): "need --class FILE or --type/--v",
    ("ddiff", "--side", "right", "--i", "1", "--type", "A:20"): (
        "need --class FILE or --type/--v"
    ),
}
MALFORMED += [(argv, {}) for argv in USAGE_LINES]

# a 2-cycle a -> b -> a loads, but expanding a class on it needs the
# topological order that the circuit forbids
_CIRCUIT_CLASS = {
    "graph_ref": {
        "graph": {
            "vertices": ["a", "b"],
            "edges": [
                {"tail": "a", "head": "b", "label": "t1"},
                {"tail": "b", "head": "a", "label": "t2"},
            ],
            "metadata": {"n": 2},
        }
    },
    "base": None,
    "localizations": {"a": "0", "b": "0"},
}
CIRCUIT = (("expand", "--class", "{cls}"), {"cls": _CIRCUIT_CLASS})
MALFORMED += [CIRCUIT]

# text the element parsers refuse, each with its own line
PERMUTATION_TEXTS = {
    ("class", "--type", "A:3", "--v", "(12"): "bad cycle notation: '(12'",
    ("class", "--type", "A:3", "--v", "(12)(13)"): "cycles must be disjoint: '(12)(13)'",
    ("class", "--type", "A:3", "--v", "(14)"): "bad cycle [1, 4] for n=3",
    ("class", "--type", "A:3", "--v", "1,2,x"): "cannot parse permutation '1,2,x'",
    # '²' is a digit to str.isdigit, but int refuses it
    ("class", "--type", "A:3", "--v", "²¹"): "cannot parse permutation '²¹'",
    ("class", "--type", "B2", "--v", "²"): "cannot parse B2 element '²'",
}
MALFORMED += [(argv, {}) for argv in PERMUTATION_TEXTS]

# a file that is not UTF-8 is bad JSON, and its line names the file
NOT_UTF8 = (("graph", "--load", "{bad}"), {"bad": b"\xff\xfe{"})
MALFORMED += [NOT_UTF8]


@pytest.mark.parametrize(
    "argv,files",
    MALFORMED,
    ids=[f"{k}-{argv[0]}" for k, (argv, _) in enumerate(MALFORMED)],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, argv, files):
    """Bad input exits 2 with a single error line and no traceback."""
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        if isinstance(obj, bytes):
            paths[name].write_bytes(obj)
        else:
            paths[name].write_text(obj if isinstance(obj, _Raw) else json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcalc.cli", *(a.format(**paths) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, *sys.path])},
        timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    if argv in BAD_SIMPLE_INDEX:
        assert "simple index" in proc.stderr
    if argv == BAD_TYPE_SELECTOR:
        assert "type selector" in proc.stderr
    if (argv, files) in NOT_STRINGS:
        assert "string" in proc.stderr
    if argv in USAGE_LINES:
        assert proc.stderr == f"error: {USAGE_LINES[argv]}\n"
    if argv in PERMUTATION_TEXTS:
        assert proc.stderr == f"error: {PERMUTATION_TEXTS[argv]}\n"
    if (argv, files) == CIRCUIT:
        assert proc.stderr == "error: graph has a directed circuit\n"
    if (argv, files) == NOT_UTF8:
        assert proc.stderr == (
            f"error: bad JSON in {paths['bad']}: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )
    if (argv, files) == BIG_LABEL:
        assert proc.stderr == (
            "error: edge labels use variable index 99999999999; "
            "at most 64 are allowed\n"
        )


def _modules_after(statement):
    """The module names loaded by a fresh interpreter that runs statement.

    ``-S`` skips ``site``, whose start-up hooks may import modules of their own.
    """
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; {statement}; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_stays_light():
    """Every CLI query is a process; these modules would load in each one."""
    loaded = _modules_after("import gkmcalc.cli")
    assert "gkmcalc.cli" in loaded
    assert not loaded & {"gkmcalc.verify", "dataclasses", "inspect"}


def test_package_import_loads_the_traced_modules():
    """perfbench's tracer wraps only modules already loaded by ``import gkmcalc``."""
    loaded = _modules_after("import gkmcalc")
    for name in ("polyring", "coxeter", "root_system", "moment_graph", "gkm", "repaction"):
        assert f"gkmcalc.{name}" in loaded


def test_console_script_is_cli_main():
    """pyproject's ``gkmcalc`` console script loads gkmcalc.cli.main."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    from importlib.metadata import EntryPoint

    pyproject = pathlib.Path(SRC).parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"gkmcalc": "gkmcalc.cli:main"}
    entry = EntryPoint("gkmcalc", scripts["gkmcalc"], "console_scripts")
    assert entry.load() is main
