"""Command-line interface: output formats, determinism, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from gkmcalc.cli import main
from gkmcalc.moment_graph import toric_hexagon_json

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
        outs = []
        for route in ("descent", "solve"):
            code, out, _ = run(
                capsys,
                "class", "--type", "A:3", "--w", "321", "--v", "213",
                "--route", route,
            )
            assert code == 0
            outs.append(json.loads(out)["localizations"])
        assert outs[0] == outs[1]

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

    def test_expand_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, err = run(capsys, "expand", "--class", str(path))
        assert code == 2


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


class TestVerifyCommand:
    def test_single_suite_ledger(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coxeter", "--max-n", "3")
        assert code == 0
        assert "PASS coxeter/" in out
        assert out.strip().endswith("checks passed (max n = 3)")

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--suite", "nope")
        assert exc.value.code == 2


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

MALFORMED = [
    (("graph", "--load", "{div0}"), {"div0": _BAD_HEX}),
    (("ddiff", "--side", "left", "--i", "1", "--class", "{cls}"), {"cls": _HEX_CLASS}),
    (("ddiff", "--side", "right", "--i", "1", "--class", "{cls}"), {"cls": _HEX_CLASS}),
    (("graph", "--load", "{nov}"), {"nov": {"edges": []}}),
    (("expand", "--class", "{cls}"), {"cls": _HEX_CLASS | {"base": ["e"]}}),
    (("class", "--type", "A:3", "--v", "1x3"), {}),
    (("act", "--type", "A:3", "--perm", "21", "--v", "213"), {}),
]


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
        paths[name].write_text(json.dumps(obj))
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
