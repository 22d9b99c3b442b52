"""Golden output bytes: SHA-256 digests of fixed CLI runs.

Every case runs ``cli.main`` in-process and hashes its exit code, stdout
and stderr.  The digests in ``output_digests.json`` were recorded from an
earlier commit, so a mismatch means the program's output changed, which
is a bug in the change, not a reason to re-record.  The cases:

* ``class`` as JSON and as a table at every vertex of the A:3, B2 and G2
  flag graphs and at every 5th vertex of the A:4 flag graph;
* ``expand`` of two written class files, each a Weyl group element's
  image of a Knutson-Tao class (on an A:4 Schubert graph, and halved on
  the G2 flag graph, so that it has ``Fraction`` coefficients);
* ``act`` on 8 fixed queries;
* ``decompose`` as JSON on every Schubert variety of A:3, B2 and G2 (the
  B2 and G2 twists go through substitution by expansion);
* ``ddiff`` on both sides and for every simple index at every vertex of
  the A:3 and G2 flag graphs, and on the left for every simple index at
  every vertex of the A:4 Schubert graph of 3412 (expand, act and
  reconstruct on a Schubert graph).

To record the digests of the current tree (only when the output is meant
to change, e.g. a new case):

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
from fractions import Fraction

from gkmcalc.cli import main
from gkmcalc.gkm import KnutsonTaoBasis, class_to_json
from gkmcalc.moment_graph import schubert_graph
from gkmcalc.repaction import act
from gkmcalc.root_system import root_system

DIGESTS = pathlib.Path(__file__).with_name("output_digests.json")

ACT_QUERIES = [
    ("--type", "A:3", "--perm", "231", "--v", "213"),
    ("--type", "A:3", "--perm", "321", "--v", "132"),
    ("--type", "A:3", "--w", "231", "--perm", "213", "--v", "132"),
    ("--type", "A:4", "--w", "3412", "--perm", "2134", "--v", "3142"),
    ("--type", "A:4", "--perm", "2413", "--v", "1324"),
    ("--type", "B2", "--perm", "12", "--v", "21"),
    ("--type", "G2", "--w", "12121", "--perm", "212", "--v", "121"),
    ("--type", "G2", "--perm", "1", "--v", "2121"),
]


def _vertex_names(label: str, w: str | None = None) -> list[str]:
    if w is None:
        rs = root_system(label)
        w = rs.element_str(rs.longest_element())
    g = schubert_graph(label, w)
    return [g.vertex_str(v) for v in g.vertices]


def _class_file(label: str, w: str, u: str, v: str, scale) -> dict:
    g = schubert_graph(label, w)
    cls = KnutsonTaoBasis(g).cls(g.rs.parse_element(v))
    return class_to_json(act(g.rs.parse_element(u), cls).scale(scale))


CLASS_FILES = {
    "A:4 X_3412 4231.[3142]": ("A:4", "3412", "4231", "3142", 1),
    "G2 212.[121]/2": ("G2", "212121", "212", "121", Fraction(1, 2)),
}


def cases() -> dict[str, tuple[str, ...]]:
    """Case id -> argument list; ``{file}`` stands for a written class file."""
    out = {}
    for label, step in (("A:3", 1), ("B2", 1), ("G2", 1), ("A:4", 5)):
        for v in _vertex_names(label)[::step]:
            for fmt in ("json", "table"):
                out[f"class {label} {v} {fmt}"] = (
                    "class", "--type", label, "--v", v, "--format", fmt
                )
    for name in CLASS_FILES:
        out[f"expand {name}"] = ("expand", "--class", "{" + name + "}")
    for q in ACT_QUERIES:
        out["act " + " ".join(q)] = ("act", *q)
    for label in ("A:3", "B2", "G2"):
        for w in _vertex_names(label):
            out[f"decompose {label} {w}"] = ("decompose", "--type", label, "--w", w)
    for label in ("A:3", "G2"):
        for v in _vertex_names(label):
            for side in ("left", "right"):
                for i in ("1", "2"):
                    out[f"ddiff {label} {v} {side} {i}"] = (
                        "ddiff", "--side", side, "--i", i, "--type", label, "--v", v
                    )
    for v in _vertex_names("A:4", "3412"):
        for i in ("1", "2", "3"):
            out[f"ddiff A:4 X_3412 {v} left {i}"] = (
                "ddiff", "--side", "left", "--i", i,
                "--type", "A:4", "--w", "3412", "--v", v,
            )
    return out


def digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def compute(tmp: pathlib.Path) -> dict[str, str]:
    paths = {}
    for k, (name, spec) in enumerate(CLASS_FILES.items()):
        path = tmp / f"class{k}.json"
        path.write_text(json.dumps(_class_file(*spec), sort_keys=True))
        paths["{" + name + "}"] = str(path)
    return {
        case: digest([paths.get(a, a) for a in argv])
        for case, argv in cases().items()
    }


def test_output_bytes_match_the_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = compute(tmp_path)
    assert got.keys() == want.keys()
    changed = sorted(case for case in want if got[case] != want[case])
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(pathlib.Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
