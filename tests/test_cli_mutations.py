"""A seeded mutation probe of the CLI contract.

Valid inputs are mutated at random and run through ``cli.main`` in-process:
class files (an A:3 flag and an A:3 Schubert class, a B2 and a G2 class)
through ``expand`` and both ``ddiff`` sides, the toric hexagon through
``graph --load`` (plain, ``--check axioms``, ``--check palais-smale``), and
argument lists of every subcommand but ``verify``.  A mutation replaces a
value with one from a fixed list, deletes a key, element or token, or adds
one.  Every case must keep the contract:

* ``main`` raises nothing but ``SystemExit``;
* exit 2 prints exactly one ``error:`` line and nothing on stdout;
* exit 0 prints JSON that the matching reader (``class_from_json``,
  ``expansion_from_json``, ``load_external_graph``) loads back, or text for
  ``--format table``/``dot``; exit 1 is a failed check and prints its
  report as JSON.

The seed and the case counts are fixed.  A failure is a bug in the
program: it gets a ``MALFORMED`` row in ``test_cli.py`` and a fix, never a
new seed.  Type selectors stay at A:4 and below: A:5 to A:8 are accepted
and their flag graphs grow as n!, and no budget refuses that work up front
yet (ROADMAP item 5), so a mutated selector could run for minutes.
``--output`` (writes files), ``--help`` (prints usage, exit 0) and
``verify`` (a second per run) are left out of the argument vocabulary.
"""

import copy
import json
import math
import random

import pytest

from gkmcalc.cli import build_parser, main
from gkmcalc.gkm import (
    KnutsonTaoBasis,
    class_from_json,
    class_to_json,
    expansion_from_json,
)
from gkmcalc.moment_graph import load_external_graph, schubert_graph, toric_hexagon_json

SEED = 20061
VALUES = [None, True, False, 0, -1, 1.5, math.nan, 10**30, "", "1/0", "t1**2", "t9", [], {}, [1]]
KEYS = [
    "n", "x", "label", "tail", "head", "vertices", "edges", "metadata",
    "graph_ref", "graph", "type", "w", "base", "localizations", "terms",
]


def _class_file(label, w, v):
    g = schubert_graph(label, w)
    return class_to_json(KnutsonTaoBasis(g).cls(g.rs.parse_element(v)))


CLASS_FILES = {
    "A:3 flag": ("A:3", "321", "213"),
    "A:3 schubert": ("A:3", "231", "132"),
    "B2 flag": ("B2", "2121", "21"),
    "G2 flag": ("G2", "212121", "121"),
}
CLASS_COMMANDS = {
    "expand": ("expand", "--class", "{path}"),
    "ddiff-left": ("ddiff", "--side", "left", "--i", "1", "--class", "{path}"),
    "ddiff-right": ("ddiff", "--side", "right", "--i", "1", "--class", "{path}"),
}
GRAPH_COMMANDS = {
    "plain": ("graph", "--load", "{path}"),
    "axioms": ("graph", "--load", "{path}", "--check", "axioms"),
    "palais-smale": ("graph", "--load", "{path}", "--check", "palais-smale"),
}
ARGV_BASES = [
    ("class", "--type", "A:3", "--v", "213"),
    ("class", "--type", "B2", "--w", "212", "--v", "12", "--format", "table"),
    ("act", "--type", "A:3", "--perm", "231", "--v", "213"),
    ("act", "--type", "A:4", "--w", "3412", "--perm", "2134", "--v", "3142"),
    ("ddiff", "--side", "left", "--i", "1", "--type", "A:4", "--w", "3412", "--v", "3142"),
    ("ddiff", "--side", "right", "--i", "2", "--type", "G2", "--v", "121"),
    ("decompose", "--type", "A:3", "--w", "231"),
    ("decompose", "--type", "G2", "--format", "table"),
    ("graph", "--type", "B2", "--check", "palais-smale"),
    ("graph", "--type", "A:4", "--w", "2413", "--format", "dot"),
]
WORDS = [
    "class", "act", "ddiff", "expand", "decompose", "graph",
    "--type", "--w", "--v", "--i", "--perm", "--side", "--format", "--check",
    "--orientation", "--class", "--load",
]
SELECTORS = [  # none accepted past A:4; A:9 and A:20 are refused as too large
    "A:1", "A:2", "A:3", "A:4", "a:3", " A:03 ", "A:0", "A:-1", "A:x", "A:",
    "A:9", "A:20", "B2", "g2", "C2", "",
]
INDICES = ["0", "1", "2", "3", "4", "-1", "99", "1.5", "x", str(10**30)]
ELEMENTS = [
    "e", "12", "21", "121", "2121", "212121", "1212121", "213", "321", "231",
    "3412", "4321", "1234", "2143", "12345", "11", "2x1",
]
CHOICES = [
    "left", "right", "json", "table", "dot", "xml", "axioms", "palais-smale",
    "given", "search",
]
VALUES_OF = {
    "--type": SELECTORS, "--i": INDICES,
    **dict.fromkeys(("--w", "--v", "--perm"), ELEMENTS),
    **dict.fromkeys(("--side", "--format", "--check", "--orientation"), CHOICES),
}
TOKENS = WORDS + SELECTORS + INDICES + ELEMENTS + CHOICES


def _containers(obj):
    """Every dict and list in obj, obj first."""
    if isinstance(obj, (dict, list)):
        yield obj
        for x in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(x)


def mutate_json(rng, obj):
    """obj (not changed) with one to two random mutations."""
    obj = json.loads(json.dumps(obj))
    for _ in range(rng.randint(1, 2)):
        box = rng.choice(list(_containers(obj)))
        keys = list(box) if isinstance(box, dict) else list(range(len(box)))
        op = rng.choice(("replace", "delete", "add")) if keys else "add"
        value = copy.deepcopy(rng.choice(VALUES))  # [] and {} are not shared
        if op == "add":
            if isinstance(box, dict):
                box[rng.choice(KEYS)] = value
            else:
                box.insert(rng.randint(0, len(box)), value)
        elif op == "delete":
            del box[rng.choice(keys)]
        else:
            box[rng.choice(keys)] = value
    return obj


def mutate_argv(rng, argv):
    """argv with one or two random mutations, most often a flag given
    another value of its kind, which gets past argparse more often."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("value", "value", "value", "replace", "delete", "insert", "swap"))
        k = rng.randrange(len(argv)) if argv else 0
        values = [j for j in range(1, len(argv)) if argv[j - 1].startswith("--")]
        if op == "value" and values:
            j = rng.choice(values)
            argv[j] = rng.choice(VALUES_OF.get(argv[j - 1], TOKENS))
        elif op == "replace" and argv:
            argv[k] = rng.choice(TOKENS)
        elif op == "delete" and argv:
            del argv[k]
        elif op == "swap" and len(argv) > 1:
            j = rng.randrange(len(argv))
            argv[k], argv[j] = argv[j], argv[k]
        else:
            argv.insert(rng.randint(0, len(argv)), rng.choice(TOKENS))
    return argv


def _read_back(args, out: str) -> None:
    """Load stdout with the reader that matches the command, or raise."""
    if getattr(args, "format", "json") in ("table", "dot"):
        assert out.endswith("\n") and out.strip(), "empty text output"
        return
    obj = json.loads(out)
    if args.command == "graph":
        if args.check is None:
            g = load_external_graph(obj)
            assert len(g.vertices) == len(obj["vertices"])
    elif args.command in ("class", "ddiff"):
        class_from_json(obj)
    elif args.command == "act":
        class_from_json(obj["class"])
        expansion_from_json({"graph_ref": obj["class"]["graph_ref"],
                             "coefficients": obj["expansion"]})
    elif args.command == "expand":
        expansion_from_json(obj)
    else:  # decompose: no reader in the package, the JSON itself
        assert isinstance(obj, dict) and "ok" in obj


def contract_failure(capsys, argv) -> str | None:
    """None when one run of main on argv keeps the contract, else why not."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any other escape breaks the contract
        capsys.readouterr()
        return f"{type(exc).__name__} escaped main: {exc}"
    out, err = capsys.readouterr()
    if code == 2:
        if out or not err.startswith("error: ") or err.count("\n") != 1:
            return f"exit 2 with stdout {out[:80]!r} and stderr {err[:200]!r}"
        return None
    args = build_parser().parse_args(list(argv))
    checks = args.command == "decompose" or getattr(args, "check", None)
    if code not in (0, 1) or (code == 1 and not checks) or err:
        return f"exit {code} with stderr {err[:200]!r}"
    try:
        _read_back(args, out)
    except Exception as exc:  # noqa: BLE001
        return f"exit {code}, output not read back: {type(exc).__name__}: {exc}"
    return None


def _probe(capsys, tmp_path, name, count, make_case):
    """Run count seeded cases; every contract failure is listed at once."""
    rng = random.Random(f"{SEED}/{name}")
    failures = []
    for k in range(count):
        argv, text = make_case(rng)
        if text is not None:
            path = tmp_path / f"case{k}.json"
            path.write_text(text)
            argv = [a.format(path=path) for a in argv]
        why = contract_failure(capsys, argv)
        if why is not None:
            failures.append((argv, text, why))
    assert not failures, "\n".join(f"{a} {t!r}: {why}" for a, t, why in failures[:5])


@pytest.mark.parametrize("command", sorted(CLASS_COMMANDS))
@pytest.mark.parametrize("source", sorted(CLASS_FILES))
def test_mutated_class_files(capsys, tmp_path, source, command):
    base = _class_file(*CLASS_FILES[source])

    def case(rng):
        return CLASS_COMMANDS[command], json.dumps(mutate_json(rng, base))

    _probe(capsys, tmp_path, f"{source}/{command}", 30, case)


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_mutated_hexagon(capsys, tmp_path, command):
    base = toric_hexagon_json()

    def case(rng):
        return GRAPH_COMMANDS[command], json.dumps(mutate_json(rng, base))

    _probe(capsys, tmp_path, f"hexagon/{command}", 80, case)


@pytest.mark.parametrize("k", range(len(ARGV_BASES)))
def test_mutated_argv(capsys, tmp_path, monkeypatch, k):
    monkeypatch.chdir(tmp_path)  # a token read as a file name finds nothing

    def case(rng):
        return mutate_argv(rng, ARGV_BASES[k]), None

    _probe(capsys, tmp_path, f"argv/{k}", 40, case)
