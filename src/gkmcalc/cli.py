"""Command-line front end.

Subcommands: ``graph``, ``class``, ``act``, ``ddiff``, ``expand``,
``decompose``, ``verify``.  All numeric output is exact rational text and
every invocation is deterministic: vertices, edges, and polynomial terms
are emitted in canonical order, so identical runs produce identical bytes.

Exit codes: 0 success, 1 failed verification or failed ``--check``, 2 usage
or input errors.

Each query is one process, so imports stay light: ``verify`` is loaded only
by ``gkmcalc verify``, and the package imports neither ``dataclasses`` nor
``inspect``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .gkm import (
    KnutsonTaoBasis,
    SolveError,
    class_from_json,
    class_to_json,
    expand_in_basis,
    expansion_to_json,
    kt_report,
)
from .moment_graph import (
    build_schubert_moment_graph,
    graph_to_dot,
    graph_to_json,
    is_palais_smale,
    load_external_graph,
    validate_axioms,
)
from .polyring import ExactDivisionError
from .repaction import (
    act_word,
    decompose,
    left_divided_difference,
    right_divided_difference,
)
from .root_system import root_system

__all__ = ["main"]

USAGE_ERROR, CHECK_FAILED = 2, 1

# the keys of verify.SUITES, in order, kept here so that only the verify
# subcommand imports that module
SUITE_NAMES = ("polyring", "root-system", "moment-graph", "gkm", "repaction")


class CliError(Exception):
    """Input problem that should exit with the usage status."""


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    path = output
    outdir = os.environ.get("GKMCALC_OUTPUT_DIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"bad JSON in {path}: {exc}") from exc
    except RecursionError:
        raise CliError(f"bad JSON in {path}: nested too deeply") from None


def _load_class(path: str):
    try:
        return class_from_json(_load_json_file(path))
    except KeyError as exc:  # vertex_by_str's line, which str() would quote again
        raise CliError(f"bad class file: {exc.args[0]}") from exc
    except ValueError as exc:
        raise CliError(f"bad class file: {exc}") from exc


def _graph_for(args) -> "MomentGraph":
    if getattr(args, "load", None):
        return load_external_graph(_load_json_file(args.load))
    if not args.type:  # graph alone has --load
        raise CliError("need --type (or --load)" if "load" in args else "need --type")
    rs = root_system(args.type)
    w = rs.parse_element(args.w) if args.w is not None else rs.longest_element()
    return build_schubert_moment_graph(rs, w)


def _vertex_arg(g, text: str):
    """The vertex of g named by text; CliError when it is not in the variety."""
    v = g.rs.parse_element(text)  # main reports its ValueError like a CliError
    if v not in g:
        raise CliError(f"vertex {text!r} is not in the chosen variety")
    return v


def _class_table(cls) -> str:
    texts = class_to_json(cls)["localizations"]
    width = max(map(len, texts), default=1)
    return "\n".join(f"{name:>{width}}  {text}" for name, text in texts.items()) + "\n"


def cmd_graph(args) -> int:
    g = _graph_for(args)
    if args.check:
        if args.check == "axioms":
            rep = validate_axioms(g)
            _emit(_json_text(rep.to_json()), args.output)
            return 0 if rep.ok else CHECK_FAILED
        res = is_palais_smale(g, mode=args.orientation)
        _emit(_json_text(res.to_json()), args.output)
        return 0 if res.holds else CHECK_FAILED
    if args.format == "dot":
        _emit(graph_to_dot(g), args.output)
    else:
        payload = graph_to_json(g)
        payload["axioms"] = validate_axioms(g).to_json()
        if g.rs is not None:
            payload["root_system"] = g.rs.descriptor()
        _emit(_json_text(payload), args.output)
    return 0


def cmd_class(args) -> int:
    g = _graph_for(args)
    v = _vertex_arg(g, args.v)
    basis = KnutsonTaoBasis(g)
    cls = basis.cls(v)
    if args.format == "table":
        _emit(_class_table(cls), args.output)
    else:
        payload = class_to_json(cls)
        payload["route"] = basis.route
        payload["kt_conditions"] = kt_report(cls).to_json()
        _emit(_json_text(payload), args.output)
    return 0


def cmd_act(args) -> int:
    g = _graph_for(args)
    rs = g.rs
    u = rs.parse_element(args.perm)
    v = _vertex_arg(g, args.v)
    expansion = act_word(u, {v: 1}, g)
    payload = {
        "perm": rs.element_str(u),
        "v": rs.element_str(v),
        "class": class_to_json(KnutsonTaoBasis(g).reconstruct(expansion)),
        "expansion": expansion_to_json(expansion, g)["coefficients"],
    }
    _emit(_json_text(payload), args.output)
    return 0


def cmd_ddiff(args) -> int:
    basis = None  # the left side expands through it on a Schubert graph
    if args.class_file:
        cls = _load_class(args.class_file)
    elif not args.v:
        raise CliError("need --class FILE or --type/--v")
    else:
        g = _graph_for(args)
        basis = KnutsonTaoBasis(g)
        cls = basis.cls(_vertex_arg(g, args.v))
    if cls.graph.rs is None:
        raise CliError("ddiff needs a class on a flag or Schubert graph")
    try:
        if args.side == "left":
            out = left_divided_difference(args.i, cls, basis)
        else:
            out = right_divided_difference(args.i, cls)
    except ExactDivisionError as exc:  # only a non-GKM class leaves a remainder
        raise CliError(f"not a GKM class: {exc}") from exc
    payload = class_to_json(out)
    payload["side"] = args.side
    payload["i"] = args.i
    _emit(_json_text(payload), args.output)
    return 0


def cmd_expand(args) -> int:
    cls = _load_class(args.class_file)
    expansion = expand_in_basis(cls)
    _emit(_json_text(expansion_to_json(expansion, cls.graph)), args.output)
    return 0


def cmd_decompose(args) -> int:
    rep = decompose(_graph_for(args))
    if args.format == "table":
        _emit(rep.table(), args.output)
    else:
        _emit(_json_text(rep.to_json()), args.output)
    return 0 if rep.ok else CHECK_FAILED


def cmd_verify(args) -> int:
    from .verify import ledger

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    text, ok = ledger(names, max_n=args.max_n, seed=args.seed)
    _emit(text, args.output)
    return 0 if ok else CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors are one ``error: ...`` line and exit 2, like the rest."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="gkmcalc",
        description="Exact equivariant cohomology of Schubert varieties "
        "on GKM moment graphs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_variety(p):
        p.add_argument("--type", help="variety type: A:n, B2, or G2")
        p.add_argument(
            "--w",
            default=None,
            help="top element (type A one-line like 321; B2/G2 word like 121); "
            "defaults to the longest element",
        )

    p = sub.add_parser("graph", help="build or load a moment graph")
    add_variety(p)
    p.add_argument("--load", help="load an external graph JSON file")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--check", choices=("palais-smale", "axioms"))
    p.add_argument(
        "--orientation",
        choices=("given", "search"),
        default="search",
        help="Palais-Smale mode: stored orientation or flow-orientation search",
    )
    p.add_argument("--output")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("class", help="construct a Knutson-Tao class")
    add_variety(p)
    p.add_argument("--v", required=True, help="base vertex")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_class)

    p = sub.add_parser("act", help="apply a Weyl element to a basis class")
    add_variety(p)
    p.add_argument("--perm", required=True, help="acting element")
    p.add_argument("--v", required=True, help="base vertex of the class")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("ddiff", help="apply a divided difference operator")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--i", type=int, required=True, help="simple index")
    p.add_argument("--class", dest="class_file", help="class JSON file")
    add_variety(p)
    p.add_argument("--v", help="base vertex (alternative to --class)")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_ddiff)

    p = sub.add_parser("expand", help="expand a class in the Knutson-Tao basis")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("decompose", help="trivial-summand decomposition report")
    add_variety(p)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run invariant suites and print a ledger")
    p.add_argument(
        "--suite", choices=("all", *SUITE_NAMES), default="all", help="which suite to run"
    )
    p.add_argument(
        "--max-n", dest="max_n", type=int, default=4,
        help="upper bound on A:n; each row also stops at its own cap",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, SolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
