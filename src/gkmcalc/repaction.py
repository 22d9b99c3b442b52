"""The Weyl group action on equivariant cohomology and its consequences.

The group acts on classes over the full flag graph pointwise: the value of
u . p at a vertex x is the coadjoint image under u of p at u^{-1} x.  On a
Schubert graph the vertex set is not closed under left multiplication, so
the action is defined through the Knutson-Tao basis instead: a simple
reflection s_i fixes the class of v when s_i v is longer and otherwise adds
-alpha_i times the class of s_i v; coefficients are twisted by the
coadjoint substitution.

Left divided differences (p - s_i . p) / alpha_i act class-by-class, with a
matching coefficient-level expansion formula.  The right divided difference
uses right multiplication of the vertex labels and a vertex-dependent
denominator.  Group averaging produces the invariant classes whose graded
span exhibits the equivariant cohomology of any Schubert variety as a sum
of trivial representations, one per fixed point, in degrees given by
length; :func:`decompose` assembles that ledger.

The orbit sum behind averaging (:func:`symmetrize`) runs along the
parabolic chain W_1 < W_12 < ... < W: the sum over W_{1..k} is the sum of
c . S over the minimal left coset representatives c of W_{1..k}/W_{1..k-1},
where S is the sum over W_{1..k-1}.  The representatives form a tree of
single left multiplications, so the whole sum costs n(n-1)/2
simple-reflection steps in A:n (m in a dihedral group of order 2m), not
one step per letter of every one of the |W| elements.

Every simple-reflection step reads the root system's per-type tables:
s_i v and its length from ``lmul`` and ``lengths``, and the coadjoint
substitution of s_i with -alpha_i from ``simple_twists``.  An expansion is
checked once, where it enters (its vertices must lie in the graph), not at
every step.  :func:`decompose` runs its checks on the integral orbit sum
(|W| times the averaged class), so they need no rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .gkm import (
    EquivariantClass,
    KnutsonTaoBasis,
    apply_group_element,
    expansions_equal,
    expand_in_basis,
)
from .moment_graph import MomentGraph
from .polyring import ExactDivisionError, Polynomial, exact_divide

__all__ = [
    "act",
    "act_on_schubert_basis",
    "act_word",
    "left_divided_difference",
    "right_divided_difference",
    "divided_difference_expansion",
    "AveragedClass",
    "average_class",
    "symmetrize",
    "DecompositionReport",
    "decompose",
    "divided_difference_closure",
]


def act(
    u, c: EquivariantClass, basis: KnutsonTaoBasis | None = None
) -> EquivariantClass:
    """Group action on a class, routed by the kind of graph it lives on."""
    g = c.graph
    if g.variety == "flag":
        return apply_group_element(u, c)
    if g.variety == "schubert":
        basis = basis if basis is not None else KnutsonTaoBasis(g)
        exp = expand_in_basis(c, basis)
        return basis.reconstruct(act_word(u, exp, g))
    raise ValueError("no group action on external graphs")


def act_on_schubert_basis(i: int, v, g: MomentGraph) -> dict:
    """Expansion of s_i applied to the Knutson-Tao class of v.

    The class is fixed when s_i v is longer; when s_i v is shorter the
    class of s_i v enters with coefficient -alpha_i.
    """
    if g.rs is None:
        raise ValueError("need a root-system graph")
    g.rs._simple_index(i)  # ValueError outside 1..rank
    return _act_simple_on_expansion(i, _as_polynomials({v: 1}, g), g)


def _accumulate(out: dict, v, p: Polynomial) -> None:
    """Add p to out[v], dropping the entry when the sum vanishes."""
    if not p:
        return
    cur = out.get(v)
    cur = p if cur is None else cur + p
    if cur:
        out[v] = cur
    else:
        out.pop(v, None)


def _as_polynomials(expansion: Mapping, g: MomentGraph) -> dict:
    """The nonzero terms of an expansion over g, scalars made polynomials.

    Every entry point of the action passes its expansion through here, so
    the simple-reflection steps after it need no checks of their own.
    """
    out = {}
    for v, p in expansion.items():
        if v not in g._vstr:
            raise ValueError(f"vertex {v!r} not in graph")
        if p:
            out[v] = Polynomial.constant(g.n, p) if isinstance(p, (int, Fraction)) else p
    return out


def _act_simple_on_expansion(i: int, expansion: Mapping, g: MomentGraph) -> dict:
    """s_i applied to a basis expansion: each coefficient is twisted by s_i,
    and the class of v also sends -alpha_i times it to s_i v when s_i v is
    shorter.

    The expansion comes from _as_polynomials and i lies in 1..rank.  The
    twist and -alpha_i are the root system's simple_twists entry, and s_i v
    and its length are lookups in its lmul and lengths tables.
    """
    rs = g.rs
    sub, minus_alpha = rs.simple_twists[i - 1]
    row, length, index, elements = rs.lmul[i - 1], rs.lengths, rs.index, rs.elements()
    out: dict = {}
    for v, cv in expansion.items():
        tw = cv.substitute(sub)
        _accumulate(out, v, tw)
        k = index[v]
        if length[row[k]] < length[k]:
            _accumulate(out, elements[row[k]], tw * minus_alpha)
    return out


def act_word(u, expansion: Mapping, g: MomentGraph) -> dict:
    """Apply a group element to a basis expansion, letter by letter.

    Factors u by its reduced word and applies the simple-reflection rule
    right-to-left, twisting coefficients as it goes; the result does not
    depend on the chosen word.
    """
    out = _as_polynomials(expansion, g)
    for i in reversed(g.rs.reduced_word(u)):
        out = _act_simple_on_expansion(i, out, g)
    return out


def symmetrize(expansion: Mapping, g: MomentGraph) -> dict:
    """The orbit sum of u . E over every u in W, for a basis expansion E.

    Level k of the parabolic chain (RootSystem.coset_chain) turns the sum
    over W_{1..k-1} into the sum over W_{1..k} by adding its image under
    each minimal left coset representative.  Each representative is its
    parent in the chain's tree times one simple reflection, so it costs a
    single simple-reflection step.
    """
    total = _as_polynomials(expansion, g)
    for level in g.rs.coset_chain():
        images = [total]
        total = dict(total)
        for parent, i in level:
            img = _act_simple_on_expansion(i, images[parent], g)
            images.append(img)
            for x, p in img.items():
                _accumulate(total, x, p)
    return total


def left_divided_difference(
    i: int, c: EquivariantClass, basis: KnutsonTaoBasis | None = None
) -> EquivariantClass:
    """(c - s_i . c) / alpha_i, divided exactly vertex by vertex."""
    g = c.graph
    num = c - act(g.rs.simple_reflection(i), c, basis)
    alpha = g.rs.simple_root_form(i)
    out = {}
    for v, p in num._loc.items():
        try:
            out[v] = exact_divide(p, alpha)
        except ExactDivisionError as exc:  # the theory says this cannot happen
            raise ExactDivisionError(
                f"left divided difference failed at {g.vertex_str(v)}: {exc}"
            ) from exc
    return EquivariantClass(g, out)


def right_divided_difference(i: int, c: EquivariantClass) -> EquivariantClass:
    """Vertexwise operator (p(v) - p(v s_i)) / (-(v . alpha_i)).

    Needs the full flag graph, whose vertex set is closed under right
    multiplication by s_i.
    """
    g = c.graph
    rs = g.rs
    if rs is None or g.variety != "flag":
        raise ValueError("the right divided difference needs the full flag graph")
    s = rs.simple_reflection(i)
    alpha = rs.simple_root_form(i)
    out = {}
    for v in g.vertices:
        num = c[v] - c[rs.mul(v, s)]
        if not num:
            continue
        den = -(alpha.substitute(rs.coadjoint_substitution(v)))
        try:
            out[v] = exact_divide(num, den)
        except ExactDivisionError as exc:
            raise ExactDivisionError(
                f"right divided difference failed at {g.vertex_str(v)}: {exc}"
            ) from exc
    return EquivariantClass(g, out)


def divided_difference_expansion(i: int, expansion: Mapping, g: MomentGraph) -> dict:
    """Coefficient-level left divided difference.

    Applies the coadjoint divided difference to every coefficient and, for
    each base vertex with s_i v shorter, moves the twisted coefficient down
    to s_i v.  Matches left_divided_difference after expansion.
    """
    rs = g.rs
    sub, _ = rs.simple_twists[rs._simple_index(i)]
    row, length, index, elements = rs.lmul[i - 1], rs.lengths, rs.index, rs.elements()
    out: dict = {}
    for v, cv in _as_polynomials(expansion, g).items():
        _accumulate(out, v, rs.divided_difference(cv, i))
        k = index[v]
        if length[row[k]] < length[k]:
            _accumulate(out, elements[row[k]], cv.substitute(sub))
    return out


class AveragedClass:
    """Group average of a Knutson-Tao class, as a basis expansion."""

    def __init__(self, base, expansion: dict):
        self.base = base
        self.expansion = expansion


def average_class(v, g: MomentGraph) -> AveragedClass:
    """Average the class of v over the whole Weyl group (exact rationals).

    The orbit sum comes from :func:`symmetrize`, one simple-reflection step
    per coset representative of the parabolic chain (n(n-1)/2 steps in
    A:n), and is divided by |W|.
    """
    rs = g.rs
    if rs is None:
        raise ValueError("need a root-system graph")
    total = symmetrize({v: Polynomial.one(g.n)}, g)
    scale = Fraction(1, len(rs.elements()))
    return AveragedClass(v, {x: p * scale for x, p in total.items()})


class DecompositionReport:
    """Per-variety ledger for the trivial-summand decomposition.

    One row per fixed point v: degree, invariance of the averaged class
    under every generator, and unitriangularity of its expansion.  The
    graded multiplicity of the trivial summand in degree d must equal the
    number of fixed points of length d, and the induced action modulo the
    variable ideal must fix every basis class.
    """

    def __init__(
        self,
        type_label: str,
        w_label: str,
        rows: list[dict] | None = None,
        multiplicities: dict[int, int] | None = None,
        poincare: list[int] | None = None,
        generator_invariance: dict[int, bool] | None = None,
        mod_t_identity: bool = True,
        unitriangular: bool = True,
    ):
        self.type_label = type_label
        self.w_label = w_label
        self.rows = [] if rows is None else rows
        self.multiplicities = {} if multiplicities is None else multiplicities
        self.poincare = [] if poincare is None else poincare
        self.generator_invariance = (
            {} if generator_invariance is None else generator_invariance
        )
        self.mod_t_identity = mod_t_identity
        self.unitriangular = unitriangular

    @property
    def ok(self) -> bool:
        return (
            all(self.generator_invariance.values())
            and self.mod_t_identity
            and self.unitriangular
            and all(r["invariant"] and r["unitriangular"] for r in self.rows)
        )

    def to_json(self) -> dict:
        return {
            "type": self.type_label,
            "w": self.w_label,
            "ok": self.ok,
            "rows": self.rows,
            "multiplicities": {str(d): m for d, m in sorted(self.multiplicities.items())},
            "poincare": list(self.poincare),
            "generator_invariance": {
                str(i): v for i, v in sorted(self.generator_invariance.items())
            },
            "mod_t_identity": self.mod_t_identity,
            "unitriangular": self.unitriangular,
        }

    def table(self) -> str:
        lines = [
            f"decomposition of X_{self.w_label} ({self.type_label})",
            f"poincare coefficients: {self.poincare}",
            "degree  multiplicity",
        ]
        for d, m in sorted(self.multiplicities.items()):
            lines.append(f"{d:>6}  {m}")
        lines.append("vertex  degree  invariant  unitriangular")
        for r in self.rows:
            lines.append(
                f"{r['v']:>6}  {r['degree']:>6}  {str(r['invariant']):>9}  "
                f"{str(r['unitriangular']):>13}"
            )
        lines.append(f"mod-t action is identity: {self.mod_t_identity}")
        lines.append(f"all checks pass: {self.ok}")
        return "\n".join(lines) + "\n"


def decompose(g: MomentGraph) -> DecompositionReport:
    """Compute every averaged class and report the decomposition facts.

    The checks run on the integral orbit sum of each class (|W| times its
    average), so they stay in int arithmetic: invariance under every s_i is
    linear, and unitriangularity reads coefficient |W| at v and support
    inside the Bruhat interval [e, v].  The intervals of all its vertices
    are built once per call; the simple-reflection steps read the root
    system's tables.
    """
    rs = g.rs
    if rs is None:
        raise ValueError("need a root-system graph")
    report = DecompositionReport(
        type_label=g.metadata.get("type", rs.label),
        w_label=g.metadata.get("w", ""),
    )
    gen_ok = {i: True for i in range(1, rs.rank + 1)}
    mod_t_ok = True
    one = Polynomial.one(g.n)
    order = Polynomial.constant(g.n, len(rs.elements()))
    below = rs.lower_intervals([rs.index[v] for v in g.vertices])

    for v in g.vertices:
        deg = rs.length(v)
        total = symmetrize({v: one}, g)
        invariant = True
        for i in gen_ok:
            image = _act_simple_on_expansion(i, total, g)
            if not expansions_equal(image, total):
                invariant = False
                gen_ok[i] = False
        support = {rs.index[u] for u in total}
        unitri = total.get(v) == order and support <= below[rs.index[v]]
        if not unitri:
            report.unitriangular = False
        # the induced action modulo the variable ideal fixes every class
        for i in gen_ok:
            image = _act_simple_on_expansion(i, {v: one}, g)
            consts = {
                u: p.constant_term() for u, p in image.items() if p.constant_term()
            }
            if consts != {v: Fraction(1)}:
                mod_t_ok = False
        report.rows.append(
            {
                "v": g.vertex_str(v),
                "degree": deg,
                "invariant": invariant,
                "unitriangular": unitri,
                "support": sorted(g.vertex_str(u) for u in total),
            }
        )
        report.multiplicities[deg] = report.multiplicities.get(deg, 0) + 1

    top = max(report.multiplicities) if report.multiplicities else 0
    report.poincare = [report.multiplicities.get(d, 0) for d in range(top + 1)]
    report.generator_invariance = gen_ok
    report.mod_t_identity = mod_t_ok
    return report


def _expansion_key(expansion: Mapping, g: MomentGraph) -> frozenset:
    return frozenset((g.vertex_str(v), p) for v, p in expansion.items() if p)


def divided_difference_closure(g: MomentGraph) -> list[dict]:
    """Breadth-first closure of the top class under all left D_i.

    Works at the expansion level starting from the coefficient-1 expansion
    at the unique top vertex; returns every distinct expansion reached,
    including the zero expansion when it occurs.
    """
    rs = g.rs
    start = {g.top_vertex(): Polynomial.one(g.n)}
    seen = {_expansion_key(start, g): start}
    frontier = [start]
    while frontier:
        new = []
        for exp in frontier:
            for i in range(1, rs.rank + 1):
                img = divided_difference_expansion(i, exp, g)
                key = _expansion_key(img, g)
                if key not in seen:
                    seen[key] = img
                    new.append(img)
        frontier = new
    return list(seen.values())
