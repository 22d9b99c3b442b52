"""Root systems and Weyl groups for types A:n (n <= 8), B2, and G2.

Type A:n keeps the concrete realization in n ambient variables t_1..t_n:
roots are the vectors e_i - e_j, Weyl elements are :class:`Permutation`
objects, and the bilinear form is the standard dot product.  B2 and G2 live
in simple-root coordinates (variables a_1, a_2): roots are integer vectors
over the simple roots, reflections come from the symmetrized Cartan
pairing, and Weyl elements are stored as permutations of the full root
list.  Both backends expose one interface, so the moment-graph and
cohomology layers never branch on type.

Each instance enumerates its Weyl group once, at construction, and numbers
the elements 0..|W|-1 in (length, name) order: the identity is 0 and the
longest element |W|-1.  ``index`` maps an element to its id, and flat int
tables indexed by id hold the length (``lengths``), s_i * w and w * s_i
(``lmul[i-1]``, ``rmul[i-1]``) and w^{-1} (``inverse``), rank x |W| ints
per product table.  ``simple_twists[i-1]`` holds the coadjoint
substitution of s_i and -alpha_i, the two polynomial pieces of every
simple-reflection step (the action on a basis expansion and the divided
differences).  Descents, reduced words, Bruhat order (by the lifting
property) and lower intervals are table lookups, with no group product;
element objects stay at the boundary (parsing, names, graph vertices).  The
minimal coset representatives of the parabolic chain W_1 < W_12 < ... < W,
which the group average walks, come from the same tables on first use
(:meth:`RootSystem.coset_chain`).

Inversion sets follow the usual convention: Inv(w) is the set of positive
roots that w^{-1} makes negative, and len(Inv(w)) is the Coxeter length.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coxeter import Permutation, inversion_pairs, parse_permutation
from .polyring import Polynomial, exact_divide

__all__ = [
    "RootSystem",
    "TypeARootSystem",
    "RankTwoRootSystem",
    "root_system",
    "type_a",
]

RootVector = tuple[int, ...]

# Largest n accepted for A:n.  The group table is built eagerly and grows
# as n!; at n = 8 it holds 40,320 permutations.
MAX_TYPE_A_N = 8


class RootSystem:
    """Shared interface for the concrete backends.

    Subclasses provide the group operations (identity, product, inverse,
    reflections, the action on roots and on the coordinate ring, element
    names) and end their constructor with :meth:`_build_group`.  This base
    class then answers the table questions (elements, lengths, simple
    reflections, the longest element) by lookup and supplies the
    type-independent algorithms (reduced words, Bruhat order and intervals,
    the coadjoint divided difference).  Instances are immutable lookup
    tables; get them through :func:`root_system`, which keeps one per type.
    """

    label: str
    dim: int  # ambient ring dimension
    rank: int  # number of simple roots
    var_prefix: str
    simple_roots: tuple[RootVector, ...]
    positive_roots: tuple[RootVector, ...]
    _bilinear: tuple[tuple[int, ...], ...]

    # -- subclass surface ----------------------------------------------------

    def identity(self):
        raise NotImplementedError

    def mul(self, u, v):
        raise NotImplementedError

    def inv(self, w):
        raise NotImplementedError

    def inversions(self, w) -> tuple[RootVector, ...]:
        raise NotImplementedError

    def reflection(self, alpha: RootVector):
        """The reflection attached to a positive root."""
        raise NotImplementedError

    def act_on_root(self, w, alpha: RootVector) -> RootVector:
        raise NotImplementedError

    def coadjoint_substitution(self, w) -> dict[int, Polynomial]:
        """Variable assignment realizing w on the coordinate ring."""
        raise NotImplementedError

    def element_str(self, w) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    # -- the group table -------------------------------------------------------

    def _build_group(self) -> None:
        """Enumerate W breadth-first from the identity into the id tables.

        Each step multiplies on the left by a simple reflection, so BFS
        depth is length, and the BFS forms every s_i * w exactly once.
        """
        self._simple = tuple(self.reflection(a) for a in self.simple_roots)
        order = [self.identity()]
        self.index, self.lengths = {order[0]: 0}, [0]
        self.lmul = tuple([] for _ in self._simple)
        for k, w in enumerate(order):  # breadth-first: order grows
            for s, row in zip(self._simple, self.lmul):
                sw = self.mul(s, w)
                j = self.index.get(sw)
                if j is None:
                    j = self.index[sw] = len(order)
                    order.append(sw)
                    self.lengths.append(self.lengths[k] + 1)
                row.append(j)
        # the tables are complete in BFS numbering, so names (reduced words
        # in the rank-two types) can be read from them before renumbering
        ids = sorted(
            range(len(order)),
            key=lambda k: (self.lengths[k], self.element_str(order[k])),
        )
        pos = sorted(range(len(ids)), key=ids.__getitem__)  # BFS number -> id
        self._elements = tuple([order[k] for k in ids])
        self.index = {w: pos[k] for k, w in enumerate(order)}
        self.lengths = tuple([self.lengths[k] for k in ids])
        self.lmul = tuple(tuple([pos[row[k]] for k in ids]) for row in self.lmul)
        inv = self.inverse = tuple([self.index[self.inv(w)] for w in self._elements])
        # w * s_i = (s_i * w^{-1})^{-1}
        self.rmul = tuple(tuple([inv[row[k]] for k in inv]) for row in self.lmul)
        self.simple_twists = tuple(
            (self.coadjoint_substitution(s), -self.root_form(a))
            for s, a in zip(self._simple, self.simple_roots)
        )

    def elements(self) -> tuple:
        return self._elements

    def length(self, w) -> int:
        return self.lengths[self.index[w]]

    def _simple_index(self, i: int) -> int:
        """i - 1 for a simple index i in 1..rank, else ValueError."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} outside 1..{self.rank}")
        return i - 1

    def simple_reflection(self, i: int):
        return self._simple[self._simple_index(i)]

    def longest_element(self):
        return self._elements[-1]

    _chain = None

    def coset_chain(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Minimal left coset representatives along W_1 < W_12 < ... < W.

        Entry k-1 describes level k: the elements c of W_{1..k} with no
        right descent in {1..k-1}, so every u in W_{1..k} is c u' for one
        such c and one u' in W_{1..k-1}.  Closed under removing a left
        descent, they form a tree: node 0 is the identity, and the j-th
        step (parent, i) makes node j the element s_i * node[parent], one
        longer.  A:n has n(n-1)/2 steps in all, a dihedral group of order
        2m has m.  Derived from the group table on first use and kept on
        the instance.
        """
        if self._chain is None:
            self._chain = tuple(
                self._coset_level(k) for k in range(1, self.rank + 1)
            )
        return self._chain

    def _coset_level(self, k: int) -> tuple[tuple[int, int], ...]:
        length = self.lengths
        nodes, steps = [0], []
        for parent, c in enumerate(nodes):  # breadth-first: nodes grows
            for i in range(1, k + 1):
                sc = self.lmul[i - 1][c]
                if sc in nodes or length[sc] < length[c]:
                    continue
                if any(length[self.rmul[j][sc]] < length[sc] for j in range(k - 1)):
                    continue
                nodes.append(sc)
                steps.append((parent, i))
        return tuple(steps)

    # -- shared algorithms -----------------------------------------------------

    def _pair(self, alpha: RootVector, beta: RootVector) -> Fraction:
        """Cartan pairing <beta, alpha^vee> = 2 B(alpha, beta) / B(alpha, alpha)."""

        def form(x: RootVector, y: RootVector) -> int:
            return sum(
                xi * bij * yj
                for xi, row in zip(x, self._bilinear)
                for bij, yj in zip(row, y)
            )

        return Fraction(2 * form(alpha, beta), form(alpha, alpha))

    def is_root(self, vec: RootVector) -> bool:
        vec = tuple(vec)
        neg = tuple(-x for x in vec)
        return vec in self.positive_roots or neg in self.positive_roots

    def reflect(self, alpha: RootVector, beta: RootVector) -> RootVector:
        """Image of the root beta under the reflection through alpha."""
        alpha, beta = tuple(alpha), tuple(beta)
        if not self.is_root(alpha) or not self.is_root(beta):
            raise ValueError(f"not roots of {self.label}: {alpha}, {beta}")
        c = self._pair(alpha, beta)
        if c.denominator != 1:
            raise ValueError(f"non-integral Cartan pairing for {alpha}, {beta}")
        out = tuple(b - int(c) * a for a, b in zip(alpha, beta))
        if not self.is_root(out):
            raise ValueError(f"reflection left the root system: {out}")
        return out

    def cartan_matrix(self) -> list[list[int]]:
        """Entries a_ij = <alpha_j, alpha_i^vee>."""
        simple = self.simple_roots
        return [[int(self._pair(ai, aj)) for aj in simple] for ai in simple]

    def root_form(self, vec: RootVector) -> Polynomial:
        """The root as a linear form in the coordinate ring."""
        return Polynomial.linear_form(
            self.dim, {i + 1: c for i, c in enumerate(vec) if c}
        )

    def simple_root_form(self, i: int) -> Polynomial:
        return self.root_form(self.simple_roots[self._simple_index(i)])

    def _descent(self, k: int) -> int | None:
        """The first left descent of element k, or None for the identity."""
        lk = self.lengths[k]
        for i, row in enumerate(self.lmul, start=1):
            if self.lengths[row[k]] < lk:
                return i
        return None

    def reduced_word(self, w) -> list[int]:
        """Reduced word by the leftmost-descent rule: w = s_{i_1} ... s_{i_k}."""
        word: list[int] = []
        k = self.index[w]
        while (i := self._descent(k)) is not None:
            word.append(i)
            k = self.lmul[i - 1][k]
        return word

    def lower_interval(self, w) -> frozenset:
        """All v <= w in Bruhat order, via products of subwords."""
        k = self.index[w]
        return frozenset(self._elements[u] for u in self.lower_intervals([k])[k])

    def lower_intervals(self, ids) -> dict[int, set[int]]:
        """[e, w] as a set of ids for every id w in ids, in one pass.

        With s_i the first left descent of w, the subwords of a reduced word
        give [e, w] = [e, s_i w] | s_i [e, s_i w]: each interval is built
        from the one below it, at one union each, and shared.
        """
        got: dict[int, set[int]] = {0: {0}}
        for top in ids:
            chain = []  # top, s_i top, ... down to an interval already known
            while top not in got:
                row = self.lmul[self._descent(top) - 1]
                chain.append((top, row))
                top = row[top]
            for k, row in reversed(chain):
                below = got[row[k]]
                got[k] = below | {row[u] for u in below}
        return got

    def bruhat_leq(self, v, w) -> bool:
        """v <= w in Bruhat order, by the lifting property.

        For a left descent s of w: v <= w iff sv <= sw when s is also a
        left descent of v, and iff v <= sw otherwise.  Each step shortens
        w by one, so the loop ends at w = e after l(w) steps.
        """
        a, b = self.index[v], self.index[w]
        while (i := self._descent(b)) is not None:
            row = self.lmul[i - 1]
            if self.lengths[row[a]] < self.lengths[a]:
                a = row[a]
            b = row[b]
        return a == b

    def divided_difference(self, p: Polynomial, i: int) -> Polynomial:
        """Coadjoint divided difference (p - s_i . p) / alpha_i."""
        sub, minus_alpha = self.simple_twists[self._simple_index(i)]
        num = p.substitute(sub) - p  # over -alpha_i: the same quotient
        if num.is_zero():
            return Polynomial.zero(self.dim)
        return exact_divide(num, minus_alpha)

    def descriptor(self) -> dict:
        return {
            "type": self.label,
            "rank": self.rank,
            "dim": self.dim,
            "var_prefix": self.var_prefix,
            "cartan_matrix": self.cartan_matrix(),
            "positive_roots": [list(r) for r in self.positive_roots],
        }

    def __repr__(self) -> str:
        return f"<RootSystem {self.label}>"


class TypeARootSystem(RootSystem):
    """S_n acting on n ambient variables; roots are e_i - e_j."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("type A needs n >= 1")
        if n > MAX_TYPE_A_N:
            raise ValueError(
                f"type A:{n} is too large: its Weyl group has n! elements and "
                f"is tabulated up front, so n is limited to {MAX_TYPE_A_N}"
            )
        self.label = f"A:{n}"
        self.n = n
        self.dim = n
        self.rank = n - 1
        self.var_prefix = "t"
        self.simple_roots = tuple(
            self._pair_root(i, i + 1) for i in range(1, n)
        )
        self.positive_roots = tuple(
            self._pair_root(i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )
        self._bilinear = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        self._build_group()

    def _pair_root(self, i: int, j: int) -> RootVector:
        vec = [0] * self.n
        vec[i - 1], vec[j - 1] = 1, -1
        return tuple(vec)

    def identity(self) -> Permutation:
        return Permutation.identity(self.n)

    def mul(self, u: Permutation, v: Permutation) -> Permutation:
        return u * v

    def inv(self, w: Permutation) -> Permutation:
        return w.inverse()

    def inversions(self, w: Permutation) -> tuple[RootVector, ...]:
        return tuple(self._pair_root(i, j) for i, j in inversion_pairs(w))

    def reflection(self, alpha: RootVector) -> Permutation:
        i, j = self._root_indices(alpha)
        return Permutation.transposition(self.n, i, j)

    def _root_indices(self, alpha: RootVector) -> tuple[int, int]:
        alpha = tuple(alpha)
        plus = [i + 1 for i, c in enumerate(alpha) if c == 1]
        minus = [i + 1 for i, c in enumerate(alpha) if c == -1]
        if len(plus) != 1 or len(minus) != 1 or any(c not in (-1, 0, 1) for c in alpha):
            raise ValueError(f"not a type A root: {alpha}")
        return min(plus[0], minus[0]), max(plus[0], minus[0])

    def act_on_root(self, w: Permutation, alpha: RootVector) -> RootVector:
        out = [0] * self.n
        for i, c in enumerate(alpha, start=1):
            if c:
                out[w(i) - 1] = c
        return tuple(out)

    def coadjoint_substitution(self, w: Permutation) -> dict[int, Polynomial]:
        return {
            i: Polynomial.variable(self.n, w(i))
            for i in range(1, self.n + 1)
            if w(i) != i
        }

    def element_str(self, w: Permutation) -> str:
        return str(w)

    def parse_element(self, text: str) -> Permutation:
        return parse_permutation(text, self.n)


# Cartan data for the rank-two types: symmetrized bilinear form on the
# simple-root coordinates, with alpha_1 the short root in both cases.
_RANK2_DATA = {
    "B2": ((2, -2), (-2, 4)),
    "G2": ((2, -3), (-3, 6)),
}


class RankTwoRootSystem(RootSystem):
    """B2 or G2 in simple-root coordinates.

    Weyl elements are permutations of the full root list, stored as index
    tuples; the group (order 8 or 12) is enumerated once at construction.
    """

    def __init__(self, label: str):
        if label not in _RANK2_DATA:
            raise ValueError(f"unsupported rank-two type {label!r}")
        self.label = label
        self.dim = 2
        self.rank = 2
        self.var_prefix = "a"
        self._bilinear = _RANK2_DATA[label]
        self.simple_roots = ((1, 0), (0, 1))
        self.positive_roots = self._close_roots()

        pos = self.positive_roots
        self._roots = pos + tuple(tuple(-x for x in r) for r in pos)
        self._root_index = {r: k for k, r in enumerate(self._roots)}
        self._npos = len(pos)
        self._names: dict = {}
        self._build_group()

    def _close_roots(self) -> tuple[RootVector, ...]:
        roots = set(self.simple_roots) | {
            tuple(-x for x in r) for r in self.simple_roots
        }
        frontier = set(roots)
        while frontier:
            new = set()
            for beta in frontier:
                for alpha in self.simple_roots:
                    img = self._image(alpha, beta)
                    if img not in roots:
                        new.add(img)
            roots |= new
            frontier = new
        pos = [r for r in roots if all(x >= 0 for x in r)]
        return tuple(sorted(pos, key=lambda r: (sum(r), r)))

    def _image(self, alpha: RootVector, beta: RootVector) -> RootVector:
        c = int(self._pair(alpha, beta))
        return tuple(b - c * a for a, b in zip(alpha, beta))

    def identity(self):
        return tuple(range(len(self._roots)))

    def mul(self, u, v):
        return tuple(u[v[k]] for k in range(len(v)))

    def inv(self, w):
        out = [0] * len(w)
        for k, img in enumerate(w):
            out[img] = k
        return tuple(out)

    def inversions(self, w) -> tuple[RootVector, ...]:
        # the positive roots that w^{-1} makes negative
        inv = [self._roots[img] for img in w[self._npos :] if img < self._npos]
        return tuple(sorted(inv, key=lambda r: (sum(r), r)))

    def reflection(self, alpha: RootVector):
        alpha = tuple(alpha)
        if alpha not in self._root_index:
            raise ValueError(f"not a root of {self.label}: {alpha}")
        return tuple(self._root_index[self._image(alpha, b)] for b in self._roots)

    def act_on_root(self, w, alpha: RootVector) -> RootVector:
        k = self._root_index.get(tuple(alpha))
        if k is None:
            raise ValueError(f"not a root of {self.label}: {alpha}")
        return self._roots[w[k]]

    def coadjoint_substitution(self, w) -> dict[int, Polynomial]:
        return {
            i + 1: self.root_form(self.act_on_root(w, a))
            for i, a in enumerate(self.simple_roots)
        }

    def element_str(self, w) -> str:
        name = self._names.get(w)
        if name is None:
            name = self._names[w] = "".join(map(str, self.reduced_word(w))) or "e"
        return name

    def parse_element(self, text: str):
        s = text.strip()
        if s == "e" or s == "":
            return self.identity()
        if not s.isdigit():
            raise ValueError(f"cannot parse {self.label} element {text!r}")
        k = 0
        for ch in s:
            if not 1 <= int(ch) <= self.rank:
                raise ValueError(f"simple index {ch} outside 1..{self.rank}")
            k = self.rmul[int(ch) - 1][k]
        return self._elements[k]


def root_system(label: str) -> RootSystem:
    """Factory with one shared instance per type, however the label is
    spelled: 'a:3', ' A:03 ' and 'A:3' give the same table."""
    label = label.strip()
    unknown = f"unknown type selector {label!r} (use A:n, B2, or G2)"
    if label.upper().startswith("A:"):
        try:
            n = int(label[2:])
        except ValueError:
            raise ValueError(unknown) from None
        return _canonical_root_system(f"A:{n}")
    if label.upper() in _RANK2_DATA:
        return _canonical_root_system(label.upper())
    raise ValueError(unknown)


@lru_cache(maxsize=None)
def _canonical_root_system(label: str) -> RootSystem:
    # keyed by the canonical label, so it holds at most one table per type:
    # a refused rank raises and is never cached
    if label.startswith("A:"):
        return TypeARootSystem(int(label[2:]))
    return RankTwoRootSystem(label)


def type_a(n: int) -> RootSystem:
    return root_system(f"A:{n}")
