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
(``lmul[i-1]``, ``rmul[i-1]``), w^{-1} (``inverse``) and the first right
descent (``rdescent``: i - 1 for the least i with w * s_i shorter, None
for the identity), rank x |W| ints per product table.
``simple_twists[i-1]`` holds the coadjoint substitution of s_i, compiled
once as a polyring ``Substitution``, and
-alpha_i: the two polynomial pieces of every simple-reflection step (the
action on a basis expansion and the divided differences).
``root_rows`` holds one row per positive root beta, in ``positive_roots``
order: its edge label ``root_form(beta)``, that label's line and the
``lmul`` rows along a reduced word of the reflection t_beta, so the id of
t_beta * w is one int lookup per letter away from w's; the moment-graph
builder reads every edge off them.  Descents,
reduced words, Bruhat order (by the lifting property), lower intervals and
reduced factorizations v = x y (Billey's rows, the decomposition's pairs)
are table lookups, with no group product; element objects stay at the
boundary (parsing, names, graph vertices).  The minimal coset
representatives of the parabolic chain W_1 < W_12 < ... < W, one word per
level, which the group average walks, are type data that each backend
sets in its constructor (:meth:`RootSystem.coset_chain`).

Inversion sets follow the usual convention: Inv(w) is the set of positive
roots that w^{-1} makes negative, and len(Inv(w)) is the Coxeter length.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coxeter import Permutation, inversion_pairs, parse_permutation
from .polyring import Polynomial, Substitution, _line, exact_divide

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
    names) and the coset-chain words, and end their constructor with
    :meth:`_build_group`.  This base class then answers the table questions
    (elements, lengths, simple reflections, the longest element, the coset
    chain) by lookup and supplies the type-independent algorithms (reduced
    words, Bruhat order and intervals, the coadjoint divided difference).
    Instances are lookup tables, complete once built; :func:`root_system`
    keeps one per type.
    """

    label: str
    dim: int  # ambient ring dimension
    rank: int  # number of simple roots
    var_prefix: str
    simple_roots: tuple[RootVector, ...]
    positive_roots: tuple[RootVector, ...]
    _bilinear: tuple[tuple[int, ...], ...]
    _coset_words: tuple[tuple[int, ...], ...]

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
        """Enumerate W breadth-first from the identity into the id tables,
        then the simple twists and the root rows (reduced words of t_beta).

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
        # w's first right descent i (w * s_{i+1} is shorter), None for e: the
        # rows are read last to first, so the first descent is written last
        length, first = self.lengths, [None] * len(ids)
        for i in reversed(range(len(self.rmul))):
            first = [
                i if length[r] < lk else d
                for d, r, lk in zip(first, self.rmul[i], length)
            ]
        self.rdescent = tuple(first)
        self.simple_twists = tuple(
            (
                Substitution(self.dim, self.coadjoint_substitution(s)),
                -self.root_form(a),
            )
            for s, a in zip(self._simple, self.simple_roots)
        )
        # t_beta is an involution, so its rows in word order send w to t_beta * w
        rows = []
        for beta in self.positive_roots:
            label, word = self.root_form(beta), self.reduced_word(self.reflection(beta))
            rows.append((label, _line(label), tuple(self.lmul[i - 1] for i in word)))
        self.root_rows = tuple(rows)

    def elements(self) -> tuple:
        return self._elements

    def length(self, w) -> int:
        return self.lengths[self.element_id(w)]

    def element_id(self, w) -> int:
        """The id of w; ValueError when w is not an element of this group."""
        k = self.index.get(w)
        if k is None:
            raise ValueError(
                f"{_foreign_name(w)} is not an element of the Weyl group of {self.label}"
            )
        return k

    def _simple_index(self, i: int) -> int:
        """i - 1 for a simple index i in 1..rank, else ValueError."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} outside 1..{self.rank}")
        return i - 1

    def simple_reflection(self, i: int):
        return self._simple[self._simple_index(i)]

    def longest_element(self):
        return self._elements[-1]

    def coset_chain(self) -> tuple[tuple[int, ...], ...]:
        """Minimal left coset representatives along W_1 < W_12 < ... < W.

        Entry k-1 describes level k: the elements c of W_{1..k} with no
        right descent in {1..k-1}, so every u in W_{1..k} is c u' for one
        such c and one u' in W_{1..k-1}.  For the types here they form a
        chain, given as a word (i_1, i_2, ...): the j-th representative is
        s_{i_j} times the one before, one longer, starting at the identity.
        A:n's level k is (k, k-1, ..., 1), a dihedral group of order 2m has
        (1) and (2, 1, 2, ...) of length m - 1.  The words are type data,
        set by each backend's constructor.
        """
        return self._coset_words

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
        k = self.element_id(w)
        while (i := self._descent(k)) is not None:
            word.append(i)
            k = self.lmul[i - 1][k]
        return word

    def lower_interval(self, w) -> frozenset:
        """All v <= w in Bruhat order, via products of subwords."""
        k = self.element_id(w)
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

    def factorizations(self, v: int) -> dict[int, int]:
        """Every reduced factorization v = x y of the element id v, as x -> y:
        the x are the lower ideal of v in right weak order, walked from
        (v, e) by right descents, (x, y) -> (x s_i, s_i y)."""
        length, steps = self.lengths, tuple(zip(self.rmul, self.lmul))
        pairs = {v: 0}  # id 0 is the identity
        todo = [v]
        for x in todo:  # breadth-first: todo grows
            y, lx = pairs[x], length[x]
            for rrow, lrow in steps:
                xs = rrow[x]
                if length[xs] < lx and xs not in pairs:
                    pairs[xs] = lrow[y]
                    todo.append(xs)
        return pairs

    def bruhat_leq(self, v, w) -> bool:
        """v <= w in Bruhat order, by the lifting property.

        For a left descent s of w: v <= w iff sv <= sw when s is also a
        left descent of v, and iff v <= sw otherwise.  Each step shortens
        w by one, so the loop ends at w = e after l(w) steps.
        """
        a, b = self.element_id(v), self.element_id(w)
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
        self._coset_words = tuple(tuple(range(k, 0, -1)) for k in range(1, n))
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
# a rank-two element permutes all the roots of its type
_RANK2_BY_ROOT_COUNT = {8: "B2", 12: "G2"}


def _foreign_name(w) -> str:
    """w for an error line, with its type when it is a rank-two element."""
    label = _RANK2_BY_ROOT_COUNT.get(len(w)) if type(w) is tuple else None
    if label is not None and w in _canonical_root_system(label).index:
        return f"the {label} element {w}"
    return str(w)


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
        # dihedral of order 2m, m = |positive roots|: (1), then (2, 1, 2, ...)
        self._coset_words = ((1,), tuple(2 - j % 2 for j in range(self._npos - 1)))
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
                    c = int(self._pair(alpha, beta))
                    img = tuple(b - c * a for a, b in zip(alpha, beta))
                    if img not in roots:
                        new.add(img)
            roots |= new
            frontier = new
        pos = [r for r in roots if all(x >= 0 for x in r)]
        return tuple(sorted(pos, key=lambda r: (sum(r), r)))

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
        # B alpha and B(alpha, alpha) once, so each root's pairing is two int
        # products; the pairing of two roots is integral
        a1, a2 = alpha
        (b11, b12), (b21, b22) = self._bilinear
        ba1, ba2 = a1 * b11 + a2 * b21, a1 * b12 + a2 * b22
        aa = ba1 * a1 + ba2 * a2
        index = self._root_index
        out = []
        for r1, r2 in self._roots:
            c = 2 * (ba1 * r1 + ba2 * r2) // aa
            out.append(index[r1 - c * a1, r2 - c * a2])
        return tuple(out)

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
