"""Permutations of 1..n: the Weyl group elements of type A, and their parsing.

Permutations are stored in one-line notation ``[w(1), ..., w(n)]`` with the
convention that w sends the basis vector e_i to e_{w(i)}.  Products compose
as functions: (u * v)(i) = u(v(i)).  Inversions are the pairs (i, j) with
i < j whose values w^{-1}(i) > w^{-1}(j), and the length of w counts them.

Reduced words, Bruhat intervals and the action on polynomials are methods
of :func:`gkmcalc.root_system.type_a`, which uses these objects as its
group elements.

>>> s1, s2 = Permutation.simple(3, 1), Permutation.simple(3, 2)
>>> (s1 * s2).one_line
(2, 3, 1)
>>> inversion_pairs(s1 * s2)
[(1, 2), (1, 3)]
>>> parse_permutation("(123)") == s1 * s2
True
"""

from __future__ import annotations

import re
from itertools import permutations as _all_tuples

__all__ = [
    "Permutation",
    "inversion_pairs",
    "all_permutations",
    "parse_permutation",
]


class Permutation:
    """A permutation of 1..n in one-line notation; immutable and hashable."""

    __slots__ = ("one_line", "_hash")

    def __init__(self, one_line: tuple[int, ...]):
        n = len(one_line)
        if sorted(one_line) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {one_line}")
        object.__setattr__(self, "one_line", tuple(one_line))
        object.__setattr__(self, "_hash", hash((self.one_line,)))

    @classmethod
    def _trusted(cls, one_line: tuple[int, ...]) -> "Permutation":
        # internal: skips the check, for products and inverses of valid ones
        self = object.__new__(cls)
        object.__setattr__(self, "one_line", one_line)
        object.__setattr__(self, "_hash", hash((one_line,)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return (Permutation, (self.one_line,))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.one_line == other.one_line

    def __hash__(self) -> int:
        return self._hash  # hash((one_line,)), computed at construction

    def __repr__(self) -> str:
        return f"Permutation(one_line={self.one_line!r})"

    @property
    def n(self) -> int:
        return len(self.one_line)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition exchanging i and i+1."""
        return cls.transposition(n, i, i + 1)

    @classmethod
    def transposition(cls, n: int, j: int, k: int) -> "Permutation":
        if not 1 <= j < k <= n:
            raise ValueError(f"need 1 <= j < k <= n, got j={j} k={k} n={n}")
        w = list(range(1, n + 1))
        w[j - 1], w[k - 1] = k, j
        return cls(tuple(w))

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        mine = self.one_line
        if len(mine) != len(other.one_line):
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation._trusted(tuple([mine[v - 1] for v in other.one_line]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            inv[v - 1] = i
        return Permutation._trusted(tuple(inv))

    def length(self) -> int:
        return len(inversion_pairs(self))

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(map(str, self.one_line))
        return ",".join(map(str, self.one_line))

    def cycle_str(self) -> str:
        """Cycle notation with fixed points omitted; identity prints as 'e'."""
        if self.n > 9:
            raise ValueError("cycle notation is only offered for n <= 9")
        seen: set[int] = set()
        cycles: list[list[int]] = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc, i = [start], self(start)
            seen.add(start)
            while i != start:
                cyc.append(i)
                seen.add(i)
                i = self(i)
            if len(cyc) > 1:
                cycles.append(cyc)
        if not cycles:
            return "e"
        return "".join("(" + "".join(map(str, c)) + ")" for c in cycles)


def inversion_pairs(w: Permutation) -> list[tuple[int, int]]:
    """Sorted pairs (i, j), i < j, with w^{-1}(i) > w^{-1}(j)."""
    pos = {v: i for i, v in enumerate(w.one_line, start=1)}
    n = w.n
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if pos[i] > pos[j]
    ]


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n, sorted by (length, one-line) for deterministic iteration."""
    perms = [Permutation(t) for t in _all_tuples(range(1, n + 1))]
    return sorted(perms, key=lambda w: (w.length(), w.one_line))


_CYCLES = re.compile(r"^(\(\d+\))*$")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse one-line ('231' or '2,3,1') or cycle ('(123)', '(12)(34)') forms.

    Cycle form and 'e' need n when the largest moved point does not pin it.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty permutation text")
    if s == "e":
        if n is None:
            raise ValueError("'e' needs an explicit n")
        return Permutation.identity(n)
    if s.startswith("("):
        if not _CYCLES.match(s.replace(" ", "")):
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles = [
            [int(ch) for ch in grp.replace(" ", "")]
            for grp in re.findall(r"\(([0-9 ]+)\)", s)
        ]
        moved = [x for cyc in cycles for x in cyc]
        if len(set(moved)) != len(moved):
            raise ValueError(f"cycles must be disjoint: {text!r}")
        size = n if n is not None else max(moved, default=0)
        mapping = list(range(1, size + 1))
        for cyc in cycles:
            if any(not 1 <= x <= size for x in cyc):
                raise ValueError(f"bad cycle {cyc} for n={size}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                mapping[a - 1] = b
        return Permutation(tuple(mapping))
    try:  # one-line text without commas has one digit per letter
        values = tuple(int(x) for x in (s.split(",") if "," in s else s))
    except ValueError:
        raise ValueError(f"cannot parse permutation {text!r}") from None
    if n is not None and len(values) != n:
        raise ValueError(f"expected a permutation of 1..{n}, got {text!r}")
    return Permutation(values)
