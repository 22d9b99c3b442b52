"""Exact rational linear algebra helpers.

Two small tools: Fourier-Motzkin elimination for strict homogeneous
feasibility (the flow-orientation search for the Palais-Smale check), and
Gaussian elimination over ``Fraction`` for unique solves.  The Knutson-Tao
solver does not use the latter: it is kept as the independent dense
reference that the solver's differential tests compare against, and the
benchmark's layer tracer wraps it by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["LinearSystemError", "solve_unique", "strict_feasible"]

_ZERO = Fraction(0)


class LinearSystemError(ValueError):
    """Raised when a linear system is inconsistent or underdetermined."""

    def __init__(self, status: str, message: str = ""):
        self.status = status  # "inconsistent" | "underdetermined"
        super().__init__(message or status)


def solve_unique(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve rows * x = rhs, requiring a unique solution.

    Raises LinearSystemError("inconsistent") when no solution exists and
    LinearSystemError("underdetermined") when the solution is not unique.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    ncols = len(rows[0]) if m else 0
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]

    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # prefer unit pivots to keep fractions small
        pick = None
        for i in range(r, m):
            if a[i][c]:
                if abs(a[i][c]) == 1:
                    pick = i
                    break
                if pick is None:
                    pick = i
        if pick is None:
            continue
        a[r], a[pick] = a[pick], a[r]
        pc = a[r][c]
        if pc != 1:
            a[r] = [x / pc for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][ncols]:
            raise LinearSystemError("inconsistent")
    if len(pivots) < ncols:
        raise LinearSystemError("underdetermined")
    x = [_ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = a[i][ncols]
    return x


def _normalize(row: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # scale so the first nonzero entry is +-1; preserves the inequality
    for v in row:
        if v:
            s = abs(v)
            return tuple(x / s for x in row)
    return row


def strict_feasible(rows: Sequence[Sequence[Fraction]]) -> list[Fraction] | None:
    """Find rational x with row . x > 0 for every row, or None.

    The system is homogeneous, so feasibility is scale-invariant; rows of
    zeros make it infeasible outright.  Uses Fourier-Motzkin elimination,
    which is cheap at the handful-of-labels scale this package needs.
    """
    work = [tuple(map(Fraction, r)) for r in rows]
    if not work:
        return []
    k = len(work[0])
    if any(len(r) != k for r in work):
        raise ValueError("ragged inequality rows")

    def solve(rows_k: list[tuple[Fraction, ...]], dim: int) -> list[Fraction] | None:
        rows_k = list({_normalize(r) for r in rows_k})
        if any(not any(r) for r in rows_k):
            return None  # 0 > 0
        if dim == 0:
            return [] if not rows_k else None
        pos, neg, zero = [], [], []
        for r in rows_k:
            if r[-1] > 0:
                pos.append(r)
            elif r[-1] < 0:
                neg.append(r)
            else:
                zero.append(r[:-1])
        reduced = list(zero)
        for p in pos:
            for q in neg:
                # eliminate the last variable from the pair p, q
                combo = tuple(
                    p[-1] * q[i] - q[-1] * p[i] for i in range(dim - 1)
                )
                reduced.append(combo)
        sub = solve(reduced, dim - 1)
        if sub is None:
            return None
        # back-substitute: p rows bound x from below, q rows from above
        lo = None
        for p in pos:
            v = -sum(c * x for c, x in zip(p[:-1], sub)) / p[-1]
            lo = v if lo is None or v > lo else lo
        hi = None
        for q in neg:
            v = -sum(c * x for c, x in zip(q[:-1], sub)) / q[-1]
            hi = v if hi is None or v < hi else hi
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None:
            x = hi - 1
        elif hi is None:
            x = lo + 1
        else:
            x = (lo + hi) / 2
        return sub + [x]

    return solve(work, k)
