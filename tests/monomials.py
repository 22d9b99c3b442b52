"""Monomial enumeration for the dense reference solver and its tests."""

from itertools import combinations_with_replacement


def homogeneous_exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree d in n variables, grlex-descending."""
    if n == 0:
        return [()] if d == 0 else []
    exps = set()
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for pos in combo:
            e[pos] += 1
        exps.add(tuple(e))
    return sorted(exps, key=lambda e: (sum(e), e), reverse=True)
