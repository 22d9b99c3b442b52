"""How fast the host runs Python right now, from fixed reference timings.

The benchmark VM shares its CPUs with other tenants, and its speed swings
by up to a factor of two over seconds to minutes; no statistic over the raw
times of one run can remove a swing that lasts the whole run.  So every
timed item is bracketed by reference timings of fixed code written here,
which no change to gkmcalc can change, and ``scale`` turns the item's time
into seconds on a host at a fixed nominal speed: a time measured while the
host ran at half speed is halved.

- In-process items (worker.py) are bracketed by ``sample()``, the best of
  ``REPEATS`` timings of a sparse-polynomial product with ``Fraction``
  coefficients, the same kind of work as gkmcalc's polynomial layer.
  Nominal: the product takes ``NOMINAL_S``.
- Whole processes (CLI queries, set-up samples) are bracketed by the wall
  time of ``python3 perfbench/hostref.py``, a fresh interpreter that runs
  the product once: interpreter start and imports respond to a busy host
  differently from a hot loop.  Nominal: it takes ``PROCESS_NOMINAL_S``.

Plain Python; never imports gkmcalc.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.001  # scaled seconds are seconds on a host where the product takes 1 ms
PROCESS_NOMINAL_S = 0.05  # ... and where ``python3 perfbench/hostref.py`` takes 50 ms
REPEATS = 3

_A = {(i, j, k): Fraction(i + 2 * j + 1, k + 1) for i in range(3) for j in range(3) for k in range(3)}
_B = {(i, j, k): Fraction(i - j + k + 1, j + 2) for i in range(3) for j in range(3) for k in range(2)}


def _product() -> dict:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def sample() -> float:
    """Best of REPEATS timings of the reference product, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t = perf_counter()
        _product()
        best = min(best, perf_counter() - t)
    return best


def scale(seconds: float, ref_before: float, ref_after: float, nominal: float = NOMINAL_S) -> float:
    """A time measured between two reference timings, in seconds at the nominal speed."""
    return seconds * nominal / ((ref_before + ref_after) / 2)


if __name__ == "__main__":
    sample()
