"""Behavioral pseudometric: the least slack at which both order directions hold.

The order solver of the two kernels' disjoint union compares every slack as an
integer x > floor(e·D), where D is the union kernel's scale, so the plain
fixpoint at e depends on e only through floor(e·D) and grows with e.
Feasibility of the slack k/D is therefore monotone in the integer k, and every
e in [k/D, (k+1)/D) gives the same answer as k/D. Every slack is at most the
largest exit total, so that total, scaled by D, is feasible. A binary search
over the integers up to it finds the least feasible k*, and d(m, n) = k*/D
exactly; the infimum is attained there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError
from .kernel import Kernel
from .orders import union_solver
from .rational import Rate


@dataclass(frozen=True)
class Distance:
    value: Rate
    attained_at: Rate


def distance(k1: Kernel, m: str, k2: Kernel, n: str) -> Distance:
    """d(m, n) = least e with m below n and n below m in the plain e-order."""
    solver, (i, j) = union_solver(k1, m, k2, n)

    def feasible(k: int) -> bool:
        pairs = solver.plain_pairs(Fraction(k, solver.scale))
        return (i, j) in pairs and (j, i) in pairs

    lo, hi = 0, max(solver.sums)
    if not feasible(hi):
        raise InternalCheckError(
            "the largest exit total is infeasible; some slack exceeds it"
        )
    # the least feasible k lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    value = Fraction(hi, solver.scale)
    return Distance(value, value)
