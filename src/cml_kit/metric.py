"""Behavioral pseudometric: the least slack at which both order directions hold.

The order solver of the two kernels' disjoint union compares every slack as an
integer x > floor(e·D), where D is the union kernel's scale, so the plain
fixpoint at e depends on e only through floor(e·D) and grows with e. The plain
order at the integer limit k therefore holds the pair in both directions for
every k from some least k* up, and d(m, n) = k*/D exactly; the infimum is
attained there. Every slack is at most the largest exit total, so the full
relation is the fixpoint at that total scaled by D.

One descending sweep finds k*. The fixpoint R at the current limit is the
fixpoint at every limit from its largest violation, the peak, upwards. If the
peak is 0, R is the fixpoint at 0 and k* = 0. Otherwise the sweep descends to
peak - 1, which deletes at least one pair; if either direction of the pair is
deleted there, k* is the peak. So the sweep takes at most one stage per block
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError
from .kernel import Kernel
from .orders import PlainDescent, union_solver
from .rational import Rate


@dataclass(frozen=True)
class Distance:
    value: Rate
    attained_at: Rate


def distance(k1: Kernel, m: str, k2: Kernel, n: str) -> Distance:
    """d(m, n) = least e with m below n and n below m in the plain e-order."""
    solver, (i, j) = union_solver(k1, m, k2, n)
    descent = PlainDescent(solver)
    live = descent.violation
    descent.descend(max(solver.sums))
    if (i, j) not in live or (j, i) not in live:
        raise InternalCheckError(
            "the largest exit total is infeasible; some slack exceeds it"
        )
    peak = max(live.values())
    while peak > 0:
        descent.descend(peak - 1)
        if (i, j) not in live or (j, i) not in live:
            break
        peak = max(live.values())
    value = Fraction(peak, solver.scale)
    return Distance(value, value)
