"""Behavioral pseudometric: the least slack at which both order directions hold.

The order solver of the two kernels' disjoint union compares every slack as an
integer x > floor(e·D), where D is the scale of the union's quotient kernel by
bisimulation (the solver's ``scale``), so the plain fixpoint at e depends on e
only through floor(e·D) and grows with e. The plain order at the integer limit
k therefore holds the pair in both directions for every k from some least k*
up, and d(m, n) = k*/D exactly; the infimum is attained there. Every slack is
at most the largest exit total, so the full relation is the fixpoint at that
total scaled by D.

k* is read off the descent of the plain fixpoint from the full relation
(``PlainDescent.stages`` in ``orders``): k* is the peak of the stage that
deletes either direction of the pair, and 0 when no stage does. Each stage
deletes at least one pair, so the descent takes at most one stage per block
pair, and it stops at the stage that answers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckError, Record
from .kernel import Kernel
from .orders import PlainDescent, union_solver
from .rational import Rate


class Distance(Record):
    value: Rate
    attained_at: Rate


def distance(k1: Kernel, m: str, k2: Kernel, n: str) -> Distance:
    """d(m, n) = least e with m below n and n below m in the plain e-order."""
    solver, (i, j) = union_solver(k1, m, k2, n)
    descent = PlainDescent(solver)
    descent.descend(max(solver.sums))
    live = descent.violation
    if (i, j) not in live or (j, i) not in live:
        raise InternalCheckError(
            "the largest exit total is infeasible; some slack exceeds it"
        )
    peak = next((peak for peak, deleted in descent.stages()
                 if (i, j) in deleted or (j, i) in deleted), 0)
    value = Fraction(peak, solver.scale)
    return Distance(value, value)
