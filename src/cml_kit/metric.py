"""Behavioral pseudometric: the least slack at which both order directions hold.

Feasibility of a slack value is a monotone step function whose breakpoints are
slack values of generator-set measure comparisons, so the infimum is attained
and can be found by an exact scan over collected breakpoints. The scan is
self-certifying: it grows the breakpoint pool with every slack observed during
feasibility runs until the run just below the answer produces no value inside
the open gap, which proves no smaller slack is feasible. A feasibility run
hands its collector each distinct slack it compared once, as an exact
Fraction, at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError, KernelError
from .kernel import Kernel, disjoint_union, left_tag, right_tag
from .orders import OrderSolver
from .rational import Rate

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Distance:
    value: Rate
    attained_at: Rate


def distance(k1: Kernel, m: str, k2: Kernel, n: str) -> Distance:
    """d(m, n) = least e with m below n and n below m in the plain e-order."""
    if m not in k1.state_set:
        raise KernelError(f"unknown state {m!r}")
    if n not in k2.state_set:
        raise KernelError(f"unknown state {n!r}")
    union = disjoint_union(k1, k2)
    solver = OrderSolver(union)
    a = solver.block_pair_of(left_tag(m), right_tag(n))
    b = solver.block_pair_of(right_tag(n), left_tag(m))

    def feasible(e: Rate, pool: set | None = None) -> bool:
        collector = pool.add if pool is not None else None
        pairs = solver.plain_pairs(e, collector)
        return a in pairs and b in pairs

    observed: set = set()
    if feasible(_ZERO, observed):
        return Distance(_ZERO, _ZERO)
    bound = max(solver.totals, default=_ZERO)
    if not feasible(bound, observed):
        raise InternalCheckError(
            "maximal candidate slack is infeasible; breakpoint argument violated"
        )

    candidates = {c for c in observed if c > 0} | {bound}
    while True:
        pool: set = set()
        value = _scan(feasible, sorted(candidates), pool)
        below = [c for c in candidates if c < value]
        floor = max(below) if below else _ZERO
        # run just under the answer; gap-free slack trace proves exactness,
        # because every run inside (floor, value) then compares exactly the
        # same slacks against its threshold and deletes the same pairs
        gap_pool: set = set()
        floor_feasible = feasible(floor, gap_pool) if floor != value else False
        if floor_feasible:
            raise InternalCheckError("feasibility is not monotone in the slack")
        probe = (floor + value) / 2
        probe_pool: set = set()
        probe_feasible = feasible(probe, probe_pool)
        new = {
            c
            for c in (pool | gap_pool | probe_pool)
            if c > 0 and c not in candidates
        }
        strictly_inside = {c for c in new if floor < c < value}
        candidates |= new
        if probe_feasible:
            # the probe exposed a breakpoint the pool was missing; its run
            # always surfaces a feasible slack value below the current scan
            # (its largest passing comparison), so the next scan strictly
            # improves and the loop terminates within the finite slack set
            if not strictly_inside:
                raise InternalCheckError(
                    "feasible probe produced no new breakpoint candidate"
                )
            continue
        if not strictly_inside:
            return Distance(value, value)


def _scan(feasible, sorted_candidates: list, pool: set) -> Rate:
    # binary search for the least feasible candidate (feasibility is monotone)
    lo, hi = 0, len(sorted_candidates) - 1
    best = sorted_candidates[hi]
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(sorted_candidates[mid], pool):
            best = sorted_candidates[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    return best
