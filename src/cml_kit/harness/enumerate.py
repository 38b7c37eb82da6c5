"""Bounded, deterministic formula enumeration for the property suites."""

from __future__ import annotations

from ..formula import And, Formula, Fragment, L, Not, Or, Top
from ..rational import Rate


def enumerate_formulas(
    max_depth: int, rate_grid: tuple[Rate, ...], fragment: Fragment, max_count: int
) -> tuple[tuple[Formula, ...], bool]:
    """All fragment formulas up to the depth bound, deduplicated, capped at
    ``max_count``; returns them with whether the cap cut the enumeration.

    Depth counts both Boolean and modal nesting.
    """
    emitted: dict[Formula, None] = {Top(): None}
    previous: list[Formula] = [Top()]  # formulas of depth exactly d-1
    truncated = False
    for _ in range(max_depth):
        if truncated:
            break
        older = list(emitted)
        prev_set = set(previous)
        fresh: dict[Formula, None] = {}

        def emit(f: Formula) -> bool:
            nonlocal truncated
            if f in emitted or f in fresh:
                return True
            if len(emitted) + len(fresh) >= max_count:
                truncated = True
                return False
            fresh[f] = None
            return True

        for child in previous:
            if truncated:
                break
            for r in rate_grid:
                if not emit(L(r, child)):
                    break
        if not truncated and fragment is Fragment.FULL:
            for child in previous:
                if not emit(Not(child)):
                    break
        if not truncated:
            # at least one operand must come from the previous depth
            for a in older:
                if truncated:
                    break
                for b in older:
                    if a not in prev_set and b not in prev_set:
                        continue
                    if not emit(And(a, b)):
                        break
                    if fragment is Fragment.POSITIVE and not emit(Or(a, b)):
                        break
        emitted.update(fresh)
        previous = list(fresh)
        if not previous:
            break
    return tuple(emitted), truncated
