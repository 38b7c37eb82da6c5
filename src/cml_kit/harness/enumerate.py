"""Bounded, deterministic formula enumeration for the property suites."""

from __future__ import annotations

from dataclasses import dataclass

from ..formula import And, Formula, Fragment, L, Not, Or, Top
from ..rational import Rate, ensure_rate


@dataclass(frozen=True)
class EnumerationConfig:
    max_depth: int
    rate_grid: tuple[Rate, ...]
    fragment: Fragment = Fragment.FULL
    max_count: int = 10_000

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if not self.rate_grid:
            raise ValueError("rate_grid must be nonempty")
        object.__setattr__(
            self, "rate_grid", tuple(ensure_rate(r) for r in self.rate_grid)
        )


@dataclass(frozen=True)
class FormulaEnumeration:
    formulas: tuple[Formula, ...]
    truncated: bool


def enumerate_formulas(cfg: EnumerationConfig) -> FormulaEnumeration:
    """All fragment formulas up to the depth bound, deduplicated, capped.

    Depth counts both Boolean and modal nesting.
    """
    emitted: dict[Formula, None] = {Top(): None}
    previous: list[Formula] = [Top()]  # formulas of depth exactly d-1
    truncated = False
    for _ in range(cfg.max_depth):
        if truncated:
            break
        older = list(emitted)
        prev_set = set(previous)
        fresh: dict[Formula, None] = {}

        def emit(f: Formula) -> bool:
            nonlocal truncated
            if f in emitted or f in fresh:
                return True
            if len(emitted) + len(fresh) >= cfg.max_count:
                truncated = True
                return False
            fresh[f] = None
            return True

        for child in previous:
            if truncated:
                break
            for r in cfg.rate_grid:
                if not emit(L(r, child)):
                    break
        if not truncated and cfg.fragment is Fragment.FULL:
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
                    if cfg.fragment is Fragment.POSITIVE and not emit(Or(a, b)):
                        break
        emitted.update(fresh)
        previous = list(fresh)
        if not previous:
            break
    return FormulaEnumeration(tuple(emitted), truncated)
