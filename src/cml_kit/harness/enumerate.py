"""Bounded, deterministic formula enumeration for the property suites."""

from __future__ import annotations

from itertools import chain, islice, product
from typing import Iterator

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
    settled: list[Formula] = []  # formulas of depth below d-1
    previous: list[Formula] = [Top()]  # formulas of depth exactly d-1
    for _ in range(max_depth):
        size = len(emitted)
        for f in _candidates(settled, previous, rate_grid, fragment):
            if f not in emitted:
                if len(emitted) >= max_count:
                    return tuple(emitted), True
                emitted[f] = None
        settled += previous
        previous = list(islice(emitted, size, None))
    return tuple(emitted), False


def _candidates(
    settled: list[Formula], previous: list[Formula], rate_grid: tuple[Rate, ...],
    fragment: Fragment,
) -> Iterator[Formula]:
    """One depth's candidates in order: ``L`` over each formula of the previous
    depth, child-major; their negations (``FULL``); then ``And``, and ``Or``
    for ``POSITIVE``, over every ordered pair of older formulas with at least
    one operand from the previous depth, first operand in emission order."""
    for child in previous:
        for r in rate_grid:
            yield L(r, child)
    if fragment is Fragment.FULL:
        yield from map(Not, previous)
    # the previous depth comes last in emission order
    for a, b in chain(product(settled, previous), product(previous, settled + previous)):
        yield And(a, b)
        if fragment is Fragment.POSITIVE:
            yield Or(a, b)
