"""Bounded, deterministic formula enumeration for the property suites."""

from __future__ import annotations

from itertools import chain, product
from typing import Iterator

from ..formula import And, Formula, Fragment, L, Not, Or, Top
from ..rational import Rate, ensure_rate


def enumerate_formulas(
    max_depth: int, rate_grid: tuple[Rate, ...], fragment: Fragment, max_count: int
) -> tuple[tuple[Formula, ...], bool]:
    """All fragment formulas up to the depth bound, distinct by construction,
    capped at ``max_count``; returns them with whether the cap cut the
    enumeration.

    Depth counts both Boolean and modal nesting. Once the grid's rates are
    coerced and deduplicated, no two candidates are equal: ``L(r, child)`` is
    unique per (rate, child) and ``Not(child)`` per child; each ordered pair
    goes into ``And``, or into ``Or``, at exactly one depth, the one after its
    deeper operand's; ``Or`` appears only in ``POSITIVE`` and a bare ``Not``
    only in ``FULL``; and the operands are emitted formulas, distinct by
    induction. The first candidate met once ``max_count`` formulas are held
    ends the enumeration, with the flag set.
    """
    grid = tuple(dict.fromkeys(map(ensure_rate, rate_grid)))
    emitted: list[Formula] = [Top()]
    start = 0  # emitted[:start] has depth below d-1, emitted[start:] exactly d-1
    for _ in range(max_depth):
        size = len(emitted)
        for f in _candidates(emitted[:start], emitted[start:], grid, fragment):
            if len(emitted) >= max_count:
                return tuple(emitted), True
            emitted.append(f)
        start = size
    return tuple(emitted), False


def _candidates(
    settled: list[Formula], previous: list[Formula], rate_grid: tuple[Rate, ...],
    fragment: Fragment,
) -> Iterator[Formula]:
    """One depth's candidates in order, over a grid that arrives coerced and
    deduplicated: ``L`` over each formula of the previous depth, child-major;
    their negations (``FULL``); then ``And``, and ``Or`` for ``POSITIVE``, over
    every ordered pair of older formulas with at least one operand from the
    previous depth, first operand in emission order."""
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
