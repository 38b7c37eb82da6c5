"""Greedy counterexample shrinking: drop states, zero rates, shrink formulas."""

from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Iterator, Optional

from ..formula import And, Formula, L, Not, Top
from ..kernel import Kernel

# greedy reduction rounds before shrink returns what it has
SHRINK_ROUNDS = 200


def kernel_reductions(kernel: Kernel) -> Iterator[Kernel]:
    items = kernel.rate_items()
    for victim in kernel.states:
        if len(kernel.states) <= 1:
            break
        states = [s for s in kernel.states if s != victim]
        rates = {(s, t): r for (s, t, r) in items if s != victim and t != victim}
        yield Kernel(states, rates)
    for i in range(len(items)):
        s, t, _ = items[i]
        rates = {(a, b): r for (a, b, r) in items if (a, b) != (s, t)}
        yield Kernel(kernel.states, rates)


def formula_reductions(f: Formula) -> Iterator[Formula]:
    # promote children at the root, then replace proper subtrees by T
    if isinstance(f, Not):
        yield f.child
    elif isinstance(f, And):
        yield f.left
        yield f.right
    elif isinstance(f, L):
        yield f.child
    yield from islice(_topped(f), 1, None)


def _topped(f: Formula) -> Iterator[Formula]:
    """T, then f with each proper subtree replaced by T, in pre-order. Each
    node on the way is rebuilt, a Not without its sugar."""
    yield Top()
    if isinstance(f, Not):
        yield from map(Not, _topped(f.child))
    elif isinstance(f, And):
        yield from (And(g, f.right) for g in _topped(f.left))
        yield from (And(f.left, g) for g in _topped(f.right))
    elif isinstance(f, L):
        yield from (L(f.rate, g) for g in _topped(f.child))


def shrink(
    kernel: Kernel,
    formula: Optional[Formula],
    fails: Callable[[Kernel, Optional[Formula]], bool],
) -> tuple[Kernel, Optional[Formula]]:
    """Greedily minimize a failing (kernel, formula) pair; result still fails.

    Each round tries the kernel's reductions and then the formula's, other
    than the formula itself, and keeps the first candidate that still fails.
    Shrinking stops at a round that keeps none, or after ``SHRINK_ROUNDS``.
    ``fails`` must treat exceptions as its own concern; only a True return
    keeps a reduction.
    """
    for _ in range(SHRINK_ROUNDS):
        simpler = () if formula is None else formula_reductions(formula)
        for candidate in chain(
            ((smaller, formula) for smaller in kernel_reductions(kernel)),
            ((kernel, g) for g in simpler if g != formula),
        ):
            try:
                keep = fails(*candidate)
            except Exception:
                keep = False
            if keep:
                kernel, formula = candidate
                break
        else:
            break
    return kernel, formula
