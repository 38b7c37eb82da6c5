"""Greedy counterexample shrinking: drop states, zero rates, shrink formulas."""

from __future__ import annotations

from itertools import islice
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

    ``fails`` must treat exceptions as its own concern; only a True return
    keeps a reduction.
    """
    for _ in range(SHRINK_ROUNDS):
        improved = False
        for smaller in kernel_reductions(kernel):
            try:
                keep = fails(smaller, formula)
            except Exception:
                keep = False
            if keep:
                kernel = smaller
                improved = True
                break
        if formula is not None and not improved:
            for simpler in formula_reductions(formula):
                try:
                    keep = fails(kernel, simpler)
                except Exception:
                    keep = False
                if keep:
                    formula = simpler
                    improved = True
                    break
        if not improved:
            return kernel, formula
    return kernel, formula
