"""Documented evaluator/order mutations used to prove the suites are not vacuous.

Each mutation swaps one internal seam for a deliberately wrong variant inside a
context manager. The registry maps every mutation to a suite expected to catch
it; tests assert that the suite reports at least one failure under the mutation
and none without it.

Note on "no-truncation": a negative modal index is semantically equivalent to
index 0 (a nonnegative measure plus slack always clears a negative bound), so
no evaluation can observe the difference; the mutation is caught because the
formula invariant (indices >= 0) raises inside the t2 suite, and the formula
suites count exceptions as failures.
"""

from __future__ import annotations

from contextlib import contextmanager

from .. import equivalence as equivalence_mod
from .. import formula as formula_mod
from .. import orders as orders_mod
from .. import semantics as semantics_mod
from ..kernel import Kernel


def _drop_epsilon(total, e, r) -> bool:
    return total >= r


def _strict_comparison(total, e, r) -> bool:
    return total + e > r


def _no_truncation(r, e):
    return r - e


def _single_round_bisimulation(kernel: Kernel):
    # degenerate stability check: one refinement round is declared enough, so
    # states are grouped by their total exit rate alone, in first-state order
    groups: dict[int, list[str]] = {}
    for state, total in zip(kernel.states, kernel.totals):
        groups.setdefault(total, []).append(state)
    return equivalence_mod.Partition(tuple(map(frozenset, groups.values())), rounds=1)


def _singleton_bisimulation(kernel: Kernel):
    """Partition that forgets bisimilarity entirely: every state is alone.

    Plugged into the order solver this amounts to skipping the saturation
    step. The plain fixpoint provably does not change (its conditions only
    inspect block-closed sets, so bisimilar states always receive identical
    verdicts), but the essential order's per-block pullback bounds are
    saturation-dependent: split into singletons, a block's capacity is shared
    out among its states, so bisimilar pairs drop out of the essential order
    and it is no longer closed under bisimulation.
    """
    blocks = tuple(frozenset({s}) for s in kernel.states)
    return equivalence_mod.Partition(blocks, rounds=0)


# mutation name -> (module, attribute, replacement, suite expected to catch it)
REGISTRY = {
    "eval-drop-epsilon": (semantics_mod, "_modal_holds", _drop_epsilon, "t2"),
    "eval-strict-comparison": (
        semantics_mod,
        "_modal_holds",
        _strict_comparison,
        "c1-extensions",
    ),
    "encode-down-no-truncation": (
        formula_mod,
        "_down_index",
        _no_truncation,
        "t2",
    ),
    "orders-no-saturation": (
        orders_mod,
        "bisimulation",
        _singleton_bisimulation,
        "l5-orders",
    ),
    "refinement-single-round": (
        equivalence_mod,
        "bisimulation",
        _single_round_bisimulation,
        "t1-generators",
    ),
}


@contextmanager
def mutated(name: str):
    """Apply the named mutation for the duration of the block."""
    if name not in REGISTRY:
        raise KeyError(f"unknown mutation {name!r}; known: {', '.join(sorted(REGISTRY))}")
    module, attribute, replacement, _ = REGISTRY[name]
    original = getattr(module, attribute)
    setattr(module, attribute, replacement)
    try:
        yield
    finally:
        setattr(module, attribute, original)


def catching_suite(name: str) -> str:
    return REGISTRY[name][3]
