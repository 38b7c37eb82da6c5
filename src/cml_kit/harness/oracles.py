"""Exact transfer oracles by extension-pair saturation.

For the order characterizations the quantifier "for any formula" collapses to
finitely many distinct behaviors on a finite kernel: each formula phi is fully
described by the pair (extension of phi at slack 0, extension of the
transferred side). Saturating the set of reachable pairs under the formula
constructors therefore decides the transfer tests exactly, with no depth or
rate bound.

Plain transfer pairs are (ext_0(phi), ext_e(phi)) for positive phi; essential
pairs are (ext_0(phi), ext_e(|phi|_e)) for full-language phi in negation
normal form, built compositionally from modal literals.

The transfer oracles return their verdicts together with the saturated pairs,
so a suite that also checks enumerated formulas saturates each (kernel, e)
once.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from ..errors import SearchBudgetExceeded
from ..kernel import Kernel
from ..rational import Rate, ensure_rate

_ZERO = Fraction(0)

Pair = tuple[frozenset, frozenset]


def _literal_pairs(
    kernel: Kernel, pair: Pair, e: Rate, negated_literals: bool
) -> list[Pair]:
    """All distinct literal pairs over one body pair, sweeping the rate.

    Positive literals always, and negated ones too when ``negated_literals``.
    """
    s0, se = pair
    states = kernel.states
    # each state's rate into either body, measured once for the whole sweep
    into_s0 = [kernel.measure(x, s0) for x in states]
    into_se = [kernel.measure(x, se) for x in states]
    shifted = [v + e for v in into_se]
    sweep = sorted(r for r in {*into_s0, *into_se, *shifted} if r >= 0)
    if sweep:
        sweep.append(sweep[-1] + 1)
    else:
        sweep = [_ZERO]
    out = []
    universe = kernel.state_set
    for r in sweep:
        left = frozenset(x for x, v in zip(states, into_s0) if v >= r)
        out.append((left, frozenset(x for x, v in zip(states, shifted) if v >= r)))
        if negated_literals:
            right = frozenset(x for x, v in zip(states, into_se) if v >= r)
            out.append((universe - left, universe - right))
    return out


def saturate_pairs(kernel: Kernel, e: Rate, negated_literals: bool,
                   cap: int = 20_000) -> frozenset:
    """Fixpoint of the pair semantics under literals, conjunction, disjunction.

    A worklist closes each pair once, when it is taken from the queue: it adds
    the pair's literal pairs and its componentwise union and intersection with
    every pair closed before it. Every two pairs are joined when the later of
    the two is closed. Raises ``SearchBudgetExceeded`` once the fixpoint is
    known to hold more than ``cap`` pairs.
    """
    e = ensure_rate(e)
    universe = kernel.state_set
    pairs: set[Pair] = {(universe, universe)}
    if negated_literals:
        pairs.add((frozenset(), frozenset()))
    queue = deque(pairs)
    closed: list[Pair] = []

    def add(candidate: Pair) -> None:
        if candidate not in pairs:
            pairs.add(candidate)
            queue.append(candidate)
            if len(pairs) > cap:
                raise SearchBudgetExceeded(f"pair saturation exceeded {cap} pairs")

    while queue:
        pair = queue.popleft()
        for lit in _literal_pairs(kernel, pair, e, negated_literals):
            add(lit)
        closed.append(pair)
        a0, ae = pair
        for (b0, be) in closed:
            add((a0 | b0, ae | be))
            add((a0 & b0, ae & be))
    return frozenset(pairs)


def _transfer(kernel: Kernel, e: Rate, negated_literals: bool) -> tuple[dict, frozenset]:
    pairs = saturate_pairs(kernel, e, negated_literals)
    verdicts = {
        (m, n): all(m in se for (s0, se) in pairs if n in s0)
        for m in kernel.states
        for n in kernel.states
    }
    return verdicts, pairs


def transfer_plain(kernel: Kernel, e: Rate) -> tuple[dict, frozenset]:
    """verdicts[(m, n)] is True when every positive formula true at n (slack 0)
    is true at m (slack e); returned with the saturated pairs it reads."""
    return _transfer(kernel, e, negated_literals=False)


def transfer_essential(kernel: Kernel, e: Rate) -> tuple[dict, frozenset]:
    """verdicts[(m, n)] for the full language with the asymmetric encoding on
    the approximating side; returned with the saturated pairs it reads."""
    return _transfer(kernel, e, negated_literals=True)
