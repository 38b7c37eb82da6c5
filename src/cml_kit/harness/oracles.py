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
"""

from __future__ import annotations

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
    """Fixpoint of the pair semantics under literals, conjunction, disjunction."""
    e = ensure_rate(e)
    universe = kernel.state_set
    pairs: set[Pair] = {(universe, universe)}
    if negated_literals:
        pairs.add((frozenset(), frozenset()))
    while True:
        fresh: set[Pair] = set()
        for pair in pairs:
            for lit in _literal_pairs(kernel, pair, e, negated_literals):
                if lit not in pairs:
                    fresh.add(lit)
        snapshot = sorted(
            pairs | fresh, key=lambda p: (sorted(p[0]), sorted(p[1]))
        )
        for i, (a0, ae) in enumerate(snapshot):
            for (b0, be) in snapshot[i + 1 :]:
                for cand in ((a0 | b0, ae | be), (a0 & b0, ae & be)):
                    if cand not in pairs:
                        fresh.add(cand)
        if not fresh:
            return frozenset(pairs)
        pairs |= fresh
        if len(pairs) > cap:
            raise SearchBudgetExceeded(f"pair saturation exceeded {cap} pairs")


def transfer_plain(kernel: Kernel, e: Rate) -> dict:
    """transfer[(m, n)] is True when every positive formula true at n (slack 0)
    is true at m (slack e)."""
    pairs = saturate_pairs(kernel, e, negated_literals=False)
    verdicts = {}
    for m in kernel.states:
        for n in kernel.states:
            verdicts[(m, n)] = all(m in se for (s0, se) in pairs if n in s0)
    return verdicts


def transfer_essential(kernel: Kernel, e: Rate) -> dict:
    """transfer[(m, n)] for the full language with the asymmetric encoding on
    the approximating side."""
    pairs = saturate_pairs(kernel, e, negated_literals=True)
    verdicts = {}
    for m in kernel.states:
        for n in kernel.states:
            verdicts[(m, n)] = all(m in se for (s0, se) in pairs if n in s0)
    return verdicts
