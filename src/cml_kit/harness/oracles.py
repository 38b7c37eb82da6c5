"""Exact transfer oracles by extension-pair saturation.

On a finite kernel the quantifier "for any formula" of the order
characterizations collapses to finitely many behaviors: a formula phi is
described by its pair (extension at slack 0, extension of the transferred
side), so saturating the reachable pairs under the formula constructors decides
the transfer tests exactly, with no depth or rate bound. Plain pairs are
(ext_0(phi), ext_e(phi)) for positive phi; essential pairs are
(ext_0(phi), ext_e(|phi|_e)) for full-language phi in negation normal form.

A pair is one int mask over two copies of the states (``pair_mask``): bit i is
state i at slack 0 and bit |S| + i is state i on the transferred side, so the
componentwise union and intersection of pairs are ``|`` and ``&``. Rates are
compared as integers: the kernel's scaled measures w (rate times D) are scaled
again by the denominator of e = ne/de, so a rate into a body reads w * de and a
shifted rate w * de + ne * D. The oracles return their verdicts with the
saturated pairs, so a suite that cross-checks enumerated formulas saturates
each (kernel, e) once.
"""

from __future__ import annotations

from ..errors import SearchBudgetExceeded
from ..kernel import Kernel
from ..rational import Rate, ensure_rate

PAIR_CAP = 20_000


def pair_mask(kernel: Kernel, s0: int, se: int) -> int:
    """The mask of the extension pair (s0, se), given as state masks: s0 in
    the low |S| bits and se above them."""
    return s0 | se << len(kernel.states)


def _at_least(values: list[int], r: int) -> int:
    return sum([1 << i for i, v in enumerate(values) if v >= r])


def _literal_pairs(kernel: Kernel, pair: int, e: Rate, negated_literals: bool) -> list[int]:
    """All distinct literal pairs over one body pair, sweeping the rate: positive
    literals always, and negated ones too when ``negated_literals``."""
    size = len(kernel.states)
    de = e.denominator
    into_s0 = [w * de for w in kernel.scaled_measures(pair & kernel.full)]
    into_se = [w * de for w in kernel.scaled_measures(pair >> size)]
    shifted = [v + e.numerator * kernel.scale for v in into_se]
    values = {*into_s0, *into_se, *shifted}
    # one rate above every value gives the empty literal; an empty kernel has none
    sweep = [*sorted(values), max(values) + 1] if values else [0]
    full = (1 << 2 * size) - 1
    out = []
    for r in sweep:
        left = _at_least(into_s0, r)
        out.append(left | _at_least(shifted, r) << size)
        if negated_literals:
            out.append(full ^ (left | _at_least(into_se, r) << size))
    return out


def saturate_pairs(kernel: Kernel, e: Rate, negated_literals: bool) -> frozenset[int]:
    """Fixpoint of the pair semantics under literals, conjunction, disjunction.

    A worklist closes each pair once, in the order the pairs were found: it
    adds the pair's literal pairs and its union and intersection with every
    pair found before it, so every two pairs are joined. Raises
    ``SearchBudgetExceeded`` once the fixpoint is known to hold more than
    ``PAIR_CAP`` pairs.
    """
    e = ensure_rate(e)
    pairs = {(1 << 2 * len(kernel.states)) - 1}
    if negated_literals:
        pairs.add(0)
    order = list(pairs)

    def add(candidate: int) -> None:
        if candidate not in pairs:
            pairs.add(candidate)
            order.append(candidate)
            if len(pairs) > PAIR_CAP:
                raise SearchBudgetExceeded(f"pair saturation exceeded {PAIR_CAP} pairs")

    for i, pair in enumerate(order):  # the worklist: add appends to order
        for lit in _literal_pairs(kernel, pair, e, negated_literals):
            add(lit)
        for other in order[:i]:
            add(pair | other)
            add(pair & other)
    return frozenset(pairs)


def _transfer(kernel: Kernel, e: Rate, negated_literals: bool) -> tuple[dict, frozenset]:
    pairs = saturate_pairs(kernel, e, negated_literals)
    states = kernel.states
    size = len(states)
    # allowed[n]: the states m in the transferred side of every pair holding n
    allowed = [kernel.full] * size
    for pair in pairs:
        se = pair >> size
        for n in range(size):
            if pair >> n & 1:
                allowed[n] &= se
    verdicts = {(m, n): bool(allowed[j] >> i & 1)
                for i, m in enumerate(states) for j, n in enumerate(states)}
    return verdicts, pairs


def transfer_plain(kernel: Kernel, e: Rate) -> tuple[dict, frozenset]:
    """verdicts[(m, n)] is True when every positive formula true at n (slack 0)
    is true at m (slack e); returned with the saturated pairs it reads."""
    return _transfer(kernel, e, negated_literals=False)


def transfer_essential(kernel: Kernel, e: Rate) -> tuple[dict, frozenset]:
    """verdicts[(m, n)] for the full language with the asymmetric encoding on
    the approximating side; returned with the saturated pairs it reads."""
    return _transfer(kernel, e, negated_literals=True)
