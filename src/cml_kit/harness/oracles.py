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

The saturated pairs are closed under ``|`` and ``&``: a ring of sets over the
2|S| points, generated by the full pair (and the empty one when negated
literals count) and the literal pairs of each of its members. The saturation
is ``rings.closure`` over ``_literal_pairs``, which keeps the ring as the
down-sets of one preorder (Birkhoff, "Rings of sets", 1937) and grows it one
new literal pair at a time, and each literal sweep is ``rings.upper_sets``.
"""

from __future__ import annotations

from ..kernel import Kernel
from ..rational import Rate, ensure_rate
from ..rings import closure, upper_sets

PAIR_CAP = 20_000


def pair_mask(kernel: Kernel, s0: int, se: int) -> int:
    """The mask of the extension pair (s0, se), given as state masks: s0 in
    the low |S| bits and se above them."""
    return s0 | se << len(kernel.states)


def _literal_pairs(kernel: Kernel, pair: int, e: Rate, negated_literals: bool) -> list[int]:
    """All literal pairs over one body pair, sweeping the rate: positive
    literals always, and negated ones too when ``negated_literals``."""
    size = len(kernel.states)
    de = e.denominator
    into_s0 = [w * de for w in kernel.scaled_measures(pair & kernel.full)]
    into_se = [w * de for w in kernel.scaled_measures(pair >> size)]
    shift = e.numerator * kernel.scale
    shifted = into_s0 + [v + shift for v in into_se]
    # a rate above every value, shifted or not, gives the empty level
    ceiling = max(shifted, default=0) + 1
    out = upper_sets(shifted, ceiling)
    if negated_literals:
        full = (1 << 2 * size) - 1
        out += [full ^ level for level in upper_sets(into_s0 + into_se, ceiling)]
    return out


def saturate_pairs(kernel: Kernel, e: Rate, negated_literals: bool) -> frozenset[int]:
    """Fixpoint of the pair semantics under literals, conjunction, disjunction:
    the ring (``rings.closure``) generated by the full pair, the empty one
    when ``negated_literals``, and the literal pairs of each of its members.
    Raises ``SearchBudgetExceeded`` once it holds more than ``PAIR_CAP``
    pairs; the ring only grows, so that is exactly when the fixpoint does.
    """
    e = ensure_rate(e)
    full = (1 << 2 * len(kernel.states)) - 1
    return frozenset(closure(
        [full, 0] if negated_literals else [full],
        lambda pair: _literal_pairs(kernel, pair, e, negated_literals),
        PAIR_CAP, f"pair saturation exceeded {PAIR_CAP} pairs"))


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
