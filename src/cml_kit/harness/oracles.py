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
2|S| points. A ring generated by a family G is the ring of the down-sets of one
preorder that contain the meet of G (Birkhoff, "Rings of sets", 1937): the
least member holding a point p is below[p], the meet of the members of G that
hold p, and each member is that meet with the below[p] of its points joined
in. So the saturation closes the preorder, not the pair set: it keeps the
literal pairs found so far as G, enumerates the ring from below and the meet,
and takes the literal pairs of each member it has not seen, until no member
is new. No two pairs are ever joined one by one.
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


def _levels(low: list[int], high: list[int]) -> list[int]:
    # the pair masks {i : low[i] >= r} | {i : high[i] >= r} << |S| at every
    # rate r, from one rate above all values down: a rate between two adjacent
    # values reads as the higher one, so one sweep down the distinct values
    at: dict[int, int] = {}
    for i, v in enumerate(low):
        at[v] = at.get(v, 0) | 1 << i
    for i, v in enumerate(high, len(low)):
        at[v] = at.get(v, 0) | 1 << i
    out = [0]
    mask = 0
    for v in sorted(at, reverse=True):
        mask |= at[v]
        out.append(mask)
    return out


def _literal_pairs(kernel: Kernel, pair: int, e: Rate, negated_literals: bool) -> list[int]:
    """All literal pairs over one body pair, sweeping the rate: positive
    literals always, and negated ones too when ``negated_literals``."""
    size = len(kernel.states)
    de = e.denominator
    into_s0 = [w * de for w in kernel.scaled_measures(pair & kernel.full)]
    into_se = [w * de for w in kernel.scaled_measures(pair >> size)]
    shift = e.numerator * kernel.scale
    out = _levels(into_s0, [v + shift for v in into_se])
    if negated_literals:
        full = (1 << 2 * size) - 1
        out += [full ^ level for level in _levels(into_s0, into_se)]
    return out


def _down_sets(below: list[int], bottom: int) -> set[int]:
    """The ring ``{bottom}`` closed under ``| below[p]``: the down-sets of the
    preorder that contain ``bottom``. Raises ``SearchBudgetExceeded`` as soon
    as it holds more than ``PAIR_CAP`` sets."""
    joins = set(below)
    ring = {bottom}
    todo = [bottom]
    while todo:
        member = todo.pop()
        for least in joins:
            joined = member | least
            if joined not in ring:
                ring.add(joined)
                if len(ring) > PAIR_CAP:
                    raise SearchBudgetExceeded(f"pair saturation exceeded {PAIR_CAP} pairs")
                todo.append(joined)
    return ring


def saturate_pairs(kernel: Kernel, e: Rate, negated_literals: bool) -> frozenset[int]:
    """Fixpoint of the pair semantics under literals, conjunction, disjunction.

    The generators are the full pair (and the empty one when
    ``negated_literals``) and every literal pair found so far. ``below[p]`` is
    the meet of the generators that hold point p and ``bottom`` the meet of
    all of them, and the ring they generate is the down-sets of that preorder
    that contain ``bottom``. Each round enumerates the ring, takes the literal
    pairs of its new members, and meets each literal not seen before into
    ``below`` and ``bottom``; the fixpoint is the ring of the round that finds
    no new literal. Raises ``SearchBudgetExceeded`` once a ring holds more
    than ``PAIR_CAP`` pairs; every ring is part of the fixpoint, so that is
    exactly when the fixpoint does.
    """
    e = ensure_rate(e)
    points = 2 * len(kernel.states)
    full = (1 << points) - 1
    seen = {full, 0} if negated_literals else {full}
    below = [full] * points
    bottom = full
    ring: set[int] = set()
    fresh = list(seen)
    while fresh:
        for lit in fresh:
            bottom &= lit
            rest = lit
            while rest:
                bit = rest & -rest
                below[bit.bit_length() - 1] &= lit
                rest ^= bit
        members = _down_sets(below, bottom)
        fresh = []
        for pair in members - ring:
            for lit in _literal_pairs(kernel, pair, e, negated_literals):
                if lit not in seen:
                    seen.add(lit)
                    fresh.append(lit)
        ring = members
    return frozenset(ring)


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
