"""Rings of sets on bitmasks: the value sweep and the down-set closure.

A ring of sets is closed under union and intersection. The ring generated by
a family G of sets over finitely many points is the set of the down-sets of
one preorder that contain the meet of G (Birkhoff, "Rings of sets", Duke
Math. J. 1937): below[p], the meet of the members of G that hold p, is the
least member holding p, and every member other than ``bottom``, the meet of
G, is the join of the below[p] of its points. So a ring is closed by keeping
those meets, never by joining its members pairwise.

``closure`` grows the ring generated by some seeds and by the literals read
off each of its members. It keeps below[p] inverted, as the mask of the
points that each least member is below[p] for, so a literal visits each
least member once rather than each of its points. A literal that is not yet
a member is met into ``bottom`` and into each least member it does not
contain, for the points of that member's mask it holds. A new member other
than the new ``bottom`` is then an old member, or a changed below[p], joined
with changed below[p] values: the below[p] that did not change are old
members, and the old ring is closed under joins. So the members a literal
adds are found by joining each member, old or new, with each below[p] that
changed; no other pair of members is joined. The ring only grows, so its cap
is checked as each member is added.

The closure records how each member first arose: ``("literal", m, None)``
for a literal of ``literals(m)``, ``("literal", None, None)`` for a seed,
and ``("meet", a, b)`` or ``("join", a, b)`` for a & b or a | b, where a and
b are members recorded before it.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import SearchBudgetExceeded


def upper_sets(values: Iterable[int], ceiling: int) -> list[int]:
    """The mask {i | values[i] >= v} for each distinct v in values and for
    ceiling, v descending, from one sweep down the values."""
    at = {ceiling: 0}
    bit = 1
    for v in values:
        at[v] = at.get(v, 0) | bit
        bit <<= 1
    masks, mask = [], 0
    for v in sorted(at, reverse=True):
        mask |= at[v]
        masks.append(mask)
    return masks


def closure(seeds: Iterable[int], literals: Callable[[int], Iterable[int]],
            cap: int, message: str) -> dict[int, tuple]:
    """The ring generated by the seeds and by the masks ``literals(m)`` of
    each member m: each member's record, in the order found. Raises
    ``SearchBudgetExceeded(message)`` as soon as the ring holds more than
    ``cap`` members."""
    ring: dict[int, tuple] = {}
    order: list[int] = []  # the members in the order found
    # below maps each least member to the mask of the points it is least
    # for; -1, the meet of no literal, holds every point and is first least
    # for all of them
    below: dict[int, int] = {-1: -1}
    bottom = -1

    def grow(mask: int, how: tuple) -> None:
        ring[mask] = how
        order.append(mask)
        if len(ring) > cap:
            raise SearchBudgetExceeded(message)

    def add(lit: int, how: tuple) -> None:
        nonlocal bottom
        grow(lit, how)
        if bottom & ~lit:
            if bottom & lit not in ring:
                grow(bottom & lit, ("meet", bottom, lit))
            bottom &= lit
        changed = {}
        for least, points in list(below.items()):
            if points & lit and least & ~lit:
                meet = least & lit
                if meet not in ring:
                    grow(meet, ("meet", least, lit))
                del below[least]
                if points & ~lit:
                    below[least] = points & ~lit
                below[meet] = below.get(meet, 0) | points & lit
                changed[meet] = None
        for m in order:  # grow appends each join, which is joined in turn
            for least in changed:
                if m | least not in ring:
                    grow(m | least, ("join", m, least))

    for seed in seeds:
        if seed not in ring:
            add(seed, ("literal", None, None))
    for member in order:  # add appends to order as this runs
        for lit in literals(member):
            if lit not in ring:  # a member is the join of its below[p]: no meet changes
                add(lit, ("literal", member, None))
    return ring
