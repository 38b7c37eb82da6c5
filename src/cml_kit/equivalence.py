"""Stochastic bisimulation by splitter refinement, and the definable-set family.

Refinement starts from one block and splits blocks whose members assign
different measures to some block; the coarsest stable partition is the largest
bisimulation. The whole state set is the first splitter, and a queue holds the
blocks still to be used as splitters. For a splitter C, each predecessor of a
state of C sums its scaled integer rates into C, read from the columns of C's
states, which are the kernel's predecessor lists (see ``kernel``), and every
block it touches splits by that sum; the states of a block with no rate into C
are never scanned and keep the block's number. A split queues every part but
the largest, or every part if the block was still queued: a state's rate into
the largest part is its rate into the old block minus its rates into the
others, so stability is kept without it (Valmari & Franceschinis, "Simple
O(m log n) time Markov chain lumping", TACAS 2010). Each state thus lies in
O(log n) splitters, and refinement takes O(m log n) steps on m nonzero rates.
It stops early once every block is a single state. The final blocks are
numbered by their first states.

The generator family is grown by saturation on state bitmasks and scaled
integer rates: starting from the full state set, add the threshold sets
{m | theta(m)(C) >= r} for every family member C and every achievable measure
value r, and close under union and intersection. A worklist closes each member
once, and the family stops with ``SearchBudgetExceeded`` past ``FAMILY_CAP``
members. Closing a member makes one pass over its measure row, the sum of
its states' columns (``Kernel.scaled_measures``), grouping the states into one
bitmask per value; a sweep up the values then gives every threshold set as
the full mask less the states below the value. Each candidate, threshold or
join, is looked up in the family before anything else, so a formula is built
only for a new member. Each member is a union of
bisimulation blocks and carries a defining positive-fragment formula; the
family is one map from each member's state bitmask to that formula, in the
order members were added. Closing under complement too would give every union
of blocks, so that family is not built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import KernelError, Record, SearchBudgetExceeded
from .formula import And, Formula, L, Or, Top
from .kernel import Kernel

# members the definable-set family may hold before SearchBudgetExceeded; the
# family can grow exponentially with the bisimulation blocks
FAMILY_CAP = 5_000


class Partition(Record):
    """Disjoint blocks covering the kernel's states, numbered by their first
    states; ``rounds`` counts the splitters refinement processed."""

    blocks: tuple[frozenset, ...]
    rounds: int

    def block_of(self, state: str) -> frozenset:
        for block in self.blocks:
            if state in block:
                return block
        raise KernelError(f"unknown state {state!r}")

    def same_block(self, a: str, b: str) -> bool:
        return self.block_of(a) is self.block_of(b)


def bisimulation(kernel: Kernel) -> Partition:
    """Partition of the largest stochastic bisimulation."""
    n = len(kernel.states)
    # sums maps each state to its scaled rate into the current splitter, which
    # is first the whole state set: every state with a nonzero exit total
    sums = {s: w for s, w in enumerate(kernel.totals) if w}
    block = [0] * n
    members = [set(range(n))]
    queued: set[int] = set()
    rounds = 1
    while True:
        # the touched states of each block, with their rates into the splitter
        touched: dict[int, list[tuple[int, int]]] = {}
        for s, v in sums.items():
            touched.setdefault(block[s], []).append((v, s))
        for b, hits in touched.items():
            kept = members[b]
            if len(kept) == 1:
                continue
            # rates are positive, so no touched state agrees with the rest
            groups: dict[int, list[int]] = {}
            for v, s in hits:
                groups.setdefault(v, []).append(s)
            parts = list(groups.values())
            if len(parts[0]) == len(kept):
                continue  # every state of b has the same rate into the splitter
            if len(hits) == len(kept):
                # no state of b is untouched: its largest part keeps the number
                parts.remove(max(parts, key=len))
            first = len(members)
            for part in parts:
                kept.difference_update(part)
                for s in part:
                    block[s] = len(members)
                members.append(set(part))
            split = [b, *range(first, len(members))]
            if b not in queued:
                # the rates into its largest part follow from the others'
                sizes = [len(members[x]) for x in split]
                del split[sizes.index(max(sizes))]
            queued.update(split)
        if not queued or len(members) == n:
            break
        c = queued.pop()
        rounds += 1
        sums = {}
        for t in members[c]:
            # the kernel's column of t lists the predecessors of t
            for s, w in kernel.cols[t]:
                sums[s] = sums.get(s, 0) + w
    # number the blocks by their first states
    numbers: dict[int, int] = {}
    blocks: list[list[str]] = []
    for state, b in zip(kernel.states, block):
        if b not in numbers:
            numbers[b] = len(blocks)
            blocks.append([])
        blocks[numbers[b]].append(state)
    return Partition(tuple(map(frozenset, blocks)), rounds)


def generators(kernel: Kernel) -> dict[int, Formula]:
    """Close the full state set under thresholds, unions and intersections.

    A worklist closes each member C once, in the order members were added. It
    adds the threshold sets {x | theta(x)(C) >= r} for each value r in C's own
    measure row, the empty set when the row's maximum is below the largest
    total rate, and the union and intersection of C with every member closed
    before it. A threshold over C at any rate achievable on the family is
    either one of those suffixes or empty, and the largest total rate is the
    largest achievable rate, so the family is closed under every extension
    definable from those rates at any slack. Every pair of members is joined
    when the later of the two is closed. Members are state bitmasks and rates
    scaled integers w; a threshold's formula gets the index w / D. A defining
    formula's extension is its member at slack 0, and so is that of its
    ``encode_up`` by e at slack e.

    One pass over C's measure row groups its states into one bitmask per
    value, with the largest total rate as a value held by no state when the
    row stays below it. Sweeping the values upward, each threshold set is the
    full mask less the states below its value, so the empty set comes last,
    at that largest rate. Every candidate, threshold or join, is first looked
    up in the family, and its formula is built only when it is new.

    Returns the map from each member's state bitmask to its defining formula,
    in the order members were added. Raises ``SearchBudgetExceeded`` once the
    family holds more than ``FAMILY_CAP`` members.
    """
    scale, full = kernel.scale, kernel.full
    top = max(kernel.totals, default=0)
    members: dict[int, Formula] = {full: Top()}
    order = [full]
    closed: list[tuple[int, Formula]] = []

    def grow(mask: int, formula: Formula) -> None:
        members[mask] = formula
        order.append(mask)
        if len(members) > FAMILY_CAP:
            raise SearchBudgetExceeded(
                f"definable-set family exceeded {FAMILY_CAP} members"
            )

    for c in order:  # the worklist: grow appends to order as it iterates
        f = members[c]
        # the states of each value in C's row; top, held by no state when the
        # row stays below it, gives the empty set
        values = {top: 0}
        for i, v in enumerate(kernel.scaled_measures(c)):
            values[v] = values.get(v, 0) | 1 << i
        below = 0
        for w in sorted(values):
            if (full ^ below) not in members:
                grow(full ^ below, L(Fraction(w, scale), f))
            below |= values[w]
        closed.append((c, f))
        for other, g in closed:
            if (c | other) not in members:
                grow(c | other, Or(f, g))
            if (c & other) not in members:
                grow(c & other, And(f, g))
    return members


def partition_from_family(kernel: Kernel, family: Iterable[int]) -> Partition:
    """Coarsest partition whose states agree on the measure of every family
    member, a state bitmask."""
    columns = [kernel.scaled_measures(c) for c in family]
    signatures: dict[tuple, list[str]] = {}
    for i, state in enumerate(kernel.states):
        signatures.setdefault(tuple(col[i] for col in columns), []).append(state)
    # groups appear in the order of their first states, as blocks are kept
    return Partition(tuple(frozenset(g) for g in signatures.values()), rounds=0)
