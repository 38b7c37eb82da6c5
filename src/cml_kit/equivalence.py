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

The definable-set family is the ring generated by the full state set and the
threshold sets {m | theta(m)(C) >= r} of its own members C, one per value r
of C's measure row (``Kernel.scaled_measures``, the sum of its states'
columns) and one at the largest total rate. ``rings.closure`` grows it on
state bitmasks as the down-sets of one preorder, with ``rings.upper_sets``
as the sweep that reads every threshold set off a row, and it stops with
``SearchBudgetExceeded`` past ``FAMILY_CAP`` members. The family is the
closure's record of how each member first arose, keyed by member in the
order found; the orders path reads its members only, and
``defining_formulas`` folds it into a positive-fragment formula per member.
Each member is a union of bisimulation blocks. Closing under complement too
would give every union of blocks, so that family is not built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import KernelError, Record
from .formula import And, Formula, L, Or, Top
from .kernel import Kernel
from .rings import closure, upper_sets

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


def generators(kernel: Kernel) -> dict[int, tuple]:
    """The definable-set family: the ring generated by the full state set and
    the threshold sets {x | theta(x)(C) >= r} of each of its members C.

    C's thresholds are the upper sets of its measure row at each value of
    the row and at the largest total rate, which no state exceeds: the empty
    set when the row stays below that rate. A threshold over C at any rate
    achievable on the family is one of those sets, and the largest total
    rate is the largest achievable rate, so the family is closed under every
    extension definable from those rates at any slack. Members are state
    bitmasks and rates scaled integers w (rate times D).

    Returns the record of ``rings.closure``: each member, in the order found,
    with how it first arose. The full set is the seed and C's threshold sets
    are the literals of C. Raises ``SearchBudgetExceeded`` once the family
    holds more than ``FAMILY_CAP`` members.
    """
    top = max(kernel.totals, default=0)
    return closure([kernel.full], lambda c: upper_sets(kernel.scaled_measures(c), top),
                   FAMILY_CAP, f"definable-set family exceeded {FAMILY_CAP} members")


def defining_formulas(kernel: Kernel) -> dict[int, Formula]:
    """Each member of ``generators(kernel)`` with its defining formula, folded
    from how the member first arose: Top for the full set, L(w/D, phi_C) for
    a threshold set over C, and the And or Or of the two members of a meet or
    a join. A threshold set's w is the least scaled rate into C of its
    states, the rate its sweep stopped at, or the largest total rate for the
    empty set. A formula's extension is its member at slack 0, and so is
    that of its ``encode_up`` by e at slack e."""
    top = max(kernel.totals, default=0)
    formulas: dict[int, Formula] = {}
    for m, (how, a, b) in generators(kernel).items():
        if how == "meet":
            formulas[m] = And(formulas[a], formulas[b])
        elif how == "join":
            formulas[m] = Or(formulas[a], formulas[b])
        elif a is None:  # the full set, the seed
            formulas[m] = Top()
        else:
            w = min((w for i, w in enumerate(kernel.scaled_measures(a)) if m >> i & 1), default=top)
            formulas[m] = L(Fraction(w, kernel.scale), formulas[a])
    return formulas


def partition_from_family(kernel: Kernel, family: Iterable[int]) -> Partition:
    """Coarsest partition whose states agree on the measure of every family
    member, a state bitmask."""
    columns = [kernel.scaled_measures(c) for c in family]
    signatures: dict[tuple, list[str]] = {}
    for i, state in enumerate(kernel.states):
        signatures.setdefault(tuple(col[i] for col in columns), []).append(state)
    # groups appear in the order of their first states, as blocks are kept
    return Partition(tuple(frozenset(g) for g in signatures.values()), rounds=0)
