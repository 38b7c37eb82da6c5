"""Stochastic bisimulation by partition refinement, and the definable-set family.

Refinement starts from one block and repeatedly splits blocks whose members
assign different measures to some current block; the fixpoint partition is the
largest bisimulation. A round keeps each state's block number in one list and
gives every state a signature built in one pass over its integer row (see
``kernel``): its block plus block -> scaled rate into the block, so states of
a block agree on every block measure exactly when their signatures are equal.
The generator family is grown by saturation on state bitmasks and scaled
integer rates: starting from the full state set, add the threshold sets
{m | theta(m)(C) >= r} for every family member C and every achievable measure
value r, and close under union and intersection. A worklist closes each member
once, and the family stops with ``SearchBudgetExceeded`` past ``FAMILY_CAP``
members. Each member is a union of bisimulation blocks and carries a defining
positive-fragment formula; the family is one map from each member's state
bitmask to that formula, in the order members were added. Closing under
complement too would give every union of blocks, so that family is not built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import KernelError, SearchBudgetExceeded
from .formula import And, Formula, L, Or, Top
from .kernel import Kernel, disjoint_union, left_tag, right_tag

# members the definable-set family may hold before SearchBudgetExceeded; the
# family can grow exponentially with the bisimulation blocks
FAMILY_CAP = 5_000


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks covering the kernel's states, in deterministic order."""

    blocks: tuple[frozenset, ...]
    rounds: int

    def block_of(self, state: str) -> frozenset:
        for block in self.blocks:
            if state in block:
                return block
        raise KernelError(f"unknown state {state!r}")

    def same_block(self, a: str, b: str) -> bool:
        return self.block_of(a) is self.block_of(b)

    def as_sets(self) -> set[frozenset]:
        return set(self.blocks)


def _split_round(kernel: Kernel, index: list[int]) -> list[int]:
    # index[i] is the block of state i. A state's signature is its block and
    # its scaled integer rate into each block, one pass over its row; rows
    # hold no zero rate, so equal signatures mean equal block measures. New
    # blocks are numbered in the order of their first states.
    numbers: dict[tuple[int, frozenset], int] = {}
    refined = []
    for block, row in zip(index, kernel.rows):
        sums: dict[int, int] = {}
        for bit, v in row:
            target = index[bit.bit_length() - 1]
            sums[target] = sums.get(target, 0) + v
        signature = (block, frozenset(sums.items()))
        refined.append(numbers.setdefault(signature, len(numbers)))
    return refined


def _partition(kernel: Kernel, index: list[int], rounds: int) -> Partition:
    # the blocks of a per-state block index, numbered by their first states
    blocks: list[list[str]] = [[] for _ in range(max(index, default=-1) + 1)]
    for state, block in zip(kernel.states, index):
        blocks[block].append(state)
    return Partition(tuple(map(frozenset, blocks)), rounds)


def bisimulation(kernel: Kernel) -> Partition:
    """Partition of the largest stochastic bisimulation."""
    index = [0] * len(kernel.states)
    rounds = 0
    while True:
        refined = _split_round(kernel, index)
        # both are numbered by first states, so equal lists are equal partitions
        if refined == index:
            return _partition(kernel, index, rounds)
        index = refined
        rounds += 1


def bisimilar(k1: Kernel, m: str, k2: Kernel, n: str) -> bool:
    """Processes (k1, m) and (k2, n) are bisimilar in the tagged disjoint union."""
    if m not in k1.state_set:
        raise KernelError(f"unknown state {m!r}")
    if n not in k2.state_set:
        raise KernelError(f"unknown state {n!r}")
    union = disjoint_union(k1, k2)
    return bisimulation(union).same_block(left_tag(m), right_tag(n))


def generators(kernel: Kernel) -> dict[int, Formula]:
    """Close the full state set under thresholds, unions and intersections.

    A worklist closes each member C once, when it is taken from the queue. It
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
    ``encode_up`` by e at slack e. Returns the map from each member's state
    bitmask to its defining formula, in the order members were added. Raises
    ``SearchBudgetExceeded`` once the family holds more than ``FAMILY_CAP``
    members.
    """
    scale = kernel.scale
    universe = (1 << len(kernel.states)) - 1
    top = max(kernel.scaled_measures(universe), default=0)
    members: dict[int, Formula] = {universe: Top()}
    queue = deque(members)
    closed: list[tuple[int, Formula]] = []

    def at_least(w: int, f: Formula) -> Formula:
        return L(Fraction(w, scale), f)

    def add(candidate: int, build: Callable[..., Formula], *args) -> None:
        # the defining formula, with a threshold's Fraction index, is only
        # built for a new member
        if candidate not in members:
            members[candidate] = build(*args)
            queue.append(candidate)
            if len(members) > FAMILY_CAP:
                raise SearchBudgetExceeded(
                    f"definable-set family exceeded {FAMILY_CAP} members"
                )

    while queue:
        c = queue.popleft()
        f = members[c]
        row = kernel.scaled_measures(c)
        for w in sorted(set(row)):
            threshold = sum([1 << i for i, v in enumerate(row) if v >= w])
            add(threshold, at_least, w, f)
        if max(row, default=0) < top:
            add(0, at_least, top, f)
        closed.append((c, f))
        for other, g in closed:
            add(c | other, Or, f, g)
            add(c & other, And, f, g)
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
