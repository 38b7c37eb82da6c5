"""Stochastic bisimulation by partition refinement, and the definable-set families.

Refinement starts from one block and repeatedly splits blocks whose members
assign different measures to some current block; the fixpoint partition is the
largest bisimulation. The generator families are grown by saturation: starting
from the full state set, keep adding threshold sets {m | theta(m)(C) >= r} for
every family member C and every achievable measure value r, closing under
union and intersection (and complement for the extended family). Each member
carries a defining positive-fragment formula (full language when extended).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import KernelError
from .formula import And, Formula, L, Not, Or, Top
from .kernel import Kernel, disjoint_union, left_tag, right_tag
from .rational import Rate


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


def _split_round(kernel: Kernel, blocks: list[frozenset]) -> list[frozenset]:
    order = {s: i for i, s in enumerate(kernel.states)}
    new_blocks: list[frozenset] = []
    for block in blocks:
        groups: dict[tuple, list[str]] = {}
        for state in sorted(block, key=order.__getitem__):
            signature = tuple(kernel.measure(state, b) for b in blocks)
            groups.setdefault(signature, []).append(state)
        for members in groups.values():
            new_blocks.append(frozenset(members))
    new_blocks.sort(key=lambda b: min(order[s] for s in b))
    return new_blocks


def bisimulation(kernel: Kernel) -> Partition:
    """Partition of the largest stochastic bisimulation."""
    blocks = [kernel.state_set] if kernel.states else []
    rounds = 0
    while True:
        refined = _split_round(kernel, blocks)
        if len(refined) == len(blocks):
            return Partition(tuple(refined), rounds)
        blocks = refined
        rounds += 1


def bisimilar(k1: Kernel, m: str, k2: Kernel, n: str) -> bool:
    """Processes (k1, m) and (k2, n) are bisimilar in the tagged disjoint union."""
    if m not in k1.state_set:
        raise KernelError(f"unknown state {m!r}")
    if n not in k2.state_set:
        raise KernelError(f"unknown state {n!r}")
    union = disjoint_union(k1, k2)
    return bisimulation(union).same_block(left_tag(m), right_tag(n))


@dataclass(frozen=True)
class GeneratorFamily:
    """Saturation-closed family of definable state sets with defining formulas."""

    kernel: Kernel
    sets: frozenset
    extended: bool
    formulas: dict

    def __contains__(self, members: frozenset) -> bool:
        return frozenset(members) in self.sets

    def __iter__(self):
        return iter(self.sorted_sets())

    def __len__(self) -> int:
        return len(self.sets)

    def sorted_sets(self) -> list[frozenset]:
        order = {s: i for i, s in enumerate(self.kernel.states)}
        return sorted(
            self.sets, key=lambda c: (len(c), sorted(order[s] for s in c))
        )

    def achievable_measures(self) -> list[Rate]:
        """Every theta(x)(C) value over states x and family members C."""
        values = {
            self.kernel.measure(x, c) for x in self.kernel.states for c in self.sets
        }
        return sorted(values)


def generators(
    kernel: Kernel, extended: bool = False, formula_slack: Rate = Fraction(0)
) -> GeneratorFamily:
    """Saturate from the full state set under thresholds, unions, intersections.

    Threshold rates range over the measures achievable on any current member
    (a single global pool), which keeps the family closed under every
    extension definable from those rates at any slack. The extended family
    additionally closes under complement. The recorded defining formulas have
    extensions equal to their members when evaluated at ``formula_slack``
    (threshold indices are shifted up by it); the member sets themselves do
    not depend on it.
    """
    universe = kernel.state_set
    members: dict[frozenset, Formula] = {universe: Top()}
    # measures[c][k]: theta(k-th state)(c), taken once per member
    measures: dict[frozenset, list[Rate]] = {}

    def add(candidate: frozenset, build: Callable[[], Formula]) -> bool:
        # the defining formula is only built for a new member
        if candidate in members:
            return False
        members[candidate] = build()
        return True

    changed = True
    while changed:
        changed = False
        for c in members:
            if c not in measures:
                measures[c] = [kernel.measure(x, c) for x in kernel.states]
        pool = sorted({v for row in measures.values() for v in row})
        for c, f in sorted_items(kernel, members):
            row = measures[c]
            # states by ascending measure into c; the threshold set at r is
            # the suffix from the first state measuring at least r
            ranked = sorted(range(len(row)), key=row.__getitem__)
            start, previous = 0, -1
            for r in pool:
                while start < len(ranked) and row[ranked[start]] < r:
                    start += 1
                if start == previous:
                    continue  # same threshold set as the previous rate
                previous = start
                threshold = frozenset(kernel.states[k] for k in ranked[start:])
                if add(threshold, lambda: L(r + formula_slack, f)):
                    changed = True
        # lattice closure; complement too when extended
        closing = True
        while closing:
            closing = False
            snapshot = sorted_items(kernel, members)
            for i, (c1, f1) in enumerate(snapshot):
                if extended and add(universe - c1, lambda: Not(f1)):
                    closing = changed = True
                for c2, f2 in snapshot[i + 1 :]:
                    if add(c1 | c2, lambda: Or(f1, f2)):
                        closing = changed = True
                    if add(c1 & c2, lambda: And(f1, f2)):
                        closing = changed = True
    return GeneratorFamily(
        kernel=kernel,
        sets=frozenset(members),
        extended=extended,
        formulas=dict(members),
    )


def sorted_items(kernel: Kernel, members: dict) -> list[tuple[frozenset, Formula]]:
    order = {s: i for i, s in enumerate(kernel.states)}
    return sorted(
        members.items(),
        key=lambda item: (len(item[0]), sorted(order[s] for s in item[0])),
    )


def partition_from_family(kernel: Kernel, family: Iterable[frozenset]) -> Partition:
    """Coarsest partition whose members agree on the measure of every family set."""
    sets = list(family)
    signatures: dict[tuple, list[str]] = {}
    for state in kernel.states:
        sig = tuple(kernel.measure(state, c) for c in sets)
        signatures.setdefault(sig, []).append(state)
    order = {s: i for i, s in enumerate(kernel.states)}
    blocks = sorted(
        (frozenset(group) for group in signatures.values()),
        key=lambda b: min(order[s] for s in b),
    )
    return Partition(tuple(blocks), rounds=0)
