from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cml_kit import (
    Evaluator,
    Kernel,
    Partition,
    bisimulation,
    disjoint_union,
    equivalence,
    generators,
    left_tag,
    partition_from_family,
    right_tag,
)
from cml_kit.errors import SearchBudgetExceeded
from cml_kit.harness.enumerate import enumerate_formulas
from cml_kit.harness.generate import KernelGenConfig, corpus, gen_kernel
from cml_kit.formula import And, Fragment, L, Or, Top, encode_up, print_formula
from cml_kit.models import FIGURES, load_model

Q = Fraction
S = frozenset


def test_branching_kernel_blocks(fig1):
    partition = bisimulation(fig1)
    assert partition.same_block("m2", "m4")
    assert partition.same_block("m3", "m5")
    # the absorbing states all behave identically, including m1
    assert set(partition.blocks) == {
        S({"m"}),
        S({"m2", "m4"}),
        S({"m1", "m3", "m5"}),
    }


def test_zero_kernel_single_block():
    k = Kernel(["a", "b", "c"], {})
    assert len(bisimulation(k).blocks) == 1


def test_distinct_self_rates_split():
    k = Kernel(["a", "b"], {("a", "a"): 1, ("b", "b"): 2})
    assert set(bisimulation(k).blocks) == {S({"a"}), S({"b"})}


def _bisimilar(k1, m, k2, n) -> bool:
    # (k1, m) and (k2, n) share a block of the tagged disjoint union
    return bisimulation(disjoint_union(k1, k2)).same_block(left_tag(m), right_tag(n))


def test_bisimilar_reflexive(fig1):
    assert _bisimilar(fig1, "m", fig1, "m")


def test_isomorphic_copies_bisimilar(fig1):
    relabeled = Kernel(
        [s.upper() for s in fig1.states],
        {(s.upper(), t.upper()): r for (s, t, r) in fig1.rate_items()},
    )
    assert _bisimilar(fig1, "m", relabeled, "M")
    assert _bisimilar(fig1, "m2", relabeled, "M4")
    assert not _bisimilar(fig1, "m", relabeled, "M2")


def test_perturbed_roots_not_bisimilar(fig1, fig4o):
    assert not _bisimilar(fig1, "m", fig4o, "o")


def _round_loop_blocks(kernel):
    """Refinement in rounds, as an oracle: each round gives every state the
    signature (its block, block -> rate into the block) and numbers the new
    blocks by their first states, until a round splits nothing. It reads the
    rates from ``rate_items()``, not from the kernel's columns."""
    position = {s: i for i, s in enumerate(kernel.states)}
    rows = [[] for _ in kernel.states]
    for s, t, r in kernel.rate_items():
        rows[position[s]].append((position[t], r))
    index = [0] * len(kernel.states)
    while True:
        numbers = {}
        refined = []
        for block, row in zip(index, rows):
            sums = {}
            for t, r in row:
                target = index[t]
                sums[target] = sums.get(target, 0) + r
            signature = (block, frozenset(sums.items()))
            refined.append(numbers.setdefault(signature, len(numbers)))
        if refined == index:
            break
        index = refined
    blocks = [[] for _ in range(max(index, default=-1) + 1)]
    for state, block in zip(kernel.states, index):
        blocks[block].append(state)
    return tuple(map(frozenset, blocks))


_RATES = st.sampled_from([1, 2, 3, Q(1, 2), Q(3, 2), Q(2, 3)])


@st.composite
def _random_kernels(draw, max_states=14, rates=_RATES):
    n = draw(st.integers(0, max_states))
    states = [f"s{i}" for i in range(n)]
    edges = st.tuples(st.sampled_from(states), st.sampled_from(states)) if n else st.nothing()
    return Kernel(states, draw(st.dictionaries(edges, rates, max_size=3 * n)))


@st.composite
def _symmetric_copies(draw):
    # copies of one kernel with their states shuffled: many equal blocks
    k = draw(_random_kernels(max_states=5))
    copies = range(draw(st.integers(2, 3)))
    states = draw(st.permutations([f"{s}#{c}" for c in copies for s in k.states]))
    rates = {(f"{s}#{c}", f"{t}#{c}"): r for c in copies for s, t, r in k.rate_items()}
    return Kernel(states, rates)


@st.composite
def _chains(draw):
    rates = draw(st.lists(_RATES, max_size=60))
    states = [f"c{i}" for i in range(len(rates) + 1)]
    return Kernel(states, {(s, t): r for s, t, r in zip(states, states[1:], rates)})


@settings(max_examples=400, deadline=None)
@given(st.one_of(_random_kernels(), _symmetric_copies(), _chains()))
def test_refinement_matches_the_round_loop(kernel):
    assert bisimulation(kernel).blocks == _round_loop_blocks(kernel)


def test_refinement_matches_the_round_loop_on_the_corpora():
    for kernel in [*corpus(40, 4, 7), *corpus(40, 5, 3), *corpus(30, 6, 11), *corpus(20, 8, 5)]:
        assert bisimulation(kernel).blocks == _round_loop_blocks(kernel)


def _union_of_blocks(members, partition):
    return all(b <= members or not (b & members) for b in partition.blocks)


def _measures(kernel, family):
    # every theta(x)(C) over states x and family members C
    return {kernel.measure(x, kernel.set_of(c)) for c in family for x in kernel.states}


def test_single_state_families():
    k = Kernel(["a"], {("a", "a"): 3})
    # the family maps each member's state bitmask to its defining formula
    assert generators(k) == {k.mask_of({"a"}): Top()}


def test_branching_kernel_family(fig1):
    plain = generators(fig1)
    # the positive family: nothing below the root is positively isolable
    assert {fig1.set_of(c) for c in plain} == {
        S(), S({"m"}), S({"m", "m2", "m4"}), fig1.state_set
    }
    partition = bisimulation(fig1)
    for member in plain:
        assert _union_of_blocks(fig1.set_of(member), partition)


def test_family_is_closed_and_block_unions():
    for kernel in [*corpus(8, 4, seed=3), *corpus(10, 5, seed=5)]:
        family = generators(kernel)
        partition = bisimulation(kernel)
        rates = _measures(kernel, family)
        for c in family:
            assert _union_of_blocks(kernel.set_of(c), partition)
            row = {x: kernel.measure(x, kernel.set_of(c)) for x in kernel.states}
            # the threshold sets of L{r} at slacks 0 and 1/10
            for r in rates:
                for bound in (r, r - Q(1, 10)):
                    threshold = kernel.mask_of(x for x, v in row.items() if v >= bound)
                    assert threshold in family
            for d in family:
                assert c | d in family and c & d in family


def test_defining_formulas_define(fig1):
    # a member's formula defines it at slack 0, and shifted up by e at slack e
    for kernel in [fig1, *corpus(8, 4, seed=3), *corpus(10, 5, seed=5)]:
        ev = Evaluator(kernel)
        for member, phi in generators(kernel).items():
            for e in (Q(0), Q(1, 10), Q(1)):
                assert ev.extension(encode_up(phi, e), e) == kernel.set_of(member)


def test_family_partition_matches_refinement():
    for kernel in corpus(10, 5, seed=5):
        partition = bisimulation(kernel)
        family = generators(kernel)
        assert set(partition_from_family(kernel, family).blocks) == set(partition.blocks)


def test_enumerated_extensions_in_family(fig1):
    plain = generators(fig1)
    partition = bisimulation(fig1)
    grid = tuple(sorted(_measures(fig1, plain)))
    ev = Evaluator(fig1)
    pos, _ = enumerate_formulas(2, grid, Fragment.POSITIVE, 400)
    for f in pos:
        for e in (Q(0), Q(1, 10), Q(1)):
            assert fig1.mask_of(ev.extension(f, e)) in plain
    full, _ = enumerate_formulas(2, grid, Fragment.FULL, 400)
    for f in full:
        for e in (Q(0), Q(1, 10), Q(1)):
            assert _union_of_blocks(ev.extension(f, e), partition)


def test_family_cap_raises_budget_error(monkeypatch):
    kernel = gen_kernel(KernelGenConfig(max_states=3, density=Q(1), seed=4))
    assert len(generators(kernel)) > 3
    monkeypatch.setattr(equivalence, "FAMILY_CAP", 3)
    with pytest.raises(SearchBudgetExceeded, match="definable-set family exceeded 3 members"):
        generators(kernel)


def _worklist_generators(kernel):
    """The family by a per-candidate worklist, as an oracle: each threshold
    set is rescanned from the row, and every candidate goes through one
    insertion call that builds its formula."""
    scale = kernel.scale
    top = max(kernel.totals, default=0)
    members = {kernel.full: Top()}
    queue = deque(members)
    closed = []

    def at_least(w, f):
        return L(Q(w, scale), f)

    def add(candidate, build, *args):
        if candidate not in members:
            members[candidate] = build(*args)
            queue.append(candidate)
            if len(members) > equivalence.FAMILY_CAP:
                raise SearchBudgetExceeded(
                    f"definable-set family exceeded {equivalence.FAMILY_CAP} members"
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


def _printed(family):
    return [(mask, print_formula(f)) for mask, f in family.items()]


def _same_family(kernel):
    # both raise past the cap, or both give the same members, formulas and order
    try:
        expected = _printed(_worklist_generators(kernel))
    except SearchBudgetExceeded:
        with pytest.raises(SearchBudgetExceeded):
            generators(kernel)
        return
    assert _printed(generators(kernel)) == expected


_small_kernels = _random_kernels(8, st.sampled_from([0, 1, 2, 3, Q(1, 2), Q(2, 3)]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_small_kernels, st.builds(disjoint_union, _small_kernels, _small_kernels)))
def test_family_matches_the_worklist(kernel):
    _same_family(kernel)


def test_family_matches_the_worklist_on_the_corpora():
    for kernel in [*corpus(40, 4, 7), *corpus(40, 5, 3), *corpus(30, 6, 11), *corpus(20, 8, 5)]:
        _same_family(kernel)


@pytest.mark.parametrize("cap", range(1, 13))
def test_family_cap_matches_the_worklist(monkeypatch, cap):
    models = [load_model(name) for name in FIGURES]
    kernels = [*models, disjoint_union(models[0], models[-1]), *corpus(10, 5, seed=5)]
    monkeypatch.setattr(equivalence, "FAMILY_CAP", cap)
    for kernel in kernels:
        _same_family(kernel)


def test_partition_is_a_value(fig1):
    a, b = bisimulation(fig1), bisimulation(fig1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Partition(a.blocks, rounds=a.rounds + 1)
    one = Partition((S({"a"}),), rounds=0)
    assert repr(one) == "Partition(blocks=(frozenset({'a'}),), rounds=0)"
    with pytest.raises(AttributeError):
        a.rounds = 0
