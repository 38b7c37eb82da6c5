from fractions import Fraction

import pytest

from cml_kit import Kernel, bisimulation, distance, holds, largest_order
from cml_kit import orders
from cml_kit.errors import SearchBudgetExceeded
from cml_kit.harness.generate import corpus
from cml_kit.orders import OrderSolver

Q = Fraction
EPS = Q(1, 10)


def test_branch_merge_pair_within_double_slack(fig1, fig3n):
    # merging the two branches costs exactly twice the perturbation
    assert holds(fig1, "m", fig3n, "n", 2 * EPS, essential=False)
    assert not holds(fig1, "m", fig3n, "n", 2 * EPS - Q(1, 100), essential=False)


def test_uniform_lift_is_essential(fig1, fig3o):
    assert holds(fig1, "m", fig3o, "o", EPS, essential=True)


def test_branch_merge_never_essential(fig1, fig3n):
    # the lowered continuation rate blocks the essential order below 2/10
    for e in (Q(1, 100), Q(1, 20), EPS, Q(19, 100)):
        assert not holds(fig1, "m", fig3n, "n", e, essential=True)


def test_holds_reflexive(fig1):
    assert holds(fig1, "m", fig1, "m", 0, essential=False)
    assert holds(fig1, "m", fig1, "m", 0, essential=True)


def test_bisimilar_pairs_in_zero_order(fig1):
    partition = bisimulation(fig1)
    order = largest_order(fig1, 0)
    for block in partition.blocks:
        for a in block:
            for b in block:
                assert (a, b) in order.relation
                assert (b, a) in order.relation


def test_essential_subset_of_plain():
    for kernel in corpus(8, 4, seed=9):
        for e in (Q(0), EPS, Q(1)):
            essential = largest_order(kernel, e, essential=True).relation
            plain = largest_order(kernel, e, essential=False).relation
            assert essential <= plain


def test_monotone_in_slack():
    for kernel in corpus(8, 4, seed=10):
        for essential in (False, True):
            previous = None
            for e in (Q(0), Q(1, 10), Q(1, 2), Q(2)):
                relation = largest_order(kernel, e, essential).relation
                if previous is not None:
                    assert previous <= relation
                previous = relation


def test_relation_closed_under_bisimulation():
    for kernel in corpus(8, 4, seed=12):
        partition = bisimulation(kernel)
        for e in (Q(0), EPS):
            relation = largest_order(kernel, e).relation
            for (x, y) in relation:
                for a in partition.block_of(x):
                    for b in partition.block_of(y):
                        assert (a, b) in relation


def test_fixpoint_satisfies_its_own_condition():
    # the returned plain relation is itself a valid order witness
    for kernel in corpus(6, 4, seed=13):
        solver = OrderSolver(kernel)
        for e in (Q(0), EPS, Q(1)):
            pairs = solver.plain_pairs(e)
            family = solver.family_blocks()
            for (i, j) in pairs:
                for c in family:
                    pull = 0
                    for (bi, bj) in pairs:
                        if c >> bj & 1:
                            pull |= 1 << bi
                    slack = solver._theta(j, c) - solver._theta(i, c | pull)
                    assert slack <= e


def test_witness_search_budget_is_enforced(fig1, monkeypatch):
    # the reflexive root pair at slack 0 is decided by the witness search,
    # which takes four steps
    assert holds(fig1, "m", fig1, "m", 0, essential=True)
    monkeypatch.setattr(orders, "WITNESS_BUDGET", 3)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 3 steps"):
        holds(fig1, "m", fig1, "m", 0, essential=True)


def test_union_of_essential_orders_need_not_be_essential(fig1, fig3o):
    # bisimilarity and the branch-matching witness are each essential, but
    # their union inflates a pullback past a capacity bound
    from cml_kit.kernel import disjoint_union, left_tag, right_tag

    union = disjoint_union(fig1, fig3o)
    solver = OrderSolver(union)
    partition = solver.partition
    diag = frozenset(
        (i, i) for i in range(solver.n_blocks)
    )
    witness = frozenset(
        solver.block_pair_of(left_tag(a), right_tag(b))
        for a, b in (("m", "o"), ("m1", "o1"), ("m2", "o2"),
                     ("m3", "o3"), ("m4", "o4"), ("m5", "o5"))
    )
    e = EPS
    assert all(solver._essential_ok(p, diag, e) for p in diag)
    assert all(solver._essential_ok(p, witness, e) for p in witness)
    merged = diag | witness
    assert not all(solver._essential_ok(p, merged, e) for p in merged)


def test_deadlock_is_below_everything_but_not_above():
    quiet = Kernel(["a"], {})
    busy = Kernel(["b", "c"], {("b", "c"): 5})
    assert holds(busy, "b", quiet, "a", 0)
    assert not holds(quiet, "a", busy, "b", 0)
    assert not holds(quiet, "a", busy, "b", Q(49, 10))
    assert holds(quiet, "a", busy, "b", 5)


def test_integer_scaling_keeps_the_exact_boundary():
    # rates with denominators 3 and 7 scale by D = 21; the root slack is
    # 4/7 - 1/3 = 5/21, and just below it e * D is no integer
    from cml_kit.kernel import disjoint_union, left_tag, right_tag

    low = Kernel(["a", "x"], {("a", "x"): Q(1, 3)})
    high = Kernel(["b", "y"], {("b", "y"): Q(4, 7)})
    e = Q(5, 21)
    below = e - Q(1, 1000)
    assert (below * 21).denominator != 1
    for essential in (False, True):
        assert holds(low, "a", high, "b", e, essential)
        assert not holds(low, "a", high, "b", below, essential)
    assert distance(low, "a", high, "b").value == e
    solver = OrderSolver(disjoint_union(low, high))
    assert solver.scale == 21
    pair = solver.block_pair_of(left_tag("a"), right_tag("b"))
    assert solver._band_ok(pair, e) and not solver._band_ok(pair, below)
    deadlocks = solver.block_pair_of(left_tag("x"), right_tag("y"))
    rel = frozenset({pair, deadlocks})
    assert solver._upper_ok(pair, rel, e) and not solver._upper_ok(pair, rel, below)


def test_unknown_states_rejected(fig1):
    with pytest.raises(Exception, match="unknown state"):
        holds(fig1, "zz", fig1, "m", 0)
