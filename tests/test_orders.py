import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cml_kit import Kernel, bisimulation, disjoint_union, distance, holds
from cml_kit import orders
from cml_kit.equivalence import defining_formulas, generators
from cml_kit.errors import SearchBudgetExceeded
from cml_kit.formula import print_formula
from cml_kit.harness.generate import KernelGenConfig, chain_kernel, corpus, gen_kernel
from cml_kit.orders import OrderSolver

Q = Fraction
EPS = Q(1, 10)
SLACKS = (Q(0), Q(1, 10), Q(1, 2), Q(1), Q(5, 2))

# gen_kernel kernels of 1-5 states, on the default rate pool or on one whose
# denominators make the union's scale D larger
generated_kernels = st.builds(
    lambda states, density, pool, seed: gen_kernel(
        KernelGenConfig(states, rate_pool=pool, density=density, seed=seed)
    ),
    st.integers(1, 5),
    st.sampled_from((Q(1, 4), Q(1, 2), Q(3, 4), Q(1))),
    st.sampled_from(((Q(0), Q(1), Q(2), Q(3), Q(1, 2)), (Q(1, 3), Q(2, 7), Q(3, 2), Q(5)))),
    st.integers(0, 1 << 16),
)


def projected_family(kernel: Kernel, solver: OrderSolver) -> list[int]:
    """The kernel's own family, each member projected from a state bitmask
    onto the bitmask of the blocks it meets, as an oracle for the family the
    solver builds on its quotient."""
    block_masks = [kernel.mask_of(b) for b in solver.blocks]
    family = []
    for member in generators(kernel):
        blocks = covered = 0
        for i, b in enumerate(block_masks):
            if member & b:
                blocks |= 1 << i
                covered |= b
        # members are unions of blocks, so the projection is lossless
        assert covered == member, "generator member is not a union of blocks"
        family.append(blocks)
    return family


def round_loop_plain_pairs(solver: OrderSolver, e: Fraction) -> frozenset:
    """The plain fixpoint in rounds, as an oracle: each round rebuilds every
    member's closure, rechecks every live pair against every member and
    deletes the violated pairs, until a round deletes none."""
    limit = solver._limit(e)
    masks = solver.family_blocks()
    mass = solver._mass
    n = solver.n_blocks
    member_theta = [[mass(j, c) for c in masks] for j in range(n)]
    pairs = {(i, j) for i in range(n) for j in range(n)}
    while True:
        into = [0] * n
        for (i, j) in pairs:
            into[j] |= 1 << i
        closures = []
        for c in masks:
            closure = c
            for j in range(n):
                if c >> j & 1:
                    closure |= into[j]
            closures.append(closure)
        closure_mass = {}
        violated = set()
        for (i, j) in pairs:
            if i not in closure_mass:
                closure_mass[i] = [mass(i, closure) for closure in closures]
            for theta_c, theta_i in zip(member_theta[j], closure_mass[i]):
                if theta_c - theta_i > limit:
                    violated.add((i, j))
                    break
        if not violated:
            break
        pairs -= violated
    return frozenset(pairs)


def exact_violations(solver: OrderSolver, pairs) -> dict:
    """Each pair's largest slack theta(j)(C) - theta(i)(C ∪ R⁻¹C) under R = pairs."""
    out = {}
    for (i, j) in pairs:
        slacks = []
        for c in solver.family_blocks():
            pull = 0
            for (bi, bj) in pairs:
                if c >> bj & 1:
                    pull |= 1 << bi
            slacks.append(solver._mass(j, c) - solver._mass(i, c | pull))
        out[(i, j)] = max(slacks)
    return out


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
    order = OrderSolver(fig1).order(0)
    for block in partition.blocks:
        for a in block:
            for b in block:
                assert (a, b) in order
                assert (b, a) in order


def test_essential_subset_of_plain():
    for kernel in corpus(8, 4, seed=9):
        solver = OrderSolver(kernel)
        for e in (Q(0), EPS, Q(1)):
            essential = solver.order(e, essential=True)
            plain = solver.order(e, essential=False)
            assert essential <= plain


def test_monotone_in_slack():
    for kernel in corpus(8, 4, seed=10):
        for essential in (False, True):
            previous = None
            for e in (Q(0), Q(1, 10), Q(1, 2), Q(2)):
                relation = OrderSolver(kernel).order(e, essential)
                if previous is not None:
                    assert previous <= relation
                previous = relation


def test_relation_closed_under_bisimulation():
    for kernel in corpus(8, 4, seed=12):
        partition = bisimulation(kernel)
        for e in (Q(0), EPS):
            relation = OrderSolver(kernel).order(e)
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
                    slack = solver._mass(j, c) - solver._mass(i, c | pull)
                    assert Q(slack, solver.scale) <= e


def test_plain_descent_budget_boundary_on_chains():
    # an n-state chain has n blocks, and its descent to 0 makes Theta(n^3)
    # pair checks: 163 states stay within DESCENT_BUDGET and 164 do not
    assert len(OrderSolver(chain_kernel(163)).plain_pairs(0)) == 163 * 164 // 2
    with pytest.raises(SearchBudgetExceeded, match="plain order descent exceeded"):
        OrderSolver(chain_kernel(164)).plain_pairs(0)


def test_witness_search_budget_is_enforced(fig1, monkeypatch):
    # every pair is decided by a witness search; at slack 0 the longest
    # search of fig1's reflexive order, the root pair's, takes three steps
    assert holds(fig1, "m", fig1, "m", 0, essential=True)
    monkeypatch.setattr(orders, "WITNESS_BUDGET", 2)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 2 steps"):
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
    limit = solver._limit(EPS)
    assert solver._unmet(diag, limit) == []
    assert solver._unmet(witness, limit) == []
    # the merged pullbacks break a bound that no further pair repairs
    assert solver._unmet(diag | witness, limit) is None


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
    i, j = pair
    # the band: exit totals 7/21 and 12/21
    assert solver.sums[j] - solver.sums[i] == 5
    assert solver._limit(e) == 5 and solver._limit(below) == 4
    assert pair in solver.essential_pairs(e)
    assert pair not in solver.essential_pairs(below)
    # the total slack: with the deadlocks related, a's whole exit mass is in
    # the domain, so the slack is the band's 5/21
    deadlocks = solver.block_pair_of(left_tag("x"), right_tag("y"))
    rel = frozenset({pair, deadlocks})
    assert solver._unmet(rel, solver._limit(e)) == []
    assert solver._unmet(rel, solver._limit(below)) == [pair]
    # alone, the pair's domain holds none of a's mass: slack 12/21
    alone = frozenset({pair})
    assert solver._unmet(alone, solver._limit(Q(12, 21))) == []
    assert solver._unmet(alone, solver._limit(Q(12, 21) - Q(1, 1000))) == [pair]


def test_unknown_states_rejected(fig1):
    with pytest.raises(Exception, match="unknown state"):
        holds(fig1, "zz", fig1, "m", 0)


def test_essential_pairs_match_exhaustive_oracle():
    # brute force over every set of block pairs, on Fractions from the
    # kernel: the union of the essential sets is the essential order, and
    # each essential set lies inside the plain order
    from cml_kit.kernel import disjoint_union

    # every kernel with at most 3 blocks: a seeded corpus, plus unions of
    # 2-state kernels, where bisimilar states merge blocks across the sides
    small = corpus(24, 3, seed=41)
    twos = [k for k in small[6:] if len(k.states) == 2][:5]
    kernels = small + [disjoint_union(a, b) for a in twos for b in twos]
    cases = [k for k in kernels if len(bisimulation(k).blocks) <= 3]
    assert len(cases) >= 20
    for kernel in cases:
        blocks = bisimulation(kernel).blocks
        n = len(blocks)
        reps = [min(b) for b in blocks]
        unions = [
            frozenset().union(*(blocks[b] for b in range(n) if mask >> b & 1))
            for mask in range(1 << n)
        ]
        theta = [[kernel.measure(r, c) for c in unions] for r in reps]
        total = [kernel.measure(r, kernel.state_set) for r in reps]
        pairs = [(i, j) for i in range(n) for j in range(n)]
        solver = OrderSolver(kernel)
        for e in (Q(0), Q(1, 10), Q(1, 2), Q(1), Q(5, 2)):
            kept = []
            for size in range(1, len(pairs) + 1):
                for rel in itertools.combinations(pairs, size):
                    into = [0] * n
                    dom = 0
                    for (i, j) in rel:
                        into[j] |= 1 << i
                        dom |= 1 << i
                    if all(
                        0 <= total[j] - total[i] <= e
                        and total[j] - theta[i][dom] <= e
                        and all(theta[i][into[b]] <= theta[j][1 << b] for b in range(n))
                        for (i, j) in rel
                    ):
                        kept.append(frozenset(rel))
            assert frozenset().union(*kept) == solver.essential_pairs(e)
            plain = solver.plain_pairs(e)
            assert all(rel <= plain for rel in kept)


def test_essential_path_needs_no_plain_order_or_family(fig1, fig3n, fig3o, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the essential order built the plain order or the family")

    monkeypatch.setattr(OrderSolver, "plain_pairs", refuse)
    monkeypatch.setattr(OrderSolver, "family_blocks", refuse)
    monkeypatch.setattr(orders, "generators", refuse)
    assert holds(fig1, "m", fig1, "m", 0, essential=True)
    assert holds(fig1, "m", fig3o, "o", EPS, essential=True)
    for e in (Q(1, 100), Q(1, 20), EPS, Q(19, 100)):
        assert not holds(fig1, "m", fig3n, "n", e, essential=True)


def test_essential_pairs_skip_pairs_inside_found_witnesses():
    # a pair inside a witness found earlier is essential without a search
    # of its own, so the order equals the pair-by-pair search with fewer runs
    kernel = max(corpus(20, 8, seed=5), key=lambda k: len(k.states))
    solver = OrderSolver(kernel)
    searched = []
    search = solver._witness

    def counting_search(query, candidates, limit):
        searched.append(query)
        return search(query, candidates, limit)

    solver._witness = counting_search
    skipped = 0
    for e in (Q(0), Q(1, 10), Q(1, 2), Q(1), Q(5, 2)):
        searched.clear()
        pairs = solver.essential_pairs(e)
        limit = solver._limit(e)
        sums = solver.sums
        band = [
            (i, j) for i in range(solver.n_blocks) for j in range(solver.n_blocks)
            if 0 <= sums[j] - sums[i] <= limit
        ]
        assert pairs == frozenset(
            p for p in band if search(p, band, limit) is not None
        )
        assert set(searched) <= set(band) and len(searched) == len(set(searched))
        skipped += len(band) - len(searched)
    assert skipped > 0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(generated_kernels, generated_kernels)
def test_plain_descent_matches_the_round_loop(k1, k2):
    # plain_pairs descends once, straight to its limit; one descent walked
    # down the slacks, as distance walks it, passes the same fixpoints, and
    # keeps each live pair's exact violation under the live relation
    solver = OrderSolver(disjoint_union(k1, k2))
    descent = orders.PlainDescent(solver)
    full = frozenset(descent.violation)
    assert len(full) == solver.n_blocks ** 2
    assert descent.violation == exact_violations(solver, full)
    for e in reversed(SLACKS):
        expected = round_loop_plain_pairs(solver, e)
        assert solver.plain_pairs(e) == expected
        descent.descend(solver._limit(e))
        assert frozenset(descent.violation) == expected
        assert descent.violation == exact_violations(solver, expected)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.one_of(generated_kernels,
                 st.builds(disjoint_union, generated_kernels, generated_kernels)))
def test_solver_family_is_the_kernel_family_on_blocks(kernel):
    # the solver builds the family of its quotient kernel; it is the kernel's
    # own family projected onto blocks, member for member and formula for
    # formula, at a scale that divides the kernel's
    solver = OrderSolver(kernel)
    assert solver.family_blocks() == projected_family(kernel, solver)
    assert [print_formula(f) for f in defining_formulas(solver.quotient).values()] == [
        print_formula(f) for f in defining_formulas(kernel).values()
    ]
    quotient = bisimulation(solver.quotient).blocks
    assert len(quotient) == solver.n_blocks and all(len(b) == 1 for b in quotient)
    assert kernel.scale % solver.scale == 0


def test_quotient_scale_can_be_smaller_than_the_kernel_scale():
    # a's two halves go to the bisimilar deadlocks b and c, so a and d are
    # bisimilar and the quotient's one rate is 1
    kernel = Kernel(
        ["a", "b", "c", "d"], {("a", "b"): "1/2", ("a", "c"): "1/2", ("d", "b"): "1"}
    )
    solver = OrderSolver(kernel)
    assert kernel.scale == 2 and solver.scale == 1
    assert solver.family_blocks() == projected_family(kernel, solver)
    assert distance(kernel, "a", kernel, "d").value == 0
    # the union's scale is 6 and its quotient's 3
    third = Kernel(["a", "b"], {("a", "b"): "1/3"})
    assert distance(kernel, "a", third, "a").value == Q(2, 3)
    assert holds(third, "a", kernel, "a", Q(2, 3))
    assert not holds(third, "a", kernel, "a", Q(2, 3) - Q(1, 1000))


def test_quotient_coerces_each_distinct_rate_once(monkeypatch):
    from cml_kit import kernel as kernel_module
    from cml_kit.rational import ensure_rate

    kernel = gen_kernel(KernelGenConfig(12, density=Q(1, 2), seed=5))
    calls = []

    def counting_ensure_rate(value):
        calls.append(value)
        return ensure_rate(value)

    monkeypatch.setattr(kernel_module, "ensure_rate", counting_ensure_rate)
    solver = OrderSolver(kernel)
    items = solver.quotient.rate_items()
    assert len(calls) == len({r for _, _, r in items}) < len(items)


def test_epsilon_order_is_a_value(fig1):
    # an e-order is the frozenset of its state pairs: equal orders compare
    # and hash equal, membership is pair membership, and it cannot be changed
    order = OrderSolver(fig1).order(Q(1), essential=False)
    same = OrderSolver(fig1).order(Q(1))
    assert isinstance(order, frozenset)
    assert order == same and hash(order) == hash(same)
    assert all((s, s) in order for s in fig1.states)
    assert ("a", "ghost") not in order
    with pytest.raises(AttributeError):
        order.add(("a", "a"))
