import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cml_kit import Distance, Kernel, OrderSolver, bisimulation, disjoint_union, distance, holds
from cml_kit.harness.generate import KernelGenConfig, corpus, gen_kernel
from cml_kit.harness.suites import _block_distances
from cml_kit.kernel import left_tag, right_tag
from cml_kit.models import load_model

Q = Fraction

# the union of test_distance_attained_and_tight, whose scale D is 1001
GRID_LEFT = Kernel(
    ["a", "a1", "a2"],
    {("a", "a1"): Q(3, 7), ("a", "a2"): Q(5, 11), ("a1", "a2"): Q(2, 13)},
)
GRID_RIGHT = Kernel(["b", "b1"], {("b", "b1"): Q(6, 7), ("b1", "b1"): Q(1, 11)})
# the kernel of test_scan_recovers_from_missed_breakpoint
MISSED_BREAKPOINT = Kernel(
    ["s0", "s1", "s2", "s3"],
    {
        ("s0", "s1"): Q(1, 2),
        ("s1", "s2"): 1,
        ("s1", "s3"): 1,
        ("s2", "s3"): 2,
        ("s3", "s2"): 2,
        ("s3", "s3"): 3,
    },
)

generated_kernels = st.builds(
    lambda states, density, pool, seed: gen_kernel(
        KernelGenConfig(states, rate_pool=pool, density=density, seed=seed)
    ),
    st.integers(1, 5),
    st.sampled_from((Q(1, 4), Q(1, 2), Q(3, 4), Q(1))),
    st.sampled_from(((Q(0), Q(1), Q(2), Q(3), Q(1, 2)), (Q(1, 3), Q(2, 7), Q(3, 2), Q(5)))),
    st.integers(0, 1 << 16),
)


def bisection_distance(solver: OrderSolver, i: int, j: int, plain) -> Fraction:
    """The least k/D at which the block pairs (i, j) and (j, i) both hold, by
    bisection over the integers up to the largest scaled exit total, as an
    oracle; plain(k) is the solver's plain fixpoint at k/D."""

    def feasible(k: int) -> bool:
        pairs = plain(k)
        return (i, j) in pairs and (j, i) in pairs

    lo, hi = 0, max(solver.sums)
    assert feasible(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(hi, solver.scale)


def test_uniform_lift_distance(fig1, fig4o):
    # all five rates raised by 1/10; the root exit totals differ by 3/10
    d = distance(fig1, "m", fig4o, "o")
    assert d.value == Q(3, 10)
    assert d.attained_at == Q(3, 10)


def test_branch_merge_distance(fig1, fig4n):
    assert distance(fig1, "m", fig4n, "n").value == Q(1, 10)


def test_self_distance_zero(fig1):
    for s in fig1.states:
        assert distance(fig1, s, fig1, s).value == 0


def test_distance_attained_and_tight(fig1, fig4o):
    d = distance(fig1, "m", fig4o, "o")
    assert holds(fig1, "m", fig4o, "o", d.value)
    assert holds(fig4o, "o", fig1, "m", d.value)
    below = d.value - Q(1, 1000)
    assert not (
        holds(fig1, "m", fig4o, "o", below) and holds(fig4o, "o", fig1, "m", below)
    )
    # a union whose scale D (the least common multiple of the rate
    # denominators) is 1001: the answer sits on the grid k/D and no slack off
    # the grid below it works
    k1, k2 = GRID_LEFT, GRID_RIGHT
    scale = OrderSolver(disjoint_union(k1, k2)).scale
    assert scale >= 1000
    d = distance(k1, "a", k2, "b")
    assert d.value == d.attained_at == Q(1, 11)
    assert holds(k1, "a", k2, "b", d.value) and holds(k2, "b", k1, "a", d.value)
    below = d.value - Q(1, 1000 * scale)
    assert not (holds(k1, "a", k2, "b", below) and holds(k2, "b", k1, "a", below))


def test_pseudometric_axioms_on_generated_kernels():
    for kernel in corpus(6, 4, seed=21):
        states = kernel.states
        values = {}
        for m in states:
            for n in states:
                values[(m, n)] = distance(kernel, m, kernel, n).value
        for m in states:
            assert values[(m, m)] == 0
            for n in states:
                assert values[(m, n)] == values[(n, m)]
                for p in states:
                    assert values[(m, p)] <= values[(m, n)] + values[(n, p)]


def test_zero_distance_iff_bisimilar():
    for kernel in corpus(8, 5, seed=22):
        partition = bisimulation(disjoint_union(kernel, kernel))
        for i, m in enumerate(kernel.states):
            for n in kernel.states[i:]:
                zero = distance(kernel, m, kernel, n).value == 0
                assert zero == partition.same_block(left_tag(m), right_tag(n))


def test_deadlock_distance_is_exit_rate():
    quiet = Kernel(["a"], {})
    busy = Kernel(["b", "c"], {("b", "c"): 5})
    assert distance(quiet, "a", busy, "b").value == 5


def test_scan_recovers_from_missed_breakpoint():
    # regression: the answer 2 is compared as a slack neither in the run at 0
    # nor in the run at the largest exit total, so it must come from the
    # integer grid k/D, not from the slacks those runs compare
    k = MISSED_BREAKPOINT
    assert distance(k, "s0", k, "s2").value == 2
    assert holds(k, "s0", k, "s2", 2) and holds(k, "s2", k, "s0", 2)
    tight = Q(2) - Q(1, 1000)
    assert not (holds(k, "s0", k, "s2", tight) and holds(k, "s2", k, "s0", tight))


def test_one_descent_reads_every_distance():
    # the pseudometric suite reads every state pair's distance from one
    # descent of the kernel's own plain fixpoint; each equals the distance
    # that metric computes on the union of the kernel with itself
    figures = [load_model(name) for name in ("fig4m", "fig4n", "fig4o")]
    unions = [disjoint_union(a, b) for a in figures for b in figures]
    for kernel in [*corpus(40, 4, seed=7), *unions]:
        solver = OrderSolver(kernel)
        distances = _block_distances(solver)
        for m in kernel.states:
            for n in kernel.states:
                own = distances[solver.block_pair_of(m, n)]
                assert own == distance(kernel, m, kernel, n).value


@settings(max_examples=30, deadline=None, derandomize=True)
@given(generated_kernels, generated_kernels)
@example(GRID_LEFT, GRID_RIGHT)
@example(MISSED_BREAKPOINT, MISSED_BREAKPOINT)
def test_sweep_matches_bisection(k1, k2):
    solver = OrderSolver(disjoint_union(k1, k2))
    # the bisections of different pairs share their probes
    plain = functools.cache(lambda k: solver.plain_pairs(Fraction(k, solver.scale)))
    for m in k1.states:
        for n in k2.states:
            d = distance(k1, m, k2, n)
            i, j = solver.block_pair_of(left_tag(m), right_tag(n))
            assert d.value == d.attained_at == bisection_distance(solver, i, j, plain)


def test_distance_is_a_value():
    m, o = load_model("fig4m"), load_model("fig4o")
    d = distance(m, "m", o, "o")
    assert d == Distance(Q(3, 10), Q(3, 10)) and hash(d) == hash(Distance(Q(3, 10), Q(3, 10)))
    assert d == Distance(value=Q(3, 10), attained_at=Q(3, 10))
    assert d != Distance(Q(3, 10), Q(0))
    assert repr(d) == "Distance(value=Fraction(3, 10), attained_at=Fraction(3, 10))"
    with pytest.raises(AttributeError):
        d.value = Q(0)
