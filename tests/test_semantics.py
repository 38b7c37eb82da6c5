import contextlib
import itertools
import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from cml_kit import (
    And,
    Evaluator,
    Kernel,
    KernelError,
    L,
    Not,
    SearchBudgetExceeded,
    Top,
    axiom_instance,
    bisimulation,
    default_rate_grid,
    encode_down,
    encode_up,
    eval_formula,
    parse,
    sat,
    search_model,
    valid_on,
)
from cml_kit import semantics
from cml_kit.harness.enumerate import enumerate_formulas
from cml_kit.harness.mutations import mutated
from cml_kit.formula import Fragment, modal_indices
from cml_kit.kernel import disjoint_union
from conftest import two_walk_stability_margin

Q = Fraction
S = frozenset


def test_example_root_satisfies_nested_modalities(fig1):
    # the root clears both thresholds exactly at slack 0
    assert sat(fig1, "m", parse("L{5} L{4} T"), 0)
    assert eval_formula(fig1, parse("L{5} L{4} T"), 0) == S({"m"})


def test_example_shifted_thresholds_need_the_slack(fig1, eps):
    f = L(5 + eps, L(4 + eps, Top()))
    assert sat(fig1, "m", f, eps)
    assert not sat(fig1, "m", f, 0)


def test_zero_threshold_is_universal(fig1):
    assert eval_formula(fig1, L(0, Top()), 0) == fig1.state_set


def test_single_state_negated_threshold():
    k = Kernel(["m"], {("m", "m"): 3})
    for delta in (Q(1, 100), Q(1, 10), Q(2)):
        assert sat(k, "m", Not(L(3 + delta, Top())), 0)
    # with slack at least delta the negation flips
    assert not sat(k, "m", Not(L(3 + Q(1, 10), Top())), Q(1, 10))
    assert not sat(k, "m", Not(L(3 + Q(1, 10), Top())), Q(1, 2))
    assert sat(k, "m", Top(), Q(1, 7))


def test_sat_unknown_state(fig1):
    with pytest.raises(KernelError, match="unknown state"):
        sat(fig1, "zz", Top(), 0)
    # the empty kernel's extensions are all the empty mask
    with pytest.raises(KernelError, match="unknown state 's0'"):
        sat(Kernel([]), "s0", Not(Top()), 0)


def test_validities(fig1):
    assert valid_on(fig1, Top(), Q(1, 3))
    for e in (Q(0), Q(1, 10), Q(2)):
        assert valid_on(fig1, L(e, Top()), e)
    for r, s in ((Q(1), Q(2)), (Q(0), Q(5)), (Q(3, 2), Q(1, 2))):
        assert valid_on(fig1, axiom_instance("A2", 0, Top(), None, r, s), 0)


def test_boolean_coherence(fig1):
    ev = Evaluator(fig1)
    for e in (Q(0), Q(1, 10), Q(1)):
        for f in (parse("L{4} T"), parse("L{5} L{4} T & !L{1} T")):
            assert ev.extension(Not(f), e) == fig1.state_set - ev.extension(f, e)


def test_stability_margin(fig1):
    ev = Evaluator(fig1)
    f = parse("L{5} L{4} T")
    margin = ev.stability_margin(f, 0)
    assert margin is not None and margin > 0
    assert ev.extension(f, margin / 2) == ev.extension(f, 0)
    # at the margin itself some comparison flips
    assert ev.extension(f, margin) != ev.extension(f, 0)


def test_monotone_in_slack_for_positive(fig1):
    formulas, _ = enumerate_formulas(2, (Q(1), Q(4), Q(5)), Fragment.POSITIVE, 200)
    ev = Evaluator(fig1)
    for f in formulas:
        assert ev.extension(f, 0) <= ev.extension(f, Q(1, 10)) <= ev.extension(f, 1)
        neg = Not(f)
        assert ev.extension(neg, 1) <= ev.extension(neg, Q(1, 10)) <= ev.extension(neg, 0)


def test_transfer_on_sample(fig1):
    ev = Evaluator(fig1)
    e, e2 = Q(1, 10), Q(1, 2)
    for text in ("L{5} L{4} T", "!(L{4} T & !L{1} T)", "L{1/2} T | !L{6} T"):
        f = parse(text)
        assert ev.extension(f, e + e2) == ev.extension(encode_down(f, e2), e)
        assert ev.extension(f, e) == ev.extension(encode_up(f, e2), e + e2)
        assert ev.extension(f, e) == ev.extension(encode_down(f, e), 0)


def test_default_rate_grid():
    f = parse("L{1} T & L{2} T")
    grid = default_rate_grid(f, Q(1, 2))
    assert Q(0) in grid and Q(1) in grid and Q(2) in grid
    # closed under sums up to max index plus slack
    assert Q(2) + Q(0) in grid
    assert all(x <= Q(5, 2) for x in grid)


def test_default_rate_grid_stops_past_its_cap(monkeypatch):
    # 1/7 and 1/5 close under sums up to 1 at 16 rates
    f = parse("L{1/7} L{1/5} L{1} T")
    monkeypatch.setattr(semantics, "GRID_CAP", 16)
    assert len(default_rate_grid(f, 0)) == 16
    monkeypatch.setattr(semantics, "GRID_CAP", 15)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 15 rates"):
        default_rate_grid(f, 0)


def test_search_finds_single_state_witness():
    found = search_model(L(2, Top()), 0, 1, [Q(0), Q(2)])
    assert found is not None
    kernel, witness = found
    assert kernel.rate_items() == [(witness, witness, 2)]


def test_search_uses_slack():
    found = search_model(L(3, Top()), 1, 1, [Q(0), Q(2)])
    assert found is not None
    kernel, witness = found
    assert kernel.rate_items() == [(witness, witness, 2)]


def test_search_bot_finds_nothing():
    for bound in (1, 2):
        assert search_model(parse("F"), Q(1, 2), bound, [Q(0), Q(1)]) is None


def test_search_budget_reported_distinctly():
    with pytest.raises(SearchBudgetExceeded):
        search_model(parse("F"), 0, 3, [Q(0), Q(1), Q(2)], max_candidates=10)


def test_search_default_grid():
    found = search_model(parse("L{2} T"), 0, 1)
    assert found is not None


def test_search_stops_at_its_state_cap(monkeypatch):
    monkeypatch.setattr(semantics, "STATES_CAP", 3)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 3 states"):
        search_model(parse("F"), 0, 4, [Q(0)])
    assert search_model(parse("F"), 0, 3, [Q(0)]) is None
    # the cap is met only by a search that reaches it
    kernel, witness = search_model(parse("L{1} T"), 0, 100, [Q(0), Q(1)])
    assert kernel.states == ("s0",) and witness == "s0"


def _reference_search(f, e, max_states, grid, max_candidates):
    """Witness search over every assignment of grid rates, relabelings included:
    a test oracle for search_model, which skips the relabelings."""
    tried = 0
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        slots = [(s, t) for s in states for t in states]
        for assignment in itertools.product(grid, repeat=len(slots)):
            tried += 1
            if tried > max_candidates:
                raise SearchBudgetExceeded(
                    f"search_model exhausted its budget of {max_candidates} kernels"
                )
            kernel = Kernel(states, dict(zip(slots, assignment)))
            extension = eval_formula(kernel, f, e)
            for s in states:
                if s in extension:
                    return kernel, s
    return None


def _outcome(search, *args):
    try:
        return search(*args)
    except SearchBudgetExceeded:
        return SearchBudgetExceeded


_SEARCH_RATES = [Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(3)]
_search_formulas = st.recursive(
    st.just(Top()),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(L, st.sampled_from(_SEARCH_RATES), kids),
    ),
    max_leaves=6,
).filter(lambda f: 1 <= len(modal_indices(f)) <= 3)


@settings(max_examples=120, deadline=None)
@given(
    _search_formulas,
    st.sampled_from([Q(0), Q(1, 10), Q(1, 2)]),
    st.integers(1, 3),
    st.lists(st.sampled_from(_SEARCH_RATES), min_size=2, max_size=4, unique=True).map(
        sorted
    ),
    st.integers(1, 600),
)
# first witnesses at 3 states: every state satisfies, two do, and only s2 does
@example(parse("L{3/2} L{3/2} T"), Q(1, 10), 3, [Q(0), Q(1, 2)], 600)
@example(parse("L{2} L{3} L{1} T"), Q(0), 3, [Q(0), Q(1)], 600)
@example(parse("L{3} !L{3} T"), Q(1, 10), 3, [Q(0), Q(3, 2)], 600)
# the witness 1/2 shares a batch with 1/3: the batch kernel's scale is 6, which
# no candidate's own kernel has
@example(parse("L{1/2} T"), Q(1, 10), 1, [Q(0), Q(1, 4), Q(1, 3), Q(1, 2)], 600)
# the witness is the 15th enumerated assignment (the 11th of its 2-state run)
# and the 7th candidate of a batch that holds up to 8: a cut right after it
# evaluates the pending batch and finds it, a cut right before it finds nothing
# and raises
@example(parse("L{2} T & !L{3} T & L{1} !L{1} T"), Q(0), 2, [Q(0), Q(1, 2), Q(1), Q(2)], 15)
@example(parse("L{2} T & !L{3} T & L{1} !L{1} T"), Q(0), 2, [Q(0), Q(1, 2), Q(1), Q(2)], 14)
# no rates: no assignment at any size
@example(parse("T"), Q(0), 2, [], 600)
def test_search_matches_the_search_over_every_assignment(f, e, max_states, grid, budget):
    # budgets up to 600 cover 2 states on 4 rates (260 assignments) and 3 states
    # on 2 rates (530); the larger spaces end in SearchBudgetExceeded on both sides
    args = (f, e, max_states, grid, budget)
    assert _outcome(search_model, *args) == _outcome(_reference_search, *args)


def _built_kernels(monkeypatch):
    # every kernel the search builds through semantics.Kernel, in order
    built = []

    def counted(states, rates):
        kernel = Kernel(states, rates)
        built.append(kernel)
        return kernel

    monkeypatch.setattr(semantics, "Kernel", counted)
    return built


def test_search_evaluates_one_candidate_per_relabeling_class(monkeypatch):
    built = _built_kernels(monkeypatch)

    def candidates(grid, top):
        # candidates of each size: a batch holds its candidates side by side
        # and never mixes sizes, so the states handed to Kernel by a search up
        # to n states, less those up to n - 1, are n per candidate of size n
        states, kernels = [0], 0
        for max_states in range(1, top + 1):
            built.clear()
            assert search_model(parse("F"), 0, max_states, grid) is None
            states.append(sum(len(k.states) for k in built))
            kernels = len(built)
        per_size = {n: (states[n] - states[n - 1]) / n for n in range(1, top + 1)}
        return per_size, kernels

    # 4^4 = 256 assignments of 2 states: the 16 fixed by the swap and half of the rest
    per_size, kernels = candidates([Q(0), Q(1), Q(2), Q(3)], 2)
    assert per_size == {1: 4, 2: 136}
    assert kernels == 21 < 140
    # Burnside over the 6 permutations of 3 states: (3^9 + 3 * 3^5 + 2 * 3^3) / 6
    per_size, kernels = candidates([Q(0), Q(1), Q(2)], 3)
    assert per_size == {1: 3, 2: 45, 3: 3411}
    assert kernels == 320 < 3459


def test_search_batch_never_exceeds_a_run_or_the_states_cap(monkeypatch):
    # a batch ends where its run ends, at most n * g**n states on g rates, or
    # before it would pass STATES_CAP states, however many rates the grid holds
    built = _built_kernels(monkeypatch)
    cases = (
        (3, [Q(0), Q(1)], 21),
        (2, [Q(0), Q(1), Q(2), Q(3)], 30),
        (2, [Q(i, 7) for i in range(200)], semantics.STATES_CAP),
        (3, [Q(0), Q(1), Q(2)], 63),
    )
    for n, grid, largest in cases:
        built.clear()
        try:
            assert search_model(parse("F"), 0, n, grid, max_candidates=5_000) is None
        except SearchBudgetExceeded:
            pass  # the larger spaces run out of budget first
        assert max(len(k.states) for k in built) == largest
        assert largest <= min(n * len(grid) ** n, semantics.STATES_CAP)


def test_search_tiny_example_builds_each_candidate_once(monkeypatch):
    # the docs example: batches of one are each candidate's own kernel, and
    # the witness is the second one, returned as built
    built = _built_kernels(monkeypatch)
    kernel, witness = search_model(parse("L{3} T"), 1, 1, [Q(0), Q(2)])
    assert [k.states for k in built] == [("s0",), ("s0",)]
    assert kernel is built[1] and witness == "s0"
    assert kernel.rate_items() == [("s0", "s0", 2)]


def test_search_budget_counts_the_skipped_assignments():
    grid = [Q(0), Q(1), Q(2), Q(3)]
    assert search_model(parse("F"), 0, 2, grid, max_candidates=260) is None
    with pytest.raises(SearchBudgetExceeded, match="budget of 259 kernels"):
        search_model(parse("F"), 0, 2, grid, max_candidates=259)


def test_evaluator_cache_consistency(fig1):
    # asking twice answers from the evaluator's table what a fresh walk gives
    ev = Evaluator(fig1)
    f = parse("L{5} L{4} T")
    for e in (Q(1, 10), Q(0)):
        first = ev.extension(f, e)
        assert ev.extension(f, e) == first
        assert eval_formula(fig1, f, e) == first


def test_integer_scaling_keeps_the_exact_boundary():
    # rates with denominators 3 and 7 scale by D = 21; state a falls short of
    # 4/7 by 4/7 - 1/3 = 5/21, and just below that slack e * D is no integer
    k = Kernel(["a", "b", "x"], {("a", "x"): Q(1, 3), ("b", "x"): Q(4, 7)})
    assert k.scale == 21
    f = L(Q(4, 7), Top())
    e = Q(5, 21)
    below = e - Q(1, 1000)
    assert (below * 21).denominator != 1
    ev = Evaluator(k)
    assert ev.extension(f, e) == S({"a", "b"})
    assert ev.extension(f, below) == S({"b"})
    assert ev.stability_margin(f, 0) == e
    assert ev.stability_margin(f, below) == Q(1, 1000)


_RATES = [Q(0), Q(1, 3), Q(1, 2), Q(2, 3), Q(5, 6), Q(4, 7), Q(1), Q(9, 7)]


@st.composite
def _kernels(draw):
    states = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    rates = {(s, t): draw(st.sampled_from(_RATES)) for s in states for t in states}
    return Kernel(states, rates)


_formulas = st.recursive(
    st.just(Top()),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        # 11 divides no scale of a kernel over _RATES: r scales by its own denominator
        st.builds(L, st.sampled_from(_RATES + [Q(3, 2), Q(2), Q(5, 11)]), kids),
    ),
    max_leaves=8,
)


def _rate_table(k):
    # theta(s, t) of every nonzero entry
    return {(s, t): r for s, t, r in k.rate_items()}


def _fraction_extension(k, f, e):
    if isinstance(f, Top):
        return k.state_set
    if isinstance(f, Not):
        return k.state_set - _fraction_extension(k, f.child, e)
    if isinstance(f, And):
        return _fraction_extension(k, f.left, e) & _fraction_extension(k, f.right, e)
    child = _fraction_extension(k, f.child, e)
    rate = _rate_table(k)
    return S(m for m in k.states if sum(rate.get((m, t), 0) for t in child) + e >= f.rate)


def _fraction_bisimulation(k):
    rate = _rate_table(k)
    blocks = {k.state_set}
    while True:
        refined = set()
        for block in blocks:
            groups = {}
            for m in block:
                key = tuple(
                    sum(rate.get((m, t), 0) for t in other)
                    for other in sorted(blocks, key=sorted)
                )
                groups.setdefault(key, set()).add(m)
            refined |= {S(group) for group in groups.values()}
        if refined == blocks:
            return blocks
        blocks = refined


@settings(max_examples=150, deadline=None)
@given(_kernels(), st.lists(_formulas, min_size=1, max_size=4),
       st.sampled_from([Q(0), Q(1, 21), Q(1, 10), Q(2, 7), Q(1, 2), Q(1, 13)]))
def test_integer_core_matches_fraction_definitions(k, formulas, e):
    ev = Evaluator(k)
    for f in formulas:
        assert ev.extension(f, e) == _fraction_extension(k, f, e)
        assert ev.mask(f, e) == k.mask_of(ev.extension(f, e))
    assert set(bisimulation(k).blocks) == _fraction_bisimulation(k)


_SLACKS = [Q(0), Q(1, 21), Q(1, 10), Q(2, 7), Q(1, 2), Q(1, 13), Q(1, 33), Q(5, 21), Q(3)]
# the kernel of test_integer_scaling_keeps_the_exact_boundary
_BOUNDARY = Kernel(["a", "b", "x"], {("a", "x"): Q(1, 3), ("b", "x"): Q(4, 7)})


@settings(max_examples=150, deadline=None)
@given(_kernels(), _formulas, st.sampled_from(_SLACKS))
@example(_BOUNDARY, L(Q(4, 7), Top()), Q(0))
@example(_BOUNDARY, L(Q(4, 7), Top()), Q(5, 21) - Q(1, 1000))
@example(_BOUNDARY, L(Q(4, 7), Top()), Q(5, 21))
@example(_BOUNDARY, Top(), Q(0))
@example(_BOUNDARY, Not(L(Q(0), Top())), Q(1, 10))
def test_stability_margin_matches_the_two_walk_oracle(k, f, e):
    margin = Evaluator(k).stability_margin(f, e)
    assert margin == two_walk_stability_margin(k, f, e)
    assert margin is None or margin > 0


@st.composite
def _shared_formulas(draw):
    # formulas built from the ones before them, as enumerate_formulas builds
    # them, so the later ones share subtrees with the earlier ones
    pool = [Top()]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from((L, Not, And)))
        if kind is L:
            pool.append(L(draw(st.sampled_from(_RATES)), draw(st.sampled_from(pool))))
        elif kind is Not:
            pool.append(Not(draw(st.sampled_from(pool))))
        else:
            pool.append(And(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return pool


_formula_lists = st.one_of(
    _shared_formulas(),
    st.builds(
        lambda grid, fragment: enumerate_formulas(2, tuple(grid), fragment, 60)[0],
        st.lists(st.sampled_from(_RATES), min_size=1, max_size=3, unique=True),
        st.sampled_from(list(Fragment)),
    ),
)


@settings(max_examples=100, deadline=None)
@given(_kernels(), st.lists(_formula_lists, min_size=1, max_size=3), st.data())
def test_evaluator_tables_give_a_fresh_evaluators_masks(k, lists, data):
    # one evaluator asked about several formula lists at interleaved slacks,
    # and about fresh L nodes over the listed formulas
    ev = Evaluator(k)
    for _ in range(data.draw(st.integers(1, 40))):
        f = data.draw(st.sampled_from(data.draw(st.sampled_from(lists))))
        if data.draw(st.booleans()):
            f = L(data.draw(st.sampled_from(_RATES)), f)
        e = data.draw(st.sampled_from(_SLACKS))
        assert ev.mask(f, e) == Evaluator(k).mask(f, e)


def test_a_table_entry_keeps_its_node_alive(fig1):
    # each L node below is dropped after its call but stays in the
    # evaluator's table, so no later node takes its id and is answered with
    # its mask
    ev = Evaluator(fig1)
    masks = [ev.mask(L(r, Top()), 0) for r in range(8)]
    assert masks == [Evaluator(fig1).mask(L(r, Top()), 0) for r in range(8)]
    assert len(set(masks)) > 2


def _fresh_copy(f):
    # an equal formula that shares no node with f but Top
    if isinstance(f, L):
        return L(f.rate, _fresh_copy(f.child))
    if isinstance(f, Not):
        return Not(_fresh_copy(f.child), sugar=f.sugar)
    if isinstance(f, And):
        return And(_fresh_copy(f.left), _fresh_copy(f.right))
    return f


def test_an_equal_l_node_is_answered_from_the_table(fig1, monkeypatch):
    # a second L node with the rate and child extension of one already
    # evaluated at this slack makes no modal comparison
    ev = Evaluator(fig1)
    first = parse("L{5} L{4} T")
    want = ev.mask(first, Q(1, 10))
    compared = []
    monkeypatch.setattr(semantics, "_modal_holds", lambda *args: compared.append(args))
    assert ev.mask(_fresh_copy(first), Q(1, 10)) == want
    assert compared == []


@settings(max_examples=100, deadline=None)
@given(_kernels(), _shared_formulas(), st.sampled_from(_SLACKS))
def test_stability_margin_over_equal_subtrees_matches_the_two_walk_oracle(k, formulas, e):
    # within one margin walk the copy's L nodes are answered from its table
    ev = Evaluator(k)
    for f in formulas:
        g = And(f, _fresh_copy(f))
        assert ev.stability_margin(g, e) == two_walk_stability_margin(k, g, e)


@settings(max_examples=100, deadline=None)
@given(_kernels(), _shared_formulas(), st.sampled_from(_SLACKS))
def test_stability_margin_after_mask_matches_the_two_walk_oracle(k, formulas, e):
    # mask enters every L node in the evaluator's table first; the margin
    # still sees the deficit of each of them
    ev = Evaluator(k)
    for f in formulas:
        ev.mask(f, e)
    for f in formulas:
        assert ev.stability_margin(f, e) == two_walk_stability_margin(k, f, e)


@st.composite
def _kernels_over(draw, d):
    # rates i/d, so a kernel with a nonzero rate off the integers has scale d
    states = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    rate = st.integers(0, 2 * d).map(lambda i: Q(i, d))
    return Kernel(states, {(s, t): draw(rate) for s in states for t in states})


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([3, 7, 11]), min_size=2, max_size=4).flatmap(
           lambda ds: st.tuples(*map(_kernels_over, ds))),
       st.lists(_formulas, min_size=1, max_size=3),
       st.sampled_from(_SLACKS))
def test_union_mask_restricted_to_a_part_is_its_mask(parts, formulas, e):
    union = reduce(disjoint_union, parts)
    assert union.scale == math.lcm(*(k.scale for k in parts))
    for name in (None, "eval-drop-epsilon", "eval-strict-comparison"):
        with mutated(name) if name else contextlib.nullcontext():
            ev = Evaluator(union)
            for f in formulas:
                m = ev.mask(f, e)
                for k in parts:
                    assert m & k.full == Evaluator(k).mask(f, e)
                    m >>= len(k.states)
                assert not m


def _one_at_a_time(k, formulas, e):
    # each formula's mask on a fresh evaluator of its own
    return [Evaluator(k).mask(f, e) for f in formulas]


@settings(max_examples=100, deadline=None)
@given(_kernels(), _formula_lists, st.sampled_from(_SLACKS))
def test_masks_give_each_formulas_own_mask(k, formulas, e):
    want = _one_at_a_time(k, formulas, e)
    assert Evaluator(k).masks(formulas, e) == want
    # operands after the formulas that use them
    assert Evaluator(k).masks(formulas[::-1], e) == want[::-1]
    # each node twice, once right after itself and once a whole list later
    twice = [f for f in formulas for _ in range(2)]
    assert Evaluator(k).masks(twice * 2, e) == [m for m in want for _ in range(2)] * 2
    # fresh copies, each built only when the walk asks for it
    assert Evaluator(k).masks(map(_fresh_copy, formulas), e) == want


def test_masks_of_fresh_nodes_from_a_generator(fig1):
    # each And and Not below is dropped by the generator as soon as it is
    # yielded, and the evaluator's table keeps only the L nodes; a walk that
    # let them go would hand a later node an earlier node's id, and its mask
    rates = range(8)
    fresh = (g for r in rates for g in (Not(L(r, Top())), And(L(r, Top()), Top())))
    want = _one_at_a_time(fig1, [g for r in rates for g in (Not(L(r, Top())),
                                                         And(L(r, Top()), Top()))], 0)
    assert Evaluator(fig1).masks(fresh, 0) == want
    assert len(set(want)) > 2


@settings(max_examples=100, deadline=None)
@given(_kernels(), st.lists(_formula_lists, min_size=1, max_size=3), st.data())
def test_masks_at_interleaved_slacks_on_one_evaluator(k, lists, data):
    # one evaluator asked about whole lists at interleaved slacks; its tables
    # outlive each call, and each call's memo dies with it
    ev = Evaluator(k)
    for _ in range(data.draw(st.integers(1, 12))):
        formulas = data.draw(st.sampled_from(lists))
        e = data.draw(st.sampled_from(_SLACKS))
        assert ev.masks(formulas, e) == _one_at_a_time(k, formulas, e)


@settings(max_examples=100, deadline=None)
@given(_kernels(), _formula_lists, st.sampled_from(_SLACKS))
def test_margins_match_the_two_walk_oracle(k, formulas, e):
    ev = Evaluator(k)
    ev.masks(formulas, e)  # the evaluator's own table holds no deficit
    for reverse in (False, True):
        listed = formulas[::-1] if reverse else formulas
        assert ev.margins(listed, e) == [
            (Evaluator(k).mask(f, e), two_walk_stability_margin(k, f, e)) for f in listed
        ]


@pytest.mark.parametrize("mutation", ["eval-drop-epsilon", "eval-strict-comparison"])
@settings(max_examples=50, deadline=None)
@given(k=_kernels(), formulas=_formula_lists, e=st.sampled_from(_SLACKS))
def test_masks_follow_an_evaluator_mutation(mutation, k, formulas, e):
    with mutated(mutation):
        assert Evaluator(k).masks(formulas, e) == _one_at_a_time(k, formulas, e)
        assert [m for m, _ in Evaluator(k).margins(formulas, e)] == _one_at_a_time(
            k, formulas, e)
