import contextlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cml_kit import Kernel, L, Top, eval_formula, parse, print_formula
from cml_kit.formula import And, Fragment, Or
from cml_kit.errors import SearchBudgetExceeded
from cml_kit.harness import oracles
from cml_kit.harness.enumerate import enumerate_formulas
from cml_kit.harness.mutations import REGISTRY, catching_suite, mutated
from cml_kit.harness.generate import KernelGenConfig, corpus, gen_kernel
from cml_kit.harness.shrink import formula_reductions, shrink
from cml_kit.harness.oracles import (
    _literal_pairs,
    pair_mask,
    saturate_pairs,
    transfer_essential,
    transfer_plain,
)
from cml_kit.harness import suites
from cml_kit.harness.suites import FAILURE_CAP, SUITES, run_suite, small_budget
from conftest import (
    at_least_literal_pairs,
    dedup_enumeration,
    in_fragment,
    pairwise_saturation,
    per_formula_suite,
)

Q = Fraction

GREEN_SUITES = [name for name in SUITES if name != "generalization"]


def test_enumeration_depth_zero():
    assert enumerate_formulas(0, (Q(1),), Fragment.FULL, 10_000) == ((Top(),), False)


def test_enumeration_depth_one_positive():
    formulas, _ = enumerate_formulas(1, (Q(1),), Fragment.POSITIVE, 10_000)
    assert formulas == (
        Top(),
        L(1, Top()),
        And(Top(), Top()),
        Or(Top(), Top()),
    )


def test_enumeration_sound():
    formulas, _ = enumerate_formulas(2, (Q(0), Q(3, 2)), Fragment.POSITIVE, 500)
    seen = set()
    for f in formulas:
        assert f not in seen
        seen.add(f)
        assert in_fragment(f, Fragment.POSITIVE)
        assert parse(print_formula(f)) == f


def test_enumeration_cap_sets_flag():
    formulas, truncated = enumerate_formulas(3, (Q(1), Q(2)), Fragment.FULL, 50)
    assert truncated and len(formulas) == 50


@pytest.mark.parametrize("fragment", list(Fragment))
@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("max_count", [40, 10_000])
def test_enumeration_grid_spellings(depth, fragment, max_count):
    # a rate repeated in other spellings adds no formula: the grid is coerced
    # and deduplicated before any candidate is built
    spelled = (1, Q(2, 2), "1", Q(1, 2), "1/2")
    assert enumerate_formulas(depth, spelled, fragment, max_count) == enumerate_formulas(
        depth, (Q(1), Q(1, 2)), fragment, max_count
    )


# grids of up to four rates from a small pool, repeats and other spellings
# of one rate included
enumeration_inputs = st.tuples(
    st.sampled_from(range(4)),
    st.lists(st.sampled_from([0, Q(1, 2), "1/2", 1, Q(2, 2), "3/2"]), max_size=4).map(tuple),
    st.sampled_from(Fragment),
    st.integers(0, 3000),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(enumeration_inputs)
@example((3, (1, "1", Q(1, 2), "3/2"), Fragment.POSITIVE, 3000))
def test_enumeration_matches_the_dedup_loop(args):
    assert enumerate_formulas(*args) == dedup_enumeration(*args)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(enumeration_inputs)
@example((3, (1, "1", Q(1, 2), "3/2"), Fragment.POSITIVE, 3000))
def test_enumerated_formulas_are_distinct(args):
    formulas, _ = enumerate_formulas(*args)
    assert formulas[0] == Top()
    assert len(set(formulas)) == len(formulas)


def test_gen_kernel_deterministic():
    cfg = KernelGenConfig(max_states=6, rate_pool=(Q(0), Q(1), Q(2), Q(3), Q(4)),
                          density=Q(1, 2), seed=99)
    a, b = gen_kernel(cfg), gen_kernel(cfg)
    assert a == b
    assert len(a.states) == 6
    pool = {Q(0), Q(1), Q(2), Q(3), Q(4)}
    assert all(r in pool for (_, _, r) in a.rate_items())


def test_gen_kernel_zero_density():
    cfg = KernelGenConfig(max_states=4, density=Q(0), seed=1)
    assert gen_kernel(cfg).rate_items() == []


def test_unknown_suite():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("name", GREEN_SUITES)
def test_suite_green(name):
    report = run_suite(name, small_budget())
    assert report.checked > 0
    assert report.ok, [f.description for f in report.failures[:3]]


def test_generalization_suite_documents_known_incompleteness():
    # the sound direction holds; the converse fails by design of the encoding
    report = run_suite("generalization", small_budget())
    assert not any("escapes the essential order" in f.description
                   for f in report.failures)
    assert report.notes["incomplete"] > 0
    assert len(report.failures) == report.notes["incomplete"] or len(
        report.failures
    ) == 25  # failure list is capped


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_mutation_detected(name):
    suite = catching_suite(name)
    with mutated(name):
        report = run_suite(suite, small_budget())
    assert not report.ok, f"mutation {name} went undetected by {suite}"


def test_mutation_restores_original():
    import cml_kit.semantics as semantics

    original = semantics._modal_holds
    with mutated("eval-drop-epsilon"):
        assert semantics._modal_holds is not original
    assert semantics._modal_holds is original


def test_full_child_step_goes_through_the_modal_seam(fig1):
    # L{7} T reads the exit totals (m's is 6); only the slack 1 lets m in
    f, e = L(7, Top()), Q(1)
    assert eval_formula(fig1, f, e) == {"m"}
    with mutated("eval-drop-epsilon"):
        assert eval_formula(fig1, f, e) == set()


def test_pair_saturation_cap_raises_budget_error(monkeypatch):
    kernel = gen_kernel(KernelGenConfig(max_states=3, density=Q(1), seed=4))
    monkeypatch.setattr(oracles, "PAIR_CAP", 3)
    with pytest.raises(SearchBudgetExceeded, match="pair saturation exceeded 3 pairs"):
        saturate_pairs(kernel, Q(1, 10), negated_literals=True)


def test_c2_reports_an_exception_inside_its_check():
    # under this mutation encode_down builds a negative index and raises
    clean = run_suite("c2", small_budget())
    with mutated("encode-down-no-truncation"):
        report = run_suite("c2", small_budget())
    assert report.checked == clean.checked
    assert len(report.failures) == FAILURE_CAP
    assert report.failures[0].description == (
        "exception at e=1/10: negative rate Fraction(-1, 10)"
    )


def test_pseudometric_catches_a_distance_one_grid_step_high(monkeypatch):
    block_distances = suites._block_distances

    def one_step_high(solver):
        step = Q(1, solver.scale)
        return {p: d + step if d else d for p, d in block_distances(solver).items()}

    monkeypatch.setattr(suites, "_block_distances", one_step_high)
    report = run_suite("pseudometric", small_budget())
    assert report.failures
    assert all("distance not attained" in f.description for f in report.failures)


def test_pair_saturation_is_closed():
    for kernel in corpus(8, 4, seed=3):
        for e in (Q(0), Q(1, 10)):
            for negated in (False, True):
                pairs = saturate_pairs(kernel, e, negated_literals=negated)
                for a in pairs:
                    for lit in _literal_pairs(kernel, a, e, negated):
                        assert lit in pairs
                    for b in pairs:
                        assert a | b in pairs
                        assert a & b in pairs


SATURATION_KERNELS = corpus(8, 4, seed=3) + [
    kernel for kernel in corpus(40, 5, seed=3) if len(kernel.states) <= 5
]


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("e", [Q(0), Q(1, 10), Q(1, 3), Q(1)], ids=str)
def test_pair_saturation_matches_the_pairwise_worklist(e, negated):
    for kernel in SATURATION_KERNELS:
        assert saturate_pairs(kernel, e, negated) == pairwise_saturation(kernel, e, negated)


def test_literal_pairs_match_the_per_rate_scan():
    checked = 0
    for kernel in SATURATION_KERNELS[:16]:
        for e in (Q(0), Q(1, 3), Q(5, 2)):
            for negated in (False, True):
                for pair in sorted(saturate_pairs(kernel, e, negated))[:40]:
                    expected = at_least_literal_pairs(kernel, pair, e, negated)
                    assert set(_literal_pairs(kernel, pair, e, negated)) == set(expected)
                    checked += 1
    assert checked > 500


def test_pair_saturation_cap_stops_the_ring_as_it_grows(monkeypatch):
    # a 5-state kernel (10 points) whose essential ring at 1/10 holds all
    # 2^10 pairs; the enumeration raises at the first set past the cap
    kernel = corpus(40, 5, seed=3)[9]
    assert len(kernel.states) == 5
    assert len(saturate_pairs(kernel, Q(1, 10), negated_literals=True)) == 1 << 10
    monkeypatch.setattr(oracles, "PAIR_CAP", 100)
    with pytest.raises(SearchBudgetExceeded, match="pair saturation exceeded 100 pairs") as info:
        saturate_pairs(kernel, Q(1, 10), negated_literals=True)
    # the ring that raised holds the one set past the cap, not all 2^10
    assert info.traceback[-1].name == "grow"
    assert len(info.traceback[-1].locals["ring"]) == 101


def test_pair_mask_puts_the_transferred_side_above_the_states():
    kernel = Kernel(["a", "b", "c"])
    assert pair_mask(kernel, 0b001, 0b110) == 0b110_001
    assert pair_mask(kernel, 0, 0) == 0


def test_transfer_plain_exact_boundary():
    # m ->1/3 t and n ->4/7 t, so D = 21: every positive formula true at n holds
    # at m at slack e exactly when 1/3 + e >= 4/7, that is e >= 5/21
    kernel = Kernel(["m", "n", "t"], {("m", "t"): Q(1, 3), ("n", "t"): Q(4, 7)})
    assert kernel.scale == 21
    # 1/4 and 1/13 have denominators that do not divide D
    for e, expected in [
        (Q(5, 21), True),
        (Q(1, 4), True),
        (Q(5, 21) - Q(1, 1000), False),
        (Q(1, 13), False),
    ]:
        verdicts, _ = transfer_plain(kernel, e)
        assert verdicts[("m", "n")] is expected, e
        assert verdicts[("n", "m")]


@pytest.mark.parametrize("negated", [False, True])
def test_pair_saturation_on_the_empty_kernel(negated):
    kernel = Kernel([])
    pairs = saturate_pairs(kernel, Q(1, 10), negated_literals=negated)
    assert pairs == {pair_mask(kernel, 0, 0)}
    transfer = transfer_essential if negated else transfer_plain
    assert transfer(kernel, Q(1, 10)) == ({}, pairs)


def test_shrink_keeps_failure():
    # fake property: fails whenever state "s0" can reach anything at rate >= 2
    kernel = Kernel(
        ["s0", "s1", "s2"],
        {("s0", "s1"): 3, ("s1", "s2"): 1, ("s2", "s0"): 2},
    )
    formula = parse("L{2} T & L{1} (T | T)")

    def fails(k, f):
        return any(r >= 2 for (_, _, r) in k.rate_items()) and f is not None

    small_kernel, small_formula = shrink(kernel, formula, fails)
    assert fails(small_kernel, small_formula)
    assert len(small_kernel.states) <= len(kernel.states)
    assert len(small_kernel.rate_items()) == 1
    assert small_formula == Top()


def test_shrink_stops_at_a_round_that_keeps_no_smaller_candidate():
    # formula_reductions of T & L{1} T yields the formula itself (its T subtree
    # replaced by T); shrink must not keep it as a reduction and go round again
    kernel = Kernel(["s0", "s1"], {("s0", "s1"): 1})
    formula = parse("T & L{1} T")
    calls = 0

    def fails(k, f):
        nonlocal calls
        calls += 1
        return f == formula

    assert formula in formula_reductions(formula)
    assert shrink(kernel, formula, fails) == (Kernel(["s1"], {}), formula)
    assert calls <= 10


def test_formula_reductions_promote_then_replace_subtrees_in_pre_order():
    # the root's children keep their sugar; each node on the way to a replaced
    # subtree is rebuilt, so the | and -> above it print as the negations
    # they expand to
    f = parse("(L{1} T | T) & (T -> L{1/2} T)")
    expected = [
        "L{1} T | T",
        "T -> L{1/2} T",
        "T & (T -> L{1/2} T)",
        "!T & (T -> L{1/2} T)",
        "!(T & !T) & (T -> L{1/2} T)",
        "!(!T & !T) & (T -> L{1/2} T)",
        "!(!L{1} T & !T) & (T -> L{1/2} T)",
        "!(!L{1} T & T) & (T -> L{1/2} T)",
        "!(!L{1} T & !T) & (T -> L{1/2} T)",
        "(L{1} T | T) & T",
        "(L{1} T | T) & !T",
        "(L{1} T | T) & !(T & !L{1/2} T)",
        "(L{1} T | T) & !(T & T)",
        "(L{1} T | T) & !(T & !T)",
        "(L{1} T | T) & !(T & !L{1/2} T)",
    ]
    reductions = list(formula_reductions(f))
    assert [print_formula(g) for g in reductions] == expected
    assert reductions == [parse(text) for text in expected]


@pytest.mark.parametrize("mutation", [None, *sorted(REGISTRY)])
@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("name", ["t2", "c2", "l1-positive-monotonicity", "l2-limit"])
def test_formula_suite_matches_the_per_formula_driver(name, seed, mutation):
    # one walk per formula list and slack reports what one check per formula
    # and slack reports: the same failures in the same order, exceptions and
    # shrunk counterexamples included
    with mutated(mutation) if mutation else contextlib.nullcontext():
        docs = [run_suite(name, small_budget(seed)).to_doc(),
                per_formula_suite(name, small_budget(seed)).to_doc()]
    for doc in docs:
        del doc["elapsed_s"]
    assert docs[0] == docs[1]
