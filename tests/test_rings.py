import pytest
from hypothesis import given, settings, strategies as st

from cml_kit.errors import SearchBudgetExceeded
from cml_kit.rings import closure, upper_sets

POINTS = 8
masks = st.integers(0, (1 << POINTS) - 1)


@st.composite
def generated_rings(draw):
    """Seeds and a literal map: a member m's literals are the masks of one of
    a few drawn lists, picked by m."""
    seeds = draw(st.lists(masks, max_size=3))
    table = draw(st.lists(st.lists(masks, max_size=3), min_size=1, max_size=7))
    return seeds, lambda m: table[m % len(table)]


def brute_force(seeds, literals) -> set:
    # every set reachable from the seeds by literals, unions and intersections
    ring, todo = set(), list(seeds)
    while todo:
        a = todo.pop()
        if a not in ring:
            ring.add(a)
            todo += [a | b for b in ring] + [a & b for b in ring]
            todo += literals(a)
    return ring


@settings(max_examples=300, deadline=None)
@given(generated_rings())
def test_closure_is_the_brute_force_ring(case):
    seeds, literals = case
    assert set(closure(seeds, literals, 1 << POINTS, "cap")) == brute_force(seeds, literals)


@settings(max_examples=300, deadline=None)
@given(generated_rings())
def test_folding_the_record_gives_back_each_member(case):
    seeds, literals = case
    folded = {}
    for member, (how, a, b) in closure(seeds, literals, 1 << POINTS, "cap").items():
        if how == "literal" and a is None:
            assert member in seeds
            folded[member] = member
        elif how == "literal":
            assert member in literals(folded[a])
            folded[member] = member
        elif how == "meet":
            folded[member] = folded[a] & folded[b]
        else:
            assert how == "join"
            folded[member] = folded[a] | folded[b]
        assert folded[member] == member


@settings(max_examples=300, deadline=None)
@given(generated_rings(), st.integers(0, 40))
def test_cap_raises_exactly_past_the_ring_size(case, cap):
    seeds, literals = case
    size = len(brute_force(seeds, literals))
    if size > cap:
        with pytest.raises(SearchBudgetExceeded, match="^ring past its cap$"):
            closure(seeds, literals, cap, "ring past its cap")
    else:
        assert len(closure(seeds, literals, cap, "ring past its cap")) == size


@given(st.lists(st.integers(0, 9), max_size=POINTS), st.integers(0, 12))
def test_upper_sets_match_a_direct_scan(values, ceiling):
    expected = [
        sum(1 << i for i, x in enumerate(values) if x >= v)
        for v in sorted({*values, ceiling}, reverse=True)
    ]
    assert upper_sets(values, ceiling) == expected
