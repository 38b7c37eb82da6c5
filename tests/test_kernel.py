import json
import os
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cml_kit import (
    Kernel,
    KernelError,
    RateError,
    disjoint_union,
    kernel_to_doc,
    left_tag,
    loads_kernel,
    parse_rate,
    right_tag,
)
from cml_kit import kernel as kernel_module
from cml_kit.harness.generate import KernelGenConfig, gen_kernel
from cml_kit.models import FIGURES, load_model
from cml_kit.rational import ensure_rate
from conftest import entrywise_core, entrywise_load

S = frozenset


def test_smallest_legal_kernel():
    k = Kernel(["m"], {("m", "m"): 0})
    assert k.rate_items() == [] and k.scale == 1 and k.totals == [0]


def test_duplicate_state_rejected():
    with pytest.raises(KernelError, match="duplicate state 'm'"):
        Kernel(["m", "m"], {})


def test_fig1_validates(fig1):
    assert Kernel(fig1.states, {(s, t): r for s, t, r in fig1.rate_items()}) == fig1
    assert len(fig1.states) == 6


def test_negative_rate_rejected():
    with pytest.raises(KernelError, match=re.escape("negative rate -1 on ('a', 'a')")):
        Kernel(["a"], {("a", "a"): Fraction(-1)})


def test_unknown_endpoint_rejected():
    with pytest.raises(KernelError, match="rate target 'b' is not a state"):
        Kernel(["a"], {("a", "b"): 1})
    with pytest.raises(KernelError, match="rate source 'x' is not a state"):
        Kernel(["a"], {("x", "a"): 1})
    # a zero entry is dropped only after both endpoints are checked
    with pytest.raises(KernelError, match="rate target 'ghost' is not a state"):
        Kernel(["a"], {("a", "ghost"): 0})
    with pytest.raises(KernelError, match="rate source 'ghost' is not a state"):
        Kernel(["a"], {("ghost", "a"): Fraction(0)})


def test_float_rate_rejected():
    with pytest.raises(Exception, match="float"):
        Kernel(["a"], {("a", "a"): 0.1})


def test_measure_branch_pair(fig1):
    # total rate from the root into the two mid states: 3 + 2
    assert fig1.measure("m", S({"m2", "m4"})) == 5


def test_measure_empty_set(fig1):
    assert fig1.measure("m", S()) == 0


def test_measure_three_targets(fig1):
    assert fig1.measure("m", S({"m1", "m2", "m4"})) == 6


def test_measure_unknown_member(fig1):
    with pytest.raises(KernelError, match="not in kernel"):
        fig1.measure("m", S({"zz"}))
    with pytest.raises(KernelError, match="unknown state"):
        fig1.measure("zz", S())


def test_unknown_members_of_an_iterator_are_named(fig1):
    # the message names every unknown member, although an iterator is read once
    with pytest.raises(KernelError, match=re.escape("not in kernel: ['yy', 'zz']")):
        fig1.mask_of(iter(["m", "zz", "yy"]))
    with pytest.raises(KernelError, match=re.escape("not in kernel: ['zz']")):
        fig1.measure("m", iter(["zz"]))


def test_union_of_singletons():
    u = disjoint_union(Kernel(["a"], {("a", "a"): 1}), Kernel(["a"], {("a", "a"): 2}))
    assert len(u.states) == 2
    assert u.rate_items() == [("L:a", "L:a", 1), ("R:a", "R:a", 2)]


def test_union_preserves_measures(fig1, fig3n):
    u = disjoint_union(fig1, fig3n)
    assert len(u.states) == 10
    assert u.measure(left_tag("m"), S({left_tag("m2"), left_tag("m4")})) == 5
    for s in fig1.states:
        assert u.measure(left_tag(s), S(map(left_tag, fig1.states))) == fig1.measure(
            s, fig1.state_set
        )
    for s in fig3n.states:
        assert u.measure(right_tag(s), u.state_set) == fig3n.measure(s, fig3n.state_set)


def test_union_with_empty_kernel(fig1):
    u = disjoint_union(fig1, Kernel([], {}))
    assert [s[2:] for s in u.states] == list(fig1.states)
    assert u.measure("L:m", S({"L:m2", "L:m4"})) == 5


states_st = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5, unique=True
)
rates_st = st.fractions(min_value=0, max_value=5, max_denominator=6)


@st.composite
def kernels(draw):
    states = draw(states_st)
    entries = {}
    for s in states:
        for t in states:
            if draw(st.booleans()):
                entries[(s, t)] = draw(rates_st)
    return Kernel(states, entries)


def brute_scaled_measures(k: Kernel, mask: int) -> list:
    """theta(m)(mask) * scale for every state m, summed entry by entry over
    ``rate_items()``: the test oracle for ``Kernel.scaled_measures``."""
    position = {s: i for i, s in enumerate(k.states)}
    sums = [0] * len(k.states)
    for s, t, r in k.rate_items():
        if mask >> position[t] & 1:
            sums[position[s]] += r * k.scale
    return sums


@given(kernels(), st.data())
def test_scaled_measures_match_the_entrywise_sum(k, data):
    # the empty set, each single state, every state and random subsets
    singles = [1 << i for i in range(len(k.states))]
    subsets = data.draw(st.lists(st.integers(0, k.full), max_size=8))
    for mask in (0, *singles, k.full, *subsets):
        assert k.scaled_measures(mask) == brute_scaled_measures(k, mask)


@given(kernels(), st.data())
def test_measure_additive_over_disjoint_sets(k, data):
    members = sorted(k.state_set)
    split = data.draw(st.integers(0, len(members)))
    left, right = S(members[:split]), S(members[split:])
    for m in k.states:
        assert k.measure(m, left) + k.measure(m, right) == k.measure(m, left | right)
    # the integer core: column sums for the halves, the exit totals for the
    # full set, each against the entrywise sum
    for targets in (left, right, left | right):
        mask = k.mask_of(targets)
        assert k.scaled_measures(mask) == brute_scaled_measures(k, mask)
    assert k.mask_of(left | right) == k.full
    exits = [sum(r for s, _, r in k.rate_items() if s == m) for m in k.states]
    assert [total * k.scale for total in exits] == k.totals


@given(kernels(), kernels())
def test_union_preserves_left_measures(k1, k2):
    u = disjoint_union(k1, k2)
    tagged = S(map(left_tag, k1.states))
    for m in k1.states:
        assert u.measure(left_tag(m), tagged) == k1.measure(m, k1.state_set)


@given(kernels(), st.randoms(use_true_random=False))
def test_rate_order_gives_equal_kernels(k, rng):
    items = [((s, t), r) for s, t, r in k.rate_items()]
    rng.shuffle(items)
    again = Kernel(k.states, dict(items))
    assert again == k
    assert hash(again) == hash(k)
    assert again.rate_items() == k.rate_items() and again.scale == k.scale


@pytest.mark.parametrize("name", FIGURES)
def test_model_dumps_are_unchanged(name):
    # the dumps of the shipped models, as the Fraction-keyed kernel printed them
    with open(os.path.join(os.path.dirname(__file__), "model_dumps.json")) as fh:
        expected = json.load(fh)[name]
    assert json.dumps(kernel_to_doc(load_model(name)), indent=2) + "\n" == expected


def test_json_round_trip(fig1):
    again = loads_kernel(json.dumps(kernel_to_doc(fig1)))
    assert again == fig1


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"states": ["a"], "rates": {"a": {"a": "-1"}}}', "rates.a.a"),
        ('{"states": ["a"], "rates": {"a": {"a": "x/y"}}}', "rates.a.a"),
        # an Arabic-Indic digit, which int() would read as 2
        ('{"states": ["a", "b"], "rates": {"a": {"b": "\u0662"}}}', "rates.a.b: malformed"),
        # a no-break space, which str.strip() would drop
        ('{"states": ["a", "b"], "rates": {"a": {"b": "\u00a02"}}}', "rates.a.b: malformed"),
        ('{"states": ["a"], "rates": {"a": {"b": "1"}}}', "not a state"),
        # a zero entry's endpoints are checked too
        ('{"states": ["a"], "rates": {"ghost": {"a": "0"}}}', "rate source 'ghost'"),
        ('{"states": ["a"], "rates": {"a": {"ghost": "0/3"}}}', "rate target 'ghost'"),
        # a row with no entries is checked too
        ('{"states": ["a"], "rates": {"ghost": {}}}', "rate source 'ghost' is not a state"),
        ('{"states": "a"}', "list of strings"),
        ("{", "not valid JSON"),
        ('{"states": ["a"], "rates": {"a": {"a": 1}}}', "must be a string literal"),
        ('{"states": ["a"], "rates": {"a": {"a": null}}}', "must be a string literal"),
        ('{"states": ["a"], "rates": {"a": {"a": [1]}}}', "must be a string literal"),
        ('{"states": ["a"], "rates": {"a": {"a": {}}}}', "must be a string literal"),
        # a repeated malformed literal is reported at its first entry
        (
            '{"states": ["a", "b"], "rates": {"a": {"a": "x/y", "b": "x/y"}}}',
            "rates.a.a",
        ),
    ],
)
def test_loader_diagnostics(text, message):
    with pytest.raises(KernelError, match=message):
        loads_kernel(text)


def test_loader_accepts_comment_and_decimal():
    k = loads_kernel(
        json.dumps(
            {"comment": "x", "states": ["a"], "rates": {"a": {"a": "0.25"}}}
        )
    )
    assert k.rate_items() == [("a", "a", Fraction(1, 4))]


_digits = st.text("0123456789", min_size=1, max_size=6)
_pads = st.sampled_from(["", " ", "\t "])


@given(
    _pads,
    st.one_of(
        _digits,
        st.builds("{}.{}".format, _digits, _digits),
        st.builds("{}/{}".format, _digits, _digits),
    ),
    _pads,
)
def test_parse_rate_matches_fraction(before, token, after):
    text = before + token + after
    try:
        expected = Fraction(token)
    except ZeroDivisionError:
        with pytest.raises(RateError, match="zero denominator"):
            parse_rate(text)
    else:
        assert parse_rate(text) == expected
    with pytest.raises(RateError, match="negative rate"):
        parse_rate(before + "-" + token + after)


@pytest.mark.parametrize("text", ["\u0663", "\uff11", "1/\u0662", "0.\u0665"])
def test_parse_rate_takes_only_ascii_digits(text):
    # int() reads Arabic-Indic "٣" and fullwidth "１" as 3 and 1
    with pytest.raises(RateError, match="malformed rate literal"):
        parse_rate(text)


@pytest.mark.parametrize("text", ["\u00a02", "2\u3000", "\u20031/2", "0.5\u2028"])
def test_parse_rate_strips_only_ascii_whitespace(text):
    # str.strip() drops the no-break, ideographic, em and line-separator spaces
    with pytest.raises(RateError, match="malformed rate literal"):
        parse_rate(text)
    assert parse_rate(" \t1/2\n\r\v\f") == Fraction(1, 2)


def test_readme_model_file_example_loads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Model files", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    k = loads_kernel(block)
    assert k.rate_items() == [("m", "m1", 1), ("m", "m2", Fraction(3, 2))]


# literals a model file may repeat: zeros, decimals, fractions, padding
_literals = st.builds(
    "{}{}{}".format,
    _pads,
    st.one_of(
        st.sampled_from(["0", "0/5", "0.0", "1", "2", "3/2", "0.25", "1.50", "10/4"]),
        _digits,
        st.builds("{}.{}".format, _digits, _digits),
        st.builds("{}/{}".format, _digits, st.text("123456789", min_size=1, max_size=3)),
    ),
    _pads,
)


@given(states_st, st.lists(_literals, min_size=1, max_size=4), st.data())
def test_loader_matches_entrywise_construction(states, pool, data):
    # few distinct literals over many entries, so most entries repeat one
    doc: dict = {}
    for s in states:
        for t in states:
            if data.draw(st.booleans()):
                doc.setdefault(s, {})[t] = data.draw(st.sampled_from(pool))
    expected = Kernel(
        states,
        {(s, t): parse_rate(lit) for s, row in doc.items() for t, lit in row.items()},
    )
    k = loads_kernel(json.dumps({"states": states, "rates": doc}))
    assert k == expected
    assert k.rate_items() == expected.rate_items() and k.scale == expected.scale


# one half in several spellings, zeros, and other rates
_spellings = ("1/2", "0.5", "2/4", " 1/2", "0", "0/5", "0.0", "1", "3/2", "0.25", "7/3")


@given(states_st, st.data(), st.randoms(use_true_random=False))
def test_loader_matches_construction_in_any_document_order(states, data, rng):
    # rows and entries in shuffled order fill each column out of source
    # order; empty rows and zero literals add no entry
    doc: dict = {}
    for s in states:
        row = doc[s] = {}
        for t in states:
            if data.draw(st.booleans()):
                row[t] = data.draw(st.sampled_from(_spellings))
    rows = [(s, list(row.items())) for s, row in doc.items()]
    rng.shuffle(rows)
    for _, entries in rows:
        rng.shuffle(entries)
    doc = {s: dict(entries) for s, entries in rows}
    # the constructor fed in state order, source-major
    expected = Kernel(states, {
        (s, t): doc[s][t] for s in states for t in states if t in doc[s]
    })
    k = loads_kernel(json.dumps({"states": states, "rates": doc}))
    assert k == expected
    assert (k.cols, k.scale, k.totals) == (expected.cols, expected.scale, expected.totals)
    assert k.rate_items() == expected.rate_items()


_bad_literals = st.sampled_from(["-1", "1/0", "abc", "1e3", "", "1.", ".5", "\u0663", "\u00a02"])
_non_strings = st.sampled_from([1, 0.5, None, True, [1], {}, ["1"]])


@st.composite
def _faulty_documents(draw):
    """A small model document with one to three faults: a bad or non-string
    literal, an unknown target, an unknown-source row (empty or not), a
    duplicate or non-string state or a row that is not an object; its rows
    and entries in shuffled order."""
    states = list(draw(states_st))
    names = st.sampled_from(states)
    rates: dict = {}
    for s in states:
        for t in states:
            if draw(st.booleans()):
                rates.setdefault(s, {})[t] = draw(st.sampled_from(["0", "1", "1/2", "3/4"]))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 7))
        s, t = draw(names), draw(names)
        row = rates.setdefault(s, {})
        row = row if isinstance(row, dict) else {}  # a fault in a row already replaced
        if kind == 0:
            row[t] = draw(_bad_literals)
        elif kind == 1:
            row[t] = draw(_non_strings)
        elif kind == 2:
            row["ghost"] = draw(st.sampled_from(["1", "0"]))
        elif kind == 3:
            rates[draw(st.sampled_from(["ghost", "phantom"]))] = {}
        elif kind == 4:
            rates[draw(st.sampled_from(["ghost", "phantom"]))] = {t: "1"}
        elif kind == 5:
            states.append(draw(names))
        elif kind == 6:
            states.append(3)
        else:
            rates[s] = draw(st.sampled_from([["1"], "1", None, 2]))
    rng = draw(st.randoms(use_true_random=False))
    rows = list(rates.items())
    rng.shuffle(rows)
    for i, (s, row) in enumerate(rows):
        if isinstance(row, dict):
            entries = list(row.items())
            rng.shuffle(entries)
            rows[i] = (s, dict(entries))
    return {"states": states, "rates": dict(rows)}


@given(_faulty_documents())
# an entry's fault comes before an empty row's unknown source
@example({"states": ["a"], "rates": {"ghost": {}, "a": {"phantom": "1"}}})
@example({"states": ["a"], "rates": {"ghost": {}, "phantom": {"a": "0"}}})
# a literal's fault comes before a duplicate state
@example({"states": ["a", "a"], "rates": {"a": {"a": "x"}}})
# a zero entry's endpoints are checked in document order
@example({"states": ["a"], "rates": {"a": {"ghost": "0"}, "phantom": {"a": "1"}}})
def test_loader_first_fault_matches_the_entrywise_loader(doc):
    text = json.dumps(doc)
    assert _outcome(loads_kernel, text) == _outcome(entrywise_load, json.loads(text))


def test_loader_parses_each_distinct_literal_once(monkeypatch):
    # the density and rate pool of the benchmark's 128-state models
    source = gen_kernel(KernelGenConfig(128, density=Fraction(1, 4), seed=128000))
    doc = kernel_to_doc(source)
    literals = [lit for row in doc["rates"].values() for lit in row.values()]
    calls = []

    def counting_parse_rate(text):
        calls.append(text)
        return parse_rate(text)

    monkeypatch.setattr(kernel_module, "parse_rate", counting_parse_rate)
    k = loads_kernel(json.dumps(doc))
    assert len(literals) > 3000
    assert sorted(calls) == sorted(set(literals))
    assert k == source


# --- the constructor against the entrywise oracle ---------------------------

# ints, Fractions and literal strings, zeros among them
_values = st.one_of(
    st.integers(0, 6),
    st.fractions(min_value=0, max_value=5, max_denominator=6),
    st.sampled_from(["0", "0/5", "1", "2", "3/2", "0.25", "1.50", "10/4", "7/3"]),
)
_bad_values = st.sampled_from([-1, Fraction(-1, 2), 0.5, True, None, "abc", "-2", "1/0"])


def _fresh(value):
    """An equal value as a new object, so that it does not share the id of
    the value it was made from (small ints are shared by the interpreter)."""
    if isinstance(value, Fraction):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, str):
        return " " + value
    return value


def _core(states, rates) -> tuple:
    k = Kernel(states, rates)
    # the columns transposed into the oracle's rows of (target bit, weight)
    rows: list = [[] for _ in k.states]
    for t, col in enumerate(k.cols):
        for s, w in col:
            rows[s].append((1 << t, w))
    return tuple(map(tuple, rows)), k.scale, k.totals, k.full


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the first fault is part of the answer
        return type(exc), str(exc)


@st.composite
def _rate_maps(draw, values=_values, endpoints=()):
    """(states, rates): entries drawn from a small pool of value objects, each
    entry the pool's object itself or an equal fresh one."""
    states = draw(states_st)
    pool = draw(st.lists(values, min_size=1, max_size=4))
    names = st.sampled_from([*states, *endpoints])
    pairs = draw(st.lists(st.tuples(names, names), max_size=16, unique=True))
    rates = {}
    for pair in pairs:
        value = draw(st.sampled_from(pool))
        rates[pair] = _fresh(value) if draw(st.booleans()) else value
    return states, rates


@given(_rate_maps())
def test_constructor_matches_the_entrywise_oracle(case):
    states, rates = case
    assert _core(states, rates) == entrywise_core(states, rates)


class _FreshRates(Mapping):
    """A rate map whose items() builds a new Fraction on every read."""

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, key):
        return Fraction(*self._entries[key])

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def test_constructor_keeps_fresh_values_alive():
    # every read makes a new Fraction, and a freed one's id is reused by a
    # later one: only a table that holds its objects keeps the rates apart
    states = [f"s{i}" for i in range(12)]
    entries = {(s, t): (i * 7 % 5, i % 3 + 1)
               for i, (s, t) in enumerate((s, t) for s in states for t in states)}
    rates = _FreshRates(entries)
    assert _core(states, rates) == entrywise_core(states, rates)
    stored = {(s, t): r for s, t, r in Kernel(states, rates).rate_items()}
    assert all(stored.get((s, t), 0) == Fraction(n, d) for (s, t), (n, d) in entries.items())


@given(_rate_maps(st.one_of(_values, _bad_values), endpoints=["ghost"]), st.booleans())
@example((["a", "b"], {("a", "ghost"): "abc", ("a", "b"): -1, ("b", "a"): 0.5}), True)
@example((["a", "b"], {("a", "b"): 1, ("ghost", "a"): 0, ("a", "a"): "1/0"}), False)
@example((["a"], {("a", "a"): 2, ("ghost", "ghost"): None, ("a", "ghost"): 1}), False)
def test_first_fault_matches_the_oracle(case, duplicate):
    states, rates = case
    if duplicate:
        states = [*states, states[-1]]
    expected = _outcome(entrywise_core, states, rates)
    assert _outcome(_core, states, rates) == expected


def test_rates_built_from_a_kernel_share_one_fraction_per_value(monkeypatch):
    k = gen_kernel(KernelGenConfig(12, density=Fraction(1, 2), seed=5))
    items = k.rate_items()
    assert len({id(r) for _, _, r in items}) == len({r for _, _, r in items}) < len(items)
    calls = []

    def counting_ensure_rate(value):
        calls.append(value)
        return ensure_rate(value)

    monkeypatch.setattr(kernel_module, "ensure_rate", counting_ensure_rate)
    disjoint_union(k, k)
    # one coercion per distinct rate of each side
    assert len(calls) == 2 * len({r for _, _, r in items})
