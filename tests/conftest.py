from fractions import Fraction
from itertools import islice
from math import gcd

import pytest

from cml_kit import And, Evaluator, Fragment, Kernel, KernelError, L, Not, RateError, Top
from cml_kit.equivalence import generators
from cml_kit.errors import SearchBudgetExceeded
from cml_kit.formula import encode_down, encode_up, or_operands
from cml_kit.harness import oracles, suites
from cml_kit.harness.enumerate import _candidates
from cml_kit.models import load_model
from cml_kit.rational import ensure_rate, format_rate, parse_rate


def prop_eval(f, assignment: dict) -> bool:
    """Truth value with each outermost L-atom read from the assignment: the
    test oracle for propositional reasoning over modal atoms."""
    if isinstance(f, Top):
        return True
    if isinstance(f, L):
        return assignment[f]
    if isinstance(f, Not):
        return not prop_eval(f.child, assignment)
    if isinstance(f, And):
        return prop_eval(f.left, assignment) and prop_eval(f.right, assignment)
    raise TypeError(f"not a formula node: {f!r}")


def in_fragment(f, fragment: Fragment) -> bool:
    """Membership in the positive fragment (T, &, | and L only) or the full
    language: the test oracle for the fragments the suites enumerate. | is
    recognized by the parser's sugar tag, so a hand-built !(!a & !b) without
    the tag does not count as a disjunction."""
    if fragment is Fragment.FULL or isinstance(f, Top):
        return True
    if isinstance(f, And):
        return in_fragment(f.left, fragment) and in_fragment(f.right, fragment)
    if isinstance(f, L):
        return in_fragment(f.child, fragment)
    operands = or_operands(f)
    return operands is not None and all(in_fragment(g, fragment) for g in operands)


def two_walk_stability_margin(kernel, f, e):
    """``Evaluator.stability_margin`` as two walks in Fractions: one over the
    L nodes of f, and at each an extension walk of its child, whose states'
    deficits r - (theta(m)(child) + e) are Fractions: the test oracle for the
    margin read off the integer walk."""
    e = ensure_rate(e)
    ev = Evaluator(kernel)
    deficits = []

    def walk(g) -> None:
        if isinstance(g, L):
            for w in set(kernel.scaled_measures(ev.mask(g.child, e))):
                gap = g.rate - (Fraction(w, kernel.scale) + e)
                if gap > 0:
                    deficits.append(gap)
            walk(g.child)
        elif isinstance(g, Not):
            walk(g.child)
        elif isinstance(g, And):
            walk(g.left)
            walk(g.right)

    walk(f)
    return min(deficits) if deficits else None


def _at_least(values: list, r: int) -> int:
    return sum([1 << i for i, v in enumerate(values) if v >= r])


def at_least_literal_pairs(kernel, pair: int, e, negated_literals: bool) -> list:
    """The literal pairs over one body pair, one rate of the sweep at a time,
    each level mask scanned afresh: the test oracle for
    ``oracles._literal_pairs``, as a set."""
    e = ensure_rate(e)
    size = len(kernel.states)
    de = e.denominator
    into_s0 = [w * de for w in kernel.scaled_measures(pair & kernel.full)]
    into_se = [w * de for w in kernel.scaled_measures(pair >> size)]
    shifted = [v + e.numerator * kernel.scale for v in into_se]
    values = {*into_s0, *into_se, *shifted}
    sweep = [*sorted(values), max(values) + 1] if values else [0]
    full = (1 << 2 * size) - 1
    out = []
    for r in sweep:
        left = _at_least(into_s0, r)
        out.append(left | _at_least(shifted, r) << size)
        if negated_literals:
            out.append(full ^ (left | _at_least(into_se, r) << size))
    return out


def pairwise_saturation(kernel, e, negated_literals: bool) -> frozenset:
    """The pair fixpoint by a worklist that adds each pair's literal pairs and
    its union and intersection with every pair found before it, raising past
    ``oracles.PAIR_CAP`` pairs: the test oracle for ``saturate_pairs``."""
    e = ensure_rate(e)
    pairs = {(1 << 2 * len(kernel.states)) - 1}
    if negated_literals:
        pairs.add(0)
    order = list(pairs)

    def add(candidate: int) -> None:
        if candidate not in pairs:
            pairs.add(candidate)
            order.append(candidate)
            if len(pairs) > oracles.PAIR_CAP:
                raise SearchBudgetExceeded(f"pair saturation exceeded {oracles.PAIR_CAP} pairs")

    for i, pair in enumerate(order):  # the worklist: add appends to order
        for lit in at_least_literal_pairs(kernel, pair, e, negated_literals):
            add(lit)
        for other in order[:i]:
            add(pair | other)
            add(pair & other)
    return frozenset(pairs)


def dedup_enumeration(max_depth, rate_grid, fragment, max_count) -> tuple:
    """``enumerate_formulas`` over the grid as given, each candidate looked up
    in a dict of the formulas emitted so far and dropped if already there:
    the test oracle for enumeration by construction."""
    emitted = {Top(): None}
    settled = []
    previous = [Top()]
    for _ in range(max_depth):
        size = len(emitted)
        for f in _candidates(settled, previous, rate_grid, fragment):
            if f not in emitted:
                if len(emitted) >= max_count:
                    return tuple(emitted), True
                emitted[f] = None
        settled += previous
        previous = list(islice(emitted, size, None))
    return tuple(emitted), False


def entrywise_core(states, rates) -> tuple:
    """(rows, scale, totals, full) of ``Kernel(states, rates)``, each entry
    coerced and checked on its own, with the same errors in the same order:
    the test oracle for the constructor, which handles each distinct rate
    object once."""
    states = tuple(states)
    bit: dict = {}
    for i, s in enumerate(states):
        if s in bit:
            raise KernelError(f"duplicate state {s!r}")
        bit[s] = 1 << i
    entries = []
    scale = 1
    for (s, t), value in (rates or {}).items():
        try:
            r = ensure_rate(value)
        except RateError:
            if isinstance(value, (int, Fraction)) and value < 0:
                r = format_rate(Fraction(value))
                raise KernelError(f"negative rate {r} on ({s!r}, {t!r})") from None
            raise
        source = bit.get(s)
        if source is None:
            raise KernelError(f"rate source {s!r} is not a state")
        target = bit.get(t)
        if target is None:
            raise KernelError(f"rate target {t!r} is not a state")
        n = r.numerator
        if not n:
            continue
        d = r.denominator
        entries.append((source, target, n, d))
        if scale % d:
            scale = scale // gcd(scale, d) * d
    rows: list = [[] for _ in states]
    totals = [0] * len(rows)
    entries.sort()
    for source, target, n, d in entries:
        i = source.bit_length() - 1
        w = n * (scale // d)
        rows[i].append((target, w))
        totals[i] += w
    return tuple(map(tuple, rows)), scale, totals, (1 << len(rows)) - 1


def entrywise_load(doc: object) -> Kernel:
    """The model loader entry by entry: the document's fields checked, each
    entry's literal checked and parsed in document order, then
    ``Kernel(states, pairs)``, then the check of the rows with no entries:
    the test oracle for ``loads_kernel``'s first fault."""
    if not isinstance(doc, dict):
        raise KernelError("model file must be a JSON object")
    unknown = set(doc) - {"states", "rates", "comment"}
    if unknown:
        raise KernelError(f"unknown model fields: {sorted(unknown)}")
    states = doc.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise KernelError('"states" must be a list of strings')
    rates_doc = doc.get("rates", {})
    if not isinstance(rates_doc, dict):
        raise KernelError('"rates" must be an object keyed by source state')
    pairs = {}
    for source, row in rates_doc.items():
        if not isinstance(row, dict):
            raise KernelError(f"rates.{source}: expected an object of target rates")
        for target, literal in row.items():
            if not isinstance(literal, str):
                raise KernelError(f"rates.{source}.{target}: rate must be a string literal")
            try:
                pairs[(source, target)] = parse_rate(literal)
            except RateError as exc:
                raise KernelError(f"rates.{source}.{target}: {exc}") from exc
    kernel = Kernel(states, pairs)
    for source in rates_doc:
        if source not in kernel.state_set:
            raise KernelError(f"rate source {source!r} is not a state")
    return kernel


def _per_formula_t2(ev, shifts, f, e, e2) -> list:
    down, up = shifts
    total = e + e2
    if ev.mask(f, total) != ev.mask(encode_down(f, e2, down), e):
        return [f"transfer (down) broken at e={format_rate(e)}, e'={format_rate(e2)}"]
    if ev.mask(f, e) != ev.mask(encode_up(f, e2, up), total):
        return [f"transfer (up) broken at e={format_rate(e)}, e'={format_rate(e2)}"]
    return []


def _per_formula_c2(ev, shifts, f, e) -> list:
    down, up = shifts
    ext = ev.mask(f, e)
    if (
        ext == ev.mask(encode_down(f, e, down), Fraction(0))
        and ev.mask(f, Fraction(0)) == ev.mask(encode_up(f, e, up), e)
        and ev.mask(Not(f), e) == ev.kernel.full ^ ext
    ):
        return []
    return [f"0-transfer or complementation broken at e={format_rate(e)}"]


def _per_formula_l1(ev, shifts, f, e, e2) -> list:
    total = e + e2
    problems = []
    if ev.mask(f, e) & ~ev.mask(f, total):
        problems.append(f"positive monotonicity broken at e={format_rate(e)}, "
                        f"e'={format_rate(e2)}")
    if ev.mask(Not(f), total) & ~ev.mask(Not(f), e):
        problems.append(f"negative antitonicity broken at e={format_rate(e)}, "
                        f"e'={format_rate(e2)}")
    return problems


def _per_formula_l2(ev, shifts, f, e) -> list:
    margin = ev.stability_margin(f, e)
    probes = [margin / 2, margin / 3] if margin is not None else [Fraction(1), Fraction(5)]
    base = ev.mask(f, e)
    for delta in probes:
        if ev.mask(f, e + delta) != base:
            return [f"extension moved within the stability margin at "
                    f"e={format_rate(e)}, delta={format_rate(delta)}"]
    return []


def per_formula_suite(name: str, budget):
    """The report of formula suite ``name`` (t2, c2, l1 or l2) with one check
    per formula and slack: each check asks ``Evaluator.mask`` and
    ``stability_margin`` about one formula, an exception fails that
    instance, and failures are shrunk with the check as the oracle: the test
    oracle for the suites' one pass per list and slack."""
    half = Fraction(1, 2)
    pairs = budget.epsilon_pairs
    singles = [(e,) for e in budget.epsilons]
    fragment, slacks, check, extra = {
        "t2": (Fragment.FULL, pairs, _per_formula_t2, (half, Fraction(2))),
        "c2": (Fragment.FULL, singles, _per_formula_c2, (half,)),
        "l1-positive-monotonicity": (Fragment.POSITIVE, pairs, _per_formula_l1, ()),
        "l2-limit": (Fragment.POSITIVE, singles, _per_formula_l2, ()),
    }[name]
    report = suites.SuiteReport(name, seed=budget.seed)
    truncated = False
    for kernel in suites._suite_corpus(budget):
        ev = Evaluator(kernel)
        grid = suites._family_grid(kernel, generators(kernel), (Fraction(0), *extra))
        formulas, cut = suites._formulas(budget, grid, fragment)
        truncated |= cut
        tables: dict = {}
        shared = [tables.setdefault(slack[-1], ({}, {})) for slack in slacks]
        for f in formulas:
            for slack, shifts in zip(slacks, shared):
                report.checked += 1
                try:
                    problems = check(ev, shifts, f, *slack)
                except Exception as exc:
                    at = ", ".join(f"{label}={format_rate(v)}"
                                   for label, v in zip(("e", "e'"), slack))
                    problems = [f"exception at {at}: {exc}"]
                for problem in problems:
                    report.fail(problem, kernel, f,
                                lambda k, g: bool(check(Evaluator(k), ({}, {}), g, *slack)))
    if truncated and name == "t2":
        report.notes["truncated"] = True
    return report


@pytest.fixture(scope="session")
def fig1() -> Kernel:
    return load_model("fig1")


@pytest.fixture(scope="session")
def fig3n() -> Kernel:
    return load_model("fig3n")


@pytest.fixture(scope="session")
def fig3o() -> Kernel:
    return load_model("fig3o")


@pytest.fixture(scope="session")
def fig4n() -> Kernel:
    return load_model("fig4n")


@pytest.fixture(scope="session")
def fig4o() -> Kernel:
    return load_model("fig4o")


@pytest.fixture(scope="session")
def eps() -> Fraction:
    return Fraction(1, 10)
