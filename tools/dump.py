"""Differential dump: library answers on fixed inputs, one JSON line per case.

    PYTHONPATH=src python tools/dump.py partition load suites mutations -o change.jsonl
    python tools/dump.py --compare parent.jsonl change.jsonl

A dump runs each named section and writes one line per case, sorted by case
id, with sorted keys: ``{"case": "<section>/<id>", ...answer}``. A case that
raises records the exception's type and message instead of an answer. Each
section reports its case count and wall time on stderr. To check that a change
keeps the answers of its parent, dump the parent's checkout with the same
script (set ``PYTHONPATH`` to the parent's ``src``) and compare the two files:
``--compare`` prints the first differing case of each section and exits 1 if
any differs.

Sections:

- ``partition``: the ``bisimulation`` blocks, each listing its states in
  kernel order, on ``corpus(40, 4, 7)``, ``(40, 5, 3)``, ``(30, 6, 11)`` and
  ``(20, 8, 5)``, the shipped models and their 49 ordered disjoint unions, and
  chains of 10 to 60 states.
- ``load``: each kernel's states, scale, printed ``rate_items`` and each
  state's printed exit total (``totals`` over ``scale``), on the shipped
  models, their 49 ordered disjoint unions, ``gen_kernel`` at density 1/4 for
  16, 32, ..., 128 states and each distinct model document of the
  ``queries`` and ``orders`` pools of ``perfbench/pools.py`` (loaded by
  ``loads_kernel``); and the error of ``loads_kernel`` on
  ``MALFORMED_CASES`` seeded model documents, each a small valid document
  with one to three faults (bad or non-string rate literals, unknown
  endpoints, duplicate or non-string states, wrong field types, unknown
  fields) in shuffled entry order, some cut short or wrapped in a list; and
  the kernel of ``loads_kernel`` on ``SHUFFLED_CASES`` seeded valid
  documents (``shuffled/``) of 1 to 12 states listed in shuffled order, with
  rows and entries in shuffled order, empty rows, zero literals and one half
  in several spellings.
- ``orders``: on the corpora and the models and their unions, the kernel's
  ``generators`` family as (state bitmask, printed formula) pairs in order,
  the solver's ``family_blocks()``, the sorted ``plain_pairs`` and
  ``essential_pairs`` at the slacks 0, 1/10, 1/2, 1 and 5/2, and the stages
  of a ``PlainDescent`` as (peak, sorted deleted block pairs); on the unions
  of two ``gen_kernel`` kernels (density 1/2) with 12, 14 and 15 blocks, the
  family only; and on a chain ladder, the sorted ``plain_pairs(0)`` and the
  stages: chains (rate 1 from each state to the next) of 10, 20, ...,
  ``CHAIN_STATES`` states, and disjoint unions of a rate-1 chain and a rate-2
  chain of 10, 20, ..., ``CHAIN_UNION_STATES`` states in all. The ladder's
  ``ESSENTIAL_CHAINS`` add the sorted ``essential_pairs(0)``, or the
  ``SearchBudgetExceeded`` it raises.
- ``metric``: ``distance`` as its printed ``value`` and ``attained_at`` for
  every ordered state pair of each corpus kernel, and for each of the 49
  ordered pairs of shipped models, every state of the first against every
  state of the second (the pairs across their disjoint union; a model paired
  with itself covers its own state pairs).
- ``suites``: each suite's ``to_doc()`` without ``elapsed_s`` at the default
  budget (seeds 3 and 7) and at the small budget.
- ``mutations``: each suite's small-budget ``to_doc()`` without ``elapsed_s``
  under each mutation of ``harness.mutations``.
- ``acceptance``: each suite's ``to_doc()`` without ``elapsed_s`` at the
  budget its criterion in ``tests/test_acceptance.py`` runs it at
  (``ACCEPTANCE``, criteria 03 to 10), one case per criterion and suite.
- ``enumeration``: the formulas the suites enumerate, as ``_formulas`` of
  ``harness.suites`` returns them (printed, with the ``truncated`` flag), for
  each budget of ``BUDGETS`` at seed 7, each fragment and the depths ``None``
  (the budget's) and 1, on the grids the suites pass: (0), (0, 1/2, 1),
  (0, 1, 2), and ``fig1``'s ``_family_grid`` with the default extra rate 0
  and with the extra rates (0, 1/2, 2).
- ``evaluation``: ``Evaluator.mask`` and the printed ``stability_margin``
  (null for none) of every formula of ``_formulas`` of ``harness.suites``,
  positive and full, at the default budget over the kernel's
  ``_family_grid``, at the budget's five slacks, one case per kernel,
  fragment and slack, on the default budget's corpus at seed 7 and ``fig1``.
- ``search``: ``search_model``'s witness and ``kernel_to_doc`` of its kernel,
  or null when the bounded space has none, with the query (printed formula,
  slack, states, grid, budget), on the documented searches, on 24 no-witness
  searches of the benchmark's shape ``L{a} (body) & !L{b} T`` at 2 states on
  4-rate grids, and on ``SEARCH_CASES`` seeded queries: formulas of depth at
  most 3 over ``SEARCH_RATES``, 1 to 3 states, grids of 1 to 4 of those rates
  and a budget from ``SEARCH_BUDGETS``.
- ``proofs``: ``check_result`` (ok flag and error text) of each proof
  document loaded by ``loads_proof``, or the load's error: the documents the
  proof-checker and CLI tests build, and ``PROOF_CASES`` seeded documents,
  each premises as hypotheses and one ``Tautology`` line over them, with
  formulas over 1 to 6 atoms ``L{r} T`` (r from ``SEARCH_RATES``) and the
  query (printed premises and conclusion).
- ``oracles``: ``transfer_plain`` and ``transfer_essential`` on the corpora
  of ``ORACLE_CORPORA``: ``corpus(10, 4, 3)``, ``corpus(10, 4, 7)`` and
  ``corpus(40, 5, 3)``, whose kernels of up to 5 states have 10 points and
  rings of up to 1,024 pairs, at the five slacks of the default suite
  budget, one case per kernel, oracle and slack: the sorted (m, n) pairs
  whose verdict is true and the sorted saturated pair masks. A saturation
  past its cap records ``SearchBudgetExceeded``.
- ``measures``: the kernel's scale and ``scaled_measures`` of the empty mask,
  each single state, the full mask and ``MEASURE_MASKS`` seeded random masks,
  as (mask, list) pairs, on the shipped models, their 49 ordered disjoint
  unions, the corpora, the ``gen_kernel`` ladder of ``load`` and the unions
  of the ``orders`` ladder.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from typing import Callable, Iterator

Case = tuple[str, Callable[[], dict]]

CORPORA = ((40, 4, 7), (40, 5, 3), (30, 6, 11), (20, 8, 5))
ORDER_SLACKS = ("0", "1/10", "1/2", "1", "5/2")
# (states, seed, seed): unions of two gen_kernel kernels with 12, 14 and 15 blocks
LADDER = ((6, 7, 8), (7, 5, 6), (8, 6, 7))
# the largest chain and union of two chains of the orders section's chain
# ladder: the largest sizes, in steps of 10 states, whose plain descent to 0
# ends in under a second
CHAIN_STATES = 120
CHAIN_UNION_STATES = 80
# the chain ladder cases that dump the essential order at 0 too
ESSENTIAL_CHAINS = ("chain/010", "chain/020", "chains/020", "chains/030")
# (formula, slack, states, grid or None for the default grid): docs/examples.md
# and the README, the two further searches of the cli workload, and the
# default grid
DOC_SEARCHES = (
    ("L{3} T", "1", 1, "0,2"),
    ("L{3} T & !L{1} T", "0", 2, "0,1,2"),
    ("L{2} T", "0", 2, "0,1"),
    ("L{2} T", "0", 1, None),
)
SEARCH_RATES = ("0", "1/3", "1/2", "1", "3/2", "2", "3")
# 259 and 260 cut a 2-state search on 4 rates one assignment short of and at
# its end (4 + 256 assignments)
SEARCH_BUDGETS = (5, 17, 100, 259, 260, 600, 2000)
SEARCH_CASES = 3000
PROOF_CASES = 3000
ORACLE_CORPORA = ((10, 4, 3), (10, 4, 7), (40, 5, 3))
MALFORMED_CASES = 300
SHUFFLED_CASES = 200
# rate literals of a shuffled document: one half in four spellings, zeros and
# other rates
SHUFFLED_LITERALS = ("1/2", "0.5", "2/4", " 1/2", "0", "0/5", "0.0", "1", "3/2", "0.25", "7/3")
MEASURE_MASKS = 20
# rate literals a malformed document may hold; " 2 " and "0.25" are valid
BAD_LITERALS = ("-1", "1/0", "abc", "1e3", "", " 2 ", "0.25", "\u0663", "1.", ".5", "1/-2")
BAD_VALUES = (0.5, 1, None, True, ["1"])
# (criterion, suites, Budget fields besides seed 7 and the default five
# slacks): the suite runs of tests/test_acceptance.py
ACCEPTANCE = (
    ("03", ("t2",), dict(kernels=12, max_states=5, depth=2, max_formulas=400)),
    ("04", ("c2", "l1-positive-monotonicity", "l2-limit"),
     dict(kernels=10, max_states=5, depth=2, max_formulas=250)),
    ("05", ("t1-generators",), dict(kernels=12, max_states=8)),
    ("06", ("paramcharact",), dict(kernels=10, max_states=5, depth=2, max_formulas=250)),
    ("07", ("characterization", "generalization"),
     dict(kernels=50, max_states=4, depth=2, max_formulas=150,
          epsilons=("0", "1/10", "1/3", "1"))),
    ("09", ("pseudometric",), dict(kernels=10, max_states=8)),
    ("10", ("soundness", "deduction"),
     dict(kernels=8, max_states=5, depth=2, max_formulas=200)),
)


def _models() -> Iterator[tuple[str, object]]:
    from cml_kit.kernel import disjoint_union
    from cml_kit.models import FIGURES, load_model

    models = {name: load_model(name) for name in FIGURES}
    for name, kernel in models.items():
        yield f"model/{name}", kernel
    for a in FIGURES:
        for b in FIGURES:
            yield f"union/{a}+{b}", disjoint_union(models[a], models[b])


def _corpora() -> Iterator[tuple[str, object]]:
    from cml_kit.harness.generate import corpus

    for args in CORPORA:
        name = "corpus({},{},{})".format(*args)
        for i, kernel in enumerate(corpus(*args)):
            yield f"{name}/{i:02d}", kernel


def _kernels() -> Iterator[tuple[str, object]]:
    from cml_kit.harness.generate import chain_kernel

    yield from _corpora()
    yield from _models()
    for length in range(10, 61):
        yield f"chain/{length:02d}", chain_kernel(length)


def _chain_ladder() -> Iterator[tuple[str, object]]:
    from cml_kit.harness.generate import chain_kernel
    from cml_kit.kernel import disjoint_union

    for length in range(10, CHAIN_STATES + 1, 10):
        yield f"chain/{length:03d}", chain_kernel(length)
    for length in range(10, CHAIN_UNION_STATES + 1, 10):
        half = length // 2
        yield f"chains/{length:03d}", disjoint_union(
            chain_kernel(half), chain_kernel(length - half, 2)
        )


def _gen_ladder() -> Iterator[tuple[str, object]]:
    from fractions import Fraction

    from cml_kit.harness.generate import KernelGenConfig, gen_kernel

    for n in range(16, 129, 16):
        config = KernelGenConfig(n, density=Fraction(1, 4), seed=1000 * n)
        yield f"gen/{n:03d}", gen_kernel(config)


def _ladder_unions() -> Iterator[tuple[str, object]]:
    from fractions import Fraction

    from cml_kit.harness.generate import KernelGenConfig, gen_kernel
    from cml_kit.kernel import disjoint_union

    for m, a, b in LADDER:
        union = disjoint_union(*(
            gen_kernel(KernelGenConfig(m, density=Fraction(1, 2), seed=seed)) for seed in (a, b)
        ))
        yield f"ladder/{m}:{a}+{b}", union


def _partition_cases() -> Iterator[Case]:
    from cml_kit.equivalence import bisimulation

    def blocks(kernel) -> dict:
        partition = bisimulation(kernel)
        return {"blocks": [[s for s in kernel.states if s in b] for b in partition.blocks]}

    for case, kernel in _kernels():
        yield case, lambda kernel=kernel: blocks(kernel)


def _load_cases() -> Iterator[Case]:
    from fractions import Fraction

    from cml_kit.kernel import loads_kernel
    from cml_kit.rational import format_rate

    def load(kernel) -> dict:
        return {
            "states": list(kernel.states),
            "scale": kernel.scale,
            "rates": [[s, t, format_rate(r)] for s, t, r in kernel.rate_items()],
            "totals": [format_rate(Fraction(w, kernel.scale)) for w in kernel.totals],
        }

    for case, kernel in (*_models(), *_gen_ladder()):
        yield case, lambda kernel=kernel: load(kernel)
    for case, text in (*_pool_documents(), *_malformed_documents(), *_shuffled_documents()):
        yield case, lambda text=text: load(loads_kernel(text))


def _pool_documents() -> Iterator[tuple[str, str]]:
    # perfbench/pools.py is read from its file; it imports only the standard
    # library
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "pools.py")
    spec = importlib.util.spec_from_file_location("perfbench_pools", path)
    pools = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pools  # dataclasses look their module up
    spec.loader.exec_module(pools)
    for name in ("queries", "orders"):
        seen: set[str] = set()
        for item in getattr(pools, f"{name}_pool")():
            for text in item.args:
                if isinstance(text, str) and text.startswith("{") and text not in seen:
                    yield f"pool/{name}/{len(seen):02d}-{item.cls}", text
                    seen.add(text)


def _malformed_documents() -> Iterator[tuple[str, str]]:
    import random

    def shuffled(rng: random.Random, mapping: dict) -> dict:
        items = list(mapping.items())
        rng.shuffle(items)
        return dict(items)

    def add_fault(rng: random.Random, doc: dict) -> None:
        states = doc["states"] if isinstance(doc["states"], list) else ["s0"]
        rates = doc["rates"] if isinstance(doc["rates"], dict) else {}
        s, t = rng.choice(states), rng.choice(states)
        row = rates.setdefault(s, {})
        row = row if isinstance(row, dict) else {}
        # faults in one entry (0 to 4) three times as often as in the document
        kind = rng.choices(range(10), weights=(3, 3, 3, 3, 3, 1, 1, 1, 1, 1))[0]
        if kind == 0:
            row[t] = rng.choice(BAD_LITERALS)
        elif kind == 1:
            row[t] = rng.choice(BAD_VALUES)
        elif kind == 2:
            row["ghost"] = "1"
        elif kind == 3:
            rates["ghost"] = {t: "1"}
        elif kind == 4:
            doc["states"] = [*states, s]
        elif kind == 5:
            doc["states"] = [*states, 3]
        elif kind == 6:
            doc["states"] = "s0"
        elif kind == 7:
            rates[s] = ["1"]
        elif kind == 8:
            doc["rates"] = []
        else:
            doc["weights"] = {}

    rng = random.Random(28)
    for i in range(MALFORMED_CASES):
        states = [f"s{j}" for j in range(rng.randint(1, 4))]
        doc: dict = {"states": states, "rates": {}}
        for s in states:
            for t in states:
                if rng.random() < 0.5:
                    doc["rates"].setdefault(s, {})[t] = rng.choice(("0", "1", "1/2", "3/4"))
        for _ in range(rng.randint(1, 3)):
            add_fault(rng, doc)
        if isinstance(doc["rates"], dict):
            doc["rates"] = shuffled(rng, {
                s: shuffled(rng, row) if isinstance(row, dict) else row
                for s, row in doc["rates"].items()
            })
        text = json.dumps(doc)
        shape = rng.randrange(20)
        if shape == 0:
            text = text[:rng.randrange(len(text))]
        elif shape == 1:
            text = f"[{text}]"
        yield f"malformed/{i:03d}", text


def _shuffled_documents() -> Iterator[tuple[str, str]]:
    import random

    rng = random.Random(29)
    for i in range(SHUFFLED_CASES):
        states = [f"s{j}" for j in range(rng.randint(1, 12))]
        rng.shuffle(states)
        rows = []
        for s in states:
            entries = [(t, rng.choice(SHUFFLED_LITERALS)) for t in states if rng.random() < 0.4]
            if entries or rng.random() < 0.5:  # else the row is left out, not empty
                rng.shuffle(entries)
                rows.append((s, dict(entries)))
        rng.shuffle(rows)
        yield f"shuffled/{i:03d}", json.dumps({"states": states, "rates": dict(rows)})


def _orders_cases() -> Iterator[Case]:
    from fractions import Fraction

    from cml_kit.equivalence import generators
    from cml_kit.errors import SearchBudgetExceeded
    from cml_kit.formula import print_formula
    from cml_kit.orders import OrderSolver, PlainDescent
    from cml_kit.rational import format_rate

    def family(members: dict) -> dict:
        return {"family": [[mask, print_formula(f)] for mask, f in members.items()]}

    def stages(solver) -> list:
        return [
            [format_rate(Fraction(peak, solver.scale)), sorted(deleted)]
            for peak, deleted in PlainDescent(solver).stages()
        ]

    def orders(kernel) -> dict:
        solver = OrderSolver(kernel)
        doc = family(generators(kernel))
        doc["family_blocks"] = solver.family_blocks()
        for kind, pairs in (("plain", solver.plain_pairs), ("essential", solver.essential_pairs)):
            doc[kind] = {e: sorted(pairs(Fraction(e))) for e in ORDER_SLACKS}
        doc["stages"] = stages(solver)
        return doc

    def descent(kernel, essential: bool) -> dict:
        solver = OrderSolver(kernel)
        plain = sorted(solver.plain_pairs(Fraction(0)))
        doc = {"plain": {"0": plain}, "stages": stages(solver)}
        if essential:
            try:
                doc["essential"] = {"0": sorted(solver.essential_pairs(Fraction(0)))}
            except SearchBudgetExceeded as exc:
                doc["essential"] = {"error": type(exc).__name__, "message": str(exc)}
        return doc

    for case, kernel in (*_corpora(), *_models()):
        yield case, lambda kernel=kernel: orders(kernel)
    for case, union in _ladder_unions():
        yield case, lambda union=union: family(generators(union))
    for case, kernel in _chain_ladder():
        yield case, lambda kernel=kernel, case=case: descent(kernel, case in ESSENTIAL_CHAINS)


def _metric_cases() -> Iterator[Case]:
    from cml_kit.metric import distance
    from cml_kit.models import FIGURES, load_model
    from cml_kit.rational import format_rate

    def distances(k1, k2) -> dict:
        rows = []
        for m in k1.states:
            for n in k2.states:
                d = distance(k1, m, k2, n)
                rows.append([m, n, format_rate(d.value), format_rate(d.attained_at)])
        return {"distance": rows}

    for case, kernel in _corpora():
        yield case, lambda kernel=kernel: distances(kernel, kernel)
    models = {name: load_model(name) for name in FIGURES}
    for a in FIGURES:
        for b in FIGURES:
            yield f"union/{a}+{b}", lambda a=models[a], b=models[b]: distances(a, b)


def _report(name: str, budget) -> dict:
    from cml_kit.harness.suites import run_suite

    doc = run_suite(name, budget).to_doc()
    del doc["elapsed_s"]
    return doc


def _suites_cases() -> Iterator[Case]:
    from cml_kit.harness.suites import SUITES, default_budget, small_budget

    budgets = {"default-3": default_budget(3), "default-7": default_budget(7),
               "small": small_budget()}
    for label, budget in budgets.items():
        for name in SUITES:
            yield f"{label}/{name}", lambda name=name, budget=budget: _report(name, budget)


def _mutations_cases() -> Iterator[Case]:
    from cml_kit.harness.mutations import REGISTRY, mutated
    from cml_kit.harness.suites import SUITES, small_budget

    def report(mutation: str, name: str) -> dict:
        with mutated(mutation):
            return _report(name, small_budget())

    for mutation in REGISTRY:
        for name in SUITES:
            yield f"{mutation}/{name}", lambda m=mutation, name=name: report(m, name)


def _acceptance_cases() -> Iterator[Case]:
    from fractions import Fraction

    from cml_kit.harness.suites import Budget

    for criterion, names, fields in ACCEPTANCE:
        fields = dict(fields)
        if "epsilons" in fields:
            fields["epsilons"] = tuple(map(Fraction, fields["epsilons"]))
        budget = Budget(seed=7, **fields)
        for name in names:
            yield f"{criterion}/{name}", lambda name=name, budget=budget: _report(name, budget)


def _enumeration_cases() -> Iterator[Case]:
    from fractions import Fraction

    from cml_kit.equivalence import generators
    from cml_kit.formula import Fragment, print_formula
    from cml_kit.harness.suites import BUDGETS, _family_grid, _formulas
    from cml_kit.models import load_model

    def enumeration(budget, grid, fragment, depth) -> dict:
        formulas, truncated = _formulas(budget, grid, fragment, depth)
        return {"formulas": [print_formula(f) for f in formulas], "truncated": truncated}

    fig1 = load_model("fig1")
    family = generators(fig1)
    half = Fraction(1, 2)
    grids = {
        "0": (Fraction(0),),
        "0,1/2,1": (Fraction(0), half, Fraction(1)),
        "0,1,2": (Fraction(0), Fraction(1), Fraction(2)),
        "fig1": _family_grid(fig1, family),
        "fig1+0,1/2,2": _family_grid(fig1, family, (Fraction(0), half, Fraction(2))),
    }
    for label, make in BUDGETS.items():
        budget = make(7)
        for name, grid in grids.items():
            for fragment in Fragment:
                for depth in (None, 1):
                    yield (f"{label}/{name}/{fragment.name.lower()}/depth={depth}",
                           lambda args=(budget, grid, fragment, depth): enumeration(*args))


def _evaluation_cases() -> Iterator[Case]:
    from cml_kit.equivalence import generators
    from cml_kit.formula import Fragment
    from cml_kit.harness.suites import _family_grid, _formulas, _suite_corpus, default_budget
    from cml_kit.models import load_model
    from cml_kit.rational import format_rate
    from cml_kit.semantics import Evaluator

    def evaluation(kernel, formulas, e) -> dict:
        ev = Evaluator(kernel)
        rows = []
        for f in formulas:
            margin = ev.stability_margin(f, e)
            rows.append([ev.mask(f, e), None if margin is None else format_rate(margin)])
        return {"evaluation": rows}

    budget = default_budget(7)
    kernels = [(f"corpus/{i:02d}", k) for i, k in enumerate(_suite_corpus(budget))]
    kernels.append(("fig1", load_model("fig1")))
    for name, kernel in kernels:
        grid = _family_grid(kernel, generators(kernel))
        for fragment in (Fragment.POSITIVE, Fragment.FULL):
            formulas, _ = _formulas(budget, grid, fragment)
            for e in budget.epsilons:
                yield (f"{name}/{fragment.name.lower()}/e={format_rate(e)}",
                       lambda args=(kernel, formulas, e): evaluation(*args))


def _search_cases() -> Iterator[Case]:
    import random
    from fractions import Fraction

    from cml_kit.formula import And, L, Not, Top, parse, print_formula
    from cml_kit.kernel import kernel_to_doc
    from cml_kit.semantics import search_model

    def search(f, e: str, n: int, grid, budget: int = 500_000) -> dict:
        query = [print_formula(f), e, n, grid, budget]
        rates = None if grid is None else [Fraction(r) for r in grid]
        found = search_model(f, Fraction(e), n, rates, budget)
        if found is not None:
            kernel, witness = found
            found = {"witness": witness, "model": kernel_to_doc(kernel)}
        return {"query": query, "found": found}

    def formula(rng: random.Random, depth: int, positive: bool = False):
        kinds = ("T", "L", "L", "And") + (() if positive else ("Not",))
        kind = rng.choice(kinds) if depth else "T"
        if kind == "L":
            return L(Fraction(rng.choice(SEARCH_RATES)), formula(rng, depth - 1, positive))
        if kind == "And":
            return And(formula(rng, depth - 1, positive), formula(rng, depth - 1, positive))
        if kind == "Not":
            return Not(formula(rng, depth - 1))
        return Top()

    for i, (text, e, n, grid) in enumerate(DOC_SEARCHES):
        grid = None if grid is None else grid.split(",")
        yield f"docs/{i}", lambda f=parse(text), e=e, n=n, grid=grid: search(f, e, n, grid)
    rng = random.Random(25)
    pool = ("0", "1/2", "1", "2", "3")
    for i in range(24):
        # rate a into the body with a total below b <= a: no witness
        a, b = Fraction(rng.choice("235")), Fraction(rng.choice("12"))
        f = And(L(a, formula(rng, 2, positive=True)), Not(L(b, Top())))
        grid = sorted(rng.sample(pool, 4), key=Fraction)
        e = rng.choice(("0", "1/10", "1/2"))
        yield f"queries/{i:02d}", lambda f=f, e=e, grid=grid: search(f, e, 2, grid)
    rng = random.Random(3)
    for i in range(SEARCH_CASES):
        f = formula(rng, 3)
        e = rng.choice(("0", "1/10", "1/2"))
        n = rng.randint(1, 3)
        grid = sorted(rng.sample(SEARCH_RATES, rng.randint(1, 4)), key=Fraction)
        budget = rng.choice(SEARCH_BUDGETS)
        yield f"seeded/{i:04d}", lambda args=(f, e, n, grid, budget): search(*args)


def _proofs_cases() -> Iterator[Case]:
    import random
    from fractions import Fraction

    from cml_kit.formula import And, Implies, L, Not, Or, Top, print_formula
    from cml_kit.proofcheck import axiom_instance, check_result, loads_proof

    def prove(doc: object) -> dict:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        ok, error = check_result(loads_proof(text))
        return {"ok": ok, "error": error}

    def document(e: str, lines: list, conclusion: str, hypotheses=()) -> dict:
        lines = [{"formula": f, "by": by} for f, by in lines]
        return {"epsilon": e, "hypotheses": list(hypotheses), "lines": lines,
                "conclusion": conclusion}

    a3 = print_formula(axiom_instance("A3", Fraction(1), Top(), Not(Top()), Fraction(1),
                                      Fraction(0)))
    a4 = print_formula(axiom_instance("A4", Fraction(1, 3), Top(), L(Fraction(1), Top()),
                                      Fraction(1), Fraction(2)))
    cap = " & ".join(f"L{{{r}}} T" for r in range(1, 19))  # 18 atoms
    a2 = {"axiom": "A2", "phi": "T", "r": "1", "s": "2"}
    for name, doc in (
        ("a1", document("1/2", [("L{1/2} T", {"axiom": "A1", "phi": "T"})], "L{1/2} T")),
        ("a1-mismatch", document("1/2", [("L{1} T", {"axiom": "A1", "phi": "T"})],
                                 "L{1/2} T")),
        ("a1-schema-mismatch", document("0", [("L{2} T", {"axiom": "A1"})], "L{2} T")),
        ("a2-mp-from-hypothesis", document(
            "0", [("L{3} T", {"hyp": 0}), ("L{3} T -> L{1} T", a2),
                  ("L{1} T", {"mp": [1, 2]})], "L{1} T", ["L{3} T"])),
        ("a2-sugar", document("0", [("!(L{3} T & !L{1} T)", a2)], "L{3} T -> L{1} T")),
        ("a2-soundness", document("1/3", [("L{2} T -> L{1} T",
                                           {"axiom": "A2", "r": "1", "s": "1"})],
                                  "L{2} T -> L{1} T")),
        ("a3-negative-index", document(
            "1", [("T", {"axiom": "A3", "phi": "T", "psi": "T", "r": "0", "s": "0"})], "T")),
        ("a3-boundary", document(
            "1", [(a3, {"axiom": "A3", "phi": "T", "psi": "!T", "r": "1", "s": "0"})], a3)),
        ("a4-soundness", document(
            "1/3", [(a4, {"axiom": "A4", "phi": "T", "psi": "L{1} T", "r": "1", "s": "2"})],
            a4)),
        ("dangling-reference", document("0", [("T", {"mp": [1, 2]})], "T")),
        ("mp-not-an-implication", document(
            "0", [("L{0} T", {"axiom": "A1"}), ("L{0} T", {"axiom": "A1"}),
                  ("T", {"mp": [1, 2]})], "T")),
        ("r1", document("0", [("T & T -> T", {"taut": []}),
                              ("L{2} (T & T) -> L{2} T", {"r1": [1, "2"]})],
                        "L{2} (T & T) -> L{2} T")),
        ("taut-premises", document(
            "0", [("L{1} T", {"hyp": 0}), ("L{1} T -> L{1} T", {"taut": []}),
                  ("L{1} T & L{1} T", {"taut": [1]})], "L{1} T & L{1} T", ["L{1} T"])),
        ("taut-fails", document("0", [("L{1} T", {"taut": []})], "L{1} T")),
        ("taut-first-failing-assignment", document(
            "0", [("(L{1} T -> L{2} T) & !(L{2} T & L{3} T)", {"taut": []})],
            "(L{1} T -> L{2} T) & !(L{2} T & L{3} T)")),
        ("taut-atom-cap", document("0", [(f"{cap} -> {cap}", {"taut": []})],
                                   f"{cap} -> {cap}")),
        ("conclusion-differs", document("0", [("L{0} T", {"axiom": "A1"})], "T")),
        ("format-top-level-list", [{"formula": "T", "by": {"taut": []}}]),
        ("format-mp-one-number", {"epsilon": "0", "lines": [
            {"formula": "T", "by": {"mp": [1]}}], "conclusion": "T"}),
        ("format-mp-not-numbers", {"epsilon": "0", "lines": [
            {"formula": "T", "by": {"mp": ["x", "y"]}}], "conclusion": "T"}),
        ("format-taut-not-list", {"epsilon": "0", "lines": [
            {"formula": "T", "by": {"taut": 5}}], "conclusion": "T"}),
        ("format-missing-epsilon", {"lines": [{"formula": "T", "by": {"taut": []}}],
                                    "conclusion": "T"}),
        ("format-deeply-nested", "[" * 100_000),
    ):
        yield f"tests/{name}", lambda doc=doc: prove(doc)

    def formula(rng: random.Random, atoms: list, depth: int):
        kind = rng.choice(("atom", "And", "Or", "Implies", "Not")) if depth else "atom"
        if kind == "atom":
            return rng.choice(atoms)
        if kind == "Not":
            return Not(formula(rng, atoms, depth - 1))
        build = {"And": And, "Or": Or, "Implies": Implies}[kind]
        return build(formula(rng, atoms, depth - 1), formula(rng, atoms, depth - 1))

    def tautology(premises: list, conclusion) -> dict:
        # the premises as hypotheses, then one Tautology line over them
        lines = [(print_formula(p), {"hyp": i}) for i, p in enumerate(premises)]
        lines.append((print_formula(conclusion), {"taut": list(range(1, len(premises) + 1))}))
        doc = document("0", lines, print_formula(conclusion), map(print_formula, premises))
        answer = prove(doc)
        answer["query"] = [[print_formula(p) for p in premises], print_formula(conclusion)]
        return answer

    rng = random.Random(11)
    for i in range(PROOF_CASES):
        rates = rng.sample(SEARCH_RATES, rng.randint(1, 6))
        atoms = [L(Fraction(r), Top()) for r in rates]
        f, g = formula(rng, atoms, 2), formula(rng, atoms, 2)
        # random premises and conclusion, which mostly fail, half the time;
        # else one of four shapes, three of which always hold
        shape = rng.randrange(8)
        if shape < 4:
            premises = [formula(rng, atoms, 2) for _ in range(rng.randint(0, 2))]
            conclusion = formula(rng, atoms, 3)
        elif shape == 4:
            premises, conclusion = [], Implies(f, Or(f, g))
        elif shape == 5:
            premises, conclusion = [f, Implies(f, g)], g
        elif shape == 6:
            premises, conclusion = [And(f, g)], And(g, f)
        else:
            premises, conclusion = [Or(f, g)], f
        yield f"seeded/{i:04d}", lambda args=(premises, conclusion): tautology(*args)


def _oracles_cases() -> Iterator[Case]:
    from cml_kit.harness.generate import corpus
    from cml_kit.harness.oracles import transfer_essential, transfer_plain
    from cml_kit.harness.suites import default_budget
    from cml_kit.rational import format_rate

    def transfer(oracle, kernel, e) -> dict:
        verdicts, pairs = oracle(kernel, e)
        return {"true": sorted(pair for pair, holds in verdicts.items() if holds),
                "pairs": sorted(pairs)}

    for args in ORACLE_CORPORA:
        name = "corpus({},{},{})".format(*args)
        for i, kernel in enumerate(corpus(*args)):
            for kind, oracle in (("plain", transfer_plain), ("essential", transfer_essential)):
                for e in default_budget().epsilons:
                    yield (f"{name}/{i:02d}/{kind}/e={format_rate(e)}",
                           lambda args=(oracle, kernel, e): transfer(*args))


def _measures_cases() -> Iterator[Case]:
    import random

    def measures(kernel, masks: list[int]) -> dict:
        return {"scale": kernel.scale,
                "measures": [[mask, kernel.scaled_measures(mask)] for mask in masks]}

    rng = random.Random(29)
    kernels = (*_models(), *_corpora(), *_gen_ladder(), *_ladder_unions())
    for case, kernel in kernels:
        n = len(kernel.states)
        randoms = [rng.getrandbits(n) for _ in range(MEASURE_MASKS)]
        masks = [0, *(1 << i for i in range(n)), kernel.full, *randoms]
        yield case, lambda kernel=kernel, masks=masks: measures(kernel, masks)


SECTIONS: dict[str, Callable[[], Iterator[Case]]] = {
    "partition": _partition_cases,
    "load": _load_cases,
    "orders": _orders_cases,
    "metric": _metric_cases,
    "suites": _suites_cases,
    "mutations": _mutations_cases,
    "acceptance": _acceptance_cases,
    "enumeration": _enumeration_cases,
    "evaluation": _evaluation_cases,
    "search": _search_cases,
    "proofs": _proofs_cases,
    "oracles": _oracles_cases,
    "measures": _measures_cases,
}


def dump(sections: list[str]) -> list[str]:
    """The lines of the named sections, sorted by case id."""
    lines: list[tuple[str, str]] = []
    for section in sections:
        start = time.perf_counter()
        count = 0
        for case, answer in SECTIONS[section]():
            try:
                doc = answer()
            except Exception as exc:  # a raising case is an answer too
                doc = {"error": type(exc).__name__, "message": str(exc)}
            doc["case"] = case = f"{section}/{case}"
            lines.append((case, json.dumps(doc, sort_keys=True, separators=(",", ":"))))
            count += 1
        elapsed = time.perf_counter() - start
        print(f"{section}: {count} cases in {elapsed:.2f} s", file=sys.stderr)
    return [line for _, line in sorted(lines)]


def _cases(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as f:
        return {json.loads(line)["case"]: line.rstrip("\n") for line in f}


def compare(path_a: str, path_b: str) -> tuple[bool, list[str]]:
    """Whether the dumps agree, and one report line per section: its case
    count, or its first differing case."""
    a, b = _cases(path_a), _cases(path_b)
    sections: dict[str, list[str]] = {}
    for case in sorted(a.keys() | b.keys()):
        sections.setdefault(case.split("/", 1)[0], []).append(case)
    same, report = True, []
    for section, cases in sections.items():
        differing = [c for c in cases if a.get(c) != b.get(c)]
        if not differing:
            report.append(f"{section}: {len(cases)} cases identical")
            continue
        same = False
        case = differing[0]
        report.append(
            f"{section}: {len(differing)} of {len(cases)} cases differ; first {case}\n"
            f"  A: {a.get(case, '(missing)')}\n  B: {b.get(case, '(missing)')}"
        )
    return same, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sections", nargs="*", metavar="SECTION", help=", ".join(SECTIONS))
    parser.add_argument("-o", "--output", help="write the dump here (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        same, report = compare(*args.compare)
        print("\n".join(report))
        return 0 if same else 1
    unknown = [s for s in args.sections if s not in SECTIONS]
    if unknown or not args.sections:
        parser.error(f"name sections to dump from: {', '.join(SECTIONS)}")
    text = "".join(line + "\n" for line in dump(args.sections))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
