import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "dump.py")


def _dump_module():
    spec = importlib.util.spec_from_file_location("dump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partition_dump_is_repeatable(tmp_path, capsys):
    dump = _dump_module()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["partition", "-o", str(first)]) == 0
    assert dump.main(["partition", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    lines = first.read_text().splitlines()
    cases = [json.loads(line)["case"] for line in lines]
    assert len(cases) == 237 and cases == sorted(set(cases))
    assert "partition: 237 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "partition: 237 cases identical\n"


def test_load_dump_is_repeatable(tmp_path, capsys):
    dump = _dump_module()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["load", "-o", str(first)]) == 0
    assert dump.main(["load", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = [json.loads(line) for line in first.read_text().splitlines()]
    cases = [doc["case"] for doc in docs]
    assert len(cases) == 600 and cases == sorted(set(cases))
    loaded = [doc for doc in docs if "error" not in doc]
    assert all(len(doc["totals"]) == len(doc["states"]) for doc in loaded)
    assert sum(doc["case"].startswith("load/pool/") for doc in loaded) == 36
    # the malformed documents: all but two are errors; the two hold only the
    # valid literal " 2 " as their fault
    malformed = [doc for doc in docs if doc["case"].startswith("load/malformed/")]
    assert len(malformed) == 300 and sum("error" in doc for doc in malformed) == 298
    # the shuffled documents are valid
    shuffled = [doc for doc in docs if doc["case"].startswith("load/shuffled/")]
    assert len(shuffled) == 200 and not any("error" in doc for doc in shuffled)
    assert "load: 600 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "load: 600 cases identical\n"


def test_orders_dump_is_repeatable(tmp_path, capsys, monkeypatch):
    dump = _dump_module()
    # the chain ladder's short end; the whole ladder takes about 5 s per run
    monkeypatch.setattr(dump, "CHAIN_STATES", 30)
    monkeypatch.setattr(dump, "CHAIN_UNION_STATES", 20)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["orders", "-o", str(first)]) == 0
    assert dump.main(["orders", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    assert len(docs) == 194 and list(docs) == sorted(docs)
    assert not any("error" in doc for doc in docs.values())
    # the ladder unions dump their family only
    ladder = [doc for case, doc in docs.items() if case.startswith("orders/ladder/")]
    assert [len(doc["family"]) for doc in ladder] == [357, 2784, 1490]
    assert all(set(doc) == {"case", "family"} for doc in ladder)
    # the chain ladder dumps the plain order at 0 and the stages, and the
    # essential order at 0 on ESSENTIAL_CHAINS
    chains = [case for case in docs if case.startswith(("orders/chain/", "orders/chains/"))]
    assert chains == [
        "orders/chain/010", "orders/chain/020", "orders/chain/030",
        "orders/chains/010", "orders/chains/020",
    ]
    essential = [case for case in chains if case[len("orders/"):] in dump.ESSENTIAL_CHAINS]
    assert essential == ["orders/chain/010", "orders/chain/020", "orders/chains/020"]
    for case in chains:
        extra = {"essential"} if case in essential else set()
        assert set(docs[case]) == {"case", "plain", "stages"} | extra
    assert all(set(docs[case]["essential"]) == {"0"} for case in essential)
    fig1 = docs["orders/model/fig1"]
    assert set(fig1["plain"]) == set(fig1["essential"]) == {"0", "1/10", "1/2", "1", "5/2"}
    assert len(fig1["family"]) == len(fig1["family_blocks"])
    assert "orders: 194 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "orders: 194 cases identical\n"


def test_metric_dump_is_repeatable(tmp_path, capsys, monkeypatch):
    dump = _dump_module()
    # the two smaller corpora keep the two runs near a second; all four take
    # about 2 s per run
    monkeypatch.setattr(dump, "CORPORA", dump.CORPORA[:2])
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["metric", "-o", str(first)]) == 0
    assert dump.main(["metric", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    assert len(docs) == 129 and list(docs) == sorted(docs)
    assert not any("error" in doc for doc in docs.values())
    unions = [doc for case, doc in docs.items() if case.startswith("metric/union/")]
    assert len(unions) == 49 and sum(len(doc["distance"]) for doc in unions) == 38 * 38
    for doc in docs.values():
        rows = {(m, n): (value, attained) for m, n, value, attained in doc["distance"]}
        assert all(value == attained for value, attained in rows.values())
    # a model against itself: each state is at distance 0 from itself, and
    # the distance is symmetric
    own = {(m, n): value for m, n, value, _ in docs["metric/union/fig4m+fig4m"]["distance"]}
    assert all(own[m, m] == "0" and own[m, n] == own[n, m] for m, n in own)
    assert ["m", "o", "3/10", "3/10"] in docs["metric/union/fig4m+fig4o"]["distance"]
    assert "metric: 129 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "metric: 129 cases identical\n"


def test_search_dump_is_repeatable(tmp_path, capsys, monkeypatch):
    dump = _dump_module()
    monkeypatch.setattr(dump, "SEARCH_CASES", 400)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["search", "-o", str(first)]) == 0
    assert dump.main(["search", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    assert len(docs) == 428 and list(docs) == sorted(docs)
    assert docs["search/docs/0"] == {
        "case": "search/docs/0",
        "query": ["L{3} T", "1", 1, ["0", "2"], 500_000],
        "found": {"witness": "s0", "model": {"states": ["s0"], "rates": {"s0": {"s0": "2"}}}},
    }
    queries = [doc for case, doc in docs.items() if case.startswith("search/queries/")]
    assert len(queries) == 24 and all(doc["found"] is None for doc in queries)
    # the seeded queries end in each of the three outcomes
    seeded = [doc for case, doc in docs.items() if case.startswith("search/seeded/")]
    budget = [doc for doc in seeded if "error" in doc]
    assert all(doc["error"] == "SearchBudgetExceeded" for doc in budget)
    found = [doc for doc in seeded if doc.get("found")]
    assert budget and found and len(budget) + len(found) < len(seeded)
    assert "search: 428 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "search: 428 cases identical\n"


def test_proofs_dump_is_repeatable(tmp_path, capsys, monkeypatch):
    dump = _dump_module()
    monkeypatch.setattr(dump, "PROOF_CASES", 300)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["proofs", "-o", str(first)]) == 0
    assert dump.main(["proofs", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    assert len(docs) == 323 and list(docs) == sorted(docs)
    assert docs["proofs/tests/a1"] == {"case": "proofs/tests/a1", "ok": True, "error": None}
    assert docs["proofs/tests/taut-first-failing-assignment"]["error"] == (
        "line 1: tautology check failed under assignment L{1} T=0, L{2} T=1, L{3} T=1"
    )
    assert docs["proofs/tests/format-missing-epsilon"]["error"] == "ProofFormatError"
    # the seeded documents both check and fail, and every failure names an
    # assignment of the tautology line, which is the last line
    seeded = [doc for case, doc in docs.items() if case.startswith("proofs/seeded/")]
    failed = [doc for doc in seeded if not doc["ok"]]
    assert 0 < len(failed) < len(seeded)
    for doc in failed:
        premises, _ = doc["query"]
        assert doc["error"].startswith(
            f"line {len(premises) + 1}: tautology check failed under assignment "
        )
    assert "proofs: 323 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "proofs: 323 cases identical\n"


def test_oracles_dump_is_repeatable(tmp_path, capsys, monkeypatch):
    dump = _dump_module()
    monkeypatch.setattr(dump, "ORACLE_CORPORA", ((10, 4, 3),))
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["oracles", "-o", str(first)]) == 0
    assert dump.main(["oracles", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    # 10 kernels, 2 oracles, 5 slacks
    assert len(docs) == 100 and list(docs) == sorted(docs)
    assert not any("error" in doc for doc in docs.values())
    slacks = ("0", "1/10", "1/3", "1", "5/2")
    for i in range(10):
        plain = [docs[f"oracles/corpus(10,4,3)/{i:02d}/plain/e={e}"] for e in slacks]
        # the plain order is reflexive and grows with the slack
        states = {m for doc in plain for pair in doc["true"] for m in pair}
        assert all([m, m] in plain[0]["true"] for m in states)
        for lo, hi in zip(plain, plain[1:]):
            assert set(map(tuple, lo["true"])) <= set(map(tuple, hi["true"]))
    # the first kernel has the one state s0; its pairs are the empty and the
    # full pair
    first_case = docs["oracles/corpus(10,4,3)/00/plain/e=0"]
    assert first_case == {"case": "oracles/corpus(10,4,3)/00/plain/e=0",
                          "pairs": [0, 3], "true": [["s0", "s0"]]}
    assert "oracles: 100 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "oracles: 100 cases identical\n"


def test_measures_dump_is_repeatable(tmp_path, capsys):
    dump = _dump_module()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["measures", "-o", str(first)]) == 0
    assert dump.main(["measures", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    # 7 models, 49 unions, 130 corpus kernels, 8 gen_kernel and 3 ladder unions
    assert len(docs) == 197 and list(docs) == sorted(docs)
    assert not any("error" in doc for doc in docs.values())
    for doc in docs.values():
        masks = [mask for mask, _ in doc["measures"]]
        n = len(doc["measures"][0][1])
        full = (1 << n) - 1
        assert masks[:n + 2] == [0, *(1 << i for i in range(n)), full]
        assert len(masks) == n + 2 + dump.MEASURE_MASKS
        assert all(0 <= mask <= full for mask in masks)
        # the empty mask has no mass, and the single states' add up to the full mask's
        measures = [m for _, m in doc["measures"]]
        assert measures[0] == [0] * n
        assert list(map(sum, zip(*measures[1:n + 1]))) == measures[n + 1]
    assert "measures: 197 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "measures: 197 cases identical\n"


def test_acceptance_dump_runs_each_criterion_at_its_budget(tmp_path, capsys, monkeypatch):
    from fractions import Fraction

    from cml_kit.harness import suites

    dump = _dump_module()
    budgets = {}

    def run_suite(name, budget):
        budgets[name] = budget
        return suites.SuiteReport(name, seed=budget.seed)

    # the suites themselves run in tests/test_acceptance.py
    monkeypatch.setattr(suites, "run_suite", run_suite)
    path = tmp_path / "acceptance.jsonl"
    assert dump.main(["acceptance", "-o", str(path)]) == 0
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [doc["case"] for doc in docs] == [
        "acceptance/03/t2", "acceptance/04/c2",
        "acceptance/04/l1-positive-monotonicity", "acceptance/04/l2-limit",
        "acceptance/05/t1-generators", "acceptance/06/paramcharact",
        "acceptance/07/characterization", "acceptance/07/generalization",
        "acceptance/09/pseudometric", "acceptance/10/deduction",
        "acceptance/10/soundness",
    ]
    assert all("elapsed_s" not in doc and doc["seed"] == 7 for doc in docs)
    assert "acceptance: 11 cases in" in capsys.readouterr().err
    assert budgets["t2"] == suites.Budget(kernels=12, max_states=5, depth=2, max_formulas=400)
    assert budgets["generalization"] == budgets["characterization"] == suites.Budget(
        kernels=50, max_states=4, depth=2, max_formulas=150,
        epsilons=tuple(map(Fraction, ("0", "1/10", "1/3", "1"))),
    )
    assert budgets["soundness"] == budgets["deduction"]
    assert budgets["soundness"].kernels == 8 and budgets["pseudometric"].max_states == 8


def test_enumeration_dump_is_repeatable(tmp_path, capsys):
    dump = _dump_module()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["enumeration", "-o", str(first)]) == 0
    assert dump.main(["enumeration", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    # 3 budgets, 5 grids, 2 fragments, 2 depths
    assert len(docs) == 60 and list(docs) == sorted(docs)
    assert not any("error" in doc for doc in docs.values())
    grids = ("0", "0,1/2,1", "0,1,2", "fig1", "fig1+0,1/2,2")
    assert list(docs) == sorted(
        f"enumeration/{budget}/{grid}/{fragment}/depth={depth}"
        for budget in ("small", "default", "full") for grid in grids
        for fragment in ("full", "positive") for depth in (1, None)
    )
    assert docs["enumeration/small/0/full/depth=1"] == {
        "case": "enumeration/small/0/full/depth=1",
        "formulas": ["T", "L{0} T", "!T", "T & T"], "truncated": False,
    }
    assert docs["enumeration/small/0/positive/depth=1"]["formulas"] == [
        "T", "L{0} T", "T & T", "T | T",
    ]
    # the full budget's depth 3 reaches its cap of 900 formulas
    capped = docs["enumeration/full/0,1,2/full/depth=None"]
    assert capped["truncated"] and len(capped["formulas"]) == 900
    assert "enumeration: 60 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "enumeration: 60 cases identical\n"


def test_evaluation_dump_is_repeatable(tmp_path, capsys):
    dump = _dump_module()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert dump.main(["evaluation", "-o", str(first)]) == 0
    assert dump.main(["evaluation", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    docs = {doc["case"]: doc for doc in map(json.loads, first.read_text().splitlines())}
    # 10 corpus kernels and fig1, 2 fragments, 5 slacks
    assert len(docs) == 110 and list(docs) == sorted(docs)
    assert not any("error" in doc for doc in docs.values())
    slacks = ("0", "1/10", "1/3", "1", "5/2")
    fig1 = [docs[f"evaluation/fig1/positive/e={e}"]["evaluation"] for e in slacks]
    # T first, everywhere and with no modal comparison; each positive
    # formula's mask grows with the slack
    assert all(rows[0] == [(1 << 6) - 1, None] for rows in fig1)
    for lo, hi in zip(fig1, fig1[1:]):
        assert all(a & ~b == 0 for (a, _), (b, _) in zip(lo, hi))
    assert any(margin is not None for rows in fig1 for _, margin in rows)
    assert "evaluation: 110 cases in" in capsys.readouterr().err
    assert dump.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "evaluation: 110 cases identical\n"


def test_compare_reports_the_first_differing_case(tmp_path, capsys):
    dump = _dump_module()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"blocks":[["x"]],"case":"partition/k1"}\n{"blocks":[],"case":"partition/k2"}\n')
    b.write_text('{"blocks":[["y"]],"case":"partition/k1"}\n')
    assert dump.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("partition: 2 of 2 cases differ; first partition/k1\n")
    assert '  B: {"blocks":[["y"]],"case":"partition/k1"}' in out
