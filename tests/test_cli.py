import contextlib
import io
import json
import os
import re
import shlex
import tempfile
import time
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cml_kit import equivalence
from cml_kit.cli import main
from cml_kit.errors import KernelError
from cml_kit.harness.suites import BUDGETS, SUITES
from cml_kit.models import FIGURES, load_model, model_path
from cml_kit.kernel import Kernel, load_kernel

MODELS_DIR = os.path.dirname(model_path("fig1"))
DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples.md")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_all_models_load_and_validate():
    for name in FIGURES:
        k = load_model(name)
        assert Kernel(k.states, {(s, t): r for s, t, r in k.rate_items()}) == k


def _documented_examples():
    text = open(DOCS, encoding="utf-8").read()
    blocks = re.findall(r"```console\n\$ (.+?)\n(.*?)```", text, re.DOTALL)
    assert blocks, "no documented examples found"
    for command, expected in blocks:
        yield command, expected.strip()


@pytest.mark.parametrize(
    "command, expected",
    list(_documented_examples()),
    ids=[c.split(None, 2)[1] + str(i) for i, (c, _) in enumerate(_documented_examples())],
)
def test_documented_examples_are_golden(capsys, command, expected):
    argv = shlex.split(command.replace("$MODELS", MODELS_DIR))[1:]
    _, out = run(capsys, argv)
    assert out.strip() == expected


def test_eval_exit_code_and_order(capsys):
    code, out = run(
        capsys, ["eval", "-m", model_path("fig1"), "-f", "L{0} T", "-e", "0"]
    )
    assert code == 0
    assert json.loads(out) == {"states": ["m", "m1", "m2", "m3", "m4", "m5"]}


def test_sat_false_exits_one(capsys):
    code, out = run(
        capsys,
        ["sat", "-m", model_path("fig1"), "-s", "m1", "-f", "L{1} T", "-e", "0"],
    )
    assert code == 1
    assert json.loads(out) == {"sat": False}


def test_valid_command(capsys):
    code, _ = run(
        capsys, ["valid", "-m", model_path("fig1"), "-f", "L{0} T", "-e", "0"]
    )
    assert code == 0
    code, _ = run(
        capsys, ["valid", "-m", model_path("fig1"), "-f", "L{1} T", "-e", "0"]
    )
    assert code == 1


def test_search_none_exits_one(capsys):
    code, out = run(
        capsys, ["search", "-f", "F", "-e", "0", "--max-states", "1", "--grid", "0,1"]
    )
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_missing_file_is_usage_error(capsys):
    code = main(["eval", "-m", "/does/not/exist.json", "-f", "T", "-e", "0"])
    assert code == 2


def test_distance_past_the_family_cap_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(equivalence, "FAMILY_CAP", 3)
    argv = ["distance", "-m1", model_path("fig4m"), "-m2", model_path("fig4o"),
            "-s1", "m", "-s2", "o"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "definable-set family exceeded 3 members" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["order", "distance"])
def test_plain_descent_past_its_budget_is_usage_error(command, monkeypatch, capsys):
    from cml_kit import orders

    monkeypatch.setattr(orders, "DESCENT_BUDGET", 1)
    argv = [command, "-m1", model_path("fig4m"), "-m2", model_path("fig4o"),
            "-s1", "m", "-s2", "o"] + (["-e", "0"] if command == "order" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "plain order descent exceeded 1 steps" in err
    assert "Traceback" not in err


def test_key_error_inside_a_command_is_not_a_usage_error(monkeypatch, capsys):
    # no documented input raises KeyError, so one is a library fault: it
    # propagates rather than ending in exit 2 with a bare key as its message
    def broken(kernel):
        raise KeyError("missing")

    monkeypatch.setattr(equivalence, "bisimulation", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["bisim", "-m", model_path("fig1")])
    assert capsys.readouterr().err == ""


def test_search_past_the_grid_cap_is_usage_error(capsys):
    # the default grid of this formula grows past GRID_CAP long before a search
    argv = ["search", "-f", "L{1/31} L{1/29} L{10} T", "-e", "0",
            "--max-states", "1", "--budget", "1"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "default rate grid exceeded" in err
    assert "Traceback" not in err


def test_search_past_the_state_cap_is_usage_error(capsys):
    # a one-rate grid tries one kernel per size, so only the state cap ends it
    argv = ["search", "-f", "L{1} T", "-e", "0", "--grid", "0", "--max-states"]
    start = time.perf_counter()
    assert main(argv + ["100000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "search_model exceeded 64 states" in err
    assert "Traceback" not in err
    assert main(argv + ["64"]) == 1


@pytest.mark.parametrize(
    "formula, epsilon", [("L{\u0663} T", "0"), ("L{3} T", "\u0660")], ids=["index", "epsilon"]
)
def test_non_ascii_digit_is_usage_error(capsys, formula, epsilon):
    # "L{٣} T" at "٠" once ran as L{3} T at slack 0
    code = main(["eval", "-m", model_path("fig1"), "-f", formula, "-e", epsilon])
    assert code == 2
    err = capsys.readouterr().err
    assert "malformed rate literal" in err
    assert "Traceback" not in err


def test_model_with_a_non_ascii_digit_is_usage_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"states": ["a", "b"], "rates": {"a": {"b": "\u0662"}}}', encoding="utf-8")
    assert main(["bisim", "-m", str(path)]) == 2
    err = capsys.readouterr().err
    assert "rates.a.b: malformed rate literal" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-m", model_path("fig1"), "-f", "L{3} T", "-e", "\u00a00"],
        ["eval", "-m", model_path("fig1"), "-f", "L{3}\u3000T", "-e", "0"],
        ["search", "-f", "L{3} T", "-e", "1", "--max-states", "1", "--grid", "0,\u30002"],
        # a token of non-ASCII whitespace only is a malformed rate, not an empty one
        ["search", "-f", "L{3} T", "-e", "1", "--max-states", "1", "--grid", "2,\u3000"],
    ],
    ids=["epsilon", "formula", "grid", "grid-blank"],
)
def test_non_ascii_whitespace_is_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "malformed rate literal" in err or "unexpected character" in err
    assert "Traceback" not in err


def test_model_with_non_ascii_whitespace_is_usage_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"states": ["a", "b"], "rates": {"a": {"b": "\u00a02"}}}', encoding="utf-8")
    assert main(["bisim", "-m", str(path)]) == 2
    err = capsys.readouterr().err
    assert "rates.a.b: malformed rate literal" in err
    assert "Traceback" not in err


def test_directory_model_is_usage_error(tmp_path, capsys):
    code = main(["eval", "-m", str(tmp_path), "-f", "T", "-e", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["bisim", "-m"], ["prove", "-p"]], ids=["model", "proof"]
)
def test_non_utf8_file_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "is not UTF-8 text" in err
    assert "Traceback" not in err


def test_deeply_nested_proof_is_usage_error(tmp_path, capsys):
    # the JSON decoder recurses once per nested array
    path = tmp_path / "proof.json"
    path.write_bytes(b"[" * 100_000)
    assert main(["prove", "-p", str(path)]) == 2
    err = capsys.readouterr().err
    assert "proof file is not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_search_nonpositive_max_states_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", "-f", "T", "-e", "0", "--max-states", value])
    assert exc.value.code == 2
    assert "--max-states" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_search_nonpositive_budget_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", "-f", "T", "-e", "0", "--budget", value])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [",", "", " , "])
def test_search_grid_without_rates_is_usage_error(capsys, grid):
    with pytest.raises(SystemExit) as exc:
        main(["search", "-f", "T", "-e", "0", "--grid", grid])
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_malformed_formula_is_usage_error(capsys):
    code = main(["eval", "-m", model_path("fig1"), "-f", "L{-1} T", "-e", "0"])
    assert code == 2


@pytest.mark.parametrize("side", ["-s1", "-s2"])
def test_order_unknown_state_names_it_untagged(capsys, side):
    states = {"-s1": "m", "-s2": "n"}
    states[side] = "zz"
    argv = ["order", "-m1", model_path("fig1"), "-m2", model_path("fig4n"), "-e", "0"]
    for flag, state in states.items():
        argv += [flag, state]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'zz'" in err
    assert "L:" not in err and "R:" not in err


def test_float_epsilon_rejected(capsys):
    code = main(["eval", "-m", model_path("fig1"), "-f", "T", "-e", "0.1.2"])
    assert code == 2


def test_prove_command(tmp_path, capsys):
    proof = {
        "epsilon": "1/2",
        "lines": [{"formula": "L{1/2} T", "by": {"axiom": "A1", "phi": "T"}}],
        "conclusion": "L{1/2} T",
    }
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    code, out = run(capsys, ["prove", "-p", str(path)])
    assert code == 0 and json.loads(out) == {"ok": True}

    proof["lines"][0]["formula"] = "L{1} T"
    path.write_text(json.dumps(proof))
    code, out = run(capsys, ["prove", "-p", str(path)])
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "schema mismatch" in json.loads(out)["error"]


_LINE = {"formula": "T", "by": {"taut": []}}


@pytest.mark.parametrize(
    "doc, path",
    [
        ([_LINE], "proof file must be a JSON object"),
        ({"epsilon": "0", "lines": [{"formula": "T", "by": {"mp": [1]}}], "conclusion": "T"},
         "lines[1].by.mp: expected two line numbers"),
        ({"epsilon": "0", "lines": [{"formula": "T", "by": {"mp": ["x", "y"]}}],
          "conclusion": "T"},
         "lines[1].by.mp: expected two line numbers"),
        ({"epsilon": "0", "lines": [{"formula": "T", "by": {"taut": 5}}], "conclusion": "T"},
         "lines[1].by.taut: expected a list of line numbers"),
        ({"lines": [_LINE], "conclusion": "T"}, "epsilon: missing field"),
        # a superscript two is a digit to str.isdigit() but not to int()
        ({"epsilon": "0", "lines": [{"formula": "T", "by": {"taut": ["\u00b2"]}}],
          "conclusion": "T"},
         "lines[1].by.taut: expected a list of line numbers"),
    ],
    ids=["top-level-list", "mp-one-number", "mp-not-numbers", "taut-not-list",
         "missing-epsilon", "taut-superscript-digit"],
)
def test_malformed_proof_is_usage_error(tmp_path, capsys, doc, path):
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps(doc))
    assert main(["prove", "-p", str(proof)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}" in err
    assert "Traceback" not in err


# shape -> (formula of n nestings, largest n within the bound); each | adds
# three core nodes, Not(And(Not(a), Not(b))), so 85 of them make 255 levels
_NESTINGS = {
    "not": (lambda n: "!" * n + "T", 256),
    "paren": (lambda n: "(" * n + "T" + ")" * n, 256),
    "modality": (lambda n: "L{1} " * n + "T", 256),
    "and-chain": (lambda n: " & ".join(["T"] * (n + 1)), 256),
    "or-chain": (lambda n: " | ".join(["T"] * (n + 1)), 85),
}


@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_formula_nesting_is_bounded(capsys, shape):
    make, limit = _NESTINGS[shape]
    argv = ["valid", "-m", model_path("fig1"), "-e", "0", "-f"]
    assert main(argv + [make(limit)]) in (0, 1)
    assert capsys.readouterr().err == ""
    for n in (limit + 1, 3000):
        assert main(argv + [make(n)]) == 2
        assert "nested more than 256 levels" in capsys.readouterr().err


def test_encode_abs_normal_form_is_bounded(capsys):
    # n conjoined disjunctions have 2**n clauses; 512 is the budget
    argv = ["encode", "--abs", "-e", "1", "-f"]
    nine, ten = (" & ".join(["(L{1} T | L{2} T)"] * n) for n in (9, 10))
    assert main(argv + [nine]) == 0
    assert capsys.readouterr().out.count("|") == 511
    assert main(argv + [ten]) == 2
    assert "normal form needs more than 512 clauses" in capsys.readouterr().err


def test_encode_abs_budget_spans_modal_depths(capsys):
    # a modal body's clauses count again at every occurrence of its literal
    argv = ["encode", "--abs", "-e", "1", "-f"]
    body = " & ".join(["(L{1} T | L{2} T)"] * 9)
    assert main(argv + ["L{1} (" + body + ")"]) == 0
    assert capsys.readouterr().out.count("|") == 511
    nested = " & ".join(["(L{1} (" + body + ") | L{2} T)"] * 9)
    for f in (nested, "L{1} (" + body + ") | T"):
        assert main(argv + [f]) == 2
        assert "normal form needs more than 512 clauses" in capsys.readouterr().err


def _balanced_conjunction(first: int, depth: int) -> str:
    # 2**depth distinct literals L{first} T ... conjoined as a balanced tree
    if depth == 0:
        return f"L{{{first}}} T"
    half = 2 ** (depth - 1)
    left = _balanced_conjunction(first, depth - 1)
    return f"({left} & {_balanced_conjunction(first + half, depth - 1)})"


def test_encode_abs_bounds_the_nesting_of_one_clause(capsys):
    # one clause of 2**depth literals, whose And chain the clause count misses
    argv = ["encode", "--abs", "-e", "1", "-f"]
    assert main(argv + [_balanced_conjunction(1, 9)]) == 0
    out = capsys.readouterr().out
    assert out.count("&") == 511 and "|" not in out
    assert main(argv + [_balanced_conjunction(1, 10)]) == 2
    err = capsys.readouterr().err
    assert "normal form nests more than 768 levels deep" in err
    assert "Traceback" not in err


# --- the model-file boundary ------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "m"])
_keys = st.one_of(_names, st.text(max_size=3))
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
_literals = st.one_of(
    st.sampled_from(
        ["0", "1", "3/2", "0.25", "007.50", " 2 ", "1/0", "-1", "x", "1e3", "", "2/"]
    ),
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,2}|/[0-9]{1,2})?", fullmatch=True),
    st.text(max_size=5),
    _json_scalars,
    st.lists(_json_scalars, max_size=2),
)
_rows = st.one_of(
    st.dictionaries(_keys, _literals, max_size=4),
    _json_scalars,
    st.lists(_literals, max_size=2),
)
_model_docs = st.one_of(
    st.fixed_dictionaries(
        {
            "states": st.one_of(
                st.lists(_names, max_size=5),
                st.lists(st.one_of(_names, _json_scalars), max_size=3),
                _json_scalars,
            ),
            "rates": st.one_of(
                st.dictionaries(_keys, _rows, max_size=4),
                _json_scalars,
            ),
        },
        optional={"comment": st.text(max_size=5), "extra": _json_scalars},
    ),
    st.recursive(_json_scalars, lambda kids: st.lists(kids, max_size=3), max_leaves=6),
)


def _bisim_on(data: bytes) -> int:
    """Exit code of `cml bisim` on a model file holding data; load_kernel may
    raise only KernelError on it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(["bisim", "-m", path])
        try:
            load_kernel(path)
        except KernelError:
            assert code == 2
        else:
            assert code == 0
    return code


@given(_model_docs)
def test_random_model_documents_exit_cleanly(doc):
    assert _bisim_on(json.dumps(doc).encode()) in (0, 2)


@given(st.binary(max_size=64))
@example(b"[" * 100_000)
@example(b'{"states": ["a"], "rates": {"a": {"a": "' + b"1" * 5000 + b'"}}}')
@example(b'{"states": ["a", "a"], "rates": {"x": {"y": "-1"}}}')
@example(b'{"states": ["a"], "rates": {"a": {"a": "\\ud800"}}}')
@example(b"\xff\xfe{}")
def test_random_model_bytes_exit_cleanly(data):
    assert _bisim_on(data) in (0, 2)


# --- formula, rate and flag boundaries of the query commands -----------------

_rate_texts = st.one_of(
    st.sampled_from(["0", "1", "3/2", "0.25", "1/0", "-1", "x", "", "2/", "1e3", "nan"]),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,2}|/[0-9]{1,3})?", fullmatch=True),
)
_formula_texts = st.one_of(
    st.recursive(
        st.sampled_from(["T", "F"]),
        lambda kids: st.one_of(
            kids.map("!{}".format),
            st.tuples(kids, st.sampled_from(["&", "|", "->", ""]), kids).map(
                lambda t: "({} {} {})".format(*t)
            ),
            st.tuples(_rate_texts, kids).map(lambda t: "L{{{}}} {}".format(*t)),
        ),
        max_leaves=6,
    ),
    st.sampled_from(["", "(", "L{}", "T T", "L{1} ", "!" * 600 + "T"]),
    st.text(max_size=12),
)
_model_paths = st.sampled_from(
    [model_path(name) for name in sorted(FIGURES)] + ["/does/not/exist.json"]
)
_fuzz = settings(deadline=timedelta(seconds=5))


def _exit_code(command: str, options: dict, flags=()) -> int:
    """Exit code of an in-process `cml` run; stderr must hold no traceback."""
    argv = [command, *(f"--{k}={v}" for k, v in options.items()), *flags]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@_fuzz
@given(_model_paths, _formula_texts, _rate_texts, st.booleans())
def test_random_eval_exits_cleanly(model, formula, epsilon, as_json):
    options = {"model": model, "formula": formula, "epsilon": epsilon}
    assert _exit_code("eval", options, ["--json"] * as_json) in (0, 2)


@_fuzz
@given(_model_paths, _formula_texts, _rate_texts, st.sampled_from(["m", "m1", "n", ""]))
def test_random_sat_exits_cleanly(model, formula, epsilon, state):
    options = {"model": model, "formula": formula, "epsilon": epsilon, "state": state}
    assert _exit_code("sat", options) in (0, 1, 2)


@_fuzz
@given(_model_paths, _formula_texts, _rate_texts)
def test_random_valid_exits_cleanly(model, formula, epsilon):
    options = {"model": model, "formula": formula, "epsilon": epsilon}
    assert _exit_code("valid", options) in (0, 1, 2)


_encode_flags = st.sampled_from(["--down", "--up", "--abs", "--json"])


@_fuzz
@given(_formula_texts, _rate_texts, st.lists(_encode_flags, max_size=2, unique=True))
def test_random_encode_exits_cleanly(formula, epsilon, flags):
    assert _exit_code("encode", {"formula": formula, "epsilon": epsilon}, flags) in (0, 2)


@_fuzz
@given(
    _formula_texts,
    _rate_texts,
    st.integers(-1, 2),
    st.integers(-1, 50),
    st.none() | st.lists(_rate_texts, max_size=3).map(",".join),
)
def test_random_search_exits_cleanly(formula, epsilon, max_states, budget, grid):
    options = {"formula": formula, "epsilon": epsilon, "max-states": max_states,
               "budget": budget}
    if grid is not None:
        options["grid"] = grid
    assert _exit_code("search", options) in (0, 1, 2)


_state_names = st.one_of(
    st.sampled_from(["m", "m1", "m5", "n", "n3", "o", "o2", "x", ""]),
    st.text(max_size=3),
)


@_fuzz
@given(_model_paths, _model_paths, _state_names, _state_names, _rate_texts, st.booleans())
def test_random_order_exits_cleanly(model1, model2, state1, state2, epsilon, essential):
    options = {"model1": model1, "model2": model2, "state1": state1, "state2": state2,
               "epsilon": epsilon}
    assert _exit_code("order", options, ["--essential"] * essential) in (0, 1, 2)


@_fuzz
@given(_model_paths, _model_paths, _state_names, _state_names)
def test_random_distance_exits_cleanly(model1, model2, state1, state2):
    options = {"model1": model1, "model2": model2, "state1": state1, "state2": state2}
    assert _exit_code("distance", options) in (0, 2)


# mostly well-formed fields, so that a document often reaches the checker
_proof_formulas = st.one_of(
    st.sampled_from(["T", "L{1/2} T", "L{1} T", "!L{1} T", "L{1} T -> L{1/2} T"]),
    _formula_texts,
    _json_scalars,
)
_proof_rates = st.one_of(st.sampled_from(["0", "1/2", "1"]), _rate_texts, _json_scalars)
_line_numbers = st.integers(-1, 3) | st.lists(st.integers(-1, 3) | _proof_rates, max_size=3)
_justifications = st.one_of(
    st.fixed_dictionaries(
        {"axiom": st.sampled_from(["A1", "A2", "A3", "A4", "A9"]) | _json_scalars},
        optional={"phi": _proof_formulas, "psi": _proof_formulas, "r": _proof_rates,
                  "s": _proof_rates},
    ),
    st.dictionaries(
        st.sampled_from(["mp", "r1", "taut", "hyp", "x"]), _line_numbers, max_size=2
    ),
    _json_scalars,
)
_proof_lines = st.fixed_dictionaries({"formula": _proof_formulas, "by": _justifications})
_proof_docs = st.one_of(
    st.fixed_dictionaries(
        {"epsilon": _proof_rates, "lines": st.lists(_proof_lines, max_size=3),
         "conclusion": _proof_formulas},
        optional={"hypotheses": st.lists(_proof_formulas, max_size=2)},
    ),
    st.recursive(_json_scalars, lambda kids: st.lists(kids, max_size=3), max_leaves=4),
)


@settings(_fuzz, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_proof_docs)
def test_random_proofs_exit_cleanly(tmp_path, doc):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(doc))
    assert _exit_code("prove", {"proof": path}) in (0, 1, 2)


# a random name is never that of a suite or budget: "all" or "full" runs for minutes
_suite_texts = st.just("l5-orders") | st.text(max_size=6).filter(
    lambda name: name != "all" and name not in SUITES
)
_budget_texts = st.just("small") | st.text(max_size=6).filter(
    lambda name: name not in BUDGETS
)


@settings(_fuzz, max_examples=20)
@given(_suite_texts, _budget_texts)
def test_random_verify_exits_cleanly(suite, budget):
    assert _exit_code("verify", {"suite": suite, "budget": budget}) in (0, 1, 2)


def test_json_envelope_is_schema_tagged(capsys):
    _, out = run(
        capsys,
        ["eval", "-m", model_path("fig1"), "-f", "T", "-e", "0", "--json"],
    )
    doc = json.loads(out)
    assert doc["schema"] == "cml-kit/1"
    assert doc["command"] == "eval"


def test_dot_output(capsys):
    _, out = run(capsys, ["bisim", "-m", model_path("fig1"), "--dot"])
    assert out.startswith("digraph kernel {")
    assert '"m" -> "m2" [label="3"];' in out


def test_bisim_on_a_long_chain(tmp_path, capsys):
    # every state of a chain is its own block; refinement and the printed
    # blocks both stay near linear in the states
    states = [f"c{i}" for i in range(20_000)]
    doc = {"states": states, "rates": {s: {t: "1"} for s, t in zip(states, states[1:])}}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, out = run(capsys, ["bisim", "-m", str(path)])
    assert code == 0
    assert json.loads(out)["blocks"] == [[s] for s in states]
    assert time.perf_counter() - start < 20


def test_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    path = tmp_path / "model.json"
    doc = {"states": ['a"b', "c\\"], "rates": {'a"b': {"c\\": "1"}}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, ["bisim", "-m", str(path), "--dot"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1:4] == [
        '  "a\\"b" [label="a\\"b\\nblock 0"];',
        '  "c\\\\" [label="c\\\\\\nblock 1"];',
        '  "a\\"b" -> "c\\\\" [label="1"];',
    ]
    # every quote opens or closes a well-formed DOT quoted string
    for line in lines:
        assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line)


def test_verify_single_suite(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = run(
        capsys,
        [
            "verify", "--suite", "t1-generators", "--budget", "small",
            "--seed", "3", "--report", str(report),
        ],
    )
    assert code == 0
    assert "t1-generators: ok" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == "cml-kit/1"
    assert doc["reports"][0]["suite"] == "t1-generators"
    assert doc["reports"][0]["failures"] == []


def test_verify_unwritable_report_fails_before_any_suite(tmp_path, capsys, monkeypatch):
    from cml_kit.harness import suites

    ran = []
    monkeypatch.setattr(suites, "run_suite", lambda *args: ran.append(args))
    report = tmp_path / "missing" / "report.json"
    code = main(["verify", "--budget", "full", "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 2
    assert ran == [] and captured.out == ""
    assert captured.err.startswith("error: ") and str(report) in captured.err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_unknown_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--budget", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --budget: invalid choice: 'bogus' (choose from " in err
