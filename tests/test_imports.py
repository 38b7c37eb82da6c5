"""The package root resolves its names lazily; each `cml` command loads only
the modules it runs."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import cml_kit
from cml_kit.models import model_path

# every name the package root exported, by defining module
ROOT_API = {
    "rational": "Rate ensure_rate format_rate parse_rate",
    "errors": "CMLError FormulaSyntaxError InternalCheckError KernelError "
    "ProofCheckError ProofFormatError RateError SearchBudgetExceeded",
    "kernel": "Kernel disjoint_union kernel_to_doc left_tag load_kernel "
    "loads_kernel right_tag",
    "formula": "And Bot Formula Fragment Implies L Not Or Top encode_abs "
    "encode_down encode_up parse print_formula strip_sugar",
    "semantics": "Evaluator default_rate_grid eval_formula sat search_model valid_on",
    "equivalence": "Partition bisimulation generators partition_from_family",
    "orders": "OrderSolver holds",
    "metric": "Distance distance",
    "proofcheck": "Axiom Hypothesis ModusPonens Proof ProofLine RuleR1 Tautology "
    "axiom_instance check check_result load_proof loads_proof translate_proof",
}


@pytest.mark.parametrize("module", ROOT_API)
def test_root_names_are_the_defining_modules_objects(module):
    defining = import_module(f"cml_kit.{module}")
    for name in ROOT_API[module].split():
        assert getattr(cml_kit, name) is getattr(defining, name), name


def test_root_exports_exactly_the_api():
    assert cml_kit.__all__ == sorted(n for names in ROOT_API.values() for n in names.split())


def test_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cml_kit.no_such_name
    with pytest.raises(ImportError):
        from cml_kit import no_such_name  # noqa: F401


# runs one command, then prints the cml_kit modules it loaded, and dataclasses
# or inspect if it loaded them, on a last line
SCRIPT = (
    "import sys\n"
    "from cml_kit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules\n"
    "              if m.startswith('cml_kit') or m in ('dataclasses', 'inspect')))\n"
    "sys.exit(code)\n"
)
UNUSED = {"cml_kit.harness", "cml_kit.proofcheck", "cml_kit.orders", "cml_kit.metric"}
QUERY = UNUSED | {"cml_kit.equivalence"}
FIG1 = model_path("fig1")
PROOF = {
    "epsilon": "1/2",
    "lines": [{"formula": "L{1/2} T", "by": {"axiom": "A1", "phi": "T"}}],
    "conclusion": "L{1/2} T",
}

# each command's arguments, a module it runs and the modules it must not load
COMMANDS = {
    "eval": (["eval", "-m", FIG1, "-f", "L{5} L{4} T", "-e", "0"], "cml_kit.semantics", QUERY),
    "sat": (
        ["sat", "-m", FIG1, "-s", "m", "-f", "L{5} T", "-e", "0"], "cml_kit.semantics", QUERY
    ),
    "valid": (["valid", "-m", FIG1, "-f", "T", "-e", "0"], "cml_kit.semantics", QUERY),
    "encode": (["encode", "--abs", "-f", "!L{1} T", "-e", "1"], "cml_kit.formula", QUERY),
    "search": (
        ["search", "-f", "L{3} T", "-e", "1", "--max-states", "1", "--grid", "0,2"],
        "cml_kit.semantics",
        QUERY,
    ),
    "bisim": (["bisim", "-m", FIG1], "cml_kit.equivalence", UNUSED),
    "order": (
        ["order", "-m1", model_path("fig3m"), "-m2", model_path("fig3n"),
         "-s1", "m", "-s2", "n", "-e", "1/5"],
        "cml_kit.orders",
        UNUSED - {"cml_kit.orders"},
    ),
    "distance": (
        ["distance", "-m1", model_path("fig4m"), "-m2", model_path("fig4o"),
         "-s1", "m", "-s2", "o"],
        "cml_kit.metric",
        UNUSED - {"cml_kit.orders", "cml_kit.metric"},
    ),
    "prove": (["prove", "-p", "$PROOF"], "cml_kit.proofcheck", QUERY - {"cml_kit.proofcheck"}),
    "verify": (
        ["verify", "--suite", "l4-translation", "--budget", "small"],
        "cml_kit.harness.suites",
        {"cml_kit.metric"},
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_loads_only_what_it_runs(command, tmp_path):
    argv, used, unused = COMMANDS[command]
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps(PROOF))
    argv = [str(proof) if arg == "$PROOF" else arg for arg in argv]
    src = os.path.dirname(os.path.dirname(cml_kit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert used in loaded
    assert not loaded & unused
    # the value classes are errors.Record subclasses or plain classes
    assert not loaded & {"dataclasses", "inspect"}
