"""The package root resolves its names lazily; each `cml` command loads only
the modules it runs."""

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
    "encode_down encode_up in_fragment normal_form parse print_formula strip_sugar",
    "semantics": "Evaluator default_rate_grid eval_formula sat search_model valid_on",
    "equivalence": "Partition bisimilar bisimulation generators "
    "partition_from_family",
    "orders": "EpsilonOrder OrderSolver holds",
    "metric": "Distance distance",
    "proofcheck": "Axiom Hypothesis ModusPonens Proof ProofLine RuleR1 Tautology "
    "axiom_instance check check_result load_proof loads_proof translate_proof",
}


@pytest.mark.parametrize("module", ROOT_API)
def test_root_names_are_the_defining_modules_objects(module):
    defining = import_module(f"cml_kit.{module}")
    for name in ROOT_API[module].split():
        assert getattr(cml_kit, name) is getattr(defining, name), name


def test_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cml_kit.no_such_name
    with pytest.raises(ImportError):
        from cml_kit import no_such_name  # noqa: F401


# runs one command, then prints the cml_kit modules it loaded on a last line
SCRIPT = (
    "import sys\n"
    "from cml_kit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(m for m in sys.modules if m.startswith('cml_kit')))\n"
    "sys.exit(code)\n"
)
UNUSED = {"cml_kit.harness", "cml_kit.proofcheck", "cml_kit.orders", "cml_kit.metric"}


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (["eval", "-f", "L{5} L{4} T", "-e", "0"], "cml_kit.semantics",
         UNUSED | {"cml_kit.equivalence"}),
        (["bisim"], "cml_kit.equivalence", UNUSED),
    ],
    ids=["eval", "bisim"],
)
def test_a_command_loads_only_what_it_runs(argv, used, unused):
    src = os.path.dirname(os.path.dirname(cml_kit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv, "-m", model_path("fig1")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert used in loaded
    assert not loaded & unused
