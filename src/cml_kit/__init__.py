"""cml-kit: exact-rational tooling for slack-parameterized Markovian logic.

Each public name loads its defining module on first use (PEP 562), so
``import cml_kit`` stays cheap and ``from cml_kit import X`` loads only what X
needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports at the package root
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
