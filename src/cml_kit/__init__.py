"""cml-kit: exact-rational tooling for slack-parameterized Markovian logic."""

from .rational import Rate, ensure_rate, format_rate, parse_rate
from .errors import (
    CMLError,
    FormulaSyntaxError,
    InternalCheckError,
    KernelError,
    ProofCheckError,
    ProofFormatError,
    RateError,
    SearchBudgetExceeded,
)
from .kernel import (
    Kernel,
    disjoint_union,
    kernel_to_doc,
    left_tag,
    load_kernel,
    loads_kernel,
    right_tag,
)
from .formula import (
    And,
    Bot,
    Formula,
    Fragment,
    Implies,
    L,
    Not,
    Or,
    Top,
    encode_abs,
    encode_down,
    encode_up,
    in_fragment,
    normal_form,
    parse,
    print_formula,
    strip_sugar,
)
from .semantics import (
    Evaluator,
    default_rate_grid,
    eval_formula,
    sat,
    search_model,
    valid_on,
)
from .equivalence import (
    GeneratorFamily,
    Partition,
    bisimilar,
    bisimulation,
    generators,
    partition_from_family,
)
from .orders import EpsilonOrder, OrderSolver, holds
from .metric import Distance, distance
from .proofcheck import (
    Axiom,
    Hypothesis,
    ModusPonens,
    Proof,
    ProofLine,
    RuleR1,
    Tautology,
    axiom_instance,
    check,
    check_result,
    load_proof,
    loads_proof,
    translate_proof,
)

__version__ = "0.1.0"
