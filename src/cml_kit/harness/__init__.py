"""Property-suite harness: generation, enumeration, suites, shrinking, mutations."""

from .enumerate import EnumerationConfig, FormulaEnumeration, enumerate_formulas
from .generate import (
    DEFAULT_POOL,
    KernelGenConfig,
    chain_kernel,
    corpus,
    gen_kernel,
    split_kernel,
    twin_kernel,
)
from .shrink import shrink
from .suites import (
    BUDGETS,
    Budget,
    Failure,
    SUITES,
    SuiteReport,
    default_budget,
    full_budget,
    run_suite,
    small_budget,
)
from . import mutations
