from fractions import Fraction

import pytest

from cml_kit import And, Kernel, L, Not, Top
from cml_kit.models import load_model


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
