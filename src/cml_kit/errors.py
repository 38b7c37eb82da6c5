"""Exception hierarchy shared by all cml_kit modules."""


class CMLError(Exception):
    """Base class for all domain errors raised by cml_kit."""


class RateError(CMLError, ValueError):
    """A rate literal is malformed or negative."""


class KernelError(CMLError, ValueError):
    """A kernel violates an invariant (duplicate state, negative rate, unknown state)."""


class FormulaSyntaxError(CMLError, ValueError):
    """Concrete-syntax parse failure, with the offending position."""

    def __init__(self, message: str, position: int, text: str = ""):
        self.position = position
        self.text = text
        super().__init__(f"{message} (at position {position})")


class ProofCheckError(CMLError, ValueError):
    """A proof line fails its justification; carries the 1-based line index."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ProofFormatError(CMLError, ValueError):
    """A proof file is malformed; the message names the offending field path."""


class SearchBudgetExceeded(CMLError, RuntimeError):
    """A bounded search ran out of budget before exhausting its space."""


class InternalCheckError(CMLError, AssertionError):
    """A self-check that should be unreachable failed; indicates a bug, not bad input."""
