"""Exception hierarchy and immutable record base shared by all cml_kit modules."""


class Record:
    """Immutable value record: field-wise ``==`` and hash, and the repr
    ``Name(field=value, ...)``.

    A subclass declares its fields as class annotations, in order; a field
    with a class-level value defaults to it. The constructor takes the fields
    positionally or by keyword.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = cls.__dict__
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields if name in own}

    def __init__(self, *args: object, **kwargs: object):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments")
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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
