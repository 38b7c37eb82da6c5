"""Formula syntax: core AST, concrete-syntax parser/printer, fragments, encodings.

The core AST has exactly four constructors: Top, Not, And and the indexed
modality L. Disjunction, implication and falsum are parser sugar expanded to
core nodes; the expansion is remembered in a ``sugar`` tag on the Not node so
that printing round-trips.

The encodings ``encode_down``, ``encode_up`` and ``encode_abs`` take a list
of formulas and return their images. Like ``Evaluator.masks``, each call
keeps a memo keyed by node id only while it runs, so the nodes its formulas
share are encoded once and share their images.

Concrete grammar (ASCII, whitespace too), precedence ``!``/``L{r}`` > ``&`` >
``|`` > ``->``:

    phi  ::= "T" | "F" | "!" phi | phi "&" phi | phi "|" phi
           | phi "->" phi | "L{" rate "}" phi | "(" phi ")"
    rate ::= decimal | integer "/" integer
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Iterator

from .errors import FormulaSyntaxError, RateError, Record, SearchBudgetExceeded
from .rational import Rate, ensure_rate, format_rate


class Formula:
    """Base class; all nodes are immutable and hashable.

    Each node compares and hashes by its class and its field tuple, declares
    its fields as ``__slots__`` (a node has no ``__dict__``), and sets them
    once in ``__init__`` through ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Top(Formula):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "Top()"


class Not(Formula):
    __slots__ = ("child", "sugar")
    child: Formula
    # "or" / "implies" / "bot" when this negation encodes parser sugar
    sugar: str | None

    def __init__(self, child: Formula, sugar: str | None = None):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "sugar", sugar)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.child, self.sugar) == (other.child, other.sugar)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.child, self.sugar))

    def __repr__(self) -> str:
        if self.sugar:
            return f"Not({self.child!r}, sugar={self.sugar!r})"
        return f"Not({self.child!r})"


class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __repr__(self) -> str:
        return f"And({self.left!r}, {self.right!r})"


class L(Formula):
    __slots__ = ("rate", "child")
    rate: Fraction
    child: Formula

    def __init__(self, rate: Rate, child: Formula):
        object.__setattr__(self, "rate", ensure_rate(rate))
        object.__setattr__(self, "child", child)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.rate, self.child) == (other.rate, other.child)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rate, self.child))

    def __repr__(self) -> str:
        return f"L({format_rate(self.rate)!s}, {self.child!r})"


def Bot() -> Formula:
    return Not(Top(), sugar="bot")


def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)), sugar="or")


def Implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)), sugar="implies")


def is_bot(f: Formula) -> bool:
    return isinstance(f, Not) and f.sugar == "bot" and isinstance(f.child, Top)


def or_operands(f: Formula) -> tuple[Formula, Formula] | None:
    """The (left, right) of an Or-sugared node, else None."""
    if (
        isinstance(f, Not)
        and f.sugar == "or"
        and isinstance(f.child, And)
        and isinstance(f.child.left, Not)
        and isinstance(f.child.right, Not)
    ):
        return f.child.left.child, f.child.right.child
    return None


def implies_operands(f: Formula) -> tuple[Formula, Formula] | None:
    """The (antecedent, consequent) of any implication-shaped node."""
    if isinstance(f, Not) and isinstance(f.child, And) and isinstance(f.child.right, Not):
        if f.sugar in (None, "implies"):
            return f.child.left, f.child.right.child
    return None


def strip_sugar(f: Formula) -> Formula:
    """Erase sugar tags; the result is the bare core AST."""
    if isinstance(f, Top):
        return f
    if isinstance(f, Not):
        return Not(strip_sugar(f.child))
    if isinstance(f, And):
        return And(strip_sugar(f.left), strip_sugar(f.right))
    if isinstance(f, L):
        return L(f.rate, strip_sugar(f.child))
    raise TypeError(f"not a formula node: {f!r}")


class Fragment(Enum):
    """The sublanguages the suites enumerate: the positive fragment, built
    from T, &, | and L only, and the full language."""

    POSITIVE = "positive"
    FULL = "full"


# --- encodings ---------------------------------------------------------------


def _down_index(r: Rate, e: Rate) -> Rate:
    """Truncated subtraction: max(0, r - e)."""
    shifted = r - e
    return shifted if shifted > 0 else Fraction(0)


def encode_down(formulas: Iterable[Formula], e: Rate) -> list[Formula]:
    """Each formula with every modal index shifted down by e, truncating at
    0; homomorphic elsewhere.

    Each node of the list is shifted once per call, so a node that several
    formulas share has one image, shared by their images too; each rate
    object, which the ``L`` nodes of enumerated formulas share, is shifted
    once too. The call freezes the list into a tuple, coerces e once and keeps a memo
    mapping the id of each node to its image and of each ``L`` node's rate
    to the shifted rate; the tuple keeps every object the memo keys alive,
    so no id is reused within the call, and the memo is dropped when the
    call returns.
    """
    e = ensure_rate(e)
    down = _down_index
    return _shift(formulas, lambda r: down(r, e))


def encode_up(formulas: Iterable[Formula], e: Rate) -> list[Formula]:
    """Each formula with every modal index shifted up by e; homomorphic
    elsewhere. A call shares images as ``encode_down``'s does."""
    e = ensure_rate(e)
    return _shift(formulas, lambda r: r + e)


def _shift(formulas: Iterable[Formula], index: Callable[[Rate], Rate]) -> list[Formula]:
    # each formula with every modal index r replaced by index(r); the memo
    # maps id(node) to its image and id(r) to index(r) for this call. Top is
    # its own image and is not kept.
    formulas = tuple(formulas)  # holds every node and rate the memo keys
    memo: dict[int, Formula | Rate] = {}

    def shift(f: Formula) -> Formula:
        cls = f.__class__
        if cls is Top:
            return f
        key = id(f)
        out = memo.get(key)
        if out is not None:
            return out
        if cls is L:
            rate = memo.get(id(f.rate))
            if rate is None:
                rate = memo[id(f.rate)] = index(f.rate)
            out = L(rate, shift(f.child))
        elif cls is And:
            out = And(shift(f.left), shift(f.right))
        elif cls is Not:
            out = Not(shift(f.child), f.sugar)
        else:
            raise TypeError(f"not a formula node: {f!r}")
        memo[key] = out
        return out

    return [shift(f) for f in formulas]


# The most clauses a normal form may have, counted across modal depths: its
# own clauses plus the disjunctions of a modal literal's unrolled body at
# every occurrence of the literal, since the output spells the body out there.
# So the printed normal form holds fewer than 512 "|". Each conjunct with a
# disjunction can double the count, and the Or chains that join the clauses
# stack through the modal bodies, so the count bounds both size and depth.
DNF_CLAUSE_BUDGET = 512

# The deepest a normal form may nest: its Or chain, one clause's And chain and
# the literal below it, whose body nests again. The printer and the evaluator
# recurse once per level of the result, and a single clause of many literals
# is not bounded by the clause count. DNF_CLAUSE_BUDGET + MAX_DEPTH levels: room for the
# longest Or chain the clause budget allows and MAX_DEPTH more, well inside
# the interpreter's recursion limit of 1000.
NF_NESTING_BUDGET = 768


def _join(clauses: list[tuple[list[Formula], int]]) -> tuple[Formula, int]:
    # the Or of the clauses' And chains and its nesting, checked before either
    # is built; a clause carries the nesting of its deepest literal
    nesting = len(clauses) - 1 + max(len(c) - 1 + deepest for c, deepest in clauses)
    if nesting > NF_NESTING_BUDGET:
        raise SearchBudgetExceeded(
            f"normal form nests more than {NF_NESTING_BUDGET} levels deep"
        )
    return reduce(Or, [reduce(And, c) for c, _ in clauses]), nesting


def _clauses(
    f: Formula, positive: bool, e: Rate, memo: dict
) -> tuple[list[tuple[list[Formula], int]], int]:
    # the clauses of the normal form of f (of !f when not positive), each with
    # the nesting of its deepest literal, and the disjunctions inside their
    # literals' bodies, counted per occurrence; a negated modal literal's
    # index moves up by e, at every modal depth. memo maps (id(node),
    # positive) to the result for each L node normalized so far in the call;
    # an entry is made only once the node's body passed its budget checks
    cls = f.__class__
    if cls is Top:
        return [([Top() if positive else Bot()], 0)], 0
    if cls is Not:
        return _clauses(f.child, not positive, e, memo)
    if cls is L:
        key = (id(f), positive)
        out = memo.get(key)
        if out is not None:
            return out
        clauses, inner = _clauses(f.child, True, e, memo)
        body, nesting = _join(clauses)
        if positive:
            lit = L(f.rate, body)
        else:
            lit, nesting = Not(L(f.rate + e, body)), nesting + 1
        out = memo[key] = [([lit], nesting + 1)], len(clauses) - 1 + inner
        return out
    if cls is not And:
        raise TypeError(f"not a formula node: {f!r}")
    left, left_inner = _clauses(f.left, positive, e, memo)
    right, right_inner = _clauses(f.right, positive, e, memo)
    if positive:
        # every left clause joins every right clause, and so repeats the
        # bodies of its literals once per right clause
        count = len(left) * len(right)
        inner = len(right) * left_inner + len(left) * right_inner
    else:
        count = len(left) + len(right)
        inner = left_inner + right_inner
    # checked before the clauses, and the Or chain over them, are built
    if count + inner > DNF_CLAUSE_BUDGET:
        raise SearchBudgetExceeded(
            f"normal form needs more than {DNF_CLAUSE_BUDGET} clauses"
        )
    if not positive:
        return left + right, inner
    return [(a + b, max(da, db)) for a, da in left for b, db in right], inner


def encode_abs(formulas: Iterable[Formula], e: Rate) -> list[Formula]:
    """Asymmetric index shift on the normal form: negated modal literals move up.

    Each input is brought to negation normal form, then disjunctive normal
    form, at every modal depth: modal subformulas are literals (L r psi /
    !L r psi) with their bodies normalized recursively, and T and F are atoms.
    In the same pass L r psi maps to L r |psi|, !L r psi maps to !L (r+e)
    |psi|, and T, F, &, | are homomorphic; at e = 0 the result is the normal
    form itself, equivalent to the input at every slack. Raises
    SearchBudgetExceeded past DNF_CLAUSE_BUDGET or NF_NESTING_BUDGET, for the
    first formula of the list that passes one.

    Each modal node of the list is normalized once per polarity and call, so
    a modal subformula that several formulas share has the same literal
    object in each of their normal forms (conjunctions are recombined:
    keeping their clauses too held more memory and saved no time). The call
    freezes the list into a tuple, coerces e once and keeps a memo of the
    call, as ``encode_down`` does, keyed by (id(node), polarity).
    """
    formulas = tuple(formulas)  # holds every node the memo keys
    e = ensure_rate(e)
    memo: dict = {}
    return [_join(_clauses(f, True, e, memo)[0])[0] for f in formulas]


# --- propositional atoms (modal subformulas treated as opaque) ---------------


def modal_atoms(f: Formula) -> list[L]:
    """Distinct outermost L-subformulas in first-occurrence order."""
    seen: dict[L, None] = {}

    def walk(g: Formula) -> None:
        if isinstance(g, L):
            seen.setdefault(g)
            return
        if isinstance(g, Not):
            walk(g.child)
        elif isinstance(g, And):
            walk(g.left)
            walk(g.right)

    walk(f)
    return list(seen)


# --- concrete syntax ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lbrace_rate>L\{\s*(?P<rate>[^{}]*?)\s*\})
  | (?P<top>T)
  | (?P<bot>F)
  | (?P<not>!)
  | (?P<and>&)
  | (?P<implies>->)
  | (?P<or>\|)
  | (?P<lparen>\()
  | (?P<rparen>\))
    """,
    # re.ASCII: without it \s also skips any script's whitespace
    re.VERBOSE | re.ASCII,
)


class _Token(Record):
    kind: str
    value: str
    position: int

    def __init__(self, kind: str, value: str, position: int):
        # one per token: three stores, not the base's generic argument walk
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "position", position)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos, text)
        kind = m.lastgroup if m.lastgroup != "lbrace_rate" else "modality"
        if kind != "ws":
            value = m.group("rate") if kind == "modality" else m.group(0)
            yield _Token(kind, value, pos)
        pos = m.end()
    yield _Token("eof", "", len(text))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {tok.value or 'end of input'!r}",
                tok.position,
                self.text,
            )
        return self.advance()

    def open_level(self, tok: _Token) -> None:
        # called before each recursive descent: parentheses, prefix operators
        # and right operands of ->
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise FormulaSyntaxError(_TOO_DEEP, tok.position, self.text)

    def parse_binary(self, min_level: int) -> Formula:
        # precedence climbing; & and | associate left, -> right
        out = self.parse_unary()
        while True:
            tok = self.peek()
            op = _BINARY.get(tok.kind)
            if op is None or op[0] < min_level:
                return out
            level, build = op
            self.advance()
            if build is Implies:
                self.open_level(tok)
                right = self.parse_binary(level)
                self.depth -= 1
            else:
                right = self.parse_binary(level + 1)
            out = build(out, right)

    def parse_unary(self) -> Formula:
        tok = self.advance()
        if tok.kind == "not":
            self.open_level(tok)
            out = Not(self.parse_unary())
        elif tok.kind == "modality":
            try:
                rate = ensure_rate(tok.value)
            except RateError as exc:
                raise FormulaSyntaxError(str(exc), tok.position, self.text) from exc
            self.open_level(tok)
            out = L(rate, self.parse_unary())
        elif tok.kind == "lparen":
            self.open_level(tok)
            out = self.parse_binary(0)
            self.expect("rparen")
        elif tok.kind == "top":
            return Top()
        elif tok.kind == "bot":
            return Bot()
        else:
            raise FormulaSyntaxError(
                f"expected a formula, found {tok.value or 'end of input'!r}",
                tok.position,
                self.text,
            )
        self.depth -= 1
        return out


# binding level and constructor of each binary connective, low to high
_BINARY = {"implies": (1, Implies), "or": (2, Or), "and": (3, And)}

# Formulas are trees that the evaluator, printer, encodings and hashing walk
# recursively; this bound keeps every walk far inside the interpreter's
# recursion limit.
MAX_DEPTH = 256
_TOO_DEEP = f"formula is nested more than {MAX_DEPTH} levels deep"


def _depth(f: Formula) -> int:
    """Nesting depth of the core AST: the longest chain of nodes below f."""
    deepest = 0
    stack = [(f, 0)]
    while stack:
        g, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(g, (Not, L)):
            stack.append((g.child, d + 1))
        elif isinstance(g, And):
            stack.append((g.left, d + 1))
            stack.append((g.right, d + 1))
    return deepest


def parse(text: str) -> Formula:
    """Parse concrete syntax into the core AST; raises FormulaSyntaxError.

    A formula is rejected when its core AST (with ``|``, ``->`` and ``F``
    expanded) is more than MAX_DEPTH levels deep, or when more than MAX_DEPTH
    parentheses, prefix operators and ``->`` right operands are open at once.
    """
    parser = _Parser(text)
    out = parser.parse_binary(0)
    tok = parser.peek()
    if tok.kind != "eof":
        raise FormulaSyntaxError(
            f"trailing input {tok.value!r}", tok.position, text
        )
    if _depth(out) > MAX_DEPTH:
        raise FormulaSyntaxError(_TOO_DEEP, 0, text)
    return out


# Precedence levels for printing; parenthesize a child whose level is lower
# than the context requires.
_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4


def print_formula(f: Formula) -> str:
    """Concrete syntax; parse(print_formula(f)) == f."""
    return _print(f, 0)


def _print(f: Formula, context: int) -> str:
    if isinstance(f, Top):
        return "T"
    if is_bot(f):
        return "F"
    operands = or_operands(f)
    if operands is not None:
        a, b = operands
        text = f"{_print(a, _LEVEL_OR)} | {_print(b, _LEVEL_OR + 1)}"
        return f"({text})" if context > _LEVEL_OR else text
    if isinstance(f, Not) and f.sugar == "implies":
        a, b = f.child.left, f.child.right.child
        text = f"{_print(a, _LEVEL_IMPLIES + 1)} -> {_print(b, _LEVEL_IMPLIES)}"
        return f"({text})" if context > _LEVEL_IMPLIES else text
    if isinstance(f, Not):
        return f"!{_print(f.child, _LEVEL_UNARY + 1)}"
    if isinstance(f, And):
        text = f"{_print(f.left, _LEVEL_AND)} & {_print(f.right, _LEVEL_AND + 1)}"
        return f"({text})" if context > _LEVEL_AND else text
    if isinstance(f, L):
        return f"L{{{format_rate(f.rate)}}} {_print(f.child, _LEVEL_UNARY + 1)}"
    raise TypeError(f"not a formula node: {f!r}")


def modal_indices(f: Formula) -> list[Rate]:
    """All L-indices in the tree, outermost-first, with repeats."""
    out: list[Rate] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, L):
            out.append(g.rate)
            stack.append(g.child)
        elif isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
    return out
