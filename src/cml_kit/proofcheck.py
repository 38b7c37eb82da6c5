"""Checker for finite Hilbert-style derivations in the slack-indexed system.

Lines are justified by axiom-schema instances (A1-A4, with explicit
substitutions so checking is purely syntactic), propositional consequence of
earlier lines over modal atoms, modus ponens, the monotonicity rule, or a
named hypothesis. Formulas are compared modulo parser sugar. The two
infinitary rules of the system have no finite proof objects and are therefore
not representable here.
"""

from __future__ import annotations

import json
from typing import IO, Union

from .errors import (
    FormulaSyntaxError,
    InternalCheckError,
    ProofCheckError,
    ProofFormatError,
    RateError,
    Record,
)
from .formula import (
    And,
    Formula,
    Implies,
    L,
    Not,
    Top,
    encode_down,
    encode_up,
    implies_operands,
    modal_atoms,
    modal_indices,
    parse,
    print_formula,
    strip_sugar,
)
from .rational import Rate, ensure_rate, format_rate

MAX_TAUTOLOGY_ATOMS = 16


class Axiom(Record):
    name: str  # A1 | A2 | A3 | A4
    phi: Formula
    psi: Formula | None = None
    r: Rate | None = None
    s: Rate | None = None


class Tautology(Record):
    premises: tuple[int, ...] = ()


class ModusPonens(Record):
    antecedent: int
    implication: int


class RuleR1(Record):
    line: int
    rate: Rate


class Hypothesis(Record):
    index: int


Justification = Union[Axiom, Tautology, ModusPonens, RuleR1, Hypothesis]


class ProofLine(Record):
    formula: Formula
    by: Justification


class Proof(Record):
    epsilon: Rate
    hypotheses: tuple[Formula, ...]
    lines: tuple[ProofLine, ...]
    conclusion: Formula

    def __init__(self, *args: object, **kwargs: object):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "epsilon", ensure_rate(self.epsilon))


def axiom_instance(name: str, e: Rate, phi: Formula, psi: Formula | None,
                   r: Rate | None, s: Rate | None) -> Formula:
    """Build the schema instance; raises ValueError("negative index") when
    the A3/A4 index r+s-e would leave the grammar."""
    e = ensure_rate(e)
    if name == "A1":
        return L(e, phi)
    if name == "A2":
        return Implies(L(r + s, phi), L(r, phi))
    if name in ("A3", "A4"):
        if psi is None:
            raise ValueError("A3/A4 need a psi substitution")
        head = r + s - e
        if head < 0:
            raise ValueError(
                f"negative index: r+s-e = {format_rate(r + s)}-{format_rate(e)} < 0"
            )
        both = L(r, And(phi, psi))
        other = L(s, And(phi, Not(psi)))
        if name == "A3":
            return Implies(And(both, other), L(head, phi))
        return Implies(And(Not(both), Not(other)), Not(L(head, phi)))
    raise ValueError(f"unknown axiom {name!r}")


def check(proof: Proof) -> None:
    """Raise ProofCheckError at the first bad line; None when the proof checks."""
    stripped: list[Formula] = []
    hypotheses = [strip_sugar(h) for h in proof.hypotheses]
    for number, line in enumerate(proof.lines, start=1):
        formula = strip_sugar(line.formula)
        _check_line(proof, number, formula, line.by, stripped, hypotheses)
        stripped.append(formula)
    if not proof.lines:
        raise ProofCheckError(0, "proof has no lines")
    if strip_sugar(proof.conclusion) != stripped[-1]:
        raise ProofCheckError(
            len(proof.lines), "conclusion differs from the last line"
        )


def check_result(proof: Proof) -> tuple[bool, str | None]:
    try:
        check(proof)
        return True, None
    except ProofCheckError as exc:
        return False, str(exc)


def _reference(number: int, index: int, stripped: list[Formula]) -> Formula:
    if not 1 <= index <= len(stripped):
        raise ProofCheckError(number, f"dangling reference to line {index}")
    return stripped[index - 1]


def _check_line(
    proof: Proof,
    number: int,
    formula: Formula,
    by: Justification,
    stripped: list[Formula],
    hypotheses: list[Formula],
) -> None:
    if isinstance(by, Axiom):
        try:
            expected = axiom_instance(by.name, proof.epsilon, strip_sugar(by.phi),
                                      strip_sugar(by.psi) if by.psi is not None else None,
                                      by.r, by.s)
        except ValueError as exc:
            raise ProofCheckError(number, str(exc)) from exc
        if strip_sugar(expected) != formula:
            raise ProofCheckError(
                number,
                f"schema mismatch: {by.name} instance is {print_formula(expected)}",
            )
        return
    if isinstance(by, Hypothesis):
        if not 0 <= by.index < len(hypotheses):
            raise ProofCheckError(number, f"no hypothesis {by.index}")
        if hypotheses[by.index] != formula:
            raise ProofCheckError(number, "formula differs from the named hypothesis")
        return
    if isinstance(by, ModusPonens):
        antecedent = _reference(number, by.antecedent, stripped)
        implication = _reference(number, by.implication, stripped)
        parts = implies_operands(implication)
        if parts is None:
            raise ProofCheckError(
                number, f"line {by.implication} is not an implication"
            )
        if parts[0] != antecedent:
            raise ProofCheckError(
                number, f"line {by.antecedent} is not the antecedent of line {by.implication}"
            )
        if parts[1] != formula:
            raise ProofCheckError(number, "formula is not the consequent")
        return
    if isinstance(by, RuleR1):
        premise = _reference(number, by.line, stripped)
        parts = implies_operands(premise)
        if parts is None:
            raise ProofCheckError(number, f"line {by.line} is not an implication")
        expected = strip_sugar(Implies(L(by.rate, parts[0]), L(by.rate, parts[1])))
        if expected != formula:
            raise ProofCheckError(
                number, f"monotonicity instance is {print_formula(expected)}"
            )
        return
    if isinstance(by, Tautology):
        premises = [_reference(number, i, stripped) for i in by.premises]
        _check_tautology(number, premises, formula)
        return
    raise ProofCheckError(number, f"unknown justification {by!r}")


def _check_tautology(number: int, premises: list[Formula], formula: Formula) -> None:
    atom_list = list(dict.fromkeys(a for g in [*premises, formula] for a in modal_atoms(g)))
    if len(atom_list) > MAX_TAUTOLOGY_ATOMS:
        raise ProofCheckError(
            number,
            f"tautology check over {len(atom_list)} modal atoms exceeds the "
            f"limit of {MAX_TAUTOLOGY_ATOMS}",
        )
    # Truth tables as integers over the 2**k assignments x of the k atoms, in
    # itertools.product order: atom i is bit k-1-i of x, and bit x of a
    # formula's table is its truth value under x. Each step adds an atom that
    # varies slower than those before it: it holds on the upper half of the
    # doubled assignments, and every earlier table repeats there.
    size, full, tables = 1, 1, []
    for _ in atom_list:
        tables = [full << size] + [t | t << size for t in tables]
        full |= full << size
        size *= 2
    tables = dict(zip(atom_list, tables))
    failures = full ^ _truth_table(formula, tables, full)
    for p in premises:
        failures &= _truth_table(p, tables, full)
    if failures:
        # the lowest failing assignment is the first one in product order
        x = (failures & -failures).bit_length() - 1
        raise ProofCheckError(
            number,
            "tautology check failed under assignment "
            + ", ".join(f"{print_formula(a)}={tables[a] >> x & 1}" for a in atom_list),
        )


def _truth_table(f: Formula, tables: dict, full: int) -> int:
    # the table of f, with each outermost L-atom's table read from tables
    if isinstance(f, Top):
        return full
    if isinstance(f, L):
        return tables[f]
    if isinstance(f, Not):
        return full ^ _truth_table(f.child, tables, full)
    if isinstance(f, And):
        return _truth_table(f.left, tables, full) & _truth_table(f.right, tables, full)
    raise TypeError(f"not a formula node: {f!r}")


# --- translation between slack levels ----------------------------------------


def translate_proof(proof: Proof, e: Rate, direction: str) -> Proof:
    """Shift a checked proof up or down by e; the result checks at the new slack."""
    e = ensure_rate(e)
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if direction == "down":
        for where, f in _all_formulas(proof):
            low = min(modal_indices(f), default=None)
            if low is not None and low < e:
                raise ValueError(f"index underflow in {where}")
        if proof.epsilon - e < 0:
            raise ValueError("target epsilon negative")
        shift = lambda f: encode_down(f, e)
        new_epsilon = proof.epsilon - e
        delta = -e
    else:
        shift = lambda f: encode_up(f, e)
        new_epsilon = proof.epsilon + e
        delta = e

    def move(by: Justification) -> Justification:
        if isinstance(by, Axiom):
            if by.name == "A1":
                return Axiom("A1", shift(by.phi))
            if by.name == "A2":
                return Axiom("A2", shift(by.phi), None, by.r + delta, by.s)
            return Axiom(by.name, shift(by.phi), shift(by.psi), by.r + delta, by.s + delta)
        if isinstance(by, RuleR1):
            return RuleR1(by.line, by.rate + delta)
        return by

    translated = Proof(
        epsilon=new_epsilon,
        hypotheses=tuple(shift(h) for h in proof.hypotheses),
        lines=tuple(ProofLine(shift(l.formula), move(l.by)) for l in proof.lines),
        conclusion=shift(proof.conclusion),
    )
    try:
        check(translated)
    except ProofCheckError as exc:
        raise InternalCheckError(f"translated proof fails to check: {exc}") from exc
    return translated


def _all_formulas(proof: Proof):
    for i, h in enumerate(proof.hypotheses):
        yield f"hypothesis {i}", h
    for i, line in enumerate(proof.lines, start=1):
        yield f"line {i}", line.formula
        if isinstance(line.by, Axiom):
            yield f"line {i} substitution", line.by.phi
            if line.by.psi is not None:
                yield f"line {i} substitution", line.by.psi
    yield "conclusion", proof.conclusion


# --- JSON proof files ---------------------------------------------------------
#
# {"epsilon": "1/2", "hypotheses": ["L{1} T"],
#  "lines": [{"formula": "L{1/2} T", "by": {"axiom": "A1", "phi": "T"}},
#            {"formula": "...",      "by": {"mp": [1, 2]}},
#            {"formula": "...",      "by": {"r1": [1, "2"]}},
#            {"formula": "...",      "by": {"taut": [1]}},
#            {"formula": "...",      "by": {"hyp": 0}}],
#  "conclusion": "..."}
#
# A malformed file raises ProofFormatError naming the field path, such as
# ``lines[2].by.mp``. Lines are numbered from 1 and hypotheses from 0, as the
# references to them are.


def _get(doc: dict, key: str, path: str) -> object:
    if key not in doc:
        raise ProofFormatError(f"{path}: missing field")
    return doc[key]


def _formula_field(value: object, path: str) -> Formula:
    if not isinstance(value, str):
        raise ProofFormatError(f"{path}: expected a formula string")
    try:
        return parse(value)
    except FormulaSyntaxError as exc:
        raise ProofFormatError(f"{path}: {exc}") from exc


def _rate_field(value: object, path: str) -> Rate:
    try:
        return ensure_rate(value)
    except RateError as exc:
        raise ProofFormatError(f"{path}: {exc}") from exc


def _index(value: object) -> int | None:
    # a line or hypothesis reference: an integer, or a string of ASCII digits;
    # str.isdigit() alone also takes superscripts and any script's digits
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    return None


def _indices(value: object, count: int | None, path: str, expected: str) -> list[int]:
    out = [_index(item) for item in value] if isinstance(value, list) else [None]
    if None in out or (count is not None and len(out) != count):
        raise ProofFormatError(f"{path}: expected {expected}")
    return out


def _justification_from_doc(doc: object, path: str) -> Justification:
    if not isinstance(doc, dict):
        raise ProofFormatError(f"{path}: expected an object")
    if "axiom" in doc:
        name = doc["axiom"]
        if not isinstance(name, str):
            raise ProofFormatError(f"{path}.axiom: expected an axiom name")
        phi = _formula_field(doc.get("phi", "T"), f"{path}.phi")
        psi = _formula_field(doc["psi"], f"{path}.psi") if "psi" in doc else None
        r = _rate_field(doc["r"], f"{path}.r") if "r" in doc else None
        s = _rate_field(doc["s"], f"{path}.s") if "s" in doc else None
        if name in ("A2", "A3", "A4") and (r is None or s is None):
            raise ProofFormatError(f"{path}: {name} needs rates r and s")
        return Axiom(name, phi, psi, r, s)
    if "mp" in doc:
        i, j = _indices(doc["mp"], 2, f"{path}.mp", "two line numbers")
        return ModusPonens(i, j)
    if "r1" in doc:
        pair = doc["r1"]
        line = _index(pair[0]) if isinstance(pair, list) and len(pair) == 2 else None
        if line is None:
            raise ProofFormatError(f"{path}.r1: expected a line number and a rate")
        return RuleR1(line, _rate_field(pair[1], f"{path}.r1[1]"))
    if "taut" in doc:
        premises = _indices(doc["taut"], None, f"{path}.taut", "a list of line numbers")
        return Tautology(tuple(premises))
    if "hyp" in doc:
        index = _index(doc["hyp"])
        if index is None:
            raise ProofFormatError(f"{path}.hyp: expected a hypothesis number")
        return Hypothesis(index)
    raise ProofFormatError(f"{path}: unknown justification keys {sorted(doc)}")


def _list_field(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ProofFormatError(f"{key}: expected a list")
    return value


def loads_proof(text: str) -> Proof:
    """Parse a JSON proof file; raises ProofFormatError naming the bad field."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nested array or object
        raise ProofFormatError(f"proof file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProofFormatError("proof file must be a JSON object")
    lines = []
    for number, entry in enumerate(_list_field(doc, "lines"), start=1):
        path = f"lines[{number}]"
        if not isinstance(entry, dict):
            raise ProofFormatError(f"{path}: expected an object")
        formula = _formula_field(_get(entry, "formula", f"{path}.formula"), f"{path}.formula")
        by = _justification_from_doc(_get(entry, "by", f"{path}.by"), f"{path}.by")
        lines.append(ProofLine(formula, by))
    return Proof(
        epsilon=_rate_field(_get(doc, "epsilon", "epsilon"), "epsilon"),
        hypotheses=tuple(
            _formula_field(h, f"hypotheses[{i}]")
            for i, h in enumerate(_list_field(doc, "hypotheses"))
        ),
        lines=tuple(lines),
        conclusion=_formula_field(_get(doc, "conclusion", "conclusion"), "conclusion"),
    )


def load_proof(source: Union[str, IO[str]]) -> Proof:
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return loads_proof(fh.read())
        return loads_proof(source.read())
    except UnicodeDecodeError as exc:
        raise ProofFormatError(f"proof file is not UTF-8 text: {exc}") from exc
