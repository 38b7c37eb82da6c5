import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cml_kit import (
    And,
    Axiom,
    Hypothesis,
    Implies,
    L,
    ModusPonens,
    Not,
    Or,
    Proof,
    ProofCheckError,
    ProofFormatError,
    ProofLine,
    RateError,
    RuleR1,
    Tautology,
    Top,
    axiom_instance,
    check,
    check_result,
    loads_proof,
    print_formula,
    translate_proof,
    valid_on,
)
from cml_kit.formula import modal_atoms
from cml_kit.harness.generate import corpus
from conftest import prop_eval

Q = Fraction
T = Top()


def proof_of(epsilon, lines, conclusion, hypotheses=()):
    return Proof(epsilon, tuple(hypotheses), tuple(lines), conclusion)


def test_axiom_a1_one_liner():
    p = proof_of(Q(1, 2), [ProofLine(L(Q(1, 2), T), Axiom("A1", T))], L(Q(1, 2), T))
    check(p)


def test_monotone_threshold_from_hypothesis():
    # L{3} T proves L{1} T through the threshold-weakening schema
    lines = [
        ProofLine(L(3, T), Hypothesis(0)),
        ProofLine(Implies(L(3, T), L(1, T)), Axiom("A2", T, None, Q(1), Q(2))),
        ProofLine(L(1, T), ModusPonens(1, 2)),
    ]
    p = proof_of(Q(0), lines, L(1, T), hypotheses=[L(3, T)])
    check(p)


def test_additivity_schema_negative_index_rejected():
    with pytest.raises(ProofCheckError, match="negative index"):
        check(
            proof_of(
                Q(1),
                [ProofLine(T, Axiom("A3", T, T, Q(0), Q(0)))],
                T,
            )
        )


def test_additivity_schema_at_boundary_checks():
    inst = axiom_instance("A3", Q(1), T, Not(T), Q(1), Q(0))
    check(proof_of(Q(1), [ProofLine(inst, Axiom("A3", T, Not(T), Q(1), Q(0)))], inst))


def test_schema_mismatch_diagnosed():
    with pytest.raises(ProofCheckError, match="schema mismatch"):
        check(proof_of(Q(0), [ProofLine(L(2, T), Axiom("A1", T))], L(2, T)))


def test_dangling_reference():
    with pytest.raises(ProofCheckError, match="dangling reference"):
        check(proof_of(Q(0), [ProofLine(T, ModusPonens(1, 2))], T))


def test_mp_shape_checked():
    lines = [
        ProofLine(L(0, T), Axiom("A1", T)),
        ProofLine(L(0, T), Axiom("A1", T)),
        ProofLine(T, ModusPonens(1, 2)),
    ]
    with pytest.raises(ProofCheckError, match="not an implication"):
        check(proof_of(Q(0), lines, T))


def test_rule_r1():
    lines = [
        ProofLine(Implies(And(T, T), T), Tautology()),
        ProofLine(
            Implies(L(2, And(T, T)), L(2, T)), RuleR1(1, Q(2))
        ),
    ]
    check(proof_of(Q(0), lines, Implies(L(2, And(T, T)), L(2, T))))


def test_tautology_with_premises():
    a = L(1, T)
    lines = [
        ProofLine(a, Hypothesis(0)),
        ProofLine(Implies(a, a), Tautology()),
        ProofLine(And(a, a), Tautology((1,))),
    ]
    check(proof_of(Q(0), lines, And(a, a), hypotheses=[a]))


def test_tautology_failure_names_assignment():
    with pytest.raises(ProofCheckError, match="tautology check failed"):
        check(proof_of(Q(0), [ProofLine(L(1, T), Tautology())], L(1, T)))


def test_tautology_failure_names_the_first_failing_assignment():
    # (a -> b) & !(b & c) fails at 011, 100, 101 and 111 over the atoms a, b, c
    # in order of first occurrence; the first atom varies slowest, so 011 comes
    # first, where the other bit order would name 100
    a, b, c = L(1, T), L(2, T), L(3, T)
    f = And(Implies(a, b), Not(And(b, c)))
    with pytest.raises(ProofCheckError) as failure:
        check(proof_of(Q(0), [ProofLine(f, Tautology())], f))
    assert str(failure.value) == (
        "line 1: tautology check failed under assignment L{1} T=0, L{2} T=1, L{3} T=1"
    )


def test_tautology_failure_reads_the_premises():
    # (a & c) | !d fails at 0001, 0011, 0101, 0111, 1001 and 1101 over the
    # atoms a, b, c, d; the premises rule out 0001 and 0011, and the other bit
    # order would name 1001
    a, b, c, d = (L(r, T) for r in (1, 2, 3, 4))
    premises = [Or(a, b), Implies(c, d)]
    f = Or(And(a, c), Not(d))
    lines = [ProofLine(p, Hypothesis(i)) for i, p in enumerate(premises)]
    lines.append(ProofLine(f, Tautology((1, 2))))
    with pytest.raises(ProofCheckError) as failure:
        check(proof_of(Q(0), lines, f, hypotheses=premises))
    assert str(failure.value) == (
        "line 3: tautology check failed under assignment "
        "L{1} T=0, L{2} T=1, L{3} T=0, L{4} T=1"
    )


def _first_failure(premises, f):
    # the loop over every assignment in itertools.product order that the
    # checker's integer truth tables replace
    atoms = list(dict.fromkeys(a for g in [*premises, f] for a in modal_atoms(g)))
    for bits in itertools.product((False, True), repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        if all(prop_eval(p, env) for p in premises) and not prop_eval(f, env):
            return ", ".join(f"{print_formula(a)}={int(env[a])}" for a in atoms)
    return None


_props = st.recursive(
    st.sampled_from([T] + [L(r, T) for r in range(1, 6)]),
    lambda kids: st.one_of(
        st.builds(Not, kids), st.builds(And, kids, kids), st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
    ),
    max_leaves=10,
)


@given(st.lists(_props, max_size=2), _props)
def test_tautology_tables_match_the_assignment_loop(premises, f):
    lines = [ProofLine(p, Hypothesis(i)) for i, p in enumerate(premises)]
    lines.append(ProofLine(f, Tautology(tuple(range(1, len(premises) + 1)))))
    ok, error = check_result(proof_of(Q(0), lines, f, hypotheses=premises))
    expected = _first_failure(premises, f)
    if expected is None:
        assert ok
    else:
        assert error == (
            f"line {len(lines)}: tautology check failed under assignment {expected}"
        )


def test_tautology_atom_cap():
    big = L(1, T)
    formula = big
    for i in range(17):
        formula = And(formula, L(Q(i + 2), T))
    with pytest.raises(ProofCheckError, match="exceeds the limit"):
        check(proof_of(Q(0), [ProofLine(Implies(formula, formula), Tautology())],
                       Implies(formula, formula)))


def test_conclusion_must_match_last_line():
    p = proof_of(Q(0), [ProofLine(L(0, T), Axiom("A1", T))], T)
    ok, error = check_result(p)
    assert not ok and "conclusion" in error


def test_sugar_insensitive_comparison():
    # the same implication written via sugar and via its core expansion
    doc = {
        "epsilon": "0",
        "lines": [
            {
                "formula": "!(L{3} T & !L{1} T)",
                "by": {"axiom": "A2", "phi": "T", "r": "1", "s": "2"},
            }
        ],
        "conclusion": "L{3} T -> L{1} T",
    }
    check(loads_proof(json.dumps(doc)))


_REFERENCES = {
    "mp": (lambda ref: [ref, 1], "mp: expected two line numbers"),
    "r1": (lambda ref: [ref, "2"], "r1: expected a line number and a rate"),
    "taut": (lambda ref: [ref], "taut: expected a list of line numbers"),
    "hyp": (lambda ref: ref, "hyp: expected a hypothesis number"),
}


@pytest.mark.parametrize("key", sorted(_REFERENCES))
@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"], ids=["superscript-two", "arabic-one"])
def test_line_references_take_only_ascii_digits(key, digit):
    # str.isdigit() holds for both; int() rejects the superscript and reads
    # the Arabic-Indic digit as 1
    reference, message = _REFERENCES[key]
    doc = {"epsilon": "0", "hypotheses": ["T"],
           "lines": [{"formula": "T", "by": {key: reference(digit)}}], "conclusion": "T"}
    with pytest.raises(ProofFormatError) as failure:
        loads_proof(json.dumps(doc))
    assert str(failure.value) == f"lines[1].by.{message}"


def test_json_round_trip():
    lines = [
        ProofLine(L(3, T), Hypothesis(0)),
        ProofLine(Implies(L(3, T), L(1, T)), Axiom("A2", T, None, Q(1), Q(2))),
        ProofLine(L(1, T), ModusPonens(1, 2)),
    ]
    p = proof_of(Q(0), lines, L(1, T), hypotheses=[L(3, T)])
    doc = {
        "epsilon": "0",
        "hypotheses": ["L{3} T"],
        "lines": [
            {"formula": "L{3} T", "by": {"hyp": 0}},
            {
                "formula": "L{3} T -> L{1} T",
                "by": {"axiom": "A2", "phi": "T", "r": "1", "s": "2"},
            },
            {"formula": "L{1} T", "by": {"mp": [1, 2]}},
        ],
        "conclusion": "L{1} T",
    }
    assert loads_proof(json.dumps(doc, indent=2)) == p


def test_translate_up_shifts_conclusion():
    p = proof_of(Q(1, 2), [ProofLine(L(Q(1, 2), T), Axiom("A1", T))], L(Q(1, 2), T))
    up = translate_proof(p, Q(1, 2), "up")
    assert up.epsilon == 1
    assert up.conclusion == L(1, T)
    check(up)


def test_translate_by_zero_is_identity():
    p = proof_of(Q(1, 2), [ProofLine(L(Q(1, 2), T), Axiom("A1", T))], L(Q(1, 2), T))
    assert translate_proof(p, 0, "up") == p
    assert translate_proof(p, 0, "down") == p


def test_translate_down_underflow():
    p = proof_of(Q(0), [ProofLine(L(0, T), Axiom("A1", T))], L(0, T))
    with pytest.raises(ValueError, match="index underflow"):
        translate_proof(p, Q(1, 2), "down")


def test_translate_round_trip():
    lines = [
        ProofLine(Implies(L(3, T), L(1, T)), Axiom("A2", T, None, Q(1), Q(2))),
    ]
    p = proof_of(Q(1, 4), lines, Implies(L(3, T), L(1, T)))
    up = translate_proof(p, Q(3, 4), "up")
    assert translate_proof(up, Q(3, 4), "down") == p


def test_soundness_of_checked_conclusions():
    kernels = corpus(6, 4, seed=31)
    e = Q(1, 3)
    proofs = [
        proof_of(e, [ProofLine(L(e, T), Axiom("A1", T))], L(e, T)),
        proof_of(
            e,
            [
                ProofLine(
                    Implies(L(2, T), L(1, T)), Axiom("A2", T, None, Q(1), Q(1))
                )
            ],
            Implies(L(2, T), L(1, T)),
        ),
        proof_of(
            e,
            [
                ProofLine(
                    axiom_instance("A4", e, T, L(1, T), Q(1), Q(2)),
                    Axiom("A4", T, L(1, T), Q(1), Q(2)),
                )
            ],
            axiom_instance("A4", e, T, L(1, T), Q(1), Q(2)),
        ),
    ]
    for p in proofs:
        check(p)
        for k in kernels:
            assert valid_on(k, p.conclusion, p.epsilon)


def test_proof_records_are_values():
    assert ModusPonens(1, 2) == ModusPonens(antecedent=1, implication=2)
    assert hash(ModusPonens(1, 2)) == hash(ModusPonens(1, 2)) == hash((1, 2))
    assert ModusPonens(1, 2) != RuleR1(1, Q(2))
    assert Axiom("A1", T) == Axiom(name="A1", phi=T, psi=None, r=None, s=None)
    assert Tautology() == Tautology(()) and Tautology().premises == ()
    assert Hypothesis(1) != Hypothesis(2)
    line = ProofLine(L(Q(1, 2), T), Axiom("A1", T))
    assert repr(line) == (
        "ProofLine(formula=L(1/2, Top()),"
        " by=Axiom(name='A1', phi=Top(), psi=None, r=None, s=None))"
    )
    assert repr(Tautology()) == "Tautology(premises=())"
    with pytest.raises(AttributeError):
        line.by = Hypothesis(1)
    with pytest.raises(TypeError):
        ModusPonens(1)


def test_proof_coerces_epsilon():
    lines = [ProofLine(L(Q(1, 2), T), Axiom("A1", T))]
    p = proof_of("1/2", lines, L(Q(1, 2), T))
    assert p.epsilon == Q(1, 2) and type(p.epsilon) is Fraction
    assert p == proof_of(Q(1, 2), lines, L(Q(1, 2), T))
    assert hash(p) == hash(proof_of(Q(1, 2), lines, L(Q(1, 2), T)))
    with pytest.raises(RateError):
        proof_of(0.5, lines, L(Q(1, 2), T))
