import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cml_kit import (
    And,
    Bot,
    FormulaSyntaxError,
    Fragment,
    Implies,
    Kernel,
    L,
    Not,
    Or,
    Top,
    encode_abs,
    encode_down,
    encode_up,
    eval_formula,
    parse,
    print_formula,
)
from cml_kit.errors import RateError, SearchBudgetExceeded
from cml_kit.formula import (
    DNF_CLAUSE_BUDGET,
    _clauses,
    modal_atoms,
    modal_indices,
)
from cml_kit.harness.enumerate import enumerate_formulas
from conftest import in_fragment, prop_eval

Q = Fraction


# --- parsing -----------------------------------------------------------------


def test_parse_modality():
    assert parse("L{3/2} T") == L(Q(3, 2), Top())


def test_parse_negated_conjunction():
    assert parse("!(L{1} T & L{2} T)") == Not(And(L(1, Top()), L(2, Top())))


def test_parse_implication_expands():
    # a -> b is !(a & !b) plus the sugar tag the printer uses
    parsed = parse("L{1} T -> L{2} T")
    assert parsed == Implies(L(1, Top()), L(2, Top()))
    assert parsed.child == And(L(1, Top()), Not(L(2, Top())))


def test_implication_truth_table_matches_expansion():
    a, b = L(1, Top()), L(2, Top())
    sugar = Implies(a, b)
    core = Not(And(a, Not(b)))
    for bits in itertools.product([False, True], repeat=2):
        env = {a: bits[0], b: bits[1]}
        assert prop_eval(sugar, env) == prop_eval(core, env)
        assert prop_eval(sugar, env) == ((not bits[0]) or bits[1])


def test_parse_precedence():
    f = parse("L{1} T -> L{2} T | !T & F")
    # -> binds loosest; | next; & tightest of the binary ones
    assert f == Implies(L(1, Top()), Or(L(2, Top()), And(Not(Top()), Bot())))


def test_parse_right_associative_implication():
    assert parse("T -> T -> F") == Implies(Top(), Implies(Top(), Bot()))


def test_parse_left_associative_and():
    assert parse("T & T & F") == And(And(Top(), Top()), Bot())


@pytest.mark.parametrize("bad", ["", "L{} T", "L{-1} T", "T &", "(T", "T T", "L{1/0} T"])
def test_parse_errors_have_positions(bad):
    with pytest.raises(FormulaSyntaxError) as err:
        parse(bad)
    assert err.value.position >= 0


def test_parse_rejects_negative_rate():
    with pytest.raises(FormulaSyntaxError, match="negative"):
        parse("L{-3} T")


# --- printing ----------------------------------------------------------------


def test_print_examples():
    assert print_formula(L(Q(3, 2), Top())) == "L{3/2} T"
    assert print_formula(Not(Top())) == "!T"
    assert print_formula(Bot()) == "F"
    assert print_formula(And(And(Top(), Top()), Top())) == "T & T & T"
    assert print_formula(And(Top(), And(Top(), Top()))) == "T & (T & T)"


def _enumerated(depth, fragment=Fragment.FULL):
    formulas, _ = enumerate_formulas(depth, (Q(0), Q(1), Q(3, 2)), fragment, 4000)
    return formulas


def test_round_trip_enumerated_to_depth_4():
    # the full depth-4 census is astronomically large; round-trip a capped
    # deterministic prefix of it
    formulas, truncated = enumerate_formulas(4, (Q(1),), Fragment.FULL, 20_000)
    assert len(formulas) == 20_000 and truncated
    for f in formulas:
        assert parse(print_formula(f)) == f


formula_st = st.recursive(
    st.just(Top()),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(
            L,
            st.fractions(min_value=0, max_value=9, max_denominator=10),
            kids,
        ),
    ),
    max_leaves=12,
)


@given(formula_st)
def test_round_trip_random(f):
    assert parse(print_formula(f)) == f


# --- fragments -----------------------------------------------------------------


@pytest.mark.parametrize(
    "f, fragment, expected",
    [
        (L(1, Top()), Fragment.POSITIVE, True),
        (Not(L(1, Top())), Fragment.POSITIVE, False),
        (Or(L(1, Top()), Top()), Fragment.POSITIVE, True),
        (Not(Or(L(1, Top()), Top())), Fragment.POSITIVE, False),
        (Not(Top()), Fragment.POSITIVE, False),
        (Bot(), Fragment.POSITIVE, False),
        (Implies(Top(), Top()), Fragment.POSITIVE, False),
        (And(L(1, Top()), Or(Top(), Top())), Fragment.POSITIVE, True),
        (Not(Not(Top())), Fragment.POSITIVE, False),
        (Bot(), Fragment.FULL, True),
    ],
)
def test_in_fragment(f, fragment, expected):
    assert in_fragment(f, fragment) is expected


def test_hand_built_core_disjunction_is_not_positive():
    # without the parser's tag this is just a negation
    core = Not(And(Not(Top()), Not(Top())))
    assert not in_fragment(core, Fragment.POSITIVE)


# --- encodings ---------------------------------------------------------------


def test_encode_down_examples():
    assert encode_down(L(5, Top()), 2) == L(3, Top())
    assert encode_down(L(1, Top()), 2) == L(0, Top())
    assert encode_down(
        Not(And(L(3, Top()), L(1, L(2, Top())))), 1
    ) == Not(And(L(2, Top()), L(0, L(1, Top()))))


def test_encode_up_examples():
    assert encode_up(L(5, Top()), 2) == L(7, Top())
    f = Not(And(L(3, Top()), L(1, L(2, Top()))))
    assert encode_up(f, 0) == f


def test_up_then_down_restores_indices():
    f = L(1, L(0, Top()))
    assert encode_down(encode_up(f, 2), 2) == f


@given(formula_st, st.fractions(min_value=0, max_value=4, max_denominator=6),
       st.fractions(min_value=0, max_value=4, max_denominator=6))
def test_encoding_composition(f, a, b):
    assert encode_down(encode_down(f, a), b) == encode_down(f, a + b)
    assert encode_up(encode_up(f, a), b) == encode_up(f, a + b)
    assert encode_down(encode_up(f, a), a) == f


@given(formula_st, st.fractions(min_value=0, max_value=4, max_denominator=6))
def test_down_inverts_up_when_indices_large_enough(f, e):
    if all(r >= e for r in modal_indices(f)):
        assert encode_up(encode_down(f, e), e) == f


@given(formula_st, st.fractions(min_value=0, max_value=4, max_denominator=6))
def test_encodings_preserve_fragments(f, e):
    if in_fragment(f, Fragment.POSITIVE):
        assert in_fragment(encode_down(f, e), Fragment.POSITIVE)
        assert in_fragment(encode_up(f, e), Fragment.POSITIVE)


@pytest.mark.parametrize("encode", [encode_down, encode_up])
@pytest.mark.parametrize("fragment", list(Fragment))
def test_shared_tables_over_an_enumeration_give_the_table_less_encodings(encode, fragment):
    formulas = _enumerated(3, fragment)
    for e in (Q(0), Q(1, 2), Q(1), Q(5, 2)):
        memo = {}
        encoded = [encode(f, e, memo) for f in formulas]
        assert encoded == [encode(f, e) for f in formulas]
        # a child the enumeration shares has one image, shared by its parents
        image = {id(f): g for f, g in zip(formulas, encoded)}
        shared = 0
        for f, g in zip(formulas, encoded):
            if isinstance(f, And):
                children = [(f.left, g.left), (f.right, g.right)]
            elif isinstance(f, (Not, L)):
                children = [(f.child, g.child)]
            else:
                children = []
            for child, child_image in children:
                if id(child) in image:
                    assert child_image is image[id(child)]
                    shared += 1
        assert shared > 100


# --- the asymmetric encoding and its normal form ------------------------------


def test_encode_abs_examples():
    assert encode_abs(L(2, Top()), 1) == L(2, Top())
    assert encode_abs(Not(L(2, Top())), 1) == Not(L(3, Top()))
    assert encode_abs(Not(And(L(1, Top()), Not(L(2, Top())))), 1) == Or(
        Not(L(2, Top())), L(2, Top())
    )


def test_normal_form_shape():
    # negations end up only on modal literals
    f = Not(And(Or(Top(), L(1, Top())), Not(L(2, Not(Top())))))
    nf = encode_abs(f, 0)

    def well_formed(g, under_not=False):
        if isinstance(g, Top):
            return True
        if isinstance(g, L):
            return well_formed(g.child)
        if isinstance(g, Not):
            if g.sugar == "bot":
                return isinstance(g.child, Top)
            if g.sugar == "or":
                return well_formed(g.child.left.child) and well_formed(
                    g.child.right.child
                )
            return isinstance(g.child, L) and well_formed(g.child.child)
        if isinstance(g, And):
            return well_formed(g.left) and well_formed(g.right)
        return False

    assert well_formed(nf)


@given(formula_st)
def test_normal_form_preserves_truth_tables(f):
    nf = encode_abs(f, 0)
    # literal atoms of the normal form refer to normalized bodies, so compare
    # the two semantically: evaluate both on concrete kernels
    from cml_kit.harness.generate import corpus

    kernels = [
        Kernel(
            ["a", "b", "c"],
            {("a", "b"): Q(1, 2), ("b", "c"): 2, ("c", "a"): 1, ("c", "c"): 3},
        )
    ] + corpus(4, 4, seed=17)
    for k in kernels:
        for e in (Q(0), Q(1, 3)):
            assert eval_formula(k, f, e) == eval_formula(k, nf, e)


@given(formula_st)
@example(And(L(1, Or(Top(), Bot())), Or(Top(), Not(L(2, Or(Top(), Top()))))))
def test_normal_form_budget_counts_the_printed_disjunctions(f):
    try:
        clauses, inner = _clauses(f, True, 0)
        nf = encode_abs(f, 0)
    except SearchBudgetExceeded:
        return
    # the normal form's own disjunctions and those unrolled through its modal
    # bodies
    spent = len(clauses) - 1 + inner
    assert spent == print_formula(nf).count("|") < DNF_CLAUSE_BUDGET


def test_shared_clause_table_gives_the_table_less_normal_forms():
    formulas, _ = enumerate_formulas(3, (Q(0), Q(1, 2), Q(1)), Fragment.FULL, 400)
    for e in (Q(0), Q(1, 10), Q(1, 3), Q(1)):
        table = {}
        for f in formulas:
            shared, alone = encode_abs(f, e, table), encode_abs(f, e)
            assert shared == alone
            assert print_formula(shared) == print_formula(alone)


def test_shared_clause_table_shares_the_literals_of_a_shared_subformula():
    g = L(1, Or(L(2, Top()), Top()))
    first, second = And(g, L(3, Top())), Not(And(Not(g), L(4, Top())))
    table = {}
    a, b = encode_abs(first, Q(1, 2), table), encode_abs(second, Q(1, 2), table)
    # first is g & L{3} T; second is g | !L{4} T
    assert isinstance(a, And) and a.left == L(1, Or(L(2, Top()), Top()))
    assert b.child.left.child is a.left
    # without a table the two normal forms build their own literal
    assert encode_abs(second, Q(1, 2)).child.left.child is not a.left


def test_clause_table_keeps_no_entry_for_a_node_over_budget():
    # a literal over ten conjoined disjunctions, which need 2^10 clauses
    body = And(Or(L(1, Top()), L(2, Top())), Or(L(3, Top()), L(4, Top())))
    for i in range(8):
        body = And(body, Or(L(5 + i, Top()), Top()))
    f = L(1, body)
    table = {}
    with pytest.raises(SearchBudgetExceeded, match="clauses"):
        encode_abs(f, 0, table)
    assert (id(f), True) not in table
    assert all(node is not f for node, _ in table.values())
    with pytest.raises(SearchBudgetExceeded, match="clauses"):
        encode_abs(f, 0, table)


def test_normal_form_truth_assignment_oracle():
    # NNF over shared literal atoms: check by truth table where the atom sets
    # coincide (no nested negation inside modal bodies)
    f = Not(And(L(1, Top()), Not(L(2, Top()))))
    nf = encode_abs(f, 0)
    atoms = modal_atoms(f)
    assert set(atoms) == set(modal_atoms(nf))
    for bits in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        assert prop_eval(f, env) == prop_eval(nf, env)


@pytest.mark.parametrize("text", ["L{1}\u3000T", "T\u00a0& T", "L{\u00a01} T", "L{1\u2003} T"])
def test_parse_skips_only_ascii_whitespace(text):
    # without re.ASCII, \s skips the ideographic, no-break and em spaces
    with pytest.raises(FormulaSyntaxError):
        parse(text)
    assert parse(text.replace("\u3000", " ").replace("\u00a0", "\t").replace("\u2003", "\n"))


# --- value semantics ---------------------------------------------------------


def test_equal_nodes_compare_and_hash_equal():
    text = "L{1/2} !(T | F) -> T & L{3} T"
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert Top() == Top() and hash(Top()) == hash(())
    assert hash(L(Q(1, 2), Top())) == hash((Q(1, 2), Top()))
    assert len({a, b, Top(), Top()}) == 2
    assert L(Q(1, 2), Top()) != L(Q(1, 3), Top())
    assert And(Top(), Bot()) != And(Bot(), Top())
    assert Top() != Not(Top()) and Top() != ()


def test_sugar_is_part_of_a_nodes_identity():
    assert Not(Top()) != Not(Top(), sugar="or")
    assert hash(Not(Top(), sugar="or")) == hash((Top(), "or"))
    assert Not(child=Top(), sugar="bot") == Bot()
    assert And(left=Top(), right=Top()) == And(Top(), Top())


@pytest.mark.parametrize(
    "node, field",
    [(Top(), "child"), (Not(Top()), "child"), (Not(Top()), "sugar"),
     (And(Top(), Top()), "left"), (L(1, Top()), "rate"), (L(1, Top()), "other")],
)
def test_nodes_are_immutable(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, Top())
    with pytest.raises(AttributeError):
        delattr(node, field)


@pytest.mark.parametrize("node", [Not(Top(), sugar="bot"), And(Top(), Top()), L(1, Top())])
def test_nodes_are_slotted(node):
    # each field is a slot: a node has no __dict__ to take any other attribute
    assert not hasattr(node, "__dict__")
    for field in node.__slots__:
        with pytest.raises(AttributeError):
            setattr(node, field, Top())
        with pytest.raises(AttributeError):
            delattr(node, field)
    with pytest.raises(AttributeError):
        object.__setattr__(node, "extra", Top())


def test_l_coerces_its_rate():
    assert L("1/2", Top()).rate == Q(1, 2)
    assert type(L(2, Top()).rate) is Fraction
    assert L(rate="1/2", child=Top()) == L(Q(1, 2), Top())
    with pytest.raises(RateError, match="float rate"):
        L(0.5, Top())


def test_node_reprs():
    assert repr(parse("L{1/2} !(T | F) -> T & L{3} T")) == (
        "Not(And(L(1/2, Not(Not(And(Not(Top()), Not(Not(Top(), sugar='bot'))),"
        " sugar='or'))), Not(And(Top(), L(3, Top())))), sugar='implies')"
    )
