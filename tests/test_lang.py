import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefchange.exceptions import FormulaSyntaxError, UnknownAtomError
from beliefchange.lang import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Conditional,
    Iff,
    Implies,
    MixedSet,
    Not,
    Or,
    all_worlds,
    cn_extended_member,
    dnf_of_worlds,
    models,
    parse_formula,
    parse_world,
    world_str,
)

ATOMS = ("p", "q")
FULL = all_worlds(2)


def mod(text, atoms=ATOMS):
    return models(parse_formula(text, atoms), atoms)


def worlds(*names):
    """World mask of the named worlds."""
    return sum(1 << parse_world(name, 2) for name in set(names))


# ---------------------------------------------------------------------------
# Parsing


def test_parse_conjunction_of_literal_and_negation():
    f = parse_formula("p & ~q", ATOMS)
    assert f == And(Atom("p"), Not(Atom("q")))


def test_implication_equals_material_conditional():
    assert parse_formula("p -> q", ATOMS) == Implies(Atom("p"), Atom("q"))
    assert mod("p -> q") == mod("~p | q")


def test_unbalanced_parenthesis_reports_offset():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(p &", ATOMS)
    assert err.value.position == 4


def test_unknown_atom_reports_name_and_offset():
    with pytest.raises(UnknownAtomError) as err:
        parse_formula("p & r", ATOMS)
    assert err.value.name == "r"
    assert err.value.position == 4


def test_precedence_and_associativity():
    # ~ > & > | > -> > <->, with -> and <-> right-associative
    assert mod("~p & q | p -> q <-> q") == mod("((((~p) & q) | p) -> q) <-> q")
    assert mod("p -> q -> false") == mod("p -> (q -> false)")
    assert mod("p <-> q <-> false") == mod("p <-> (q <-> false)")


def test_constants_and_parens():
    assert mod("true") == FULL
    assert mod("false") == 0
    assert mod("(p | q) & ~(p & q)") == worlds("01", "10")


@pytest.mark.parametrize("text", ["", "p q", "p &", "& p", "p -> -> q", "(p))", "p @ q"])
def test_bad_inputs_raise_syntax_errors(text):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(text, ATOMS)


def test_atom_list_validation():
    with pytest.raises(ValueError):
        parse_formula("p", [])
    with pytest.raises(ValueError):
        parse_formula("p", ["p", "q", "r", "s", "t"])
    with pytest.raises(ValueError):
        parse_formula("p", ["p", "p"])
    with pytest.raises(ValueError):
        parse_formula("p", ["true"])


# ---------------------------------------------------------------------------
# Models and entailment


def test_models_of_single_atom():
    assert mod("p") == worlds("11", "10")


def test_models_of_contradiction_empty():
    assert mod("p & ~p") == 0


def test_models_of_disjunction():
    assert mod("p | q") == worlds("11", "10", "01")


def entails(gamma, f):
    """Classical consequence from plain sentences, as the package decides it."""
    return cn_extended_member(MixedSet.from_items(gamma, [], ATOMS), f, ATOMS)


def test_entails_modus_ponens():
    gamma = [parse_formula("p", ATOMS), parse_formula("p -> q", ATOMS)]
    assert entails(gamma, parse_formula("q", ATOMS))


def test_entails_tautology_from_nothing():
    assert entails([], parse_formula("p | ~p", ATOMS))


def test_entails_finds_countermodel():
    assert not entails([parse_formula("p", ATOMS)], parse_formula("q", ATOMS))


# ---------------------------------------------------------------------------
# Formula algebra, exhaustively at depth <= 2 and sampled at depth <= 3

_DEPTH0 = (Atom("p"), Atom("q"), TOP, BOTTOM)


def _grow(pool):
    grown = list(pool)
    grown.extend(Not(f) for f in pool)
    for f in pool:
        for g in pool:
            grown.extend((And(f, g), Or(f, g), Implies(f, g), Iff(f, g)))
    return grown


_DEPTH1 = _grow(_DEPTH0)


def test_negation_is_complement_for_all_depth2_formulas():
    for f in _grow(_DEPTH1):
        assert models(Not(f), ATOMS) == FULL & ~models(f, ATOMS)


def test_binary_connectives_are_set_algebra_on_depth1_pairs():
    table = {f: models(f, ATOMS) for f in _DEPTH1}
    for f, mf in table.items():
        for g, mg in table.items():
            assert models(And(f, g), ATOMS) == mf & mg
            assert models(Or(f, g), ATOMS) == mf | mg
            assert models(Implies(f, g), ATOMS) == (FULL & ~mf) | mg
            assert models(Iff(f, g), ATOMS) == (mf & mg) | (FULL & ~mf & ~mg)


def _formula_strategy():
    base = st.sampled_from(_DEPTH0)
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda fg: And(*fg)),
            st.tuples(kids, kids).map(lambda fg: Or(*fg)),
            st.tuples(kids, kids).map(lambda fg: Implies(*fg)),
            st.tuples(kids, kids).map(lambda fg: Iff(*fg)),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(_formula_strategy())
def test_rendered_formula_reparses_to_same_models(f):
    assert mod(str(f)) == models(f, ATOMS)


@settings(max_examples=300, deadline=None)
@given(_formula_strategy(), _formula_strategy())
def test_de_morgan(f, g):
    assert models(Not(And(f, g)), ATOMS) == models(Or(Not(f), Not(g)), ATOMS)


@settings(max_examples=200, deadline=None)
@given(st.lists(_formula_strategy(), max_size=3), _formula_strategy(), _formula_strategy())
def test_entails_is_reflexive_monotone_and_cuts(gamma, f, g):
    assert entails(gamma + [f], f)
    if entails(gamma, f):
        assert entails(gamma + [g], f)
        if entails(gamma + [f], g):
            assert entails(gamma, g)


# ---------------------------------------------------------------------------
# Canonical DNF and worlds


def test_dnf_round_trips_every_proposition():
    for prop in range(16):
        assert mod(dnf_of_worlds(prop, ATOMS)) == prop


def test_dnf_terms_sorted_by_bit_string():
    assert dnf_of_worlds(worlds("10", "00"), ATOMS) == "~p & ~q | p & ~q"
    assert dnf_of_worlds(0, ATOMS) == "false"


def test_world_str_round_trip():
    for w in range(4):
        assert parse_world(world_str(w, 2), 2) == w
    with pytest.raises(ValueError):
        parse_world("2", 2)
    with pytest.raises(ValueError):
        parse_world("101", 2)


# ---------------------------------------------------------------------------
# Mixed sets and extended consequence


def test_plain_member_by_classical_consequence():
    delta = MixedSet.from_items([parse_formula("p", ATOMS)], [], ATOMS)
    assert cn_extended_member(delta, parse_formula("p | q", ATOMS), ATOMS)


def test_conditionals_contribute_nothing_to_plain_part():
    cond = Conditional(parse_formula("p", ATOMS), parse_formula("q", ATOMS))
    delta = MixedSet.from_items([], [cond], ATOMS)
    assert not cn_extended_member(delta, parse_formula("q", ATOMS), ATOMS)


def test_listed_sets_do_not_contain_weakened_conditionals():
    cond = Conditional(parse_formula("p", ATOMS), parse_formula("q", ATOMS))
    delta = MixedSet.from_items([], [cond], ATOMS)
    assert cn_extended_member(delta, cond, ATOMS)
    weaker = Conditional(parse_formula("p", ATOMS), parse_formula("q | ~p", ATOMS))
    assert not cn_extended_member(delta, weaker, ATOMS)


def test_prop2_engine_example():
    # After contracting so that the input is no longer believed, the
    # union with the input never regains the top-conditional for it,
    # even though revision's conditional set contains that conditional.
    from beliefchange.operators import Contraction, Revision, contract, revise
    from beliefchange.tpo import conditional_set, parse_tpo

    m0 = parse_tpo("00 | 11 | 01 10", 2)
    p = mod("p")
    contracted = contract(m0, mod("~p"), Contraction.NATURAL)
    assert contracted.masks[0] & ~p  # input not believed after contraction
    naive = conditional_set(contracted).adding_plain(p)
    top_p = Conditional(TOP, parse_formula("p", ATOMS))
    assert not cn_extended_member(naive, top_p, ATOMS)
    revised = conditional_set(revise(m0, p, Revision.LEXICOGRAPHIC))
    assert cn_extended_member(revised, top_p, ATOMS)


def test_strongest_map_intersects_consequents():
    conds = [
        Conditional(parse_formula("p", ATOMS), parse_formula("q", ATOMS)),
        Conditional(parse_formula("p", ATOMS), parse_formula("~q | ~p", ATOMS)),
    ]
    delta = MixedSet.from_items([], conds, ATOMS)
    assert delta.strongest_map() == {mod("p"): mod("q") & mod("~q | ~p")}
