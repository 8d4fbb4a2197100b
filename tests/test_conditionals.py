import random

import pytest

from beliefchange.conditionals import (
    flattest_maximum,
    rational_base,
    rational_closure,
    rational_closure_fast,
    satisfies,
)
from beliefchange.exceptions import NoMaximumError, ScopeError, UnsatisfiableError
from beliefchange.lang import Conditional, MixedSet, models, parse_formula
from beliefchange.operators import Contraction, Revision, contract, contract_by_negation, revise
from beliefchange.tpo import (
    conditional_set,
    enumerate_tpos,
    flatter_eq,
    count_tpos,
    format_tpo,
    min_worlds,
    parse_tpo,
    propositions,
    tpo_at_index,
)

ATOMS = ("p", "q")


def mod(text):
    return models(parse_formula(text, ATOMS), ATOMS)


def cond(a, b):
    return Conditional(parse_formula(a, ATOMS), parse_formula(b, ATOMS))


M0 = parse_tpo("00 | 11 | 01 10", 2)
FLAT = parse_tpo("00 01 10 11", 2)


# ---------------------------------------------------------------------------
# Satisfaction


def test_every_preorder_satisfies_its_own_conditional_set():
    for t in enumerate_tpos(2):
        assert satisfies(t, conditional_set(t))


def test_flat_preorder_does_not_satisfy_top_conditional_for_p():
    delta = MixedSet.from_items([], [cond("true", "p")], ATOMS)
    assert not satisfies(FLAT, delta)


def test_plain_sentence_holds_when_minimal_worlds_support_it():
    t = parse_tpo("11 | 10 | 00 | 01", 2)
    delta = MixedSet.from_items([parse_formula("p", ATOMS)], [], ATOMS)
    assert satisfies(t, delta)


# ---------------------------------------------------------------------------
# Rational closure


def test_closure_of_a_rational_set_is_the_set_itself():
    result = rational_closure(conditional_set(M0), 2)
    assert result.tpo == M0
    assert result.closure.cond_pairs == conditional_set(M0).cond_pairs


def test_contradictory_top_conditionals_are_unsatisfiable():
    delta = MixedSet.from_items([], [cond("true", "p"), cond("true", "~p")], ATOMS)
    with pytest.raises(UnsatisfiableError):
        rational_closure(delta, 2)


def test_closure_of_contracted_set_plus_input():
    contracted = contract(M0, mod("~p"), Contraction.NATURAL)
    assert format_tpo(contracted) == "00 11 | 01 10"
    delta = conditional_set(contracted).adding_plain(mod("p"))
    result = rational_closure(delta, 2)
    assert format_tpo(result.tpo) == "11 | 00 | 01 10"
    assert result.tpo == revise(contracted, mod("p"), Revision.NATURAL)


def test_closure_result_satisfies_its_input():
    pool = list(enumerate_tpos(2))
    for t in pool[::7]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.STQ_RESTRAINED)
            delta = conditional_set(contracted).adding_plain(p)
            result = rational_closure(delta, 2, candidates=pool)
            assert satisfies(result.tpo, delta)


def test_closure_is_idempotent():
    pool = list(enumerate_tpos(2))
    for t in pool[::9]:
        for p in list(propositions(2))[::4]:
            contracted = contract_by_negation(t, p, Contraction.NATURAL)
            delta = conditional_set(contracted).adding_plain(p)
            first = rational_closure(delta, 2, candidates=pool)
            again = rational_closure(conditional_set(first.tpo), 2, candidates=pool)
            assert again.tpo == first.tpo


def test_closure_preserves_contracted_strict_preferences():
    pool = list(enumerate_tpos(2))
    for t in pool[::7]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.STQ_LEX)
            delta = conditional_set(contracted).adding_plain(p)
            result = rational_closure(delta, 2, candidates=pool)
            rc, rr = contracted.rank, result.tpo.rank
            for x in range(4):
                for y in range(4):
                    if rc[x] < rc[y]:
                        assert rr[x] < rr[y]


def test_closure_with_input_contradicting_beliefs_is_unsatisfiable():
    # The conditional set pins the belief set; adding a sentence false in
    # all minimal worlds leaves nothing to satisfy.  The contract-then-add
    # route never produces such inputs.
    chain = parse_tpo("00 | 01 | 10 | 11", 2)
    delta = conditional_set(chain).adding_plain(mod("p & q"))
    with pytest.raises(UnsatisfiableError):
        rational_closure(delta, 2)


def test_closure_scope_is_capped():
    with pytest.raises(ScopeError):
        rational_closure(conditional_set(M0), 4)


# ---------------------------------------------------------------------------
# Fast path


def test_fast_path_from_flat_preorder():
    assert format_tpo(rational_closure_fast(FLAT, mod("p"))) == "10 11 | 00 01"


def test_fast_path_fixed_point():
    assert rational_closure_fast(M0, mod("~p | ~q")) == M0


def test_fast_path_agrees_with_brute_force_on_contracted_instances():
    pool = list(enumerate_tpos(2))
    for t in pool[::11]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.STQ_LEX)
            delta = conditional_set(contracted).adding_plain(p)
            assert rational_closure(delta, 2, candidates=pool).tpo == rational_closure_fast(
                contracted, p
            )


# ---------------------------------------------------------------------------
# Flattest element


def test_flattest_maximum_requires_a_maximum():
    incomparable = [parse_tpo("00 01 | 10 11", 2), parse_tpo("00 10 | 01 11", 2)]
    with pytest.raises(NoMaximumError):
        flattest_maximum(incomparable)


def test_flattest_maximum_finds_the_maximum():
    pool = [M0, FLAT, parse_tpo("00 | 01 10 11", 2)]
    top = flattest_maximum(pool)
    assert top == FLAT
    assert all(flatter_eq(top, t) for t in pool)


# ---------------------------------------------------------------------------
# Rationality


def test_conditional_sets_are_rational():
    assert rational_base(conditional_set(M0), 2) == M0
    assert rational_base(conditional_set(FLAT), 2) == FLAT


def test_single_conditional_is_not_rational():
    delta = MixedSet.from_items([], [cond("p", "q")], ATOMS)
    assert rational_base(delta, 2) is None


def test_prop2_union_is_never_rational_when_input_unbelieved():
    for t in list(enumerate_tpos(2))[::6]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.NATURAL)
            if contracted.cells[0] <= p:
                continue
            delta = conditional_set(contracted).adding_plain(p)
            base = rational_base(delta, 2)
            assert base == contracted  # the conditionals still name it
            assert base.cells[0] != delta.plain_models  # but the plain part is not its


def _minimal_world_maps(n_atoms):
    """Enumeration route: every preorder keyed by its minimal-world map."""
    return {
        frozenset((p, min_worlds(t, p)) for p in propositions(n_atoms)): t
        for t in enumerate_tpos(n_atoms)
    }


def _enumerated_base(delta, maps):
    return maps.get(frozenset(delta.strongest_map().items()))


def _perturbed(delta, rng, n_atoms):
    """The set with a few antecedents remapped, dropped or doubled."""
    pairs = dict(delta.cond_pairs)
    extra = []
    for p in rng.sample(sorted(pairs, key=sorted), rng.randint(1, 3)):
        choice = rng.randrange(3)
        members = sorted(p)
        sub = frozenset(rng.sample(members, rng.randint(1, len(members))))
        if choice == 0:
            pairs[p] = sub
        elif choice == 1:
            del pairs[p]
        else:
            extra.append((p, sub))
    plain = frozenset(w for w in range(1 << n_atoms) if rng.random() < 0.5)
    return MixedSet(plain_models=plain, cond_pairs=frozenset(pairs.items()) | frozenset(extra))


def test_rational_base_agrees_with_the_enumeration_route():
    maps = _minimal_world_maps(2)
    rng = random.Random(0)
    pool = list(enumerate_tpos(2))
    plain_parts = [frozenset(w for w in range(4) if mask >> w & 1) for mask in range(16)]
    for t in pool:
        for plain in plain_parts:
            delta = MixedSet(plain_models=plain, cond_pairs=conditional_set(t).cond_pairs)
            assert rational_base(delta, 2) == _enumerated_base(delta, maps) == t
    non_rational = 0
    for _ in range(3000):
        delta = _perturbed(conditional_set(rng.choice(pool)), rng, 2)
        base = rational_base(delta, 2)
        assert base == _enumerated_base(delta, maps), delta
        non_rational += base is None
    assert 0 < non_rational < 3000


def test_rational_base_recovers_three_atom_preorders():
    rng = random.Random(3)
    for _ in range(5):
        t = tpo_at_index(rng.randrange(count_tpos(3)), 3)
        assert rational_base(conditional_set(t), 3) == t
        delta = _perturbed(conditional_set(t), rng, 3)
        base = rational_base(delta, 3)
        assert base is None or conditional_set(base).cond_pairs == frozenset(
            delta.strongest_map().items()
        )
