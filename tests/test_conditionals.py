import random

import pytest

from beliefchange.conditionals import (
    flattest_maximum,
    flattest_satisfier,
    rational_base,
    rational_closure,
    rational_closure_fast,
    satisfies,
)
from beliefchange.exceptions import (
    InconsistentInputError,
    NoMaximumError,
    ScopeError,
    UnsatisfiableError,
)
from beliefchange.lang import MixedSet, all_worlds, models
from beliefchange.operators import Contraction, Revision, contract, contract_by_negation, revise
from beliefchange.tpo import (
    Tpo,
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

from ranks import rank

ATOMS = ("p", "q")


def mod(text):
    return models(text, ATOMS)


def cond(a, b):
    """The (antecedent, consequent) masks of the conditional a => b."""
    return mod(a), mod(b)


def listed(plain=(), conds=()):
    """The listed set of the plain formula texts and the conditionals."""
    plain_models = all_worlds(len(ATOMS))
    for f in plain:
        plain_models &= mod(f)
    return MixedSet(plain_models=plain_models, cond_pairs=frozenset(conds))


def _mask(worlds):
    """World mask of a collection of worlds."""
    return sum(1 << w for w in set(worlds))


def _worlds(mask):
    """The worlds of a mask, ascending."""
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


M0 = parse_tpo("00 | 11 | 01 10", 2)
FLAT = parse_tpo("00 01 10 11", 2)


# ---------------------------------------------------------------------------
# Satisfaction


def test_every_preorder_satisfies_its_own_conditional_set():
    for t in enumerate_tpos(2):
        assert satisfies(t, conditional_set(t))


def test_flat_preorder_does_not_satisfy_top_conditional_for_p():
    delta = listed(conds=[cond("true", "p")])
    assert not satisfies(FLAT, delta)


def test_plain_sentence_holds_when_minimal_worlds_support_it():
    t = parse_tpo("11 | 10 | 00 | 01", 2)
    delta = listed(["p"])
    assert satisfies(t, delta)


# ---------------------------------------------------------------------------
# Rational closure


def test_closure_of_a_rational_set_is_the_set_itself():
    assert rational_closure(conditional_set(M0), 2) == M0


def test_contradictory_top_conditionals_are_unsatisfiable():
    delta = listed(conds=[cond("true", "p"), cond("true", "~p")])
    with pytest.raises(UnsatisfiableError):
        rational_closure(delta, 2)


def test_closure_of_contracted_set_plus_input():
    contracted = contract(M0, mod("~p"), Contraction.NATURAL)
    assert format_tpo(contracted) == "00 11 | 01 10"
    delta = conditional_set(contracted).adding_plain(mod("p"))
    result = rational_closure(delta, 2)
    assert format_tpo(result) == "11 | 00 | 01 10"
    assert result == revise(contracted, mod("p"), Revision.NATURAL)


def test_closure_result_satisfies_its_input():
    pool = list(enumerate_tpos(2))
    for t in pool[::7]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.STQ_RESTRAINED)
            delta = conditional_set(contracted).adding_plain(p)
            result = flattest_satisfier(delta, pool)
            assert satisfies(result, delta)
            assert rational_closure(delta, 2) == result


def test_closure_is_idempotent():
    pool = list(enumerate_tpos(2))
    for t in pool[::9]:
        for p in list(propositions(2))[::4]:
            contracted = contract_by_negation(t, p, Contraction.NATURAL)
            delta = conditional_set(contracted).adding_plain(p)
            first = flattest_satisfier(delta, pool)
            again = flattest_satisfier(conditional_set(first), pool)
            assert again == first
            assert rational_closure(delta, 2) == first
            assert rational_closure(conditional_set(first), 2) == first


def test_closure_preserves_contracted_strict_preferences():
    pool = list(enumerate_tpos(2))
    for t in pool[::7]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.STQ_LEX)
            delta = conditional_set(contracted).adding_plain(p)
            result = flattest_satisfier(delta, pool)
            assert rational_closure(delta, 2) == result
            rc, rr = rank(contracted), rank(result)
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
        rational_closure(conditional_set(M0), 5)


# ---------------------------------------------------------------------------
# System Z against the brute-force oracle


def _assert_z_is_the_flattest_satisfier(delta, pool):
    """Z fails exactly on the sets no preorder satisfies; otherwise its
    answer satisfies the set, is at least as flat as every satisfier (so
    the oracle's maximum always exists) and is the oracle's answer."""
    satisfiers = [t for t in pool if satisfies(t, delta)]
    if not satisfiers:
        with pytest.raises(UnsatisfiableError):
            rational_closure(delta, 2)
        with pytest.raises(UnsatisfiableError):
            flattest_satisfier(delta, pool)
        return False
    z = rational_closure(delta, 2)
    assert z in satisfiers, delta
    assert all(flatter_eq(z, t) for t in satisfiers), delta
    assert flattest_satisfier(delta, pool) == z
    return True


def test_system_z_matches_the_oracle_on_every_conditional_set():
    pool = list(enumerate_tpos(2))
    plain_parts = range(16)
    satisfiable = 0
    for t in pool:
        for plain in plain_parts:
            delta = MixedSet(plain_models=plain, cond_pairs=conditional_set(t).cond_pairs)
            satisfiable += _assert_z_is_the_flattest_satisfier(delta, pool)
    assert 0 < satisfiable < len(pool) * len(plain_parts)


def _random_mixed_set(rng, n_atoms):
    props = propositions(n_atoms)
    n_worlds = 1 << n_atoms
    pairs = frozenset(
        (rng.choice(props), _mask(w for w in range(n_worlds) if rng.random() < 0.6))
        for _ in range(rng.randint(0, 5))
    )
    plain = _mask(w for w in range(n_worlds) if rng.random() < 0.7)
    return MixedSet(plain_models=plain, cond_pairs=pairs)


def test_system_z_matches_the_oracle_on_random_mixed_sets():
    pool = list(enumerate_tpos(2))
    rng = random.Random(7)
    cases = 3000
    satisfiable = sum(
        _assert_z_is_the_flattest_satisfier(_random_mixed_set(rng, 2), pool)
        for _ in range(cases)
    )
    assert 0 < satisfiable < cases


def _random_tpo(rng, n_atoms):
    n_worlds = 1 << n_atoms
    rank = [rng.randrange(n_worlds) for _ in range(n_worlds)]
    masks = (_mask(w for w in range(n_worlds) if rank[w] == r) for r in sorted(set(rank)))
    return Tpo(masks, n_atoms)


def _contracted_instances(rng, n_atoms, count):
    """(contracted preorder, input) pairs from random priors and inputs."""
    n_worlds = 1 << n_atoms
    out = []
    for i in range(count):
        t = _random_tpo(rng, n_atoms)
        p = _mask(w for w in range(n_worlds) if rng.random() < 0.5)
        p |= 1 << rng.randrange(n_worlds)
        con = tuple(Contraction)[i % len(Contraction)]
        out.append((contract_by_negation(t, p, con), p))
    return out


def test_system_z_equals_the_fast_path_at_three_atoms():
    rng = random.Random(11)
    for contracted, p in _contracted_instances(rng, 3, 30):
        delta = conditional_set(contracted).adding_plain(p)
        assert rational_closure(delta, 3) == rational_closure_fast(contracted, p)


def test_system_z_at_four_atoms():
    rng = random.Random(4)
    for _ in range(2):
        t = _random_tpo(rng, 4)
        assert rational_closure(conditional_set(t), 4) == t
    for contracted, p in _contracted_instances(rng, 4, 3):
        delta = conditional_set(contracted).adding_plain(p)
        assert rational_closure(delta, 4) == revise(contracted, p, Revision.NATURAL)


# ---------------------------------------------------------------------------
# Fast path


def test_fast_path_from_flat_preorder():
    assert format_tpo(rational_closure_fast(FLAT, mod("p"))) == "10 11 | 00 01"


def test_fast_path_fixed_point():
    assert rational_closure_fast(M0, mod("~p | ~q")) == M0


def test_fast_path_refuses_a_sentence_without_models():
    with pytest.raises(InconsistentInputError, match=r"^input sentence has no models$"):
        rational_closure_fast(M0, 0)


def test_fast_path_agrees_with_brute_force_on_contracted_instances():
    pool = list(enumerate_tpos(2))
    for t in pool[::11]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.STQ_LEX)
            delta = conditional_set(contracted).adding_plain(p)
            fast = rational_closure_fast(contracted, p)
            assert flattest_satisfier(delta, pool) == fast
            assert rational_closure(delta, 2) == fast


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
    delta = listed(conds=[cond("p", "q")])
    assert rational_base(delta, 2) is None


def test_prop2_union_is_never_rational_when_input_unbelieved():
    for t in list(enumerate_tpos(2))[::6]:
        for p in propositions(2):
            contracted = contract_by_negation(t, p, Contraction.NATURAL)
            if not contracted.masks[0] & ~p:
                continue
            delta = conditional_set(contracted).adding_plain(p)
            base = rational_base(delta, 2)
            assert base == contracted  # the conditionals still name it
            assert base.masks[0] != delta.plain_models  # but the plain part is not its


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
    for p in rng.sample(sorted(pairs, key=_worlds), rng.randint(1, 3)):
        choice = rng.randrange(3)
        members = _worlds(p)
        sub = _mask(rng.sample(members, rng.randint(1, len(members))))
        if choice == 0:
            pairs[p] = sub
        elif choice == 1:
            del pairs[p]
        else:
            extra.append((p, sub))
    plain = _mask(w for w in range(1 << n_atoms) if rng.random() < 0.5)
    return MixedSet(plain_models=plain, cond_pairs=frozenset(pairs.items()) | frozenset(extra))


def test_rational_base_agrees_with_the_enumeration_route():
    maps = _minimal_world_maps(2)
    rng = random.Random(0)
    pool = list(enumerate_tpos(2))
    plain_parts = range(16)
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
