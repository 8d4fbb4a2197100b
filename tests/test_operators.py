import pickle
import random

import pytest

from beliefchange.exceptions import (
    AbsurdStateError,
    EmptyModelSetError,
    InconsistentInputError,
)
from beliefchange.lang import models, parse_formula
from beliefchange.operators import (
    Contraction,
    Revision,
    contract,
    contract_by_negation,
    expand,
    make_random_dp_operator,
    nli_revise,
    revise,
    stq_merge,
)
from beliefchange.postulates import _NliComposition, postulate_holds
from beliefchange.tpo import (
    Absurd,
    Tpo,
    count_tpos,
    enumerate_tpos,
    format_tpo,
    min_worlds,
    parse_tpo,
    propositions,
    tpo_at_index,
)

ATOMS = ("p", "q")


def mod(text):
    return models(parse_formula(text, ATOMS), ATOMS)


M0 = parse_tpo("00 | 11 | 01 10", 2)
P = mod("p")


# ---------------------------------------------------------------------------
# The three revisions on the worked four-world example


def test_lexicographic_revision_on_example():
    assert format_tpo(revise(M0, P, Revision.LEXICOGRAPHIC)) == "11 | 10 | 00 | 01"


def test_natural_revision_on_example():
    assert format_tpo(revise(M0, P, Revision.NATURAL)) == "11 | 00 | 01 10"


def test_restrained_revision_on_example():
    assert format_tpo(revise(M0, P, Revision.RESTRAINED)) == "11 | 00 | 10 | 01"


def test_revision_success_is_exact():
    for t in enumerate_tpos(2):
        for p in propositions(2):
            for method in Revision:
                assert revise(t, p, method).cells[0] == min_worlds(t, p)


def test_revision_rejects_inconsistent_input():
    with pytest.raises(InconsistentInputError):
        revise(M0, frozenset(), Revision.NATURAL)


def test_revision_rejects_foreign_worlds():
    with pytest.raises(ValueError):
        revise(M0, frozenset({9}), Revision.NATURAL)


def test_contraction_rejects_foreign_worlds():
    for worlds in ({0, 9}, {-1}):
        with pytest.raises(ValueError, match="outside this preorder's world set"):
            contract(M0, frozenset(worlds), Contraction.NATURAL)
        with pytest.raises(ValueError, match="outside this preorder's world set"):
            contract_by_negation(M0, frozenset(worlds), Contraction.NATURAL)


# ---------------------------------------------------------------------------
# TeamQueue merge


def test_merge_is_idempotent():
    for t in enumerate_tpos(2):
        assert stq_merge(t, t) == t


def test_merge_reproduces_contraction_fixed_point():
    t1 = parse_tpo("11 | 10 01 | 00", 2)
    t2 = parse_tpo("11 | 10 | 01 | 00", 2)
    assert stq_merge(t1, t2) == t1


def test_merge_of_example_pair():
    assert format_tpo(stq_merge(M0, parse_tpo("11 | 10 | 00 | 01", 2))) == "00 11 | 01 10"


def test_merge_preserves_shared_preferences():
    # Strict preferences shared by both arguments survive, and so do weak ones.
    pool = list(enumerate_tpos(2))
    worlds = range(4)
    for t1 in pool:
        for t2 in pool:
            merged = stq_merge(t1, t2)
            r1, r2, rm = t1.rank, t2.rank, merged.rank
            for x in worlds:
                for y in worlds:
                    if x == y:
                        continue
                    if r1[x] < r1[y] and r2[x] < r2[y]:
                        assert rm[x] < rm[y]
                    if r1[x] <= r1[y] and r2[x] <= r2[y]:
                        assert rm[x] <= rm[y]


# ---------------------------------------------------------------------------
# Contraction


def test_contraction_composes_merge_and_revision():
    assert format_tpo(contract(M0, mod("~p"), Contraction.NATURAL)) == "00 11 | 01 10"


def test_stq_lex_contraction_fixed_point():
    t = parse_tpo("11 | 10 01 | 00", 2)
    assert contract(t, mod("~p"), Contraction.STQ_LEX) == t


def test_contraction_beliefs_are_union_of_minima():
    for t in enumerate_tpos(2):
        for p in propositions(2):
            if p == t.world_set:
                continue
            for method in Contraction:
                got = contract(t, p, method).cells[0]
                assert got == t.cells[0] | min_worlds(t, t.world_set - p)


def test_contraction_by_tautology_is_identity():
    assert contract(M0, mod("true"), Contraction.STQ_LEX) == M0


def test_contraction_rejects_inconsistent_input():
    with pytest.raises(InconsistentInputError):
        contract(M0, frozenset(), Contraction.NATURAL)


def test_contracting_the_absurd_state_flattens_everything():
    flat = contract(Absurd(2), P, Contraction.STQ_LEX)
    assert format_tpo(flat) == "00 01 10 11"


# ---------------------------------------------------------------------------
# Expansion


def test_expansion_consistent_with_beliefs_revises():
    assert expand(M0, mod("~p & ~q"), Revision.NATURAL) == M0


def test_expansion_against_beliefs_gives_absurd():
    assert expand(M0, P, Revision.NATURAL) == Absurd(2)
    assert expand(M0, P, Revision.LEXICOGRAPHIC) == Absurd(2)


def test_expansion_of_absurd_is_rejected():
    with pytest.raises(AbsurdStateError):
        expand(Absurd(2), P, Revision.NATURAL)
    with pytest.raises(InconsistentInputError):
        expand(M0, frozenset(), Revision.NATURAL)


def test_expansion_never_goes_absurd_after_making_room():
    # On the contract-then-add route the contraction keeps an input world
    # minimal, so the expansion step always coincides with revision.
    for t in enumerate_tpos(2):
        for p in propositions(2):
            for con in Contraction:
                contracted = contract_by_negation(t, p, con)
                expanded = expand(contracted, p, Revision.NATURAL)
                assert expanded == revise(contracted, p, Revision.NATURAL)


# ---------------------------------------------------------------------------
# Revision routed through contraction


def test_routed_revision_on_prop5_model():
    t = parse_tpo("11 | 10 01 | 00", 2)
    routed = nli_revise(t, P, Contraction.STQ_LEX, Revision.LEXICOGRAPHIC)
    assert format_tpo(routed) == "11 | 10 | 01 | 00"
    assert routed == revise(t, P, Revision.LEXICOGRAPHIC)


def test_routed_revision_violation_witness():
    t = parse_tpo("00 | 01 | 10 | 11", 2)
    direct = revise(t, P, Revision.NATURAL)
    routed = nli_revise(t, P, Contraction.STQ_LEX, Revision.NATURAL)
    assert format_tpo(direct) == "10 | 00 | 01 | 11"
    assert format_tpo(routed) == "10 | 00 | 01 11"
    assert direct != routed


def test_matching_pair_routes_identically_everywhere():
    for t in enumerate_tpos(2):
        for p in propositions(2):
            assert nli_revise(t, p, Contraction.NATURAL, Revision.NATURAL) == revise(
                t, p, Revision.NATURAL
            )


def test_routed_revision_accepts_tautology():
    assert nli_revise(M0, mod("true"), Contraction.STQ_LEX, Revision.NATURAL) == M0


# ---------------------------------------------------------------------------
# Random tabular operators


def test_same_seed_gives_identical_tables():
    assert make_random_dp_operator(7, 2).table == make_random_dp_operator(7, 2).table


def test_random_operators_satisfy_success_and_dp_by_construction():
    for seed in range(3):
        op = make_random_dp_operator(seed, 2)
        assert postulate_holds("Success", op, n_atoms=2)
        for i in (1, 2, 3, 4):
            assert postulate_holds(f"DP{i}", op, n_atoms=2)


def test_seed_zero_operator_is_not_elementary():
    op = make_random_dp_operator(0, 2)
    assert not postulate_holds("IIAP", op, n_atoms=2)


def test_tabular_operator_rejects_unknown_instances():
    op = make_random_dp_operator(0, 2)
    with pytest.raises(LookupError):
        op.posterior(parse_tpo("0 | 1", 1), frozenset({0}))


# ---------------------------------------------------------------------------
# The frozenset operators the mask core replaced, kept as the oracle


def _oracle_min_worlds(t, s):
    s = frozenset(s)
    if not s:
        raise EmptyModelSetError("minimisation over an empty world set")
    rank = {w: i for i, cell in enumerate(t.cells) for w in cell}
    best = min(rank[w] for w in s)
    return frozenset(w for w in s if rank[w] == best)


def _oracle_revise(t, sentence_models, method):
    minimal = _oracle_min_worlds(t, sentence_models)
    cells = [minimal]
    if method is Revision.NATURAL:
        for cell in t.cells:
            rest = cell - minimal
            if rest:
                cells.append(rest)
    elif method is Revision.RESTRAINED:
        for cell in t.cells:
            inside = (cell & sentence_models) - minimal
            outside = cell - sentence_models
            if inside:
                cells.append(inside)
            if outside:
                cells.append(outside)
    else:
        cells = [cell & sentence_models for cell in t.cells if cell & sentence_models]
        cells += [cell - sentence_models for cell in t.cells if cell - sentence_models]
    return Tpo(tuple(cells), t.n_atoms)


def _oracle_stq_merge(t1, t2):
    remaining = set(t1.world_set)
    cells = []
    while remaining:
        current = set()
        for t in (t1, t2):
            for cell in t.cells:
                alive = cell & remaining
                if alive:
                    current |= alive
                    break
        cells.append(frozenset(current))
        remaining -= current
    return Tpo(tuple(cells), t1.n_atoms)


def _oracle_contract(t, sentence_models, method):
    if sentence_models == t.world_set:
        return t
    negated = t.world_set - sentence_models
    return _oracle_stq_merge(t, _oracle_revise(t, negated, method.base))


def _assert_matches_oracle(t, p):
    assert min_worlds(t, p) == _oracle_min_worlds(t, p)
    for method in Revision:
        got, expected = revise(t, p, method), _oracle_revise(t, p, method)
        assert got == expected and got.cells == expected.cells
    for method in Contraction:
        got, expected = contract(t, p, method), _oracle_contract(t, p, method)
        assert got == expected and got.cells == expected.cells


def test_mask_operators_match_the_oracle_on_every_two_atom_instance():
    for t in enumerate_tpos(2):
        for p in propositions(2):
            _assert_matches_oracle(t, p)


def test_mask_merge_matches_the_oracle_on_every_two_atom_pair():
    pool = list(enumerate_tpos(2))
    for t1 in pool:
        for t2 in pool:
            got, expected = stq_merge(t1, t2), _oracle_stq_merge(t1, t2)
            assert got == expected and got.cells == expected.cells


def test_mask_operators_match_the_oracle_on_three_atom_draws():
    rng = random.Random(6)
    props = propositions(3)
    total = count_tpos(3)
    for _ in range(2000):
        t = tpo_at_index(rng.randrange(total), 3)
        _assert_matches_oracle(t, rng.choice(props))
        other = tpo_at_index(rng.randrange(total), 3)
        assert stq_merge(t, other) == _oracle_stq_merge(t, other)


def test_both_construction_routes_give_one_value():
    rng = random.Random(6)
    draws = [tpo_at_index(rng.randrange(count_tpos(3)), 3) for _ in range(200)]
    for t in list(enumerate_tpos(2)) + draws:
        from_cells = Tpo(tuple(frozenset(sorted(cell)) for cell in t.cells), t.n_atoms)
        assert from_cells == t and hash(from_cells) == hash(t)
        assert from_cells.cells == t.cells and str(from_cells) == str(t)
        assert from_cells.rank == t.rank == tuple(
            next(i for i, cell in enumerate(t.cells, 1) if w in cell)
            for w in range(1 << t.n_atoms)
        )
        for u in (t, from_cells):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(u, protocol))
                assert copy == t and hash(copy) == hash(t)
                assert copy.rank == t.rank and copy.cells == t.cells and str(copy) == str(t)


def test_preorders_are_immutable():
    with pytest.raises(AttributeError):
        M0.masks = (15,)
    with pytest.raises(AttributeError):
        del M0.n_atoms


# ---------------------------------------------------------------------------
# Equivariance: the built-in operators commute with world permutations


def _permuted(t, perm):
    return Tpo(tuple(frozenset(perm[w] for w in cell) for cell in t.cells), t.n_atoms)


def test_operators_commute_with_world_permutations():
    rng = random.Random(6)
    props = propositions(3)
    total = count_tpos(3)
    compositions = [_NliComposition(con, rev) for con in Contraction for rev in Revision]
    for _ in range(2000):
        t = tpo_at_index(rng.randrange(total), 3)
        p = rng.choice(props)
        perm = list(range(8))
        rng.shuffle(perm)
        pt, pp = _permuted(t, perm), frozenset(perm[w] for w in p)
        for method in Revision:
            assert revise(pt, pp, method) == _permuted(revise(t, p, method), perm)
        for method in Contraction:
            assert contract(pt, pp, method) == _permuted(contract(t, p, method), perm)
        for composed in compositions:
            assert composed.posterior(pt, pp) == _permuted(composed.posterior(t, p), perm)
