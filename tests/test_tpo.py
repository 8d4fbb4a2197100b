import copy
import itertools
import pickle

import pytest

from beliefchange import tpo
from beliefchange.exceptions import EmptyModelSetError, PartitionError
from beliefchange.lang import all_worlds, cn_extended_member, models, parse_world
from beliefchange.operators import Revision, revise
from beliefchange.tpo import (
    Absurd,
    Tpo,
    _a_preserving_isos,
    beliefs,
    conditional_holds,
    conditional_set,
    count_ordered_partitions,
    count_tpos,
    enumerate_tpos,
    flatter_eq,
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


def w(name):
    return parse_world(name, 2)


def mask(*names):
    """World mask of the named worlds."""
    return sum(1 << w(name) for name in set(names))


M0 = parse_tpo("00 | 11 | 01 10", 2)
FLAT = parse_tpo("00 01 10 11", 2)
CHAIN = parse_tpo("00 | 01 | 10 | 11", 2)


# ---------------------------------------------------------------------------
# Construction and text form


def test_partition_ranks():
    r = rank(Tpo((mask("00"), mask("11"), mask("01", "10")), 2))
    assert r[w("00")] == 1
    assert r[w("11")] == 2
    assert r[w("01")] == 3 and r[w("10")] == 3


def test_overlapping_cells_rejected():
    with pytest.raises(PartitionError):
        parse_tpo("00 | 00 11 | 01 10", 2)
    with pytest.raises(PartitionError, match="world 00 listed twice in one cell"):
        parse_tpo("00 00 | 01 10 11", 2)
    with pytest.raises(PartitionError):
        Tpo((0b0001, 0b1001, 0b0110), 2)


def test_missing_worlds_rejected():
    with pytest.raises(PartitionError):
        parse_tpo("00 | 11", 2)
    with pytest.raises(PartitionError):
        Tpo((0b0001, 0b1000), 2)


def test_empty_cell_and_unknown_world_rejected():
    with pytest.raises(PartitionError):
        parse_tpo("| 00 01 10 11", 2)
    with pytest.raises(PartitionError):
        Tpo((0, 0b1111), 2)
    with pytest.raises(PartitionError):
        parse_tpo("00 01 10 11 100", 2)
    with pytest.raises(PartitionError):
        Tpo((0b11111,), 2)


@pytest.mark.parametrize(
    "n_atoms, masks",
    [
        (0, (1,)),  # would be a one-world preorder printed as "0"
        (5, ((1 << 32) - 1,)),  # beyond lang.MAX_ATOMS
        (-1, (1,)),
        ("2", (1,)),
        (True, (0b01, 0b10)),  # equal to 1, but no int
        (2.0, (0b1111,)),
        ([2], (0b1111,)),
    ],
)
def test_atom_count_outside_1_to_4_rejected(n_atoms, masks):
    with pytest.raises(PartitionError, match=r"atom count .* is not 1 to 4"):
        Tpo(masks, n_atoms)
    with pytest.raises(PartitionError, match=r"atom count .* is not 1 to 4"):
        Absurd(n_atoms)


def test_a_preorder_is_the_validated_pair():
    t = Tpo([0b0001, 0b1000, 0b0110], 2)
    assert t == ((1, 8, 6), 2) and tuple(t) == ((1, 8, 6), 2)
    assert hash(t) == hash((t.masks, t.n_atoms))
    assert repr(t) == "Tpo(masks=(1, 8, 6), n_atoms=2)"
    masks, n_atoms = t
    assert masks is t.masks and n_atoms == 2


def test_every_route_to_a_preorder_validates(monkeypatch):
    t = parse_tpo("00 | 11 | 01 10", 2)
    routes = {
        "_make": lambda: Tpo._make(((1, 8, 6), 2)),
        "_replace": lambda: t._replace(masks=(8, 1, 6)),
        "copy": lambda: copy.copy(t),
        "deepcopy": lambda: copy.deepcopy(t),
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        routes[f"pickle {protocol}"] = lambda p=protocol: pickle.loads(pickle.dumps(t, p))
    calls, check = [], Tpo.__post_init__
    monkeypatch.setattr(Tpo, "__post_init__", lambda self: calls.append(self) or check(self))
    for name, route in routes.items():
        calls.clear()
        made = route()
        assert type(made) is Tpo, name
        assert calls == [made], name
        assert made.n_atoms == 2 and sorted(made.masks) == [1, 6, 8], name


def test_no_route_builds_an_invalid_preorder():
    t = Tpo((0b0001, 0b1000, 0b0110), 2)
    with pytest.raises(PartitionError):
        t._replace(masks=(1, 2))
    with pytest.raises(PartitionError):
        Tpo._make(((1, 9, 6), 2))
    with pytest.raises(PartitionError):
        t._replace(n_atoms=3)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(t, protocol)
        cell = b"I8\n" if protocol == 0 else b"K\x08"  # the pickled cell 0b1000
        assert data.count(cell) == 1
        with pytest.raises(PartitionError, match="more than one cell"):
            pickle.loads(data.replace(cell, b"I9\n" if protocol == 0 else b"K\x09"))


def test_every_route_to_an_absurd_state_checks_its_atom_count(monkeypatch):
    a = Absurd(2)
    routes = {
        "_make": lambda: Absurd._make((2,)),
        "_replace": lambda: a._replace(n_atoms=2),
        "copy": lambda: copy.copy(a),
        "deepcopy": lambda: copy.deepcopy(a),
    }
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        routes[f"pickle {protocol}"] = lambda p=protocol: pickle.loads(pickle.dumps(a, p))
    calls, check = [], tpo._atom_count
    monkeypatch.setattr(tpo, "_atom_count", lambda n: calls.append(n) or check(n))
    for name, route in routes.items():
        calls.clear()
        made = route()
        assert type(made) is Absurd, name
        assert calls == [2] and made.n_atoms == 2, name


def test_no_route_builds_an_invalid_absurd_state():
    a = Absurd(2)
    with pytest.raises(PartitionError):
        a._replace(n_atoms=5)
    with pytest.raises(PartitionError):
        Absurd._make((0,))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(a, protocol)
        count = b"I2\n" if protocol == 0 else b"K\x02"  # the pickled atom count 2
        assert data.count(count) == 1
        with pytest.raises(PartitionError, match="atom count 5 is not 1 to 4"):
            pickle.loads(data.replace(count, b"I5\n" if protocol == 0 else b"K\x05"))


def test_text_form_round_trips_every_tpo():
    for t in enumerate_tpos(2):
        assert parse_tpo(format_tpo(t), 2) == t


def test_text_form_sorts_worlds_ascending():
    assert format_tpo(parse_tpo("11 | 10 01 | 00", 2)) == "11 | 01 10 | 00"


def test_rank_is_surjective_onto_cell_indices():
    for t in enumerate_tpos(2):
        assert set(rank(t)) == set(range(1, len(t.masks) + 1))


# ---------------------------------------------------------------------------
# Minimisation


def test_min_worlds_picks_best_input_world():
    assert min_worlds(M0, mod("p")) == mask("11")


def test_min_worlds_of_everything_is_first_cell():
    for t in itertools.islice(enumerate_tpos(2), 20):
        assert min_worlds(t, all_worlds(2)) == t.masks[0]


def test_min_worlds_rejects_empty_selection():
    with pytest.raises(EmptyModelSetError):
        min_worlds(M0, 0)


def test_min_worlds_rejects_foreign_worlds():
    for worlds in (0b10 | 1 << 9, 1 << 9, 1 << 4, -1):
        with pytest.raises(ValueError, match="input models outside this preorder's world set"):
            min_worlds(M0, worlds)


def test_lexicographic_revision_breaks_agreement_on_tied_pair():
    revised = revise(M0, mod("p"), Revision.LEXICOGRAPHIC)
    assert format_tpo(revised) == "11 | 10 | 00 | 01"
    assert rank(M0)[w("01")] == rank(M0)[w("10")]
    assert rank(revised)[w("10")] < rank(revised)[w("01")]


# ---------------------------------------------------------------------------
# Flatness order


def test_flatter_eq_reflexive_on_examples():
    assert flatter_eq(M0, M0)


def test_single_cell_is_flattest():
    assert flatter_eq(FLAT, M0)
    assert not flatter_eq(M0, FLAT)


def test_flatter_eq_is_a_partial_order():
    pool = list(enumerate_tpos(2))
    for t in pool:
        assert flatter_eq(t, t)
    for t1 in pool:
        for t2 in pool:
            if flatter_eq(t1, t2) and flatter_eq(t2, t1):
                assert t1 == t2
    sample = pool[::3]
    for t1 in sample:
        for t2 in sample:
            if not flatter_eq(t1, t2):
                continue
            for t3 in sample:
                if flatter_eq(t2, t3):
                    assert flatter_eq(t1, t3)


# ---------------------------------------------------------------------------
# Enumeration


def _brute_force_ordered_partition_count(n_elements):
    # Independent oracle: canonical cell-index assignments, i.e. maps onto
    # a prefix 0..k-1 of cell indices, counted directly.
    count = 0
    for assignment in itertools.product(range(n_elements), repeat=n_elements):
        used = set(assignment)
        if used == set(range(len(used))):
            count += 1
    return count if n_elements else 1


def test_enumeration_counts_match_brute_force():
    assert count_tpos(1) == _brute_force_ordered_partition_count(2) == 3
    assert count_tpos(2) == _brute_force_ordered_partition_count(4) == 75
    assert sum(1 for _ in enumerate_tpos(1)) == 3
    assert sum(1 for _ in enumerate_tpos(2)) == 75


def test_enumeration_has_no_duplicates():
    seen = set()
    for t in enumerate_tpos(2):
        assert t not in seen
        seen.add(t)
    assert len(seen) == 75


def test_three_atom_count():
    assert count_tpos(3) == 545835
    assert sum(1 for _ in enumerate_tpos(3)) == 545835
    # Fubini numbers, OEIS A000670
    fubini = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]
    assert [count_ordered_partitions(k) for k in range(9)] == fubini


def test_unranking_matches_enumeration():
    for index, t in enumerate(enumerate_tpos(2)):
        assert tpo_at_index(index, 2) == t
    with pytest.raises(IndexError):
        tpo_at_index(75, 2)
    wanted = set(range(0, 545835, 997)) | {1, 75, 12345, 545834}
    for index, t in enumerate(enumerate_tpos(3)):
        if index in wanted:
            assert tpo_at_index(index, 3) == t
    for index in (-1, 545835):
        with pytest.raises(IndexError):
            tpo_at_index(index, 3)


def test_propositions_are_all_nonempty_world_sets():
    props = propositions(2)
    assert len(props) == 15
    assert 0 not in props
    assert len(set(props)) == 15


# ---------------------------------------------------------------------------
# Input-preserving isomorphisms


def _brute_force_isos(t1, t2, sentence):
    out = []
    worlds = range(4)
    r1, r2 = rank(t1), rank(t2)
    sentence = {x for x in worlds if sentence >> x & 1}
    for perm in itertools.permutations(worlds):
        if all(
            (r1[x] <= r1[y]) == (r2[perm[x]] <= r2[perm[y]])
            for x in worlds
            for y in worlds
        ) and all(
            ((x in sentence) or (y not in sentence))
            == ((perm[x] in sentence) or (perm[y] not in sentence))
            for x in worlds
            for y in worlds
        ):
            out.append(perm)
    return out


def enumerate_a_preserving_isos(t1, t2, sentence_models):
    """Every input-preserving isomorphism from t1 to t2, as ``_g_neut``
    asks for them: none unless the cell sizes agree."""
    if [m.bit_count() for m in t1.masks] != [m.bit_count() for m in t2.masks]:
        return []
    return _a_preserving_isos(t1.masks, t2.masks, sentence_models, 1 << t1.n_atoms)


def test_identity_is_always_an_isomorphism_for_tautology():
    for t in itertools.islice(enumerate_tpos(2), 10):
        assert (0, 1, 2, 3) in enumerate_a_preserving_isos(t, t, mod("true"))


def test_mixed_cell_pins_the_isomorphism():
    assert enumerate_a_preserving_isos(M0, M0, mod("p")) == [(0, 1, 2, 3)]


def test_different_cell_profiles_admit_no_isomorphism():
    assert enumerate_a_preserving_isos(CHAIN, FLAT, mod("p")) == []


def test_isomorphisms_match_brute_force_oracle():
    pool = list(enumerate_tpos(2))
    inputs = (mod("p"), mod("p & q"), mod("p | q"), mod("true"))
    for t1 in pool[::11]:
        for t2 in pool[::13]:
            for sentence in inputs:
                fast = set(enumerate_a_preserving_isos(t1, t2, sentence))
                assert fast == set(_brute_force_isos(t1, t2, sentence))


# ---------------------------------------------------------------------------
# Beliefs and conditional beliefs


def test_beliefs_of_examples():
    assert beliefs(M0) == mask("00")
    assert beliefs(FLAT) == all_worlds(2)
    assert [beliefs(Absurd(n)) for n in range(1, 5)] == [0] * 4


def cond(a, b):
    """The (antecedent, consequent) masks of the conditional a => b."""
    return mod(a), mod(b)


def test_conditional_holds_examples():
    assert conditional_holds(M0, *cond("p", "q"))
    assert conditional_holds(M0, *cond("true", "~p & ~q"))
    assert not conditional_holds(M0, *cond("p", "~q"))
    assert conditional_holds(M0, *cond("false", "q"))  # vacuous
    assert conditional_holds(M0, mask("11", "10"), mask("11"))


def test_conditional_set_determines_the_preorder():
    pool = list(enumerate_tpos(2))
    table = {}
    for t in pool:
        cs = conditional_set(t)
        key = (cs.plain_models, cs.cond_pairs)
        assert key not in table
        table[key] = t
    assert len(table) == 75


def test_flat_conditional_set_maps_every_antecedent_to_itself():
    cs = conditional_set(FLAT)
    assert all(p == q for p, q in cs.cond_pairs)


def test_m0_conditional_set_contains_expected_members():
    cs = conditional_set(M0)
    assert cn_extended_member(cs, cond("true", "~p"))
    assert cn_extended_member(cs, cond("p", "q"))
    assert not cn_extended_member(cs, cond("p", "~q"))
    assert cn_extended_member(cs, mod("~p"))  # a belief of M0
    assert not cn_extended_member(cs, mod("q"))


def test_minimal_input_worlds_survive_natural_revision():
    for t in itertools.islice(enumerate_tpos(2), 25):
        for p in propositions(2):
            assert not min_worlds(t, p) & ~revise(t, p, Revision.NATURAL).masks[0]


def test_enumeration_is_capped_at_three_atoms():
    with pytest.raises(ValueError):
        next(enumerate_tpos(4))
    with pytest.raises(ValueError):
        tpo_at_index(0, 4)
