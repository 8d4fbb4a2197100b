import pickle
import random

import pytest

from beliefchange import postulates
from beliefchange.exceptions import (
    AbsurdStateError,
    EmptyModelSetError,
    InconsistentInputError,
    PartitionError,
)
from beliefchange.lang import all_worlds, models
from beliefchange.operators import (
    Contraction,
    Revision,
    contract,
    contract_by_negation,
    expand,
    nli_revise,
    revise,
)
from beliefchange.operators import _posteriors
from beliefchange.postulates import (
    _Ctx,
    _equivariant,
    _holding,
    _lanes,
    _NliComposition,
    _packed_relations,
    _posterior_firsts,
    _relations,
    make_random_dp_operator,
)
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

from ranks import one_per_three_atom_composition, rank

ATOMS = ("p", "q")


def stq_merge(t1, t2):
    """The synchronized-minima merge of two preorders, by the oracle below."""
    return _from_cells(_oracle_stq_merge(_cells(t1), _cells(t2)), t1.n_atoms)


def holds(postulate, revision, n_atoms):
    """The exhaustive verdict of one postulate."""
    return _holding((postulate,), revision, None, n_atoms)[postulate]


def mod(text):
    return models(text, ATOMS)


M0 = parse_tpo("00 | 11 | 01 10", 2)
P = mod("p")
FULL = all_worlds(2)


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
                assert revise(t, p, method).masks[0] == min_worlds(t, p)


def test_revision_rejects_inconsistent_input():
    with pytest.raises(InconsistentInputError):
        revise(M0, 0, Revision.NATURAL)


def test_revision_rejects_foreign_worlds():
    with pytest.raises(ValueError):
        revise(M0, 1 << 9, Revision.NATURAL)


def test_contraction_rejects_foreign_worlds():
    for worlds in (1 | 1 << 9, 1 << 4, -1):
        with pytest.raises(ValueError, match="outside this preorder's world set"):
            contract(M0, worlds, Contraction.NATURAL)
        with pytest.raises(ValueError, match="outside this preorder's world set"):
            contract_by_negation(M0, worlds, Contraction.NATURAL)


# not a world mask of two atoms: a world set in another form, no int, a
# negative int, and bits beyond the four worlds
OUTSIDE_INPUTS = (frozenset({1}), "1", 1.0, None, True, -1, 1 << 4, 0b11111)


@pytest.mark.parametrize("bad", OUTSIDE_INPUTS, ids=repr)
def test_operators_reject_anything_but_a_world_mask(bad):
    calls = (
        lambda: revise(M0, bad, Revision.NATURAL),
        lambda: revise(M0, bad, _NliComposition(Contraction.NATURAL, Revision.NATURAL)),
        lambda: contract(M0, bad, Contraction.NATURAL),
        lambda: contract(Absurd(2), bad, Contraction.NATURAL),
        lambda: contract_by_negation(M0, bad, Contraction.NATURAL),
        lambda: expand(M0, bad, Revision.NATURAL),
        lambda: nli_revise(M0, bad, Contraction.NATURAL, Revision.NATURAL),
        lambda: min_worlds(M0, bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match="input models outside this preorder's world set"):
            call()


@pytest.mark.parametrize("bad", OUTSIDE_INPUTS, ids=repr)
def test_preorders_reject_cells_that_are_no_world_masks(bad):
    for masks in ((bad, 0b1111), (0b1111, bad), (bad,)):
        with pytest.raises(PartitionError):
            Tpo(masks, 2)


# ---------------------------------------------------------------------------
# TeamQueue merge: the oracle's, which every contraction is tested against


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
            r1, r2, rm = rank(t1), rank(t2), rank(merged)
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
            if p == FULL:
                continue
            for method in Contraction:
                got = contract(t, p, method).masks[0]
                assert got == t.masks[0] | min_worlds(t, FULL & ~p)


def test_contraction_by_tautology_is_identity():
    assert contract(M0, mod("true"), Contraction.STQ_LEX) == M0


def test_contraction_rejects_inconsistent_input():
    with pytest.raises(InconsistentInputError):
        contract(M0, 0, Contraction.NATURAL)


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
        expand(M0, 0, Revision.NATURAL)


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
        assert holds("Success", op, 2)
        for i in (1, 2, 3, 4):
            assert holds(f"DP{i}", op, 2)


def test_seed_zero_operator_is_not_elementary():
    op = make_random_dp_operator(0, 2)
    assert not holds("IIAP", op, 2)


def test_tabular_operator_rejects_unknown_instances():
    op = make_random_dp_operator(0, 2)
    with pytest.raises(LookupError):
        op.posterior(parse_tpo("0 | 1", 1), 0b01)


# ---------------------------------------------------------------------------
# The frozenset operators the mask core replaced, kept as the oracle.  Its
# preorders are tuples of frozenset cells, converted at the edge.


def _mask(worlds):
    return sum(1 << w for w in set(worlds))


def _set(mask):
    return frozenset(w for w in range(mask.bit_length()) if mask >> w & 1)


def _cells(t):
    return tuple(_set(mask) for mask in t.masks)


def _from_cells(cells, n_atoms):
    return Tpo([_mask(cell) for cell in cells], n_atoms)


def _oracle_min_worlds(cells, s):
    if not s:
        raise EmptyModelSetError("minimisation over an empty world set")
    rank = {w: i for i, cell in enumerate(cells) for w in cell}
    best = min(rank[w] for w in s)
    return frozenset(w for w in s if rank[w] == best)


def _oracle_revise(cells, sentence_models, method):
    minimal = _oracle_min_worlds(cells, sentence_models)
    out = [minimal]
    if method is Revision.NATURAL:
        for cell in cells:
            rest = cell - minimal
            if rest:
                out.append(rest)
    elif method is Revision.RESTRAINED:
        for cell in cells:
            inside = (cell & sentence_models) - minimal
            outside = cell - sentence_models
            if inside:
                out.append(inside)
            if outside:
                out.append(outside)
    else:
        out = [cell & sentence_models for cell in cells if cell & sentence_models]
        out += [cell - sentence_models for cell in cells if cell - sentence_models]
    return tuple(out)


def _oracle_stq_merge(cells1, cells2):
    remaining = set().union(*cells1)
    out = []
    while remaining:
        current = set()
        for cells in (cells1, cells2):
            for cell in cells:
                alive = cell & remaining
                if alive:
                    current |= alive
                    break
        out.append(frozenset(current))
        remaining -= current
    return tuple(out)


# The revision whose posterior by the negated input each contraction
# merges with the prior
_ORACLE_BASE = {
    Contraction.NATURAL: Revision.NATURAL,
    Contraction.STQ_RESTRAINED: Revision.RESTRAINED,
    Contraction.STQ_LEX: Revision.LEXICOGRAPHIC,
}


def _oracle_contract(cells, sentence_models, method):
    world_set = frozenset().union(*cells)
    if sentence_models == world_set:
        return cells
    negated = world_set - sentence_models
    return _oracle_stq_merge(cells, _oracle_revise(cells, negated, _ORACLE_BASE[method]))


def _assert_matches_oracle(t, p):
    cells, s = _cells(t), _set(p)
    assert min_worlds(t, p) == _mask(_oracle_min_worlds(cells, s))
    for method in Revision:
        assert revise(t, p, method) == _from_cells(_oracle_revise(cells, s, method), t.n_atoms)
    for method in Contraction:
        expected = _from_cells(_oracle_contract(cells, s, method), t.n_atoms)
        assert contract(t, p, method) == expected


def test_mask_operators_match_the_oracle_on_every_two_atom_instance():
    for t in enumerate_tpos(2):
        for p in propositions(2):
            _assert_matches_oracle(t, p)


def test_mask_operators_match_the_oracle_on_three_atom_draws():
    rng = random.Random(6)
    props = propositions(3)
    total = count_tpos(3)
    for _ in range(2000):
        t = tpo_at_index(rng.randrange(total), 3)
        _assert_matches_oracle(t, rng.choice(props))


def test_one_constructor_gives_one_value():
    rng = random.Random(6)
    draws = [tpo_at_index(rng.randrange(count_tpos(3)), 3) for _ in range(200)]
    for t in list(enumerate_tpos(2)) + draws:
        n, cells = t.n_atoms, _cells(t)
        rebuilt = _from_cells(cells, n)
        assert rebuilt == t and hash(rebuilt) == hash(t) and rebuilt.masks == t.masks
        assert str(rebuilt) == str(t) == " | ".join(
            " ".join(format(w, f"0{n}b") for w in sorted(cell)) for cell in cells
        )
        assert rank(rebuilt) == rank(t) == tuple(
            next(i for i, cell in enumerate(cells, 1) if w in cell) for w in range(1 << n)
        )
        for u in (t, rebuilt):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(u, protocol))
                assert copy == t and hash(copy) == hash(t)
                assert rank(copy) == rank(t) and copy.masks == t.masks and str(copy) == str(t)


def test_preorders_are_immutable():
    with pytest.raises(AttributeError):
        M0.masks = (15,)
    with pytest.raises(AttributeError):
        del M0.n_atoms


# ---------------------------------------------------------------------------
# Equivariance: the built-in operators commute with world permutations


def _permuted_mask(mask, perm):
    return _mask(perm[w] for w in _set(mask))


def _permuted(t, perm):
    return Tpo([_permuted_mask(mask, perm) for mask in t.masks], t.n_atoms)


def _equivariant_operators():
    """Every operator the checker treats as equivariant (see
    ``postulates._equivariant``): the built-in revisions, the built-in
    contractions, and the nine compositions of the two."""
    compositions = [_NliComposition(con, rev) for con in Contraction for rev in Revision]
    revisions = list(Revision) + compositions
    assert all(_equivariant(rev, None) for rev in revisions)
    assert all(_equivariant(None, con) for con in Contraction)
    return revisions, list(Contraction)


def test_operators_commute_with_world_permutations():
    rng = random.Random(6)
    revisions, contractions = _equivariant_operators()
    for n_atoms, draws in ((1, 100), (2, 500), (3, 2000)):
        props = propositions(n_atoms)
        total = count_tpos(n_atoms)
        for _ in range(draws):
            t = tpo_at_index(rng.randrange(total), n_atoms)
            p = rng.choice(props)
            perm = list(range(1 << n_atoms))
            rng.shuffle(perm)
            pt, pp = _permuted(t, perm), _permuted_mask(p, perm)
            for method in revisions:
                assert revise(pt, pp, method) == _permuted(revise(t, p, method), perm)
            for method in contractions:
                assert contract(pt, pp, method) == _permuted(contract(t, p, method), perm)
                assert contract_by_negation(pt, pp, method) == _permuted(
                    contract_by_negation(t, p, method), perm
                )


# ---------------------------------------------------------------------------
# The batch kernel: each built-in revision and contraction of one prior by
# many inputs in one pass, against the frozenset oracle above, whose
# contraction merges the prior with its revision by each input's
# complement


def _assert_kernel_matches_the_oracles(t, qs):
    n, cells = t.n_atoms, _cells(t)
    for method in Revision:
        got = _posteriors(revise, t, qs, method)
        assert got == [_from_cells(_oracle_revise(cells, _set(q), method), n) for q in qs]
        assert _posteriors(revise, t, qs[::-1], method) == got[::-1]
    for method in Contraction:
        got = _posteriors(contract, t, qs, method)
        assert got == [_from_cells(_oracle_contract(cells, _set(q), method), n) for q in qs]
        assert _posteriors(contract, t, qs[::-1], method) == got[::-1]


def test_the_kernel_matches_the_oracles_on_every_instance_up_to_two_atoms():
    for n_atoms in (1, 2):
        for t in enumerate_tpos(n_atoms):
            _assert_kernel_matches_the_oracles(t, list(propositions(n_atoms)))


def test_the_kernel_matches_the_oracles_on_each_three_atom_composition():
    # on all 255 inputs
    props = list(propositions(3))
    for t in one_per_three_atom_composition():
        _assert_kernel_matches_the_oracles(t, props)


# ---------------------------------------------------------------------------
# The pair matrices of the named orders, read from the scan context's packed
# lanes, split: under the built-ins with a closed form (one packed pass per
# prior, ``_packed_order``) and under every other operator, laid from the
# memo's orders, against the matrices of the kernel's posteriors


class _Reversed:
    """Natural revision of the reversed prior: a revision that is no built-in."""

    def posterior(self, t, sentence_models):
        return revise(Tpo(t.masks[::-1], t.n_atoms), sentence_models, Revision.NATURAL)


# The built-ins, each with a closed form, by whether they contract
BUILT_INS = ((False, Revision), (True, Contraction))
# (revision, contraction, named order) of every named order that the
# closed form serves
CLOSED_ORDERS = (
    *((rev, None, name) for rev in Revision for name in ("rev", "revneg")),
    *((None, con, name) for con in Contraction for name in ("con", "conneg")),
)
# and of some that it does not: a revision that is no built-in and a
# composition
OTHER_ORDERS = tuple(
    (rev, None, name)
    for rev in (_Reversed(), _NliComposition(Contraction.STQ_LEX, Revision.NATURAL))
    for name in ("rev", "revneg")
)


def _assert_lanes_match_the_kernel(priors, n_atoms) -> int:
    """Check every named order's pair matrices, as its packed lanes hold
    them (``_packed_relations``, split), against those of the kernel's
    posteriors, for each prior on every input it is read on, and so the
    revision's rows (``ctx.rows``), minimal worlds too; how many lanes
    were checked."""
    checked, lanes = 0, _lanes(n_atoms)
    for rev, con, name in CLOSED_ORDERS + OTHER_ORDERS:
        ctx = _Ctx(n_atoms, rev, con)
        ps = ctx.props_proper if name == "revneg" else ctx.props
        for t in priors:
            lt, le = _packed_relations(ctx, t, (name,))[name]
            got = list(zip(lanes.split(lt), lanes.split(le)))
            expected = [_relations(u) for u in ctx.order(name, t, ps)]
            assert [got[p] for p in ps] == expected, (t, rev, con, name)
            if name == "rev":
                rows = [(p, min_worlds(t, p), m) for p, m in zip(ps, expected)]
                assert ctx.rows(t) == rows, (t, rev, con)
            checked += len(ps)
    return checked


def test_the_closed_form_matches_the_kernel_on_every_instance_up_to_two_atoms():
    checked = sum(_assert_lanes_match_the_kernel(list(enumerate_tpos(n)), n) for n in (1, 2))
    assert checked == 3 * (5 * 5 + 3 * 6) + 75 * (5 * 29 + 3 * 30)


def test_the_closed_form_matches_the_kernel_on_each_three_atom_composition():
    priors = list(one_per_three_atom_composition())
    checked = _assert_lanes_match_the_kernel(priors, 3)
    assert checked == 128 * (5 * (255 + 254) + 3 * (255 + 255))


def test_the_closed_form_matches_the_kernel_on_four_atom_preorders():
    # a flat, a linear and four seeded preorders of the sixteen worlds,
    # each on a seeded tenth of its 65,535 inputs and the tautology, as the
    # packed lanes hold their matrices, the revisions' read through their
    # rows; the kernel's contractions are checked against the oracle too;
    # so are the first cells
    lanes = _lanes(4)
    rng = random.Random(37)
    full = all_worlds(4)
    priors = [Tpo((full,), 4), Tpo([1 << w for w in rng.sample(range(16), 16)], 4)]
    for size in (3, 6, 10, 16):
        ranks = [rng.randrange(size) for _ in range(16)]
        cells = [_mask(w for w in range(16) if ranks[w] == r) for r in sorted(set(ranks))]
        priors.append(Tpo(cells, 4))
    for t in priors:
        qs = [*rng.sample(range(1, full), 6500), full]
        for contracting, methods in BUILT_INS:
            function = contract if contracting else revise
            for method in methods:
                posteriors = _posteriors(function, t, qs, method)
                expected = [_relations(u) for u in posteriors]
                if contracting:
                    lt, le = _packed_relations(_Ctx(4, None, method), t, ("con",))["con"]
                    found = list(zip(lanes.split(lt), lanes.split(le)))
                    assert [found[q] for q in qs] == expected, (t, method)
                else:
                    rows = _Ctx(4, method).rows(t)
                    found = [rows[q - 1] for q in qs]
                    assert found == [(q, min_worlds(t, q), m) for q, m in zip(qs, expected)]
                firsts = [u.masks[0] for u in posteriors]
                assert _posterior_firsts(contracting, t, qs) == firsts, (t, method)
                if contracting:
                    cells = _cells(t)
                    oracle = [_oracle_contract(cells, _set(q), method) for q in qs]
                    assert posteriors == [_from_cells(c, 4) for c in oracle], (t, method)


def _assert_firsts_match_the_kernel(priors, n_atoms) -> int:
    """Check the first cells of the closed form, on every input and the
    tautology under each built-in, and of the context's first-cell route
    on every named order, against the kernel's posteriors; how many
    closed-form instances were checked."""
    checked, props = 0, list(propositions(n_atoms))
    for t in priors:
        for contracting, methods in BUILT_INS:
            function = contract if contracting else revise
            got = _posterior_firsts(contracting, t, props)
            for method in methods:
                expected = [u.masks[0] for u in _posteriors(function, t, props, method)]
                assert got == expected, (t, method)
                checked += len(props)
    for rev, con, name in CLOSED_ORDERS + OTHER_ORDERS:
        ctx = _Ctx(n_atoms, rev, con)
        ps = ctx.props_proper if name == "revneg" else ctx.props
        for t in priors:
            expected = [u.masks[0] for u in ctx.order(name, t, ps)]
            assert ctx.firsts(name, t, ps) == expected, (t, rev, con, name)
    return checked


def test_the_first_cells_match_the_kernel_on_every_instance_up_to_two_atoms():
    checked = sum(_assert_firsts_match_the_kernel(list(enumerate_tpos(n)), n) for n in (1, 2))
    assert checked == 6 * (3 * 3 + 75 * 15)


def test_the_first_cells_match_the_kernel_on_each_three_atom_composition():
    checked = _assert_firsts_match_the_kernel(list(one_per_three_atom_composition()), 3)
    assert checked == 6 * 128 * 255


def test_the_closed_form_serves_exactly_the_built_ins_it_covers(monkeypatch):
    # packed lanes under a built-in with a closed form build no
    # posterior; under any other operator they are laid from the
    # matrices of the kernel's posteriors
    built = []

    def counted(function, t, qs, method, _real=postulates._posteriors):
        built.append(method)
        return _real(function, t, qs, method)

    monkeypatch.setattr(postulates, "_posteriors", counted)
    t = tpo_at_index(40, 2)
    for rev, con, name in CLOSED_ORDERS + OTHER_ORDERS:
        built.clear()
        ctx = _Ctx(2, rev, con)
        if name == "rev":
            ctx.rows(t)
        else:
            _packed_relations(ctx, t, (name,))
        assert (built == []) == ((rev, con, name) in CLOSED_ORDERS), (rev, con, name)
        assert set(built) <= {rev or con}


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 -- the error is the outcome
        return type(error), str(error)


@pytest.mark.parametrize("bad", (0, -1, 1 << 4, 0b11111, True))
def test_the_kernel_rejects_a_bad_mask_as_revise_and_contract_do(bad):
    for function, methods in ((revise, Revision), (contract, Contraction)):
        for method in methods:
            for prior in (M0, Absurd(2)):
                expected = _outcome(lambda: function(prior, bad, method))
                assert isinstance(expected, tuple) and issubclass(expected[0], Exception)
                assert _outcome(lambda: _posteriors(function, prior, [P, bad, FULL], method)) == expected


@pytest.mark.parametrize("bad", (0, -1, 1 << 8, True))
def test_the_closed_form_rejects_a_bad_mask_as_revise_and_contract_do(bad):
    for prior in (M0, tpo_at_index(4321, 3)):
        full = all_worlds(prior.n_atoms)
        for contracting, methods in BUILT_INS:
            function = contract if contracting else revise
            for method in methods:
                expected = _outcome(lambda: function(prior, bad, method))
                assert isinstance(expected, tuple) and issubclass(expected[0], Exception)
                got = _outcome(lambda: _posterior_firsts(contracting, prior, [1, bad, full]))
                assert got == expected


def test_the_kernel_treats_an_absurd_prior_as_revise_and_contract_do():
    absurd, props = Absurd(2), list(propositions(2))
    for method in Revision:
        expected = _outcome(lambda: revise(absurd, P, method))
        assert expected[0] is AttributeError
        assert _outcome(lambda: _posteriors(revise, absurd, props, method)) == expected
    for method in Contraction:
        flat = [contract(absurd, p, method) for p in props]
        assert flat == [Tpo((FULL,), 2)] * len(props)
        assert _posteriors(contract, absurd, props, method) == flat


def test_the_kernel_calls_any_other_operator_once_per_mask():
    props = list(propositions(2))
    others = (make_random_dp_operator(0, 2), _NliComposition(Contraction.STQ_LEX, Revision.NATURAL))
    for t in enumerate_tpos(2):
        for op in others:
            assert _posteriors(revise, t, props, op) == [revise(t, p, op) for p in props]
        for method in Contraction:
            expected = [contract_by_negation(t, p, method) for p in props]
            assert _posteriors(contract_by_negation, t, props, method) == expected
    with pytest.raises(TypeError, match="not a contraction method"):
        contract(M0, P, Revision.NATURAL)
    with pytest.raises(TypeError, match="not a revision method"):
        _posteriors(revise, M0, props, Contraction.NATURAL)
