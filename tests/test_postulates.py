import gc
import json
import operator
import os
import random
import signal
import subprocess
import sys
import types
import weakref
from collections import Counter
from functools import lru_cache, partial
from itertools import islice, product
from math import prod

import pytest

from beliefchange import cli, postulates
from beliefchange.exceptions import (
    MalformedDiagramError,
    MissingContractionError,
    ScopeError,
)
from beliefchange.conditionals import flattest_satisfier
from beliefchange.lang import MixedSet, all_worlds, dnf_of_worlds, models, parse_world, world_str
from beliefchange.operators import (
    Contraction,
    Revision,
    TabularRevision,
    contract,
    contract_by_negation,
    method_name,
    revise,
)
from beliefchange.postulates import (
    _BUILTIN_CONTRACTIONS,
    _BUILTIN_REVISIONS,
    _POSTULATES,
    CLAIM_IDS,
    DIAGRAM_IDS,
    POSTULATE_IDS,
    WITNESS_CAP,
    Witness,
    _Ctx,
    _NliComposition,
    check_diagram,
    check_postulate,
    make_random_dp_operator,
    pair_profile,
    render_machine,
    render_text,
    replay_witness,
    verify_claim,
)
from beliefchange.tpo import (
    Absurd,
    Tpo,
    _a_preserving_isos,
    conditional_set,
    count_tpos,
    enumerate_tpos,
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


def holds(postulate, revision=None, contraction=None, n_atoms=2):
    """The exhaustive verdict of one postulate."""
    return postulates._holding((postulate,), revision, contraction, n_atoms)[postulate]


# ---------------------------------------------------------------------------
# check_postulate


def test_dp1_passes_for_lexicographic():
    report = check_postulate("DP1", Revision.LEXICOGRAPHIC, n_atoms=2)
    assert report.passed
    assert report.instances == 75 * 15
    assert report.witnesses == ()


def test_neutrality_passes_for_restrained():
    report = check_postulate("Neut", Revision.RESTRAINED, n_atoms=2)
    assert report.passed
    assert report.instances == 75 * 75 * 15


def test_cr4_fails_with_the_known_witness():
    report = check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)
    assert not report.passed
    assert report.violations > 0
    named = Witness(
        tpos=("00 | 01 | 10 | 11",),
        inputs=("p & ~q | p & q",),  # the canonical form of the input p
        worlds=("11", "01"),
    )
    assert named in report.witnesses
    assert len(report.witnesses) <= 10


def test_every_witness_of_a_failing_report_replays():
    for postulate in ("CR3", "CR4", "SPU", "WPU", "NLI", "iLIRC"):
        report = check_postulate(postulate, Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)
        assert not report.passed and report.witnesses, postulate
        for witness in report.witnesses:
            assert replay_witness(
                postulate, witness, Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2
            ), (postulate, witness)


def test_every_witness_of_a_failing_iiap_report_replays():
    # no built-in revision fails IIAP; this random DP operator does
    op = make_random_dp_operator(0, 2)
    report = check_postulate("IIAP", op, n_atoms=2)
    assert report.violations == 10700 and len(report.witnesses) == WITNESS_CAP
    for witness in report.witnesses:
        assert replay_witness("IIAP", witness, op, n_atoms=2), witness
    assert check_postulate("IIAP", op, n_atoms=2, workers=2) == report


@pytest.mark.parametrize(
    "make_op, scope, expected",
    [
        (
            lambda: make_random_dp_operator(0, 2),
            {"n_atoms": 2},
            {"IIAI": 454, "Beta1": 326, "Beta2": 297, "Neut": 1974},
        ),
        (
            lambda: _NliComposition(Contraction.STQ_LEX, Revision.NATURAL),
            {"n_atoms": 3, "mode": "sampled", "seed": 1, "sample": 3},
            {"IIAI": 56919, "Beta1": 32844, "Beta2": 31108},
        ),
    ],
    ids=["random-dp", "stq-lex-then-natural"],
)
def test_every_witness_of_a_failing_quadratic_or_neutrality_report_replays(
    make_op, scope, expected
):
    op = make_op()
    for postulate, violations in expected.items():
        report = check_postulate(postulate, op, **scope)
        assert report.violations == violations and len(report.witnesses) == WITNESS_CAP
        for witness in report.witnesses:
            assert replay_witness(postulate, witness, op, n_atoms=scope["n_atoms"]), witness


def test_doctored_witness_does_not_replay():
    witness = Witness(
        tpos=("00 | 01 | 10 | 11",),
        inputs=("p & ~q | p & q",),
        worlds=("01", "11"),  # swapped pair: not a violation
    )
    assert not replay_witness(
        "CR4", witness, Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2
    )


def test_contraction_postulates_hold_for_all_built_ins():
    for con in Contraction:
        for i in (1, 2, 3, 4):
            assert holds(f"CC{i}", None, con)


def test_missing_contraction_is_rejected():
    with pytest.raises(MissingContractionError):
        check_postulate("SPU", Revision.NATURAL, n_atoms=2)
    with pytest.raises(ValueError):
        check_postulate("nonsense", Revision.NATURAL, n_atoms=2)
    with pytest.raises(ValueError):
        check_postulate("DP1", None, n_atoms=2)


def test_holding_and_replay_reject_bad_arguments_like_check_postulate():
    witness = Witness(tpos=("00 | 01 | 10 | 11",), inputs=("p",), worlds=())
    with pytest.raises(ValueError):
        holds("nonsense", Revision.NATURAL)
    with pytest.raises(ValueError):
        holds("DP1", None)
    with pytest.raises(MissingContractionError):
        holds("SPU", Revision.NATURAL)
    with pytest.raises(ValueError):
        replay_witness("nonsense", witness, Revision.NATURAL, n_atoms=2)


def test_replay_names_a_claim_as_a_claim():
    witness = Witness(tpos=("00 | 01 | 10 | 11",), inputs=("p",), worlds=())
    with pytest.raises(ValueError, match="claim witnesses have no replay route yet"):
        replay_witness("P2", witness, n_atoms=2)
    with pytest.raises(ValueError, match="unknown postulate 'P9'"):
        replay_witness("P9", witness, Revision.NATURAL, n_atoms=2)


def test_scope_limits():
    with pytest.raises(ScopeError):
        check_postulate("DP1", Revision.NATURAL, n_atoms=3, mode="exhaustive")
    with pytest.raises(ScopeError):
        check_postulate("DP1", Revision.NATURAL, n_atoms=4, mode="sampled")
    with pytest.raises(ValueError):
        check_postulate("DP1", Revision.NATURAL, mode="quick")


@pytest.mark.parametrize("sample", [0, -5, True, 2.5, "5"])
def test_sample_below_one_is_rejected(sample):
    with pytest.raises(ScopeError):
        check_postulate("DP1", Revision.NATURAL, n_atoms=3, mode="sampled", sample=sample)


@pytest.mark.parametrize("n_atoms", [0, -1, True, 2.0, "2"])
def test_atom_count_below_one_is_rejected(n_atoms):
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(ScopeError):
            check_postulate("DP1", Revision.NATURAL, n_atoms=n_atoms, mode=mode, sample=5)
    with pytest.raises(ScopeError):
        holds("DP1", Revision.NATURAL, n_atoms=n_atoms)
    with pytest.raises(ScopeError):
        verify_claim("T2", n_atoms=n_atoms)


@pytest.mark.parametrize("seed", [True, 1.0, "7", "x"])
def test_a_seed_that_is_no_int_is_rejected(seed):
    with pytest.raises(ScopeError):
        check_postulate("DP1", Revision.NATURAL, n_atoms=3, mode="sampled", seed=seed, sample=5)
    with pytest.raises(ScopeError, match="the seed must be an int"):
        make_random_dp_operator(seed, 2)  # True would draw seed 1's table under another name


@pytest.mark.parametrize("n_atoms", [0, -1])
def test_random_dp_operators_reject_atom_counts_below_one(n_atoms):
    with pytest.raises(ScopeError, match="at least 1 atom is required"):
        make_random_dp_operator(1, n_atoms)


def test_t1_needs_two_atoms():
    # One atom gives two worlds, too few to show the excluded diagrams'
    # intransitive triple.
    with pytest.raises(ScopeError):
        verify_claim("T1", n_atoms=1)


@pytest.mark.parametrize("workers", [0, -3, True, 2.5, None])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(ScopeError):
        check_postulate("DP1", Revision.NATURAL, n_atoms=2, workers=workers)


@pytest.mark.parametrize("n_atoms", [0, -1, 4, 5])
def test_replay_rejects_atom_counts_outside_every_check_scope(n_atoms):
    witness = Witness(tpos=("00 | 01 | 10 | 11",), inputs=("p",), worlds=())
    with pytest.raises(ScopeError):
        replay_witness("DP1", witness, Revision.NATURAL, n_atoms=n_atoms)


@pytest.mark.parametrize(
    "postulate, sample, draws", [("DP1", 30, 30), ("IIAP", 24, 48), ("Neut", 256, 512)]
)
def test_a_sampled_check_draws_its_outers_once(monkeypatch, postulate, sample, draws):
    # one randrange call per drawn preorder: sample for single outers, twice
    # that for pairs, however many chunks the outers are split into
    calls = []
    randrange = random.Random.randrange

    def counted(self, *args):
        calls.append(args)
        return randrange(self, *args)

    monkeypatch.setattr(random.Random, "randrange", counted)
    report = check_postulate(
        postulate, Revision.NATURAL, n_atoms=3, mode="sampled", seed=1, sample=sample
    )
    assert len(calls) == draws
    monkeypatch.undo()
    again = check_postulate(
        postulate, Revision.NATURAL, n_atoms=3, mode="sampled", seed=1, sample=sample, workers=2
    )
    assert render_machine(again) == render_machine(report)


# ---------------------------------------------------------------------------
# Custom operator objects (anything with a ``posterior`` method)


class _Posterior:
    """A revision given only by ``posterior``: no ``value``, no table."""

    def posterior(self, t, sentence_models):
        return revise(t, sentence_models, Revision.NATURAL)

    def __repr__(self):
        return "posterior-only natural"


class _Alternating:
    """Natural and lexicographic revision on alternate calls: not a
    function of (prior, input)."""

    def __init__(self):
        self.calls = 0

    def posterior(self, t, sentence_models):
        self.calls += 1
        method = Revision.NATURAL if self.calls % 2 else Revision.LEXICOGRAPHIC
        return revise(t, sentence_models, method)

    def __repr__(self):
        return "alternating"


def test_posterior_only_operators_are_named_in_the_report():
    composed = _NliComposition(Contraction.NATURAL, Revision.NATURAL)
    report = check_postulate("DP1", composed, n_atoms=1)
    assert report.passed
    assert report.revision == "contract-natural then natural"
    report = check_postulate("Success", _Posterior(), n_atoms=1)
    assert report.passed and report.revision == "posterior-only natural"


def test_red_catches_an_operator_with_hidden_state():
    assert check_postulate("Red", _Posterior(), n_atoms=2).passed
    report = check_postulate("Red", _Alternating(), n_atoms=2)
    assert report.outcome == "fail"
    assert report.revision == "alternating"
    assert len(report.witnesses) == WITNESS_CAP
    first = report.witnesses[0]
    assert first.note == "revision not a function of (tpo, input)"
    t = parse_tpo(first.tpos[0], 2)
    p = mod(first.inputs[0])
    assert revise(t, p, Revision.NATURAL) != revise(t, p, Revision.LEXICOGRAPHIC)


# ---------------------------------------------------------------------------
# Determinism


def test_reports_are_deterministic_across_runs_and_workers():
    first = check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, workers=1)
    again = check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, workers=1)
    parallel = check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, workers=2)
    assert render_text(first) == render_text(again) == render_text(parallel)
    assert render_machine(first) == render_machine(parallel)


def test_worker_pool_is_sized_by_the_jobs(monkeypatch):
    """A check runs one job per worker, at most 16 and at most one per
    outer; the stand-in runner runs them in process."""
    sizes = []

    def sized_jobs(jobs):
        sizes.append(len(jobs))
        return _in_process_jobs(jobs)

    monkeypatch.setattr(postulates, "_run_jobs", sized_jobs)
    sampled = dict(n_atoms=3, mode="sampled", seed=1)
    cases = [
        (dict(n_atoms=2, workers=64), 16),  # 75 outers in 16 chunks
        (dict(n_atoms=2, workers=3), 3),
        (dict(sample=3, workers=64, **sampled), 3),
        (dict(sample=1, workers=64, **sampled), 1),
        (dict(sample=2, workers=2, **sampled), 2),
        (dict(sample=5, workers=1, **sampled), 1),
    ]
    for kwargs, expected in cases:
        del sizes[:]
        serial = dict(kwargs, workers=1)
        report = check_postulate("DP1", Revision.LEXICOGRAPHIC, **kwargs)
        assert sizes == [expected], kwargs
        assert render_machine(report) == render_machine(
            check_postulate("DP1", Revision.LEXICOGRAPHIC, **serial)
        )


def _in_process_jobs(jobs):
    """A stand-in for ``postulates._run_jobs`` that runs every job in
    process."""
    return [job() for job in jobs]


def _echo_job(fail, payload):
    """The body of a job for the runner tests: raises a ValueError when
    ``fail`` is set, else returns the payload and the process id."""
    if fail:
        raise ValueError(f"job failed: {payload}")
    return payload, os.getpid()


def _echo_jobs(*jobs):
    """A runner test's jobs, one closure per ``(fail, payload)``."""
    return [partial(_echo_job, fail, payload) for fail, payload in jobs]


@pytest.fixture
def reaped():
    """Runs the runner tests' jobs with a 30 s alarm against a hang, and
    checks afterwards that this process has no child left."""

    def hung(signum, frame):
        raise TimeoutError("the runner hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks its jobs")
def test_forked_jobs_return_their_results_in_job_order(reaped):
    big = bytes(range(256)) * 1024  # larger than a pipe's buffer
    payloads = ["first", big, 3, None]
    results = postulates._run_jobs(_echo_jobs(*((False, payload) for payload in payloads)))
    assert [payload for payload, _ in results] == payloads
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 4  # job 0 in process


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks its jobs")
def test_a_child_job_error_is_raised_again_in_the_parent(reaped):
    jobs = _echo_jobs((False, 0), (False, 1), (True, "second child"), (False, 3))
    with pytest.raises(ValueError, match=r"^job failed: second child$"):
        postulates._run_jobs(jobs)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks its jobs")
def test_an_error_in_the_parent_job_still_reaps_every_child(reaped):
    # each child's result outgrows the pipe's buffer, so a child stays
    # blocked on its write unless the parent closes the read end first
    big = b"x" * (1 << 20)
    jobs = _echo_jobs((True, "parent"), *[(False, big)] * 3)
    with pytest.raises(ValueError, match=r"^job failed: parent$"):
        postulates._run_jobs(jobs)


def test_a_single_job_forks_no_child(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a single job")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    kwargs = dict(n_atoms=3, mode="sampled", seed=1)
    for scope in (dict(sample=5, workers=1), dict(sample=1, workers=4)):
        assert check_postulate("DP1", Revision.NATURAL, **scope, **kwargs).instances


def test_without_fork_every_job_runs_in_process(monkeypatch):
    serial = check_postulate("IIAP", Revision.NATURAL, n_atoms=2)
    monkeypatch.delattr(os, "fork", raising=False)
    assert check_postulate("IIAP", Revision.NATURAL, n_atoms=2, workers=3) == serial


def _loaded_by_importing_the_cli(*names):
    """Which of the named modules a fresh ``python -B`` has loaded once it
    has imported ``beliefchange.cli`` from this tree."""
    src = os.path.dirname(os.path.dirname(postulates.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, beliefchange.cli; print(sorted(set({names!r}) & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_importing_the_cli_leaves_multiprocessing_out():
    assert _loaded_by_importing_the_cli("multiprocessing") == "[]\n"


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # the records are named tuples; dataclasses would pull in inspect, ast and dis
    assert _loaded_by_importing_the_cli("dataclasses", "inspect") == "[]\n"


def test_importing_the_cli_leaves_argparse_gettext_and_locale_out():
    # argparse is built only for help and usage errors
    assert _loaded_by_importing_the_cli("argparse", "gettext", "locale") == "[]\n"


def test_the_package_exports_api_names_and_no_module():
    import beliefchange

    exported = {}
    exec("from beliefchange import *", exported)
    del exported["__builtins__"]
    assert sorted(exported) == sorted(beliefchange.__all__)
    assert not [name for name, value in exported.items() if isinstance(value, types.ModuleType)]


RECORDS = {
    "Absurd(n_atoms=2)": Absurd(2),
    "MixedSet(plain_models=1, cond_pairs=frozenset(), weakening_closed=False)": MixedSet(
        1, frozenset()
    ),
    "CheckScope(n_atoms=2, mode='exhaustive', sample=None, seed=None)": postulates.CheckScope(
        2, "exhaustive"
    ),
    "Witness(tpos=('00 | 01 10 | 11',), inputs=('p',), worlds=(), note='')": Witness(
        ("00 | 01 10 | 11",), ("p",), ()
    ),
    "CheckReport(check_id='DP1', revision='natural', contraction=None, scope=CheckScope("
    "n_atoms=2, mode='exhaustive', sample=None, seed=None), instances=1125, violations=0, "
    "witnesses=(), detail='')": postulates.CheckReport(
        "DP1", "natural", None, postulates.CheckScope(2, "exhaustive"), 1125, 0
    ),
    "Step(text='revise natural p', kind='revise', methods=(<Revision.NATURAL: 'natural'>,), "
    "sentence=12)": cli.Step("revise natural p", "revise", (Revision.NATURAL,), 12),
    "Query(text='belief p', sentence=12)": cli.Query("belief p", 12),
    "Scenario(atoms=('p', 'q'), initial_text='absurd', steps=(), queries=())": cli.Scenario(
        ("p", "q"), "absurd", (), ()
    ),
}


def test_records_keep_their_reprs_and_refuse_assignment():
    for text, record in RECORDS.items():
        assert repr(record) == text
    for record in (*RECORDS.values(), _POSTULATES["DP1"]):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_each_worker_runs_one_job_that_counts_a_composition_once(monkeypatch):
    running = []  # the index of the job that runs
    counts = []  # (job, composition) of every orbit count taken
    orbit_count = postulates._orbit_count

    def jobs_in_turn(jobs):
        results = []
        for index, job in enumerate(jobs):
            running[:] = [index]
            results.append(job())
        return results

    def counted(ctx, spec, t):
        counts.append((running[0], postulates._composition(t)))
        return orbit_count(ctx, spec, t)

    monkeypatch.setattr(postulates, "_run_jobs", jobs_in_turn)
    monkeypatch.setattr(postulates, "_orbit_count", counted)
    kwargs = dict(n_atoms=3, mode="sampled", sample=200, seed=1)
    report = check_postulate("DP1", Revision.NATURAL, workers=2, **kwargs)
    assert {job for job, _ in counts} == {0, 1}
    assert len(set(counts)) == len(counts)
    assert report == check_postulate("DP1", Revision.NATURAL, **kwargs)


def test_sampled_reports_are_reproducible_under_a_seed():
    kwargs = dict(n_atoms=3, mode="sampled", sample=40, seed=9)
    first = check_postulate("DP2", Revision.RESTRAINED, **kwargs)
    again = check_postulate("DP2", Revision.RESTRAINED, workers=2, **kwargs)
    assert render_text(first) == render_text(again)
    assert first.scope.sample == 40 and first.scope.seed == 9
    other_seed = check_postulate(
        "DP2", Revision.RESTRAINED, n_atoms=3, mode="sampled", sample=40, seed=10
    )
    assert other_seed.scope.seed == 10


def test_machine_format_is_json_with_expected_fields():
    report = check_postulate("DP4", Revision.NATURAL)
    payload = json.loads(render_machine(report))
    assert payload["check"] == "DP4"
    assert payload["outcome"] == "pass"
    assert payload["scope"] == {
        "n_atoms": 2,
        "mode": "exhaustive",
        "sample": None,
        "seed": None,
    }


# ---------------------------------------------------------------------------
# Diagrams


def test_admissible_diagrams_pass():
    for d in ("a", "b", "c"):
        assert check_diagram(d, 2).passed


def test_excluded_diagrams_fail():
    for d in ("d", "e", "f"):
        report = check_diagram(d, 2)
        assert not report.passed
        assert report.witnesses


def _witness_has_chain_shape(witness):
    r = rank(parse_tpo(witness.tpos[0], 2))
    p = mod(witness.inputs[0])
    triple = [parse_world(name, 2) for name in witness.worlds]
    inside = [w for w in triple if p >> w & 1]
    outside = sorted((w for w in triple if not p >> w & 1), key=lambda w: r[w])
    if len(inside) != 1 or len(outside) != 2:
        return False
    z, y = outside
    return r[z] < r[y] < r[inside[0]]


def test_excluded_diagram_witnesses_match_the_two_countermodel_construction():
    for d in ("d", "e"):
        report = check_diagram(d, 2)
        assert _witness_has_chain_shape(report.witnesses[0])


def test_diagram_witnesses_replay():
    report = check_diagram("d", 2)
    for witness in report.witnesses:
        assert replay_witness(report.check_id, witness, n_atoms=2)


def test_custom_diagram_witnesses_replay_under_their_table():
    table = {1: 1, 0: 0, -1: 0}
    report = check_diagram(table, 2)
    assert report.check_id == "diagram custom" and report.witnesses
    for witness in report.witnesses:
        assert replay_witness(report.check_id, witness, table, n_atoms=2)
        # an admissible table forces no intransitive triple
        assert not replay_witness(report.check_id, witness, {1: 1, 0: 1, -1: -1}, n_atoms=2)
    with pytest.raises(MalformedDiagramError):
        replay_witness(report.check_id, report.witnesses[0], n_atoms=2)


def test_diagrams_need_two_atoms():
    # Two worlds cannot form an intransitive triple: a pass would be vacuous.
    for d in DIAGRAM_IDS:
        with pytest.raises(ScopeError):
            check_diagram(d, 1)


def test_malformed_diagrams_are_rejected():
    with pytest.raises(MalformedDiagramError):
        check_diagram({1: 0, 0: 0, -1: -1}, 2)  # downward arrow from the top
    with pytest.raises(MalformedDiagramError):
        check_diagram({1: 1, 0: -1, -1: -1}, 2)  # downward arrow from the tie
    with pytest.raises(MalformedDiagramError):
        check_diagram("g", 2)
    with pytest.raises(MalformedDiagramError):
        check_diagram({1: 1}, 2)


def test_custom_diagram_equal_to_builtin_behaves_identically():
    builtin = check_diagram("e", 2)
    custom = check_diagram({1: 1, 0: 1, -1: 0}, 2)
    assert builtin.outcome == custom.outcome
    assert builtin.violations == custom.violations


def _code(r, x, y):
    """Relation of (x, y) under a rank map: 1 below, 0 tied, -1 above."""
    if r[x] <= r[y]:
        return 1 if r[y] > r[x] else 0
    return -1


def _oracle_forced_codes(table, t, p):
    """Posterior pair relations forced by a diagram on one instance, as
    relation codes by ranks: 1 below, 0 tied, -1 above."""
    minimal = min_worlds(t, p)
    r = rank(t)

    def code(x, y):
        if x == y:
            return 0
        xmin, ymin = minimal >> x & 1, minimal >> y & 1
        if xmin and ymin:
            return 0
        if xmin:
            return 1
        if ymin:
            return -1
        xin, yin = p >> x & 1, p >> y & 1
        prior = _code(r, x, y)
        if xin == yin:
            return prior
        if xin:
            return table[prior]
        return -table[-prior]

    worlds = range(len(r))
    return [[code(x, y) for y in worlds] for x in worlds]


def _oracle_intransitive_triple(codes):
    worlds = range(len(codes))
    for x in worlds:
        for y in worlds:
            if codes[x][y] < 0:
                continue
            for z in worlds:
                if codes[y][z] >= 0 and codes[x][z] < 0:
                    return (x, y, z)
    return None


def _codes_of_rows(rows):
    """Relation codes from ``at most`` rows: x below y iff x is at most y
    and y is not at most x."""
    worlds = range(len(rows))
    return [[(rows[x] >> y & 1) - (rows[y] >> x & 1) for y in worlds] for x in worlds]


def _assert_forced_rows_match(t):
    own = postulates._relations(t)
    for table in postulates._DIAGRAMS.values():
        for p in propositions(t.n_atoms):
            rows = postulates._forced_rows(table, t, p, own)
            codes = _oracle_forced_codes(table, t, p)
            assert _codes_of_rows(rows) == codes, (table, t, p)
            expected = _oracle_intransitive_triple(codes)
            assert postulates._intransitive_triple(rows) == expected, (table, t, p)


def test_the_named_diagrams_are_every_legal_table():
    # a table may not send a prior relation downwards (see _diagram_table)
    legal = {(1, tie, above) for tie in (1, 0) for above in (1, 0, -1)}
    named = {(table[1], table[0], table[-1]) for table in postulates._DIAGRAMS.values()}
    assert named == legal and len(postulates._DIAGRAMS) == 6


def test_forced_rows_and_triples_match_the_relation_codes_on_every_two_atom_instance():
    for t in enumerate_tpos(2):
        _assert_forced_rows_match(t)


def test_forced_rows_and_triples_match_the_relation_codes_on_three_atom_preorders():
    rng = random.Random(16)
    for _ in range(12):
        _assert_forced_rows_match(tpo_at_index(rng.randrange(count_tpos(3)), 3))


# ---------------------------------------------------------------------------
# Claims


def test_unknown_claim_and_scope():
    with pytest.raises(ValueError):
        verify_claim("T9")
    with pytest.raises(ScopeError):
        verify_claim("T2", n_atoms=3)


def test_claim_ids_cover_the_registry():
    assert set(CLAIM_IDS) == {"T1", "T2", "T3", "Cor1", "T4", "P1", "P2", "P3", "P5", "L_flattest"}
    assert len(POSTULATE_IDS) == 25


def test_pair_profile_shape():
    rows = pair_profile(2)
    assert len(rows) == 9
    by_pair = {(rev, con): verdicts for rev, con, verdicts in rows}
    assert all(len(verdicts) == 7 for verdicts in by_pair.values())
    with pytest.raises(TypeError):  # cached rows, read by T2, T3 and Cor1
        rows[0][2]["NLI"] = False
    lex_stql = by_pair[(Revision.LEXICOGRAPHIC, Contraction.STQ_LEX)]
    assert all(lex_stql.values())
    nat_stql = by_pair[(Revision.NATURAL, Contraction.STQ_LEX)]
    assert not nat_stql["NLI"] and not all(nat_stql[f"CR{i}"] for i in (1, 2, 3, 4))
    assert not (nat_stql["SPU"] and nat_stql["WPU"])


def test_small_p1_claim_runs():
    report = verify_claim("P1")
    assert report.passed
    assert report.instances == 103  # 100 seeded + 3 built-in


def _claim_witness(tpos, p, note):
    return Witness(tuple(map(format_tpo, tpos)), (dnf_of_worlds(p, ATOMS),), (), note)


def _assert_failing_claim(report, expected):
    """The report counts every expected witness and keeps the first
    ``WITNESS_CAP`` of them, in order."""
    assert len(expected) > WITNESS_CAP
    assert report.outcome == "fail"
    assert report.violations == len(expected)
    assert len(report.witnesses) == WITNESS_CAP
    assert report.witnesses == tuple(expected[:WITNESS_CAP])


def test_a_failing_t4_counts_and_keeps_its_witnesses(monkeypatch):
    # a fast path that returns the contracted preorder unchanged is wrong
    # wherever the brute-force flattest satisfier differs from it
    monkeypatch.setattr(postulates, "rational_closure_fast", lambda contracted, p: contracted)
    pool = list(enumerate_tpos(2))
    expected = []
    for con in _BUILTIN_CONTRACTIONS:
        for t in pool:
            for p in propositions(2):
                contracted = contract_by_negation(t, p, con)
                brute = flattest_satisfier(conditional_set(contracted).adding_plain(p), pool)
                if brute != contracted:
                    tpos = (contracted, contracted, brute)
                    expected.append(_claim_witness(tpos, p, "fast path, then brute-force flattest"))
    report = verify_claim("T4")
    _assert_failing_claim(report, expected)
    assert all(len(w.tpos) == 3 and len(w.inputs) == 1 for w in report.witnesses)


def test_a_failing_l_flattest_counts_and_keeps_its_witnesses(monkeypatch):
    # with "at least as flat" read as equality, every satisfier but the
    # natural revision itself is a violation
    monkeypatch.setattr(postulates, "flatter_eq", operator.eq)
    pool = list(enumerate_tpos(2))
    worlds = range(4)
    expected = []
    for t in pool:
        rt = rank(t)
        for p in propositions(2):
            flattest = revise(t, p, Revision.NATURAL)
            for s in pool:
                rs = rank(s)
                keeps = all(rs[x] < rs[y] for x in worlds for y in worlds if rt[x] < rt[y])
                if keeps and not s.masks[0] & ~p and s != flattest:
                    note = "satisfier not below the natural revision"
                    expected.append(_claim_witness((t, s, flattest), p, note))
    _assert_failing_claim(verify_claim("L_flattest"), expected)


def test_exhaustive_outer_sizes():
    assert count_tpos(2) ** 2 == 5625
    report = check_postulate("IIAP", Revision.NATURAL, n_atoms=2)
    assert report.instances == 5625 * 15


# ---------------------------------------------------------------------------
# Cross-validation against independent routes


def _success_and_dp(prior, sentence_models, post):
    """Success plus the four iterated-revision postulates, one instance,
    read on ranks: the oracle for the pair-matrix rows."""
    if post.masks[0] & ~sentence_models:
        return False
    rp, rq = rank(prior), rank(post)
    worlds = range(1 << prior.n_atoms)
    for x in worlds:
        xin = sentence_models >> x & 1
        for y in worlds:
            if y <= x:
                continue
            yin = sentence_models >> y & 1
            if xin == yin:
                if (rp[x] <= rp[y]) != (rq[x] <= rq[y]) or (rp[y] <= rp[x]) != (
                    rq[y] <= rq[x]
                ):
                    return False
            else:
                inside, outside = (x, y) if xin else (y, x)
                if rp[inside] < rp[outside] and not rq[inside] < rq[outside]:
                    return False
                if rp[inside] <= rp[outside] and not rq[inside] <= rq[outside]:
                    return False
    return True


def test_checker_dp_scans_agree_with_construction_filter():
    # ``_success_and_dp`` is an independently written success+DP
    # predicate; the three built-ins must pass it on every instance,
    # exactly as the scan-based checks say they do.
    for method in Revision:
        for t in enumerate_tpos(2):
            for p in propositions(2):
                assert _success_and_dp(t, p, revise(t, p, method))


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_dp_candidates_equal_the_rank_filter(n_atoms):
    # the random operators draw from this table, so its keys, their order
    # and each tuple of posteriors in enumeration order must equal the
    # rank oracle's
    postulates._dp_posterior_candidates.cache_clear()
    got = postulates._dp_posterior_candidates(n_atoms)
    pool = list(enumerate_tpos(n_atoms))
    expected = {
        (prior.masks, p): tuple(post for post in pool if _success_and_dp(prior, p, post))
        for prior in pool
        for p in propositions(n_atoms)
    }
    assert list(got) == list(expected)
    assert got == expected


def test_strict_relation_matches_rank_preferences():
    # L_flattest reads "s keeps every strict preference of t" as no
    # ``strict`` bit broken; it passes with no violation, so its report
    # would not show a predicate that drops satisfiers
    pool = list(enumerate_tpos(2))
    kept = 0
    for t in pool:
        rt = rank(t)
        strict = [(x, y) for x in range(4) for y in range(4) if rt[x] < rt[y]]
        for s in pool:
            rs = rank(s)
            keeps = all(rs[x] < rs[y] for x, y in strict)
            broken = postulates._BROKEN["strict"](
                postulates._relations(t), postulates._relations(s)
            )
            assert (broken == 0) == keeps, (t, s)
            kept += keeps
    assert 75 < kept < 75 * 75


def test_cr_spu_wpu_equivalence_extends_to_tabular_operators():
    # The equivalence only assumes the revision satisfies DP1-4 and the
    # contraction CC1-4, so it must survive random non-elementary
    # tabular revisions paired with any built-in contraction.
    for seed in range(4):
        op = make_random_dp_operator(seed, 2)
        for con in Contraction:
            cr = all(holds(f"CR{i}", op, con) for i in (1, 2, 3, 4))
            spu_wpu = holds("SPU", op, con) and holds("WPU", op, con)
            assert cr == spu_wpu


# ---------------------------------------------------------------------------
# Violation counts and witnesses against independent routes: the scans
# read pair matrices, and these oracles read ranks

QUADRATIC = ("IIAI", "Beta1", "Beta2")
PAIR_RULES = tuple(postulates._PAIR_RULES)
COUNTED = QUADRATIC + PAIR_RULES

_RANK_RELATIONS = {
    "same": lambda a, b: (a > b) - (a < b),
    "strict": operator.lt,
    "weak": operator.le,
}


@lru_cache(maxsize=None)
def _world_pairs(n_atoms, ordered):
    """World pairs x < y, or every ordered pair x != y, x outer, each with
    its pair mask: (x, y, mask of x and y)."""
    worlds = range(1 << n_atoms)
    return tuple(
        (x, y, 1 << x | 1 << y) for x in worlds for y in worlds if (x != y if ordered else x < y)
    )


def _rank_region(name, p, n_atoms):
    """The world pairs of one region of input p, in scan order."""
    ordered, x_in, y_in = postulates._REGIONS[name]
    return [
        (x, y)
        for x, y, _ in _world_pairs(n_atoms, ordered)
        if x_in is None or (bool(p >> x & 1) is x_in and bool(p >> y & 1) is y_in)
    ]


# The orders of ``_PAIR_RULES`` as preorders, built from the operators
# directly, not from the scan context's memo
_RANK_ORDERS = {
    "prior": lambda ctx, t, p: t,
    "rev": lambda ctx, t, p: revise(t, p, ctx.rev),
    "revneg": lambda ctx, t, p: revise(t, ctx.full & ~p, ctx.rev),
    "con": lambda ctx, t, p: contract(t, p, ctx.con),
    "conneg": lambda ctx, t, p: contract_by_negation(t, p, ctx.con),
}


def _rank_rule(premises, conclusion, region, relation):
    """One row of ``_PAIR_RULES`` as a generator over rank tuples."""
    orders = [_RANK_ORDERS[name] for name in premises]
    after_order = _RANK_ORDERS[conclusion]
    # revising by the complement skips the tautology (see the module doc)
    inputs = "props_proper" if "revneg" in premises else "props"
    rel = _RANK_RELATIONS[relation]
    every = relation == "same"  # a kept code need not be a holding one

    def gen(ctx, t):
        for p in getattr(ctx, inputs):
            first, *others = (rank(order(ctx, t, p)) for order in orders)
            after = rank(after_order(ctx, t, p))
            for x, y in _rank_region(region, p, ctx.n):
                value = rel(first[x], first[y])
                if (
                    (every or value)
                    and rel(after[x], after[y]) != value
                    and all(rel(r[x], r[y]) == value for r in others)
                ):
                    yield (t,), (p,), (x, y), ""

    return gen


def _icode(p, x, y):
    """Relation of (x, y) under the input order of proposition p."""
    return (p >> x & 1) - (p >> y & 1)


def _rank_rows(ctx, t):
    """(input, its minimal worlds, the revision's rank) for every input."""
    rev = ctx.order("rev", t, ctx.props)
    return [(p, min_worlds(t, p), rank(r)) for p, r in zip(ctx.props, rev)]


def _rank_iiap(ctx, pair):
    t1, t2 = pair
    r1, r2 = rank(t1), rank(t2)
    for (p, min1, r1q), (_, min2, r2q) in zip(_rank_rows(ctx, t1), _rank_rows(ctx, t2)):
        blocked = min1 | min2
        for x, y, xy in _world_pairs(ctx.n, False):
            if not blocked & xy and (
                _code(r1, x, y) == _code(r2, x, y) and _code(r1q, x, y) != _code(r2q, x, y)
            ):
                yield (t1, t2), (p,), (x, y), ""


def _rank_iiai(ctx, t):
    rows = _rank_rows(ctx, t)
    for i, (p, min_p, rp) in enumerate(rows):
        for q, min_q, rq in rows[i + 1 :]:
            blocked = min_p | min_q
            for x, y, xy in _world_pairs(ctx.n, False):
                if blocked & xy:
                    continue
                if _icode(p, x, y) == _icode(q, x, y) and _code(rp, x, y) != _code(rq, x, y):
                    yield (t,), (p, q), (x, y), ""


def _rank_beta(below):
    """Beta1 (``below`` is ``operator.le``) and Beta2 (``operator.lt``)."""

    def gen(ctx, t):
        rows = _rank_rows(ctx, t)
        for a, _, ra in rows:
            for x, y, xy in _world_pairs(ctx.n, True):
                # x is strictly below y in the input order of a
                if (a & xy) != 1 << x or not below(ra[y], ra[x]):
                    continue
                for c, minimal, rc in rows:
                    if not minimal >> x & 1 and not below(rc[y], rc[x]):
                        yield (t,), (a, c), (x, y), ""

    return gen


def _rank_neut(ctx, pair):
    t1, t2 = pair
    if postulates._composition(t1) != postulates._composition(t2):
        return
    n_worlds = len(ctx.worlds)
    for p in ctx.props:
        perms = _a_preserving_isos(t1.masks, t2.masks, p, n_worlds)
        if perms:
            r1q, r2q = (rank(revise(t, p, ctx.rev)) for t in pair)
        for perm in perms:
            for x, y, _ in _world_pairs(ctx.n, False):
                if _code(r1q, x, y) != _code(r2q, perm[x], perm[y]):
                    mapping = ",".join(
                        f"{world_str(w, ctx.n)}->{world_str(perm[w], ctx.n)}"
                        for w in ctx.worlds
                    )
                    yield (t1, t2), (p,), (x, y), f"isomorphism {mapping}"


def _rank_first_diff_pair(ctx, ta, tb):
    ra, rb = rank(ta), rank(tb)
    for x, y, _ in _world_pairs(ctx.n, False):
        if _code(ra, x, y) != _code(rb, x, y):
            return (x, y)
    return ()


def _rank_routed(final, route):
    """NLI (``final`` None) and iLIRC, naming the first pair by ranks."""

    def gen(ctx, t):
        for p in ctx.props:
            direct = revise(t, p, ctx.rev)
            routed = revise(contract_by_negation(t, p, ctx.con), p, final or ctx.rev)
            if direct != routed:
                pair = _rank_first_diff_pair(ctx, direct, routed)
                yield (t,), (p,), pair, ("direct ", direct, f"; {route} ", routed)

    return gen


ORACLES = {
    **{name: _rank_rule(*row) for name, row in postulates._PAIR_RULES.items()},
    "IIAP": _rank_iiap,
    "IIAI": _rank_iiai,
    "Beta1": _rank_beta(operator.le),
    "Beta2": _rank_beta(operator.lt),
    "Neut": _rank_neut,
    "NLI": _rank_routed(None, "routed"),
    "iLIRC": _rank_routed(Revision.NATURAL, "closure route"),
}


class _Reversed:
    """Natural revision of the reversed prior: fails IIAI, so a counted
    scan rebuilds its witnesses with the generator."""

    def posterior(self, t, sentence_models):
        return revise(Tpo(t.masks[::-1], t.n_atoms), sentence_models, Revision.NATURAL)


def _assert_counts_match(ctx, outer, counted=COUNTED):
    """Each postulate's count equals its rank oracle's length, and its
    witnesses equal the oracle's in order.  Raw witnesses are compared: a
    report renders each from its raw form alone, so equal raw lists
    render alike."""
    counts = {}
    for postulate in counted:
        spec = _POSTULATES[postulate]
        expected = list(ORACLES[postulate](ctx, outer))
        counts[postulate] = spec.count(ctx, outer)
        assert counts[postulate] == len(expected), (postulate, outer)
        assert list(spec.gen(ctx, outer)) == expected, (postulate, outer)
    return counts


def _revisions():
    """The built-in revisions, then operators that break what they keep."""
    return (
        list(_BUILTIN_REVISIONS)
        + [_Reversed()]
        + [make_random_dp_operator(seed, 2) for seed in range(10)]
        + [
            _NliComposition(con, rev)
            for con in _BUILTIN_CONTRACTIONS
            for rev in _BUILTIN_REVISIONS
        ]
    )


def _operator_pairs():
    """The nine built-in pairs, then each other revision with a built-in
    contraction in turn."""
    others = _revisions()[len(_BUILTIN_REVISIONS) :]
    return [(rev, con) for rev in _BUILTIN_REVISIONS for con in _BUILTIN_CONTRACTIONS] + [
        (rev, _BUILTIN_CONTRACTIONS[i % 3]) for i, rev in enumerate(others)
    ]


def test_counts_equal_oracle_lengths_on_every_two_atom_preorder():
    nonzero = set()
    seen = set()
    for rev, con in _operator_pairs():
        # a postulate that reads one operator is checked once per operator
        counted = []
        for postulate in COUNTED:
            spec = _POSTULATES[postulate]
            key = (postulate, spec.needs_rev and rev, spec.needs_con and con)
            if key not in seen:
                seen.add(key)
                counted.append(postulate)
        ctx = _Ctx(2, rev, con)  # shared, so each revision is computed once
        for t in enumerate_tpos(2):
            counts = _assert_counts_match(ctx, t, counted)
            nonzero.update(postulate for postulate, c in counts.items() if c)
    # every built-in contraction keeps CC1-4, so only their zeros are tested
    assert nonzero == set(COUNTED) - {"CC1", "CC2", "CC3", "CC4"}


def test_routed_counts_equal_oracle_lengths_on_every_two_atom_preorder():
    nonzero = set()
    for rev, con in _operator_pairs():
        ctx = _Ctx(2, rev, con)
        for t in enumerate_tpos(2):
            counts = _assert_counts_match(ctx, t, ("NLI", "iLIRC"))
            nonzero.update(postulate for postulate, c in counts.items() if c)
    assert nonzero == {"NLI", "iLIRC"}


def test_iiap_counts_equal_oracle_lengths_on_every_two_atom_preorder_pair():
    pool = list(enumerate_tpos(2))
    nonzero = 0
    for rev in _revisions():
        ctx = _Ctx(2, rev)
        for pair in product(pool, repeat=2):
            nonzero += _assert_counts_match(ctx, pair, ("IIAP",))["IIAP"] > 0
    assert nonzero > 0


def test_neutrality_witnesses_equal_the_oracle_on_every_two_atom_preorder_pair():
    pool = list(enumerate_tpos(2))
    nonzero = 0
    for rev in _revisions():
        ctx = _Ctx(2, rev)
        for pair in product(pool, repeat=2):
            nonzero += _assert_counts_match(ctx, pair, ("Neut",))["Neut"] > 0
    assert nonzero > 0


@pytest.mark.parametrize(
    "seed, rev, fails",
    [
        (0, Revision.NATURAL, True),
        (0, Revision.LEXICOGRAPHIC, False),
        (1, Revision.RESTRAINED, True),
    ],
)
def test_counts_equal_oracle_lengths_on_three_atom_preorders(seed, rev, fails):
    rng = random.Random(seed)
    t, u = (tpo_at_index(rng.randrange(count_tpos(3)), 3) for _ in range(2))
    composed = _NliComposition(Contraction.STQ_LEX, rev)
    counts = _assert_counts_match(_Ctx(3, composed, Contraction.STQ_LEX), t)
    quadratic = [counts[postulate] for postulate in QUADRATIC]
    assert all(quadratic) if fails else not any(quadratic)
    # natural and restrained revision break CR3/CR4 with this contraction
    counts = _assert_counts_match(_Ctx(3, rev, Contraction.STQ_LEX), t, PAIR_RULES)
    assert bool(counts["CR4"]) is fails
    for op in (rev, composed):
        _assert_counts_match(_Ctx(3, op), (t, u), ("IIAP",))


def _brute_report(postulate, op):
    """Violation total and first witnesses straight from the generator."""
    spec = _POSTULATES[postulate]
    ctx = _Ctx(2, op)
    violations = 0
    witnesses = []
    for t in enumerate_tpos(2):
        found = [ctx.witness(*raw) for raw in spec.gen(ctx, t)]
        violations += len(found)
        witnesses.extend(found[: WITNESS_CAP - len(witnesses)])
    return violations, tuple(witnesses)


@pytest.mark.parametrize("postulate", QUADRATIC)
def test_counted_reports_match_the_brute_force_reducer(postulate):
    composed = _NliComposition(Contraction.STQ_LEX, Revision.NATURAL)
    for op in (make_random_dp_operator(0, 2), composed):
        violations, witnesses = _brute_report(postulate, op)
        assert violations > 0
        for workers in (1, 2):
            report = check_postulate(postulate, op, n_atoms=2, workers=workers)
            assert report.outcome == "fail"
            assert report.violations == violations
            assert report.witnesses == witnesses
            assert len(witnesses) == WITNESS_CAP


# ---------------------------------------------------------------------------
# The scan context's memo: each prior's orders, once per input


@pytest.fixture
def revisions(monkeypatch):
    """The function name and (prior, input, operator) arguments of every
    ``revise``, ``contract`` and ``contract_by_negation`` call a scan
    makes, and of every entry whose pair matrices the closed form of the
    built-ins computes (``_posterior_relations``), named ``revise
    matrices`` or ``contract matrices``: each is one order computed."""
    calls = []
    for name in ("revise", "contract", "contract_by_negation"):

        def counted(*args, _name=name, _real=getattr(postulates, name)):
            calls.append((_name, *args))
            return _real(*args)

        monkeypatch.setattr(postulates, name, counted)

    def closed(contracting, t, own, qs, operator, _real=postulates._posterior_relations):
        name = "contract matrices" if contracting else "revise matrices"
        calls.extend((name, t, q, operator) for q in qs)
        return _real(contracting, t, own, qs, operator)

    monkeypatch.setattr(postulates, "_posterior_relations", closed)
    return calls


def test_a_single_prior_scan_revises_each_instance_once(revisions):
    # one preorder per composition of the four worlds, each on one input
    # per orbit of its cells: the product of (cell size + 1), less one;
    # a pair rule under a built-in reads the closed form, so it builds no
    # posterior
    check_postulate("DP1", Revision.NATURAL, n_atoms=2)
    assert len(revisions) == 74
    assert len(set(revisions)) == len(revisions)
    assert {name for name, *_ in revisions} == {"revise matrices"}


def test_a_counted_scan_and_its_witnesses_share_one_row_per_prior(revisions):
    report = check_postulate("IIAI", _Reversed(), n_atoms=2)
    assert len(report.witnesses) == WITNESS_CAP
    assert len(revisions) == 75 * 15


def test_an_exhaustive_pair_scan_revises_each_prior_once(revisions):
    check_postulate("IIAP", Revision.NATURAL, n_atoms=2)
    assert len(revisions) == 75 * 15
    assert len(set(revisions)) == len(revisions)
    assert {name for name, *_ in revisions} == {"revise matrices"}


def test_neutrality_revises_only_the_inputs_it_reads(revisions):
    # one job scans the whole row of each composition's first preorder,
    # the other rows read back as zeros: each prior of those 8 x 75 pairs
    # is revised once on each input that some input-preserving
    # isomorphism of the pair reads
    check_postulate("Neut", Revision.NATURAL, n_atoms=2)
    assert len(revisions) == 435
    assert len(set(revisions)) == len(revisions)


@pytest.mark.parametrize("postulate", ["CR4", "SPU"])
def test_a_failing_counted_scan_and_its_witnesses_share_each_order(postulate, revisions):
    # the witness outers read the orders their count computed
    report = check_postulate(postulate, Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)
    assert report.outcome == "fail"
    assert len(set(revisions)) == len(revisions)


def test_a_generator_computes_the_orders_of_the_inputs_it_reaches(revisions):
    # a report keeps the first ten witnesses, and a single-input scan's
    # generator takes the inputs a chunk at a time: here the tenth
    # witness lies on input 17, in the second chunk; CR4 revises by each
    # input (in closed form, under natural revision) and contracts by its
    # complement
    ctx = _Ctx(3, Revision.NATURAL, Contraction.STQ_LEX)
    raws = list(islice(_POSTULATES["CR4"].gen(ctx, tpo_at_index(0, 3)), WITNESS_CAP))
    assert len(raws) == WITNESS_CAP and raws[-1][1] == (17,)
    reached = {p if name != "contract" else ctx.full - p for name, _, p, _ in revisions}
    assert {name for name, *_ in revisions} == {"revise matrices", "contract"}
    assert reached == set(range(1, 2 * postulates._GEN_CHUNK + 1))
    assert len(revisions) == 2 * 2 * postulates._GEN_CHUNK
    assert len(set(revisions)) == len(revisions)


def test_a_failing_routed_scan_and_its_witnesses_share_each_direct_order(revisions):
    # the routed revision is the contracted preorder's own revision, so
    # the memo shares it with the direct revision of that preorder; the
    # contraction by the negated input is the contraction by the input's
    # complement
    report = check_postulate("NLI", Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)
    assert report.outcome == "fail"
    assert {name for name, *_ in revisions} == {"revise", "contract"}
    assert len(set(revisions)) == len(revisions)


def test_one_memo_entry_serves_every_route_to_an_order(revisions):
    # contracting by q (CC1's ``con``) and by the negation of its
    # complement (CR1's ``conneg``) is one entry, so each contraction is
    # computed once between the two scans
    ctx = _Ctx(2, Revision.NATURAL, Contraction.STQ_LEX)
    t = parse_tpo("11 | 10 01 | 00", 2)
    _POSTULATES["CC1"].count(ctx, t)
    _POSTULATES["CR1"].count(ctx, t)
    contractions = [call for call in revisions if not call[0].startswith("revise")]
    assert [(name, q) for name, _, q, _ in contractions] == [("contract", q) for q in ctx.props]
    # iLIRC under natural revision reads the contractions back, and its
    # routed revisions are the ``rev`` entries of the contracted preorders
    revisions.clear()
    _POSTULATES["iLIRC"].count(ctx, t)
    assert revisions and {call[0] for call in revisions} == {"revise"}
    routed = len(revisions)
    for p, contracted in zip(ctx.props, ctx.order("conneg", t, ctx.props)):
        ctx.order("rev", contracted, (p,))
    assert len(revisions) == routed
    assert len(set(revisions)) == len(revisions)


def test_a_finished_scan_context_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        ctx = _Ctx(2, Revision.NATURAL, Contraction.STQ_LEX)
        outers = postulates._outers(False, 2, slice(0, None))
        tally = postulates._scan(ctx, _POSTULATES["CR4"], outers)
        assert tally.violations
        ref = weakref.ref(ctx)
        del ctx, tally
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# One pass per operator pair: the verdicts the claims ask for


def _claim_verdicts():
    """(postulates, revision, contraction) of each one-pass verdict that
    T1, T2, T3, Cor1 and P3 ask for."""
    for rev in _BUILTIN_REVISIONS:
        yield postulates.ELEMENTARY_POSTULATES, rev, None
        for con in _BUILTIN_CONTRACTIONS:
            yield ("NLI", "CR1", "CR2", "CR3", "CR4", "SPU", "WPU"), rev, con
    for con in _BUILTIN_CONTRACTIONS:
        yield ("CC1", "CC2", "CC3", "CC4"), None, con
        for rev in _BUILTIN_REVISIONS:
            yield ("DP1", "DP2", "DP3", "DP4"), _NliComposition(con, rev), None


def _reduced_verdict(postulate, rev, con):
    """Whether the postulate's oracle yields nothing on any outer."""
    spec = _POSTULATES[postulate]
    gen = ORACLES.get(postulate, spec.gen)
    ctx = _Ctx(2, rev, con)
    pool = list(enumerate_tpos(2))
    outers = product(pool, repeat=2) if spec.pair_outer else pool
    return all(next(gen(ctx, outer), None) is None for outer in outers)


def test_one_pass_verdicts_match_the_oracles():
    failing = 0
    for ids, rev, con in _claim_verdicts():
        verdicts = postulates._holding(ids, rev, con, 2)
        assert verdicts == {p: _reduced_verdict(p, rev, con) for p in ids}, (ids, rev, con)
        failing += not all(verdicts.values())
    assert failing == 2  # NLI, CR3/4, SPU, WPU under natural and restrained + stq-lex


def test_the_pair_profile_computes_each_order_once_per_instance(revisions):
    # the nine operator pairs share their orders: each revision serves
    # every contraction and each contraction every revision; revising or
    # contracting by the negated input is revising or contracting by its
    # complement; each prior is counted on one input per orbit of its
    # cells, and the failing pairs' witnesses read the rest.  The pair
    # rules read the closed form under the built-ins that have one, the
    # other scans the built preorders, so an instance may be computed
    # once in each memo
    pair_profile.cache_clear()
    pair_profile(2)
    assert len(revisions) == 1024
    assert len(set(revisions)) == len(revisions)
    assert Counter(name for name, *_ in revisions) == {
        "revise": 304,
        "contract": 226,
        "revise matrices": 306,
        "contract matrices": 188,
    }


def test_a_scan_computes_the_pair_matrices_of_each_order_once(monkeypatch):
    # the context keeps pair matrices by order, so a posterior that several
    # inputs or priors share, or that is a prior too, is read once; the
    # pair profile's contexts share that memo across operator pairs
    calls = []

    def counted(t, _real=postulates._relations):
        calls.append(t)
        return _real(t)

    monkeypatch.setattr(postulates, "_relations", counted)
    for run in (
        lambda: check_postulate("DP1", Revision.NATURAL, n_atoms=2),
        lambda: (pair_profile.cache_clear(), pair_profile(2)),
    ):
        calls.clear()
        run()
        assert calls
        assert len(set(calls)) == len(calls)


# ---------------------------------------------------------------------------
# Orbits: under operators that commute with every permutation of the
# worlds, a single-outer scan counts alike on preorders of one composition


def _full_scan(monkeypatch):
    """Scan every outer, as for an operator that is not equivariant."""
    monkeypatch.setattr(postulates, "_equivariant", lambda rev, con: False)


SINGLE_OUTER = tuple(p for p, spec in _POSTULATES.items() if not spec.pair_outer)

ORBIT_SCOPES = (
    {"n_atoms": 1},
    {"n_atoms": 2},
    *({"n_atoms": 3, "mode": "sampled", "seed": seed, "sample": 40} for seed in range(4)),
)


@pytest.mark.parametrize("postulate", SINGLE_OUTER)
def test_orbit_reports_equal_the_full_scan(postulate, monkeypatch):
    spec = _POSTULATES[postulate]
    runs = [
        (rev, con, scope)
        for rev in (_BUILTIN_REVISIONS if spec.needs_rev else (None,))
        for con in (_BUILTIN_CONTRACTIONS if spec.needs_con else (None,))
        for scope in ORBIT_SCOPES
    ]
    orbit = [check_postulate(postulate, rev, con, **scope) for rev, con, scope in runs]
    _full_scan(monkeypatch)
    assert orbit == [check_postulate(postulate, rev, con, **scope) for rev, con, scope in runs]


def test_orbit_verdicts_equal_the_full_scan(monkeypatch):
    cases = list(_claim_verdicts())
    orbit = [postulates._holding(ids, rev, con, 2) for ids, rev, con in cases]
    _full_scan(monkeypatch)
    assert orbit == [postulates._holding(ids, rev, con, 2) for ids, rev, con in cases]


def test_diagram_reports_equal_the_full_scan(monkeypatch):
    diagrams = [*DIAGRAM_IDS, {1: 1, 0: 0, -1: 0}, {1: 1, 0: 1, -1: 1}]
    orbit = [check_diagram(d, 2) for d in diagrams]
    assert [r.violations for r in orbit[:6]] == [0, 0, 0, 288, 192, 96]
    _full_scan(monkeypatch)
    assert orbit == [check_diagram(d, 2) for d in diagrams]


EQUIVARIANT = (
    *_BUILTIN_REVISIONS,
    *(_NliComposition(con, rev) for con in _BUILTIN_CONTRACTIONS for rev in _BUILTIN_REVISIONS),
)


@pytest.mark.parametrize("op", EQUIVARIANT, ids=method_name)
@pytest.mark.parametrize("postulate", ["IIAP", "Neut"])
def test_row_reports_equal_the_full_scan(postulate, op, monkeypatch):
    # every job takes whole rows, whatever the worker count; a failing
    # scan (IIAP under stq-lex then natural or restrained) reads its later
    # rows of each composition back with their violations
    monkeypatch.setattr(postulates, "_run_jobs", _in_process_jobs)
    rows = [check_postulate(postulate, op, n_atoms=2, workers=w) for w in (1, 2, 3, 16)]
    _full_scan(monkeypatch)
    assert rows == [check_postulate(postulate, op, n_atoms=2)] * 4


def test_a_pair_scan_counts_one_whole_row_per_composition(monkeypatch):
    # a failing row is read back too, with its violations
    counted = []
    spec = _POSTULATES["IIAP"]

    def counting(ctx, outer):
        counted.append(outer)
        return spec.count(ctx, outer)

    monkeypatch.setitem(_POSTULATES, "IIAP", spec._replace(count=counting))
    composed = _NliComposition(Contraction.STQ_LEX, Revision.NATURAL)
    for op, outcome in ((Revision.NATURAL, "pass"), (composed, "fail")):
        counted.clear()
        report = check_postulate("IIAP", op, n_atoms=2)
        assert report.outcome == outcome
        assert report.instances == 75 * 75 * 15
        assert len(counted) == 8 * 75  # 75 * 75 in the full scan
        assert len({postulates._composition(t) for t, _ in counted}) == 8


def test_only_equivariant_operators_take_the_orbit_route():
    random_op = make_random_dp_operator(0, 2)
    refused = [
        TabularRevision(2, {}),
        random_op,
        _Reversed(),
        _NliComposition(Contraction.NATURAL, random_op),
    ]
    for op in refused:
        assert not postulates._equivariant(op, None), op
        assert not postulates._equivariant(op, Contraction.NATURAL), op
    assert postulates._equivariant(Revision.NATURAL, Contraction.STQ_LEX)
    assert postulates._equivariant(_NliComposition(Contraction.STQ_LEX, Revision.NATURAL), None)
    # a diagram's table is no revision: ``revise`` refuses it
    for table in (*postulates._DIAGRAMS.values(), {1: 1, 0: 0, -1: 0}):
        with pytest.raises(TypeError):
            revise(parse_tpo("00 | 01 | 10 | 11", 2), mod("p"), table)


# ---------------------------------------------------------------------------
# Input orbits: under the same operators, a permutation that fixes each
# cell of a prior maps its violations on one input onto those on the
# image, so a single-input scan counts one input per orbit, times its size


def _one_per_composition(n_atoms):
    """One preorder of each composition of the worlds, its cells cut from
    a seeded order of the worlds, so a cell's worlds need not be
    consecutive."""
    width = 1 << n_atoms
    worlds = random.Random(n_atoms).sample(range(width), width)
    for cuts in range(1 << width - 1):  # bit i set: a cell ends at worlds[i]
        cells, cell = [], 0
        for i, w in enumerate(worlds):
            cell |= 1 << w
            if i == width - 1 or cuts >> i & 1:
                cells.append(cell)
                cell = 0
        yield Tpo(tuple(cells), n_atoms)


def test_input_orbits_weigh_every_input_once():
    for n_atoms in (1, 2, 3):
        tpos = list(_one_per_composition(n_atoms))
        assert len({postulates._composition(t) for t in tpos}) == len(tpos)
        assert len(tpos) == 2 ** (2**n_atoms - 1)
        inputs = 2 ** 2**n_atoms - 1
        for t in tpos:
            sizes = [c.bit_count() for c in t.masks]
            for proper in (False, True):
                reps, weights = postulates._input_orbits(t, proper)
                assert len(set(reps)) == len(reps) == prod(s + 1 for s in sizes) - 1 - proper
                assert 0 not in reps and (all_worlds(n_atoms) in reps) != proper
                assert sum(weights) == inputs - proper


# The scans whose count is a sum over single inputs (see ``_by_input``)
INPUT_ADDITIVE = tuple(
    p for p, spec in _POSTULATES.items() if spec.counts is not None and not spec.pair_outer
)

# The scans that no equivariant operator pair below fails at one to three
# atoms; among the built-in pairs the others fail exactly on FAILING_PAIRS
NEVER_FAILING = (
    "Success", "DP1", "DP2", "DP3", "DP4", "CC1", "CC2", "CC3", "CC4", "CR1", "CR2", "Red",
    "HI_beliefs", "LI_beliefs",
)

_STQ_LEX_FAILS = {(rev, Contraction.STQ_LEX) for rev in (Revision.NATURAL, Revision.RESTRAINED)}
FAILING_PAIRS = {
    **dict.fromkeys(("CR3", "CR4", "SPU", "WPU", "NLI"), _STQ_LEX_FAILS),
    "iLIRC": set(product(_BUILTIN_REVISIONS, _BUILTIN_CONTRACTIONS))
    - {(Revision.NATURAL, Contraction.NATURAL), (Revision.NATURAL, Contraction.STQ_RESTRAINED)},
    **{f"diagram {d}": {(d, None)} for d in ("d", "e", "f")},
}


def _additive_cases(n_atoms, revisions):
    """((scan, revision, contraction), scan, context) for every
    input-additive scan on every operator pair it takes, and for the six
    diagram scans (named by their table); the scans of one operator pair
    share a context, and every postulate context shares its orders."""
    shared, contexts = {}, {}
    for postulate in INPUT_ADDITIVE:
        spec = _POSTULATES[postulate]
        for rev in revisions if spec.needs_rev else (None,):
            for con in _BUILTIN_CONTRACTIONS if spec.needs_con else (None,):
                if (rev, con) not in contexts:
                    contexts[rev, con] = _Ctx(n_atoms, rev, con, shared)
                yield (postulate, rev, con), spec, contexts[rev, con]
    for d, table in postulates._DIAGRAMS.items():
        yield (f"diagram {d}", d, None), postulates._diagram_scan(table), _Ctx(n_atoms)


def _failing_cases(n_atoms, tpos, revisions):
    """The cases with a violation on some preorder of tpos, once the
    orbit-weighted count is asserted equal to the full count on each."""
    cases = list(_additive_cases(n_atoms, revisions))
    failing = set()
    for t in tpos:
        for case, spec, ctx in cases:
            full = spec.count(ctx, t)
            assert postulates._orbit_count(ctx, spec, t) == full, (case, t)
            if full:
                failing.add(case)
        for _, _, ctx in cases:
            ctx.clear()
    return failing


@pytest.mark.parametrize(
    "n_atoms, tpos, revisions",
    [
        (1, lambda: enumerate_tpos(1), EQUIVARIANT),
        (2, lambda: enumerate_tpos(2), EQUIVARIANT),
        (3, lambda: _one_per_composition(3), _BUILTIN_REVISIONS),
    ],
    ids=["n1-every-tpo", "n2-every-tpo", "n3-one-tpo-per-composition"],
)
def test_input_orbit_counts_equal_the_full_counts(n_atoms, tpos, revisions):
    failing = _failing_cases(n_atoms, tpos(), revisions)
    if n_atoms == 1:  # two worlds: no violation, and no triple for a diagram
        assert not failing
        return
    assert {scan for scan, _, _ in failing}.isdisjoint(NEVER_FAILING)
    assert set(INPUT_ADDITIVE) - {scan for scan, _, _ in failing} == set(NEVER_FAILING)
    builtin = {case for case in failing if case[1] not in EQUIVARIANT[3:]}
    assert builtin == {(scan, *pair) for scan, pairs in FAILING_PAIRS.items() for pair in pairs}


def test_a_failing_check_renders_only_the_kept_witnesses(monkeypatch):
    calls = []
    real = _Ctx.witness

    def counted(self, *raw):
        calls.append(raw)
        return real(self, *raw)

    monkeypatch.setattr(_Ctx, "witness", counted)
    for workers in (1, 2):
        calls.clear()
        report = check_postulate(
            "CR4",
            Revision.NATURAL,
            Contraction.STQ_LEX,
            n_atoms=3,
            mode="sampled",
            sample=30,
            seed=1,
            workers=workers,
        )
        assert len(report.witnesses) == WITNESS_CAP
        assert len(calls) == WITNESS_CAP, workers
