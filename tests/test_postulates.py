import errno
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
from itertools import count, islice, product
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
    _posteriors,
    contract,
    contract_by_negation,
    method_name,
    nli_revise,
    revise,
)
from beliefchange.postulates import (
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

from ranks import one_per_three_atom_composition, rank

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


@pytest.mark.parametrize("n_atoms", [3, 4])
def test_random_dp_operators_reject_atom_counts_above_two(n_atoms):
    with pytest.raises(ScopeError, match="at most 2 atoms"):
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


class _Reversed:
    """Natural revision of the reversed prior: fails IIAI, so a counted
    scan rebuilds its witnesses with the generator."""

    def posterior(self, t, sentence_models):
        return revise(Tpo(t.masks[::-1], t.n_atoms), sentence_models, Revision.NATURAL)


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


def _split_before(k):
    """A stand-in for ``postulates.perf_counter``, for one check: it
    crosses the fork budget just before outer k.  It reads 0 at the
    scan's start and before outers 0 to k - 1, and an hour after."""
    reads = count()
    return lambda: 0.0 if next(reads) <= k else 3600.0


def _no_clock():
    raise AssertionError("read the clock")


def test_the_outers_left_at_the_budget_are_split_by_the_workers(monkeypatch):
    """Once the clock crosses the budget before outer k, the outers left
    are split into min(workers, 16, outers left) parts; the stand-in
    runner runs them in process.  At one worker no clock is read."""
    sizes = []

    def sized_jobs(jobs):
        sizes.append(len(jobs))
        return _in_process_jobs(jobs)

    monkeypatch.setattr(postulates, "_run_jobs", sized_jobs)
    sampled = dict(n_atoms=3, mode="sampled", seed=1)
    cases = [  # (scope, k, parts); None: every outer ran before the budget
        (dict(n_atoms=2, workers=64), 0, 16),  # 75 outers in 16 parts
        (dict(n_atoms=2, workers=64), 70, 5),
        (dict(n_atoms=2, workers=3), 0, 3),
        (dict(n_atoms=2, workers=3), 40, 3),
        (dict(n_atoms=2, workers=3), 74, 1),
        (dict(n_atoms=2, workers=3), 75, None),
        (dict(sample=3, workers=64, **sampled), 0, 3),
        (dict(sample=3, workers=64, **sampled), 2, 1),
        (dict(sample=1, workers=64, **sampled), 0, 1),
        (dict(sample=2, workers=2, **sampled), 0, 2),
        (dict(sample=5, workers=2, **sampled), 5, None),
    ]
    for scope, k, parts in cases:
        del sizes[:]
        monkeypatch.setattr(postulates, "perf_counter", _split_before(k))
        report = check_postulate("DP1", Revision.LEXICOGRAPHIC, **scope)
        assert sizes == ([] if parts is None else [parts]), (scope, k)
        monkeypatch.setattr(postulates, "perf_counter", _no_clock)
        serial = check_postulate("DP1", Revision.LEXICOGRAPHIC, **dict(scope, workers=1))
        assert sizes == ([] if parts is None else [parts]), (scope, k)
        assert render_machine(report) == render_machine(serial), (scope, k)


SPLIT_CHECKS = {  # (postulate, revision, contraction, scope, witnesses kept)
    "CR4 natural contract-stq-lex sampled": (
        "CR4",
        Revision.NATURAL,
        Contraction.STQ_LEX,
        dict(n_atoms=3, mode="sampled", sample=30, seed=1),
        WITNESS_CAP,
    ),
    "IIAP natural": ("IIAP", Revision.NATURAL, None, dict(n_atoms=2), 0),
    "IIAP reversed": ("IIAP", _Reversed(), None, dict(n_atoms=2), WITNESS_CAP),
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks its jobs")
@pytest.mark.parametrize("case", SPLIT_CHECKS)
def test_reports_agree_at_every_split_point(case, monkeypatch, reaped):
    # the parts run in process at every k but 0 and the middle one, where
    # they run in forked children
    postulate, rev, con, scope, kept = SPLIT_CHECKS[case]
    serial = check_postulate(postulate, rev, con, **scope)
    assert len(serial.witnesses) == kept
    serial = render_machine(serial)
    outers = scope.get("sample", count_tpos(scope["n_atoms"]))
    forked = (0, outers // 2)
    run_jobs = postulates._run_jobs
    for k in range(outers + 1):
        runner = run_jobs if k in forked else _in_process_jobs
        monkeypatch.setattr(postulates, "_run_jobs", runner)
        for workers in (2, 3, 16):
            monkeypatch.setattr(postulates, "perf_counter", _split_before(k))
            report = check_postulate(postulate, rev, con, workers=workers, **scope)
            assert render_machine(report) == serial, (k, workers)


def test_a_check_under_the_budget_forks_no_child(monkeypatch):
    def no_fork():
        raise AssertionError("forked under the budget")

    # a few ms of work, far below the budget even on a slow host
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert check_postulate("DP1", Revision.NATURAL, n_atoms=2, workers=2).passed


def test_a_child_runs_no_generator_once_the_prefix_keeps_every_witness(monkeypatch):
    spec = _POSTULATES["CR4"]
    split = []  # set once the prefix is scanned
    after = []  # the generators run after the split

    def gen(ctx, outer):
        if split:
            after.append(outer)
        return spec.gen(ctx, outer)

    def jobs_after_the_split(jobs):
        split.append(len(jobs))
        return _in_process_jobs(jobs)

    monkeypatch.setitem(_POSTULATES, "CR4", spec._replace(gen=gen))
    monkeypatch.setattr(postulates, "_run_jobs", jobs_after_the_split)
    monkeypatch.setattr(postulates, "perf_counter", _split_before(15))
    scope = dict(n_atoms=3, mode="sampled", sample=30, seed=1)
    report = check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, workers=2, **scope)
    assert split == [2] and after == []
    assert len(report.witnesses) == WITNESS_CAP
    assert report.violations == 17132


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
    # one worker, or one outer left at the split
    def no_fork():
        raise AssertionError("forked for a single job")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    kwargs = dict(n_atoms=3, mode="sampled", seed=1)
    for scope in (dict(sample=5, workers=1), dict(sample=1, workers=4)):
        monkeypatch.setattr(postulates, "perf_counter", _split_before(0))
        assert check_postulate("DP1", Revision.NATURAL, **scope, **kwargs).instances


def test_without_fork_every_job_runs_in_process(monkeypatch):
    serial = check_postulate("IIAP", Revision.NATURAL, n_atoms=2)
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(postulates, "perf_counter", _split_before(0))
    assert check_postulate("IIAP", Revision.NATURAL, n_atoms=2, workers=3) == serial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks its jobs")
def test_a_failed_fork_runs_its_part_in_process(monkeypatch, capsys, reaped):
    # the first fork starts a child; the second fails as it does with no
    # process to spare, and its part and the rest run in this process.
    # The check fails on one input of each of 24 outers, so the first
    # ten witnesses come from the first four parts of 16.
    argv = ["check", "CR3", "restrained", "contract-stq-lex", "--n", "2"]
    assert cli.main([*argv, "--workers", "1"]) == 1
    serial = capsys.readouterr()
    forks = []
    fork = os.fork

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(postulates, "perf_counter", _split_before(0))
    assert cli.main([*argv, "--workers", "16"]) == 1
    assert capsys.readouterr() == serial
    assert len(forks) == 2


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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks its jobs")
def test_each_worker_runs_one_job_that_counts_a_composition_once(monkeypatch, tmp_path, reaped):
    # the clock crosses the budget halfway; every process logs the
    # compositions it counts, by its pid, and this one marks the split;
    # under natural revision DP1 counts a whole prior at once
    log = tmp_path / "counts"
    spec = _POSTULATES["DP1"]
    run_jobs = postulates._run_jobs

    def logged(line):
        with open(log, "a") as out:
            out.write(line + "\n")

    def counted(ctx, t):
        logged(f"{os.getpid()} {postulates._composition(t)}")
        return spec.count(ctx, t)

    def marked(jobs):
        logged("split")
        return run_jobs(jobs)

    monkeypatch.setitem(_POSTULATES, "DP1", spec._replace(count=counted))
    monkeypatch.setattr(postulates, "_run_jobs", marked)
    monkeypatch.setattr(postulates, "perf_counter", _split_before(100))
    kwargs = dict(n_atoms=3, mode="sampled", sample=200, seed=1)
    report = check_postulate("DP1", Revision.NATURAL, workers=2, **kwargs)
    lines = log.read_text().splitlines()
    split = lines.index("split")
    before = {line.split(" ", 1)[1] for line in lines[:split]}
    after = [tuple(line.split(" ", 1)) for line in lines[split + 1 :]]
    assert len(before) == split  # once before the split
    assert len({pid for pid, _ in after}) == 2  # this process and one child
    assert len(set(after)) == len(after)  # once per process after it
    assert not before & {composition for _, composition in after}
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
    for con in Contraction:
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


def test_dp_merges_pass_the_rank_filter_on_each_three_atom_composition():
    # sound: on a few inputs of one preorder per composition, every merge
    # passes Success and DP1-DP4 and none repeats
    rng = random.Random(36)
    for t in one_per_three_atom_composition():
        for p in (255, *rng.sample(range(1, 255), 3)):
            merges = list(postulates._dp_merges(t, p))
            assert len(set(merges)) == len(merges), (t, p)
            assert all(_success_and_dp(t, p, Tpo(masks, 3)) for masks in merges), (t, p)


def test_dp_merges_equal_the_rank_filter_on_three_atom_keys():
    # complete: on three keys, the merges are every preorder of the
    # enumeration that passes the rank oracle (129 for the first: the most
    # any three-atom key has)
    keys = (
        (Tpo(tuple(1 << w for w in range(8)), 3), 0b11110000),
        (Tpo((0b00000011, 0b00011100, 0b11100000), 3), 0b01010101),
        (Tpo((0b00100101, 0b11011010), 3), 0b00001111),
    )
    found = {key: set() for key in keys}
    for s in enumerate_tpos(3):
        for (t, p), posts in found.items():
            if _success_and_dp(t, p, s):
                posts.add(s.masks)
    for (t, p), posts in found.items():
        assert set(postulates._dp_merges(t, p)) == posts, (t, p)
    assert len(found[keys[0]]) == 129


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
        list(Revision)
        + [_Reversed()]
        + [make_random_dp_operator(seed, 2) for seed in range(10)]
        + [
            _NliComposition(con, rev)
            for con in Contraction
            for rev in Revision
        ]
    )


def _operator_pairs():
    """The nine built-in pairs, then each other revision with a built-in
    contraction in turn."""
    others = _revisions()[len(Revision) :]
    return [(rev, con) for rev in Revision for con in Contraction] + [
        (rev, tuple(Contraction)[i % 3]) for i, rev in enumerate(others)
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


def test_routed_matrix_counts_equal_the_order_comparison_on_every_two_atom_instance():
    # NLI and iLIRC count on the two routes' pair matrices and find their
    # witnesses by comparing the orders: equal matrices mean equal orders
    differing = 0
    for rev, con in product(Revision, Contraction):
        ctx = _Ctx(2, rev, con)
        for postulate, final in (("NLI", rev), ("iLIRC", Revision.NATURAL)):
            spec = _POSTULATES[postulate]
            for t in enumerate_tpos(2):
                expected = [nli_revise(t, p, con, final) != revise(t, p, rev) for p in ctx.props]
                assert list(spec.counts(ctx, t, ctx.props)) == expected, (postulate, rev, con, t)
                found = Counter(raw[1][0] for raw in spec.gen(ctx, t))
                assert [found[p] for p in ctx.props] == expected, (postulate, rev, con, t)
                differing += sum(expected)
    assert differing > 0


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
    matrices`` or ``contract matrices``: each is one order computed.  The
    first cells that the built-ins' closed form computes
    (``_posterior_firsts``) are entries too, ``revise firsts`` or
    ``contract firsts`` with (prior, input): the form is one for every
    built-in of a kind, and takes no operator."""
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

    def firsts(contracting, t, qs, _real=postulates._posterior_firsts):
        name = "contract firsts" if contracting else "revise firsts"
        calls.extend((name, t, q) for q in qs)
        return _real(contracting, t, qs)

    monkeypatch.setattr(postulates, "_posterior_firsts", firsts)
    return calls


def test_a_single_prior_scan_revises_each_instance_once(revisions):
    # one preorder per composition of the four worlds, each on one input
    # per orbit of its cells: the product of (cell size + 1), less one;
    # a pair rule under a composed revision, equivariant but no built-in,
    # reads the memo's orders, one revision of the prior by each input
    composed = _NliComposition(Contraction.STQ_LEX, Revision.NATURAL)
    check_postulate("DP1", composed, n_atoms=2)
    assert len(revisions) == 74
    assert len(set(revisions)) == len(revisions)
    assert {name for name, *_ in revisions} == {"revise"}


def test_a_packed_pair_rule_reads_no_memo(revisions):
    # under the built-ins, each with a packed form, a pair rule takes
    # every input of a prior at once, with no entry in the context's memo
    for postulate, rev, con, passed in (
        ("DP1", Revision.NATURAL, None, True),
        ("CC4", Revision.RESTRAINED, Contraction.STQ_RESTRAINED, True),
        ("SPU", Revision.LEXICOGRAPHIC, Contraction.NATURAL, True),
        ("CR4", Revision.NATURAL, Contraction.STQ_LEX, False),
    ):
        ctx = _Ctx(2, rev, con)
        assert _POSTULATES[postulate].packed(ctx)
        assert check_postulate(postulate, rev, con, n_atoms=2).passed is passed
    assert revisions == []


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
    # witness lies on input 17, in the second chunk; CR4 under a composed
    # revision, no built-in, revises by each input through the memo's
    # orders and contracts by its complement in closed form
    composed = _NliComposition(Contraction.NATURAL, Revision.NATURAL)
    ctx = _Ctx(3, composed, Contraction.STQ_LEX)
    raws = list(islice(_POSTULATES["CR4"].gen(ctx, tpo_at_index(0, 3)), WITNESS_CAP))
    assert len(raws) == WITNESS_CAP and raws[-1][1] == (17,)
    reached = {ctx.full - p if name[0] == "c" else p for name, _, p, _ in revisions}
    assert {name for name, *_ in revisions} == {"revise", "contract matrices"}
    assert reached == set(range(1, 2 * postulates._GEN_CHUNK + 1))
    assert len(revisions) == 2 * 2 * postulates._GEN_CHUNK
    assert len(set(revisions)) == len(revisions)


def test_a_failing_routed_scan_and_its_witnesses_share_each_direct_order(revisions):
    # the routed revision is the contracted preorder's own revision, so
    # the memo shares it with the direct revision of that preorder, as
    # matrices for the count and as orders for the witnesses; the
    # contraction by the negated input is the contraction by the input's
    # complement
    report = check_postulate("NLI", Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)
    assert report.outcome == "fail"
    assert {name for name, *_ in revisions} == {"revise", "revise matrices", "contract"}
    assert len(set(revisions)) == len(revisions)


@pytest.mark.parametrize(
    "postulate, rev, con, witnessed",
    [
        ("NLI", Revision.NATURAL, Contraction.STQ_LEX, 18),
        ("iLIRC", Revision.LEXICOGRAPHIC, Contraction.STQ_RESTRAINED, 20),
    ],
)
def test_a_routed_count_builds_no_revision_order(postulate, rev, con, witnessed, revisions):
    # the count compares pair matrices, so a verdict builds no revision
    # order; a report builds the two orders of each of its ten witnesses,
    # and the direct and routed revisions of an input may be one order
    assert not postulates._holding((postulate,), rev, con, 2)[postulate]
    assert revisions and not [call for call in revisions if call[0] == "revise"]
    report = check_postulate(postulate, rev, con, n_atoms=2)
    assert len(report.witnesses) == WITNESS_CAP
    assert sum(call[0] == "revise" for call in revisions) == witnessed


BELIEF_SCANS = ("Success", "HI_beliefs", "LI_beliefs")


@pytest.mark.parametrize("rev, con", list(product(Revision, Contraction)))
def test_the_belief_scans_build_no_posterior(rev, con, revisions, monkeypatch):
    # under the built-ins Success and HI/LI_beliefs read first cells in
    # closed form alone: no kernel batch, no pair matrices, and each
    # prior's first cell on an input once
    built = []
    for name in ("_posteriors", "_posterior_relations"):

        def counted(*args, _name=name, _real=getattr(postulates, name)):
            built.append(_name)
            return _real(*args)

        monkeypatch.setattr(postulates, name, counted)
    assert postulates._holding(BELIEF_SCANS, rev, con, 2) == dict.fromkeys(BELIEF_SCANS, True)
    assert built == []
    assert {name for name, *_ in revisions} == {"revise firsts", "contract firsts"}
    assert len(set(revisions)) == len(revisions)


def test_success_under_a_random_operator_computes_each_posterior_once(revisions):
    # an operator with no closed form: the first cells are those of the
    # orders memo's posteriors, so no second batch builds them again
    report = check_postulate("Success", make_random_dp_operator(0, 2), n_atoms=2)
    assert report.passed
    assert {name for name, *_ in revisions} == {"revise"}
    assert len(revisions) == 75 * 15
    assert len(set(revisions)) == len(revisions)


def test_li_beliefs_reads_the_contracted_preorder_where_its_first_cell_misses_the_input(
    monkeypatch,
):
    # patched, each contraction's first cell is the contracted mask
    # itself, which for the negated input p misses p: every LI_beliefs
    # instance but the tautology then takes the minimal p-worlds from the
    # built contracted preorder, and every report stays as it was
    cases = [(rev, con) for rev in (*Revision, _Reversed()) for con in Contraction]
    expected = [
        render_machine(check_postulate("LI_beliefs", rev, con, n_atoms=2)) for rev, con in cases
    ]
    assert '"outcome": "fail"' in expected[-1]  # the reversed prior's revision fails LI
    fallbacks = []

    def firsts(contracting, t, qs, _real=postulates._posterior_firsts):
        return list(qs) if contracting else _real(contracting, t, qs)

    def counted(t, s, _real=postulates.min_worlds):
        fallbacks.append(t)
        return _real(t, s)

    monkeypatch.setattr(postulates, "_posterior_firsts", firsts)
    monkeypatch.setattr(postulates, "min_worlds", counted)
    got = [render_machine(check_postulate("LI_beliefs", rev, con, n_atoms=2)) for rev, con in cases]
    assert got == expected
    assert fallbacks


@pytest.mark.parametrize(
    "postulate, rev, con",
    [
        ("NLI", Revision.NATURAL, Contraction.STQ_LEX),
        ("iLIRC", Revision.LEXICOGRAPHIC, Contraction.NATURAL),
    ],
)
def test_a_routed_count_reads_the_routed_memo_once_per_contracted_preorder(
    postulate, rev, con, monkeypatch
):
    reads = []

    def at(self, t, qs, _real=postulates._Orders.at):
        reads.append((self, t, list(qs)))
        return _real(self, t, qs)

    monkeypatch.setattr(postulates._Orders, "at", at)
    ctx = _Ctx(3, rev, con)
    routes = ctx.memo(revise, Revision.NATURAL if postulate == "iLIRC" else rev, True)
    for index in (0, 4321, 200000):
        t = tpo_at_index(index, 3)
        contracted = ctx.order("conneg", t, ctx.props)
        groups = {}
        for p, c in zip(ctx.props, contracted):
            groups.setdefault(c, []).append(p)
        assert len(groups) < len(ctx.props)
        # NLI's routed memo is the direct revision's too, read first on t
        expected = [(t, list(ctx.props))] * (postulate == "NLI") + list(groups.items())
        reads.clear()
        list(_POSTULATES[postulate].counts(ctx, t, ctx.props))
        assert [(u, qs) for memo, u, qs in reads if memo is routes] == expected


def test_one_memo_entry_serves_every_route_to_an_order(revisions):
    # contracting by q (SPU's ``con``) and by the negation of its
    # complement (CR1's ``conneg``) is one entry, so each contraction is
    # computed once between the two scans: under a revision that is no
    # built-in neither takes the packed route, SPU contracts by every
    # input but the tautology, and CR1 contracts by nothing new
    t = parse_tpo("11 | 10 01 | 00", 2)
    ctx = _Ctx(2, _Reversed(), Contraction.STQ_LEX)
    _POSTULATES["SPU"].count(ctx, t)
    _POSTULATES["CR1"].count(ctx, t)
    contractions = [call for call in revisions if not call[0].startswith("revise")]
    expected = [("contract matrices", q) for q in ctx.props_proper]
    assert [(name, q) for name, _, q, _ in contractions] == expected
    # iLIRC under natural revision builds each contracted preorder once,
    # and its routed revisions are the ``rev`` entries of those preorders
    ctx = _Ctx(2, Revision.NATURAL, Contraction.STQ_LEX)
    revisions.clear()
    _POSTULATES["iLIRC"].count(ctx, t)
    assert [(name, q) for name, _, q, _ in revisions if name == "contract"] == [
        ("contract", ctx.full - p) for p in ctx.props_proper
    ]
    assert {call[0] for call in revisions} == {"contract", "revise matrices"}
    routed = len(revisions)
    for p, contracted in zip(ctx.props, ctx.order("conneg", t, ctx.props)):
        ctx.matrices("rev", contracted, (p,))
    assert len(revisions) == routed
    assert len(set(revisions)) == len(revisions)


def test_a_second_matrix_read_looks_up_no_posterior(monkeypatch):
    # under a revision with no closed form the memo keeps the matrices of
    # each order by prior and mask: the first read computes each distinct
    # posterior's matrices once, the second reads them back without
    # hashing a posterior
    computed, looked_up = [], []

    def relations(t, _real=postulates._relations):
        computed.append(t)
        return _real(t)

    def lookup(self, t, _real=dict.__getitem__):
        looked_up.append(t)
        return _real(self, t)

    monkeypatch.setattr(postulates, "_relations", relations)
    monkeypatch.setattr(postulates._Matrices, "__getitem__", lookup)
    ctx = _Ctx(2, _NliComposition(Contraction.STQ_LEX, Revision.NATURAL))
    t = parse_tpo("11 | 10 01 | 00", 2)
    first = ctx.matrices("rev", t, ctx.props)
    posteriors = set(ctx.order("rev", t, ctx.props))
    assert len(posteriors) > 1 and t in posteriors  # the tautology's is t
    assert sorted(computed) == sorted(posteriors)
    looked_up.clear()
    assert ctx.matrices("rev", t, ctx.props) == first
    assert looked_up == []


def test_a_finished_scan_context_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        ctx = _Ctx(2, Revision.NATURAL, Contraction.STQ_LEX)
        outers = postulates._outers(False, 2, range(count_tpos(2)))
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
    for rev in Revision:
        yield postulates.ELEMENTARY_POSTULATES, rev, None
        for con in Contraction:
            yield ("NLI", "CR1", "CR2", "CR3", "CR4", "SPU", "WPU"), rev, con
    for con in Contraction:
        yield ("CC1", "CC2", "CC3", "CC4"), None, con
        for rev in Revision:
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
    # cells.  Every built-in has a closed form, and the verdicts read
    # matrices but for NLI's routes, which revise the built contracted
    # preorders, so a contraction may be computed once in each memo.  The
    # pair rules take their packed route under every built-in, which
    # computes no memo entry, so no contraction's matrices are read
    pair_profile.cache_clear()
    pair_profile(2)
    assert len(revisions) == 502
    assert len(set(revisions)) == len(revisions)
    assert Counter(name for name, *_ in revisions) == {"contract": 198, "revise matrices": 304}


def test_a_verdict_under_a_random_operator_computes_each_posterior_once(revisions):
    # the matrix memo under an operator that is no built-in reads the
    # context's orders, so each (prior, input) is revised once: 75 priors
    # on 15 inputs, whichever of the scans reads it first
    operator = make_random_dp_operator(0, 2)
    postulates._holding(postulates.ELEMENTARY_POSTULATES, operator, None, 2)
    assert Counter(name for name, *_ in revisions) == {"revise": 1125}
    assert len(set(revisions)) == 1125


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
        for rev in (Revision if spec.needs_rev else (None,))
        for con in (Contraction if spec.needs_con else (None,))
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


def _walked_verdicts(ids, rev, con, n_atoms):
    """Each postulate's verdict from ``_counted`` on every outer of the
    enumeration, a pair scan's in whole rows."""
    ctx = _Ctx(n_atoms, rev, con)
    everything = range(count_tpos(n_atoms))
    verdicts = {}
    for postulate in ids:
        spec = _POSTULATES[postulate]
        outers = postulates._outers(spec.pair_outer, n_atoms, everything)
        verdicts[postulate] = not any(found for _, found in postulates._counted(ctx, spec, outers))
    return verdicts


def test_verdicts_take_one_outer_per_composition(monkeypatch):
    # under equivariant operators a verdict takes the first preorder, or
    # the first whole row, of each composition: 2 of 3 at one atom and 8
    # of 75 at two; under any other operator it walks every outer
    cases = [
        (n_atoms, rev, con, POSTULATE_IDS if isinstance(rev, Revision) else SINGLE_OUTER)
        for n_atoms in (1, 2)
        for rev, con in (*product(Revision, Contraction), (_Reversed(), Contraction.NATURAL))
    ]
    expected = [_walked_verdicts(ids, rev, con, n) for n, rev, con, ids in cases]
    seen, counted = [], postulates._counted

    def logged(ctx, spec, outers):
        outers = list(outers)
        seen.append(len(outers))
        return counted(ctx, spec, outers)

    monkeypatch.setattr(postulates, "_counted", logged)
    for (n_atoms, rev, con, ids), verdicts in zip(cases, expected):
        seen.clear()
        assert postulates._holding(ids, rev, con, n_atoms) == verdicts, (n_atoms, rev, con)
        walked = count_tpos(n_atoms) if isinstance(rev, _Reversed) else {1: 2, 2: 8}[n_atoms]
        assert seen == [walked] * len(ids)
    assert not all(all(verdicts.values()) for verdicts in expected)


def test_diagram_reports_equal_the_full_scan(monkeypatch):
    diagrams = [*DIAGRAM_IDS, {1: 1, 0: 0, -1: 0}, {1: 1, 0: 1, -1: 1}]
    orbit = [check_diagram(d, 2) for d in diagrams]
    assert [r.violations for r in orbit[:6]] == [0, 0, 0, 288, 192, 96]
    _full_scan(monkeypatch)
    assert orbit == [check_diagram(d, 2) for d in diagrams]


EQUIVARIANT = (
    *Revision,
    *(_NliComposition(con, rev) for con in Contraction for rev in Revision),
)


@pytest.mark.parametrize("op", EQUIVARIANT, ids=method_name)
@pytest.mark.parametrize("postulate", ["IIAP", "Neut"])
def test_row_reports_equal_the_full_scan(postulate, op, monkeypatch):
    # every job takes whole rows, whatever the worker count, the split
    # forced before the first row; a failing scan (IIAP under stq-lex
    # then natural or restrained) reads its later rows of each
    # composition back with their violations
    monkeypatch.setattr(postulates, "_run_jobs", _in_process_jobs)
    rows = []
    for w in (1, 2, 3, 16):
        monkeypatch.setattr(postulates, "perf_counter", _split_before(0))
        rows.append(check_postulate(postulate, op, n_atoms=2, workers=w))
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
    "iLIRC": set(product(Revision, Contraction))
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
            for con in Contraction if spec.needs_con else (None,):
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
        (3, lambda: _one_per_composition(3), Revision),
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


# ---------------------------------------------------------------------------
# Packed pair rules: under the built-ins, each with a packed form, a pair
# rule takes every input of a prior at once, lane q of one int holding
# input q's pair matrices; the per-input route is its oracle

PACKED = (*Revision, *Contraction)


def _lanes_of(packed, n_atoms) -> list:
    """The lanes of a packed int, one per mask 0 .. full."""
    size = (1 << n_atoms) ** 2
    return [packed >> q * size & (1 << size) - 1 for q in range(all_worlds(n_atoms) + 1)]


def _assert_lanes_match_the_closed_form(priors, n_atoms, kernel=False) -> int:
    """Check each lane of each packed order of each prior against the
    memo's closed form (``_posterior_relations``), and, if ``kernel``,
    against the matrices of the posteriors that ``operators._posteriors``
    builds; how many lanes were checked."""
    checked = 0
    for operator in PACKED:
        contracting = type(operator) is Contraction
        function = contract if contracting else revise
        ctx = _Ctx(n_atoms, None if contracting else operator, operator if contracting else None)
        names = ("con", "conneg") if contracting else ("rev", "revneg")
        for t in priors:
            own = postulates._relations(t)
            packed = postulates._packed_relations(ctx, t, names)
            lanes = {
                name: list(zip(*(_lanes_of(m, n_atoms) for m in matrices)))
                for name, matrices in packed.items()
            }
            assert set(lanes["prior"]) == {own}
            if contracting:  # by the tautology or by nothing: the prior's own matrices
                assert lanes["con"][-1] == lanes["conneg"][-1] == own
                assert lanes["con"][0] == lanes["conneg"][0] == own
            for name in names:
                ps = ctx.props_proper if name == "revneg" else ctx.props
                expected = ctx.matrices(name, t, ps)
                assert [lanes[name][q] for q in ps] == expected, (t, operator, name)
                checked += len(ps)
                if kernel:
                    qs = [ctx.full - p for p in ps] if name.endswith("neg") else ps
                    built = [_posteriors(function, t, (q,), operator)[0] if q else t for q in qs]
                    assert [lanes[name][q] for q in ps] == list(map(postulates._relations, built))
    return checked


def test_packed_orders_match_the_closed_form_on_every_prior_up_to_two_atoms():
    checked = sum(
        _assert_lanes_match_the_closed_form(list(enumerate_tpos(n)), n, kernel=True)
        for n in (1, 2)
    )
    assert checked == 3 * (3 * 5 + 3 * 6) + 75 * (3 * 29 + 3 * 30)


def test_packed_orders_match_the_closed_form_on_each_three_atom_composition():
    checked = _assert_lanes_match_the_closed_form(list(one_per_three_atom_composition()), 3)
    assert checked == 128 * (3 * (255 + 254) + 3 * (255 + 255))


def test_a_packed_region_holds_the_region_on_the_inputs_read():
    for n_atoms in (1, 2, 3):
        full = all_worlds(n_atoms)
        for region in postulates._REGIONS:
            masks = postulates._region_masks(region, n_atoms)
            for proper in (False, True):
                lanes = _lanes_of(postulates._packed_region(region, proper, n_atoms), n_atoms)
                inputs = range(1, full) if proper else range(1, full + 1)
                assert lanes == [masks[q] if q in inputs else 0 for q in range(full + 1)]


# rules that fail on almost every input, each read on every input it
# takes: the revision, a contraction by the complement, and a revision by
# the complement (no tautology) against a contraction
SYNTHETIC_RULES = (
    (("prior",), "rev", "all", "same"),
    (("prior",), "conneg", "all", "same"),
    (("revneg",), "con", "all", "weak"),
)


@pytest.mark.parametrize("row", SYNTHETIC_RULES, ids=lambda row: "-".join(row[0] + row[1:]))
def test_a_packed_rule_yields_the_per_input_witnesses(row, monkeypatch):
    rule = postulates._pair_rule(*row)
    cases = [
        (n_atoms, rev, con, t)
        for n_atoms in (1, 2)
        for rev in (Revision if rule.needs_rev else (None,))
        for con in (Contraction if rule.needs_con else (None,))
        for t in enumerate_tpos(n_atoms)
    ]

    def run():
        out = []
        for n_atoms, rev, con, t in cases:
            ctx = _Ctx(n_atoms, rev, con)
            out.append((list(rule.gen(ctx, t)), rule.count(ctx, t)))
        return out

    assert all(rule.packed(_Ctx(n, rev, con)) for n, rev, con, _ in cases)
    packed = run()
    monkeypatch.setattr(postulates, "_closed", lambda operator: False)
    assert not rule.packed(_Ctx(2, *cases[0][1:3]))
    assert packed == run()
    assert all(len(raws) == found for raws, found in packed)
    assert sum(found for _, found in packed) > len(cases)
