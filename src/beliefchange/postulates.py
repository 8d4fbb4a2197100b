"""Executable postulates and claim verification by exhaustive enumeration.

Every postulate is compiled to a scan over concrete instances: total
preorders (or pairs of them), consistent input propositions, and world
pairs.  A check either passes with zero violations or fails with
replayable witnesses, reported deterministically: identical runs and any
worker count produce byte-identical reports.

The fourteen pair-relation postulates (DP1-4, CC1-4, CR1-4, SPU, WPU)
are rows of one table, ``_PAIR_RULES``: premise orders, a conclusion
order, a region of world pairs relative to the input, and the relation
the conclusion must keep.  The seeded random revisions of claim P1
(``make_random_dp_operator``) pick each posterior among those that
Success and DP1-DP4 allow, built directly as merges of the prior's
cells inside the input with its cells outside it
(``_dp_posterior_candidates``).  NLI and iLIRC share one generator;
they differ only in the final revision of the contraction route.

The pair rules and IIAP work on bit matrices: a preorder's pair
relations are two ints of W^2 bits for W worlds, ``lt`` with bit W*x+y
set iff x ranks strictly below y and ``le`` iff at most as high, so an
input's violations are the set bits of a few ands and xors over a
region mask.  That per-input mask is IIAP's route (``_iiap_masks``,
read by ``_mask_scan``), and the pair rules' under any operator that is
no built-in: its set bits, read in ascending order, are the witnesses
in scan order, their number is the count, and any set bit is a failure.
Under the built-ins, each with a closed form in the prior and the
input, a pair rule lays the matrices of every input of a prior side by
side in one int, input q's in lane q of W^2 bits, and takes them all in
one pass of the same ands and xors, with broadword (SWAR) steps for an
input's minimal worlds or, under ``contract-stq-lex``, for its levels
(``_packed_relations``); the set bits of that one mask, in ascending
order, are its witnesses in the same order, and their number is its
count.  IIAI, Beta1/Beta2 and Neut read the same matrices, the
revisions' from the prior's row on every input (``ctx.rows``).  IIAI
and Beta1/Beta2, quadratic in the inputs, are counted per world pair by
a closed form over the inputs grouped by their outcome on the pair,
taken for every pair at once on bit-sliced counts (``_bit_counts``).
Their witnesses, like Neut's, are the set bits of pair masks, read in
ascending order.

Each postulate is a pair of callables on (context, outer): ``gen``
yields the outer's witnesses in order, and ``count`` says how many it
would yield, without them.  Every scan has a ``count``: the pair rules
and IIAP count the set bits of their masks, IIAI and
Beta1/Beta2 take their closed forms, NLI and iLIRC count the inputs
whose two routes give different pair matrices, Neut's count is its
generator's length, and Success, Red, HI/LI_beliefs and the diagram
scan count their witnesses input by input.  Every verdict reads the counts from one
helper, ``_counted``: ``_scan`` adds each to the tally and runs ``gen``
again only while the tally has room for witnesses, so the report keeps
the same witnesses in the same order, and a boolean verdict
(``_holding``) stops at the first outer with a nonzero count.

Orbits.  The built-in revisions and contractions and compositions of
them are defined from the order and the input alone, so they commute
with every permutation of the worlds (``_equivariant`` admits exactly
these); so does the relation a state diagram's table forces, whose scan
runs with no operator.  Under them a permutation maps an outer's
violations one to one onto those of the permuted outer.  Preorders with
the same composition (cell sizes, bottom first) are permutations of
each other, so a single-outer scan finds as many violations on each of
them.  There are 8 compositions for the 75 preorders of two atoms, and
128 for the 545,835 of three.  A pair scan (IIAP, Neut) takes its
outers in rows, one first preorder with its second ones; an exhaustive
row pairs it with every preorder, and the jobs split the first
preorders, so every such row is whole.  A permutation maps a whole row
onto the whole row of the permuted first preorder, so whole rows whose
first preorders share a composition find as many violations too.  So
one rule serves both: under those operators ``_counted`` takes the
count of a preorder, or of a whole row, once per composition (of the
row's first preorder) and reads it back for every later outer of it,
for ``_scan``, and a verdict (``_holding``) takes only the first
preorder, or the first whole row, of each composition.  Witnesses
still come from the generator run on the actual outer, so a report
keeps the same witnesses in the same order.  Drawn rows, and every outer under other
operators (a tabular or a random operator), are counted in full.  A
diagram scan takes the per-composition rule like a postulate scan.

The same holds one level down, for the inputs of one preorder: a
permutation that fixes each of its cells maps its violations on one
input onto those on the image.  An input's orbit under those
permutations is fixed by how many worlds it takes from each cell, so a
single-preorder scan whose count is a sum over single inputs
(``_by_input``: Success, HI/LI_beliefs, NLI, iLIRC, Red, the diagram
scan, and the 14 pair rules under a composed revision) counts each
orbit once, at the input taking the lowest worlds of each cell, times
the orbit's size (``_input_orbits``): prod(s_i + 1) - 1 inputs for
cells of sizes s_i, in place of 2^W - 1.  The pair rules under the
built-ins take every input in one packed pass, cheaper than the orbits'
per-input loop.  IIAI and
Beta1/Beta2, which count pairs of inputs, count the composition's first
preorder on every input, and
IIAP, which sums over single inputs of a pair of preorders, counts each
pair of its first row of a composition on every input.

The scan context, ``_Ctx``, keeps one memo (``ctx.orders``) of the
results of ``revise`` or ``contract`` of a prior by one input mask under
one operator: the orders themselves, their pair matrices or their first
cells.  It keeps them by (function, operator, kind), then prior, then
mask, and a read computes the masks it lacks in one batch
(``ctx.memo``).  Each memo picks its route when it is built: the
matrices and first cells under a built-in, which have a closed form in
the prior and the input, come from that form, with no posterior built
or hashed (``_posterior_relations``, ``_posterior_firsts``); under any
other operator both are those of the memo's orders, so each posterior
is built once; the orders themselves come from a batch of
``operators._posteriors``.  The scans name the orders they read, for
prior t and input p (``_NAMED``, read by
``ctx.order`` and, for their matrices, ``ctx.matrices``): ``rev`` and
``con`` apply the context's revision or contraction by p, ``revneg`` and
``conneg`` apply them by p's complement (``conneg`` is t itself on the
tautology), and ``prior`` is t.  A route under another operator reads
the same memo under that operator: NLI and iLIRC revise the contracted
preorder under the checked revision and under natural revision.  So
contracting by q and contracting by the negation of q's complement are
one entry, and a contracted preorder's revision is one entry whether a
scan reaches it as a prior or along a route.  The context also keeps
pair matrices by preorder, prior or posterior, each computed on its
first read (``ctx.relations``).  IIAP, IIAI and Beta1/Beta2 read
matrices, and so do the pair rules where they take the per-input
route, and NLI and iLIRC, but for the contracted preorders that their
routes revise, each read once for all
the inputs that contract to it, and the two revisions that each of
their witnesses shows.  Success and HI/LI_beliefs, the belief-level
forms of Success and of the Harper and Levi Identities, read only first
cells, the beliefs after each change; LI_beliefs reads a contracted
preorder itself only where its first cell misses the input, which no
built-in does.  Neut reads the preorders.  So under a built-in an
instance that a matrix read and an order read share is computed once
as an order and once as matrices.  The context keeps each prior's
outcome row on every input too: the input,
its minimal worlds and the revision's matrices (``ctx.rows``).  So a
postulate's ``count`` and ``gen`` share one computation of each order,
so do the postulates of one claim's verdicts, and an exhaustive pair
scan in one job revises each prior once.  Contexts given one ``shared``
dict share every memo, so ``pair_profile``'s nine operator pairs compute
each order and its matrices once between them: each revision serves
every contraction, and each contraction every revision.  Neut revises
only on the inputs that an isomorphism of its pair keeps.  Red, which
checks that revising twice gives one posterior, calls the operator
directly.

The scans yield raw witnesses (preorders, input masks, worlds and a
note).  Every check, state diagram and claim counts into one tally,
``_Tally``: instances and violations in full, and the first ten raw
witnesses in scan order.  One method, ``_Tally.report``, builds the
report: it renders those ten as text, in the calling process, and no
other.  A report's outcome follows from its violation count.

A state diagram is a scan too: ``_diagram_scan(table)`` sums over single
inputs like Success, and its body closes over the diagram's table, so
it runs on a context with no operators and no table is a revision.  A
witness of ``diagram <name>`` replays under the built-in table of that
name; one of ``diagram custom`` under the table passed to
``replay_witness`` as the revision.

Quantification conventions, fixed once for the whole module:

* input sentences range over nonempty model sets, the world masks
  ``propositions(n)`` in ascending order (sentences equivalent up to
  logical equivalence are checked once);
* postulates relating contraction by the negated input to revision by
  the input treat the tautology instance vacuously (retracting an
  inconsistent sentence changes nothing), so they quantify over all
  consistent inputs;
* postulates that *revise* by the negated input skip tautologies, since
  revision by an inconsistent sentence is undefined.

Exhaustive checks are supported for at most 2 atoms; sampled checks,
drawing preorders uniformly via ordered-partition unranking, for at
most 3.  A sampled check draws its preorder indices once.  A check
scans its outers, those preorders or the enumeration, in process on one
context and one tally.  At one worker that is the whole check, and it
reads no clock.  At more, it reads the clock between outers, and once
``_FORK_AFTER_S`` has passed it splits the outers left into one
contiguous part per worker, at most ``_CHUNKS`` (16) and at most one per
outer.  A part is a closure over the scan, the context and its outers:
the first runs in process and each other one, at most 15, in a forked
child, which pipes back only its result (``_run_jobs``).  A child
inherits the context, so it reuses the orders and the per-composition
counts that the prefix computed.  The tallies merge in scan order:
prefix, first part, then the children's.  Where ``os.fork`` does not
exist (Windows), or a fork fails, those parts run in process.
"""

from __future__ import annotations

import json
import os
import pickle
import random
from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import islice
from math import comb
from operator import mul
from time import perf_counter
from types import MappingProxyType

from .conditionals import flattest_satisfier, rational_closure_fast
from .exceptions import (
    MalformedDiagramError,
    MissingContractionError,
    ScopeError,
)
from .lang import _WORLDS, all_worlds, cn_extended_member, dnf_of_worlds, world_str
from .operators import (
    Contraction,
    Revision,
    RevisionMethod,
    TabularRevision,
    _check_masks,
    _posteriors,
    _stq_lex_levels,
    contract,
    contract_by_negation,
    method_name,
    nli_revise,
    revise,
)
from .tpo import (
    Tpo,
    _a_preserving_isos,
    _min_mask,
    conditional_set,
    count_tpos,
    enumerate_tpos,
    flatter_eq,
    format_tpo,
    min_worlds,
    parse_tpo,
    propositions,
    tpo_at_index,
)

WITNESS_CAP = 10
_CHUNKS = 16
# In-process time after which a check at more than one worker forks the
# rest of its outers.  On a 2-vCPU x86-64 host, a bare ``_run_jobs`` of
# two trivial jobs took 2.0-2.3 ms, and each small sampled IIAI,
# Beta1/Beta2, IIAP and Neut check at three atoms lost 2.5-15 ms at two
# workers.  A check that forks after 50 ms has spent over twenty times a
# fork's cost, and over three times the largest loss, in process.
_FORK_AFTER_S = 0.05
# Inputs per step of a single-input scan's generator (``_by_input``).  At
# three atoms a failing scan's first ten witnesses mostly lie within its
# first 20 inputs, so the generator seldom computes orders past them.
_GEN_CHUNK = 16
_P1_OPERATORS = 100  # seeded random DP revisions in claim P1

def default_atoms(n_atoms: int) -> tuple:
    return ("p", "q", "r", "s")[:n_atoms]


# ---------------------------------------------------------------------------
# Reports


class CheckScope(namedtuple("CheckScope", "n_atoms mode sample seed", defaults=(None, None))):
    __slots__ = ()


class Witness(namedtuple("Witness", "tpos inputs worlds note", defaults=("",))):
    __slots__ = ()


class CheckReport(
    namedtuple(
        "CheckReport",
        "check_id revision contraction scope instances violations witnesses detail",
        defaults=((), ""),
    )
):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"


def render_text(report: CheckReport) -> str:
    lines = [f"check: {report.check_id}"]
    if report.revision is not None:
        lines.append(f"revision: {report.revision}")
    if report.contraction is not None:
        lines.append(f"contraction: {report.contraction}")
    scope = f"scope: n={report.scope.n_atoms} {report.scope.mode}"
    if report.scope.mode == "sampled":
        scope += f" sample={report.scope.sample} seed={report.scope.seed}"
    lines.append(scope)
    lines.append(f"instances: {report.instances}")
    lines.append(f"violations: {report.violations}")
    lines.append(f"outcome: {report.outcome}")
    for i, w in enumerate(report.witnesses, start=1):
        lines.append(f"witness {i}:")
        for t in w.tpos:
            lines.append(f"  tpo: {t}")
        for s in w.inputs:
            lines.append(f"  input: {s}")
        if w.worlds:
            lines.append(f"  worlds: {' '.join(w.worlds)}")
        if w.note:
            lines.append(f"  note: {w.note}")
    if report.detail:
        lines.append("detail:")
        for line in report.detail.splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines) + "\n"


def render_machine(report: CheckReport) -> str:
    payload = report._asdict()
    payload["check"] = payload.pop("check_id")
    payload["scope"] = report.scope._asdict()
    payload["witnesses"] = [w._asdict() for w in report.witnesses]
    payload["outcome"] = report.outcome
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scan context


class _Matrices(dict):
    """Pair matrices by order (see ``_relations``), each computed on its
    first read."""

    def __missing__(self, t: Tpo) -> tuple:
        out = self[t] = _relations(t)
        return out


class _Orders(dict):
    """prior -> input mask -> a result of the prior by the mask, for one
    function, ``revise`` or ``contract``, and one operator: the order the
    function gives, its pair matrices (see ``_relations``) or its first
    cell, as the context's ``memo`` chose to compute them (``compute(t,
    own, qs)``, for prior t, its entry at the empty mask and the masks
    qs).  At the empty mask each prior's entry holds the prior itself
    (``own`` None), or its own matrices or first cell (``own(t)``), as
    contracting by an inconsistent sentence changes nothing."""

    __slots__ = ("operator", "own", "compute")

    def __init__(self, operator, own, compute):
        self.operator, self.own, self.compute = operator, own, compute

    def at(self, t: Tpo, qs) -> dict:
        """Prior t's results, computed for at least the masks qs, in one batch."""
        out = self.get(t)
        if out is None:
            out = self[t] = {0: t if self.own is None else self.own(t)}
        missing = [q for q in qs if q not in out]
        if missing:
            out.update(zip(missing, self.compute(t, out[0], missing)))
        return out


# The orders the scans name, for prior t and input p: whether they contract
# t under the context's contraction rather than revise it under its
# revision, and whether they are read at p's complement, where the
# tautology's is the empty mask (see ``_Orders``).  ``prior`` is t itself.
_NAMED = {
    "rev": (False, False),
    "revneg": (False, True),
    "con": (True, False),
    "conneg": (True, True),
}


class _Ctx:
    """One run's instance space and operators, plus its memos, kept until
    ``clear``.  ``orders`` holds every memo: for each function, ``revise``
    or ``contract``, and operator, the orders it has given so far and
    their pair matrices, each computed once (``memo``; see ``_Orders``).
    ``order`` and ``matrices`` read by name the memos under the context's
    own operators (see ``_NAMED``); a route under another operator reads
    ``memo`` directly.  ``relations`` maps every preorder read, prior or
    posterior, to its pair matrices, and ``rows`` keeps each prior's
    outcome row on every input.  Contexts given one ``shared`` dict keep
    ``orders`` and ``relations`` there, so they compute each order and its
    matrices once between them.  ``orbits`` keeps, per scan, the counts
    that ``_counted`` reads back by composition; it is this context's own
    and survives ``clear``, so a forked part of a check never recounts a
    composition that the check counted before the split."""

    def __init__(self, n_atoms: int, rev=None, con: Contraction | None = None, shared=None):
        self.n = n_atoms
        self.full = all_worlds(n_atoms)
        self.atoms = default_atoms(n_atoms)
        self.props = propositions(n_atoms)
        self.props_proper = range(1, self.full)
        self.worlds = tuple(range(1 << n_atoms))
        self.rev = rev
        self.con = con
        self._outcomes = {}  # prior: its outcome rows
        self.orbits = {}  # scan: {composition: count}
        shared = {} if shared is None else shared
        self.relations = shared.setdefault("matrices", _Matrices())
        self.orders = shared.setdefault("orders", {})  # see ``memo``

    def clear(self):
        self._outcomes.clear()
        self.relations.clear()
        for memo in self.orders.values():
            memo.clear()

    def memo(self, function, operator, matrices: bool = False, firsts: bool = False) -> _Orders:
        """The orders of ``function`` under ``operator``, their pair
        matrices if ``matrices``, or their first cells if ``firsts``.  A
        memo picks how it computes when it is built: the matrices and
        first cells under a built-in, each with a closed form, come from
        ``_posterior_relations`` and ``_posterior_firsts``, with no
        posterior built; under any other operator they are those of this
        context's orders, so each posterior is built once; the orders
        themselves come from one ``operators._posteriors`` batch.  The
        test for a built-in is ``_closed``, the packed route's too: a
        pair rule under built-ins reads none of these memos (see
        ``_pair_rule``).  Memos are kept by the operator's
        identity, so no lookup runs the Python-level ``Enum.__hash__``;
        each holds its operator, so no other object takes its id while
        it is kept."""
        key = function, id(operator), matrices, firsts
        out = self.orders.get(key)
        if out is not None:
            return out
        contracting = function is contract
        built_in = _closed(operator)
        own = self.relations.__getitem__ if matrices else (lambda t: t.masks[0]) if firsts else None
        if firsts and built_in:

            def compute(t, own, qs):
                return _posterior_firsts(contracting, t, qs)

        elif matrices and built_in:

            def compute(t, own, qs):
                return _posterior_relations(contracting, t, own, qs, operator)

        elif firsts or matrices:
            orders, read = self.memo(function, operator), own

            def compute(t, own, qs):
                found = orders.at(t, qs)
                return [read(found[q]) for q in qs]

        else:

            def compute(t, own, qs):
                return _posteriors(function, t, qs, operator)

        out = self.orders[key] = _Orders(operator, own, compute)
        return out

    def order(self, name: str, t: Tpo, ps, matrices: bool = False, firsts: bool = False) -> list:
        """The named order (see ``_NAMED``) of prior t by each input of
        ps, in their order, its pair matrices if ``matrices``, or its
        first cell if ``firsts``; the prior's own matrices in one lookup,
        not one per input, as each lookup hashes the preorder."""
        if name == "prior":
            return [self.relations[t] if matrices else t] * len(ps)
        contracting, complement = _NAMED[name]
        operator = self.con if contracting else self.rev
        memo = self.memo(contract if contracting else revise, operator, matrices, firsts)
        qs = [self.full - p for p in ps] if complement else ps
        found = memo.at(t, qs)
        return [found[q] for q in qs]

    def matrices(self, name: str, t: Tpo, ps) -> list:
        """The pair matrices of ``order``'s orders, in their order."""
        return self.order(name, t, ps, matrices=True)

    def firsts(self, name: str, t: Tpo, ps) -> list:
        """The first cells of ``order``'s orders, in their order: the
        beliefs after each change, all that Success and HI/LI_beliefs
        compare."""
        return self.order(name, t, ps, firsts=True)

    def rows(self, t: Tpo) -> list:
        """(input, its minimal worlds, the revision's pair matrices) for
        every input, in input order."""
        out = self._outcomes.get(t)
        if out is None:
            rev = self.matrices("rev", t, self.props)
            masks = t.masks  # ``props`` needs no ``min_worlds`` check
            out = self._outcomes[t] = [(p, _min_mask(masks, p), m) for p, m in zip(self.props, rev)]
        return out

    def witness(self, tpos, inputs, worlds, note="") -> Witness:
        """Render a raw witness: preorders, input masks and worlds
        as text.  A note given as a tuple of parts is joined, with its
        preorders rendered too."""
        if not isinstance(note, str):
            note = "".join(format_tpo(x) if isinstance(x, Tpo) else x for x in note)
        return Witness(
            tpos=tuple(format_tpo(t) for t in tpos),
            inputs=tuple(dnf_of_worlds(p, self.atoms) for p in inputs),
            worlds=tuple(world_str(w, self.n) for w in worlds),
            note=note,
        )


class _Tally:
    """One verdict, of a check, a diagram or a claim: outers, instances
    and violations counted in full, and the first ``cap`` raw witnesses
    in scan order, rendered by ``ctx.witness`` only when ``report`` builds
    the report."""

    def __init__(self, ctx: _Ctx, cap: int = WITNESS_CAP):
        self.ctx = ctx
        self.cap = cap
        self.outers = 0
        self.instances = 0
        self.violations = 0
        self.raws = []

    @property
    def room(self) -> int:
        return self.cap - len(self.raws)

    def keep(self, raws) -> int:
        """Keep raw witnesses while there is room; how many."""
        before = len(self.raws)
        self.raws.extend(islice(raws, self.room))
        return len(self.raws) - before

    def add(self, raws) -> int:
        """Count every raw witness, keep the first while there is room;
        how many."""
        raws = iter(raws)
        found = self.keep(raws) + sum(1 for _ in raws)
        self.violations += found
        return found

    def report(self, check_id, scope, revision=None, contraction=None, detail="") -> CheckReport:
        """The verdict's report, with the kept witnesses rendered."""
        return CheckReport(
            check_id=check_id,
            revision=None if revision is None else method_name(revision),
            contraction=None if contraction is None else method_name(contraction),
            scope=scope,
            instances=self.instances,
            violations=self.violations,
            witnesses=tuple(self.ctx.witness(*raw) for raw in self.raws),
            detail=detail,
        )


@lru_cache(maxsize=None)
def _spread(n_atoms: int) -> tuple:
    """For each world mask c, the int with bit W*x set for every world x
    of c (W worlds): times a world mask m, it sets row x of a pair matrix
    to m for every x in c."""
    width = 1 << n_atoms
    out = [0]
    for x in range(width):  # the masks with world x follow those without it
        out += [s | 1 << width * x for s in out]
    return tuple(out)


def _relations(t: Tpo) -> tuple:
    """A preorder's pair matrices (lt, le): bit W*x+y of ``lt`` is set iff
    x ranks strictly below y, of ``le`` iff x ranks at most as high.  The
    two bits of a pair sum to 2 if x is below y, 1 if they tie and 0 if x
    is above y."""
    return _cell_relations(t.masks, _spread(t.n_atoms), all_worlds(t.n_atoms))


def _cell_relations(cells, spread: tuple, rest: int) -> tuple:
    """The pair matrices of the cells, bottom first, of a preorder on the
    worlds of ``rest``; an empty cell adds nothing."""
    lt = le = 0
    for c in cells:
        row = spread[c]
        le |= row * rest
        rest &= ~c
        lt |= row * rest
    return lt, le


def _posterior_relations(contracting: bool, t: Tpo, own: tuple, qs, operator) -> list:
    """The pair matrices (see ``_relations``) of ``revise`` of prior t by
    each input mask q of qs under a built-in revision, or of ``contract``
    under a built-in contraction if ``contracting``, without building the
    posteriors; ``own`` is t's (lt, le), and a bad mask raises what
    ``revise`` or ``contract`` raises.  Write X*Y for the pairs (x, y)
    with x in X and y in Y (``_spread(n)[X] * Y``), ~q for the complement
    of q, and eq for the ties, ``le & ~lt``.  Each revision puts the
    minimal worlds m of q below the other worlds r:

    * natural keeps the prior's order on r: lt' = m*r | lt & r*r and
      le' = m*full | le & r*r;
    * restrained also breaks each tie in r in favour of q:
      lt' = m*r | r*r & (lt | eq & q*~q) and
      le' = m*full | r*r & (lt | eq & ~(~q*q));
    * lexicographic puts q below ~q and keeps the prior's order on each
      side: with same = q*q | ~q*~q, lt' = q*~q | lt & same and
      le' = q*~q | le & same.

    The natural and restrained contractions (see
    ``operators._posteriors``) join the minimal worlds of ~q to the
    prior's first cell, F, put F below the other worlds r and keep the
    prior's order on r: lt' = F*r | lt & r*r and le' = F*full | le & r*r.
    ``contract-stq-lex`` takes the matrices (``_cell_relations``) of the
    levels that the kernel builds its posterior from, one pass over the
    prior's cells (``operators._stq_lex_levels``).  Contracting by the
    tautology gives the prior's own matrices."""
    masks, spread = t.masks, _spread(t.n_atoms)
    full = _check_masks(qs, t.n_atoms)
    lt, le = own
    out = []
    if operator is Contraction.STQ_LEX:
        for q in qs:
            if q == full:
                out.append(own)
                continue
            out.append(_cell_relations(_stq_lex_levels(masks, q, full & ~q), spread, full))
        return out
    if operator is Revision.LEXICOGRAPHIC:
        for q in qs:
            rest = full & ~q
            below = spread[q] * rest
            same = spread[q] * q | spread[rest] * rest
            out.append((below | lt & same, below | le & same))
        return out
    if operator is Revision.RESTRAINED:
        eq = le & ~lt
        for q in qs:
            bottom, other = _min_mask(masks, q), full & ~q
            rest = full & ~bottom
            first, kept = spread[bottom], spread[rest] * rest
            strict, weak = lt | eq & spread[q] * other, lt | eq & ~(spread[other] * q)
            out.append((first * rest | strict & kept, first * full | weak & kept))
        return out
    built = {}  # bottom: the matrices, which depend on it alone
    for q in qs:
        if contracting and q == full:
            out.append(own)
            continue
        bottom = masks[0] | _min_mask(masks, full & ~q) if contracting else _min_mask(masks, q)
        found = built.get(bottom)
        if found is None:
            rest = full & ~bottom
            first, kept = spread[bottom], spread[rest] * rest
            found = built[bottom] = (first * rest | lt & kept, first * full | le & kept)
        out.append(found)
    return out


def _posterior_firsts(contracting: bool, t: Tpo, qs) -> list:
    """The first cells of ``revise`` of prior t by each input mask q of qs
    under every built-in revision, or of ``contract`` under every built-in
    contraction if ``contracting``, without building the posteriors; a
    bad mask raises what ``revise`` or ``contract`` raises.  Each
    revision puts the minimal worlds of q first.  Each contraction's
    beliefs are the prior's and those of its revision by ~q (the Harper
    Identity): its first cell F | m for the prior's first cell F and the
    minimal worlds m of ~q, and F itself on the tautology."""
    masks = t.masks
    full = _check_masks(qs, t.n_atoms)
    if not contracting:
        return [_min_mask(masks, q) for q in qs]
    first = masks[0]
    return [first | _min_mask(masks, full & ~q) if q != full else first for q in qs]


def _bit_pairs(mask: int, width: int):
    """The world pairs (x, y) of a pair matrix's set bits, bit W*x+y, in
    ascending order."""
    while mask:
        yield divmod((mask & -mask).bit_length() - 1, width)
        mask &= mask - 1


# ---------------------------------------------------------------------------
# Postulate scans: generators of raw witnesses (preorders, input masks,
# worlds, note), in a deterministic order


def _g_success(ctx, t, ps):
    for p, first in zip(ps, ctx.firsts("rev", t, ps)):
        stray = first & ~p
        if stray:
            lowest = (stray & -stray).bit_length() - 1
            yield (t,), (p,), (lowest,), "minimal world outside input"


# The fourteen pair-relation postulates share one shape: for the world
# pairs in a region of the input p, the conclusion order keeps the
# relation that the premise orders give the pair.  The orders are the
# scan context's named orders of prior t (see ``_NAMED``): ``prior`` is
# t, ``rev``/``con`` revise/contract t by p under the context's
# operators, and ``revneg``/``conneg`` revise/contract it by the
# complement of p.
# Relations: ``same`` keeps the pair's relation code, whatever it is;
# ``strict`` ("x below y") and ``weak`` ("x at most y") are kept whenever
# every premise order holds them.

# region: (ordered pairs?, x in p, y in p), None leaving a side free.
# The same-side regions take pairs x < y; the others take ordered pairs.
_REGIONS = {
    "in": (False, True, True),
    "out": (False, False, False),
    "in-out": (True, True, False),
    "out-in": (True, False, True),
    "all": (True, None, None),
}


@lru_cache(maxsize=None)
def _region_masks(name: str, n_atoms: int) -> tuple:
    """The world pairs of one region as pair-matrix masks, indexed by
    input: the rows of the worlds x may take, each holding the worlds y
    may take (see ``_spread``), cut to the region's pairs."""
    ordered, x_in, y_in = _REGIONS[name]
    width, full, spread = 1 << n_atoms, all_worlds(n_atoms), _spread(n_atoms)
    pairs = sum(
        1 << width * x + y
        for x in range(width)
        for y in range(width)
        if (x != y if ordered else x < y)
    )

    def side(inside, p):
        """The worlds of a free side, or of one inside or outside p."""
        return full if inside is None else p if inside else full & ~p

    return tuple(spread[side(x_in, p)] * side(y_in, p) & pairs for p in range(full + 1))


# The relations on pair matrices (lt, le): the pairs whose relation under
# a is not kept by b.
_BROKEN = {
    "same": lambda a, b: (a[0] ^ b[0]) | (a[1] ^ b[1]),
    "strict": lambda a, b: a[0] & ~b[0],
    "weak": lambda a, b: a[1] & ~b[1],
}

_PAIR_RULES = {
    # id: (premise orders, conclusion order, region, relation)
    "DP1": (("prior",), "rev", "in", "same"),
    "DP2": (("prior",), "rev", "out", "same"),
    "DP3": (("prior",), "rev", "in-out", "strict"),
    "DP4": (("prior",), "rev", "in-out", "weak"),
    "CC1": (("prior",), "con", "out", "same"),
    "CC2": (("prior",), "con", "in", "same"),
    "CC3": (("prior",), "con", "out-in", "strict"),
    "CC4": (("prior",), "con", "out-in", "weak"),
    "CR1": (("conneg",), "rev", "in", "same"),
    "CR2": (("conneg",), "rev", "out", "same"),
    "CR3": (("conneg",), "rev", "in-out", "strict"),
    "CR4": (("conneg",), "rev", "in-out", "weak"),
    "SPU": (("prior", "revneg"), "con", "all", "strict"),
    "WPU": (("prior", "revneg"), "con", "all", "weak"),
}


def _dp_merges(t: Tpo, p: int):
    """Every posterior, as cell masks, that Success and DP1-DP4 allow in
    revising prior t by input mask p.  DP1 and DP2 keep the order of t's
    cells cut to p and of those cut to its complement, so a posterior
    merges these two chains, each cell keeping its rank in t, one level
    at a time: the next inside cell alone, always allowed and the only
    choice for the first level (Success); the next outside cell alone,
    if no inside cell is left or the next one ranks strictly above it
    (DP3, DP4); or the two tied, if the inside cell ranks at least as
    high (DP3)."""

    def merges(ins, outs, head):
        if not ins and not outs:
            yield head
            return
        if ins:
            yield from merges(ins[1:], outs, head + (ins[0][1],))
        if head and outs:
            if not ins or ins[0][0] > outs[0][0]:
                yield from merges(ins, outs[1:], head + (outs[0][1],))
            if ins and ins[0][0] >= outs[0][0]:
                yield from merges(ins[1:], outs[1:], head + (ins[0][1] | outs[0][1],))

    chains = ([(rank, c & side) for rank, c in enumerate(t.masks) if c & side] for side in (p, ~p))
    return merges(*chains, ())


@lru_cache(maxsize=4)
def _dp_posterior_candidates(n_atoms: int) -> dict:
    """For each (prior, input), in enumeration and input order, every
    preorder that may revise it under Success and DP1-DP4: its merges
    (``_dp_merges``), as the enumeration's own preorders in its order."""
    pool = _enumeration(n_atoms)
    index = {t.masks: i for i, t in enumerate(pool)}
    return {
        (prior.masks, p): tuple(pool[i] for i in sorted(index[m] for m in _dp_merges(prior, p)))
        for prior in pool
        for p in propositions(n_atoms)
    }


def make_random_dp_operator(seed: int, n_atoms: int) -> TabularRevision:
    """Seeded uniform choice of a posterior per (prior, input).

    Every entry independently picks one of the posteriors satisfying
    success and the iterated-revision postulates relative to its prior,
    so the operator passes those checks by construction while being free
    to break any cross-prior or cross-input coherence.
    """
    _validate_atoms(n_atoms)
    _scope_int(seed, "seed")
    if n_atoms > 2:
        raise ScopeError(
            "random tabular operators support at most 2 atoms: their table holds "
            "one entry per (prior, input), 139,187,925 at 3 atoms"
        )
    rng = random.Random(seed)
    table = {}
    # Insertion order of the candidate map is the enumeration order of
    # (prior, input) pairs, so the draws line up identically per seed.
    for key, allowed in _dp_posterior_candidates(n_atoms).items():
        table[key] = allowed[rng.randrange(len(allowed))]
    return TabularRevision(n_atoms, table, seed=seed)


def _iiap_masks(ctx, pair, ps):
    """IIAP violations: per input of ps, the pairs x < y outside both
    minima that the priors order alike and the posteriors do not.  The
    rows are in input order, so input p is entry p - 1."""
    t1, t2 = pair
    same = _BROKEN["same"]
    alike = ~same(ctx.relations[t1], ctx.relations[t2])
    within = _region_masks("in", ctx.n)
    rows1, rows2 = ctx.rows(t1), ctx.rows(t2)
    for p in ps:
        (_, min1, rev1), (_, min2, rev2) = rows1[p - 1], rows2[p - 1]
        yield within[ctx.full & ~(min1 | min2)] & alike & same(rev1, rev2)


def _g_iiai(ctx, t):
    """For inputs p < q, the pairs x < y outside both minima that the
    inputs order alike and their revisions do not.  Two inputs order a
    pair alike iff they agree on both worlds, or differ on both and put
    them on one side."""
    rows = ctx.rows(t)
    within = _region_masks("in", ctx.n)
    same = _BROKEN["same"]
    full, width = ctx.full, len(ctx.worlds)
    for i, (p, min_p, rev_p) in enumerate(rows):
        for q, min_q, rev_q in rows[i + 1 :]:
            free, differ = full & ~(min_p | min_q), p ^ q
            alike = within[free & ~differ] | within[free & differ & p] | within[free & differ & q]
            for xy in _bit_pairs(alike & same(rev_p, rev_q), width):
                yield (t,), (p, q), xy, ""


def _g_beta(i):
    """Beta1 (``i`` 0: the revisions' ``lt``) and Beta2 (``i`` 1: ``le``):
    for each input a, the ordered pairs (x, y) with x in a and y out whose
    bit a's revision lacks, each with every input c that leaves x out of
    its minima and whose revision has it."""

    def gen(ctx, t):
        rows = ctx.rows(t)
        in_out = _region_masks("in-out", ctx.n)
        width = len(ctx.worlds)
        for a, _, rev_a in rows:
            for x, y in _bit_pairs(in_out[a] & ~rev_a[i], width):
                bit = width * x + y
                for c, minimal, rev_c in rows:
                    if not minimal >> x & 1 and rev_c[i] >> bit & 1:
                        yield (t,), (a, c), (x, y), ""

    return gen


# ---------------------------------------------------------------------------
# Violation counts grouped by world pair (same totals as the generators)


def _bit_counts(masks) -> list:
    """How many of the masks set each bit, bit-sliced: bit b of entry j
    is bit j of the number of masks with bit b set."""
    planes = []
    for m in masks:
        for j, plane in enumerate(planes):
            planes[j], m = plane ^ m, plane & m
            if not m:
                break
        else:
            planes.append(m)
    return planes


def _bit_dot(a: list, b: list) -> int:
    """The sum over bits of the products of two bit-sliced counts."""
    return sum((x & y).bit_count() << j + k for j, x in enumerate(a) for k, y in enumerate(b))


def _c_iiai(ctx, t):
    """IIAI violations: per world pair x < y and group of inputs that
    order it alike, the input pairs of the group that leave both worlds
    out of their minima and whose revisions order it differently.  The
    groups put x and y on one side, x in and y out, or x out and y in;
    an input's pairs sit in the first, second or third W^2 bits by its
    group, so one bit-sliced count per relation of the revisions (below,
    tied, above) counts every pair of every group at once."""
    within, in_out = _region_masks("in", ctx.n), _region_masks("in-out", ctx.n)
    full, size = ctx.full, len(ctx.worlds) ** 2
    copies = 1 | 1 << size | 1 << 2 * size
    below, tied, above = [], [], []
    for p, minimal, (lt, le) in ctx.rows(t):
        free = full & ~minimal
        pairs = within[free]
        grouped = within[free & p] | within[free & ~p] | (pairs & in_out[p]) << size
        grouped |= (pairs & in_out[full & ~p]) << 2 * size
        below.append(grouped & lt * copies)
        tied.append(grouped & (le & ~lt) * copies)
        above.append(grouped & ~(le * copies))
    below, tied, above = (_bit_counts(m) for m in (below, tied, above))
    return _bit_dot(below, tied) + _bit_dot(below, above) + _bit_dot(tied, above)


def _c_beta(i):
    """Beta1/Beta2 violations: per ordered pair (x, y), the inputs a whose
    violation pairs (see ``_g_beta``) hold it, times the inputs c that
    leave x out of their minima and whose revision's matrix ``i`` holds
    it."""

    def count(ctx, t):
        rows = ctx.rows(t)
        in_out, spread, full = _region_masks("in-out", ctx.n), _spread(ctx.n), ctx.full
        before = _bit_counts(in_out[a] & ~rev[i] for a, _, rev in rows)
        # spread[m] * full: the pairs (x, y) with x in m
        after = _bit_counts(spread[full & ~minimal] * full & rev[i] for _, minimal, rev in rows)
        return _bit_dot(before, after)

    return count


def _g_neut(ctx, pair):
    """For each input and each isomorphism of the priors that keeps it,
    the pairs x < y that the first prior's revision orders unlike the
    second's pulled back along the isomorphism: none if the isomorphism
    maps each cell of the first revision onto that of the second."""
    t1, t2 = pair
    if _composition(t1) != _composition(t2):
        return
    upper = _region_masks("in", ctx.n)[ctx.full]
    width = len(ctx.worlds)
    isos = {p: _a_preserving_isos(t1.masks, t2.masks, p, width) for p in ctx.props}
    ps = [p for p in ctx.props if isos[p]]
    for p, rev1, rev2 in zip(ps, ctx.order("rev", t1, ps), ctx.order("rev", t2, ps)):
        for perm in isos[p]:
            if tuple(sum(1 << perm[x] for x in _WORLDS[c]) for c in rev1.masks) == rev2.masks:
                continue
            inverse = sorted(ctx.worlds, key=perm.__getitem__)
            pulled = Tpo(tuple(sum(1 << inverse[w] for w in _WORLDS[c]) for c in rev2.masks), ctx.n)
            bad = upper & _BROKEN["same"](ctx.relations[rev1], ctx.relations[pulled])
            mapping = ",".join(
                f"{world_str(w, ctx.n)}->{world_str(perm[w], ctx.n)}" for w in ctx.worlds
            )
            for xy in _bit_pairs(bad, width):
                yield (t1, t2), (p,), xy, f"isomorphism {mapping}"


def _g_red(ctx, t, ps):
    """Determinism check for custom operators: revising the same prior by
    the same input twice must give the same posterior.  The built-ins and
    tabular operators are pure, so it fails only for an operator object
    whose ``posterior`` depends on hidden state."""
    for p in ps:
        first = revise(t, p, ctx.rev)
        second = revise(t, p, ctx.rev)
        if first != second:
            yield (t,), (p,), (), "revision not a function of (tpo, input)"


def _g_hi_beliefs(ctx, t, ps):
    beliefs = t.masks[0]
    for p, con, revneg in zip(ps, ctx.firsts("con", t, ps), ctx.firsts("revneg", t, ps)):
        if con != beliefs | revneg:
            yield (t,), (p,), (), "contraction beliefs differ from union of minima"


def _g_li_beliefs(ctx, t, ps):
    """The minimal p-worlds of the contraction by ~p are those of its
    first cell, if it has any: always under the built-ins; else they are
    read from the contracted preorder itself."""
    for p, rev, conneg in zip(ps, ctx.firsts("rev", t, ps), ctx.firsts("conneg", t, ps)):
        minimal = conneg & p or min_worlds(ctx.order("conneg", t, (p,))[0], p)
        if rev != minimal:
            yield (t,), (p,), (), "revision beliefs differ from post-contraction minima"


def _routed_rule(final: Revision | None, route: str):
    """NLI (``final`` None: the checked revision) and iLIRC (natural
    revision): revising directly equals contracting by the negated input,
    then revising by ``final``.  The routed revision is read from the
    context's memo under ``final``: one entry with the contracted
    preorder's revision as a prior, with every prior that contracts to
    that preorder, and with the direct revision on the tautology, whose
    contraction by the negation is the prior itself.  Both routes compare
    the two revisions' pair matrices, as equal matrices mean equal
    preorders: ``counts`` counts the inputs whose ``same`` mask is
    nonzero, and ``body`` builds the two orders, which its witnesses
    show, only for those inputs.  The mask is symmetric, so its lowest
    set bit is the first pair x < y that the orders relate differently."""

    def differing(ctx, t, ps):
        """Per input of ps, the ``same`` mask of its direct and routed
        revisions' pair matrices, and its contracted preorder.  The
        routed memo is read once per contracted preorder, on all the
        inputs that contract to it."""
        routes = ctx.memo(revise, final or ctx.rev, True)
        direct = ctx.matrices("rev", t, ps)
        contracted = ctx.order("conneg", t, ps)
        groups = {}
        for p, c in zip(ps, contracted):
            groups.setdefault(c, []).append(p)
        routed = {}
        for c, group in groups.items():
            found = routes.at(c, group)
            routed.update((p, found[p]) for p in group)
        for p, d, c in zip(ps, direct, contracted):
            yield _BROKEN["same"](d, routed[p]), c

    def body(ctx, t, ps):
        for p, (same, contracted) in zip(ps, differing(ctx, t, ps)):
            if same:
                direct = ctx.order("rev", t, (p,))[0]
                routed = ctx.memo(revise, final or ctx.rev).at(contracted, (p,))[p]
                pair = next(_bit_pairs(same, len(ctx.worlds)))
                yield (t,), (p,), pair, ("direct ", direct, f"; {route} ", routed)

    def counts(ctx, t, ps):
        return (bool(same) for same, _ in differing(ctx, t, ps))

    return _by_input(body, counts=counts, needs_con=True)


class _PostulateDef(
    namedtuple(
        "_PostulateDef",
        "gen count pair_outer needs_con needs_rev inputs_per_outer counts inputs packed",
        defaults=(False, False, True, lambda ctx: len(ctx.props), None, "props", None),
    )
):
    """One postulate, or the diagram scan: ``gen(ctx, outer)`` yields the
    outer's witnesses in order, and ``count(ctx, outer)`` returns how many
    it would yield, without them.  Both read their orders from the
    context's memo, so they share one computation of each.  A scan that
    sums over single inputs (see ``_by_input``) also has ``counts(ctx,
    outer, ps)``, each input's count on the inputs ps.  A pair rule has
    ``packed(ctx)``: whether, under the context's operators, ``count``
    takes every input at once (see ``_pair_rule``).  The scan is held
    by a check job's closure (see ``_run_jobs``), so it never crosses a
    pipe."""

    __slots__ = ()


def _by_input(body, inputs: str = "props", counts=None, **kw) -> _PostulateDef:
    """A scan that sums over single inputs: ``body(ctx, outer, ps)``
    yields the outer's raw witnesses on the inputs ps, in order, and
    ``counts(ctx, outer, ps)`` each input's number of them (by default
    counted from ``body``).  The scan runs both on the context's
    ``inputs`` (``props`` or ``props_proper``); ``_counted`` may run
    ``counts`` on fewer (see ``_orbit_count``).  Its generator runs
    ``body`` on ``_GEN_CHUNK`` inputs at a time, so a report that keeps
    its first witnesses computes the orders of the inputs it reaches."""
    if counts is None:

        def counts(ctx, outer, ps):
            found = Counter(raw[1][0] for raw in body(ctx, outer, ps))
            return (found[p] for p in ps)

    def gen(ctx, outer):
        ps = getattr(ctx, inputs)
        for start in range(0, len(ps), _GEN_CHUNK):
            yield from body(ctx, outer, ps[start : start + _GEN_CHUNK])

    return _PostulateDef(
        gen,
        count=lambda ctx, outer: sum(counts(ctx, outer, getattr(ctx, inputs))),
        inputs_per_outer=lambda ctx: len(getattr(ctx, inputs)),
        counts=counts,
        inputs=inputs,
        **kw,
    )


def _mask_scan(masks, inputs: str = "props", pair_outer: bool = False, **kw) -> _PostulateDef:
    """A ``_by_input`` scan whose violations are, per input, the set bits
    of a pair mask: ``masks(ctx, outer, ps)`` yields one per input of ps.
    Its witnesses are those bits in ascending order, bit W*x+y naming the
    pair (x, y), and its count is their number."""

    def body(ctx, outer, ps):
        tpos = outer if pair_outer else (outer,)
        for p, bad in zip(ps, masks(ctx, outer, ps)):
            for xy in _bit_pairs(bad, len(ctx.worlds)):
                yield tpos, (p,), xy, ""

    def counts(ctx, outer, ps):
        return map(int.bit_count, masks(ctx, outer, ps))

    return _by_input(body, inputs, counts, pair_outer=pair_outer, **kw)


def _packed(values, size: int) -> int:
    """One int holding values[q] in lane q, its bits [q*size, (q+1)*size)."""
    return int("".join(format(v, f"0{size}b") for v in reversed(values)), 2)


class _Lanes:
    """The packed route's layout at n atoms, W = 2^n worlds: lane q, for
    q = 0 .. full, holds a pair matrix (see ``_relations``) in its W^2
    bits.  In one lane ``row`` sets bit 0 of each row; in every lane
    ``rep`` sets bit 0, ``diag`` the pairs (x, x), ``low`` row 0,
    ``ones`` every bit, and ``lo`` and ``hi`` the other bits and the top
    bit of each row.  ``sides`` holds two triples, (q in row 0, the rows
    x in q, the columns y in q) in lane q, and the same for q's
    complement.  Built once per atom count (``_lanes``)."""

    def __init__(self, n_atoms: int):
        width = self.width = 1 << n_atoms
        size = self.size = width * width
        lanes = 1 << width
        rep = self.rep = _packed([1] * lanes, size)
        row = self.row = _spread(n_atoms)[lanes - 1]
        self.lo, self.hi = row * rep * ((1 << width - 1) - 1), row * rep << width - 1
        self.diag = sum(1 << (width + 1) * x for x in range(width)) * rep
        low, ones = self.low, self.ones = (lanes - 1) * rep, ((1 << size) - 1) * rep
        qlow = _packed(range(lanes), size)
        qcol = qlow * row
        qrow = self.rowfill(qcol & self.diag)
        self.sides = (qlow, qrow, qcol), (qlow ^ low, ones ^ qrow, ones ^ qcol)

    def nonzero(self, v: int) -> int:
        """Bit 0 of each nonzero row of every lane of v: a row's top bit
        is set, or its other bits carry into it."""
        return (((v & self.lo) + self.lo | v) & self.hi) >> self.width - 1

    def rowfill(self, v: int) -> int:
        """v with each nonzero row of every lane made all ones."""
        return self.nonzero(v) * ((1 << self.width) - 1)

    def fold(self, v: int) -> int:
        """v with each lane's rows ORed into its row 0, to be read there
        alone; its other rows keep partial ORs.  A bit shifted across a
        lane moves down by less than a lane, so it reaches no row 0."""
        s = self.size >> 1
        while s >= self.width:
            v |= v >> s
            s >>= 1
        return v


_lanes = lru_cache(maxsize=None)(_Lanes)


def _closed(operator) -> bool:
    """Whether the operator is a built-in, every one of which has a closed
    form: its orders' pair matrices and first cells follow from the prior
    and the input (``_posterior_relations``, ``_posterior_firsts``), for
    all inputs of a prior at once in the packed route
    (``_packed_relations``)."""
    return type(operator) in (Revision, Contraction)


def _packed_relations(ctx: _Ctx, t: Tpo, names) -> dict:
    """Prior t's matrices, as ``prior``, and the named orders of names
    (see ``_NAMED``) under the context's operators, each ``_closed``, by
    every input at once: name -> (lt, le)
    with lane q holding the pair matrices that ``_posterior_relations``
    gives for input q.  Write I for the input (the first triple of
    ``_Lanes.sides``, or the second for an order read at the complement)
    and O for its complement; the formulas are
    ``_posterior_relations``' own, with X*Y
    the and of X's rows and Y's columns.  The bottom that a natural or
    restrained revision puts first is I's minimal worlds, those of I
    with no world of I strictly below them; a natural or restrained
    contraction's is the prior's first cell and O's minimal worlds, so
    on the tautology's lane it gives the prior's own matrices.
    ``contract-stq-lex`` compares the levels of one pass over the
    prior's cells (``_packed_levels``), which on the lanes of the
    tautology and of the empty mask are the prior's own cells."""
    lanes = _lanes(ctx.n)
    lt, le = ctx.relations[t]
    lt, le = lt * lanes.rep, le * lanes.rep
    out = {"prior": (lt, le)}
    for name in names:
        contracting, complement = _NAMED[name]
        (ilow, irow, icol), (olow, orow, ocol) = lanes.sides[::-1] if complement else lanes.sides
        operator = ctx.con if contracting else ctx.rev
        if operator is Contraction.STQ_LEX:
            out[name] = _packed_levels(lanes, t, irow, icol, ocol)
            continue
        if operator is Revision.LEXICOGRAPHIC:
            below, same = irow & ocol, irow & icol | orow & ocol
            out[name] = below | lt & same, below | le & same
            continue
        if contracting:
            bottom = t.masks[0] * lanes.rep | olow & ~lanes.fold(lt & orow)
        else:
            bottom = ilow & ~lanes.fold(lt & irow)
        bcol = bottom * lanes.row
        brow = lanes.rowfill(bcol & lanes.diag)
        kept = lanes.ones & ~(brow | bcol)
        strict, weak = lt, le
        if operator is Revision.RESTRAINED:
            eq = le & ~lt
            strict, weak = lt | eq & irow & ocol, lt | eq & ~(orow & icol)
        out[name] = brow & ~bcol | strict & kept, brow | weak & kept
    return out


def _packed_levels(lanes: _Lanes, t: Tpo, irow: int, icol: int, ocol: int) -> tuple:
    """The pair matrices of ``contract-stq-lex`` of prior t by I in lane
    I, for every I at once (see ``_packed_relations``): the levels of
    ``operators._stq_lex_levels`` in one pass over the prior's cells for
    all lanes together, row x of a lane holding x's level as a W-bit
    number.  The cells laid in rows, cell j in row j, give in one step
    whether each meets O and I, read one row a cell.  A cell that meets
    O adds 1 to the level of every world above it, and a world of I
    takes its cell's ``lag`` on top; ``lag``, kept in row 0, gains 1
    after a cell inside I (one that misses O) and loses 1, unless it is
    0, after a cell inside O.  Then, for each level v, the rows at or
    above it (level + W - v reaches bit log2 W) and their columns
    (``fold`` of the diagonal) give the pairs across v."""
    w, rep, low, spread = lanes.width, lanes.rep, lanes.low, _spread(t.n_atoms)
    laid = sum(c << w * j for j, c in enumerate(t.masks)) * rep
    meets_o, meets_i = lanes.nonzero(laid & ocol), lanes.nonzero(laid & icol)
    level = extra = lag = 0
    above = all_worlds(t.n_atoms)
    for c in t.masks:
        above &= ~c
        has_o = meets_o & rep
        extra += lag * spread[c]
        level += has_o * spread[above]
        lag += rep ^ has_o
        lag -= ~meets_i & rep & (lag + low) >> w
        meets_o, meets_i = meets_o >> w, meets_i >> w
    bits, shift, lt, gt = lanes.row * rep, w.bit_length() - 1, 0, 0
    level += (extra & irow) + (w - 1) * bits
    for _ in t.masks[1:]:
        rows = (level >> shift & bits) * ((1 << w) - 1)
        level -= bits
        cols = (lanes.fold(rows & lanes.diag) & low) * lanes.row
        lt |= cols & ~rows
        gt |= rows & ~cols
    return lt, lanes.ones ^ gt


@lru_cache(maxsize=None)
def _packed_region(region: str, proper: bool, n_atoms: int) -> int:
    """A region's masks (see ``_region_masks``) in the lanes of the
    inputs a rule reads: every consistent input, but the tautology if
    ``proper``."""
    masks = _region_masks(region, n_atoms)
    return _packed([0, *masks[1:-1], 0 if proper else masks[-1]], (1 << n_atoms) ** 2)


def _pair_rule(premises, conclusion, region, relation) -> _PostulateDef:
    """One row of ``_PAIR_RULES``: the pairs in its region whose relation
    the conclusion order does not keep.  Where every order the rule
    reads is ``_closed``, under built-ins alone, it takes them on every
    input of a prior in one packed mask (``_packed_relations``): its
    count is the mask's set bits, and its witnesses are those bits in
    ascending order, input by input and then as ``_bit_pairs`` reads a
    pair matrix.  Under any operator that is no built-in it is a
    ``_mask_scan`` of one mask per input, counted by input orbits; that
    route is the packed one's oracle in the tests."""
    orders = set(premises) | {conclusion}
    # revising by the complement skips the tautology (see the module doc)
    inputs = "props_proper" if "revneg" in orders else "props"
    broken = _BROKEN[relation]
    read = orders - {"prior"}

    def masks(ctx, t, ps):
        """Per input of ps, the pair mask of the rule's violations."""
        first, *others = (ctx.matrices(name, t, ps) for name in premises)
        after = ctx.matrices(conclusion, t, ps)
        regions = _region_masks(region, ctx.n)
        for i, p in enumerate(ps):
            bad = regions[p] & broken(first[i], after[i])
            for other in others:
                bad &= ~broken(first[i], other[i])
            yield bad

    def packed(ctx):
        return all(_closed(ctx.con if _NAMED[name][0] else ctx.rev) for name in read)

    def packed_mask(ctx, t):
        """The rule's violations on prior t, lane q holding input q's."""
        found = _packed_relations(ctx, t, read)
        first, *others = (found[name] for name in premises)
        bad = _packed_region(region, inputs != "props", ctx.n) & broken(first, found[conclusion])
        for other in others:
            bad &= ~broken(first, other)
        return bad

    def gen(ctx, t):
        if not packed(ctx):
            yield from scan.gen(ctx, t)
            return
        width = len(ctx.worlds)
        for row, y in _bit_pairs(packed_mask(ctx, t), width):
            q, x = divmod(row, width)
            yield (t,), (q,), (x, y), ""

    def count(ctx, t):
        return packed_mask(ctx, t).bit_count() if packed(ctx) else scan.count(ctx, t)

    scan = _mask_scan(
        masks,
        inputs,
        needs_con=bool(orders & {"con", "conneg"}),
        needs_rev=bool(orders & {"rev", "revneg"}),
    )
    return scan._replace(gen=gen, count=count, packed=packed)


_POSTULATES = {
    "Success": _by_input(_g_success),
    **{name: _pair_rule(*row) for name, row in _PAIR_RULES.items()},
    "IIAP": _mask_scan(_iiap_masks, pair_outer=True),
    "IIAI": _PostulateDef(
        _g_iiai,
        count=_c_iiai,
        inputs_per_outer=lambda ctx: len(ctx.props) * (len(ctx.props) - 1) // 2,
    ),
    "Beta1": _PostulateDef(
        _g_beta(0),
        count=_c_beta(0),
        inputs_per_outer=lambda ctx: len(ctx.props) ** 2,
    ),
    "Beta2": _PostulateDef(
        _g_beta(1),
        count=_c_beta(1),
        inputs_per_outer=lambda ctx: len(ctx.props) ** 2,
    ),
    "Neut": _PostulateDef(
        _g_neut, count=lambda ctx, pair: sum(1 for _ in _g_neut(ctx, pair)), pair_outer=True
    ),
    "Red": _by_input(_g_red),
    "HI_beliefs": _by_input(_g_hi_beliefs, "props_proper", needs_con=True),
    "LI_beliefs": _by_input(_g_li_beliefs, needs_con=True),
    "NLI": _routed_rule(None, "routed"),
    "iLIRC": _routed_rule(Revision.NATURAL, "closure route"),
}

POSTULATE_IDS = tuple(_POSTULATES)


# ---------------------------------------------------------------------------
# Check driver


def _scope_int(value, name: str) -> None:
    """A scope value, checked: an int, not True or 2.0."""
    if type(value) is not int:
        raise ScopeError(f"the {name} must be an int, not {value!r}")


def _validate_atoms(n_atoms: int) -> None:
    _scope_int(n_atoms, "atom count")
    if n_atoms < 1:
        raise ScopeError("at least 1 atom is required")


def _validate_scope(n_atoms: int, mode: str) -> None:
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    _validate_atoms(n_atoms)
    if mode == "exhaustive" and n_atoms > 2:
        raise ScopeError("exhaustive checking supports at most 2 atoms")
    if mode == "sampled" and n_atoms > 3:
        raise ScopeError("sampled checking supports at most 3 atoms")


def _draws(pair_outer, n_atoms, seed, sample) -> list:
    """A sampled check's preorder indices (index pairs for pair outers),
    drawn once per check."""
    total_tpos = count_tpos(n_atoms)
    rng = random.Random(seed)
    if pair_outer:
        return [(rng.randrange(total_tpos), rng.randrange(total_tpos)) for _ in range(sample)]
    return [rng.randrange(total_tpos) for _ in range(sample)]


@lru_cache(maxsize=None)
def _enumeration(n_atoms: int) -> tuple:
    """Every preorder in enumeration order, built once per process: the
    exhaustive scans' outers, at most 2 atoms."""
    return tuple(enumerate_tpos(n_atoms))


def _outers(pair_outer, n_atoms, part):
    """The outers at some indices: the enumeration's at a range of its
    indices, or the preorders at a list of drawn indices.  Pair outers
    come in rows (see ``_counted``): (first preorder, second preorders,
    whether those are the whole enumeration).  An exhaustive row pairs
    each preorder of the range with the whole enumeration; a drawn pair
    is a row of its own."""
    if isinstance(part, range):
        pool = _enumeration(n_atoms)
        firsts = islice(pool, part.start, part.stop)
        return ((first, pool, True) for first in firsts) if pair_outer else firsts
    if pair_outer:
        return ((tpo_at_index(i, n_atoms), (tpo_at_index(j, n_atoms),), False) for i, j in part)
    return (tpo_at_index(i, n_atoms) for i in part)


def _spec(postulate: str, revision, contraction) -> _PostulateDef:
    """The postulate's scan, once its operator arguments are checked."""
    spec = _POSTULATES.get(postulate)
    if spec is None:
        raise ValueError(f"unknown postulate {postulate!r}")
    if spec.needs_con and contraction is None:
        raise MissingContractionError(f"postulate {postulate} needs a contraction operator")
    if spec.needs_rev and revision is None:
        raise ValueError(f"postulate {postulate} needs a revision operator")
    return spec


def _equivariant(rev, con) -> bool:
    """Whether the operators commute with every permutation of the worlds:
    the built-in revisions and contractions and compositions of them
    (``None`` is no operator).  Any other operator object, a tabular or a
    random operator, need not."""
    return all(
        op is None
        or isinstance(op, (Revision, Contraction))
        or (isinstance(op, _NliComposition) and _equivariant(op.rev, op.con))
        for op in (rev, con)
    )


def _composition(t: Tpo) -> tuple:
    """The cell sizes of a preorder, bottom first: its orbit under the
    permutations of the worlds."""
    return tuple(map(int.bit_count, t.masks))


@lru_cache(maxsize=256)
def _input_orbits(t: Tpo, proper: bool = False) -> tuple:
    """The orbits of the inputs under the permutations that fix each cell
    of t, as (representatives, weights), kept for the latest 256 calls:
    a check asks for those of each composition's first preorder once per
    postulate and operator pair.  An input's orbit is fixed by how many
    worlds k_i it takes from each cell i of size s_i: its representative
    takes the k_i lowest worlds of each cell, and its weight is the
    orbit's size, the product of C(s_i, k_i) (``_orbit_weights``).  Every choice
    of the k_i but all zeros, and all s_i too if ``proper`` (no
    tautology), gives prod(s_i + 1) - 1 (or - 2) inputs in place of
    2^W - 1 (or - 2)."""
    reps = [0]
    for c in t.masks:
        prefixes, prefix = [0], 0
        while c:
            prefix |= c & -c
            c &= c - 1
            prefixes.append(prefix)
        reps = [r | q for r in reps for q in prefixes]
    stop = -1 if proper else None
    return tuple(reps[1:stop]), _orbit_weights(_composition(t))[1:stop]


@lru_cache(maxsize=256)
def _orbit_weights(sizes: tuple) -> tuple:
    """``_input_orbits``'s weights for cells of these sizes, all zeros first."""
    weights = [1]
    for size in sizes:
        row = [comb(size, k) for k in range(size + 1)]
        weights = [w * c for w in weights for c in row]
    return tuple(weights)


def _orbit_count(ctx: _Ctx, spec: _PostulateDef, t: Tpo) -> int:
    """A single-input scan's count on prior t, under equivariant
    operators: a permutation fixing each cell of t maps t's violations on
    one input one to one onto those on its image, so each orbit of the
    inputs is counted once at its representative, times its size (see
    ``_input_orbits``)."""
    reps, weights = _input_orbits(t, spec.inputs == "props_proper")
    return sum(map(mul, weights, spec.counts(ctx, t, reps)))


def _pairs(spec: _PostulateDef, outer) -> list:
    """The outers ``gen`` and ``count`` take for one outer of a scan: a
    pair scan's row (see ``_outers``) gives its pairs, in order, and any
    other outer itself."""
    return [(outer[0], second) for second in outer[1]] if spec.pair_outer else [outer]


def _counted(ctx: _Ctx, spec: _PostulateDef, outers):
    """Each outer, a preorder or a pair scan's row (see ``_outers``), with
    its violation count, a row's summed over its pairs.  Under
    equivariant operators (see ``_equivariant``) a permutation maps an
    outer's violations one to one onto those of the permuted outer, and
    a whole row onto the whole row of the permuted first preorder.  So
    the count of a preorder or of a whole row is taken once per
    composition, of the preorder or of the row's first preorder, and
    read back for every later outer of that composition.  A single
    preorder's scan that sums over single inputs takes it on one input
    per orbit of the preorder's cells, weighted by the orbit's size
    (``_orbit_count``), unless it is ``packed`` and takes every input at
    once.  Drawn rows, and every outer under other
    operators (a tabular or a random operator), are counted in full.
    The counts by composition are kept on the context (``ctx.orbits``),
    so a later scan of the same postulate on it reads them back too."""
    equivariant = _equivariant(ctx.rev, ctx.con)
    packed = spec.packed is not None and spec.packed(ctx)
    by_orbits = equivariant and spec.counts is not None and not spec.pair_outer and not packed

    def count(outer):
        if by_orbits:
            return _orbit_count(ctx, spec, outer)
        return sum(spec.count(ctx, pair) for pair in _pairs(spec, outer))

    orbits = ctx.orbits.setdefault(spec, {})
    for outer in outers:
        first, whole = (outer[0], outer[2]) if spec.pair_outer else (outer, True)
        if not (equivariant and whole):
            yield outer, count(outer)
            continue
        key = _composition(first)
        if key not in orbits:
            orbits[key] = count(outer)
        yield outer, orbits[key]


def _scan(
    ctx: _Ctx, spec: _PostulateDef, outers, clear: bool = False, cap: int = WITNESS_CAP
) -> _Tally:
    """Tally a scan over outers (rows for a pair scan): each outer's
    violation count (see ``_counted``), its instances (a row's for each
    of its pairs), and its first ``cap`` witnesses from ``gen``, pair by
    pair in a row, only while there is room for them.  ``clear`` drops
    the context's memo after each outer: sampled outers seldom share a
    prior, and at three atoms each prior's orders cover 255 inputs."""
    tally = _Tally(ctx, cap)
    per_outer = spec.inputs_per_outer(ctx)
    for outer, found in _counted(ctx, spec, outers):
        pairs = _pairs(spec, outer)
        tally.outers += 1
        tally.instances += per_outer * len(pairs)
        tally.violations += found
        for pair in pairs if found else ():
            if not tally.room:
                break
            tally.keep(spec.gen(ctx, pair))
        if clear:
            ctx.clear()
    return tally


def _within_budget(outers):
    """The outers, until ``_FORK_AFTER_S`` has passed since the first was
    asked for; the clock is read before each."""
    start = perf_counter()
    for outer in outers:
        if perf_counter() - start >= _FORK_AFTER_S:
            return
        yield outer


def _run_job(ctx: _Ctx, spec: _PostulateDef, clear: bool, cap: int, part) -> tuple:
    """One part of a check's outers, scanned on the check's context: its
    tally as (instances, violations, raw witnesses), keeping at most
    ``cap`` raws, the room the check had left when it split."""
    tally = _scan(ctx, spec, _outers(spec.pair_outer, ctx.n, part), clear, cap)
    return tally.instances, tally.violations, tally.raws


def _run_jobs(jobs) -> list:
    """The result of every job, a closure taking no argument, in job
    order.  Job 0 runs in this process and each other job in a forked
    child, which inherits the closure, so only ``(ok, result or
    exception)`` is pickled, back through a pipe; the child leaves with
    ``os._exit``: it flushes none of this process's stdio buffers and runs
    no exit hook.  A child's exception is raised again here.  Every child
    is reaped before this returns or raises; on an error the read ends are
    closed first, so no child stays blocked on its write.  The checker
    starts no thread, so forking is safe.  Without ``os.fork`` (Windows),
    or once a pipe or a fork fails (say, with no process to spare), the
    jobs not yet forked run in process, after job 0."""
    children = []  # (pid, read end) per forked job
    try:
        if hasattr(os, "fork"):
            for job in jobs[1:]:
                try:
                    children.append(_fork(job, children))
                except OSError:
                    break
        own = [job() for job in (jobs[0], *jobs[1 + len(children) :])]
        results = own[:1]
        for index, (_, pipe) in enumerate(children, 1):
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"job {index} ended without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results + own[1:]
    finally:
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _fork(job, siblings) -> tuple:
    """A forked child running ``job`` (see ``_child``): its pid and the
    read end of its pipe.  An OSError from the pipe or the fork leaves no
    end of the pipe open."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        _child(job, read, write, siblings)
    os.close(write)
    return pid, open(read, "rb")


def _child(job, read: int, write: int, siblings) -> None:
    """The body of a forked job: call it, send the pickled outcome through
    ``write`` and leave without returning, exit status 0 once it is sent."""
    code = 1
    try:
        os.close(read)
        for _, pipe in siblings:  # held here, a read end would keep its writer blocked
            pipe.close()
        try:
            payload = (True, job())
        except BaseException as exc:  # not swallowed: the parent raises it
            payload = (False, exc)
        data = pickle.dumps(payload)
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def check_postulate(
    postulate: str,
    revision: RevisionMethod | None = None,
    contraction: Contraction | None = None,
    *,
    n_atoms: int = 2,
    mode: str = "exhaustive",
    seed: int | None = None,
    sample: int | None = None,
    workers: int = 1,
) -> CheckReport:
    """Quantify one postulate over its whole instance space and report.

    Exhaustive mode enumerates every preorder (or preorder pair);
    sampled mode draws ``sample`` of them with a seeded generator, and
    only sampled mode takes a ``seed`` or ``sample``.
    Violations are counted in full; the report keeps the first ten
    witnesses in enumeration order, whatever the worker count.  The
    outers (an exhaustive pair scan's first preorders, so every
    exhaustive row is whole) are scanned in process.  At more than one
    worker the clock is read between outers, and once ``_FORK_AFTER_S``
    has passed the outers left are split into one contiguous part per
    worker, at most ``_CHUNKS`` (16) and at most one per outer.  Each
    part is a closure over the scan, the context and its outers: the
    first runs in process and every other one, at most 15, in a forked
    child, and only its result crosses the pipe (see ``_run_jobs``).
    Only the kept witnesses are rendered, in this process.
    """
    spec = _spec(postulate, revision, contraction)
    _validate_scope(n_atoms, mode)
    if mode != "sampled" and (seed is not None or sample is not None):
        raise ScopeError("a seed or sample size applies only to sampled mode")
    for value, name in ((sample, "sample size"), (seed, "seed")):
        if value is not None:
            _scope_int(value, name)
    _scope_int(workers, "worker count")
    if sample is not None and sample < 1:
        raise ScopeError("the sample size must be at least 1")
    if sample is not None and sample > 1_000_000:
        raise ScopeError("the sample size must be at most 1000000")
    if workers < 1:
        raise ScopeError("the worker count must be at least 1")
    sampled = mode == "sampled"
    if sampled:
        seed = 0 if seed is None else seed
        sample = 10000 if sample is None else sample
        indices = _draws(spec.pair_outer, n_atoms, seed, sample)
    else:
        indices = range(count_tpos(n_atoms))  # first preorders, for a pair scan
    ctx = _Ctx(n_atoms, revision, contraction)
    outers = _outers(spec.pair_outer, n_atoms, indices)
    tally = _scan(ctx, spec, outers if workers == 1 else _within_budget(outers), sampled)
    left = indices[tally.outers :]
    if left:
        n_jobs = min(workers, _CHUNKS, len(left))
        bounds = [len(left) * i // n_jobs for i in range(n_jobs + 1)]
        parts = [left[start:stop] for start, stop in zip(bounds, bounds[1:])]
        jobs = [partial(_run_job, ctx, spec, sampled, tally.room, part) for part in parts]
        for instances, violations, raws in _run_jobs(jobs):
            tally.instances += instances
            tally.violations += violations
            tally.keep(raws)
    return tally.report(postulate, CheckScope(n_atoms, mode, sample, seed), revision, contraction)


@lru_cache(maxsize=None)
def _first_of_each_composition(n_atoms: int) -> tuple:
    """The first preorder of each composition in enumeration order."""
    firsts = {}
    for t in _enumeration(n_atoms):
        firsts.setdefault(_composition(t), t)
    return tuple(firsts.values())


def _holding(ids, revision, contraction, n_atoms: int, shared=None) -> dict:
    """Exhaustive verdicts of several postulates on one operator pair: each
    holds unless ``_counted`` finds an outer with a violation, and its scan
    stops there.  Under equivariant operators every outer of a
    composition finds as many violations (see ``_counted``), so the scan
    takes only the first preorder, or the first whole row, of each.  The
    postulates share one scan context, so each prior's orders are
    computed once for all of them; ``shared`` (see ``_Ctx``) extends that
    to other operator pairs."""
    specs = {postulate: _spec(postulate, revision, contraction) for postulate in ids}
    _validate_scope(n_atoms, "exhaustive")
    ctx = _Ctx(n_atoms, revision, contraction, shared)
    pool = _enumeration(n_atoms)
    firsts = _first_of_each_composition(n_atoms) if _equivariant(revision, contraction) else pool
    verdicts = {}
    for postulate, spec in specs.items():
        outers = [(first, pool, True) for first in firsts] if spec.pair_outer else firsts
        verdicts[postulate] = not any(found for _, found in _counted(ctx, spec, outers))
    return verdicts


def replay_witness(
    check_id: str,
    witness: Witness,
    revision: RevisionMethod | None = None,
    contraction: Contraction | None = None,
    *,
    n_atoms: int = 2,
) -> bool:
    """Re-run the instance named by a witness; True iff it reproduces.

    For ``diagram <name>`` the scan is that of the built-in table of that
    name, unless a table is passed as ``revision`` (as a ``diagram
    custom`` witness needs).  Any scope a check can report, 1 to 3 atoms,
    replays.  Claim witnesses have no replay route yet.
    """
    diagram = check_id.startswith("diagram ")
    if diagram:
        spec = _diagram_scan(_diagram_table(check_id.split()[-1] if revision is None else revision))
    elif check_id in _CLAIMS:
        raise ValueError(f"{check_id} is a claim: claim witnesses have no replay route yet")
    else:
        spec = _spec(check_id, revision, contraction)
    _validate_scope(n_atoms, "sampled")
    ctx = _Ctx(n_atoms) if diagram else _Ctx(n_atoms, revision, contraction)
    tpos = tuple(parse_tpo(text, n_atoms) for text in witness.tpos)
    outer = tpos[:2] if spec.pair_outer else tpos[0]
    return any(ctx.witness(*raw) == witness for raw in spec.gen(ctx, outer))


# ---------------------------------------------------------------------------
# State-diagram exclusion

_DIAGRAMS = {
    "a": {1: 1, 0: 1, -1: -1},
    "b": {1: 1, 0: 1, -1: 1},
    "c": {1: 1, 0: 0, -1: -1},
    "d": {1: 1, 0: 0, -1: 0},
    "e": {1: 1, 0: 1, -1: 0},
    "f": {1: 1, 0: 0, -1: 1},
}

DIAGRAM_IDS = tuple(_DIAGRAMS)


def _diagram_table(diagram) -> dict:
    if isinstance(diagram, str):
        table = _DIAGRAMS.get(diagram)
        if table is None:
            raise MalformedDiagramError(f"unknown diagram {diagram!r}")
        return table
    table = dict(diagram)
    if set(table) != {1, 0, -1}:
        raise MalformedDiagramError("diagram must map the three prior relations")
    if table[1] != 1 or table[0] not in (0, 1) or table[-1] not in (1, 0, -1):
        raise MalformedDiagramError("diagram arrows may not point downwards")
    return table


def _forced_rows(table, t: Tpo, p: int, own: tuple) -> list:
    """The posterior relation a diagram forces on one instance, from the
    prior's pair matrices ``own``, as one W-bit row per world: bit y of
    row x is set iff x ends at most as high as y.  The minimal input
    worlds sit below every world.  Within one side of the input, the
    prior's ``le`` is kept.  A model over a countermodel keeps ``le``, or
    every pair when ``table[-1] >= 0``.  A countermodel over a model keeps
    ``lt`` when ``table[-1] <= 0``, plus ties when ``table[0] == 0``."""
    lt, le = own
    width = 1 << t.n_atoms
    full = all_worlds(t.n_atoms)
    spread = _spread(t.n_atoms)
    minimal = min_worlds(t, p)
    models, countermodels = p & ~minimal, full & ~p
    up = le if table[-1] < 0 else -1
    down = (lt if table[-1] <= 0 else 0) | (le & ~lt if table[0] == 0 else 0)
    forced = (
        spread[minimal] * full
        | le & (spread[models] * models | spread[countermodels] * countermodels)
        | up & spread[models] * countermodels
        | down & spread[countermodels] * models
    )
    return [forced >> width * x & full for x in range(width)]


def _intransitive_triple(rows):
    """The first (x, y, z) with x at most y and y at most z but not x at
    most z: for x ascending and y ascending in row x, the lowest z of
    ``rows[y] & ~rows[x]``."""
    for x, row in enumerate(rows):
        ys = row
        while ys:
            y = (ys & -ys).bit_length() - 1
            bad = rows[y] & ~row
            if bad:
                return x, y, (bad & -bad).bit_length() - 1
            ys &= ys - 1
    return None


def _diagram_scan(table) -> _PostulateDef:
    """The scan of a diagram's table: per input, the first triple on which
    the relations the table forces are intransitive.  It reads no
    operator, so it runs on a context without one."""

    def body(ctx, t, ps):
        own = ctx.relations[t]
        for p in ps:
            triple = _intransitive_triple(_forced_rows(table, t, p, own))
            if triple is not None:
                yield (t,), (p,), triple, "forced relations are intransitive on this triple"

    return _by_input(body)


def check_diagram(diagram, n_atoms: int = 2) -> CheckReport:
    """Search for an order the diagram cannot consistently revise.

    The diagram fixes the posterior relation of every pair with one
    model and one countermodel of the input (outside the promoted
    minimal worlds); everything else is forced by success and by
    preservation within each side.  A configuration where the forced
    relations cannot form a transitive order is a violation: the witness
    names a triple on which transitivity fails.  Such a triple needs
    three worlds, so the check takes at least 2 atoms.

    The forced relation is one bit row per world (see ``_forced_rows``).
    It follows from the prior's order and the input alone, so preorders of
    one composition fail alike: the scan counts each composition once, on
    one input per orbit of its cells (see ``_counted``), and takes
    witnesses from the preorders in enumeration order.
    """
    table = _diagram_table(diagram)
    _validate_scope(n_atoms, "exhaustive")
    if n_atoms < 2:
        raise ScopeError("the diagram exclusions need at least three worlds (2 atoms)")
    tally = _scan(_Ctx(n_atoms), _diagram_scan(table), _enumeration(n_atoms))
    name = diagram if isinstance(diagram, str) else "custom"
    return tally.report(f"diagram {name}", CheckScope(n_atoms, "exhaustive"))


# ---------------------------------------------------------------------------
# Claim verification

ELEMENTARY_POSTULATES = (
    "Success",
    "DP1",
    "DP2",
    "DP3",
    "DP4",
    "IIAP",
    "IIAI",
    "Beta1",
    "Beta2",
    "Neut",
)


@lru_cache(maxsize=None)
def pair_profile(n_atoms: int = 2) -> tuple:
    """``(revision, contraction, verdicts)`` for all nine built-in
    operator pairs, ``verdicts`` a read-only map from each of NLI,
    CR1-CR4, SPU and WPU to whether it holds (the rows are cached, so
    the claims read them too).  The pairs share their orders: each
    revision's for every contraction, and each contraction's for every
    revision."""
    ids = ("NLI", "CR1", "CR2", "CR3", "CR4", "SPU", "WPU")
    shared = {}
    return tuple(
        (rev, con, MappingProxyType(_holding(ids, rev, con, n_atoms, shared)))
        for rev in Revision
        for con in Contraction
    )


def _yn(value: bool) -> str:
    return "yes" if value else "no"


# Each claim counts into the tally that ``verify_claim`` gives it, on a
# context with no operators, and returns its report's detail text.


def _verify_t1(tally: _Tally) -> str:
    n_atoms = tally.ctx.n
    lines = []
    for rev in Revision:
        outcomes = _holding(ELEMENTARY_POSTULATES, rev, None, n_atoms)
        tally.instances += len(outcomes)
        tally.violations += sum(1 for v in outcomes.values() if not v)
        lines.append(
            f"{rev.value}: "
            + " ".join(f"{p}={_yn(v)}" for p, v in outcomes.items())
        )
    for d in DIAGRAM_IDS:
        report = check_diagram(d, n_atoms)
        expect_fail = d in ("d", "e", "f")
        tally.instances += 1
        tally.violations += report.passed == expect_fail
        lines.append(
            f"diagram {d}: {report.outcome} (expected {'fail' if expect_fail else 'pass'})"
        )
    lines.append(
        "note: no enumeration over the full space of revision operators is attempted;"
    )
    lines.append(
        "operators outside the three are excluded by the diagram checks, read over"
    )
    lines.append(
        "operators defined on every total preorder (restricted domains not addressed)."
    )
    return "\n".join(lines)


def _verify_equivalence(left: tuple, right: tuple):
    """T2, T3 and Cor1: on every built-in operator pair, all the left
    columns of its profile hold iff all the right ones do."""

    def verify(tally: _Tally) -> str:
        lines = []
        for rev, con, verdicts in pair_profile(tally.ctx.n):
            columns = {**verdicts, "CR1-4": all(verdicts[f"CR{i}"] for i in (1, 2, 3, 4))}
            tally.instances += 1
            tally.violations += all(columns[c] for c in left) != all(columns[c] for c in right)
            lines.append(
                f"{rev.value} + {con.value}: "
                + " ".join(f"{c}={_yn(columns[c])}" for c in left + right)
            )
        return "\n".join(lines)

    return verify


def _verify_t4(tally: _Tally) -> str:
    """Fast path against brute force on every contraction-generated instance.

    The closure input is only guaranteed satisfiable when the added
    sentence is consistent with the contracted beliefs, which contraction
    by its negation always ensures; so the sweep instantiates the
    contracted preorder through each contraction method.
    """
    pool = _enumeration(tally.ctx.n)
    resolved: dict = {}  # (contracted, input): the instance's raw witnesses
    for con in Contraction:
        for t in pool:
            for p in tally.ctx.props:
                tally.instances += 1
                contracted = contract_by_negation(t, p, con)
                key = (contracted, p)
                if key not in resolved:
                    brute = flattest_satisfier(
                        conditional_set(contracted).adding_plain(p), pool
                    )
                    fast = rational_closure_fast(contracted, p)
                    resolved[key] = () if brute == fast else (
                        ((contracted, fast, brute), (p,), (), "fast path, then brute-force flattest"),
                    )
                tally.add(resolved[key])
    return (
        f"{tally.instances} (contracted preorder, input) instances across the three "
        f"contraction methods ({len(resolved)} distinct); brute-force flattest "
        "satisfier equals the natural-revision fast path on all of them; the "
        "flattest element is checked against every satisfier before it is returned"
    )


def _verify_p1(tally: _Tally) -> str:
    n_atoms = tally.ctx.n
    pool = [
        (f"seed {seed}", make_random_dp_operator(seed, n_atoms)) for seed in range(_P1_OPERATORS)
    ]
    # The three built-ins cover the branch where both sides hold.
    pool.extend((rev.value, rev) for rev in Revision)
    both_hold = 0
    for label, op in pool:
        holds = _holding(("Beta1", "Beta2", "IIAI"), op, None, n_atoms)
        betas = holds["Beta1"] and holds["Beta2"]
        tally.instances += 1
        if betas != holds["IIAI"]:
            tally.add([((), (), (), label)])
        if betas:
            both_hold += 1
    return (
        f"operators={len(pool)} ({_P1_OPERATORS} seeded random, 3 built-in); both "
        f"sides hold for {both_hold}, fail for {len(pool) - both_hold}; "
        f"equivalence mismatches: {tally.violations}"
    )


def _verify_p2(tally: _Tally) -> str:
    ctx = tally.ctx
    revisions = tuple(Revision)  # read per instance: iterating the Enum is slow
    for con in Contraction:
        for t in _enumeration(ctx.n):
            for p in ctx.props:
                contracted = contract_by_negation(t, p, con)
                if not contracted.masks[0] & ~p:
                    continue  # input believed after contraction: outside the hypothesis
                tally.instances += 1
                naive = conditional_set(contracted).adding_plain(p)
                item = (ctx.full, p)  # the conditional true => p
                omitted = not cn_extended_member(naive, item)
                contained = True
                identity_fails = True
                for rev in revisions:
                    revised_set = conditional_set(revise(t, p, rev))
                    contained = contained and cn_extended_member(revised_set, item)
                    identity_fails = identity_fails and naive != revised_set
                if not (omitted and contained and identity_fails):
                    tally.add([((t,), (p,), (), f"contraction {con.value}")])
    return (
        f"{tally.instances} instances with the input not believed after contraction; "
        "the plain extended consequence omits the top-conditional for the input "
        "while every revision's conditional set contains it, so the naive "
        "identity fails on all of them"
    )


class _NliComposition:
    """Revision defined as contraction by the negated input, then revision."""

    def __init__(self, con: Contraction, rev: Revision):
        self.con = con
        self.rev = rev

    def posterior(self, t: Tpo, sentence_models: int) -> Tpo:
        return nli_revise(t, sentence_models, self.con, self.rev)

    def __repr__(self) -> str:
        return f"{self.con.value} then {self.rev.value}"


def _verify_p3(tally: _Tally) -> str:
    n_atoms = tally.ctx.n
    lines = []
    for con in Contraction:
        cc_ok = all(_holding(("CC1", "CC2", "CC3", "CC4"), None, con, n_atoms).values())
        for rev in Revision:
            composed = _NliComposition(con, rev)
            outcomes = _holding(("DP1", "DP2", "DP3", "DP4"), composed, None, n_atoms)
            tally.instances += len(outcomes)
            tally.violations += not (cc_ok and all(outcomes.values()))
            lines.append(
                f"{con.value} then {rev.value}: CC1-4={_yn(cc_ok)} "
                + " ".join(f"{k}={_yn(v)}" for k, v in outcomes.items())
            )
    return "\n".join(lines)


def _verify_p5(tally: _Tally) -> str:
    n_atoms = tally.ctx.n
    if n_atoms != 2:
        raise ScopeError("the impossibility regression is a four-world model")
    prior = parse_tpo("11 | 10 01 | 00", n_atoms)
    p = 0b1100  # worlds 10 and 11
    expected = parse_tpo("11 | 10 | 01 | 00", n_atoms)
    contracted = contract_by_negation(prior, p, Contraction.STQ_LEX)
    revised_r = revise(prior, p, Revision.RESTRAINED)
    revised_l = revise(prior, p, Revision.LEXICOGRAPHIC)
    checks = {
        "contraction by the negated input is a fixed point": contracted == prior,
        "restrained revision gives the expected order": revised_r == expected,
        "lexicographic revision gives the expected order": revised_l == expected,
        "input already believed": not prior.masks[0] & ~p,
        "conditional sets of contraction and revision differ": conditional_set(
            contracted
        )
        != conditional_set(expected),
    }
    tally.instances += len(checks)
    tally.violations += sum(1 for v in checks.values() if not v)
    lines = [f"{name}: {_yn(value)}" for name, value in checks.items()]
    lines.append(f"prior: {format_tpo(prior)}")
    lines.append(f"contracted: {format_tpo(contracted)}")
    lines.append(f"revised: {format_tpo(revised_r)}")
    lines.append(
        "with identity of rational sets under closure, revision would have to "
        "leave the conditional set unchanged here; it does not"
    )
    return "\n".join(lines)


def _verify_l_flattest(tally: _Tally) -> str:
    ctx = tally.ctx
    pool = _enumeration(ctx.n)
    dropped = _BROKEN["strict"]  # t's strict preferences that s does not keep
    for t in pool:
        own = ctx.relations[t]
        for p in ctx.props:
            tally.instances += 1
            flattest = revise(t, p, Revision.NATURAL)
            for s in pool:
                if s.masks[0] & ~p or dropped(own, ctx.relations[s]):
                    continue
                if not flatter_eq(flattest, s):
                    tally.add(
                        [((t, s, flattest), (p,), (), "satisfier not below the natural revision")]
                    )
    return (
        f"{tally.instances} instances; the natural revision of the contracted preorder "
        "is at least as flat as every preorder preserving its strict "
        "preferences and believing the input"
    )


_CLAIMS = {
    "T1": _verify_t1,
    "T2": _verify_equivalence(("NLI",), ("CR1", "CR2", "CR3", "CR4")),
    "T3": _verify_equivalence(("CR1-4",), ("SPU", "WPU")),
    "Cor1": _verify_equivalence(("NLI",), ("SPU", "WPU")),
    "T4": _verify_t4,
    "P1": _verify_p1,
    "P2": _verify_p2,
    "P3": _verify_p3,
    "P5": _verify_p5,
    "L_flattest": _verify_l_flattest,
}

CLAIM_IDS = tuple(_CLAIMS)


def verify_claim(claim: str, n_atoms: int = 2) -> CheckReport:
    """Compile one named claim to its exhaustive check and report on it."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}")
    _validate_atoms(n_atoms)
    if n_atoms > 2:
        raise ScopeError("claim verification is exhaustive and supports at most 2 atoms")
    tally = _Tally(_Ctx(n_atoms))
    detail = _CLAIMS[claim](tally)
    return tally.report(claim, CheckScope(n_atoms, "exhaustive"), detail=detail)
