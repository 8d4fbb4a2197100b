"""Belief change operators on total preorders.

Revision inputs are given by their model sets, as world masks with bit
``w`` set for world ``w`` (sentences are canonicalised before they
reach this layer).  All three built-in revisions promote exactly the
minimal input-worlds to the bottom and differ in how they rearrange
everything else:

* natural: everything else keeps its prior order;
* restrained: prior strict order kept, prior ties broken in favour of
  worlds satisfying the input;
* lexicographic: every input-world moves below every countermodel, prior
  order kept within each side.

Contraction is defined from revision: merge the prior order with the
revision by the negated input using the synchronized-minima TeamQueue
recurrence (repeatedly pop the union of both orders' current minima).
The recurrence makes the contraction's first cell the union of the prior
beliefs with the revised beliefs, and preserves any strict preference on
which the two merged orders agree.  No merge of two arbitrary orders is
computed: under natural or restrained revision the merge is the prior
with the negation's minimal worlds joined to its first cell, and
``contract-stq-lex`` takes its cells from one pass over the prior's
cells (``_stq_lex_levels``).

The operators work on the preorders' cell masks (see ``tpo``), in one
kernel, ``_posteriors``, that takes one prior and a batch of input masks
(``revise`` and ``contract`` pass one).  It builds each result through
the one validating constructor ``Tpo(masks, n_atoms)``, after checking
every input mask against the preorder's world set: anything but a
nonnegative int with no bit beyond it raises ``ValueError``.  The
checker's scan context reads the kernel's posteriors through its memo,
which keeps their pair matrices too.  Under every built-in it computes
those matrices from a closed form instead
(``postulates._posterior_relations``), which restates the rules above on
pair matrices, or takes those of the same levels under
``contract-stq-lex``, and is tested against this kernel; under any other
operator they are the matrices of the kernel's posteriors.  A pair rule
under built-ins takes the same closed forms for every input of a prior
at once, packed side by side in one int
(``postulates._packed_relations``); under ``contract-stq-lex`` that is
the level pass run for all inputs together.

Any object with a ``posterior`` method revises too, e.g. a
``TabularRevision``.  Its seeded random instances, which pass Success
and DP1-DP4 by construction, are built by
``postulates.make_random_dp_operator``: each posterior is drawn among
the merges of the prior's cells inside the input with its cells
outside it that those postulates allow.

All functions are pure; every value is immutable.
"""

from __future__ import annotations

import enum
from typing import Union

from .exceptions import AbsurdStateError, InconsistentInputError
from .lang import all_worlds
from .tpo import Absurd, State, Tpo, _input_mask, _min_mask


class Revision(enum.Enum):
    NATURAL = "natural"
    RESTRAINED = "restrained"
    LEXICOGRAPHIC = "lexicographic"


class Contraction(enum.Enum):
    NATURAL = "contract-natural"
    STQ_RESTRAINED = "contract-stq-restrained"
    STQ_LEX = "contract-stq-lex"


class TabularRevision:
    """Revision given by an explicit (prior, input) -> posterior table.

    Used as a fuzzing substrate: tables are keyed by the prior's cell
    masks and the input's world mask, so equal preorders always revise
    identically.  Tables built by ``postulates.make_random_dp_operator``
    satisfy success and the four iterated-revision postulates by
    construction.
    """

    def __init__(self, n_atoms: int, table: dict, seed: int | None = None):
        self.n_atoms = n_atoms
        self.table = table
        self.seed = seed

    def posterior(self, t: Tpo, sentence_models: int) -> Tpo:
        try:
            return self.table[(t.masks, sentence_models)]
        except KeyError:
            raise LookupError(
                f"tabular operator has no entry for this prior/input at n={self.n_atoms}"
            ) from None

    def __repr__(self) -> str:
        return f"TabularRevision(n_atoms={self.n_atoms}, seed={self.seed})"


RevisionMethod = Union[Revision, TabularRevision]


def method_name(method) -> str:
    """Report name of a method: the CLI string of a built-in, the seed of
    a tabular operator, else the object's ``value`` or its ``repr``."""
    if isinstance(method, TabularRevision):
        return f"tabular(seed={method.seed})"
    return getattr(method, "value", repr(method))


def _consistent_mask(sentence_models: int, n_atoms: int) -> int:
    """A checked input mask with at least one model."""
    mask = _input_mask(sentence_models, n_atoms)
    if not mask:
        raise InconsistentInputError("input sentence has no models")
    return mask


def revise(t: Tpo, sentence_models: int, method: RevisionMethod) -> Tpo:
    """Revise a preorder by a consistent sentence (given as a world mask).

    Besides the three built-in methods, any object with a
    ``posterior(tpo, models)`` method is accepted (tabular operators,
    composed operators used by the checker); it receives the mask.
    """
    if type(method) is Revision:
        return _posteriors(revise, t, (sentence_models,), method)[0]
    mask = _consistent_mask(sentence_models, t.n_atoms)
    posterior = getattr(method, "posterior", None)
    if posterior is None:
        raise TypeError(f"not a revision method: {method!r}")
    return posterior(t, mask)


def _check_masks(qs, n_atoms: int) -> int:
    """The world set's mask, after checking each input mask of qs as
    ``_consistent_mask`` does, with its error."""
    full = all_worlds(n_atoms)
    for q in qs:
        if type(q) is not int or q <= 0 or q & ~full:
            _consistent_mask(q, n_atoms)
    return full


def _posteriors(function, t: State, qs, method) -> list:
    """``function(t, q, method)`` for each input mask q of qs, in order: one
    pass for a built-in ``revise`` or ``contract``, else one call per mask.
    Under natural or restrained revision, the merge that contracts t by q
    is t with the minimal worlds m of q's complement joined to its first
    cell and taken out of the others: the two contractions are one.
    Under lexicographic revision its cells are the nonempty levels of
    ``_stq_lex_levels``."""
    contracting = function is contract and type(method) is Contraction
    if not contracting and (function is not revise or type(method) is not Revision):
        return [function(t, q, method) for q in qs]
    n = t.n_atoms
    full = _check_masks(qs, n)
    if contracting and isinstance(t, Absurd):
        return [Tpo((full,), n)] * len(qs)
    masks, out, built = t.masks, [], {}
    # tested once each, by identity, and only for its kind of method: an
    # Enum attribute lookup is slow
    stq_lex = contracting and method is Contraction.STQ_LEX
    lex = not contracting and method is Revision.LEXICOGRAPHIC
    split = not contracting and method is Revision.RESTRAINED
    for q in qs:
        s = full & ~q if contracting else q
        if not s:  # contracting by the tautology
            out.append(t)
        elif stq_lex:
            out.append(Tpo([c for c in _stq_lex_levels(masks, q, s) if c], n))
        elif lex:
            cells = (*[c for m in masks if (c := m & s)], *[c for m in masks if (c := m & ~s)])
            out.append(Tpo(cells, n))
        elif split:  # each prior cell splits into its input and other worlds
            minimal = _min_mask(masks, s)
            inside, cells = s & ~minimal, [minimal]
            for m in masks:
                if m & inside:
                    cells.append(m & inside)
                if m & ~s:
                    cells.append(m & ~s)
            out.append(Tpo(cells, n))
        else:  # the posterior depends on the minimal worlds alone
            minimal = _min_mask(masks, s)
            posterior = built.get(minimal)
            if posterior is None:
                rest = ~minimal
                first, others = (masks[0] | minimal, masks[1:]) if contracting else (minimal, masks)
                posterior = built[minimal] = Tpo((first, *[c for m in others if (c := m & rest)]), n)
            out.append(posterior)
    return out


def _stq_lex_levels(masks: tuple, q: int, s: int) -> list:
    """The levels, bottom first, of the prior of cell masks ``masks``
    contracted by q under ``contract-stq-lex``, s being q's complement:
    one level per prior cell, the empty ones included.  The merge takes
    the lexicographic revision's next s-cell, the prior's cells cut to
    s, at each step, so the s-worlds keep their rank in the s-chain, and
    the prior's pointer trails it by a queue's (Lindley's) recursion.
    So one pass over the prior's cells c, bottom first, with two
    counters, ``rank`` and ``lag``, both from 0, puts c & s on level
    ``rank`` and c & q on level ``rank + lag``; then a cell of q-worlds
    only adds 1 to ``lag``, one of s-worlds only takes 1 from it unless
    it is 0, and every cell with s-worlds adds 1 to ``rank``."""
    # rank + lag never passes a cell's index, so len(masks) levels do
    levels, rank, lag = [0] * len(masks), 0, 0
    for c in masks:
        if c & s:
            levels[rank] |= c & s
            if c & q:
                levels[rank + lag] |= c & q
            elif lag:
                lag -= 1
            rank += 1
        else:
            levels[rank + lag] |= c
            lag += 1
    return levels


def contract(state: State, sentence_models: int, method: Contraction) -> Tpo:
    """Contract by a consistent sentence.

    Contracting the absurd state flattens it completely, whatever the
    input.  Contracting by a tautology returns the prior unchanged (its
    negation has no models to revise by); otherwise the result is the
    TeamQueue merge of the prior with the revision by the negated input.
    """
    if type(method) is not Contraction:
        raise TypeError(f"not a contraction method: {method!r}")
    return _posteriors(contract, state, (sentence_models,), method)[0]


def expand(state: State, sentence_models: int, base: RevisionMethod) -> State:
    """Iterable expansion: revision while consistent, absurd afterwards.

    Expansion of an already-absurd state is left undefined and rejected.
    """
    if isinstance(state, Absurd):
        raise AbsurdStateError("expansion of the absurd state is undefined")
    if not state.masks[0] & _consistent_mask(sentence_models, state.n_atoms):
        return Absurd(state.n_atoms)
    return revise(state, sentence_models, base)


def nli_revise(
    t: Tpo,
    sentence_models: int,
    contraction: Contraction,
    revision: RevisionMethod,
) -> Tpo:
    """Revision routed through contraction by the negated input.

    When the input is a tautology its negation cannot be contracted by;
    retracting an inconsistent sentence is vacuous, so the contraction
    step is skipped and only the final revision applies.
    """
    contracted = contract_by_negation(t, sentence_models, contraction)
    return revise(contracted, sentence_models, revision)


def contract_by_negation(
    t: Tpo, sentence_models: int, method: Contraction
) -> Tpo:
    """Contract by the input's negation, vacuously when that is inconsistent."""
    negated = all_worlds(t.n_atoms) & ~_consistent_mask(sentence_models, t.n_atoms)
    return contract(t, negated, method) if negated else t
