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
which the two merged orders agree.

The operators work on the preorders' cell masks (see ``tpo``) and build
each result through the one validating constructor ``Tpo(masks,
n_atoms)``.  Every input mask is checked against the preorder's world
set first: anything but a nonnegative int with no bit beyond it raises
``ValueError``.

Any object with a ``posterior`` method revises too, e.g. a
``TabularRevision``.  Its seeded random instances, which pass Success
and DP1-DP4 by construction, are built by
``postulates.make_random_dp_operator`` from the checker's own DP rules.

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

    @property
    def base(self) -> Revision:
        return _CONTRACTION_BASE[self]


_CONTRACTION_BASE = {
    Contraction.NATURAL: Revision.NATURAL,
    Contraction.STQ_RESTRAINED: Revision.RESTRAINED,
    Contraction.STQ_LEX: Revision.LEXICOGRAPHIC,
}


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
    mask = _consistent_mask(sentence_models, t.n_atoms)
    if not isinstance(method, Revision):
        posterior = getattr(method, "posterior", None)
        if posterior is None:
            raise TypeError(f"not a revision method: {method!r}")
        return posterior(t, mask)
    return Tpo(_revision_masks(t.masks, mask, method), t.n_atoms)


def _revision_masks(masks: tuple, s: int, method: Revision) -> tuple:
    """Cell masks of a built-in revision of ``masks`` by the input mask ``s``."""
    out = ~s
    if method is Revision.LEXICOGRAPHIC:
        inside = [c for m in masks if (c := m & s)]
        return tuple(inside + [c for m in masks if (c := m & out)])
    minimal = _min_mask(masks, s)
    if method is Revision.NATURAL:
        rest = ~minimal
        return (minimal, *[c for m in masks if (c := m & rest)])
    # restrained: each prior cell splits into its input and other worlds
    inside = s & ~minimal
    cells = [minimal]
    for m in masks:
        if m & inside:
            cells.append(m & inside)
        if m & out:
            cells.append(m & out)
    return tuple(cells)


def _merge_masks(a: tuple, b: tuple, full: int) -> tuple:
    """Cell masks of the synchronized-minima merge of two mask partitions.

    Once a cell has no unassigned world left it never has one again, so
    each side's current minimum only moves forward.
    """
    cells = []
    remaining = full
    i = j = 0
    while remaining:
        while not a[i] & remaining:
            i += 1
        while not b[j] & remaining:
            j += 1
        current = (a[i] | b[j]) & remaining
        cells.append(current)
        remaining &= ~current
    return tuple(cells)


def _contraction(t: Tpo, mask: int, method: Contraction) -> Tpo:
    """Contraction of a preorder by a consistent input mask."""
    full = all_worlds(t.n_atoms)
    if mask == full:
        return t
    revised = _revision_masks(t.masks, full & ~mask, method.base)
    return Tpo(_merge_masks(t.masks, revised, full), t.n_atoms)


def contract(state: State, sentence_models: int, method: Contraction) -> Tpo:
    """Contract by a consistent sentence.

    Contracting the absurd state flattens it completely, whatever the
    input.  Contracting by a tautology returns the prior unchanged (its
    negation has no models to revise by); otherwise the result is the
    TeamQueue merge of the prior with the revision by the negated input.
    """
    mask = _consistent_mask(sentence_models, state.n_atoms)
    if isinstance(state, Absurd):
        return Tpo((all_worlds(state.n_atoms),), state.n_atoms)
    return _contraction(state, mask, method)


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
    if not negated:
        return t
    return _contraction(t, negated, method)
