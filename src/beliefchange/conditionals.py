"""Rational closure over finite preorders.

The closure of a mixed set is computed by brute force, straight from its
semantic characterisation: enumerate every total preorder, keep the ones
satisfying the set, and return the flattest satisfier, i.e. the one that
is at least as flat as every other under the first-difference cell
containment order.  Satisfiability and the existence of that maximum are
checked, never assumed; a satisfiable set with two incomparable maximal
satisfiers raises instead of silently tie-breaking, since the uniqueness
guarantee only covers sets of the contract-then-add-input shape.

For that shape there is also a fast path: naturally revising the
contracted preorder by the added sentence yields the same flattest
satisfier, which the checker confirms against the brute-force route on
every instance at two atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exceptions import (
    InconsistentInputError,
    NoMaximumError,
    ScopeError,
    UnsatisfiableError,
)
from .lang import MixedSet
from .operators import Revision, revise
from .tpo import (
    Tpo,
    conditional_set,
    enumerate_tpos,
    flatter_eq,
    min_worlds,
    propositions,
)

MAX_CLOSURE_ATOMS = 3


@dataclass(frozen=True)
class ClosureResult:
    tpo: Tpo
    closure: MixedSet


def satisfies(t: Tpo, delta: MixedSet) -> bool:
    """Whether every member of the set holds in the preorder.

    Plain sentences must hold in all minimal worlds; each conditional's
    minimal antecedent worlds must satisfy its consequent (vacuously so
    for inconsistent antecedents).  Only the strongest consequent per
    antecedent needs checking.
    """
    if not t.cells[0] <= delta.plain_models:
        return False
    for antecedent, consequent in delta.strongest_map().items():
        if antecedent and not min_worlds(t, antecedent) <= consequent:
            return False
    return True


def flattest_maximum(candidates: Sequence[Tpo]) -> Tpo:
    """The candidate at least as flat as every other, if there is one."""
    if not candidates:
        raise NoMaximumError("no candidates")
    best = candidates[0]
    for t in candidates[1:]:
        if flatter_eq(t, best):
            best = t
    for t in candidates:
        if not flatter_eq(best, t):
            raise NoMaximumError(
                "satisfiers have no flattest element; input is outside the "
                "shape for which uniqueness is guaranteed"
            )
    return best


def rational_closure(
    delta: MixedSet, n_atoms: int, candidates: Iterable[Tpo] | None = None
) -> ClosureResult:
    """Flattest satisfying preorder of a mixed set, with its conditional set.

    ``candidates`` may supply a pre-built enumeration (all preorders must
    be present for the result to be meaningful); by default the full
    space is enumerated.
    """
    if n_atoms > MAX_CLOSURE_ATOMS:
        raise ScopeError(f"closure supports at most {MAX_CLOSURE_ATOMS} atoms")
    pool = enumerate_tpos(n_atoms) if candidates is None else candidates
    satisfiers = [t for t in pool if satisfies(t, delta)]
    if not satisfiers:
        raise UnsatisfiableError("no total preorder satisfies the input set")
    top = flattest_maximum(satisfiers)
    return ClosureResult(tpo=top, closure=conditional_set(top))


def rational_closure_fast(t_contracted: Tpo, sentence_models: frozenset) -> Tpo:
    """Closure of (conditional set of ``t_contracted``) plus the sentence.

    The natural-revision shortcut that avoids the satisfier scan.  It
    agrees with the brute-force closure on every instance the
    contraction route can produce, i.e. whenever some minimal world of
    ``t_contracted`` satisfies the sentence; when none does, the closure
    input is unsatisfiable (the conditional set pins the belief set,
    which the added sentence contradicts) and no shortcut applies.
    """
    if not sentence_models:
        raise InconsistentInputError("input sentence has no models")
    return revise(t_contracted, sentence_models, Revision.NATURAL)


def rational_base(delta: MixedSet, n_atoms: int) -> Tpo | None:
    """The preorder whose minimal-world map the conditionals name, if any.

    The conditional part must map every nonempty antecedent proposition
    to that preorder's minimal worlds; the plain part is not consulted,
    so the set is exactly the preorder's conditional set iff the plain
    part is also its belief set.  Direct construction, O(4^n): a world's
    rank follows from how many worlds the two-world antecedents put
    strictly below it, and the candidate is then checked on every
    antecedent.
    """
    strongest = delta.strongest_map()
    required = propositions(n_atoms)
    if set(strongest) != set(required):
        return None
    n_worlds = 1 << n_atoms
    below = []
    for x in range(n_worlds):
        count = 0
        for y in range(n_worlds):
            if y != x and strongest[frozenset((x, y))] == frozenset((y,)):
                count += 1
        below.append(count)
    cells = []
    for key in sorted(set(below)):
        cells.append(frozenset(w for w in range(n_worlds) if below[w] == key))
    candidate = Tpo(tuple(cells), n_atoms)
    for p in required:
        if min_worlds(candidate, p) != strongest[p]:
            return None
    return candidate
