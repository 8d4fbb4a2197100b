"""Rational closure over finite preorders.

The closure of a mixed set is its System Z ranking (Pearl 1990, TARK;
Lehmann & Magidor 1992).  The plain part counts as the conditional
``true => plain``, and each nonempty antecedent as one rule with its
strongest listed consequent.  The rules are split into tolerance levels:
at each level, the rules that some world verifies while falsifying no
rule still in play make up the level and leave play; a level with no
such rule makes the set unsatisfiable.  A world's rank is 0, or one
more than the highest level of a rule it falsifies.  That ranking is
pointwise minimal among the rankings satisfying the set, so its cells,
with empty ranks squeezed out, are the flattest satisfier: at least as
flat as every other satisfying preorder under the first-difference cell
containment order.  A satisfiable set therefore always has one.

Model sets are world masks here as everywhere in the package, so the
plain part and every rule enter the tolerance partition as they are.

The brute-force route stays as the oracle at up to two atoms:
``flattest_satisfier`` scans a pool of preorders for the satisfiers and
returns the one at least as flat as every other, raising
``NoMaximumError`` when there is none.  The tests compare it with the
System Z route.

For sets of the contract-then-add-input shape there is also a fast
path: naturally revising the contracted preorder by the added sentence
yields the same closure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exceptions import (
    NoMaximumError,
    ScopeError,
    UnsatisfiableError,
)
from .lang import MAX_ATOMS, MixedSet, all_worlds
from .operators import Revision, revise
from .tpo import Tpo, flatter_eq, min_worlds, propositions


def satisfies(t: Tpo, delta: MixedSet) -> bool:
    """Whether every member of the set holds in the preorder.

    Plain sentences must hold in all minimal worlds; each conditional's
    minimal antecedent worlds must satisfy its consequent (vacuously so
    for inconsistent antecedents).  Only the strongest consequent per
    antecedent needs checking.
    """
    return _satisfies(t, delta.plain_models, delta.strongest_map())


def _satisfies(t: Tpo, plain: int, strongest: dict) -> bool:
    """``satisfies`` on the set's plain models and strongest map."""
    if t.masks[0] & ~plain:
        return False
    for antecedent, consequent in strongest.items():
        if antecedent and min_worlds(t, antecedent) & ~consequent:
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


def flattest_satisfier(delta: MixedSet, pool: Iterable[Tpo]) -> Tpo:
    """Brute-force closure: the flattest preorder of ``pool`` satisfying the set.

    The oracle for ``rational_closure``; the answer is the closure only
    when ``pool`` holds every preorder over the atoms.
    """
    plain, strongest = delta.plain_models, delta.strongest_map()
    satisfiers = [t for t in pool if _satisfies(t, plain, strongest)]
    if not satisfiers:
        raise UnsatisfiableError("no total preorder satisfies the input set")
    return flattest_maximum(satisfiers)


def rational_closure(delta: MixedSet, n_atoms: int) -> Tpo:
    """Flattest satisfying preorder of a mixed set, by System Z.

    Each rule is kept as the pair (worlds verifying it, worlds
    falsifying it).
    """
    if n_atoms > MAX_ATOMS:
        raise ScopeError(f"closure supports at most {MAX_ATOMS} atoms")
    full = all_worlds(n_atoms)
    rules = [(full, delta.plain_models)]
    rules.extend((a, b) for a, b in delta.strongest_map().items() if a)
    remaining = [(a & b, a & ~b) for a, b in rules]
    falsified = []  # per level, the worlds falsifying a rule of that level
    while remaining:
        clean = full
        for _, bad in remaining:
            clean &= ~bad
        level = 0
        rest = []
        for good, bad in remaining:
            if good & clean:
                level |= bad
            else:
                rest.append((good, bad))
        if len(rest) == len(remaining):
            raise UnsatisfiableError("no total preorder satisfies the input set")
        falsified.append(level)
        remaining = rest
    # a world's cell is the highest level it falsifies, or the bottom cell
    masks = []
    above = 0  # the worlds falsifying a rule of a higher level
    for level in reversed(falsified):
        masks.append(level & ~above)
        above |= level
    masks.append(full & ~above)
    return Tpo([mask for mask in reversed(masks) if mask], n_atoms)


def rational_closure_fast(t_contracted: Tpo, sentence_models: int) -> Tpo:
    """Closure of (conditional set of ``t_contracted``) plus the sentence.

    The natural-revision shortcut.  It agrees with the closure on every
    instance the contraction route can produce, i.e. whenever some
    minimal world of ``t_contracted`` satisfies the sentence; when none
    does, the closure input is unsatisfiable (the conditional set pins
    the belief set, which the added sentence contradicts) and no
    shortcut applies.  An empty sentence raises ``revise``'s
    ``InconsistentInputError``.
    """
    return revise(t_contracted, sentence_models, Revision.NATURAL)


def rational_base(delta: MixedSet, n_atoms: int) -> Tpo | None:
    """The preorder whose minimal-world map the conditionals name, if any.

    The conditional part must map every nonempty antecedent proposition
    to that preorder's minimal worlds; the plain part is not consulted,
    so the set is exactly the preorder's conditional set iff the plain
    part is also its belief set.  Direct construction by peeling minima:
    the bottom cell is the strongest consequent of the whole world set,
    the next cell that of the worlds left, and so on, at most W lookups
    for W worlds; a consequent that is empty or leaves the worlds left
    names no preorder.  The candidate is then checked on every
    antecedent.
    """
    strongest = delta.strongest_map()
    n_worlds = 1 << n_atoms
    if len(strongest) != (1 << n_worlds) - 1:
        return None  # too few antecedents, without building them all
    required = propositions(n_atoms)
    if set(strongest) != set(required):
        return None
    masks, left = [], all_worlds(n_atoms)
    while left:
        cell = strongest[left]
        if not cell or cell & ~left:
            return None
        masks.append(cell)
        left &= ~cell
    candidate = Tpo(masks, n_atoms)
    for p in required:
        if min_worlds(candidate, p) != strongest[p]:
            return None
    return candidate
