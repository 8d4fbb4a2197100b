"""Total preorders over worlds, as ordered partitions.

A ``Tpo`` is an ordered list of disjoint nonempty world cells covering
the world set; cell index (1-based) is the rank, and lower rank means
more plausible.  ``x`` is at least as plausible as ``y`` exactly when
``rank(x) <= rank(y)``.

A cell, like every world set (see ``lang``), is an int mask with bit
``w`` set for world ``w``.  A preorder is the validated pair
``(masks, n_atoms)``: a named tuple of its cell masks and its atom
count, 1 to 4, built by ``Tpo(masks, n_atoms)`` and checked by
``Tpo.__post_init__`` on every route to an instance (``_make``,
``_replace``, ``copy`` and unpickling included), so there is no
unchecked one.  It equals the plain tuple ``(masks, n_atoms)``, hashes
like it, iterates as that pair and orders lexicographically.  The
operators, ``min_worlds`` and the enumeration all work on masks.

The module also carries everything the checker quantifies over: the
enumeration of all ordered partitions (with an index-based unranking so
parallel workers and samplers can restart the stream anywhere), the
input-derived ordering that places the sentence's models strictly below
its countermodels, the flatness order used by rational closure, and
order isomorphisms that respect a given input sentence.

Conditional beliefs take masks too: ``conditional_holds(t, a, b)`` is
the Ramsey test of ``A => B`` for the model sets ``a`` and ``b``, and
``conditional_set`` gives a preorder's conditionals as mask pairs.

Text form, bit-exact: cells lowest first, worlds as bit-strings sorted
ascending within a cell, cells separated by ``|``, e.g.
``00 | 11 | 01 10``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Union

from .exceptions import EmptyModelSetError, PartitionError
from .lang import _WORLDS, MAX_ATOMS, MixedSet, all_worlds, parse_world, world_str


# ---------------------------------------------------------------------------
# Cell masks


def _input_mask(mask: int, n_atoms: int) -> int:
    """An input world mask, checked: a nonnegative int with no bit beyond
    the world set."""
    if type(mask) is not int or mask < 0 or mask & ~all_worlds(n_atoms):
        raise ValueError("input models outside this preorder's world set")
    return mask


def _min_mask(masks: tuple, mask: int) -> int:
    """The rank-minimal part of a nonempty world mask."""
    for cell in masks:
        hit = cell & mask
        if hit:
            return hit
    raise EmptyModelSetError("minimisation over an empty world set")


_FULL = {n: all_worlds(n) for n in range(1, MAX_ATOMS + 1)}  # atom count: its world mask


def _atom_count(n_atoms) -> int:
    """An atom count, checked: an int from 1 to 4."""
    if type(n_atoms) is not int or n_atoms not in _FULL:  # not True or 2.0
        raise PartitionError(f"atom count {n_atoms!r} is not 1 to {MAX_ATOMS}")
    return n_atoms


class Tpo(namedtuple("Tpo", "masks n_atoms")):
    """Ordered partition of the 2^n_atoms worlds; validates on construction.

    A preorder is the validated pair ``(masks, n_atoms)``: ``masks`` holds
    one int per cell, lowest rank first, bit ``w`` set for world ``w``,
    and ``n_atoms`` is 1 to 4.  Equality, hash, order, repr and the
    refusal of assignment are the tuple's, so a ``Tpo`` equals the plain
    tuple ``(masks, n_atoms)``.  Every route to an instance (the
    constructor, ``_make``, ``_replace``, ``copy``, unpickling) runs
    ``__post_init__``; there is no unchecked one.
    """

    __slots__ = ()

    def __new__(cls, masks: Iterable[int], n_atoms: int):
        self = tuple.__new__(cls, (tuple(masks), n_atoms))
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, and so _replace, would skip the check
        return cls(*iterable)

    def __reduce__(self):
        # pickle protocols 0 and 1 would rebuild through tuple.__new__ and skip the check
        return Tpo, tuple(self)

    def __post_init__(self):
        """Accept nonempty disjoint cells covering the world set, else raise."""
        masks, n_atoms = self
        seen = 0
        try:
            for mask in masks:
                if not mask or mask & seen:
                    break
                seen |= mask
            else:
                if seen == _FULL.get(n_atoms) and type(n_atoms) is int:  # not True or 2.0
                    return
        except TypeError:  # a cell that is no int, or an unhashable atom count
            pass
        self._reject()

    def _reject(self):
        """Raise the error for the first fault, in cell order."""
        n_atoms = _atom_count(self.n_atoms)
        full = _FULL[n_atoms]
        seen = 0
        for mask in self.masks:
            if type(mask) is not int or mask < 0:
                raise PartitionError(f"cell {mask!r} is not a world mask")
            if not mask:
                raise PartitionError("empty cell")
            if mask & ~full:
                raise PartitionError(f"unknown worlds {list(_WORLDS[mask & ~full])}")
            if mask & seen:
                overlap = list(_WORLDS[mask & seen])
                raise PartitionError(f"worlds {overlap} appear in more than one cell")
            seen |= mask
        missing_text = ", ".join(world_str(w, n_atoms) for w in _WORLDS[full & ~seen])
        raise PartitionError(f"worlds not covered: {missing_text}")

    def __str__(self) -> str:
        return format_tpo(self)


def format_tpo(t: Tpo) -> str:
    n = t.n_atoms
    return " | ".join(" ".join(world_str(w, n) for w in _WORLDS[mask]) for mask in t.masks)


def parse_tpo(text: str, n_atoms: int) -> Tpo:
    masks = []
    for chunk in text.split("|"):
        names = chunk.split()
        if not names:
            raise PartitionError(f"empty cell in {text!r}")
        mask = 0
        for name in names:
            try:
                world = 1 << parse_world(name, n_atoms)
            except ValueError as exc:
                raise PartitionError(str(exc)) from None
            if mask & world:
                raise PartitionError(f"world {name} listed twice in one cell")
            mask |= world
        masks.append(mask)
    return Tpo(masks, n_atoms)


# ---------------------------------------------------------------------------
# States

class Absurd(namedtuple("Absurd", "n_atoms")):
    """The state whose belief set is the whole language; its atom count
    is checked like a preorder's, on every route to an instance: as in
    ``Tpo``, ``_make`` (so ``_replace``) and ``__reduce__`` (so ``copy``
    and every pickle protocol) rebuild through the constructor."""

    __slots__ = ()

    def __new__(cls, n_atoms: int):
        return tuple.__new__(cls, (_atom_count(n_atoms),))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return Absurd, tuple(self)

    def __str__(self) -> str:
        return "absurd"


State = Union[Tpo, Absurd]


def beliefs(state: State) -> int:
    """World mask of the state's belief set; empty for the absurd state."""
    if isinstance(state, Absurd):
        return 0
    return state.masks[0]


# ---------------------------------------------------------------------------
# Basic order operations

def min_worlds(t: Tpo, s: int) -> int:
    """The rank-minimal worlds of the mask ``s``; rejects the empty
    selection and anything but a mask of the preorder's world set."""
    return _min_mask(t.masks, _input_mask(s, t.n_atoms))


def flatter_eq(t1: Tpo, t2: Tpo) -> bool:
    """Whether ``t1`` is at least as flat as ``t2``.

    Equal cell lists qualify; otherwise the first cell where the two
    partitions differ must be strictly larger in ``t1``.  Shorter
    partitions are padded with trailing empty cells for the comparison.
    """
    m1, m2 = t1.masks, t2.masks
    for i in range(max(len(m1), len(m2))):
        a = m1[i] if i < len(m1) else 0
        b = m2[i] if i < len(m2) else 0
        if a != b:
            return a & b == b
    return True


# ---------------------------------------------------------------------------
# Enumeration of all total preorders

@lru_cache(maxsize=None)
def count_ordered_partitions(n_elements: int) -> int:
    """Number of ordered set partitions of an n-element set."""
    if n_elements == 0:
        return 1
    return sum(
        comb(n_elements, j) * count_ordered_partitions(n_elements - j)
        for j in range(1, n_elements + 1)
    )


def count_tpos(n_atoms: int) -> int:
    return count_ordered_partitions(1 << n_atoms)


def _ordered_partitions(bits: tuple) -> Iterator[tuple]:
    """Cell-mask tuples of every ordered partition of the worlds in
    ``bits`` (one single-world mask each): first cells by increasing
    size, lexicographically within a size, then the rest recursively."""
    if not bits:
        yield ()
        return
    for size in range(1, len(bits) + 1):
        for chosen in itertools.combinations(bits, size):
            first = sum(chosen)
            rest = tuple(b for b in bits if not b & first)
            for tail in _ordered_partitions(rest):
                yield (first,) + tail


MAX_ENUMERATION_ATOMS = 3


def _world_bits(n_atoms: int) -> tuple:
    if n_atoms > MAX_ENUMERATION_ATOMS:
        raise ValueError(f"enumeration supports at most {MAX_ENUMERATION_ATOMS} atoms")
    return tuple(1 << w for w in range(1 << n_atoms))


def enumerate_tpos(n_atoms: int) -> Iterator[Tpo]:
    """Every Tpo over 2^n_atoms worlds exactly once, in a fixed order.

    First cells are tried by increasing size, lexicographically within a
    size, then the remainder is partitioned recursively; ``tpo_at_index``
    unranks the same order.  Capped at three atoms: beyond that the
    ordered-partition count is out of reach for any exhaustive use.
    """
    bits = _world_bits(n_atoms)
    for masks in _ordered_partitions(bits):
        yield Tpo(masks, n_atoms)


def _unrank(index: int, bits: tuple) -> tuple:
    """Cell masks of the index-th ordered partition of ``_ordered_partitions``."""
    if index < 0:
        raise IndexError("ordered-partition index out of range")
    masks = []
    while bits:
        for size in range(1, len(bits) + 1):
            tail_count = count_ordered_partitions(len(bits) - size)
            group = comb(len(bits), size) * tail_count
            if index < group:
                break
            index -= group
        else:
            raise IndexError("ordered-partition index out of range")
        position, index = divmod(index, tail_count)
        first = sum(next(itertools.islice(itertools.combinations(bits, size), position, None)))
        masks.append(first)
        bits = tuple(b for b in bits if not b & first)
    return tuple(masks)


def tpo_at_index(index: int, n_atoms: int) -> Tpo:
    """The index-th Tpo of ``enumerate_tpos``; supports restartable streams."""
    return Tpo(_unrank(index, _world_bits(n_atoms)), n_atoms)


def propositions(n_atoms: int) -> range:
    """All nonempty world masks, ascending."""
    return range(1, all_worlds(n_atoms) + 1)


# ---------------------------------------------------------------------------
# Input-preserving order isomorphisms

def _a_preserving_isos(masks1: tuple, masks2: tuple, sentence_models: int, n_worlds: int) -> list:
    """All bijections on W preserving both preorders, given as cell lists
    of equal sizes, and the input order.

    A qualifying permutation must map the k-th cell of ``masks1`` onto
    the k-th cell of ``masks2`` and may not move a model of the sentence
    onto a countermodel or vice versa (unless the sentence is trivial).
    The result lists each permutation as a tuple ``perm`` with ``perm[x]``
    the image of ``x``, in a fixed deterministic order; empty when no
    isomorphism exists.
    """
    blocks = []  # (source worlds ascending, target worlds ascending)
    for c1, c2 in zip(masks1, masks2):
        inside1, inside2 = c1 & sentence_models, c2 & sentence_models
        if inside1.bit_count() != inside2.bit_count():
            return []
        for source, target in ((inside1, inside2), (c1 & ~sentence_models, c2 & ~sentence_models)):
            if source:
                blocks.append((_WORLDS[source], _WORLDS[target]))
    perms = []
    for choice in itertools.product(
        *(itertools.permutations(target) for _, target in blocks)
    ):
        mapping = [0] * n_worlds
        for (source, _), images in zip(blocks, choice):
            for w, image in zip(source, images):
                mapping[w] = image
        perms.append(tuple(mapping))
    return perms


# ---------------------------------------------------------------------------
# Conditional beliefs

def conditional_holds(t: Tpo, antecedent: int, consequent: int) -> bool:
    """Ramsey test against the preorder's revision dispositions.

    The conditional ``antecedent => consequent``, given as world masks,
    holds when the minimal antecedent worlds all satisfy the consequent;
    an inconsistent antecedent holds vacuously.
    """
    if not antecedent:
        return True
    return not min_worlds(t, antecedent) & ~consequent


def conditional_set(t: Tpo) -> MixedSet:
    """Canonical conditional belief set of a preorder.

    Finite representation: each nonempty antecedent proposition is mapped
    to its minimal-world set, and the plain part is the belief set.  Two
    preorders have equal conditional sets exactly when they are equal.
    """
    masks = t.masks
    pairs = frozenset((p, _min_mask(masks, p)) for p in propositions(t.n_atoms))
    return MixedSet(plain_models=masks[0], cond_pairs=pairs, weakening_closed=True)
