"""Total preorders over worlds, as ordered partitions.

A ``Tpo`` is an ordered list of disjoint nonempty world cells covering
the world set; cell index (1-based) is the rank, and lower rank means
more plausible.  ``x`` is at least as plausible as ``y`` exactly when
``rank(x) <= rank(y)``.

The module also carries everything the checker quantifies over: the
enumeration of all ordered partitions (with an index-based unranking so
parallel workers and samplers can restart the stream anywhere), the
input-derived ordering that places the sentence's models strictly below
its countermodels, the flatness order used by rational closure, and
order isomorphisms that respect a given input sentence.

Text form, bit-exact: cells lowest first, worlds as bit-strings sorted
ascending within a cell, cells separated by ``|``, e.g.
``00 | 11 | 01 10``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Union

from .exceptions import EmptyModelSetError, PartitionError
from .lang import MixedSet, Conditional, all_worlds, models, parse_world, world_str


@dataclass(frozen=True)
class Tpo:
    """Ordered partition of the 2^n_atoms worlds; validates on construction."""

    cells: tuple
    n_atoms: int

    def __post_init__(self):
        worlds = all_worlds(self.n_atoms)
        seen: set = set()
        for cell in self.cells:
            if not cell:
                raise PartitionError("empty cell")
            if not cell <= worlds:
                bad = sorted(cell - worlds)
                raise PartitionError(f"unknown worlds {bad}")
            if cell & seen:
                overlap = sorted(cell & seen)
                raise PartitionError(f"worlds {overlap} appear in more than one cell")
            seen |= cell
        if seen != worlds:
            missing = sorted(worlds - seen)
            missing_text = ", ".join(world_str(w, self.n_atoms) for w in missing)
            raise PartitionError(f"worlds not covered: {missing_text}")

    @property
    def rank(self) -> tuple:
        """1-based rank of each world, indexed by world."""
        cached = self.__dict__.get("_rank")
        if cached is None:
            ranks = [0] * (1 << self.n_atoms)
            for index, cell in enumerate(self.cells, start=1):
                for w in cell:
                    ranks[w] = index
            cached = tuple(ranks)
            object.__setattr__(self, "_rank", cached)
        return cached

    @property
    def world_set(self) -> frozenset:
        return all_worlds(self.n_atoms)

    def __str__(self) -> str:
        return format_tpo(self)


def format_tpo(t: Tpo) -> str:
    return " | ".join(
        " ".join(world_str(w, t.n_atoms) for w in sorted(cell)) for cell in t.cells
    )


def parse_tpo(text: str, n_atoms: int) -> Tpo:
    cells = []
    for chunk in text.split("|"):
        names = chunk.split()
        if not names:
            raise PartitionError(f"empty cell in {text!r}")
        try:
            cells.append(frozenset(parse_world(name, n_atoms) for name in names))
        except ValueError as exc:
            raise PartitionError(str(exc)) from None
    return Tpo(tuple(cells), n_atoms)


# ---------------------------------------------------------------------------
# States

@dataclass(frozen=True)
class Absurd:
    """The state whose belief set is the whole language."""

    n_atoms: int

    def __str__(self) -> str:
        return "absurd"


State = Union[Tpo, Absurd]


def beliefs(state: State) -> frozenset:
    """Model set of the state's belief set; empty for the absurd state."""
    if isinstance(state, Absurd):
        return frozenset()
    return state.cells[0]


# ---------------------------------------------------------------------------
# Basic order operations

def min_worlds(t: Tpo, s: Iterable[int]) -> frozenset:
    """The rank-minimal elements of ``s``; rejects the empty selection."""
    s = frozenset(s)
    if not s:
        raise EmptyModelSetError("minimisation over an empty world set")
    rank = t.rank
    best = min(rank[w] for w in s)
    return frozenset(w for w in s if rank[w] == best)


def flatter_eq(t1: Tpo, t2: Tpo) -> bool:
    """Whether ``t1`` is at least as flat as ``t2``.

    Equal cell lists qualify; otherwise the first cell where the two
    partitions differ must be strictly larger in ``t1``.  Shorter
    partitions are padded with trailing empty cells for the comparison.
    """
    length = max(len(t1.cells), len(t2.cells))
    empty: frozenset = frozenset()
    for i in range(length):
        a = t1.cells[i] if i < len(t1.cells) else empty
        b = t2.cells[i] if i < len(t2.cells) else empty
        if a != b:
            return a > b
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


def _first_cells(worlds: tuple) -> Iterator[tuple]:
    for size in range(1, len(worlds) + 1):
        yield from itertools.combinations(worlds, size)


def _ordered_partitions(worlds: tuple) -> Iterator[tuple]:
    if not worlds:
        yield ()
        return
    for first in _first_cells(worlds):
        chosen = frozenset(first)
        rest = tuple(w for w in worlds if w not in chosen)
        for tail in _ordered_partitions(rest):
            yield (chosen,) + tail


MAX_ENUMERATION_ATOMS = 3


def enumerate_tpos(n_atoms: int) -> Iterator[Tpo]:
    """Every Tpo over 2^n_atoms worlds exactly once, in a fixed order.

    First cells are tried by increasing size, lexicographically within a
    size, then the remainder is partitioned recursively; ``tpo_at_index``
    unranks the same order.  Capped at three atoms: beyond that the
    ordered-partition count is out of reach for any exhaustive use.
    """
    if n_atoms > MAX_ENUMERATION_ATOMS:
        raise ValueError(f"enumeration supports at most {MAX_ENUMERATION_ATOMS} atoms")
    for cells in _ordered_partitions(tuple(range(1 << n_atoms))):
        yield Tpo(cells, n_atoms)


def _unrank(index: int, worlds: tuple) -> tuple:
    if not worlds:
        if index != 0:
            raise IndexError("ordered-partition index out of range")
        return ()
    for first in _first_cells(worlds):
        tail_count = count_ordered_partitions(len(worlds) - len(first))
        if index < tail_count:
            chosen = frozenset(first)
            rest = tuple(w for w in worlds if w not in chosen)
            return (chosen,) + _unrank(index, rest)
        index -= tail_count
    raise IndexError("ordered-partition index out of range")


def tpo_at_index(index: int, n_atoms: int) -> Tpo:
    """The index-th Tpo of ``enumerate_tpos``; supports restartable streams."""
    if n_atoms > MAX_ENUMERATION_ATOMS:
        raise ValueError(f"enumeration supports at most {MAX_ENUMERATION_ATOMS} atoms")
    return Tpo(_unrank(index, tuple(range(1 << n_atoms))), n_atoms)


@lru_cache(maxsize=8)
def propositions(n_atoms: int) -> tuple:
    """All nonempty world sets, as frozensets, in mask order."""
    n_worlds = 1 << n_atoms
    out = []
    for mask in range(1, 1 << n_worlds):
        out.append(frozenset(w for w in range(n_worlds) if (mask >> w) & 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# Input-preserving order isomorphisms

def enumerate_a_preserving_isos(t1: Tpo, t2: Tpo, sentence_models: frozenset) -> list:
    """All bijections on W preserving both the preorders and the input order.

    A qualifying permutation must map the k-th cell of ``t1`` onto the
    k-th cell of ``t2`` and may not move a model of the sentence onto a
    countermodel or vice versa (unless the sentence is trivial).  The
    result lists each permutation as a tuple ``perm`` with ``perm[x]``
    the image of ``x``, in a fixed deterministic order; empty when no
    isomorphism exists.
    """
    if [len(c) for c in t1.cells] != [len(c) for c in t2.cells]:
        return []
    full = t1.world_set
    trivial = sentence_models == full or not sentence_models
    blocks = []  # (source worlds sorted, target worlds sorted)
    for c1, c2 in zip(t1.cells, t2.cells):
        if trivial:
            parts = [(sorted(c1), sorted(c2))]
        else:
            parts = [
                (sorted(c1 & sentence_models), sorted(c2 & sentence_models)),
                (sorted(c1 - sentence_models), sorted(c2 - sentence_models)),
            ]
        for source, target in parts:
            if len(source) != len(target):
                return []
            if source:
                blocks.append((source, target))
    perms = []
    n_worlds = len(full)
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

def conditional_holds(t: Tpo, cond: Conditional, atoms) -> bool:
    """Ramsey test against the preorder's revision dispositions.

    The conditional holds when the minimal antecedent worlds all satisfy
    the consequent; an inconsistent antecedent holds vacuously.
    """
    antecedent = models(cond.antecedent, atoms)
    if not antecedent:
        return True
    return min_worlds(t, antecedent) <= models(cond.consequent, atoms)


def conditional_set(t: Tpo) -> MixedSet:
    """Canonical conditional belief set of a preorder.

    Finite representation: each nonempty antecedent proposition is mapped
    to its minimal-world set, and the plain part is the belief set.  Two
    preorders have equal conditional sets exactly when they are equal.
    """
    pairs = frozenset((p, min_worlds(t, p)) for p in propositions(t.n_atoms))
    return MixedSet(
        plain_models=t.cells[0], cond_pairs=pairs, weakening_closed=True
    )
