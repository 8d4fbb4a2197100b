"""Preorder helpers shared by the tests: the rank view of a preorder, for
tests that compare worlds by rank, and one three-atom preorder per
composition."""

import random

from beliefchange.tpo import Tpo


def rank(t) -> tuple:
    """1-based rank of each world of the preorder ``t``, indexed by world."""
    ranks = [0] * (1 << t.n_atoms)
    for index, mask in enumerate(t.masks, start=1):
        for w in range(len(ranks)):
            if mask >> w & 1:
                ranks[w] = index
    return tuple(ranks)


def one_per_three_atom_composition():
    """One preorder per composition of the eight worlds, its cells cut
    from a seeded order of the worlds."""
    rng = random.Random(30)
    for cuts in range(1 << 7):
        worlds = rng.sample(range(8), 8)
        cells, cell = [], 0
        for i, w in enumerate(worlds):
            cell |= 1 << w
            if i == 7 or cuts >> i & 1:
                cells.append(cell)
                cell = 0
        yield Tpo(cells, 3)
