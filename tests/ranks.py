"""The rank view of a preorder, for tests that compare worlds by rank."""


def rank(t) -> tuple:
    """1-based rank of each world of the preorder ``t``, indexed by world."""
    ranks = [0] * (1 << t.n_atoms)
    for index, mask in enumerate(t.masks, start=1):
        for w in range(len(ranks)):
            if mask >> w & 1:
                ranks[w] = index
    return tuple(ranks)
