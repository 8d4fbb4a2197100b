"""The benchmark's own model of preorders, written apart from the program.

Closure files are generated, and closure answers judged, with this
module only, so a defect in the program's ``lang``, ``tpo`` or
``conditionals`` cannot hide itself by also producing the expected
answer.  Worlds are integers whose binary digits, most significant
first, are the truth values of the atoms in declared order; a preorder
is a tuple of disjoint frozensets of worlds, most plausible cell first.
"""

from __future__ import annotations

import random

ATOMS = ("p", "q", "r")
N_ATOMS = len(ATOMS)
WORLDS = tuple(range(1 << N_ATOMS))
ALL = frozenset(WORLDS)
# Every nonempty proposition, in mask order.
PROPOSITIONS = tuple(
    frozenset(w for w in WORLDS if (mask >> w) & 1) for mask in range(1, 1 << len(WORLDS))
)


def world_text(w: int) -> str:
    return format(w, f"0{N_ATOMS}b")


def format_tpo(cells) -> str:
    return " | ".join(" ".join(world_text(w) for w in sorted(cell)) for cell in cells)


def parse_tpo(text: str) -> tuple:
    return tuple(frozenset(int(name, 2) for name in chunk.split()) for chunk in text.split("|"))


def render_dnf(worlds) -> str:
    """Disjunction of one full conjunction per world, worlds ascending."""
    terms = []
    for w in sorted(worlds):
        bits = world_text(w)
        terms.append(" & ".join(a if b == "1" else "~" + a for a, b in zip(ATOMS, bits)))
    return " | ".join(terms)


def parse_dnf(text: str) -> frozenset:
    """Model set of a formula written by ``render_dnf``."""
    out = set()
    for term in text.split("|"):
        literals = [lit.strip() for lit in term.split("&")]
        if len(literals) != N_ATOMS:
            raise ValueError(f"not a full conjunction: {term!r}")
        bits = "".join("0" if lit.startswith("~") else "1" for lit in literals)
        names = tuple(lit.lstrip("~") for lit in literals)
        if names != ATOMS:
            raise ValueError(f"unexpected atoms in {term!r}")
        out.add(int(bits, 2))
    return frozenset(out)


def parse_closure_file(text: str):
    """(plain models, [(antecedent, consequent)], generating preorder)."""
    plain = ALL
    conds = []
    generator = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("# generating preorder:"):
            generator = parse_tpo(line.partition(":")[2])
        if not line or line.startswith("#"):
            continue
        if "=>" in line:
            a, _, b = line.partition("=>")
            conds.append((parse_dnf(a), parse_dnf(b)))
        else:
            plain = plain & parse_dnf(line)
    return plain, conds, generator


def minimal(cells, s) -> frozenset:
    for cell in cells:
        hit = cell & s
        if hit:
            return hit
    return frozenset()


def satisfies(cells, plain, conds) -> bool:
    """Plain part holds in all minimal worlds; minimal A-worlds are B-worlds."""
    if not cells[0] <= plain:
        return False
    return all(not a or minimal(cells, a) <= b for a, b in conds)


def flatter_eq(c1, c2) -> bool:
    """First differing cell is strictly larger in ``c1`` (or no difference)."""
    for i in range(max(len(c1), len(c2))):
        a = c1[i] if i < len(c1) else frozenset()
        b = c2[i] if i < len(c2) else frozenset()
        if a != b:
            return a > b
    return True


def natural_revision(cells, s) -> tuple:
    low = minimal(cells, s)
    return (low,) + tuple(c - low for c in cells if c - low)


def system_z(plain, conds):
    """Pearl's System Z ranking of the set, or None when it is inconsistent.

    The plain part is the rule ``true => plain``.  Rules are split into
    tolerance levels; a world's rank is 0 when it falsifies no rule and
    otherwise 1 + the highest level of a rule it falsifies.  That ranking
    is pointwise minimal among the satisfiers, so it is also the flattest.
    """
    rules = [(ALL, plain)] + [(a, b) for a, b in conds if a]
    level = {}
    remaining = list(range(len(rules)))
    z = 0
    while remaining:
        def respects_all(w):
            return all(w not in rules[j][0] or w in rules[j][1] for j in remaining)

        tolerated = [
            i for i in remaining
            if any(respects_all(w) for w in rules[i][0] & rules[i][1])
        ]
        if not tolerated:
            return None
        for i in tolerated:
            level[i] = z
        remaining = [i for i in remaining if i not in level]
        z += 1
    rank = {}
    for w in WORLDS:
        broken = [level[i] for i, (a, b) in enumerate(rules) if w in a and w not in b]
        rank[w] = 1 + max(broken) if broken else 0
    return tuple(
        frozenset(w for w in WORLDS if rank[w] == k) for k in sorted(set(rank.values()))
    )


def random_tpo(rng: random.Random, first=None) -> tuple:
    """A seeded random preorder; ``first`` forces a singleton first cell."""
    rest = [w for w in WORLDS if w != first]
    levels = {w: rng.randrange(len(rest)) for w in rest}
    cells = tuple(
        frozenset(w for w in rest if levels[w] == k) for k in sorted(set(levels.values()))
    )
    return ((frozenset((first,)),) if first is not None else ()) + cells


def random_subset(rng: random.Random, pool) -> frozenset:
    return frozenset(w for w in sorted(pool) if rng.random() < 0.5)
