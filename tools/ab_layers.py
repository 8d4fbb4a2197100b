"""Time two source trees of ``beliefchange`` in one process, as JSON.

Usage::

    python3 tools/ab_layers.py PARENT_SRC CHANGE_SRC

Each ``SRC`` is a directory holding a ``beliefchange`` package; both are
loaded under aliases.  Every round times each op once per tree, the
tree that goes first alternating between rounds, so the host's drift
falls on both sides alike; the garbage collector runs before each
reading, not during it.  The ops: building 2000 seeded three-atom
preorders from their cell masks; revising each by its seeded input under
the three built-in revisions; contracting each the same way under the
three contractions; ``tpo_at_index`` at the 2000 indices; one sampled
DP1 natural check at n=3 (10000 samples); one exhaustive Neut natural
check at n=2; ``verify_claim("T4")``.  Per op the output gives each
tree's median milliseconds, the change/parent ratio's median and
quartiles, and the rounds in which the change was faster.
"""

import gc
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROUNDS = 21
DRAWS = 2000


def _load(alias, src):
    package = Path(src) / "beliefchange"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = sys.modules[alias] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ops(bc, draws):
    tpo, ops, post = bc.tpo, bc.operators, bc.postulates
    built = [(tpo.tpo_at_index(i, 3), p) for i, p in draws]
    masks = [t.masks for t, _ in built]
    return {
        "construct": lambda: [tpo.Tpo(m, 3) for m in masks],
        "revise": lambda: [ops.revise(t, p, r) for t, p in built for r in ops.Revision],
        "contract": lambda: [ops.contract(t, p, c) for t, p in built for c in ops.Contraction],
        "tpo_at_index": lambda: [tpo.tpo_at_index(i, 3) for i, _ in draws],
        "DP1_n3_sampled": lambda: post.check_postulate(
            "DP1", ops.Revision.NATURAL, n_atoms=3, mode="sampled"
        ),
        "Neut_n2_exhaustive": lambda: post.check_postulate(
            "Neut", ops.Revision.NATURAL, n_atoms=2
        ),
        "T4": lambda: post.verify_claim("T4"),
    }


def main(parent_src, change_src):
    rng = random.Random(20)
    draws = [(rng.randrange(545835), rng.randrange(1, 255)) for _ in range(DRAWS)]
    sides = [
        _ops(_load(alias, src), draws)
        for alias, src in (("ab_parent", parent_src), ("ab_change", change_src))
    ]
    times = {op: ([], []) for op in sides[0]}
    for op in times:  # warm-up, untimed
        sides[0][op](), sides[1][op]()
    gc.disable()  # as timeit does: a collection would land on one side only
    for r in range(ROUNDS):
        for op, readings in times.items():
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                gc.collect()
                start = time.perf_counter()
                sides[side][op]()
                readings[side].append((time.perf_counter() - start) * 1e3)
    gc.enable()
    out = {}
    for op, (parent, change) in times.items():
        ratios = [c / p for p, c in zip(parent, change)]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        out[op] = {
            "parent_ms": round(statistics.median(parent), 3),
            "change_ms": round(statistics.median(change), 3),
            "ratio_median": round(median, 3),
            "ratio_q1": round(q1, 3),
            "ratio_q3": round(q3, 3),
            "rounds_won": sum(c < p for p, c in zip(parent, change)),
        }
    print(json.dumps({"rounds": ROUNDS, "ops": out}, indent=2))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
