"""Per-layer timings of the preorder and operator layers, as JSON.

Times, on the ``beliefchange`` package found on ``sys.path``:

* one ``revise`` call at three atoms (mean over 2000 seeded (preorder,
  input) draws, each revised by all three built-in revisions);
* one ``contract`` call, the same way with the three contractions;
* one ``_merge_masks`` call, the synchronized-minima merge that
  ``contract`` runs on cell masks (mean over 2000 seeded preorder
  pairs);
* 1000 calls of ``tpo_at_index(., 3)`` at seeded indices;
* one full ``enumerate_tpos(3)``;
* one postulate scan of one outer at three atoms, as a sampled check
  runs it: ``_scan(_Ctx(3, rev, con), _POSTULATES[id], [outer],
  clear=True)``, mean over 20 seeded preorders (preorder pairs for
  IIAP and Neut, each a row of its own), for DP1 natural, NLI natural +
  ``contract-stq-lex``, IIAI natural, IIAP natural, Beta1 natural, Neut
  natural, IIAI under ``contract-stq-lex`` then natural revision, and CR4
  natural + ``contract-stq-lex``; Neut's pairs are each preorder with a
  seeded permutation of its worlds, so the two share a composition and
  the isomorphism path runs; IIAI under the composition and CR4 fail on
  most preorders there, so their scans pay for the violation count and
  for the witnesses, which ``gen`` reads from the orders the count
  computed;
* one exhaustive failing check at two atoms:
  ``check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX,
  n_atoms=2)``, whose witness outers reuse the orders of their count;
* the exhaustive pair scans at two atoms, ``check_postulate("IIAP",
  Revision.NATURAL, n_atoms=2)`` and the same for Neut, which count one
  whole row of preorder pairs per composition;
* one claim: ``verify_claim("T1", 2)``, the ten elementarity postulates
  for the three built-in revisions and the six diagram scans;
* the six diagram scans alone, ``check_diagram(d, 2)`` for d in a-f,
  which count one preorder per composition;
* one claim: ``verify_claim("P2", 2)``, which contracts, builds
  conditional sets and tests membership in them for every two-atom
  preorder and input, and keeps no cache between calls;
* one claim: ``verify_claim("T3", 2)`` with ``pair_profile``'s cache
  cleared first, so it decides NLI, CR1-4, SPU and WPU for all nine
  built-in operator pairs;
* ``pair_profile(2)`` alone, its cache cleared first;
* the candidate table of the random DP revisions,
  ``_dp_posterior_candidates(2)``, its cache cleared first;
* one claim: ``verify_claim("L_flattest", 2)``, which compares each
  natural revision with every satisfier that keeps the prior's strict
  preferences;
* one full check: ``check_postulate("DP1", Revision.NATURAL, n_atoms=3,
  mode="sampled")`` at the default 10000 samples and one worker, as
  ``check DP1 natural --n 3 --mode sampled`` runs it, and the same check
  at ``workers=2``, which runs its first job in process and forks one
  child for the second;
* one check the size of a ``sampled-cross`` benchmark op:
  ``check_postulate("IIAI", Revision.NATURAL, n_atoms=3,
  mode="sampled", seed=1, sample=6)`` at ``workers=1`` and at
  ``workers=2``, where the fixed cost of starting the second job shows;
* one closure query at three atoms: ``parse_conditional_set`` plus
  ``closure_answer`` on a fast-path file (a seeded preorder's full
  conditional set, 255 ``A => B`` lines, plus its belief set as the
  plain part), mean over 10 seeded files;
* one parse at four atoms: ``parse_conditional_set`` on the first 3000
  lines (``A => B``, in proposition order) of the full conditional set
  of one seeded 4-atom preorder.

Each layer is timed ``RUNS`` times in this process after one warm-up
pass; the output gives every reading and their median.  Preorders are
built before timing starts.  Before each reading a fixed pure-Python
loop of int, tuple and dict work is timed too (``reference_loop_ms``),
and each layer also gives its median time per call divided by that
loop's median time (``per_reference``).  The host's speed drifts
between processes, so two source trees compare by that ratio.  Run it
once per source tree::

    PYTHONPATH=src python3 tools/bench_layers.py
"""

from __future__ import annotations

import json
import random
import statistics
import time
from functools import partial

from beliefchange.cli import closure_answer, parse_conditional_set
from beliefchange.lang import all_worlds, dnf_of_worlds
from beliefchange.operators import Contraction, Revision, _merge_masks, contract, revise
from beliefchange.postulates import (
    _POSTULATES,
    DIAGRAM_IDS,
    _Ctx,
    _NliComposition,
    _dp_posterior_candidates,
    _scan,
    check_diagram,
    check_postulate,
    pair_profile,
    verify_claim,
)
from beliefchange.tpo import (
    Tpo,
    count_tpos,
    enumerate_tpos,
    min_worlds,
    propositions,
    tpo_at_index,
)

DRAWS = 2000
RUNS = 5
SCANS = 20
CLOSURES = 10
ATOMS = ("p", "q", "r")
PARSE_LINES = 3000
ATOMS4 = ("p", "q", "r", "s")


def _per_call(fn, calls):
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) / calls


def _reference_loop() -> int:
    """Fixed pure-Python work that no source tree changes."""
    memo = {}
    total = 0
    for i in range(100_000):
        key = (i & 1023, i >> 10)
        memo[key] = memo.get(key, 0) + (i * 2654435761 & 0xFFFF).bit_count()
        total += len(memo)
    return total


def _permuted(t, rng) -> Tpo:
    """The preorder with its worlds moved by a seeded permutation."""
    image = list(range(1 << t.n_atoms))
    rng.shuffle(image)
    moved = (sum(1 << image[w] for w in range(len(image)) if c >> w & 1) for c in t.masks)
    return Tpo(tuple(moved), t.n_atoms)


def _fast_path_file(t) -> str:
    """A preorder's full conditional set plus its belief set, as file text."""
    props = propositions(3)
    lines = [
        f"{dnf_of_worlds(p, ATOMS)} => {dnf_of_worlds(min_worlds(t, p), ATOMS)}"
        for p in props
    ]
    lines.append(dnf_of_worlds(min_worlds(t, props[-1]), ATOMS))  # the belief set
    return "\n".join(lines) + "\n"


def _conditional_lines(t, atoms, limit) -> str:
    """The first ``limit`` lines of a preorder's full conditional set."""
    lines = [
        f"{dnf_of_worlds(p, atoms)} => {dnf_of_worlds(min_worlds(t, p), atoms)}"
        for p in propositions(len(atoms))[:limit]
    ]
    return "\n".join(lines) + "\n"


def main() -> None:
    rng = random.Random(2019)
    total = count_tpos(3)
    props = propositions(3)
    pool = [tpo_at_index(rng.randrange(total), 3) for _ in range(200)]
    inputs = [(rng.choice(pool), rng.choice(props)) for _ in range(DRAWS)]
    pairs = [(rng.choice(pool).masks, rng.choice(pool).masks) for _ in range(DRAWS)]
    indices = [rng.randrange(total) for _ in range(1000)]
    outers = [tpo_at_index(rng.randrange(total), 3) for _ in range(SCANS)]
    outer_pairs = [(rng.choice(outers), rng.choice(outers)) for _ in range(SCANS)]
    files = [_fast_path_file(tpo_at_index(rng.randrange(total), 3)) for _ in range(CLOSURES)]
    isomorphic_pairs = [(t, _permuted(t, rng)) for t in outers]
    rng4 = random.Random(4)
    rank = [rng4.randrange(16) for _ in range(16)]  # a seeded rank per world
    t4 = Tpo(tuple(sum(1 << w for w in range(16) if rank[w] == r) for r in sorted(set(rank))), 4)
    parse_text = _conditional_lines(t4, ATOMS4, PARSE_LINES)

    def revisions():
        for t, p in inputs:
            for method in Revision:
                revise(t, p, method)

    def contractions():
        for t, p in inputs:
            for method in Contraction:
                contract(t, p, method)

    def merges():
        full = all_worlds(3)
        for a, b in pairs:
            _merge_masks(a, b, full)

    def unranks():
        for index in indices:
            tpo_at_index(index, 3)

    def enumeration():
        for _ in enumerate_tpos(3):
            pass

    def scans(postulate, rev, con=None, pairs=outer_pairs):
        spec = _POSTULATES[postulate]
        pool = [(t, (u,), False) for t, u in pairs] if spec.pair_outer else outers

        def run():
            for outer in pool:
                _scan(_Ctx(3, rev, con), spec, [outer], clear=True)

        return run

    def diagrams():
        for d in DIAGRAM_IDS:
            check_diagram(d, 2)

    def claim(name="P2"):
        verify_claim(name, 2)

    def equivalence():
        pair_profile.cache_clear()
        verify_claim("T3", 2)

    def profile():
        pair_profile.cache_clear()
        pair_profile(2)

    def dp_candidates():
        _dp_posterior_candidates.cache_clear()
        _dp_posterior_candidates(2)

    def failing_check():
        check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)

    def pair_check(postulate):
        check_postulate(postulate, Revision.NATURAL, n_atoms=2)

    def default_check(workers=1):
        check_postulate("DP1", Revision.NATURAL, n_atoms=3, mode="sampled", workers=workers)

    def small_check(workers):
        check_postulate(
            "IIAI", Revision.NATURAL, n_atoms=3, mode="sampled", seed=1, sample=6,
            workers=workers,
        )

    def closures():
        for text in files:
            closure_answer(parse_conditional_set(text, ATOMS), 3)

    def parse():
        parse_conditional_set(parse_text, ATOMS4)

    layers = {
        "revise_call_us": (revisions, 3 * DRAWS, 1e6),
        "contract_call_us": (contractions, 3 * DRAWS, 1e6),
        "merge_masks_call_us": (merges, DRAWS, 1e6),
        "tpo_at_index_x1000_ms": (unranks, 1, 1e3),
        "enumerate_tpos_3_s": (enumeration, 1, 1.0),
        "scan_DP1_natural_ms": (scans("DP1", Revision.NATURAL), SCANS, 1e3),
        "scan_NLI_natural_stq_lex_ms": (
            scans("NLI", Revision.NATURAL, Contraction.STQ_LEX),
            SCANS,
            1e3,
        ),
        "scan_IIAI_natural_ms": (scans("IIAI", Revision.NATURAL), SCANS, 1e3),
        "scan_IIAP_natural_ms": (scans("IIAP", Revision.NATURAL), SCANS, 1e3),
        "scan_Beta1_natural_ms": (scans("Beta1", Revision.NATURAL), SCANS, 1e3),
        "scan_Neut_natural_ms": (
            scans("Neut", Revision.NATURAL, pairs=isomorphic_pairs),
            SCANS,
            1e3,
        ),
        "scan_IIAI_stq_lex_then_natural_ms": (
            scans("IIAI", _NliComposition(Contraction.STQ_LEX, Revision.NATURAL)),
            SCANS,
            1e3,
        ),
        "scan_CR4_natural_stq_lex_ms": (
            scans("CR4", Revision.NATURAL, Contraction.STQ_LEX),
            SCANS,
            1e3,
        ),
        "check_CR4_natural_stq_lex_n2_ms": (failing_check, 1, 1e3),
        "check_IIAP_natural_n2_ms": (partial(pair_check, "IIAP"), 1, 1e3),
        "check_Neut_natural_n2_ms": (partial(pair_check, "Neut"), 1, 1e3),
        "claim_P2_n2_s": (claim, 1, 1.0),
        "claim_T1_n2_s": (partial(claim, "T1"), 1, 1.0),
        "diagrams_n2_ms": (diagrams, 1, 1e3),
        "claim_T3_n2_s": (equivalence, 1, 1.0),
        "pair_profile_n2_s": (profile, 1, 1.0),
        "dp_candidates_n2_ms": (dp_candidates, 1, 1e3),
        "l_flattest_n2_ms": (partial(claim, "L_flattest"), 1, 1e3),
        "check_DP1_natural_n3_default_s": (default_check, 1, 1.0),
        "check_DP1_natural_n3_default_w2_s": (partial(default_check, 2), 1, 1.0),
        "check_IIAI_natural_n3_sample6_ms": (partial(small_check, 1), 1, 1e3),
        "check_IIAI_natural_n3_sample6_w2_ms": (partial(small_check, 2), 1, 1e3),
        "closure_query_n3_ms": (closures, CLOSURES, 1e3),
        "parse_3000_lines_n4_ms": (parse, 1, 1e3),
    }
    out = {}
    reference = []
    _reference_loop()
    for name, (fn, calls, scale) in layers.items():
        fn()  # warm-up: fills the per-process tables and caches
        readings = []
        for _ in range(RUNS):
            reference.append(_per_call(_reference_loop, 1) * 1e3)
            readings.append(_per_call(fn, calls) * scale)
        out[name] = {"median": statistics.median(readings), "runs": readings}
    loop = statistics.median(reference)
    for name, (_, _, scale) in layers.items():
        out[name]["per_reference"] = out[name]["median"] / scale * 1e3 / loop
    out["reference_loop_ms"] = {"median": loop, "runs": reference}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
