"""Seeded workload generator: CLI argv lists and closure files, nothing else.

Usage::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --out DIR

writes ``DIR/ops.json`` (one argv list per op, in the order they run) and, for
``closure-n3``, the closure files those argv lists name.  The same seed
gives the same files.  Op counts follow ``--seconds`` only, never a
measurement, so every run of a seed does the same work; each template
below is sized to take about twenty seconds at the seed commit on a
2-CPU machine.

Why these workloads (recorded in ``BENCHMARK.json`` too):

* ``sampled-pairs``: the headline command, sampled n=3 checks of the
  single-order postulates.  ``_Ctx`` is cleared per sampled preorder, so
  the operators, preorder construction and, on failing checks, witness
  rendering do the work.
* ``sampled-cross``: IIAI, Beta1/2, IIAP, Neut.  The quadratic scan in
  ``postulates`` dominates and revisions are cache hits; the only
  workload on the ``multiprocessing`` chunk path (``--workers 2``).
* ``exhaustive-claims``: every claim at n=2 plus exhaustive IIAP/Neut;
  no sampling or unranking, but enumeration, early exit, diagrams,
  random DP operators and brute-force closure over a 75-preorder pool.
* ``closure-n3``: parse-bound fast-path files and brute-force files that
  enumerate all 545835 preorders; the only workload for ``lang`` parsing
  and n=3 closure.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import model

WORKLOADS = ("sampled-pairs", "sampled-cross", "exhaustive-claims", "closure-n3")

REVISIONS = ("natural", "restrained", "lexicographic")
CONTRACTIONS = ("contract-natural", "contract-stq-restrained", "contract-stq-lex")
PAIRS = tuple((r, c) for r in REVISIONS for c in CONTRACTIONS)
CLAIMS = ("T1", "T2", "T3", "Cor1", "T4", "P1", "P2", "P3", "P5", "L_flattest")

# Check seeds come from a small range so that every possible op has a
# regression pin (see pins.json).
PAIR_CHECK_SEEDS = 4
CROSS_CHECK_SEEDS = 8

# Samples per op, chosen so that ops of one workload cost about the same.
PAIR_SAMPLES = {
    "Success": 80, "DP1": 80, "DP2": 80, "DP3": 80, "DP4": 80,
    "CC1": 40, "CC2": 40, "CC3": 40, "CC4": 40,
}
PAIR_SAMPLES_DEFAULT = 30
CROSS_SAMPLES = {"IIAI": 6, "Beta1": 4, "Beta2": 4, "IIAP": 24, "Neut": 256}

# Operator pairs on which a postulate fails at n=3 (seen in sampled runs
# and implied by T2/T3 at n=2).  The template draws one op from each side
# so that every run has the same mix of passing and failing checks.
_STQ_LEX_FAILS = (("natural", "contract-stq-lex"), ("restrained", "contract-stq-lex"))
FAILING_PAIRS = {
    "CR3": _STQ_LEX_FAILS, "CR4": _STQ_LEX_FAILS, "SPU": _STQ_LEX_FAILS,
    "WPU": _STQ_LEX_FAILS, "NLI": _STQ_LEX_FAILS,
    "iLIRC": tuple(
        pair for pair in PAIRS
        if pair not in (("natural", "contract-natural"), ("natural", "contract-stq-restrained"))
    ),
}

# Run length the round sizes below are tuned for.
NOMINAL_SECONDS = 20


def _check_argv(postulate, ops, n, mode, seed=None, sample=None, workers=None):
    argv = ["--format", "machine", "check", postulate, *ops, "--n", str(n), "--mode", mode]
    if mode == "sampled":
        argv += ["--seed", str(seed), "--sample", str(sample)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    return argv


def _pairs_round(rng):
    slots = []
    for p in ("Success", "DP1", "DP2", "DP3", "DP4"):
        slots += [(p, (rng.choice(REVISIONS),)) for _ in range(2)]
    for p in ("CC1", "CC2", "CC3", "CC4", "CR1", "CR2", "HI_beliefs", "LI_beliefs"):
        slots += [(p, rng.choice(PAIRS)) for _ in range(2)]
    for p, failing in FAILING_PAIRS.items():
        passing = [pair for pair in PAIRS if pair not in failing]
        slots += [(p, rng.choice(passing)), (p, rng.choice(failing))]
    return [
        _check_argv(p, ops, 3, "sampled", rng.randrange(PAIR_CHECK_SEEDS),
                    PAIR_SAMPLES.get(p, PAIR_SAMPLES_DEFAULT), workers=1)
        for p, ops in slots
    ]


def _cross_round(rng):
    # IIAI and Beta1/2 under natural and restrained revision take about
    # 0.9 s an op, the other combinations about 0.2 s; drawing each heavy
    # one three times per round puts the median and the tail op well
    # inside the heavy group, where they do not flip between groups.
    combos = [(p, r) for p in CROSS_SAMPLES for r in REVISIONS]
    heavy = [(p, r) for p, r in combos if p in ("IIAI", "Beta1", "Beta2") and r != "lexicographic"]
    return [
        _check_argv(p, (r,), 3, "sampled", rng.randrange(CROSS_CHECK_SEEDS),
                    CROSS_SAMPLES[p], workers=2)
        for p, r in combos + heavy + heavy
    ]


def _claims_round(rng=None):
    ops = [["--format", "machine", "verify", c, "--n", "2"] for c in CLAIMS]
    return ops + [_check_argv(p, (r,), 2, "exhaustive") for p in ("IIAP", "Neut") for r in REVISIONS]


def _closure_text(cells, plain, conds) -> str:
    lines = [f"# generating preorder: {model.format_tpo(cells)}"]
    lines += [f"{model.render_dnf(a)} => {model.render_dnf(b)}" for a, b in conds]
    lines.append(model.render_dnf(plain))
    return "\n".join(lines) + "\n"


def fast_path_file(rng) -> str:
    """A preorder's full conditional set plus a sentence meeting its beliefs."""
    cells = model.random_tpo(rng)
    conds = [(a, model.minimal(cells, a)) for a in model.PROPOSITIONS]
    rng.shuffle(conds)
    plain = model.random_subset(rng, model.ALL) | {rng.choice(sorted(cells[0]))}
    return _closure_text(cells, plain, conds)


def brute_force_file(rng, anchor: bool) -> str:
    """A small satisfiable set outside the fast-path shape.

    The generating preorder has a singleton first cell {w} and the plain
    part is exactly w, which caps the satisfiers at the 47293 preorders
    starting with {w}.  An anchor file only has conditionals whose
    antecedent contains w, so it reaches that cap; one anchor per run
    keeps the peak memory the same from seed to seed.
    """
    w = rng.choice(model.WORLDS)
    cells = model.random_tpo(rng, first=w)
    antecedents = [a for a in model.PROPOSITIONS if (w in a) == anchor]
    conds = []
    for _ in range(rng.randint(2, 5)):
        a = rng.choice(antecedents)
        conds.append((a, model.minimal(cells, a) | model.random_subset(rng, a)))
    return _closure_text(cells, frozenset((w,)), conds)


def _closure_ops(rng, seconds, out: Path):
    brute = max(1, round(seconds / 5))
    kinds = ["brute"] * brute + ["fast"] * (3 * brute)
    rng.shuffle(kinds)
    anchor = kinds.index("brute")
    ops = []
    for i, kind in enumerate(kinds):
        text = fast_path_file(rng) if kind == "fast" else brute_force_file(rng, i == anchor)
        path = out / f"closure-{i:03d}.txt"
        path.write_text(text, encoding="utf-8")
        ops.append(["--format", "machine", "closure", path.as_posix(), "--n", "3"])
    return ops


# Round builder and rounds per NOMINAL_SECONDS of run time.
_ROUNDS = {
    "sampled-pairs": (_pairs_round, 1),
    "sampled-cross": (_cross_round, 1),
    "exhaustive-claims": (_claims_round, 1),
}


def generate(workload: str, seed: int, seconds: int, out: Path) -> list:
    """Write the op list of one run under ``out`` and return it.

    ``out`` is relative to the directory the ops run in, since closure
    argv lists name their files by that path.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "closure-n3":
        ops = _closure_ops(rng, seconds, out)
    else:
        make_round, rounds = _ROUNDS[workload]
        round_len = len(make_round(random.Random(0)))
        count = max(1, round(round_len * rounds * seconds / NOMINAL_SECONDS))
        ops = []
        while len(ops) < count:
            block = make_round(rng)
            rng.shuffle(block)
            ops += block
        ops = ops[:count]
    (out / "ops.json").write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")
    return ops


def universe(workload: str) -> list:
    """Every argv a checker workload can generate, for the regression pins."""
    if workload == "sampled-pairs":
        combos = [(p, (r,)) for p in ("Success", "DP1", "DP2", "DP3", "DP4") for r in REVISIONS]
        combos += [
            (p, pair)
            for p in ("CC1", "CC2", "CC3", "CC4", "CR1", "CR2", "HI_beliefs", "LI_beliefs",
                      *FAILING_PAIRS)
            for pair in PAIRS
        ]
        return [
            _check_argv(p, ops, 3, "sampled", s, PAIR_SAMPLES.get(p, PAIR_SAMPLES_DEFAULT), 1)
            for p, ops in combos for s in range(PAIR_CHECK_SEEDS)
        ]
    if workload == "sampled-cross":
        return [
            _check_argv(p, (r,), 3, "sampled", s, CROSS_SAMPLES[p], 2)
            for p in CROSS_SAMPLES for r in REVISIONS for s in range(CROSS_CHECK_SEEDS)
        ]
    if workload == "exhaustive-claims":
        return _claims_round()
    raise ValueError(f"workload {workload!r} has no finite op universe")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    ops = generate(args.workload, args.seed, args.seconds, Path(args.out))
    print(f"{len(ops)} ops written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
