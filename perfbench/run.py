"""End-to-end benchmark of the beliefchange CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op is one full CLI call, ``beliefchange.cli.main(argv)`` with
``--format machine``, in a fresh interpreter, issued as a closed loop
from one client: the next op starts when the previous one has exited.
The op list comes from ``workloads.generate`` and depends only on the
workload, the seed and ``--seconds``.  Each output is checked
(``checks``) after the loop, outside the timed region.  Timings are
scaled to a reference machine speed (``reference``, ``speed_factor``);
per-op raw timings go to ``perfbench/_work/<run>/results.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
ops untraced and then traced, all at ``--workers 1``, and prints the
per-layer metrics (``tracer``) with the tracing overhead.  Reports must
match the same regression pin at every worker count, so a
``sampled-cross`` report timed at ``--workers 2`` and its traced
``--workers 1`` twin are byte-identical whenever both runs pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print
every metric with its unit, ``error_rate`` included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads
from reference import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
PINS = HERE / "pins.json"

# A run must end within 180 s: no op starts after START_BUDGET_S and none
# runs past HARD_LIMIT_S (both from the start of the run).  Ops cut off
# this way count as failed.
START_BUDGET_S = 150.0
HARD_LIMIT_S = 170.0

LAYER_FUNCTIONS = {
    "operators.revise": "operators.revise",
    "operators.contract": "operators.contract",
    "operators.stq_merge": "operators.stq_merge",
    "operators.random_dp": "operators.make_random_dp_operator",
    "tpo.construct": "tpo.construct",
    "tpo.min_worlds": "tpo.min_worlds",
    "tpo.unrank": "tpo.tpo_at_index",
    "tpo.format": "tpo.format_tpo",
    "lang.dnf": "lang.dnf_of_worlds",
    "lang.parse": "lang.parse_formula",
    "lang.models": "lang.models",
    "postulates.holds": "postulates.postulate_holds",
    "postulates.diagram": "postulates.check_diagram",
    "conditionals.closure": "conditionals.rational_closure",
    "conditionals.satisfies": "conditionals.satisfies",
    "conditionals.fast": "conditionals.rational_closure_fast",
    "cli.closure_answer": "cli.closure_answer",
}


# ---------------------------------------------------------------------------
# Running ops


def _with_workers(argv, workers):
    if workers is None or "--workers" not in argv:
        return list(argv)
    out = list(argv)
    out[out.index("--workers") + 1] = str(workers)
    return out


def run_op(argv, traced, started_run):
    """Run one op in a fresh interpreter; (result or None, problem)."""
    elapsed = time.perf_counter() - started_run
    if elapsed > START_BUDGET_S:
        return None, "not started: run time budget exhausted"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "opmain.py"), "1" if traced else "0", json.dumps(argv)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=HARD_LIMIT_S - elapsed)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out"
    ended = time.perf_counter()
    if proc.returncode != 0:
        return None, f"op process exited {proc.returncode}: {err.strip()[-300:]}"
    try:
        result = json.loads(out.splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"op process printed no result: {err.strip()[-300:]}"
    result["setup"] = result["imported_at"] - spawned
    result["wall"] = ended - spawned - result["ref_spent"]
    return result, None


def run_pass(ops, traced, workers, started_run, pins):
    """Closed loop over the ops; (results, problems by op index, total_s)."""
    results, problems = [], {}
    first = time.perf_counter()
    for index, argv in enumerate(ops):
        result, problem = run_op(_with_workers(argv, workers), traced, started_run)
        results.append(result)
        if problem:
            problems[index] = problem
    total = time.perf_counter() - first
    for index, (argv, result) in enumerate(zip(ops, results)):
        if result is None:
            continue
        if argv[2] == "closure":
            found = checks.check_closure(argv, result, ROOT)
        else:
            found = checks.check_report(argv, result, pins)
        if found:
            problems[index] = "; ".join(found)
    for index, problem in checks.replay_failures(ROOT, ops, results).items():
        problems.setdefault(index, problem)
    return results, problems, total


# ---------------------------------------------------------------------------
# Metrics


def _tail(values):
    """Value at the highest percentile with at least 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _instances(argv, result):
    if argv[2] == "closure":
        return 1  # one closure query
    return json.loads(result["stdout"]).get("instances", 0)


def speed_factor(result) -> float:
    """Scale of an op's timings onto the reference speed (see ``reference``)."""
    return REFERENCE_S / result["ref"]


def _scaled_total(results) -> float:
    return sum(r["wall"] * speed_factor(r) for r in results if r is not None)


def end_to_end(ops, results, total):
    done = [(argv, r) for argv, r in zip(ops, results) if r is not None]
    if not done:
        return {}, {}
    latencies = [r["latency"] * speed_factor(r) for _, r in done]
    tail, pct, beyond = _tail(latencies)
    instances = 0
    for argv, r in done:
        try:
            instances += _instances(argv, r)
        except ValueError:
            pass
    raw_latencies = [r["latency"] for _, r in done]
    metrics = {
        "setup_s": (statistics.median(r["setup"] * speed_factor(r) for _, r in done), "s"),
        "total_s": (_scaled_total(results), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "instances_per_s": (instances / sum(latencies), "1/s"),
        "peak_rss_mb": (max(r["rss_kb"] for _, r in done) / 1024.0, "MB"),
    }
    speeds = [REFERENCE_S / r["ref"] for _, r in done]
    notes = {
        "setup_s": f"median of {len(done)} ops; raw {statistics.median(r['setup'] for _, r in done):.4f}",
        "total_s": f"raw wall clock {total:.3f} s; speed factors {min(speeds):.2f}-{max(speeds):.2f}",
        "op_p50_s": f"median of {len(done)} ops; raw {statistics.median(raw_latencies):.4f}",
        "op_tail_s": f"p{pct:.1f} of {len(done)} ops, {beyond} ops beyond it; raw {_tail(raw_latencies)[0]:.4f}",
        "instances_per_s": f"{instances} instances; raw {instances / sum(raw_latencies):.6g}",
    }
    return metrics, notes


def per_layer(ops, traced_results, untraced_results):
    """Per-layer metrics of a traced pass; times scaled like ``end_to_end``."""
    by_name = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
    by_parent = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(int)
    claim_s = defaultdict(float)
    scan_self = latency = 0.0
    kept = built = 0
    fast = closures = 0
    self_gap = 0.0
    missing = set()
    for argv, r in zip(ops, traced_results):
        if r is None:
            continue
        trace = r["trace"]
        missing.update(trace["missing"])
        scale = speed_factor(r)
        latency += r["latency"] * scale
        op_self = 0.0
        op_witnesses = 0
        for parent, name, count, total, own in trace["agg"]:
            for key, table in ((name, by_name), ((parent, name), by_parent)):
                rec = table[key]
                rec[0] += count
                rec[1] += total * scale
                rec[2] += own * scale
            op_self += own
            if name == "postulates.witness":
                op_witnesses += count
        for span in trace["spans"]:
            duration = span["end"] - span["start"]
            rec = by_name[span["name"]]
            rec[0] += 1
            rec[1] += duration * scale
            rec[2] += span["self"] * scale
            op_self += span["self"]
            if span["name"] == "postulates.check_postulate":
                scan_self += span["self"] * scale
            if span["name"] == "postulates.verify_claim":
                claim_s[span["label"]] += duration * scale
        root = [s for s in trace["spans"] if s["name"] == "cli.main"]
        if root:
            self_gap = max(self_gap, abs(op_self - (root[0]["end"] - root[0]["start"])))
        for key, value in trace["counts"].items():
            counts[key] += value
        if argv[2] == "check" and r["code"] == 1:
            kept += len(json.loads(r["stdout"]).get("witnesses", ()))
            built += op_witnesses
        if argv[2] == "closure" and r["code"] == 0:
            closures += 1
            fast += json.loads(r["stdout"])["fast_path"]
    untraced_total = _scaled_total(untraced_results)
    traced_total = _scaled_total(traced_results)
    brute_wall = sum(
        r["wall"] * speed_factor(r) for argv, r in zip(ops, untraced_results)
        if r is not None and argv[2] == "closure" and r["code"] == 0
        and not json.loads(r["stdout"])["fast_path"]
    )
    outers = counts.get("postulates.check_postulate>postulates.outer", 0)
    revise_in_scan = by_parent[("postulates.check_postulate", "operators.revise")][0]

    def share(x, y):
        return x / y if y else 0.0

    metrics = {}
    for metric, name in LAYER_FUNCTIONS.items():
        metrics[f"{metric}.count"] = (by_name[name][0], "count")
        metrics[f"{metric}.self_s"] = (by_name[name][2], "s")
    metrics.update({
        "operators.revise_share": (share(by_name["operators.revise"][2], latency), "ratio"),
        "tpo.enumerate.yielded": (counts.get("tpo.enumerate_tpos.yielded", 0), "count"),
        "tpo.enumerate.total_s": (by_name["tpo.enumerate_tpos"][1], "s"),
        "tpo.enumerate.self_s": (by_name["tpo.enumerate_tpos"][2], "s"),
        "postulates.witnesses_built": (by_name["postulates.witness"][0], "count"),
        "postulates.witness_yield": (share(kept, built), "ratio"),
        "postulates.scan_self_s": (scan_self, "s"),
        "postulates.scan_share": (share(scan_self, latency), "ratio"),
        "postulates.outers": (outers, "count"),
        "postulates.revise_per_outer": (share(revise_in_scan, outers), "ratio"),
        "conditionals.fast_path_ratio": (share(fast, closures), "ratio"),
        "conditionals.brute_share": (share(brute_wall, untraced_total), "ratio"),
        "cli.self_s": (sum(rec[2] for name, rec in by_name.items() if name.startswith("cli.")), "s"),
        "trace.untraced_total_s": (untraced_total, "s"),
        "trace.traced_total_s": (traced_total, "s"),
        "trace.overhead_s": (traced_total - untraced_total, "s"),
        "trace.self_gap_s": (self_gap, "s"),
    })
    for claim in workloads.CLAIMS:
        metrics[f"postulates.claim_s.{claim}"] = (claim_s.get(claim, 0.0), "s")
    notes = {}
    if missing:
        notes["trace.self_gap_s"] = "hooks not found: " + ", ".join(sorted(missing))
    full = {"by_parent": [[p, n, *rec] for (p, n), rec in by_parent.items()]}
    return metrics, notes, full


# ---------------------------------------------------------------------------
# Driver


def describe(workload, ops) -> str:
    if workload == "closure-n3":
        return (f"{len(ops)} closure --n 3 ops on generated files "
                "(1 brute-force file per 3 fast-path files of 256 lines)")
    if workload == "exhaustive-claims":
        return f"{len(ops)} ops: verify of 10 claims at n=2 and exhaustive n=2 IIAP/Neut checks"
    samples = sorted({int(a[a.index("--sample") + 1]) for a in ops})
    workers = sorted({a[a.index("--workers") + 1] for a in ops})
    return (f"{len(ops)} sampled n=3 check ops, {samples[0]}-{samples[-1]} samples each, "
            f"--workers {'/'.join(workers)}")


def run_workload(workload, seed, seconds, trace, pins=None):
    """Run one benchmark invocation; returns (summary lines, result object)."""
    if pins is None:
        pins = checks.load_pins(PINS)
    started = time.perf_counter()
    work = WORK / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.generate(workload, seed, seconds, work.relative_to(ROOT))
    # Untimed warm-up, so that no op pays for writing bytecode caches.
    run_op(["--help"], False, started)
    lines = [f"workload {workload}, seed {seed}, trace {trace}: {describe(workload, ops)}; "
             "closed loop, one client, one fresh interpreter per op"]
    problems = {}
    if not trace:
        results, problems, total = run_pass(ops, False, None, started, pins)
        (work / "results.json").write_text(json.dumps([
            {k: r[k] for k in ("ref", "wall", "latency", "setup")} if r else None for r in results
        ]))
        metrics, notes = end_to_end(ops, results, total)
        failed = len(problems)
        error_rate = failed / len(ops)
        report = dict(metrics)
        report["error_rate"] = (error_rate, "ratio")
        notes["error_rate"] = f"{failed} of {len(ops)} ops failed"
    else:
        untraced, p1, _ = run_pass(ops, False, 1, started, pins)
        traced, p2, _ = run_pass(ops, True, 1, started, pins)
        for found in (p1, p2):
            for index, problem in found.items():
                problems.setdefault(index, problem)
        metrics, notes, full = per_layer(ops, traced, untraced)
        report = metrics
        failed = len(problems)
        (work / "trace.json").write_text(json.dumps({
            "ops": ops,
            "traces": [r["trace"] if r else None for r in traced],
            "latencies": [r["latency"] if r else None for r in traced],
            "untraced_latencies": [r["latency"] if r else None for r in untraced],
            **full,
        }) + "\n", encoding="utf-8")
    for index, problem in sorted(problems.items()):
        print(f"op {index} failed: {' '.join(ops[index])}: {problem}", file=sys.stderr)
    for name, (value, unit) in report.items():
        note = notes.get(name, "")
        lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.items() if name != "error_rate"
        },
    }
    return lines, result


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the beliefchange CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "beliefchange" / "cli.py").is_file():
        print(f"error: no beliefchange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
