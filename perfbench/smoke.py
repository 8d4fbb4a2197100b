"""Smoke test of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/smoke.py

Runs every workload at a tiny size (``--seconds 1``), untraced, plus one
traced run, and asserts that each metric named in ``BENCHMARK.json`` is
printed with its unit, that ``error_rate`` is 0, and that a corrupted
regression pin turns an op into a failed one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(lines, result, expected):
    assert result["correct"] and result["failed"] == 0, (lines, result)
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}, result["metrics"]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        printed = [line.split() for line in lines]
        assert any(p[:1] == [m["name"]] and p[2:3] == [m["unit"]] for p in printed), m


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        lines, result = bench(w["name"], 0)
        assert_metrics(lines, result, spec["end_to_end"])
        rate = [line.split() for line in lines if line.split()[:1] == ["error_rate"]]
        assert rate and float(rate[0][1]) == 0 and rate[0][2] == "ratio", lines
        print(f"ok  {w['name']}: {result['attempted']} ops, every end-to-end metric printed")
    lines, result = bench("sampled-pairs", 1)
    assert_metrics(lines, result, spec["per_layer"])
    print("ok  traced sampled-pairs: every per-layer metric printed")

    sys.path.insert(0, str(HERE))
    import checks
    import run

    pins = checks.load_pins(run.PINS)
    victim = checks.pin_key(run.workloads.generate(
        "exhaustive-claims", 1, 1, (run.WORK / "smoke").relative_to(ROOT))[0])
    pins[victim] = "0" * 64
    _, result = run.run_workload("exhaustive-claims", 1, 1, 0, pins=pins)
    assert not result["correct"] and result["failed"] == 1, result
    print("ok  a corrupted regression pin fails its op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
