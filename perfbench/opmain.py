"""One benchmark op: a fresh interpreter running ``beliefchange.cli.main``.

Usage::

    PYTHONPATH=src python3 perfbench/opmain.py TRACE ARGV_JSON

``TRACE`` is 0 or 1; ``ARGV_JSON`` is the CLI argv as a JSON list.  The
op prints one JSON object: when ``beliefchange.cli`` finished importing
(``perf_counter``, which is CLOCK_MONOTONIC and so comparable with the
parent's clock), the latency of ``main``, its exit code, the bytes it
wrote, the peak RSS of this process and its pool workers, the mean
reading of the speed reference (``reference``) and the time spent on
it, and, traced, the spans and per-parent aggregates.
"""

import sys
import time

import beliefchange.cli

IMPORTED_AT = time.perf_counter()

import io  # noqa: E402  (after the timed import on purpose)
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from reference import SAMPLE_EVERY_S, reference_s  # noqa: E402


class SpeedSampler:
    """Times the reference every SAMPLE_EVERY_S while ``main`` runs.

    Long ops outlast the host's speed phases, so the readings taken just
    before and after them are not enough.  The timer signal is handled
    between bytecodes of the main thread; the time spent in the handler
    is kept so that it can be taken off the op's latency.  Ops that run
    a worker pool are not sampled: the pool keeps both CPUs busy, so a
    reading taken meanwhile measures the contention, not the CPU.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.readings = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.readings.append(reference_s())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _workers(argv) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def main() -> int:
    traced = sys.argv[1] == "1"
    argv = json.loads(sys.argv[2])
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ref_start = time.perf_counter()
    readings = [reference_s() for _ in range(3)]
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        with SpeedSampler(enabled=_workers(argv) == 1) as sampler:
            code = beliefchange.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    latency = elapsed - sampler.spent
    readings += sampler.readings + [reference_s() for _ in range(3)]
    ref_spent = time.perf_counter() - ref_start - latency
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "imported_at": IMPORTED_AT,
        "latency": latency,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "rss_kb": rss_kb,
        "ref": sum(readings) / len(readings),
        "ref_spent": ref_spent,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
