"""The machine-speed yardstick used to normalise the end-to-end timings.

The host's speed drifts by up to 2x within a minute, and CPU time drifts
with wall time, so the drift is in the CPU, not in scheduling.  Each op
times this fixed computation in its own process, and so on the CPU it
ran on: three times before the CLI call, every SAMPLE_EVERY_S during it
and three times after it.  The benchmark scales the op's timings by
REFERENCE_S over the mean reading, the time-average of the host's
slowness over the op.  Changing the computation or REFERENCE_S changes
the scale of every figure.
"""

import time

# Median reading of reference_s() on the 2-CPU host the seed baseline was
# taken on, so that scaled figures read like raw ones at its usual speed.
REFERENCE_S = 0.003
SAMPLE_EVERY_S = 0.1


def _work():
    acc = 0
    for i in range(1500):
        cells = (frozenset(range(i % 5, i % 5 + 3)), frozenset((7, i % 4)))
        acc += len(cells[0] & cells[1]) + max(sorted(cells[0] | {i % 9}))
    return acc


def reference_s() -> float:
    """One timing of a fixed pure-Python computation (2-4 ms on the baseline host)."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
