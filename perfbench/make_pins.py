"""Record the regression pins: the report digest of every possible checker op.

Usage, from the repository root::

    python3 perfbench/make_pins.py

Runs every argv that ``sampled-pairs``, ``sampled-cross`` and
``exhaustive-claims`` can generate, at ``--workers 1``, and writes
``perfbench/pins.json``.  The pins are regression pins: they hold the
bytes the seed commit printed, not independently derived answers.  Only
a change that alters report bytes on purpose should rerun this.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_COMMIT = "e6935e9"


def _report(argv):
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from beliefchange import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue()


def main() -> int:
    from checks import digest, pin_key
    from workloads import universe

    ops = [
        argv for w in ("sampled-pairs", "sampled-cross", "exhaustive-claims") for argv in universe(w)
    ]
    serial = [pin_key(argv) for argv in ops]
    jobs = [key.split(" ") for key in serial]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        reports = pool.map(_report, jobs, chunksize=4)
    payload = {
        "note": (
            "Regression pins: sha256 of the --format machine report of every op the "
            f"checker workloads can generate, as printed by commit {SEED_COMMIT} at "
            "--workers 1. They catch changed bytes; they are not independent answers."
        ),
        "pins": {key: digest(text) for key, text in zip(serial, reports)},
    }
    (HERE / "pins.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"{len(serial)} pins written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
