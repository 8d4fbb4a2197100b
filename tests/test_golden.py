"""Byte-for-byte comparison against the golden corpus of machine reports.

The cases and their renderer live in ``tests/golden/regen.py``; run it
to rewrite the corpus after an intended change to the report bytes.
"""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)


def test_every_report_matches_the_golden_corpus():
    expected = regen.stored()
    got = regen.rendered()
    assert sorted(got) == sorted(expected)
    changed = [path for path in sorted(got) if got[path] != expected[path]]
    assert not changed, f"{len(changed)} reports differ, first: {changed[:5]}"
