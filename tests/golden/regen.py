"""Golden corpus of machine reports: the case list and its regenerator.

Each case is one ``--format machine`` report, stored byte for byte as
``tests/golden/<group>/<name>.json``.  ``tests/test_golden.py`` renders
every case again and compares the bytes; a refactor of the checker must
leave all of them unchanged.  Rewriting the files with this script is
the only way they change::

    PYTHONPATH=src python tests/golden/regen.py

Groups:

* ``n2``: every postulate under every built-in revision, exhaustive at
  two atoms, and under every built-in contraction too where the
  postulate needs one; every claim at two atoms;
* ``n3``: the fourteen pair-relation postulates (DP1-4, CC1-4, CR1-4,
  SPU, WPU) plus NLI and iLIRC, sampled at three atoms, on one operator
  pair that passes and one that fails (DP and CC hold for every
  built-in, so their two built-in runs both pass);
* ``custom``: the postulates above that read the revision, run with
  ``ReversedNatural``, a non-elementary operator that fails DP1-DP4,
  exhaustive at two atoms; it gives the DP scans failing reports with
  witnesses;
* ``cross``: the postulates that compare outcomes across priors or
  inputs (IIAP, IIAI, Beta1, Beta2, HI_beliefs and LI_beliefs, the last
  two with ``contract-stq-lex``) under ``ReversedNatural``, exhaustive at
  two atoms and sampled at three (seed 1; 4 samples for IIAI and Beta,
  20 for the rest), plus Neut under ``make_random_dp_operator(0, 2)``
  at two atoms; every one of them fails with witnesses;
* ``closure``: ``closure`` queries on the conditional-set files stored
  beside the reports (``<name>.txt``), each report holding the exit code
  and the machine stdout: at two atoms a rational set, a contracted set
  plus its input, a set outside the fast-path shape, an unsatisfiable
  set and a set over custom atoms; at three atoms two fast-path files,
  three small files outside that shape and an unsatisfiable one;
* ``diagram``: ``check_diagram`` at two atoms for each built-in state
  diagram a-f and for one custom table, ``CUSTOM_DIAGRAM``; the
  excluded diagrams give reports with witnesses, which the CLI shows
  only as T1's outcome lines;
* ``run``: ``run`` on the scenario files stored beside the reports
  (``<name>.txt``), in text and machine format, each report holding the
  exit code, stdout and stderr: every step kind (``revise``,
  ``contract``, ``expand`` into the absurd state, ``nli-revise``),
  queries with and without steps, exit 2 for a formula syntax error,
  an unknown atom, an unknown method and a conditional query without
  ``=>``, exit 3 with the partial transcript for revising by a
  contradiction; plus ``closure`` on a file with a syntax error.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from beliefchange import cli
from beliefchange.operators import Contraction, Revision, revise
from beliefchange.postulates import (
    _POSTULATES,
    CLAIM_IDS,
    DIAGRAM_IDS,
    POSTULATE_IDS,
    check_diagram,
    check_postulate,
    make_random_dp_operator,
    render_machine,
)
from beliefchange.tpo import Tpo

GOLDEN = Path(__file__).resolve().parent

REVISIONS = tuple(m.value for m in Revision)
CONTRACTIONS = tuple(m.value for m in Contraction)
PAIR_RULES = tuple(
    f"{family}{i}" for family in ("DP", "CC", "CR") for i in (1, 2, 3, 4)
) + ("SPU", "WPU")
SAMPLED = ("--n", "3", "--mode", "sampled", "--sample", "20", "--seed", "1")
CLOSURE = GOLDEN / "closure"
CLOSURE_CASES = (
    # (input file stem, extra argv)
    ("n2.rational", ("--n", "2")),
    ("n2.contracted-plus-input", ("--n", "2")),
    ("n2.mixed", ("--n", "2")),
    ("n2.unsatisfiable", ("--n", "2")),
    ("n2.custom-atoms", ("--n", "2", "--atoms", "a,b")),
    ("n3.fast-1", ("--n", "3")),
    ("n3.fast-2", ("--n", "3")),
    ("n3.small-1", ("--n", "3")),
    ("n3.small-2", ("--n", "3")),
    ("n3.small-3", ("--n", "3")),
    ("n3.unsatisfiable", ("--n", "3")),
)

RUN = GOLDEN / "run"
RUN_CASES = (
    # (input file stem, command)
    ("revise", "run"),
    ("contract", "run"),
    ("expand-absurd", "run"),
    ("nli-revise", "run"),
    ("queries-only", "run"),
    ("syntax-error", "run"),
    ("unknown-atom", "run"),
    ("unknown-method", "run"),
    ("query-no-arrow", "run"),
    ("inconsistent", "run"),
    ("closure-syntax-error", "closure"),
)

# excluded, like the built-in diagram d it equals: reported as "custom"
CUSTOM_DIAGRAM = {1: 1, 0: 0, -1: 0}


class ReversedNatural:
    """Natural revision of the reversed prior: a deterministic operator
    that keeps success but breaks DP1-DP4."""

    value = "reversed-natural"

    def posterior(self, t: Tpo, sentence_models: int) -> Tpo:
        return revise(Tpo(t.masks[::-1], t.n_atoms), sentence_models, Revision.NATURAL)


def _needs_con(postulate: str) -> bool:
    return _POSTULATES[postulate].needs_con


def _n3_pairs(postulate: str) -> tuple:
    """(passing, failing) operator arguments for one sampled n=3 case."""
    if postulate.startswith("DP"):
        return ("natural",), ("lexicographic",)
    if postulate.startswith("CC") or postulate == "iLIRC":
        return ("natural", "contract-natural"), ("natural", "contract-stq-lex")
    return ("lexicographic", "contract-stq-lex"), ("natural", "contract-stq-lex")


def cases() -> list:
    """(relative path, argv) for every CLI case, in a fixed order."""
    out = []
    for postulate in POSTULATE_IDS:
        for rev in REVISIONS:
            for con in CONTRACTIONS if _needs_con(postulate) else (None,):
                ops = (rev,) if con is None else (rev, con)
                name = ".".join((postulate,) + ops)
                out.append((f"n2/{name}.json", ("check", postulate, *ops, "--n", "2")))
    for claim in CLAIM_IDS:
        out.append((f"n2/verify.{claim}.json", ("verify", claim, "--n", "2")))
    for postulate in PAIR_RULES + ("NLI", "iLIRC"):
        for ops in _n3_pairs(postulate):
            name = ".".join((postulate,) + ops)
            out.append((f"n3/{name}.json", ("check", postulate, *ops, *SAMPLED)))
    return out


CUSTOM_POSTULATES = tuple(
    p for p in PAIR_RULES + ("NLI", "iLIRC") if not p.startswith("CC")
)


def custom_cases() -> list:
    """(relative path, postulate) for the library cases."""
    return [
        (f"custom/{postulate}.{ReversedNatural.value}.json", postulate)
        for postulate in CUSTOM_POSTULATES
    ]


CROSS_POSTULATES = ("IIAP", "IIAI", "Beta1", "Beta2", "HI_beliefs", "LI_beliefs")


def cross_cases() -> list:
    """(relative path, postulate, revision, check_postulate keywords) for
    the cross-prior and cross-input cases."""
    out = []
    for postulate in CROSS_POSTULATES:
        sample = 4 if postulate in ("IIAI", "Beta1", "Beta2") else 20
        for scope, kwargs in (
            ("n2", {"n_atoms": 2}),
            ("n3", {"n_atoms": 3, "mode": "sampled", "sample": sample, "seed": 1}),
        ):
            name = f"{postulate}.{ReversedNatural.value}.{scope}"
            out.append((f"cross/{name}.json", postulate, ReversedNatural(), kwargs))
    neut = make_random_dp_operator(0, 2)
    out.append(("cross/Neut.random-dp-0.n2.json", "Neut", neut, {"n_atoms": 2}))
    return out


def render_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["--format", "machine", *argv])
    return out.getvalue()


def render_closure(stem: str, extra) -> str:
    """Exit code and machine stdout of one closure query."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(
            ["--format", "machine", "closure", str(CLOSURE / f"{stem}.txt"), *extra]
        )
    return json.dumps({"exit": code, "stdout": out.getvalue()}, indent=2) + "\n"


def render_run(stem: str, command: str, fmt: str) -> str:
    """Exit code, stdout and stderr of one command on a stored file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", fmt, command, str(RUN / f"{stem}.txt")])
    return json.dumps(
        {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, indent=2
    ) + "\n"


def render_custom(postulate: str, revision=None, n_atoms: int = 2, **sampling) -> str:
    """A library check's machine report, under ``ReversedNatural`` unless
    another revision is given, with ``contract-stq-lex`` where needed."""
    contraction = Contraction.STQ_LEX if _needs_con(postulate) else None
    report = check_postulate(
        postulate, revision or ReversedNatural(), contraction, n_atoms=n_atoms, **sampling
    )
    return render_machine(report)


def rendered() -> dict:
    """Every case's relative path mapped to its report text."""
    out = {path: render_cli(argv) for path, argv in cases()}
    out.update((path, render_custom(postulate)) for path, postulate in custom_cases())
    out.update(
        (path, render_custom(postulate, revision, **kwargs))
        for path, postulate, revision, kwargs in cross_cases()
    )
    out.update(
        (f"closure/{stem}.json", render_closure(stem, extra)) for stem, extra in CLOSURE_CASES
    )
    out.update(
        (f"diagram/{d}.json", render_machine(check_diagram(d, 2))) for d in DIAGRAM_IDS
    )
    out["diagram/custom.json"] = render_machine(check_diagram(CUSTOM_DIAGRAM, 2))
    out.update(
        (f"run/{stem}.{fmt}.json", render_run(stem, command, fmt))
        for stem, command in RUN_CASES
        for fmt in ("text", "machine")
    )
    return out


def stored() -> dict:
    return {
        str(path.relative_to(GOLDEN)): path.read_text(encoding="utf-8")
        for path in sorted(GOLDEN.glob("*/*.json"))
    }


def main() -> int:
    reports = rendered()
    for path in stored():
        if path not in reports:
            (GOLDEN / path).unlink()
    for path, text in reports.items():
        target = GOLDEN / path
        target.parent.mkdir(exist_ok=True)
        target.write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {len(reports)} reports under {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
