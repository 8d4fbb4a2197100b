"""Correctness checks on every op's output, independent of its timing.

An op fails when its process crashes or times out, when the exit code
does not match the verdict, when a verdict contradicts the hand-written
table below, when its instance count differs from the count the scope
implies, when report bytes differ from the regression pin, when a
witness does not replay, or when a closure answer differs from the one
this benchmark computes itself (``model``).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import model
from workloads import CLAIMS, REVISIONS

# Hand-written from the README claim table and the operator definitions:
# every claim passes at n=2, and the three built-in revisions satisfy the
# elementarity postulates.
ELEMENTARY = ("Success", "DP1", "DP2", "DP3", "DP4", "IIAI", "IIAP", "Beta1", "Beta2", "Neut")
EXPECTED_PASS = {(p, r) for p in ELEMENTARY for r in REVISIONS} | {(c, None) for c in CLAIMS}

# Instances a claim reports at n=2: T1 is 3 operators x 10 postulates + 6
# diagrams; T4 and L_flattest range over 3 x 75 x 15 and 75 x 15
# (preorder, input) pairs; P1 is 100 random + 3 built-in operators; P3 is
# 9 compositions x DP1-4.  P2 depends on the contraction results.
CLAIM_INSTANCES = {
    "T1": 36, "T2": 9, "T3": 9, "Cor1": 9, "T4": 3375, "P1": 103,
    "P3": 36, "P5": 5, "L_flattest": 1125,
}
PREORDERS = {2: 75, 3: 545835}  # ordered partitions of 4 and 8 worlds


def inputs_per_outer(postulate: str, n_atoms: int) -> int:
    props = (1 << (1 << n_atoms)) - 1
    if postulate in ("SPU", "WPU", "HI_beliefs"):
        return props - 1  # the tautology is skipped
    if postulate == "IIAI":
        return props * (props - 1) // 2
    if postulate in ("Beta1", "Beta2"):
        return props * props
    return props


PAIR_OUTER = ("IIAP", "Neut")


def parse_check_argv(argv) -> dict:
    """Scope of a ``check`` or ``verify`` argv as the CLI reads it."""
    words = argv[2:]
    command, ident = words[0], words[1]
    positional = []
    options = {}
    rest = words[2:]
    i = 0
    while i < len(rest):
        if rest[i].startswith("--"):
            options[rest[i][2:]] = rest[i + 1]
            i += 2
        else:
            positional.append(rest[i])
            i += 1
    return {
        "command": command,
        "id": ident,
        "revision": positional[0] if positional else None,
        "contraction": positional[1] if len(positional) > 1 else None,
        "n": int(options["n"]),
        "mode": options.get("mode", "exhaustive"),
        "seed": int(options["seed"]) if "seed" in options else None,
        "sample": int(options["sample"]) if "sample" in options else None,
    }


def pin_key(argv) -> str:
    """Pins ignore ``--workers``: reports must not depend on it."""
    words = list(argv)
    if "--workers" in words:
        i = words.index("--workers")
        del words[i:i + 2]
    return " ".join(words)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["pins"]


def check_report(argv, result, pins) -> list:
    """Problems with one ``check``/``verify`` op; empty when it is right."""
    scope = parse_check_argv(argv)
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return [f"unparseable report (exit {result['code']}): {result['stderr'][-200:]!r}"]
    problems = []
    passed = report.get("outcome") == "pass"
    if result["code"] != (0 if passed else 1):
        problems.append(f"exit code {result['code']} with outcome {report.get('outcome')}")
    if report.get("check") != scope["id"]:
        problems.append(f"report names {report.get('check')!r}")
    violations = report.get("violations", -1)
    if passed != (violations == 0) or report.get("outcome") not in ("pass", "fail"):
        problems.append(f"outcome {report.get('outcome')} with {violations} violations")
    if len(report.get("witnesses", ())) != min(10, max(violations, 0)):
        problems.append("witness count is not min(10, violations)")
    expect_pass = (scope["id"], scope["revision"] if scope["command"] == "check" else None)
    if expect_pass in EXPECTED_PASS and not passed:
        problems.append("expected pass")
    if scope["command"] == "verify":
        expected = CLAIM_INSTANCES.get(scope["id"])
    else:
        outers = scope["sample"] if scope["mode"] == "sampled" else PREORDERS[scope["n"]] ** (
            2 if scope["id"] in PAIR_OUTER else 1
        )
        expected = outers * inputs_per_outer(scope["id"], scope["n"])
        sc = report.get("scope", {})
        if (sc.get("n_atoms"), sc.get("mode"), sc.get("seed"), sc.get("sample")) != (
            scope["n"], scope["mode"], scope["seed"], scope["sample"]
        ):
            problems.append(f"report scope {sc} does not match the argv")
        if report.get("revision") != scope["revision"] or report.get("contraction") != scope["contraction"]:
            problems.append("report names other operators")
    if expected is not None and report.get("instances") != expected:
        problems.append(f"{report.get('instances')} instances, expected {expected}")
    pin = pins.get(pin_key(argv))
    if pin is None:
        problems.append("no regression pin for this op")
    elif digest(result["stdout"]) != pin:
        problems.append("report bytes differ from the regression pin")
    return problems


def expected_closure(text: str):
    """(expected preorder, fast path flag) for a generated closure file."""
    plain, conds, _ = model.parse_closure_file(text)
    strongest = {}
    for a, b in conds:
        strongest[a] = strongest.get(a, model.ALL) & b
    if set(strongest) == set(model.PROPOSITIONS):
        # Fast-path shape: rebuild the preorder whose minimal-world map
        # this is, by the number of worlds strictly below each world.
        below = {
            x: sum(1 for y in model.WORLDS if y != x and strongest[frozenset((x, y))] == {y})
            for x in model.WORLDS
        }
        base = tuple(
            frozenset(w for w in model.WORLDS if below[w] == k) for k in sorted(set(below.values()))
        )
        if all(model.minimal(base, a) == b for a, b in strongest.items()) and base[0] & plain:
            return model.natural_revision(base, plain), True
    return model.system_z(plain, conds), False


def check_closure(argv, result, root: Path) -> list:
    text = (root / argv[3]).read_text(encoding="utf-8")
    plain, conds, generator = model.parse_closure_file(text)
    expected, fast = expected_closure(text)
    if expected is None:
        return ["generated closure file is unsatisfiable"]
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}: {result['stderr'][-200:]!r}")
        return problems
    want = json.dumps({"fast_path": fast, "tpo": model.format_tpo(expected)}, sort_keys=True, indent=2)
    if result["stdout"] != want + "\n":
        problems.append(f"closure answer {result['stdout']!r}, expected {want!r}")
    try:
        got = model.parse_tpo(json.loads(result["stdout"])["tpo"])
    except (ValueError, KeyError):
        return problems + ["unparseable closure answer"]
    if not model.satisfies(got, plain, conds):
        problems.append("closure answer violates an entry of the file")
    if model.satisfies(generator, plain, conds) and not model.flatter_eq(got, generator):
        problems.append("closure answer is less flat than the generating preorder")
    return problems


def replay_failures(root: Path, ops, results) -> dict:
    """Replay every witness of every failing check report.

    Returns {op index: problem}.  Uses the program's ``replay_witness``,
    outside the timed region.
    """
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from beliefchange.operators import Contraction, Revision
    from beliefchange.postulates import Witness, replay_witness

    problems = {}
    for index, (argv, result) in enumerate(zip(ops, results)):
        if argv[2] != "check" or result is None or result["code"] != 1:
            continue
        try:
            report = json.loads(result["stdout"])
        except ValueError:
            continue  # already reported by check_report
        scope = parse_check_argv(argv)
        revision = Revision(scope["revision"]) if scope["revision"] else None
        contraction = Contraction(scope["contraction"]) if scope["contraction"] else None
        for w in report.get("witnesses", ()):
            witness = Witness(
                tpos=tuple(w["tpos"]), inputs=tuple(w["inputs"]),
                worlds=tuple(w["worlds"]), note=w["note"],
            )
            if not replay_witness(scope["id"], witness, revision, contraction, n_atoms=scope["n"]):
                problems[index] = "a witness does not replay"
                break
    return problems
