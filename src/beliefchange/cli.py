"""Command-line surface: scenario runs, postulate checks, claim
verification, and rational-closure queries.

Commands::

    beliefchange [--format text|machine] run <file>
    beliefchange [--format text|machine] check <postulate> <revision> [<contraction>]
                 --n <k> [--mode exhaustive | --mode sampled [--seed S] [--sample N]]
                 [--workers W]
    beliefchange [--format text|machine] verify <claim> --n <k>
    beliefchange [--format text|machine] closure <file> --n <k> [--atoms ...]

Exit codes: ``run`` 0/2 (parse)/3 (semantic, after the transcript up
to the failure); ``check`` 0 pass, 1 fail, 2 usage; ``verify`` 0 iff
the claim's check passes; ``closure`` 0, 1 unsatisfiable, 2 usage.  All
output is a pure function of the inputs; transcripts and reports are
byte-identical across runs.

Files are read once: ``parse_scenario`` resolves every method name and
parses every formula to its world mask (a conditional to its pair of
masks), and ``parse_conditional_set`` builds a ``MixedSet`` from masks,
so running a scenario or a closure query parses no formula again.  A
formula error in a file names its line and its offset in the line,
counted from the line's first non-blank character.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from .conditionals import rational_base, rational_closure, rational_closure_fast
from .exceptions import (
    BeliefChangeError,
    FormulaNestingError,
    FormulaSyntaxError,
    MalformedDiagramError,
    MissingContractionError,
    PartitionError,
    ScenarioError,
    ScopeError,
    UnsatisfiableError,
)
from .lang import MAX_ATOMS, MixedSet, all_worlds, check_atoms, dnf_of_worlds, models
from .operators import Contraction, Revision, contract, expand, nli_revise, revise
from .postulates import (
    CLAIM_IDS,
    POSTULATE_IDS,
    check_postulate,
    default_atoms,
    render_machine,
    render_text,
    verify_claim,
)
from .tpo import Absurd, State, beliefs, conditional_holds, format_tpo, parse_tpo

_REVISIONS = {m.value: m for m in Revision}
_CONTRACTIONS = {m.value: m for m in Contraction}
_STEP_OPERATORS = {"revise": revise, "contract": contract, "expand": expand, "nli-revise": nli_revise}


# ---------------------------------------------------------------------------
# Scenario files


class Step(namedtuple("Step", "text kind methods sentence")):
    """A step as written (e.g. 'revise natural p'), its kind (revise |
    contract | expand | nli-revise), its named operators, resolved, and
    its formula's world mask."""

    __slots__ = ()


class Query(namedtuple("Query", "text sentence")):
    """A query as written (e.g. 'conditional p => q') and its sentence: a
    belief's world mask, or a conditional's mask pair."""

    __slots__ = ()


class Scenario(namedtuple("Scenario", "atoms initial_text steps queries")):
    __slots__ = ()


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def parse_scenario(text: str) -> Scenario:
    atoms = None
    initial = None
    steps = []
    queries = []
    for number, line in _content_lines(text):
        if ":" not in line:
            raise ScenarioError(f"line {number}: expected 'section: content'")
        section, _, content = line.partition(":")
        section = section.strip()
        content = content.strip()
        if section == "atoms":
            atoms = tuple(content.split())
        elif section == "initial":
            initial = content
        elif section == "step":
            parts = content.split()
            if not parts:
                raise ScenarioError(f"line {number}: empty step")
            kind = parts[0]
            if kind in ("revise", "contract", "expand"):
                if len(parts) < 3:
                    raise ScenarioError(f"line {number}: step needs a method and a formula")
                table = _CONTRACTIONS if kind == "contract" else _REVISIONS
                if parts[1] not in table:
                    raise ScenarioError(f"line {number}: unknown method {parts[1]!r}")
                methods = (table[parts[1]],)
            elif kind == "nli-revise":
                if len(parts) < 4:
                    raise ScenarioError(
                        f"line {number}: nli-revise needs contraction, revision and a formula"
                    )
                if parts[1] not in _CONTRACTIONS or parts[2] not in _REVISIONS:
                    raise ScenarioError(f"line {number}: unknown method in nli-revise step")
                methods = (_CONTRACTIONS[parts[1]], _REVISIONS[parts[2]])
            else:
                raise ScenarioError(f"line {number}: unknown step {kind!r}")
            formula = content.split(None, len(methods) + 1)[-1]  # the raw rest of the line
            steps.append((number, line, len(line) - len(formula), parts, methods))
        elif section == "query":
            parts = content.split(None, 1)
            if len(parts) != 2 or parts[0] not in ("belief", "conditional"):
                raise ScenarioError(f"line {number}: query must be 'belief F' or 'conditional A => B'")
            queries.append((number, line, len(line) - len(parts[1]), parts[0]))
        else:
            raise ScenarioError(f"line {number}: unknown section {section!r}")
    if atoms is None:
        raise ScenarioError("missing 'atoms:' line")
    if initial is None:
        raise ScenarioError("missing 'initial:' line")
    try:
        check_atoms(atoms)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    steps = tuple(
        Step(" ".join(parts), parts[0], methods, _models_at(number, line, atoms, start))
        for number, line, start, parts, methods in steps
    )
    queries = tuple(
        Query(f"{kind} {line[start:]}", _query_sentence(number, kind, line, start, atoms))
        for number, line, start, kind in queries
    )
    return Scenario(atoms=atoms, initial_text=initial, steps=steps, queries=queries)


def _models_at(
    number: int, line: str, atoms, start: int = 0, end: int | None = None, memo=None
) -> int:
    """The mask of the formula ``line[start:end]`` of file line ``number``
    (a line stripped of its blanks); a syntax error names the line and
    its offset in the line.  ``memo``, if given, is a dict from stripped
    formula text to mask that the call reads and fills; an error is never
    stored, so a bad formula raises at its own line and offset."""
    text = line[start:end]
    formula = text.strip()
    if memo is not None and formula in memo:
        return memo[formula]
    try:
        mask = models(formula, atoms)
    except FormulaNestingError as exc:
        raise ScenarioError(f"line {number}: {exc}") from None
    except FormulaSyntaxError as exc:
        offset = start + len(text) - len(text.lstrip()) + exc.position
        raise ScenarioError(f"line {number}: {exc.reason} at offset {offset}") from None
    if memo is not None:
        memo[formula] = mask
    return mask


def _conditional(number: int, line: str, atoms, start: int = 0, memo=None) -> tuple:
    """The (antecedent, consequent) masks of the conditional 'A => B'
    written from offset ``start`` of file line ``number``."""
    arrow = line.index("=>", start)
    return (
        _models_at(number, line, atoms, start, arrow, memo),
        _models_at(number, line, atoms, arrow + 2, memo=memo),
    )


def _query_sentence(number: int, kind: str, line: str, start: int, atoms):
    if kind == "belief":
        return _models_at(number, line, atoms, start)
    if "=>" not in line[start:]:
        raise ScenarioError("conditional query must be written 'A => B'")
    return _conditional(number, line, atoms, start)


def _parse_state(text: str, n_atoms: int) -> State:
    if text == "absurd":
        return Absurd(n_atoms)
    return parse_tpo(text, n_atoms)


def _state_record(state: State, atoms) -> dict:
    """A state as a run records it: its text and its beliefs' text."""
    text = "absurd" if isinstance(state, Absurd) else format_tpo(state)
    return {"state": text, "beliefs": dnf_of_worlds(beliefs(state), atoms)}


def _apply_step(state: State, step: Step) -> State:
    if isinstance(state, Absurd) and step.kind in ("revise", "nli-revise"):
        what = "revision" if step.kind == "revise" else "nli-revise"
        raise BeliefChangeError(f"{what} of the absurd state is undefined")
    return _STEP_OPERATORS[step.kind](state, step.sentence, *step.methods)


def _answer_query(state: State, query: Query) -> bool:
    if isinstance(query.sentence, tuple):
        if isinstance(state, Absurd):
            raise BeliefChangeError("conditional queries against the absurd state are undefined")
        return conditional_holds(state, *query.sentence)
    if isinstance(state, Absurd):
        return True  # the absurd belief set is the whole language
    return not beliefs(state) & ~query.sentence


def run_scenario(text: str, fmt: str = "text") -> tuple:
    """Execute a scenario; returns (exit_code, stdout_text, stderr_text).
    The run is recorded once, and its transcript rendered from the record
    (``_render_run``), up to the failure if a step fails."""
    try:
        scenario = parse_scenario(text)
        atoms = scenario.atoms
        state = _parse_state(scenario.initial_text, len(atoms))
    except (ScenarioError, PartitionError) as exc:
        return 2, "", f"error: {exc}\n"

    def answers(now):
        return [{"query": q.text, "result": _answer_query(now, q)} for q in scenario.queries]

    record = {"atoms": list(atoms), "initial": _state_record(state, atoms), "steps": []}
    if not scenario.steps and scenario.queries:
        try:
            record["initial"]["queries"] = answers(state)
        except BeliefChangeError as exc:
            return 3, _render_run(fmt, record), f"error: {exc}\n"
    for index, step in enumerate(scenario.steps, start=1):
        try:
            state = _apply_step(state, step)
            queries = answers(state)
        except BeliefChangeError as exc:
            return 3, _render_run(fmt, record), f"error: step {index}: {exc}\n"
        record["steps"].append(
            {"index": index, "step": step.text, **_state_record(state, atoms), "queries": queries}
        )
    return 0, _render_run(fmt, record), ""


def _render_run(fmt: str, record) -> str:
    """A run's transcript from its record: the record as JSON in machine
    format; in text, the atoms, then the initial state and each step's
    state, each with its beliefs and query answers."""
    if fmt == "machine":
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    lines = [f"atoms: {' '.join(record['atoms'])}", f"initial: {record['initial']['state']}"]
    for entry in (record["initial"], *record["steps"]):
        if "index" in entry:
            lines += [f"step {entry['index']}: {entry['step']}", f"state: {entry['state']}"]
        lines.append(f"beliefs: {entry['beliefs']}")
        queries = entry.get("queries", ())
        lines += (f"query {q['query']}: {str(q['result']).lower()}" for q in queries)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Conditional-set files


def parse_conditional_set(text: str, atoms) -> MixedSet:
    """One entry per line: plain formulas as-is, conditionals as A => B.
    Each distinct formula text is parsed once per call: a file's
    consequents repeat, since a preorder has few distinct minimal sets."""
    atoms = check_atoms(atoms)
    plain = all_worlds(len(atoms))
    pairs = set()
    memo: dict = {}
    for number, line in _content_lines(text):
        if "=>" in line:
            pairs.add(_conditional(number, line, atoms, memo=memo))
        else:
            plain &= _models_at(number, line, atoms, memo=memo)
    return MixedSet(plain_models=plain, cond_pairs=frozenset(pairs))


def closure_answer(delta: MixedSet, n_atoms: int) -> tuple:
    """Closure result plus whether the natural-revision fast path applied.

    The fast path applies when the conditional part is exactly some
    preorder's conditional set.  Where it applies, the fast path
    cross-checks the System Z answer.
    """
    base = rational_base(delta, n_atoms)
    result = rational_closure(delta, n_atoms)
    if base is not None and rational_closure_fast(base, delta.plain_models) != result:
        raise BeliefChangeError(
            "internal error: fast path disagrees with the flattest satisfier"
        )
    return result, base is not None


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefchange",
        description="Iterated belief change over finite total preorders.",
    )
    parser.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="report format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a scenario file")
    run_parser.add_argument("file")

    check_parser = sub.add_parser("check", help="check one postulate")
    check_parser.add_argument("postulate", metavar="postulate",
                              help=", ".join(POSTULATE_IDS))
    check_parser.add_argument("revision", choices=sorted(_REVISIONS))
    check_parser.add_argument("contraction", nargs="?", choices=sorted(_CONTRACTIONS))
    check_parser.add_argument("--n", type=int, default=2, dest="n_atoms")
    check_parser.add_argument("--mode", choices=("exhaustive", "sampled"),
                              default="exhaustive")
    check_parser.add_argument("--seed", type=int, default=None)
    check_parser.add_argument("--sample", type=int, default=None)
    check_parser.add_argument("--workers", type=int, default=1)

    verify_parser = sub.add_parser("verify", help="verify a named claim")
    verify_parser.add_argument("claim", choices=CLAIM_IDS)
    verify_parser.add_argument("--n", type=int, default=2, dest="n_atoms")

    closure_parser = sub.add_parser("closure", help="rational closure of a conditional-set file")
    closure_parser.add_argument("file")
    closure_parser.add_argument("--n", type=int, default=2, dest="n_atoms")
    closure_parser.add_argument(
        "--atoms", default=None,
        help="atom names, comma or space separated (default: p q r ... per --n)",
    )
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from None


def _write_report(report, fmt: str) -> int:
    """Write a check or claim report; exit 0 if it passed, else 1."""
    sys.stdout.write(render_machine(report) if fmt == "machine" else render_text(report))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code, out, err = run_scenario(_read_file(args.file), args.format)
            sys.stdout.write(out)
            sys.stderr.write(err)
            return code
        if args.command == "check":
            contraction = (
                _CONTRACTIONS[args.contraction] if args.contraction else None
            )
            report = check_postulate(
                args.postulate,
                _REVISIONS[args.revision],
                contraction,
                n_atoms=args.n_atoms,
                mode=args.mode,
                seed=args.seed,
                sample=args.sample,
                workers=args.workers,
            )
            return _write_report(report, args.format)
        if args.command == "verify":
            return _write_report(verify_claim(args.claim, n_atoms=args.n_atoms), args.format)
        if args.command == "closure":
            if not 1 <= args.n_atoms <= MAX_ATOMS:
                parser.error(f"--n must be 1 to {MAX_ATOMS}, got {args.n_atoms}")
            if args.atoms:
                atoms = tuple(args.atoms.replace(",", " ").split())
            else:
                atoms = default_atoms(args.n_atoms)
            if len(atoms) != args.n_atoms:
                parser.error(f"--atoms names {len(atoms)} atoms but --n is {args.n_atoms}")
            try:
                check_atoms(atoms)
            except ValueError as exc:
                parser.error(str(exc))
            delta = parse_conditional_set(_read_file(args.file), atoms)
            try:
                tpo, fast = closure_answer(delta, args.n_atoms)
            except UnsatisfiableError as exc:
                sys.stderr.write(f"error: {exc}\n")
                return 1
            if args.format == "machine":
                sys.stdout.write(
                    json.dumps(
                        {"tpo": format_tpo(tpo), "fast_path": fast},
                        sort_keys=True,
                        indent=2,
                    )
                    + "\n"
                )
            else:
                sys.stdout.write(f"tpo: {format_tpo(tpo)}\n")
                sys.stdout.write(
                    "fast-path: applied (natural revision)\n" if fast else "fast-path: not applicable\n"
                )
            return 0
    except (
        ScenarioError,
        FormulaSyntaxError,
        PartitionError,
        MissingContractionError,
        ScopeError,
        MalformedDiagramError,
        ValueError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BeliefChangeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
