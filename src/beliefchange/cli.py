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

The command surface is described once, in one table (``_COMMANDS``, with
``_FORMAT``).  ``main`` reads a well-formed argv from it directly
(``_read_argv``): ``--format`` first, then one subcommand, its
positionals, then its options by full name, each at most once.  Any
other argv (help, an abbreviation, a repeated option, a bad value) goes
unchanged to argparse, built from the same table only then
(``_build_parser``), so argparse writes every help, usage and error
message, and a well-formed call imports no argparse.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from types import SimpleNamespace

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
    header = {}  # "atoms" and "initial": the content of their one line
    steps = []
    queries = []
    for number, line in _content_lines(text):
        if ":" not in line:
            raise ScenarioError(f"line {number}: expected 'section: content'")
        section, _, content = line.partition(":")
        section = section.strip()
        content = content.strip()
        if section in ("atoms", "initial"):
            if section in header:
                raise ScenarioError(f"line {number}: duplicate '{section}:' line")
            header[section] = content
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
    for section in ("atoms", "initial"):
        if section not in header:
            raise ScenarioError(f"missing '{section}:' line")
    atoms = tuple(header["atoms"].split())
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
    return Scenario(atoms=atoms, initial_text=header["initial"], steps=steps, queries=queries)


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


# The CLI surface, once.  An option is (flag, dest, int or its choices
# or None for any text, default, help); a subcommand has its help, its
# positionals (dest, choices or None, required, help) and its options.
# ``_build_parser`` builds argparse from it, and ``_read_argv`` reads a
# well-formed argv from it without argparse.
_FORMAT = ("--format", "format", ("text", "machine"), "text", "report format (default: text)")
_N_ATOMS = ("--n", "n_atoms", int, 2, None)
_COMMANDS = {
    "run": ("execute a scenario file", (("file", None, True, None),), ()),
    "check": (
        "check one postulate",
        (
            ("postulate", None, True, ", ".join(POSTULATE_IDS)),
            ("revision", sorted(_REVISIONS), True, None),
            ("contraction", sorted(_CONTRACTIONS), False, None),
        ),
        (
            _N_ATOMS,
            ("--mode", "mode", ("exhaustive", "sampled"), "exhaustive", None),
            ("--seed", "seed", int, None, None),
            ("--sample", "sample", int, None, None),
            ("--workers", "workers", int, 1, None),
        ),
    ),
    "verify": ("verify a named claim", (("claim", CLAIM_IDS, True, None),), (_N_ATOMS,)),
    "closure": (
        "rational closure of a conditional-set file",
        (("file", None, True, None),),
        (
            _N_ATOMS,
            (
                "--atoms", "atoms", None, None,
                "atom names, comma or space separated (default: p q r ... per --n)",
            ),
        ),
    ),
}


def _build_parser():
    """The argparse parser of the CLI surface: every help, usage and
    error message comes from it."""
    import argparse

    def add_option(parser, option):
        flag, dest, kind, default, text = option
        kwargs = {"type": kind} if kind is int else {"choices": kind}
        parser.add_argument(flag, dest=dest, default=default, help=text, **kwargs)

    parser = argparse.ArgumentParser(
        prog="beliefchange",
        description="Iterated belief change over finite total preorders.",
    )
    add_option(parser, _FORMAT)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for dest, choices, required, help_text in positionals:
            command.add_argument(
                dest, nargs=None if required else "?", choices=choices, help=help_text
            )
        for option in options:
            add_option(command, option)
    return parser


def _read_options(args, options, into) -> bool:
    """Read ``args`` into the dict ``into`` as full-name options of
    ``options``, each ``--flag value`` or ``--flag=value`` and given at
    most once; a value must be nonempty and not start with '-', and is
    converted by ``int`` or checked against the choices as argparse
    does.  False at the first token that is none of these."""
    table = {option[0]: option for option in options}
    tokens = iter(args)
    for token in tokens:
        flag, equals, value = token.partition("=")
        if not equals:
            value = next(tokens, "")
        if flag not in table or not value or value[0] == "-":
            return False
        _, dest, kind, _, _ = table[flag]
        if dest in into:
            return False
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return False
        elif kind is not None and value not in kind:
            return False
        into[dest] = value
    return True


def _read_argv(argv):
    """What argparse would read from ``argv``, as the dict of its
    namespace, when ``argv`` is in the canonical form: top-level options,
    one subcommand, its positionals, then its options (``_read_options``).
    None for any other argv (a list), which is left to argparse."""
    if not all(isinstance(arg, str) for arg in argv):
        return None
    head = next((i for i, arg in enumerate(argv) if arg in _COMMANDS), None)
    if head is None:
        return None
    command = argv[head]
    _, positionals, options = _COMMANDS[command]
    read = {"command": command}
    if not _read_options(argv[:head], (_FORMAT,), read):
        return None
    rest = argv[head + 1:]
    for dest, choices, required, _ in positionals:
        if rest and rest[0] and rest[0][0] != "-":
            value = rest.pop(0)
            if choices is not None and value not in choices:
                return None
        elif required:
            return None
        else:
            value = None
        read[dest] = value
    if not _read_options(rest, options, read):
        return None
    for _, dest, _, default, _ in (_FORMAT, *options):
        read.setdefault(dest, default)
    return read


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
    argv = sys.argv[1:] if argv is None else list(argv)
    read = _read_argv(argv)
    args = _build_parser().parse_args(argv) if read is None else SimpleNamespace(**read)
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
                _build_parser().error(f"--n must be 1 to {MAX_ATOMS}, got {args.n_atoms}")
            if args.atoms:
                atoms = tuple(args.atoms.replace(",", " ").split())
            else:
                atoms = default_atoms(args.n_atoms)
            if len(atoms) != args.n_atoms:
                _build_parser().error(f"--atoms names {len(atoms)} atoms but --n is {args.n_atoms}")
            try:
                check_atoms(atoms)
            except ValueError as exc:
                _build_parser().error(str(exc))
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
