import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import beliefchange
from beliefchange.cli import (
    _build_parser,
    _read_argv,
    closure_answer,
    main,
    parse_conditional_set,
    run_scenario,
)
from beliefchange.conditionals import rational_base
from beliefchange.exceptions import ScenarioError, UnsatisfiableError
from beliefchange.lang import MixedSet, all_worlds, dnf_of_worlds
from beliefchange.tpo import conditional_set, enumerate_tpos, parse_tpo

ATOMS = ("p", "q")

FIGURE_SCENARIO = """\
# lexicographic walk on the four-world example
atoms: p q
initial: 00 | 11 | 01 10
step: revise lexicographic p
query: belief p
query: conditional p => q
"""

FIGURE_TRANSCRIPT = """\
atoms: p q
initial: 00 | 11 | 01 10
beliefs: ~p & ~q
step 1: revise lexicographic p
state: 11 | 10 | 00 | 01
beliefs: p & q
query belief p: true
query conditional p => q: true
"""


def _worlds(mask):
    """The worlds of a mask, ascending."""
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def conditional_set_lines(t, atoms=ATOMS):
    lines = [
        f"{dnf_of_worlds(p, atoms)} => {dnf_of_worlds(q, atoms)}"
        for p, q in sorted(
            conditional_set(t).strongest_map().items(), key=lambda kv: _worlds(kv[0])
        )
    ]
    lines.append(dnf_of_worlds(t.masks[0], atoms))
    return lines


# ---------------------------------------------------------------------------
# run


def test_figure_scenario_transcript_is_exact():
    code, out, err = run_scenario(FIGURE_SCENARIO)
    assert (code, err) == (0, "")
    assert out == FIGURE_TRANSCRIPT


def test_expansion_scenario_reaches_absurd():
    code, out, err = run_scenario(
        "atoms: p q\ninitial: 00 | 11 | 01 10\nstep: expand natural p\n"
    )
    assert code == 0
    assert "state: absurd" in out
    assert "beliefs: false" in out


def test_contraction_scenario_fixed_point():
    code, out, err = run_scenario(
        "atoms: p q\ninitial: 11 | 10 01 | 00\nstep: contract contract-stq-lex ~p\n"
    )
    assert code == 0
    assert "state: 11 | 01 10 | 00" in out


def test_transcripts_are_stable_across_runs():
    assert run_scenario(FIGURE_SCENARIO) == run_scenario(FIGURE_SCENARIO)


def test_machine_transcript_is_json():
    code, out, err = run_scenario(FIGURE_SCENARIO, fmt="machine")
    assert code == 0
    record = json.loads(out)
    assert record["initial"]["state"] == "00 | 11 | 01 10"
    assert record["steps"][0]["state"] == "11 | 10 | 00 | 01"
    assert record["steps"][0]["queries"][0]["result"] is True


def test_scenario_parse_errors_exit_2():
    for text in (
        "initial: 00 | 11 | 01 10\n",  # missing atoms
        "atoms: p q\n",  # missing initial
        "atoms: p q\ninitial: 00 | 11\n",  # bad partition
        "atoms: p q\ninitial: 00 00 | 01 10 11\n",  # a world twice in one cell
        "atoms: p q\ninitial: 00 | 11 | 01 10\nstep: revise sideways p\n",
        "atoms: p q\ninitial: 00 | 11 | 01 10\nstep: revise natural p &\n",
        "atoms: p q\ninitial: 00 | 11 | 01 10\nnonsense: 1\n",
        "atoms: p q\natoms: r s\ninitial: 00 | 11 | 01 10\n",  # a second atoms line
        "atoms: p q\ninitial: 00 | 11 | 01 10\ninitial: 11 | 00 01 10\n",  # a second initial
    ):
        code, out, err = run_scenario(text)
        assert code == 2, text
        assert err.startswith("error:")


def test_semantic_errors_exit_3_with_step_index():
    code, out, err = run_scenario(
        "atoms: p q\ninitial: 00 | 11 | 01 10\n"
        "step: revise natural ~p\nstep: revise natural p & ~p\n"
    )
    assert code == 3
    assert "step 2" in err
    assert "step 1: revise natural ~p" in out  # transcript up to the failure

    code, _, err = run_scenario(
        "atoms: p q\ninitial: absurd\nstep: revise natural p\n"
    )
    assert code == 3 and "step 1" in err


def test_conditional_query_on_absurd_initial_state_exits_3_with_transcript():
    text = "atoms: p q\ninitial: absurd\nquery: belief p\nquery: conditional p => q\n"
    code, out, err = run_scenario(text)
    assert code == 3
    assert out == "atoms: p q\ninitial: absurd\nbeliefs: false\n"
    assert err == "error: conditional queries against the absurd state are undefined\n"
    code, out, err = run_scenario(text, fmt="machine")
    assert code == 3
    assert json.loads(out) == {
        "atoms": ["p", "q"],
        "initial": {"beliefs": "false", "state": "absurd"},
        "steps": [],
    }


def test_conditional_query_on_absurd_initial_state_through_main(tmp_path, capsys):
    path = tmp_path / "absurd.txt"
    path.write_text("atoms: p q\ninitial: absurd\nquery: conditional p => q\n")
    assert main(["run", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "atoms: p q\ninitial: absurd\nbeliefs: false\n"
    assert "conditional queries against the absurd state" in captured.err


def test_scenario_formulas_are_parsed_once(monkeypatch):
    from beliefchange import cli

    seen = []
    real = cli.models

    def counting(text, atoms):
        seen.append(text)
        return real(text, atoms)

    monkeypatch.setattr(cli, "models", counting)
    code, _, _ = run_scenario(FIGURE_SCENARIO)
    assert code == 0
    # one step formula, one belief query, one conditional's two sides
    assert sorted(seen) == ["p", "p", "p", "q"]


def test_deeply_nested_step_formula_runs(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    formula = "(" * 400 + "p" + ")" * 400
    path.write_text(f"atoms: p q\ninitial: 00 | 11 | 01 10\nstep: revise natural {formula}\n")
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out.endswith("state: 11 | 00 | 01 10\nbeliefs: p & q\n")


def test_formula_nested_past_the_nesting_limit_is_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("p => " + "~" * 2000 + "p\n")
    assert main(["closure", str(path), "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: formula nested too deeply at offset 0\n"


def test_closure_formulas_are_parsed_once_per_distinct_text(monkeypatch):
    from beliefchange import cli

    seen = []
    real = cli.models

    def counting(text, atoms):
        seen.append(text)
        return real(text, atoms)

    monkeypatch.setattr(cli, "models", counting)
    text = "p => q\n  p   =>q\nq => p & q\n# p | q\np & q\n(p) => p&q\np => q  \n"
    delta = parse_conditional_set(text, ("p", "q"))
    assert sorted(seen) == ["(p)", "p", "p & q", "p&q", "q"]
    p, q = real("p", ("p", "q")), real("q", ("p", "q"))
    assert delta == MixedSet(p & q, frozenset({(p, q), (q, p & q), (p, p & q)}))

    seen.clear()
    with pytest.raises(ScenarioError) as err:
        parse_conditional_set("p => q\n(p) => q\n  p =>   (q\n", ("p", "q"))
    assert str(err.value) == "line 3: expected ')' at offset 9"
    assert seen == ["p", "q", "(p)", "(q"]  # the repeated 'p' of line 3 is not parsed again


@pytest.mark.parametrize(
    "text, message",
    [
        ("p => q => r\n", "line 1: unexpected character '=' at offset 7"),
        ("p\nq =>   (p   &  q\n", "line 2: expected ')' at offset 16"),
        ("  p & => q\n", "line 1: unexpected end of input at offset 3"),  # from the first non-blank
    ],
)
def test_closure_formula_errors_give_their_offset_in_the_line(text, message):
    with pytest.raises(ScenarioError) as err:
        parse_conditional_set(text, ("p", "q", "r"))
    assert str(err.value) == message


def test_run_formula_errors_give_their_line_and_offset_in_it():
    code, out, err = run_scenario(
        "atoms: p q\ninitial: 00 | 11 | 01 10\n\nstep: revise natural p    &\n"
    )
    assert (code, out) == (2, "")
    assert err == "error: line 4: unexpected end of input at offset 27\n"


def test_queries_without_steps_run_against_initial():
    code, out, _ = run_scenario(
        "atoms: p q\ninitial: 00 | 11 | 01 10\nquery: belief ~p\n"
    )
    assert code == 0
    assert "query belief ~p: true" in out


# ---------------------------------------------------------------------------
# closure files


def test_closure_of_contracted_set_plus_input(tmp_path, capsys):
    lines = conditional_set_lines(parse_tpo("00 11 | 01 10", 2)) + ["p"]
    path = tmp_path / "set.txt"
    path.write_text("\n".join(lines) + "\n")
    code = main(["closure", str(path), "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tpo: 11 | 00 | 01 10" in out
    assert "fast-path: applied" in out


def test_closure_of_rational_set_is_identity(tmp_path, capsys):
    m0 = parse_tpo("00 | 11 | 01 10", 2)
    path = tmp_path / "set.txt"
    path.write_text("\n".join(conditional_set_lines(m0)) + "\n")
    code = main(["closure", str(path), "--n", "2"])
    assert code == 0
    assert "tpo: 00 | 11 | 01 10" in capsys.readouterr().out


def test_closure_of_contradiction_exits_1(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("true => p\ntrue => ~p\n")
    code = main(["closure", str(path), "--n", "2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_closure_without_fast_path(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("p => q\n")
    code = main(["closure", str(path), "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fast-path: not applicable" in out
    assert "tpo: " in out


def test_closure_machine_format(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("p => q\n")
    code = main(["--format", "machine", "closure", str(path), "--n", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fast_path"] is False
    assert "|" in payload["tpo"]


def test_closure_custom_atoms(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("a => b\n")
    code = main(["closure", str(path), "--n", "2", "--atoms", "a,b"])
    assert code == 0
    path.write_text("x => y\n")
    assert main(["closure", str(path), "--n", "2"]) == 2  # unknown atoms


@pytest.mark.parametrize("n_atoms", ["-1", "0", "5"])
def test_closure_atom_count_out_of_range_is_a_usage_error(n_atoms, tmp_path, capsys):
    # checked before any default atom names are taken from --n
    path = tmp_path / "set.txt"
    path.write_text("p\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["closure", str(path), "--n", n_atoms])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"--n must be 1 to 4, got {n_atoms}" in err
    assert "--atoms" not in err


def test_closure_at_four_atoms(tmp_path, capsys):
    path = tmp_path / "set.txt"
    path.write_text("true => ~p\np => q\np => ~q | r\n")
    code = main(["--format", "machine", "closure", str(path), "--n", "4"])
    assert code == 0
    # Z levels: true => ~p at 0, the two p rules at 1; so ~p worlds rank
    # 0, p worlds keeping both p rules rank 1, the others rank 2
    assert json.loads(capsys.readouterr().out) == {
        "fast_path": False,
        "tpo": "0000 0001 0010 0011 0100 0101 0110 0111 | 1110 1111"
        " | 1000 1001 1010 1011 1100 1101",
    }


def _submasks(mask):
    """Every submask of a mask, the mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def test_closure_answer_on_a_plain_part_missing_every_belief_is_unsatisfiable():
    # A preorder's conditional set plus a plain part false in all its
    # minimal worlds: the two rules with antecedent true (the plain part,
    # and true => the beliefs) are never tolerated together, so System Z
    # finds the set unsatisfiable although the fast path applies.
    cases = 0
    for n in (1, 2):
        for t in enumerate_tpos(n):
            pairs = conditional_set(t).cond_pairs
            for plain in _submasks(all_worlds(n) & ~t.masks[0]):
                delta = MixedSet(plain_models=plain, cond_pairs=pairs)
                assert rational_base(delta, n) == t
                with pytest.raises(UnsatisfiableError) as err:
                    closure_answer(delta, n)
                assert str(err.value) == "no total preorder satisfies the input set"
                cases += 1
    assert cases == 502


def test_conditional_set_parser_ignores_comments_and_blanks():
    delta = parse_conditional_set("# comment\n\np => q\n~p\n", ATOMS)
    assert len(delta.cond_pairs) == 1
    assert delta.plain_models == 0b0011


# ---------------------------------------------------------------------------
# check / verify subcommands


def test_check_pass_and_fail_exit_codes(capsys):
    assert main(["check", "DP3", "restrained", "--n", "2", "--mode", "exhaustive"]) == 0
    capsys.readouterr()
    code = main(
        ["check", "CR4", "natural", "contract-stq-lex", "--n", "2", "--mode", "exhaustive"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "witness" in out


def test_check_spu_passes_for_matching_pair(capsys):
    assert main(["check", "SPU", "natural", "contract-natural", "--n", "2"]) == 0
    capsys.readouterr()


def test_check_usage_errors_exit_2(capsys):
    assert main(["check", "SPU", "natural", "--n", "2"]) == 2  # missing contraction
    capsys.readouterr()
    assert main(["check", "Bogus", "natural"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "DP1", "sideways"])
    assert exit_info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "DP1", "natural", "--n", "3", "--mode", "sampled", "--sample", "0"],
        ["check", "DP1", "natural", "--n", "3", "--mode", "sampled", "--sample", "-5"],
        ["check", "DP1", "natural", "--n", "0"],
        ["check", "DP1", "natural", "--n", "-1"],
        ["check", "DP1", "natural", "--n", "2", "--workers", "0"],
        ["check", "DP1", "natural", "--n", "2", "--workers", "-3"],
        ["check", "DP1", "natural", "--n", "2", "--sample", "5", "--seed", "3"],
        ["check", "DP1", "natural", "--n", "2", "--mode", "exhaustive", "--seed", "3"],
        ["verify", "T2", "--n", "0"],
        ["verify", "T1", "--n", "1"],
        ["verify", "T1", "--n", "0"],
    ],
)
def test_bad_scope_values_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "shift" not in captured.err


def test_a_sample_above_a_million_is_a_usage_error(capsys):
    # rejected before any draw: the check never builds the sample
    argv = ["check", "DP1", "natural", "--n", "2", "--mode", "sampled", "--seed", "1"]
    assert main([*argv, "--sample", str(10**20)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the sample size must be at most 1000000\n"


def test_verify_subcommand(capsys):
    assert main(["verify", "P5", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "outcome: pass" in out
    assert "11 | 01 10 | 00" in out  # the reproduced prior state


def test_verify_machine_format(capsys):
    assert main(["--format", "machine", "verify", "T3", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"] == "T3"
    assert payload["outcome"] == "pass"


def test_check_workers_flag_gives_identical_output(capsys):
    main(["check", "DP1", "natural", "--n", "2", "--workers", "1"])
    single = capsys.readouterr().out
    main(["check", "DP1", "natural", "--n", "2", "--workers", "2"])
    double = capsys.readouterr().out
    assert single == double


def test_run_subcommand_reads_files(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    path.write_text(FIGURE_SCENARIO)
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == FIGURE_TRANSCRIPT
    assert main(["run", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# The argv reader against argparse

_INTS = ("2", "3", "0", " 4", "+2", "1_0", "\u0663", "x", "-1", "")
_CHECK_OPTIONS = (
    ("--n", _INTS),
    ("--mode", ("sampled", "exhaustive", "x")),
    ("--seed", _INTS),
    ("--sample", _INTS),
    ("--workers", _INTS),
)
# (subcommand, positionals, options with values to draw): the canonical shapes
_SHAPES = (
    ("run", ["s.txt"], ()),
    ("check", ["DP1", "natural"], _CHECK_OPTIONS),
    ("check", ["SPU", "restrained", "contract-natural"], _CHECK_OPTIONS),
    ("verify", ["T1"], (("--n", _INTS),)),
    ("closure", ["s.txt"], (("--n", _INTS), ("--atoms", ("p,q", "a b", "p", "-h")))),
)
_NEAR_MISSES = (
    "--form", "--se", "--s", "-h", "--help", "--", "--n=", "--n", "-1", "--format", "machine",
    " 4", "+2", "1_0", "\u0663", "", "sideways", "contract-stq-lex", "P5", "Bogus",
    "--atoms", "--mode", "--seed", "--mode=x", "--format=text", "check", "verify", "s.txt",
)

_PARSER = _build_parser()


def _parsed(argv):
    """argparse's namespace for ``argv`` as a dict, or None where it
    exits (a usage error, or help)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_PARSER.parse_args(argv))
    except SystemExit:
        return None


def _canonical(rng):
    """A random argv in the reader's canonical form, values not always valid."""
    front = rng.choice(([], ["--format", "machine"], ["--format=text"]))
    command, positionals, options = rng.choice(_SHAPES)
    argv = [*front, command, *positionals]
    for flag, values in rng.sample(options, rng.randrange(len(options) + 1)):
        value = rng.choice(values)
        argv += rng.choice(([flag, value], [f"{flag}={value}"]))
    return argv


def _near_valid(rng):
    """A canonical argv with up to three edits: a near miss inserted or
    put in place of a token, a token dropped, two swapped, the last two
    repeated, moved before the positionals, or ``--format`` appended."""
    argv = _canonical(rng)
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(argv) + 1)
        edit = rng.randrange(6)
        if edit == 0:
            argv.insert(i, rng.choice(_NEAR_MISSES))
        elif edit == 1 and i < len(argv):
            argv[i] = rng.choice(_NEAR_MISSES)
        elif edit == 2 and i < len(argv):
            del argv[i]
        elif edit == 3 and i + 1 < len(argv):
            argv[i], argv[i + 1] = argv[i + 1], argv[i]
        elif edit == 4:
            argv += argv[-2:]
        elif edit == 5 and i < len(argv):
            argv[i:i] = rng.choice((argv[-2:], ["--format", "machine"]))
    return argv


def _typed(namespace):
    return {key: (type(value), value) for key, value in namespace.items()}


@pytest.mark.parametrize("seed", [0, 1])
def test_the_argv_reader_agrees_with_argparse_on_near_valid_argv(seed):
    rng = random.Random(seed)
    accepted = set()
    for _ in range(3000):
        argv = _near_valid(rng)
        read = _read_argv(argv)
        if read is not None:
            assert _typed(read) == _typed(_parsed(argv) or {}), argv
            accepted.update(argv)
        elif _parsed(argv) is not None:
            accepted.add("declined but parsed")
    # the draw reaches both sides, and the reader takes what int() takes
    assert {" 4", "+2", "1_0", "\u0663", "declined but parsed"} <= accepted


def _with_each_option(command, positionals, options):
    """The shape with no option, with each option in both forms, and with all of them."""
    base = [command, *positionals]
    yield base
    for flag, values in options:
        yield [*base, flag, values[0]]
        yield [*base, f"{flag}={values[0]}"]
    yield [*base, *(token for flag, values in options for token in (flag, values[0]))]


@pytest.mark.parametrize("front", [[], ["--format", "machine"], ["--format=text"]])
def test_the_argv_reader_takes_every_canonical_shape(front):
    for shape in _SHAPES:
        for argv in _with_each_option(*shape):
            read = _read_argv([*front, *argv])
            assert read is not None, argv
            assert _typed(read) == _typed(_parsed([*front, *argv]))


@pytest.mark.parametrize(
    "argv",
    [
        ["--form", "machine", "verify", "T1"],  # an abbreviation
        ["check", "DP1", "natural", "--se", "3"],
        ["check", "DP1", "natural", "--n", "-1"],  # a value starting with '-'
        ["closure", "s.txt", "--atoms=-p"],
        ["check", "DP1", "natural", "--n", "2", "--n", "3"],  # a repeated option
        ["check", "DP1", "--n", "2", "natural"],  # an option before a positional
        ["verify", "T1", "--format", "machine"],  # --format after the subcommand
        ["verify", "T1", "--n="],
        ["verify", "T1", "-h"],
        ["--", "verify", "T1"],
        ["verify", "", "T1"],
    ],
)
def test_the_argv_reader_leaves_other_argv_to_argparse(argv):
    assert _read_argv(argv) is None


# ---------------------------------------------------------------------------
# main() with no argv, as the console script calls it

SRC = os.path.dirname(os.path.dirname(beliefchange.__file__))


def _fresh_python(args, cwd):
    """stdout, stderr and exit code of a fresh ``python -B`` on ``args``,
    at a help width of 80 columns, with this tree's package."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    out = subprocess.run(
        [sys.executable, "-B", *args], env=env, cwd=cwd, capture_output=True, text=True,
        timeout=120,
    )
    return out.stdout, out.stderr, out.returncode


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "DP3", "restrained", "--n", "2"],
        ["--format", "machine", "closure", "set.txt", "--n", "3"],
        ["check", "DP1", "sideways"],
        ["closure", "set.txt", "--n", "5"],
        ["--help"],
    ],
)
def test_the_module_entry_point_writes_what_main_writes(argv, tmp_path, capsys, monkeypatch):
    (tmp_path / "set.txt").write_text("p => q\nr\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert _fresh_python(["-m", "beliefchange.cli", *argv], tmp_path) == (
        captured.out, captured.err, code
    )


def test_a_canonical_closure_op_loads_no_argparse(tmp_path):
    (tmp_path / "set.txt").write_text("p => q\n")
    code = (
        "import sys; from beliefchange.cli import main; "
        "sys.argv = ['beliefchange', '--format', 'machine', 'closure', 'set.txt', '--n', '3']; "
        "code = main(); "
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), code, file=sys.stderr)"
    )
    out, err, returncode = _fresh_python(["-c", code], tmp_path)
    assert (err, returncode) == ("[] 0\n", 0)
    assert json.loads(out)["tpo"]
