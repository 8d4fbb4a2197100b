"""Per-layer timings of two source trees of ``beliefchange`` in one process, as JSON.

Usage::

    python3 tools/ab_layers.py PARENT_SRC CHANGE_SRC
    python3 tools/ab_layers.py SRC SRC

Each ``SRC`` is a directory holding a ``beliefchange`` package.  Each
tree is loaded twice under aliases, in the order parent, change, change,
parent, so a lean that grows with load order falls on both trees
alike.  The second form times one tree against itself: its ratio
quartiles are then that tree's noise floor.

The layers are built by ``layers(bc, drawn)`` for each loaded package
from one set of seeded preorder indices, inputs and masks (``draws()``),
so both trees time the same instances; it is a context manager, whose
exit removes the temporary copy of the sources that the fresh-process
layers run.  Each layer's name ends in its unit, per call of the layer
(``_call_us`` is microseconds per operator call, ``_x1000_ms``
milliseconds per 1000 calls, a bare ``_ms`` or ``_s`` per run of the
whole layer).  The layers, at three atoms unless the name says
otherwise: building a preorder from its cell masks; ``revise`` and
``contract`` under every built-in method; the scan context's order memo
filling one prior's orders on all 255 inputs (``_Ctx(3).memo(revise |
contract, method).at(t, ctx.props)``, a fresh context per call) for each
built-in method on the drawn outer preorders; one prior's outcome row on
every input under restrained revision (``_Ctx(3, restrained).rows(t)``,
a fresh context per call) on the same preorders; the pair matrices of
one prior's ``contract-stq-lex`` contraction by one input, as the scan
context's packed pass lays them in lanes for all 255 inputs of each
drawn outer preorder (``_packed_relations(_Ctx(3, None, stq_lex), t,
("con",))``, a fresh context per outer); ``tpo_at_index``; a
full ``enumerate_tpos(3)``; one postulate scan of one outer, as a
sampled check runs it (Neut's outers pair each preorder with a
permutation of its worlds, so the isomorphism path runs), among them
iLIRC under lexicographic revision and ``contract-stq-restrained`` or
``contract-natural``, Success under lexicographic revision, and
HI_beliefs under restrained revision and ``contract-stq-restrained``; the
counts of DP3 natural, DP1 lexicographic, DP4 restrained, CC4 under
restrained revision and ``contract-stq-restrained``, SPU under
lexicographic revision and ``contract-natural``, CR4 natural, CC3
natural, SPU restrained and NLI restrained + ``contract-stq-lex``, and
iLIRC under lexicographic revision and ``contract-stq-restrained``, on
one preorder of each of the 128 compositions of the eight worlds, cut
from a seeded order of the worlds, without witnesses; the exhaustive
checks at two atoms of CR4 (which fails), IIAP and Neut; the claims
P2, T1, T3 (its ``pair_profile`` cache cleared), L_flattest, T4, P1 (its ``_dp_posterior_candidates`` cache cleared, as
in a fresh ``verify P1`` process) and P3 at two atoms; the six diagram
scans; ``pair_profile(2)`` and ``_dp_posterior_candidates(2)`` with
their caches cleared; the default sampled DP1 check (10000 samples) and
a six-sample IIAI check, at one and at two workers; a closure query
(``parse_conditional_set`` plus ``closure_answer``) on a preorder's full
conditional set plus its belief set, and the ``parse_conditional_set``
part of it alone; parsing the first 3000 lines of a four-atom preorder's
full conditional set; and ``run_scenario`` on a two-atom scenario of 36
steps that cycles through the four step kinds, with belief and
conditional queries, rendered as text and as machine output
(``SCENARIO``); and a fresh ``python -B -c "import beliefchange.cli"``
on a copy of the package's sources without bytecode, timed from spawn to
exit (``import_cli_ms``): it compiles the package from source and reads
the standard library's bytecode, as a benchmark op on a fresh checkout
does when no bytecode is written; and a fresh ``python -B`` on the same
copy running ``cli.main`` on the first closure file in machine format,
``--n 3``, from spawn to exit (``closure_op_n3_ms``): one closure-n3
benchmark op, its argv read included.

Every round times each layer once per loaded copy, in load order or in
its reverse, alternating between rounds, so the host's drift falls on
both trees alike; the garbage collector runs before each reading, not
during it.  A round's reading of a tree is the mean of its two copies,
and its ratio is the change's reading over the parent's.  Per layer the
output gives each tree's median reading, to four significant digits,
the ratio's median and quartiles, taken from the unrounded readings,
and the rounds in which the change was faster.

Beside the timings, ``counts`` gives each tree's exact number of orders
computed by ``pair_profile(2)`` (its cache cleared) and by the
exhaustive Neut check under natural revision at two atoms, and of
revision orders, through ``revise``, computed by the exhaustive NLI
check under natural revision and ``contract-stq-lex`` at two atoms
(``order_counts``): how often the scan context's memo computes an order,
or the first cell of one in closed form, rather than reusing it, and how
many orders' pair matrices the built-ins' packed pass computes, one per
input lane of each pass, whether it fills a memo or serves a verdict.
``cli_import_modules`` is the number of modules that ``import
beliefchange.cli`` adds in a fresh interpreter (``import_counts``).  A
count repeats exactly, so it carries none of the timings' noise floor.
"""

import gc
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

ROUNDS = 21
TPOS3 = 545835  # count_tpos(3)
INPUTS3 = range(1, 256)  # propositions(3)
DRAWS = 2000
SCANS = 20
CLOSURES = 10
ATOMS = ("p", "q", "r")
PARSE_LINES = 3000
ATOMS4 = ("p", "q", "r", "s")


def _scenario():
    """A two-atom scenario: each of nine cycles revises by a formula,
    expands by a weaker one (consistent with the beliefs it follows),
    contracts and revises through contraction, so no state is absurd;
    four queries follow every step."""
    formulas = ("p", "q", "~p", "p & q", "p | ~q", "~q", "~p & q", "q | p", "~(p & q)")
    revisions = ("natural", "restrained", "lexicographic")
    contractions = ("contract-natural", "contract-stq-restrained", "contract-stq-lex")
    lines = ["atoms: p q", "initial: 00 | 01 10 | 11"]
    for i in range(9):
        f, g = formulas[i % len(formulas)], formulas[(i + 4) % len(formulas)]
        rev, con = revisions[i % 3], contractions[(i + 1) % 3]
        lines += [
            f"step: revise {rev} {f}",
            f"step: expand {rev} ({f}) | ({g})",
            f"step: contract {con} {g}",
            f"step: nli-revise {con} {revisions[(i + 2) % 3]} {g}",
        ]
    lines += ["query: belief p", "query: belief p | q", "query: conditional p => q"]
    lines.append("query: conditional ~q => p")
    return "\n".join(lines) + "\n"


SCENARIO = _scenario()


def _load(alias, src):
    package = Path(src) / "beliefchange"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = sys.modules[alias] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _python(src, *args):
    """Run a fresh ``python -B`` on ``args`` with the tree ``src`` on its
    path; return what it printed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-B", *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout


def draws():
    """The seeded preorder indices, inputs and masks that both trees use."""
    rng = random.Random(2019)
    pool = [rng.randrange(TPOS3) for _ in range(200)]
    inputs = [(rng.choice(pool), rng.choice(INPUTS3)) for _ in range(DRAWS)]
    # the preorder pairs of a merge layer since removed, still drawn so that
    # every later draw stays as in earlier readings
    [rng.choice(pool) for _ in range(2 * DRAWS)]
    indices = [rng.randrange(TPOS3) for _ in range(1000)]
    outers = [rng.randrange(TPOS3) for _ in range(SCANS)]
    outer_pairs = [(rng.choice(outers), rng.choice(outers)) for _ in range(SCANS)]
    files = [rng.randrange(TPOS3) for _ in range(CLOSURES)]
    images = []  # a seeded permutation of the worlds per outer
    for _ in outers:
        images.append(list(range(8)))
        rng.shuffle(images[-1])
    worlds = rng.sample(range(8), 8)  # the order the composition layers cut
    rng4 = random.Random(4)
    rank = [rng4.randrange(16) for _ in range(16)]  # a seeded rank per world
    masks4 = tuple(
        sum(1 << w for w in range(16) if rank[w] == r) for r in sorted(set(rank))
    )
    return {
        "inputs": inputs,
        "indices": indices,
        "outers": outers,
        "outer_pairs": outer_pairs,
        "files": files,
        "images": images,
        "worlds": worlds,
        "masks4": masks4,
    }


def _one_per_composition(bc, worlds):
    """One preorder of each composition of the worlds, its cells cut from
    ``worlds`` in order: cut bit i ends a cell at ``worlds[i]``."""
    width = len(worlds)
    for cuts in range(1 << width - 1):
        cells, cell = [], 0
        for i, w in enumerate(worlds):
            cell |= 1 << w
            if i == width - 1 or cuts >> i & 1:
                cells.append(cell)
                cell = 0
        yield bc.tpo.Tpo(tuple(cells), 3)


def _permuted(bc, t, image):
    """The preorder with world w moved to ``image[w]``."""
    moved = (sum(1 << image[w] for w in range(len(image)) if c >> w & 1) for c in t.masks)
    return bc.tpo.Tpo(tuple(moved), t.n_atoms)


def _conditional_lines(bc, t, atoms, propositions):
    """A preorder's conditional 'A => B' lines for the given inputs."""
    return [
        f"{bc.lang.dnf_of_worlds(p, atoms)} => "
        f"{bc.lang.dnf_of_worlds(bc.tpo.min_worlds(t, p), atoms)}"
        for p in propositions
    ]


def _fast_path_file(bc, t):
    """A preorder's full conditional set plus its belief set, as file text."""
    lines = _conditional_lines(bc, t, ATOMS, INPUTS3)
    lines.append(bc.lang.dnf_of_worlds(bc.tpo.min_worlds(t, INPUTS3[-1]), ATOMS))
    return "\n".join(lines) + "\n"


@contextmanager
def layers(bc, drawn):
    """Each layer's name -> (one run of it, the calls in that run, the
    unit's scale from seconds), for the loaded package ``bc``, while the
    context lasts: the fresh-process layers run on a copy of its sources
    in a temporary directory, removed on exit."""
    tpo, ops, post = bc.tpo, bc.operators, bc.postulates
    cli = importlib.import_module(bc.__name__ + ".cli")
    natural, stq_lex = ops.Revision.NATURAL, ops.Contraction.STQ_LEX
    stq_restrained = ops.Contraction.STQ_RESTRAINED
    restrained, lexicographic = ops.Revision.RESTRAINED, ops.Revision.LEXICOGRAPHIC

    def unrank(index):
        return tpo.tpo_at_index(index, 3)

    inputs = [(unrank(i), p) for i, p in drawn["inputs"]]
    outers = [unrank(i) for i in drawn["outers"]]
    outer_pairs = [(unrank(a), unrank(b)) for a, b in drawn["outer_pairs"]]
    isomorphic_pairs = [
        (t, _permuted(bc, t, image)) for t, image in zip(outers, drawn["images"])
    ]
    compositions = list(_one_per_composition(bc, drawn["worlds"]))
    files = [_fast_path_file(bc, unrank(i)) for i in drawn["files"]]
    t4 = tpo.Tpo(drawn["masks4"], 4)
    parse_text = "\n".join(_conditional_lines(bc, t4, ATOMS4, range(1, PARSE_LINES + 1))) + "\n"

    def construct():
        for t, _ in inputs:
            tpo.Tpo(t.masks, 3)

    def revisions():
        for t, p in inputs:
            for method in ops.Revision:
                ops.revise(t, p, method)

    def contractions():
        for t, p in inputs:
            for method in ops.Contraction:
                ops.contract(t, p, method)

    def memo_orders():
        for t in outers:
            for function, methods in ((post.revise, ops.Revision), (post.contract, ops.Contraction)):
                for method in methods:
                    ctx = post._Ctx(3)
                    ctx.memo(function, method).at(t, ctx.props)

    def stq_lex_matrices():
        for t in outers:
            post._packed_relations(post._Ctx(3, None, stq_lex), t, ("con",))

    def unranks():
        for index in drawn["indices"]:
            unrank(index)

    def enumeration():
        for _ in tpo.enumerate_tpos(3):
            pass

    def scans(postulate, rev, con=None, pairs=outer_pairs):
        spec = post._POSTULATES[postulate]
        pool = [(t, (u,), False) for t, u in pairs] if spec.pair_outer else outers

        def run():
            for outer in pool:
                post._scan(post._Ctx(3, rev, con), spec, [outer], clear=True)

        return run

    def counts(postulate, rev, con=None):
        spec = post._POSTULATES[postulate]

        def run():
            for t in compositions:
                for _ in post._counted(post._Ctx(3, rev, con), spec, [t]):
                    pass

        return run

    def rows(rev):
        def run():
            for t in outers:
                post._Ctx(3, rev).rows(t)

        return run

    def check(postulate, rev=natural, con=None, **scope):
        return lambda: post.check_postulate(postulate, rev, con, **scope)

    def claim(name):
        return lambda: post.verify_claim(name, 2)

    def equivalence():
        post.pair_profile.cache_clear()
        post.verify_claim("T3", 2)

    def random_operators():
        post._dp_posterior_candidates.cache_clear()
        post.verify_claim("P1", 2)

    def profile():
        post.pair_profile.cache_clear()
        post.pair_profile(2)

    def dp_candidates():
        post._dp_posterior_candidates.cache_clear()
        post._dp_posterior_candidates(2)

    def diagrams():
        for d in post.DIAGRAM_IDS:
            post.check_diagram(d, 2)

    def closures():
        for text in files:
            cli.closure_answer(cli.parse_conditional_set(text, ATOMS), 3)

    def closure_parses():
        for text in files:
            cli.parse_conditional_set(text, ATOMS)

    def scenario_runs():
        for fmt in ("text", "machine"):
            cli.run_scenario(SCENARIO, fmt)

    with tempfile.TemporaryDirectory() as fresh:  # the sources alone: no bytecode to read
        shutil.copytree(
            Path(bc.__file__).parent,
            Path(fresh) / "beliefchange",
            ignore=shutil.ignore_patterns("__pycache__"),
        )

        def import_cli():
            _python(fresh, "-c", "import beliefchange.cli")

        op_file = Path(fresh) / "closure-n3.txt"
        op_file.write_text(files[0])
        op_argv = ["--format", "machine", "closure", str(op_file), "--n", "3"]

        def closure_op():
            return _python(fresh, "-c", f"from beliefchange.cli import main; main({op_argv!r})")

        default = {"n_atoms": 3, "mode": "sampled"}
        small = {"n_atoms": 3, "mode": "sampled", "seed": 1, "sample": 6}
        composed = post._NliComposition(stq_lex, natural)
        yield {
            "construct_call_us": (construct, DRAWS, 1e6),
            "revise_call_us": (revisions, 3 * DRAWS, 1e6),
            "contract_call_us": (contractions, 3 * DRAWS, 1e6),
            "contract_stq_lex_matrices_call_us": (stq_lex_matrices, 255 * SCANS, 1e6),
            "memo_all_inputs_n3_call_us": (memo_orders, 6 * SCANS, 1e6),
            "tpo_at_index_x1000_ms": (unranks, 1, 1e3),
            "enumerate_tpos_3_s": (enumeration, 1, 1.0),
            "scan_DP1_natural_ms": (scans("DP1", natural), SCANS, 1e3),
            "scan_NLI_natural_stq_lex_ms": (scans("NLI", natural, stq_lex), SCANS, 1e3),
            "scan_IIAI_natural_ms": (scans("IIAI", natural), SCANS, 1e3),
            "scan_IIAP_natural_ms": (scans("IIAP", natural), SCANS, 1e3),
            "scan_Beta1_natural_ms": (scans("Beta1", natural), SCANS, 1e3),
            "scan_Neut_natural_ms": (scans("Neut", natural, pairs=isomorphic_pairs), SCANS, 1e3),
            "scan_IIAI_stq_lex_then_natural_ms": (scans("IIAI", composed), SCANS, 1e3),
            "scan_CR4_natural_stq_lex_ms": (scans("CR4", natural, stq_lex), SCANS, 1e3),
            "scan_iLIRC_lexicographic_stq_restrained_ms": (
                scans("iLIRC", lexicographic, stq_restrained), SCANS, 1e3
            ),
            "scan_iLIRC_lexicographic_natural_ms": (
                scans("iLIRC", lexicographic, ops.Contraction.NATURAL), SCANS, 1e3
            ),
            "scan_Success_lexicographic_ms": (scans("Success", lexicographic), SCANS, 1e3),
            "scan_HI_beliefs_restrained_stq_restrained_ms": (
                scans("HI_beliefs", restrained, stq_restrained), SCANS, 1e3
            ),
            "compositions_DP3_natural_ms": (counts("DP3", natural), len(compositions), 1e3),
            "compositions_CR4_natural_stq_lex_ms": (
                counts("CR4", natural, stq_lex), len(compositions), 1e3
            ),
            "compositions_CC3_natural_stq_lex_ms": (
                counts("CC3", natural, stq_lex), len(compositions), 1e3
            ),
            "compositions_SPU_restrained_stq_lex_ms": (
                counts("SPU", restrained, stq_lex), len(compositions), 1e3
            ),
            "compositions_DP1_lexicographic_ms": (
                counts("DP1", lexicographic), len(compositions), 1e3
            ),
            "compositions_DP4_restrained_ms": (counts("DP4", restrained), len(compositions), 1e3),
            "compositions_CC4_restrained_stq_restrained_ms": (
                counts("CC4", restrained, stq_restrained), len(compositions), 1e3
            ),
            "compositions_SPU_lexicographic_natural_ms": (
                counts("SPU", lexicographic, ops.Contraction.NATURAL), len(compositions), 1e3
            ),
            "compositions_NLI_restrained_stq_lex_ms": (
                counts("NLI", restrained, stq_lex), len(compositions), 1e3
            ),
            "compositions_iLIRC_lexicographic_stq_restrained_ms": (
                counts("iLIRC", lexicographic, stq_restrained), len(compositions), 1e3
            ),
            "rows_restrained_n3_call_us": (rows(restrained), SCANS, 1e6),
            "check_CR4_natural_stq_lex_n2_ms": (check("CR4", con=stq_lex, n_atoms=2), 1, 1e3),
            "check_IIAP_natural_n2_ms": (check("IIAP", n_atoms=2), 1, 1e3),
            "check_Neut_natural_n2_ms": (check("Neut", n_atoms=2), 1, 1e3),
            "claim_P2_n2_s": (claim("P2"), 1, 1.0),
            "claim_T1_n2_s": (claim("T1"), 1, 1.0),
            "diagrams_n2_ms": (diagrams, 1, 1e3),
            "claim_T3_n2_s": (equivalence, 1, 1.0),
            "pair_profile_n2_s": (profile, 1, 1.0),
            "dp_candidates_n2_ms": (dp_candidates, 1, 1e3),
            "l_flattest_n2_ms": (claim("L_flattest"), 1, 1e3),
            "claim_T4_n2_ms": (claim("T4"), 1, 1e3),
            "claim_P1_n2_s": (random_operators, 1, 1.0),
            "claim_P3_n2_ms": (claim("P3"), 1, 1e3),
            "check_DP1_natural_n3_default_s": (check("DP1", **default), 1, 1.0),
            "check_DP1_natural_n3_default_w2_s": (check("DP1", **default, workers=2), 1, 1.0),
            "check_IIAI_natural_n3_sample6_ms": (check("IIAI", **small), 1, 1e3),
            "check_IIAI_natural_n3_sample6_w2_ms": (check("IIAI", **small, workers=2), 1, 1e3),
            "closure_query_n3_ms": (closures, CLOSURES, 1e3),
            "parse_closure_n3_ms": (closure_parses, CLOSURES, 1e3),
            "parse_3000_lines_n4_ms": (
                lambda: cli.parse_conditional_set(parse_text, ATOMS4), 1, 1e3
            ),
            "run_scenario_n2_ms": (scenario_runs, 1, 1e3),
            "import_cli_ms": (import_cli, 1, 1e3),
            "closure_op_n3_ms": (closure_op, 1, 1e3),
        }


def import_counts(bc):
    """The number of modules that ``import beliefchange.cli`` adds in a
    fresh interpreter, from the loaded package ``bc``'s tree."""
    code = (
        "import sys; before = set(sys.modules); import beliefchange.cli; "
        "print(len(set(sys.modules) - before))"
    )
    return {"cli_import_modules": int(_python(Path(bc.__file__).parent.parent, "-c", code))}


def _one(*args) -> int:
    return 1


# The functions of ``postulates`` that compute orders, with the orders one
# call computes: one, or, for the closed forms of the built-ins' first
# cells, one per input mask of its batch, and for the packed pass of their
# pair matrices, which a verdict and a prior's outcome rows alike run, one
# per input lane.
ORDER_FUNCTIONS = {
    "revise": _one,
    "contract": _one,
    "contract_by_negation": _one,
    "_packed_order": lambda lanes, *args: lanes.lanes - 1,
    "_posterior_firsts": lambda contracting, t, qs: len(qs),
}


def order_counts(bc):
    """Each count's name -> the orders its run computes in the loaded
    package ``bc``: the orders that the calls of ``postulates`` to the
    run's ``ORDER_FUNCTIONS`` compute, counted by wrapping them in its
    namespace for the run."""
    post = bc.postulates
    natural = bc.operators.Revision.NATURAL
    stq_lex = bc.operators.Contraction.STQ_LEX
    runs = {
        "pair_profile_n2_orders": (
            ORDER_FUNCTIONS,
            lambda: (post.pair_profile.cache_clear(), post.pair_profile(2)),
        ),
        "check_Neut_natural_n2_orders": (
            ORDER_FUNCTIONS,
            lambda: post.check_postulate("Neut", natural, n_atoms=2),
        ),
        "check_NLI_natural_stq_lex_n2_revise_orders": (
            ("revise",),
            lambda: post.check_postulate("NLI", natural, stq_lex, n_atoms=2),
        ),
    }
    real = {name: getattr(post, name) for name in ORDER_FUNCTIONS if hasattr(post, name)}
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append((name, ORDER_FUNCTIONS[name](*args)))
            return function(*args)

        return wrapper

    out = {}
    try:
        for name, function in real.items():
            setattr(post, name, counted(name, function))
        for name, (functions, run) in runs.items():
            calls.clear()
            run()
            out[name] = sum(orders for function, orders in calls if function in functions)
    finally:
        for name, function in real.items():
            setattr(post, name, function)
    return out


# The loaded copies in load order, and the tree each one is: 0 parent, 1 change.
COPIES = (("ab_parent", 0), ("ab_change", 1), ("ab_change_2", 1), ("ab_parent_2", 0))


def _timed(sides) -> dict:
    """Each layer's name -> its readings (parent, change), one per round
    (see the module doc), after one untimed warm-up run of every layer."""
    for side in sides:  # warm-up, untimed: fills the per-process tables and caches
        for run, _, _ in side.values():
            run()
    times = {name: ([], []) for name in sides[0]}
    gc.disable()  # as timeit does: a collection would land on one side only
    for r in range(ROUNDS):
        for name, readings in times.items():
            order = range(len(COPIES)) if r % 2 == 0 else reversed(range(len(COPIES)))
            sums = [0.0, 0.0]
            for copy in order:
                run, calls, scale = sides[copy][name]
                gc.collect()
                start = time.perf_counter()
                run()
                sums[COPIES[copy][1]] += (time.perf_counter() - start) / calls * scale / 2
            for tree in (0, 1):
                readings[tree].append(sums[tree])
    gc.enable()
    return times


def main(parent_src, change_src):
    drawn = draws()
    packages = [_load(alias, (parent_src, change_src)[tree]) for alias, tree in COPIES]
    counts = {}
    for (_, tree), bc in zip(COPIES[:2], packages):
        for name, found in {**order_counts(bc), **import_counts(bc)}.items():
            counts.setdefault(name, {})[("parent", "change")[tree]] = found
    with ExitStack() as stack:
        times = _timed([stack.enter_context(layers(bc, drawn)) for bc in packages])
    out = {}
    for name, (parent, change) in times.items():
        ratios = [c / p for p, c in zip(parent, change)]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        out[name] = {
            "parent": float(f"{statistics.median(parent):.4g}"),
            "change": float(f"{statistics.median(change):.4g}"),
            "ratio_median": round(median, 3),
            "ratio_q1": round(q1, 3),
            "ratio_q3": round(q3, 3),
            "rounds_won": sum(c < p for p, c in zip(parent, change)),
        }
    print(json.dumps({"rounds": ROUNDS, "counts": counts, "layers": out}, indent=2))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
