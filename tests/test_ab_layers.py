"""Smoke test of the layer-timing tool ``tools/ab_layers.py``.

The tool reaches into private names of the package (``_POSTULATES``,
``_scan``, ``_counted``, ``_Ctx``, ``_NliComposition``,
``_dp_posterior_candidates``, ``_Ctx.memo`` for orders, ``_Ctx.rows``),
builds drawn pair rows as ``_outers`` does, and counts orders by
wrapping the ``revise``, ``contract``, ``contract_by_negation``,
``_packed_order`` and ``_posterior_firsts`` that ``postulates`` calls:
the scan context's one memo computes an order through ``revise`` or
``contract``, the pair matrices of a prior's orders on every input in
one packed pass through ``_packed_order``, whether a prior's outcome
rows or a verdict runs it, and the first cell of one in closed form
through ``_posterior_firsts``.
Running every layer and count once here catches a refactor that removes
one.  The layers run inside ``layers``' context, whose exit removes the
temporary copy of the sources; the test configuration turns a leaked one
into a failure.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab_layers", ROOT / "tools" / "ab_layers.py")
ab_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_layers)

# The layer names of earlier BENCH_*.json readings, kept so they stay comparable.
EARLIER_LAYERS = (
    "revise_call_us", "contract_call_us", "tpo_at_index_x1000_ms",
    "enumerate_tpos_3_s", "scan_DP1_natural_ms", "scan_NLI_natural_stq_lex_ms",
    "scan_IIAI_natural_ms", "scan_IIAP_natural_ms", "scan_Beta1_natural_ms",
    "scan_Neut_natural_ms", "scan_IIAI_stq_lex_then_natural_ms",
    "scan_CR4_natural_stq_lex_ms", "check_CR4_natural_stq_lex_n2_ms",
    "check_IIAP_natural_n2_ms", "check_Neut_natural_n2_ms", "claim_P2_n2_s",
    "claim_T1_n2_s", "diagrams_n2_ms", "claim_T3_n2_s", "pair_profile_n2_s",
    "dp_candidates_n2_ms", "l_flattest_n2_ms", "check_DP1_natural_n3_default_s",
    "check_DP1_natural_n3_default_w2_s", "check_IIAI_natural_n3_sample6_ms",
    "check_IIAI_natural_n3_sample6_w2_ms", "closure_query_n3_ms", "parse_3000_lines_n4_ms",
    "compositions_DP3_natural_ms", "compositions_CR4_natural_stq_lex_ms",
    "parse_closure_n3_ms", "compositions_DP1_lexicographic_ms", "compositions_DP4_restrained_ms",
    "rows_restrained_n3_call_us", "contract_stq_lex_matrices_call_us",
    "scan_iLIRC_lexicographic_stq_restrained_ms", "scan_Success_lexicographic_ms",
    "scan_HI_beliefs_restrained_stq_restrained_ms", "scan_iLIRC_lexicographic_natural_ms",
    "compositions_CC4_restrained_stq_restrained_ms", "compositions_SPU_lexicographic_natural_ms",
    "compositions_CC3_natural_stq_lex_ms", "compositions_SPU_restrained_stq_lex_ms",
    "compositions_NLI_restrained_stq_lex_ms", "compositions_iLIRC_lexicographic_stq_restrained_ms",
)


def test_every_layer_runs_once_on_this_tree():
    bc = ab_layers._load("ab_layers_smoke", ROOT / "src")
    with ab_layers.layers(bc, ab_layers.draws()) as table:
        assert set(EARLIER_LAYERS) <= set(table)
        for run, _, _ in table.values():
            run()


def test_the_scenario_layer_runs_every_step_on_this_tree():
    bc = ab_layers._load("ab_layers_scenario", ROOT / "src")
    with ab_layers.layers(bc, ab_layers.draws()) as table:
        assert "run_scenario_n2_ms" in table
    cli = importlib.import_module(bc.__name__ + ".cli")
    code, out, err = cli.run_scenario(ab_layers.SCENARIO)
    assert (code, err) == (0, "")
    assert out.count("\nstep ") == 36 and out.count("\nquery ") == 36 * 4


def test_the_order_counts_are_ints_on_this_tree():
    bc = ab_layers._load("ab_layers_counts", ROOT / "src")
    counts = ab_layers.order_counts(bc)
    assert set(counts) == {
        "pair_profile_n2_orders",
        "check_Neut_natural_n2_orders",
        "check_NLI_natural_stq_lex_n2_revise_orders",
    }
    assert all(type(found) is int for found in counts.values())
    # the totals of the order-count tests in test_postulates.py, the closed
    # form's entries included, and the revision orders of the NLI report;
    # the pair profile's verdicts fill no memo, and its orders are the
    # input lanes of its packed passes, 926 of 15 lanes each
    assert counts == {
        "pair_profile_n2_orders": 926 * 15,
        "check_Neut_natural_n2_orders": 435,
        "check_NLI_natural_stq_lex_n2_revise_orders": 18,
    }


def test_the_import_layer_and_count_run_on_this_tree():
    bc = ab_layers._load("ab_layers_import", ROOT / "src")
    with ab_layers.layers(bc, ab_layers.draws()) as table:
        run, calls, _ = table["import_cli_ms"]
        run()
    counts = ab_layers.import_counts(bc)
    assert calls == 1 and set(counts) == {"cli_import_modules"}
    assert type(counts["cli_import_modules"]) is int and counts["cli_import_modules"] > 0


def test_the_memo_layer_fills_every_order_of_each_prior_on_this_tree():
    bc = ab_layers._load("ab_layers_memo", ROOT / "src")
    drawn = ab_layers.draws()
    with ab_layers.layers(bc, drawn) as table:
        run, calls, _ = table["memo_all_inputs_n3_call_us"]
        assert calls == 6 * len(drawn["outers"])
        run()
    post, ops = bc.postulates, bc.operators
    ctx = post._Ctx(3)
    t = bc.tpo.tpo_at_index(drawn["outers"][0], 3)
    for function, methods in ((post.revise, ops.Revision), (post.contract, ops.Contraction)):
        for method in methods:
            orders = ctx.memo(function, method).at(t, ctx.props)
            assert set(orders) == {0, *ctx.props}
            assert all(orders[p] == function(t, p, method) for p in ctx.props)


def test_the_closure_op_layer_runs_one_fresh_closure_op_on_this_tree():
    bc = ab_layers._load("ab_layers_closure_op", ROOT / "src")
    with ab_layers.layers(bc, ab_layers.draws()) as table:
        run, calls, _ = table["closure_op_n3_ms"]
        assert calls == 1
        assert json.loads(run())["fast_path"] is True
