"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its assertions hold (run with
``pytest -s tests/test_acceptance.py`` to see them).  Results are exact
logical checks; the only tolerances are the per-criterion wall-clock
budgets, asserted as measured.
"""

import time

from beliefchange.lang import models
from beliefchange.operators import (
    Contraction,
    Revision,
    contract_by_negation,
    revise,
)
from beliefchange.postulates import (
    ELEMENTARY_POSTULATES,
    Witness,
    check_diagram,
    check_postulate,
    pair_profile,
    render_machine,
    render_text,
    replay_witness,
    verify_claim,
)
from beliefchange.tpo import conditional_set, format_tpo, parse_tpo, parse_world

from ranks import rank

ATOMS = ("p", "q")


def mod(text):
    return models(text, ATOMS)


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_figure_reproduction():
    m0 = parse_tpo("00 | 11 | 01 10", 2)
    p = mod("p")
    revise(m0, p, Revision.NATURAL)  # warm up caches outside the timed region
    start = time.perf_counter()
    lex = revise(m0, p, Revision.LEXICOGRAPHIC)
    nat = revise(m0, p, Revision.NATURAL)
    res = revise(m0, p, Revision.RESTRAINED)
    elapsed = time.perf_counter() - start
    assert format_tpo(lex) == "11 | 10 | 00 | 01"
    assert format_tpo(nat) == "11 | 00 | 01 10"
    assert format_tpo(res) == "11 | 00 | 10 | 01"
    assert elapsed < 0.001, f"three revisions took {elapsed * 1000:.3f} ms"
    report(1, f"figure reproduced exactly in {elapsed * 1e6:.0f} us")


def test_criterion_02_elementarity_suite():
    start = time.perf_counter()
    for method in (Revision.NATURAL, Revision.RESTRAINED, Revision.LEXICOGRAPHIC):
        for postulate in ELEMENTARY_POSTULATES:
            result = check_postulate(postulate, method, n_atoms=2)
            assert result.passed, f"{postulate} failed for {method.value}"
            assert result.violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    report(2, f"3 methods x {len(ELEMENTARY_POSTULATES)} postulates, zero violations in {elapsed:.1f} s")


def test_criterion_03_diagram_exclusion():
    start = time.perf_counter()
    for d in ("a", "b", "c"):
        assert check_diagram(d, 2).passed
    witness_shapes = []
    for d in ("d", "e", "f"):
        result = check_diagram(d, 2)
        assert not result.passed
        witness_shapes.append(result.witnesses[0])
    for witness in witness_shapes[:2]:  # the two-countermodel construction
        r = rank(parse_tpo(witness.tpos[0], 2))
        p = mod(witness.inputs[0])
        triple = [parse_world(name, 2) for name in witness.worlds]
        inside = [w for w in triple if p >> w & 1]
        outside = sorted((w for w in triple if not p >> w & 1), key=lambda w: r[w])
        assert len(inside) == 1 and len(outside) == 2
        z, y = outside
        assert r[z] < r[y] < r[inside[0]]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"diagram checks took {elapsed:.2f} s"
    report(3, f"diagrams a-c admissible, d-f excluded with chain-shaped witnesses in {elapsed:.2f} s")


def test_criterion_04_nli_cr_spu_wpu_equivalence():
    start = time.perf_counter()
    rows = pair_profile(2)
    assert len(rows) == 9
    for rev, con, verdicts in rows:
        properties = (
            verdicts["NLI"],
            all(verdicts[f"CR{i}"] for i in (1, 2, 3, 4)),
            verdicts["SPU"] and verdicts["WPU"],
        )
        assert len(set(properties)) == 1, f"{rev}/{con}: {properties}"
    assert verify_claim("T2").passed
    assert verify_claim("T3").passed
    assert verify_claim("Cor1").passed
    by_pair = {(rev, con): verdicts for rev, con, verdicts in rows}
    all_pass = by_pair[(Revision.LEXICOGRAPHIC, Contraction.STQ_LEX)]
    assert set(all_pass) == {"NLI", "CR1", "CR2", "CR3", "CR4", "SPU", "WPU"}
    assert all(all_pass.values())
    all_fail = by_pair[(Revision.NATURAL, Contraction.STQ_LEX)]
    assert not all_fail["NLI"] and not all(all_fail[f"CR{i}"] for i in (1, 2, 3, 4))
    assert not (all_fail["SPU"] and all_fail["WPU"])
    named = Witness(
        tpos=("00 | 01 | 10 | 11",),
        inputs=("p & ~q | p & q",),
        worlds=("11", "01"),
    )
    cr4 = check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)
    assert not cr4.passed
    assert named in cr4.witnesses
    assert replay_witness("CR4", named, Revision.NATURAL, Contraction.STQ_LEX, n_atoms=2)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.1f} s"
    report(4, f"NLI = CR1-4 = SPU+WPU on all 9 pairs, expected extremes found, in {elapsed:.1f} s")


def test_criterion_05_closure_equivalence():
    start = time.perf_counter()
    t4 = verify_claim("T4")
    assert t4.passed and t4.violations == 0
    assert t4.instances == 3 * 75 * 15
    flattest = verify_claim("L_flattest")
    assert flattest.passed and flattest.violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"closure sweep took {elapsed:.1f} s"
    report(5, f"brute-force closure equals fast path on {t4.instances} instances, flattest bound holds, in {elapsed:.1f} s")


def test_criterion_06_naive_identity_always_fails():
    start = time.perf_counter()
    result = verify_claim("P2")
    assert result.passed and result.violations == 0
    assert result.instances > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f} s"
    report(6, f"naive identity fails on all {result.instances} unbelieved-input instances in {elapsed:.1f} s")


def test_criterion_07_composed_revision_satisfies_dp():
    start = time.perf_counter()
    result = verify_claim("P3")
    assert result.passed and result.violations == 0
    assert result.instances == 9 * 4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
    report(7, f"all 9 contract-then-revise compositions satisfy DP1-4 in {elapsed:.1f} s")


def test_criterion_08_impossibility_regression():
    prior = parse_tpo("11 | 10 01 | 00", 2)
    p = mod("p")
    contract_by_negation(prior, p, Contraction.STQ_LEX)  # warm up
    start = time.perf_counter()
    contracted = contract_by_negation(prior, p, Contraction.STQ_LEX)
    revised_r = revise(prior, p, Revision.RESTRAINED)
    revised_l = revise(prior, p, Revision.LEXICOGRAPHIC)
    elapsed = time.perf_counter() - start
    expected = parse_tpo("11 | 10 | 01 | 00", 2)
    assert contracted == prior
    assert revised_r == expected and revised_l == expected
    assert not prior.masks[0] & ~p
    assert conditional_set(contracted) != conditional_set(expected)
    assert elapsed < 0.001, f"operator calls took {elapsed * 1000:.3f} ms"
    assert verify_claim("P5").passed
    report(8, f"impossibility figure reproduced exactly in {elapsed * 1e6:.0f} us")


def test_criterion_09_beta_iiai_equivalence_on_random_operators():
    start = time.perf_counter()
    result = verify_claim("P1")
    assert result.passed and result.violations == 0
    assert result.instances >= 100
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"sweep took {elapsed:.1f} s"
    report(9, f"Beta1+Beta2 equivalent to IIAI on {result.instances} operators in {elapsed:.1f} s")


def test_criterion_10_reports_are_byte_identical():
    runs = []
    for workers in (1, 2, 1):
        cr4 = check_postulate("CR4", Revision.NATURAL, Contraction.STQ_LEX, workers=workers)
        iiap = check_postulate("IIAP", Revision.NATURAL, workers=workers)
        runs.append(
            render_text(cr4) + render_machine(cr4) + render_text(iiap) + render_machine(iiap)
        )
    assert runs[0] == runs[1] == runs[2]
    diagram_twice = [render_text(check_diagram("d", 2)) for _ in range(2)]
    assert diagram_twice[0] == diagram_twice[1]
    claim_twice = [render_machine(verify_claim("T2")) for _ in range(2)]
    assert claim_twice[0] == claim_twice[1]
    report(10, "reports byte-identical across repeated runs and 1-vs-2 workers")
