"""Acceptance suite: every criterion is exact (integer/rational, no tolerance).

Each test prints one CRITERION line; run with `pytest -v -s tests/test_acceptance.py`
to see them inline.  The sweeps mirror the library defaults: strict partitions
up to size 6, three to six variables, degree bounds 4..10 depending on the
identity being verified.
"""

import time

import pytest

from kshift.genfun import (
    classical_pq,
    dual_gp_gq,
    expand_in_basis,
    gp_gq,
    jp_jq,
    schur,
    structure_constants,
)
from kshift.identities import (
    check_cauchy_family,
    check_conjectures,
    check_flip,
    check_gq_to_gp,
    check_overlap_matrix,
    check_symmetrization,
)
from kshift.polyring import BetaPoly
from kshift.shapes import (
    EMPTY,
    SkewShape,
    StrictPartition,
    contains,
    enumerate_strict_partitions,
    straight,
    subshapes,
)
from kshift.tableaux import iter_restricted_p, iter_tableaux
from test_genfun import recombine
from test_polyring import beta_zero, is_symmetric
from test_shapes import delta
from test_tableaux import onerow_map, weight


def sp(*parts):
    return StrictPartition(tuple(parts))


def report(n: int, label: str, ok: bool) -> None:
    print(f"CRITERION {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {label}"


def beta_coeffs(expansion):
    return {
        idx: {b: v for (_e, b), v in c.terms.items()} for idx, c in expansion.coeffs.items() if not c.is_zero()
    }


def test_criterion_1_paper_expansions():
    start = time.time()
    ok = True
    exp = expand_in_basis(gp_gq("GQ", straight(sp(3, 2)), 3, 8), "GP")
    ok &= exp.residual_zero and beta_coeffs(exp) == {
        (3, 2): {0: 4},
        (4, 2): {1: 2},
        (4, 3): {2: -1},
    }
    for n in range(1, 6):
        exp = expand_in_basis(gp_gq("GQ", straight(sp(n)), 2, n + 3), "GP")
        ok &= exp.residual_zero and beta_coeffs(exp) == {(n,): {0: 2}, (n + 1,): {1: 1}}
    for n in range(1, 6):
        got = expand_in_basis(dual_gp_gq("gq", sp(n), 2), "gp")
        want = {(n,): {0: 2}}
        if n >= 2:
            want[(n - 1,)] = {1: 1}
        ok &= got.residual_zero and beta_coeffs(got) == want
    for m in range(1, 5):
        ny = max(2, m)
        gq = dual_gp_gq("gq", delta(m), ny)
        gp = dual_gp_gq("gp", delta(m), ny)
        ok &= gq == gp.times_beta(0, 2**m)
    elapsed = time.time() - start
    report(1, f"paper expansions reproduced exactly in {elapsed:.1f}s", ok and elapsed < 60)


def test_criterion_2_gq_to_gp_sweep():
    start = time.time()
    rep = check_gq_to_gp(max_size=6, nvars=3, max_deg=9)
    elapsed = time.time() - start
    report(2, f"GQ-to-GP sweep |mu|<=6 in {elapsed:.1f}s", rep.status == "PASS" and elapsed < 900)


def test_criterion_3_overlap_matrix():
    rep = check_overlap_matrix(max_part=7)
    report(3, "overlap/cols matrices inverse, parts <= 7", rep.status == "PASS")


def test_criterion_4_cauchy():
    rep = check_cauchy_family(max_size=2, nx=2, ny=2, max_deg=4)
    report(4, "Cauchy kernel + skew Cauchy |mu|,|nu| <= 2", rep.status == "PASS")


def test_criterion_5_dual_examples():
    s21 = schur((2, 1), 3)
    s2 = schur((2,), 3)
    s11 = schur((1, 1), 3)
    ok = dual_gp_gq("gp", sp(2, 1), 3) == s21 - s2.times_beta(1)
    ok &= dual_gp_gq("gq", sp(2, 1), 3) == (s21 - s2.times_beta(1)).times_beta(0, 4)
    ok &= jp_jq("jp", sp(2, 1), EMPTY, 3) == s21 - s11.times_beta(1)
    ok &= jp_jq("jq", sp(2, 1), EMPTY, 3) == (s21 - s11.times_beta(1)).times_beta(0, 4)
    report(5, "gp/gq/jp/jq at (2,1) match their Schur forms", ok)


def test_criterion_6_conjectures_desk_scale():
    rep = check_conjectures(max_size=6, nvars=6, max_deg=6, skew_max_size=4, length_cap_size=3)
    matched = all(f["verdict"] == "MATCH" for f in rep.findings)
    report(6, "conjectural tableau formulas match up to size 6", rep.status == "MATCH" and matched)


def test_criterion_7_flip():
    rep = check_flip(max_size=6, nvars=3, max_deg=8)
    report(7, "flip invariance for |lambda| <= 6", rep.status == "PASS")


def test_criterion_8_symmetrization():
    rep = check_symmetrization(trials=20, seed=0)
    report(8, f"symmetrization at 20 random points ({rep.cases} cases)", rep.status == "PASS")


def test_criterion_9_beta_zero_degenerations():
    ok = True
    for lam in enumerate_strict_partitions(5):
        shape = straight(lam)
        p_ref = classical_pq("P", shape, 3)
        q_ref = classical_pq("Q", shape, 3)
        ok &= beta_zero(gp_gq("GP", shape, 3, lam.size + 3)) == p_ref.truncated(lam.size + 3)
        ok &= beta_zero(gp_gq("GQ", shape, 3, lam.size + 3)) == q_ref.truncated(lam.size + 3)
        ok &= beta_zero(dual_gp_gq("gp", lam, 3)) == p_ref
        ok &= beta_zero(dual_gp_gq("gq", lam, 3)) == q_ref
        ok &= beta_zero(jp_jq("jp", lam, EMPTY, 3)) == p_ref
        ok &= beta_zero(jp_jq("jq", lam, EMPTY, 3)) == q_ref
    report(9, "beta=0 degenerations for |lambda| <= 5", ok)


def test_criterion_10_property_suites():
    ok = True
    # grading: set-valued families satisfy x-degree - beta-degree = cell count
    for lam in enumerate_strict_partitions(4):
        for mu in subshapes(lam):
            size = lam.size - mu.size
            poly = gp_gq("GQ", SkewShape(lam, mu), 3, lam.size + 3)
            ok &= all(sum(e) - b == size for (e, b) in poly.terms)
    # grading: duals satisfy x-degree + beta-degree = size
    for lam in enumerate_strict_partitions(5):
        poly = dual_gp_gq("gp", lam, 3)
        ok &= all(sum(e) + b == lam.size for (e, b) in poly.terms)
    # symmetry under variable swaps
    for lam in enumerate_strict_partitions(4):
        ok &= is_symmetric(gp_gq("GP", straight(lam), 3, lam.size + 2))
        ok &= is_symmetric(dual_gp_gq("gq", lam, 3))
    # expansion round trips
    combo = gp_gq("GP", straight(sp(3, 1)), 3, 7).times_beta(1) + gp_gq(
        "GP", straight(sp(2, 1)), 3, 7
    ).times_beta(0, -2)
    exp = expand_in_basis(combo, "GP")
    ok &= exp.residual_zero and recombine(exp) == combo
    exp2 = expand_in_basis(dual_gp_gq("gq", sp(3, 1), 3), "gp")
    ok &= exp2.residual_zero and recombine(exp2) == dual_gp_gq("gq", sp(3, 1), 3)
    # nonnegativity of the a-constants for |mu|,|nu| <= 4
    shapes4 = enumerate_strict_partitions(4)
    for mu in shapes4:
        for nu in shapes4:
            table = structure_constants("a", mu, nu, mu.size + nu.size + 2)
            ok &= all(v >= 0 for v in table.values())
    # vanishing conditions within the caps
    shapes3 = enumerate_strict_partitions(3)
    for mu in shapes3:
        for nu in shapes3:
            for kind in ("a", "b"):
                table = structure_constants(kind, mu, nu, 7)
                for lam, v in table.items():
                    if v:
                        ok &= contains(mu, lam) and contains(nu, lam)
                        ok &= lam.size >= mu.size + nu.size
    # exhaustive one-row bijection for n <= 3
    for n in (1, 2, 3):
        domain = list(iter_tableaux("setshyt_q", straight(sp(n)), 3))
        fixed_target = {t.entries for t in iter_restricted_p(sp(n), sp(n), 3)}
        moved_target = {
            t.entries for t in iter_tableaux("setshyt_p", straight(sp(n + 1)), 3)
        }
        seen_fixed, seen_moved = set(), set()
        for t in domain:
            tag, image = onerow_map(t)
            ok &= weight("setshyt_q", t)[0] == weight("setshyt_q", image)[0]
            target = seen_fixed if tag == "fixed" else seen_moved
            ok &= image.entries not in target
            target.add(image.entries)
        ok &= seen_fixed == fixed_target and seen_moved == moved_target
    report(10, "grading, symmetry, round trips, positivity, vanishing, one-row bijection", ok)
