import json

import pytest

from kshift import cache, identities
from kshift.errors import KshiftError, ParameterError
from kshift.identities import (
    CHECKS,
    VerificationReport,
    _compare,
    _run_cases,
    check_cauchy_family,
    check_conjectures,
    check_coproducts,
    check_dual_expansions,
    check_flip,
    check_gq_to_gp,
    check_onerow_series,
    check_overlap_matrix,
    check_skew_expansions,
    check_symmetrization,
    run_check,
    run_manifest,
)
from kshift.polyring import BetaPoly


def test_gq_to_gp_small_sweep():
    report = check_gq_to_gp(max_size=4, nvars=3, max_deg=7)
    assert report.status == "PASS"
    assert report.cases == 3 * 7  # three sub-checks per strict partition


@pytest.mark.parametrize("check", [check_gq_to_gp, check_conjectures])
def test_the_tableau_checks_count_without_listing(monkeypatch, check):
    # the counting form of the theorem and the conjectural tableau sums read the
    # counting walk only: no tableau is listed
    from kshift import tableaux

    def fillings(*args, **kwargs):
        raise AssertionError("a check listed tableaux")

    monkeypatch.setattr(tableaux, "_fillings", fillings)
    monkeypatch.setattr(cache.CACHE, "_mem", {})
    assert check().ok


def test_gq_to_gp_parameter_errors():
    with pytest.raises(ParameterError):
        check_gq_to_gp(max_size=6, nvars=2, max_deg=9)
    with pytest.raises(ParameterError):
        check_gq_to_gp(max_size=6, nvars=3, max_deg=5)


def test_overlap_matrix():
    report = check_overlap_matrix(max_part=5)
    assert report.status == "PASS"
    assert report.cases == 2 * 252  # one case per entry of MN and NM: sum of C(5, l)^2 is C(10, 5)
    with pytest.raises(ParameterError):
        check_overlap_matrix(max_part=9)


def test_skew_expansions_small():
    report = check_skew_expansions(max_size=4, nvars=3, max_deg=7)
    assert report.status == "PASS"


def test_flip_small():
    report = check_flip(max_size=5, nvars=2, max_deg=6)
    assert report.status == "PASS"


def test_coproducts_small():
    report = check_coproducts(max_size=3, nx=2, ny=2, max_deg=5)
    assert report.status == "PASS"


def test_cauchy_small():
    report = check_cauchy_family(max_size=1, nx=2, ny=2, max_deg=3)
    assert report.status == "PASS"


def test_cauchy_three_alphabet_variables():
    report = check_cauchy_family(max_size=2, nx=3, ny=3)
    assert (report.status, report.cases) == ("PASS", 74)


def test_dual_expansions():
    report = check_dual_expansions(max_size=5)
    assert report.status == "PASS"


def test_symmetrization():
    report = check_symmetrization(trials=3, seed=1)
    assert report.status == "PASS"
    assert report.cases > 0


def test_onerow_series_check():
    report = check_onerow_series(max_power=3, nvars=2, max_deg=5)
    assert report.status == "PASS"


def test_conjectures_small():
    report = check_conjectures(max_size=3, nvars=3, max_deg=3, skew_max_size=2, length_cap_size=1)
    assert report.status == "MATCH"
    assert all(f["verdict"] == "MATCH" for f in report.findings)


def test_reports_are_deterministic():
    r1 = check_dual_expansions(max_size=4)
    r2 = check_dual_expansions(max_size=4)
    assert r1.to_json() == r2.to_json()


def test_reports_identical_with_cache_disabled():
    was = cache.CACHE.enabled
    try:
        a = check_onerow_series(max_power=2, nvars=2, max_deg=4).to_json()
        cache.CACHE.configure(enabled=False)
        cache.CACHE.clear_memory()
        b = check_onerow_series(max_power=2, nvars=2, max_deg=4).to_json()
    finally:
        cache.CACHE.configure(enabled=was)
    assert a == b


def test_failure_reporting_and_witness():
    cases = [("b",), ("a",), ("c",)]

    def worker(case):
        ok = case[0] != "b" and case[0] != "c"
        return ok, None if ok else {"detail": case[0]}

    report = _run_cases("demo", {}, cases, worker)
    assert report.status == "FAIL"
    assert report.cases == 3
    # the witness is the smallest failing case in sorted order
    assert report.witness["case"] == "('b',)"
    obj = json.loads(report.to_json())
    assert set(obj) == {"id", "params", "status", "cases", "witness"}


def test_compare_needs_one_truncation():
    x = BetaPoly.variable(1, 2, 3)
    assert _compare(x, x) == (True, None)
    ok, info = _compare(x, x.scale(2))
    assert not ok and info == {"lhs": x.to_json_obj(), "rhs": x.scale(2).to_json_obj()}
    # equal terms cut at another degree or alphabet split are not comparable
    with pytest.raises(KshiftError):
        _compare(x, x.truncated(4))
    with pytest.raises(KshiftError):
        _compare(x, BetaPoly(2, x.terms, 3, 1))


def test_witness_is_the_smallest_failing_case_by_size():
    def fail(case):
        return False, None

    assert _run_cases("x", {}, [("9",), ("10",)], fail).witness == {"case": "('9',)"}
    # partitions rank before other strings in the same position; cases still
    # run, and are listed, in string order
    cases = [("gp", "3,1"), ("2", "1"), ("10", "")]
    report = _run_cases("x", {}, cases, fail, findings=True)
    assert report.witness == {"case": "('2', '1')"}
    assert [f["case"] for f in report.findings] == ["('10', '')", "('2', '1')", "('gp', '3,1')"]


def test_run_cases_verdicts_and_findings():
    def worker(case):
        return case != ("b",), None

    report = _run_cases("demo", {}, [("b",), ("a",)], worker, ("MATCH", "MISMATCH"), findings=True)
    assert report.status == "MISMATCH" and report.witness == {"case": "('b',)"}
    assert report.findings == [
        {"case": "('a',)", "verdict": "MATCH"},
        {"case": "('b',)", "verdict": "MISMATCH"},
    ]
    clean = _run_cases("demo", {}, [("a",)], worker, ("MATCH", "MISMATCH"), findings=True)
    assert clean.status == "MATCH" and clean.witness is None


def test_run_check_and_registry():
    report = run_check("overlap-matrix", max_part=4)
    assert report.status == "PASS"
    with pytest.raises(ParameterError):
        run_check("no-such-check")
    with pytest.raises(ParameterError):
        run_check("overlap-matrix", bogus=1)
    with pytest.raises(ParameterError):
        run_check("overlap-matrix", max_part="4")
    assert set(CHECKS) >= {
        "gq-to-gp",
        "skew-expansions",
        "overlap-matrix",
        "flip",
        "coproducts",
        "cauchy",
        "dual-expansions",
        "symmetrization",
        "onerow-series",
        "conjectures",
    }


def test_run_manifest():
    records = [
        {"id": "overlap-matrix", "params": {"max_part": 3}},
        {"id": "onerow-series", "params": {"max_power": 2, "nvars": 1, "max_deg": 4}},
        {"id": "missing", "params": {}},
    ]
    reports = run_manifest(records)
    assert [r.status for r in reports] == ["PASS", "PASS", "ERROR"]


def test_run_check_lets_internal_type_errors_surface(monkeypatch):
    def broken(max_part: int = 3):
        return len(max_part)  # a bug inside the check: TypeError

    monkeypatch.setitem(CHECKS, "overlap-matrix", broken)
    with pytest.raises(TypeError) as info:
        run_check("overlap-matrix", max_part=2)
    assert not isinstance(info.value, ParameterError)


@pytest.mark.parametrize(
    "bad",
    [
        {"params": {"max_part": 3}},  # no id
        {"id": "overlap-matrix", "params": [3]},  # params not an object
        {"id": "flip", "params": {"max_size": -1}},  # the check raises ValueError
        {"id": "overlap-matrix", "params": {"max_part": "3"}},  # not an integer
        "overlap-matrix",  # not a record
    ],
)
def test_run_manifest_bad_record_is_its_own_error(bad):
    good = {"id": "overlap-matrix", "params": {"max_part": 3}}
    reports = run_manifest([good, bad, good])
    assert [r.status for r in reports] == ["PASS", "ERROR", "PASS"]
    assert reports[1].cases == 0 and reports[1].witness["error"]
    json.loads(reports[1].to_json())


def test_run_manifest_needs_a_list():
    with pytest.raises(ParameterError):
        run_manifest({"id": "overlap-matrix"})


def test_witness_reverification():
    # a FAIL witness must reproduce: re-run the single instance it names
    report = check_onerow_series(max_power=2, nvars=2, max_deg=4)
    assert report.status == "PASS" and report.witness is None


TINY = {
    "gq-to-gp": {"max_size": 2, "nvars": 2, "max_deg": 4},
    "skew-expansions": {"max_size": 2, "nvars": 2, "max_deg": 4},
    "overlap-matrix": {"max_part": 2},
    "flip": {"max_size": 2, "nvars": 2, "max_deg": 4},
    "coproducts": {"max_size": 1, "nx": 1, "ny": 1, "max_deg": 2},
    "cauchy": {"max_size": 1, "nx": 1, "ny": 1, "max_deg": 2},
    "dual-expansions": {"max_size": 2},
    "symmetrization": {"trials": 1},
    "onerow-series": {"max_power": 1, "nvars": 1, "max_deg": 2},
    "conjectures": {"max_size": 1, "nvars": 1, "max_deg": 1, "skew_max_size": 1, "length_cap_size": 1},
}


def test_every_check_runs_through_the_case_runner(monkeypatch):
    seen = []
    real = identities._run_cases

    def spy(check_id, *args, **kwargs):
        seen.append(check_id)
        return real(check_id, *args, **kwargs)

    monkeypatch.setattr(identities, "_run_cases", spy)
    assert set(TINY) == set(CHECKS)
    for check_id, params in TINY.items():
        report = run_check(check_id, **params)
        assert report.ok and seen[-1] == check_id == report.id
    assert seen == list(TINY)


def test_overlap_matrix_failure_names_the_smallest_entry(monkeypatch):
    real = identities._overlap_entry
    monkeypatch.setattr(identities, "_overlap_entry", lambda lam, mu: 2 * real(lam, mu))
    report = check_overlap_matrix(max_part=3)
    # M is doubled, so every diagonal entry of MN and NM is 2 instead of 1
    assert report.status == "FAIL" and report.cases == 2 * 20
    assert report.witness == {"case": "('MN', '', '')", "value": 2}


def test_symmetrization_failure_names_the_smallest_case(monkeypatch):
    real = identities.symmetrization_eval

    def wrong_gq(flavor, lam, nvars, pt):
        return real(flavor, lam, nvars, pt) + (flavor == "GQ")

    clean = check_symmetrization(trials=2, seed=3)
    monkeypatch.setattr(identities, "symmetrization_eval", wrong_gq)
    report = check_symmetrization(trials=2, seed=3)
    assert report.status == "FAIL"
    assert report.cases == clean.cases == 2 * 29 and report.notes == clean.notes
    assert report.witness["case"] == "('1', 'GQ', '1', '2')"
    assert set(report.witness) == {"case", "point", "formula", "tableaux"}


def test_onerow_series_failure_names_the_smallest_power(monkeypatch):
    real = identities.gq_onerow_series

    def wrong(nvars, max_power, max_deg):
        series = real(nvars, max_power, max_deg)
        return series[:2] + [s.scale(3) for s in series[2:]]

    monkeypatch.setattr(identities, "gq_onerow_series", wrong)
    report = check_onerow_series(max_power=4, nvars=2, max_deg=6)
    assert report.status == "FAIL" and report.cases == 5
    assert report.witness["case"] == "('u^-2',)"
    assert set(report.witness) == {"case", "lhs", "rhs"}


def test_one_sign_routine_serves_every_expansion_check(monkeypatch):
    # flip the sign of every one-box strip: each check that reads the
    # coefficient through strip_sign must fail at its smallest such case
    real = identities.strip_sign
    monkeypatch.setattr(
        identities, "strip_sign", lambda lam, mu: -real(lam, mu) if lam.size - mu.size == 1 else real(lam, mu)
    )
    gq = check_gq_to_gp(max_size=2, nvars=2, max_deg=4)
    skew = check_skew_expansions(max_size=2, nvars=2, max_deg=4)
    dual = check_dual_expansions(max_size=3)
    assert (gq.status, skew.status, dual.status) == ("FAIL", "FAIL", "FAIL")
    assert gq.witness["case"] == "('1', 'count-beta1')"
    assert skew.witness["case"] == "('doubleslash', '1', '')"
    assert dual.witness["case"] == "('2', 'expansion')"
