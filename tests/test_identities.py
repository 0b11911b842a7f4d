import functools
import hashlib
import inspect
import json

import pytest

from kshift import cache, genfun, identities
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
from kshift.polyring import BetaPoly, tensor_split
from kshift.shapes import (
    SkewShape,
    StrictPartition,
    contains,
    enumerate_strict_partitions,
    flip,
    subshapes,
    vertical_strip_extensions,
    vertical_strip_subsets,
)


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


def test_the_gq_to_gp_check_walks_each_tally_once(monkeypatch):
    # the expansion cases and the count-beta1 case ask for the same GP/GQ tallies,
    # passing the flags positionally or by keyword: 28 of the 90 requests repeat a key;
    # the GP/GQ views are read off the tallies and kept per process, so they start cold
    from kshift import tableaux

    tableaux._walk.cache_clear()
    genfun._shape_view.cache_clear()
    monkeypatch.setattr(cache.CACHE, "_mem", {})
    assert check_gq_to_gp().ok
    walks = tableaux._walk.cache_info()
    assert (walks.misses, walks.hits) == (62, 28)


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


def test_the_conjecture_sweep_solves_each_dual_entry_once(monkeypatch):
    # jp/jq are read first, so the entry each solves in |lam/mu| variables serves gp/gq in
    # nvars by restriction: 50 solves for the 50 (flavor, mu) the sweep reads, not 72
    from test_genfun import spy_solves

    monkeypatch.setattr(cache.CACHE, "_mem", {})
    solved, _ = spy_solves(monkeypatch)
    report = check_conjectures(8, length_cap_size=4)
    assert len(solved) == len({(f, mu) for f, mu, _ in solved}) == 50
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == "7bccc89e58f577ce71f3f0658cfe8b058b7a9ed215854bc8c9b3225b9fe527c6"


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
    ok, info = _compare(x, x.times_beta(0, 2))
    assert not ok and info == {"lhs": x.to_json_obj(), "rhs": x.times_beta(0, 2).to_json_obj()}
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
    with pytest.raises(ParameterError, match="bogus"):
        run_check("overlap-matrix", bogus=1)
    with pytest.raises(ParameterError, match="bogus"):
        run_check("cauchy", bogus=1)
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


def test_check_params_reads_through_wraps_wrappers(monkeypatch):
    # the bench tracer wraps every registered check this way before the CLI reads its flags
    check = CHECKS["overlap-matrix"]
    wrapper = functools.wraps(check)(lambda *args, **kwargs: check(*args, **kwargs))
    twice = functools.wraps(wrapper)(lambda *args, **kwargs: wrapper(*args, **kwargs))
    assert identities.check_params(twice) == identities.check_params(check) == {"max_part": 7}
    monkeypatch.setitem(CHECKS, "overlap-matrix", twice)
    assert run_check("overlap-matrix", max_part=3).status == "PASS"
    with pytest.raises(ParameterError, match="bogus"):
        run_check("overlap-matrix", bogus=1)


def test_every_check_takes_only_positional_or_keyword_parameters_with_defaults():
    # so the code object's positional names and __defaults__ are all of them
    for check_id, check in CHECKS.items():
        params = inspect.signature(check).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is not p.empty for p in params), check_id
        assert identities.check_params(check) == {p.name: p.default for p in params}, check_id


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
        {"id": "flip", "params": {"max_size": -1}},  # the check raises ParameterError
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


def test_run_manifest_lets_internal_value_errors_surface(monkeypatch):
    # only kshift errors make an ERROR report; a plain ValueError is a bug and surfaces
    def broken(max_part=7):
        raise ValueError("a bug")

    monkeypatch.setitem(identities.CHECKS, "overlap-matrix", broken)
    with pytest.raises(ValueError, match="a bug"):
        run_manifest([{"id": "overlap-matrix", "params": {"max_part": 3}}])


def test_case_fields_that_are_no_partition_sort_after_the_partitions():
    key = identities._case_size_key
    assert key(("2,1", "a,b", "expansion")) == ((0, StrictPartition.parse("2,1").sort_key()), (1, "a,b"), (1, "expansion"))


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
        return series[:2] + [s.times_beta(0, 3) for s in series[2:]]

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


# -- the Cauchy family against its written-out sweep --------------------------------


def reference_cauchy(max_size=2, nx=2, ny=2, max_deg=4):
    """The Cauchy sweep on written-out polynomials: each side a sum of
    `tensor_split` products of values read through `identities.evaluate`, and
    the twisted kernel multiplied in by `BetaPoly.__mul__`."""
    kern = identities._cached_kernel(nx, ny, max_deg)
    xvars, yvars = list(range(1, nx + 1)), list(range(nx + 1, nx + ny + 1))
    negations = {"": [], "y": yvars, "x": xvars, "xy": xvars + yvars}
    twisted = {name: kern.negate_vars(which) for name, which in negations.items()}
    pairs = [(str(mu), str(nu)) for mu in enumerate_strict_partitions(max_size) for nu in enumerate_strict_partitions(max_size)]
    cases = [("kernel", "gp", ""), ("kernel", "gq", "")]
    cases += [(tag, *pair) for pair in pairs for tag in ("skew-gq", "skew-gp", "a", "b", "c", "d", "e", "f")]

    def worker(case):
        tag, mu_s, nu_s = case
        if tag == "kernel":
            tag, mu_s = "skew-" + mu_s, ""
        mu, nu = StrictPartition.parse(mu_s), StrictPartition.parse(nu_s)
        big, small, side, negated = {
            "skew-gq": ("GP", "gq", "right", ""),
            "skew-gp": ("GQ", "gp", "right", ""),
            "a": ("GP", "jq", "left", "y"),
            "b": ("GQ", "jp", "left", "y"),
            "c": ("JP", "gq", "left", "x"),
            "d": ("JQ", "gp", "left", "x"),
            "e": ("JP", "jq", "right", "xy"),
            "f": ("JQ", "jp", "right", "xy"),
        }[tag]
        lhs = BetaPoly.zero(nx + ny, max_deg, nx)
        for lam in enumerate_strict_partitions(max_deg + mu.size):
            if contains(mu, lam) and contains(nu, lam):
                px = identities.evaluate(big, lam, mu, nx, max_deg, doubleslash=True)
                lhs = lhs + tensor_split(px, identities.evaluate(small, lam, nu, ny, max_deg), max_deg)
        rhs = BetaPoly.zero(nx + ny, max_deg, nx)
        for kappa in (k for k in subshapes(mu) if contains(k, nu)):
            px = identities.evaluate(big, nu, kappa, nx, max_deg, doubleslash=True)
            rhs = rhs + tensor_split(px, identities.evaluate(small, mu, kappa, ny, max_deg), max_deg)
        if side == "left":
            lhs = twisted[negated] * lhs
        else:
            rhs = twisted[negated] * rhs
        return _compare(lhs, rhs)

    params = {"max_size": max_size, "nx": nx, "ny": ny, "max_deg": max_deg}
    return _run_cases("cauchy", params, cases, worker)


@pytest.mark.parametrize("params", [(1, 1, 1, 2), (2, 2, 2, 4), (1, 2, 3, 4)])
def test_the_cauchy_check_matches_its_written_out_sweep(params):
    assert check_cauchy_family(*params).to_json() == reference_cauchy(*params).to_json()


def faulty_evaluate(monkeypatch, fault):
    """Inject fault(value, func, outer, inner, nvars, doubleslash), a written-out value to a
    written-out value, at both seams: identities.evaluate, which the written-out references read,
    returns the faulted value, and identities.evaluate_view, which the checks read, the view of the
    faulted value (None when it is not symmetric) and the real view of any value the fault leaves."""
    real, real_view = identities.evaluate, identities.evaluate_view

    def evaluate(func, outer, inner=(), nvars=3, max_deg=None, doubleslash=False):
        value = real(func, outer, inner, nvars, max_deg, doubleslash)
        return fault(value, func, tuple(outer), tuple(inner), nvars, doubleslash)

    def evaluate_view(func, outer, inner=(), nvars=3, max_deg=None, doubleslash=False):
        view = real_view(func, outer, inner, nvars, max_deg, doubleslash)
        value = genfun._written(view, nvars, max_deg)
        faulted = fault(value, func, tuple(outer), tuple(inner), nvars, doubleslash)
        return view if faulted is value else faulted.view()

    monkeypatch.setattr(identities, "evaluate", evaluate)
    monkeypatch.setattr(identities, "evaluate_view", evaluate_view)


def test_the_cauchy_check_and_its_written_out_sweep_fail_alike(monkeypatch):
    # a symmetric fault, jq_(2) doubled: the same witness, byte for byte
    faulty_evaluate(monkeypatch, lambda p, func, outer, inner, n, ds: p.times_beta(0, 2) if (func, outer, inner) == ("jq", (2,), ()) else p)
    new, ref = check_cauchy_family(), reference_cauchy()
    assert new.status == ref.status == "FAIL" and new.witness["case"] == "('a', '', '')"
    assert new.to_json() == ref.to_json()
    monkeypatch.undo()
    # an asymmetric fault: both FAIL
    add_off_partition_term(monkeypatch)
    new, ref = check_cauchy_family(), reference_cauchy()
    assert new.status == ref.status == "FAIL"


def add_off_partition_term(monkeypatch, value=("GP", (1,), (), 2, True), max_deg=4):
    """Add a term off the partitions, x2^3, to one value read at max_deg through either seam
    (`faulty_evaluate`), by default the GP double-slash value GP_{1//} in 2 variables."""
    nvars = value[3]
    stray = BetaPoly(nvars, {((0, 3) + (0,) * (nvars - 2), 0): 1}, max_deg)
    faulty_evaluate(monkeypatch, lambda p, *read: p + stray if read == value else p)


def test_an_asymmetric_value_fails_the_cauchy_case_that_reads_it(monkeypatch):
    # no NonSymmetricError (a usage error): the smallest case reading the value fails, naming it
    add_off_partition_term(monkeypatch)
    report = check_cauchy_family()
    assert report.witness == {"case": "('a', '', '')", "asymmetric": "GP 1// in 2 variables"}


@pytest.mark.parametrize(
    "check, params, value, max_deg, case",
    [
        (check_gq_to_gp, (2, 2, 4), ("GP", (1,), (), 2, True), 4, "('1', 'expansion')"),
        (check_flip, (2, 2, 4), ("GP", (2,), (), 2, False), 4, "('2', '')"),
        (check_coproducts, (1, 2, 2, 3), ("GP", (1,), (), 4, False), 6, "('GP', '1')"),
    ],
)
def test_an_asymmetric_value_fails_the_smallest_case_that_reads_it(monkeypatch, check, params, value, max_deg, case):
    # the coproduct case reads GP_1 in all 4 variables, at twice max_deg, for its left side
    add_off_partition_term(monkeypatch, value, max_deg)
    func, outer, inner, nvars, doubleslash = value
    named = f"{func} {','.join(map(str, outer))}{'//' if doubleslash else '/'}{','.join(map(str, inner))} in {nvars} variables"
    assert check(*params).witness == {"case": case, "asymmetric": named}


def doubled(value):
    """A symmetric fault for faulty_evaluate: the one value (func, outer, inner, nvars, doubleslash) doubled."""
    return lambda p, *read: p.times_beta(0, 2) if read == value else p


# -- the expansion, flip and coproduct checks against their written-out workers -----


def reference_expansion_case(dual, outer, inner, nvars, max_deg):
    """The GQ-to-GP theorem at one case on written-out polynomials: GQ_{mu//nu}
    against the sum of 2^e (-1)^s beta^d GP_{lam//kappa}, or dually gq_{lam/kappa}
    against the same sum of gp_{mu/nu}, each term built by `scale`, `times_beta`
    and `+` on values read through `identities.evaluate`."""
    if dual:
        lam, kappa = outer, inner
        quads = [
            (lam, mu, nu, kappa)
            for mu in vertical_strip_subsets(lam)
            for nu in subshapes(mu)
            if len(nu) == len(kappa) and contains(kappa, nu)
        ]
        lhs = identities.evaluate("gq", lam, kappa, nvars, max_deg)
    else:
        mu, nu = outer, inner
        quads = [
            (lam, mu, nu, kappa)
            for kappa in subshapes(nu)
            if len(kappa) == len(nu)
            for lam in vertical_strip_extensions(mu)
        ]
        lhs = identities.evaluate("GQ", mu, nu, nvars, max_deg, doubleslash=True)
    terms = [(identities._expansion_term(*q), q) for q in quads]
    scale = max(0, -min((e for (e, _, _), _ in terms), default=0))
    rhs = BetaPoly.zero(nvars, max_deg)
    for (e, sign, d), (lam, mu, nu, kappa) in terms:
        if dual:
            term = identities.evaluate("gp", mu, nu, nvars, max_deg)
        else:
            term = identities.evaluate("GP", lam, kappa, nvars, max_deg, doubleslash=True)
        rhs = rhs + term.times_beta(0, sign * 2 ** (e + scale)).times_beta(d)
    return _compare(lhs.times_beta(0, 2**scale), rhs)


def reference_report(monkeypatch, check, *params):
    """The report of an expansion check with its expansion cases run by reference_expansion_case."""
    with monkeypatch.context() as m:
        # (dual, outer, inner, nvars, max_deg) are the worker's last five arguments
        m.setattr(identities, "_expansion_case", lambda *args: reference_expansion_case(*args[-5:]))
        return check(*params)


def reference_flip(max_size=6, nvars=3, max_deg=8):
    """The flip check on written-out GP/GQ values read through `identities.evaluate`."""
    cases = []
    for lam in enumerate_strict_partitions(max_size):
        for mu in subshapes(lam):
            cases.append((str(lam), str(mu)))

    def worker(case):
        lam = StrictPartition.parse(case[0])
        mu = StrictPartition.parse(case[1])
        other = flip(SkewShape(lam, mu))
        for flavor in ("GP", "GQ"):
            ok, info = _compare(
                identities.evaluate(flavor, lam, mu, nvars, max_deg),
                identities.evaluate(flavor, other.outer, other.inner, nvars, max_deg),
            )
            if not ok:
                return False, {"flavor": flavor, "flipped": str(other), **info}
        return True, None

    params = {"max_size": max_size, "nvars": nvars, "max_deg": max_deg}
    return _run_cases("flip", params, cases, worker)


def reference_coproducts(max_size=4, nx=2, ny=2, max_deg=6):
    """The coproduct check on written-out polynomials: the left side cut in each
    block, the right side a sum of `tensor_split` products."""
    lams = enumerate_strict_partitions(max_size)
    cases = [(fam, str(lam)) for fam in ("GP", "GQ", "gp", "gq", "jp", "jq", "JP", "JQ") for lam in lams]
    n = nx + ny

    def worker(case):
        fam, lam_s = case
        lam = StrictPartition.parse(lam_s)
        base = {"JP": "GP", "JQ": "GQ"}.get(fam, fam)
        p = identities.evaluate(base, lam, (), n, 2 * max_deg)
        lhs = BetaPoly(p.nvars, p.terms, max_deg, nx)
        if base != fam:
            lhs = lhs.substitute_geometric()
        doubleslash = fam in ("GP", "GQ", "JP", "JQ")
        rhs = BetaPoly.zero(n, max_deg, nx)
        for nu in subshapes(lam):
            px = identities.evaluate(fam, nu, (), nx, max_deg)
            py = identities.evaluate(fam, lam, nu, ny, max_deg, doubleslash)
            rhs = rhs + tensor_split(px, py, max_deg)
        return _compare(lhs, rhs)

    params = {"max_size": max_size, "nx": nx, "ny": ny, "max_deg": max_deg}
    return _run_cases("coproducts", params, cases, worker)


EXPANSION_GRID = [
    (check_gq_to_gp, (2, 2, 4)),
    (check_gq_to_gp, (4, 3, 7)),
    (check_gq_to_gp, (5, 4, 8)),
    (check_skew_expansions, (2, 2, 4)),
    (check_skew_expansions, (3, 3, 6)),
    (check_skew_expansions, (4, 2, 7)),
    (check_dual_expansions, (3,)),
    (check_dual_expansions, (7,)),
    (check_dual_expansions, (5, 3)),
]


@pytest.mark.parametrize("check, params", EXPANSION_GRID)
def test_the_expansion_checks_match_their_written_out_worker(monkeypatch, check, params):
    assert check(*params).to_json() == reference_report(monkeypatch, check, *params).to_json()


@pytest.mark.parametrize("params", [(2, 2, 4), (4, 3, 6), (5, 2, 6)])
def test_the_flip_check_matches_its_written_out_sweep(params):
    assert check_flip(*params).to_json() == reference_flip(*params).to_json()


@pytest.mark.parametrize("params", [(1, 1, 1, 2), (2, 1, 2, 4), (3, 2, 2, 5), (2, 2, 1, 6)])
def test_the_coproduct_check_matches_its_written_out_sweep(params):
    assert check_coproducts(*params).to_json() == reference_coproducts(*params).to_json()


@pytest.mark.parametrize(
    "check, params, value, case",
    [
        (check_gq_to_gp, (3, 3, 6), ("GP", (2,), (), 3, True), "('1', 'expansion')"),
        (check_skew_expansions, (3, 2, 5), ("GQ", (2,), (1,), 2, True), "('doubleslash', '2', '1')"),
        (check_skew_expansions, (3, 2, 5), ("gp", (2, 1), (1,), 2, False), "('dual', '2,1', '1')"),
        (check_dual_expansions, (4,), ("gp", (2,), (), 2, False), "('2', 'expansion')"),
    ],
)
def test_the_expansion_checks_and_their_worker_fail_alike(monkeypatch, check, params, value, case):
    # a symmetric fault, one value doubled: the same witness, byte for byte
    faulty_evaluate(monkeypatch, doubled(value))
    new, ref = check(*params), reference_report(monkeypatch, check, *params)
    assert new.status == ref.status == "FAIL" and new.witness["case"] == case
    assert new.to_json() == ref.to_json()


@pytest.mark.parametrize(
    "check, params, value, max_deg",
    [
        (check_gq_to_gp, (2, 2, 4), ("GP", (1,), (), 2, True), 4),
        (check_skew_expansions, (2, 2, 4), ("GP", (1,), (), 2, True), 4),
        (check_dual_expansions, (3,), ("gp", (1,), (), 2, False), None),
    ],
)
def test_the_expansion_checks_and_their_worker_fail_on_an_asymmetric_value(monkeypatch, check, params, value, max_deg):
    add_off_partition_term(monkeypatch, value, max_deg)
    new, ref = check(*params), reference_report(monkeypatch, check, *params)
    assert new.status == ref.status == "FAIL"


def test_the_flip_check_and_its_written_out_sweep_fail_alike(monkeypatch):
    faulty_evaluate(monkeypatch, doubled(("GQ", (2, 1), (1,), 2, False)))
    new, ref = check_flip(4, 2, 5), reference_flip(4, 2, 5)
    assert new.status == ref.status == "FAIL" and new.witness["flavor"] == "GQ"
    assert new.to_json() == ref.to_json()
    monkeypatch.undo()
    # GP_{2/} flips to GP_{21/1}, which the fault leaves as it is
    add_off_partition_term(monkeypatch, ("GP", (2,), (), 2, False))
    new, ref = check_flip(2, 2, 4), reference_flip(2, 2, 4)
    assert new.status == ref.status == "FAIL"


def test_the_coproduct_check_and_its_written_out_sweep_fail_alike(monkeypatch):
    # the doubled value is read on the right side of two JQ cases
    faulty_evaluate(monkeypatch, doubled(("JQ", (1,), (), 2, False)))
    new, ref = check_coproducts(2, 2, 2, 4), reference_coproducts(2, 2, 2, 4)
    assert new.status == ref.status == "FAIL" and new.witness["case"] == "('JQ', '1')"
    assert new.to_json() == ref.to_json()
    monkeypatch.undo()
    add_off_partition_term(monkeypatch, ("GP", (1,), (), 4, False), 6)
    new, ref = check_coproducts(1, 2, 2, 3), reference_coproducts(1, 2, 2, 3)
    assert new.status == ref.status == "FAIL"


def test_an_asymmetric_substituted_coproduct_side_is_an_internal_error(monkeypatch):
    # the JP/JQ left side is substituted after the block cut and read back to its view:
    # a value the engine built that is not symmetric is a bug, not a usage error
    real = BetaPoly.substitute_geometric

    def lopsided(self):
        p = real(self)
        return BetaPoly(p.nvars, {**p.terms, ((1,) + (0,) * (p.nvars - 1), 7): 1}, p.max_deg, p.split)

    monkeypatch.setattr(BetaPoly, "substitute_geometric", lopsided)
    with pytest.raises(KshiftError) as err:
        check_coproducts(1, 2, 2, 3)
    assert type(err.value) is KshiftError and "not symmetric" in str(err.value)


# the sha256 of each registered check's report at its defaults: a change that keeps
# every report byte-identical keeps these
DEFAULT_REPORTS = {
    "gq-to-gp": "2409b2120fa12612de3e37893aeb8e55f65d5cbbd379f1ece23842f6e0e7f149",
    "skew-expansions": "d204495c4605491a74c9963959bd971d690f7b6f675e4bbc1f85696d9ad5efa3",
    "overlap-matrix": "6f725a65517bc0ea8eedf98ddf67e72592ea74f7065c855079fd42fa53be3959",
    "flip": "5d6134128a46c45f23d6e6e639416c22bdead54faeb0c26038ce674a39a216f2",
    "coproducts": "d547b59d445d4a776eccb39d1a5fe1dcf4e1a95b160b39c2bbf36d601b6e9936",
    "cauchy": "280a54e35287185cfd4ed9d79f6202051608807afa34a880d95abf57feaa080b",
    "dual-expansions": "f7bba331e96db6d08cf3cb92a698af34efaf63798ee5356cece7e5c36dcde82a",
    "symmetrization": "8fb3c8ad54d825f35439f7ecf807f188f6dc4fd7652d7a1d0157f9bce7e5b0d9",
    "onerow-series": "0916859ad3dfb0e9a074f99bf63ee9efe42ab188877381a0bc05b71331a46ea1",
    "conjectures": "941c70ac75e98e92ff62a445df865352e8c857604db337446f9889663ba35c50",
}


@pytest.mark.parametrize("check_id", sorted(DEFAULT_REPORTS))
def test_the_default_reports_are_pinned(check_id):
    assert set(DEFAULT_REPORTS) == set(CHECKS)
    assert hashlib.sha256(run_check(check_id).to_json().encode()).hexdigest() == DEFAULT_REPORTS[check_id]


# the sha256 of reports past the defaults that the paper-scale steps run, as the
# engine gave them before the GP/GQ/JP/JQ views and the monomial images
PINNED_REPORTS = [
    (check_cauchy_family, {"max_size": 3}, "44eadb409eb4de89498eb5a1ed60469e3b85d88d8713c05eba7734261c6e68ac"),
    (check_cauchy_family, {"nx": 3, "ny": 3, "max_size": 2}, "a2b169bdfacf45703907b6d5b4e75c7d8d5bf8c16fd05aebf6984e2e81d9bb56"),
    (check_skew_expansions, {"max_size": 6}, "4e35c0d517d29818579524fad739007b1be0f298a890395ab6a84368fe3c4180"),
    (check_flip, {"max_size": 7}, "4cdf9977043c98a7fda1dfaa747e7440a9c6e3dbfa0de5255035d5842ba62149"),
    (check_coproducts, {"max_size": 5}, "d1610425abfbfeed853c6b96d249ac7dc7cd7ce370ed41e6b3aa4e17892b2a96"),
]


@pytest.mark.parametrize("check, params, digest", PINNED_REPORTS)
def test_the_paper_step_reports_are_pinned(check, params, digest):
    assert hashlib.sha256(check(**params).to_json().encode()).hexdigest() == digest
