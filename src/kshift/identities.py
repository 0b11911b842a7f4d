"""Machine verification of the expansion, Cauchy, and conjecture identities.

Every check returns a VerificationReport.  Theorem checks use PASS/FAIL with a
reproducible witness on failure; conjecture checks use MATCH/MISMATCH and keep
per-shape findings, because a mismatch there is a finding to surface rather
than a test failure.  All polynomial comparisons are exact, and every
polynomial is read through `genfun.evaluate` or `genfun.evaluate_view`.  The theorem
checks on symmetric functions (the expansions, flip, coproducts and Cauchy) read each
value once through one reader per run (`_reader`): GP/GQ/JP/JQ and gp/gq/jp/jq as the
engine's views, P/Q by `BetaPoly.view`.  They sum views, multiply an x-view by a y-view
(`_products`) and compare views (`_same`), writing both sides out only for a FAIL
witness.  A product with a twisted Cauchy kernel is linear, and the m_lam are a basis, so
it maps a view through the kernel's columns, its images of the m_lam, built once per twist
(`genfun._times_view`).  An asymmetric value fails each case that reads it, naming it.
One worker, `_expansion_case`, checks the GQ-to-GP theorem in its straight,
skew and dual forms; the Cauchy identity is checked as the skew Cauchy
identity at mu = nu = empty.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from typing import Callable

from .cache import CACHE
from .errors import InvalidShapeError, KshiftError, ParameterError
from .genfun import _columns, _ell_max, _split_view, _times_view, _view, _written, evaluate, evaluate_view, gq_onerow_series, structure_constants, symmetrization_eval
from .polyring import BetaPoly, RationalPoint, cauchy_kernel
from .shapes import (
    EMPTY,
    SkewShape,
    StrictPartition,
    contains,
    enumerate_strict_partitions,
    flip,
    shape_stats,
    straight,
    strip_sign,
    subshapes,
    vertical_strip_extensions,
    vertical_strip_subsets,
)
from .tableaux import _tally, genfun_from_tableaux, marked_rows


class VerificationReport:
    def __init__(self, id: str, params: dict, status: str, cases: int, witness: dict | None = None):
        self.id, self.params, self.status, self.cases, self.witness = id, params, status, cases, witness
        self.findings: list[dict] = []
        self.notes: dict = {}

    @property
    def ok(self) -> bool:
        return self.status in ("PASS", "MATCH")

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.id,
            "params": self.params,
            "status": self.status,
            "cases": self.cases,
            "witness": self.witness,
        }
        if self.findings:
            obj["findings"] = self.findings
        if self.notes:
            obj["notes"] = self.notes
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def _compare(lhs: BetaPoly, rhs: BetaPoly) -> tuple[bool, dict | None]:
    """Exact equality of two written-out polynomials cut at the same truncation,
    and the pair as the witness info when they differ; the view compare `_same`
    writes its two sides out to this on a mismatch.  Polynomials cut at different
    degrees or alphabet splits cannot be compared: that is a KshiftError."""
    if (lhs.max_deg, lhs.split) != (rhs.max_deg, rhs.split):
        raise KshiftError(f"comparing max_deg={lhs.max_deg}, split={lhs.split} with max_deg={rhs.max_deg}, split={rhs.split}")
    if lhs == rhs:
        return True, None
    return False, {"lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}


class _Asymmetric(Exception):
    """A value read by a theorem check is not symmetric: each case that reads it fails, naming it."""


def _reader() -> Callable[..., dict]:
    """The views of one check run: called as `evaluate` is, it reads each distinct value
    once through `evaluate_view`, at its cut, which tests symmetry on the tally or as it
    sorts; an asymmetric value raises `_Asymmetric` at every read."""
    views: dict[tuple, dict | None] = {}

    def view(func, outer, inner, nvars, max_deg, doubleslash=False) -> dict:
        value = (func, outer, inner, nvars, max_deg, doubleslash)
        if value not in views:
            views[value] = evaluate_view(func, outer, inner, nvars, max_deg, doubleslash)
        if views[value] is None:
            raise _Asymmetric(f"{func} {outer}{'//' if doubleslash else '/'}{inner} in {nvars} variables")
        return views[value]

    return view


def _same(lhs: dict, rhs: dict, nvars: int, max_deg: int | None, split: int | None = None) -> tuple[bool, dict | None]:
    """The one compare of the theorem checks, of two views without zero terms; on a
    mismatch both are written out (`_written`) for `_compare`'s witness."""
    if lhs == rhs:
        return True, None
    return _compare(_written(lhs, nvars, max_deg, split), _written(rhs, nvars, max_deg, split))


def _products(pairs) -> dict:
    """The split view of the sum of px(x) py(y) over pairs of views (px, py), without zero terms."""
    total: dict = {}
    for vx, vy in pairs:
        for (ex, bx), a in vx.items():
            for (ey, by), c in vy.items():
                total[ex + ey, bx + by] = total.get((ex + ey, bx + by), 0) + a * c
    return {k: c for k, c in total.items() if c}


def _run_cases(
    check_id: str,
    params: dict,
    cases: list[tuple],
    worker: Callable[[tuple], tuple[bool, dict | None]],
    verdicts: tuple[str, str] = ("PASS", "FAIL"),
    findings: bool = False,
) -> VerificationReport:
    """Run sorted case keys through the worker; witness the smallest failure.

    Cases run, and are listed, in string order; the witness is the failing
    case least by `_case_size_key`.  `verdicts` names the outcome of a passing
    and of a failing case; with `findings` the report also lists every case
    with its own verdict.
    """
    cases = sorted(cases)
    report = VerificationReport(check_id, params, verdicts[0], len(cases))
    witness_key = None
    for c in cases:
        try:
            ok, info = worker(c)
        except _Asymmetric as value:
            ok, info = False, {"asymmetric": str(value)}
        if findings:
            report.findings.append({"case": str(c), "verdict": verdicts[0] if ok else verdicts[1]})
        if not ok and (witness_key is None or _case_size_key(c) < witness_key):
            witness_key = _case_size_key(c)
            report.status = verdicts[1]
            report.witness = {"case": str(c), **(info or {})}
    return report


def _at_least(low: int, **sizes: int) -> None:
    """Refuse a size parameter below low, naming it and the value given."""
    for name, n in sizes.items():
        if n < low:
            raise ParameterError(f"{name} must be at least {low}, got {n}")


def _case_size_key(case: tuple) -> tuple:
    """Order case fields that parse as strict partitions by size
    (`StrictPartition.sort_key`), and every other string after them."""
    key = []
    for field_text in case:
        try:
            key.append((0, StrictPartition.parse(field_text).sort_key()))
        except InvalidShapeError:
            key.append((1, field_text))
    return tuple(key)


# -- Theorem: GQ in terms of GP, with its skew and dual forms -------------------


def _expansion_term(
    lam: StrictPartition, mu: StrictPartition, nu: StrictPartition, kappa: StrictPartition
) -> tuple[int, int, int]:
    """(e, sign, d) of the term 2^e (-1)^s beta^d at a vertical strip lam/mu
    and a same-length kappa <= nu: d = |lam/mu| + |nu/kappa|,
    e = l(mu) - l(nu) + overlap(nu/kappa) - d."""
    d = lam.size - mu.size + nu.size - kappa.size
    e = len(mu) - len(nu) + shape_stats(SkewShape(nu, kappa)).overlap - d
    return e, strip_sign(lam, mu) * (-1) ** (nu.size - kappa.size), d


def _expansion_case(
    view: Callable[..., dict], dual: bool, outer: StrictPartition, inner: StrictPartition, nvars: int, max_deg: int | None
) -> tuple[bool, dict | None]:
    """The GQ-to-GP theorem at one case, on views from the check's reader: GQ_{mu//nu}
    (outer/inner = mu/nu) against the sum of the `_expansion_term` terms times
    GP_{lam//kappa}, or dually gq_{lam/kappa} (outer/inner = lam/kappa) against the sum
    of the same terms times gp_{mu/nu}.  Both sides are scaled by 2^max(0, -min e), so
    every coefficient is an integer."""
    if dual:
        lam, kappa = outer, inner
        quads = [
            (lam, mu, nu, kappa)
            for mu in vertical_strip_subsets(lam)
            for nu in subshapes(mu)
            if len(nu) == len(kappa) and contains(kappa, nu)
        ]
        lhs = view("gq", lam, kappa, nvars, max_deg)
    else:
        mu, nu = outer, inner
        quads = [
            (lam, mu, nu, kappa)
            for kappa in subshapes(nu)
            if len(kappa) == len(nu)
            for lam in vertical_strip_extensions(mu)
        ]
        lhs = view("GQ", mu, nu, nvars, max_deg, True)
    terms = [(_expansion_term(*q), q) for q in quads]
    scale = max(0, -min((e for (e, _, _), _ in terms), default=0))
    # each term a product with a view in no variables, the scalar sign 2^(e + scale) beta^d
    rhs = _products(
        ({((), d): sign * 2 ** (e + scale)}, view("gp", mu, nu, nvars, max_deg) if dual else view("GP", lam, kappa, nvars, max_deg, True))
        for (e, sign, d), (lam, mu, nu, kappa) in terms
    )
    return _same({k: c * 2**scale for k, c in lhs.items()}, rhs, nvars, max_deg)


def check_gq_to_gp(max_size: int = 6, nvars: int = 3, max_deg: int = 9) -> VerificationReport:
    """The vertical-strip expansion of GQ, its positivity rule, and the
    beta=1 counting identity over prime-restricted tableaux."""
    _at_least(1, nvars=nvars)
    mus = enumerate_strict_partitions(max_size)
    maxlen = max((len(m) for m in mus), default=0)
    if nvars < maxlen:
        raise ParameterError(f"nvars={nvars} below the longest index length {maxlen}")
    if max_deg < max_size + maxlen:
        raise ParameterError("max_deg too small for the vertical-strip extensions")
    cases = [(str(mu), kind) for mu in mus for kind in ("expansion", "positivity", "count-beta1")]
    by_name = {str(m): m for m in mus}
    view = _reader()

    def worker(case: tuple) -> tuple[bool, dict | None]:
        name, kind = case
        mu = by_name[name]
        if kind == "expansion":
            return _expansion_case(view, False, mu, EMPTY, nvars, max_deg)
        lams = vertical_strip_extensions(mu)
        minus = [lam for lam in lams if strip_sign(lam, mu) < 0]
        if kind == "positivity":
            gaps_ok = all(a - b >= 2 for a, b in zip(mu.parts, mu.parts[1:]))
            ok = (not minus) == gaps_ok
            return ok, None if ok else {"minus": [str(p) for p in minus]}
        # the beta=1 counting identity between restricted tableau sets, SetShYT_Q(mu)
        # and SetShYT_P(lam : mu): each tableau adds 1 at its x-weight, at beta^0
        sides = {"lhs": Counter(), "rhs": Counter()}
        walks = [("lhs", mu, False, frozenset())]
        walks += [("lhs" if lam in minus else "rhs", lam, True, marked_rows(lam, mu)) for lam in lams]
        for side, lam, p_flavor, marked in walks:
            sides[side].update(_tally(straight(lam), nvars, p_flavor, False, max_deg - lam.size, marked=marked))
        lhs, rhs = (BetaPoly(nvars, {(e, 0): n for e, n in sides[side].items()}, max_deg) for side in ("lhs", "rhs"))
        return _compare(lhs, rhs)

    params = {"max_size": max_size, "nvars": nvars, "max_deg": max_deg}
    return _run_cases("gq-to-gp", params, cases, worker)


def check_skew_expansions(max_size: int = 5, nvars: int = 3, max_deg: int = 8) -> VerificationReport:
    """The double-slash GQ-to-GP expansion (cases doubleslash, mu, nu) and its
    dual gq-to-gp version (cases dual, lam, kappa)."""
    pairs = [(str(a), str(b)) for a in enumerate_strict_partitions(max_size) for b in subshapes(a)]
    cases = [(kind, *pair) for kind in ("doubleslash", "dual") for pair in pairs]
    view = _reader()

    def worker(case: tuple) -> tuple[bool, dict | None]:
        return _expansion_case(view, case[0] == "dual", *map(StrictPartition.parse, case[1:]), nvars, max_deg)

    params = {"max_size": max_size, "nvars": nvars, "max_deg": max_deg}
    return _run_cases("skew-expansions", params, cases, worker)


# -- Lemma: the overlap/cols matrices are inverse --------------------------------


def _overlap_entry(lam: StrictPartition, mu: StrictPartition) -> int:
    """M: 2^overlap on a containment mu <= lam."""
    if not contains(mu, lam):
        return 0
    return 2 ** shape_stats(SkewShape(lam, mu)).overlap


def _cols_entry(lam: StrictPartition, mu: StrictPartition) -> int:
    """N: (-1)^cols on a vertical strip lam/mu."""
    if not contains(mu, lam):
        return 0
    st = shape_stats(SkewShape(lam, mu))
    return (-1) ** st.cols if st.is_vertical_strip else 0


def check_overlap_matrix(max_part: int = 7) -> VerificationReport:
    """M = 2^overlap on same-length containments, N = (-1)^cols on vertical
    strips: M N = N M = I, blockwise by partition length.

    A case is one product entry: (MN or NM, row index, column index)."""
    if max_part > 8:
        raise ParameterError("max_part is capped at 8")
    _at_least(0, max_part=max_part)
    # one block per length: the strict partitions with parts <= max_part
    position: dict[str, tuple[int, int]] = {}
    products: dict[tuple[int, str], tuple[list, list]] = {}
    cases = []
    for ell in range(0, max_part + 1):
        idx = [StrictPartition(c) for c in itertools.combinations(range(max_part, 0, -1), ell)]
        idx.sort(key=StrictPartition.sort_key)
        M = [[_overlap_entry(a, b) for b in idx] for a in idx]
        N = [[_cols_entry(a, b) for b in idx] for a in idx]
        products[ell, "MN"], products[ell, "NM"] = (M, N), (N, M)
        for i, lam in enumerate(idx):
            position[str(lam)] = (ell, i)
        cases += [(prod, str(a), str(b)) for prod in ("MN", "NM") for a in idx for b in idx]

    def worker(case: tuple) -> tuple[bool, dict | None]:
        prod, row, col = case
        ell, i = position[row]
        j = position[col][1]
        A, B = products[ell, prod]
        v = sum(A[i][k] * B[k][j] for k in range(len(A)))
        return v == int(i == j), {"value": v}

    return _run_cases("overlap-matrix", {"max_part": max_part}, cases, worker)


# -- Proposition: flip invariance ------------------------------------------------


def check_flip(max_size: int = 6, nvars: int = 3, max_deg: int = 8) -> VerificationReport:
    cases = []
    for lam in enumerate_strict_partitions(max_size):
        for mu in subshapes(lam):
            cases.append((str(lam), str(mu)))
    view = _reader()

    def worker(case: tuple) -> tuple[bool, dict | None]:
        lam = StrictPartition.parse(case[0])
        mu = StrictPartition.parse(case[1])
        other = flip(SkewShape(lam, mu))
        for flavor in ("GP", "GQ"):
            sides = view(flavor, lam, mu, nvars, max_deg), view(flavor, other.outer, other.inner, nvars, max_deg)
            ok, info = _same(*sides, nvars, max_deg)
            if not ok:
                return False, {"flavor": flavor, "flipped": str(other), **info}
        return True, None

    params = {"max_size": max_size, "nvars": nvars, "max_deg": max_deg}
    return _run_cases("flip", params, cases, worker)


# -- coproduct identities --------------------------------------------------------


def check_coproducts(
    max_size: int = 4, nx: int = 2, ny: int = 2, max_deg: int = 6
) -> VerificationReport:
    """Two-alphabet evaluation equals the coproduct sums, for all families."""
    _at_least(1, nx=nx, ny=ny)
    _at_least(0, max_deg=max_deg)
    lams = enumerate_strict_partitions(max_size)
    cases = [(fam, str(lam)) for fam in ("GP", "GQ", "gp", "gq", "jp", "jq", "JP", "JQ") for lam in lams]
    n = nx + ny
    view = _reader()

    def worker(case: tuple) -> tuple[bool, dict | None]:
        fam, lam_s = case
        lam = StrictPartition.parse(lam_s)
        # the left side is read in all n variables with room for both degrees,
        # then cut in each block; JP/JQ substitute only after the cut
        base = {"JP": "GP", "JQ": "GQ"}.get(fam, fam)
        joint = _split_view(view(base, lam, EMPTY, n, 2 * max_deg), nx)
        lhs = {(e, b): c for (e, b), c in joint.items() if max(sum(e[:nx]), sum(e[nx:])) <= max_deg}
        if base != fam:
            lhs = _view(_written(lhs, n, max_deg, nx).substitute_geometric(), internal=True)
        doubleslash = fam in ("GP", "GQ", "JP", "JQ")
        rhs = _products((view(fam, nu, EMPTY, nx, max_deg), view(fam, lam, nu, ny, max_deg, doubleslash)) for nu in subshapes(lam))
        return _same(lhs, rhs, n, max_deg, nx)

    params = {"max_size": max_size, "nx": nx, "ny": ny, "max_deg": max_deg}
    return _run_cases("coproducts", params, cases, worker)


# -- the Cauchy family -----------------------------------------------------------


def _cached_kernel(nx: int, ny: int, max_deg: int) -> BetaPoly:
    key = ["kernel", nx, ny, max_deg]
    return CACHE.get_or_compute(
        key, lambda: cauchy_kernel(nx, ny, max_deg), BetaPoly.to_json_obj, BetaPoly.from_json_obj
    )


# tag: (big family, taken with its double slash, small family, the side the kernel multiplies, its
# negated alphabet): the skew Cauchy identities GP//*gq and GQ//*gp, then the six omega-twisted ones
_CAUCHY_FORMS = {
    "skew-gq": ("GP", "gq", "right", ""),
    "skew-gp": ("GQ", "gp", "right", ""),
    "a": ("GP", "jq", "left", "y"),
    "b": ("GQ", "jp", "left", "y"),
    "c": ("JP", "gq", "left", "x"),
    "d": ("JQ", "gp", "left", "x"),
    "e": ("JP", "jq", "right", "xy"),
    "f": ("JQ", "jp", "right", "xy"),
}


def check_cauchy_family(
    max_size: int = 2, nx: int = 2, ny: int = 2, max_deg: int = 4
) -> VerificationReport:
    """The Cauchy identity, the skew Cauchy identities, and their six
    omega-twisted forms with negated alphabets, compared at split views.

    Each value comes from the run's reader, cut at max_deg; a side is the sum of
    big(x) small(y) as `_products` of views, and the kernel, checked symmetric once,
    enters through `genfun._times_view` on each twist's `genfun._columns`.
    """
    _at_least(1, nx=nx, ny=ny)
    _at_least(0, max_deg=max_deg)
    kern = _cached_kernel(nx, ny, max_deg)
    if kern.view() is None:
        raise KshiftError("the Cauchy kernel is not symmetric in x and in y")
    xs, ys = list(range(1, nx + 1)), list(range(nx + 1, nx + ny + 1))
    twisted = {name: _columns(kern.negate_vars(which)) for name, which in {"": [], "y": ys, "x": xs, "xy": xs + ys}.items()}
    view, outers = _reader(), {}  # outers: the lam containing mu and nu, listed once per (mu, nu)

    strict = [str(mu) for mu in enumerate_strict_partitions(max_size)]
    cases = [("kernel", "gp", ""), ("kernel", "gq", "")] + [(t, a, b) for a in strict for b in strict for t in _CAUCHY_FORMS]

    def worker(case: tuple) -> tuple[bool, dict | None]:
        tag, mu_s, nu_s = case
        if tag == "kernel":  # the Cauchy identity: the skew one at mu = nu = empty
            tag, mu_s = "skew-" + mu_s, ""
        mu = StrictPartition.parse(mu_s)
        nu = StrictPartition.parse(nu_s)
        big, small, side, negated = _CAUCHY_FORMS[tag]
        if (mu, nu) not in outers:
            outers[mu, nu] = [lam for lam in enumerate_strict_partitions(max_deg + mu.size) if contains(mu, lam) and contains(nu, lam)]
        kappas = [k for k in subshapes(mu) if contains(k, nu)]
        # each side the sum of big(x) small(y) over its (big outer, inner, small outer, inner)
        sides = [
            _products((view(big, bo, bi, nx, max_deg, True), view(small, so, si, ny, max_deg)) for bo, bi, so, si in terms)
            for terms in ([(lam, mu, lam, nu) for lam in outers[mu, nu]], [(nu, k, mu, k) for k in kappas])
        ]
        i = 0 if side == "left" else 1
        sides[i] = _times_view(twisted[negated], sides[i])
        return _same(*sides, nx + ny, max_deg, nx)

    params = {"max_size": max_size, "nx": nx, "ny": ny, "max_deg": max_deg}
    return _run_cases("cauchy", params, cases, worker)


# -- dual expansion of gq in gp ---------------------------------------------------


def check_dual_expansions(max_size: int = 6, ny: int | None = None) -> VerificationReport:
    lams = enumerate_strict_partitions(max_size)
    if ny is None:
        ny = max(1, _ell_max(max_size))
    cases = [(str(lam), kind) for lam in lams for kind in ("expansion", "positivity")]
    view = _reader()

    def worker(case: tuple) -> tuple[bool, dict | None]:
        lam = StrictPartition.parse(case[0])
        if case[1] == "expansion":
            return _expansion_case(view, True, lam, EMPTY, ny, None)
        positive = all(strip_sign(lam, mu) > 0 for mu in vertical_strip_subsets(lam))
        m = len(lam)
        resid = tuple(
            x for x in (lam.parts[i] - (m - i) for i in range(m)) if x > 0
        )
        staircase_free = all(resid[i] > resid[i + 1] for i in range(len(resid) - 1))
        ok = positive == staircase_free
        return ok, None if ok else {"positive": positive, "residue": list(resid)}

    params = {"max_size": max_size, "ny": ny}
    return _run_cases("dual-expansions", params, cases, worker)


# -- pointwise symmetrization ------------------------------------------------------


def _random_point(rng: random.Random, nvars: int) -> RationalPoint:
    from fractions import Fraction
    beta = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    coords = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(nvars))
    return RationalPoint(beta, coords)


def _sample_regular_point(rng: random.Random, nvars: int, notes: dict) -> RationalPoint:
    while True:
        pt = _random_point(rng, nvars)
        coords_ok = len(set(pt.coords)) == nvars and all(x != 0 for x in pt.coords)
        if coords_ok and all(1 + pt.beta * x != 0 for x in pt.coords):
            return pt
        notes["resampled"] = notes.get("resampled", 0) + 1


def check_symmetrization(trials: int = 20, seed: int = 0, max_size: int | None = None) -> VerificationReport:
    """Symmetrized formulas against exact tableau polynomials at random
    rational points, plus the staircase-interval identity pointwise.

    A case is (trial counted from 1, GP/GQ or staircase, index, n).  GP/GQ take five fixed
    shapes in n = 2, 3, or with max_size every lam, 0 < |lam| <= max_size, in n = 2, 3, 4."""
    if trials < 1:
        raise ParameterError("need at least one trial")
    rng = random.Random(seed)
    notes: dict = {}
    shapes_gp = [(1,), (2,), (2, 1), (3, 1), (3, 2)] if max_size is None else [p.parts for p in enumerate_strict_partitions(max_size)[1:]]
    staircases = [
        tuple(range(q, p - 1, -1))
        for q in range(1, 5)
        for p in range(max(1, q - 2), q + 1)
    ]
    # draw every point before any case runs, n = 2, 3, 4 per trial: this order
    # fixes which points a seed gives
    points: dict[tuple[str, str], RationalPoint] = {}
    cases = []
    for trial in map(str, range(1, trials + 1)):
        for n in ("2", "3", "4"):
            points[trial, n] = _sample_regular_point(rng, int(n), notes)
        for n, lam, flavor in itertools.product(("2", "3") if max_size is None else ("2", "3", "4"), shapes_gp, ("GP", "GQ")):
            if len(lam) <= int(n):
                cases.append((trial, flavor, str(StrictPartition(lam)), n))
        cases += [(trial, "staircase", str(StrictPartition(mu)), "4") for mu in staircases]

    def worker(case: tuple) -> tuple[bool, dict | None]:
        trial, kind, index, n_s = case
        pt = points[trial, n_s]
        n = int(n_s)
        sp = StrictPartition.parse(index)
        if kind != "staircase":
            want = evaluate(kind, sp, (), n, 2 * n * sp.size).eval_rational(pt)
            got = symmetrization_eval(kind, sp.parts, n, pt)
            ok = got == want
            return ok, None if ok else {"point": str(pt), "formula": str(got), "tableaux": str(want)}
        b_val = symmetrization_eval("B", sp.parts, n, pt)
        total = 0  # a Fraction after the first term: sp itself is always one of them
        for lam in vertical_strip_extensions(sp):
            e, sign, d = _expansion_term(lam, sp, EMPTY, EMPTY)
            total += sign * 2**e * pt.beta**d * symmetrization_eval("A", lam.parts, n, pt)
        ok = b_val == total
        return ok, None if ok else {"point": str(pt), "B": str(b_val), "sumA": str(total)}

    params = {"trials": trials, "seed": seed} | ({} if max_size is None else {"max_size": max_size})
    report = _run_cases("symmetrization", params, cases, worker)
    report.notes = notes
    return report


# -- the one-row generating series --------------------------------------------------


def check_onerow_series(max_power: int = 4, nvars: int = 2, max_deg: int = 6) -> VerificationReport:
    if max_power > 6:
        raise ParameterError("max_power is capped at 6")
    _at_least(0, max_power=max_power)
    series = gq_onerow_series(nvars, max_power, max_deg)
    powers = {f"u^-{n}": n for n in range(max_power + 1)}

    def worker(case: tuple) -> tuple[bool, dict | None]:
        n = powers[case[0]]
        ref = evaluate("GQ", (n,) if n else (), (), nvars, max_deg)
        return _compare(series[n], ref)

    params = {"max_power": max_power, "nvars": nvars, "max_deg": max_deg}
    return _run_cases("onerow-series", params, [(label,) for label in powers], worker)


# -- conjectures ---------------------------------------------------------------------


def check_conjectures(
    max_size: int = 6,
    nvars: int = 6,
    max_deg: int = 6,
    skew_max_size: int = 4,
    length_cap_size: int = 3,
) -> VerificationReport:
    """Conjectural tableau formulas against Cauchy-kernel ground truth.

    Compares shifted reverse plane partition sums with gp/gq and shifted bar
    tableau sums with jp/jq, for straight shapes up to max_size and skew
    shapes up to skew_max_size; also scans product tables for the expected
    vanishing when the index is longer than both factors combined.  Mismatches
    are findings (MISMATCH), never exceptions.
    """
    cases: list[tuple] = []
    for lam in enumerate_strict_partitions(max_size):
        cases.append(("straight", str(lam), ""))
    for lam in enumerate_strict_partitions(skew_max_size):
        for mu in subshapes(lam):
            if mu.parts and mu != lam:
                cases.append(("skew", str(lam), str(mu)))
    for mu in enumerate_strict_partitions(length_cap_size):
        for nu in enumerate_strict_partitions(length_cap_size):
            cases.append(("length-cap", str(mu), str(nu)))

    def worker(case: tuple) -> tuple[bool, dict | None]:
        kind, a_s, b_s = case
        if kind == "length-cap":
            mu = StrictPartition.parse(a_s)
            nu = StrictPartition.parse(b_s)
            cap = mu.size + nu.size + 2
            for k in ("a", "b"):
                for lam, val in structure_constants(k, mu, nu, cap).items():
                    if len(lam) > len(mu) + len(nu) and val != 0:
                        return False, {"kind": k, "index": str(lam), "value": val}
            return True, None
        lam = StrictPartition.parse(a_s)
        mu = StrictPartition.parse(b_s) if kind == "skew" else EMPTY
        shape = SkewShape(lam, mu)
        # jp/jq first: their dual, solved in |lam/mu| variables, then serves gp/gq by restriction
        values = {func: evaluate(func, lam, mu, nvars, max_deg) for func in ("jp", "jq", "gp", "gq")}
        # each tableau sum against the family it is conjectured to equal
        for name, tableau_family, func in (
            ("rpp-gp", "shrpp_p", "gp"),
            ("rpp-gq", "shrpp_q", "gq"),
            ("bar-jp", "shbt_p", "jp"),
            ("bar-jq", "shbt_q", "jq"),
        ):
            lhs = genfun_from_tableaux(tableau_family, shape, nvars, max_deg)
            ok, info = _compare(lhs, values[func])
            if not ok:
                return False, {"formula": name, **info}
        return True, None

    params = {
        "max_size": max_size,
        "nvars": nvars,
        "max_deg": max_deg,
        "skew_max_size": skew_max_size,
        "length_cap_size": length_cap_size,
    }
    return _run_cases("conjectures", params, cases, worker, ("MATCH", "MISMATCH"), findings=True)


# -- registry and batch runner -------------------------------------------------------


CHECKS: dict[str, Callable[..., VerificationReport]] = {
    "gq-to-gp": check_gq_to_gp,
    "skew-expansions": check_skew_expansions,
    "overlap-matrix": check_overlap_matrix,
    "flip": check_flip,
    "coproducts": check_coproducts,
    "cauchy": check_cauchy_family,
    "dual-expansions": check_dual_expansions,
    "symmetrization": check_symmetrization,
    "onerow-series": check_onerow_series,
    "conjectures": check_conjectures,
}


def check_params(check: Callable) -> dict[str, object]:
    """{name: default} of a check's parameters, read from its code object.

    A wrapper made with `functools.wraps` is read through to the function it
    wraps.  Every registered check takes only positional-or-keyword
    parameters, each with a default, so these are all of them.
    """
    while hasattr(check, "__wrapped__"):
        check = check.__wrapped__
    code, defaults = check.__code__, check.__defaults__ or ()
    return dict(zip(code.co_varnames[code.co_argcount - len(defaults) : code.co_argcount], defaults))


def run_check(check_id: str, /, **params) -> VerificationReport:
    """Run one registered check; parameters it cannot take are a ParameterError.

    The parameters are checked against `check_params` before the call, so a
    TypeError raised inside a check surfaces as the internal error it is.
    """
    check = CHECKS.get(check_id)
    if check is None:
        raise ParameterError(f"unknown check id {check_id!r}; known: {sorted(CHECKS)}")
    defaults = check_params(check)
    for name, value in params.items():
        if name not in defaults:
            raise ParameterError(f"{check_id}: got an unexpected keyword argument {name!r}")
        if not (type(value) is int or (value is None and defaults[name] is None)):
            raise ParameterError(f"{check_id}: {name} must be an integer, got {value!r}")
    return check(**params)


def run_manifest(records: list) -> list[VerificationReport]:
    """Execute a batch manifest: a list of {"id": ..., "params": {...}} records.

    A record that is malformed or that its check rejects gets an ERROR report
    of its own, and the rest of the batch still runs.
    """
    if not isinstance(records, list):
        raise ParameterError("a manifest must be a JSON list of {id, params} records")
    reports = []
    for rec in records:
        check_id, params = (rec.get("id"), rec.get("params", {})) if isinstance(rec, dict) else (None, {})
        try:
            if not isinstance(check_id, str):
                raise ParameterError(f'a manifest record needs a string "id", got {rec!r}')
            if not isinstance(params, dict):
                raise ParameterError('"params" must be a JSON object')
            reports.append(run_check(check_id, **params))
        except KshiftError as exc:
            label = "?" if check_id is None else str(check_id)
            reports.append(VerificationReport(label, params, "ERROR", 0, {"error": str(exc)}))
    return reports
