import inspect
import itertools
import json
import os
import random
from fractions import Fraction
from math import factorial
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from kshift import genfun
from kshift.cache import CACHE
from kshift.errors import (
    KshiftError,
    NonDivisibleError,
    NonSymmetricError,
    ParameterError,
    SingularPointError,
)
from kshift.genfun import (
    BasisExpansion,
    _kostka,
    _omega,
    _peel,
    classical_pq,
    dual_gp_gq,
    dual_skew_table,
    dual_table,
    evaluate,
    expand_in_basis,
    gp_gq,
    gp_gq_doubleslash,
    gq_onerow_series,
    jp_jq,
    partitions_of,
    schur,
    structure_constants,
    symmetrization_eval,
    transpose_partition,
)
from kshift.polyring import BetaPoly, RationalPoint, cauchy_kernel, tensor_split
from kshift.shapes import (
    EMPTY,
    SkewShape,
    StrictPartition,
    contains,
    doubleslash_inners,
    enumerate_strict_partitions,
    straight,
    subshapes,
)
from kshift.tableaux import content_count
from test_polyring import beta_zero, coeff, scale_by


def sp(*parts):
    return StrictPartition(tuple(parts))


def dual_skew(flavor, lam, mu, ny, max_deg=None):
    """The skew dual gp_{lam/mu} (or gq) written out: `dual_gp_gq` at the inner shape mu."""
    return dual_gp_gq(flavor, lam, ny, max_deg, mu)


def divide_exact(p, d):
    """p with every coefficient divided by d; NonDivisibleError unless d divides each."""
    bad = next((c for c in p.terms.values() if c % d), 0)
    if bad:
        raise NonDivisibleError(f"{bad} is not divisible by {d}")
    return BetaPoly(p.nvars, {k: c // d for k, c in p.terms.items()}, p.max_deg, p.split)


def beta_coeffs(expansion):
    return {
        idx: {b: v for (_e, b), v in c.terms.items()} for idx, c in expansion.coeffs.items() if not c.is_zero()
    }


# -- schur and classical families ------------------------------------------------


def test_schur_examples():
    assert schur((1,), 2).render() == "x2 + x1"
    assert schur((1, 1), 1).is_zero()
    s21 = schur((2, 1), 2)
    assert s21 == BetaPoly(2, {((2, 1), 0): 1, ((1, 2), 0): 1}, None)


def test_schur_matches_the_bialternant():
    # s_lam(x_1..x_n) = det(x_i^(lam_j + n - j)) / det(x_i^(n - j)), divided by sympy
    import sympy

    for n in range(7):
        for lam in partitions_of(n):
            for nv in range(1, 5):
                xs = sympy.symbols(f"x1:{nv + 1}")
                want: dict = {}
                if len(lam) <= nv:
                    row = lam + (0,) * (nv - len(lam))
                    num = sympy.Matrix(nv, nv, lambda i, j: xs[i] ** (row[j] + nv - 1 - j)).det(method="berkowitz")
                    den = sympy.Matrix(nv, nv, lambda i, j: xs[i] ** (nv - 1 - j)).det(method="berkowitz")
                    quo, rem = sympy.div(sympy.Poly(num, *xs), sympy.Poly(den, *xs))
                    assert rem.is_zero
                    want = {(e, 0): int(c) for e, c in quo.terms()}
                assert schur(lam, nv) == BetaPoly(nv, want, None), (lam, nv)
                for cut in {n, max(n - 1, 0)}:
                    assert schur(lam, nv, cut) == BetaPoly(nv, want, cut), (lam, nv, cut)


def test_kostka_of_one_to_the_n_is_the_hook_length_count():
    for n in range(8):
        for lam in partitions_of(n):
            hooks = 1
            for i, row in enumerate(lam):
                for j in range(row):
                    hooks *= row - j + sum(1 for r in lam[i + 1 :] if r > j)
            assert _kostka(lam, (1,) * n) == factorial(n) // hooks, lam


def test_transpose_partition():
    assert transpose_partition((3, 1)) == (2, 1, 1)
    assert transpose_partition(()) == ()
    assert transpose_partition((2, 2)) == (2, 2)


def test_classical_pq_examples():
    p2 = classical_pq("P", straight(sp(2)), 2)
    assert p2 == schur((2,), 2) + schur((1, 1), 2)
    assert classical_pq("P", straight(EMPTY), 2) == BetaPoly.const(2, 1)
    for lam in enumerate_strict_partitions(4):
        q = classical_pq("Q", straight(lam), 3)
        p = classical_pq("P", straight(lam), 3)
        assert q == p.times_beta(0, 2 ** len(lam))


def test_gp_gq_examples():
    gq1 = gp_gq("GQ", straight(sp(1)), 1, 4)
    assert gq1 == BetaPoly(1, {((1,), 0): 2, ((2,), 1): 1}, 4)
    gp1 = gp_gq("GP", straight(sp(1)), 2, 4)
    assert gp1 == BetaPoly(2, {((1, 0), 0): 1, ((0, 1), 0): 1, ((1, 1), 1): 1}, 4)
    assert gp_gq("GP", SkewShape(sp(2), sp(3)), 2, 4).is_zero()


def test_doubleslash_examples():
    lam = sp(3, 1)
    for flavor in ("GP", "GQ"):
        assert gp_gq_doubleslash(flavor, lam, EMPTY, 2, 5) == gp_gq(flavor, straight(lam), 2, 5)
    one = sp(1)
    got = gp_gq_doubleslash("GP", one, one, 2, 4)
    want = BetaPoly.const(2, 1, 4) + gp_gq("GP", straight(one), 2, 4).times_beta(1)
    assert got == want
    assert gp_gq_doubleslash("GQ", sp(2), sp(3), 2, 4).is_zero()


# -- grading invariants ------------------------------------------------------------


def test_gp_gq_grading():
    for lam in enumerate_strict_partitions(4):
        for mu in subshapes(lam):
            size = lam.size - mu.size
            poly = gp_gq("GP", SkewShape(lam, mu), 3, lam.size + 3)
            for (e, b), _ in poly.terms.items():
                assert sum(e) - b == size


def test_dual_grading():
    table = dual_table("gp", 5, 3)
    for lam, view in table.items():
        for (e, b), _ in written(view, 3).terms.items():
            assert sum(e) + b == lam.size


def test_dual_recover_beta_rescaling():
    # gp at a point equals beta^|lam| times gp|_(beta=1) at the scaled point
    pt = RationalPoint(Fraction(2, 3), (Fraction(1, 2), Fraction(-1, 3)))
    for lam in (sp(2, 1), sp(3), sp(3, 2)):
        poly = dual_gp_gq("gp", lam, 2)
        lhs = poly.eval_rational(pt)
        scaled = RationalPoint(Fraction(1), tuple(x / pt.beta for x in pt.coords))
        rhs = pt.beta**lam.size * poly.eval_rational(scaled)
        assert lhs == rhs


# -- expansion engine ---------------------------------------------------------------


def recombine(exp):
    """The sum of an expansion's coefficients times its basis elements, plus its residual:
    the input again when the peel is right."""
    total = BetaPoly.zero(exp.nvars, exp.max_deg)
    for index, c in exp.coeffs.items():
        total = total + scale_by(evaluate(exp.basis, index, (), exp.nvars, exp.max_deg), c)
    return total if exp.residual is None else total + exp.residual


def test_expand_gq_in_gp_paper_examples():
    gq32 = gp_gq("GQ", straight(sp(3, 2)), 3, 8)
    exp = expand_in_basis(gq32, "GP")
    assert exp.residual_zero
    assert beta_coeffs(exp) == {
        (3, 2): {0: 4},
        (4, 2): {1: 2},
        (4, 3): {2: -1},
    }
    for n in (1, 2, 3):
        gqn = gp_gq("GQ", straight(sp(n)), 2, n + 3)
        exp = expand_in_basis(gqn, "GP")
        assert beta_coeffs(exp) == {(n,): {0: 2}, (n + 1,): {1: 1}}


def test_expand_round_trip():
    gp21 = gp_gq("GP", straight(sp(2, 1)), 3, 6)
    exp = expand_in_basis(gp21, "GP")
    assert beta_coeffs(exp) == {(2, 1): {0: 1}}
    assert exp.residual_zero
    assert recombine(exp) == gp21
    # a combination recombines to itself through expansion
    combo = gp_gq("GP", straight(sp(2)), 3, 6).times_beta(1) + gp_gq(
        "GP", straight(sp(3, 1)), 3, 6
    ).times_beta(0, 3)
    exp2 = expand_in_basis(combo, "GP")
    assert exp2.residual_zero and recombine(exp2) == combo


def test_expand_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        expand_in_basis(BetaPoly.variable(1, 2, 3), "GP")


def test_expand_detects_non_divisible():
    p = gp_gq("GP", straight(sp(1)), 2, 3)  # leading coefficient 1, not even
    with pytest.raises(NonDivisibleError):
        expand_in_basis(p, "GQ")


def test_expand_reports_residual():
    # x1*x2 alone is symmetric but not in the P-span at degree 2 over Z
    p = schur((1, 1), 2)
    exp = expand_in_basis(p, "P")
    assert not exp.residual_zero
    assert recombine(exp) == p


# -- dual functions -----------------------------------------------------------------


def test_dual_examples():
    gp21 = dual_gp_gq("gp", sp(2, 1), 3)
    assert gp21 == schur((2, 1), 3) - schur((2,), 3).times_beta(1)
    gq21 = dual_gp_gq("gq", sp(2, 1), 3)
    assert gq21 == (schur((2, 1), 3) - schur((2,), 3).times_beta(1)).times_beta(0, 4)
    assert dual_gp_gq("gp", EMPTY, 2) == BetaPoly.const(2, 1)


def test_dual_beta_zero():
    for lam in enumerate_strict_partitions(5):
        assert beta_zero(dual_gp_gq("gp", lam, 3)) == classical_pq("P", straight(lam), 3)
        assert beta_zero(dual_gp_gq("gq", lam, 3)) == classical_pq("Q", straight(lam), 3)


def kernel_slices(S, ny):
    """k_d(y), d <= S: the coefficients of x1^d in the one-x Cauchy kernel."""
    kern = cauchy_kernel(1, ny, S)
    return [BetaPoly(ny, {(e[1:], b): c for (e, b), c in kern.terms.items() if e[0] == d}) for d in range(S + 1)]


def partition_terms(poly):
    """The terms of poly at weakly decreasing exponents: its partition view."""
    return {(e, b): c for (e, b), c in poly.terms.items() if list(e) == sorted(e, reverse=True)}


def written(view, nvars, max_deg=None):
    """A view written out to its orbits."""
    return BetaPoly(nvars, genfun._orbits(view, nvars), max_deg)


def split_view(poly, nx):
    """The terms of poly at exponents that are partitions in each block: its split view."""
    return {
        (e, b): c
        for (e, b), c in poly.terms.items()
        if list(e[:nx]) == sorted(e[:nx], reverse=True) and list(e[nx:]) == sorted(e[nx:], reverse=True)
    }


def written_split(view, nvars, nx, max_deg):
    """A split view written out to its orbits in each block, as a split polynomial."""
    orbits = genfun._rearrangements
    terms = {(f + g, b): c for (e, b), c in view.items() for f in orbits(e[:nx]) for g in orbits(e[nx:])}
    return BetaPoly(nvars, terms, max_deg, nx)


def whole_polynomial_duals(flavor, S, ny):
    """The reference solve: build every basis GQ_nu (or GP_nu) whole over
    enough variables and read its coefficients of x^mu."""
    nx = max(1, genfun._ell_max(S))
    basis = "GQ" if flavor == "gp" else "GP"
    candidates = enumerate_strict_partitions(S)
    polys = {mu: gp_gq(basis, straight(mu), nx, S) for mu in candidates}
    slices = kernel_slices(S, ny)
    solved = {}
    for mu in candidates:
        target = BetaPoly.const(ny, 1)
        for part in mu.parts:
            target = target * slices[part]
        monomial = mu.parts + (0,) * (nx - len(mu))
        for prev, dual in solved.items():
            target = target - scale_by(dual, coeff(polys[prev], monomial))
        lead = 2 ** len(mu) if flavor == "gp" else 1
        assert coeff(polys[mu], monomial) == BetaPoly.const(0, lead)
        solved[mu] = divide_exact(target, lead)
    return solved


@pytest.mark.parametrize("flavor", ["gp", "gq"])
def test_dual_table_matches_the_whole_polynomial_solve(flavor):
    for ny in range(1, 9):
        top = 7 if ny <= 4 else 5
        want = whole_polynomial_duals(flavor, top, ny)
        for S in range(top + 1):
            table = dual_table(flavor, S, ny)
            assert list(table) == enumerate_strict_partitions(S)
            assert {mu: written(view, ny) for mu, view in table.items()} == {mu: want[mu] for mu in table}, (S, ny)


def kernel_view(parts, ny):
    """The kernel row of prod_i k_{parts_i}(y) as a view: its place in `_indexed` names
    the y-partition, and homogeneity of degree |parts| the beta power."""
    lams, _ = genfun._indexed(ny, sum(parts))
    return {(lam, sum(parts) - n): c for (lam, n, _), c in zip(lams, genfun._kernel_row(parts, ny)) if c}


def reference_kernel_view(parts, ny):
    """The kernel view by the written-out recursion: [y^lam](A k_d) = sum over every
    e <= lam of A[sort e] k_d[lam - e], each e sorted to read A."""
    if not parts:
        return {((0,) * ny, 0): 1}
    head, m, d = reference_kernel_view(parts[:-1], ny), sum(parts[:-1]), parts[-1]
    view = {}
    for n in range(m + d + 1):
        for lam in (p + (0,) * (ny - len(p)) for p in partitions_of(n) if len(p) <= ny):
            total = 0
            for e in itertools.product(*(range(x + 1) for x in lam)):
                k = sum(e)
                a = head.get((tuple(sorted(e, reverse=True)), m - k))
                if a and n - k <= d:
                    total += a * genfun._kernel_weight(ny - [x - y for x, y in zip(lam, e)].count(0), d - n + k)
            if total:
                view[lam, m + d - n] = total
    return view


def test_kernel_rows_match_the_sorting_recursion():
    for ny, S in [(ny, 8) for ny in range(1, 7)] + [(4, 10)]:
        for mu in enumerate_strict_partitions(S):
            assert kernel_view(mu.parts, ny) == reference_kernel_view(mu.parts, ny), (mu, ny)


def test_kernel_slices_are_the_kernel_coefficients():
    # the view of k_d(y), written out to its orbits, is the coefficient of
    # x1^d in the one-x Cauchy kernel
    for ny in range(1, 5):
        for d, want in enumerate(kernel_slices(6, ny)):
            assert BetaPoly(ny, genfun._orbits(kernel_view((d,), ny), ny)) == want, (d, ny)


def test_kernel_views_are_the_partition_terms_of_kernel_products():
    # every product of slices that a dual table reads, at its partition
    # exponents, for each strict partition of size <= 6 in up to 8 variables
    for ny in range(1, 9):
        slices = kernel_slices(6, ny)
        for d, whole in enumerate(slices):
            assert kernel_view((d,), ny) == partition_terms(whole), (d, ny)
        for mu in enumerate_strict_partitions(6):
            whole = BetaPoly.const(ny, 1)
            for part in mu.parts:
                whole = whole * slices[part]
            assert kernel_view(mu.parts, ny) == partition_terms(whole), (mu, ny)


def test_the_partition_index_keeps_only_the_codes_the_kernel_rows_read(monkeypatch):
    # a cold table at ny 10 indexes 139 partitions and the rearrangements its kernel
    # rows meet, not all 184,756 rearrangements of those partitions
    monkeypatch.setattr(genfun, "_INDEX", {})
    monkeypatch.setattr(CACHE, "_mem", {})
    genfun._kernel_row.cache_clear()
    dual_table("gq", 10, 10)
    assert len(genfun._INDEX[10][1]) < 5000


def test_dual_table_grows_one_entry_per_flavor_and_ny(tmp_path, monkeypatch):
    sizes, nys = range(8), (1, 3)
    monkeypatch.setattr(CACHE, "enabled", False)  # every call builds from scratch
    fresh = {(f, S, ny): dual_table(f, S, ny) for f in ("gp", "gq") for S in sizes for ny in nys}
    monkeypatch.setattr(CACHE, "enabled", True)
    monkeypatch.setattr(CACHE, "_mem", {})

    def served(directory, order):
        CACHE.clear_memory()  # what is not on disk is built again
        monkeypatch.setattr(CACHE, "directory", str(directory))
        for f, ny in itertools.product(("gp", "gq"), nys):
            for S in order:
                table = dual_table(f, S, ny)
                assert list(table) == enumerate_strict_partitions(S)
                assert table == fresh[f, S, ny], (f, S, ny, order)

    served(tmp_path / "up", sizes)
    served(tmp_path / "down", sizes[::-1])
    served(tmp_path / "disk", [4])
    served(tmp_path / "disk", [7])  # a table read from disk, then extended
    served(tmp_path / "disk", sizes)  # every size a prefix of the table on disk
    for name in ("up", "down", "disk"):
        # one file per flavor, holding one table per alphabet asked for
        files = list((tmp_path / name).glob("*.json"))
        assert len(files) == 2
        assert all(set(genfun._decode_tables(json.loads(f.read_text())["value"])) == set(nys) for f in files)


def per_alphabet_duals(flavor, S, ny):
    """The per-alphabet solve the engine had before it restricted across alphabets: every
    entry with |mu| <= S solved in ny variables, in candidate order, from the kernel rows
    and all the earlier entries of the same alphabet."""
    p_basis = flavor == "gq"
    candidates = enumerate_strict_partitions(S)
    lams = genfun._indexed(ny, S)[0]
    table, rows = {}, {}
    for i, mu in enumerate(candidates):
        acc = genfun._kernel_row(mu.parts, ny)[:]
        for prev in candidates[:i]:
            n = content_count(p_basis, prev.parts, mu.parts)
            if n:
                acc[: len(rows[prev])] = map(sub, acc, map(n.__mul__, rows[prev]))
        table[mu] = genfun._divided({(lam, mu.size - n): c for (lam, n, _), c in zip(lams, acc)}, 1 if p_basis else 2 ** len(mu))
        rows[mu] = [table[mu].get((lam, mu.size - n), 0) for lam, n, _ in lams if n <= mu.size]
    return table


def per_alphabet_skew(flavor, lam, ny):
    """The skew-dual table peeled in ny variables from the per-alphabet solve."""
    nx = max(1, len(lam))
    coeffs, rest = _peel(genfun._split_view(per_alphabet_duals(flavor, lam.size, nx + ny)[lam], nx), flavor, nx, None)
    assert not rest
    return {StrictPartition(index): c for index, c in coeffs.items()}


def spy_solves(monkeypatch):
    """[(flavor, mu, ny)] of each dual-table entry solved and [(flavor, lam, ny)] of each skew table peeled."""
    solved, peeled = [], []
    real_divided, real_peel = genfun._divided, genfun._peel

    def divided(view, d):
        frame = inspect.currentframe().f_back
        if frame.f_code.co_name == "_solve_duals":
            solved.append((frame.f_locals["flavor"], frame.f_locals["mu"], frame.f_locals["ny"]))
        return real_divided(view, d)

    def peel(view, basis, nx, max_deg):
        frame = inspect.currentframe().f_back
        if frame.f_code.co_name == "dual_skew_table":
            peeled.append((basis, frame.f_locals["lam"], frame.f_locals["ny"]))
        return real_peel(view, basis, nx, max_deg)

    monkeypatch.setattr(genfun, "_divided", divided)
    monkeypatch.setattr(genfun, "_peel", peel)
    return solved, peeled


def request_orders(requests, key=None):
    """The requests in ascending, descending and one interleaved order (by key)."""
    interleaved = sorted(requests, key=lambda r: (hash(r) * 2654435761) % 1000003)
    return {"ascending": sorted(requests, key=key), "descending": sorted(requests, key=key, reverse=True), "interleaved": interleaved}


def assert_covered_once(done, size):
    """Each solve or peel is at an alphabet that no earlier one of the same entry covers:
    an earlier one in n variables covers every ny <= n, and every ny once n >= its size."""
    for i, (flavor, index, ny) in enumerate(done):
        earlier = [n for f, j, n in done[:i] if (f, j) == (flavor, index)]
        assert not [n for n in earlier if n >= ny or n >= size(index)], (flavor, index, ny, earlier)


@pytest.mark.parametrize("flavor", ["gp", "gq"])
def test_dual_tables_restricted_across_alphabets_are_the_per_alphabet_solve(monkeypatch, flavor):
    want = {ny: per_alphabet_duals(flavor, 8, ny) for ny in range(1, 9)}
    requests = [(ny, S) for ny in range(1, 9) for S in range(9)]
    for name, order in request_orders(requests).items():
        monkeypatch.setattr(CACHE, "_mem", {})
        solved, _ = spy_solves(monkeypatch)
        for ny, S in order:
            table = dual_table(flavor, S, ny)
            assert list(table) == enumerate_strict_partitions(S)
            assert table == {mu: want[ny][mu] for mu in table}, (name, S, ny)
        assert_covered_once(solved, lambda mu: mu.size)
        if name == "descending":  # the first request of each entry covers every later one
            assert len(solved) == len(set(solved)) == len(enumerate_strict_partitions(8)), name
        monkeypatch.undo()


@pytest.mark.parametrize("flavor", ["gp", "gq"])
def test_skew_tables_restricted_across_alphabets_are_the_per_alphabet_peel(monkeypatch, flavor):
    lams = [lam for lam in enumerate_strict_partitions(6) if lam.parts]
    want = {(lam, ny): per_alphabet_skew(flavor, lam, ny) for lam in lams for ny in range(1, 9)}
    for name, order in request_orders(list(want), key=lambda r: (r[1], r[0].sort_key())).items():
        monkeypatch.setattr(CACHE, "_mem", {})
        _, peeled = spy_solves(monkeypatch)
        for lam, ny in order:
            assert dual_skew_table(flavor, lam, ny) == want[lam, ny], (name, lam, ny)
        assert_covered_once(peeled, lambda lam: lam.size)
        monkeypatch.undo()


def test_the_default_cauchy_check_solves_each_dual_entry_once(monkeypatch):
    # 16 (flavor, ny) tables and 224 entry solves per process before restriction
    from kshift import identities

    monkeypatch.setattr(CACHE, "_mem", {})
    genfun._basis_view.cache_clear()
    solved, peeled = spy_solves(monkeypatch)
    assert identities.check_cauchy_family().ok
    assert len(solved) == len({(f, mu) for f, mu, _ in solved}) == 28
    assert_covered_once(solved, lambda mu: mu.size)
    assert_covered_once(peeled, lambda lam: lam.size)


def test_dual_table_reads_no_whole_polynomial(monkeypatch):
    def whole(*args):
        raise AssertionError("dual_table built a whole GP/GQ polynomial")

    monkeypatch.setattr(genfun, "gp_gq", whole)
    monkeypatch.setattr(CACHE, "enabled", False)
    assert written(dual_table("gp", 6, 2)[sp(3, 2, 1)], 2) == dual_gp_gq("gp", sp(3, 2, 1), 2)


def test_dual_skew_examples():
    lam = sp(2, 1)
    assert dual_skew("gp", lam, EMPTY, 2) == dual_gp_gq("gp", lam, 2)
    assert dual_skew("gp", lam, lam, 2) == BetaPoly.const(2, 1)
    assert dual_skew("gq", sp(2), sp(3), 2).is_zero()
    # nonzero exactly on contained inner shapes
    for mu in subshapes(lam):
        assert not dual_skew("gq", lam, mu, 2).is_zero()


def test_dual_skew_beta_zero_is_classical_skew():
    lam = sp(3, 1)
    for mu in subshapes(lam):
        got = beta_zero(dual_skew("gq", lam, mu, 3))
        want = classical_pq("Q", SkewShape(lam, mu), 3)
        assert got == want


def test_split_peel_recombines_the_dual():
    # g_lam(x, y) = sum_mu g_mu(x) g_{lam/mu}(y): the x-block peel in the dual
    # basis gives back the two-alphabet dual when recombined
    nx, ny = 2, 2
    for flavor in ("gp", "gq"):
        for lam in (sp(2, 1), sp(3, 1), sp(3, 2)):
            full = dual_gp_gq(flavor, lam, nx + ny)
            coeffs, rest = _peel(genfun._split_view(dual_table(flavor, lam.size, nx + ny)[lam], nx), flavor, nx, None)
            assert not rest
            total = BetaPoly.zero(nx + ny, None, nx)
            for index, c in coeffs.items():
                total = total + tensor_split(dual_gp_gq(flavor, sp(*index), nx), written(c, ny), None)
            assert total == BetaPoly(nx + ny, full.terms, None, nx)
            assert {sp(*index): c for index, c in coeffs.items()} == dual_skew_table(flavor, lam, ny)


def test_split_peel_without_exact_expansion_is_an_error(monkeypatch):
    # x1*x2*y1 alone: its x-partition (1, 1) is no gp index, so it stays in the residual
    nx, ny = 2, 1
    stray = {((1, 1, 1), 0): 1}
    coeffs, rest = _peel(genfun._split_view(stray, nx), "gp", nx, None)
    assert not coeffs and rest == stray
    real = genfun._dual_views

    def table(flavor, S, nvars):
        views = real(flavor, S, nvars)
        return {**views, sp(2, 1): {**views[sp(2, 1)], **stray}} if nvars == nx + ny else views

    monkeypatch.setattr(genfun, "_dual_views", table)
    monkeypatch.setattr(CACHE, "enabled", False)
    with pytest.raises(KshiftError, match="nonzero residual"):
        dual_skew_table("gp", sp(2, 1), ny)


def reference_peel(p, basis, nx):
    """The whole-polynomial peel: read each coefficient by scanning every term
    and subtract each basis element in full."""
    ny = p.nvars - nx
    top = p.max_deg
    if top is None:
        top = max((sum(e[:nx]) for (e, _b) in p.terms), default=0)
    degrees = range(top, -1, -1) if basis in genfun._MAX_FIRST else range(top + 1)
    coeffs = {}
    rest = BetaPoly(p.nvars, p.terms, p.max_deg, nx)
    for d in degrees:
        for index in genfun._basis_indices(basis, d, nx):
            monomial = index + (0,) * (nx - len(index))
            c = {(e[nx:], b): v for (e, b), v in rest.terms.items() if e[:nx] == monomial}
            c = BetaPoly(ny, c, p.max_deg if ny else None)
            if c.is_zero():
                continue
            c = divide_exact(c, genfun._basis_lead(basis, index))
            coeffs[index] = c
            rest = rest - tensor_split(evaluate(basis, index, (), nx, p.max_deg), c, p.max_deg)
    return coeffs, rest


def assert_peels_agree(p, basis, nx):
    """The view peel of p against the reference, compared written out."""
    ny = p.nvars - nx
    coeffs, rest = _peel(split_view(p, nx), basis, nx, p.max_deg)
    want_coeffs, want_rest = reference_peel(p, basis, nx)
    got = [(index, written(c, ny, p.max_deg if ny else None)) for index, c in coeffs.items()]
    assert got == list(want_coeffs.items()), (basis, nx, p)
    rest = written_split(rest, p.nvars, nx, p.max_deg)
    assert rest == want_rest, (basis, nx, p)
    return rest


@pytest.mark.parametrize("flavor", ["gp", "gq"])
def test_split_peel_matches_the_whole_polynomial_peel(flavor):
    # every input dual_skew_table peels: gp_lam (or gq) in nx + ny variables, nx = len(lam)
    for lam in enumerate_strict_partitions(6):
        nx = max(1, len(lam))
        for ny in range(1, 5):
            assert assert_peels_agree(dual_gp_gq(flavor, lam, nx + ny), flavor, nx).is_zero()


def test_split_peel_of_a_truncated_dual_leaves_the_same_residual():
    # below its top degree gp_lam(x, y) is not spanned by gp_mu(x) over Z[beta][y]
    lam, nx, ny = sp(3, 1), 2, 2
    truncated = dual_gp_gq("gp", lam, nx + ny).truncated(lam.size - 1)
    assert not assert_peels_agree(truncated, "gp", nx).is_zero()


def test_expansion_peel_matches_the_whole_polynomial_peel():
    inputs = []
    for lam in enumerate_strict_partitions(4):
        top = lam.size + 2
        inputs += [
            (gp_gq("GQ", straight(lam), 3, top), "GP"),
            (gp_gq("GP", straight(lam), 3, top), "GP"),
            (gp_gq("GQ", straight(lam), 3, top), "GQ"),
            (dual_gp_gq("gq", lam, 3), "gp"),
            (dual_gp_gq("gp", lam, 3), "gp"),
            (dual_gp_gq("gq", lam, 3), "gq"),
            (gp_gq("GP", straight(lam), 4, 4), "schur"),
            (dual_gp_gq("gp", lam, 4), "schur"),
        ]
    # symmetric inputs the basis does not span: a residual in one alphabet
    inputs += [(schur((1, 1), 2), "P"), (dual_gp_gq("gp", sp(3, 1), 3).truncated(3), "gp")]
    residuals = [assert_peels_agree(p, basis, p.nvars) for p, basis in inputs]
    assert not residuals[-1].is_zero() and not residuals[-2].is_zero()
    # a leading coefficient that does not divide fails the same way in both
    gp1 = gp_gq("GP", straight(sp(1)), 2, 3)
    with pytest.raises(NonDivisibleError):
        _peel(split_view(gp1, 2), "GQ", 2, gp1.max_deg)
    with pytest.raises(NonDivisibleError):
        reference_peel(gp1, "GQ", 2)


CLOSED_FORMS = ("schur", "gp", "gq", "GP", "GQ", "P", "Q")


def test_basis_views_are_the_partition_terms_of_the_written_out_elements():
    for basis in CLOSED_FORMS:
        if basis == "schur":
            indices = [lam for n in range(7) for lam in partitions_of(n)]
        else:
            indices = [lam.parts for lam in enumerate_strict_partitions(6)]
        for index in indices:
            size = sum(index)
            cuts = [max(size - 1, 0), size + 2] + ([] if basis in ("GP", "GQ") else [None])
            for nx in range(1, 5):
                for max_deg in cuts:
                    want = partition_terms(evaluate(basis, index, (), nx, max_deg))
                    assert genfun._basis_view(basis, index, nx, max_deg) == want, (basis, index, nx, max_deg)


def clear_view_memos():
    """Forget the per-process views and monomial images, so the next read is cold."""
    for memo in (genfun._basis_view, genfun._shape_view, genfun._omega_image, genfun._geometric_image):
        memo.cache_clear()


def test_the_cauchy_check_reads_its_duals_at_partitions_only(monkeypatch):
    # every engine value is a view by construction: gp/gq/jp/jq and GP/GQ/JP/JQ reach the
    # check as views, never written out and read back, and the peel builds no closed-form
    # basis element written out; nothing passes through `evaluate`, and `BetaPoly.view`
    # reads only the kernel, once
    from kshift import identities

    real_view = BetaPoly.view
    tested = []

    def view(self):
        caller = inspect.currentframe().f_back.f_code
        tested.append((os.path.basename(caller.co_filename), caller.co_name))
        return real_view(self)

    built, read = [], set()
    real, real_read = genfun.evaluate, identities.evaluate_view

    def evaluate_spy(func, *args, **kwargs):
        built.append(func)
        return real(func, *args, **kwargs)

    def read_spy(func, outer, inner, nvars, max_deg, doubleslash=False):
        read.add((func, tuple(outer), tuple(inner), nvars, max_deg, doubleslash))
        return real_read(func, outer, inner, nvars, max_deg, doubleslash)

    monkeypatch.setattr(BetaPoly, "view", view)
    monkeypatch.setattr(genfun, "evaluate", evaluate_spy)
    monkeypatch.setattr(identities, "evaluate_view", read_spy)
    monkeypatch.setattr(CACHE, "_mem", {})
    clear_view_memos()
    assert identities.check_cauchy_family().ok
    tallied = [func for func, *_ in read if func in ("GP", "GQ", "JP", "JQ")]
    assert len(read) == 268 and len(tallied) == 112
    assert built == []
    assert tested == [("identities.py", "check_cauchy_family")]


def test_structure_constant_that_is_not_a_beta_power_is_an_internal_error(monkeypatch):
    two_terms = BetaPoly(0, {((), 0): 1, ((), 1): 1})

    def expansion(p, basis):
        return genfun.BasisExpansion(basis, p.nvars, p.max_deg, {(1,): two_terms})

    monkeypatch.setattr(genfun, "expand_in_basis", expansion)
    with pytest.raises(KshiftError, match="not a single beta power"):
        structure_constants("a", sp(1), EMPTY, 3)


# -- omega and the j/J families --------------------------------------------------------


def omega(p, max_deg=None):
    """The Schur involution s_lam -> s_lam' on a written-out p, cut at max_deg (default p's),
    through the engine's view-level `_omega`: faithful when p.nvars >= the degree bound, since
    a transposed index of size <= max_deg has at most max_deg rows."""
    bound = max((sum(e) for e, _b in p.terms), default=0) if p.max_deg is None else p.max_deg
    if p.nvars < bound:
        raise ParameterError(f"omega needs nvars >= degree bound ({p.nvars} < {bound})")
    if p.split is not None:
        raise ParameterError("omega needs a one-alphabet polynomial")
    max_deg = max_deg if max_deg is not None else p.max_deg
    return genfun._written(_omega(genfun._view(p), p.nvars, p.nvars, max_deg), p.nvars, max_deg)


def test_omega_examples():
    assert omega(schur((2,), 2)) == schur((1, 1), 2)
    p21 = classical_pq("P", straight(sp(2, 1)), 3)
    assert omega(p21) == p21
    q31 = classical_pq("Q", straight(sp(3, 1)), 4)
    assert omega(q31) == q31


def test_omega_involution():
    p = schur((2, 1), 4).times_beta(1) + schur((3, 1), 4) + schur((2, 2), 4).times_beta(0, -2)
    assert omega(omega(p)) == p


def test_omega_needs_enough_variables():
    with pytest.raises(ParameterError):
        omega(schur((2, 1), 2))  # degree 3 needs at least 3 variables


def test_a_term_off_the_partitions_under_omega_is_an_internal_error_at_any_degree():
    # a term no symmetric polynomial's view holds, above or below the cut, is the
    # Schur peel's residual: a KshiftError, as from the reference, however it is cut
    g = partition_terms(evaluate("gq", (2, 1), (), 3))
    for stray in ((0, 1, 0), (1, 2, 0), (2, 3, 1)):
        for max_deg in (None, 1, 3):
            for omega_of in (_omega, reference_omega):
                with pytest.raises(KshiftError, match="nonzero Schur residual") as info:
                    omega_of({**g, (stray, 0): 1}, 3, 3, max_deg)
                assert type(info.value) is KshiftError


def test_omega_keeps_its_error_kinds():
    with pytest.raises(NonSymmetricError):
        omega(BetaPoly.variable(1, 2))
    with pytest.raises(ParameterError):
        omega(tensor_split(schur((1,), 1), schur((1,), 1), None))  # two alphabets


def reference_omega(view, n, nvars, max_deg):
    """omega on a view as the engine applied it before its monomial images: g's Schur
    coefficients c_lam from one peel of the whole view in its n variables, then
    [m_nu] = sum_lam c_lam K_{lam',nu}; a residual is a KshiftError."""
    coeffs, rest = _peel(view, "schur", n, None)
    if rest:
        raise KshiftError("nonzero Schur residual")
    out = {}
    for lam, c in coeffs.items():
        for (nu, _), k in genfun._basis_view("schur", transpose_partition(lam), nvars, max_deg).items():
            for (_e, b), v in c.items():
                out[nu, b] = out.get((nu, b), 0) + k * v
    return {key: v for key, v in out.items() if v}


def _recombined_transpose(g, nvars, max_deg):
    """The reference for omega: peel g in the Schur basis, transpose, recombine whole polynomials."""
    exp = expand_in_basis(g, "schur")
    assert exp.residual_zero
    coeffs = {transpose_partition(idx): c for idx, c in exp.coeffs.items()}
    return recombine(BasisExpansion("schur", nvars, max_deg, coeffs))


def test_omega_matches_the_recombined_transpose_on_every_dual():
    for lam in enumerate_strict_partitions(5):
        for mu in subshapes(lam):
            size = lam.size - mu.size
            for flavor in ("gp", "gq"):
                g = evaluate(flavor, lam, mu, max(1, size))
                for nvars in range(1, 5):
                    for max_deg in (None, max(size - 1, 0)):
                        want = _recombined_transpose(g, nvars, max_deg)
                        view = _omega(partition_terms(g), g.nvars, nvars, max_deg)
                        assert view == reference_omega(partition_terms(g), g.nvars, nvars, max_deg), (flavor, lam, mu, nvars, max_deg)
                        assert written(view, nvars, max_deg) == want, (flavor, lam, mu, nvars, max_deg)
                        assert jp_jq("j" + flavor[1], lam, mu, nvars, max_deg) == want


@st.composite
def products_at_partitions(draw):
    """A polynomial K in nx + ny variables, split after nx unless ny is 0, and the
    view of a polynomial symmetric in each block, all cut at one max_deg."""
    nx, ny, max_deg = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 4))
    n, split = nx + ny, nx if ny else None
    terms = st.dictionaries(st.tuples(st.tuples(*[st.integers(0, max_deg)] * n), st.integers(0, 2)), st.integers(-3, 3), max_size=6)
    kernel = BetaPoly(n, draw(terms), max_deg, split)
    blockwise = lambda e: tuple(sorted(e[:nx], reverse=True)) + tuple(sorted(e[nx:], reverse=True))
    view = {(blockwise(e), b): c for (e, b), c in draw(terms).items() if c}
    return kernel, view


@settings(max_examples=120, deadline=None)
@given(products_at_partitions())
def test_the_product_at_partitions_is_the_partition_part_of_the_product(product):
    kernel, view = product
    n, nx = kernel.nvars, kernel.split
    got = genfun._times_view(genfun._columns(kernel), view)
    assert got == reference_times_view(kernel, view)
    if nx is None:  # one alphabet
        assert got == partition_terms(kernel * written(view, n, kernel.max_deg))
    else:
        assert got == split_view(kernel * written_split(view, n, nx, kernel.max_deg), nx)


def reference_times_view(poly, view):
    """The product at partitions as the engine formed it before the kernel's columns: poly's
    terms and the view's grouped by exponent on every call, then paired over the plan."""
    blocks = (poly.nvars,) if poly.split is None else (poly.split, poly.nvars - poly.split)
    by_exp, g = {}, {}
    for terms, grouped in ((poly.terms, by_exp), (view, g)):
        for (e, b), c in terms.items():
            grouped.setdefault(e, []).append((b, c))
    plan, out = genfun._product_plan(frozenset(by_exp), blocks, poly.max_deg), {}
    for rest, at_rest in g.items():
        for lam, e in plan.get(rest, ()):
            for b1, c1 in by_exp[e]:
                for b2, c2 in at_rest:
                    out[lam, b1 + b2] = out.get((lam, b1 + b2), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def test_the_cauchy_kernel_columns_are_the_reference_product():
    # each twist of each Cauchy kernel a check multiplies by, on the split views of GQ_lam(x) gp_lam(y) sums
    for nx, ny, max_deg in ((1, 1, 2), (2, 2, 4), (2, 3, 3), (3, 3, 4)):
        kern = cauchy_kernel(nx, ny, max_deg)
        view = {}
        for lam in enumerate_strict_partitions(max_deg):
            gq_x, gp_y = evaluate("GQ", lam, (), nx, max_deg).view(), genfun.evaluate_view("gp", lam, (), ny, max_deg)
            for (ex, bx), a in gq_x.items():
                for (ey, by), c in gp_y.items():
                    view[ex + ey, bx + by] = view.get((ex + ey, bx + by), 0) + a * c
        for which in ([], list(range(1, nx + 1)), list(range(1, nx + ny + 1))):
            twisted = kern.negate_vars(which)
            assert genfun._times_view(genfun._columns(twisted), view) == reference_times_view(twisted, view), (nx, ny, which)


def reference_product_plan(exps, blocks, max_deg):
    """The plan of `genfun._product_plan` by testing every (lam, e) pair: lam over every
    product of block partitions of degree <= max_deg, each padded to its block's length."""
    cuts = list(itertools.accumulate(blocks, initial=0))
    padded = [[p + (0,) * (n - len(p)) for d in range(max_deg + 1) for p in partitions_of(d) if len(p) <= n] for n in blocks]
    plan = {}
    for parts in itertools.product(*padded):
        lam = sum(parts, ())
        for e in exps:
            r = tuple(map(sub, lam, e))
            if min(r) >= 0:
                rest = sum((tuple(sorted(r[i:j], reverse=True)) for i, j in zip(cuts, cuts[1:])), ())
                plan.setdefault(rest, []).append((lam, e))
    return plan


@pytest.mark.parametrize("blocks", [(n,) for n in (1, 2, 3)] + list(itertools.product((1, 2, 3), repeat=2)))
def test_the_blockwise_product_plan_is_the_pairwise_plan(blocks):
    # exponents in each block of degree <= max_deg (not only partitions), one seeded sample per max_deg
    rng = random.Random(sum(blocks) * 10 + len(blocks))
    for max_deg in range(7):
        block_exps = [[e for e in itertools.product(range(max_deg + 1), repeat=n) if sum(e) <= max_deg] for n in blocks]
        exps = frozenset(sum((rng.choice(b) for b in block_exps), ()) for _ in range(30)) | {(0,) * sum(blocks)}
        got, want = genfun._product_plan(exps, blocks, max_deg), reference_product_plan(exps, blocks, max_deg)
        assert {r: sorted(pairs) for r, pairs in got.items()} == {r: sorted(pairs) for r, pairs in want.items()}, (blocks, max_deg)


@st.composite
def schur_combinations(draw):
    """nvars and Z[beta] coefficients of Schur polynomials of size <= nvars."""
    nvars = draw(st.integers(1, 4))
    indices = [lam for n in range(nvars + 1) for lam in partitions_of(n)]
    beta_coeffs = st.dictionaries(st.integers(0, 2), st.integers(-3, 3), max_size=2)
    coeffs = draw(st.dictionaries(st.sampled_from(indices), beta_coeffs, max_size=4))
    return nvars, {lam: BetaPoly(0, {((), b): v for b, v in c.items()}) for lam, c in coeffs.items()}


@settings(max_examples=80, deadline=None)
@given(schur_combinations(), st.none() | st.integers(0, 4))
def test_omega_on_schur_combinations(combo, cut):
    nvars, coeffs = combo
    p = recombine(BasisExpansion("schur", nvars, None, coeffs))
    assert omega(omega(p)) == p
    transposed = {transpose_partition(lam): c for lam, c in coeffs.items()}
    assert omega(p, cut) == recombine(BasisExpansion("schur", nvars, cut, transposed))


def test_jp_jq_examples():
    jp21 = jp_jq("jp", sp(2, 1), EMPTY, 3)
    assert jp21 == schur((2, 1), 3) - schur((1, 1), 3).times_beta(1)
    jq21 = jp_jq("jq", sp(2, 1), EMPTY, 3)
    assert jq21 == jp21.times_beta(0, 4)


def test_jp_beta_zero():
    for lam in enumerate_strict_partitions(5):
        assert beta_zero(jp_jq("jp", lam, EMPTY, 3)) == classical_pq("P", straight(lam), 3)
        assert beta_zero(jp_jq("jq", lam, EMPTY, 3)) == classical_pq("Q", straight(lam), 3)


def test_cap_jp_jq_examples():
    jp1 = evaluate("JP", sp(1), (), 1, 3)
    assert jp1 == BetaPoly(1, {((1,), 0): 1, ((2,), 1): 1, ((3,), 2): 1}, 3)
    assert evaluate("JQ", EMPTY, (), 2, 4) == BetaPoly.const(2, 1, 4)
    for lam in enumerate_strict_partitions(4):
        got = beta_zero(evaluate("JP", lam, (), 2, 5))
        assert got == classical_pq("P", straight(lam), 2, 5)


# -- the one family entry point ------------------------------------------------------------


def test_evaluate_reads_straight_duals_like_the_skew_table():
    # a straight gp/gq comes from dual_table, a skew one from dual_skew_table
    for lam in enumerate_strict_partitions(4):
        for n in (1, 2, 3):
            for f in ("gp", "gq"):
                for max_deg in (None, lam.size):
                    got = evaluate(f, lam, (), n, max_deg)
                    want = dual_skew(f, lam, EMPTY, n).truncated(max_deg)
                    assert (got, got.max_deg) == (want, want.max_deg), (f, lam, n, max_deg)


def test_evaluate_doubleslash_JP_JQ_substitutes_each_term():
    for lam in enumerate_strict_partitions(4):
        for mu in subshapes(lam):
            for n in (1, 2):
                max_deg = lam.size + 2
                for f, base in (("JP", "GP"), ("JQ", "GQ")):
                    want = BetaPoly.zero(n, max_deg)
                    for nu in doubleslash_inners(mu):
                        term = gp_gq(base, SkewShape(lam, nu), n, max_deg).substitute_geometric()
                        want = want + term.times_beta(mu.size - nu.size)
                    assert evaluate(f, lam, mu, n, max_deg, doubleslash=True) == want, (f, lam, mu, n)


def test_gp_gq_jp_jq_views_are_the_written_out_values_read_back():
    # every GP/GQ/JP/JQ view the checks read, straight, skew and double slash, off the
    # tallies and the geometric images, against `evaluate`'s written-out value read back;
    # each substitution only raises degrees, so the value at |lam| is the one at |lam| + 2 cut
    for lam in enumerate_strict_partitions(6):
        for mu in subshapes(lam):
            for nvars, func, doubleslash in itertools.product(range(1, 5), ("GP", "GQ", "JP", "JQ"), (False, True)):
                value = evaluate(func, lam, mu, nvars, lam.size + 2, doubleslash)
                for max_deg in (lam.size, lam.size + 2):
                    got = genfun.evaluate_view(func, lam, mu, nvars, max_deg, doubleslash)
                    assert got == value.truncated(max_deg).view(), (func, lam, mu, nvars, max_deg, doubleslash)


@st.composite
def symmetric_views(draw):
    """A view in nvars variables (terms at partition exponents) and a finite cut."""
    nvars, max_deg = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    lams = [p + (0,) * (nvars - len(p)) for d in range(max_deg + 2) for p in partitions_of(d) if len(p) <= nvars]
    terms = draw(st.dictionaries(st.tuples(st.sampled_from(lams), st.integers(0, 2)), st.integers(-3, 3), max_size=5))
    return nvars, max_deg, {k: c for k, c in terms.items() if c}


@settings(max_examples=100, deadline=None)
@given(symmetric_views())
def test_the_geometric_images_are_the_substitution_of_the_written_out_view(drawn):
    nvars, max_deg, view = drawn
    want = partition_terms(written(view, nvars, max_deg).substitute_geometric())
    assert genfun._mapped(view, lambda e: genfun._geometric_image(e, max_deg)) == want


@pytest.fixture
def cold_views():
    """Cold per-process views before the test and after it, so none it made outlives it."""
    clear_view_memos()
    yield
    clear_view_memos()


def test_an_asymmetric_tally_makes_every_view_that_reads_it_none(monkeypatch, cold_views):
    # the tally of the shape 2,1/1 in 2 variables made asymmetric, for GP by a count moved
    # off its orbit and for GQ by an orbit that lacks an exponent: the views of GP/GQ and
    # JP/JQ at that shape and of each double slash summing it are None, as
    # `evaluate(...).view()` is, and a view that reads no such tally is not
    from kshift import tableaux

    real, faulty = tableaux._tally, SkewShape(sp(2, 1), sp(1))

    def lopsided(shape, nvars, p_flavor, *args, **kwargs):
        tally = real(shape, nvars, p_flavor, *args, **kwargs)
        if (shape, nvars) != (faulty, 2):
            return tally
        assert tally[2, 0] == tally[0, 2] > 0
        return {**tally, (0, 2): tally[0, 2] + 1} if p_flavor else {e: n for e, n in tally.items() if e != (0, 2)}

    monkeypatch.setattr(tableaux, "_tally", lopsided)
    monkeypatch.setattr(genfun, "_tally", lopsided)
    monkeypatch.setattr(CACHE, "_mem", {})
    for func, outer, inner, doubleslash in itertools.product(("GP", "GQ", "JP", "JQ"), [(2, 1)], [(1,), (2,), ()], (False, True)):
        want = evaluate(func, outer, inner, 2, 5, doubleslash).view()
        assert genfun.evaluate_view(func, outer, inner, 2, 5, doubleslash) == want, (func, outer, inner, doubleslash)
        assert (want is None) == (inner == (1,) or (inner, doubleslash) == ((2,), True)), (func, outer, inner, doubleslash)


@pytest.mark.parametrize(
    "request_",
    [("HP", (2, 1), (), 2, 4, False), ("GP", (2, 1), (), 0, 4, False), ("JQ", (2, 1), (), 2, -1, False),
     ("GQ", (2, 1), (), 2, None, False), ("gp", (2, 1), (), 2, 4, True), ("GP", (1, 2), (), 2, 4, False),
     ("JP", (2, 1), (1, 1), 2, 4, True), ("jq", (2,), (), 0, None, False), ("schur", (2, 1), (1,), 2, 4, False)],
)
def test_a_request_evaluate_refuses_is_refused_alike_through_its_view(request_):
    with pytest.raises(KshiftError) as refused:
        evaluate(*request_)
    with pytest.raises(KshiftError) as refused_view:
        genfun.evaluate_view(*request_)
    assert (type(refused_view.value), str(refused_view.value)) == (type(refused.value), str(refused.value))


def test_evaluate_rejects_meaningless_arguments():
    with pytest.raises(ParameterError):
        evaluate("schur", (2, 1), (1,), 2, 4)
    for f in ("P", "Q", "gp", "gq", "jp", "jq", "schur"):
        with pytest.raises(ParameterError):
            evaluate(f, (2, 1), (), 2, 4, doubleslash=True)
    for f in ("GP", "GQ", "JP", "JQ"):
        with pytest.raises(ParameterError):
            evaluate(f, (2, 1), (), 2, None)
    with pytest.raises(ParameterError):
        evaluate("HP", (2, 1), (), 2, 4)


def test_input_faults_are_parameter_errors_and_bugs_are_kshift_errors():
    # a caller's bad Schur index is a parameter error (exit 2), as a bad function name is above
    with pytest.raises(ParameterError, match="not a partition"):
        evaluate("schur", (1, 2), (), 2)
    # the engine passes only known flavors and kinds: anything else is a bug (exit 1),
    # neither a parameter error nor a plain ValueError
    pt = RationalPoint(Fraction(1), (Fraction(1, 2), Fraction(1, 3)))
    for call in (
        lambda: genfun._dual_views("gx", 2, 2),
        lambda: structure_constants("c", sp(1), sp(1), 3),
        lambda: symmetrization_eval("GX", (1,), 2, pt),
    ):
        with pytest.raises(KshiftError) as info:
            call()
        assert type(info.value) is KshiftError


# -- structure constants -----------------------------------------------------------------


def test_structure_constants_a_symmetry_and_nonnegativity():
    shapes = enumerate_strict_partitions(3)
    for mu in shapes:
        for nu in shapes:
            cap = mu.size + nu.size + 2
            t1 = structure_constants("a", mu, nu, cap)
            t2 = structure_constants("a", nu, mu, cap)
            assert t1 == t2
            assert all(v >= 0 for v in t1.values())


def test_structure_constants_vanishing():
    shapes = enumerate_strict_partitions(3)
    for mu in shapes:
        for nu in shapes:
            cap = 7
            for kind in ("a", "b"):
                table = structure_constants(kind, mu, nu, cap)
                for lam, v in table.items():
                    if v == 0:
                        continue
                    assert contains(mu, lam) and contains(nu, lam)
                    assert lam.size >= mu.size + nu.size


def test_structure_constants_products_recombine():
    mu, nu = sp(2), sp(1)
    cap = 6
    table = structure_constants("b", mu, nu, cap)
    lhs = gp_gq("GQ", straight(mu), 2, cap) * gp_gq("GQ", straight(nu), 2, cap)
    rhs = BetaPoly.zero(2, cap)
    for lam, v in table.items():
        rhs = rhs + gp_gq("GQ", straight(lam), 2, cap).times_beta(0, v).times_beta(
            lam.size - mu.size - nu.size
        )
    assert lhs == rhs


def test_structure_constants_hat_kinds():
    # ahat: GQ_(lam//mu) expanded over GQ; entries vanish below |lam| - |mu|
    lam, mu = sp(2, 1), sp(2, 1)
    table = structure_constants("ahat", lam, mu, 5)
    assert all(mu.size + nu.size >= lam.size for nu in table)
    direct = gp_gq_doubleslash("GQ", lam, mu, 2, 5)
    rhs = BetaPoly.zero(2, 5)
    for nu, v in table.items():
        rhs = rhs + gp_gq("GQ", straight(nu), 2, 5).times_beta(0, v).times_beta(
            mu.size + nu.size - lam.size
        )
    assert direct == rhs
    # the same integers, read with the running index on top, expand the dual
    # products: gq_a gq_b = sum over nu of bhat^nu_(a,b) beta^(|a|+|b|-|nu|) gq_nu
    a, b = sp(2, 1), sp(2)
    got = dual_gp_gq("gq", a, 2) * dual_gp_gq("gq", b, 2)
    want = BetaPoly.zero(2, None)
    for nu in enumerate_strict_partitions(a.size + b.size):
        v = structure_constants("bhat", nu, a, a.size + b.size).get(b, 0)
        if v:
            want = want + dual_gp_gq("gq", nu, 2).times_beta(0, v).times_beta(
                a.size + b.size - nu.size
            )
    assert got == want


# -- symmetrization -----------------------------------------------------------------------


def test_symmetrization_simple_values():
    pt = RationalPoint(Fraction(1), (Fraction(2),))
    assert symmetrization_eval("GQ", (1,), 1, pt) == 8
    pt3 = RationalPoint(Fraction(2, 3), (Fraction(1), Fraction(2), Fraction(3)))
    assert symmetrization_eval("GP", (), 3, pt3) == 1
    assert symmetrization_eval("A", (0, 0), 2, RationalPoint(Fraction(1), (Fraction(1), Fraction(2)))) == 1


def test_symmetrization_matches_tableaux():
    pt = RationalPoint(Fraction(1, 2), (Fraction(1, 3), Fraction(2)))
    lam = sp(2, 1)
    for flavor in ("GP", "GQ"):
        poly = gp_gq(flavor, straight(lam), 2, 2 * 2 * lam.size)
        assert symmetrization_eval(flavor, lam.parts, 2, pt) == poly.eval_rational(pt)


def test_symmetrization_is_symmetric_in_the_point():
    pt = RationalPoint(Fraction(1, 2), (Fraction(1), Fraction(2), Fraction(-1)))
    swapped = RationalPoint(pt.beta, (pt.coords[1], pt.coords[0], pt.coords[2]))
    lam = (3, 1)
    for flavor in ("GP", "GQ"):
        assert symmetrization_eval(flavor, lam, 3, pt) == symmetrization_eval(
            flavor, lam, 3, swapped
        )


def test_symmetrization_singular_points():
    with pytest.raises(SingularPointError):
        symmetrization_eval("GP", (1,), 2, RationalPoint(Fraction(1), (Fraction(1), Fraction(1))))
    with pytest.raises(SingularPointError):
        symmetrization_eval("GP", (1,), 2, RationalPoint(Fraction(-1), (Fraction(1), Fraction(2))))


# -- the one-row series ---------------------------------------------------------------------


def test_gq_onerow_series():
    series = gq_onerow_series(2, 4, 6)
    assert series[0] == BetaPoly.const(2, 1, 6)
    assert series[1] == gp_gq("GQ", straight(sp(1)), 2, 6)
    for n in (2, 3, 4):
        assert series[n] == gp_gq("GQ", straight(sp(n)), 2, 6)


def reference_onerow_series(nvars, max_power, max_deg):
    """The one-row series by truncated series arithmetic in t = u^-1: 1 plus, over
    nonempty subsets T, t (t+beta)^(|T|-1) prod_{j in T} (2x_j + beta x_j^2) / (1 - x_j t)."""
    N = max_power
    zero = BetaPoly.zero(nvars, max_deg)
    one = BetaPoly.const(nvars, 1, max_deg)
    total = [one] + [zero] * N
    if N == 0:
        return total

    def series_mul(a, b):
        out = [zero] * (N + 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b[: N + 1 - i]):
                out[i + j] = out[i + j] + ai * bj
        return out

    t_plus_beta = [one.times_beta(1), one] + [zero] * (N - 1)
    for size in range(1, nvars + 1):
        for subset in itertools.combinations(range(1, nvars + 1), size):
            acc = [zero, one] + [zero] * (N - 1)
            for _ in range(size - 1):
                acc = series_mul(acc, t_plus_beta)
            for j in subset:
                xj = BetaPoly.variable(j, nvars, max_deg)
                factor = xj.times_beta(0, 2) + (xj * xj).times_beta(1)
                acc = series_mul(acc, [xj**k * factor for k in range(N + 1)])
            total = [a + b for a, b in zip(total, acc)]
    return total


def test_the_onerow_sum_matches_the_series_arithmetic():
    args = [(n, p, d) for n in range(1, 5) for p in range(7) for d in range(9)] + [(6, 4, 6)]
    for nvars, max_power, max_deg in args:
        want = reference_onerow_series(nvars, max_power, max_deg)
        assert gq_onerow_series(nvars, max_power, max_deg) == want, (nvars, max_power, max_deg)
