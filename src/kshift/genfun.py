"""Symmetric-function families over Z[beta] and the basis-expansion engine.

Families: classical P/Q, their K-theoretic liftings GP/GQ (with skew and
double-slash variants), the dual functions gp/gq defined through the Cauchy
kernel, their transposes jp/jq under the Schur-basis involution, and the
geometric substitutions JP/JQ.  Dual functions are always computed by
inverting the Cauchy kernel, never from conjectural tableau formulas.
`evaluate` is the one entry point from a family name to the code that
computes it: the CLI, the basis peel and the identity checks all use it.

Triangularity conventions used throughout: GP/GQ have minimal x-degree equal
to the index size with lowest slice P/Q, so they are peeled from low degree
upward; gp/gq/jp/jq have maximal x-degree equal to the index size with top
slice P/Q, so they are peeled from high degree downward.  Within one degree,
indices are processed in decreasing lexicographic order, which refines
dominance; leading monomial coefficients are 1 for P/GP/gp/jp/schur and
2^length for Q/GQ/gq/jq.

The dual solve and the peel hold a polynomial symmetric in y (or in the x block)
by its view, its terms at partition exponents padded to the number of variables:
every rearrangement repeats them.  A finished value is written out to its orbits.
The Schur world is on Kostka numbers, counted by the horizontal-strip rule: s_lam
has the view K_{lam,nu}, and omega(g) = sum c_lam s_lam' the view sum_lam c_lam
K_{lam',nu}, with c_lam the Schur coefficients of g from the peel.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from operator import sub

from .cache import CACHE
from .errors import (
    KshiftError,
    NonSymmetricError,
    ParameterError,
    ResourceLimitError,
    SingularPointError,
)
from .polyring import BetaPoly, RationalPoint
from .shapes import (
    EMPTY,
    SkewShape,
    StrictPartition,
    contains,
    doubleslash_inners,
    enumerate_strict_partitions,
    straight,
    strict_partitions_of,
)
from .tableaux import content_count, genfun_from_tableaux

# -- plain (not necessarily strict) partitions for the Schur world -----------


@functools.cache
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n in decreasing lexicographic order."""
    if n == 0:
        return ((),)
    top = n if max_part is None else min(n, max_part)
    return tuple((first,) + rest for first in range(top, 0, -1) for rest in partitions_of(n - first, first))


def transpose_partition(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for x in p if x >= j) for j in range(1, max(p, default=0) + 1))


@functools.cache
def _kostka(lam: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """The Kostka number K_{lam,nu}, the number of SSYT of shape lam and content nu.

    The cells holding the last value form a horizontal strip lam/kappa, that is
    lam_{i+1} <= kappa_i <= lam_i with |lam/kappa| = nu_last."""
    if not nu:
        return int(not lam)
    inners = itertools.product(*(range(low, high + 1) for high, low in zip(lam, lam[1:] + (0,))))
    return sum(_kostka(tuple(k for k in kappa if k), nu[:-1]) for kappa in inners if sum(lam) - sum(kappa) == nu[-1])


def schur(lam: tuple[int, ...], nvars: int, max_deg: int | None = None) -> BetaPoly:
    """The classical Schur polynomial s_lam(x_1..x_nvars), sum over partitions nu of
    K_{lam,nu} m_nu: its view holds the Kostka numbers, written out to their orbits."""
    lam = tuple(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(x <= 0 for x in lam):
        raise ValueError(f"not a partition: {lam}")
    if len(lam) > nvars or (max_deg is not None and sum(lam) > max_deg):
        return BetaPoly.zero(nvars, max_deg)

    def compute() -> BetaPoly:
        nus = (nu for nu in partitions_of(sum(lam)) if len(nu) <= nvars)
        view = {(nu + (0,) * (nvars - len(nu)), 0): _kostka(lam, nu) for nu in nus}
        return BetaPoly(nvars, _orbits(view, nvars), None)

    key = ["schur", list(lam), nvars]
    poly = CACHE.get_or_compute(key, compute, BetaPoly.to_json_obj, BetaPoly.from_json_obj)
    return poly.truncated(max_deg)


# -- tableau-defined families -------------------------------------------------


def classical_pq(flavor: str, shape: SkewShape, nvars: int, max_deg: int | None = None) -> BetaPoly:
    """The classical Schur P- or Q-polynomial of a (skew) shifted shape.

    P/Q is homogeneous of degree |shape|, the beta^0 part of GP/GQ: so it is
    GP/GQ cut at x-degree |shape|, the walk over single-valued tableaux.
    """
    if not shape.valid:
        return BetaPoly.zero(nvars, max_deg)
    return gp_gq("G" + flavor, shape, nvars, shape.size).truncated(max_deg)


def gp_gq(flavor: str, shape: SkewShape, nvars: int, max_deg: int) -> BetaPoly:
    """GP or GQ of a (skew) shifted shape; zero when inner is not contained."""
    fam = {"GP": "setshyt_p", "GQ": "setshyt_q"}[flavor]
    if not shape.valid:
        return BetaPoly.zero(nvars, max_deg)

    def compute() -> BetaPoly:
        return genfun_from_tableaux(fam, shape, nvars, max_deg)

    key = ["gpgq", flavor, str(shape), nvars, max_deg]
    return CACHE.get_or_compute(key, compute, BetaPoly.to_json_obj, BetaPoly.from_json_obj)


def gp_gq_doubleslash(
    flavor: str, lam: StrictPartition, mu: StrictPartition, nvars: int, max_deg: int
) -> BetaPoly:
    """The double-slash function: sum of beta^|mu/nu| GP_{lam/nu} over inners."""
    if not contains(mu, lam):
        return BetaPoly.zero(nvars, max_deg)
    total = BetaPoly.zero(nvars, max_deg)
    for nu in doubleslash_inners(mu):
        part = gp_gq(flavor, SkewShape(lam, nu), nvars, max_deg)
        total = total + part.times_beta(mu.size - nu.size)
    return total


# -- the Cauchy kernel inverted: dual functions --------------------------------


def _ell_max(size: int) -> int:
    """The longest possible length of a strict partition of size <= size."""
    m = 0
    while (m + 1) * (m + 2) // 2 <= size:
        m += 1
    return m


@functools.cache
def _rearrangements(e: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct rearrangements of e, a weakly decreasing tuple."""
    if not e:
        return ((),)
    return tuple((x,) + r for x in dict.fromkeys(e) for r in _rearrangements(e[: e.index(x)] + e[e.index(x) + 1 :]))


def _orbits(view: dict, nx: int) -> dict:
    """The terms of a view whose exponents start with a partition of length nx, over its x-orbits."""
    return {(f + e[nx:], b): c for (e, b), c in view.items() if c for f in _rearrangements(e[:nx])}


@functools.cache
def _kernel_weight(s: int, b: int) -> int:
    """[t^b] ((2+t)/(1+t))^s, where ((2+t)/(1+t))^s = sum_k C(s,k) (1+t)^-k."""
    return (b == 0) + sum(comb(s, k) * (-1) ** b * comb(k + b - 1, b) for k in range(1, s + 1))


@functools.cache
def _kernel_view(parts: tuple[int, ...], ny: int) -> dict:
    """The view of prod_i k_{parts_i}(y), the coefficient of x^parts in prod_j (1 - xbar*y_j)/(1 - x*y_j).

    Per y_j the factor is (1 + (beta+y_j)x) / ((1 + beta*x)(1 - y_j*x)), so for
    |e| + b = d the coefficient of beta^b y^e in k_d is `_kernel_weight(s, b)`,
    s the number of nonzero parts of e.  With A the product of the earlier
    slices, [y^lam](A k_d) = sum_{e <= lam} A[sort e] k_d[lam - e], each beta
    power fixed by homogeneity in (y, beta)."""
    if not parts:
        return {((0,) * ny, 0): 1}
    head, m, d = _kernel_view(parts[:-1], ny), sum(parts[:-1]), parts[-1]
    view = {}
    for n in range(m + d + 1):
        for lam in (p + (0,) * (ny - len(p)) for p in partitions_of(n) if len(p) <= ny):
            total = 0
            for e in itertools.product(*(range(x + 1) for x in lam)):
                k = sum(e)
                a = head.get((tuple(sorted(e, reverse=True)), m - k))
                if a and n - k <= d:
                    total += a * _kernel_weight(ny - list(map(sub, lam, e)).count(0), d - n + k)
            if total:
                view[lam, m + d - n] = total
    return view


def _encode_table(table: dict[StrictPartition, BetaPoly]) -> dict:
    """A table of polynomials indexed by strict partitions, as a cache value."""
    return {str(mu): poly.to_json_obj() for mu, poly in table.items()}


def _decode_table(obj: dict) -> dict[StrictPartition, BetaPoly]:
    return {StrictPartition.parse(k): BetaPoly.from_json_obj(v) for k, v in obj.items()}


def dual_table(flavor: str, S: int, ny: int) -> dict[StrictPartition, BetaPoly]:
    """All dual functions gp_mu (or gq_mu) with |mu| <= S, in ny variables.

    The coefficients of x^mu in the Cauchy identity kernel = sum_nu GQ_nu(x) gp_nu(y)
    (respectively GP/gq) give a triangular system, solved in candidate order on the
    y-symmetric views of prod_i k_{mu_i}(y) and of each entry, with [x^mu] GQ_nu =
    beta^(|mu|-|nu|) times `tableaux.content_count` (the GP/GQ coproduct).  The
    values are exact and do not depend on S: one table per (flavor, ny) is kept,
    extended in place for a larger S, and a smaller S is served as the prefix
    enumerate_strict_partitions(S).  Entries are stored written out in full.
    """
    if flavor not in ("gp", "gq"):
        raise ValueError(f"flavor must be gp or gq, got {flavor!r}")
    candidates = enumerate_strict_partitions(S)
    key = ["dual_table", flavor, ny]
    table = CACHE.get_or_compute(key, lambda: _solve_duals(flavor, {}, candidates, ny), _encode_table, _decode_table)
    if len(table) < len(candidates):
        CACHE.store(key, _solve_duals(flavor, table, candidates, ny), _encode_table)
    return {mu: table[mu] for mu in candidates}


def _solve_duals(flavor: str, table: dict, candidates: list[StrictPartition], ny: int) -> dict:
    """Add to table each candidate it lacks, given all the earlier ones: on
    views, each new entry written out to its orbits once it is divided."""
    p_basis = flavor == "gq"  # gq is dual to GP, gp to GQ
    views: dict[StrictPartition, dict] = {}
    for i, mu in enumerate(candidates):
        if mu in table:
            continue
        acc = dict(_kernel_view(mu.parts, ny))
        for prev in candidates[:i]:
            n = content_count(p_basis, prev, mu.parts)
            if n:
                if prev not in views:
                    terms = table[prev].terms.items()
                    views[prev] = {(e, b): v for (e, b), v in terms if e == tuple(sorted(e, reverse=True))}
                for (e, b), v in views[prev].items():
                    k = (e, b + mu.size - prev.size)
                    acc[k] = acc.get(k, 0) - n * v
        lead, expected = content_count(p_basis, mu, mu.parts), (1 if p_basis else 2) ** len(mu)
        if lead != expected:
            raise KshiftError(f"triangularity failure at {mu}: leading coefficient {lead}, expected {expected}")
        views[mu] = BetaPoly(ny, acc).divide_exact(expected).terms
        table[mu] = BetaPoly(ny, _orbits(views[mu], ny))
    return table


def dual_gp_gq(flavor: str, lam: StrictPartition, nvars_y: int) -> BetaPoly:
    """The dual function gp_lam or gq_lam as an exact polynomial in y."""
    return dual_table(flavor, lam.size, nvars_y)[lam]


# -- the expansion engine ------------------------------------------------------

_MAX_FIRST = {"gp", "gq", "jp", "jq"}


def _basis_lead(basis: str, index: tuple[int, ...]) -> int:
    return 2 ** len(index) if basis in ("Q", "GQ", "gq", "jq") else 1


def _basis_indices(basis: str, degree: int, nvars: int) -> list[tuple[int, ...]]:
    if basis == "schur":
        return [p for p in partitions_of(degree) if len(p) <= nvars]
    return [p.parts for p in strict_partitions_of(degree) if len(p) <= nvars]


@dataclass
class BasisExpansion:
    """Coefficients of an input against one family, plus the unexplained rest."""

    basis: str
    nvars: int
    max_deg: int | None
    coeffs: dict[tuple[int, ...], BetaPoly] = field(default_factory=dict)
    residual: BetaPoly | None = None

    @property
    def residual_zero(self) -> bool:
        return self.residual is None or self.residual.is_zero()

    def recombine(self) -> BetaPoly:
        total = BetaPoly.zero(self.nvars, self.max_deg)
        for index, c in self.coeffs.items():
            total = total + evaluate(self.basis, index, (), self.nvars, self.max_deg).scale_by(c)
        if self.residual is not None:
            total = total + self.residual
        return total

    def to_json_obj(self) -> dict:
        items = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), tuple(-x for x in kv[0])))
        return {
            "basis": self.basis,
            "vars": self.nvars,
            "max_deg": self.max_deg,
            "coeffs": [
                {"index": ",".join(str(x) for x in idx), "beta": c.coeff_list()}
                for idx, c in items
                if not c.is_zero()
            ],
            "residual_zero": self.residual_zero,
        }


def _peel(p: BetaPoly, basis: str, nx: int, asymmetric=KshiftError) -> tuple[dict[tuple[int, ...], BetaPoly], BetaPoly]:
    """Greedy triangular peel of the first nx variables of p against the basis.

    Each coefficient is a polynomial in the other ny = p.nvars - nx variables
    (when nx = p.nvars, an element of Z[beta]: a 0-variable polynomial with no
    truncation).  Returns the coefficients in peel order and the residual,
    split at nx, that the basis cannot explain.  p must be symmetric in each
    block, or `asymmetric` is raised: the peel then keeps p only at x-exponents
    that are partitions and writes the residual out to its x-orbits at the end.
    """
    split = BetaPoly(p.nvars, p.terms, p.max_deg, nx)
    if not split.is_symmetric():
        raise asymmetric("input polynomial is not symmetric")
    # by triangularity a peel step changes no x-monomial already visited, so
    # what the basis cannot explain is left in rest: rest is the residual
    rest: dict[tuple[int, ...], dict] = {}
    for (e, b), v in split.terms.items():
        if e[:nx] == tuple(sorted(e[:nx], reverse=True)):
            rest.setdefault(e[:nx], {})[e[nx:], b] = v
    top = max(map(sum, rest), default=0) if p.max_deg is None else p.max_deg
    degrees = range(top, -1, -1) if basis in _MAX_FIRST else range(top + 1)
    coeffs: dict[tuple[int, ...], BetaPoly] = {}
    for d in degrees:
        for index in _basis_indices(basis, d, nx):
            c = BetaPoly(p.nvars - nx, rest.get(index + (0,) * (nx - len(index))), p.max_deg if nx < p.nvars else None)
            if c.is_zero():
                continue
            c = c.divide_exact(_basis_lead(basis, index))
            coeffs[index] = c
            for (ex, bx), vx in evaluate(basis, index, (), nx, p.max_deg).terms.items():
                if ex == tuple(sorted(ex, reverse=True)):
                    bucket = rest.setdefault(ex, {})
                    for (ey, by), vy in c.terms.items():
                        k = (ey, bx + by)
                        bucket[k] = bucket.get(k, 0) - vx * vy
    residual = {(x + e, b): v for x, bucket in rest.items() for (e, b), v in bucket.items()}
    return coeffs, BetaPoly(p.nvars, _orbits(residual, nx), p.max_deg, nx)


def expand_in_basis(p: BetaPoly, basis: str) -> BasisExpansion:
    """Greedy triangular peel of p against the chosen family.

    The caller must supply p in enough variables: nvars at least the length
    of every index that can appear (for the Schur basis, nvars >= max degree).
    """
    if p.split is not None:
        raise ParameterError("expand_in_basis needs a one-alphabet polynomial")
    coeffs, rest = _peel(p, basis, p.nvars, NonSymmetricError)
    return BasisExpansion(basis, p.nvars, p.max_deg, coeffs, BetaPoly(p.nvars, rest.terms, p.max_deg))


# -- skew duals, omega, and the j/J families -----------------------------------


def dual_skew_table(flavor: str, lam: StrictPartition, ny: int) -> dict[StrictPartition, BetaPoly]:
    """All skew duals gp_{lam/mu} (or gq) as polynomials in ny variables.

    Uses the two-alphabet identity g_lam(x,y) = sum_mu g_mu(x) g_{lam/mu}(y):
    the full dual polynomial over nx+ny variables is expanded over its x-block
    in the same dual basis.
    """
    S = lam.size
    nx = max(1, len(lam))
    key = ["dual_skew_table", flavor, str(lam), ny]

    def compute() -> dict[StrictPartition, BetaPoly]:
        coeffs, rest = _peel(dual_table(flavor, S, nx + ny)[lam], flavor, nx)
        if not rest.is_zero():
            raise KshiftError(f"split expansion has a nonzero residual in basis {flavor}")
        return {StrictPartition(idx): poly for idx, poly in coeffs.items()}

    return CACHE.get_or_compute(key, compute, _encode_table, _decode_table)


def dual_skew(flavor: str, lam: StrictPartition, mu: StrictPartition, ny: int) -> BetaPoly:
    """The skew dual function; zero exactly when mu is not contained in lam."""
    if not contains(mu, lam):
        return BetaPoly.zero(ny, None)
    return dual_skew_table(flavor, lam, ny).get(mu, BetaPoly.zero(ny, None))


def omega(p: BetaPoly, max_deg: int | None = None) -> BetaPoly:
    """The Schur involution s_lam -> s_lam' on p, cut at max_deg (default p's).

    Faithful when p.nvars >= the working degree bound, since a transposed
    index of size <= max_deg has at most max_deg rows.
    """
    bound = max(p.x_degrees(), default=0) if p.max_deg is None else p.max_deg
    if p.nvars < bound:
        raise ParameterError(f"omega needs nvars >= degree bound ({p.nvars} < {bound})")
    if p.split is not None:
        raise ParameterError("omega needs a one-alphabet polynomial")
    return _omega(p, p.nvars, max_deg if max_deg is not None else p.max_deg, NonSymmetricError)


def _omega(g: BetaPoly, nvars: int, max_deg: int | None, asymmetric=KshiftError) -> BetaPoly:
    """omega(g) in nvars variables: the Schur coefficients c_lam of a faithful g
    from the peel, then the view [m_nu] = sum_lam c_lam K_{lam',nu}, written out once."""
    coeffs, rest = _peel(g, "schur", g.nvars, asymmetric)
    if not rest.is_zero():
        raise KshiftError("nonzero Schur residual")
    view: dict = {}
    for lam, c in coeffs.items():  # the constructor drops the degrees past max_deg
        for nu in (nu for nu in partitions_of(sum(lam)) if len(nu) <= nvars):
            k = _kostka(transpose_partition(lam), nu)
            for (_e, b), v in c.terms.items():
                key = (nu + (0,) * (nvars - len(nu)), b)
                view[key] = view.get(key, 0) + k * v
    return BetaPoly(nvars, _orbits(view, nvars), max_deg)


def jp_jq(
    flavor: str,
    lam: StrictPartition,
    mu: StrictPartition = EMPTY,
    nvars: int = 3,
    max_deg: int | None = None,
) -> BetaPoly:
    """jp or jq of lam/mu: omega of the matching dual function, which is faithful
    in |lam/mu| variables, read off its Schur coefficients by Kostka numbers."""
    dual_flavor = {"jp": "gp", "jq": "gq"}[flavor]
    if not contains(mu, lam):
        return BetaPoly.zero(nvars, max_deg)
    key = ["jpjq", flavor, str(lam), str(mu), nvars, max_deg]

    def compute() -> BetaPoly:
        return _omega(evaluate(dual_flavor, lam, mu, max(1, lam.size - mu.size)), nvars, max_deg)

    return CACHE.get_or_compute(key, compute, BetaPoly.to_json_obj, BetaPoly.from_json_obj)


# -- the one entry point from a family name ------------------------------------

FUNCS = ("P", "Q", "GP", "GQ", "gp", "gq", "jp", "jq", "JP", "JQ", "schur")


def evaluate(
    func: str,
    outer: tuple[int, ...] | StrictPartition,
    inner: tuple[int, ...] | StrictPartition = (),
    nvars: int = 3,
    max_deg: int | None = None,
    doubleslash: bool = False,
) -> BetaPoly:
    """The family `func` at outer/inner (outer//inner with doubleslash).

    `schur` takes a plain partition and no inner shape; the strict families
    take strict partitions.  A straight gp/gq is read from the dual table and
    a skew one from the skew-dual table; JP/JQ is GP/GQ, or its double slash,
    under the geometric substitution.  Double slash has a meaning only for
    GP/GQ/JP/JQ.
    """
    if func not in FUNCS:
        raise ValueError(f"unknown function {func!r}; expected one of {FUNCS}")
    if nvars < 1:
        raise ParameterError(f"the number of variables must be at least 1, got {nvars}")
    if max_deg is not None and max_deg < 0:
        raise ParameterError(f"max_deg must be at least 0, got {max_deg}")
    if doubleslash and func not in ("GP", "GQ", "JP", "JQ"):
        raise ParameterError(f"the double-slash variant is defined only for GP/GQ/JP/JQ, not {func}")
    if func == "schur":
        if tuple(inner):
            raise ParameterError("schur takes a plain partition, not a skew shape")
        return schur(tuple(outer), nvars, max_deg)
    lam, mu = StrictPartition(tuple(outer)), StrictPartition(tuple(inner))
    if func in ("P", "Q"):
        return classical_pq(func, SkewShape(lam, mu), nvars, max_deg)
    if func in ("gp", "gq"):
        dual = dual_skew(func, lam, mu, nvars) if mu.parts else dual_gp_gq(func, lam, nvars)
        return dual.truncated(max_deg)
    if func in ("jp", "jq"):
        return jp_jq(func, lam, mu, nvars, max_deg)
    if max_deg is None:
        raise ParameterError(f"{func} needs a finite max_deg")
    base = {"JP": "GP", "JQ": "GQ"}.get(func, func)
    if doubleslash:
        poly = gp_gq_doubleslash(base, lam, mu, nvars, max_deg)
    else:
        poly = gp_gq(base, SkewShape(lam, mu), nvars, max_deg)
    return poly if base == func else poly.substitute_geometric()


def structure_constants(
    kind: str,
    first: StrictPartition,
    second: StrictPartition,
    degree_cap: int,
) -> dict[StrictPartition, int]:
    """The integer tables a,b (products) and ahat,bhat (double-slash expansions).

    a: GP_mu*GP_nu over GP; b: GQ_mu*GQ_nu over GQ, with beta^(|lam|-|mu|-|nu|).
    ahat: GQ_{lam//mu} over GQ; bhat: GP_{lam//mu} over GP, with
    beta^(|mu|+|nu|-|lam|).  Entries are reported up to the degree cap only,
    as a dict from the running index to its integer.
    """
    nvars = max(1, _ell_max(degree_cap))
    if kind in ("a", "b"):
        basis = {"a": "GP", "b": "GQ"}[kind]
        mu, nu = first, second
        p = gp_gq(basis, straight(mu), nvars, degree_cap) * gp_gq(
            basis, straight(nu), nvars, degree_cap
        )
        shift = lambda lam: lam.size - mu.size - nu.size
    elif kind in ("ahat", "bhat"):
        basis = {"ahat": "GQ", "bhat": "GP"}[kind]
        lam, mu = first, second
        p = gp_gq_doubleslash(basis, lam, mu, nvars, degree_cap)
        shift = lambda nu: mu.size + nu.size - lam.size
    else:
        raise ValueError(f"unknown kind {kind!r}")
    exp = expand_in_basis(p, basis)
    if not exp.residual_zero:
        raise KshiftError(f"structure expansion has residual below the cap: {kind}")
    table: dict[StrictPartition, int] = {}
    for index, c in exp.coeffs.items():
        sp = StrictPartition(index)
        if len(c.terms) != 1:
            raise KshiftError(f"{kind}-coefficient at {sp} is not a single beta power: {c.coeff_list()}")
        [((_e, k), m)] = c.terms.items()
        if k != shift(sp):
            raise KshiftError(
                f"{kind}-coefficient at {sp} has beta power {k}, expected {shift(sp)}"
            )
        table[sp] = m
    return table


# -- exact symmetrization (rational evaluation) --------------------------------


def _oplus(x: Fraction, y: Fraction, beta: Fraction) -> Fraction:
    return x + y + beta * x * y


def _ominus(x: Fraction, y: Fraction, beta: Fraction) -> Fraction:
    return (x - y) / (1 + beta * y)


def symmetrization_eval(
    flavor: str,
    lam: tuple[int, ...],
    nvars: int,
    pt: RationalPoint,
) -> Fraction:
    """Evaluate the symmetrized rational formulas exactly at a rational point.

    GP/GQ sum over all of S_n with prefactor 1/(n-r)!; A/B sum over S_r
    permuting only the first r coordinates with prefactor 1/r!, where r is the
    index of the last nonzero entry.
    """
    if nvars > 6:
        raise ResourceLimitError("symmetrization_eval is capped at 6 variables")
    if len(pt.coords) != nvars:
        raise ParameterError("point size does not match nvars")
    beta = pt.beta
    coords = pt.coords
    if len(set(coords)) != nvars:
        raise SingularPointError("coordinates must be pairwise distinct")
    if any(1 + beta * x == 0 for x in coords):
        raise SingularPointError("1 + beta*x vanishes at a coordinate")
    lam = tuple(lam)
    qflavor = flavor in ("GQ", "B")
    if flavor in ("GP", "GQ"):
        if any(lam[i] <= lam[i + 1] for i in range(len(lam) - 1)):
            raise ParameterError("GP/GQ indices must be strict partitions")
        r = len(lam)
        if r > nvars:
            raise ParameterError("index longer than nvars")
        perms = itertools.permutations(range(nvars))
        norm = factorial(nvars - r)
    elif flavor in ("A", "B"):
        r = max((i + 1 for i, v in enumerate(lam) if v), default=0)
        if r == 0:
            return Fraction(1)
        if r > nvars:
            raise ParameterError("index longer than nvars")
        perms = (
            p + tuple(range(r, nvars)) for p in itertools.permutations(range(r))
        )
        norm = factorial(r)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    exps = lam + (0,) * (nvars - len(lam))
    total = Fraction(0)
    for perm in perms:
        xs = [coords[i] for i in perm]
        term = Fraction(1)
        for i in range(nvars):
            if exps[i]:
                term *= xs[i] ** exps[i]
        for i in range(r):
            if qflavor:
                term *= 2 + beta * xs[i]
            for j in range(i + 1, nvars):
                denom = _ominus(xs[i], xs[j], beta)
                term *= _oplus(xs[i], xs[j], beta) / denom
        total += term
    return total / norm


# -- the one-row GQ generating series ------------------------------------------


def gq_onerow_series(nvars: int, max_power: int, max_deg: int) -> list[BetaPoly]:
    """Coefficients of u^-n, 0 <= n <= max_power, of the one-row series.

    The series (1/(1+beta*u)) prod_j (1+(t+beta)x_j)/(1+(t+beta)xbar_j) with
    t = u^-1 rearranges, for its positive part, to
    1 + sum over nonempty subsets T of t (t+beta)^(|T|-1)
        prod_{j in T} (2x_j + beta x_j^2) / (1 - x_j t),
    which is expanded with exact polynomial arithmetic in t.
    """
    N = max_power
    zero = BetaPoly.zero(nvars, max_deg)
    one = BetaPoly.const(nvars, 1, max_deg)
    total = [zero] * (N + 1)
    total[0] = one
    if N == 0:
        return total

    def series_mul(a: list[BetaPoly], b: list[BetaPoly]) -> list[BetaPoly]:
        out = [zero] * (N + 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if i + j > N or bj.is_zero():
                    continue
                out[i + j] = out[i + j] + ai * bj
        return out

    t_plus_beta = [one.times_beta(1), one] + [zero] * (N - 1)
    for size in range(1, nvars + 1):
        for subset in itertools.combinations(range(1, nvars + 1), size):
            acc = [zero, one] + [zero] * (N - 1)  # the series "t"
            for _ in range(size - 1):
                acc = series_mul(acc, t_plus_beta)
            for j in subset:
                xj = BetaPoly.variable(j, nvars, max_deg)
                factor = xj.scale(2) + (xj * xj).times_beta(1)
                geom = [xj**k for k in range(N + 1)]
                acc = series_mul(acc, [g * factor for g in geom])
            for n in range(N + 1):
                total[n] = total[n] + acc[n]
    return total
