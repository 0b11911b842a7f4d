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

The engine holds a symmetric polynomial by its view, its terms at partition
exponents padded to the number of variables (in each block, for one symmetric in
x and in y apart): every rearrangement repeats them.  The dual and skew-dual tables
store views, each entry solved (or peeled) once a process and read in other alphabets
by restriction (`_restricted`), and GP/GQ are read off the tableau tallies at partitions
(`_tally_view`).  omega, x -> x/(1 - beta x) and the product with a fixed kernel are
linear over Z[beta] and the m_lam are a basis (Macdonald I.2), so each maps a view
through its memoised images of the m_lam (`_mapped`): jp/jq, JP/JQ and the Cauchy
check's products are views too (`evaluate_view`).  Only the edge writes a value out to
its orbits, once and at its cut (`_written`), as `evaluate` returns it; only
`BetaPoly.view` reads one back: a caller's polynomial, the kernel, a substituted
coproduct side, P/Q, schur.  Kostka numbers give s_lam the view K_{lam,nu}.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, factorial
from operator import ge, lt, sub

from .cache import CACHE
from .errors import (
    KshiftError,
    NonDivisibleError,
    NonSymmetricError,
    ParameterError,
    ResourceLimitError,
    SingularPointError,
)
from .polyring import BetaPoly, RationalPoint, _fitted
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
from .tableaux import _tally, content_count, genfun_from_tableaux

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
        raise ParameterError(f"not a partition: {lam}")
    return _written(_basis_view("schur", lam, nvars, max_deg), nvars, max_deg)


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
    key = ["gpgq", flavor, str(shape), nvars, max_deg]
    return CACHE.get_or_compute(key, lambda: genfun_from_tableaux(fam, shape, nvars, max_deg), BetaPoly.to_json_obj, BetaPoly.from_json_obj)


def gp_gq_doubleslash(flavor: str, lam: StrictPartition, mu: StrictPartition, nvars: int, max_deg: int) -> BetaPoly:
    """The double-slash function: sum of beta^|mu/nu| GP_{lam/nu} over inners (zero unless mu <= lam)."""
    total = BetaPoly.zero(nvars, max_deg)
    for nu in doubleslash_inners(mu) if contains(mu, lam) else ():
        total = total + gp_gq(flavor, SkewShape(lam, nu), nvars, max_deg).times_beta(mu.size - nu.size)
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


def _written(view: dict, nvars: int, max_deg: int | None = None, split: int | None = None) -> BetaPoly:
    """The polynomial in nvars variables whose view this is, cut at max_deg before it is written
    out to its orbits (in each block when split after the first `split` variables)."""
    nx = nvars if split is None else split
    if max_deg is not None:
        view = {(e, b): c for (e, b), c in view.items() if sum(e[:nx]) <= max_deg and sum(e[nx:]) <= max_deg}
    terms = _orbits(view, nx)
    if split is not None:
        terms = {(e[:split] + f, b): c for (e, b), c in terms.items() for f in _rearrangements(e[split:])}
    return _fitted(nvars, terms, max_deg, split)


def _view(p: BetaPoly, internal: bool = False) -> dict:
    """p by its view (`BetaPoly.view`), once it is seen to be symmetric.  One that is not is a
    usage error for a caller's polynomial, and an internal KshiftError for a computed one."""
    view = p.view()
    if view is None:
        raise KshiftError("a computed polynomial is not symmetric") if internal else NonSymmetricError("input polynomial is not symmetric")
    return view


def _split_view(view: dict, nx: int) -> dict:
    """The view of a symmetric polynomial split after its first nx variables, keyed
    by (x partition + y partition, beta power): each joint partition's parts are
    divided between the two blocks in every way."""
    out = {}
    for (rho, b), c in view.items():
        for xs in set(itertools.combinations(rho, nx)):
            ys = list(rho)
            for x in xs:
                ys.remove(x)
            out[xs + tuple(ys), b] = c
    return out


@functools.cache
def _product_plan(exps: frozenset, blocks: tuple[int, ...], max_deg: int) -> dict:
    """{remainder: the pairs (lam, e)} over the exponents e and every lam >= e that is a
    partition of degree <= max_deg in each block, padded to the block's length, where the
    remainder is lam - e sorted in each block, combined from each block's pairs (`_above`)."""
    cuts = list(itertools.accumulate(blocks, initial=0))
    plan: dict[tuple[int, ...], list] = {}
    for e in exps:
        for pairs in itertools.product(*(_above(e[i:j], max_deg) for i, j in zip(cuts, cuts[1:]))):
            lams, rests = zip(*pairs)
            plan.setdefault(sum(rests, ()), []).append((sum(lams, ()), e))
    return plan


@functools.cache
def _above(f: tuple[int, ...], max_deg: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(lam, lam - f sorted down) for each partition lam >= f of degree <= max_deg, padded to len(f)."""
    n = len(f)
    padded = (p + (0,) * (n - len(p)) for d in range(sum(f), max_deg + 1) for p in partitions_of(d) if len(p) <= n)
    return tuple((lam, tuple(sorted(map(sub, lam, f), reverse=True))) for lam in padded if all(map(ge, lam, f)))


def _columns(poly: BetaPoly) -> dict:
    """{rest: [(lam, b, c)]}: the terms c beta^b x^lam of poly m_rest at partitions lam of degree <= poly's
    max_deg (in each block), over the pairs `_product_plan` lists once per exponent set of poly's sign twists."""
    blocks = (poly.nvars,) if poly.split is None else (poly.split, poly.nvars - poly.split)
    by_exp: dict[tuple[int, ...], list] = {}
    for (e, b), c in poly.terms.items():
        by_exp.setdefault(e, []).append((b, c))
    plan = _product_plan(frozenset(by_exp), blocks, poly.max_deg)
    return {rest: [(lam, b, c) for lam, e in pairs for b, c in by_exp[e]] for rest, pairs in plan.items()}


def _times_view(columns: dict, view: dict) -> dict:
    """The partition terms of poly g, cut at poly's max_deg, for g symmetric in each block and given by its view:
    multiplying by poly is linear, so `_mapped` through poly's `_columns`, the images of the m_rest.  They are
    the view of poly g when poly is symmetric too, which the caller checks: no symmetry is tested here."""
    return _mapped(view, lambda rest: columns.get(rest, ()))


def _mapped(view: dict, image) -> dict:
    """The view of L(g), L linear over Z[beta], from g's view and image(e), the terms (f, k, a) of L(m_e) = sum a
    beta^k m_f: the m_e are a basis (Macdonald I.2).  Each caller memoises its images, computed once a process."""
    out: dict = {}
    for (e, b), c in view.items():
        for f, k, a in image(e):
            out[f, b + k] = out.get((f, b + k), 0) + a * c
    return {key: v for key, v in out.items() if v}


def _divided(view: dict, d: int) -> dict:
    """The view divided exactly by d, without its zero terms."""
    bad = next((c for c in view.values() if c % d), 0)
    if bad:
        raise NonDivisibleError(f"{bad} is not divisible by {d}")
    return {k: c // d for k, c in view.items() if c}


@functools.cache
def _kernel_weight(s: int, b: int) -> int:
    """[t^b] ((2+t)/(1+t))^s, where ((2+t)/(1+t))^s = sum_k C(s,k) (1+t)^-k."""
    return (b == 0) + sum(comb(s, k) * (-1) ** b * comb(k + b - 1, b) for k in range(1, s + 1))


class _Places(dict):
    """{code: place} of the indexed partitions, and of a rearrangement once read: its bytes sorted down."""

    def __missing__(self, code: int) -> int:
        place = self[code] = self[int.from_bytes(sorted(code.to_bytes(code.bit_length() + 7 >> 3, "little"), reverse=True), "little")]
        return place


_INDEX: dict[int, tuple[list, _Places]] = {}


def _indexed(ny: int, top: int) -> tuple[list, _Places]:
    """[(lam, |lam|, its code)] for the partitions lam of at most ny parts, padded to ny, in order of size,
    and their `_Places`: one pair per ny, grown in place to every size <= top.  A code reads the parts
    (below 256) as bytes, so code(e - f) = code(e) - code(f) for f <= e."""
    lams, slot = _INDEX.setdefault(ny, ([], _Places()))
    for n in range(lams[-1][1] + 1 if lams else 0, top + 1):
        for lam in (p + (0,) * (ny - len(p)) for p in partitions_of(n) if len(p) <= ny):
            slot[code := int.from_bytes(bytes(lam), "little")] = len(lams)
            lams.append((lam, n, code))
    return lams, slot


@functools.cache
def _kernel_row(parts: tuple[int, ...], ny: int) -> list[int]:
    """The view of prod_i k_{parts_i}(y), the coefficient of x^parts in prod_j (1 - xbar*y_j)/(1 - x*y_j),
    as a list over `_indexed(ny, |parts|)`: it is homogeneous of degree |parts| in (y, beta).

    Per y_j the factor is (1 + (beta+y_j)x) / ((1 + beta*x)(1 - y_j*x)), so for |f| + b = d
    the coefficient of beta^b y^f in k_d is `_kernel_weight(s, b)`, s the number of nonzero
    parts of f.  With A the product of the earlier slices, of degree m, [y^lam](A k_d) is
    sum_f A[lam - f] k_d[f] over f <= lam, n - m <= |f| <= d, n = |lam|: `_below` lists the f
    once, and A's place of each lam - f is read off `_Places` by its code, sorted once if at all."""
    lams, slot = _indexed(ny, sum(parts))
    if not parts:
        return [1]
    m, d, head, row = sum(parts[:-1]), parts[-1], _kernel_row(parts[:-1], ny), []
    weights = [[_kernel_weight(s, d - r) for s in range(ny + 1)] for r in range(d + 1)]
    for lam, n, code in itertools.takewhile(lambda entry: entry[1] <= m + d, lams):
        total = 0
        for r in range(max(0, n - m), min(d, n) + 1):
            for f, s in _below(tuple(map(min, lam, itertools.repeat(r))), r):
                total += head[slot[code - f]] * weights[r][s]
        row.append(total)
    return row


@functools.cache
def _below(caps: tuple[int, ...], r: int) -> tuple[tuple[int, int], ...]:
    """(the code of f, its number of nonzero parts) for each f <= caps with |f| = r; each pair is one
    object wherever it recurs (`_prepended`), which keeps the memo small."""
    if not caps:
        return ((0, 0),) if r == 0 else ()
    return tuple(_prepended(x, f, s) for x in range(min(caps[0], r) + 1) for f, s in _below(caps[1:], r - x))


@functools.cache
def _prepended(x: int, f: int, s: int) -> tuple[int, int]:
    return x + (f << 8), s + (x > 0)


def _encode_tables(tables: dict[int, dict]) -> dict:
    """Tables of views, one per alphabet and indexed by strict partitions, as a cache value."""
    return {str(n): {str(mu): [[list(e), b, str(c)] for (e, b), c in view.items()] for mu, view in table.items()} for n, table in tables.items()}


def _decode_tables(obj: dict) -> dict[int, dict]:
    return {int(n): {StrictPartition.parse(k): {(tuple(e), b): int(c) for e, b, c in v} for k, v in t.items()} for n, t in obj.items()}


def _restricted(view: dict, n: int, ny: int) -> dict:
    """A view in n variables read in ny.  Setting y_{ny+1}, ..., y_n to 0, a ring map on symmetric functions
    (Macdonald I.2), drops each exponent with more than ny nonzero parts; for ny > n it pads, exact for degree <= n."""
    if ny >= n:
        return {(e + (0,) * (ny - n), b): c for (e, b), c in view.items()}
    return {(e[:ny], b): c for (e, b), c in view.items() if not e[ny]}


def dual_table(flavor: str, S: int, ny: int) -> dict[StrictPartition, dict]:
    """The views of all dual functions gp_mu (or gq_mu) with |mu| <= S, in ny variables.

    The coefficients of x^mu in the Cauchy identity kernel = sum_nu GQ_nu(x) gp_nu(y)
    (respectively GP/gq) give a triangular system, solved in candidate order on the
    y-symmetric views of prod_i k_{mu_i}(y) and of each entry, with [x^mu] GQ_nu =
    beta^(|mu|-|nu|) times `tableaux.content_count` (the GP/GQ coproduct).  The
    values are exact and do not depend on S, and one known in n variables serves every
    ny <= n, and every ny once n >= |mu| (`_dual_views`); a smaller S is served as the
    prefix enumerate_strict_partitions(S).  Entries are stored as views; `dual_gp_gq`
    writes one out, and a check reads one through `evaluate_view`.
    """
    table = _dual_views(flavor, S, ny)
    return {mu: table[mu] for mu in enumerate_strict_partitions(S)}


def _dual_views(flavor: str, S: int, ny: int) -> dict[StrictPartition, dict]:
    """The kept table of (flavor, ny), extended to every |mu| <= S.  One cache value per flavor holds
    a table per alphabet asked for, and only an entry that no other alphabet's table covers is solved,
    in ny variables and never in more (`_solve_duals`)."""
    if flavor not in ("gp", "gq"):
        raise KshiftError(f"flavor must be gp or gq, got {flavor!r}")
    candidates = enumerate_strict_partitions(S)
    key = ["dual_table", flavor]
    tables = CACHE.get_or_compute(key, dict, _encode_tables, _decode_tables)
    table = tables.setdefault(ny, {})
    if len(table) < len(candidates):
        _solve_duals(flavor, tables, candidates, ny)
        CACHE.store(key, tables, _encode_tables)
    return table


def _solve_duals(flavor: str, tables: dict[int, dict], candidates: list[StrictPartition], ny: int) -> dict:
    """Add to the table of ny each candidate it lacks, given all the earlier ones: restricted from
    another alphabet's table that covers it, or else solved as a list over `_indexed`, as the kernel
    rows are, so subtracting n times an earlier one is one pass over its list, with no key built."""
    p_basis, table = flavor == "gq", tables[ny]  # gq is dual to GP, gp to GQ
    lams = _indexed(ny, candidates[-1].size)[0]
    ends = {n: i + 1 for i, (_, n, _) in enumerate(lams)}  # the places of every size <= n
    rows: dict[StrictPartition, list] = {}
    for i, mu in enumerate(candidates):
        covering = [n for n, known in tables.items() if mu in known and (n > ny or n >= mu.size)]
        if mu not in table and covering:
            table[mu] = _restricted(tables[covering[0]][mu], covering[0], ny)
        if mu in table:
            continue
        acc = _kernel_row(mu.parts, ny)[:]
        for prev in candidates[:i]:
            n = content_count(p_basis, prev.parts, mu.parts)
            if n:
                if prev not in rows:
                    rows[prev] = [table[prev].get((lam, prev.size - m), 0) for lam, m, _ in lams[: ends[prev.size]]]
                acc[: len(rows[prev])] = map(sub, acc, map(n.__mul__, rows[prev]))
        lead, expected = content_count(p_basis, mu.parts, mu.parts), (1 if p_basis else 2) ** len(mu)
        if lead != expected:
            raise KshiftError(f"triangularity failure at {mu}: leading coefficient {lead}, expected {expected}")
        table[mu] = _divided({(lam, mu.size - n): c for (lam, n, _), c in zip(lams, acc)}, expected)
    return table


def dual_gp_gq(flavor: str, lam: StrictPartition, nvars_y: int, max_deg: int | None = None, mu: StrictPartition = EMPTY) -> BetaPoly:
    """The dual function gp_lam or gq_lam, or the skew one gp_{lam/mu} (zero exactly when mu is not
    contained in lam), as an exact polynomial in y, cut at max_deg."""
    return _written(_family_view(flavor, lam, mu, nvars_y, max_deg), nvars_y, max_deg)


# -- the expansion engine ------------------------------------------------------

_MAX_FIRST = {"gp", "gq", "jp", "jq"}


def _basis_lead(basis: str, index: tuple[int, ...]) -> int:
    return 2 ** len(index) if basis in ("Q", "GQ", "gq", "jq") else 1


def _basis_indices(basis: str, degree: int, nvars: int) -> list[tuple[int, ...]]:
    if basis == "schur":
        return [p for p in partitions_of(degree) if len(p) <= nvars]
    return [p.parts for p in strict_partitions_of(degree) if len(p) <= nvars]


@functools.cache
def _basis_view(basis: str, index: tuple[int, ...], nx: int, max_deg: int | None) -> dict:
    """The view of a basis element in nx variables, cut at max_deg.

    gp/gq come from the dual tables, schur from Kostka numbers, and P/Q (and
    GP/GQ at a finite max_deg) from content counts: [x^nu] GP_lam is
    beta^(|nu|-|lam|) content_count(lam, nu).  Any other basis is read off the
    view of `evaluate`."""
    size, pad = sum(index), lambda nu: nu + (0,) * (nx - len(nu))
    if basis in ("gp", "gq"):
        view = _dual_views(basis, size, nx)[StrictPartition(index)]
    elif basis == "schur":
        view = {(pad(nu), 0): _kostka(index, nu) for nu in partitions_of(size) if len(nu) <= nx}
    elif basis in ("P", "Q") or (basis in ("GP", "GQ") and max_deg is not None):
        nus = (nu for d in range(size, (size if basis in ("P", "Q") else max_deg) + 1) for nu in partitions_of(d))
        view = {(pad(nu), sum(nu) - size): content_count(basis[-1] == "P", index, nu) for nu in nus if len(nu) <= nx}
    else:
        view = _view(evaluate(basis, index, (), nx, max_deg), internal=True)
    return {(e, b): c for (e, b), c in view.items() if c and (max_deg is None or sum(e) <= max_deg)}


class BasisExpansion:
    """Coefficients of an input against one family, plus the unexplained rest."""

    def __init__(self, basis: str, nvars: int, max_deg: int | None,
                 coeffs: dict[tuple[int, ...], BetaPoly] | None = None, residual: BetaPoly | None = None):
        self.basis, self.nvars, self.max_deg = basis, nvars, max_deg
        self.coeffs = {} if coeffs is None else coeffs
        self.residual = residual

    @property
    def residual_zero(self) -> bool:
        return self.residual is None or self.residual.is_zero()

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


def _peel(view: dict, basis: str, nx: int, max_deg: int | None) -> tuple[dict[tuple[int, ...], dict], dict]:
    """Greedy triangular peel of a view against the basis in its first nx variables.

    The view holds a polynomial symmetric in its first nx variables and in the
    other ny, keyed by (x partition + y partition, beta power); with ny = 0 it is
    a one-alphabet view.  Each coefficient is a y-view (an element of Z[beta]
    keyed by ((), beta power) when ny = 0), and each basis element subtracted is
    its `_basis_view`.  Returns the coefficients in peel order and the residual
    view, what the basis cannot explain.
    """
    # by triangularity a peel step changes no x-monomial already visited, so
    # what the basis cannot explain is left in rest: rest is the residual
    rest: dict[tuple[int, ...], dict] = {}
    for (e, b), v in view.items():
        rest.setdefault(e[:nx], {})[e[nx:], b] = v
    top = max(map(sum, rest), default=0) if max_deg is None else max_deg
    degrees = range(top, -1, -1) if basis in _MAX_FIRST else range(top + 1)
    coeffs: dict[tuple[int, ...], dict] = {}
    for d in degrees:
        for index in _basis_indices(basis, d, nx):
            c = _divided(rest.get(index + (0,) * (nx - len(index)), {}), _basis_lead(basis, index))
            if not c:
                continue
            coeffs[index] = c
            for (ex, bx), vx in _basis_view(basis, index, nx, max_deg).items():
                bucket = rest.setdefault(ex, {})
                for (ey, by), vy in c.items():
                    k = (ey, bx + by)
                    bucket[k] = bucket.get(k, 0) - vx * vy
    return coeffs, {(x + e, b): v for x, bucket in rest.items() for (e, b), v in bucket.items() if v}


def expand_in_basis(p: BetaPoly, basis: str) -> BasisExpansion:
    """Greedy triangular peel of p against the chosen family.

    The caller must supply p in enough variables: nvars at least the length
    of every index that can appear (for the Schur basis, nvars >= max degree).
    """
    if p.split is not None:
        raise ParameterError("expand_in_basis needs a one-alphabet polynomial")
    coeffs, rest = _peel(_view(p), basis, p.nvars, p.max_deg)
    scalars = {index: BetaPoly(0, c) for index, c in coeffs.items()}
    return BasisExpansion(basis, p.nvars, p.max_deg, scalars, _written(rest, p.nvars, p.max_deg))


# -- skew duals, omega, and the j/J families -----------------------------------


def dual_skew_table(flavor: str, lam: StrictPartition, ny: int) -> dict[StrictPartition, dict]:
    """The views of all skew duals gp_{lam/mu} (or gq) in ny variables.

    Uses the two-alphabet identity g_lam(x,y) = sum_mu g_mu(x) g_{lam/mu}(y):
    the split view of the dual over nx+ny variables, built from its view in
    the dual table, is peeled over its x-block in the same dual basis, and each
    coefficient is a y-view.  One cache value per (flavor, lam) holds a table per
    alphabet; one peeled in n variables serves every ny <= n, and every ny once
    n >= |lam| (`_restricted`), so only an alphabet none covers is peeled.
    """
    key = ["dual_skew_table", flavor, str(lam)]
    tables = CACHE.get_or_compute(key, dict, _encode_tables, _decode_tables)
    if ny not in tables:
        n = next((n for n in tables if n > ny or n >= lam.size), None)
        if n is not None:
            tables[ny] = {mu: v for mu, v in ((mu, _restricted(v, n, ny)) for mu, v in tables[n].items()) if v}
        else:
            nx = max(1, len(lam))
            coeffs, rest = _peel(_split_view(_dual_views(flavor, lam.size, nx + ny)[lam], nx), flavor, nx, None)
            if rest:
                raise KshiftError(f"split expansion has a nonzero residual in basis {flavor}")
            tables[ny] = {StrictPartition(idx): c for idx, c in coeffs.items()}
        CACHE.store(key, tables, _encode_tables)
    return tables[ny]


def _omega(view: dict, n: int, nvars: int, max_deg: int | None) -> dict:
    """The view of omega(g) in nvars variables, cut at max_deg, from g's view in its n variables, where it is
    faithful: omega is linear, so it is `_mapped` through its memoised image of each m_nu (`_omega_image`)."""
    return _mapped(view, lambda nu: _omega_image(nu, nvars, max_deg))


@functools.cache
def _omega_image(nu: tuple[int, ...], nvars: int, max_deg: int | None) -> tuple:
    """omega(m_nu) in nvars variables, cut at max_deg: m_nu's Schur coefficients c_lam from the peel in len(nu)
    variables, then [m_kappa] = sum_lam c_lam K_{lam',kappa}, zero past max_deg since omega keeps degrees.  An nu
    off the partitions, at any degree, is the peel's residual: a KshiftError, as no symmetric g's view has one."""
    if any(map(lt, nu, nu[1:])):
        raise KshiftError("nonzero Schur residual")
    if max_deg is not None and sum(nu) > max_deg:
        return ()
    coeffs, _ = _peel({(nu, 0): 1}, "schur", len(nu), None)
    out: dict = {}
    for lam, c in coeffs.items():
        for (kappa, _), k in _basis_view("schur", transpose_partition(lam), nvars, max_deg).items():
            out[kappa] = out.get(kappa, 0) + k * c[(), 0]
    return tuple((kappa, 0, a) for kappa, a in out.items() if a)


@functools.cache
def _geometric_image(e: tuple[int, ...], max_deg: int) -> tuple:
    """m_e under x_i -> x_i/(1 - beta x_i), cut at max_deg: `substitute_geometric` of m_e written out, at partitions."""
    image = _written({(e, 0): 1}, len(e), max_deg).substitute_geometric()
    return tuple((f, k, a) for (f, k), a in image.terms.items() if not any(map(lt, f, f[1:])))


def _tally_view(flavor: str, lam: StrictPartition, mu: StrictPartition, nvars: int, max_deg: int, doubleslash: bool) -> dict | None:
    """The view of GP or GQ of lam/mu in nvars variables, cut at max_deg, or with doubleslash of lam//mu, the
    sum of beta^|mu/nu| GP_{lam/nu} over the inners nu: a sum of `_shape_view`s, None if one is."""
    out: dict = {}
    for nu in (doubleslash_inners(mu) if contains(mu, lam) else ()) if doubleslash else (mu,):
        view = _shape_view(flavor, SkewShape(lam, nu), nvars, max_deg)
        if view is None:
            return None
        for (e, b), c in view.items():
            out[e, b + mu.size - nu.size] = out.get((e, b + mu.size - nu.size), 0) + c
    return {key: c for key, c in out.items() if c}


@functools.cache
def _shape_view(flavor: str, shape: SkewShape, nvars: int, max_deg: int) -> dict | None:
    """The view of GP or GQ of a shape in nvars variables, cut at max_deg, kept per process: its tally's counts
    at partitions e, [x^e beta^(|e| - |shape|)].  None unless each count is its sorted exponent's and no orbit lacks one."""
    if not shape.valid or shape.size > max_deg:
        return {}
    tally = _tally(shape, nvars, flavor == "GP", False, max_deg - shape.size)
    sorts = [tuple(sorted(e, reverse=True)) for e in tally]
    lams = dict.fromkeys(sorts)
    if list(map(tally.get, sorts)) != list(tally.values()) or len(tally) != sum(len(_rearrangements(e)) for e in lams):
        return None
    return {(e, sum(e) - shape.size): tally[e] for e in lams}


def _family_view(func: str, lam: StrictPartition, mu: StrictPartition, nvars: int, max_deg: int | None) -> dict:
    """The view of gp, gq, jp or jq of lam/mu in nvars variables, cut at max_deg: gp/gq from the
    dual or skew-dual table, and jp/jq as omega of the matching dual's view, which is faithful in
    |lam/mu| variables."""
    if not contains(mu, lam):
        return {}
    if func in ("jp", "jq"):
        n = max(1, lam.size - mu.size)
        return _omega(_family_view("g" + func[1], lam, mu, n, None), n, nvars, max_deg)
    view = dual_skew_table(func, lam, nvars).get(mu, {}) if mu.parts else _dual_views(func, lam.size, nvars)[lam]
    return view if max_deg is None else {(e, b): c for (e, b), c in view.items() if sum(e) <= max_deg}


def jp_jq(flavor: str, lam: StrictPartition, mu: StrictPartition = EMPTY, nvars: int = 3, max_deg: int | None = None) -> BetaPoly:
    """jp or jq of lam/mu: omega of the view of the matching dual function, which
    is faithful in |lam/mu| variables, written out once in nvars variables."""
    if not contains(mu, lam):
        return BetaPoly.zero(nvars, max_deg)
    compute = lambda: _written(_family_view(flavor, lam, mu, nvars, max_deg), nvars, max_deg)
    return CACHE.get_or_compute(["jpjq", flavor, str(lam), str(mu), nvars, max_deg], compute, BetaPoly.to_json_obj, BetaPoly.from_json_obj)


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
        raise ParameterError(f"unknown function {func!r}; expected one of {FUNCS}")
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
        return dual_gp_gq(func, lam, nvars, max_deg, mu)
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


def evaluate_view(func: str, outer, inner=(), nvars: int = 3, max_deg: int | None = None, doubleslash: bool = False) -> dict | None:
    """The view of `evaluate`'s value, or None when it is not symmetric: the theorem checks read every value here.
    gp/gq/jp/jq come from `_family_view`, GP/GQ off the tallies (`_tally_view`), and JP/JQ are GP/GQ under the linear
    x -> x/(1 - beta x), `_mapped` through its memoised image of each m_e; P/Q, schur and refusals go via `evaluate`."""
    if nvars >= 1 and (max_deg or 0) >= 0:
        if func in ("gp", "gq", "jp", "jq") and not doubleslash:
            return _family_view(func, StrictPartition(tuple(outer)), StrictPartition(tuple(inner)), nvars, max_deg)
        if func in ("GP", "GQ", "JP", "JQ") and max_deg is not None:
            view = _tally_view("G" + func[1], StrictPartition(tuple(outer)), StrictPartition(tuple(inner)), nvars, max_deg, doubleslash)
            return view if view is None or func[0] == "G" else _mapped(view, lambda e: _geometric_image(e, max_deg))
    return evaluate(func, outer, inner, nvars, max_deg, doubleslash).view()


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
        p = gp_gq(basis, straight(mu), nvars, degree_cap) * gp_gq(basis, straight(nu), nvars, degree_cap)
        shift = lambda lam: lam.size - mu.size - nu.size
    elif kind in ("ahat", "bhat"):
        basis = {"ahat": "GQ", "bhat": "GP"}[kind]
        lam, mu = first, second
        p = gp_gq_doubleslash(basis, lam, mu, nvars, degree_cap)
        shift = lambda nu: mu.size + nu.size - lam.size
    else:
        raise KshiftError(f"unknown kind {kind!r}")
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
            raise KshiftError(f"{kind}-coefficient at {sp} has beta power {k}, expected {shift(sp)}")
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
    from fractions import Fraction
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
        raise KshiftError(f"unknown flavor {flavor!r}")
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
    """Coefficients of u^-n, 0 <= n <= max_power, of the one-row series, cut at max_deg.

    The series (1/(1+beta*u)) prod_j (1+(t+beta)x_j)/(1+(t+beta)xbar_j) with
    t = u^-1 rearranges, for its positive part, to
    1 + sum over nonempty subsets T of t (t+beta)^(|T|-1)
        prod_{j in T} (2x_j + beta x_j^2) / (1 - x_j t),
    so [u^-n] is [n = 0] plus, over nonempty T, 0 <= a < |T|, S a subset of T and multisets
    M of T with |M| = n-1-a, the terms C(|T|-1, a) 2^(|T|-|S|) beta^(|T|-1-a+|S|) x_T x_S x_M,
    each formed only if its x-degree |T| + |S| + |M| is at most max_deg.
    """
    series = [{((0,) * nvars, 0): 1}] + [{} for _ in range(max_power)]
    for t in range(1, min(nvars, max_deg) + 1):
        for T in itertools.combinations(range(nvars), t):
            for s in range(min(t, max_deg - t) + 1):
                for S in itertools.combinations(T, s):
                    for n, a in itertools.product(range(1, max_power + 1), range(t)):
                        if 0 <= n - 1 - a <= max_deg - t - s:
                            for M in itertools.combinations_with_replacement(T, n - 1 - a):
                                e = [0] * nvars
                                for j in T + S + M:
                                    e[j] += 1
                                key = (tuple(e), t - 1 - a + s)
                                series[n][key] = series[n].get(key, 0) + comb(t - 1, a) * 2 ** (t - s)
    return [BetaPoly(nvars, terms, max_deg) for terms in series]
