import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kshift.errors import KshiftError, NonDivisibleError, NvarsMismatchError, UnboundedTruncationError
from kshift.genfun import _divided
from kshift.polyring import (
    BetaPoly,
    RationalPoint,
    cauchy_kernel,
    tensor_split,
)


def var(i, nvars=2, max_deg=None):
    return BetaPoly.variable(i, nvars, max_deg)


def test_mul_examples():
    x1, x2 = var(1), var(2)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    t = BetaPoly.variable(1, 1, 1)
    assert (t * t).is_zero()  # truncation at degree 1
    assert var(1).times_beta(1) == scale_by(var(1), BetaPoly(0, {((), 1): 1}))


def test_equality_sees_the_split():
    plain = BetaPoly(2, {((1, 1), 0): 1}, 3)
    assert plain != BetaPoly(2, {((1, 1), 0): 1}, 3, 1)
    assert plain == BetaPoly(2, {((1, 1), 0): 1}, 3)


def test_equality_sees_the_truncation():
    assert BetaPoly(1, {((1,), 0): 1}, 3) != BetaPoly(1, {((1,), 0): 1}, 4)
    assert len({BetaPoly(1, {((1,), 0): 1}, 3), BetaPoly(1, {((1,), 0): 1}, None)}) == 2


def test_nvars_mismatch():
    with pytest.raises(NvarsMismatchError):
        _ = BetaPoly.variable(1, 2) + BetaPoly.variable(1, 3)


small_polys = st.builds(
    lambda terms: BetaPoly(2, {(tuple(e), b): c for (e, b, c) in terms}, 6),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.integers(0, 2),
            st.integers(-4, 4),
        ),
        max_size=5,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms_with_truncation(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert p + q == q + p


def coeff(p, exps):
    """The Z[beta] coefficient of the monomial x^exps in p, in 0 variables."""
    return BetaPoly(0, {((), b): c for (e, b), c in p.terms.items() if e == tuple(exps)})


def scale_by(p, s):
    """The product of p with s, an element of Z[beta] (a 0-variable polynomial)."""
    assert s.nvars == 0
    out = {}
    for (e, b), c in p.terms.items():
        for (_e, k), v in s.terms.items():
            out[e, b + k] = out.get((e, b + k), 0) + c * v
    return BetaPoly(p.nvars, out, p.max_deg, p.split)


def beta_zero(p):
    """The specialization beta = 0."""
    return BetaPoly(p.nvars, {(e, b): c for (e, b), c in p.terms.items() if b == 0}, p.max_deg, p.split)


def is_symmetric(p):
    """Symmetric in each block: exactly when `view` reads the polynomial."""
    return p.view() is not None


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_coefficients_are_zero_variable_polynomials(p, q):
    for e in {e for (e, _b) in p.terms}:
        c = coeff(p, e)
        assert c.nvars == 0 and c.max_deg is None
        ref = {b: v for (f, b), v in p.terms.items() if f == e}
        assert c.coeff_list() == [ref.get(b, 0) for b in range(max(ref) + 1)]
        total = BetaPoly.zero(2, 6)
        for (_f, b), v in c.terms.items():
            total = total + q.times_beta(b, v)
        assert scale_by(q, c) == total


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_eval_is_ring_homomorphism_untruncated(p, q):
    p = p.truncated(None)
    q = q.truncated(None)
    pt = RationalPoint(Fraction(2, 3), (Fraction(1, 2), Fraction(-3)))
    assert (p * q).eval_rational(pt) == p.eval_rational(pt) * q.eval_rational(pt)
    assert (p + q).eval_rational(pt) == p.eval_rational(pt) + q.eval_rational(pt)


def all_pairs(a, b, nvars, max_deg, split, join):
    """The test-only reference for a truncated product: pair every term, then
    let the constructor truncate."""
    out = {}
    for (e1, b1), c1 in a.terms.items():
        for (e2, b2), c2 in b.terms.items():
            key = (join(e1, e2), b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    ref = BetaPoly(nvars, out, max_deg, split)
    # the constructor keeps exactly the nonzero terms whose every block fits
    blocks = [slice(None)] if split is None else [slice(None, split), slice(split, None)]

    def fits(e):
        return max_deg is None or all(sum(e[s]) <= max_deg for s in blocks)

    assert ref.terms == {k: c for k, c in out.items() if c and fits(k[0])}
    return ref


def reference_mul(a, b):
    md = min((m for m in (a.max_deg, b.max_deg) if m is not None), default=None)
    return all_pairs(a, b, a.nvars, md, a.split, lambda e1, e2: tuple(x + y for x, y in zip(e1, e2)))


def reference_tensor_split(px, py, max_deg):
    return all_pairs(px, py, px.nvars + py.nvars, max_deg, px.nvars, lambda e1, e2: e1 + e2)


def polys(nvars, split=None):
    """Polynomials in nvars variables with several beta powers, coefficients of
    both signs, and max_deg None or 0..6."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.builds(
        lambda terms, max_deg: BetaPoly(nvars, terms, max_deg, split),
        st.dictionaries(st.tuples(exps, st.integers(0, 3)), st.integers(-4, 4), max_size=6),
        st.none() | st.integers(0, 6),
    )


@st.composite
def poly_pairs(draw):
    """Two operands of one product: 0-4 variables, split or not, each with its own truncation."""
    nvars = draw(st.integers(0, 4))
    split = draw(st.sampled_from([None] + list(range(1, nvars))))
    return draw(polys(nvars, split)), draw(polys(nvars, split))


@settings(max_examples=200, deadline=None)
@given(poly_pairs(), st.integers(0, 4))
def test_products_match_the_all_pairs_reference(pair, k):
    a, b = pair
    assert a * b == reference_mul(a, b)
    assert (a + b) * (a - b) == reference_mul(a + b, a - b)  # the cross terms cancel
    power = BetaPoly.const(a.nvars, 1, a.max_deg, a.split)
    for _ in range(k):
        power = reference_mul(power, a)
    assert a**k == power


def test_a_negative_power_is_an_internal_error():
    # only a bug asks for one, so it is no usage error (exit 2) but a KshiftError (exit 1)
    with pytest.raises(KshiftError) as info:
        BetaPoly.variable(1, 2, 3) ** -1
    assert type(info.value) is KshiftError


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3).flatmap(polys),
    st.integers(0, 3).flatmap(polys),
    st.none() | st.integers(0, 6),
)
def test_tensor_split_matches_the_all_pairs_reference(px, py, max_deg):
    assert tensor_split(px, py, max_deg) == reference_tensor_split(px, py, max_deg)


def test_eval_examples():
    x1 = BetaPoly.variable(1, 1)
    p = x1 + (x1 * x1).times_beta(1)
    assert p.eval_rational(RationalPoint(Fraction(1), (Fraction(2),))) == 6
    one = BetaPoly.const(3, 1)
    assert one.eval_rational(RationalPoint(Fraction(7, 3), (Fraction(1), Fraction(2), Fraction(3)))) == 1
    # x1 (+) x2 at beta=-1, x=(1,1)
    x1, x2 = var(1), var(2)
    oplus = x1 + x2 + (x1 * x2).times_beta(1)
    assert oplus.eval_rational(RationalPoint(Fraction(-1), (Fraction(1), Fraction(1)))) == 1


def test_substitute_geometric_examples():
    p = BetaPoly.variable(1, 1, 3)
    assert p.substitute_geometric().render() == "x1 + b*x1^2 + b^2*x1^3"
    one = BetaPoly.const(2, 1, 3)
    assert one.substitute_geometric() == one
    p2 = BetaPoly.variable(1, 2, 3) * BetaPoly.variable(2, 2, 3)
    got = p2.substitute_geometric()
    want = BetaPoly(
        2,
        {((1, 1), 0): 1, ((2, 1), 1): 1, ((1, 2), 1): 1},
        3,
    )
    assert got == want


def test_substitute_geometric_beta_zero_is_identity():
    p = BetaPoly(3, {((1, 2, 0), 0): 3, ((0, 1, 1), 2): -2}, 5)
    assert beta_zero(p.substitute_geometric()) == beta_zero(p)


@st.composite
def truncated_polys(draw):
    """Small polynomials in 1-3 variables, split or not, with a finite max_deg."""
    nvars = draw(st.integers(1, 3))
    split = draw(st.sampled_from([None] + list(range(1, nvars))))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(st.tuples(exps, st.integers(0, 2)), st.integers(-3, 3), max_size=4))
    return BetaPoly(nvars, terms, draw(st.integers(0, 4)), split)


@settings(max_examples=40, deadline=None)
@given(truncated_polys())
def test_substitute_geometric_matches_sympy(p):
    # x/(1 - b x) is exact up to degree max_deg as x * sum_{k <= max_deg} (b x)^k;
    # sympy expands the image and the constructor applies the truncation
    import sympy

    b, xs = sympy.Symbol("b"), sympy.symbols(f"x1:{p.nvars + 1}")
    image = [x * sum((b * x) ** k for k in range(p.max_deg + 1)) for x in xs]
    expr = sum(
        c * b**beta * sympy.prod([y**k for y, k in zip(image, e)]) for (e, beta), c in p.terms.items()
    )
    terms = {}
    for (*e, beta), c in sympy.Poly(sympy.expand(expr), *xs, b).terms():
        terms[(tuple(e), beta)] = int(c)
    assert p.substitute_geometric() == BetaPoly(p.nvars, terms, p.max_deg, p.split)


def test_substitute_geometric_needs_bound():
    with pytest.raises(UnboundedTruncationError):
        BetaPoly.variable(1, 1).substitute_geometric()


def test_negate_alphabet():
    x1, x2 = var(1), var(2)
    assert (x1 + x2).negate_vars([1]) == x2 - x1
    assert (x1 * x1).negate_vars([1]) == x1 * x1
    assert (x1 * x2).times_beta(1).negate_vars([1, 2]) == (x1 * x2).times_beta(1)


def test_cauchy_kernel_low_degrees():
    k = cauchy_kernel(1, 1, 3)
    assert coeff(k, (0, 0)) == BetaPoly.const(0, 1)
    assert coeff(k, (1, 1)) == BetaPoly.const(0, 2)
    assert coeff(k, (2, 1)) == BetaPoly(0, {((), 1): -1})
    assert coeff(k, (3, 1)) == BetaPoly(0, {((), 2): 1})
    # x-degree 0 slice is the constant 1
    assert BetaPoly(2, {(e, b): c for (e, b), c in k.terms.items() if sum(e) == 0}, 3, 1) == BetaPoly.const(2, 1, 3, split=1)


def test_cauchy_kernel_beta_zero_is_classical():
    nx = ny = 2
    D = 3
    k0 = beta_zero(cauchy_kernel(nx, ny, D))
    n = nx + ny
    one = BetaPoly.const(n, 1, D, split=nx)
    expected = one
    for i in range(1, nx + 1):
        for j in range(nx + 1, n + 1):
            xy = BetaPoly.variable(i, n, D, split=nx) * BetaPoly.variable(j, n, D, split=nx)
            inv = one
            power = one
            for _ in range(D):
                power = power * xy
                inv = inv + power
            expected = expected * (one + xy) * inv
    assert k0 == expected
    # the classical kernel is symmetric under swapping the alphabets
    swapped = {(e[nx:] + e[:nx], b): c for (e, b), c in k0.terms.items()}
    assert BetaPoly(n, swapped, D, nx) == k0


def test_json_round_trip_bit_exact():
    k = cauchy_kernel(2, 1, 3)
    text = k.to_json()
    back = BetaPoly.from_json_obj(json.loads(text))
    assert back == k and back.max_deg == k.max_deg and back.split == k.split
    assert back.to_json() == text
    big = BetaPoly(1, {((1,), 0): 10**40}, None)
    assert BetaPoly.from_json_obj(json.loads(big.to_json())) == big


def test_divide_exact():
    # exact division is done on views only, by `genfun._divided`
    assert _divided({((1,), 0): 6, ((0,), 1): 0}, 3) == {((1,), 0): 2}
    with pytest.raises(NonDivisibleError):
        _divided({((1,), 0): 6}, 4)


def test_tensor_split_and_symmetry_check():
    px = BetaPoly.variable(1, 2) + BetaPoly.variable(2, 2)
    py = BetaPoly.const(1, 5)
    t = tensor_split(px, py, 4)
    assert t.split == 2 and t.nvars == 3
    assert is_symmetric(t)
    asym = BetaPoly.variable(1, 2)
    assert not is_symmetric(asym)


def reference_is_symmetric(p):
    """The test-only reference: invariance under each adjacent transposition
    within a block."""
    blocks = [(0, p.nvars)] if p.split is None else [(0, p.split), (p.split, p.nvars)]
    for lo, hi in blocks:
        for i in range(lo, hi - 1):
            swapped = {(e[:i] + (e[i + 1], e[i]) + e[i + 2 :], b): c for (e, b), c in p.terms.items()}
            if swapped != p.terms:
                return False
    return True


@st.composite
def nearly_symmetric_polys(draw):
    """Polynomials symmetrized within each block, then perhaps with one term
    dropped or changed, so that both answers occur."""
    nvars = draw(st.integers(2, 4))
    split = draw(st.sampled_from([None] + list(range(1, nvars))))
    p = draw(polys(nvars, split))
    blocks = [range(nvars)] if split is None else [range(split), range(split, nvars)]
    perms = [sum(q, ()) for q in itertools.product(*(itertools.permutations(r) for r in blocks))]
    terms = {}
    for (e, b), c in p.terms.items():
        for perm in set(tuple(e[i] for i in q) for q in perms):
            terms[(perm, b)] = c  # one coefficient per orbit
    if terms and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(terms)))
        terms[key] = draw(st.sampled_from([0, terms[key] + 1]))
    return BetaPoly(nvars, terms, p.max_deg, split)


@settings(max_examples=200, deadline=None)
@given(nearly_symmetric_polys() | st.integers(0, 4).flatmap(polys))
def test_is_symmetric_matches_the_transposition_reference(p):
    # one- and two-block polynomials: the view is None exactly when the reference
    # says asymmetric, and otherwise it is the terms at partition exponents per block
    assert is_symmetric(p) == reference_is_symmetric(p)
    s = p.nvars if p.split is None else p.split
    down = lambda e: list(e) == sorted(e, reverse=True)
    at_partitions = {(e, b): c for (e, b), c in p.terms.items() if down(e[:s]) and down(e[s:])}
    assert p.view() == (at_partitions if reference_is_symmetric(p) else None)


def test_sorted_terms_graded_lex():
    p = BetaPoly(2, {((2, 0), 0): 1, ((0, 1), 1): 2, ((1, 1), 0): 3, ((0, 1), 0): 4}, None)
    keys = [k for k, _ in p.sorted_terms()]
    assert keys == [((0, 1), 0), ((0, 1), 1), ((1, 1), 0), ((2, 0), 0)]
