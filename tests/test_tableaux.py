import itertools
from collections import Counter

import pytest

from kshift.errors import InvalidShapeError, ParameterError
from kshift.polyring import BetaPoly
from kshift.shapes import (
    EMPTY,
    SkewShape,
    StrictPartition,
    enumerate_strict_partitions,
    straight,
    subshapes,
    vertical_strip_extensions,
)
from kshift.tableaux import (
    FAMILIES,
    BarTableau,
    Tableau,
    _check_family,
    _one_value_count,
    _tally,
    code_value,
    content_count,
    genfun_from_tableaux,
    is_primed,
    iter_restricted_p,
    iter_tableaux,
    marked_rows,
)
from test_polyring import beta_zero, is_symmetric


def _codes(fam, t):
    """A code per element (set-valued and single-valued tableaux), line (reverse plane partitions:
    a column of unprimed or a row of primed v) or block (bar tableaux) of t, in the checked family fam."""
    if fam.startswith("shbt"):
        ent = dict(t.filling.entries)
        return [ent[block[0]][0] for block in t.blocks]
    if fam.startswith("shrpp"):
        return [code for code, _ in {(code, i if code & 1 else j) for (i, j), (code,) in t.entries}]
    return [code for _, s in t.entries for code in s]


def weight(family, t):
    """The (exponent vector, size statistic |T|) of a listed tableau: each of its `_codes` adds 1 at
    its value, indexed by value 1..v_max for the largest value v_max occurring; |T| is their number."""
    codes = _codes(_check_family(family), t)
    exps = [0] * ((max(codes, default=0) + 1) >> 1)
    for code in codes:
        exps[(code - 1) >> 1] += 1
    return tuple(exps), len(codes)


def sp(*parts):
    return StrictPartition(tuple(parts))


def test_enumerate_counts():
    one = straight(sp(1))
    assert [t.text() for t in iter_tableaux("setshyt_q", one, 1)] == ["{1'}", "{1'1}", "{1}"]
    assert sum(1 for _ in iter_tableaux("shrpp_p", straight(sp(2, 1)), 2)) == 5
    for fam in ("shyt_p", "setshyt_q", "shrpp_q", "shbt_p"):
        empty = SkewShape(sp(2, 1), sp(2, 1))
        assert sum(1 for _ in iter_tableaux(fam, empty, 2)) == 1


def test_enumerate_unique():
    ts = list(iter_tableaux("setshyt_p", straight(sp(2, 1)), 2, 2))
    assert len(ts) == len(set(ts))


def test_enumerate_invalid_shape():
    with pytest.raises(InvalidShapeError):
        list(iter_tableaux("shyt_p", SkewShape(sp(1), sp(2)), 1))


def test_weight_shifted_example():
    # rows from the bottom: [1, 2', 3', 3], [2, 3'], [4]
    ent = {(1, 1): 2, (1, 2): 3, (1, 3): 5, (1, 4): 6, (2, 2): 4, (2, 3): 5, (3, 3): 8}
    t = Tableau(straight(sp(4, 2, 1)), tuple(sorted((c, (v,)) for c, v in ent.items())))
    exps, size = weight("shyt_p", t)
    assert exps == (1, 2, 3, 1)
    assert size == 7


def test_weight_rpp_example():
    # shape (5,3,2,1)/(4,1): both fillings from the running example weigh x1^3 x2 x4
    shape = SkewShape(sp(5, 3, 2, 1), sp(4, 1))
    ent1 = {(1, 5): 7, (2, 3): 1, (2, 4): 2, (3, 3): 1, (3, 4): 4, (4, 4): 4}
    t1 = Tableau(shape, tuple(sorted((c, (v,)) for c, v in ent1.items())))
    exps, size = weight("shrpp_q", t1)
    assert exps == (3, 1, 0, 1)
    assert size == 5
    ent2 = {(1, 5): 8, (2, 3): 1, (2, 4): 2, (3, 3): 1, (3, 4): 2, (4, 4): 3}
    t2 = Tableau(shape, tuple(sorted((c, (v,)) for c, v in ent2.items())))
    exps2, _ = weight("shrpp_p", t2)
    assert exps2 == (3, 1, 0, 1)


def test_weight_bar_example():
    # the five-block colored example of shape (5,3)
    fill = {(1, 1): 2, (1, 2): 2, (1, 3): 2, (1, 4): 5, (1, 5): 6, (2, 2): 4, (2, 3): 4, (2, 4): 5}
    blocks = (((1, 1), (1, 2)), ((1, 3),), ((1, 4), (2, 4)), ((1, 5),), ((2, 2), (2, 3)))
    t = BarTableau(
        Tableau(straight(sp(5, 3)), tuple(sorted((c, (v,)) for c, v in fill.items()))),
        tuple(sorted(blocks)),
    )
    exps, size = weight("shbt_p", t)
    assert exps == (2, 1, 2)
    assert size == 5


def reference_weight(family, t):
    """`weight` counted through a dict keyed by value, one family at a time."""
    if family.startswith(("shyt", "setshyt")):
        counts: dict[int, int] = {}
        for _, s in t.entries:
            for code in s:
                v = code_value(code)
                counts[v] = counts.get(v, 0) + 1
        top = max(counts) if counts else 0
        return tuple(counts.get(v, 0) for v in range(1, top + 1)), sum(len(s) for _, s in t.entries)
    if family.startswith("shrpp"):
        cols: dict[int, set[int]] = {}
        rows: dict[int, set[int]] = {}
        for (i, j), (code,) in t.entries:
            v = code_value(code)
            if is_primed(code):
                rows.setdefault(v, set()).add(i)
            else:
                cols.setdefault(v, set()).add(j)
        top = max(list(cols) + list(rows)) if (cols or rows) else 0
        exps = tuple(len(cols.get(v, ())) + len(rows.get(v, ())) for v in range(1, top + 1))
        return exps, sum(exps)
    counts = {}
    ent = dict(t.filling.entries)
    for block in t.blocks:
        v = code_value(ent[block[0]][0])
        counts[v] = counts.get(v, 0) + 1
    top = max(counts) if counts else 0
    return tuple(counts.get(v, 0) for v in range(1, top + 1)), len(t.blocks)


@pytest.mark.parametrize("family", FAMILIES)
def test_weight_matches_the_dict_reference(family):
    for lam in enumerate_strict_partitions(4):
        for mu in subshapes(lam):
            shape = SkewShape(lam, mu)
            for max_value in (1, 2, 3):
                for t in iter_tableaux(family, shape, max_value):
                    assert weight(family, t) == reference_weight(family, t), (shape, t.text())


def test_genfun_examples():
    got = genfun_from_tableaux("setshyt_p", straight(sp(1)), 2, 4)
    want = BetaPoly(2, {((1, 0), 0): 1, ((0, 1), 0): 1, ((1, 1), 1): 1}, 4)
    assert got == want
    empty = genfun_from_tableaux("setshyt_q", SkewShape(sp(2), sp(2)), 2, 4)
    assert empty == BetaPoly.const(2, 1, 4)


def test_genfun_symmetry():
    for lam in enumerate_strict_partitions(4):
        if not lam.parts:
            continue
        for fam in ("setshyt_p", "setshyt_q", "shrpp_p", "shrpp_q", "shbt_p", "shbt_q"):
            p = genfun_from_tableaux(fam, straight(lam), 3, lam.size + 2)
            assert is_symmetric(p), (fam, lam)


def test_setvalued_beta_zero_is_single_valued():
    for lam in enumerate_strict_partitions(4):
        shape = straight(lam)
        for sv, single in (("setshyt_p", "shyt_p"), ("setshyt_q", "shyt_q")):
            a = beta_zero(genfun_from_tableaux(sv, shape, 3, lam.size + 2))
            b = genfun_from_tableaux(single, shape, 3, lam.size + 2)
            assert a == b


def test_q_is_power_of_two_times_p():
    for lam in enumerate_strict_partitions(4):
        p = genfun_from_tableaux("shyt_p", straight(lam), 3, None)
        q = genfun_from_tableaux("shyt_q", straight(lam), 3, None)
        assert q == p.times_beta(0, 2 ** len(lam))


def test_bar_fixed_filling_weight_identity():
    # with the filling fixed, summing x^T over bar partitions gives
    # prod_i x_i^(r_i+c_i) (x_i+1)^(m_i-r_i-c_i)
    from kshift.tableaux import code_value, is_primed

    nvars = 2
    for lam, mu in ((sp(3, 1), EMPTY), (sp(2, 1), EMPTY), (sp(3, 2), sp(2))):
        shape = SkewShape(lam, mu)
        for filling in (dict(t.entries) for t in iter_tableaux("shyt_q", shape, nvars)):
            by_v: dict[int, list] = {}
            for cell, (code,) in filling.items():
                by_v.setdefault(code_value(code), []).append((cell, code))
            want = BetaPoly.const(nvars, 1, None)
            for v, items in by_v.items():
                rows = {c[0][0] for c in items if not is_primed(c[1])}
                cols = {c[0][1] for c in items if is_primed(c[1])}
                m = len(items)
                xv = BetaPoly.variable(v, nvars)
                one = BetaPoly.const(nvars, 1)
                want = want * xv ** (len(rows) + len(cols)) * (xv + one) ** (m - len(rows) - len(cols))
            total = BetaPoly.zero(nvars, None)
            for t in iter_tableaux("shbt_q", shape, nvars):
                if dict(t.filling.entries) != filling:
                    continue
                exps, _ = weight("shbt_q", t)
                mono = exps + (0,) * (nvars - len(exps))
                total = total + BetaPoly(nvars, {(mono, 0): 1})
            assert total == want


# -- the one-row bijection of the paper, test-only -------------------------------


def in_restricted_p(t: Tableau, outer: StrictPartition, inner: StrictPartition) -> bool:
    """Membership in SetShYT_P(outer : inner) of a valid set-valued Q-tableau t.

    These are the Q-flavor tableaux that land in SetShYT_P(outer) after
    unpriming the largest diagonal element in each row where outer and inner
    agree.  On a valid Q-tableau that unpriming cannot break a row or column
    rule, so the test reduces to the diagonal: no diagonal cell holds a primed
    element, except that the largest element of such a marked cell may be
    primed.  The caller must pass a valid tableau.
    """
    for (i, j), s in t.entries:
        if i == j:
            free = s[:-1] if outer.part(i) == inner.part(i) else s
            if any(is_primed(c) for c in free):
                return False
    return True


def onerow_map(t: Tableau) -> tuple[str, Tableau]:
    """The weight-preserving one-row bijection.

    Fixed points are the tableaux already in SetShYT_P(n : n); any other
    tableau maps into SetShYT_P((n+1)) by unpriming the smallest primed
    element i' of the diagonal cell and splitting that cell at i.
    """
    shape = t.shape
    if shape.inner.parts or len(shape.outer) != 1:
        raise InvalidShapeError(f"one-row map needs a straight one-row shape, got {shape}")
    n = shape.outer.parts[0]
    if in_restricted_p(t, shape.outer, shape.outer):
        return "fixed", t
    ent = dict(t.entries)
    s = ent[(1, 1)]
    smallest_primed = next(c for c in s if is_primed(c))
    i_code = smallest_primed + 1
    lower = tuple(c for c in s if c < smallest_primed) + (i_code,)
    upper = tuple(c for c in s if c > smallest_primed)
    new_shape = straight(StrictPartition((n + 1,)))
    new_entries = {(1, 1): lower, (1, 2): upper}
    for j in range(2, n + 1):
        new_entries[(1, j + 1)] = ent[(1, j)]
    return "moved", Tableau(new_shape, tuple(sorted(new_entries.items())))


def test_onerow_map_paper_example():
    t = Tableau(
        straight(sp(3)),
        (((1, 1), (2, 3, 5, 6)), ((1, 2), (6, 8)), ((1, 3), (9,))),
    )
    tag, image = onerow_map(t)
    assert tag == "moved"
    assert image.text() == "{12}{3'3}{34}{5'}"


def test_onerow_map_fixes_unprimed():
    t = Tableau(straight(sp(2)), (((1, 1), (2,)), ((1, 2), (2, 4))))
    tag, image = onerow_map(t)
    assert tag == "fixed" and image == t


def test_onerow_map_is_weight_preserving_bijection():
    for n in (1, 2, 3):
        max_value = 3
        domain = list(iter_tableaux("setshyt_q", straight(sp(n)), max_value))
        fixed_target = {
            t.entries for t in iter_restricted_p(sp(n), sp(n), max_value)
        }
        moved_target = {
            t.entries for t in iter_tableaux("setshyt_p", straight(sp(n + 1)), max_value)
        }
        seen = set()
        for t in domain:
            tag, image = onerow_map(t)
            assert weight("setshyt_q", t)[0] == weight("setshyt_q", image)[0]
            key = (tag, image.entries)
            assert key not in seen
            seen.add(key)
            if tag == "fixed":
                assert image.entries in fixed_target
            else:
                assert image.entries in moved_target
        got_fixed = {e for tag, e in seen if tag == "fixed"}
        got_moved = {e for tag, e in seen if tag == "moved"}
        assert got_fixed == fixed_target
        assert got_moved == moved_target


def test_restricted_family_examples():
    texts = [t.text() for t in iter_restricted_p(sp(1), sp(1), 1)]
    assert texts == ["{1'}", "{1}"]
    # with all parts strictly bigger, the restriction is plain P
    lam, mu = sp(3, 1), sp(2)
    with pytest.raises(InvalidShapeError):
        list(iter_restricted_p(lam, mu, 2))
    lam, mu = sp(3, 2), sp(2, 1)
    rest = {t.entries for t in iter_restricted_p(lam, mu, 2)}
    plain = {t.entries for t in iter_tableaux("setshyt_p", straight(lam), 2)}
    assert rest == plain


def test_restricted_gf_doubles_per_marked_row():
    # toggling the prime on the top diagonal element of each marked row is a
    # 2-to-1 weight-preserving cover, so the restricted generating function is
    # 2^(marked rows) times the plain P generating function
    for lam, mu in ((sp(2, 1), sp(2, 1)), (sp(3, 1), sp(3, 1)), (sp(3, 1), sp(2, 1))):
        marked = sum(1 for i in range(1, len(lam) + 1) if lam.part(i) == mu.part(i))
        nvars = 2
        terms: dict = {}
        for t in iter_restricted_p(lam, mu, nvars):
            exps, size = weight("setshyt_q", t)
            key = (exps + (0,) * (nvars - len(exps)), size - lam.size)
            terms[key] = terms.get(key, 0) + 1
        got = BetaPoly(nvars, terms, None)
        want = genfun_from_tableaux("setshyt_p", straight(lam), nvars, None).times_beta(0, 2**marked)
        assert got == want


def _setvalued_valid(shape, entries, p_flavor):
    """Full semistandardness check for a set-valued filling."""
    cells = shape.cells()
    for (i, j), s in entries.items():
        if not s or list(s) != sorted(set(s)):
            return False
        if p_flavor and i == j and any(is_primed(c) for c in s):
            return False
        for nb, shared_primed in (((i, j - 1), False), ((i - 1, j), True)):
            if nb in cells:
                t = entries[nb]
                if t[-1] > s[0]:
                    return False
                if t[-1] == s[0] and is_primed(s[0]) != shared_primed:
                    return False
    return True


def _in_restricted_p_by_validity(t, outer, inner):
    """The defining test of SetShYT_P(outer : inner): unprime the largest
    element of each marked diagonal cell (outer_i == inner_i), then check the
    whole filling against the P rules."""
    marked = {(i, i) for i in range(1, len(outer) + 1) if outer.part(i) == inner.part(i)}
    image = {
        cell: s[:-1] + (s[-1] + 1,) if cell in marked and is_primed(s[-1]) else s
        for cell, s in t.entries
    }
    return _setvalued_valid(t.shape, image, p_flavor=True)


def _same_length_inners(lam):
    ranges = (range(1, p + 1) for p in lam.parts)
    return [StrictPartition(m) for m in itertools.product(*ranges) if list(m) == sorted(set(m), reverse=True)]


def test_restricted_family_matches_its_definition():
    # the diagonal rule of iter_restricted_p against the unprime-then-validate
    # definition, over every inner of the same length
    for lam in enumerate_strict_partitions(6):
        if not lam.parts:
            continue
        for max_value in (1, 2, 3):
            for deg_cap in (0, 1, 2) + ((None,) if lam.size <= 5 else ()):
                tableaux = list(iter_tableaux("setshyt_q", straight(lam), max_value, deg_cap))
                for mu in _same_length_inners(lam):
                    want = [t for t in tableaux if _in_restricted_p_by_validity(t, lam, mu)]
                    assert list(iter_restricted_p(lam, mu, max_value, deg_cap)) == want, (lam, mu, max_value, deg_cap)


@pytest.mark.parametrize("p_flavor", [True, False])
def test_one_value_count_is_the_one_variable_coefficient(p_flavor):
    family = "setshyt_p" if p_flavor else "setshyt_q"
    for lam in enumerate_strict_partitions(7):
        for kappa in subshapes(lam):
            shape = SkewShape(lam, kappa)
            poly = genfun_from_tableaux(family, shape, 1, shape.size + 3)
            for c in range(shape.size + 4):
                want = poly.terms.get(((c,), c - shape.size), 0)
                assert _one_value_count(p_flavor, lam.parts, kappa.parts).get(c, 0) == want, (shape, c)


def reference_one_value_count(p_flavor, outer, inner):
    """The one-value fillings of outer/inner by their number of elements, counted by one
    uncapped `_tally` walk: a cell holds at most 1' and 1, so the count is finite."""
    tally = _tally(SkewShape(StrictPartition(outer), StrictPartition(inner)), 1, p_flavor, False, None)
    return {c: n for (c,), n in tally.items()}


@pytest.mark.parametrize("p_flavor", [True, False])
def test_one_value_count_closed_form_matches_the_tally(p_flavor):
    for lam in enumerate_strict_partitions(9):
        for kappa in subshapes(lam):
            want = reference_one_value_count(p_flavor, lam.parts, kappa.parts)
            assert _one_value_count(p_flavor, lam.parts, kappa.parts) == want, (lam, kappa)


# -- brute-force oracle: every candidate filling, filtered by the rules ------


def _small_shapes():
    """Every straight or skew shape with at most 4 cells and outer size <= 5."""
    shapes = {}
    for lam in enumerate_strict_partitions(5):
        for mu in enumerate_strict_partitions(lam.size):
            shape = SkewShape(lam, mu)
            if shape.valid and shape.size <= 4:
                shapes[str(shape)] = shape
    return list(shapes.values())


def _semistandard(entries, p_flavor, rpp):
    """Rows and columns weakly increase.  In a tableau a primed value does not
    repeat along a row nor an unprimed one up a column; under P a tableau has
    no primed diagonal entry and a reverse plane partition only primed ones."""
    for (i, j), v in entries.items():
        primed = v % 2 == 1
        if p_flavor and i == j and primed != rpp:
            return False
        for neighbour, may_repeat in (((i, j - 1), not primed), ((i - 1, j), primed)):
            u = entries.get(neighbour)
            if u is not None and (u > v or (u == v and not rpp and not may_repeat)):
                return False
    return True


@pytest.mark.parametrize("family", ["shyt_p", "shyt_q", "shrpp_p", "shrpp_q", "setshyt_p", "setshyt_q"])
def test_enumerators_match_brute_force(family):
    p_flavor = family.endswith("_p")
    for shape in _small_shapes():
        cells = shape.sorted_cells()
        for max_value in (1, 2):
            codes = range(1, 2 * max_value + 1)
            if family.startswith("setshyt"):
                choices = [s for r in codes for s in itertools.combinations(codes, r)]
                ok = lambda ent: _setvalued_valid(shape, ent, p_flavor)
            else:
                choices = [(c,) for c in codes]
                ok = lambda ent: _semistandard({c: v for c, (v,) in ent.items()}, p_flavor, family.startswith("shrpp"))
            want = set()
            for filling in itertools.product(choices, repeat=len(cells)):
                ent = dict(zip(cells, filling))
                if ok(ent):
                    want.add(tuple(sorted(ent.items())))
            got = [t.entries for t in iter_tableaux(family, shape, max_value)]
            assert len(got) == len(set(got)), (family, shape, max_value)
            assert set(got) == want, (family, shape, max_value)


@pytest.mark.parametrize("flavor", ["p", "q"])
def test_single_valued_tableaux_are_set_valued_at_budget_0(flavor):
    # the same records, in the same order, over every shape with |outer| <= 5
    for lam in enumerate_strict_partitions(5):
        for mu in enumerate_strict_partitions(lam.size):
            shape = SkewShape(lam, mu)
            if shape.valid:
                for max_value in (1, 2):
                    single = list(iter_tableaux("shyt_" + flavor, shape, max_value))
                    assert single == list(iter_tableaux("setshyt_" + flavor, shape, max_value, 0)), (shape, max_value)


def _skew_shapes(max_outer):
    """Every skew shape, straight and empty ones included, with |outer| <= max_outer."""
    return [SkewShape(lam, mu) for lam in enumerate_strict_partitions(max_outer) for mu in subshapes(lam)]


@pytest.mark.parametrize("family", ["shyt_p", "shyt_q", "setshyt_p", "setshyt_q", "shrpp_p", "shrpp_q", "shbt_p", "shbt_q"])
def test_genfun_is_the_weight_sum_over_the_enumerator(family):
    # set-valued and single-valued tableaux weigh beta^(|T|-|shape|) x^T,
    # reverse plane partitions and bar tableaux (-beta)^(|shape|-|T|) x^T
    signed = family.startswith(("shrpp", "shbt"))
    for shape in _skew_shapes(5):
        ncells = shape.size
        for nvars in (1, 2, 3):
            for max_deg in (None, ncells + 1):
                deg_cap = None
                if family.startswith("setshyt") and max_deg is not None:
                    deg_cap = max_deg - ncells
                terms: dict = {}
                for t in iter_tableaux(family, shape, nvars, deg_cap):
                    exps, size = weight(family, t)
                    k = ncells - size if signed else size - ncells
                    key = (exps + (0,) * (nvars - len(exps)), k)
                    terms[key] = terms.get(key, 0) + ((-1) ** k if signed else 1)
                want = BetaPoly(nvars, terms, max_deg)
                assert genfun_from_tableaux(family, shape, nvars, max_deg) == want, (shape, nvars, max_deg)


def weight_tally(family, tableaux, nvars):
    """How many of the tableaux have each `weight` exponent vector, padded to nvars."""
    tally = Counter()
    for t in tableaux:
        exps = [0] * nvars
        for code in _codes(family, t):
            exps[(code - 1) >> 1] += 1
        tally[tuple(exps)] += 1
    return tally


@pytest.mark.parametrize("family", FAMILIES)
def test_weight_tally_counts_the_padded_weights(family):
    # the reference against `weight`, then the counting walk against the reference
    deg_cap = 1 if family.startswith("setshyt") else None
    for shape in _small_shapes():
        for nvars in (1, 3):
            want: dict = {}
            for t in iter_tableaux(family, shape, nvars, deg_cap):
                exps = weight(family, t)[0]
                key = exps + (0,) * (nvars - len(exps))
                want[key] = want.get(key, 0) + 1
            assert weight_tally(family, iter_tableaux(family, shape, nvars, deg_cap), nvars) == want, (shape, nvars)
            rpp, bar = family.startswith("shrpp"), family.startswith("shbt")
            got = _tally(shape, nvars, family.endswith("_p"), rpp, 0 if family.startswith("shyt") else deg_cap, bar)
            assert got == want, (shape, nvars)


@pytest.mark.parametrize("family", FAMILIES)
def test_the_capped_tally_is_its_reference(family):
    # the cap drops a partial filling inside the walk once its x-degree passes it: a
    # tableau tally at cap c counts the listed set-valued tableaux with at most c extra
    # elements (a single-valued family is walked at cap 0 only), and a reverse plane
    # partition or bar tableau tally the uncapped tally's terms of x-degree <= c
    p_flavor, rpp, bar = family.endswith("_p"), family.startswith("shrpp"), family.startswith("shbt")
    for lam in enumerate_strict_partitions(5):
        for shape in (SkewShape(lam, kappa) for kappa in subshapes(lam)):
            for nvars in (1, 2, 3):
                whole = _tally(shape, nvars, p_flavor, rpp, None, bar) if rpp or bar else None
                for cap in range(1 if family.startswith("shyt") else 7):
                    if whole is not None:
                        want = {e: n for e, n in whole.items() if sum(e) <= cap}
                    else:
                        deg_cap = None if family.startswith("shyt") else cap
                        want = weight_tally(family, iter_tableaux(family, shape, nvars, deg_cap), nvars)
                    assert _tally(shape, nvars, p_flavor, rpp, cap, bar) == want, (shape, nvars, cap)


def test_tally_counts_the_prime_restricted_family():
    # SetShYT_P(lam : mu) for every vertical strip lam/mu, counted against its listing walk
    for mu in enumerate_strict_partitions(5):
        for lam in vertical_strip_extensions(mu):
            marked = marked_rows(lam, mu)
            for nvars in (2, 3):
                for deg_cap in (0, 2, 4):
                    want = weight_tally("setshyt_q", iter_restricted_p(lam, mu, nvars, deg_cap), nvars)
                    got = _tally(straight(lam), nvars, True, False, deg_cap, marked=marked)
                    assert got == want, (lam, mu, nvars, deg_cap)


@pytest.mark.parametrize("p_flavor", [True, False])
def test_content_count_is_the_generating_function_coefficient(p_flavor):
    # [x^content] GP_nu / GQ_nu is beta^(|content|-|nu|) times the count, for
    # every strict content, its reverse, and every 3-part composition with zeros
    family = "setshyt_p" if p_flavor else "setshyt_q"
    contents = {p.parts for p in enumerate_strict_partitions(7)}
    contents |= {p[::-1] for p in contents}
    contents |= {c for c in itertools.product(range(4), repeat=3) if sum(c) <= 5}
    for nu in enumerate_strict_partitions(7):
        poly = genfun_from_tableaux(family, straight(nu), 3, 7)
        for content in contents:
            exps = content + (0,) * (3 - len(content))
            want = poly.terms.get((exps, sum(content) - nu.size), 0)
            assert content_count(p_flavor, nu.parts, content) == want, (nu, content)
    # 4-part contents, each against the 4-variable walk
    contents = [c for c in itertools.product(range(4), repeat=4) if sum(c) <= 8]
    for nu in enumerate_strict_partitions(6):
        poly = genfun_from_tableaux(family, straight(nu), 4, 8)
        for content in contents:
            want = poly.terms.get((content, sum(content) - nu.size), 0)
            assert content_count(p_flavor, nu.parts, content) == want, (nu, content)


def test_an_unknown_family_is_a_parameter_error():
    # the family name comes from the user, so it is a usage error, not a plain ValueError
    shape = SkewShape(StrictPartition((1,)), StrictPartition(()))
    with pytest.raises(ParameterError):
        genfun_from_tableaux("nope", shape, 1, None)
    with pytest.raises(ParameterError):
        list(iter_tableaux("shyt", shape, 1))
