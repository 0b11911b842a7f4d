import pytest
from hypothesis import given, strategies as st

from kshift.errors import InvalidShapeError
from kshift.shapes import (
    EMPTY,
    SkewShape,
    StrictPartition,
    contains,
    doubleslash_inners,
    enumerate_strict_partitions,
    flip,
    removable_boxes,
    shape_stats,
    straight,
    strip_sign,
    subshapes,
    vertical_strip_extensions,
    vertical_strip_subsets,
)


def delta(m):
    """The staircase (m, m-1, ..., 2, 1)."""
    return StrictPartition(tuple(range(m, 0, -1)))


def sp(*parts):
    return StrictPartition(tuple(parts))


def test_contains_examples():
    assert contains(sp(3, 2), sp(4, 3))
    assert not contains(sp(3, 2), sp(4, 1))
    assert contains(EMPTY, sp(5, 2))
    assert contains(EMPTY, EMPTY)


def test_strict_partition_validation():
    with pytest.raises(InvalidShapeError, match="strictly decrease"):
        sp(2, 2)
    with pytest.raises(InvalidShapeError, match="strictly decrease"):
        sp(1, 2)
    with pytest.raises(InvalidShapeError, match="positive"):
        sp(0)


def test_shapes_hash_and_compare_as_their_field_tuples():
    # the hashes of the former dataclasses, so every set and dict order stays as it was
    for parts in [(), (3,), (4, 2, 1)]:
        assert hash(StrictPartition(parts)) == hash((parts,))
        assert StrictPartition(parts) != parts and parts != StrictPartition(parts)
        assert StrictPartition(list(parts)) == StrictPartition(parts)
    outer, inner = sp(4, 2, 1), sp(2)
    assert hash(SkewShape(outer, inner)) == hash((outer, inner))
    assert SkewShape(outer, inner) == SkewShape(sp(4, 2, 1), sp(2)) != SkewShape(outer)
    assert SkewShape(outer, inner) != (outer, inner)
    assert repr(SkewShape(sp(1))) == "SkewShape(outer=StrictPartition(parts=(1,)), inner=StrictPartition(parts=()))"


def test_parse_and_str_round_trip():
    assert str(StrictPartition.parse("4,2,1")) == "4,2,1"
    assert StrictPartition.parse("") == EMPTY
    assert str(EMPTY) == ""
    assert str(SkewShape.parse("4,2/1")) == "4,2/1"


def test_shape_stats_examples():
    st1 = shape_stats(SkewShape(sp(4, 3), sp(3, 2)))
    assert (st1.cols, st1.overlap, st1.is_vertical_strip) == (1, 1, True)
    st2 = shape_stats(SkewShape(sp(4, 2), sp(3, 2)))
    assert (st2.cols, st2.overlap, st2.is_vertical_strip) == (1, 0, True)
    st3 = shape_stats(SkewShape(sp(3, 1), sp(3, 1)))
    assert (st3.cols, st3.overlap, st3.is_vertical_strip) == (0, 0, True)


def test_shape_stats_invalid_shape():
    with pytest.raises(InvalidShapeError):
        shape_stats(SkewShape(sp(2), sp(3)))


def test_vertical_strip_extensions_examples():
    assert [p.parts for p in vertical_strip_extensions(sp(3, 2))] == [
        (3, 2),
        (4, 2),
        (4, 3),
    ]
    for n in (1, 2, 4):
        assert [p.parts for p in vertical_strip_extensions(sp(n))] == [(n,), (n + 1,)]
    assert [p.parts for p in vertical_strip_extensions(EMPTY)] == [()]


def test_vertical_strip_subsets_examples():
    for n in (2, 3, 5):
        assert [p.parts for p in vertical_strip_subsets(sp(n))] == [(n - 1,), (n,)]
    for m in (1, 2, 3):
        assert vertical_strip_subsets(delta(m)) == [delta(m)]
    assert vertical_strip_subsets(sp(1)) == [sp(1)]


def test_extension_subset_duality():
    univ = enumerate_strict_partitions(8)
    ext = {mu: set(vertical_strip_extensions(mu)) for mu in univ}
    for mu in univ:
        for lam in ext[mu]:
            if lam.size <= 8:
                assert mu in set(vertical_strip_subsets(lam))
    for lam in univ:
        for mu in vertical_strip_subsets(lam):
            assert lam in ext[mu]


def test_vertical_strip_bounds_and_overlap():
    for mu in enumerate_strict_partitions(7):
        for lam in vertical_strip_extensions(mu):
            shape = SkewShape(lam, mu)
            stt = shape_stats(shape)
            assert shape.size <= len(mu)
            assert stt.overlap == shape.size - stt.cols


def test_signed_split_empty_iff_gaps_at_least_two():
    for mu in enumerate_strict_partitions(8):
        minus = [lam for lam in vertical_strip_extensions(mu) if strip_sign(lam, mu) < 0]
        gaps_ok = all(mu.parts[i] - mu.parts[i + 1] >= 2 for i in range(len(mu) - 1))
        assert (not minus) == gaps_ok


def test_removable_boxes_examples():
    assert removable_boxes(sp(4, 2, 1)) == frozenset({(1, 4), (3, 3)})
    assert removable_boxes(sp(1)) == frozenset({(1, 1)})
    assert removable_boxes(EMPTY) == frozenset()


def test_doubleslash_inners_examples():
    assert {p.parts for p in doubleslash_inners(sp(4, 2, 1))} == {
        (4, 2, 1),
        (3, 2, 1),
        (4, 2),
        (3, 2),
    }
    assert {p.parts for p in doubleslash_inners(sp(1))} == {(1,), ()}
    assert [p.parts for p in doubleslash_inners(EMPTY)] == [()]


def test_doubleslash_inners_stay_within_removable():
    for mu in enumerate_strict_partitions(7):
        rem = removable_boxes(mu)
        for nu in doubleslash_inners(mu):
            assert contains(nu, mu)
            assert mu.cells() - nu.cells() <= rem


def test_flip_examples():
    assert str(flip(SkewShape(sp(4, 2, 1), sp(2)))) == "4,3,1/3"
    same = SkewShape(sp(3, 1), sp(3, 1))
    assert flip(same).cells() == frozenset()
    s = straight(sp(5, 3))
    assert flip(flip(s)) == s


def test_flip_involution_and_stats():
    for lam in enumerate_strict_partitions(6):
        for mu in subshapes(lam):
            shape = SkewShape(lam, mu)
            other = flip(shape)
            assert other.size == shape.size
            assert flip(other).cells() == shape.cells()
            st1, st2 = shape_stats(shape), shape_stats(other)
            rows1 = len({i for i, _ in shape.cells()})
            rows2 = len({i for i, _ in other.cells()})
            assert (st1.cols, rows1) == (rows2, st2.cols)


def test_enumerate_strict_partitions():
    assert [p.parts for p in enumerate_strict_partitions(3)] == [
        (),
        (1,),
        (2,),
        (3,),
        (2, 1),
    ]
    assert [p.parts for p in enumerate_strict_partitions(0)] == [()]


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=4))
def test_partition_sort_key_grades_by_size(parts):
    parts = tuple(sorted(set(parts), reverse=True))
    p = StrictPartition(parts)
    q = StrictPartition((p.parts[0] + 1,) + p.parts[1:]) if p.parts else sp(1)
    assert p.sort_key() < q.sort_key()


def test_subshapes_example():
    assert {p.parts for p in subshapes(sp(2, 1))} == {(), (1,), (2,), (2, 1)}


def test_skew_size_is_the_cell_count():
    # the outer size less the inner size, on every valid pair with |outer| <= 6
    for lam in enumerate_strict_partitions(6):
        for mu in subshapes(lam):
            shape = SkewShape(lam, mu)
            assert shape.size == len(shape.cells()), shape
    # invalid pairs raise, also where |outer| - |inner| is not negative
    for outer, inner in ((sp(1), sp(2)), (sp(3, 1), sp(3, 2)), (sp(4), sp(2, 1)), (sp(3), sp(2, 1))):
        with pytest.raises(InvalidShapeError):
            SkewShape(outer, inner).size


def test_input_faults_are_shape_errors():
    # a part that is not an integer, and an empty cell set: InvalidShapeError, not a plain ValueError
    from kshift.shapes import _shape_from_cells, parse_parts

    for text in ("a", "3,x", "2,,1"):
        with pytest.raises(InvalidShapeError, match="parts must be integers"):
            StrictPartition.parse(text)
        with pytest.raises(InvalidShapeError):
            parse_parts(text)
    assert parse_parts(" ") == () and parse_parts("2, 2") == (2, 2)
    with pytest.raises(InvalidShapeError, match="empty shape"):
        _shape_from_cells(frozenset())
