"""Strict partitions, shifted skew diagrams, and shape statistics.

Cells are (row, column) pairs with rows counted from the bottom (French
notation); the shifted diagram of a strict partition puts row i at columns
i .. i + parts[i-1] - 1, i.e. cells {(i, j) : 0 < i <= j < i + parts[i-1]}.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidShapeError, ParameterError

Cell = tuple[int, int]


def parse_parts(text: str) -> tuple[int, ...]:
    """The parts of "4,2,1"; "" has none.  A part that is not an integer is an InvalidShapeError."""
    try:
        return tuple(int(t) for t in text.split(",")) if text.strip() else ()
    except ValueError:
        raise InvalidShapeError(f"parts must be integers: {text!r}") from None


class StrictPartition:
    """A strictly decreasing sequence of positive integers; () is empty.  Hashed as (parts,), once."""

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        p = tuple(int(x) for x in parts)
        for i, x in enumerate(p):
            if x <= 0:
                raise InvalidShapeError(f"parts must be positive: {p}")
            if i + 1 < len(p) and p[i + 1] >= x:
                raise InvalidShapeError(f"parts must strictly decrease: {p}")
        self.parts, self._hash = p, hash((p,))

    def __eq__(self, other) -> bool:
        return self.parts == other.parts if other.__class__ is StrictPartition else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"StrictPartition(parts={self.parts!r})"

    @classmethod
    def parse(cls, text: str) -> "StrictPartition":
        """Parse the comma-separated form, e.g. "4,2,1"; "" is empty."""
        return cls(parse_parts(text))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @functools.cached_property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed); 0 beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def cells(self) -> frozenset[Cell]:
        return frozenset(
            (i, j)
            for i, p in enumerate(self.parts, start=1)
            for j in range(i, i + p)
        )

    def sort_key(self) -> tuple:
        """Graded-lex key: by size, then decreasing lexicographic on parts."""
        return (self.size, tuple(-x for x in self.parts))


EMPTY = StrictPartition(())


def contains(mu: StrictPartition, lam: StrictPartition) -> bool:
    """True iff mu_i <= lam_i for all i (missing parts read as 0)."""
    return len(mu) <= len(lam) and all(
        m <= l for m, l in zip(mu.parts, lam.parts)
    )


class SkewShape:
    """A pair outer/inner; valid iff inner is contained in outer.

    Invalid pairs are representable (their tableau sets are empty and the
    associated generating functions are zero); operations that need a genuine
    diagram raise InvalidShapeError.  Hashed as the tuple (outer, inner).
    """

    __slots__ = ("outer", "inner")

    def __init__(self, outer: StrictPartition, inner: StrictPartition = EMPTY) -> None:
        self.outer, self.inner = outer, inner

    def __eq__(self, other) -> bool:
        if other.__class__ is not SkewShape:
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewShape(outer={self.outer!r}, inner={self.inner!r})"

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        """Parse "outer/inner"; a bare "outer" means inner is empty."""
        outer, _, inner = text.partition("/")
        return cls(StrictPartition.parse(outer), StrictPartition.parse(inner))

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"

    @property
    def valid(self) -> bool:
        return contains(self.inner, self.outer)

    def require_valid(self) -> None:
        if not self.valid:
            raise InvalidShapeError(f"inner not contained in outer: {self}")

    def cells(self) -> frozenset[Cell]:
        self.require_valid()
        return self.outer.cells() - self.inner.cells()

    def sorted_cells(self) -> tuple[Cell, ...]:
        """Cells in reading order: by row from the bottom, then by column."""
        return tuple(sorted(self.cells()))

    @property
    def size(self) -> int:
        self.require_valid()
        return self.outer.size - self.inner.size


def straight(lam: StrictPartition) -> SkewShape:
    return SkewShape(lam, EMPTY)


class ShapeStats(NamedTuple):
    cols: int
    overlap: int
    is_vertical_strip: bool


def shape_stats(shape: SkewShape) -> ShapeStats:
    """Column count, vertical-adjacency count, and the vertical-strip flag."""
    cells = shape.cells()
    cols = len({j for _, j in cells})
    overlap = sum(1 for (i, j) in cells if (i - 1, j) in cells)
    rows = [i for i, _ in cells]
    vstrip = len(rows) == len(set(rows))
    return ShapeStats(cols=cols, overlap=overlap, is_vertical_strip=vstrip)


def _graded_lex_sorted(ps: Iterable[StrictPartition]) -> list[StrictPartition]:
    return sorted(ps, key=StrictPartition.sort_key)


def _step_rows(mu: StrictPartition, step: int) -> list[StrictPartition]:
    """mu + step * e_S for every subset S of rows, kept when still strict, graded-lex."""
    out = []
    for mask in itertools.product((0, step), repeat=len(mu)):
        parts = tuple(p + m for p, m in zip(mu.parts, mask))
        if all(a > b for a, b in zip(parts, parts[1:] + (0,))):
            out.append(StrictPartition(parts))
    return _graded_lex_sorted(out)


def vertical_strip_extensions(mu: StrictPartition) -> list[StrictPartition]:
    """All strict lam >= mu of the same length with lam/mu a vertical strip.

    These are exactly the shapes mu + e_S for subsets S of rows, kept when
    still strictly decreasing; includes mu itself.  Graded-lex order.
    """
    return _step_rows(mu, 1)


def strip_sign(lam: StrictPartition, mu: StrictPartition) -> int:
    """(-1)^(cols + size) of the vertical strip lam/mu: its sign in GQ_mu over GP."""
    return (-1) ** (shape_stats(SkewShape(lam, mu)).cols + lam.size - mu.size)


def vertical_strip_subsets(lam: StrictPartition) -> list[StrictPartition]:
    """All strict mu <= lam of the same length with lam/mu a vertical strip."""
    return _step_rows(lam, -1)


def removable_boxes(mu: StrictPartition) -> frozenset[Cell]:
    """Cells whose removal leaves the diagram of a strict partition.

    Such a cell is the last one of its row; row i qualifies iff it is the
    final row or its part exceeds the next part by at least two.
    """
    out = set()
    n = len(mu)
    for i, p in enumerate(mu.parts, start=1):
        if i == n or p - mu.parts[i] >= 2:
            out.add((i, i + p - 1))
    return frozenset(out)


@functools.cache
def doubleslash_inners(mu: StrictPartition) -> tuple[StrictPartition, ...]:
    """All strict nu <= mu with every cell of mu/nu a removable box of mu (memoised)."""
    rows = sorted(i for i, _ in removable_boxes(mu))
    out = []
    for k in range(len(rows) + 1):
        for chosen in itertools.combinations(rows, k):  # removing removable boxes keeps the parts strict
            out.append(StrictPartition(tuple(x - (i in chosen) for i, x in enumerate(mu.parts, 1) if x - (i in chosen))))
    return tuple(_graded_lex_sorted(out))


def _shape_from_cells(cells: frozenset[Cell]) -> SkewShape:
    """Reconstruct outer/inner from a cell set whose rows are intervals.

    Rows above the top occupied one are absent; empty rows in between (and an
    empty bottom stretch) get the minimal padding outer_r = inner_r that keeps
    both partitions strict.
    """
    if not cells:
        raise InvalidShapeError("cannot reconstruct an empty shape")
    top = max(i for i, _ in cells)
    outer = [0] * top
    inner = [0] * top
    for r in range(top, 0, -1):
        row = sorted(j for i, j in cells if i == r)
        if row:
            if row != list(range(row[0], row[-1] + 1)):
                raise InvalidShapeError(f"row {r} is not an interval: {row}")
            outer[r - 1] = row[-1] - r + 1
            inner[r - 1] = row[0] - r
        else:
            pad = outer[r] + 1 if r < top else 1
            outer[r - 1] = pad
            inner[r - 1] = pad
        if outer[r - 1] <= 0 or inner[r - 1] < 0:
            raise InvalidShapeError("cell set is not a shifted skew diagram")
    while inner and inner[-1] == 0:
        inner.pop()
    try:
        shape = SkewShape(StrictPartition(tuple(outer)), StrictPartition(tuple(inner)))
    except InvalidShapeError as exc:
        raise InvalidShapeError(f"cell set is not a shifted skew diagram: {exc}")
    shape.require_valid()
    return shape


def flip(shape: SkewShape) -> SkewShape:
    """Reflect the diagram across the anti-diagonal direction.

    The bottom row becomes the rightmost column: cell (i, j) maps to
    (c - j, c - i) with c = (least occupied row) + (greatest occupied column),
    and the image is re-read as a skew shape of strict partitions.
    """
    shape.require_valid()
    cells = shape.cells()
    if not cells:
        return shape
    c = min(i for i, _ in cells) + max(j for _, j in cells)
    flipped = frozenset((c - j, c - i) for i, j in cells)
    out = _shape_from_cells(flipped)
    if len(out.cells()) != len(cells):
        raise InvalidShapeError(f"flip broke the diagram of {shape}")
    return out


def _listed(fn):
    """Memoise fn, which returns a tuple, and hand each caller a fresh list of it."""
    cached = functools.cache(fn)
    return functools.wraps(fn)(lambda n: list(cached(n)))


@_listed
def enumerate_strict_partitions(max_size: int) -> list[StrictPartition]:
    """All strict partitions of size <= max_size, graded-lex, no duplicates."""
    if max_size < 0:
        raise ParameterError(f"max_size must be at least 0, got {max_size}")
    out = [EMPTY]

    def extend(prefix: list[int], remaining: int) -> None:
        top = min(remaining, (prefix[-1] - 1) if prefix else remaining)
        for nxt in range(top, 0, -1):
            prefix.append(nxt)
            out.append(StrictPartition(tuple(prefix)))
            extend(prefix, remaining - nxt)
            prefix.pop()

    extend([], max_size)
    return tuple(_graded_lex_sorted(set(out)))


@_listed
def strict_partitions_of(size: int) -> list[StrictPartition]:
    """Strict partitions of exactly `size`, in decreasing lex order."""
    return tuple(p for p in enumerate_strict_partitions(size) if p.size == size)  # graded-lex: one size


@functools.cache
def subshapes(lam: StrictPartition) -> tuple[StrictPartition, ...]:
    """All strict mu contained in lam, graded-lex order (memoised)."""
    out = [EMPTY]

    def rec(i: int, prefix: list[int]) -> None:
        if i >= len(lam):
            return
        hi = lam.parts[i] if not prefix else min(lam.parts[i], prefix[-1] - 1)
        for v in range(hi, 0, -1):
            prefix.append(v)
            out.append(StrictPartition(tuple(prefix)))
            rec(i + 1, prefix)
            prefix.pop()

    rec(0, [])
    return tuple(_graded_lex_sorted(out))
