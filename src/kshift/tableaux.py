"""Enumerators and weight functions for shifted tableau families.

Entries are positive half-integers encoded as integer codes: code 2i-1 is the
primed value i' and code 2i is the unprimed value i, so the total order
1' < 1 < 2' < 2 < ... is integer order on codes.

Families (P means no primed entries on diagonal cells, except for reverse
plane partitions where P means every diagonal entry is primed):

  shyt_p / shyt_q       semistandard shifted tableaux, one entry per cell
  setshyt_p / setshyt_q set-valued shifted tableaux, a nonempty set per cell
  shrpp_p / shrpp_q     shifted reverse plane partitions
  shbt_p / shbt_q       shifted bar tableaux: a filling plus a partition of
                        the cells into contiguous constant bars
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidShapeError
from .polyring import BetaPoly
from .shapes import Cell, SkewShape, StrictPartition, straight

FAMILIES = (
    "shyt_p",
    "shyt_q",
    "setshyt_p",
    "setshyt_q",
    "shrpp_p",
    "shrpp_q",
    "shbt_p",
    "shbt_q",
)


def is_primed(code: int) -> bool:
    return code % 2 == 1

def code_value(code: int) -> int:
    return (code + 1) // 2

def format_code(code: int) -> str:
    return f"{code_value(code)}'" if is_primed(code) else str(code_value(code))


def _format_rows(shape: SkewShape, cell_text) -> str:
    rows = []
    by_row: dict[int, list[Cell]] = {}
    for c in shape.sorted_cells():
        by_row.setdefault(c[0], []).append(c)
    for i in sorted(by_row):
        rows.append("".join("{" + cell_text(c) + "}" for c in by_row[i]))
    return "|".join(rows)


@dataclass(frozen=True)
class ShiftedTableau:
    shape: SkewShape
    entries: tuple[tuple[Cell, int], ...]

    def entry(self, cell: Cell) -> int:
        return dict(self.entries)[cell]

    def text(self) -> str:
        ent = dict(self.entries)
        return _format_rows(self.shape, lambda c: format_code(ent[c]))


@dataclass(frozen=True)
class SetValuedTableau:
    shape: SkewShape
    entries: tuple[tuple[Cell, tuple[int, ...]], ...]

    def entry(self, cell: Cell) -> tuple[int, ...]:
        return dict(self.entries)[cell]

    @property
    def size(self) -> int:
        """|T|: the total number of elements over all cells."""
        return sum(len(s) for _, s in self.entries)

    def text(self) -> str:
        ent = dict(self.entries)
        return _format_rows(self.shape, lambda c: "".join(format_code(x) for x in ent[c]))


@dataclass(frozen=True)
class ReversePlanePartition:
    shape: SkewShape
    entries: tuple[tuple[Cell, int], ...]

    def entry(self, cell: Cell) -> int:
        return dict(self.entries)[cell]

    def text(self) -> str:
        ent = dict(self.entries)
        return _format_rows(self.shape, lambda c: format_code(ent[c]))


@dataclass(frozen=True)
class BarTableau:
    filling: ShiftedTableau
    blocks: tuple[tuple[Cell, ...], ...]

    @property
    def size(self) -> int:
        """|T|: the number of blocks."""
        return len(self.blocks)

    def text(self) -> str:
        groups = ";".join(
            "".join(f"({i},{j})" for i, j in block) for block in self.blocks
        )
        return f"{self.filling.text()} bars={groups}"


# -- backtracking cores ------------------------------------------------------


def _cell_frame(shape: SkewShape):
    """Sorted cells plus, per cell, the indices of left and below neighbors."""
    cells = shape.sorted_cells()
    index = {c: k for k, c in enumerate(cells)}
    left = [index.get((i, j - 1)) for (i, j) in cells]
    below = [index.get((i - 1, j)) for (i, j) in cells]
    diag = [i == j for (i, j) in cells]
    return cells, left, below, diag


def _iter_single(shape: SkewShape, max_value: int, p_flavor: bool, rpp: bool) -> Iterator[dict[Cell, int]]:
    """All single-valued fillings of the given family, in entry order."""
    cells, left, below, diag = _cell_frame(shape)
    n = len(cells)
    top = 2 * max_value
    vals = [0] * n
    if n == 0:
        yield {}
        return

    def rec(k: int) -> Iterator[dict[Cell, int]]:
        if k == n:
            yield dict(zip(cells, vals))
            return
        lo = 1
        lv = vals[left[k]] if left[k] is not None else 0
        bv = vals[below[k]] if below[k] is not None else 0
        lo = max(lo, lv, bv)
        for v in range(lo, top + 1):
            if not rpp:
                if v == lv and is_primed(v):
                    continue  # primed value repeated in a row
                if v == bv and not is_primed(v):
                    continue  # unprimed value repeated in a column
                if p_flavor and diag[k] and is_primed(v):
                    continue
            else:
                if p_flavor and diag[k] and not is_primed(v):
                    continue
            vals[k] = v
            yield from rec(k + 1)
        vals[k] = 0

    yield from rec(0)


def _iter_setvalued(
    shape: SkewShape, max_value: int, p_flavor: bool, deg_cap: int | None
) -> Iterator[dict[Cell, tuple[int, ...]]]:
    """All set-valued fillings; deg_cap bounds |T| - (number of cells)."""
    cells, left, below, diag = _cell_frame(shape)
    n = len(cells)
    top = 2 * max_value
    vals: list[tuple[int, ...]] = [()] * n
    if n == 0:
        yield {}
        return

    def rec(k: int, extra_used: int) -> Iterator[dict[Cell, tuple[int, ...]]]:
        if k == n:
            yield dict(zip(cells, vals))
            return
        lv = vals[left[k]][-1] if left[k] is not None else 0
        bv = vals[below[k]][-1] if below[k] is not None else 0
        budget = None if deg_cap is None else deg_cap - extra_used
        for m in range(max(1, lv, bv), top + 1):
            if m == lv and is_primed(m):
                continue  # a shared row value must be unprimed
            if m == bv and not is_primed(m):
                continue  # a shared column value must be primed
            if p_flavor and diag[k] and is_primed(m):
                continue
            pool = [
                c
                for c in range(m + 1, top + 1)
                if not (p_flavor and diag[k] and is_primed(c))
            ]
            max_extra = len(pool) if budget is None else min(len(pool), budget)
            for extra_count in range(0, max_extra + 1):
                for extra in itertools.combinations(pool, extra_count):
                    vals[k] = (m,) + extra
                    yield from rec(k + 1, extra_used + extra_count)
        vals[k] = ()

    yield from rec(0, 0)


def _setvalued_valid(shape: SkewShape, entries: dict[Cell, tuple[int, ...]], p_flavor: bool) -> bool:
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


def _maximal_runs(shape: SkewShape, entries: dict[Cell, int]) -> list[list[Cell]]:
    """Maximal constant bars: horizontal for unprimed values, vertical for primed."""
    cells = shape.cells()
    runs = []
    for cell in sorted(cells):
        i, j = cell
        v = entries[cell]
        # a primed run grows along its column, an unprimed one along its row
        if is_primed(v):
            prev = (i + 1, j)
            if prev in cells and entries[prev] == v:
                continue
            run = [cell]
            k = 1
            while (i - k, j) in cells and entries[(i - k, j)] == v:
                run.append((i - k, j))
                k += 1
            runs.append(sorted(run))
        else:
            prev = (i, j - 1)
            if prev in cells and entries[prev] == v:
                continue
            run = [cell]
            k = 1
            while (i, j + k) in cells and entries[(i, j + k)] == v:
                run.append((i, j + k))
                k += 1
            runs.append(run)
    return runs


def _iter_bar(shape: SkewShape, max_value: int, p_flavor: bool) -> Iterator[tuple[dict[Cell, int], tuple[tuple[Cell, ...], ...]]]:
    for filling in _iter_single(shape, max_value, p_flavor, rpp=False):
        runs = _maximal_runs(shape, filling)
        cut_choices = [
            list(itertools.product((False, True), repeat=len(run) - 1)) for run in runs
        ]
        for cuts in itertools.product(*cut_choices):
            blocks = []
            for run, cut in zip(runs, cuts):
                block = [run[0]]
                for cell, do_cut in zip(run[1:], cut):
                    if do_cut:
                        blocks.append(tuple(block))
                        block = [cell]
                    else:
                        block.append(cell)
                blocks.append(tuple(block))
            yield filling, tuple(sorted(blocks))


# -- public streaming interface ----------------------------------------------


def _check_family(family: str) -> str:
    fam = family.lower().replace("-", "_")
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return fam


def iter_tableaux(family: str, shape: SkewShape, max_value: int, deg_cap: int | None = None):
    """Stream every tableau of the family exactly once, deterministically."""
    fam = _check_family(family)
    shape.require_valid()
    p_flavor = fam.endswith("_p")
    if fam.startswith("shyt"):
        for ent in _iter_single(shape, max_value, p_flavor, rpp=False):
            yield ShiftedTableau(shape, tuple(sorted(ent.items())))
    elif fam.startswith("setshyt"):
        for ent in _iter_setvalued(shape, max_value, p_flavor, deg_cap):
            yield SetValuedTableau(shape, tuple(sorted(ent.items())))
    elif fam.startswith("shrpp"):
        for ent in _iter_single(shape, max_value, p_flavor, rpp=True):
            yield ReversePlanePartition(shape, tuple(sorted(ent.items())))
    else:
        for filling, blocks in _iter_bar(shape, max_value, p_flavor):
            yield BarTableau(ShiftedTableau(shape, tuple(sorted(filling.items()))), blocks)


def weight(family: str, t) -> tuple[tuple[int, ...], int]:
    """The (exponent vector, size statistic) of a tableau.

    The exponent vector is indexed by value 1..v_max where v_max is the
    largest value occurring; the size statistic is |T| as defined per family
    (cell count, element count, weight degree, or block count).
    """
    fam = _check_family(family)
    if fam.startswith("shyt"):
        counts: dict[int, int] = {}
        for _, code in t.entries:
            v = code_value(code)
            counts[v] = counts.get(v, 0) + 1
        top = max(counts) if counts else 0
        return tuple(counts.get(v, 0) for v in range(1, top + 1)), len(t.entries)
    if fam.startswith("setshyt"):
        counts = {}
        for _, s in t.entries:
            for code in s:
                v = code_value(code)
                counts[v] = counts.get(v, 0) + 1
        top = max(counts) if counts else 0
        return tuple(counts.get(v, 0) for v in range(1, top + 1)), t.size
    if fam.startswith("shrpp"):
        cols: dict[int, set[int]] = {}
        rows: dict[int, set[int]] = {}
        for (i, j), code in t.entries:
            v = code_value(code)
            if is_primed(code):
                rows.setdefault(v, set()).add(i)
            else:
                cols.setdefault(v, set()).add(j)
        top = max(list(cols) + list(rows)) if (cols or rows) else 0
        exps = tuple(
            len(cols.get(v, ())) + len(rows.get(v, ())) for v in range(1, top + 1)
        )
        return exps, sum(exps)
    counts = {}
    ent = dict(t.filling.entries)
    for block in t.blocks:
        v = code_value(ent[block[0]])
        counts[v] = counts.get(v, 0) + 1
    top = max(counts) if counts else 0
    return tuple(counts.get(v, 0) for v in range(1, top + 1)), t.size


def _genfun_single(shape: SkewShape, nvars: int, p_flavor: bool, rpp: bool, terms: dict) -> None:
    """Accumulate x^T (shyt) or the RPP weight terms without building objects."""
    cells, left, below, diag = _cell_frame(shape)
    n = len(cells)
    top = 2 * nvars
    vals = [0] * n
    counts = [0] * nvars

    def leaf_rpp() -> None:
        cols: dict[int, set[int]] = {}
        rows: dict[int, set[int]] = {}
        for (i, j), code in zip(cells, vals):
            v = code_value(code)
            if is_primed(code):
                rows.setdefault(v, set()).add(i)
            else:
                cols.setdefault(v, set()).add(j)
        exps = tuple(
            len(cols.get(v, ())) + len(rows.get(v, ())) for v in range(1, nvars + 1)
        )
        k = n - sum(exps)
        key = (exps, k)
        terms[key] = terms.get(key, 0) + (-1) ** k

    def rec(k: int) -> None:
        if k == n:
            if rpp:
                leaf_rpp()
            else:
                key = (tuple(counts), 0)
                terms[key] = terms.get(key, 0) + 1
            return
        lv = vals[left[k]] if left[k] is not None else 0
        bv = vals[below[k]] if below[k] is not None else 0
        for v in range(max(1, lv, bv), top + 1):
            if not rpp:
                if v == lv and is_primed(v):
                    continue
                if v == bv and not is_primed(v):
                    continue
                if p_flavor and diag[k] and is_primed(v):
                    continue
            elif p_flavor and diag[k] and not is_primed(v):
                continue
            vals[k] = v
            counts[code_value(v) - 1] += 1
            rec(k + 1)
            counts[code_value(v) - 1] -= 1
        vals[k] = 0

    if n == 0:
        terms[((0,) * nvars, 0)] = terms.get(((0,) * nvars, 0), 0) + 1
    else:
        rec(0)


def _genfun_setvalued(shape: SkewShape, nvars: int, p_flavor: bool, deg_cap: int | None, terms: dict) -> None:
    cells, left, below, diag = _cell_frame(shape)
    n = len(cells)
    top = 2 * nvars
    maxes = [0] * n
    counts = [0] * nvars

    def rec(k: int, extra_used: int) -> None:
        if k == n:
            key = (tuple(counts), extra_used)
            terms[key] = terms.get(key, 0) + 1
            return
        lv = maxes[left[k]] if left[k] is not None else 0
        bv = maxes[below[k]] if below[k] is not None else 0
        budget = None if deg_cap is None else deg_cap - extra_used
        for m in range(max(1, lv, bv), top + 1):
            if m == lv and is_primed(m):
                continue
            if m == bv and not is_primed(m):
                continue
            if p_flavor and diag[k] and is_primed(m):
                continue
            pool = [
                c
                for c in range(m + 1, top + 1)
                if not (p_flavor and diag[k] and is_primed(c))
            ]
            max_extra = len(pool) if budget is None else min(len(pool), budget)
            counts[code_value(m) - 1] += 1
            for extra_count in range(0, max_extra + 1):
                for extra in itertools.combinations(pool, extra_count):
                    maxes[k] = extra[-1] if extra else m
                    for c in extra:
                        counts[code_value(c) - 1] += 1
                    rec(k + 1, extra_used + extra_count)
                    for c in extra:
                        counts[code_value(c) - 1] -= 1
            counts[code_value(m) - 1] -= 1
        maxes[k] = 0

    if n == 0:
        terms[((0,) * nvars, 0)] = terms.get(((0,) * nvars, 0), 0) + 1
    else:
        rec(0, 0)


def _genfun_bar(shape: SkewShape, nvars: int, p_flavor: bool, max_deg: int | None, terms: dict) -> None:
    """Per filling, the block refinements collapse to prod x_v (x_v - beta)^(m-1)."""
    run_poly_cache: dict[tuple[int, int], BetaPoly] = {}

    def run_poly(value: int, length: int) -> BetaPoly:
        key = (value, length)
        if key not in run_poly_cache:
            xv = BetaPoly.variable(value, nvars, max_deg)
            xm = BetaPoly(
                nvars,
                {
                    (tuple(0 for _ in range(nvars)), 1): -1,
                },
                max_deg,
            )
            run_poly_cache[key] = xv * (xv + xm) ** (length - 1)
        return run_poly_cache[key]

    for filling in _iter_single(shape, nvars, p_flavor, rpp=False):
        piece = BetaPoly.const(nvars, 1, max_deg)
        for run in _maximal_runs(shape, filling):
            piece = piece * run_poly(code_value(filling[run[0]]), len(run))
        for key, c in piece.terms.items():
            terms[key] = terms.get(key, 0) + c


def genfun_from_tableaux(family: str, shape: SkewShape, nvars: int, max_deg: int | None) -> BetaPoly:
    """The weighted sum over the family as a truncated polynomial.

    Set-valued and single-valued families contribute beta^(|T|-|shape|) x^T;
    reverse plane partitions and bar tableaux contribute
    (-beta)^(|shape|-size) x^weight.
    """
    fam = _check_family(family)
    shape.require_valid()
    ncells = shape.size
    p_flavor = fam.endswith("_p")
    terms: dict[tuple[tuple[int, ...], int], int] = {}
    if fam.startswith("setshyt"):
        deg_cap = None if max_deg is None else max_deg - ncells
        if deg_cap is not None and deg_cap < 0:
            return BetaPoly.zero(nvars, max_deg)
        _genfun_setvalued(shape, nvars, p_flavor, deg_cap, terms)
    elif fam.startswith("shyt"):
        if max_deg is not None and ncells > max_deg:
            return BetaPoly.zero(nvars, max_deg)
        _genfun_single(shape, nvars, p_flavor, rpp=False, terms=terms)
    elif fam.startswith("shrpp"):
        _genfun_single(shape, nvars, p_flavor, rpp=True, terms=terms)
    else:
        _genfun_bar(shape, nvars, p_flavor, max_deg, terms)
        # bar signs: (-beta)^k was folded into (x - beta) factors already
        return BetaPoly(nvars, terms, max_deg)
    return BetaPoly(nvars, terms, max_deg)


# -- the one-row map and the prime-restricted family ---------------------------


def unprime_max(t: SetValuedTableau, cells: frozenset[Cell] | set[Cell]) -> SetValuedTableau:
    """Remove the prime from the largest element in each selected cell."""
    new_entries = []
    for cell, s in t.entries:
        if cell in cells and s and is_primed(s[-1]):
            s = s[:-1] + (s[-1] + 1,)
        new_entries.append((cell, s))
    return SetValuedTableau(t.shape, tuple(new_entries))


def in_restricted_p(t: SetValuedTableau, outer: StrictPartition, inner: StrictPartition) -> bool:
    """Membership in SetShYT_P(outer : inner).

    These are Q-flavor tableaux that land in SetShYT_P(outer) after unpriming
    the largest diagonal element in each row where outer and inner agree.
    """
    marked = {
        (i, i)
        for i in range(1, len(outer) + 1)
        if outer.part(i) == inner.part(i)
    }
    image = unprime_max(t, marked)
    return _setvalued_valid(t.shape, dict(image.entries), p_flavor=True)


def iter_restricted_p(
    outer: StrictPartition,
    inner: StrictPartition,
    max_value: int,
    deg_cap: int | None = None,
) -> Iterator[SetValuedTableau]:
    """Enumerate SetShYT_P(outer : inner)."""
    if not all(inner.part(i) <= outer.part(i) for i in range(1, len(outer) + 1)) or len(
        inner
    ) != len(outer):
        raise InvalidShapeError(f"need inner <= outer of equal length: {outer}/{inner}")
    for t in iter_tableaux("setshyt_q", straight(outer), max_value, deg_cap):
        if in_restricted_p(t, outer, inner):
            yield t


def onerow_map(t: SetValuedTableau) -> tuple[str, SetValuedTableau]:
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
    return "moved", SetValuedTableau(new_shape, tuple(sorted(new_entries.items())))
