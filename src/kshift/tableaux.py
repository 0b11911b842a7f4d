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

Every family but the bar tableaux yields one record, `Tableau`, with a tuple
of codes per cell. Single-valued tableaux are the set-valued ones at budget
0; they and reverse plane partitions hold one code per cell.

A diagonal cell is walked under one of three rules: free (Q), P (no primed
element), or marked (only its largest element may be primed).  The marked
rule serves the prime-restricted family SetShYT_P(outer : inner), whose
marked cells are the diagonal cells of the rows where outer and inner agree.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from operator import gt
from typing import Iterator, NamedTuple

from .errors import InvalidShapeError, ParameterError
from .polyring import BetaPoly
from .shapes import EMPTY, Cell, SkewShape, StrictPartition, contains, doubleslash_inners, straight, subshapes

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


class Tableau(NamedTuple):
    """A filling of a shifted shape: (cell, codes) per cell, in reading order.

    `codes` is the sorted tuple of the cell's elements, a 1-tuple for
    single-valued tableaux and reverse plane partitions.
    """

    shape: SkewShape
    entries: tuple[tuple[Cell, tuple[int, ...]], ...]

    def text(self) -> str:
        rows: dict[int, str] = {}
        for (i, _), s in self.entries:
            rows[i] = rows.get(i, "") + "{" + "".join(map(format_code, s)) + "}"
        return "|".join(rows[i] for i in sorted(rows))


class BarTableau(NamedTuple):
    filling: Tableau
    blocks: tuple[tuple[Cell, ...], ...]

    def text(self) -> str:
        groups = ";".join(
            "".join(f"({i},{j})" for i, j in block) for block in self.blocks
        )
        return f"{self.filling.text()} bars={groups}"


# -- listing and counting -----------------------------------------------------
#
# Every family is listed under the tableau rule (a shared row value is unprimed, a shared
# column value primed; a cell holds a set of codes, one code at budget 0) or the reverse
# plane partition rule, cells in reading order (rows from the bottom, then columns); a
# cell's options depend only on the largest codes of its left and below neighbours, its
# diagonal rule and the budget (`_cell_options`).  Counting goes value by value: the cells
# holding a value (for set-valued tableaux, an element) <= v form a strict shape mu_v, so a
# tableau is a chain inner = mu_0 <= ... <= mu_n = outer, and the fillings of a layer by v'
# and v have closed forms row by row (`_into`).  With M_d the layer matrix at degree d,
# M_0 = I, the count at x^e is (M_{e_1} ... M_{e_n})[inner, outer], so it depends on e with
# its zeros removed: the tallies are quasisymmetric (Gessel 1984; Stanley EC2 7.19, and EC1
# 4.7 for transfer matrices).  `_count` takes the product once per composition,
# `content_count` at one.

FREE, P_DIAG, MARKED = 0, 1, 2  # diagonal rules: Q, no primed element, only the largest primed


def _layout(shape: SkewShape, p_flavor: bool, marked: frozenset[int]):
    """The cells in reading order, the index of each one's left and below neighbour (-1 if none),
    and its rule: FREE, or with `p_flavor` on the diagonal MARKED if its row is in `marked`, else P_DIAG."""
    cells = shape.sorted_cells()
    index = {c: k for k, c in enumerate(cells)}
    left = [index.get((i, j - 1), -1) for (i, j) in cells]
    below = [index.get((i - 1, j), -1) for (i, j) in cells]
    diag = [(MARKED if i in marked else P_DIAG) if p_flavor and i == j else FREE for (i, j) in cells]
    return cells, left, below, diag


def _fillings(shape: SkewShape, max_value: int, p_flavor: bool, rpp: bool, deg_cap: int | None,
              marked: frozenset[int] = frozenset()):
    """Every filling of the shape with values 1..max_value, in entry order.

    With `rpp` the fillings are reverse plane partitions, one code per cell.
    Otherwise they are set-valued tableaux where deg_cap bounds
    |T| - (number of cells) (None means no bound), so deg_cap 0 gives the
    semistandard shifted tableaux.  Diagonal rules are as in `_layout`: for
    reverse plane partitions a P_DIAG entry is primed.  So the walk yields
    the Q walk's fillings whose diagonal cells obey their rules, in the Q
    walk's order.

    Yields the live (cells, entries) for each filling: `entries` holds one
    tuple of codes per cell.  The list is reused, so copy what must outlive
    the next step.

    A cell's options, (codes, largest code, extras used), are stored per key
    only when the remaining budget is finite: an uncapped set-valued cell has
    exponentially many subsets, and holding them all would cost memory that
    streaming them from `_cell_options` does not.
    """
    cells, left, below, diag = _layout(shape, p_flavor, marked)
    n = len(cells)
    entries: list[tuple[int, ...]] = [()] * n
    largest = [0] * (n + 1)  # largest[-1] stays 0 for a missing neighbour
    table: dict[tuple, list] = {}
    last = n - 1

    def rec(k: int, used: int):
        key = (
            largest[left[k]],
            largest[below[k]],
            diag[k],
            None if deg_cap is None else deg_cap - used,
        )
        opts = table.get(key)
        if opts is None:
            opts = _cell_options(2 * max_value, rpp, *key)
            if key[3] is not None:
                opts = table[key] = list(opts)
        for codes, top, extras in opts:
            largest[k] = top
            entries[k] = codes
            if k == last:
                yield cells, entries
            else:
                yield from rec(k + 1, used + extras)
        entries[k] = ()
        largest[k] = 0

    if n == 0:
        yield cells, entries
        return
    try:
        yield from rec(0, 0)
    finally:
        # rec's closure refers to rec: break that cycle so the table is freed
        # now, not at some later full garbage collection
        del rec


def _tally(shape: SkewShape, max_value: int, p_flavor: bool, rpp: bool, cap: int | None,
           bar: bool = False, marked: frozenset[int] = frozenset()) -> dict[tuple[int, ...], int]:
    """`_count`, memoised on all seven arguments normalised (the cap among them), however a caller
    passes them; callers share the tally and none may mutate it.  The repeats come from neighbouring
    cases, such as one mu's count-beta1 and expansion cases, so only the last 8 tallies are kept."""
    return _count(shape, max_value, bool(p_flavor), bool(rpp), cap, bool(bar), frozenset(marked))


@functools.lru_cache(maxsize=8)
def _count(shape: SkewShape, max_value: int, p_flavor: bool, rpp: bool, cap: int | None,
           bar: bool, marked: frozenset[int]) -> dict[tuple[int, ...], int]:
    """{exponent vector x^T padded to max_value: how many tableaux T have it}, for the
    fillings `_fillings` lists (with `bar`, the bar tableaux on them), none listed.  |T|
    counts T's elements if a tableau, its lines (a row of v' or a column of v) if a reverse
    plane partition, its blocks if a bar tableau; the cap (None: none) bounds |T| - |shape|
    for tableaux, as deg_cap does in `_fillings`, and |T| for the others.  The compositions
    are walked depth first, last value first, with a vector {state: fillings of
    outer/state} a node; each count goes to every exponent vector it is with zeros put in.
    """
    kind, inner, end = "bar" if bar else "rpp" if rpp else "set", shape.inner, (shape.inner.parts, 0)
    found: dict[tuple[int, ...], int] = {}

    def grow(col: dict, suffix: tuple[int, ...], room: int) -> None:
        if end in col:
            found[suffix] = col[end]
        if len(suffix) == max_value:
            return
        to = (end,) if len(suffix) + 1 == max_value else None  # the first value's layer must reach inner
        after: dict[int, dict] = {}
        for state2, n in col.items():
            layers = _into(kind, p_flavor, state2, inner, marked)
            for state in layers if to is None else [s for s in to if s in layers]:
                top = room - (sum(state[0]) - inner.size if kind == "set" else 0)  # each cell of state/inner holds one
                for d, m in layers[state].items():
                    if d > top:
                        break
                    at = after.setdefault(d, {})
                    at[state] = at.get(state, 0) + n * m
        for d, nxt in after.items():
            grow(nxt, (d,) + suffix, room - d)

    lone = len(shape.outer) in marked and shape.outer.parts[-1] == 1
    grow({(shape.outer.parts, bit): 1 for bit in range(1 + lone)}, (), 2 * max_value * shape.size if cap is None else cap + (0 if rpp or bar else shape.size))
    out = {}
    for alpha, n in found.items():
        for places in itertools.combinations(range(max_value), len(alpha)):
            exps = [0] * max_value
            for v, a in zip(places, alpha):
                exps[v] = a
            out[tuple(exps)] = n
    return out


@functools.cache
def _into(kind: str, p_flavor: bool, state2: tuple[tuple[int, ...], int], inner: StrictPartition,
          marked: frozenset[int]) -> dict[tuple[tuple[int, ...], int], dict[int, int]]:
    """The layers of one value ending at state2: {state they start from, containing inner:
    {d >= 1: how many fillings of degree d}}, d increasing.

    Set-valued: mu -> mu2 fills mu2/kappa in `_one_value_count` ways, kappa in
    doubleslash_inners(mu) containing inner, so the cells of mu/kappa hold smaller values
    too.  Each marked diagonal cell of mu2/kappa may hold v' instead of v, its largest
    element; while it is the last row's one cell (`lone`), bit 1 records that choice, so
    that no later value joins it.  Reverse plane partitions and bar tableaux: mu <= nu <=
    mu2, v' filling nu/mu and v filling mu2/nu (`_half`)."""
    mu2, bit2 = StrictPartition(state2[0]), state2[1]
    out: dict[tuple, dict[int, int]] = {}

    def add(state, poly, shift=0):
        at = out.setdefault(state, {})
        for d, n in poly.items():
            if d:  # the empty layer, M_0 = I, is no layer
                at[d] = at.get(d, 0) + (n << shift)

    if kind == "set":
        rows2 = len(mu2.parts)
        lone = {mu: len(mu.parts) in marked and mu.parts[-1] == 1 for mu in subshapes(mu2)}
        up_to = [sum(i <= r for i in marked) for r in range(rows2 + 1)]  # marked rows up to each row
        ways = {kappa.parts: w for kappa in subshapes(mu2) if contains(inner, kappa) and (w := _one_value_count(p_flavor, mu2.parts, kappa.parts))}
        for mu in subshapes(mu2):
            for kappa in (kappa.parts for kappa in doubleslash_inners(mu) if kappa.parts in ways):
                rows = len(kappa)
                fills_last = lone[mu2] and rows < rows2
                for bit in range(1 + (rows == len(mu.parts) and lone[mu])):
                    if fills_last or not lone[mu2] or bit == bit2:
                        add((mu.parts, bit), ways[kappa], up_to[rows2] - up_to[rows] - fills_last)
    else:
        for nu in subshapes(mu2):
            last = contains(inner, nu) and _half(kind == "bar", p_flavor, False, nu.parts, mu2.parts)
            for mu in subshapes(nu) if last else ():
                first = contains(inner, mu) and _half(kind == "bar", p_flavor, True, mu.parts, nu.parts)
                for a, m in (first or {}).items():
                    add((mu.parts, 0), {a + b: m * n for b, n in last.items()})
    return {state: dict(sorted(poly.items())) for state, poly in out.items() if poly}


def _half(bar: bool, p_flavor: bool, primed: bool, low: tuple[int, ...], high: tuple[int, ...]) -> dict[int, int] | None:
    """The fillings of high/low by v' (primed) or v alone by degree, None if none: a reverse
    plane partition counts its lines, rows of v' and columns of v; a bar tableau has no two
    cells in such a line and cuts each run across them into blocks, t (1 + t)^(L - 1) for L
    cells.  Under P the diagonal is primed in a reverse plane partition, else unprimed."""
    if p_flavor and primed == bar and len(high) > len(low):
        return None
    low += (0,) * (len(high) - len(low))
    cells = sum(high) - sum(low)
    across = cells - sum(map(gt, high, low))  # pairs of cells side by side
    up = sum(max(0, high[r] - max(low[r], low[r - 1] - 1)) for r in range(1, len(high)))  # one above the other
    line, run = (across, up) if primed else (up, across)
    if not bar:
        return {cells - line: 1}
    return None if line else {cells - run + j: comb(run, j) for j in range(run + 1)}


def _cell_options(top: int, rpp: bool, lv: int, bv: int, diag: int, budget: int | None):
    """(codes, largest code, extras used) for one cell, in entry order.

    lv and bv are the largest codes of the left and below neighbours (0 if
    none); diag is the cell's diagonal rule.  The P_DIAG and MARKED options
    are the FREE ones without those that break the rule, in the same order.
    """
    for m in range(max(1, lv, bv), top + 1):
        primed = is_primed(m)
        if rpp:
            if diag and not primed:
                continue  # a P-flavour diagonal entry must be primed
        elif (m == lv and primed) or (m == bv and not primed) or (diag == P_DIAG and primed):
            continue  # a shared row value is unprimed, a shared column value primed
        yield (m,), m, 0
        if budget == 0 or (diag and primed):
            continue  # a primed marked element must be the cell's largest
        pool = [c for c in range(m + 1, top + 1) if not (diag == P_DIAG and is_primed(c))]
        for size in range(1, len(pool) + 1 if budget is None else min(len(pool), budget) + 1):
            for extra in itertools.combinations(pool, size):
                if diag != MARKED or not any(is_primed(c) for c in extra[:-1]):
                    yield (m,) + extra, extra[-1], size


def _maximal_runs(t: Tableau) -> list[list[Cell]]:
    """Maximal constant bars: horizontal for unprimed values, vertical for primed.

    The cells of one value in one row (unprimed) or column (primed) form a run,
    listed at its first cell in reading order if unprimed, at its last if primed.
    """
    runs: dict[tuple[int, int], list[Cell]] = {}
    for (i, j), (code,) in t.entries:
        runs.setdefault((code, j if is_primed(code) else i), []).append((i, j))
    order = sorted(runs.items(), key=lambda kv: kv[1][-1] if is_primed(kv[0][0]) else kv[1][0])
    return [run for _, run in order]


def _iter_bar(fillings: Iterator[Tableau]) -> Iterator[BarTableau]:
    """Each single-valued filling with every way to cut its maximal runs into bars."""
    for t in fillings:
        runs = _maximal_runs(t)
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
            yield BarTableau(t, tuple(sorted(blocks)))


# -- public streaming interface ----------------------------------------------


def _check_family(family: str) -> str:
    fam = family.lower().replace("-", "_")
    if fam not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return fam


def _check_walk(shape: SkewShape, max_value: int, deg_cap: int | None) -> None:
    shape.require_valid()
    if max_value < 1:
        raise ParameterError(f"max_value must be at least 1, got {max_value}")
    if deg_cap is not None and deg_cap < 0:
        raise ParameterError(f"deg_cap must be at least 0, got {deg_cap}")


def iter_tableaux(family: str, shape: SkewShape, max_value: int, deg_cap: int | None = None):
    """Stream every tableau of the family exactly once, deterministically.

    deg_cap bounds |T| - |shape| and has a meaning for set-valued families only.
    """
    fam = _check_family(family)
    _check_walk(shape, max_value, deg_cap)
    if deg_cap is not None and not fam.startswith("setshyt"):
        raise ParameterError(f"deg_cap bounds set-valued families only, not {fam}")
    cap = deg_cap if fam.startswith("setshyt") else 0  # single-valued: set-valued at budget 0
    walk = _fillings(shape, max_value, fam.endswith("_p"), fam.startswith("shrpp"), cap)
    tableaux = (Tableau(shape, tuple(zip(cells, entries))) for cells, entries in walk)
    yield from _iter_bar(tableaux) if fam.startswith("shbt") else tableaux


def genfun_from_tableaux(family: str, shape: SkewShape, nvars: int, max_deg: int | None) -> BetaPoly:
    """The weighted sum over the family as a truncated polynomial: each tableau T
    weighs beta^(|T| - |shape|) x^T if set-valued or single-valued, and
    (-beta)^(|shape| - |T|) x^T if a reverse plane partition or a bar tableau, x^T
    and |T| counting T's elements, lines or blocks by value as `_count` does.  No
    tableau is listed: `_tally` counts them by x^T, one layer product per composition
    of x-degree at most max_deg, placed at each exponent vector it stands for.
    """
    fam = _check_family(family)
    shape.require_valid()
    ncells = shape.size
    rpp, bar = fam.startswith("shrpp"), fam.startswith("shbt")
    cap = max_deg if rpp or bar else (None if max_deg is None else max_deg - ncells) if fam.startswith("setshyt") else 0
    if cap is not None and cap < 0:
        return BetaPoly.zero(nvars, max_deg)
    terms, signed = {}, rpp or bar
    for exps, n in _tally(shape, nvars, fam.endswith("_p"), rpp, cap, bar).items():
        k = ncells - sum(exps) if signed else sum(exps) - ncells
        terms[(exps, k)] = (-1) ** k * n if signed else n
    return BetaPoly(nvars, terms, max_deg)


@functools.cache
def content_count(p_flavor: bool, outer: tuple[int, ...], content: tuple[int, ...]) -> int:
    """How many set-valued shifted tableaux of shape outer (a strict partition's parts) hold
    value v content[v-1] times: times beta^(|content| - |outer|), [x^content] GP_outer
    (p_flavor) or GQ_outer.  It is `_count`'s layer product at the one composition content,
    memoised per shape as the last value's layer mu -> outer is peeled off."""
    if not content:
        return int(not outer)
    hi, c = sum(content) - content[-1], content[-1]
    if not c:
        return content_count(p_flavor, outer, content[:-1])
    layers = _into("set", p_flavor, (outer, 0), EMPTY, frozenset())
    return sum(content_count(p_flavor, mu, content[:-1]) * n for (mu, _), poly in layers.items() if (n := poly.get(c)) and sum(mu) <= hi)


def _one_value_count(p_flavor: bool, outer: tuple[int, ...], inner: tuple[int, ...]) -> dict[int, int]:
    """The one-value fillings of outer/inner by their number of elements c: at c,
    [x^c] of the one-variable GP/GQ of outer/inner with beta set to 1.

    A cell holds a nonempty subset of {1', 1}.  A cell with a left neighbour holds
    1 alone, so a cell above it has nothing left to hold: then the count is zero,
    which is when a row above reaches past the first cell of the row below.  Else
    a first cell of its row with a cell above holds 1' alone, and a diagonal one
    for P holds 1 alone.  The F other first cells are free: k of them hold both,
    the rest either one, so the count at c = cells + k is C(F, k) 2^(F-k)."""
    rows, free = [*zip(outer, inner + (0,) * (len(outer) - len(inner))), (0, 0)], 0
    for (o, k), (o_up, k_up) in zip(rows, rows[1:]):
        if k_up < o_up and k < o_up:
            return {}
        free += k < o and not (k_up < o_up and k == o_up) and not (p_flavor and k == 0)
    return {sum(outer) - sum(inner) + j: comb(free, j) << (free - j) for j in range(free + 1)}


# -- the prime-restricted family -----------------------------------------------


def iter_restricted_p(
    outer: StrictPartition,
    inner: StrictPartition,
    max_value: int,
    deg_cap: int | None = None,
) -> Iterator[Tableau]:
    """Enumerate SetShYT_P(outer : inner) in the order of the Q walk it lies in.

    One walk of straight(outer) under the P rule, with the diagonal cells of
    the rows where outer and inner agree MARKED.
    """
    marked = marked_rows(outer, inner)
    shape = straight(outer)
    _check_walk(shape, max_value, deg_cap)
    for cells, entries in _fillings(shape, max_value, True, False, deg_cap, marked):
        yield Tableau(shape, tuple(zip(cells, entries)))


def marked_rows(outer: StrictPartition, inner: StrictPartition) -> frozenset[int]:
    """The rows where outer and inner agree, whose diagonal cells are MARKED in
    SetShYT_P(outer : inner); inner <= outer must be of equal length."""
    if not all(inner.part(i) <= outer.part(i) for i in range(1, len(outer) + 1)) or len(inner) != len(outer):
        raise InvalidShapeError(f"need inner <= outer of equal length: {outer}/{inner}")
    return frozenset(i for i in range(1, len(outer) + 1) if outer.part(i) == inner.part(i))
