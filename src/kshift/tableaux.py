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
from typing import Iterator, NamedTuple

from .errors import InvalidShapeError, ParameterError
from .polyring import BetaPoly
from .shapes import Cell, SkewShape, StrictPartition, doubleslash_inners, straight, subshapes

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


# -- the walk: listing and counting -------------------------------------------
#
# Every family is walked under the tableau rule (a shared row value is unprimed,
# a shared column value primed; a cell holds a set of codes, one code at budget
# 0) or the reverse plane partition rule, cells in reading order (rows from the
# bottom, then columns).  A cell's options depend only on the largest codes of
# its left and below neighbours, its diagonal rule and the budget
# (`_cell_options`).  `_fillings` lists the fillings, for `iter_tableaux` and
# `iter_restricted_p`.  `_tally` counts them by weight without listing any (the
# transfer-matrix method; every generating function and count reads it): it merges
# the partial fillings that agree on the largest codes the rest of the walk reads,
# and drops one once its x-degree passes the cap (a monotone bound, Stanley EC1
# 4.7), so its cost grows with a row's states, not the fillings.

FREE, P_DIAG, MARKED = 0, 1, 2  # diagonal rules: Q, no primed element, only the largest primed
_OPTIONS: dict[tuple, dict[tuple, dict]] = {}  # `_walk`'s folded cell options, kept per process


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
    """`_walk`, memoised on all seven arguments normalised (the cap among them), however a
    caller passes them.  Callers share the tally: none may mutate it.  The repeats come
    from neighbouring cases, such as one mu's count-beta1 and expansion cases, so only the
    last 8 tallies are kept: an unbounded memo held every tally of a sweep, never read again."""
    return _walk(shape, max_value, bool(p_flavor), bool(rpp), cap, bool(bar), frozenset(marked))


@functools.lru_cache(maxsize=8)
def _walk(shape: SkewShape, max_value: int, p_flavor: bool, rpp: bool, cap: int | None,
          bar: bool, marked: frozenset[int]) -> dict[tuple[int, ...], int]:
    """{exponent vector x^T padded to max_value: how many tableaux T have it}, for the
    fillings `_fillings` lists (with `bar`, the bar tableaux on them), none listed.

    A tableau cell adds its elements to the x-degree |T|.  A cell of a reverse plane
    partition or a bar tableau adds one unless it continues a line: holds the code of
    the neighbour the line runs through, the left one for a primed rpp or an unprimed
    bar entry, else the one below.  A bar tableau may cut a line there too, starting a
    bar that adds one.  The cap (None: none) bounds |T| - |shape| for tableaux, as
    deg_cap does in `_fillings`, and |T| itself for rpp and bar tableaux.  A state is
    (0 for a missing neighbour, the largest codes of the filled cells an unfilled one
    reads); it holds {weight packed into one integer, |T| in the bits above the values:
    count}, so a cell adds its integer to each key, and a weight past the cap drops out.
    Only one layer of states is held.  The cells' options, capped or not, are kept
    folded in `_OPTIONS`: {largest code, or 0 if no later cell reads it: {integer: how
    many options give both}}.
    """
    cells, left, below, diag = _layout(shape, p_flavor, marked)
    n = len(cells)
    last_read = [-1] * (n + 1)  # the last cell reading each one; slot -1 takes a missing neighbour
    for k in range(n):
        last_read[left[k]] = last_read[below[k]] = k
    w = (2 * n).bit_length()  # bits per value: a weight entry is at most 2n
    one = 1 << max_value * w  # each element, line or block adds one to |T| here, above the values
    unit = [0] + [one + (1 << ((code - 1) >> 1) * w) for code in range(1, 2 * max_value + 1)]

    def deltas(codes: tuple[int, ...], top: int, lv: int, bv: int) -> tuple[int, ...]:
        if not (rpp or bar):
            return (sum(unit[c] for c in codes),)
        if top != (lv if (top & 1) != bar else bv):
            return (unit[top],)
        return (0, unit[top]) if bar else (0,)

    budget = 0 if rpp or bar else cap  # the extra elements a cell may hold
    most = 2 * max_value * n if cap is None else cap  # no filling passes 2 max_value n
    table = _OPTIONS.setdefault((max_value, w, rpp, bar, budget), {})
    layer: dict[tuple, dict[int, int]] = {(0,): {0: 1}}
    live: tuple[int, ...] = ()  # the cells whose codes a state holds, in order
    for k in range(n):
        pos = {m: p for p, m in enumerate(live, 1)}
        lp, bp = pos.get(left[k], 0), pos.get(below[k], 0)
        read_later = last_read[k] > k
        live = tuple(m for m in live if last_read[m] > k) + ((k,) if read_later else ())
        keep = [pos[m] for m in live if m != k]
        limit = (most + 1 + (0 if rpp or bar else k + 1)) * one  # a weight past the cap is dropped
        nxt: dict[tuple, dict[int, int]] = {}
        for state, partial in layer.items():
            lv, bv = state[lp], state[bp]
            opts = table.get((lv, bv, diag[k], read_later))
            if opts is None:
                opts = table[lv, bv, diag[k], read_later] = {}
                for codes, top, _ in _cell_options(2 * max_value, rpp, lv, bv, diag[k], budget):
                    folded = opts.setdefault(top if read_later else 0, {})
                    for delta in deltas(codes, top, lv, bv):
                        folded[delta] = folded.get(delta, 0) + 1
            carried = (0, *map(state.__getitem__, keep))
            for top, folded in opts.items():
                target = nxt.setdefault((*carried, top) if read_later else carried, {})
                for delta, times in folded.items():
                    for packed, count in partial.items():
                        packed += delta
                        if packed < limit:
                            target[packed] = target.get(packed, 0) + count * times
        layer = {state: partial for state, partial in nxt.items() if partial}
    mask, out = (1 << w) - 1, {}
    for partial in layer.values():
        for packed, count in partial.items():
            exps = tuple(packed >> v * w & mask for v in range(max_value))
            out[exps] = out.get(exps, 0) + count
    return out


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
    and |T| counting T's elements, lines or blocks by value as `_walk` does.  No
    tableau is listed: `_tally` counts them by x^T, one term per exponent vector, and
    for every family it drops a partial filling once its x-degree passes max_deg.
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
    """How many set-valued shifted tableaux of shape outer (a strict partition's
    parts) hold value v content[v-1] times.

    Times beta^(|content| - |outer|), it is [x^content] GP_outer (p_flavor) or GQ_outer.
    By the coproduct GQ_outer(x, y) = sum_mu GQ_mu(x) GQ_{outer//mu}(y) (GP alike) the c =
    content[-1] elements of the last value fill outer/mu (`_last_value`), the others mu.
    """
    if not content:
        return int(not outer)
    hi, c = sum(content) - content[-1], content[-1]
    return sum(content_count(p_flavor, mu, content[:-1]) * n for mu, size, n in _last_value(p_flavor, outer).get(c, ()) if size <= hi)


@functools.cache
def _last_value(p_flavor: bool, outer: tuple[int, ...]) -> dict[int, list[tuple[tuple[int, ...], int, int]]]:
    """{c: (mu, |mu|, n) for each mu inside outer that c elements of one value, the largest,
    complete in n > 0 ways}: they fill outer/kappa, kappa in doubleslash_inners(mu)."""
    shapes, out = subshapes(StrictPartition(outer)), {}
    ways = {kappa.parts: w for kappa in shapes if (w := _one_value_count(p_flavor, outer, kappa.parts))}
    for mu in shapes:
        at: dict[int, int] = {}
        for c, n in (cn for kappa in doubleslash_inners(mu) for cn in ways.get(kappa.parts, {}).items()):
            at[c] = at.get(c, 0) + n
        for c, n in at.items():
            out.setdefault(c, []).append((mu.parts, mu.size, n))
    return out


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
