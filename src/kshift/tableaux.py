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
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class Tableau:
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


@dataclass(frozen=True)
class BarTableau:
    filling: Tableau
    blocks: tuple[tuple[Cell, ...], ...]

    def text(self) -> str:
        groups = ";".join(
            "".join(f"({i},{j})" for i, j in block) for block in self.blocks
        )
        return f"{self.filling.text()} bars={groups}"


# -- backtracking core ---------------------------------------------------------
#
# Every family is walked by `_fillings`, under one of two rules: the tableau
# rule (a shared row value is unprimed, a shared column value primed; a cell
# holds a set of codes, a single code when the budget is 0) or the reverse
# plane partition rule.  Cells are filled in reading order (rows from the
# bottom, then columns).  Each cell's choices depend only on the largest code
# of its left and below neighbours, on the cell's diagonal rule, and on the
# remaining set-valued budget, so they are computed once per such key and
# reused at every node that shares it.

FREE, P_DIAG, MARKED = 0, 1, 2  # diagonal rules: Q, no primed element, only the largest primed


def _fillings(shape: SkewShape, max_value: int, p_flavor: bool, rpp: bool, deg_cap: int | None,
              tally: bool = False, marked: frozenset[int] = frozenset()):
    """Every filling of the shape with values 1..max_value, in entry order.

    With `rpp` the fillings are reverse plane partitions, one code per cell.
    Otherwise they are set-valued tableaux where deg_cap bounds
    |T| - (number of cells) (None means no bound), so deg_cap 0 gives the
    semistandard shifted tableaux.  A cell off the diagonal, or on it without
    `p_flavor`, is FREE.  With `p_flavor` a diagonal cell is P_DIAG (for
    reverse plane partitions: its entry is primed), or MARKED when its row is
    in `marked`, so the walk yields the Q walk's fillings whose diagonal
    cells obey their rules, in the Q walk's order.

    Yields the live (cells, entries, counts) for each filling: `entries` holds
    one tuple of codes per cell and `counts[v - 1]` is how often value v
    occurs (kept only with `tally`, else all zero).  The lists are reused, so
    copy what must outlive the next step.  Fixed-content counts come from
    one-value walks (`_one_value_count`).

    A cell's options, (codes, largest code, extras used), are stored per key
    only when the remaining budget is finite: an uncapped set-valued cell has
    exponentially many subsets, and holding them all would cost memory that
    streaming them from `_cell_options` does not.
    """
    cells = shape.sorted_cells()
    n = len(cells)
    index = {c: k for k, c in enumerate(cells)}
    left = [index.get((i, j - 1), -1) for (i, j) in cells]
    below = [index.get((i - 1, j), -1) for (i, j) in cells]
    diag = [(MARKED if i in marked else P_DIAG) if p_flavor and i == j else FREE for (i, j) in cells]
    entries: list[tuple[int, ...]] = [()] * n
    largest = [0] * (n + 1)  # largest[-1] stays 0 for a missing neighbour
    counts = [0] * max_value
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
            if tally:
                for c in codes:
                    counts[(c - 1) >> 1] += 1
            entries[k] = codes
            if k == last:
                yield cells, entries, counts
            else:
                yield from rec(k + 1, used + extras)
            if tally:
                for c in codes:
                    counts[(c - 1) >> 1] -= 1
        entries[k] = ()
        largest[k] = 0

    if n == 0:
        yield cells, entries, counts
        return
    try:
        yield from rec(0, 0)
    finally:
        # rec's closure refers to rec: break that cycle so the table is freed
        # now, not at some later full garbage collection
        del rec


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
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
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
    tableaux = (Tableau(shape, tuple(zip(cells, entries))) for cells, entries, _ in walk)
    yield from _iter_bar(tableaux) if fam.startswith("shbt") else tableaux


def _codes(fam: str, t) -> list[int]:
    """A code per element (set-valued and single-valued tableaux), line (reverse plane partitions:
    a column of unprimed or a row of primed v) or block (bar tableaux) of t, in the checked family fam."""
    if fam.startswith("shbt"):
        ent = dict(t.filling.entries)
        return [ent[block[0]][0] for block in t.blocks]
    if fam.startswith("shrpp"):
        return [code for code, _ in {(code, i if code & 1 else j) for (i, j), (code,) in t.entries}]
    return [code for _, s in t.entries for code in s]


def weight(family: str, t) -> tuple[tuple[int, ...], int]:
    """The (exponent vector, size statistic |T|) of a tableau: each of its `_codes` adds 1 at its
    value, indexed by value 1..v_max for the largest value v_max occurring; |T| is their number."""
    codes = _codes(_check_family(family), t)
    exps = [0] * ((max(codes, default=0) + 1) >> 1)
    for code in codes:
        exps[(code - 1) >> 1] += 1
    return tuple(exps), len(codes)


def weight_tally(family: str, tableaux: Iterable, nvars: int) -> Counter:
    """How many of the tableaux have each `weight` exponent vector, padded to nvars."""
    fam, tally = _check_family(family), Counter()
    for t in tableaux:
        exps = [0] * nvars
        for code in _codes(fam, t):
            exps[(code - 1) >> 1] += 1
        tally[tuple(exps)] += 1
    return tally


def genfun_from_tableaux(family: str, shape: SkewShape, nvars: int, max_deg: int | None) -> BetaPoly:
    """The weighted sum over the family as a truncated polynomial.

    One walk tallies the fillings by their key (c, r): c_v is the number of
    elements equal to v, and r_v the number of lines of v, the rows of
    unprimed and columns of primed v for bar tableaux (their maximal runs),
    the columns of unprimed and rows of primed v for reverse plane
    partitions.  Each key is expanded once:
      set-valued and single-valued   beta^(|c| - |shape|) x^c       (r unused)
      reverse plane partitions       (-beta)^(|shape| - |r|) x^r    (c unused)
      bar tableaux                   prod_v x_v^r_v (x_v - beta)^(c_v - r_v),
    the last being the sum of (-beta)^(|shape| - |T|) x^T over the ways to
    cut each run into bars.
    """
    fam = _check_family(family)
    shape.require_valid()
    ncells = shape.size
    rpp, bar = fam.startswith("shrpp"), fam.startswith("shbt")
    deg_cap = (None if max_deg is None else max_deg - ncells) if fam.startswith("setshyt") else 0
    if deg_cap is not None and deg_cap < 0:
        return BetaPoly.zero(nvars, max_deg)
    tally: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for cells, entries, counts in _fillings(shape, nvars, fam.endswith("_p"), rpp, deg_cap, tally=not rpp):
        r = ()
        if rpp or bar:
            lines = {(code, i if (code & 1) != bar else j) for (i, j), (code,) in zip(cells, entries)}
            r = [0] * nvars
            for code, _ in lines:
                r[(code - 1) >> 1] += 1
            r = tuple(r)
        key = (tuple(counts), r)
        tally[key] = tally.get(key, 0) + 1
    terms: dict[tuple[tuple[int, ...], int], int] = {}
    for (c, r), n in tally.items():
        if bar:  # the binomial theorem, factor by factor
            for ks in itertools.product(*(range(cv - rv + 1) for cv, rv in zip(c, r))):
                key = (tuple(cv - k for cv, k in zip(c, ks)), sum(ks))
                binom = math.prod(math.comb(cv - rv, k) for cv, rv, k in zip(c, r, ks))
                terms[key] = terms.get(key, 0) + n * (-1) ** key[1] * binom
        elif rpp:
            terms[(r, ncells - sum(r))] = n * (-1) ** (ncells - sum(r))
        else:
            terms[(c, sum(c) - ncells)] = n
    return BetaPoly(nvars, terms, max_deg)


@functools.cache
def content_count(p_flavor: bool, outer: tuple[int, ...], content: tuple[int, ...]) -> int:
    """How many set-valued shifted tableaux of shape outer (a strict partition's
    parts) hold value v content[v-1] times.

    Times beta^(|content| - |outer|), it is [x^content] GP_outer (p_flavor) or GQ_outer.
    By the coproduct GQ_outer(x, y) = sum_mu GQ_mu(x) GQ_{outer//mu}(y) (GP alike)
    the c = content[-1] elements of the last value fill outer/kappa, kappa in
    doubleslash_inners(mu), and the others fill mu, |outer| - c <= |mu| <= |content| - c.
    Every key is a tuple of parts, so no shape is built or hashed per term.
    """
    if not content:
        return int(not outer)
    c = content[-1]
    lo, hi = sum(outer) - c, sum(content) - c
    return sum(
        content_count(p_flavor, mu.parts, content[:-1]) * _one_value_count(p_flavor, outer, kappa.parts, c)
        for mu in subshapes(StrictPartition(outer)) if lo <= mu.size <= hi
        for kappa in doubleslash_inners(mu)
    )


@functools.cache
def _one_value_count(p_flavor: bool, outer: tuple[int, ...], inner: tuple[int, ...], c: int) -> int:
    """[x^c] of the one-variable GP/GQ of outer/inner, beta set to 1: the fillings with c elements."""
    extras = c - sum(outer) + sum(inner)
    if extras < 0:
        return 0
    shape = SkewShape(StrictPartition(outer), StrictPartition(inner))
    return sum(counts[0] == c for _, _, counts in _fillings(shape, 1, p_flavor, False, extras, tally=True))


# -- the one-row map and the prime-restricted family ---------------------------


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


def iter_restricted_p(
    outer: StrictPartition,
    inner: StrictPartition,
    max_value: int,
    deg_cap: int | None = None,
) -> Iterator[Tableau]:
    """Enumerate SetShYT_P(outer : inner) in the order of the Q walk it lies in.

    One walk of straight(outer) under the P rule, with the diagonal cells of
    the rows where outer and inner agree MARKED; `in_restricted_p` is the
    same test made on a finished tableau.
    """
    if not all(inner.part(i) <= outer.part(i) for i in range(1, len(outer) + 1)) or len(
        inner
    ) != len(outer):
        raise InvalidShapeError(f"need inner <= outer of equal length: {outer}/{inner}")
    shape = straight(outer)
    _check_walk(shape, max_value, deg_cap)
    marked = frozenset(i for i in range(1, len(outer) + 1) if outer.part(i) == inner.part(i))
    for cells, entries, _ in _fillings(shape, max_value, True, False, deg_cap, marked=marked):
        yield Tableau(shape, tuple(zip(cells, entries)))


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
