"""Sparse polynomials in x_1..x_n over Z[beta], with exact truncation.

Terms are keyed by (exponent vector, beta exponent) with arbitrary-precision
integer coefficients.  Truncation discards terms whose total x-degree exceeds
max_deg; the beta degree is never truncated.  A polynomial may carry a split
index, in which case the first `split` variables and the remaining ones form
two alphabets and the degree bound applies to each block separately.

A truncated product never forms a term pair that the truncation drops.
`__mul__` buckets the right factor's terms by block degree, and each left term
visits only the buckets that still fit; `tensor_split` drops each factor's
terms past max_deg before pairing.  Either way no degree is tested twice.

An element of Z[beta] (every coefficient of a basis expansion) is a polynomial
in 0 variables with max_deg None.  Equality compares the number of variables,
the split, the truncation and the terms.  `view` reads a symmetric polynomial
by its terms at partition exponents, sorting each exponent once.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from operator import add
from typing import Iterable, Mapping, NamedTuple

from .errors import KshiftError, NvarsMismatchError, UnboundedTruncationError

TermKey = tuple[tuple[int, ...], int]


class RationalPoint(NamedTuple):
    """An exact evaluation point: a rational beta and rational coordinates."""

    beta: Fraction
    coords: tuple[Fraction, ...]


class BetaPoly:
    """A truncated sparse polynomial over Z[beta]; immutable by convention."""

    __slots__ = ("nvars", "max_deg", "split", "terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[TermKey, int] | None = None,
        max_deg: int | None = None,
        split: int | None = None,
    ):
        self.nvars = nvars
        self.max_deg = max_deg
        self.split = split
        items = terms.items() if terms else ()
        if max_deg is None:
            self.terms = {(tuple(e), b): c for (e, b), c in items if c}
        elif split is None:
            self.terms = {(tuple(e), b): c for (e, b), c in items if c and sum(e) <= max_deg}
        else:
            md, s = max_deg, split
            self.terms = {(tuple(e), b): c for (e, b), c in items if c and sum(e[:s]) <= md and sum(e[s:]) <= md}

    def _degrees(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """The x-degree of each block: (total,), or (x-block, y-block) when split."""
        return (sum(exps),) if self.split is None else (sum(exps[: self.split]), sum(exps[self.split :]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, max_deg: int | None = None, split: int | None = None) -> "BetaPoly":
        return cls(nvars, {}, max_deg, split)

    @classmethod
    def const(cls, nvars: int, c: int = 1, max_deg: int | None = None, split: int | None = None) -> "BetaPoly":
        return cls(nvars, {((0,) * nvars, 0): c}, max_deg, split)

    @classmethod
    def variable(cls, i: int, nvars: int, max_deg: int | None = None, split: int | None = None) -> "BetaPoly":
        """The variable x_i (1-indexed)."""
        exps = tuple(1 if k == i - 1 else 0 for k in range(nvars))
        return cls(nvars, {(exps, 0): 1}, max_deg, split)

    def _like(self, terms: Mapping[TermKey, int]) -> "BetaPoly":
        """A polynomial like self from terms known to fit its truncation."""
        return _fitted(self.nvars, terms, self.max_deg, self.split)

    def _check_compatible(self, other: "BetaPoly") -> int | None:
        if self.nvars != other.nvars or self.split != other.split:
            raise NvarsMismatchError(
                f"incompatible operands: ({self.nvars},{self.split}) vs ({other.nvars},{other.split})"
            )
        if self.max_deg is None:
            return other.max_deg
        if other.max_deg is None:
            return self.max_deg
        return min(self.max_deg, other.max_deg)

    # -- ring operations ---------------------------------------------------

    def _combine(self, other: "BetaPoly", sign: int) -> "BetaPoly":
        """self + sign * other: with equal truncations every term already fits."""
        md = self._check_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + sign * c
        return (_fitted if self.max_deg == other.max_deg else BetaPoly)(self.nvars, out, md, self.split)

    def __add__(self, other: "BetaPoly") -> "BetaPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "BetaPoly") -> "BetaPoly":
        return self._combine(other, -1)

    def __mul__(self, other: "BetaPoly") -> "BetaPoly":
        md = self._check_compatible(other)
        buckets: dict[tuple[int, ...], list] = {}  # one bucket when nothing is dropped
        for (e, b), c in other.terms.items():
            buckets.setdefault((0,) if md is None else self._degrees(e), []).append((e, b, c))
        order = sorted(buckets.items())
        out: dict[TermKey, int] = {}
        for (e1, b1), c1 in self.terms.items():
            room = (math.inf,) if md is None else tuple(md - d for d in self._degrees(e1))
            for degs, bucket in order:
                if degs[0] > room[0]:
                    break  # the buckets run in increasing first-block degree
                if degs[-1] <= room[-1]:
                    for e2, b2, c2 in bucket:
                        key = (tuple(map(add, e1, e2)), b1 + b2)
                        out[key] = out.get(key, 0) + c1 * c2
        return _fitted(self.nvars, out, md, self.split)

    def __pow__(self, n: int) -> "BetaPoly":
        if n < 0:
            raise KshiftError("negative power")
        result = BetaPoly.const(self.nvars, 1, self.max_deg, self.split)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def times_beta(self, k: int = 1, coeff: int = 1) -> "BetaPoly":
        return self._like({(e, b + k): c * coeff for (e, b), c in self.terms.items()})

    # -- views and structure -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BetaPoly)
            and self.nvars == other.nvars
            and self.split == other.split
            and self.max_deg == other.max_deg
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.split, self.max_deg, tuple(sorted(self.terms.items()))))

    def coeff_list(self) -> list[int]:
        """Coefficients [c0, c1, ...] of a 0-variable polynomial up to its top beta power."""
        if self.nvars:
            raise NvarsMismatchError(f"coeff_list needs a 0-variable polynomial, got {self.nvars} vars")
        top = max((b for (_e, b) in self.terms), default=-1)
        return [self.terms.get(((), k), 0) for k in range(top + 1)]

    def truncated(self, max_deg: int | None) -> "BetaPoly":
        return BetaPoly(self.nvars, self.terms, max_deg, self.split)

    def view(self) -> dict[TermKey, int] | None:
        """The terms at partition exponents (in each block if split), or None unless the polynomial is
        invariant under permuting the variables (within each block): each exponent is sorted once,
        and every term must have its partition term's coefficient and no orbit may lack a term."""
        s, terms = self.split, self.terms
        blocks = [slice(None)] if s is None else [slice(None, s), slice(s, None)]
        if s is None:
            keys = [(tuple(sorted(e, reverse=True)), b) for e, b in terms]
        else:
            keys = [(tuple(sorted(e[:s], reverse=True)) + tuple(sorted(e[s:], reverse=True)), b) for e, b in terms]
        if list(map(terms.get, keys)) != list(terms.values()):
            return None
        orbits = Counter(keys)
        if any(n != math.prod(_rearrangements(e[sl]) for sl in blocks) for (e, _b), n in orbits.items()):
            return None
        return {k: c for k, c in terms.items() if k in orbits}  # its own keys: no exponent is copied

    # -- substitutions and evaluation ----------------------------------------

    def negate_vars(self, which: Iterable[int]) -> "BetaPoly":
        """Substitute x_i -> -x_i on the selected 1-indexed variables."""
        sel = {i - 1 for i in which}
        out = {}
        for (e, b), c in self.terms.items():
            sign = -1 if sum(e[i] for i in sel) % 2 else 1
            out[(e, b)] = sign * c
        return self._like(out)

    def substitute_geometric(self) -> "BetaPoly":
        """Apply x_i -> x_i/(1 - beta x_i) to every variable, truncated.

        (x/(1 - beta x))^e = sum_k C(e+k-1, k) beta^k x^(e+k), so each term
        spreads over every raise k of its nonzero exponents that still fits
        the degree left in that exponent's block.
        """
        if self.max_deg is None:
            raise UnboundedTruncationError("substitute_geometric needs a finite max_deg")
        out: dict[TermKey, int] = {}
        for (e, b), c in self.terms.items():
            spread = [(e, b, c)]
            for i, m in enumerate(e):
                if m:
                    block = 0 if self.split is None or i < self.split else 1
                    spread = [
                        (f[:i] + (m + k,) + f[i + 1 :], d + k, a * math.comb(m + k - 1, k))
                        for f, d, a in spread
                        for k in range(self.max_deg - self._degrees(f)[block] + 1)
                    ]
            for f, d, a in spread:
                out[(f, d)] = out.get((f, d), 0) + a
        return self._like(out)

    def eval_rational(self, pt: RationalPoint) -> Fraction:
        if len(pt.coords) != self.nvars:
            raise NvarsMismatchError(
                f"point has {len(pt.coords)} coords, polynomial has {self.nvars} vars"
            )
        from fractions import Fraction
        total = Fraction(0)
        for (e, b), c in self.terms.items():
            val = Fraction(c) * pt.beta**b
            for x, k in zip(pt.coords, e):
                if k:
                    val *= x**k
            total += val
        return total

    def specialize_beta(self, beta: Fraction) -> dict[tuple[int, ...], Fraction]:
        """Collapse beta to a rational; returns monomial -> rational coefficient."""
        from fractions import Fraction
        out: dict[tuple[int, ...], Fraction] = {}
        for (e, b), c in self.terms.items():
            out[e] = out.get(e, Fraction(0)) + Fraction(c) * beta**b
        return {e: v for e, v in out.items() if v}

    # -- serialization -------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, int]]:
        """Terms in graded-lex order on exponents, then by beta exponent."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1]))

    def to_json_obj(self) -> dict:
        obj = {
            "vars": self.nvars,
            "max_deg": self.max_deg,
            "terms": [
                {"exps": list(e), "beta": b, "coeff": str(c)}
                for (e, b), c in self.sorted_terms()
            ],
        }
        if self.split is not None:
            obj["split"] = self.split
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BetaPoly":
        terms = {
            (tuple(t["exps"]), t["beta"]): int(t["coeff"]) for t in obj["terms"]
        }
        return cls(obj["vars"], terms, obj.get("max_deg"), obj.get("split"))

    def render(self, beta_symbol: str = "b", var_prefix: str = "x") -> str:
        """Human-readable text, e.g. "2*x1 + b*x1^2"."""
        if not self.terms:
            return "0"
        bits = []
        for (e, b), c in self.sorted_terms():
            factors = []
            if b == 1:
                factors.append(beta_symbol)
            elif b > 1:
                factors.append(f"{beta_symbol}^{b}")
            for i, k in enumerate(e, start=1):
                if k == 1:
                    factors.append(f"{var_prefix}{i}")
                elif k > 1:
                    factors.append(f"{var_prefix}{i}^{k}")
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            term = "*".join(factors)
            bits.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"BetaPoly({self.nvars} vars, {self.render()})"


def _rearrangements(exps: tuple[int, ...]) -> int:
    """The number of distinct orderings of exps."""
    return math.factorial(len(exps)) // math.prod(math.factorial(exps.count(x)) for x in set(exps))


def _fitted(nvars: int, terms: Mapping[TermKey, int], max_deg: int | None, split: int | None) -> BetaPoly:
    """A polynomial from tuple-keyed terms that all fit: only zeros are dropped."""
    p = BetaPoly(nvars, None, max_deg, split)
    p.terms = {k: c for k, c in terms.items() if c}
    return p


def tensor_split(px: BetaPoly, py: BetaPoly, max_deg: int | None) -> BetaPoly:
    """The product px(x) * py(y) as a split polynomial over (x, y); each factor
    is one block, so its terms past max_deg are dropped before pairing."""
    left, right = (
        [(e, b, c) for (e, b), c in p.terms.items() if max_deg is None or sum(e) <= max_deg] for p in (px, py)
    )
    out: dict[TermKey, int] = {}
    for e1, b1, c1 in left:
        for e2, b2, c2 in right:
            key = (e1 + e2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return _fitted(px.nvars + py.nvars, out, max_deg, px.nvars)


def cauchy_kernel(nx: int, ny: int, max_deg: int) -> BetaPoly:
    """The kernel Prod_{i<=nx, j<=ny} (1 - xbar_i y_j)/(1 - x_i y_j).

    Here xbar = -x/(1+beta*x), so each factor equals
    (1 + beta*x_i + x_i*y_j) / ((1 + beta*x_i) * (1 - x_i*y_j)),
    expanded exactly and truncated to degree <= max_deg in the x-block and in
    the y-block separately.  The result is a split polynomial.
    """
    n = nx + ny
    split = nx
    one = BetaPoly.const(n, 1, max_deg, split)
    kernel = one
    for i in range(1, nx + 1):
        xi = BetaPoly.variable(i, n, max_deg, split)
        # 1/(1+beta*x_i) = sum_k (-beta)^k x_i^k
        inv_1bx = BetaPoly(
            n,
            {
                (tuple(k if t == i - 1 else 0 for t in range(n)), k): (-1) ** k
                for k in range(0, max_deg + 1)
            },
            max_deg,
            split,
        )
        factor_i = inv_1bx ** ny
        for j in range(nx + 1, n + 1):
            yj = BetaPoly.variable(j, n, max_deg, split)
            xiyj = xi * yj
            # 1/(1 - x_i y_j) = sum_k (x_i y_j)^k
            inv_xy = one
            power = one
            for _ in range(max_deg):
                power = power * xiyj
                if power.is_zero():
                    break
                inv_xy = inv_xy + power
            numer = one + xi.times_beta(1) + xiyj
            factor_i = factor_i * numer * inv_xy
        kernel = kernel * factor_i
    return kernel
