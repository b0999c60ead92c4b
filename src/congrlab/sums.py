"""The binomial sums, per-k terms and harmonic numbers of all three
catalogs, one row each, and the routines that step a row, sum it exactly,
or read it as p-adic digits.

A row is summed over k or, for a per-k check, read term by term.  Every
summand t_k is a hypergeometric term in k with one parameter a: the
prime p for a congruence, the index n for an identity, a constant for a
float series.  `term(a, k)` is its closed form and `ratio(a, k)` the integer
pair (num, den) with t_{k+1} = t_k * num / den.  Rows ending in `_lit` take
the literal C(4k,k) reading of C(4k,2k).

`row_numerators` steps the exact integers t_k * D over a common
denominator D with exact divisions, for the exact path's per-k reads and
SIGMA's lhs.  `row_sum` sums a row exactly by binary splitting over the
integer ratio pairs (Haible & Papanikolaou, "Fast multiprecision
evaluation of series of rational numbers", 1998), with one `Fraction`
reduction per sum.  A `Cursor` keeps one row's running prefix at a rising
index, splitting only the steps since its last read; it and `row_sum`
share one guarded fold, `_steps`.  A `Sweep` keeps two cursors for each
PRIME_FREE row, whose terms do not depend on p, over a rising run of
primes, and an identity run one for each row whose terms do not depend
on n.  The exact path reads the congruence rows from SUMS and guards
each against its closed form, so a wrong ratio is an engine fault.

The p-adic path reads the same rows as products of named factors (FACTORS):
C(2k,k), C(4k,2k), powers c^k, linear forms such as 2k+1, each to a power.
A `FactorialTable` holds, at one prime, the units and valuations of j! for
j <= 4p and reads every factor off them, so no ratio is stepped and no entry
of SUMS is read: a closed form and ratio that are wrong together give a path
disagreement, not a value both paths agree on.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, prod
from operator import add

from .arith import vp_int
from .errors import InternalInconsistency


@lru_cache(maxsize=16)  # the guards at one sweep cursor read the same C(2k, k)
def _c(k):
    return comb(2 * k, k)


def _b(n, k):
    return comb(n, k) * comb(n + k, k)


SUMS = {
    # -- the congruence catalog's rows (a = p); APERY, SIGMA, SHIFT, TELE1 and
    #    the float series read some of them too --
    "alt_inv_k3": (lambda p, k: Fraction((-1) ** k, k ** 3 * _c(k)),
                   lambda p, k: (-k ** 3, 2 * (2 * k + 1) * (k + 1) ** 2)),
    "alt_k2": (lambda p, k: Fraction((-1) ** k * _c(k), k * k),
               lambda p, k: (-2 * (2 * k + 1) * k * k, (k + 1) ** 3)),
    **{f"sq_k{j}": (lambda p, k, j=j: Fraction(_c(k) ** 2, k ** j * 16 ** k),
                    lambda p, k, j=j: ((2 * k + 1) ** 2 * k ** j,
                                       4 * (k + 1) ** (j + 2)))
       for j in range(4)},
    **{f"sq_odd{o}": (lambda p, k, o=o: Fraction(_c(k) ** 2, (2 * k + 1) ** o * 16 ** k),
                      lambda p, k, o=o: ((2 * k + 1) ** (o + 2),
                                         4 * (k + 1) ** 2 * (2 * k + 3) ** o))
       for o in (1, 2, 3)},
    "sq_shifted": (lambda p, k: Fraction(_c(k) ** 2, (2 * k + p) * 16 ** k),
                   lambda p, k: ((o := 2 * k + 1) * o * (2 * k + p),
                                 4 * (j := k + 1) * j * (2 * k + p + 2))),
    "odd1": (lambda p, k: Fraction(_c(k), (2 * k + 1) * 16 ** k),
             lambda p, k: ((2 * k + 1) ** 2, 8 * (k + 1) * (2 * k + 3))),
    "odd2_alt": (lambda p, k: Fraction(_c(k), (2 * k + 1) ** 2 * (-16) ** k),
                 lambda p, k: ((2 * k + 1) ** 3, -8 * (k + 1) * (2 * k + 3) ** 2)),
    "inv_odd3_alt": (lambda p, k: Fraction((-16) ** k, (2 * k + 1) ** 3 * _c(k)),
                     lambda p, k: (-8 * (2 * k + 1) ** 2 * (k + 1), (2 * k + 3) ** 3)),
    "inv_sq_k3": (lambda p, k: Fraction(16 ** k, k ** 3 * _c(k) ** 2),
                  lambda p, k: (4 * k ** 3, (k + 1) * (2 * k + 1) ** 2)),
    "inv_sq_odd3": (lambda p, k: Fraction(16 ** k, (2 * k + 1) ** 3 * _c(k) ** 2),
                    lambda p, k: (4 * (2 * k + 1) * (k + 1) ** 2, (2 * k + 3) ** 3)),
    "k1": (lambda p, k: Fraction(_c(k), k),
           lambda p, k: (2 * (2 * k + 1) * k, (k + 1) ** 2)),
    "inv_k2": (lambda p, k: Fraction(1, k * k * _c(k)),
               lambda p, k: (k * k, 2 * (2 * k + 1) * (k + 1))),
    "quad": (lambda p, k: Fraction(_c(k) * _c(2 * k), k * 64 ** k),
             lambda p, k: ((4 * k + 1) * (4 * k + 3) * k, 16 * (k + 1) ** 3)),
    "inv_quad": (lambda p, k: Fraction(64 ** k, k ** 3 * _c(k) * _c(2 * k)),
                 lambda p, k: (16 * k ** 3, (k + 1) * (4 * k + 1) * (4 * k + 3))),
    "inv_quad_lit": (lambda p, k: Fraction(64 ** k, k ** 3 * _c(k) * comb(4 * k, k)),
                     lambda p, k: (12 * k ** 3 * (3 * k + 1) * (3 * k + 2),
                                   (k + 1) * (2 * k + 1) ** 2 * (4 * k + 1) * (4 * k + 3))),
    "inv_quad_shifted": (
        lambda p, k: Fraction(64 ** k, (2 * k - 1) * k * k * _c(k) * _c(2 * k)),
        lambda p, k: (16 * (2 * k - 1) * k * k, (2 * k + 1) * (4 * k + 1) * (4 * k + 3))),
    "inv_quad_shifted_lit": (
        lambda p, k: Fraction(64 ** k, (2 * k - 1) * k * k * _c(k) * comb(4 * k, k)),
        lambda p, k: (12 * (2 * k - 1) * k * k * (3 * k + 1) * (3 * k + 2),
                      (2 * k + 1) ** 3 * (4 * k + 1) * (4 * k + 3))),
    "l21a": (lambda p, k: k * _c(k) * _c(p - k),
             lambda p, k: ((2 * k + 1) * (p - k), k * (2 * p - 2 * k - 1))),
    # C(n,k) C(n+k,k) at n = (p-1)/2 = p // 2
    "b": (lambda p, k: _b(p // 2, k),
          lambda p, k: ((p // 2 - k) * (p // 2 + k + 1), (k + 1) ** 2)),
    # H_n^(m), read by both catalogs (any a)
    **{f"h{m}": (lambda a, k, m=m: Fraction(1, k ** m),
                 lambda a, k, m=m: (k ** m, (k + 1) ** m))
       for m in (1, 2, 3)},
    # -- read by the identity catalog only (a = n) --
    "odd_recip": (lambda n, k: Fraction(1, 2 * k + 1),
                  lambda n, k: (2 * k + 1, 2 * k + 3)),
    "apery": (lambda n, k: Fraction((-1) ** k, k ** 3 * _b(n, k)),
              lambda n, k: (-k * k * k, (k + 1) * (n - k) * (n + k + 1))),
    "oddsq": (lambda n, k: Fraction((-1) ** k * _b(n, k), (2 * k + 1) ** 2),
              lambda n, k: (-(n - k) * (n + k + 1) * (o := 2 * k + 1) * o,
                            (j := (k + 1) * (2 * k + 3)) * j)),
    "prodinger": (lambda n, k: Fraction((-1) ** k * _b(n, k), k),
                  lambda n, k: (-(n - k) * (n + k + 1) * k, (j := k + 1) * j * j)),
    "luke": (lambda n, k: Fraction(_c(k) ** 2, (n - k) * 16 ** k),
             lambda n, k: ((o := 2 * k + 1) * o * (n - k), 4 * (j := k + 1) * j * (n - k - 1))),
    "glaisher4": (lambda n, k: Fraction((1 - 4 * k) * _c(k) ** 4, (2 * k - 1) ** 4 * 256 ** k),
                  lambda n, k: ((4 * k + 3) * (2 * k - 1) ** 4,
                                16 * (4 * k - 1) * (k + 1) ** 4)),
    # C(2k,k) k^2/(4n^4 + k^4) * prod_{0<j<k} (n^4 - j^4)/(4n^4 + j^4)
    "bbag": (lambda n, k: Fraction(_c(k) * k * k * prod(n ** 4 - j ** 4 for j in range(1, k)),
                                   prod(4 * n ** 4 + j ** 4 for j in range(1, k + 1))),
             lambda n, k: (2 * (2 * k + 1) * (k + 1) * ((m := n * n * n * n) - k * k * k * k),
                           k * k * (4 * m + (j := (k + 1) * (k + 1)) * j))),
}


# The rows whose term and ratio do not read a, so that at a congruence only
# their ranges depend on p: each with the first k of its prefix in a Sweep,
# the first k at which its term is defined.
PRIME_FREE = {
    **dict.fromkeys(("sq_k0", "sq_odd1", "sq_odd2", "sq_odd3", "odd1", "odd2_alt",
                     "inv_odd3_alt", "inv_sq_odd3"), 0),
    **dict.fromkeys(("alt_inv_k3", "alt_k2", "sq_k1", "sq_k2", "sq_k3", "inv_sq_k3",
                     "k1", "inv_k2", "quad", "inv_quad", "inv_quad_lit",
                     "inv_quad_shifted", "inv_quad_shifted_lit", "h1", "h2", "h3"), 1),
}


def row_numerators(name: str, a: int, lo: int, hi: int,
                   den: int | None = None) -> tuple[int, list[int]]:
    """(den, [t_lo * den, ..., t_hi * den]) of row `name` of SUMS at
    parameter a, for `den` a common denominator of those terms.  It
    defaults to the denominator of t_hi, a common one for every row the
    congruences read per k: 1 for the integer rows, and 2^(4k - 2s(k)) for
    C(2k,k)^2/16^k, s(k) the binary digit sum of k, which grows with k.

    The first integer is the closed form t_lo times den, and each next one
    the last times the ratio, divided exactly.  A division with a
    remainder, or a last integer that misses t_hi * den, raises
    InternalInconsistency: a wrong ratio, or a den that is not a common
    denominator.  Every value is an exact integer; nothing is reduced mod p.
    """
    if hi < lo:
        raise ValueError(f"sum row {name!r} over the empty range {lo}..{hi}")
    term, ratio = SUMS[name]
    first, last = term(a, lo), term(a, hi)
    if den is None:
        den = last.denominator
    t, rem = divmod(first.numerator * den, first.denominator)
    nums = [t]
    for k in range(lo, hi):
        num, d = ratio(a, k)
        t, step_rem = divmod(t * num, d)
        rem |= step_rem
        nums.append(t)
    if rem:
        raise InternalInconsistency(
            f"sum row {name!r} at a={a}: a division over {lo}..{hi} leaves a remainder")
    if t * last.denominator != last.numerator * den:
        raise InternalInconsistency(
            f"sum row {name!r} at a={a} misses its closed form at k={hi}")
    return den, nums


def _split(ratio, a: int, lo: int, hi: int) -> tuple[int, int, int]:
    """Integers (P, Q, T) over the steps lo <= k < hi, hi > lo, with
    P/Q = prod_k r_k and T/Q = sum_j prod_{lo<=k<=j} r_k, r_k = ratio(a, k)."""
    if hi - lo <= 16:  # short runs fold in a loop: the same integers, fewer calls
        P, Q, T = 1, 1, 0
        for k in range(lo, hi):
            num, den = ratio(a, k)
            P *= num
            Q *= den
            T = T * den + P
        return P, Q, T
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(ratio, a, lo, mid)
    p2, q2, t2 = _split(ratio, a, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _steps(name: str, a: int, t_lo, lo: int, hi: int) -> tuple:
    """(Q, T, t_hi) over the steps lo <= k < hi, hi > lo, of row `name` of
    SUMS at parameter a, from its term t_lo: t_lo + ... + t_hi is
    t_lo * (Q + T)/Q.  t_hi is the closed form at hi, which t_lo * P/Q must
    equal; a miss raises InternalInconsistency.  A zero ratio denominator
    makes Q = 0: it misses the guard or, past a zero step, raises
    ZeroDivisionError, an engine fault either way."""
    term, ratio = SUMS[name]
    P, Q, T = _split(ratio, a, lo, hi)
    last = term(a, hi)
    if t_lo.numerator * P * last.denominator != last.numerator * Q * t_lo.denominator:
        raise InternalInconsistency(
            f"sum row {name!r} at a={a} misses its closed form at k={hi}")
    return Q, T, last


def row_sum(name: str, a: int, lo: int, hi: int) -> Fraction:
    """The exact sum t_lo + ... + t_hi of row `name` of SUMS at parameter a:
    the guarded binary splitting of `_steps`, reduced once."""
    if hi < lo:
        raise ValueError(f"sum row {name!r} over the empty range {lo}..{hi}")
    first = SUMS[name][0](a, lo)
    if hi == lo:
        return Fraction(first)
    Q, T, _ = _steps(name, a, first, lo, hi)
    return Fraction(first.numerator * (Q + T), first.denominator * Q)


class Cursor:
    """The running prefix F(x) = t_s + ... + t_x of row `name` of SUMS from
    its first k, s, at the index x it reached: x, t_x and F(x), as reduced
    Fractions.

    `prefix(a, x)` past the cursor splits only the new steps with `_steps`,
    the guarded fold `row_sum` takes, and folds them in: F <- F + t*T/Q and
    t <- t*P/Q, the closed form at the new x.  A read one term behind,
    F(x-1) after F(x), is F(x) - t_x from the cursor's own state and moves
    nothing; a read further behind raises ValueError and leaves the cursor
    where it was.  Each advance reads the row at the a it is given, so a
    row whose terms do not read a can carry one cursor across parameters.
    Every value is exact; nothing is reduced mod p.
    """

    __slots__ = ("name", "at", "t", "total")

    def __init__(self, name: str, a: int, start: int):
        t = Fraction(SUMS[name][0](a, start))
        self.name, self.at, self.t, self.total = name, start, t, t

    def prefix(self, a: int, x: int) -> Fraction:
        """F(x), advancing the cursor to x first when x is past it."""
        if x == self.at - 1:
            return self.total - self.t
        if x < self.at:
            raise ValueError(f"sum row {self.name!r}: F({x}) is more than one term "
                             f"behind its cursor at {self.at}")
        if x > self.at:
            t = self.t
            Q, T, last = _steps(self.name, a, t, self.at, x)
            self.total += Fraction(t.numerator * T, t.denominator * Q)
            self.at, self.t = x, Fraction(last)
        return self.total


class Sweep:
    """Running prefix sums of the PRIME_FREE rows over a rising run of primes.

    Each row keeps two `Cursor`s from its first k, one that follows
    n = (p-1)/2 and one that follows p - 1, so advancing one splits only
    the steps since the last prime.  Any range lo..hi is F(hi) - F(lo-1).
    A read one term behind a cursor, F(n-1) after F(n), comes from the
    cursor's own state; no read of the catalog falls further behind, and
    one that does raises ValueError.  A fresh cursor that follows p - 1
    starts as a copy of the one that follows n, brought to n first, so one
    prime alone splits each k of a row once across both cursors, whatever
    order it reads in.
    """

    def __init__(self):
        self.cursors: dict[tuple[str, bool], Cursor] = {}

    def sum(self, name: str, p: int, lo: int, hi: int) -> Fraction:
        """t_lo + ... + t_hi of row `name` at the prime p, as F(hi) - F(lo - 1)."""
        start = PRIME_FREE[name]
        if hi < lo or lo < start:
            raise ValueError(f"sum row {name!r} over {lo}..{hi}: empty, or "
                             f"starting before its first term k={start}")
        n = (p - 1) // 2
        below = self._prefix(name, p, lo - 1, lo - 1 > n) if lo > start else 0
        return self._prefix(name, p, hi, hi > n) - below

    def _prefix(self, name: str, a: int, x: int, upper: bool) -> Fraction:
        """F(x) through the cursor that follows p - 1 (`upper`) or n."""
        cursor = self.cursors.get((name, upper))
        if cursor is None:
            if upper:
                self._prefix(name, a, (a - 1) // 2, False)
                cursor = copy(self.cursors[name, False])
            else:
                cursor = Cursor(name, a, PRIME_FREE[name])
            self.cursors[name, upper] = cursor
        return cursor.prefix(a, x)




# The congruence rows as the p-adic path reads them: t_k is the product of
# f(k)^e over the (factor, e) pairs of its row, each factor a column of
# `FactorialTable`.  SUMS holds the same rows as closed forms and ratios, which
# only the exact path reads.
_SQUARE = (("C(2k,k)", 2), ("16^k", -1))
_INV_QUAD = (("C(2k,k)", -1), ("C(4k,2k)", -1), ("64^k", 1))
_INV_QUAD_LIT = (("C(2k,k)", -1), ("C(4k,k)", -1), ("64^k", 1))
FACTORS = {
    "alt_inv_k3": (("(-1)^k", 1), ("C(2k,k)", -1), ("k", -3)),
    "alt_k2": (("(-1)^k", 1), ("C(2k,k)", 1), ("k", -2)),
    "sq_k0": _SQUARE,
    **{f"sq_k{j}": _SQUARE + (("k", -j),) for j in (1, 2, 3)},
    **{f"sq_odd{o}": _SQUARE + (("2k+1", -o),) for o in (1, 2, 3)},
    "sq_shifted": _SQUARE + (("2k+p", -1),),
    "odd1": (("C(2k,k)", 1), ("16^k", -1), ("2k+1", -1)),
    "odd2_alt": (("(-1)^k", 1), ("C(2k,k)", 1), ("16^k", -1), ("2k+1", -2)),
    "inv_odd3_alt": (("(-1)^k", 1), ("C(2k,k)", -1), ("16^k", 1), ("2k+1", -3)),
    "inv_sq_k3": (("C(2k,k)", -2), ("16^k", 1), ("k", -3)),
    "inv_sq_odd3": (("C(2k,k)", -2), ("16^k", 1), ("2k+1", -3)),
    "k1": (("C(2k,k)", 1), ("k", -1)),
    "inv_k2": (("C(2k,k)", -1), ("k", -2)),
    "quad": (("C(2k,k)", 1), ("C(4k,2k)", 1), ("64^k", -1), ("k", -1)),
    "inv_quad": _INV_QUAD + (("k", -3),),
    "inv_quad_lit": _INV_QUAD_LIT + (("k", -3),),
    "inv_quad_shifted": _INV_QUAD + (("k", -2), ("2k-1", -1)),
    "inv_quad_shifted_lit": _INV_QUAD_LIT + (("k", -2), ("2k-1", -1)),
    "l21a": (("k", 1), ("C(2k,k)", 1), ("C(2(p-k),p-k)", 1)),
    "b": (("C(n,k)C(n+k,k)", 1),),
    **{f"h{m}": (("k", -m),) for m in (1, 2, 3)},
}


class FactorialTable:
    """The rows of FACTORS at the prime p as p-adic digits: at each k, the
    valuation v_k and the unit u_k mod p^prec of t_k = p^v_k * u_k, so each
    unit is known to relative precision prec.

    One walk over j = 1..4p builds the unit part U[j] of j! mod p^prec and
    its valuation V[j], the running sum of v_p(j) (Legendre); one inverse,
    of U[4p], and a walk back give the inverses IU[j] (Montgomery, Math.
    Comp. 48, 1987).  Each factor is a column over k = 0..p-1 (0..n for C(n,k)C(n+k,k),
    n = (p-1)/2), read off these lists with no further inverse:
    - a binomial, such as C(2k,k) = U[2k] IU[k]^2 with valuation V[2k] - 2V[k]
      and inverse IU[2k] U[k]^2;
    - a linear form j = j(k), with unit U[j] IU[j-1] and inverse U[j-1] IU[j];
    - a power c^k, by running products of c or of its inverse;
    - a square or a cube, from the column of the factor or of its inverse.
    A column keeps its valuations only where one is nonzero, and is built on
    its first read.  A read of a row over lo..hi multiplies the slices of
    its columns one factor at a time, through the memo of `_product` that
    rows with shared leading factors share, and adds their valuations: no
    ratio is stepped, and nothing of SUMS is read.
    """

    def __init__(self, p: int, prec: int):
        self.p, self.mod = p, p ** prec
        self.columns: dict[tuple[str, int], tuple] = {}
        self.products: dict[tuple, tuple] = {}
        mod, top = self.mod, 4 * p
        # the unit part and the valuation of each j, 0! = 1 at j = 0
        parts, steps = [1, *range(1, top + 1)], [0] * (top + 1)
        for j in range(p, top + 1, p):
            steps[j] = e = vp_int(j, p)
            parts[j] = j // p ** e
        units, u = [], 1
        for x in parts:
            u = u * x % mod
            units.append(u)
        inverses, inv = [0] * (top + 1), pow(u, -1, mod)
        for j in range(top, -1, -1):
            inverses[j] = inv
            inv = inv * parts[j] % mod
        self.U, self.IU, self.V = units, inverses, list(accumulate(steps))

    def read(self, name: str, lo: int, hi: int) -> tuple[list[int], list[int]]:
        """(vals, units) of the terms t_lo..t_hi of row `name` at p, fresh
        copies of `_product`'s lists.  A row with a factor k starts at k = 1."""
        factors = FACTORS[name]
        first = 1 if any(factor == "k" for factor, _ in factors) else 0
        last = min(len(self._column(*factor)[1]) for factor in factors) - 1
        if not first <= lo <= hi <= last:
            raise ValueError(f"row {name!r} at p={self.p} over {lo}..{hi}: "
                             f"outside {first}..{last}")
        vals, units = self._product(factors, lo, hi + 1)
        return list(vals), list(units)

    def _product(self, factors: tuple, lo: int, end: int) -> tuple[list[int], list[int]]:
        """(vals, units) of the product of the columns of `factors` over
        lo..end-1, held in `products`: the product of all but the last
        column over that range, itself through this memo, times the last
        column.  Rows that share leading factors, such as the _SQUARE rows,
        share that product over one range.  The lists are the memo's own, and
        may be shared between its entries: a caller must not change them."""
        product = self.products.get((factors, lo, end))
        if product is None:
            vals, units = self._column(*factors[-1])
            units = units[lo:end]
            if len(factors) == 1:
                vals = [0] * (end - lo) if vals is None else vals[lo:end]
            else:
                head_vals, head_units = self._product(factors[:-1], lo, end)
                mod = self.mod
                units = [x * y % mod for x, y in zip(head_units, units)]
                vals = head_vals if vals is None else list(map(add, head_vals, vals[lo:end]))
            product = self.products[factors, lo, end] = vals, units
        return product

    def _column(self, factor: str, e: int) -> tuple:
        """(vals, units) of factor^e over its k, e = ±1, ±2 or ±3; vals is None
        where every valuation is 0."""
        column = self.columns.get((factor, e))
        if column is None:
            if abs(e) == 1:
                column = self._unit_column(factor, e)
            elif abs(e) in (2, 3):
                vals, units = self._column(factor, 1 if e > 0 else -1)
                mod = self.mod
                units = ([u * u % mod for u in units] if abs(e) == 2
                         else [u * u * u % mod for u in units])
                column = (None if vals is None else [abs(e) * v for v in vals]), units
            else:
                raise ValueError(f"no column {factor}^{e}")
            self.columns[factor, e] = column
        return column

    def _unit_column(self, factor: str, e: int) -> tuple:
        """(vals, units) of factor^e, e = ±1, read off U, IU and V."""
        p, n, mod, V = self.p, self.p // 2, self.mod, self.V
        num, den = (self.U, self.IU) if e > 0 else (self.IU, self.U)
        ks = range(p)
        powers = {"(-1)^k": -1, "16^k": 16, "64^k": 64}
        if factor in powers:
            c = powers[factor] % mod if e > 0 else pow(powers[factor], -1, mod)
            return None, list(accumulate(repeat(c, p - 1), lambda x, y: x * y % mod,
                                         initial=1))
        linear = {"k": ks, "2k+1": range(1, 2 * p, 2), "2k-1": range(-1, 2 * p - 2, 2),
                  "2k+p": range(p, 3 * p, 2)}
        if factor in linear:
            js = linear[factor]
            # the form at k = 0 is -1, a unit, or 0, which has no unit: its 0
            # holds the place, and `read` starts a row with a factor k at 1
            head = [] if js[0] > 0 else [mod - 1] if js[0] else [0]
            js = js[len(head):]
            units = head + [num[j] * den[j - 1] % mod for j in js]
            vals = [0] * len(head) + [V[j] - V[j - 1] for j in js]
        else:
            # a binomial as top! over the product of its bottoms' factorials
            top, *bottoms = {
                "C(2k,k)": (range(0, 2 * p, 2), ks, ks),
                "C(4k,2k)": (range(0, 4 * p, 4), range(0, 2 * p, 2), range(0, 2 * p, 2)),
                "C(4k,k)": (range(0, 4 * p, 4), ks, range(0, 3 * p, 3)),
                "C(2(p-k),p-k)": (range(2 * p, 0, -2), range(p, 0, -1), range(p, 0, -1)),
                "C(n,k)C(n+k,k)": (range(n, 2 * n + 1), range(n + 1), range(n + 1),
                                   range(n, -1, -1)),
            }[factor]
            if len(bottoms) == 2:
                units = [num[t] * den[a] * den[b] % mod for t, a, b in zip(top, *bottoms)]
                vals = [V[t] - V[a] - V[b] for t, a, b in zip(top, *bottoms)]
            else:
                units = [num[t] * den[a] * den[b] * den[c] % mod
                         for t, a, b, c in zip(top, *bottoms)]
                vals = [V[t] - V[a] - V[b] - V[c] for t, a, b, c in zip(top, *bottoms)]
        if e < 0:
            vals = [-v for v in vals]
        return (vals if any(vals) else None), units
