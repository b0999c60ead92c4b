"""Exact rational, residue and valuation-aware p-adic arithmetic.

Exact rationals are `fractions.Fraction` throughout; residues mod p^e and
truncated p-adic numbers are the two modular number types defined here, and
a column of either path's values is reduced to residues in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .errors import NegativeValuation, PrecisionExhausted


def vp_int(a: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if a == 0:
        raise ValueError("valuation of 0 is undefined")
    a = abs(a)
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def vp_rational(r, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    r = Fraction(r)
    return vp_int(r.numerator, p) - vp_int(r.denominator, p)


@dataclass(frozen=True)
class Residue:
    """An element of Z/p^e, kept with its modulus."""

    p: int
    e: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value < self.p ** self.e:
            raise ValueError(f"residue {self.value} out of range for {self.p}^{self.e}")


def reduce_mod(r, p: int, e: int) -> int:
    """num * den^{-1} mod p^e of a p-integral Fraction or int r, as an int."""
    den = r.denominator
    if den % p == 0:
        raise NegativeValuation(f"{r} has p={p} in its denominator")
    m = p ** e
    return r.numerator * pow(den, -1, m) % m


def rat_reduce_mod(r, p: int, e: int) -> Residue:
    """Reduce a p-integral rational mod p^e (num * den^{-1})."""
    return Residue(p, e, reduce_mod(Fraction(r), p, e))


# -- truncated p-adic values as (val, unit, prec) --------------------------
# The value p^val * unit + O(p^(val + prec)); a unit None is a zero marker,
# known only to have valuation >= val, with prec 0.  `PAdic` and
# `PadicColumn` both compute with these functions, so a column tracks
# precision value by value exactly as PAdic does.


def _from_residue(p: int, e: int, value: int) -> tuple:
    value %= p ** e
    if value == 0:
        return e, None, 0
    v = vp_int(value, p)
    return v, value // p ** v, e - v


def _add(p: int, v: int, u, r: int, w: int, s, q: int) -> tuple:
    abs_prec = min(v if u is None else v + r, w if s is None else w + q)
    if u is None:  # the sum has the second operand's digits, if any
        v, u = w, s
    elif s is not None:
        base = min(v, w)
        v, u = base, p ** (v - base) * u + p ** (w - base) * s
    if u is None or abs_prec <= v:
        return abs_prec, None, 0
    digits = abs_prec - v
    total = u % p ** digits
    if total == 0:
        return abs_prec, None, 0
    t = vp_int(total, p)
    return v + t, total // p ** t, digits - t


def _neg(p: int, v: int, u, r: int) -> tuple:
    return (v, u, r) if u is None else (v, -u % p ** r, r)


def _mul(p: int, v: int, u, r: int, w: int, s, q: int) -> tuple:
    if u is None or s is None:
        return v + w, None, 0
    r = min(r, q)
    return v + w, u * s % p ** r, r


def _residue(p: int, e: int, v: int, u, r: int) -> int:
    if u is None:
        if v >= e:
            return 0
        raise PrecisionExhausted(f"zero marker only guarantees valuation >= {v}, need {e}")
    if v < 0:
        raise NegativeValuation(f"p-adic value has valuation {v} < 0")
    if v + r < e:
        raise PrecisionExhausted(f"value known mod p^{v + r}, need p^{e}")
    return p ** v * u % p ** e


class PAdic:
    """Truncated p-adic number p^val * unit + O(p^(val+prec)).

    A value that cancels below the working precision is kept as a zero
    marker (`unit is None`) whose `val` is a finite lower bound on its
    valuation.  No digit is ever fabricated after cancelation.  Both
    operands of an operator must be PAdics of the same prime.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: int, unit, prec: int):
        self.p = p
        self.val = val
        self.unit = unit
        self.prec = prec

    # -- constructors -------------------------------------------------

    @classmethod
    def zero_marker(cls, p: int, bound: int) -> "PAdic":
        return cls(p, bound, None, 0)

    @classmethod
    def from_rational(cls, r, p: int, prec: int, den: int = 1) -> "PAdic":
        """The rational r/den at precision prec.  An integer pair (r, den)
        is lifted as it is, without reducing it to a Fraction first."""
        if den == 0:
            raise ZeroDivisionError(f"p-adic lift of {r}/0")
        if not isinstance(r, int):
            r = Fraction(r)
            r, den = r.numerator, r.denominator * den
        if r == 0:
            return cls.zero_marker(p, prec)
        vn = vp_int(r, p)
        vd = vp_int(den, p)
        m = p ** prec
        unit = (r // p ** vn) * pow(den // p ** vd, -1, m) % m
        return cls(p, vn - vd, unit, prec)

    @classmethod
    def from_residue(cls, value: int, p: int, e: int) -> "PAdic":
        """A value known only mod p^e, at absolute precision e: its
        valuation v, its unit and e - v relative digits, so no digit past
        p^e is invented.  A zero residue is a zero marker of bound e."""
        return cls(p, *_from_residue(p, e, value))

    @classmethod
    def sum_terms(cls, p: int, vals, units, prec: int) -> "PAdic":
        """The sum of the terms p^v_k * u_k, each unit u_k known mod p^prec,
        as adding them one by one to the zero marker O(p^prec) gives it.

        That start caps the sum's absolute precision at
        A = min(0, min v_k) + prec, even where the terms hold more digits.
        So a sum of p-integral terms is known mod p^prec, like every other
        value of the p-adic path, and a check that reads past the working
        precision raises PrecisionExhausted.
        """
        base = min(vals)
        bound = min(0, base) + prec
        digits = bound - base
        if digits <= 0:
            return cls.zero_marker(p, bound)
        if vals.count(base) == len(vals):  # one valuation, as most rows have
            total = sum(units)
        else:
            powers = [p ** i for i in range(digits)]
            total = sum(u * powers[v - base] for v, u in zip(vals, units)
                        if v - base < digits)
        return cls.from_residue(total, p, digits).shift(-base)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero_marker(self) -> bool:
        return self.unit is None

    def _abs_prec(self) -> int:
        """Absolute precision: the value is known mod p^(this)."""
        return self.val if self.unit is None else self.val + self.prec

    # -- arithmetic ----------------------------------------------------

    def _check(self, other) -> None:
        if not isinstance(other, PAdic):
            raise TypeError(f"p-adic operand must be a PAdic, not {type(other).__name__}")
        if other.p != self.p:
            raise ValueError("mixed primes in p-adic arithmetic")

    def __add__(self, other) -> "PAdic":
        self._check(other)
        return PAdic(self.p, *_add(self.p, self.val, self.unit, self.prec,
                                   other.val, other.unit, other.prec))

    def __neg__(self) -> "PAdic":
        if self.unit is None:
            return self
        return PAdic(self.p, *_neg(self.p, self.val, self.unit, self.prec))

    def __sub__(self, other) -> "PAdic":
        return self + (-other)

    def __mul__(self, other) -> "PAdic":
        self._check(other)
        return PAdic(self.p, *_mul(self.p, self.val, self.unit, self.prec,
                                   other.val, other.unit, other.prec))

    def __pow__(self, k: int) -> "PAdic":
        if k < 0:
            raise ValueError("p-adic powers take exponents >= 0")
        if k == 0:
            return PAdic.from_rational(1, self.p, max(self.prec, 1))
        result = self
        for _ in range(k - 1):  # the catalog's powers are at most cubes
            result = result * self
        return result

    # -- extraction ----------------------------------------------------

    def shift(self, s: int) -> "PAdic":
        """Divide by p^s (valuation shift)."""
        return PAdic(self.p, self.val - s, self.unit, self.prec)

    def residue(self, e: int) -> int:
        """The value mod p^e, as an int in [0, p^e); only significant digits
        are reported."""
        return _residue(self.p, e, self.val, self.unit, self.prec)

    def __repr__(self):
        if self.unit is None:
            return f"PAdic(p={self.p}, O(p^{self.val}))"
        return (f"PAdic(p={self.p}, {self.p}^{self.val}*{self.unit} "
                f"+ O(p^{self.val + self.prec}))")


# -- residue columns ---------------------------------------------------


class Column:
    """One value per k, at k = ks[0], ks[1], ..., in one path's arithmetic:
    a per-k side of a check at the prime p.  `residues(e)` reduces every
    value mod p^e in one pass.  A column multiplies by a constant or by a
    column over the same k, adds a constant on its right, negates the
    values at the k where `flip(k)` is true (`negate_where`), and slices."""

    __slots__ = ("p", "ks")

    def _same(self, other: "Column") -> None:
        if other.p != self.p or other.ks != self.ks:
            raise ValueError(f"columns at p={self.p} over {self.ks} and "
                             f"p={other.p} over {other.ks}")


class ExactColumn(Column):
    """The exact values num/den * f_1[i] * ... * f_j[i] at k = ks[i], for
    the integer lists f of `factors`: the integers over one denominator of a
    row or gap read, kept as built, with no gcd and no product formed until
    a sum needs one.  A constant is an int or a Fraction.  Adding one forms
    the products of the factors; a sign is one more factor, of 1s and -1s.
    `residues` takes one inverse, of den, starts every k from num/den mod
    p^e and multiplies in each factor mod p^e, one pass per factor; every
    denominator is prime to p, else pow raises, an engine fault."""

    __slots__ = ("factors", "num", "den")

    def __init__(self, p: int, ks: range, factors: tuple, num: int = 1, den: int = 1):
        self.p, self.ks, self.factors, self.num, self.den = p, ks, factors, num, den

    def __getitem__(self, index: slice) -> "ExactColumn":
        return ExactColumn(self.p, self.ks[index], tuple(f[index] for f in self.factors),
                           self.num, self.den)

    def __mul__(self, other) -> "ExactColumn":
        if isinstance(other, ExactColumn):
            self._same(other)
            return ExactColumn(self.p, self.ks, self.factors + other.factors,
                               self.num * other.num, self.den * other.den)
        return ExactColumn(self.p, self.ks, self.factors, self.num * other.numerator,
                           self.den * other.denominator)

    def __add__(self, other) -> "ExactColumn":
        scale, shift = self.num * other.denominator, other.numerator * self.den
        values = (map(math.prod, zip(*self.factors)) if self.factors
                  else [1] * len(self.ks))
        return ExactColumn(self.p, self.ks, ([scale * t + shift for t in values],), 1,
                           self.den * other.denominator)

    def negate_where(self, flip) -> "ExactColumn":
        signs = [-1 if flip(k) else 1 for k in self.ks]
        return ExactColumn(self.p, self.ks, self.factors + (signs,), self.num, self.den)

    def residues(self, e: int) -> list[int]:
        m = self.p ** e
        values = [self.num * pow(self.den, -1, m) % m] * len(self.ks)
        for factor in self.factors:
            values = [v * (t % m) % m for v, t in zip(values, factor)]
        return values


class PadicColumn(Column):
    """The truncated p-adic values p^vals[i] * units[i] + O(p^(vals[i] +
    precs[i])) at k = ks[i]; a unit None is a zero marker, as in PAdic.  A
    constant is a PAdic of the same prime.  Every operation, and
    `residues`, applies PAdic's rules value by value, so a column tracks
    precision, and raises NegativeValuation or PrecisionExhausted, exactly
    where PAdic would."""

    __slots__ = ("vals", "units", "precs")

    def __init__(self, p: int, ks: range, vals: list, units: list, precs: list):
        self.p, self.ks, self.vals, self.units, self.precs = p, ks, vals, units, precs

    @classmethod
    def _of(cls, p: int, ks: range, parts) -> "PadicColumn":
        vals, units, precs = (list(x) for x in zip(*parts)) if ks else ([], [], [])
        return cls(p, ks, vals, units, precs)

    @classmethod
    def from_residues(cls, p: int, ks: range, values, e: int) -> "PadicColumn":
        """Values known only mod p^e, each as `PAdic.from_residue` lifts it."""
        return cls._of(p, ks, map(_from_residue, repeat(p), repeat(e), values))

    def __getitem__(self, index: slice) -> "PadicColumn":
        return PadicColumn(self.p, self.ks[index], self.vals[index], self.units[index],
                           self.precs[index])

    def _apply(self, op, other) -> "PadicColumn":
        if isinstance(other, PadicColumn):
            self._same(other)
            parts = other.vals, other.units, other.precs
        elif isinstance(other, PAdic) and other.p == self.p:
            parts = repeat(other.val), repeat(other.unit), repeat(other.prec)
        else:
            raise TypeError(f"p-adic column operand must be a column or a PAdic at "
                            f"p={self.p}, not {other!r}")
        return PadicColumn._of(self.p, self.ks, map(op, repeat(self.p), self.vals, self.units,
                                                    self.precs, *parts))

    def __mul__(self, other) -> "PadicColumn":
        return self._apply(_mul, other)

    def __add__(self, other) -> "PadicColumn":
        return self._apply(_add, other)

    def negate_where(self, flip) -> "PadicColumn":
        p, parts = self.p, zip(self.ks, self.vals, self.units, self.precs)
        return PadicColumn._of(p, self.ks, (_neg(p, v, u, r) if flip(k) else (v, u, r)
                                            for k, v, u, r in parts))

    def residues(self, e: int) -> list[int]:
        return list(map(_residue, repeat(self.p), repeat(e), self.vals, self.units, self.precs))


# -- primes ------------------------------------------------------------


@dataclass(frozen=True)
class PrimeRange:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty prime range {self.lo}:{self.hi}")


def sieve_primes(rng: PrimeRange) -> list[int]:
    """All primes in [lo, hi], ascending."""
    lo, hi = rng.lo, rng.hi
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    return [q for q in range(max(lo, 2), hi + 1) if sieve[q]]
