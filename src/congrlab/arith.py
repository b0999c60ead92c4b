"""Exact rational, residue and valuation-aware p-adic arithmetic.

Exact rationals are `fractions.Fraction` throughout; residues mod p^e and
truncated p-adic numbers are the two modular number types defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


class Unreduced:
    """An exact rational kept as it was built: the product of the integer
    factors `nums` over the integer `den`.  No gcd is taken, and no product
    of the factors is formed until a sum needs it, so terms over one
    denominator stay over it and a residue reduces each factor on its own.
    It multiplies with an int or a Fraction on either side, adds one on its
    right and negates; it exposes no `numerator`, since it need not be in
    lowest terms."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple, den: int):
        self.nums = nums
        self.den = den

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Unreduced((*self.nums, other.numerator), self.den * other.denominator)

    def __add__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num = math.prod(self.nums) * other.denominator + other.numerator * self.den
        return Unreduced((num,), self.den * other.denominator)

    def __neg__(self):
        return Unreduced((-self.nums[0], *self.nums[1:]), self.den)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Unreduced({self.nums}, {self.den})"


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
        value %= p ** e
        if value == 0:
            return cls.zero_marker(p, e)
        v = vp_int(value, p)
        return cls(p, v, value // p ** v, e - v)

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
        p = self.p
        abs_prec = min(self._abs_prec(), other._abs_prec())
        operands = [x for x in (self, other) if x.unit is not None]
        if not operands:
            return PAdic.zero_marker(p, abs_prec)
        base = min(x.val for x in operands)
        digits = abs_prec - base
        if digits <= 0:
            return PAdic.zero_marker(p, abs_prec)
        total = sum(p ** (x.val - base) * x.unit for x in operands) % p ** digits
        if total == 0:
            return PAdic.zero_marker(p, abs_prec)
        t = vp_int(total, p)
        return PAdic(p, base + t, total // p ** t, digits - t)

    def __neg__(self) -> "PAdic":
        if self.unit is None:
            return self
        return PAdic(self.p, self.val, (-self.unit) % self.p ** self.prec, self.prec)

    def __sub__(self, other) -> "PAdic":
        return self + (-other)

    def __mul__(self, other) -> "PAdic":
        self._check(other)
        val = self.val + other.val
        if self.unit is None or other.unit is None:
            return PAdic.zero_marker(self.p, val)
        prec = min(self.prec, other.prec)
        return PAdic(self.p, val, self.unit * other.unit % self.p ** prec, prec)

    def __pow__(self, k: int) -> "PAdic":
        if k < 0:
            raise ValueError("p-adic powers take exponents >= 0")
        result = PAdic.from_rational(1, self.p, max(self.prec, 1))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- extraction ----------------------------------------------------

    def shift(self, s: int) -> "PAdic":
        """Divide by p^s (valuation shift)."""
        return PAdic(self.p, self.val - s, self.unit, self.prec)

    def residue(self, e: int) -> int:
        """The value mod p^e, as an int in [0, p^e); only significant digits
        are reported."""
        if self.unit is None:
            if self.val >= e:
                return 0
            raise PrecisionExhausted(
                f"zero marker only guarantees valuation >= {self.val}, need {e}")
        if self.val < 0:
            raise NegativeValuation(
                f"p-adic value has valuation {self.val} < 0")
        if self.val + self.prec < e:
            raise PrecisionExhausted(
                f"value known mod p^{self.val + self.prec}, need p^{e}")
        return self.p ** self.val * self.unit % self.p ** e

    def __repr__(self):
        if self.unit is None:
            return f"PAdic(p={self.p}, O(p^{self.val}))"
        return (f"PAdic(p={self.p}, {self.p}^{self.val}*{self.unit} "
                f"+ O(p^{self.val + self.prec}))")


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
