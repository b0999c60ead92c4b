"""Declarative catalog of the p-adic congruences and a two-path evaluator.

Every check is evaluated once over exact rationals (ground truth) and, for
primes up to `padic_limit`, once over valuation-aware truncated p-adics; the
two residues must coincide.  A disagreement is an engine bug, not a failing
congruence, and is surfaced as such.  The base `Context` decides what a
check reads at a prime, through one memo; each path only computes it.  The
paths share no row data: the exact path steps the rows of `SUMS`, and the
p-adic path reads every row, harmonic numbers included, off per-prime
factorial tables (`FactorialTable`).  It reads nothing the exact path
builds, takes B and E mod p from routes that read no table, q_p(2) from
2^(p-1) mod p^(PADIC_PREC+1), and (-1)^n C(p-1, n) from its factorial
table.  The exact path checks each Bernoulli or Euler number it reads
against that route.

A check has one description, `sides`, that both contexts read: two scalars,
or for a per-k check two columns over the same k (`arith.Column`), each a
row or gap read combined in the path's arithmetic.  A scalar statement is
written as two text rows, which `_side` turns into reads of the context when
the catalog is built; the three per-k checks are written as code.
`_compare_pairs` reduces each side once, a column in one pass, to a list of
residues; `evaluate_check` decides the verdict from the exact path's lists
and the paths' agreement from both paths' whole lists.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import comb, isqrt
from operator import add, methodcaller, mul, sub

from .arith import Column, ExactColumn, PAdic, PadicColumn, vp_rational
from .arith import reduce_mod as rat_reduce_mod  # the name bench/tracer.py wraps
from .errors import (
    CongrlabError,
    InternalInconsistency,
    NegativeValuation,
    UnknownCheck,
    ValuationViolation,
)
from .fanout import cut, fan_out
from .special import (
    SpecialCache,
    bernoulli_exact,
    bernoulli_mod_p,
    checked_residue,
    euler_exact,
    euler_mod_p,
    harmonic_gap_numerators,
)
from .sums import FACTORS, PRIME_FREE, FactorialTable, Sweep, row_numerators, row_sum

PADIC_PATH_MAX_PRIME = 61


# -- evaluation contexts -------------------------------------------------


class Context:
    """The interface a check reads, at one prime: `frac`, `column`, `S`,
    `terms`, `gaps`, `bern`, `euler`, `qp`, `morley`, `div_pp` and
    `residue`.  A check reads a row only as a range lo..hi at p, summed (`S`)
    or per k (`terms`, a column), and every other factor by the method named
    after it.

    The base owns every read.  One memo, shared by every check evaluated at
    the prime, holds the row sums (harmonic numbers among them), the per-k
    columns, the harmonic gaps, the special numbers, q_p(2), (-1)^n C(p-1, n)
    and, on the p-adic path, the prime's factorial table; the base decides
    which B and E indices exist.  A context supplies only its arithmetic:
    `frac`, `column`, `_row_sum`, `_terms`, `_gaps`, its source of B, E,
    q_p(2) and (-1)^n C(p-1, n) (`_bern`, `_euler`, `_qp`, `_morley`),
    `div_pp` and `residue`.  Each builds every value a check reads in its
    own arithmetic, from its own description of the rows: the exact path
    from the closed forms and ratios of SUMS, the p-adic path from the
    factors of FACTORS.
    """

    def __init__(self, p: int):
        self.p = p
        self.n = (p - 1) // 2
        self.memo: dict[tuple, object] = {}

    def _memo(self, key: tuple, build):
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = build()
        return value

    def S(self, name: str, lo: int, hi: int):
        """Sum row `name` at p over lo <= k <= hi, memoized."""
        return self._memo(("S", name, lo, hi), lambda: self._row_sum(name, lo, hi))

    def terms(self, name: str, lo: int, hi: int) -> Column:
        """The terms t_lo..t_hi of row `name` at p, memoized: a
        column over k = lo..hi, built whole, so the exact path's guard has
        run on the last term before any value is read."""
        return self._memo(("T", name, lo, hi), lambda: self._terms(name, lo, hi))

    def gaps(self) -> Column:
        """The harmonic gaps H(n+k) - H(n-k), a column over k = 1..n, memoized."""
        return self._memo(("G",), self._gaps)

    def bern(self, i: int):
        """B_i, memoized.  B_0 = 1 is read only at p = 3."""
        return self._memo(("B", i), lambda: self._bern(i) if i else self.frac(1))

    def euler(self):
        """E_{p-3}, memoized, the one index the character-sum route covers;
        E_0 = 1 at p = 3."""
        return self._memo(("E",), lambda: self._euler() if self.p > 3 else self.frac(1))

    def qp(self):
        """The Fermat quotient q_p(2) = (2^(p-1) - 1)/p, memoized."""
        return self._memo(("qp",), self._qp)

    def morley(self):
        """(-1)^n C(p-1, n), the left side of Morley's congruence, memoized."""
        return self._memo(("M",), self._morley)


class ExactContext(Context):
    """Evaluates expressions over exact rationals: the ground truth.

    It sums a PRIME_FREE row over any range as F(hi) - F(lo - 1), read off
    `sweep`, the running prefixes a run of primes shares (a fresh Sweep
    when none is given); any other row with `row_sum`.  It reads a row per
    k as the integers t_k * D over D, the denominator of its last term,
    stepped by `row_numerators`, so every row it reads is checked against
    its closed form, and the harmonic gaps as integers over
    L = lcm(1..p-1).  Each is an `ExactColumn`: its values stay exact
    integers over one denominator until a check reads its residues, which
    takes one inverse per column and one pass per factor.  It reads
    B_i and E_i through `bernoulli_exact` and `euler_exact` over `cache`,
    which pick the route by the index, and checks each value it reads mod p
    against the power-sum or character-sum route.
    """

    def __init__(self, p: int, cache: SpecialCache, sweep: Sweep | None = None):
        super().__init__(p)
        self.cache = cache
        self.sweep = sweep if sweep is not None else Sweep()

    def frac(self, a, b=1):
        return Fraction(a, b)

    def column(self, x, ks: range) -> ExactColumn:
        """The constant x at every k of ks."""
        return ExactColumn(self.p, ks, (), x.numerator, x.denominator)

    def _terms(self, name: str, lo: int, hi: int) -> ExactColumn:
        # both paths step by the same ratio, so a wrong one would agree with
        # itself; the guard checks the last term against its closed form
        den, nums = row_numerators(name, self.p, lo, hi)
        return ExactColumn(self.p, range(lo, hi + 1), (nums,), 1, den)

    def _gaps(self) -> ExactColumn:
        # the last gap is H_{p-1}, which the Sweep reads by another route
        L, nums = harmonic_gap_numerators(self.n)
        if Fraction(nums[-1], L) != self.S("h1", 1, self.p - 1):
            raise InternalInconsistency(
                f"p={self.p}: harmonic gap A_{self.n}/L != H_{self.p - 1}")
        return ExactColumn(self.p, range(1, self.n + 1), (nums,), 1, L)

    def _row_sum(self, name: str, lo: int, hi: int):
        if name in PRIME_FREE:
            return self.sweep.sum(name, self.p, lo, hi)
        return row_sum(name, self.p, lo, hi)

    def _qp(self):
        return Fraction(pow(2, self.p - 1) - 1, self.p)

    def _morley(self):
        return Fraction((-1) ** self.n * comb(self.p - 1, self.n))

    def _bern(self, i: int):
        value = bernoulli_exact(i, self.cache)
        # a residue that misses the power-sum route raises InternalInconsistency,
        # an engine fault, never a path disagreement
        checked_residue(f"B_{i}", self.p, "power-sum", bernoulli_mod_p(i, self.p), value)
        return value

    def _euler(self):
        i = self.p - 3
        value = euler_exact(i, self.cache)
        checked_residue(f"E_{i}", self.p, "character-sum", euler_mod_p(self.p), value)
        return Fraction(value)

    def div_pp(self, x, s: int):
        """Divide by p^s after asserting the guaranteed valuation."""
        if x != 0 and vp_rational(x, self.p) < s:
            raise ValuationViolation(
                f"p={self.p}: expected valuation >= {s}, got {vp_rational(x, self.p)}")
        return x / Fraction(self.p ** s)

    def residue(self, x, e: int) -> int:
        return rat_reduce_mod(x, self.p, e)


class PadicContext(Context):
    """Evaluates the same expressions over truncated p-adic numbers at the
    working precision PADIC_PREC, reading nothing the exact path builds.

    - A rational constant of a statement is lifted by `frac`.  q_p(2) is
      read off 2^(p-1) mod p^(PADIC_PREC+1) at absolute precision
      PADIC_PREC, not lifted from the exact path's rational, and
      (-1)^n C(p-1, n) off the factorial table, not from `math.comb`.
    - A row, H_n^(m) among them, is read off the prime's `FactorialTable`,
      built on the first read through the base memo and held for the life
      of the context, as a product of its FACTORS; no entry of SUMS is
      read.  The read is a `PadicColumn` of (valuation, unit) lists at
      relative precision PADIC_PREC, which builds no PAdic per k and tracks
      precision value by value by PAdic's own rules.  A sum adds the pairs of the per-k read of
      its range, through the base memo, with `PAdic.sum_terms`, whose
      precision cap is the one sequential addition would give; so a sum, a
      per-k read and the gaps of one range read it once.  A range with
      lo <= n < hi is the sum of its halves lo..n and n+1..hi, so no k of a
      row is read twice at one prime; the halves add to that same cap.
    - The harmonic gaps are windows of the units 1/j of h1's halves, so no
      gap takes an inverse; each is known to absolute precision PADIC_PREC.
    - B_{p-3}, B_{p-5} and E_{p-3} are known mod p only, from the power-sum
      and character-sum routes, and never from a table.  Every check
      multiplies them by a coefficient of valuation at least m - 1, so mod p
      is enough; were it not, the precision tracking would raise
      PrecisionExhausted, an engine fault.

    A value known mod p^e enters at absolute precision e
    (`PAdic.from_residue`), so no digit is invented.
    """

    def frac(self, a, b=1):
        return PAdic.from_rational(a, self.p, PADIC_PREC, b)

    def column(self, x: PAdic, ks: range) -> PadicColumn:
        """The constant x at every k of ks."""
        return PadicColumn(self.p, ks, *([part] * len(ks) for part in (x.val, x.unit, x.prec)))

    def _table(self) -> FactorialTable:
        return self._memo(("F",), lambda: FactorialTable(self.p, PADIC_PREC))

    def _terms(self, name: str, lo: int, hi: int) -> PadicColumn:
        vals, units = self._table().read(name, lo, hi)
        return PadicColumn(self.p, range(lo, hi + 1), vals, units, [PADIC_PREC] * len(vals))

    def _gaps(self) -> PadicColumn:
        low, high = self.terms("h1", 1, self.n), self.terms("h1", self.n + 1, self.p - 1)
        if any(low.vals) or any(high.vals):  # every j < p is a unit
            raise InternalInconsistency(f"p={self.p}: a term of row h1 below p is not a unit")
        # gap_k = gap_{k-1} + 1/(n-k+1) + 1/(n+k)
        return PadicColumn.from_residues(
            self.p, range(1, self.n + 1),
            accumulate(u + w for u, w in zip(reversed(low.units), high.units)), PADIC_PREC)

    def _row_sum(self, name: str, lo: int, hi: int):
        if lo <= self.n < hi:
            return self.S(name, lo, self.n) + self.S(name, self.n + 1, hi)
        terms = self.terms(name, lo, hi)
        return PAdic.sum_terms(self.p, terms.vals, terms.units, PADIC_PREC)

    def _qp(self):
        # its own route, so a wrong exact q_p(2) shows as a path disagreement
        power = pow(2, self.p - 1, self.p ** (PADIC_PREC + 1))
        return PAdic.from_residue((power - 1) // self.p, self.p, PADIC_PREC)

    def _morley(self):
        # C(p-1, n) = U[p-1] IU[n]^2, a unit since p - 1 < p; its own route, so
        # a wrong exact value shows as a path disagreement
        table = self._table()
        unit = (-1) ** self.n * table.U[self.p - 1] * table.IU[self.n] ** 2
        return PAdic.from_residue(unit % table.mod, self.p, PADIC_PREC)

    def _bern(self, i: int):
        return PAdic.from_residue(bernoulli_mod_p(i, self.p), self.p, 1)

    def _euler(self):
        return PAdic.from_residue(euler_mod_p(self.p), self.p, 1)

    def div_pp(self, x, s: int):
        if not x.is_zero_marker and x.val < s:
            raise ValuationViolation(
                f"p={self.p}: expected valuation >= {s}, got {x.val}")
        return x.shift(s)

    def residue(self, x, e: int) -> int:
        return x.residue(e)


# -- check specifications -------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    id: str
    description: str
    m: int                      # modulus exponent
    min_prime: int
    status: str                 # proven | conjectural | exploratory
    sides: callable             # ctx -> (lhs, rhs): two scalars or two columns
    shift: int = 0              # extra working precision for explicit 1/p^s
    note: str = ""


@dataclass
class CheckResult:
    id: str
    p: int
    m: int
    lhs: int | None
    rhs: int | None
    passed: bool | None
    status: str
    applicable: bool
    path_agreement: bool | None = None
    elapsed_ms: float = 0.0
    note: str = ""


# -- statements as text rows ----------------------------------------------

# A scalar statement is two text rows, its sides.  `_side` parses each once,
# when CHECK_CATALOG is built, into a function of the context that makes the
# reads and operations the written expression makes, in their order.
# - A side is terms joined by a lone + or -, added left to right.
# - A term is a coefficient, then factors, multiplied left to right.  Without
#   a coefficient it is its factors, the first negated under a leading -;
#   without a factor it is its coefficient.
# - The coefficient is the product of whichever of these are written: a
#   rational a or a/b, p or p^j, s^n = (-1)^n, s^h = (-1)^((p+1)/2) and
#   4^(p-1).  It is lifted once, by frac.
# - A factor is a row sum row[lo,hi], each bound one of _BOUNDS, or one of
#   _SPECIAL: B3 = B_{p-3}, B5 = B_{p-5}, E = E_{p-3}, q = q_p(2) and
#   M = (-1)^n C(p-1, n).  It may carry a power ^k; /p^s before it divides
#   it by p^s (div_pp).
# So T1.1-1.3's right side, -2 H_{(p-1)/2} - (7/2) p^2 B_{p-3}, is
# "-2 h1[1,n] - 7/2 p^2 B3".  A malformed row raises ValueError naming its
# check and token.
_BOUNDS = {"0": (0, 0), "1": (0, 1), "n-1": (1, -1), "n": (1, 0), "n+1": (1, 1),
           "p-1": (2, 0)}  # (a, b) is the bound a n + b, and p - 1 = 2n
# the exponents (j, a, h, d) of p^j (-1)^(a n + h (p+1)/2) 4^(d (p-1))
_INTEGERS = {"p": (1, 0, 0, 0), "s^n": (0, 1, 0, 0), "s^h": (0, 0, 1, 0),
             "4^(p-1)": (0, 0, 0, 1)}
_SPECIAL = {"B3": lambda c: c.bern(c.p - 3), "B5": lambda c: c.bern(c.p - 5),
            "E": methodcaller("euler"), "q": methodcaller("qp"), "M": methodcaller("morley")}
_TOKEN = re.compile(r"(-?)(.+?)(?:\^(\d+))?")  # sign, base, power
_RATIONAL = re.compile(r"-?\d+(?:/[1-9]\d*)?")
_ROW = re.compile(r"(\w+)\[(.*),(.*)\]")


def _read(check_id: str, token: str, base: str):
    """The read of the factor `base` of `token`: a row sum or a special number."""
    row = _ROW.fullmatch(base)
    if row is None:
        if base not in _SPECIAL:
            raise ValueError(f"{check_id}: unknown token {token!r}")
        return _SPECIAL[base]
    name, lo, hi = row.groups()
    if name not in FACTORS:
        raise ValueError(f"{check_id}: unknown row {name!r} in {token!r}")
    for bound in (lo, hi):
        if bound not in _BOUNDS:
            raise ValueError(f"{check_id}: unknown bound {bound!r} in {token!r}")
    (la, lb), (ha, hb) = _BOUNDS[lo], _BOUNDS[hi]
    return lambda c: c.S(name, la * c.n + lb, ha * c.n + hb)


def _term(check_id: str, tokens: list[str], near: str):
    """The read of the term written as `tokens`; `near` is the token next to
    it, which names an empty term."""
    if not tokens:
        raise ValueError(f"{check_id}: empty term at {near!r}")
    written, rational, exponents, reads, shift = False, Fraction(1), (0, 0, 0, 0), [], None
    for i, token in enumerate(tokens):
        minus, base, power = _TOKEN.fullmatch(token).groups()
        if not reads and shift is None and _RATIONAL.fullmatch(token):
            written, rational = True, rational * Fraction(token)
        elif not reads and shift is None and not minus and base in _INTEGERS:
            written, j = True, int(power or 1)
            exponents = tuple(e + j * f for e, f in zip(exponents, _INTEGERS[base]))
        elif base == "/p" and not minus and shift is None:
            shift = int(power or 1)
        elif minus and i:
            raise ValueError(f"{check_id}: unknown token {token!r}")
        else:
            read = _read(check_id, token, base)
            if power:
                read = lambda c, f=read, k=int(power): f(c) ** k
            if shift:
                read = lambda c, f=read, s=shift: c.div_pp(f(c), s)
            reads.append((lambda c, f=read: -f(c)) if minus else read)
            shift = None
    if shift is not None:
        raise ValueError(f"{check_id}: no factor after {tokens[-1]!r}")
    if written:
        (k, b), (j, a, h, d) = rational.as_integer_ratio(), exponents
        reads.insert(0, lambda c: c.frac(k * c.p ** j * (-1) ** (a * c.n + h * ((c.p + 1) // 2))
                                         * 4 ** (d * (c.p - 1)), b))
    return _fold(reads[0], [(mul, read) for read in reads[1:]])


def _side(check_id: str, text: str):
    """The function of the context that the row `text` writes."""
    terms, operators, tokens, near = [], [], [], text
    for token in text.split():
        if token in ("+", "-"):
            terms.append(_term(check_id, tokens, token))
            operators.append(sub if token == "-" else add)
            tokens, near = [], token
        else:
            tokens.append(token)
    terms.append(_term(check_id, tokens, near))
    return _fold(terms[0], list(zip(operators, terms[1:])))


def _fold(first, rest):
    """The read first(c), combined left to right with each read of the
    (operator, read) pairs of `rest`."""
    def fold(c):
        value = first(c)
        for operator, read in rest:
            value = operator(value, read(c))
        return value
    return fold if rest else first


# -- the catalog ----------------------------------------------------------


def _catalog() -> dict[str, CheckSpec]:
    C: dict[str, CheckSpec] = {}

    def add(id, desc, m, minp, status, sides, shift=0, note=""):
        """`sides` is a per-k check's function of the context, or the two
        rows of a scalar statement."""
        if not callable(sides):
            lhs, rhs = (_side(id, row) for row in sides)
            sides = lambda c: (lhs(c), rhs(c))
        C[id] = CheckSpec(id, desc, m, minp, status, sides, shift, note)

    add("T1.1-1.1", "alternating inverse central sum vs -2 B_{p-3}", 1, 7, "proven",
        ("alt_inv_k3[1,n]", "-2 B3"))
    add("T1.1-1.2", "alternating central sum vs (56/15) p B_{p-3}", 2, 7, "proven",
        ("alt_k2[1,n]", "56/15 p B3"))
    add("T1.1-1.3", "half-range squared central sum vs harmonic + B_{p-3}", 3, 7, "proven",
        ("sq_k1[1,n]", "-2 h1[1,n] - 7/2 p^2 B3"))
    add("T1.1-1.4a", "(-4/p^2) upper-half squared central sum vs -14 B_{p-3}", 1, 7, "proven",
        ("-4 /p^2 sq_k1[n+1,p-1]", "-14 B3"), shift=2)
    add("T1.1-1.4b", "reciprocal squared central sum vs -14 B_{p-3}", 1, 7, "proven",
        ("inv_sq_k3[1,n]", "-14 B3"))
    add("C1.1-1.5a", "(1/p) upper-half odd sum vs -B_{p-3}/4", 1, 7, "proven",
        ("/p odd2_alt[n+1,p-1]", "-1/4 B3"), shift=1)
    add("C1.1-1.5b", "negated reciprocal odd-cube sum vs -B_{p-3}/4", 1, 7, "proven",
        ("-inv_odd3_alt[0,n-1]", "-1/4 B3"))
    add("T1.2-1.6a", "(1/p^2) upper-half odd squared sum vs -(7/4) B_{p-3}", 1, 5, "proven",
        ("/p^2 sq_odd1[n+1,p-1]", "-7/4 B3"), shift=2)
    add("T1.2-1.6b", "negated reciprocal odd-cube squared sum vs -(7/4) B_{p-3}", 1, 5, "proven",
        ("-inv_sq_odd3[0,n-1]", "-7/4 B3"))
    add("T1.2-1.7", "half-range odd squared sum vs Fermat quotient expansion", 3, 5, "proven",
        ("sq_odd1[0,n-1]", "-2 q - p q^2 + 5/12 p^2 B3"))

    # A per-k check compares two columns over the same k: rows read per k
    # and the harmonic gaps, times a constant or another column, plus a
    # constant, negated where k has a given parity.  A constant stays on the
    # right of a column.

    def l21a_sides(c):
        lhs = c.terms("l21a", 1, c.p - 1)
        # sign is (-1)^(floor(2k/p) - 1)
        return lhs, c.column(c.frac(2 * c.p), lhs.ks).negate_where(
            lambda k: (2 * k // c.p) % 2 == 0)

    add("L2.1a", "k C(2k,k) C(2(p-k),p-k) = +-2p, per k", 2, 5, "proven", l21a_sides)

    def l21b_sides(c):
        return c.terms("b", 0, c.n), c.terms("sq_k0", 0, c.n).negate_where(lambda k: k % 2)

    add("L2.1b", "C(n,k) C(n+k,k) = C(2k,k)^2/(-16)^k, per k", 2, 5, "proven", l21b_sides,
        note="checked for k in [0,n] where C(n,k) is meaningful")

    add("L2.2-2.3", "refined Morley congruence", 4, 5, "proven",
        ("M", "4^(p-1) + 1/12 p^3 B3"))
    # the nested p^2 (2/3 q^3 + 7/12 B_{p-3}) of the source, written expanded
    add("L2.2-2.4", "refined Lehmer congruence for H_{(p-1)/2}", 3, 5, "proven",
        ("h1[1,n]", "-2 q + p q^2 - 2/3 p^2 q^3 - 7/12 p^2 B3"))
    add("L2.2-2.5a", "H_{(p-1)/2}^(2) vs (7/3) p B_{p-3}", 2, 5, "proven",
        ("h2[1,n]", "7/3 p B3"))
    add("L2.2-2.5b", "H_{(p-1)/2}^(3) vs -2 B_{p-3}", 1, 5, "proven",
        ("h3[1,n]", "-2 B3"))
    add("L2.4a", "full squared central sum /k^2 vs -2 H^2", 2, 5, "proven",
        ("sq_k2[1,p-1]", "-2 h1[1,n]^2"))
    add("L2.4b", "full squared central sum /k^3 vs harmonic cubes", 1, 5, "proven",
        ("sq_k3[1,p-1]", "-4/3 h1[1,n]^3 - 2/3 h3[1,n]"))
    add("P2.9", "full alternating central sum vs -(4/15) p B_{p-3}", 2, 7, "proven",
        ("alt_k2[1,p-1]", "-4/15 p B3"))
    add("P2.10", "half-range bridge congruence", 3, 7, "proven",
        ("sq_k1[1,n] + 2 h1[1,n]", "-5/8 p alt_k2[1,n] - 7/6 p^2 B3"))
    add("P2.11", "full-range bridge congruence", 3, 7, "proven",
        ("sq_k1[1,p-1] + 2 h1[1,n]", "-5/8 p alt_k2[1,p-1] - 1/6 p^2 B3"),
        note="source prints C(2k,k)/(k16^k); the surrounding argument requires "
             "the square, which is what is checked")
    add("P2.12", "shifted-denominator squared sum vs Fermat quotient", 3, 7, "proven",
        ("sq_shifted[1,n]", "2 q + p q^2 - p^2 B3"))
    add("P2.13", "shifted-denominator sum vs 1/2,1/4,1/8 splitting", 3, 7, "proven",
        ("sq_shifted[1,n]", "1/2 sq_k1[1,n] - 1/4 p sq_k2[1,n] + 1/8 p^2 sq_k3[1,n]"))
    add("P2.14", "half squared central sum /k^2 vs Fermat quotient", 2, 7, "proven",
        ("sq_k2[1,n]", "-8 q^2 + 8 p q^3"))
    add("P2.15", "half squared central sum /k^3 vs Fermat quotient", 1, 7, "proven",
        ("sq_k3[1,n]", "32/3 q^3 + 4/3 B3"))

    def ps11c_sides(c):
        # h = H(n+k) - H(n-k), read from the context like the rows, which
        # are L2.1b's, read from k = 1; lhs = (-1)^k b (1 - (p/4) h)
        lhs = c.terms("b", 0, c.n)[1:] * (c.gaps() * c.frac(-c.p, 4) + c.frac(1))
        return lhs.negate_where(lambda k: k % 2), c.terms("sq_k0", 0, c.n)[1:]

    add("PS11c-3.2", "per-k refinement of the (-16)^k transform", 4, 5, "proven",
        ps11c_sides)

    add("PH3", "H_{p-1}^(3) = 0 mod p", 1, 5, "proven", ("h3[1,p-1]", "0"))
    add("L3.2-3.3", "odd-cube squared sum vs Fermat quotient cube", 1, 5, "proven",
        ("sq_odd3[0,n-1]", "-4/3 q^3 - 1/6 B3"))
    add("L3.3-3.4", "odd-square squared sum vs Fermat quotient square", 2, 5, "proven",
        ("sq_odd2[0,n-1]", "-2 q^2 + 2/3 p q^3 - 1/6 p B3"))
    add("X-ST", "full central sum /k vs (8/9) p^2 B_{p-3}", 3, 5, "proven",
        ("k1[1,p-1]", "8/9 p^2 B3"))
    add("X-S11c-a", "half central sum /k vs Euler number", 2, 5, "proven",
        ("k1[1,n]", "8/3 s^h p E"))
    add("X-S11c-b", "half reciprocal central sum vs Euler number", 1, 5, "proven",
        ("inv_k2[1,n]", "4/3 s^n E"))
    add("X-T1-a", "full alternating inverse sum vs -(2/5) H_{p-1}/p^2", 3, 7, "proven",
        ("alt_inv_k3[1,p-1]", "-2/5 /p^2 h1[1,p-1]"),
        shift=2, note="Wolstenholme guarantees the shift")
    add("X-T1-b", "full alternating central sum vs (4/5) H_{p-1}/p", 3, 7, "proven",
        ("alt_k2[1,p-1]", "4/5 /p h1[1,p-1]"),
        shift=1, note="Wolstenholme guarantees the shift")
    add("X-G1-a", "Glaisher: H_{p-1} vs -(p^2/3) B_{p-3}", 3, 5, "proven",
        ("h1[1,p-1]", "-1/3 p^2 B3"))
    add("X-G1-b", "Glaisher: H_{p-1}^(2) vs (2/3) p B_{p-3}", 2, 5, "proven",
        ("h2[1,p-1]", "2/3 p B3"))
    add("X-S11c-16", "full squared central sum /16^k vs Euler number", 3, 5, "proven",
        ("sq_k0[0,p-1]", "s^n - p^2 E"),
        note="summation starts at k=0; the source's k=1 lower bound drops "
             "the unit term and fails at every prime")
    add("X-T2", "full squared central sum /(k 16^k) vs -2 H_{(p-1)/2}", 3, 5, "proven",
        ("sq_k1[1,p-1]", "-2 h1[1,n]"))
    add("X-S11b-a", "lower odd central sum = 0 mod p^2", 2, 5, "proven",
        ("odd1[0,n-1]", "0"))
    add("X-S11b-b", "upper odd central sum vs (p/3) E_{p-3}", 2, 5, "proven",
        ("odd1[n+1,p-1]", "1/3 p E"))
    add("X-T3", "lower odd-square alternating sum vs H_{p-1}/(5p)", 3, 7, "proven",
        ("odd2_alt[0,n-1]", "1/5 /p h1[1,p-1]"),
        shift=1, note="Wolstenholme guarantees the shift")
    add("X-S11b-c", "upper odd-square alternating sum vs -(p/4) B_{p-3}", 2, 7,
        "conjectural", ("odd2_alt[n+1,p-1]", "-1/4 p B3"))
    add("CJ1.1-a", "upper squared central sum vs -(21/2) H_{p-1}", 4, 7,
        "conjectural", ("sq_k1[n+1,p-1]", "-21/2 h1[1,p-1]"))
    add("CJ1.1-b", "reciprocal odd-cube sum vs H_{p-1}/p^2 and B_{p-5}", 3, 7,
        "conjectural", ("inv_odd3_alt[0,n-1]", "-3/4 /p^2 h1[1,p-1] - 47/400 p^2 B5"),
        shift=2, note="B_{p-5} forces p >= 7")
    add("CJ1.2-a", "full quartic-binomial sum vs -3H + (7/4) p^2 B_{p-3}", 3, 3,
        "conjectural", ("quad[1,p-1]", "-3 h1[1,n] + 7/4 p^2 B3"))
    add("CJ1.2-b", "half quartic-binomial sum vs -3H + Euler number", 2, 3,
        "conjectural", ("quad[1,n]", "-3 h1[1,n] + 2 s^h p E"))

    # the source's 16 (s^h q + p E) on CJ1.2-d's right side is written expanded
    cj12_note = ("the garbled leading token in the source resolves to a "
                 "factor p on the sum; verified empirically")
    add("CJ1.2-c", "p * reciprocal quartic sum vs 32 E_{p-3}", 1, 3, "conjectural",
        ("p inv_quad[1,n]", "32 s^n E"), shift=1, note=cj12_note)
    add("CJ1.2-d", "p * shifted reciprocal quartic sum vs Fermat quotient", 2, 5,
        "conjectural", ("p inv_quad_shifted[1,n]", "16 s^h q + 16 p E"),
        shift=1, note=cj12_note + "; fails at p=3, so min prime 5")
    add("CJ1.2-c-lit", "literal C(4k,k) reading of CJ1.2-c", 1, 3, "exploratory",
        ("p inv_quad_lit[1,n]", "32 s^n E"),
        shift=1, note="reported for the conjectural hunt, never asserted")
    add("CJ1.2-d-lit", "literal C(4k,k) reading of CJ1.2-d", 2, 3, "exploratory",
        ("p inv_quad_shifted_lit[1,n]", "16 s^h q + 16 p E"),
        shift=1, note="reported for the conjectural hunt, never asserted")

    return C


CHECK_CATALOG = _catalog()

# One working precision serves every check: the deepest modulus plus explicit
# 1/p^s shift in the catalog, with no padding.  A zero marker never invents a
# digit, so too low a precision raises on the p-adic path, and evaluate_check
# turns that into an engine fault, never a verdict.
PADIC_PREC = max(s.m + s.shift for s in CHECK_CATALOG.values())


def check_ids(selector: str = "all") -> list[str]:
    """Resolve a selector (all/proven/conjectural or comma list) to ids;
    a repeated id is kept once, where it first appears."""
    if selector == "all":
        return list(CHECK_CATALOG)
    if selector in ("proven", "conjectural", "exploratory"):
        return [i for i, s in CHECK_CATALOG.items() if s.status == selector]
    ids = list(dict.fromkeys(s.strip() for s in selector.split(",") if s.strip()))
    for i in ids:
        if i not in CHECK_CATALOG:
            raise UnknownCheck(f"unknown check id {i!r}")
    return ids


# -- evaluation ------------------------------------------------------------


@lru_cache(maxsize=None)  # evaluate_check asks once per check and prime
def _checked_prime(p: int) -> int:
    """p, which must be prime: no check means anything at another p."""
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p={p} is not prime")
    return p


def _compare_pairs(ctx, spec: CheckSpec):
    """Reduce both sides of a check in one context mod p^m: (ks, lhs, rhs),
    each side's residues as a list, one per k of `ks` for a per-k check and
    one for a scalar check, whose `ks` is None.  A side with p in its
    denominator fails the statement at p: ValuationViolation."""
    lhs, rhs = spec.sides(ctx)
    try:
        if isinstance(lhs, Column):
            return lhs.ks, lhs.residues(spec.m), rhs.residues(spec.m)
        return None, [ctx.residue(lhs, spec.m)], [ctx.residue(rhs, spec.m)]
    except NegativeValuation as exc:
        raise ValuationViolation(str(exc)) from exc


def evaluate_check(check_id: str, p: int, cache: SpecialCache | None = None,
                   padic_limit: int = PADIC_PATH_MAX_PRIME, *,
                   contexts: tuple | None = None) -> CheckResult:
    """Evaluate one catalog check at one prime.

    The exact path decides the row: the check passes when its two residue
    lists are equal, and the row reports the residues at the first k where
    they differ, else at the first k, with that k in the note.  The p-adic
    path runs too when p <= padic_limit, and the paths agree when its lists
    equal the exact path's at every k.  A p that is not prime raises
    ValueError before any context is built.  `contexts` are the shared
    (exact, p-adic) contexts of p; without them the check gets fresh ones.
    Either way every special number it reads is cross-checked on its first
    read in a context.
    """
    if check_id not in CHECK_CATALOG:
        raise UnknownCheck(f"unknown check id {check_id!r}")
    _checked_prime(p)
    spec = CHECK_CATALOG[check_id]
    if p < spec.min_prime:
        return CheckResult(check_id, p, spec.m, None, None, None, spec.status,
                           applicable=False, note=f"inapplicable: needs p >= {spec.min_prime}")
    if contexts is None:
        cache = cache if cache is not None else SpecialCache()
        contexts = ExactContext(p, cache), PadicContext(p)
    exact, padic = contexts
    start = time.perf_counter()
    note = spec.note
    try:
        pairs = _compare_pairs(exact, spec)
    except ValuationViolation as exc:  # the statement itself fails at p
        return CheckResult(check_id, p, spec.m, None, None, False, spec.status,
                           applicable=True,
                           elapsed_ms=(time.perf_counter() - start) * 1000,
                           note=(note + "; " if note else "")
                           + f"{type(exc).__name__}: {exc}")
    ks, lv, rv = pairs
    passed = lv == rv
    i = 0 if passed else next(i for i, (a, b) in enumerate(zip(lv, rv, strict=True)) if a != b)
    if ks is not None and not passed:
        note = (note + "; " if note else "") + f"first failing instance k={ks[i]}"
    agreement = None
    if p <= padic_limit:
        try:
            agreement = _compare_pairs(padic, spec) == pairs
        except CongrlabError as exc:  # an engine fault, never a verdict
            raise InternalInconsistency(
                f"p={p}: {check_id} on the p-adic path: "
                f"{type(exc).__name__}: {exc}") from exc
    return CheckResult(check_id, p, spec.m, lv[i], rv[i], passed, spec.status,
                       applicable=True, path_agreement=agreement,
                       elapsed_ms=(time.perf_counter() - start) * 1000, note=note)


def _run_block(ids, padic_limit: int, cache: SpecialCache,
               primes: list[int]) -> list[CheckResult]:
    """Evaluate every check at each of a run of rising primes: one set of
    shared contexts per prime and one Sweep for the run, over the tables
    of `cache`."""
    sweep, results = Sweep(), []
    for p in primes:
        contexts = ExactContext(p, cache, sweep), PadicContext(p)
        results += [evaluate_check(i, p, padic_limit=padic_limit, contexts=contexts)
                    for i in ids]
    return results


# A prime costs a fixed part (its contexts, its special numbers and, below the
# p-adic limit, the p-adic path) plus a part that grows with p; timing each
# block, p + _PRIME_COST_OFFSET balanced the default run's two blocks and
# dual-path's more evenly than p alone, which left the first block slowest.
# `_plan` weighs a run in the same units, a prime on the p-adic path counted
# twice, and gives each block at least _BLOCK_WORK of it.
_PRIME_COST_OFFSET = 75
# Each block's first prime re-sweeps the PRIME_FREE rows from k = 1, about 40 ms
# at 997, so three primes near 1000 (3222-3266 units) must stay one block.
_BLOCK_WORK = 3500


def _blocks(primes: list[int], count: int) -> list[list[int]]:
    """`count` blocks of the sorted `primes`, cut by p + _PRIME_COST_OFFSET,
    the proxy for their cost."""
    return cut(primes, count, lambda p: p + _PRIME_COST_OFFSET)


def _plan(primes: list[int], jobs: int, padic_limit: int) -> list[list[int]]:
    """The blocks of the sorted `primes` a run of at most `jobs` workers
    takes: as many from `_blocks` as give each at least _BLOCK_WORK of the
    run's work, the sum of p + _PRIME_COST_OFFSET with a prime at or below
    `padic_limit` counted twice, but at least one and at most jobs or
    primes.  One block runs in this process and forks nothing; more fan
    out, one worker per block, this process running the first."""
    if not primes:
        return []
    work = sum((p + _PRIME_COST_OFFSET) * (2 if p <= padic_limit else 1) for p in primes)
    return _blocks(primes, max(1, min(jobs, len(primes), work // _BLOCK_WORK)))


def summarize(results: list[CheckResult]) -> dict:
    summary = {"total": len(results), "passed": 0, "failed": 0,
               "inapplicable": 0, "path_disagreements": 0, "by_status": {}}
    for r in results:
        outcome = "inapplicable" if not r.applicable else "passed" if r.passed else "failed"
        summary[outcome] += 1
        summary["by_status"].setdefault(
            r.status, {"passed": 0, "failed": 0, "inapplicable": 0})[outcome] += 1
        summary["path_disagreements"] += r.path_agreement is False
    return summary


def run_suite(ids, primes, cache: SpecialCache | None = None,
              padic_limit: int = PADIC_PATH_MAX_PRIME,
              jobs: int = 1) -> tuple[list[CheckResult], dict]:
    """Evaluate every (id, prime) pair; deterministic (id, p) ordering.

    A p that is not prime raises ValueError before anything is evaluated.  The
    checks at one prime share one exact and one p-adic context.  The primes
    run in blocks of consecutive primes, one `fan_out` share and one worker
    each, so that the exact path sweeps each block's PRIME_FREE rows as
    running prefixes (`Sweep`); no row depends on the blocks.  `_plan` picks
    how many, from one, run in this process, to min(jobs, len(primes)), this
    process running the first and a forked child each other: as many as
    leave each block at least `_BLOCK_WORK` of the run's work, enough to
    pay for its Sweep's catch-up.  Each block reads the tables of `cache`,
    which a forked worker inherits; only its rows come back, pickled, and a
    platform without `os.fork` runs the blocks in turn in this process.
    Every special-number value a context reads is cross-checked mod p on
    its first read; a mismatch raises InternalInconsistency, since no
    verdict built on it could be trusted.
    """
    ids = list(ids)
    primes = sorted(map(_checked_prime, primes))
    for i in ids:
        if i not in CHECK_CATALOG:
            raise UnknownCheck(f"unknown check id {i!r}")
    cache = cache if cache is not None else SpecialCache()
    blocks = _plan(primes, jobs, padic_limit)
    chunks = fan_out(partial(_run_block, ids, padic_limit, cache), blocks)
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.id, r.p))
    return results, summarize(results)
