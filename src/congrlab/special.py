"""Bernoulli numbers, Euler numbers and harmonic numbers.

The tables come from the all-integer tangent and secant number triangles
of Brent & Harvey, "Fast computation of Bernoulli, Tangent and Secant
numbers" (arXiv:1108.0286).  The residues the congruence suite consumes
also have routes that read no table: `bernoulli_mod_p` (a power sum) and
`euler_mod_p` (a character sum).  The p-adic path reads only these; the
exact path reads the tables and compares each residue with its route
(`bernoulli_mod_p_fast`, `euler_mod_p_fast`).  A harmonic number is a row
of `sums.SUMS`, which each path steps in its own arithmetic; the gaps
H(n+k) - H(n-k) have two routes, `harmonic_gaps` in the caller's
arithmetic and `harmonic_gap_numerators` as integers over lcm(1..2n).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm

from .arith import Residue, rat_reduce_mod
from .errors import InternalInconsistency
from .sums import SUMS, row_sum


def _tangent_numbers(k: int) -> list[int]:
    """[T_1, ..., T_k] with tan x = sum T_j x^(2j-1)/(2j-1)!, in O(k^2)
    integer operations (Brent & Harvey, algorithm TangentNumbers)."""
    t = [0, 1] + [0] * (k - 1)
    for j in range(2, k + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t[1:k + 1]


def _secant_numbers(k: int) -> list[int]:
    """[S_0, ..., S_k] with sec x = sum S_j x^(2j)/(2j)!, in O(k^2)
    integer operations (Brent & Harvey, algorithm SecantNumbers)."""
    s = [1] + [0] * k
    for j in range(1, k + 1):
        s[j] = j * s[j - 1]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            s[j] = (j - i) * s[j - 1] + (j - i + 1) * s[j]
    return s


class SpecialCache:
    """In-memory tables of Bernoulli and Euler numbers, each a contiguous
    prefix of indices.

    Bernoulli convention: B_1 = -1/2 (only even indices feed any check).
    """

    def __init__(self):
        self.bernoulli: dict[int, Fraction] = {}
        self.euler: dict[int, int] = {}

    def ensure_bernoulli(self, n: int) -> None:
        """Hold B_0..B_n; B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

        Growing a held table recomputes the triangle, so a held table grows
        to at least twice its size: growing it index by index to n costs
        O(log n) triangles, not n.
        """
        if n in self.bernoulli:
            return
        if self.bernoulli:
            n = max(n, 2 * max(self.bernoulli))
        table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
        for k, t in enumerate(_tangent_numbers(n // 2), start=1):
            four_k = 4 ** k
            table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t,
                                    four_k * (four_k - 1))
        self.bernoulli.update(enumerate(table[:n + 1]))

    def ensure_euler(self, n: int) -> None:
        """Hold E_0, E_2, .., E_n (even indices); E_2k = (-1)^k S_k.

        A held table grows to at least twice its size, as in ensure_bernoulli.
        """
        m = n // 2
        if 2 * m in self.euler:
            return
        if self.euler:
            m = max(m, max(self.euler))  # index 2m: twice the largest held
        self.euler.update((2 * k, (-1) ** k * s)
                          for k, s in enumerate(_secant_numbers(m)))


_DEFAULT_CACHE = SpecialCache()


def bernoulli_exact(n: int, cache: SpecialCache | None = None) -> Fraction:
    """B_n under the B_1 = -1/2 convention."""
    cache = cache if cache is not None else _DEFAULT_CACHE
    if n not in cache.bernoulli:
        cache.ensure_bernoulli(n)
    return cache.bernoulli[n]


def euler_exact(n: int, cache: SpecialCache | None = None) -> int:
    """Euler number E_n (sec x = sum (-1)^(n/2) E_n x^n/n!)."""
    cache = cache if cache is not None else _DEFAULT_CACHE
    if n % 2 == 1:
        return 0
    if n not in cache.euler:
        cache.ensure_euler(n)
    return cache.euler[n]


def harmonic_exact(n: int, order: int = 1) -> Fraction:
    """H_n^(m) = sum_{0<k<=n} 1/k^m, exactly: row h{m} of SUMS summed by
    binary splitting, and 0 at n = 0."""
    name = f"h{order}"
    if name not in SUMS:
        raise ValueError(f"no harmonic row of order {order}")
    return row_sum(name, 0, 1, n) if n else Fraction(0)


def harmonic_gaps(n: int, frac):
    """The gaps H(n+k) - H(n-k), k = 1..n, in the caller's arithmetic.

    `frac(num, den)` builds a quotient of integers.  Each gap adds
    1/(n+k) + 1/(n-k+1) = (2n+1)/((n+k)(n-k+1)) to the last; at
    n = (p-1)/2 that step is p over a unit, so a p-adic caller needs no
    exact harmonic number.
    """
    return accumulate(frac(2 * n + 1, (n + k) * (n - k + 1)) for k in range(1, n + 1))


def harmonic_gap_numerators(n: int) -> tuple[int, list[int]]:
    """(L, [A_1, ..., A_n]) with H(n+k) - H(n-k) = A_k / L exactly and
    L = lcm(1..2n), so every A_k is an integer.

    Each A_k adds L/(n+k) + L/(n-k+1) to the last, two exact divisions:
    their product (n+k)(n-k+1), the denominator `harmonic_gaps` steps by,
    divides L only when 2n+1 is prime.  At n = (p-1)/2, L = lcm(1..p-1) is
    prime to p.
    """
    L = lcm(*range(1, 2 * n + 1))
    return L, list(accumulate(L // (n + k) + L // (n - k + 1) for k in range(1, n + 1)))


def bernoulli_mod_p(m: int, p: int) -> int:
    """B_m mod p by the power-sum route, with no table: for even m with
    2 <= m <= p-3, T = sum_{0<a<p} a^m is p B_m mod p^2."""
    if m % 2 or not 2 <= m <= p - 3:
        raise ValueError("need even m with 2 <= m <= p-3")
    p2 = p * p
    total = sum(pow(a, m, p2) for a in range(1, p)) % p2
    if total % p:
        raise InternalInconsistency(
            f"power sum for B_{m} mod {p} is not divisible by {p}")
    return total // p


def euler_mod_p(p: int) -> int:
    """E_{p-3} mod p by the character-sum route, with no table:
    sum_{0<a<p, a odd} chi(a) a^(p-3) = E_{p-3}/2 (mod p), chi the
    nontrivial character mod 4."""
    if p < 5:
        raise ValueError("need p >= 5")
    half = sum((-1) ** (a // 2) * pow(a, p - 3, p) for a in range(1, p, 2))
    return 2 * half % p


def bernoulli_mod_p_fast(m: int, p: int, cache: SpecialCache | None = None) -> Residue:
    """B_m mod p by the power-sum route, compared with the tangent-number
    table; the two routes must agree."""
    fast = bernoulli_mod_p(m, p)
    exact = rat_reduce_mod(bernoulli_exact(m, cache), p, 1).value
    if fast != exact:
        raise InternalInconsistency(
            f"B_{m} mod {p}: power-sum route {fast} != exact route {exact}")
    return Residue(p, 1, fast)


def euler_mod_p_fast(p: int, cache: SpecialCache | None = None) -> Residue:
    """E_{p-3} mod p by the character-sum route, compared with the
    secant-number table; the two routes must agree."""
    fast = euler_mod_p(p)
    exact = euler_exact(p - 3, cache) % p
    if fast != exact:
        raise InternalInconsistency(
            f"E_{p - 3} mod {p}: character-sum route {fast} != exact route {exact}")
    return Residue(p, 1, fast)
