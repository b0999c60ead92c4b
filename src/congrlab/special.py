"""Bernoulli numbers, Euler numbers and harmonic numbers.

B_n and E_n have two exact routes, and the index alone picks one, in
`bernoulli_exact` and `euler_exact`, the only code that chooses.  Below
INDEX_MIN they read tables: the all-integer tangent and secant number
triangles of Brent & Harvey, "Fast computation of Bernoulli, Tangent and
Secant numbers" (arXiv:1108.0286), whose cost to index n grows like n^2.8,
built once to INDEX_MIN - 1 on the first miss.  From INDEX_MIN up the
index route gives each value by itself, whatever the tables hold: B_n from
zeta(n) and E_n from the Dirichlet beta function, each an Euler product in
integer fixed point, with pi from the Chudnovsky series, held once per
process (`bernoulli_by_index`, `euler_by_index`).  The residues the
congruence suite consumes also have routes that read no exact value:
`bernoulli_mod_p` (a power sum) and `euler_mod_p` (a character sum),
memoized, so both paths at one prime share one run of each sum.  The
p-adic path reads only these; the exact path compares each value it reads
with them (`checked_residue`; `bernoulli_mod_p_fast` compares
`bernoulli_exact`).
A harmonic number is a row of `sums.SUMS`, which each path steps in its
own arithmetic; so are the gaps H(n+k) - H(n-k), windows of row h1:
`harmonic_gap_numerators` gives them as integers over lcm(1..2n), and the
p-adic path sums the units of its own h1 digits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, isqrt, prod

from .arith import PrimeRange, Residue, rat_reduce_mod, sieve_primes
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

        Growing a held table rebuilds the triangle from the start.
        """
        if n in self.bernoulli:
            return
        table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n - 1)
        for k, t in enumerate(_tangent_numbers(n // 2), start=1):
            four_k = 4 ** k
            table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t,
                                    four_k * (four_k - 1))
        self.bernoulli.update(enumerate(table[:n + 1]))

    def ensure_euler(self, n: int) -> None:
        """Hold E_0, E_2, .., E_n (even indices); E_2k = (-1)^k S_k.

        Growing a held table rebuilds the triangle, as in ensure_bernoulli.
        """
        m = n // 2
        if 2 * m in self.euler:
            return
        self.euler.update((2 * k, (-1) ** k * s)
                          for k, s in enumerate(_secant_numbers(m)))


# -- one special number by index ---------------------------------------------

INDEX_MIN = 60  # the smallest index the index route serves; the triangles serve those below
_GUARD_BITS = 24  # working bits past the error bound of `_by_index`
_CHECK_BITS = 8  # a result must lie within 2^-_CHECK_BITS of an integer
_PI = [0, 0]  # [w, an integer within 2 of pi * 2^w]: the most precise pi this process holds


def _pi_bits(w: int) -> int:
    """An integer within 2 of pi * 2^w, the bound `_by_index` assumes.

    It is the held value shifted down, when the process holds pi to w bits
    or more: a floor of x / 2^s with x within 2 of pi * 2^(w+s) is within
    1 + 2^(1-s) <= 2 of pi * 2^w.  Otherwise pi is computed afresh, to at
    least twice the held bits, so a run of rising w computes it O(log w)
    times: the Chudnovsky series summed by binary splitting, over
    math.isqrt(10005 * 4^w).
    """
    def split(a, b):
        if b - a == 1:
            if a == 0:
                return 1, 1, 13591409
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            t = p * (13591409 + 545140134 * a)
            return p, a ** 3 * 10939058860032000, -t if a & 1 else t  # 640320^3 / 24
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    if w > _PI[0]:
        top = max(w, 2 * _PI[0])
        _, q, t = split(0, top // 47 + 2)  # each term adds log2(640320^3 / 1728) > 47 bits
        _PI[:] = top, 426880 * isqrt(10005 << 2 * top) * q // t
    return _PI[1] >> (_PI[0] - w)


def _power(x: int, e: int, k: int, w: int) -> tuple[int, int]:
    """(m, s) with m * 2^s = (x * 2^e)^k, each product cut to w bits."""
    m, s = 1, 0
    for bit in bin(k)[2:]:
        m, s = m * m, 2 * s
        if bit == "1":
            m, s = m * x, s + e
        cut = m.bit_length() - w
        if cut > 0:
            m, s = m >> cut, s + cut
    return m, s


def _euler_product(s: int, w: int, chi) -> int:
    """L(s, chi) * 2^w, chi a real Dirichlet character, in fixed point: one
    factor (1 - chi(q) q^-s)^-1 per prime q <= Q, Q the least with
    Q^(s-1) (s-1) >= 2^w, so the terms k > Q of the series add less
    than 2^-w."""
    top = max(2, int(2 ** (w / (s - 1)) / (s - 1) ** (1 / (s - 1))) - 1)
    while top ** (s - 1) * (s - 1) < 1 << w:
        top += 1
    z = 1 << w
    for q in sieve_primes(PrimeRange(2, top)):
        if chi(q) > 0:
            z += z // (q ** s - 1)
        elif chi(q) < 0:
            z -= z // (q ** s + 1)
    return z


def _by_index(a: int, c: int, k: int, chi, b: int, what: str) -> int:
    """The integer V = a L(k, chi) / (c pi)^k, given V < 2^b, from integer
    fixed point at w = b + bitlen(8k) + _GUARD_BITS bits.

    Error bound, relative to V, each term a multiple of 2^-w:
    - (c pi)^k: c pi to 2^-w from `_pi_bits`, raised to k, is k 2^-w; the
      cut at step j of the t = bitlen(k) steps of `_power` loses under
      2^(1-w) and is raised to 2^(t-j) after it, under 2^t 2^(1-w) <= 4k 2^-w
      in all;
    - L(k, chi): each of the K factors loses under 2^(1-w) in a floor (the
      partial products of beta stay above 1/2), and the primes past Q under
      2 2^-w, so under (2K + 2) 2^-w; Q < k/2 for k >= INDEX_MIN, so K < k/4.
    The sum, under 6k + 2 of 2^-w with second-order terms, is below 8k 2^-w,
    so the result misses V by less than 2^(b - w) 8k <= 2^-_GUARD_BITS.  It
    is read with _CHECK_BITS + 1 fraction bits, and InternalInconsistency
    is raised unless it lies within 2^-_CHECK_BITS of an integer: exhausted
    precision is an engine fault, never a value.
    """
    w = b + (8 * k).bit_length() + _GUARD_BITS
    m, e = _power(c * _pi_bits(w), -w, k, w)
    f = _CHECK_BITS + 1
    num, shift = a * _euler_product(k, w, chi), f - w - e  # V = num 2^-w / (m 2^e)
    r = (num << shift) // m if shift >= 0 else num // (m << -shift)
    v = (r + (1 << (f - 1))) >> f
    if abs(r - (v << f)) > 1 << (f - _CHECK_BITS):
        raise InternalInconsistency(
            f"{what} by index lies {r - (v << f)}/2^{f} from the nearest integer, "
            f"not within 2^-{_CHECK_BITS}")
    return v


def bernoulli_by_index(n: int) -> Fraction:
    """B_n for even n >= INDEX_MIN with no table: |B_n| = 2 n! zeta(n) / (2 pi)^n
    over the von Staudt-Clausen denominator D, the product of the primes q
    with q - 1 | n, so |B_n| D is an integer (Fillebrown, J. Algorithms 13,
    1992)."""
    if n % 2 or n < INDEX_MIN:
        raise ValueError(f"need even n >= {INDEX_MIN}")
    den = prod(q for q in sieve_primes(PrimeRange(2, n + 1)) if n % (q - 1) == 0)
    a = 2 * factorial(n) * den
    # zeta(n) < 2 and 2.65 < log2(2 pi)
    v = _by_index(a, 2, n, lambda q: 1, (2 * a).bit_length() - n * 53 // 20, f"B_{n}")
    return Fraction(v if n % 4 == 2 else -v, den)


def euler_by_index(n: int) -> int:
    """E_n for even n >= INDEX_MIN with no table:
    |E_n| = 2^(n+2) n! beta(n+1) / pi^(n+1), beta the Dirichlet beta
    function, L(s, chi) of the nontrivial character mod 4."""
    if n % 2 or n < INDEX_MIN:
        raise ValueError(f"need even n >= {INDEX_MIN}")
    a = factorial(n) << (n + 2)
    # beta(n+1) < 1 and 1.65 < log2(pi)
    v = _by_index(a, 1, n + 1, lambda q: (q % 4 == 1) - (q % 4 == 3),
                  a.bit_length() - (n + 1) * 33 // 20, f"E_{n}")
    return v if n % 4 == 0 else -v


# -- the readers: the index alone picks the route ----------------------------

_DEFAULT_CACHE = SpecialCache()


def bernoulli_exact(n: int, cache: SpecialCache | None = None) -> Fraction:
    """B_n under the B_1 = -1/2 convention: by index from INDEX_MIN up,
    whatever `cache` holds, and off the table of `cache` below it.  A miss
    builds the table once, to INDEX_MIN - 1, so rising reads build it at
    most once."""
    if n < 0:
        raise ValueError(f"no B_{n}: the index is negative")
    if n >= INDEX_MIN:
        return Fraction(0) if n % 2 else bernoulli_by_index(n)
    cache = cache if cache is not None else _DEFAULT_CACHE
    if n not in cache.bernoulli:
        cache.ensure_bernoulli(INDEX_MIN - 1)
    return cache.bernoulli[n]


def euler_exact(n: int, cache: SpecialCache | None = None) -> int:
    """Euler number E_n (sec x = sum (-1)^(n/2) E_n x^n/n!), 0 at odd n,
    by the route `bernoulli_exact` takes at n."""
    if n < 0:
        raise ValueError(f"no E_{n}: the index is negative")
    if n % 2:
        return 0
    if n >= INDEX_MIN:
        return euler_by_index(n)
    cache = cache if cache is not None else _DEFAULT_CACHE
    if n not in cache.euler:
        cache.ensure_euler(INDEX_MIN - 1)
    return cache.euler[n]


def harmonic_exact(n: int, order: int = 1) -> Fraction:
    """H_n^(m) = sum_{0<k<=n} 1/k^m, exactly: row h{m} of SUMS summed by
    binary splitting, and 0 at n = 0."""
    name = f"h{order}"
    if name not in SUMS:
        raise ValueError(f"no harmonic row of order {order}")
    return row_sum(name, 0, 1, n) if n else Fraction(0)


def harmonic_gap_numerators(n: int) -> tuple[int, list[int]]:
    """(L, [A_1, ..., A_n]) with H(n+k) - H(n-k) = A_k / L exactly and
    L = lcm(1..2n), so every A_k is an integer.

    Each A_k adds L/(n+k) + L/(n-k+1) to the last, a window of row h1
    widened by one term at each end, in two exact divisions: their product
    (n+k)(n-k+1) divides L only when 2n+1 is prime.  At n = (p-1)/2,
    L = lcm(1..p-1) is prime to p.  L is the product of the largest power
    of each prime q that is at most 2n.
    """
    L = 1
    for q in sieve_primes(PrimeRange(0, 2 * n)):
        power = q
        while power * q <= 2 * n:
            power *= q
        L *= power
    return L, list(accumulate(L // (n + k) + L // (n - k + 1) for k in range(1, n + 1)))


@lru_cache(maxsize=4)  # both paths at one prime read B_{p-3} and B_{p-5}
def bernoulli_mod_p(m: int, p: int) -> int:
    """B_m mod p by the power-sum route, with no table: for even m with
    2 <= m <= p-3, T = sum_{0<a<p} a^m is p B_m mod p^2.  Memoized by its
    arguments, so the two paths at one prime run one sum."""
    if m % 2 or not 2 <= m <= p - 3:
        raise ValueError("need even m with 2 <= m <= p-3")
    p2 = p * p
    total = sum(pow(a, m, p2) for a in range(1, p)) % p2
    if total % p:
        raise InternalInconsistency(
            f"power sum for B_{m} mod {p} is not divisible by {p}")
    return total // p


@lru_cache(maxsize=2)  # both paths at one prime read E_{p-3}
def euler_mod_p(p: int) -> int:
    """E_{p-3} mod p by the character-sum route, with no table:
    sum_{0<a<p, a odd} chi(a) a^(p-3) = E_{p-3}/2 (mod p), chi the
    nontrivial character mod 4.  Memoized by p, as `bernoulli_mod_p`."""
    if p < 5:
        raise ValueError("need p >= 5")
    half = sum((-1) ** (a // 2) * pow(a, p - 3, p) for a in range(1, p, 2))
    return 2 * half % p


def checked_residue(what: str, p: int, route: str, fast: int, value) -> Residue:
    """The residue mod p of `value`, an int or Fraction, which must be
    `fast`, the residue the named route gave; a mismatch raises
    InternalInconsistency."""
    exact = rat_reduce_mod(value, p, 1).value
    if fast != exact:
        raise InternalInconsistency(
            f"{what} mod {p}: {route} route {fast} != exact route {exact}")
    return Residue(p, 1, fast)


def bernoulli_mod_p_fast(m: int, p: int, cache: SpecialCache | None = None) -> Residue:
    """B_m mod p by the power-sum route, compared with `bernoulli_exact`;
    the two routes must agree."""
    return checked_residue(f"B_{m}", p, "power-sum", bernoulli_mod_p(m, p),
                           bernoulli_exact(m, cache))
