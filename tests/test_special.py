"""Bernoulli/Euler/harmonic numbers: frozen values, classical sanity
theorems, the defining recurrences, and the independent mod-p cross-checks."""

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm

import pytest

from congrlab import special
from congrlab.arith import PAdic, PrimeRange, rat_reduce_mod, sieve_primes, vp_rational
from congrlab.congruences import PADIC_PREC, PadicContext, check_ids, run_suite
from congrlab.errors import InternalInconsistency
from congrlab.special import (
    SpecialCache,
    bernoulli_exact,
    bernoulli_mod_p,
    bernoulli_mod_p_fast,
    euler_exact,
    euler_mod_p,
    harmonic_exact,
    harmonic_gap_numerators,
)
from congrlab.sums import FactorialTable, row_sum


# -- Bernoulli numbers -------------------------------------------------------


def test_bernoulli_frozen_values():
    assert bernoulli_exact(0) == 1
    assert bernoulli_exact(1) == Fraction(-1, 2)
    assert bernoulli_exact(2) == Fraction(1, 6)
    assert bernoulli_exact(4) == Fraction(-1, 30)
    assert bernoulli_exact(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for n in range(3, 61, 2):
        assert bernoulli_exact(n) == 0


def test_von_staudt_clausen_denominators_exact():
    for n in range(2, 61, 2):
        den = 1
        for q in sieve_primes(PrimeRange(2, n + 1)):
            if n % (q - 1) == 0:
                den *= q
        assert bernoulli_exact(n).denominator == den


def test_b_p_minus_3_is_p_integral():
    for p in sieve_primes(PrimeRange(7, 199)):
        assert bernoulli_exact(p - 3).denominator % p != 0


def test_bernoulli_mod_p_fast_frozen_values():
    assert bernoulli_mod_p_fast(2, 7).value == rat_reduce_mod(Fraction(1, 6), 7, 1).value
    assert bernoulli_mod_p_fast(4, 11).value == rat_reduce_mod(Fraction(-1, 30), 11, 1).value
    assert bernoulli_mod_p_fast(2, 5).value == 1


def test_bernoulli_fast_agrees_with_exact_up_to_97():
    cache = SpecialCache()
    for p in sieve_primes(PrimeRange(5, 97)):
        for m in range(2, p - 2, 2):
            # the power-sum route raises InternalInconsistency on any mismatch
            got = bernoulli_mod_p_fast(m, p, cache).value
            assert got == rat_reduce_mod(bernoulli_exact(m, cache), p, 1).value


def test_bernoulli_mod_p_fast_domain():
    with pytest.raises(ValueError):
        bernoulli_mod_p_fast(3, 11)
    with pytest.raises(ValueError):
        bernoulli_mod_p_fast(10, 11)


def test_routes_read_no_table(monkeypatch):
    """The pure routes give the residues of the tables without reading them."""
    expected = {p: ([rat_reduce_mod(bernoulli_exact(m), p, 1).value
                     for m in range(2, p - 2, 2)], euler_exact(p - 3) % p)
                for p in sieve_primes(PrimeRange(5, 61))}

    def refuse(*args):
        raise AssertionError("a route read a table")

    for name in ("bernoulli_exact", "euler_exact"):
        monkeypatch.setattr(special, name, refuse)
    for p, (bern, euler) in expected.items():
        assert [bernoulli_mod_p(m, p) for m in range(2, p - 2, 2)] == bern
        assert euler_mod_p(p) == euler


def test_both_paths_at_one_prime_run_each_power_sum_once(monkeypatch):
    """Every check at p = 13 reads B_10, B_8 and E_10 mod 13 on both paths,
    and each of the three sums runs once."""
    runs = Counter()

    def counting_pow(a, e, m):
        runs[e, m] += 1
        return pow(a, e, m)

    monkeypatch.setattr(special, "pow", counting_pow, raising=False)
    special.bernoulli_mod_p.cache_clear()
    special.euler_mod_p.cache_clear()
    results, _ = run_suite(check_ids("all"), [13], padic_limit=13)
    assert all(r.path_agreement for r in results if r.applicable)
    assert runs == {(10, 169): 12, (8, 169): 12, (10, 13): 6}


# -- Euler numbers ------------------------------------------------------------


def test_euler_frozen_values():
    assert euler_exact(0) == 1
    assert euler_exact(2) == -1
    assert euler_exact(4) == 5
    assert euler_exact(6) == -61
    assert euler_exact(10) == -50521


def test_euler_odd_indices_vanish():
    for n in range(1, 31, 2):
        assert euler_exact(n) == 0


def test_euler_mod_p_agrees_with_exact_up_to_199():
    for p in sieve_primes(PrimeRange(7, 199)):
        assert euler_mod_p(p) == euler_exact(p - 3) % p


def test_euler_mod_p_domain():
    with pytest.raises(ValueError):
        euler_mod_p(3)


def test_euler_are_odd_integers_at_even_index():
    for n in range(0, 41, 2):
        assert isinstance(euler_exact(n), int)
        assert euler_exact(n) % 2 == 1


# -- defining recurrences -----------------------------------------------------------


def test_tables_satisfy_defining_recurrences_to_300():
    cache = SpecialCache()
    cache.ensure_bernoulli(300)
    cache.ensure_euler(600)
    b, e = cache.bernoulli, cache.euler
    for m in range(1, 301):
        assert sum(comb(m + 1, j) * b[j] for j in range(m + 1)) == 0
        assert sum(comb(2 * m, 2 * k) * e[2 * k] for k in range(m + 1)) == 0


# -- special numbers by index ------------------------------------------------------


@pytest.fixture(scope="module")
def tables_to_2008():
    cache = SpecialCache()
    cache.ensure_bernoulli(2008)
    cache.ensure_euler(2008)
    return cache


def test_index_route_equals_the_triangles(tables_to_2008):
    """At every even n from INDEX_MIN to 600, and at every index p - 3 and
    p - 5 the large-prime windows and 1999..2011 read."""
    indices = set(range(special.INDEX_MIN, 601, 2))
    for lo, hi in ((997, 1013), (1009, 1019), (1999, 2011)):
        indices |= {i for p in sieve_primes(PrimeRange(lo, hi)) for i in (p - 3, p - 5)}
    for n in sorted(indices):
        assert special.bernoulli_by_index(n) == tables_to_2008.bernoulli[n], n
        assert special.euler_by_index(n) == tables_to_2008.euler[n], n


def test_index_route_domain():
    for n in (special.INDEX_MIN - 2, special.INDEX_MIN + 1):
        for route in (special.bernoulli_by_index, special.euler_by_index):
            with pytest.raises(ValueError):
                route(n)


def test_a_negative_index_is_refused():
    for n in (-1, -2):
        for reader in (bernoulli_exact, euler_exact):
            with pytest.raises(ValueError, match=f"_{n}: the index is negative"):
                reader(n)


def test_rising_reads_build_each_triangle_once(monkeypatch):
    """B_{p-3} and E_{p-3} read over the primes 7..503 in rising order from
    one cache build each triangle once, to INDEX_MIN - 1, and come by index
    at every p - 3 from INDEX_MIN up."""
    calls = []
    for name in ("_tangent_numbers", "_secant_numbers", "bernoulli_by_index", "euler_by_index"):
        route = getattr(special, name)
        monkeypatch.setattr(special, name, lambda n, name=name, route=route:
                            calls.append((name, n)) or route(n))
    cache, primes = SpecialCache(), sieve_primes(PrimeRange(7, 503))
    for p in primes:
        bernoulli_exact(p - 3, cache)
        euler_exact(p - 3, cache)
    half = (special.INDEX_MIN - 1) // 2
    assert calls == [("_tangent_numbers", half), ("_secant_numbers", half)] + [
        (name, p - 3) for p in primes if p - 3 >= special.INDEX_MIN
        for name in ("bernoulli_by_index", "euler_by_index")]


@pytest.mark.parametrize("n", [60, 98, 994, 1006])
def test_index_route_with_too_few_guard_bits_raises(monkeypatch, n):
    """48 working bits short of the default, where the error bound allows a
    miss of up to 2^24, each result lands within 2^-8 of no integer: an
    engine fault, never a value."""
    monkeypatch.setattr(special, "_GUARD_BITS", -24)
    for route in (special.bernoulli_by_index, special.euler_by_index):
        with pytest.raises(InternalInconsistency, match="by index"):
            route(n)


def test_held_pi_stays_within_2_of_pi(monkeypatch):
    """`_pi_bits(w)` shifts pi down from the most precise value the process
    holds.  Asked at rising, falling and repeated w, each value is within 2
    of pi * 2^w, read from a fresh Chudnovsky value 64 bits more precise,
    and a run of rising w computes pi once per doubling."""
    widths = (100, 3000, 3001, 50, 3001, 9000, 7, 9000, 8999, 12000)

    def fresh(w):
        monkeypatch.setattr(special, "_PI", [0, 0])
        return special._pi_bits(w)

    reference = {w: fresh(w + 64) for w in set(widths)}
    monkeypatch.setattr(special, "_PI", [0, 0])
    for w in widths:
        assert abs((special._pi_bits(w) << 64) - reference[w]) <= (2 << 64) + 2, w

    monkeypatch.setattr(special, "_PI", [0, 0])
    held = set()
    for w in range(1000, 4000, 7):
        special._pi_bits(w)
        held.add(special._PI[0])
    assert held == {1000, 2000, 4000}


# -- harmonic numbers ----------------------------------------------------------


def test_harmonic_frozen_values():
    assert harmonic_exact(0, 1) == 0
    assert harmonic_exact(3, 1) == Fraction(11, 6)
    assert harmonic_exact(2, 2) == Fraction(5, 4)


def test_harmonic_exact_matches_the_lcm_formula():
    """Over L = lcm(1..n)^m every 1/k^m is the integer L/k^m, so one
    reduction gives H_n^(m): an oracle for the rows h1-h3, which have no
    other order."""
    for m in (1, 2, 3):
        for n in range(201):
            L = lcm(*range(1, n + 1)) ** m
            assert harmonic_exact(n, m) == Fraction(sum(L // k ** m for k in range(1, n + 1)), L)
    for m in (0, 4):
        with pytest.raises(ValueError):
            harmonic_exact(5, m)


def test_harmonic_telescopes():
    prev = Fraction(0)
    for n in range(1, 501):
        h = prev + Fraction(1, n)
        assert harmonic_exact(n, 1) - harmonic_exact(n - 1, 1) == Fraction(1, n)
        assert harmonic_exact(n, 1) == h
        prev = h


def _gap(n, k):
    return harmonic_exact(n + k) - harmonic_exact(n - k)


def test_harmonic_gaps_match_exact_differences():
    """The gaps as integers over lcm(1..2n), at every n to 60, composite
    2n + 1 included."""
    for n in range(1, 61):
        L, nums = harmonic_gap_numerators(n)
        assert [Fraction(a, L) for a in nums] == [_gap(n, k) for k in range(1, n + 1)]
    assert harmonic_gap_numerators(0) == (1, [])


def test_harmonic_gap_denominator_is_the_lcm():
    """L is built from prime powers, and is lcm(1..2n) for every n <= 300."""
    for n in range(301):
        assert harmonic_gap_numerators(n)[0] == lcm(*range(1, 2 * n + 1))


@pytest.mark.parametrize("p", sieve_primes(PrimeRange(5, 61)) + [149, 241, 1093, 1999])
def test_padic_harmonic_gaps_match_exact_residues(p):
    """The p-adic context reads each gap H(n+k) - H(n-k), n = (p-1)/2, as a
    window of the units 1/j of the h1 halves 1..n and n+1..p-1 that its
    harmonic sums read, and reads no other row; mod p^PADIC_PREC each gap is
    the exact difference.  p divides E_{p-3} at 149 and 241, and 1093 is a
    Wieferich prime."""
    ctx, n = PadicContext(p), (p - 1) // 2
    gaps = ctx.gaps()
    assert list(ctx.memo) == [("F",), ("T", "h1", 1, n), ("T", "h1", n + 1, p - 1), ("G",)]
    # H_j for j <= 2n, one 1/j at a time: differences of 2n calls of
    # harmonic_exact would take seconds at 1999
    h = list(accumulate((Fraction(1, j) for j in range(1, 2 * n + 1)), initial=Fraction(0)))
    assert h[-1] == harmonic_exact(2 * n)
    assert gaps.residues(PADIC_PREC) == [
        rat_reduce_mod(h[n + k] - h[n - k], p, PADIC_PREC).value for k in range(1, n + 1)]


@pytest.mark.parametrize("p", sieve_primes(PrimeRange(3, 61)))
def test_harmonic_residues_match_exact_ones(p):
    """Rows h1-h3 read as p-adic digits off the factorial tables and added by
    `PAdic.sum_terms` give the residue mod p^5 of the exact row sum, for
    every 0 < n < p."""
    table = FactorialTable(p, 5)
    for m in (1, 2, 3):
        for n in range(1, p):
            exact = rat_reduce_mod(row_sum(f"h{m}", 0, 1, n), p, 5).value
            padic = PAdic.sum_terms(p, *table.read(f"h{m}", 1, n), 5)
            assert padic.residue(5) == exact, (n, m)


def test_wolstenholme():
    for p in sieve_primes(PrimeRange(5, 199)):
        assert vp_rational(harmonic_exact(p - 1, 1), p) >= 2


def test_harmonic_numerators_reduced():
    for n in range(1, 60):
        h = harmonic_exact(n, 1)
        assert gcd(h.numerator, h.denominator) == 1 and h.denominator >= 1


# -- table growth ---------------------------------------------------------------------


def test_cache_extension_resumes_after_load():
    cache = SpecialCache()
    cache.ensure_bernoulli(10)
    cache.ensure_euler(10)
    cache.ensure_bernoulli(20)
    cache.ensure_euler(20)
    assert sorted(cache.bernoulli) == list(range(21))
    assert sorted(cache.euler) == list(range(0, 21, 2))
    assert cache.bernoulli[20] == Fraction(-174611, 330)
    assert cache.euler[20] == 370371188237525


def test_a_held_table_grows_to_the_index_asked():
    """Growing a held table from 10 to 12 holds 0..12 and no index past it,
    with the values of a fresh build."""
    cache, fresh = SpecialCache(), SpecialCache()
    cache.ensure_bernoulli(10)
    cache.ensure_euler(10)
    cache.ensure_bernoulli(12)
    cache.ensure_euler(12)
    fresh.ensure_bernoulli(12)
    fresh.ensure_euler(12)
    assert sorted(cache.bernoulli) == list(range(13))
    assert sorted(cache.euler) == list(range(0, 13, 2))
    assert (cache.bernoulli, cache.euler) == (fresh.bernoulli, fresh.euler)


def test_fresh_table_is_built_to_the_size_asked():
    cache = SpecialCache()
    cache.ensure_bernoulli(100)
    cache.ensure_euler(100)
    assert max(cache.bernoulli) == 100 and max(cache.euler) == 100
