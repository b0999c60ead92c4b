"""Residue, rational and truncated p-adic arithmetic: frozen examples plus
property tests, including the agreement of the two reduction paths."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab.arith import (
    ExactColumn,
    PAdic,
    PadicColumn,
    PrimeRange,
    Residue,
    rat_reduce_mod,
    reduce_mod,
    sieve_primes,
    vp_int,
    vp_rational,
)
from congrlab.errors import NegativeValuation, PrecisionExhausted

SMALL_PRIMES = [5, 7, 11, 13]


# -- valuations ----------------------------------------------------------


def test_vp_int_examples():
    assert vp_int(7, 7) == 1
    assert vp_int(-98, 7) == 2
    assert vp_int(3, 7) == 0
    with pytest.raises(ValueError):
        vp_int(0, 7)


def test_vp_rational_examples():
    assert vp_rational(Fraction(49, 3), 7) == 2
    assert vp_rational(Fraction(1, 7), 7) == -1
    assert vp_rational(Fraction(6, 5), 5) == -1


# -- residues -------------------------------------------------------------


def test_rat_reduce_mod_examples():
    assert rat_reduce_mod(Fraction(1, 6), 7, 1).value == 6
    # -1/30 mod 7: -(30^-1) = -(2^-1) = -4 = 3
    assert rat_reduce_mod(Fraction(-1, 30), 7, 1).value == 3
    with pytest.raises(NegativeValuation):
        rat_reduce_mod(Fraction(1, 7), 7, 1)


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 6),
       st.fractions(max_denominator=10 ** 6) | st.integers(-10 ** 9, 10 ** 9))
def test_int_residue_core_is_the_residue_value(p, e, r):
    """The int core the exact path reduces with gives rat_reduce_mod's
    value, for a Fraction or an int, and refuses p in a denominator alike."""
    try:
        expected = rat_reduce_mod(r, p, e).value
    except NegativeValuation:
        with pytest.raises(NegativeValuation):
            reduce_mod(r, p, e)
    else:
        assert reduce_mod(r, p, e) == expected


def test_residue_range_checked():
    with pytest.raises(ValueError):
        Residue(7, 1, 7)


# -- truncated p-adic numbers ----------------------------------------------


def test_padic_from_rat_examples():
    x = PAdic.from_rational(Fraction(49, 3), 7, 2)
    assert (x.val, x.unit) == (2, 33)  # 3 * 33 = 99 = 1 mod 49

    z = PAdic.from_rational(0, 7, 3)
    assert z.is_zero_marker and z.val == 3  # zero is known only mod p^prec

    y = PAdic.from_rational(Fraction(1, 7), 7, 2)
    assert (y.val, y.unit) == (-1, 1)


def test_padic_add_exact_cancelation_gives_marker():
    p = 7
    a = PAdic.from_rational(1, p, 3)
    b = PAdic.from_rational(7 ** 3 - 1, p, 3)
    s = a + b
    assert s.is_zero_marker
    assert s.val >= 3  # only a valuation bound survives


def test_padic_mul_example():
    a = PAdic(5, 1, 2, 2)
    b = PAdic(5, 1, 3, 2)
    c = a * b
    assert (c.val, c.unit) == (2, 6)


def test_padic_marker_refuses_inversion_and_deep_residues():
    m = PAdic.zero_marker(7, 2)
    assert m.residue(2) == 0
    with pytest.raises(PrecisionExhausted):
        m.residue(3)  # only valuation >= 2 is guaranteed


def test_padic_marker_arithmetic_keeps_a_finite_bound():
    m = PAdic.zero_marker(7, 2)
    x = PAdic.from_rational(49 * 5, 7, 3)
    for prod in (m * x, x * m, m * m):
        assert prod.is_zero_marker and prod.val == 4  # the two bounds add
    shifted = m.shift(1)
    assert shifted.is_zero_marker and shifted.val == 1
    assert -m is m


def test_padic_operands_must_be_padics_of_one_prime():
    x = PAdic.from_rational(1, 7, 3)
    for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: x * Fraction(1, 2),
               lambda: x / 2, lambda: 2 / x):
        with pytest.raises(TypeError):
            op()  # an int is not lifted at a guessed precision
    with pytest.raises(ValueError):
        x + PAdic.from_rational(1, 5, 3)
    with pytest.raises(ValueError):
        x ** -1


@pytest.mark.parametrize("x", [PAdic.from_rational(Fraction(14, 3), 7, 3),
                               PAdic.from_rational(Fraction(5, 49), 7, 2),
                               PAdic.zero_marker(7, 2)])
def test_padic_power_is_the_chained_product(x):
    """x^k has the valuation, unit and precision of x * ... * x, k factors,
    and x^0 is 1 lifted at x's precision, at least 1; a zero marker's
    bound grows k-fold."""
    product = PAdic.from_rational(1, 7, max(x.prec, 1))
    for k in range(5):
        power = x ** k
        assert (power.val, power.unit, power.prec) == (product.val, product.unit,
                                                       product.prec), k
        product = x if k == 0 else product * x


def test_padic_residue_errors():
    with pytest.raises(NegativeValuation):
        PAdic.from_rational(Fraction(1, 7), 7, 3).residue(1)
    with pytest.raises(PrecisionExhausted):
        PAdic.from_rational(3, 7, 2).residue(5)


def test_padic_shift_divides_by_p_power():
    x = PAdic.from_rational(49 * 5, 7, 3)
    y = x.shift(2)
    assert y.residue(3) == 5


rationals = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6), max_denominator=10 ** 4
)


@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 6), rationals)
def test_two_reduction_paths_agree(p, n_prec, r):
    """rat_reduce_mod and the residue extracted from the p-adic path match."""
    if r != 0 and vp_rational(r, p) < 0:
        r = r * p ** (-vp_rational(r, p))
    x = PAdic.from_rational(r, p, n_prec)
    for e in range(1, n_prec + 1):
        assert x.residue(e) == rat_reduce_mod(r, p, e).value


@given(st.sampled_from(SMALL_PRIMES), rationals, rationals)
def test_padic_product_roundtrip(p, a, b):
    """from_rat(a) * from_rat(b) extracts the same residues as from_rat(a*b)."""
    prec = 5
    prod = PAdic.from_rational(a, p, prec) * PAdic.from_rational(b, p, prec)
    direct = PAdic.from_rational(a * b, p, prec)
    if a == 0 or b == 0:
        assert prod.is_zero_marker
        return
    lo = min(0, prod.val)
    for e in range(max(lo, 0), prod._abs_prec() + 1):
        if e >= 0 and prod.val >= 0:
            assert prod.residue(e) == direct.residue(e)


@given(st.sampled_from(SMALL_PRIMES), rationals)
def test_padic_sum_with_negation_never_fabricates_digits(p, r):
    x = PAdic.from_rational(r, p, 4)
    s = x + (-x)
    assert s.is_zero_marker
    if r != 0:
        assert s.val == x._abs_prec()  # bound equals the lost absolute precision


@given(st.sampled_from(SMALL_PRIMES), st.integers(-10 ** 6, 10 ** 6),
       st.integers(-10 ** 4, 10 ** 4).filter(bool), st.integers(0, 3), st.integers(0, 3))
def test_pair_lift_equals_the_lift_of_the_reduced_fraction(p, a, b, i, j):
    """Lifting the integer pair (a, b) as it is gives the PAdic of a/b,
    whatever factors of p and signs the pair shares."""
    a, b = a * p ** i, b * p ** j
    x = PAdic.from_rational(a, p, 4, b)
    y = PAdic.from_rational(Fraction(a, b), p, 4)
    assert (x.val, x.unit, x.prec) == (y.val, y.unit, y.prec)


def test_pair_lift_examples():
    x = PAdic.from_rational(-98, 7, 3, -21)  # 14/3: shared 7, negative b
    assert (x.val, x.unit) == (1, 2 * pow(3, -1, 7 ** 3) % 7 ** 3)
    assert PAdic.from_rational(Fraction(1, 2), 7, 3, 7).val == -1
    assert PAdic.from_rational(0, 7, 3, 5).is_zero_marker
    with pytest.raises(ZeroDivisionError):
        PAdic.from_rational(1, 7, 3, 0)


def test_residue_lift_keeps_its_absolute_precision():
    """A value known mod p^e enters with e - v relative digits, never more."""
    x = PAdic.from_residue(98, 7, 3)  # 2 * 7^2 mod 7^3
    assert (x.val, x.unit, x.prec, x._abs_prec()) == (2, 2, 1, 3)
    y = PAdic.from_residue(-1, 7, 2)
    assert (y.val, y.unit, y.prec) == (0, 48, 2)
    for zero in (0, 343):
        z = PAdic.from_residue(zero, 7, 3)
        assert z.is_zero_marker and z.val == 3


@settings(max_examples=300)
@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 6),
       st.lists(st.tuples(st.integers(-3, 8), st.integers(1, 10 ** 6)), min_size=1,
                max_size=12))
def test_sum_of_terms_equals_adding_them_to_a_zero_marker(p, prec, terms):
    """sum_terms keeps the precision of sequential addition from O(p^prec),
    min(0, min v_k) + prec, and its value, digit for digit."""
    mod = p ** prec
    terms = [(v, u % mod) for v, u in terms if u % p]
    if not terms:
        return
    expected = PAdic.zero_marker(p, prec)
    for v, u in terms:
        expected = expected + PAdic(p, v, u, prec)
    vals, units = zip(*terms)
    got = PAdic.sum_terms(p, vals, units, prec)
    assert (got.val, got.unit, got.prec) == (expected.val, expected.unit, expected.prec)
    assert got._abs_prec() == min(0, min(vals)) + prec


@settings(max_examples=300)
@given(st.sampled_from([3, *SMALL_PRIMES, 61, 251]), st.integers(1, 6), st.integers(-3, 8),
       st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=12))
def test_sum_of_terms_of_one_valuation_equals_adding_them(p, prec, v, units):
    """Terms of one valuation v, negative ones included, add as their units
    do: the same digits and precision as sequential addition."""
    mod = p ** prec
    units = [u % mod for u in units if u % p]
    if not units:
        return
    expected = PAdic.zero_marker(p, prec)
    for u in units:
        expected = expected + PAdic(p, v, u, prec)
    got = PAdic.sum_terms(p, [v] * len(units), units, prec)
    assert (got.val, got.unit, got.prec) == (expected.val, expected.unit, expected.prec)


# -- residue columns ------------------------------------------------------------

padic_parts = st.one_of(
    st.tuples(st.integers(-2, 6), st.none(), st.just(0)),  # a zero marker
    st.tuples(st.integers(-2, 6), st.integers(1, 10 ** 6), st.integers(1, 5)))


def _padic(p, parts) -> PAdic:
    v, u, r = parts
    return PAdic(p, v, None if u is None else u % p ** r, r)


def _outcome(read):
    """read() or the type and message of what it raised."""
    try:
        return read()
    except (NegativeValuation, PrecisionExhausted) as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_padic_column_operations_are_padic_ones_value_by_value(p, data):
    """Each operation of a p-adic column, and each residue it reads or error
    it raises, is the one PAdic gives at every k."""
    size = data.draw(st.integers(1, 6))
    x, y = ([_padic(p, data.draw(padic_parts)) for _ in range(size)] for _ in range(2))
    c = _padic(p, data.draw(padic_parts))
    ks = range(3, 3 + size)

    def column(values):
        return PadicColumn(p, ks, [v.val for v in values], [v.unit for v in values],
                           [v.prec for v in values])

    flip = lambda k: k % 2  # noqa: E731
    cases = [
        (column(x) * column(y), [a * b for a, b in zip(x, y)]),
        (column(x) * c, [a * c for a in x]),
        (column(x) + c, [a + c for a in x]),
        (column(x) + column(y), [a + b for a, b in zip(x, y)]),
        (column(x).negate_where(flip), [-a if flip(k) else a for k, a in zip(ks, x)]),
        (column(x)[1:], x[1:]),
    ]
    for got, expected in cases:
        assert (got.vals, got.units, got.precs) == (
            [v.val for v in expected], [v.unit for v in expected], [v.prec for v in expected])
        for e in range(1, 6):
            one_by_one = [_outcome(lambda v=v: v.residue(e)) for v in expected]
            errors = [r for r in one_by_one if isinstance(r, tuple)]
            assert _outcome(lambda: got.residues(e)) == (errors[0] if errors else one_by_one)


def test_padic_column_residues_raise_as_padic_residue_does():
    """A value of negative valuation, one known to too few digits, and a zero
    marker of too low a bound raise PAdic.residue's error and message."""
    for parts, error in (((-1, 2, 5), NegativeValuation), ((0, 2, 1), PrecisionExhausted),
                         ((1, None, 0), PrecisionExhausted)):
        column = PadicColumn(7, range(1, 4), [0, parts[0], 0], [1, parts[1], 3],
                             [5, parts[2], 5])
        with pytest.raises(error) as padic:
            PAdic(7, *parts).residue(2)
        with pytest.raises(error) as raised:
            column.residues(2)
        assert str(raised.value) == str(padic.value)


def test_padic_column_operands_share_a_prime_and_k():
    column = PadicColumn(7, range(1, 3), [0, 0], [1, 2], [3, 3])
    with pytest.raises(TypeError):
        column * 2  # an int is not lifted at a guessed precision
    with pytest.raises(TypeError):
        column * PAdic.from_rational(2, 5, 3)
    with pytest.raises(ValueError):
        column * PadicColumn(7, range(0, 2), [0, 0], [1, 2], [3, 3])


@settings(max_examples=300)
@given(st.sampled_from(SMALL_PRIMES), st.integers(1, 5), st.data())
def test_exact_column_operations_are_fraction_ones(p, e, data):
    """An exact column's values, integers over one denominator prime to p,
    and its operations give at every k the residue of the same Fraction
    arithmetic."""
    size = data.draw(st.integers(1, 6))
    integers = st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=size, max_size=size)
    denominators = st.integers(1, 10 ** 12).filter(lambda d: d % p)
    constants = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), denominators)
    x, y = data.draw(integers), data.draw(integers)
    dx, dy, c = data.draw(denominators), data.draw(denominators), data.draw(constants)
    ks = range(size)
    xs, ys = [Fraction(t, dx) for t in x], [Fraction(t, dy) for t in y]
    col_x, col_y = ExactColumn(p, ks, (x,), 1, dx), ExactColumn(p, ks, (y,), 1, dy)
    flip = lambda k: k % 3 == 1  # noqa: E731
    cases = [
        (ExactColumn(p, ks, (), c.numerator, c.denominator), [c] * size),
        (col_x, xs),
        (col_x * col_y, [a * b for a, b in zip(xs, ys)]),
        (col_x * c, [a * c for a in xs]),
        ((col_x * col_y) * c + c, [a * b * c + c for a, b in zip(xs, ys)]),
        (col_x.negate_where(flip), [-a if flip(k) else a for k, a in zip(ks, xs)]),
        (ExactColumn(p, ks, (), c.numerator, c.denominator).negate_where(flip) + c,
         [(-c if flip(k) else c) + c for k in ks]),
        (col_x[1:] * col_y[1:], [a * b for a, b in zip(xs[1:], ys[1:])]),
    ]
    for got, expected in cases:
        assert got.residues(e) == [reduce_mod(r, p, e) for r in expected]


# -- primes ------------------------------------------------------------------


def test_sieve_examples():
    assert sieve_primes(PrimeRange(2, 12)) == [2, 3, 5, 7, 11]
    assert sieve_primes(PrimeRange(90, 96)) == []
    assert sieve_primes(PrimeRange(7, 7)) == [7]


def test_prime_range_rejects_empty():
    with pytest.raises(ValueError):
        PrimeRange(5, 3)
