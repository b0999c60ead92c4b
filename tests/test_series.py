"""Floating sanity checks of the motivating series, plus independent
cross-checks of the embedded decimal constants against classical series."""

import math

import pytest

from congrlab.errors import UnknownSeries
from congrlab.series import (
    CATALAN,
    LOG2,
    PI,
    SERIES_CATALOG,
    ZETA3,
    evaluate_series,
    run_series_suite,
)


# -- catalog behaviour --------------------------------------------------------


def test_first_term_of_inverse_central_series():
    report = evaluate_series("S-ZETA2", terms=1, tol=math.inf)
    assert report.partial == 0.5  # 1/(1^2 * C(2,1))


def test_alternating_inverse_cubes_converges_fast():
    report = evaluate_series("S-APERY3", terms=60, tol=1e-12)
    assert report.converged


def test_geometric_series_report_their_plain_partial_sum_at_few_terms():
    """S-APERY3's and S-PI2-10's terms shrink like 4^-k, so at 10 terms the
    partial sum itself is within 1e-9 and 5e-10 of the target; an average of
    the last two partial sums is about twice as far."""
    for name, bound in (("S-APERY3", 1e-9), ("S-PI2-10", 5e-10)):
        report = evaluate_series(name, terms=10, tol=math.inf)
        assert report.error < bound, (name, report.error)


def test_slow_catalan_series_converges():
    report = evaluate_series("S-4G", terms=10 ** 5, tol=1e-6)
    assert report.converged


def test_all_nine_series_meet_documented_tolerances():
    reports = run_series_suite()
    assert len(reports) == 9
    for r in reports:
        assert r.converged, (r.name, r.error, r.tolerance)
        assert r.error == abs(r.partial - r.target)


def test_geometric_rate_series_tight_at_200_terms():
    for name in ("S-ZETA2", "S-APERY3", "S-PI3", "S-PI2-10"):
        assert evaluate_series(name, terms=200, tol=1e-10).converged


def test_error_decays_with_more_terms():
    for name, spec in SERIES_CATALOG.items():
        for t in (1000, 10000):
            e1 = evaluate_series(name, terms=t, tol=math.inf).error
            e2 = evaluate_series(name, terms=2 * t, tol=math.inf).error
            assert e2 <= e1 + 1e-15, (name, t, e1, e2)


def test_unknown_series_and_bad_terms_rejected():
    with pytest.raises(UnknownSeries):
        evaluate_series("NO_SUCH")
    with pytest.raises(UnknownSeries):
        run_series_suite(["NO_SUCH"])
    with pytest.raises(ValueError):
        evaluate_series("S-ZETA2", terms=0)


# -- constant cross-checks ------------------------------------------------------
# Each embedded literal is recomputed from two independent classical series;
# none of them is a series under test above.


def _atan_series(x: float) -> float:
    t, s, k = x, 0.0, 0
    while True:
        term = t / (2 * k + 1)
        s += term if k % 2 == 0 else -term
        if abs(term) < 1e-22:
            return s
        t *= x * x
        k += 1


def test_pi_literal_two_ways():
    machin = 4 * (4 * _atan_series(1 / 5) - _atan_series(1 / 239))
    stormer = (24 * _atan_series(1 / 8) + 8 * _atan_series(1 / 57)
               + 4 * _atan_series(1 / 239))
    assert abs(PI - machin) < 5e-15
    assert abs(PI - stormer) < 5e-15
    assert PI == math.pi  # the literal rounds to the correctly-rounded double


def test_log2_literal_two_ways():
    route_a = sum(1.0 / (k * 2 ** k) for k in range(60, 0, -1))
    route_b = 2 * sum(1.0 / ((2 * k + 1) * 3 ** (2 * k + 1))
                      for k in range(25, -1, -1))  # 2 atanh(1/3)
    assert abs(LOG2 - route_a) < 5e-15
    assert abs(LOG2 - route_b) < 5e-15


def test_zeta3_literal_two_ways():
    # direct partial sum with an Euler-Maclaurin tail at N
    n = 100
    route_a = (sum(1.0 / k ** 3 for k in range(n - 1, 0, -1))
               + 1 / (2 * n ** 2) + 1 / (2 * n ** 3) + 1 / (4 * n ** 4)
               - 1 / (12 * n ** 6))
    # alternating eta(3) with averaged partial sums; zeta(3) = (4/3) eta(3)
    total = prev = 0.0
    for k in range(1, 10 ** 4 + 1):
        prev = total
        total += (-1) ** (k - 1) / k ** 3
    route_b = (4 / 3) * 0.5 * (total + prev)
    assert abs(ZETA3 - route_a) < 5e-15
    assert abs(ZETA3 - route_b) < 2e-14


def test_catalan_literal_two_ways():
    # geometric-rate form: (pi/8) ln(2+sqrt(3)) + (3/8) sum 1/((2k+1)^2 C(2k,k))
    c, acc = 1.0, 1.0
    for k in range(1, 40):
        c = c * 2 * (2 * k - 1) / k
        acc += 1.0 / ((2 * k + 1) ** 2 * c)
    route_a = (math.pi / 8) * math.log(2 + math.sqrt(3)) + (3 / 8) * acc
    # defining alternating series with a Boole-summation tail at N
    n = 100
    partial = sum((-1) ** k / (2 * k + 1) ** 2 for k in range(n))
    f = (2 * n + 1.0) ** -2
    f1 = -4 * (2 * n + 1.0) ** -3
    f3 = -192 * (2 * n + 1.0) ** -5
    route_b = partial + (-1) ** n * (f / 2 - f1 / 4 + f3 / 48)
    assert abs(CATALAN - route_a) < 5e-15
    assert abs(CATALAN - route_b) < 2e-14
