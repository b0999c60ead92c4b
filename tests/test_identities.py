"""Finite binomial-sum identities: frozen instances, domain handling,
recurrence certificates on both sides, the induction meta-check, and one
evaluation per side and n in a run."""

from collections import Counter
from fractions import Fraction

import pytest

from congrlab import identities
from congrlab.errors import DomainError, UnknownIdentity
from congrlab.identities import (
    IDENTITY_CATALOG,
    RECURRENCES,
    check_recurrence,
    evaluate_identity,
    run_identity_suite,
)
from congrlab.report import exit_status
from congrlab.special import harmonic_exact
from congrlab.sums import SUMS


# -- frozen instances -------------------------------------------------------


FROZEN = {
    ("APERY", 1): Fraction(-1, 2),
    ("SIGMA", 1): Fraction(-3),
    ("SHIFT", 1): Fraction(23, 60),
    ("ODDSQ", 1): Fraction(7, 9),
    ("TELE1", 0): Fraction(-1),
    ("GLAISHER4", 0): Fraction(1),
    ("BBAG", 1): Fraction(2, 5),
}


@pytest.mark.parametrize("name,n", sorted(FROZEN))
def test_frozen_instances(name, n):
    case = evaluate_identity(name, n)
    assert case.lhs == case.rhs == FROZEN[(name, n)]
    assert case.passed


def test_apery_instance_consistency():
    # at n = 1 the closed side is 5*(-1/2) + 2*1 = -1/2
    case = evaluate_identity("APERY", 1)
    assert case.rhs == 5 * Fraction(-1, 2) + 2


def test_prodinger_matches_harmonic_closed_form():
    for n in range(1, 30):
        case = evaluate_identity("PRODINGER", n)
        assert case.rhs == -2 * harmonic_exact(n)
        assert case.passed


def test_sigma_lhs_equals_the_fraction_route():
    """SIGMA's lhs over one denominator equals the prodinger terms times
    H(n+k) - H(n-k) as reduced Fractions, added, for n to 60: 2n + 1 is
    composite at 4, 7, 10, ..., where (n+k)(n-k+1) need not divide L."""
    for n in range(1, 61):
        terms = [SUMS["prodinger"][0](n, k) for k in range(1, n + 1)]
        gaps = [harmonic_exact(n + k) - harmonic_exact(n - k) for k in range(1, n + 1)]
        expected = sum(t * h for t, h in zip(terms, gaps, strict=True))
        assert identities._sigma_lhs(n) == expected, n


def test_luke_small_instance():
    case = evaluate_identity("LUKE", 1)
    assert case.passed and case.lhs == Fraction(1, 1)


# -- domains ------------------------------------------------------------------


def test_domain_starts():
    assert IDENTITY_CATALOG["TELE1"][0] == 0
    assert IDENTITY_CATALOG["GLAISHER4"][0] == 0
    assert IDENTITY_CATALOG["SHIFT"][0] == 0
    for name in ("APERY", "SIGMA", "LUKE", "ODDSQ", "BBAG", "PRODINGER"):
        assert IDENTITY_CATALOG[name][0] == 1


def test_below_domain_rejected():
    with pytest.raises(DomainError):
        evaluate_identity("APERY", 0)
    with pytest.raises(DomainError):
        check_recurrence("ODDSQ-REC", 0)


def test_unknown_names_rejected():
    with pytest.raises(UnknownIdentity):
        evaluate_identity("NO_SUCH", 1)
    with pytest.raises(UnknownIdentity):
        check_recurrence("NO_SUCH-REC", 1)
    for side in ("LHS", "both"):
        with pytest.raises(ValueError, match="side"):
            check_recurrence("SHIFT-REC", 3, side=side)
    with pytest.raises(UnknownIdentity):
        run_identity_suite(["NO_SUCH"], range(1, 2))


# -- recurrence certificates ----------------------------------------------------


def test_recurrence_residuals_frozen_points():
    assert check_recurrence("APERY-REC", 1) == 0
    assert check_recurrence("SHIFT-REC", 0) == 0
    assert check_recurrence("ODDSQ-REC", 1) == 0


@pytest.mark.parametrize("rec", sorted(RECURRENCES))
def test_recurrence_annihilates_both_sides(rec):
    start = RECURRENCES[rec][1]
    for n in range(start, start + 30):
        assert check_recurrence(rec, n, side="lhs") == 0
        assert check_recurrence(rec, n, side="rhs") == 0


def test_induction_meta_check():
    """Base case + zero residuals imply the identity over the range; both the
    implication's premises and its conclusion must hold on actual runs."""
    for rec, (ident, start) in RECURRENCES.items():
        base = evaluate_identity(ident, max(start, IDENTITY_CATALOG[ident][0]))
        residuals_zero = all(check_recurrence(rec, n) == 0 for n in range(start, start + 40))
        direct_all = all(evaluate_identity(ident, n).passed
                         for n in range(max(start, IDENTITY_CATALOG[ident][0]), start + 40))
        assert base.passed and residuals_zero
        assert direct_all  # the induction conclusion agrees with direct evaluation


# -- suites ------------------------------------------------------------------------


def test_suite_all_identities_to_50():
    cases = run_identity_suite(None, range(0, 51))
    assert cases and all(c.passed and c.recurrence_residual == 0 for c in cases)


def test_suite_bbag_to_30():
    cases = run_identity_suite(["BBAG"], range(1, 31))
    assert len(cases) == 30 and all(c.passed for c in cases)


def test_suite_single_case():
    cases = run_identity_suite(["APERY"], range(1, 2))
    assert len(cases) == 1 and cases[0].passed


def test_suite_over_a_pool_matches_the_serial_suite():
    """Each identity is one task of the pool; the cases are the serial ones,
    in the same order."""
    assert run_identity_suite(None, range(0, 41), jobs=2) == run_identity_suite(None, range(0, 41))


def test_suite_skips_below_domain():
    cases = run_identity_suite(["APERY"], range(0, 3))
    assert [c.n for c in cases] == [1, 2]


def test_bbag_inner_denominators_positive():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert 4 * n ** 4 + k ** 4 > 0


# -- one evaluation per side and n ---------------------------------------------------


def test_suite_sums_each_side_once_per_n(monkeypatch):
    """ODDSQ's certificate reads n, n+1 and n+2 on both sides; the suite sums
    each side once per distinct n and the certificate reads those values."""
    start, lhs, rhs = IDENTITY_CATALOG["ODDSQ"]
    calls = {"lhs": Counter(), "rhs": Counter()}

    def counted(side, fn):
        def wrapper(n):
            calls[side][n] += 1
            return fn(n)
        return wrapper

    monkeypatch.setitem(IDENTITY_CATALOG, "ODDSQ",
                        (start, counted("lhs", lhs), counted("rhs", rhs)))
    cases = run_identity_suite(["ODDSQ"], range(1, 21))
    assert len(cases) == 20 and all(c.passed for c in cases)
    assert calls["lhs"] == calls["rhs"] == Counter(range(1, 23))


def test_suite_checks_the_certificate_on_the_rhs(monkeypatch):
    """An rhs that equals the lhs up to n = 10 and breaks the recurrence
    beyond it fails at n = 10, where the certificate reads n + 1."""
    start, lhs, rhs = IDENTITY_CATALOG["SIGMA"]
    monkeypatch.setitem(IDENTITY_CATALOG, "SIGMA",
                        (start, lhs, lambda n: rhs(n) + (n > 10)))
    cases = run_identity_suite(["SIGMA"], range(1, 11))
    assert [c.n for c in cases if not c.passed] == [10]
    assert cases[-1].lhs == cases[-1].rhs and cases[-1].recurrence_residual != 0
    assert exit_status(cases) == 1


def test_suite_reaches_the_names_the_benchmark_tracer_wraps(monkeypatch):
    """bench/tracer.py wraps evaluate_identity and check_recurrence in
    congrlab.identities and reads 0 for a name that is gone or bypassed, so
    a run must call both through the module."""
    calls = Counter()

    def counted(name):
        fn = getattr(identities, name)
        assert callable(fn)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("evaluate_identity", "check_recurrence"):
        monkeypatch.setattr(identities, name, counted(name))
    run_identity_suite(["SIGMA"], range(1, 4))
    assert calls == {"evaluate_identity": 3, "check_recurrence": 6}


def test_suite_raises_on_an_engine_fault(monkeypatch):
    """An error inside a side is an engine fault; a failed row would read as a
    counterexample to the identity."""
    start, lhs, rhs = IDENTITY_CATALOG["SIGMA"]

    def broken(n):
        if n == 3:
            raise ZeroDivisionError("injected")
        return lhs(n)

    monkeypatch.setitem(IDENTITY_CATALOG, "SIGMA", (start, broken, rhs))
    with pytest.raises(ZeroDivisionError):
        run_identity_suite(["SIGMA"], range(1, 6))
