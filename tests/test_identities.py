"""Finite binomial-sum identities: frozen instances, domain handling,
recurrence certificates on both sides, the induction meta-check, and one
evaluation per side and n in a run."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from congrlab import identities, sums
from congrlab.cli import parse_and_run
from congrlab.errors import DomainError, InternalInconsistency, UnknownIdentity
from congrlab.identities import (
    IDENTITY_CATALOG,
    RECURRENCES,
    check_recurrence,
    evaluate_identity,
    run_identity_suite,
)
from congrlab.report import exit_status
from congrlab.special import harmonic_exact
from congrlab.sums import PRIME_FREE, SUMS, row_sum


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
    """Each worker runs every identity over its own run of n; the cases are
    the serial ones, in the same order, with fewer n than workers, with one
    n, which forks nothing, with none, and with n below every domain."""
    for n_range, jobs in [(range(0, 41), 2), (range(0, 41), 3), (range(0, 2), 3),
                          (range(5, 6), 2), (range(0), 2), (range(-30, 10), 2)]:
        assert (run_identity_suite(None, n_range, jobs=jobs)
                == run_identity_suite(None, n_range)), (n_range, jobs)


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
        def wrapper(n, F):
            calls[side][n] += 1
            return fn(n, F)
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
                        (start, lhs, lambda n, F: rhs(n, F) + (n > 10)))
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

    def broken(n, F):
        if n == 3:
            raise ZeroDivisionError("injected")
        return lhs(n, F)

    monkeypatch.setitem(IDENTITY_CATALOG, "SIGMA", (start, broken, rhs))
    with pytest.raises(ZeroDivisionError):
        run_identity_suite(["SIGMA"], range(1, 6))


# -- rows whose terms do not depend on n, as running prefixes ------------------------

# (row, a, lo) of every read each identity makes off its run's cursors; the
# read at n ends at k = hi(n)
N_FREE_READS = {
    "APERY": {("alt_inv_k3", 0, 1), ("h3", 0, 1)},
    "SIGMA": {("alt_k2", 0, 1), ("h2", 0, 1)},
    "SHIFT": {("odd_recip", 0, 0)},
    "LUKE": {("odd_recip", 0, 0)},
    "ODDSQ": {("odd_recip", 0, 0)},
    "TELE1": {("sq_shifted", -1, 0)},
    "GLAISHER4": {("glaisher4", 0, 0)},
    "BBAG": set(),
    "PRODINGER": {("h1", 0, 1)},
}
N_FREE_HI = {"SHIFT": lambda n: 2 * n, "LUKE": lambda n: n - 1, "ODDSQ": lambda n: n - 1}

# the rows whose terms do not read their parameter a: one term function each
A_FREE = {*PRIME_FREE, "odd_recip", "glaisher4"}


def _prefix_reads(monkeypatch, names, n_range) -> dict:
    """{identity: {(row, a, lo, hi): value}} of every read the suite makes
    off an identity run's cursors over n_range."""
    reads, current = {}, []

    class RecordingCursor(sums.Cursor):
        def __init__(self, name, a, start):
            super().__init__(name, a, start)
            self.start = start

        def prefix(self, a, x):
            value = super().prefix(a, x)
            reads[current[-1]][self.name, a, self.start, x] = value
            return value

    monkeypatch.setattr(identities, "Cursor", RecordingCursor)
    for name in names:
        current.append(name)
        reads[name] = {}
        run_identity_suite([name], n_range)
    return reads


def test_n_free_reads_equal_row_sum_and_harmonic_exact(monkeypatch):
    """For n = 0..200 every read an identity makes off its cursors is one of
    the nine n-free reads, at each n of its domain, and equals `row_sum`
    over its range; the h reads also equal `harmonic_exact`."""
    reads = _prefix_reads(monkeypatch, IDENTITY_CATALOG, range(0, 201))
    for name, by_read in reads.items():
        assert {read[:3] for read in by_read} == N_FREE_READS[name], name
        hi = N_FREE_HI.get(name, lambda n: n)
        for row, a, lo in N_FREE_READS[name]:
            his = {read[3] for read in by_read if read[:3] == (row, a, lo)}
            assert {hi(n) for n in range(IDENTITY_CATALOG[name][0], 201)} <= his, name
        for (row, a, lo, hi), value in by_read.items():
            assert value == row_sum(row, a, lo, hi), (name, row, a, lo, hi)
            if row.startswith("h"):
                assert value == harmonic_exact(hi, int(row[1:])), (name, row, hi)


def _by_case(cases) -> dict:
    by_case = {(c.name, c.n): c for c in cases}
    assert len(by_case) == len(cases)
    return by_case


def test_suite_gives_the_same_cases_in_any_order_of_n():
    """Descending n, shuffled n and a window that starts at 150 restart the
    cursors a read falls more than one term behind, and give the cases of
    the rising run."""
    rising = _by_case(run_identity_suite(None, range(0, 201)))
    assert all(c.passed for c in rising.values())
    shuffled = list(range(0, 201))
    random.Random(2011).shuffle(shuffled)
    for n_range in (range(200, -1, -1), shuffled):
        assert _by_case(run_identity_suite(None, n_range)) == rising
    tail = {key: case for key, case in rising.items() if key[1] >= 150}
    assert _by_case(run_identity_suite(None, range(150, 201))) == tail


def test_fresh_sides_annihilate_every_certificate_to_60():
    """`check_recurrence` builds its own sides at each call, whose first read
    is at n + 1 or n + 2 and whose last, at n, is behind that."""
    for rec, (_, start) in RECURRENCES.items():
        for n in range(start, 61):
            assert check_recurrence(rec, n, side="lhs") == 0, (rec, n)
            assert check_recurrence(rec, n, side="rhs") == 0, (rec, n)


def test_each_k_of_a_row_is_folded_once_per_identity_run(monkeypatch):
    """Over n = 1..200, each identity run folds each k of a row at each term
    function at most once, the rows whose terms do not read a as one: the
    n-free rows advance one cursor over the run, and a row whose terms
    depend on n is summed once at each n."""
    folds, fold = [], sums._steps

    def splitting(name, a, t_lo, lo, hi):
        folds.append((name, None if name in A_FREE else a, range(lo + 1, hi + 1)))
        return fold(name, a, t_lo, lo, hi)

    monkeypatch.setattr(sums, "_steps", splitting)
    for name in IDENTITY_CATALOG:
        folds.clear()
        run_identity_suite([name], range(1, 201))
        folded = Counter((row, a, k) for row, a, ks in folds for k in ks)
        assert [key for key, times in folded.items() if times > 1] == [], name
        read = {(row, None if row in A_FREE else a) for row, a, _ in N_FREE_READS[name]}
        assert read <= {fold[:2] for fold in folds}, name


@pytest.mark.parametrize("name", ["SHIFT", "LUKE", "ODDSQ"])
def test_a_wrong_odd_recip_ratio_is_an_engine_fault(name, monkeypatch, capsys):
    """A wrong ratio at one k of a row read off a cursor misses the closed
    form at the advance that steps over it: `run_identity_suite` raises, and
    the command line exits 2 with no rows, never a failed identity."""
    term, ratio = SUMS["odd_recip"]

    def wrong(n, k):
        num, den = ratio(n, k)
        return (num + 1, den) if k == 37 else (num, den)

    monkeypatch.setitem(SUMS, "odd_recip", (term, wrong))
    with pytest.raises(InternalInconsistency, match="'odd_recip'"):
        run_identity_suite([name], range(1, 201))
    # one name runs in this process; two fan out, and the fault comes back
    for jobs, names in (("1", name), ("2", f"{name},BBAG")):
        code = parse_and_run(["identity", "--names", names, "--n", "1:200", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'odd_recip'" in captured.err
