"""Congruence catalog evaluation: frozen anchors, applicability, two-path
agreement, equivalence chains, valuation guarantees and suite determinism."""

import dataclasses
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congrlab import cli, congruences, identities, special, sums
from congrlab.arith import (
    Column,
    PAdic,
    PadicColumn,
    PrimeRange,
    rat_reduce_mod,
    reduce_mod,
    sieve_primes,
    vp_rational,
)
from congrlab.cli import parse_and_run
from congrlab.congruences import (
    CHECK_CATALOG,
    ExactContext,
    PadicContext,
    check_ids,
    evaluate_check,
    run_suite,
)
from congrlab.errors import InternalInconsistency, UnknownCheck
from congrlab.identities import run_identity_suite
from congrlab.report import exit_status
from congrlab.special import SpecialCache, bernoulli_exact, harmonic_exact
from congrlab.sums import (
    PRIME_FREE,
    SUMS,
    FactorialTable,
    Sweep,
    row_numerators,
    row_sum,
)


@pytest.fixture(scope="module")
def cache():
    c = SpecialCache()
    c.ensure_bernoulli(200)
    c.ensure_euler(100)
    return c


# -- frozen anchors -----------------------------------------------------------


def test_anchor_alternating_inverse_sum_at_7(cache):
    """At p = 7 both sides reduce to 1 mod 7; the exact left side is the
    three-term rational -1/2 + 1/48 - 1/540 = -1039/2160."""
    lhs = sum(Fraction((-1) ** k, k ** 3 * comb(2 * k, k)) for k in range(1, 4))
    assert lhs == Fraction(-1039, 2160)
    rhs = -2 * bernoulli_exact(4, cache)
    assert rhs == Fraction(1, 15)
    assert rat_reduce_mod(lhs, 7, 1).value == rat_reduce_mod(rhs, 7, 1).value == 1

    result = evaluate_check("T1.1-1.1", 7, cache)
    assert result.passed and result.lhs == result.rhs == 1


def test_central_sum_mod_p3_at_7(cache):
    result = evaluate_check("T1.2-1.7", 7, cache)
    assert result.passed and result.m == 3
    assert result.lhs == result.rhs


def test_harmonic_bernoulli_link_at_5(cache):
    """H_2 - C(4,2)^2/16^2... family anchor: the mod-p^4 statement at p = 5,
    with the defect -18125/72 divisible by 5^4."""
    result = evaluate_check("L2.2-2.3", 5, cache)
    assert result.passed and result.m == 4
    defect = Fraction(6) - 256 - Fraction(125, 12) * bernoulli_exact(2, cache)
    assert defect == Fraction(-18125, 72)
    assert vp_rational(defect, 5) >= 4


def test_inapplicable_prime_is_not_a_failure(cache):
    result = evaluate_check("T1.1-1.1", 5, cache)
    assert not result.applicable
    assert result.passed is None and result.lhs is None
    assert "inapplicable" in result.note
    assert exit_status([result]) == 0


def test_unknown_check_rejected(cache):
    with pytest.raises(UnknownCheck):
        evaluate_check("NO_SUCH", 7, cache)
    with pytest.raises(UnknownCheck):
        run_suite(["NO_SUCH"], [7], cache)
    with pytest.raises(UnknownCheck):
        check_ids("T1.1-1.1,NO_SUCH")


@pytest.mark.parametrize("check_id, p", [("X-S11b-a", 15), ("T1.1-1.1", 9), ("PH3", 9),
                                         ("PH3", 1)])
def test_a_p_that_is_not_prime_raises_before_any_context(check_id, p, monkeypatch):
    """A p that is not prime is bad input, not a prime where a statement
    fails.  Unchecked, X-S11b-a at 15 reads a side with 15 in its denominator
    as a failed proven row, T1.1-1.1 at 9 raises an engine fault, PH3 at 9 a
    bare ValueError from pow, and PH3 at 1 is inapplicable.  Each raises
    ValueError naming p, from `evaluate_check` and from `run_suite`, before
    any context is built."""
    def refuse(*args):
        raise AssertionError(f"a context was built at {args[0]}")

    monkeypatch.setattr(congruences, "ExactContext", refuse)
    monkeypatch.setattr(congruences, "PadicContext", refuse)
    with pytest.raises(ValueError, match=f"p={p} is not prime"):
        evaluate_check(check_id, p)
    with pytest.raises(ValueError, match=f"p={p} is not prime"):
        run_suite([check_id], [7, p], padic_limit=p)


# -- selectors and catalog hygiene ----------------------------------------------


def test_check_id_selectors():
    assert check_ids("all") == list(CHECK_CATALOG)
    proven = check_ids("proven")
    conjectural = check_ids("conjectural")
    exploratory = check_ids("exploratory")
    assert set(proven) | set(conjectural) | set(exploratory) == set(CHECK_CATALOG)
    assert not set(proven) & set(conjectural)
    assert check_ids(" T1.1-1.1 , T1.2-1.7 ") == ["T1.1-1.1", "T1.2-1.7"]


def test_catalog_metadata_sane():
    for spec in CHECK_CATALOG.values():
        assert spec.m >= 1
        assert spec.min_prime in (3, 5, 7)
        assert spec.status in ("proven", "conjectural", "exploratory")
        assert spec.shift >= 0


# -- statements as text rows -----------------------------------------------------

PER_K_CHECKS = ("L2.1a", "L2.1b", "PS11c-3.2")


def _value(x):
    """A side's value, comparable with ==: a Fraction, or a PAdic's digits."""
    return x if isinstance(x, Fraction) else (x.val, x.unit, x.prec)


@pytest.mark.parametrize("p", [7, 61])
def test_every_scalar_row_resolves_on_both_contexts(p, cache):
    scalar = [spec for spec in CHECK_CATALOG.values() if spec.id not in PER_K_CHECKS]
    assert len(scalar) == 47
    for ctx in (ExactContext(p, cache), PadicContext(p)):
        for spec in scalar:
            assert not any(isinstance(side, Column) for side in spec.sides(ctx)), spec.id


@pytest.mark.parametrize("row, message", [
    ("hx[1,n]", "unknown row 'hx' in 'hx[1,n]'"),
    ("2 h1[1,m]", "unknown bound 'm' in 'h1[1,m]'"),
    ("2 h1[1,n] z", "unknown token 'z'"),
    ("p -q", "unknown token '-q'"),
    ("h1[1,n] + - q", "empty term at '-'"),
    ("h1[1,n] +", "empty term at '+'"),
    ("", "empty term at ''"),
    ("2 /p^2", "no factor after '/p^2'"),
])
def test_a_malformed_row_raises_naming_its_check_and_token(row, message):
    with pytest.raises(ValueError, match=re.escape(f"X-BAD: {message}")):
        congruences._side("X-BAD", row)


def test_a_malformed_row_fails_when_the_catalog_is_built(monkeypatch):
    monkeypatch.delitem(congruences._BOUNDS, "p-1")
    with pytest.raises(ValueError, match=re.escape("T1.1-1.4a: unknown bound 'p-1'")):
        congruences._catalog()


def test_a_term_multiplies_its_factors_left_to_right(cache):
    p = 13
    side = congruences._side("X-TWO", "-3/2 p q^2 B3")
    for ctx in (ExactContext(p, cache), PadicContext(p)):
        expected = ctx.frac(-3 * p, 2) * ctx.qp() ** 2 * ctx.bern(p - 3)
        assert _value(side(ctx)) == _value(expected)


def _cj12d_nested(c):
    return c.frac(16) * (c.frac((-1) ** ((c.p + 1) // 2)) * c.qp() + c.frac(c.p) * c.euler())


# the right sides the catalog writes expanded, in the nested form of the source
NESTED_RHS = {
    "L2.2-2.4": lambda c: (c.frac(-2) * c.qp() + c.frac(c.p) * c.qp() ** 2
                           - c.frac(c.p * c.p) * (c.frac(2, 3) * c.qp() ** 3
                                                  + c.frac(7, 12) * c.bern(c.p - 3))),
    "CJ1.2-d": _cj12d_nested,
    "CJ1.2-d-lit": _cj12d_nested,
}


@pytest.mark.parametrize("p", sieve_primes(PrimeRange(5, 251)))
def test_expanded_rows_equal_their_nested_form(p, cache):
    for ctx in (ExactContext(p, cache), PadicContext(p)):
        for check_id, nested in NESTED_RHS.items():
            m = CHECK_CATALOG[check_id].m
            rhs = CHECK_CATALOG[check_id].sides(ctx)[1]
            assert ctx.residue(rhs, m) == ctx.residue(nested(ctx), m), (check_id, type(ctx))


def _record_row_reads(monkeypatch, module) -> set:
    """Make `module` record (name, a, lo, hi) of every row it reads, summed
    by `row_sum`, a `Sweep` or an identity run's `Cursor` from lo, or
    stepped by `row_numerators`; returns the set it fills."""
    reads = set()

    def recording(fn):
        def read(name, a, lo, hi, *args):
            reads.add((name, a, lo, hi))
            return fn(name, a, lo, hi, *args)
        return read

    for name in ("row_sum", "row_numerators"):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    if module is congruences:
        total = Sweep.sum

        def swept(self, name, a, lo, hi):
            reads.add((name, a, lo, hi))
            return total(self, name, a, lo, hi)

        monkeypatch.setattr(Sweep, "sum", swept)
    else:
        class RecordingCursor(sums.Cursor):
            def __init__(self, name, a, start):
                super().__init__(name, a, start)
                self.start = start

            def prefix(self, a, x):
                reads.add((self.name, a, self.start, x))
                return super().prefix(a, x)

        monkeypatch.setattr(module, "Cursor", RecordingCursor)
    return reads


def _identity_row_reads(monkeypatch, n_range) -> set:
    """(name, a, lo, hi) of every row the identity suite reads over n_range."""
    with monkeypatch.context() as patch:
        reads = _record_row_reads(patch, identities)
        run_identity_suite(None, n_range)
    assert reads
    return reads


def _read_catalog(ctx, order=1):
    """Every check's sides that apply at ctx.p, in catalog order or reversed."""
    for spec in list(CHECK_CATALOG.values())[::order]:
        if ctx.p >= spec.min_prime:
            spec.sides(ctx)


def _catalog_row_reads(p, cache, monkeypatch) -> set:
    """(name, a, lo, hi) of every row the congruence catalog reads at p,
    each at a = p."""
    with monkeypatch.context() as patch:
        reads = _record_row_reads(patch, congruences)
        _read_catalog(ExactContext(p, cache))
    assert reads
    assert {a for _, a, _, _ in reads} == {p}
    return reads


def _closed_forms(name, a, lo, hi) -> list:
    """The terms t_lo..t_hi of row `name` at a, each its own closed form."""
    term = SUMS[name][0]
    return [term(a, k) for k in range(lo, hi + 1)]


def _assert_steps(name, a, lo, hi):
    """Every step of the range lands on the next closed-form term, and
    binary splitting sums the range as adding its closed-form terms does."""
    term, ratio = SUMS[name]
    for k in range(lo, hi):
        num, den = ratio(a, k)
        assert Fraction(num, den) * term(a, k) == term(a, k + 1), (name, a, k)
    assert row_sum(name, a, lo, hi) == sum(_closed_forms(name, a, lo, hi)), (name, a, lo, hi)


@pytest.mark.parametrize("p", sieve_primes(PrimeRange(3, 61)))
def test_every_row_ratio_steps_to_the_next_closed_form_term(p, cache, monkeypatch):
    """The exact path's guard compares only the last term of a sum with its
    closed form; here every step of every range the catalog reads must, and
    each range's `row_sum` must equal its stepped terms added."""
    reads = _catalog_row_reads(p, cache, monkeypatch)
    if p >= 7:  # every row is read by the congruence or the identity catalog
        rows = {name for name, *_ in reads | _identity_row_reads(monkeypatch, range(3))}
        assert rows == set(SUMS)
    for read in reads:
        _assert_steps(*read)


def test_every_identity_row_ratio_steps_to_the_next_closed_form_term(monkeypatch):
    """The same for every row range the identity suite reads, for n from
    each identity's start to 60."""
    for read in _identity_row_reads(monkeypatch, range(61)):
        _assert_steps(*read)


@pytest.mark.parametrize("read", [("k1", 13, 4, 4), ("b", 11, 0, 9), ("b", 11, 3, 7),
                                  ("odd2_alt", 13, 0, 12), ("odd2_alt", 13, 7, 12),
                                  ("k1", 41, 1, 17), ("k1", 41, 1, 18),
                                  ("odd2_alt", 41, 0, 33)])
def test_row_sum_over_edge_ranges(read):
    """Ranges the catalogs never read: one term, steps past a zero term
    (`b` at k = n), ratios with negative denominators (`odd2_alt`), and 16,
    17 and 33 steps, the longest run `_split` folds in a loop, the shortest
    it splits, and a split with a split inside."""
    _assert_steps(*read)


def test_row_sum_guards_every_step(monkeypatch):
    """A wrong ratio at any one step, or a zero ratio denominator, raises;
    so does a range that ends before it starts."""
    term, ratio = SUMS["sq_k1"]
    for bad_k in range(1, 12):
        for tamper in (lambda num, den: (num + 1, den), lambda num, den: (num, 0)):
            def wrong(p, k, bad_k=bad_k, tamper=tamper):
                num, den = ratio(p, k)
                return tamper(num, den) if k == bad_k else (num, den)

            with monkeypatch.context() as patch:
                patch.setitem(SUMS, "sq_k1", (term, wrong))
                with pytest.raises(InternalInconsistency, match="'sq_k1'"):
                    row_sum("sq_k1", 13, 1, 12)
    with pytest.raises(ValueError):
        row_sum("sq_k1", 13, 5, 4)


@pytest.mark.parametrize("name", sorted(PRIME_FREE))
def test_prime_free_rows_do_not_read_a(name):
    """A row a Sweep carries from prime to prime has a term and a ratio that
    do not depend on a, and its prefix starts at its first defined term."""
    term, ratio = SUMS[name]
    start = PRIME_FREE[name]
    for k in (start, start + 1, 7, 40):
        assert len({term(a, k) for a in (-1, 3, 61, 1999)}) == 1, (name, k)
        assert len({ratio(a, k) for a in (-1, 3, 61, 1999)}) == 1, (name, k)
    if start:
        with pytest.raises(ZeroDivisionError):
            term(3, start - 1)


SWEPT_PRIMES = sieve_primes(PrimeRange(3, 113))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(SWEPT_PRIMES) - 1), st.integers(1, 5), st.data())
def test_sweep_reads_equal_row_sum(first, length, data):
    """Over a block of consecutive primes, which may start anywhere in the
    range, each prime's reads in any order: a Sweep sums every PRIME_FREE
    row over each range the catalog reads, and over the whole range, as
    `row_sum` does."""
    sweep = Sweep()
    for p in SWEPT_PRIMES[first:first + length]:
        n = (p - 1) // 2
        reads = [(name, lo, hi) for name, start in sorted(PRIME_FREE.items())
                 for lo, hi in ((start, n), (start, n - 1), (n + 1, p - 1), (start, p - 1))
                 if start <= lo <= hi]
        for name, lo, hi in data.draw(st.permutations(reads)):
            assert sweep.sum(name, p, lo, hi) == row_sum(name, p, lo, hi), (name, p, lo, hi)


def test_a_sweep_reads_one_term_behind_its_cursor_and_no_further():
    """F(x - 1) behind a cursor at x is F(x) - t_x, on either cursor; a read
    two terms behind raises ValueError and leaves the cursor where it was."""
    sweep = Sweep()
    for p, lo, hi in ((29, 1, 14), (29, 1, 13), (31, 16, 30), (31, 16, 29)):
        assert sweep.sum("sq_k1", p, lo, hi) == row_sum("sq_k1", p, lo, hi), (p, lo, hi)
    with pytest.raises(ValueError, match="behind"):
        sweep.sum("sq_k1", 31, 1, 13)
    with pytest.raises(ValueError, match="behind"):
        sweep.sum("sq_k1", 31, 16, 28)
    assert sweep.sum("sq_k1", 31, 1, 15) == row_sum("sq_k1", 31, 1, 15)


def test_a_wrong_ratio_read_through_a_sweep_is_an_engine_fault(monkeypatch):
    """A wrong ratio at k = 30 raises at the read whose advance steps over
    it, on either cursor, however far the sweep has come before; a range
    the row cannot sum is a ValueError, as in `row_sum`."""
    term, ratio = SUMS["sq_k1"]

    def wrong(p, k):
        num, den = ratio(p, k)
        return (num + 1, den) if k == 30 else (num, den)

    monkeypatch.setitem(SUMS, "sq_k1", (term, wrong))
    sweep = Sweep()
    for p in sieve_primes(PrimeRange(3, 31)):  # p - 1 <= 30
        sweep.sum("sq_k1", p, 1, p - 1)
    with pytest.raises(InternalInconsistency, match="'sq_k1' at a=37 .* k=36"):
        sweep.sum("sq_k1", 37, 19, 36)
    for p in sieve_primes(PrimeRange(37, 61)):  # (p - 1)/2 <= 30
        sweep.sum("sq_k1", p, 1, (p - 1) // 2)
    with pytest.raises(InternalInconsistency, match="'sq_k1' at a=67 .* k=33"):
        sweep.sum("sq_k1", 67, 1, 33)
    for lo, hi in ((5, 4), (0, 4)):  # empty, and from the undefined t_0
        with pytest.raises(ValueError):
            sweep.sum("sq_k1", 13, lo, hi)


def _agrees(x, r, p) -> bool:
    """The PAdic x is the rational r to x's absolute precision."""
    if x.is_zero_marker:
        return r == 0 or vp_rational(r, p) >= x.val
    return (r != 0 and vp_rational(r, p) == x.val
            and rat_reduce_mod(r / Fraction(p) ** x.val, p, x.prec).value == x.unit)


@pytest.mark.parametrize("p", sieve_primes(PrimeRange(3, 61)) + [149, 241, 1093])
def test_padic_rows_match_the_exact_rows(p, cache, monkeypatch):
    """At every range the catalog reads, each p-adic term, read off the
    factorial tables, is the exact term to PADIC_PREC digits, and the p-adic
    sum is the exact sum known mod p^(min(0, min v_k) + PADIC_PREC), the
    precision of adding the terms one by one to O(p^PADIC_PREC).  Past 61
    the tables' indices pass 2p and C(2k,k) has p-content at every k > n;
    p divides E_{p-3} at 149 and 241, and 1093 is a Wieferich prime."""
    prec = congruences.PADIC_PREC
    padic = PadicContext(p)
    for name, _, lo, hi in _catalog_row_reads(p, cache, monkeypatch):
        exact = _closed_forms(name, p, lo, hi)
        column = padic.terms(name, lo, hi)
        terms = [PAdic(p, *x) for x in zip(column.vals, column.units, column.precs)]
        assert column.ks == range(lo, hi + 1)
        assert len(terms) == len(exact) == hi - lo + 1
        for x, r in zip(terms, exact):
            assert x.prec == prec and _agrees(x, r, p), (name, lo, hi)
        total = padic.S(name, lo, hi)
        assert total._abs_prec() == min(0, min(x.val for x in terms)) + prec
        assert _agrees(total, row_sum(name, p, lo, hi), p), (name, lo, hi)


def test_a_table_read_outside_its_row_raises():
    """A row with a factor k starts at k = 1, C(n,k)C(n+k,k) ends at n and
    every other row at p - 1: a read past either end raises ValueError and
    never returns the place-holder at k = 0."""
    table = FactorialTable(13, 5)
    assert table.read("b", 0, 6)[0] == [0] * 7
    for name, lo, hi in (("h1", 0, 3), ("l21a", 0, 12), ("b", 0, 7), ("sq_k0", 0, 13),
                         ("sq_k0", 5, 4)):
        with pytest.raises(ValueError, match=f"row {name!r} at p=13"):
            table.read(name, lo, hi)


class _UnreadableTable(dict):
    def _refuse(self, *args):
        raise AssertionError("a special-number table was read")

    __getitem__ = __contains__ = __iter__ = __len__ = get = _refuse


def test_padic_path_reads_nothing_from_the_exact_path(cache, monkeypatch):
    """With every exact special number, harmonic number, row sum and table
    made to raise, the p-adic path gives each check at 3..61 the residues
    the exact path gives it."""
    primes = sieve_primes(PrimeRange(3, 61))
    specs = [s for s in CHECK_CATALOG.values()]
    expected = {(s.id, p): congruences._compare_pairs(ExactContext(p, cache), s)
                for p in primes for s in specs if p >= s.min_prime}

    def refuse(*args, **kwargs):
        raise AssertionError("the p-adic path read the exact path")

    for name in ("bernoulli_exact", "euler_exact", "harmonic_exact",
                 "bernoulli_by_index", "euler_by_index"):
        monkeypatch.setattr(special, name, refuse)
    for name in ("bernoulli_exact", "euler_exact"):
        monkeypatch.setattr(congruences, name, refuse)
    for name in ("row_sum", "row_numerators", "Sweep"):
        monkeypatch.setattr(congruences, name, refuse)
    unreadable = SpecialCache()
    unreadable.bernoulli = unreadable.euler = _UnreadableTable()
    monkeypatch.setattr(special, "_DEFAULT_CACHE", unreadable)
    assert not issubclass(PadicContext, ExactContext)
    for p in primes:
        ctx = PadicContext(p)
        for s in specs:
            if p >= s.min_prime:
                assert congruences._compare_pairs(ctx, s) == expected[s.id, p], (s.id, p)


@pytest.mark.parametrize("p", [3, 13, 149])
def test_padic_path_reads_no_sums_row(p, cache, monkeypatch):
    """The p-adic path reads every row off its factorial tables: with SUMS,
    the rows' closed forms and ratios, made to raise, each check's p-adic
    sides give the residues the exact path gives."""
    specs = [s for s in CHECK_CATALOG.values() if p >= s.min_prime]
    expected = {s.id: congruences._compare_pairs(ExactContext(p, cache), s) for s in specs}
    monkeypatch.setattr(sums, "SUMS", _UnreadableTable())
    ctx = PadicContext(p)
    for s in specs:
        assert congruences._compare_pairs(ctx, s) == expected[s.id], (s.id, p)


def test_a_wrong_row_in_sums_is_a_path_disagreement(monkeypatch):
    """h3's closed form doubled with its ratio kept: the exact path's guard
    passes, since every step still lands on the closed form, and it reads
    2 H^(3); the p-adic path does not read SUMS, so L2.2-2.5b disagrees at
    every prime rather than failing on both paths alike."""
    term, ratio = SUMS["h3"]
    monkeypatch.setitem(SUMS, "h3", (lambda a, k: 2 * term(a, k), ratio))
    results, summary = run_suite(["L2.2-2.5b"], [7, 11, 13], padic_limit=13)
    assert [(r.passed, r.path_agreement) for r in results] == [(False, False)] * 3
    assert summary["path_disagreements"] == 3


def test_a_wrong_exact_fermat_quotient_is_a_path_disagreement(monkeypatch):
    """The p-adic path reads q_p(2) off 2^(p-1) mod p^(PADIC_PREC+1), not off
    the exact path's rational: with q_p(2) + p on the exact path alone,
    L2.2-2.4, which reads -2 q_p(2) mod p^3, disagrees at every prime."""
    qp = ExactContext._qp
    monkeypatch.setattr(ExactContext, "_qp", lambda self: qp(self) + self.p)
    primes = sieve_primes(PrimeRange(5, 61))
    results, summary = run_suite(["L2.2-2.4"], primes, padic_limit=61)
    assert [r.path_agreement for r in results] == [False] * len(primes)
    assert summary["path_disagreements"] == len(primes)


def test_a_wrong_exact_morley_binomial_is_a_path_disagreement(monkeypatch):
    """The p-adic path reads (-1)^n C(p-1, n) off its factorial table, not off
    math.comb: with p^3 added on the exact path alone, L2.2-2.3, which reads
    it mod p^4, disagrees at every prime."""
    morley = ExactContext._morley
    monkeypatch.setattr(ExactContext, "_morley", lambda self: morley(self) + self.p ** 3)
    primes = sieve_primes(PrimeRange(5, 61))
    results, summary = run_suite(["L2.2-2.3"], primes, padic_limit=61)
    assert [r.path_agreement for r in results] == [False] * len(primes)
    assert summary["path_disagreements"] == len(primes)


def test_fermat_quotient_checks_at_the_wieferich_prime(monkeypatch):
    """2^1092 = 1 mod 1093^2, so q_p(2) = 0 mod p at p = 1093.  The nine
    checks that read q_p(2) agree on both paths there, and P2.14 reads
    0 = 0."""
    p = 1093
    assert pow(2, p - 1, p * p) == 1
    qp, reads = congruences.Context.qp, []
    monkeypatch.setattr(congruences.Context, "qp", lambda c: reads.append(c) or qp(c))
    contexts = ExactContext(p, SpecialCache()), PadicContext(p)
    for check_id in ("T1.2-1.7", "L2.2-2.4", "P2.12", "P2.14", "P2.15", "L3.2-3.3",
                     "L3.3-3.4", "CJ1.2-d", "CJ1.2-d-lit"):
        reads.clear()
        result = evaluate_check(check_id, p, padic_limit=p, contexts=contexts)
        assert {type(c) for c in reads} == {ExactContext, PadicContext}, check_id
        assert result.path_agreement, check_id
        if check_id == "P2.14":
            assert (result.lhs, result.rhs, result.passed) == (0, 0, True)


@pytest.mark.parametrize("p", [149, 241, 1093, 3511])
def test_all_checks_agree_on_both_paths_at_the_degenerate_primes(p):
    """p divides E_{p-3} at 149 and 241, and q_p(2) = 0 mod p at the
    Wieferich primes 1093 and 3511, so a term of many right sides vanishes
    mod p.  No check exhausts p-adic precision there, both paths agree on
    every row, and only the literal CJ1.2 readings fail.  16843, where p
    divides B_{p-3}, takes about 24 s and is left to a separate run."""
    assert special.euler_by_index(p - 3) % p == 0 or pow(2, p - 1, p * p) == 1
    results, _ = run_suite(check_ids("all"), [p], padic_limit=p)
    assert all(r.applicable and r.path_agreement is True for r in results)
    assert {r.id for r in results if not r.passed} == {"CJ1.2-c-lit", "CJ1.2-d-lit"}


def test_padic_special_numbers_are_known_mod_p_only():
    """16843 divides B_16840, so the p-adic B_{p-3} at 16843 is a zero
    marker of bound 1, not a zero known to PADIC_PREC digits; a nonzero
    residue, B_10 or E_10 at 13, has absolute precision 1."""
    zero = PadicContext(16843).bern(16840)
    assert zero.is_zero_marker and zero.val == 1
    ctx = PadicContext(13)
    for x, exact in ((ctx.bern(10), bernoulli_exact(10)), (ctx.euler(), -50521)):
        assert (x.val, x.prec) == (0, 1)
        assert x.unit == rat_reduce_mod(exact, 13, 1).value


def test_wrong_identity_row_ratio_is_an_engine_fault(monkeypatch, capsys):
    """A row that only an identity reads is guarded too, summed (PRODINGER)
    or weighted per k (SIGMA's lhs): a wrong ratio exits 2 with no rows,
    never a failed identity."""
    term, ratio = SUMS["prodinger"]

    def wrong(n, k):
        num, den = ratio(n, k)
        return num + 1, den

    monkeypatch.setitem(SUMS, "prodinger", (term, wrong))
    for identity in ("PRODINGER", "SIGMA"):
        code = parse_and_run(["identity", "--names", identity, "--n", "1:5"])
        captured = capsys.readouterr()
        assert code == 2, identity
        assert captured.out == "", identity
        assert "'prodinger'" in captured.err, identity


def test_padic_path_error_is_an_engine_fault(monkeypatch, cache, capsys):
    """Too low a working precision raises on the p-adic path.  The exact
    path passes, so that is an engine fault, never a proven failure."""
    monkeypatch.setattr(congruences, "PADIC_PREC", 2)
    assert evaluate_check("T1.1-1.4a", 11, cache, padic_limit=0).passed
    with pytest.raises(InternalInconsistency, match="PrecisionExhausted"):
        evaluate_check("T1.1-1.4a", 11, cache, padic_limit=11)
    code = parse_and_run(["verify", "--primes", "11:11", "--checks", "T1.1-1.4a",
                          "--padic-limit", "11"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "p-adic path" in captured.err


def test_wrong_row_ratio_is_an_engine_fault(monkeypatch, cache, capsys):
    """Both paths step by the same ratio and would agree on a wrong one; the
    exact path's guard turns it into InternalInconsistency, not a verdict,
    for a summed row (k1) and for the rows that checks read per k."""
    for row, check_id in (("k1", "X-ST"), ("l21a", "L2.1a"), ("b", "L2.1b"),
                          ("sq_k0", "PS11c-3.2")):
        term, ratio = SUMS[row]

        def wrong(p, k, ratio=ratio):
            num, den = ratio(p, k)
            return num + 1, den

        with monkeypatch.context() as patch:
            patch.setitem(SUMS, row, (term, wrong))
            with pytest.raises(InternalInconsistency, match=f"'{row}'"):
                evaluate_check(check_id, 11, cache, padic_limit=11)
            code = parse_and_run(["verify", "--primes", "7:13", "--checks", check_id])
        captured = capsys.readouterr()
        assert code == 2, row
        assert captured.out == "", row
        assert f"'{row}'" in captured.err, row


class _FractionColumn(Column):
    """A column of reduced Fractions, with the operations of the path's columns."""

    def __init__(self, p, ks, values):
        self.p, self.ks, self.values = p, ks, list(values)

    def __getitem__(self, index):
        return _FractionColumn(self.p, self.ks[index], self.values[index])

    def __mul__(self, other):
        others = other.values if isinstance(other, Column) else [other] * len(self.ks)
        return _FractionColumn(self.p, self.ks,
                               [x * y for x, y in zip(self.values, others, strict=True)])

    def __add__(self, other):
        return _FractionColumn(self.p, self.ks, [x + other for x in self.values])

    def negate_where(self, flip):
        return _FractionColumn(self.p, self.ks,
                               [-x if flip(k) else x for k, x in zip(self.ks, self.values)])

    def residues(self, e):
        return [reduce_mod(x, self.p, e) for x in self.values]


class _FractionContext(ExactContext):
    """The exact path with its per-k reads as columns of reduced Fractions:
    each term's closed form, and each gap a difference of exact harmonic
    numbers."""

    def column(self, x, ks):
        return _FractionColumn(self.p, ks, [x] * len(ks))

    def _terms(self, name, lo, hi):
        return _FractionColumn(self.p, range(lo, hi + 1), _closed_forms(name, self.p, lo, hi))

    def _gaps(self):
        return _FractionColumn(self.p, range(1, self.n + 1), _exact_gaps(self.n))


def _exact_gaps(n) -> list:
    """H(n+k) - H(n-k), k = 1..n, as differences of the exact harmonic numbers
    H_j, j <= 2n, summed one 1/j at a time; H_2n must be `harmonic_exact(2n)`."""
    h = list(accumulate((Fraction(1, j) for j in range(1, 2 * n + 1)), initial=Fraction(0)))
    assert h[-1] == harmonic_exact(2 * n)
    return [h[n + k] - h[n - k] for k in range(1, n + 1)]


_PER_K = ("L2.1a", "L2.1b", "PS11c-3.2")


def _exact_values(column) -> list:
    """The exact values of an ExactColumn, as Fractions."""
    if not column.factors:
        return [Fraction(column.num, column.den)] * len(column.ks)
    return [Fraction(column.num * prod(ts), column.den) for ts in zip(*column.factors)]


@pytest.mark.parametrize("p", sieve_primes(PrimeRange(5, 251)) + [1093, 1999])
def test_per_k_checks_match_the_fraction_route(p):
    """L2.1a, L2.1b and PS11c-3.2 read their rows and gaps as columns:
    integers over one denominator per row on the exact path, (valuation,
    unit) lists on the p-adic path, checked here up to p = 251.  Each exact
    side equals the side built from Fractions, and on each path every k's
    residue of each side is `reduce_mod` of that Fraction."""
    exact, oracle = ExactContext(p, SpecialCache()), _FractionContext(p, SpecialCache())
    contexts = (exact, PadicContext(p)) if p <= 251 else (exact,)
    for spec in (CHECK_CATALOG[i] for i in _PER_K):
        expected = spec.sides(oracle)
        assert all(isinstance(side, _FractionColumn) for side in expected)
        for side, fractions in zip(spec.sides(exact), expected, strict=True):
            assert _exact_values(side) == fractions.values, spec.id
        for ctx in contexts:
            for side, fractions in zip(spec.sides(ctx), expected, strict=True):
                assert side.ks == fractions.ks, (spec.id, type(ctx).__name__)
                assert side.residues(spec.m) == [
                    reduce_mod(r, p, spec.m) for r in fractions.values], (
                    spec.id, type(ctx).__name__)


# (check, row, k) -> (lhs, rhs) at k with that k of the row off by one on the
# exact path, and by one in its unit on the p-adic path, at p = 13: the
# first, a middle and the last k each check reads of the row.
_PER_K_FAULTS = {
    ("L2.1a", "l21a", 1): ((144, 143), (156, 143)),
    ("L2.1a", "l21a", 6): ((144, 143), (156, 143)),
    ("L2.1a", "l21a", 12): ((27, 26), (39, 26)),
    ("L2.1b", "sq_k0", 0): ((1, 2), (1, 2)),
    ("L2.1b", "sq_k0", 3): ((159, 158), (159, 158)),
    ("L2.1b", "sq_k0", 6): ((79, 80), (79, 80)),
    ("PS11c-3.2", "b", 1): ((21251, 21421), (21251, 21421)),
    ("PS11c-3.2", "b", 3): ((16064, 27557), (16064, 27557)),
    ("PS11c-3.2", "b", 6): ((7516, 18500), (7516, 18500)),
}


@pytest.mark.parametrize("check_id, row, k", list(_PER_K_FAULTS))
@pytest.mark.parametrize("path", ["exact", "padic"])
def test_a_per_k_fault_fails_at_its_k_on_each_path(check_id, row, k, path, monkeypatch):
    """One wrong k of a row the check reads, past the exact path's guard: the
    faulted path's two residue lists differ at that k and no other, with
    that k's residues, and the exact path's row fails there."""
    p, spec = 13, CHECK_CATALOG[check_id]
    row_numerators, read = congruences.row_numerators, FactorialTable.read

    def faulty_numerators(name, a, lo, hi, *args):
        den, nums = row_numerators(name, a, lo, hi, *args)
        if name == row:
            nums[k - lo] += den  # t_k + 1
        return den, nums

    def faulty_read(table, name, lo, hi):
        vals, units = read(table, name, lo, hi)
        if name == row:
            units[k - lo] += 1
        return vals, units

    if path == "exact":
        monkeypatch.setattr(congruences, "row_numerators", faulty_numerators)
    else:
        monkeypatch.setattr(FactorialTable, "read", faulty_read)
    lhs, rhs = _PER_K_FAULTS[check_id, row, k][path == "padic"]
    ctx = ExactContext(p, SpecialCache()) if path == "exact" else PadicContext(p)
    ks, lv, rv = congruences._compare_pairs(ctx, spec)
    i = ks.index(k)
    assert [j for j, (a, b) in enumerate(zip(lv, rv, strict=True)) if a != b] == [i]
    assert (lv[i], rv[i]) == (lhs, rhs)
    if path == "exact":
        result = evaluate_check(check_id, p, padic_limit=0)
        assert (result.passed, result.lhs, result.rhs) == (False, lhs, rhs)
        assert result.note.endswith(f"first failing instance k={k}")


def test_a_padic_column_fault_past_the_first_k_is_a_path_disagreement(monkeypatch):
    """p^(m-1) added to every p-adic per-k residue past the first, on both
    sides alike: the p-adic sides still match each other at every k, so
    only a comparison of the paths' whole residue lists sees it.  Each
    per-k check disagrees at 13 and 61, and the CLI exits 1."""
    residues = PadicColumn.residues

    def shifted(column, e):
        values, m = residues(column, e), column.p ** e
        return values[:1] + [(v + column.p ** (e - 1)) % m for v in values[1:]]

    monkeypatch.setattr(PadicColumn, "residues", shifted)
    per_k = ("L2.1a", "L2.1b", "PS11c-3.2")
    for p in (13, 61):
        results = [evaluate_check(i, p, padic_limit=p) for i in per_k]
        assert [(r.passed, r.path_agreement) for r in results] == [(True, False)] * 3, p
    assert parse_and_run(["verify", "--checks", ",".join(per_k), "--primes", "13:13",
                          "--padic-limit", "13", "--jobs", "1"]) == 1


def test_a_padic_column_fault_is_an_engine_fault(monkeypatch):
    """A p-adic per-k value of negative valuation, or one known to fewer
    digits than the check reads, raises on the p-adic path as PAdic.residue
    does; the exact path passes, so evaluate_check raises
    InternalInconsistency, never a verdict."""
    read = FactorialTable.read

    def negative(table, name, lo, hi):
        vals, units = read(table, name, lo, hi)
        return ([-1] + vals[1:], units) if name == "l21a" else (vals, units)

    with monkeypatch.context() as patch:
        patch.setattr(FactorialTable, "read", negative)
        assert evaluate_check("L2.1a", 13, padic_limit=0).passed
        with pytest.raises(InternalInconsistency,
                           match="ValuationViolation: p-adic value has valuation -1 < 0"):
            evaluate_check("L2.1a", 13, padic_limit=13)
    # one digit where L2.1b reads two, at its first k: C(n,0) C(n,0) = 1
    monkeypatch.setattr(congruences, "PADIC_PREC", 1)
    assert evaluate_check("L2.1b", 13, padic_limit=0).passed
    with pytest.raises(InternalInconsistency,
                       match=r"PrecisionExhausted: value known mod p\^1, need p\^2"):
        evaluate_check("L2.1b", 13, padic_limit=13)


def test_padic_gaps_refuse_an_h1_term_that_is_not_a_unit():
    """Every j < p is a unit, so an h1 digit of valuation 1 is an engine fault."""
    ctx = PadicContext(13)
    high = ctx.terms("h1", 7, 12)
    ctx.memo["T", "h1", 7, 12] = PadicColumn(13, high.ks, [0, 0, 1, 0, 0, 0], high.units,
                                             high.precs)
    with pytest.raises(InternalInconsistency, match="p=13: a term of row h1"):
        ctx.gaps()
    assert {key[0] for key in ctx.memo} == {"F", "T"}  # the tables and the h1 reads


@pytest.mark.parametrize("p", [101, 1009])
def test_ps11c_lifts_no_rational_per_k(p, monkeypatch):
    """PS11c-3.2 on the p-adic path lifts its two constants, 1 and -p/4, with
    `PAdic.from_rational`, and nothing per k, so the count does not grow with p."""
    lift, lifts = PAdic.from_rational.__func__, []

    def counting(cls, *args):
        lifts.append(args)
        return lift(cls, *args)

    monkeypatch.setattr(PAdic, "from_rational", classmethod(counting))
    assert evaluate_check("PS11c-3.2", p, padic_limit=p).path_agreement
    assert len(lifts) == 2


def test_row_numerators_step_exact_integers(monkeypatch):
    """`row_numerators` gives t_k * den for a common denominator den, by
    default the denominator of the last term; a den that is not one, or a
    wrong ratio at any one step, raises."""
    for name, a, lo, hi, den in (("sq_k0", 13, 0, 6, 16 ** 6), ("sq_k0", 13, 0, 6, None),
                                 ("l21a", 13, 1, 12, None), ("b", 13, 0, 6, None),
                                 ("prodinger", 9, 1, 9, lcm(*range(1, 19)))):
        den, nums = row_numerators(name, a, lo, hi, den)
        assert [Fraction(t, den) for t in nums] == _closed_forms(name, a, lo, hi)
    assert row_numerators("sq_k0", 13, 0, 6)[0] == 2 ** 20  # 16^6 / 2^(2 s(6))
    assert row_numerators("l21a", 13, 1, 12)[0] == row_numerators("b", 13, 0, 6)[0] == 1
    with pytest.raises(InternalInconsistency, match="'sq_k0' .* remainder"):
        row_numerators("sq_k0", 13, 0, 6, 3)
    # C(2k,k)/k: t_6 = 154 is whole but t_5 = 252/5 is not
    with pytest.raises(InternalInconsistency, match="'k1' .* remainder"):
        row_numerators("k1", 13, 1, 6)
    term, ratio = SUMS["sq_k0"]
    for bad_k in range(6):
        def wrong(p, k, bad_k=bad_k):
            num, den = ratio(p, k)
            return (num + 1, den) if k == bad_k else (num, den)

        with monkeypatch.context() as patch:
            patch.setitem(SUMS, "sq_k0", (term, wrong))
            with pytest.raises(InternalInconsistency, match="'sq_k0'"):
                row_numerators("sq_k0", 13, 0, 6, 16 ** 6)


@pytest.mark.parametrize("p", [7, 61])
def test_no_row_is_stepped_twice_at_one_prime(p, cache, monkeypatch):
    """All checks at each prime of a block of consecutive primes from p, on
    both paths, the exact contexts sharing one Sweep.  At each prime, each
    k of a row is built once by each engine: `row_sum` or `row_numerators`
    on the exact path, and a `FactorialTable` read, which serves a sum and a
    per-k read of one range, so `sq_k0` over 0..n is read once.
    Over the block, the sweep folds each k of a PRIME_FREE row into each of
    its two cursors at most once."""
    primes = sieve_primes(PrimeRange(p, p + 40))
    reads, folds = [], []

    def recording(engine):
        def read(name, a, lo, hi, *args):
            reads.append((engine.__name__, name, a, range(lo, hi + 1)))
            return engine(name, a, lo, hi, *args)
        return read

    def reading(table, name, lo, hi):
        reads.append(("read", name, table.p, range(lo, hi + 1)))
        return read(table, name, lo, hi)

    def folding(cursor, a, x):
        if x > cursor.at:
            key = next(key for key, held in sweep.cursors.items() if held is cursor)
            folds.append((*key, range(cursor.at + 1, x + 1)))
        return prefix(cursor, a, x)

    for name in ("row_sum", "row_numerators"):
        monkeypatch.setattr(congruences, name, recording(getattr(congruences, name)))
    read = FactorialTable.read
    monkeypatch.setattr(FactorialTable, "read", reading)
    prefix = sums.Cursor.prefix
    monkeypatch.setattr(sums.Cursor, "prefix", folding)
    sweep = Sweep()
    for q in primes:
        for ctx in (ExactContext(q, cache, sweep), PadicContext(q)):
            _read_catalog(ctx)
        n = (q - 1) // 2
        assert reads.count(("read", "sq_k0", q, range(0, n + 1))) == 1
    steps = Counter((*read, k) for *read, ks in reads for k in ks)
    assert [step for step, times in steps.items() if times > 1] == []
    folded = Counter((*fold, k) for *fold, ks in folds for k in ks)
    assert {name for name, upper, _ in folds if not upper} == set(PRIME_FREE)
    assert ("h1", True) in {fold[:2] for fold in folds}
    assert [k for k, times in folded.items() if times > 1] == []



@pytest.mark.parametrize("p", [7, 101])
def test_exact_path_reads_each_prime_free_range_off_the_sweep(p, cache, monkeypatch):
    """At one prime the exact context reads every PRIME_FREE range a check
    sums as one Sweep read, F(hi) - F(lo - 1); a range across n, such as
    h1 over 1..p-1, is never read as its halves."""
    reads, total = [], Sweep.sum

    def swept(self, name, a, lo, hi):
        reads.append((name, lo, hi))
        return total(self, name, a, lo, hi)

    monkeypatch.setattr(Sweep, "sum", swept)
    ctx = ExactContext(p, cache)
    _read_catalog(ctx)
    summed = [key[1:] for key in ctx.memo if key[0] == "S" and key[1] in PRIME_FREE]
    assert sorted(reads) == sorted(summed)
    assert {("h1", 1, p - 1), ("sq_k0", 0, p - 1)} <= set(reads)


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_a_lone_prime_splits_each_step_once_over_both_cursors(order, cache, monkeypatch):
    """One prime, a fresh Sweep, the catalog read forward or in reverse:
    each step k -> k+1 of each PRIME_FREE row, up to the last k read, is
    split exactly once, counted over both cursors and any read behind
    one together."""
    p, steps, fold = 61, Counter(), sums._steps

    def splitting(name, a, t_lo, lo, hi):
        steps.update((name, k) for k in range(lo, hi))
        return fold(name, a, t_lo, lo, hi)

    monkeypatch.setattr(sums, "_steps", splitting)
    ctx = ExactContext(p, cache)
    _read_catalog(ctx, order)
    top = {}
    for _, name, lo, hi in (key for key in ctx.memo if key[0] == "S"):
        top[name] = max(hi, top.get(name, hi))
    once = Counter((name, k) for name, start in PRIME_FREE.items()
                   for k in range(start, top[name]))
    assert Counter({step: times for step, times in steps.items()
                    if step[0] in PRIME_FREE}) == once

# -- statements that fail at p --------------------------------------------------------


def _patch_check(monkeypatch, status, pairs) -> str:
    """Put a check with these pairs, modulus p, into the catalog."""
    spec = congruences.CheckSpec("X-FAILS", "a statement that fails", 1, 5, status, pairs)
    monkeypatch.setitem(CHECK_CATALOG, spec.id, spec)
    return spec.id


def _verify_at_7(check_id) -> int:
    return parse_and_run(["verify", "--checks", check_id, "--primes", "7:7",
                          "--padic-limit", "7", "--jobs", "1"])


@pytest.mark.parametrize("status, code", [("proven", 1), ("conjectural", 0)])
def test_a_failed_valuation_guarantee_is_a_failed_row(status, code, monkeypatch, capsys):
    """H_6 = 49/20 has valuation exactly 2 at p = 7, so a statement that
    divides it by p^3 fails at 7: a failed row, not an engine fault, with
    no path agreement.  A proven one exits 1, a conjectural one 0."""
    check_id = _patch_check(monkeypatch, status,
                            lambda c: (c.div_pp(c.S("h1", 1, c.p - 1), 3), c.frac(0)))
    result = evaluate_check(check_id, 7, padic_limit=7)
    assert (result.applicable, result.passed, result.path_agreement) == (True, False, None)
    assert result.note == "ValuationViolation: p=7: expected valuation >= 3, got 2"
    assert _verify_at_7(check_id) == code
    assert "expected valuation >= 3" in capsys.readouterr().out


def test_a_side_with_p_in_its_denominator_is_a_failed_row(monkeypatch, capsys):
    """A side of 1/p has no residue mod p: the statement fails at p."""
    check_id = _patch_check(monkeypatch, "proven", lambda c: (c.frac(1, c.p), c.frac(0)))
    result = evaluate_check(check_id, 7, padic_limit=7)
    assert (result.passed, result.path_agreement) == (False, None)
    assert result.note == "ValuationViolation: 1/7 has p=7 in its denominator"
    assert _verify_at_7(check_id) == 1
    assert "ValuationViolation" in capsys.readouterr().out


def test_a_per_k_check_names_its_first_failing_instance(monkeypatch):
    # 1/k against 1/k^2 mod 7: equal at k = 1, and 4 against 2 at k = 2
    check_id = _patch_check(monkeypatch, "proven", lambda c: (c.terms("h1", 1, 2),
                                                               c.terms("h2", 1, 2)))
    result = evaluate_check(check_id, 7, padic_limit=7)
    assert (result.passed, result.lhs, result.rhs, result.path_agreement) == (False, 4, 2, True)
    assert result.note == "first failing instance k=2"


def test_a_padic_valuation_violation_is_an_engine_fault(monkeypatch, capsys):
    """X-T1-a divides H_{p-1} by p^2 on both paths.  With a corrupt unit in
    the p-adic h1 row the exact path still passes, so the p-adic path's
    failed guarantee is an engine fault: exit 2 with no rows."""
    read = FactorialTable.read

    def corrupt(table, name, lo, hi):
        vals, units = read(table, name, lo, hi)
        if name == "h1" and lo == 1:
            units[0] += 1
        return vals, units

    monkeypatch.setattr(FactorialTable, "read", corrupt)
    assert evaluate_check("X-T1-a", 7, padic_limit=0).passed
    with pytest.raises(InternalInconsistency, match="expected valuation >= 2, got 0"):
        evaluate_check("X-T1-a", 7, padic_limit=7)
    code = _verify_at_7("X-T1-a")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected valuation >= 2" in captured.err


# -- proven checks, small primes ---------------------------------------------------


def test_all_proven_checks_pass_up_to_97(cache):
    primes = sieve_primes(PrimeRange(5, 97))
    results, summary = run_suite(check_ids("proven"), primes, cache, padic_limit=0)
    assert summary["failed"] == 0
    assert all(r.passed for r in results if r.applicable)


def test_conjectural_checks_pass_small_range(cache):
    primes = sieve_primes(PrimeRange(3, 61))
    results, summary = run_suite(check_ids("conjectural"), primes, cache,
                                 padic_limit=0)
    assert summary["failed"] == 0
    assert all(r.status == "conjectural" for r in results)
    assert exit_status(results) == 0


def test_exploratory_variants_fail_without_breaking_the_run(cache):
    """The literal fourth-line binomial reading is reported, never asserted."""
    for p in (3, 5, 7, 11):
        result = evaluate_check("CJ1.2-d-lit", p, cache)
        assert result.status == "exploratory"
        assert result.passed is False
        assert exit_status([result]) == 0


# -- two evaluation paths -------------------------------------------------------------


def test_path_agreement_small_primes(cache):
    for p in (3, 5, 7, 11, 13):
        for check_id in CHECK_CATALOG:
            result = evaluate_check(check_id, p, cache, padic_limit=p)
            if result.applicable:
                assert result.path_agreement is not False, (check_id, p)


def test_padic_path_disabled_above_limit(cache):
    result = evaluate_check("T1.2-1.7", 67, cache)  # default limit is 61
    assert result.passed and result.path_agreement is None
    result = evaluate_check("T1.2-1.7", 61, cache)
    assert result.passed and result.path_agreement is True


# -- structural invariants ----------------------------------------------------------


def test_equivalence_chain(cache):
    """The mod-p and shifted mod-p^3 forms of the alternating central sums
    stand or fall together at every prime."""
    chain = ["T1.1-1.1", "T1.1-1.2", "T1.1-1.4a", "T1.1-1.4b"]
    for p in sieve_primes(PrimeRange(7, 61)):
        outcomes = {i: evaluate_check(i, p, cache).passed for i in chain}
        assert len(set(outcomes.values())) == 1, (p, outcomes)


def test_upper_half_central_square_sum_valuation(cache):
    """v_p of the upper-half sum of C(2k,k)^2/(k 16^k) is >= 2, the guarantee
    consumed before every /p^2 shift."""
    for p in sieve_primes(PrimeRange(7, 97)):
        total = sum(Fraction(comb(2 * k, k) ** 2, k * 16 ** k)
                    for k in range((p + 1) // 2, p))
        assert vp_rational(total, p) >= 2


# -- suite orchestration ---------------------------------------------------------------


def test_run_suite_deterministic_order(cache):
    ids = ["T1.2-1.7", "T1.1-1.1", "L2.2-2.3"]
    primes = [13, 7, 11]
    res1, _ = run_suite(ids, primes, cache, padic_limit=0)
    res2, _ = run_suite(list(reversed(ids)), sorted(primes), cache, padic_limit=0)
    key = lambda r: (r.id, r.p, r.lhs, r.rhs, r.passed, r.applicable)
    assert [key(r) for r in res1] == [key(r) for r in res2]
    assert [(r.id, r.p) for r in res1] == sorted((r.id, r.p) for r in res1)


def _joined_blocks(ids, primes, cache, padic_limit, count):
    """The rows of `_run_block` over the `count` blocks of `primes`, joined
    and sorted as run_suite sorts them, with no timings."""
    rows = [dataclasses.replace(r, elapsed_ms=0.0)
            for block in congruences._blocks(primes, count)
            for r in congruences._run_block(ids, padic_limit, cache, block)]
    return sorted(rows, key=lambda r: (r.id, r.p))


def test_run_suite_parallel_matches_serial(cache):
    """Blocks of 7..31 give the serial rows, though a run of 8 primes this
    small no longer fans out."""
    ids = check_ids("proven")[:8]
    primes = sieve_primes(PrimeRange(7, 31))
    serial = [dataclasses.replace(r, elapsed_ms=0.0)
              for r in run_suite(ids, primes, cache, padic_limit=0, jobs=1)[0]]
    for count in (1, 2, 3):
        assert _joined_blocks(ids, primes, cache, 0, count) == serial, count


def test_run_suite_rows_do_not_depend_on_the_blocks(cache):
    """Each worker sweeps one block of consecutive primes; the rows at one,
    two and three blocks are the same, and every block is non-empty."""
    primes = sieve_primes(PrimeRange(7, 61))
    for count in range(1, len(primes) + 1):
        blocks = congruences._blocks(primes, count)
        assert len(blocks) == count and all(blocks)
        assert [p for block in blocks for p in block] == primes
    ids = check_ids("all")
    serial = [dataclasses.replace(r, elapsed_ms=0.0)
              for r in run_suite(ids, primes, cache, padic_limit=61, jobs=1)[0]]
    for count in (1, 2, 3):
        assert _joined_blocks(ids, primes, cache, 61, count) == serial, count


@pytest.mark.parametrize("window, jobs, padic_limit, count", [
    ("997:1013", 2, 61, 1), ("991:1009", 2, 61, 1), ("1009:1019", 2, 61, 1),
    ("997:1013", 3, 61, 1), ("991:1009", 3, 61, 1), ("1009:1019", 3, 61, 1),
    ("997:1013", 8, 61, 1), ("7:31", 2, 61, 1), ("7:61", 2, 61, 1), ("7:61", 8, 61, 1),
    ("997:1031", 2, 61, 1), ("7:499", 1, 61, 1),
    ("7:499", 2, 61, 2), ("3:251", 2, 61, 2), ("997:1100", 2, 61, 2), ("1000:1999", 2, 61, 2),
    ("7:499", 3, 61, 3), ("7:499", 8, 61, 8), ("3433:3469", 5000, 0, 7),
    ("997:1031", 2, 1100, 2), ("3:251", 2, 251, 2),
    ("997:1033", 5000, 0, 2), ("997:1031", 5000, 0, 1),
])
def test_a_run_fans_out_only_when_its_blocks_pay_for_their_start(window, jobs, padic_limit,
                                                                 count):
    """Every block's first prime re-sweeps the PRIME_FREE rows from k = 1,
    so each block carries at least _BLOCK_WORK: three primes near 1000 run
    as one block in this process, and more workers than the run's work
    fills stay idle: 997..1031, 6540 units of work, is one block at any
    number of workers, and 997..1033, 7648 units, is two.  The p-adic path
    makes each prime dearer, so six primes near 1000 split on it alone."""
    primes = sieve_primes(PrimeRange(*map(int, window.split(":"))))
    blocks = congruences._plan(primes, jobs, padic_limit)
    assert len(blocks) == count
    assert [p for block in blocks for p in block] == primes
    if count > 1:
        assert blocks == congruences._blocks(primes, count)


def test_pool_starts_at_most_one_worker_per_prime(fan_out_sizes, cache):
    """A fan-out forks all its children at its start, so --jobs 5000 over
    the 7 primes 3433..3469, one block each, or over two identities, must
    run on 7 and 2 workers, this process counted as one."""
    ids = ["T1.1-1.1", "T1.2-1.7"]
    primes = sieve_primes(PrimeRange(3433, 3469))
    assert congruences._plan(primes, 5000, 0) == [[p] for p in primes]
    pooled, _ = run_suite(ids, primes, cache, padic_limit=0, jobs=5000)
    serial, _ = run_suite(ids, primes, cache, padic_limit=0, jobs=1)
    row = lambda r: dataclasses.replace(r, elapsed_ms=0.0)
    assert [row(r) for r in pooled] == [row(r) for r in serial]
    names = ["APERY", "TELE1"]
    assert (run_identity_suite(names, range(0, 6), jobs=5000)
            == run_identity_suite(names, range(0, 6), jobs=1))
    assert fan_out_sizes == [len(primes), 2]


def test_each_prime_builds_one_padic_context(monkeypatch, cache):
    """Every check at a prime runs at the one working precision PADIC_PREC."""
    built = []

    class CountingPadicContext(congruences.PadicContext):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.p)

    monkeypatch.setattr(congruences, "PadicContext", CountingPadicContext)
    results, summary = run_suite(check_ids("all"), [61], cache, padic_limit=61)
    assert built == [61]
    assert summary["path_disagreements"] == 0
    assert all(r.path_agreement for r in results)


@pytest.mark.parametrize("table, index", [("bernoulli", 10), ("bernoulli", 8),
                                          ("euler", 10)],
                         ids=["B_p-3", "B_p-5", "E_p-3"])
def test_corrupt_special_number_raises_instead_of_failing(table, index):
    """A wrong B_{p-3}, B_{p-5} or E_{p-3} at p = 13 is an engine fault,
    never a failed check: every residue is cross-checked where it is read."""
    corrupt = SpecialCache()
    corrupt.ensure_bernoulli(10)  # the sizes the run needs, so they are kept
    corrupt.ensure_euler(10)
    getattr(corrupt, table)[index] += 1
    with pytest.raises(InternalInconsistency):
        run_suite(check_ids("all"), [13], corrupt, padic_limit=0)


def test_euler_number_is_the_one_the_character_sum_route_covers():
    """`euler()` is E_{p-3} on both paths, the one index the character-sum
    route covers, and E_0 = 1 at p = 3."""
    assert ExactContext(13, SpecialCache()).euler() == -50521
    padic = PadicContext(13).euler()
    assert (padic.val, padic.prec, padic.unit) == (0, 1, -50521 % 13)
    assert ExactContext(3, SpecialCache()).euler() == 1
    assert PadicContext(3).euler().residue(congruences.PADIC_PREC) == 1


def test_special_numbers_from_index_60_up_come_by_index(monkeypatch):
    """The index alone picks the route.  A run builds each triangle at most
    once, below INDEX_MIN and only when it reads an index there, and reads
    every B_{p-3}, B_{p-5} and E_{p-3} from INDEX_MIN up by index, once at
    its prime, even from a cache whose tables hold it."""
    built, by_index = [], []
    for name in ("_tangent_numbers", "_secant_numbers"):
        triangle = getattr(special, name)
        monkeypatch.setattr(special, name,
                            lambda k, name=name, triangle=triangle:
                            built.append((name, k)) or triangle(k))
    for name in ("bernoulli_by_index", "euler_by_index"):
        route = getattr(special, name)
        monkeypatch.setattr(special, name,
                            lambda n, name=name, route=route:
                            by_index.append((name, n)) or route(n))
    held = SpecialCache()
    held.ensure_bernoulli(496)
    held.ensure_euler(496)
    to_499 = sieve_primes(PrimeRange(7, 499))
    for primes, cache, triangles in (
            (to_499, SpecialCache(), [("_tangent_numbers", 29), ("_secant_numbers", 29)]),
            (to_499, held, []),
            ([997, 1009, 1013], SpecialCache(), [])):
        built.clear()
        by_index.clear()
        run_suite(check_ids("all"), primes, cache, padic_limit=0)
        assert built == triangles
        assert sorted(by_index) == sorted(
            (name, i) for p in primes
            for name, i in (("bernoulli_by_index", p - 3), ("bernoulli_by_index", p - 5),
                            ("euler_by_index", p - 3))
            if i >= special.INDEX_MIN)


def test_direct_evaluation_cross_checks_special_numbers():
    """evaluate_check called alone guards its special numbers as run_suite does."""
    corrupt = SpecialCache()
    corrupt.ensure_bernoulli(10)
    corrupt.bernoulli[8] += 1  # B_{p-3} at p = 11
    with pytest.raises(InternalInconsistency):
        evaluate_check("T1.1-1.1", 11, corrupt)


def test_shared_contexts_change_no_verdict(cache):
    """Rows built on the contexts a prime shares equal rows built on fresh
    contexts per check: no memo key collides across sums, primes or
    precisions."""
    ids = check_ids("all")
    primes = sieve_primes(PrimeRange(3, 61))
    shared, _ = run_suite(ids, primes, cache, padic_limit=61)
    fresh = [evaluate_check(i, p, cache, padic_limit=p)
             for i in sorted(ids) for p in primes]
    row = lambda r: dataclasses.replace(r, elapsed_ms=0.0)
    assert [row(r) for r in shared] == [row(r) for r in fresh]


TRACED = [
    (congruences, "evaluate_check"), (congruences, "_compare_pairs"),
    (congruences, "rat_reduce_mod"), (congruences, "PadicContext"),
    (cli, "run_suite"), (cli, "run_identity_suite"), (cli, "emit_report"),
    (SpecialCache, "ensure_bernoulli"), (SpecialCache, "ensure_euler"),
    (PAdic, "from_rational"),
    (identities, "evaluate_identity"), (identities, "check_recurrence"),
]


@pytest.mark.parametrize("owner, name", TRACED, ids=[name for _, name in TRACED])
def test_names_the_benchmark_tracer_wraps_resolve(owner, name):
    """bench/tracer.py wraps these names where their callers bind them and
    reads 0 for a name that is gone, so a rename must fail here."""
    assert callable(getattr(owner, name, None))


def test_summary_counts(cache):
    results, summary = run_suite(["T1.1-1.1", "CJ1.2-d-lit"], [5, 7], cache,
                                 padic_limit=0)
    assert summary["total"] == 4
    assert summary["inapplicable"] == 1  # T1.1-1.1 at p = 5
    assert summary["by_status"]["proven"]["passed"] == 1
    assert summary["by_status"]["exploratory"]["failed"] == 2
