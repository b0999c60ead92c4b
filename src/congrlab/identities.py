"""Exact verification of the finite binomial-sum identities and their
recurrence certificates.

Every identity is evaluated by summation over exact rationals at each
instance n; every sum over k is a row of `sums.SUMS`.  A row whose terms
depend on n is summed at each n by binary splitting (`row_sum`) or, for
SIGMA's weighted lhs, stepped term by term as integers over one
denominator (`row_numerators`).  A row whose terms do not depend on n is a
running prefix over the rising n of a run, read off the run's own
`sums.Cursor` under the same closed-form guard, so each k is folded once;
a read more than one term behind its cursor, as a descending or shuffled
n makes, starts it again.  A recurrence certificate, checked on both
sides, plus verified base cases then proves the identity for every n the
suite visited.  Within one run each side is summed once per n, and the
certificates read those values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .errors import DomainError, UnknownIdentity
from .fanout import cut, fan_out
from .special import harmonic_gap_numerators
from .sums import Cursor, row_numerators, row_sum


@dataclass
class IdentityCase:
    """One instance; `passed` means lhs == rhs and every certificate
    residual at n is 0."""

    name: str
    n: int
    lhs: Fraction
    rhs: Fraction
    passed: bool
    recurrence_residual: Fraction = Fraction(0)
    note: str = ""


def _sigma_lhs(n):
    # the prodinger row times H(n+k) - H(n-k), which is not hypergeometric,
    # both as integers over L = lcm(1..2n): the sum is over L^2, reduced once
    L, gaps = harmonic_gap_numerators(n)
    _, terms = row_numerators("prodinger", n, 1, n, L)
    return Fraction(sum(t * h for t, h in zip(terms, gaps, strict=True)), L * L)


# -- identity catalog ---------------------------------------------------
# Each entry: (domain start, lhs(n, F), rhs(n, F)).  Every sum over k is a
# row of SUMS: `row_sum` at a = n for a row whose terms depend on n, and the
# run's running prefix F at a fixed a for one whose terms do not; the right
# sides' leading factors are closed forms.


IDENTITY_CATALOG = {
    "APERY": (1, lambda n, F: row_sum("apery", n, 1, n),
              lambda n, F: 5 * F("alt_inv_k3", 0, 1, n) + 2 * F("h3", 0, 1, n)),
    "SIGMA": (1, lambda n, F: _sigma_lhs(n),
              lambda n, F: Fraction(5, 2) * F("alt_k2", 0, 1, n) + 2 * F("h2", 0, 1, n)),
    "SHIFT": (0, lambda n, F: row_sum("sq_shifted", 2 * n + 1, 0, n),
              lambda n, F: Fraction(comb(2 * n, n) ** 2, 16 ** n)
              * F("odd_recip", 0, 0, 2 * n)),
    "LUKE": (1, lambda n, F: row_sum("luke", n, 0, n - 1),
             lambda n, F: Fraction(comb(2 * n, n) ** 2, 4 ** (2 * n - 1))
             * F("odd_recip", 0, 0, n - 1)),
    "ODDSQ": (1, lambda n, F: row_sum("oddsq", n, 0, n),
              lambda n, F: Fraction(1, (2 * n + 1) ** 2)
              + Fraction(2, 2 * n + 1) * F("odd_recip", 0, 0, n - 1)),
    "TELE1": (0, lambda n, F: F("sq_shifted", -1, 0, n),
              lambda n, F: Fraction(-(2 * n + 1) * comb(2 * n, n) ** 2, 16 ** n)),
    "GLAISHER4": (0, lambda n, F: F("glaisher4", 0, 0, n),
                  lambda n, F: Fraction((8 * n * n + 4 * n + 1) * comb(2 * n, n) ** 4,
                                        256 ** n)),
    "BBAG": (1, lambda n, F: row_sum("bbag", n, 1, n), lambda n, F: Fraction(2, 5 * n * n)),
    "PRODINGER": (1, lambda n, F: row_sum("prodinger", n, 1, n),
                  lambda n, F: -2 * F("h1", 0, 1, n)),
}


# -- recurrence certificates --------------------------------------------
# Each certificate annihilates BOTH sides of its identity, so base cases
# plus a zero residual prove the identity by induction.  RECURRENCES names
# the identity each one certifies and its first n; _RESIDUALS its residual
# at n of a side `seq`.
#   APERY-REC : certificate of SIGMA, (n+1)^2 (s_{n+1} - s_n) = 2 - 5(-1)^n C(2n+1,n)
#   SHIFT-REC : certificate of SHIFT
#   ODDSQ-REC : certificate of ODDSQ
RECURRENCES = {
    "APERY-REC": ("SIGMA", 1),
    "SHIFT-REC": ("SHIFT", 0),
    "ODDSQ-REC": ("ODDSQ", 1),
}

_RESIDUALS = {
    "APERY-REC": lambda n, seq: ((n + 1) ** 2 * (seq(n + 1) - seq(n))
                                 - (2 - 5 * (-1) ** n * comb(2 * n + 1, n))),
    "SHIFT-REC": lambda n, seq: ((2 * n + 1) ** 2 * seq(n) - 4 * (n + 1) ** 2 * seq(n + 1)
                                 - Fraction(-8 * (4 * n ** 3 + 8 * n * n + 5 * n + 1)
                                            * comb(2 * n, n) ** 2,
                                            (4 * n + 3) * (4 * n + 5) * 16 ** n)),
    "ODDSQ-REC": lambda n, seq: ((n + 1) * (2 * n + 5) ** 2 * seq(n + 2)
                                 - (2 * n + 3) * (4 * n * n + 12 * n + 7) * seq(n + 1)
                                 + (n + 2) * (2 * n + 1) ** 2 * seq(n)),
}


def _sides(name: str):
    """The identity's (lhs, rhs) for one run, each memoized for the life of
    the pair, so a run sums each side once per n and its certificate reads
    those values.  Both read their n-free rows through the run's own
    cursors, one per (row, a, lo)."""
    _, lhs, rhs = IDENTITY_CATALOG[name]
    cursors = {}

    def prefix(row, a, lo, hi):
        cursor = cursors.get((row, a, lo))
        if cursor is None or hi < cursor.at - 1:
            cursor = cursors[row, a, lo] = Cursor(row, a, lo)
        return cursor.prefix(a, hi)

    return cache(lambda n: lhs(n, prefix)), cache(lambda n: rhs(n, prefix))


def check_recurrence(name: str, n: int, side: str = "lhs", *, sides=None) -> Fraction:
    """Residual of a recurrence certificate at n, on one side of its identity.

    `side` is "lhs" or "rhs".  `sides` are a run's memoized sides of that
    identity (`_sides`); fresh ones are built when it is omitted.
    """
    if name not in RECURRENCES:
        raise UnknownIdentity(f"unknown recurrence {name!r}")
    if side not in ("lhs", "rhs"):
        raise ValueError(f"side must be 'lhs' or 'rhs', got {side!r}")
    ident, start = RECURRENCES[name]
    if n < start:
        raise DomainError(f"{name} needs n >= {start}")
    lhs, rhs = sides if sides is not None else _sides(ident)
    return _RESIDUALS[name](n, lhs if side == "lhs" else rhs)


_IDENTITY_TO_REC = {ident: rec for rec, (ident, _) in RECURRENCES.items()}


def evaluate_identity(name: str, n: int, *, sides=None) -> IdentityCase:
    """Both sides at n and, for a certified identity, the certificate's
    residual on each side; `recurrence_residual` is the first nonzero one
    (lhs first), or 0."""
    if name not in IDENTITY_CATALOG:
        raise UnknownIdentity(f"unknown identity {name!r}")
    start = IDENTITY_CATALOG[name][0]
    if n < start:
        raise DomainError(f"{name} is declared for n >= {start}, got {n}")
    if sides is None:
        sides = _sides(name)
    lhs, rhs = (side(n) for side in sides)
    residual = Fraction(0)
    rec = _IDENTITY_TO_REC.get(name)
    if rec is not None and n >= RECURRENCES[rec][1]:
        residuals = [check_recurrence(rec, n, side, sides=sides) for side in ("lhs", "rhs")]
        residual = next((r for r in residuals if r != 0), residual)
    return IdentityCase(name, n, lhs, rhs, lhs == rhs and residual == 0, residual)


def _run_identity(name: str, n_range) -> list[IdentityCase]:
    start = IDENTITY_CATALOG[name][0]
    sides = _sides(name)
    return [evaluate_identity(name, n, sides=sides) for n in n_range if n >= start]


def run_identity_suite(names=None, n_range=range(1, 51), jobs: int = 1) -> list[IdentityCase]:
    """Evaluate every (name, n) pair, name by name in the order given and n
    rising, with up to `jobs` workers, at most one per identity.  Each worker, this process the first
    and a forked child each other (`fan_out`), runs every identity over its
    own run of consecutive n, cut (`cut`) to about equal sums of n + 1,
    since a left side that depends on n sums n terms at each n, and of 0
    below n = 0, where no identity is declared; a platform without
    `os.fork` runs the plain loop.  An error in a case is an engine
    fault and propagates, never a failed case."""
    names = list(IDENTITY_CATALOG) if names is None else list(names)
    for name in names:
        if name not in IDENTITY_CATALOG:
            raise UnknownIdentity(f"unknown identity {name!r}")
    ns = list(n_range)
    count = min(jobs, len(names), len(ns))
    shares = cut(ns, count, lambda n: max(n + 1, 0)) if count else []
    chunks = fan_out(lambda share: [_run_identity(name, share) for name in names], shares)
    return [case for runs in zip(*chunks) for run in runs for case in run]
