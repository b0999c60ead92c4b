"""Exact verification of the finite binomial-sum identities and their
recurrence certificates.

Every identity is evaluated by summation over exact rationals at each
instance n; a recurrence certificate, checked on both sides, plus verified
base cases then proves the identity for every n the suite visited.  Within
one run each side is summed once per n, and the certificates read those
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from operator import mul

from .arith import exact_sum
from .errors import DomainError, UnknownIdentity
from .special import harmonic_exact


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


def _odd_recip_sum(n: int) -> Fraction:
    """sum_{k=0}^{n-1} 1/(2k+1)."""
    return exact_sum(Fraction(1, 2 * k + 1) for k in range(n))


# -- identity catalog ---------------------------------------------------
# Each entry: (domain start, lhs(n), rhs(n)).


def _apery_lhs(n):
    return exact_sum(Fraction((-1) ** k, k ** 3 * comb(n, k) * comb(n + k, k))
                     for k in range(1, n + 1))


def _apery_rhs(n):
    return 5 * exact_sum(Fraction((-1) ** k, k ** 3 * comb(2 * k, k))
                         for k in range(1, n + 1)) + 2 * harmonic_exact(n, 3)


def _sigma_lhs(n):
    # H(n+k) - H(n-k), built incrementally
    hdiffs = accumulate(Fraction(1, n + k) + Fraction(1, n - k + 1)
                        for k in range(1, n + 1))
    return exact_sum(comb(n, k) * comb(n + k, k) * Fraction((-1) ** k, k) * hdiff
                     for k, hdiff in enumerate(hdiffs, start=1))


def _sigma_rhs(n):
    return Fraction(5, 2) * exact_sum(Fraction((-1) ** k * comb(2 * k, k), k * k)
                                      for k in range(1, n + 1)) + 2 * harmonic_exact(n, 2)


def _shift_lhs(n):
    return exact_sum(Fraction(comb(2 * k, k) ** 2, (2 * (n + k) + 1) * 16 ** k)
                     for k in range(0, n + 1))


def _shift_rhs(n):
    return Fraction(comb(2 * n, n) ** 2, 16 ** n) * _odd_recip_sum(2 * n + 1)


def _luke_lhs(n):
    return exact_sum(Fraction(comb(2 * k, k) ** 2, (n - k) * 16 ** k)
                     for k in range(0, n))


def _luke_rhs(n):
    return Fraction(comb(2 * n, n) ** 2, 4 ** (2 * n - 1)) * _odd_recip_sum(n)


def _oddsq_lhs(n):
    return exact_sum(Fraction((-1) ** k, (2 * k + 1) ** 2) * comb(n, k) * comb(n + k, k)
                     for k in range(0, n + 1))


def _oddsq_rhs(n):
    return Fraction(1, (2 * n + 1) ** 2) + Fraction(2, 2 * n + 1) * _odd_recip_sum(n)


def _tele1_lhs(n):
    return exact_sum(Fraction(comb(2 * k, k) ** 2, (2 * k - 1) * 16 ** k)
                     for k in range(0, n + 1))


def _tele1_rhs(n):
    return Fraction(-(2 * n + 1) * comb(2 * n, n) ** 2, 16 ** n)


def _glaisher4_lhs(n):
    return exact_sum(Fraction((1 - 4 * k) * comb(2 * k, k) ** 4,
                              (2 * k - 1) ** 4 * 256 ** k) for k in range(0, n + 1))


def _glaisher4_rhs(n):
    return Fraction((8 * n * n + 4 * n + 1) * comb(2 * n, n) ** 4, 256 ** n)


def _bbag_lhs(n):
    n4 = n ** 4
    # running prod_{j<k} (n^4 - j^4)/(4n^4 + j^4)
    prods = accumulate((Fraction(n4 - j ** 4, 4 * n4 + j ** 4) for j in range(1, n)),
                       mul, initial=Fraction(1))
    return exact_sum(comb(2 * k, k) * Fraction(k * k, 4 * n4 + k ** 4) * prod
                     for k, prod in enumerate(prods, start=1))


def _bbag_rhs(n):
    return Fraction(2, 5 * n * n)


def _prodinger_lhs(n):
    return exact_sum(comb(n, k) * comb(n + k, k) * Fraction((-1) ** k, k)
                     for k in range(1, n + 1))


def _prodinger_rhs(n):
    return -2 * harmonic_exact(n)


IDENTITY_CATALOG = {
    "APERY": (1, _apery_lhs, _apery_rhs),
    "SIGMA": (1, _sigma_lhs, _sigma_rhs),
    "SHIFT": (0, _shift_lhs, _shift_rhs),
    "LUKE": (1, _luke_lhs, _luke_rhs),
    "ODDSQ": (1, _oddsq_lhs, _oddsq_rhs),
    "TELE1": (0, _tele1_lhs, _tele1_rhs),
    "GLAISHER4": (0, _glaisher4_lhs, _glaisher4_rhs),
    "BBAG": (1, _bbag_lhs, _bbag_rhs),
    "PRODINGER": (1, _prodinger_lhs, _prodinger_rhs),
}


# -- recurrence certificates --------------------------------------------
# Each certificate annihilates BOTH sides of its identity, so base cases
# plus a zero residual prove the identity by induction.
#   APERY-REC : certificate of SIGMA, (n+1)^2 (s_{n+1} - s_n) = 2 - 5(-1)^n C(2n+1,n)
#   SHIFT-REC : certificate of SHIFT
#   ODDSQ-REC : certificate of ODDSQ
RECURRENCES = {
    "APERY-REC": ("SIGMA", 1),
    "SHIFT-REC": ("SHIFT", 0),
    "ODDSQ-REC": ("ODDSQ", 1),
}


def _recurrence_residual(rec_name: str, n: int, seq) -> Fraction:
    if rec_name == "APERY-REC":
        return ((n + 1) ** 2 * (seq(n + 1) - seq(n))
                - (2 - 5 * (-1) ** n * comb(2 * n + 1, n)))
    if rec_name == "SHIFT-REC":
        inhom = Fraction(-8 * (4 * n ** 3 + 8 * n * n + 5 * n + 1)
                         * comb(2 * n, n) ** 2,
                         (4 * n + 3) * (4 * n + 5) * 16 ** n)
        return (2 * n + 1) ** 2 * seq(n) - 4 * (n + 1) ** 2 * seq(n + 1) - inhom
    if rec_name == "ODDSQ-REC":
        return ((n + 1) * (2 * n + 5) ** 2 * seq(n + 2)
                - (2 * n + 3) * (4 * n * n + 12 * n + 7) * seq(n + 1)
                + (n + 2) * (2 * n + 1) ** 2 * seq(n))
    raise UnknownIdentity(f"unknown recurrence {rec_name!r}")


def _sides(name: str):
    """The identity's (lhs, rhs), each memoized for the life of the pair, so
    a run sums each side once per n and its certificate reads those values."""
    _, lhs, rhs = IDENTITY_CATALOG[name]
    return cache(lhs), cache(rhs)


def check_recurrence(name: str, n: int, side: str = "lhs", *, sides=None) -> Fraction:
    """Residual of a recurrence certificate at n, on one side of its identity.

    `sides` are a run's memoized sides of that identity (`_sides`); fresh
    ones are built when it is omitted.
    """
    if name not in RECURRENCES:
        raise UnknownIdentity(f"unknown recurrence {name!r}")
    ident, start = RECURRENCES[name]
    if n < start:
        raise DomainError(f"{name} needs n >= {start}")
    lhs, rhs = sides if sides is not None else _sides(ident)
    return _recurrence_residual(name, n, lhs if side == "lhs" else rhs)


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


def run_identity_suite(names=None, n_range=range(1, 51)) -> list[IdentityCase]:
    """Evaluate every (name, n) pair; an error in a case is an engine fault
    and propagates, never a failed case."""
    if names is None:
        names = list(IDENTITY_CATALOG)
    cases = []
    for name in names:
        if name not in IDENTITY_CATALOG:
            raise UnknownIdentity(f"unknown identity {name!r}")
        start = IDENTITY_CATALOG[name][0]
        sides = _sides(name)
        for n in n_range:
            if n < start:
                continue
            cases.append(evaluate_identity(name, n, sides=sides))
    return cases
