"""Double-precision sanity checks of the motivating infinite series.

Each series sums a row of `sums.SUMS` in floats: its first term is the
closed form, rounded once, and each next term a step by the row's ratio.
A `direct` series reports its partial sum; a `tail2` series, whose terms
decay only like 1/k^2, adds an estimate of its tail from the last term.
The closed-form targets use fixed decimal literals for pi, log 2, zeta(3) and
Catalan's constant; the test suite cross-checks each literal against two
independent classical series.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownSeries
from .sums import SUMS

PI = 3.14159265358979323846
LOG2 = 0.69314718055994530942
ZETA3 = 1.20205690315959428540
CATALAN = 0.91596559417721901505


@dataclass
class SeriesReport:
    name: str
    terms: int
    partial: float
    target: float
    error: float
    tolerance: float
    converged: bool


@dataclass(frozen=True)
class SeriesSpec:
    name: str
    row: str          # the row of sums.SUMS whose terms are summed
    a: int            # the row's parameter; only sq_shifted reads it here
    lo: int           # the first k
    target: float
    default_terms: int
    tolerance: float
    mode: str  # direct (the partial sum) | tail2 (plus a c/k^2 tail estimate)
    sign: int = 1     # the series sums sign * t_k


SERIES_CATALOG = {s.name: s for s in (
    SeriesSpec("S-ZETA2", "inv_k2", 0, 1, PI * PI / 18, 200, 1e-12, "direct"),
    SeriesSpec("S-APERY3", "alt_inv_k3", 0, 1, -0.4 * ZETA3, 200, 1e-12, "direct"),
    SeriesSpec("S-LOG2G", "sq_k1", 0, 1, 4 * LOG2 - 8 * CATALAN / PI,
               100_000, 1e-6, "tail2"),
    SeriesSpec("S-PI3", "odd1", 0, 0, PI / 3, 200, 1e-12, "direct"),
    SeriesSpec("S-PI2-10", "odd2_alt", 0, 0, PI * PI / 10, 200, 1e-12, "direct"),
    SeriesSpec("S-4G", "sq_odd1", 0, 0, 4 * CATALAN / PI, 100_000, 1e-6, "tail2"),
    SeriesSpec("S-72Z3", "inv_sq_odd3", 0, 0, 3.5 * ZETA3 - CATALAN * PI,
               100_000, 1e-6, "tail2"),
    # C(2k,k)^2/((2k-1) 16^k): TELE1's row
    SeriesSpec("S-NEG2PI", "sq_shifted", -1, 0, -2 / PI, 100_000, 1e-6, "tail2"),
    # (4k-1) C(2k,k)^4/((2k-1)^4 256^k), the negated GLAISHER4 summand
    SeriesSpec("S-NEG8PI2", "glaisher4", 0, 0, -8 / (PI * PI), 10_000, 1e-10, "direct",
               sign=-1),
)}


def evaluate_series(name: str, terms: int | None = None,
                    tol: float | None = None) -> SeriesReport:
    if name not in SERIES_CATALOG:
        raise UnknownSeries(f"unknown series {name!r}")
    spec = SERIES_CATALOG[name]
    count = terms if terms is not None else spec.default_terms
    if count < 1:
        raise ValueError("terms must be >= 1")
    tolerance = tol if tol is not None else spec.tolerance

    closed_form, ratio = SUMS[spec.row]
    term = float(closed_form(spec.a, spec.lo))
    total = term
    for k in range(spec.lo, spec.lo + count - 1):
        num, den = ratio(spec.a, k)
        term *= num / den
        total += term

    partial = total
    if spec.mode == "tail2" and count > 2:
        # terms decay like c/K^2 at the K-th; estimate c from the last term and
        # append the psi'(K+1) tail so the truncation error drops to ~c/K^2
        c = term * count * count
        x = count + 1.0
        partial = total + c * (1.0 / x + 1.0 / (2 * x * x) + 1.0 / (6 * x ** 3))
    partial *= spec.sign  # exact: the same as negating every term

    error = abs(partial - spec.target)
    return SeriesReport(name, count, partial, spec.target, error, tolerance,
                        error <= tolerance)


def run_series_suite(names=None, terms: int | None = None,
                     tol: float | None = None) -> list[SeriesReport]:
    if names is None:
        names = list(SERIES_CATALOG)
    for n in names:
        if n not in SERIES_CATALOG:
            raise UnknownSeries(f"unknown series {n!r}")
    return [evaluate_series(n, terms, tol) for n in names]
