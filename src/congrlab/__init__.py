"""congrlab: exact verification of p-adic congruences for central binomial
coefficient sums, with two evaluation paths that must agree."""

from .arith import (
    PAdic,
    PrimeRange,
    Residue,
    rat_reduce_mod,
    sieve_primes,
    vp_rational,
)
from .congruences import (
    CHECK_CATALOG,
    CheckResult,
    CheckSpec,
    check_ids,
    evaluate_check,
    run_suite,
)
from .identities import (
    IDENTITY_CATALOG,
    IdentityCase,
    check_recurrence,
    evaluate_identity,
    run_identity_suite,
)
from .report import emit_report, exit_status
from .series import SERIES_CATALOG, SeriesReport, evaluate_series, run_series_suite
from .special import (
    SpecialCache,
    bernoulli_exact,
    bernoulli_mod_p_fast,
    euler_exact,
    harmonic_exact,
)

__version__ = "0.1.0"
