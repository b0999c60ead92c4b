"""Exception hierarchy for the congrlab engine."""


class CongrlabError(Exception):
    """Base class for all engine errors."""


class NegativeValuation(CongrlabError):
    """A rational with p in its denominator cannot be reduced mod p^e."""


class PrecisionExhausted(CongrlabError):
    """A requested p-adic digit is not significant at the working precision."""


class ValuationViolation(CongrlabError):
    """A divisibility that the theory guarantees failed to hold.

    Either an engine bug or a genuine counterexample; never swallowed.
    """


class InternalInconsistency(CongrlabError):
    """A value missed its independent route (a special-number residue its
    power sum, a sum row's ratio its closed form), or the p-adic path raised.
    An engine fault, not a verdict; two paths that disagree give a row with
    path_agreement False."""


class UnknownIdentity(CongrlabError):
    """Identity name not present in the catalog."""


class UnknownCheck(CongrlabError):
    """Congruence check id not present in the catalog."""


class UnknownSeries(CongrlabError):
    """Series name not present in the catalog."""


class DomainError(CongrlabError):
    """Instance index outside an identity's declared domain."""
