"""Exception types shared across the package."""


class QdimError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZeroSeries(QdimError):
    """Series division where the divisor's valuation exceeds the dividend's."""


class ZeroDenominatorForm(QdimError):
    """A sinh-ratio was requested with a zero denominator coefficient."""


class PoleAtParameters(QdimError):
    """A denominator linear form of a universal formula vanishes at the given
    parameter point.  The offending form is named in the message."""


class FloatEvaluationError(QdimError):
    """A floating-point evaluation left the range of floats: a value, or an
    instanton term, that is not a finite float."""


class InvalidRank(QdimError):
    """Rank outside the allowed range for the requested root-system family."""


class LengthMismatch(QdimError):
    """Dynkin label list length differs from the root-system rank."""


class UnknownAlgebra(QdimError):
    """Algebra name outside the supported simple-Lie-algebra grammar."""
