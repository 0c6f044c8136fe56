"""Exception types shared across the package."""


class AridError(Exception):
    """Base class for every error this package raises on purpose."""


class NonFinite(AridError):
    """Input contains NaN or Inf where finite values are required."""


class SingularSystem(AridError):
    """Normal matrix is rank-deficient and no regularization was requested."""


class NotPositiveDefinite(AridError):
    """A Cholesky pivot was not positive; the assembled system is not SPD."""


class NoConvergence(AridError):
    """An iterative routine hit its iteration cap without converging."""


class HorizonTooShort(AridError):
    """The series has too few steps for the requested operation."""


class EmbeddingTooShort(AridError):
    """A window of fewer than two values cannot be turned into a path."""


class NotConjugateClosed(AridError):
    """Root multiset is not closed under complex conjugation."""


class ZeroNormReference(AridError):
    """Reference vector of a relative error has zero norm."""


class IndexOutOfRange(AridError):
    """Requested window or channel lies outside the series."""


class ParseError(AridError):
    """A value in an input file could not be parsed."""


class RaggedRows(AridError):
    """Rows of an input file have inconsistent lengths."""
