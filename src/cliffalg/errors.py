"""Exception types shared across the library.

Every error raised by the library derives from CliffordError, so callers
(including the CLI) can distinguish domain failures from genuine bugs.
"""


class CliffordError(Exception):
    """Base class for all library errors."""


class SignatureMismatch(CliffordError):
    """Operands live in algebras with different signatures."""


class DimensionCapExceeded(CliffordError):
    """Requested construction exceeds the configured dimension cap."""


class DimensionMismatch(CliffordError):
    """Vector or matrix dimensions do not agree."""


class NotAVector(CliffordError):
    """Multivector has a nonzero component outside grade 1."""


class NotInvertible(CliffordError):
    """Element has no two-sided inverse."""


class IsotropicVector(CliffordError):
    """Vector with zero quadratic value where an anisotropic one is required."""


class ZeroVector(CliffordError):
    """Zero vector where a nonzero one is required."""


class DegenerateForm(CliffordError):
    """Operation requires a non-degenerate form."""


class NotAnIsometry(CliffordError):
    """Matrix does not preserve the bilinear form."""


class NotStable(CliffordError):
    """Twisted adjoint action maps some vector outside the vector space."""


class NotInGroup(CliffordError):
    """Element fails a group membership requirement."""


class NotIdempotent(CliffordError):
    """Element does not satisfy f*f = f."""


class UnexpectedDimension(CliffordError):
    """Computed dimension falls outside the admissible set."""


class NotSimple(CliffordError):
    """Construction needs elements of a single simple component."""


class NoSolution(CliffordError):
    """Exact linear system has no solution."""


class SearchFailed(CliffordError):
    """Deterministic search exhausted its space without success."""


class CoefficientTooLarge(CliffordError):
    """A coefficient's numerator or denominator passed the fixed bit budget."""


class ParseError(CliffordError):
    """Malformed expression, vector, or matrix text.

    position is the 0-based offset of the offending token when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
