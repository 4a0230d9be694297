"""Exception hierarchy for the glsreg package."""

__all__ = [
    "GLSError",
    "DomainError",
    "EmptyDomain",
    "InvalidEpsilon",
    "InvalidExponent",
    "NoFiniteMoment",
    "EmptySample",
    "LengthMismatch",
    "NonpositiveDelta",
    "Divergent",
    "ToleranceUnreachable",
    "TruncationInfeasible",
]


class GLSError(Exception):
    """Base class for all glsreg errors."""


class DomainError(GLSError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EmptyDomain(DomainError):
    """An exponent interval, restriction, or intersection is empty."""


class InvalidEpsilon(DomainError):
    """Rate-split parameter eps outside the admissible range (0, min(1, alpha))."""


class InvalidExponent(DomainError):
    """Integrability exponent violates a precondition such as p > 1/eps."""


class NoFiniteMoment(GLSError, ValueError):
    """A moment function is finite on no exponent interval."""


class EmptySample(GLSError, ValueError):
    """An empirical estimator received an empty sample array."""


class LengthMismatch(GLSError, ValueError):
    """Paired arrays differ in length."""


class NonpositiveDelta(GLSError, ValueError):
    """A regulator decay sequence takes a nonpositive value."""


class Divergent(GLSError, ArithmeticError):
    """A series diverges for the requested exponent."""


class ToleranceUnreachable(GLSError, ArithmeticError):
    """Certified truncation cannot reach the requested tolerance under the term cap."""


class TruncationInfeasible(GLSError, ValueError):
    """No admissible truncation length satisfies the remainder target."""
