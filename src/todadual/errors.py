"""Exception types shared across the package.

Numerical-geometry code fails in structured ways: a matrix stops being a
group element, a spectrum collides, a chamber constraint is violated.  Each
failure mode gets its own class so callers (and the CLI) can map them to
distinct exit paths instead of parsing message strings.
"""


class TodaDualError(Exception):
    """Base class for all package errors."""


class ValidationError(TodaDualError, ValueError):
    """Malformed input: wrong shape, non-finite entries, bad rank."""


class AlgebraMembershipError(TodaDualError):
    """A matrix fails the defining relation of the Lie algebra."""


class NonGenericPointError(TodaDualError):
    """Base for failures caused by a non-generic phase-space point."""


class DegenerateSpectrumError(NonGenericPointError):
    """Eigenvalue collision (or a vanishing gap) below the working tolerance."""


class SingularConfigurationError(NonGenericPointError):
    """Coordinates too close to a pole of a rational expression."""


class ChamberError(NonGenericPointError):
    """Point violates the open chamber (ordering / positivity) constraints."""


class GaussCellError(NonGenericPointError):
    """Matrix lies outside the big Gauss cell: a pivot minor vanishes."""


class SingularMatrixError(TodaDualError):
    """Matrix numerically singular where an inverse/decomposition is needed."""


class DualityResidualError(TodaDualError):
    """A duality-map consistency residual exceeded its tolerance."""


class StepFailureError(TodaDualError):
    """Implicit integrator step failed to converge."""
