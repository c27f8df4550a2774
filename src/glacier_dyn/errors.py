"""Exception types shared across the package."""


class GlacierDynError(Exception):
    """Base class for all package-specific errors."""


class NonDifferentiablePoint(GlacierDynError):
    """Derivative requested exactly at a kink of a piecewise-linear sigmoid."""


class DomainError(GlacierDynError):
    """State outside the admissible domain (theta > 0, lambda > 0)."""


class ComplexSnowline(GlacierDynError):
    """Snow-line radicand eps + 2*lambda + 1/4 is negative."""


class NoBranches(GlacierDynError):
    """Branch hypothesis violated; carries the critical eps threshold."""

    def __init__(self, message: str, eps_threshold: float):
        super().__init__(message)
        self.eps_threshold = eps_threshold


class DegenerateSlope(GlacierDynError):
    """f'(theta_c) = 0; threshold formulas divide by it."""


class NotHopfCandidate(GlacierDynError):
    """Critical point does not satisfy g'_c > f'_c > 0."""


class NotTangent(GlacierDynError):
    """Critical point is not an f' = g' tangency."""


class ConditioningError(GlacierDynError):
    """Transformation too ill-conditioned for a reliable numerical result."""


class StiffnessError(GlacierDynError):
    """Integrator step size underflowed, or the rates at the start overflow
    the first-step rule; carries the last reached state."""

    def __init__(self, message: str, time: float, state: tuple[float, float]):
        super().__init__(message)
        self.time = time
        self.state = state


class OracleMismatch(GlacierDynError):
    """Numerical oracle disagrees with a closed form beyond tolerance."""


class ConfigError(GlacierDynError):
    """Malformed parameter file or command-line configuration."""


class ScaleError(ConfigError):
    """A derived scale came out non-finite or nonpositive; carries the
    offending symbol."""

    def __init__(self, symbol: str, value: float):
        super().__init__(f"scale {symbol} = {value!r} must be finite and positive")
        self.symbol = symbol
        self.value = value


class TangencyWarning(UserWarning):
    """Nullclines nearly tangent; the root count may be unreliable."""
