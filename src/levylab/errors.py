"""Exception and warning types shared across the package."""


class LevyLabError(Exception):
    """Base class for all levylab errors."""


class NonFiniteDensity(LevyLabError):
    """A Levy density returned NaN or a negative value at a quadrature node."""


class QuadratureFailure(LevyLabError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message, achieved_error=None, value=None):
        super().__init__(message)
        self.achieved_error = achieved_error
        self.value = value


class InvalidAlpha(LevyLabError):
    """Stability index outside (0, 2]."""


class InvalidExponent(LevyLabError):
    """Lebesgue exponent p < 1."""


class InvalidExponents(LevyLabError):
    """Hypercontractivity exponents violating q >= p >= 2."""


class DegenerateField(LevyLabError):
    """Field with vanishing Dirichlet energy where a positive one is required."""


class DomainError(LevyLabError):
    """Function evaluated outside its domain (e.g. x log x at 0)."""


class Con1Violation(LevyLabError):
    """Logarithmic tail integral of the Levy density diverges."""


class NegativeDensity(LevyLabError):
    """Inverse transform of a steady-state exponent dipped significantly negative."""


class ConfigError(LevyLabError, ValueError):
    """Malformed experiment configuration.  CLI exit code 2."""


class InterpolationDegradation(UserWarning):
    """Initial coefficients not decayed at the Nyquist edge; off-grid
    frequency interpolation may be inaccurate."""
