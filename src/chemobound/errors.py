"""Exception types shared across the package."""


class ChemoboundError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(ChemoboundError, ValueError):
    """A parameter violates a precondition (sign, range, or consistency)."""


class EpsilonError(ParameterError):
    """The auxiliary epsilon is outside its range.  The message starts with
    the word epsilon, which a caller that knows the value's config key
    replaces by the key."""


class InfeasibleError(ParameterError):
    """The admissible parameter box is empty, or holds no candidate whose
    bound is in float range: a rejected input, as the box check of the
    command line reports it."""


class NonpositiveDenominatorError(ChemoboundError, ValueError):
    """The bound integrand's denominator is nonpositive somewhere on the
    integration range."""

    def __init__(self, message: str, root: float | None = None):
        super().__init__(message)
        self.root = root


class DivergenceError(ChemoboundError, ValueError):
    """The bound integral diverges (no superlinear power term)."""


class ConfigError(ChemoboundError, ValueError):
    """A run configuration is malformed (unknown key, bad value, missing
    required entry)."""
