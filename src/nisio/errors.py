"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised for non-finite data or arguments outside an operation's domain."""


class ConfigurationError(ValueError):
    """Raised for structurally invalid specs, families, or policies."""


class GridKindError(ConfigurationError):
    """Raised when a member cannot live on its grid's kind."""


class ResolutionError(ConfigurationError):
    """Raised when a requested probe is below the grid resolution."""


class NumericalDegeneracyError(RuntimeError):
    """Raised when a computed quantity loses the structure the scheme needs
    (e.g. OU moments that overflow)."""
