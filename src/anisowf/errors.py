"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ToolkitError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ResolutionError(ToolkitError):
    """Grid too coarse or too small to represent the requested object."""


class AliasingError(ResolutionError):
    """Phase increment between adjacent samples exceeds the Nyquist guard."""


class TruncationError(ToolkitError):
    """Evaluation point too close to (or beyond) the usable grid extent."""


class UnsupportedRegimeError(ToolkitError):
    """Index pair outside the regimes a prediction is stated for."""


class GraphConditionError(ToolkitError):
    """Kernel wave front set touches one of the forbidden coordinate planes."""


class ConfigError(ToolkitError):
    """Invalid or incomplete experiment configuration."""
