"""Exception classes shared across the package.

Each class maps to a distinct CLI exit code (see cli.EXIT_CODES), so
callers can tell configuration mistakes apart from domain violations or
resource limits without parsing messages.
"""


class ConfigError(ValueError):
    """Bad run configuration: unknown key, missing key, or wrong type."""


class StructuralError(ValueError):
    """Structurally inconsistent inputs, e.g. parallel lists of unequal length."""


class DomainError(ValueError):
    """Value outside the documented domain of an operation."""


class SearchBoundError(RuntimeError):
    """Enumeration would exceed the configured search bound; never truncated silently."""


class BudgetError(RuntimeError):
    """Requested work exceeds a fixed size cap (exact DP cells, Monte Carlo
    samples * k_max, lines, line width, simulation state)."""


class UnsupportedModelError(TypeError):
    """Operation invoked with an incentive model variant it does not support."""
