"""Exception classes shared across the package.

Each class maps to a CLI exit code (see cli.EXIT_CODES): 2 configuration,
3 structural or domain violations (one code for both), 4 search bound, 5
size cap, 6 unsupported model.  Callers can thus tell configuration
mistakes apart from bad values or resource limits without parsing messages.
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
