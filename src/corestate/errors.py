"""Exception types shared across the package, and the integer reader of
every configuration loader."""

import math
from numbers import Integral


class ConfigurationError(ValueError):
    """Invalid geometry, sensor, or cross-section configuration."""


class DegenerateProblemError(ValueError):
    """A computation has no meaningful answer (zero fission source,
    all-zero power map, zero reference norm)."""


class IterationLimitError(RuntimeError):
    """An iterative solve exhausted its iteration budget.

    Carries the last iterate so callers can inspect how far it got.
    """

    def __init__(self, message, last_solution=None):
        super().__init__(message)
        self.last_solution = last_solution


class SingularOperatorError(RuntimeError):
    """A reconstruction operator is numerically rank deficient."""


def config_int(value, name: str) -> int:
    """`value` of the configuration field `name` as an int.  An integer
    or an integral float (45.0, 1e3) is taken; anything else, a bool or
    a string included, raises `ConfigurationError` naming the field,
    rather than being truncated or failing as a bare `ValueError`."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and math.isfinite(value) \
            and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")
