"""Exception types shared across the package, and the readers of every
configuration loader: integers, numbers and objects with a fixed key
set."""

import math
from numbers import Integral, Real


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


def config_number(value, name: str) -> float:
    """`value` of the configuration field `name` as a float.  A finite
    real is taken; anything else, a bool, a string, NaN or an infinity
    included, raises `ConfigurationError` naming the field."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigurationError(
        f"{name} must be a number, finite and real, got {value!r}")


def config_object(value, keys, where: str, kind: str = "keys") -> dict:
    """`value`, the configuration object found at `where`, if it is a
    dict whose keys are all among `keys`; otherwise `ConfigurationError`
    names the unknown keys (of the `kind` given) and `where`."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigurationError(
            f"{where} has unknown {kind} {unknown}: expected "
            f"{', '.join(keys)}")
    return value
