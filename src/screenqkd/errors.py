"""The simulator's one invalid-input exception type, and the argument
checks that raise it."""

import math
import numbers
import sys


class ConfigError(ValueError):
    """Invalid input: a parameter is out of range, of the wrong type, or not
    meaningful with the others; the message names the offending field."""


def check_int(
    name: str, value: object, minimum: float = -math.inf, maximum: float = math.inf
) -> None:
    """Require an integer (bool excluded) in [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name}: must be >= {minimum}, got {value}")
    if value > maximum:
        raise ConfigError(f"{name}: must be <= {maximum}, got {value}")


def check_real(
    name: str, value: object, low: float = -math.inf, high: float = math.inf
) -> None:
    """Require a finite real number (bool excluded) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name}: must be a number, got {value!r}")
    # Comparisons, unlike math.isfinite, also reject ints too large for a float.
    if not (low <= value <= high and abs(value) <= sys.float_info.max):
        raise ConfigError(
            f"{name}: must be a finite number in [{low}, {high}], got {value}"
        )
