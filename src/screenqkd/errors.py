"""Exception types shared across the simulator, and the argument checks
that raise them."""

import math
import numbers


class ParameterError(ValueError):
    """A numeric argument is outside its allowed range."""


class ProtocolError(RuntimeError):
    """The protocol state machine was driven out of order or with bad data."""


class ConfigError(ValueError):
    """An experiment configuration is invalid; carries the offending field name."""


def check_int(
    name: str, value: object, minimum: float = -math.inf, error: type = ParameterError
) -> None:
    """Require an integer (bool excluded) that is at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name}: must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name}: must be >= {minimum}, got {value}")


def check_real(
    name: str,
    value: object,
    low: float = -math.inf,
    high: float = math.inf,
    error: type = ParameterError,
) -> None:
    """Require a finite real number (bool excluded) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name}: must be a number, got {value!r}")
    if not (math.isfinite(value) and low <= value <= high):
        raise error(f"{name}: must be a finite number in [{low}, {high}], got {value}")
