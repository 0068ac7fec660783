"""Exception types shared across the package, and the checks that turn a
config value into the type its field needs or raise ``ConfigError``."""

import numbers
import sys


class InputError(ValueError):
    """Raised when an argument violates an operation's precondition."""


class ConfigError(ValueError):
    """Raised when a configuration or type invariant is violated."""


def as_int(name: str, value) -> int:
    """``value`` as an int: an integer, or a float with an integral value
    such as 1e5. A bool, a string or 2.7 is a ``ConfigError``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def as_float(name: str, value) -> float:
    """``value`` as a float: a finite real number, not a bool or a string."""
    # the bound also rejects NaN, which compares false
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def as_tuple(name: str, values, kind) -> tuple:
    """A list (or tuple) ``values`` as a tuple of ``kind``, ``int`` or
    ``float``, each entry checked by ``as_int`` or ``as_float``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    convert = as_int if kind is int else as_float
    return tuple(convert(f"{name}[{j}]", v) for j, v in enumerate(values))
