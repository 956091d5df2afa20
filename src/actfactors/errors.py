"""Exception taxonomy shared across the package, and the rules of the settings:
lists, flags, integers and the bounded options (r_max, r_min, j, k).

Two branches matter for the CLI: ConfigError maps to exit code 2,
DataError (and subclasses) to exit code 3.
"""

import operator


class ActFactorsError(Exception):
    """Base class for all package errors."""


class ConfigError(ActFactorsError):
    """Invalid parameters or parameter combinations."""


class DataError(ActFactorsError):
    """Input data violates a contract (shape, finiteness, rank, ...)."""


class DimensionError(DataError):
    """Matrix has too few rows/columns for the requested operation."""


class ZeroVarianceSeries(DataError):
    """A series has (numerically) zero variance and cannot be standardized."""

    def __init__(self, column: int):
        self.column = column  # 1-based
        super().__init__(f"series in column {column} has zero variance")


class ParseError(DataError):
    """Malformed CSV input; message carries row/column location."""


class DegenerateGap(ActFactorsError):
    """Two adjacent eigenvalues are tied where a strict gap is required."""


class PoleAtZ(ActFactorsError):
    """Evaluation point of a partial Stieltjes transform hits a pole."""


class NumericalDomain(ActFactorsError):
    """A criterion hit an invalid numerical domain (log of <= 0, 0 denominator)."""


def check_values(name: str, values) -> tuple:
    """values as a tuple if they are a non-empty tuple or list that lists each value once, else a ConfigError."""
    if not isinstance(values, (tuple, list)):
        raise ConfigError(f"{name} must be a tuple or list, got {values!r}")
    if not values:
        raise ConfigError(f"{name} must be non-empty")
    if repeated := [v for i, v in enumerate(values) if v in values[:i]]:
        raise ConfigError(f"{name} lists {repeated[0]!r} more than once")
    return tuple(values)


def check_flag(name: str, value) -> bool:
    """value as a bool if it equals True or False (numpy's included), else a ConfigError."""
    if value not in (True, False):
        raise ConfigError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def check_integer(name: str, value) -> int:
    """value as an int if it is an integer (numpy's included), else a ConfigError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value}") from None


def check_range(name: str, value: int, low: int, high: int, bound: str) -> int:
    """value as an int if it is an integer with low <= value <= high, else a ConfigError; bound names high."""
    if not low <= (value := check_integer(name, value)) <= high:
        raise ConfigError(f"{name} must satisfy {low} <= {name} <= {bound}={high}, got {value}")
    return value
