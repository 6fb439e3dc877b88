"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: config errors -> 2, data errors -> 3,
numerical failures -> 4.
"""


class ClicktomoError(Exception):
    """Base class for all package errors."""


class ConfigError(ClicktomoError, ValueError):
    """Invalid or inconsistent run configuration."""


class DataError(ClicktomoError, ValueError):
    """Malformed or inconsistent input data (CSV records, grids, ...)."""


class NumericalError(ClicktomoError, RuntimeError):
    """A computation left its validated numerical envelope."""


class DegenerateModelError(NumericalError):
    """Forward model collapsed (all probabilities at the floor)."""
