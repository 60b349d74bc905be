"""Exception and warning types shared across the package, and the input checks."""

from numbers import Integral

import numpy as np


class PopRankError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PopRankError):
    """Invalid or conflicting object-type or relationship-type declaration."""


class RecordError(PopRankError):
    """Source record that cannot be merged: unknown type, bad attribute,
    or a missing key value."""


class GraphError(PopRankError):
    """Structurally invalid graph, link set, or page/object reference."""


class ConfigError(PopRankError):
    """Invalid numeric configuration or parameter assignment."""


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """Raise ConfigError unless value is an integer of at least ``least``."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


def checked_vector(values, message: str) -> np.ndarray:
    """``np.asarray(values)``; ConfigError(message) unless it is a finite numeric 1-d array."""
    array = np.asarray(values)
    if array.ndim != 1 or array.dtype.kind not in "biuf" or not np.isfinite(array).all():
        raise ConfigError(message)
    return array


class FormatError(PopRankError):
    """Malformed corpus or report file; message carries file and line."""


class NonConvergenceWarning(UserWarning):
    """Power iteration hit max_iter with the residual still above tol.

    ``solver`` names the solve (``pagerank`` or ``poprank``); ``iterations``
    and ``residual`` say where it stopped.
    """

    def __init__(self, solver: str, iterations: int, residual: float):
        super().__init__(f"{solver} stopped after {iterations} iterations "
                         f"with residual {residual:.3e}")
        self.solver, self.iterations, self.residual = solver, iterations, residual
