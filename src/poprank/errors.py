"""Exception and warning types shared across the package, and the input checks."""

from numbers import Integral

import numpy as np

from ._kernels import _runs


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


def checked_edges(edges, n: int, link: str) -> np.ndarray:
    """``edges``, an integer ``(m, 2)`` array (or rows) of ids in ``[0, n)``,
    as a read-only int64 array that keeps each row once, in order of first
    appearance; an empty one is no edges. Raises GraphError otherwise, with
    ``link`` naming one row (``"cites: link"``, ``"hyperlink"``)."""
    edges = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if edges.size == 0:
        edges = np.empty((0, 2), np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise GraphError(f"{link}s must be an integer (m, 2) array")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        s, t = edges[((edges < 0) | (edges >= n)).any(axis=1)][0].tolist()
        raise GraphError(f"{link} ({s}, {t}) points outside the graph")
    edges = edges.astype(np.int64, copy=False)
    edges = edges[np.sort(_runs(edges[:, 0] * n + edges[:, 1])[3])]
    edges.flags.writeable = False
    return edges


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
