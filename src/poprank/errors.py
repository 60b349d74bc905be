"""Exception and warning types shared across the package."""


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
