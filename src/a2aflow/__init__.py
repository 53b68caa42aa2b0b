"""Bandwidth-optimal all-to-all schedules for direct-connect topologies.

Solves max-concurrent multi-commodity flow over arbitrary directed
topologies, lowers the solutions to time-stepped or path-based chunked
schedules, and evaluates topologies against analytical lower bounds.
"""

__version__ = "0.1.0"

from .graphs import Digraph, GraphError, load_graph, save_graph   # noqa: F401


def domain_errors() -> tuple[type[Exception], ...]:
    """The package's error classes and OSError: failures of the input, not
    bugs. Imported only when asked for, so that importing the package stays
    cheap."""
    from .deadlock import DeadlockError
    from .evaluate import EvalError
    from .lp import LpError
    from .mcf import McfError
    from .paths import RouteError
    from .schedule import ScheduleError
    return (GraphError, McfError, LpError, RouteError, ScheduleError,
            EvalError, DeadlockError, OSError)
