"""Sparse LP model container and the one engine that solves it, HiGHS.

``solve_lp`` solves a continuous model with ``scipy.optimize.linprog`` and
returns its duals, optionally without crossover to a vertex and with a
looser interior-point optimality tolerance; ``solve_ilp`` solves a
mixed-integer model with ``scipy.optimize.milp``. Both run HiGHS with its
own tolerances and limits unless told otherwise and report its statuses as
they are.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LpModel",
    "LpSolution",
    "LpError",
    "solve_lp",
    "solve_ilp",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"
NUMERICAL = "numerical-difficulties"


class LpError(RuntimeError):
    pass


@dataclass
class LpModel:
    """min/max c.x subject to a_ub @ x <= b_ub, a_eq @ x == b_eq, lb <= x <= ub."""

    c: np.ndarray
    sense: str = "min"
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sp.csr_matrix | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None          # defaults to 0
    ub: np.ndarray | None = None          # defaults to +inf
    integrality: np.ndarray | None = None  # bool mask

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.sense not in ("min", "max"):
            raise LpError(f"bad sense {self.sense!r}")
        if self.lb is None:
            self.lb = np.zeros(n)
        if self.ub is None:
            self.ub = np.full(n, np.inf)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if np.any(self.lb > self.ub):
            raise LpError("lb > ub for some variable")
        for a, b, name in ((self.a_ub, self.b_ub, "ub"), (self.a_eq, self.b_eq, "eq")):
            if (a is None) != (b is None):
                raise LpError(f"a_{name} and b_{name} must be given together")
            if a is not None and a.shape[1] != n:
                raise LpError(f"a_{name} has {a.shape[1]} columns, expected {n}")
            if b is not None and not np.all(np.isfinite(b)):
                raise LpError("right-hand sides must be finite")

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    status: str
    objective: float
    x: np.ndarray | None
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    iterations: int = 0
    gap: float | None = None       # only set by solve_ilp
    message: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_lp(model: LpModel, crossover: bool = True,
             ipm_optimality_tolerance: float | None = None) -> LpSolution:
    """Solve the continuous relaxation of `model` (integrality is ignored).

    Large models go to the interior-point method. ``crossover=False`` stops
    it at the interior optimum instead of a vertex: the objective and duals
    are as accurate, ``x`` has more nonzeros, and the solve takes about half
    the time on the large flow LPs. ``ipm_optimality_tolerance`` replaces
    HiGHS's default (1e-8) for that method and is ignored for small models.
    """
    from scipy.optimize import OptimizeWarning, linprog

    sign = 1.0 if model.sense == "min" else -1.0
    # interior point with crossover scales far better than simplex on the
    # large degenerate flow LPs; keep the default pick for small models
    method = "highs-ipm" if model.c.size >= 10_000 else "highs"
    options = {} if crossover else {"run_crossover": "off"}
    if method == "highs-ipm" and ipm_optimality_tolerance is not None:
        options["ipm_optimality_tolerance"] = ipm_optimality_tolerance
    with warnings.catch_warnings():
        # linprog passes run_crossover on to HiGHS but does not know it
        warnings.filterwarnings("ignore", "Unrecognized options",
                                OptimizeWarning)
        res = linprog(
            sign * model.c,
            A_ub=model.a_ub, b_ub=model.b_ub,
            A_eq=model.a_eq, b_eq=model.b_eq,
            bounds=np.column_stack([model.lb, model.ub]),
            method=method,
            options=options,
        )
    # an unknown code is not evidence of infeasibility; report it as is
    status = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED,
              4: NUMERICAL}.get(res.status, f"highs-status-{res.status}")
    x = np.asarray(res.x) if res.x is not None else None
    obj = float(model.c @ x) if (x is not None and status == OPTIMAL) else math.nan
    duals_ub = duals_eq = None
    if status == OPTIMAL:
        if model.a_ub is not None:
            duals_ub = sign * np.asarray(res.ineqlin.marginals)
        if model.a_eq is not None:
            duals_eq = sign * np.asarray(res.eqlin.marginals)
    return LpSolution(
        status=status, objective=obj, x=x,
        duals_ub=duals_ub, duals_eq=duals_eq,
        iterations=int(getattr(res, "nit", 0) or 0),
        message=res.message,
    )


def solve_ilp(model: LpModel, alpha: float = 0.0) -> LpSolution:
    """Solve a mixed-integer model with HiGHS branch-and-cut.

    Stops once the incumbent is within a (1 + alpha) factor of the proven
    bound. ``gap`` is (incumbent - bound) / |bound|, oriented so that it is
    nonnegative for both senses; ``x`` is the incumbent, also when a limit
    stopped the search (status ``ITERATION_LIMIT``).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    sign = 1.0 if model.sense == "min" else -1.0
    constraints = []
    if model.a_ub is not None:
        constraints.append(LinearConstraint(model.a_ub, -np.inf, model.b_ub))
    if model.a_eq is not None:
        constraints.append(LinearConstraint(model.a_eq, model.b_eq, model.b_eq))
    # HiGHS stops at |incumbent - bound| / |incumbent| <= gap; this value
    # gives incumbent <= (1 + alpha) bound when minimizing and bound <=
    # (1 + alpha) incumbent when maximizing. Its default gap is 1e-4, so the
    # value is passed at alpha = 0 too.
    res = milp(sign * model.c, integrality=model.integrality,
               bounds=Bounds(model.lb, model.ub), constraints=constraints,
               options={"mip_rel_gap": alpha / (1 + alpha)})
    status = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE,
              3: UNBOUNDED}.get(res.status, f"highs-status-{res.status}")
    if res.x is None:
        return LpSolution(status, math.nan, None, message=res.message)
    x = np.asarray(res.x)
    obj = float(model.c @ x)
    # without integer variables HiGHS solves the LP and reports no MIP bound
    bound = sign * (res.mip_dual_bound if res.mip_dual_bound is not None
                    else res.fun)
    gap = max(0.0, sign * (obj - bound)) / max(abs(bound), 1e-12)
    return LpSolution(status, obj, x, gap=gap, message=res.message)
