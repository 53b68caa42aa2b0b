"""Sparse LP model container and the one engine that solves it, HiGHS.

Every model has one form: min c.x subject to a_ub @ x <= b_ub and
0 <= x <= ub. An equality row is written as two opposite <= rows.
``solve_lp`` solves a continuous model with ``scipy.optimize.linprog`` and
returns its duals; ``solve_ilp`` solves a mixed-integer model with
``scipy.optimize.milp``. Both run HiGHS with its own tolerances and limits
unless told otherwise and report its statuses as they are.

Every continuous solve may solve a smaller LP with the same optimum: colour
refinement groups interchangeable rows and columns into the coarsest
equitable partition, whose quotient LP has one row and one column per
class, and its solution lifts back to the model's primal and duals (Grohe,
Kersting, Mladenov, Selman, ESA 2014). A lifted vertex of the quotient is
an optimum of the model, constant on each class, but not in general a
vertex of it. ``solved_vars`` reports the column count HiGHS solved.
"""
from __future__ import annotations

import dataclasses
import math
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
    """min c.x subject to a_ub @ x <= b_ub and 0 <= x <= ub."""

    c: np.ndarray
    a_ub: sp.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    ub: np.ndarray | None = None          # defaults to +inf
    integrality: np.ndarray | None = None  # bool mask

    # not a field: no model has equality rows, but a2abench's span tracer
    # reads model.a_eq when it counts rows
    a_eq = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        self.ub = (np.full(n, np.inf) if self.ub is None
                   else np.asarray(self.ub, dtype=float))
        if not np.all(self.ub >= 0):
            raise LpError("ub < 0 for some variable")
        if (self.a_ub is None) != (self.b_ub is None):
            raise LpError("a_ub and b_ub must be given together")
        if self.a_ub is not None and self.a_ub.shape[1] != n:
            raise LpError(f"a_ub has {self.a_ub.shape[1]} columns, expected {n}")
        if self.b_ub is not None and not np.all(np.isfinite(self.b_ub)):
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
    iterations: int = 0
    gap: float | None = None       # only set by solve_ilp
    message: str = ""
    solved_vars: int = 0           # columns of the LP HiGHS solved

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def solve_lp(model: LpModel) -> LpSolution:
    """Solve the continuous relaxation of `model` (integrality is ignored).

    Every solve refines the model's rows and columns into their coarsest
    equitable partition. When that has fewer columns, the interior-point
    method solves the quotient (``_quotient``) to a vertex, whatever its
    size, and the vertex is lifted back (``_lift``): an exactly feasible
    optimum of the model, constant on each class of interchangeable columns.
    A model solved as it is goes to the interior-point method when it has
    10,000 columns or more, else to HiGHS's default pick.
    """
    quotient = _quotient(model)
    # the interior-point method, ending at a vertex, scales far better than
    # simplex on the large degenerate flow LPs; keep the default pick for
    # small models
    method = ("highs-ipm" if model.c.size >= 10_000 or quotient is not None
              else "highs")
    if quotient is None:
        return _linprog(model, method)
    small, rows, cols = quotient
    return _lift(model, _linprog(small, method), rows, cols)


def _linprog(model: LpModel, method: str) -> LpSolution:
    from scipy.optimize import linprog

    res = linprog(
        model.c, A_ub=model.a_ub, b_ub=model.b_ub,
        bounds=np.column_stack([np.zeros(model.n_vars), model.ub]),
        method=method,
    )
    # an unknown code is not evidence of infeasibility; report it as is
    status = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED,
              4: NUMERICAL}.get(res.status, f"highs-status-{res.status}")
    x = np.asarray(res.x) if res.x is not None else None
    # summed elementwise: a BLAS dot product of 10,000+ entries wakes
    # OpenBLAS's worker threads, which then spin for ~0.1 s of CPU
    obj = (float(np.sum(model.c * x)) if (x is not None and status == OPTIMAL)
           else math.nan)
    duals_ub = (np.asarray(res.ineqlin.marginals)
                if status == OPTIMAL and model.a_ub is not None else None)
    return LpSolution(
        status=status, objective=obj, x=x, duals_ub=duals_ub,
        iterations=int(getattr(res, "nit", 0) or 0),
        message=res.message, solved_vars=model.n_vars,
    )


# ---------------------------------------------------------------------------
# the quotient of an LP by colour refinement (Grohe, Kersting, Mladenov,
# Selman, "Dimension Reduction via Colour Refinement", ESA 2014)

def _mix(h: np.ndarray) -> np.ndarray:
    """splitmix64's finaliser: spreads uint64 keys over all 64 bits."""
    h = h + np.uint64(0x9E3779B97F4A7C15)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


def _classes(*keys: np.ndarray) -> np.ndarray:
    """Class of each position by its tuple of keys, numbered in the sorted
    order of the tuples, so the numbering does not depend on the order of
    the positions."""
    order = np.lexsort(keys[::-1])
    step = np.zeros(order.size, dtype=bool)
    for k in keys:
        k = k[order]
        step[1:] |= k[1:] != k[:-1]
    cls = np.empty(order.size, dtype=np.int64)
    cls[order] = np.cumsum(step)
    return cls


def _count(cls: np.ndarray) -> int:
    return int(cls.max(initial=-1)) + 1


def _refine(a: sp.csr_matrix, rows: np.ndarray,
            cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Colour refinement of the rows and columns of `a`, starting from the
    classes ``rows`` and ``cols``.

    Each round splits every column class by the multiset of (row class,
    coefficient) over its columns' nonzeros, then every row class the same
    way, until a row split changes nothing or every column is alone. The
    columns were just split by those rows, so the partition is then stable.
    Multisets are compared by a sum of 64-bit hashes, so a collision could
    keep together what should split; ``_equitable`` checks the result.
    """
    _, label = np.unique(a.data, return_inverse=True)
    width = np.uint64(_count(label))
    label = label.astype(np.uint64).ravel()
    # each row's and each column's nonzeros: neighbours, labels, bounds
    # (the conversion keeps label 0 as a stored entry)
    by_row = (a.indices, label, a.indptr)
    at = sp.csr_matrix((label, a.indices, a.indptr), shape=a.shape).tocsc()
    by_col = (at.indices, at.data, at.indptr)

    def split(own, other, nbr, lab, ptr):
        total = np.zeros(nbr.size + 1, dtype=np.uint64)
        np.cumsum(_mix(other[nbr].astype(np.uint64) * width + lab),
                  out=total[1:])
        sig = np.unique(total[ptr[1:]] - total[ptr[:-1]],
                        return_inverse=True)[1].ravel()
        # own is numbered 0, 1, ... in sorted order, so own * n + sig sorts
        # as the pair (own, sig): the classes of ``_classes(own, sig)``
        return np.unique(own * own.size + sig, return_inverse=True)[1].ravel()

    while True:
        cols = split(cols, rows, *by_col)
        if _count(cols) == cols.size:
            return rows, cols
        count = _count(rows)
        rows = split(rows, cols, *by_row)
        if _count(rows) == count:
            return rows, cols


def _first(cls: np.ndarray) -> np.ndarray:
    """The first member of each class."""
    first = np.full(_count(cls), cls.size)
    np.minimum.at(first, cls, np.arange(cls.size))
    return first


def _indicator(cls: np.ndarray) -> sp.csr_matrix:
    """P[j, J] = 1 when position j is in class J."""
    return sp.csr_matrix((np.ones(cls.size), (np.arange(cls.size), cls)),
                         shape=(cls.size, _count(cls)))


def _quotient(model: LpModel):
    """(quotient model, row classes, column classes) of `model`, or None.

    Columns start in classes by (c, ub) and rows by rhs, and ``_refine``
    splits them over ``a_ub``. The quotient has one column per column class,
    with c summed over the class, and one row per row class: a
    representative row with its coefficients summed over each column class.
    When the partition is equitable, the mean of a feasible x over each
    class is feasible with the same objective, so the quotient has the
    model's optimum. None when the partition is discrete (nothing to gain)
    or ``_equitable`` rejects it; then the model is solved as it is.
    """
    if model.a_ub is None:
        return None
    a, rhs = sp.csr_matrix(model.a_ub), np.asarray(model.b_ub, dtype=float)
    rows, cols = _refine(a, _classes(rhs), _classes(model.c, model.ub))
    if (_count(cols) == model.n_vars
            or not _equitable(model, a, rhs, rows, cols)):
        return None
    rep_row, rep_col = _first(rows), _first(cols)
    p = _indicator(cols)
    small = LpModel(c=p.T @ model.c, a_ub=(a @ p).tocsr()[rep_row],
                    b_ub=rhs[rep_row], ub=model.ub[rep_col])
    return small, rows, cols


def _equitable(model: LpModel, a: sp.csr_matrix, rhs: np.ndarray,
               rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether (rows, cols) is an equitable partition of ``a`` that keeps
    c, ub and each row's rhs constant on classes.

    Checked exactly: A @ P must be constant on row classes and A.T @ Q on
    column classes, where P and Q are the column and row class indicators.
    """
    rep_row, rep_col = _first(rows)[rows], _first(cols)[cols]
    if not (np.array_equal(rhs, rhs[rep_row])
            and all(np.array_equal(v, v[rep_col]) for v in (model.c, model.ub))):
        return False
    for sums, rep in (((a @ _indicator(cols)).tocsr(), rep_row),
                      ((a.T @ _indicator(rows)).tocsr(), rep_col)):
        if (sums - sums[rep]).count_nonzero():
            return False
    return True


def _lift(model: LpModel, sol: LpSolution, rows: np.ndarray,
          cols: np.ndarray) -> LpSolution:
    """The quotient's solution `sol` on `model`: x_j = y[class of j], and
    row i's dual z[class of i] / |class of i|. Each reduced cost of `model`
    is the quotient's divided by its column's class size, so the lifted
    duals are dual-feasible with the same objective. The objective is kept:
    the quotient's c is the model's summed over each class, so it is c.x."""
    if sol.x is None:
        return sol
    duals_ub = ((sol.duals_ub / np.bincount(rows))[rows] if sol.optimal
                else None)
    return dataclasses.replace(sol, x=sol.x[cols], duals_ub=duals_ub)


def solve_ilp(model: LpModel, alpha: float = 0.0) -> LpSolution:
    """Solve a mixed-integer model with HiGHS branch-and-cut.

    Stops once the incumbent is within a (1 + alpha) factor of the proven
    bound. ``gap`` is max(0, incumbent - bound) / |bound|; ``x`` is the
    incumbent, also when a limit stopped the search (status
    ``ITERATION_LIMIT``).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    constraints = ([LinearConstraint(model.a_ub, -np.inf, model.b_ub)]
                   if model.a_ub is not None else [])
    # HiGHS stops at |incumbent - bound| / |incumbent| <= gap; this value
    # gives incumbent <= (1 + alpha) bound. Its default gap is 1e-4, so the
    # value is passed at alpha = 0 too.
    res = milp(model.c, integrality=model.integrality,
               bounds=Bounds(0, model.ub), constraints=constraints,
               options={"mip_rel_gap": alpha / (1 + alpha)})
    status = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE,
              3: UNBOUNDED}.get(res.status, f"highs-status-{res.status}")
    if res.x is None:
        return LpSolution(status, math.nan, None, message=res.message,
                          solved_vars=model.n_vars)
    x = np.asarray(res.x)
    obj = float(np.sum(model.c * x))
    # without integer variables HiGHS solves the LP and reports no MIP bound
    bound = res.mip_dual_bound if res.mip_dual_bound is not None else res.fun
    gap = max(0.0, obj - bound) / max(abs(bound), 1e-12)
    return LpSolution(status, obj, x, gap=gap, message=res.message,
                      solved_vars=model.n_vars)
