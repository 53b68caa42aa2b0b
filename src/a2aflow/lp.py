"""Sparse LP model container and the one engine that solves it, HiGHS.

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

    sign = 1.0 if model.sense == "min" else -1.0
    res = linprog(
        sign * model.c,
        A_ub=model.a_ub, b_ub=model.b_ub,
        A_eq=model.a_eq, b_eq=model.b_eq,
        bounds=np.column_stack([model.lb, model.ub]),
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


def _stack(model: LpModel):
    """([a_ub; a_eq], is-equality mask, [b_ub; b_eq])."""
    blocks = [(sp.csr_matrix(a), np.asarray(b, dtype=float), eq)
              for a, b, eq in ((model.a_ub, model.b_ub, False),
                               (model.a_eq, model.b_eq, True))
              if a is not None]
    a = sp.vstack([m for m, _, _ in blocks], format="csr")
    kind = np.concatenate([np.full(b.size, eq) for _, b, eq in blocks])
    return a, kind, np.concatenate([b for _, b, _ in blocks])


def _quotient(model: LpModel):
    """(quotient model, row classes, column classes) of `model`, or None.

    Columns start in classes by (c, lb, ub) and rows by (kind, rhs), and
    ``_refine`` splits them over the stacked ``[a_ub; a_eq]``. The quotient
    has one column per column class, with c summed over the class, and one
    row per row class: a representative row with its coefficients summed
    over each column class. When the partition is equitable, the mean of a
    feasible x over each class is feasible with the same objective, so the
    quotient has the model's optimum. None when the partition is discrete
    (nothing to gain) or ``_equitable`` rejects it; then the model is solved
    as it is.
    """
    if model.a_ub is None and model.a_eq is None:
        return None
    a, kind, rhs = _stack(model)
    rows, cols = _refine(a, _classes(kind, rhs),
                         _classes(model.c, model.lb, model.ub))
    if (_count(cols) == model.n_vars
            or not _equitable(model, a, kind, rhs, rows, cols)):
        return None
    rep_row, rep_col = _first(rows), _first(cols)
    p = _indicator(cols)
    b = (a @ p).tocsr()[rep_row]
    eq, rhs = kind[rep_row], rhs[rep_row]
    ub_rows = model.a_ub is not None
    eq_rows = model.a_eq is not None
    small = LpModel(c=p.T @ model.c, sense=model.sense,
                    a_ub=b[~eq] if ub_rows else None,
                    b_ub=rhs[~eq] if ub_rows else None,
                    a_eq=b[eq] if eq_rows else None,
                    b_eq=rhs[eq] if eq_rows else None,
                    lb=model.lb[rep_col], ub=model.ub[rep_col])
    return small, rows, cols


def _equitable(model: LpModel, a: sp.csr_matrix, kind: np.ndarray,
               rhs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether (rows, cols) is an equitable partition of ``a`` (``_stack``)
    that keeps c, lb, ub, each row's kind and its rhs constant on classes.

    Checked exactly: A @ P must be constant on row classes and A.T @ Q on
    column classes, where P and Q are the column and row class indicators.
    """
    rep_row, rep_col = _first(rows)[rows], _first(cols)[cols]
    if not (np.array_equal(kind, kind[rep_row])
            and np.array_equal(rhs, rhs[rep_row])
            and all(np.array_equal(v, v[rep_col])
                    for v in (model.c, model.lb, model.ub))):
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
    x = sol.x[cols]
    duals_ub = duals_eq = None
    if sol.optimal:
        n_ub = model.b_ub.size if model.a_ub is not None else 0
        eq = np.zeros(_count(rows), dtype=bool)
        eq[rows[n_ub:]] = True
        z = np.empty(eq.size)
        for mask, d in ((~eq, sol.duals_ub), (eq, sol.duals_eq)):
            if d is not None:
                z[mask] = d
        y = (z / np.bincount(rows))[rows]
        duals_ub = y[:n_ub] if model.a_ub is not None else None
        duals_eq = y[n_ub:] if model.a_eq is not None else None
    return dataclasses.replace(sol, x=x, duals_ub=duals_ub, duals_eq=duals_eq)


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
        return LpSolution(status, math.nan, None, message=res.message,
                          solved_vars=model.n_vars)
    x = np.asarray(res.x)
    obj = float(np.sum(model.c * x))
    # without integer variables HiGHS solves the LP and reports no MIP bound
    bound = sign * (res.mip_dual_bound if res.mip_dual_bound is not None
                    else res.fun)
    gap = max(0.0, sign * (obj - bound)) / max(abs(bound), 1e-12)
    return LpSolution(status, obj, x, gap=gap, message=res.message,
                      solved_vars=model.n_vars)
