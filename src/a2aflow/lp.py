"""Sparse LP model container, a reference revised-simplex solver, a
branch-and-bound layer for integer models, and a pluggable backend registry.

The reference solver exists as an independently-written engine for
cross-checking and for small models; the registered ``external`` backend
(scipy/HiGHS) is the default engine for production-size flow LPs.
Both report the same statuses. Only the reference solver reads
``feas_tol``, ``opt_tol`` and ``max_iter``; HiGHS runs with its own defaults.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "LpModel",
    "LpSolution",
    "LpOptions",
    "LpError",
    "solve_lp",
    "solve_ilp",
    "register_backend",
    "available_backends",
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


@dataclass
class LpOptions:
    solver: str = "external"
    feas_tol: float = 1e-9
    opt_tol: float = 1e-9
    max_iter: int = 200_000
    refactor_every: int = 100
    node_limit: int = 200_000


_BACKENDS: dict = {}


def register_backend(name: str, fn) -> None:
    """Register an alternative LP engine honoring the solve_lp contract."""
    _BACKENDS[name] = fn


def available_backends():
    return sorted(_BACKENDS)


def solve_lp(model: LpModel, options: LpOptions | None = None) -> LpSolution:
    options = options or LpOptions()
    try:
        backend = _BACKENDS[options.solver]
    except KeyError:
        raise LpError(
            f"no LP backend named {options.solver!r}; "
            f"available: {available_backends()}"
        ) from None
    return backend(model, options)


# ---------------------------------------------------------------------------
# external backend: scipy / HiGHS

def _solve_highs(model: LpModel, options: LpOptions) -> LpSolution:
    from scipy.optimize import linprog

    sign = 1.0 if model.sense == "min" else -1.0
    # interior point with crossover scales far better than simplex on the
    # large degenerate flow LPs; keep the default pick for small models
    method = "highs-ipm" if model.c.size >= 10_000 else "highs"
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


# ---------------------------------------------------------------------------
# reference backend: revised simplex with sparse LU + product-form updates

class _Basis:
    """Basis factorization: sparse LU refreshed periodically, product-form
    eta updates in between."""

    def __init__(self, a_csc: sp.csc_matrix, basis: list[int], refactor_every: int):
        self.a = a_csc
        self.basis = basis
        self.refactor_every = refactor_every
        self.etas: list[tuple[int, np.ndarray]] = []
        self._factorize()

    def _factorize(self):
        self.etas.clear()
        b = self.a[:, self.basis].tocsc()
        self.lu = spla.splu(b.tocsc(), permc_spec="COLAMD",
                            options={"SymmetricMode": False})

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self.lu.solve(rhs)
        for r, col in self.etas:
            piv = col[r]
            xr = x[r] / piv
            x = x - col * xr
            x[r] = xr
        return x

    def solve_t(self, rhs: np.ndarray) -> np.ndarray:
        y = rhs.copy()
        for r, col in reversed(self.etas):
            piv = col[r]
            yr = (y[r] - np.dot(col, y) + col[r] * y[r]) / piv
            y[r] = yr
        return self.lu.solve(y, trans="T")

    def refresh(self):
        self._factorize()


def _solve_reference(model: LpModel, options: LpOptions) -> LpSolution:
    """Two-phase revised simplex on the standard-form translation of `model`.

    Deterministic pivoting: Dantzig rule with ties broken by lowest index,
    falling back to Bland's rule after a stretch of degenerate pivots.
    """
    n = model.n_vars
    if np.any(~np.isfinite(model.lb)):
        raise LpError("reference solver requires finite lower bounds")
    sign = 1.0 if model.sense == "min" else -1.0
    c0 = sign * model.c.astype(float)

    # shift x = y + lb so y >= 0
    shift = model.lb.copy()
    rows_a = []
    rows_b = []
    kinds = []  # "le" rows only after translation of eq into le+ge? keep eq
    if model.a_ub is not None:
        ub_rhs = model.b_ub - model.a_ub @ shift
        rows_a.append(sp.csr_matrix(model.a_ub))
        rows_b.append(np.asarray(ub_rhs, dtype=float))
        kinds.extend(["le"] * model.a_ub.shape[0])
    if model.a_eq is not None:
        eq_rhs = model.b_eq - model.a_eq @ shift
        rows_a.append(sp.csr_matrix(model.a_eq))
        rows_b.append(np.asarray(eq_rhs, dtype=float))
        kinds.extend(["eq"] * model.a_eq.shape[0])
    finite_ub = np.where(np.isfinite(model.ub))[0]
    if finite_ub.size:
        data = np.ones(finite_ub.size)
        rows = np.arange(finite_ub.size)
        bnd = sp.csr_matrix((data, (rows, finite_ub)), shape=(finite_ub.size, n))
        rows_a.append(bnd)
        rows_b.append(model.ub[finite_ub] - shift[finite_ub])
        kinds.extend(["le"] * finite_ub.size)
    if rows_a:
        a_all = sp.vstack(rows_a).tocsr()
        b_all = np.concatenate(rows_b)
    else:
        a_all = sp.csr_matrix((0, n))
        b_all = np.zeros(0)
    m = a_all.shape[0]

    # slacks for <= rows; flip rows with negative rhs; artificials everywhere
    slack_cols = []
    slack_sign = np.zeros(m)
    flip = np.ones(m)
    for i in range(m):
        if b_all[i] < 0:
            flip[i] = -1.0
    b_std = b_all * flip
    a_std = sp.diags(flip) @ a_all
    n_slack = sum(1 for k in kinds if k == "le")
    si = 0
    s_rows, s_cols, s_vals = [], [], []
    for i, k in enumerate(kinds):
        if k == "le":
            s_rows.append(i)
            s_cols.append(si)
            s_vals.append(flip[i])  # slack keeps original row direction
            si += 1
    slack = sp.csr_matrix((s_vals, (s_rows, s_cols)), shape=(m, n_slack))
    art = sp.identity(m, format="csr")
    a_full = sp.hstack([a_std, slack, art]).tocsc()
    n_total = n + n_slack + m

    c_phase1 = np.zeros(n_total)
    c_phase1[n + n_slack:] = 1.0
    c_phase2 = np.zeros(n_total)
    c_phase2[:n] = c0
    # big cost on artificials in phase 2 guards against lingering degenerates
    basis = list(range(n + n_slack, n_total))

    # a slack with +1 coefficient and nonnegative rhs can start basic instead
    for i in range(m):
        row_sl = [j for j in range(n_slack) if slack[i, j] != 0]
        if row_sl and slack[i, row_sl[0]] > 0:
            basis[i] = n + row_sl[0]
    x = np.zeros(n_total)

    def run_phase(cvec, basis, allow_unbounded):
        fac = _Basis(a_full, basis, options.refactor_every)
        it = 0
        degenerate_run = 0
        bland = False
        while it < options.max_iter:
            it += 1
            xb = fac.solve(b_std)
            y = fac.solve_t(cvec[basis])
            # reduced costs
            d = cvec - a_full.T @ y
            d[basis] = 0.0
            cand = np.where(d < -options.opt_tol)[0]
            if cand.size == 0:
                return "optimal", basis, xb, y, it
            if bland:
                j = int(cand.min())
            else:
                j = int(cand[np.argmin(d[cand])])
            col = np.asarray(fac.solve(a_full[:, j].toarray().ravel()))
            pos = col > options.feas_tol
            if not np.any(pos):
                return "unbounded", basis, xb, y, it
            ratios = np.full(m, np.inf)
            ratios[pos] = xb[pos] / col[pos]
            rmin = ratios.min()
            # lowest basis-index tie break (Bland-compatible)
            ties = np.where(ratios <= rmin + options.feas_tol)[0]
            leave = min(ties, key=lambda r: basis[r])
            if rmin <= options.feas_tol:
                degenerate_run += 1
                if degenerate_run > 50:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            fac.basis[leave] = j
            fac.etas.append((int(leave), col))
            if len(fac.etas) >= options.refactor_every:
                fac.refresh()
            basis[leave] = j
        return "iteration-limit", basis, fac.solve(b_std), None, it

    status1, basis, xb, _, it1 = run_phase(c_phase1, basis, False)
    if status1 == "iteration-limit":
        return LpSolution(ITERATION_LIMIT, math.nan, None, iterations=it1,
                          message="phase-1 iteration limit")
    phase1_obj = float(np.sum(xb[np.asarray(basis) >= n + n_slack]))
    if phase1_obj > 1e-7:
        return LpSolution(INFEASIBLE, math.nan, None, iterations=it1,
                          message="phase-1 optimum positive")
    # drive artificials out where possible; otherwise pin them at zero
    c_phase2_eff = c_phase2.copy()
    c_phase2_eff[n + n_slack:] = 1e9
    status2, basis, xb, y, it2 = run_phase(c_phase2_eff, basis, True)
    if status2 == "iteration-limit":
        return LpSolution(ITERATION_LIMIT, math.nan, None, iterations=it1 + it2,
                          message="phase-2 iteration limit")
    if status2 == "unbounded":
        return LpSolution(UNBOUNDED, math.nan, None, iterations=it1 + it2)
    x = np.zeros(n_total)
    x[np.asarray(basis)] = xb
    xfull = x[:n] + shift
    obj = float(model.c @ xfull)
    duals_ub = duals_eq = None
    if y is not None:
        # rows were stacked ub, eq, bound; undo the sign flips
        yk = np.asarray(y) * flip
        ofs = 0
        if model.a_ub is not None:
            duals_ub = sign * yk[ofs: ofs + model.a_ub.shape[0]]
            ofs += model.a_ub.shape[0]
        if model.a_eq is not None:
            duals_eq = sign * yk[ofs: ofs + model.a_eq.shape[0]]
    return LpSolution(OPTIMAL, obj, xfull, duals_ub=duals_ub, duals_eq=duals_eq,
                      iterations=it1 + it2)


register_backend("reference", _solve_reference)
register_backend("external", _solve_highs)


# ---------------------------------------------------------------------------
# branch and bound

def solve_ilp(model: LpModel, alpha: float = 0.0,
              options: LpOptions | None = None) -> LpSolution:
    """Best-first branch-and-bound over LP relaxations.

    Terminates when the incumbent is within a (1 + alpha) factor of the best
    outstanding relaxation bound. When every objective coefficient touching an
    integral variable is integral (and continuous variables have zero cost),
    node bounds are rounded up, which substantially tightens pruning for
    congestion-style objectives.
    """
    options = options or LpOptions()
    if model.integrality is None or not np.any(model.integrality):
        sol = solve_lp(model, options)
        sol.gap = 0.0 if sol.optimal else None
        return sol
    mask = np.asarray(model.integrality, dtype=bool)
    sign = 1.0 if model.sense == "min" else -1.0

    def node_lp(lb, ub):
        sub = replace(model, lb=lb, ub=ub, integrality=None)
        return solve_lp(sub, options)

    int_tol = 1e-6
    # bound rounding is valid when the objective takes integer values on
    # integral points of the feasible set
    obj_integral = (
        np.all(model.c[~mask] == 0)
        and np.all(np.abs(model.c - np.round(model.c)) < 1e-12)
    )

    def tighten(bound):
        if obj_integral:
            return math.ceil(bound * sign - 1e-6) * sign
        return bound

    root = node_lp(model.lb, model.ub)
    if not root.optimal:
        return root
    incumbent = None
    incumbent_obj = math.inf * sign
    counter = 0
    heap = [(sign * tighten(root.objective), counter, model.lb.copy(),
             model.ub.copy(), root)]
    nodes = 0

    def better(a, b):
        return a < b if sign > 0 else a > b

    best_bound = tighten(root.objective)
    exhausted = False
    while True:
        if not heap:
            exhausted = True
            break
        key, _, lb, ub, sol = heapq.heappop(heap)
        bound = sign * key
        best_bound = bound
        if incumbent is not None and _gap_closed(incumbent_obj, bound, sign, alpha):
            break
        nodes += 1
        if nodes > options.node_limit:
            break
        frac = np.abs(sol.x[mask] - np.round(sol.x[mask]))
        if np.all(frac < int_tol):
            xi = sol.x.copy()
            xi[mask] = np.round(xi[mask])
            obj = float(model.c @ xi)
            if incumbent is None or better(obj, incumbent_obj):
                incumbent, incumbent_obj = xi, obj
            continue
        idx_all = np.where(mask)[0]
        fr = np.abs(sol.x[idx_all] - np.round(sol.x[idx_all]))
        j = int(idx_all[np.argmax(np.minimum(fr, 1 - fr))])
        xj = sol.x[j]
        for lo_add, hi_add in (("down", None), (None, "up")):
            lb2, ub2 = lb.copy(), ub.copy()
            if lo_add:
                ub2[j] = math.floor(xj + int_tol)
            else:
                lb2[j] = math.ceil(xj - int_tol)
            if lb2[j] > ub2[j]:
                continue
            child = node_lp(lb2, ub2)
            if child.status != OPTIMAL:
                continue
            cb = tighten(child.objective)
            if incumbent is not None and not better(cb, incumbent_obj) \
               and _gap_closed(incumbent_obj, cb, sign, alpha):
                continue
            counter += 1
            heapq.heappush(heap, (sign * cb, counter, lb2, ub2, child))
    if incumbent is None:
        # only a fully explored tree proves integer infeasibility
        status = INFEASIBLE if exhausted else ITERATION_LIMIT
        return LpSolution(status, math.nan, None,
                          message="no integer-feasible point found")
    proven = incumbent_obj if exhausted else best_bound
    gap = max(0.0, sign * (incumbent_obj - proven)) / max(abs(proven), 1e-12)
    status = OPTIMAL if (exhausted or _gap_closed(incumbent_obj, proven,
                                                  sign, alpha)) else ITERATION_LIMIT
    return LpSolution(status, incumbent_obj, incumbent, gap=gap,
                      message=f"branch-and-bound explored {nodes} nodes")


def _gap_closed(incumbent_obj, bound, sign, alpha):
    if sign > 0:  # minimization: incumbent >= bound
        return incumbent_obj <= bound * (1 + alpha) + 1e-9
    return incumbent_obj >= bound / (1 + alpha) - 1e-9
