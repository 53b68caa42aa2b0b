"""Max-concurrent multi-commodity flow formulations over a Digraph.

Four formulations: link-based, source-decomposed (one master LP whose
per-source flows are split into per-commodity flows), time-stepped (one flow
per source on the time-expanded graph with holdover arcs for buffering), and
path-based (the path model it shares with the congestion ILP,
``paths._path_model``), all assembled as sparse matrices. The master, path
and time-stepped LPs fix the demands and minimize the edge-utilization scale
U (F is 1 / U), so U sits only in the capacity rows. The link, decomposed and
time-stepped models recover per-commodity flows with one shared flow
decomposition (``_peel``), so they conserve exactly and deliver exactly
their demand; it also splits flows into routes
(``paths.extract_widest_paths``) and time-stepped trajectories.

The master and link solvers certify F without trusting the solver: F_lo
comes from the returned primal flow, F_hi from the capacity-row duals as
edge lengths (``_bracket``). ``verify_flow`` rechecks a link solution.
"""
from __future__ import annotations

import json
import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import Digraph, _json_field, _read_json
from .lp import LpModel, LpSolution, solve_lp

__all__ = [
    "Commodity",
    "LinkFlowSolution",
    "SourceFlowSolution",
    "TimeExpandedSolution",
    "McfError",
    "all_to_all_commodities",
    "mcf_link",
    "mcf_decomposed",
    "mcf_timestepped",
    "mcf_path",
    "solve_master",
    "verify_flow",
    "save_solution",
    "load_solution",
]

FLOW_EPS = 1e-12
LINK_SIZE_WARN = 150
LINK_SIZE_HARD = 400


class McfError(RuntimeError):
    pass


@dataclass(frozen=True)
class Commodity:
    src: int
    dst: int
    demand: float = 1.0

    def __post_init__(self):
        if self.src == self.dst:
            raise McfError(f"commodity source == destination ({self.src})")
        if self.demand <= 0:
            raise McfError("commodity demand must be positive")


def all_to_all_commodities(nodes) -> list[Commodity]:
    nodes = list(nodes)
    return [Commodity(s, d) for s in nodes for d in nodes if s != d]


@dataclass
class LinkFlowSolution:
    """Concurrent rate F plus per-commodity per-edge flows.

    ``flows`` maps (commodity index, edge index) -> rate; entries below
    FLOW_EPS are dropped. ``F_lo <= F <= F_hi`` is the certified bracket on
    the optimal rate (NaN when the solution was loaded from a file).
    """

    F: float
    commodities: list[Commodity]
    flows: dict[tuple[int, int], float]
    graph: Digraph = field(repr=False)
    F_lo: float = math.nan
    F_hi: float = math.nan

    @property
    def gap(self) -> float:
        """Relative width (F_hi - F_lo) / F_hi of the certified bracket."""
        return 1.0 - self.F_lo / self.F_hi

    def flow_of(self, ci: int) -> dict[int, float]:
        return {e: v for (c, e), v in self.flows.items() if c == ci}


@dataclass
class SourceFlowSolution:
    F: float
    sources: list[int]
    flows: dict[tuple[int, int], float]    # (source index, edge index) -> rate
    graph: Digraph = field(repr=False)
    F_lo: float              # certified bracket on the optimal rate
    F_hi: float


@dataclass
class TimeExpandedSolution:
    l_max: int
    U: np.ndarray                           # per-step utilization bound
    commodities: list[Commodity]
    flows: dict[tuple[int, int, int], float]  # (ci, edge, step) -> shard fraction
    graph: Digraph = field(repr=False)

    @property
    def total_utilization(self) -> float:
        return float(self.U.sum())


# ---------------------------------------------------------------------------
# link-based MCF

def _check_size(g: Digraph, force: bool):
    if g.n > LINK_SIZE_HARD and not force:
        raise McfError(
            f"link MCF on N={g.n} needs O(N^3) variables; pass force=True"
        )
    if g.n > LINK_SIZE_WARN:
        warnings.warn(
            f"link MCF on N={g.n} builds ~{g.n * g.n * g.num_edges // g.n} "
            "variables and may be slow", stacklevel=3
        )


def _node_edge_templates(g: Digraph):
    """Per-edge (tail, head) arrays used to assemble conservation rows fast."""
    tails = np.fromiter((u for u, _, _ in g.edges), dtype=np.int64, count=g.num_edges)
    heads = np.fromiter((v for _, v, _ in g.edges), dtype=np.int64, count=g.num_edges)
    return tails, heads


def _flow_matrix(flows: dict[tuple[int, int], float], n_rows: int,
                 n_edges: int) -> sp.csr_matrix:
    """(row, edge) -> rate as a sparse rows x edges matrix."""
    keys = np.array(list(flows), dtype=np.int64).reshape(-1, 2)
    return sp.csr_matrix((list(flows.values()), (keys[:, 0], keys[:, 1])),
                         shape=(n_rows, n_edges))


def _net_inflow(g: Digraph, x: sp.csr_matrix) -> sp.csr_matrix:
    """Net inflow per node of each row of the flows ``x`` (rows x edges)."""
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(g.num_edges)
    incidence = sp.csr_matrix(
        (np.r_[np.ones(eidx.size), -np.ones(eidx.size)],
         (np.r_[eidx, eidx], np.r_[heads, tails])), shape=(eidx.size, g.n))
    return (x @ incidence).tocsr()


def _bracket(g: Digraph, comms: list[Commodity], rows, x: sp.csr_matrix,
             ell: np.ndarray) -> tuple[float, float]:
    """Certified [F_lo, F_hi] on the optimal concurrent rate.

    Row ``rows[ci]`` of ``x`` (rows x edges) is a flow out of commodity ci's
    source; several commodities of one source may share a row. F_lo: clip x
    to >= 0; if every commodity receives at least delta per unit demand at
    its destination, x / max_e(load_e / c_e) is a feasible concurrent flow
    of rate delta / max_e(load_e / c_e). A deficit at a node that is neither
    the row's source nor one of its destinations is flow from elsewhere, so
    it is taken off. F_hi: for any edge lengths ell >= 0, every concurrent
    flow of rate F has sum_e c_e ell_e >= F sum_c demand_c dist_ell(c)
    (Shahrokhi-Matula, JACM 1990); the LP's capacity-row duals make the two
    sides meet.
    """
    from scipy.sparse.csgraph import shortest_path

    tails, heads = _node_edge_templates(g)
    cap = np.asarray(g.capacities, dtype=float)
    rows = np.asarray(rows)
    src, dst = np.array([(c.src, c.dst) for c in comms]).T
    demand = np.array([c.demand for c in comms])

    x = sp.csr_matrix(x)
    x.data = np.maximum(x.data, 0.0)
    net = _net_inflow(g, x).toarray()
    end = np.zeros(net.shape, dtype=bool)
    end[rows, src] = end[rows, dst] = True
    stray = np.where(end, 0.0, np.maximum(-net, 0.0)).sum(axis=1)
    delta = ((net[rows, dst] - stray[rows]) / demand).min()
    util = (np.asarray(x.sum(axis=0)).ravel() / cap).max()
    F_lo = delta / util if delta > 0 else 0.0

    ell = np.maximum(ell, 0.0)
    # sparse input keeps zero-length edges as edges
    sources, si = np.unique(src, return_inverse=True)
    dist = shortest_path(
        sp.csr_matrix((ell, (tails, heads)), shape=(g.n, g.n)),
        directed=True, indices=sources)
    total = demand @ dist[si, dst]
    F_hi = cap @ ell / total if total > 0 else math.inf
    return float(F_lo), float(F_hi)


def verify_flow(g: Digraph, sol: LinkFlowSolution) -> dict[str, float]:
    """Max residuals of a link solution, each 0 for an exact one.

    ``capacity``: load above capacity on any edge, or a negative flow.
    ``conservation``: |net inflow| of a commodity at any node other than
    its source and destination. ``delivery``: |net inflow at the
    destination - F * demand| of any commodity.
    """
    C = len(sol.commodities)
    x = _flow_matrix(sol.flows, C, g.num_edges)
    load = np.asarray(x.sum(axis=0)).ravel()
    src, dst = np.array([(c.src, c.dst) for c in sol.commodities]).T
    demand = np.array([c.demand for c in sol.commodities])
    net = _net_inflow(g, x)
    delivered = np.asarray(net[np.arange(C), dst]).ravel()
    net = net.tocoo()
    inner = (net.col != src[net.row]) & (net.col != dst[net.row])
    return {
        "capacity": float(max(0.0, (load - np.asarray(g.capacities)).max(),
                              -x.data.min(initial=0.0))),
        "conservation": float(np.abs(net.data[inner]).max(initial=0.0)),
        "delivery": float(np.abs(delivered - sol.F * demand).max()),
    }


def mcf_link(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    force: bool = False,
) -> LinkFlowSolution:
    """Optimal concurrent rate F and per-commodity link flows.

    Conservation is modeled as an inequality (received >= sent at
    intermediates) and tightened afterwards by peeling each commodity's flow
    (``_peel``), so the returned flows conserve exactly and deliver exactly
    F * demand.
    """
    _check_size(g, force)
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    if not comms:
        raise McfError("no commodities")
    model = _build_link_model(g, comms)
    sol = solve_lp(model)
    if not sol.optimal:
        raise McfError(f"link MCF LP did not solve: {sol.status} {sol.message}")
    E = g.num_edges
    F = float(sol.x[-1])
    tails, heads = (t.tolist() for t in _node_edge_templates(g))
    flows = {}
    for ci, com in enumerate(comms):
        raw = {e: sol.x[ci * E + e] for e in range(E) if sol.x[ci * E + e] > FLOW_EPS}
        (paths,) = _peel(tails, heads, raw, com.src, [(com.dst, F * com.demand)])
        for e, v in _path_sum(paths).items():
            if v > FLOW_EPS:
                flows[(ci, e)] = v
    # maximizing F, the capacity rows' duals are >= 0 edge lengths
    F_lo, F_hi = _bracket(g, comms, np.arange(len(comms)),
                          _flow_matrix(flows, len(comms), E), sol.duals_ub[:E])
    return LinkFlowSolution(F=F, commodities=list(comms), flows=flows, graph=g,
                            F_lo=F_lo, F_hi=F_hi)


def _build_link_model(g: Digraph, comms: list[Commodity]) -> LpModel:
    E, C = g.num_edges, len(comms)
    n_vars = C * E + 1
    f_var = C * E
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(E, dtype=np.int64)

    rows_list, cols_list, vals_list = [], [], []
    # capacity rows 0..E-1: sum_c f[c,e] <= cap
    cap_cols = (np.arange(C)[:, None] * E + eidx[None, :]).ravel()
    cap_rows = np.tile(eidx, C)
    rows_list.append(cap_rows)
    cols_list.append(cap_cols)
    vals_list.append(np.ones(C * E))
    b_parts = [np.asarray(g.capacities, dtype=float)]

    # conservation rows: one per (c, u), empty for u in {s, d}
    cons_base = E
    for ci, com in enumerate(comms):
        keep_out = (tails != com.src) & (tails != com.dst)
        keep_in = (heads != com.src) & (heads != com.dst)
        r = np.concatenate([tails[keep_out], heads[keep_in]]) + cons_base + ci * g.n
        c = np.concatenate([eidx[keep_out], eidx[keep_in]]) + ci * E
        v = np.concatenate([np.ones(keep_out.sum()), -np.ones(keep_in.sum())])
        rows_list.append(r)
        cols_list.append(c)
        vals_list.append(v)
    b_parts.append(np.zeros(C * g.n))

    # demand rows: -inflow(d) + demand * F <= 0
    dem_base = E + C * g.n
    for ci, com in enumerate(comms):
        into_d = eidx[heads == com.dst]
        r = np.full(into_d.size + 1, dem_base + ci)
        c = np.concatenate([into_d + ci * E, [f_var]])
        v = np.concatenate([-np.ones(into_d.size), [com.demand]])
        rows_list.append(r)
        cols_list.append(c)
        vals_list.append(v)
    b_parts.append(np.zeros(C))

    a_ub = sp.csr_matrix(
        (np.concatenate(vals_list),
         (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(dem_base + C, n_vars),
    )
    b_ub = np.concatenate(b_parts)
    # flow into a source or out of a destination never helps F; pinning it to
    # zero keeps destinations from minting circulating flow
    ub = np.full(n_vars, np.inf)
    for ci, com in enumerate(comms):
        ub[ci * E + eidx[heads == com.src]] = 0.0
        ub[ci * E + eidx[tails == com.dst]] = 0.0
    c_obj = np.zeros(n_vars)
    c_obj[f_var] = 1.0
    return LpModel(c=c_obj, sense="max", a_ub=a_ub, b_ub=b_ub, ub=ub)


def _peel(tails, heads, x: dict[int, float], s: int,
          targets: list[tuple[int, float]]) -> list[list[tuple[list[int], float]]]:
    """Split a single-source flow into weighted paths, one list per target.

    Arc ``a`` runs from ``tails[a]`` to ``heads[a]``; ``x`` maps arc index ->
    rate of a flow out of ``s`` in which every other node absorbs >= 0. For
    each (d, amount) in ``targets`` in turn, shortest s->d paths in the
    remaining support are peeled off until they carry ``amount``. Removing an
    s->d path leaves every other node's net inflow unchanged, so each later
    target stays reachable and the split is exact (flow decomposition,
    Ahuja-Magnanti-Orlin ch. 3). Returns, per target, (arc list, rate) pairs
    whose paths never re-enter s.
    """
    rest = dict(x)
    out: dict[int, list[int]] = {}
    for a, v in x.items():
        if v > FLOW_EPS:
            out.setdefault(tails[a], []).append(a)
    result = []
    for d, amount in targets:
        need = amount
        paths = []
        while need > 1e-11:
            # BFS for a shortest s -> d path over arcs still carrying flow
            prev = {s: -1}
            dq = deque([s])
            while dq and d not in prev:
                u = dq.popleft()
                for a in out.get(u, ()):
                    w = heads[a]
                    if w not in prev and rest[a] > FLOW_EPS:
                        prev[w] = a
                        dq.append(w)
            if d not in prev:
                break
            path = []
            node = d
            while node != s:
                path.append(prev[node])
                node = tails[prev[node]]
            path.reverse()
            push = min(need, min(rest[a] for a in path))
            for a in path:
                rest[a] -= push
            paths.append((path, push))
            need -= push
        if need > 1e-6 * max(amount, 1.0):
            raise McfError(
                f"flow decomposition from node {s} to node {d} recovered "
                f"only {amount - need:.9g} of {amount:.9g}"
            )
        result.append(paths)
    return result


def _path_sum(paths: list[tuple[list[int], float]]) -> dict[int, float]:
    """Arc rates of a weighted path list."""
    flow: dict[int, float] = {}
    for arcs, w in paths:
        for a in arcs:
            flow[a] = flow.get(a, 0.0) + w
    return flow


# ---------------------------------------------------------------------------
# decomposed MCF

def _build_master_model(g: Digraph, sources: list[int],
                        comms: list[Commodity]) -> LpModel:
    """min U over x[s, e] (at si * E + e) and U. Rows 0..E-1 are
    sum_s x[s, e] - cap_e * U <= 0; then per source s and node u != s,
    out - in <= -1 at destinations of s and <= 0 elsewhere.
    """
    N, E, S = g.n, g.num_edges, len(sources)
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(E)
    src = np.asarray(sources)[:, None]
    cols = np.arange(S)[:, None] * E + eidx
    # source si's row of node u (its own row is left out)
    base = E + np.arange(S)[:, None] * (N - 1)
    keep_out, keep_in = tails != src, heads != src
    a_ub = sp.csr_matrix(
        (np.concatenate([np.ones(S * E), -np.asarray(g.capacities, dtype=float),
                         np.ones(keep_out.sum()), -np.ones(keep_in.sum())]),
         (np.concatenate([np.tile(eidx, S), eidx,
                          (base + tails - (tails > src))[keep_out],
                          (base + heads - (heads > src))[keep_in]]),
          np.concatenate([cols.ravel(), np.full(E, S * E),
                          cols[keep_out], cols[keep_in]]))),
        shape=(E + S * (N - 1), S * E + 1),
    )
    sidx = {s: si for si, s in enumerate(sources)}
    si, s, d = np.array([(sidx[c.src], c.src, c.dst) for c in comms]).T
    b_ub = np.zeros(E + S * (N - 1))
    b_ub[E + si * (N - 1) + d - (d > s)] = -1.0
    # flow back into its own source never helps; pin it to zero
    ub = np.full(S * E + 1, np.inf)
    ub[cols[~keep_in]] = 0.0
    return LpModel(c=np.r_[np.zeros(S * E), 1.0], sense="min", a_ub=a_ub,
                   b_ub=b_ub, ub=ub)


def solve_master(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    want_flows: bool = True,
) -> SourceFlowSolution:
    """Source-grouped master LP; returns optimal F and per-source edge flows.

    Solves max concurrent flow as its reciprocal (Shahrokhi-Matula): unit
    demands are fixed and the LP minimizes the edge-utilization scale U, so
    F = 1 / U and the flows are x * F. Every solve is certified by
    ``[F_lo, F_hi]`` (``_bracket``). The flows, a vertex of the LP, feed
    flow decomposition; with ``want_flows=False`` none are returned, the
    solver skips its crossover from the interior optimum to a vertex (about
    half the time on large graphs) and F is F_lo.
    """
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    if not comms:
        raise McfError("no commodities")
    if any(c.demand != 1.0 for c in comms):
        raise McfError("decomposed MCF supports unit demands only")
    sources = sorted({c.src for c in comms})
    sol = solve_lp(_build_master_model(g, sources, comms), crossover=want_flows)
    if sol.status == "infeasible":
        raise McfError("master LP infeasible: a commodity has no path "
                       "(graph not strongly connected)")
    if not sol.optimal:
        raise McfError(f"master LP did not solve: {sol.status} {sol.message}")
    E = g.num_edges
    sidx = {s: si for si, s in enumerate(sources)}
    # minimizing U, the capacity rows' duals are <= 0
    F_lo, F_hi = _bracket(g, comms, [sidx[c.src] for c in comms],
                          sol.x[:-1].reshape(len(sources), E),
                          -sol.duals_ub[:E])
    # an interior optimum's U lies a little above the utilization of its own
    # flow; F_lo is the rate that flow is checked to carry
    F = 1.0 / float(sol.x[-1]) if want_flows else F_lo
    flows = {}
    if want_flows:
        x = sol.x[:-1] * F
        nz = np.flatnonzero(x > FLOW_EPS)
        flows = {divmod(i, E): v for i, v in zip(nz.tolist(), x[nz].tolist())}
    return SourceFlowSolution(F=F, sources=sources, flows=flows, graph=g,
                              F_lo=F_lo, F_hi=F_hi)


def mcf_decomposed(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    want_flows: bool = True,
) -> LinkFlowSolution:
    """Master LP over source-grouped flows + per-source flow decomposition.

    Returns the same F as mcf_link. Per-commodity flows are recovered by
    peeling each source's master flow into its destinations (``_peel``), with
    no further LP. ``want_flows=False`` skips the recovery when only F is
    needed (topology studies), and the master LP then stops at an interior
    optimum (``solve_master``).
    """
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    master = solve_master(g, comms, want_flows=want_flows)
    bracket = dict(F_lo=master.F_lo, F_hi=master.F_hi)
    if not want_flows:
        return LinkFlowSolution(F=master.F, commodities=list(comms), flows={},
                                graph=g, **bracket)
    per_source: dict[int, dict[int, float]] = {}
    for (si, e), v in master.flows.items():
        per_source.setdefault(si, {})[e] = v
    tails, heads = (t.tolist() for t in _node_edge_templates(g))
    results = {}
    for si, s in enumerate(master.sources):
        dests = sorted({c.dst for c in comms if c.src == s})
        peeled = _peel(tails, heads, per_source.get(si, {}), s,
                       [(d, master.F) for d in dests])
        results[s] = {d: _path_sum(paths) for d, paths in zip(dests, peeled)}
    flows = {}
    for ci, com in enumerate(comms):
        for e, v in results[com.src][com.dst].items():
            if v > FLOW_EPS:
                flows[(ci, e)] = v
    return LinkFlowSolution(F=master.F, commodities=list(comms), flows=flows,
                            graph=g, **bracket)


# ---------------------------------------------------------------------------
# time-stepped MCF

def mcf_timestepped(
    g: Digraph,
    l_max: int,
    commodities: list[Commodity] | None = None,
) -> TimeExpandedSolution:
    """Minimal total per-step utilization delivering every commodity's demand.

    One flow per source on the time-expanded DAG: nodes (u, k) for
    k = 0..l_max, a transport arc (u, k) -> (v, k+1) per edge and step, and a
    holdover arc (u, k) -> (u, k+1) per node and step that models buffering.
    Source s supplies its total demand at (s, 0) and each destination d
    absorbs demand(s, d) at (d, l_max); per step k, the sources together may
    use at most cap_e * U_k of edge e, and the LP minimizes sum U_k.
    Per-commodity trajectories are peeled from each source's flow
    (``_peel``) and cut at their first arrival at the destination.
    Infeasible when l_max < diameter.
    """
    if l_max < 1:
        raise McfError("l_max must be >= 1")
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    if not comms:
        raise McfError("no commodities")
    N, E, T = g.n, g.num_edges, l_max
    sources = sorted({c.src for c in comms})
    S = len(sources)
    tails, heads = _node_edge_templates(g)

    # TE node (u, k) is k*N + u. Arcs: transport k*E + e, then holdover
    # E*T + k*N + u. Variables: source block si*A + arc, then U_k at S*A + k.
    NT, A = N * (T + 1), (E + N) * T
    steps = np.arange(T)
    arc_tail = np.concatenate([(steps[:, None] * N + tails).ravel(),
                               (steps[:, None] * N + np.arange(N)).ravel()])
    arc_head = arc_tail + N
    arc_head[:E * T] = ((steps[:, None] + 1) * N + heads).ravel()
    n_vars = S * A + T

    # balance per (s, u, k): out - in = supply at (s, 0), -demand at (d, T)
    blk_rows = np.arange(S)[:, None] * NT
    blk_cols = np.arange(S)[:, None] * A + np.arange(A)
    a_eq = sp.csr_matrix(
        (np.concatenate([np.ones(S * A), -np.ones(S * A)]),
         (np.concatenate([(blk_rows + arc_tail).ravel(),
                          (blk_rows + arc_head).ravel()]),
          np.concatenate([blk_cols.ravel(), blk_cols.ravel()]))),
        shape=(S * NT, n_vars),
    )
    sidx = {s: si for si, s in enumerate(sources)}
    row0, src, dst = np.array([(sidx[c.src] * NT, c.src, c.dst) for c in comms]).T
    demand = np.array([c.demand for c in comms])
    b_eq = np.zeros(S * NT)
    np.add.at(b_eq, row0 + src, demand)
    np.add.at(b_eq, row0 + T * N + dst, -demand)

    # capacity per (e, k): sum_s x[s, e, k] - cap_e * U_k <= 0
    cap_rows = np.arange(E * T)
    a_ub = sp.csr_matrix(
        (np.concatenate([np.ones(S * E * T),
                         -np.tile(np.asarray(g.capacities, dtype=float), T)]),
         (np.concatenate([np.tile(cap_rows, S), cap_rows]),
          np.concatenate([blk_cols[:, :E * T].ravel(),
                          S * A + np.repeat(steps, E)]))),
        shape=(E * T, n_vars),
    )

    # flow back into its own source never helps; pin it to zero
    ub = np.full(n_vars, np.inf)
    into_src = arc_head[:E * T] % N == np.asarray(sources)[:, None]
    ub[blk_cols[:, :E * T][into_src]] = 0.0
    c_obj = np.zeros(n_vars)
    c_obj[S * A:] = 1.0
    model = LpModel(c=c_obj, sense="min", a_ub=a_ub, b_ub=np.zeros(E * T),
                    a_eq=a_eq, b_eq=b_eq, ub=ub)
    sol = solve_lp(model)
    if sol.status == "infeasible":
        raise McfError(
            f"time-stepped MCF infeasible at l_max={l_max}; "
            "l_max must be >= diameter(G)"
        )
    if not sol.optimal:
        raise McfError(f"time-stepped MCF LP did not solve: {sol.status}")

    arc_tail, arc_head = arc_tail.tolist(), arc_head.tolist()
    heads = heads.tolist()
    by_src: dict[int, list[int]] = {s: [] for s in sources}
    for ci, c in enumerate(comms):
        by_src[c.src].append(ci)
    flows: dict[tuple[int, int, int], float] = {}
    for si, s in enumerate(sources):
        x = sol.x[si * A:(si + 1) * A]
        nz = np.flatnonzero(x > FLOW_EPS)
        cis = by_src[s]
        peeled = _peel(arc_tail, arc_head, dict(zip(nz.tolist(), x[nz].tolist())),
                       s, [(T * N + comms[ci].dst, comms[ci].demand) for ci in cis])
        for ci, paths in zip(cis, peeled):
            d = comms[ci].dst
            for arcs, w in paths:
                # holdover arcs are implicit waiting. A path may reach d
                # before step T, leave and return; the commodity's share ends
                # at its first arrival, or d would receive more than its demand
                for a in arcs:
                    if a >= E * T:
                        continue
                    k, e = divmod(a, E)
                    flows[(ci, e, k)] = flows.get((ci, e, k), 0.0) + w
                    if heads[e] == d:
                        break
    return TimeExpandedSolution(l_max=T, U=np.asarray(sol.x[S * A:]),
                                commodities=list(comms), flows=flows, graph=g)


# ---------------------------------------------------------------------------
# path-based MCF

def mcf_path(g: Digraph, pathset):
    """Concurrent rate restricted to the given per-commodity paths.

    `pathset` is a WeightedPathSet (weights ignored on input). Solves the LP
    relaxation of the path model shared with the congestion ILP
    (``paths._path_model``): each commodity's path weights sum to 1 and the
    LP minimizes the edge-utilization scale U, so F = 1 / U. Returns
    (F, WeightedPathSet) with per-path rates w_p * F; paths that carry
    nothing are left out.
    """
    from .paths import WeightedPathSet, _path_model

    if not pathset.paths:
        raise McfError("empty path set")
    sol = solve_lp(_path_model(g, pathset, integral=False))
    if not sol.optimal:
        raise McfError(f"path MCF LP did not solve: {sol.status}")
    F = 1.0 / float(sol.x[-1])
    out, p = {}, 0
    for sd, plist in sorted(pathset.paths.items()):
        rates = (sol.x[p:p + len(plist)] * F).tolist()
        out[sd] = [(tuple(path), w) for (path, _), w in zip(plist, rates)
                   if w > FLOW_EPS]
        p += len(plist)
    return F, WeightedPathSet(paths=out)


def save_solution(sol, path: str) -> None:
    """Serialize a link or time-stepped solution to JSON."""
    if isinstance(sol, TimeExpandedSolution):
        doc = {
            "kind": "ts",
            "l_max": sol.l_max,
            "U": [float(u) for u in sol.U],
            "flows": [
                [sol.commodities[ci].src, sol.commodities[ci].dst,
                 *sol.graph.edges[e][:2], v, t]
                for (ci, e, t), v in sorted(sol.flows.items())
            ],
        }
    elif isinstance(sol, LinkFlowSolution):
        doc = {
            "kind": "link",
            "F": sol.F,
            "commodities": [[c.src, c.dst, c.demand] for c in sol.commodities],
            "flows": [
                [sol.commodities[ci].src, sol.commodities[ci].dst,
                 *sol.graph.edges[e][:2], v]
                for (ci, e), v in sorted(sol.flows.items())
            ],
        }
    else:
        raise McfError(f"cannot serialize {type(sol).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_solution(path: str, g: Digraph):
    """Inverse of save_solution; needs the graph for edge indexing.

    Text that is not JSON, a missing field or a short record raises
    McfError naming the file and the field.
    """
    doc = _read_json(path, McfError)
    eidx = g.edge_index

    def get(key, parse):
        return _json_field(path, doc, key, parse, McfError)

    kind = get("kind", str)
    if kind == "ts":
        recs = get("flows", lambda fl: [(s, d, eidx[(u, v)], t, rate)
                                          for s, d, u, v, rate, t in fl])
        pairs = sorted({(s, d) for s, d, *_ in recs})
        cidx = {p: i for i, p in enumerate(pairs)}
        return TimeExpandedSolution(
            l_max=get("l_max", int),
            U=get("U", lambda u: np.asarray(u, dtype=float)),
            commodities=[Commodity(s, d) for s, d in pairs],
            flows={(cidx[(s, d)], e, t): rate for s, d, e, t, rate in recs},
            graph=g)
    if kind == "link":
        # entries are [s, d, demand]; older files hold [s, d] for unit demand
        comms = get("commodities", lambda cs: [Commodity(*c) for c in cs])
        cidx = {(c.src, c.dst): i for i, c in enumerate(comms)}
        flows = get("flows", lambda fl: {(cidx[(s, d)], eidx[(u, v)]): rate
                                           for s, d, u, v, rate in fl})
        return LinkFlowSolution(F=get("F", float), commodities=comms,
                                flows=flows, graph=g)
    raise McfError(f"{path}: unknown solution kind {kind!r}")
