"""Max-concurrent multi-commodity flow formulations over a Digraph.

Four formulations: link-based, source-decomposed (one master LP whose
per-source flows are split into per-commodity flows by flow decomposition),
time-stepped on the time-expanded graph, and path-based. All assemble
sparse models directly in matrix form and decode the solver output into
flow solutions with exactly conserved per-commodity flows.
"""
from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import Digraph
from .lp import LpModel, LpOptions, LpSolution, solve_lp

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
    "flow_scale_check",
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
    FLOW_EPS are dropped.
    """

    F: float
    commodities: list[Commodity]
    flows: dict[tuple[int, int], float]
    graph: Digraph = field(repr=False)

    def flow_of(self, ci: int) -> dict[int, float]:
        return {e: v for (c, e), v in self.flows.items() if c == ci}

    def edge_loads(self) -> np.ndarray:
        load = np.zeros(self.graph.num_edges)
        for (_, e), v in self.flows.items():
            load[e] += v
        return load


@dataclass
class SourceFlowSolution:
    F: float
    sources: list[int]
    flows: dict[tuple[int, int], float]    # (source index, edge index) -> rate
    graph: Digraph = field(repr=False)


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


def mcf_link(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    options: LpOptions | None = None,
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
    sol = solve_lp(model, options)
    if not sol.optimal:
        raise McfError(f"link MCF LP did not solve: {sol.status} {sol.message}")
    E = g.num_edges
    F = float(sol.x[-1])
    flows = {}
    for ci, com in enumerate(comms):
        raw = {e: sol.x[ci * E + e] for e in range(E) if sol.x[ci * E + e] > FLOW_EPS}
        peeled = _peel(g, raw, com.src, [com.dst], F * com.demand)[com.dst]
        for e, v in peeled.items():
            if v > FLOW_EPS:
                flows[(ci, e)] = v
    return LinkFlowSolution(F=F, commodities=list(comms), flows=flows, graph=g)


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


def _peel(g: Digraph, x: dict[int, float], s: int, dests: list[int],
          amount: float) -> dict[int, dict[int, float]]:
    """Split a single-source flow into per-destination flows of ``amount``.

    ``x`` maps edge index -> rate of a flow out of ``s`` in which every other
    node absorbs >= 0. For each destination in turn, shortest s->d paths in
    the remaining support are peeled off until d has ``amount``. Removing an
    s->d path leaves every other node's net inflow unchanged, so each later
    destination stays reachable and the split is exact (flow decomposition,
    Ahuja-Magnanti-Orlin ch. 3). Each returned flow conserves exactly and
    contains no flow into s.
    """
    rest = dict(x)
    out: dict[int, list[int]] = {}
    for e, v in x.items():
        if v > FLOW_EPS:
            out.setdefault(g.edges[e][0], []).append(e)
    result = {}
    for d in dests:
        need = amount
        flow: dict[int, float] = {}
        while need > 1e-11:
            # BFS for a shortest s -> d path over arcs still carrying flow
            prev = {s: -1}
            dq = deque([s])
            while dq and d not in prev:
                u = dq.popleft()
                for e in out.get(u, ()):
                    w = g.edges[e][1]
                    if w not in prev and rest[e] > FLOW_EPS:
                        prev[w] = e
                        dq.append(w)
            if d not in prev:
                break
            path = []
            node = d
            while node != s:
                path.append(prev[node])
                node = g.edges[prev[node]][0]
            push = min(need, min(rest[e] for e in path))
            for e in path:
                rest[e] -= push
                flow[e] = flow.get(e, 0.0) + push
            need -= push
        if need > 1e-6 * max(amount, 1.0):
            raise McfError(
                f"flow decomposition for commodity ({s},{d}) recovered only "
                f"{amount - need:.9g} of {amount:.9g}"
            )
        result[d] = flow
    return result


# ---------------------------------------------------------------------------
# decomposed MCF

def _build_master_model(g: Digraph, sources: list[int],
                        dests: dict[int, set[int]]) -> LpModel:
    E, S = g.num_edges, len(sources)
    n_vars = S * E + 1
    f_var = S * E
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(E, dtype=np.int64)
    rows_list, cols_list, vals_list = [], [], []
    cap_cols = (np.arange(S)[:, None] * E + eidx[None, :]).ravel()
    rows_list.append(np.tile(eidx, S))
    cols_list.append(cap_cols)
    vals_list.append(np.ones(S * E))
    b_parts = [np.asarray(g.capacities, dtype=float)]

    cons_base = E
    for si, s in enumerate(sources):
        keep_out = tails != s
        keep_in = heads != s
        r = np.concatenate([tails[keep_out], heads[keep_in]]) + cons_base + si * g.n
        c = np.concatenate([eidx[keep_out], eidx[keep_in]]) + si * E
        v = np.concatenate([np.ones(keep_out.sum()), -np.ones(keep_in.sum())])
        # + F at destination rows: out - in + F <= 0
        drows = np.fromiter(sorted(dests[s]), dtype=np.int64)
        r = np.concatenate([r, drows + cons_base + si * g.n])
        c = np.concatenate([c, np.full(drows.size, f_var)])
        v = np.concatenate([v, np.ones(drows.size)])
        rows_list.append(r)
        cols_list.append(c)
        vals_list.append(v)
    b_parts.append(np.zeros(S * g.n))

    a_ub = sp.csr_matrix(
        (np.concatenate(vals_list),
         (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(E + S * g.n, n_vars),
    )
    c_obj = np.zeros(n_vars)
    c_obj[f_var] = 1.0
    return LpModel(c=c_obj, sense="max", a_ub=a_ub, b_ub=np.concatenate(b_parts))


def solve_master(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    options: LpOptions | None = None,
) -> SourceFlowSolution:
    """Source-grouped master LP; returns optimal F and per-source edge flows."""
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    sources = sorted({c.src for c in comms})
    dests = {s: {c.dst for c in comms if c.src == s} for s in sources}
    if any(c.demand != 1.0 for c in comms):
        raise McfError("decomposed MCF supports unit demands only")
    model = _build_master_model(g, sources, dests)
    sol = solve_lp(model, options)
    if not sol.optimal:
        raise McfError(f"master LP did not solve: {sol.status} {sol.message}")
    E = g.num_edges
    F = float(sol.x[-1])
    flows = {
        (si, e): float(sol.x[si * E + e])
        for si in range(len(sources))
        for e in range(E)
        if sol.x[si * E + e] > FLOW_EPS
    }
    return SourceFlowSolution(F=F, sources=sources, flows=flows, graph=g)


def mcf_decomposed(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    options: LpOptions | None = None,
    want_flows: bool = True,
) -> LinkFlowSolution:
    """Master LP over source-grouped flows + per-source flow decomposition.

    Returns the same F as mcf_link. Per-commodity flows are recovered by
    peeling each source's master flow into its destinations (``_peel``), with
    no further LP. ``want_flows=False`` skips the recovery when only F is
    needed (topology studies).
    """
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    master = solve_master(g, comms, options)
    if not want_flows:
        return LinkFlowSolution(F=master.F, commodities=list(comms), flows={},
                                graph=g)
    per_source: dict[int, dict[int, float]] = {}
    for (si, e), v in master.flows.items():
        per_source.setdefault(si, {})[e] = v
    results = {}
    for si, s in enumerate(master.sources):
        dests = sorted({c.dst for c in comms if c.src == s})
        results[s] = _peel(g, per_source.get(si, {}), s, dests, master.F)
    flows = {}
    for ci, com in enumerate(comms):
        for e, v in results[com.src][com.dst].items():
            if v > FLOW_EPS:
                flows[(ci, e)] = v
    return LinkFlowSolution(F=master.F, commodities=list(comms), flows=flows,
                            graph=g)


# ---------------------------------------------------------------------------
# time-stepped MCF

def mcf_timestepped(
    g: Digraph,
    l_max: int,
    commodities: list[Commodity] | None = None,
    options: LpOptions | None = None,
) -> TimeExpandedSolution:
    """Minimal total per-step utilization delivering one unit per commodity.

    Flows live on the time-expanded graph; buffering at a node is implicit in
    the cumulative conservation constraints (sent-by-t <= received-before-t).
    Infeasible when l_max < diameter.
    """
    if l_max < 1:
        raise McfError("l_max must be >= 1")
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    E, C, T = g.num_edges, len(comms), l_max
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(E, dtype=np.int64)

    # variable layout: f[c,e,t] = ((c*E)+e)*T + t ; U_t at C*E*T + t
    nf = C * E * T
    n_vars = nf + T

    def var(ci, e, t):
        return (ci * E + e) * T + t

    rows_list, cols_list, vals_list = [], [], []
    ub_b = []
    row = 0

    # capacity: sum_c f[c,e,t] - cap_e * U_t <= 0
    for t in range(T):
        for e in range(E):
            cols = (np.arange(C) * E + e) * T + t
            rows_list.append(np.full(C + 1, row))
            cols_list.append(np.concatenate([cols, [nf + t]]))
            vals_list.append(np.concatenate([np.ones(C), [-g.capacities[e]]]))
            ub_b.append(0.0)
            row += 1

    out_edges = [np.asarray([e for e in range(E) if tails[e] == u], dtype=np.int64)
                 for u in range(g.n)]
    in_edges = [np.asarray([e for e in range(E) if heads[e] == u], dtype=np.int64)
                for u in range(g.n)]

    # cumulative conservation at intermediates, every step
    for ci, com in enumerate(comms):
        for u in range(g.n):
            if u in (com.src, com.dst):
                continue
            oe, ie = out_edges[u], in_edges[u]
            if oe.size == 0 and ie.size == 0:
                continue
            for t in range(T):
                cols = [var(ci, e, tp) for e in oe for tp in range(t + 1)]
                vals = [1.0] * len(cols)
                cols += [var(ci, e, tp) for e in ie for tp in range(t)]
                vals += [-1.0] * (len(cols) - len(vals))
                rows_list.append(np.full(len(cols), row))
                cols_list.append(np.asarray(cols))
                vals_list.append(np.asarray(vals))
                ub_b.append(0.0)
                row += 1

    a_ub = sp.csr_matrix(
        (np.concatenate(vals_list),
         (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(row, n_vars),
    )
    b_ub = np.asarray(ub_b)

    eq_rows, eq_cols, eq_vals, eq_b = [], [], [], []
    erow = 0
    for ci, com in enumerate(comms):
        # totals balance at intermediates
        for u in range(g.n):
            if u in (com.src, com.dst):
                continue
            oe, ie = out_edges[u], in_edges[u]
            if oe.size == 0 and ie.size == 0:
                continue
            cols = [var(ci, e, t) for e in oe for t in range(T)]
            vals = [1.0] * len(cols)
            cols += [var(ci, e, t) for e in ie for t in range(T)]
            vals += [-1.0] * (len(cols) - len(vals))
            eq_rows.append(np.full(len(cols), erow))
            eq_cols.append(np.asarray(cols))
            eq_vals.append(np.asarray(vals))
            eq_b.append(0.0)
            erow += 1
        # unit demand: source sends 1, destination receives 1
        cols = [var(ci, e, t) for e in out_edges[com.src] for t in range(T)]
        eq_rows.append(np.full(len(cols), erow))
        eq_cols.append(np.asarray(cols))
        eq_vals.append(np.ones(len(cols)))
        eq_b.append(com.demand)
        erow += 1
        cols = [var(ci, e, t) for e in in_edges[com.dst] for t in range(T)]
        eq_rows.append(np.full(len(cols), erow))
        eq_cols.append(np.asarray(cols))
        eq_vals.append(np.ones(len(cols)))
        eq_b.append(com.demand)
        erow += 1

    a_eq = sp.csr_matrix(
        (np.concatenate(eq_vals),
         (np.concatenate(eq_rows), np.concatenate(eq_cols))),
        shape=(erow, n_vars),
    )
    b_eq = np.asarray(eq_b)

    ub = np.ones(n_vars)
    ub[nf:] = np.inf
    # flow into a source or out of a destination never helps; pin it to zero
    for ci, com in enumerate(comms):
        for e in in_edges[com.src]:
            for t in range(T):
                ub[var(ci, e, t)] = 0.0
        for e in out_edges[com.dst]:
            for t in range(T):
                ub[var(ci, e, t)] = 0.0

    c_obj = np.zeros(n_vars)
    c_obj[nf:] = 1.0
    model = LpModel(c=c_obj, sense="min", a_ub=a_ub, b_ub=b_ub,
                    a_eq=a_eq, b_eq=b_eq, ub=ub)
    sol = solve_lp(model, options)
    if sol.status == "infeasible":
        raise McfError(
            f"time-stepped MCF infeasible at l_max={l_max}; "
            "l_max must be >= diameter(G)"
        )
    if not sol.optimal:
        raise McfError(f"time-stepped MCF LP did not solve: {sol.status}")
    U = np.asarray(sol.x[nf:])
    flows = {}
    for ci in range(C):
        base = ci * E * T
        chunkv = sol.x[base: base + E * T]
        nz = np.nonzero(chunkv > FLOW_EPS)[0]
        for k in nz:
            e, t = divmod(int(k), T)
            flows[(ci, e, t)] = float(chunkv[k])
    return TimeExpandedSolution(l_max=T, U=U, commodities=list(comms),
                                flows=flows, graph=g)


# ---------------------------------------------------------------------------
# path-based MCF

def mcf_path(
    g: Digraph,
    pathset,
    options: LpOptions | None = None,
):
    """Concurrent rate restricted to the given per-commodity paths.

    `pathset` is a WeightedPathSet (weights ignored on input); returns
    (F, WeightedPathSet) with optimal per-path weights filled in.
    """
    from .paths import WeightedPathSet, validate_path

    items = sorted(pathset.paths.items())
    if not items:
        raise McfError("empty path set")
    for (s, d), plist in items:
        if not plist:
            raise McfError(f"commodity ({s},{d}) has no paths")
    eidx = g.edge_index
    all_paths = []       # (commodity row, edge index list)
    offsets = []
    for k, ((s, d), plist) in enumerate(items):
        offsets.append(len(all_paths))
        for path, _ in plist:
            validate_path(g, s, d, path)
            all_paths.append((k, [eidx[(a, b)] for a, b in zip(path, path[1:])]))
    P = len(all_paths)
    n_vars = P + 1
    rows, cols, vals = [], [], []
    for p, (_, elist) in enumerate(all_paths):
        for e in elist:
            rows.append(e)
            cols.append(p)
            vals.append(1.0)
    b_parts = [np.asarray(g.capacities, dtype=float)]
    dem_base = g.num_edges
    for p, (k, _) in enumerate(all_paths):
        rows.append(dem_base + k)
        cols.append(p)
        vals.append(-1.0)
    for k in range(len(items)):
        rows.append(dem_base + k)
        cols.append(P)
        vals.append(1.0)
    b_parts.append(np.zeros(len(items)))
    a_ub = sp.csr_matrix((vals, (rows, cols)),
                         shape=(dem_base + len(items), n_vars))
    c_obj = np.zeros(n_vars)
    c_obj[P] = 1.0
    model = LpModel(c=c_obj, sense="max", a_ub=a_ub,
                    b_ub=np.concatenate(b_parts))
    sol = solve_lp(model, options)
    if not sol.optimal:
        raise McfError(f"path MCF LP did not solve: {sol.status}")
    F = float(sol.x[P])
    out: dict[tuple[int, int], list] = {}
    for k, ((s, d), plist) in enumerate(items):
        lo = offsets[k]
        hi = offsets[k + 1] if k + 1 < len(items) else P
        weighted = []
        for j, (path, _) in enumerate(plist):
            w = float(sol.x[lo + j])
            if w > FLOW_EPS:
                weighted.append((tuple(path), w))
        out[(s, d)] = weighted
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
            "commodities": [[c.src, c.dst] for c in sol.commodities],
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
    """Inverse of save_solution; needs the graph for edge indexing."""
    with open(path) as fh:
        doc = json.load(fh)
    eidx = g.edge_index
    if doc["kind"] == "ts":
        pairs = sorted({(s, d) for s, d, *_ in doc["flows"]})
        comms = [Commodity(s, d) for s, d in pairs]
        cidx = {p: i for i, p in enumerate(pairs)}
        flows = {
            (cidx[(s, d)], eidx[(u, v)], t): rate
            for s, d, u, v, rate, t in doc["flows"]
        }
        return TimeExpandedSolution(
            l_max=doc["l_max"], U=np.asarray(doc["U"], dtype=float),
            commodities=comms, flows=flows, graph=g)
    if doc["kind"] == "link":
        comms = [Commodity(s, d) for s, d in doc["commodities"]]
        cidx = {(c.src, c.dst): i for i, c in enumerate(comms)}
        flows = {
            (cidx[(s, d)], eidx[(u, v)]): rate
            for s, d, u, v, rate in doc["flows"]
        }
        return LinkFlowSolution(F=float(doc["F"]), commodities=comms,
                                flows=flows, graph=g)
    raise McfError(f"unknown solution kind {doc['kind']!r}")


def flow_scale_check(
    g: Digraph, c: float,
    options: LpOptions | None = None,
) -> tuple[float, float, bool]:
    """LP homogeneity harness: F(c*g) must equal c*F(g).

    Returns (F_scaled, c * F_base, ok at 1e-6 relative).
    """
    if c <= 0:
        raise McfError("scale factor must be positive")
    base = solve_master(g, options=options).F
    scaled = solve_master(g.scaled(c), options=options).F
    ok = abs(scaled - c * base) <= 1e-6 * max(c * base, 1e-12)
    return scaled, c * base, ok
