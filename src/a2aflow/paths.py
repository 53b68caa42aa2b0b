"""Path generation, extraction from flows, and routing baselines.

Produces two route containers: WeightedPathSet (multi-path with rates) and
RouteTable (single path per commodity). Includes path extraction from
link-flow solutions (flow decomposition by the MCF solvers' peel),
shortest-path heuristics, dimension-ordered routing for tori, and an ILP
that picks one path per commodity minimizing edge congestion.
"""
from __future__ import annotations

import heapq
import json
import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .graphs import Digraph, _json_field, _read_json
from .lp import LpModel, solve_ilp
from .mcf import _peel

__all__ = [
    "WeightedPathSet",
    "RouteTable",
    "RouteError",
    "validate_path",
    "enum_paths_bounded",
    "disjoint_paths",
    "extract_widest_paths",
    "sssp_routes",
    "ewsp_routes",
    "dor_routes",
    "ilp_min_congestion",
    "eval_link_load",
    "save_routes",
    "load_routes",
]

ENUM_DEFAULT_CAP = 64


class RouteError(ValueError):
    pass


def validate_path(g: Digraph, s: int, d: int, path) -> None:
    if path[0] != s or path[-1] != d:
        raise RouteError(f"path {path} does not join {s} -> {d}")
    if len(set(path)) != len(path):
        raise RouteError(f"path {path} is not simple")
    idx = g.edge_index
    for a, b in zip(path, path[1:]):
        if (a, b) not in idx:
            raise RouteError(f"path {path} uses nonexistent edge ({a},{b})")


@dataclass
class WeightedPathSet:
    """Per-commodity weighted path lists.

    ``paths`` maps (s, d) to a list of (node tuple, weight). Weight units are
    link rates; generators that only enumerate leave weights at 0.
    """

    paths: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]]
    truncated: set[tuple[int, int]] = field(default_factory=set)

    def validate(self, g: Digraph) -> None:
        for (s, d), plist in self.paths.items():
            for path, w in plist:
                validate_path(g, s, d, path)
                if w < 0:
                    raise RouteError(f"negative weight on {path}")

    def total_weight(self, s: int, d: int) -> float:
        return sum(w for _, w in self.paths[(s, d)])


@dataclass
class RouteTable:
    """Single-path routing: one node sequence per commodity."""

    routes: dict[tuple[int, int], tuple[int, ...]]

    def validate(self, g: Digraph) -> None:
        for (s, d), path in self.routes.items():
            validate_path(g, s, d, path)

    def as_pathset(self) -> WeightedPathSet:
        return WeightedPathSet(
            paths={sd: [(path, 1.0)] for sd, path in self.routes.items()}
        )


# ---------------------------------------------------------------------------
# enumeration

def _reverse_dists(g: Digraph, d: int) -> list[int]:
    """BFS hop counts to d, +inf where unreachable."""
    INF = 10 ** 9
    dist = [INF] * g.n
    dist[d] = 0
    dq = deque([d])
    while dq:
        v = dq.popleft()
        for u, _ in g.in_adj[v]:
            if dist[u] == INF:
                dist[u] = dist[v] + 1
                dq.append(u)
    return dist


def enum_paths_bounded(
    g: Digraph,
    l_max: int,
    per_commodity_cap: int | None = ENUM_DEFAULT_CAP,
) -> WeightedPathSet:
    """All simple paths of length <= l_max per commodity, shortest first.

    Truncates each commodity at per_commodity_cap paths and records the
    affected commodities in the result's `truncated` set (plus one warning).
    cap=None enumerates exhaustively and is allowed only for N <= 12.
    """
    if per_commodity_cap is None and g.n > 12:
        raise RouteError("exhaustive enumeration is limited to N <= 12")
    cap = per_commodity_cap if per_commodity_cap is not None else 10 ** 9
    out: dict[tuple[int, int], list] = {}
    truncated = set()
    nbrs = [sorted(v for v, _ in g.out_adj[u]) for u in range(g.n)]
    for d in range(g.n):
        rdist = _reverse_dists(g, d)
        for s in range(g.n):
            if s == d:
                continue
            found: list[tuple[tuple[int, ...], float]] = []
            if rdist[s] > l_max:
                out[(s, d)] = found
                continue
            # iterative lengthening keeps shortest-first order exact
            for L in range(rdist[s], l_max + 1):
                if len(found) >= cap:
                    break
                stack = [(s, (s,), {s})]
                while stack:
                    u, path, seen = stack.pop()
                    if u == d:
                        if len(path) - 1 == L:
                            found.append((path, 0.0))
                            if len(found) >= cap:
                                truncated.add((s, d))
                                break
                        continue
                    budget = L - (len(path) - 1)
                    # reversed push so smaller neighbors pop first
                    for v in reversed(nbrs[u]):
                        if v not in seen and rdist[v] <= budget - 1:
                            stack.append((v, path + (v,), seen | {v}))
            out[(s, d)] = found
    if truncated:
        warnings.warn(
            f"path enumeration truncated at {cap} paths for "
            f"{len(truncated)} commodities", stacklevel=2
        )
    return WeightedPathSet(paths=out, truncated=truncated)


# ---------------------------------------------------------------------------
# link-disjoint paths

def disjoint_paths(g: Digraph) -> WeightedPathSet:
    """Maximal link-disjoint path set per commodity via unit-cap max-flow."""
    out: dict[tuple[int, int], list] = {}
    for s in range(g.n):
        for d in range(g.n):
            if s == d:
                continue
            flow = _unit_maxflow(g, s, d)
            out[(s, d)] = [(p, 0.0) for p in _decompose_unit_flow(g, flow, s, d)]
    return WeightedPathSet(paths=out)


def _unit_maxflow(g: Digraph, s: int, d: int) -> set[int]:
    """Edge indices carrying flow in a unit-capacity s->d max-flow."""
    used: set[int] = set()
    idx = g.edge_index
    while True:
        # BFS in the residual graph: forward over unused edges, backward
        # along used ones
        prev: dict[int, tuple[int, int, bool]] = {s: (-1, -1, True)}
        dq = deque([s])
        while dq and d not in prev:
            u = dq.popleft()
            for v, e in g.out_adj[u]:
                if e not in used and v not in prev:
                    prev[v] = (u, e, True)
                    dq.append(v)
            for v, e in g.in_adj[u]:
                if e in used and v not in prev:
                    prev[v] = (u, e, False)
                    dq.append(v)
        if d not in prev:
            return used
        node = d
        while node != s:
            u, e, fwd = prev[node]
            if fwd:
                used.add(e)
            else:
                used.discard(e)
            node = u


def _decompose_unit_flow(g: Digraph, used: set[int], s: int, d: int):
    """Peel the unit flow into edge-disjoint s->d paths, smallest-next-hop first."""
    succ: dict[int, list[tuple[int, int]]] = {}
    for e in used:
        u, v, _ = g.edges[e]
        succ.setdefault(u, []).append((v, e))
    for u in succ:
        succ[u].sort()
    paths = []
    while succ.get(s):
        path = [s]
        node = s
        while node != d:
            v, e = succ[node].pop(0)
            path.append(v)
            node = v
        paths.append(tuple(path))
    return paths


# ---------------------------------------------------------------------------
# path extraction

def extract_widest_paths(g: Digraph, sol) -> WeightedPathSet:
    """Path decomposition of a LinkFlowSolution by the shared flow peel.

    Per commodity, shortest s->d paths are peeled off its flow (``_peel``,
    the routine the MCF solvers use) until they carry F * demand; each path
    is recorded with the rate it carries. Flow left on a cycle carries
    nothing to d and is dropped. Raises McfError when a commodity's flow
    delivers less than F * demand, e.g. for a solution built without flows.
    """
    by_comm: dict[int, dict[int, float]] = {}
    for (ci, e), v in sol.flows.items():
        by_comm.setdefault(ci, {})[e] = v
    tails = [u for u, _, _ in g.edges]
    heads = [v for _, v, _ in g.edges]
    out: dict[tuple[int, int], list] = {}
    for ci, com in enumerate(sol.commodities):
        (peeled,) = _peel(tails, heads, by_comm.get(ci, {}), com.src,
                          [(com.dst, sol.F * com.demand)])
        # each peeled path empties an arc or completes the amount, so no
        # path comes twice
        out[(com.src, com.dst)] = sorted(
            ((com.src, *(heads[a] for a in arcs)), w) for arcs, w in peeled)
    return WeightedPathSet(paths=out)


# ---------------------------------------------------------------------------
# shortest-path baselines

def _dijkstra_lex(g: Digraph, weight: list[float], s: int, d: int):
    """Min-weight s->d path, lexicographically smallest among ties."""
    best: dict[int, tuple[float, tuple[int, ...]]] = {}
    heap = [(0.0, (s,))]
    while heap:
        dist, path = heapq.heappop(heap)
        u = path[-1]
        cur = best.get(u)
        if cur is not None and cur[1] != path:
            continue
        if u == d:
            return path
        for v, e in sorted(g.out_adj[u]):
            if v in path:
                continue
            nd = dist + weight[e]
            npath = path + (v,)
            old = best.get(v)
            if old is None or nd < old[0] - 1e-12 or (
                    abs(nd - old[0]) <= 1e-12 and npath < old[1]):
                best[v] = (nd, npath)
                heapq.heappush(heap, (nd, npath))
    raise RouteError(f"no path {s} -> {d}")


def sssp_routes(g: Digraph, seed: int = 0) -> RouteTable:
    """Sequential load-aware shortest paths.

    Link weights start at N^2 (greater than the commodity count, which makes
    the outcome insensitive to lay order) and grow by 1 per path laid across
    them. Commodity order is a seeded shuffle.
    """
    weight = [float(g.n * g.n)] * g.num_edges
    comms = [(s, d) for s in range(g.n) for d in range(g.n) if s != d]
    random.Random(seed).shuffle(comms)
    routes = {}
    for s, d in comms:
        path = _dijkstra_lex(g, weight, s, d)
        for a, b in zip(path, path[1:]):
            weight[g.edge_index[(a, b)]] += 1.0
        routes[(s, d)] = path
    return RouteTable(routes=routes)


def ewsp_routes(g: Digraph) -> WeightedPathSet:
    """Every shortest path per commodity, equal weights summing to 1."""
    out: dict[tuple[int, int], list] = {}
    for d in range(g.n):
        rdist = _reverse_dists(g, d)
        for s in range(g.n):
            if s == d:
                continue
            paths: list[tuple[int, ...]] = []
            stack = [(s, (s,))]
            while stack:
                u, path = stack.pop()
                if u == d:
                    paths.append(path)
                    continue
                for v, _ in sorted(g.out_adj[u], reverse=True):
                    if rdist[v] == rdist[u] - 1:
                        stack.append((v, path + (v,)))
            w = 1.0 / len(paths)
            out[(s, d)] = [(p, w) for p in paths]
    return WeightedPathSet(paths=out)


# ---------------------------------------------------------------------------
# dimension-ordered routing

def dor_routes(g: Digraph, dims: list[int] | None = None) -> RouteTable:
    """Dimension-ordered torus routing, shorter ring direction per dim.

    Ties (even extents) resolve to the positive direction. `dims` defaults to
    the generator metadata stored on the graph.
    """
    if dims is None:
        params = g.meta.get("params", {}) if g.meta else {}
        dims = params.get("dims")
    if not dims:
        raise RouteError("dor_routes needs a torus with known dims")
    total = 1
    for e in dims:
        total *= e
    if total != g.n:
        raise RouteError(f"dims {dims} do not match N={g.n}")
    k = len(dims)
    strides = [1] * k
    for i in range(k - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    def coords(u):
        return [(u // strides[i]) % dims[i] for i in range(k)]

    def index(c):
        return sum(ci * si for ci, si in zip(c, strides))

    idx = g.edge_index
    routes = {}
    for s in range(g.n):
        for d in range(g.n):
            if s == d:
                continue
            cur = coords(s)
            dst = coords(d)
            path = [s]
            for i in range(k):
                e = dims[i]
                delta = (dst[i] - cur[i]) % e
                step = 1 if delta <= e - delta else -1
                while cur[i] != dst[i]:
                    cur[i] = (cur[i] + step) % e
                    path.append(index(cur))
            for a, b in zip(path, path[1:]):
                if (a, b) not in idx:
                    raise RouteError("graph is not the torus described by dims")
            routes[(s, d)] = tuple(path)
    return RouteTable(routes=routes)


# ---------------------------------------------------------------------------
# path model: pMCF and the congestion ILP

def _path_model(g: Digraph, pathset: WeightedPathSet,
                integral: bool) -> LpModel:
    """min U over path weights w_p in [0, 1] and the utilization scale U.

    Rows: sum of w_p over each commodity's paths = 1 (a_eq, one row per
    commodity in sorted order) and sum of w_p over the paths crossing edge
    e <= cap_e * U (a_ub). Columns are the paths in commodity order, each
    commodity's in list order, then U. Its LP relaxation is the path
    formulation of max concurrent flow with F = 1 / U (Shahrokhi-Matula);
    ``integral`` makes the path columns binary, which picks one path per
    commodity. Every path is validated; a commodity without paths raises
    RouteError.
    """
    eidx = g.edge_index
    comm, hop_edge, hop_path = [], [], []
    for k, ((s, d), plist) in enumerate(sorted(pathset.paths.items())):
        if not plist:
            raise RouteError(f"commodity ({s},{d}) has no paths")
        for path, _ in plist:
            validate_path(g, s, d, path)
            hop_edge += [eidx[ab] for ab in zip(path, path[1:])]
            hop_path += [len(comm)] * (len(path) - 1)
            comm.append(k)
    P, E = len(comm), g.num_edges
    a_eq = sp.csr_matrix((np.ones(P), (comm, np.arange(P))),
                         shape=(len(pathset.paths), P + 1))
    a_ub = sp.csr_matrix(
        (np.r_[np.ones(len(hop_edge)), -np.asarray(g.capacities, dtype=float)],
         (np.r_[hop_edge, np.arange(E)], np.r_[hop_path, np.full(E, P)])),
        shape=(E, P + 1))
    return LpModel(c=np.r_[np.zeros(P), 1.0], sense="min", a_ub=a_ub,
                   b_ub=np.zeros(E), a_eq=a_eq, b_eq=np.ones(a_eq.shape[0]),
                   ub=np.r_[np.ones(P), np.inf],
                   integrality=np.r_[np.full(P, integral), False])


def ilp_min_congestion(
    g: Digraph,
    pathset: WeightedPathSet,
    alpha: float = 0.0,
) -> tuple[RouteTable, float, float]:
    """Pick one path per commodity minimizing max normalized link load.

    Returns (table, achieved load, optimality gap). The model is the path
    model of ``mcf.mcf_path`` with binary path columns; its U is the load.
    HiGHS (``lp.solve_ilp``) solves it until the incumbent is within
    (1 + alpha) of its proven bound.
    """
    sol = solve_ilp(_path_model(g, pathset, integral=True), alpha=alpha)
    if sol.x is None:
        raise RouteError(f"congestion ILP failed: {sol.status} {sol.message}")
    flat = [(sd, path) for sd, plist in sorted(pathset.paths.items())
            for path, _ in plist]
    routes = {sd: tuple(path) for (sd, path), x in zip(flat, sol.x) if x > 0.5}
    if len(routes) != len(pathset.paths):
        raise RouteError("ILP incumbent does not select one path per commodity")
    return RouteTable(routes=routes), float(sol.x[-1]), sol.gap


# ---------------------------------------------------------------------------
# evaluation and I/O

def eval_link_load(g: Digraph, routing) -> tuple[float, np.ndarray]:
    """Max and per-link load, normalized by capacity.

    Accepts a RouteTable (unit path weights) or a WeightedPathSet. Each
    commodity's weights are rescaled to sum to 1 so the load counts demand
    fractions; a rate-weighted set (e.g. widest-path extraction at rate F)
    then reports max load 1/F on its saturated edge.
    """
    ps = routing.as_pathset() if isinstance(routing, RouteTable) else routing
    load = np.zeros(g.num_edges)
    for (s, d), plist in ps.paths.items():
        tot = sum(w for _, w in plist)
        scale = 1.0 / tot if tot > 0 else 0.0
        for path, w in plist:
            validate_path(g, s, d, path)
            for a, b in zip(path, path[1:]):
                load[g.edge_index[(a, b)]] += w * scale
    norm = load / np.asarray(g.capacities)
    return (float(norm.max()) if len(norm) else 0.0), norm


def _weight_str(w: float) -> str:
    f = Fraction(w).limit_denominator(10 ** 9)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def save_routes(routing, path: str) -> None:
    ps = routing.as_pathset() if isinstance(routing, RouteTable) else routing
    doc = {
        "routes": [
            {"s": s, "d": d,
             "paths": [{"nodes": list(p), "weight": _weight_str(w)}
                       for p, w in plist]}
            for (s, d), plist in sorted(ps.paths.items())
        ]
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_routes(path: str) -> WeightedPathSet:
    """Inverse of save_routes. Text that is not JSON, a missing field or a
    short record raises RouteError naming the file and the field."""
    def record(rec):
        return (rec["s"], rec["d"]), [
            (tuple(p["nodes"]), float(Fraction(str(p["weight"]))))
            for p in rec["paths"]]

    doc = _read_json(path, RouteError)
    return WeightedPathSet(paths=dict(_json_field(
        path, doc, "routes", lambda recs: [record(r) for r in recs],
        RouteError)))
