"""Path generation, extraction from flows, and routing baselines.

Every routing is a WeightedPathSet: per-commodity paths with rates, where a
single-path routing gives each commodity one path at weight 1. Includes path
extraction from link-flow solutions (the paths the MCF solvers peeled),
link-disjoint paths, shortest-path heuristics, dimension-ordered routing for
tori, and an ILP that picks one path per commodity minimizing edge
congestion.
"""
from __future__ import annotations

import heapq
import math
import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np
import scipy.sparse as sp

from .graphs import (Digraph, _json_field, _node_edge_templates, _read_json,
                     _torus_strides, _write_json, hops)
from .lp import LpModel, solve_ilp
from .mcf import _peel

__all__ = [
    "WeightedPathSet",
    "RouteError",
    "route_links",
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


def route_links(g: Digraph, s: int, d: int, path) -> list[int]:
    """Link indices of the node route ``path``, in route order; RouteError
    unless it joins s to d, is simple and uses only links of g."""
    if not path or path[0] != s or path[-1] != d:
        raise RouteError(f"path {path} does not join {s} -> {d}")
    if len(set(path)) != len(path):
        raise RouteError(f"path {path} is not simple")
    idx = g.edge_index
    try:
        return [idx[ab] for ab in zip(path, path[1:])]
    except KeyError as ex:
        raise RouteError("path {} uses nonexistent edge ({},{})".format(
            path, *ex.args[0])) from None


def _total_weight(s: int, d: int, plist) -> float:
    """A commodity's total path weight; RouteError when it has no paths or
    the total is not positive."""
    if not plist:
        raise RouteError(f"commodity ({s},{d}) has no paths")
    tot = sum(w for _, w in plist)
    if tot <= 0:
        raise RouteError(f"commodity ({s},{d}) has zero total weight")
    return tot


@dataclass
class WeightedPathSet:
    """Per-commodity weighted path lists.

    ``paths`` maps (s, d) to a list of (node tuple, weight). Weight units are
    link rates; generators that only enumerate leave weights at 0.
    """

    paths: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]]
    truncated: set[tuple[int, int]] = field(default_factory=set)


# ---------------------------------------------------------------------------
# enumeration

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
    # rdist[v]: hops from v to d, inf where unreachable
    for d, rdist in enumerate(hops(g).T.tolist()):
        for s in range(g.n):
            if s == d:
                continue
            # iterative lengthening keeps shortest-first order exact; the
            # range is empty when d is out of reach
            lengths = range(int(min(rdist[s], l_max + 1)), l_max + 1)
            found = [(p, 0.0) for p in islice(chain.from_iterable(
                _exact_paths(g, rdist, s, d, L) for L in lengths), cap)]
            if len(found) >= cap:
                truncated.add((s, d))
            out[(s, d)] = found
    if truncated:
        warnings.warn(
            f"path enumeration truncated at {cap} paths for "
            f"{len(truncated)} commodities", stacklevel=2
        )
    return WeightedPathSet(paths=out, truncated=truncated)


def _exact_paths(g: Digraph, rdist, s: int, d: int, L: int):
    """Yield the simple s->d paths of exactly L hops, depth first with
    smaller neighbors first; rdist[v] is v's hop distance to d."""
    adj = g.out_adj
    stack = [(s, (s,), {s})]
    while stack:
        u, path, seen = stack.pop()
        if u == d:
            if len(path) - 1 == L:
                yield path
            continue
        budget = L - (len(path) - 1)
        # reversed push so smaller neighbors pop first
        for v, _ in reversed(adj[u]):
            if v not in seen and rdist[v] <= budget - 1:
                stack.append((v, path + (v,), seen | {v}))


# ---------------------------------------------------------------------------
# link-disjoint paths

def disjoint_paths(g: Digraph) -> WeightedPathSet:
    """Maximal link-disjoint path set per commodity: a unit-capacity max-flow
    split by the MCF solvers' peel (``_peel``), shortest first, weights 0."""
    tails, heads = (t.tolist() for t in _node_edge_templates(g))
    out: dict[tuple[int, int], list] = {}
    for s in range(g.n):
        for d in range(g.n):
            if s == d:
                continue
            used = sorted(_unit_maxflow(g, s, d))
            (peeled,) = _peel(tails, heads, dict.fromkeys(used, 1.0), s,
                              [(d, sum(tails[e] == s for e in used))])
            out[(s, d)] = [((s, *(heads[a] for a in arcs)), 0.0)
                           for arcs, _ in peeled]
    return WeightedPathSet(paths=out)


def _unit_maxflow(g: Digraph, s: int, d: int) -> set[int]:
    """Edge indices carrying flow in a unit-capacity s->d max-flow."""
    used: set[int] = set()
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


# ---------------------------------------------------------------------------
# path extraction

def extract_widest_paths(g: Digraph, sol) -> WeightedPathSet:
    """Node paths of a LinkFlowSolution, each with the rate it carries.

    The paths are the ones its solver peeled off each commodity's flow
    (``_peel``); no flow is decomposed again.
    """
    heads = [v for _, v, _ in g.edges]
    # a peel never yields one path twice for a commodity
    return WeightedPathSet(paths={
        (com.src, com.dst): sorted(
            ((com.src, *(heads[a] for a in arcs)), w) for arcs, w in plist)
        for com, plist in zip(sol.commodities, sol.paths)})


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


def sssp_routes(g: Digraph, seed: int = 0) -> WeightedPathSet:
    """Sequential load-aware shortest paths, one per commodity at weight 1.

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
        for e in route_links(g, s, d, path):
            weight[e] += 1.0
        routes[(s, d)] = [(path, 1.0)]
    return WeightedPathSet(paths=routes)


def ewsp_routes(g: Digraph) -> WeightedPathSet:
    """Every shortest path per commodity, equal weights summing to 1: the
    enumeration of ``enum_paths_bounded`` at exactly the hop distance."""
    out: dict[tuple[int, int], list] = {}
    for d, rdist in enumerate(hops(g).T.tolist()):
        for s in range(g.n):
            if s == d:
                continue
            if rdist[s] == math.inf:
                raise RouteError(f"no path {s} -> {d}")
            paths = list(_exact_paths(g, rdist, s, d, int(rdist[s])))
            w = 1.0 / len(paths)
            out[(s, d)] = [(p, w) for p in paths]
    return WeightedPathSet(paths=out)


# ---------------------------------------------------------------------------
# dimension-ordered routing

def dor_routes(g: Digraph, dims: list[int] | None = None) -> WeightedPathSet:
    """Dimension-ordered torus routing, shorter ring direction per dim, one
    path per commodity at weight 1.

    Ties (even extents) resolve to the positive direction. `dims` defaults to
    the generator metadata stored on the graph; on any other graph a route
    fails ``route_links``.
    """
    if dims is None:
        params = g.meta.get("params", {}) if g.meta else {}
        dims = params.get("dims")
    if not dims:
        raise RouteError("dor_routes needs a torus with known dims")
    total, strides = _torus_strides(dims)
    if total != g.n:
        raise RouteError(f"dims {dims} do not match N={g.n}")
    k = len(dims)

    def coords(u):
        return [(u // strides[i]) % dims[i] for i in range(k)]

    def index(c):
        return sum(ci * si for ci, si in zip(c, strides))

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
            route_links(g, s, d, path)
            routes[(s, d)] = [(tuple(path), 1.0)]
    return WeightedPathSet(paths=routes)


# ---------------------------------------------------------------------------
# path model: pMCF and the congestion ILP

def _path_model(g: Digraph, pathset: WeightedPathSet,
                integral: bool) -> LpModel:
    """min U over path weights w_p in [0, 1] and the utilization scale U.

    Rows: first sum of w_p over the paths crossing edge e <= cap_e * U, in
    edge order; then, per commodity in sorted order, sum of w_p over its
    paths <= 1; then the same sums negated, <= -1. The two commodity rows
    hold each sum at exactly 1. Columns are the paths in commodity order,
    each commodity's in list order, then U. Its LP relaxation is the path
    formulation of max concurrent flow with F = 1 / U (Shahrokhi-Matula);
    ``integral`` makes the path columns binary, which picks one path per
    commodity. Every path is validated; an empty path set or a commodity
    without paths raises RouteError.
    """
    if not pathset.paths:
        raise RouteError("empty path set")
    comm, hop_edge, hop_path = [], [], []
    for k, ((s, d), plist) in enumerate(sorted(pathset.paths.items())):
        if not plist:
            raise RouteError(f"commodity ({s},{d}) has no paths")
        for path, _ in plist:
            links = route_links(g, s, d, path)
            hop_edge += links
            hop_path += [len(comm)] * len(links)
            comm.append(k)
    P, E, K = len(comm), g.num_edges, len(pathset.paths)
    cap = sp.csr_matrix(
        (np.r_[np.ones(len(hop_edge)), -np.asarray(g.capacities, dtype=float)],
         (np.r_[hop_edge, np.arange(E)], np.r_[hop_path, np.full(E, P)])),
        shape=(E, P + 1))
    one = sp.csr_matrix((np.ones(P), (comm, np.arange(P))), shape=(K, P + 1))
    return LpModel(c=np.r_[np.zeros(P), 1.0],
                   a_ub=sp.vstack([cap, one, -one], format="csr"),
                   b_ub=np.r_[np.zeros(E), np.ones(K), -np.ones(K)],
                   ub=np.r_[np.ones(P), np.inf],
                   integrality=np.r_[np.full(P, integral), False])


def ilp_min_congestion(
    g: Digraph,
    pathset: WeightedPathSet,
    alpha: float = 0.0,
) -> tuple[WeightedPathSet, float, float]:
    """Pick one path per commodity minimizing max normalized link load.

    Returns (routes, achieved load, optimality gap); each commodity's one
    path has weight 1. The model is the path model of ``mcf.mcf_path`` with
    binary path columns; its U is the load. HiGHS (``lp.solve_ilp``) solves
    it until the incumbent is within (1 + alpha) of its proven bound.
    """
    sol = solve_ilp(_path_model(g, pathset, integral=True), alpha=alpha)
    if sol.x is None:
        raise RouteError(f"congestion ILP failed: {sol.status} {sol.message}")
    flat = [(sd, path) for sd, plist in sorted(pathset.paths.items())
            for path, _ in plist]
    routes = {sd: [(tuple(path), 1.0)]
              for (sd, path), x in zip(flat, sol.x) if x > 0.5}
    if len(routes) != len(pathset.paths):
        raise RouteError("ILP incumbent does not select one path per commodity")
    return WeightedPathSet(paths=routes), float(sol.x[-1]), sol.gap


# ---------------------------------------------------------------------------
# evaluation and I/O

def eval_link_load(g: Digraph, wps) -> tuple[float, np.ndarray]:
    """Max and per-link load, normalized by capacity.

    Each commodity's weights are rescaled to sum to 1 so the load counts
    demand fractions; a rate-weighted set (e.g. widest-path extraction at
    rate F) then reports max load 1/F on its saturated edge. A commodity
    without paths or whose weights sum to 0 raises RouteError. Each link's
    load is its contributions' exact sum, rounded once (``math.fsum``), so
    it does not depend on the order of the commodities or the node labels.
    """
    parts = [[] for _ in range(g.num_edges)]
    for (s, d), plist in wps.paths.items():
        scale = 1.0 / _total_weight(s, d, plist)
        for path, w in plist:
            for e in route_links(g, s, d, path):
                parts[e].append(w * scale)
    load = np.array([math.fsum(p) for p in parts], dtype=float)
    norm = load / np.asarray(g.capacities)
    return (float(norm.max()) if len(norm) else 0.0), norm


def save_routes(wps, path: str) -> None:
    """Routes as JSON, with each weight written as the exact float."""
    _write_json(path, {"routes": [
        {"s": s, "d": d,
         "paths": [{"nodes": list(p), "weight": float(w)} for p, w in plist]}
        for (s, d), plist in sorted(wps.paths.items())]})


def load_routes(path: str) -> WeightedPathSet:
    """Inverse of save_routes. Text that is not JSON, a missing field, a
    short record or a weight that is a string, negative or not finite
    raises RouteError naming the file and the field."""
    def weight(w):
        if isinstance(w, str) or not math.isfinite(w):
            raise ValueError(f"weight {w!r} is not a finite number")
        if w < 0:
            raise ValueError(f"weight {w} is negative")
        return float(w)

    def record(rec):
        return (rec["s"], rec["d"]), [
            (tuple(p["nodes"]), weight(p["weight"])) for p in rec["paths"]]

    doc = _read_json(path, RouteError)
    return WeightedPathSet(paths=dict(_json_field(
        path, doc, "routes", lambda recs: [record(r) for r in recs],
        RouteError)))
