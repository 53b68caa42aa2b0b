"""Max-concurrent multi-commodity flow formulations over a Digraph.

Four formulations, all assembled as sparse matrices. Link-based,
source-decomposed and time-stepped are one LP (``_build_master_model``) with
the flows grouped two ways: one flow per commodity (link) or one per source,
which carries all of that source's commodities (decomposed, the master LP;
time-stepped is the master LP on the time-expanded graph, whose holdover
arcs model buffering and have no capacity row, with one U per step).
Path-based is the path model it shares with the congestion ILP
(``paths._path_model``). All four fix the demands and minimize the
edge-utilization scale U, or the sum of the per-step U_t (F is 1 / U), so U
sits only in the capacity rows.

One flow decomposition (``_peel``) splits each solved flow into
per-commodity paths or time-stepped trajectories that deliver exactly their
demand. Solutions keep them, sum their ``flows`` from them, and route
extraction and the time-stepped lowering read them as they are.

Every static and time-stepped solve certifies its F or sum U_t without
trusting the solver: F_lo comes from the returned primal flow, F_hi from the
capacity-row duals as arc lengths over the whole graph, with one capacity
group per step on the time-expanded one (``_bracket``). So an F-only solve
needs no LP when a flow it can build is certified optimal: the even split of
every commodity over its fewest-hop paths, with hop lengths, closes on tori
and hypercubes. Otherwise it is the flow solve without the decomposition.
Every solve runs on the LP's quotient by colour refinement
(``lp.solve_lp``): where sources see the graph alike, one column stands for
a class of interchangeable flow variables, as one flow per source stands for
its commodities. ``verify_flow`` rechecks a link solution.

Inside the module a commodity set is three arrays (src, dst, demand), built
and checked once (``_commodities``); ``Commodity`` lists are built only for
the solutions that return one.
"""
from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graphs import (Digraph, _json_field, _node_edge_templates, _read_json,
                     _write_json)
from .graphs import hops as _hop_counts
from .lp import LpModel, solve_lp

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
# F-only master solves skip the LP when the even shortest-path split's
# certified gap 1 - F_lo / F_hi is within F_ONLY_GAP
F_ONLY_GAP = 2e-7
LINK_SIZE_WARN = 150
LINK_SIZE_HARD = 400
# a commodity set inside the module: (src, dst, demand), one entry each
CommodityArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


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
    """Concurrent rate F plus each commodity's weighted paths.

    ``paths[ci]`` lists the (edge index list, rate) pairs that ``_peel``
    split commodity ci's flow into, carrying F * demand. ``flows`` maps (ci,
    edge index) -> rate summed from them, without entries within FLOW_EPS of
    0. ``F_lo <= F <= F_hi`` is the certified bracket on the optimal rate;
    ``lp_solves`` counts the LP solves behind it and ``lp_vars`` is the
    column count HiGHS solved.
    """

    F: float
    commodities: list[Commodity]
    paths: list[list[tuple[list[int], float]]]
    graph: Digraph = field(repr=False)
    F_lo: float
    F_hi: float
    lp_solves: int
    lp_vars: int

    @property
    def flows(self) -> dict[tuple[int, int], float]:
        return {(ci, e): v for ci in range(len(self.paths))
                for e, v in self.flow_of(ci).items()}

    @property
    def gap(self) -> float:
        """Relative width (F_hi - F_lo) / F_hi of the certified bracket."""
        return 1.0 - self.F_lo / self.F_hi

    def flow_of(self, ci: int) -> dict[int, float]:
        return {e: v for e, v in _path_sum(self.paths[ci]).items()
                if abs(v) > FLOW_EPS}


@dataclass
class SourceFlowSolution:
    F: float                               # 1 / U.sum()
    U: np.ndarray                          # per-step utilization scale
    sources: list[int]                     # root of each flow
    flows: dict[tuple[int, int], float]    # (flow index, edge index) -> rate
    graph: Digraph = field(repr=False)
    F_lo: float              # certified bracket on the optimal rate
    F_hi: float
    lp_solves: int           # 0 when the even shortest-path split certified F
    lp_vars: int             # columns HiGHS solved, or 0

    gap = LinkFlowSolution.gap            # 1 - F_lo / F_hi


@dataclass
class TimeExpandedSolution:
    l_max: int
    U: np.ndarray                           # per-step utilization bound
    commodities: list[Commodity]
    # per commodity, (hops, shard fraction) pairs: the (step, edge index)
    # transport hops of one path up to its first arrival; waiting is implicit
    trajectories: list[list[tuple[tuple[tuple[int, int], ...], float]]]
    graph: Digraph = field(repr=False)
    # certified bracket on the optimal sum of U
    U_lo: float
    U_hi: float

    @property
    def flows(self) -> dict[tuple[int, int, int], float]:
        """(ci, edge, step) -> shard fraction, summed from the trajectories."""
        flows: dict[tuple[int, int, int], float] = {}
        for ci, trs in enumerate(self.trajectories):
            for hops, w in trs:
                for t, e in hops:
                    flows[(ci, e, t)] = flows.get((ci, e, t), 0.0) + w
        return flows

    @property
    def total_utilization(self) -> float:
        return float(self.U.sum())

    @property
    def gap(self) -> float:
        """Relative width (U_hi - U_lo) / U_hi of the certified bracket."""
        return 1.0 - self.U_lo / self.U_hi


# ---------------------------------------------------------------------------
# flow certificate, residuals and decomposition

def _net_inflow(g: Digraph, x: sp.csr_matrix) -> sp.csr_matrix:
    """Net inflow per node of each row of the flows ``x`` (rows x edges)."""
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(g.num_edges)
    incidence = sp.csr_matrix(
        (np.r_[np.ones(eidx.size), -np.ones(eidx.size)],
         (np.r_[eidx, eidx], np.r_[heads, tails])), shape=(eidx.size, g.n))
    return (x @ incidence).tocsr()


def _bracket(g: Digraph, comms: CommodityArrays, rows, x: sp.csr_matrix,
             ell: np.ndarray, step: np.ndarray) -> tuple[float, float]:
    """Certified [F_lo, F_hi] on the optimal F = 1 / min sum_k U_k.

    Arc e's load is at most c_e * U_step[e] (with every step 0, F is the
    concurrent rate); an arc whose step is -1 is uncapacitated.
    Row ``rows[ci]`` of ``x`` (rows x arcs) is a flow out of commodity ci's
    source; several commodities of one source may share a row. F_lo: clip x
    to >= 0; if every commodity receives at least delta per unit demand at
    its destination, x / delta delivers the demands with U_k = max over the
    arcs of step k of load_e / (c_e delta), so F_lo = delta / sum_k of those
    maxima of load_e / c_e. A deficit at a node that is neither the row's
    source nor one of its destinations is flow from elsewhere, so it is
    taken off. F_hi: for any lengths ell >= 0, 0 on uncapacitated arcs,
    every flow that delivers the demands has sum_c demand_c dist_ell(c) <=
    sum_e ell_e load_e <= sum_k U_k w_k with w_k = sum of c_e ell_e over
    step k's arcs, so F <= max_k w_k / sum_c demand_c dist_ell(c)
    (Shahrokhi-Matula, JACM 1990); the LP's capacity-row duals make the two
    sides meet. Where they meet, rounding may put F_lo above F_hi: F_hi is
    raised to F_lo within 1e-12 relative, and a larger excess is an error.
    """
    from scipy.sparse.csgraph import shortest_path

    tails, heads = _node_edge_templates(g)
    capped = step >= 0
    steps = step.max(initial=0) + 1
    cap = np.asarray(g.capacities, dtype=float)[capped]
    rows = np.asarray(rows)
    src, dst, demand = comms

    x = sp.csr_matrix(x)
    x.data = np.maximum(x.data, 0.0)
    net = _net_inflow(g, x).toarray()
    end = np.zeros(net.shape, dtype=bool)
    end[rows, src] = end[rows, dst] = True
    stray = np.where(end, 0.0, np.maximum(-net, 0.0)).sum(axis=1)
    delta = ((net[rows, dst] - stray[rows]) / demand).min()
    util = np.zeros(steps)
    np.maximum.at(util, step[capped],
                  np.asarray(x.sum(axis=0)).ravel()[capped] / cap)
    util = util.sum()
    F_lo = delta / util if delta > 0 else 0.0

    ell = np.where(capped, np.maximum(ell, 0.0), 0.0)
    # sparse input keeps zero-length edges as edges
    sources, si = np.unique(src, return_inverse=True)
    dist = shortest_path(
        sp.csr_matrix((ell, (tails, heads)), shape=(g.n, g.n)),
        directed=True, indices=sources)
    # summed elementwise, not by a BLAS dot (see ``lp._linprog``), in (src,
    # dst) order, so that the bound does not depend on the commodity order
    total = np.sum((demand * dist[si, dst])[np.argsort(src * g.n + dst)])
    w = np.bincount(step[capped], weights=cap * ell[capped], minlength=steps)
    F_lo = float(F_lo)
    F_hi = float(w.max() / total) if total > 0 else math.inf
    if F_lo > F_hi:
        if F_lo > F_hi * (1.0 + 1e-12):
            raise McfError(f"certificate failed: F_lo {F_lo!r} above F_hi "
                           f"{F_hi!r}")
        F_hi = F_lo
    return F_lo, F_hi


def verify_flow(g: Digraph, sol: LinkFlowSolution) -> dict[str, float]:
    """Max residuals of a link solution, each 0 for an exact one.

    ``capacity``: load above capacity on any edge, or a negative flow.
    ``conservation``: |net inflow| of a commodity at any node other than
    its source and destination. ``delivery``: |net inflow at the
    destination - F * demand| of any commodity.
    """
    C = len(sol.commodities)
    keys = np.array(list(sol.flows), dtype=np.int64).reshape(-1, 2)
    x = sp.csr_matrix((list(sol.flows.values()), (keys[:, 0], keys[:, 1])),
                      shape=(C, g.num_edges))
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
# static MCF: one LP, with one flow per commodity (link) or per source
# (decomposed)

def _commodities(g: Digraph,
                 commodities: list[Commodity] | None) -> CommodityArrays:
    """The commodities as (src, dst, demand) arrays; by default all-to-all,
    in the order of ``all_to_all_commodities``. McfError if there are none,
    an endpoint is not a node of ``g`` or a (src, dst) pair repeats."""
    n = g.n
    if commodities is None:
        src, dst = np.divmod(np.arange(n * n), n)
        src, dst = src[src != dst], dst[src != dst]
        demand = np.ones(src.size)
    else:
        src, dst = np.array([(c.src, c.dst) for c in commodities],
                            dtype=np.int64).reshape(-1, 2).T
        demand = np.array([c.demand for c in commodities], dtype=float)
    if not src.size:
        raise McfError("no commodities")
    bad = np.flatnonzero((np.minimum(src, dst) < 0)
                         | (np.maximum(src, dst) >= n))
    if bad.size:
        raise McfError(f"commodity ({src[bad[0]]}, {dst[bad[0]]}) has an "
                       f"endpoint outside [0, {n})")
    pairs = np.sort(src * n + dst)
    if (pairs[1:] == pairs[:-1]).any():
        _check_distinct(commodities)
    return src, dst, demand


def _commodity_list(comms: CommodityArrays) -> list[Commodity]:
    return [Commodity(*c) for c in zip(*(a.tolist() for a in comms))]


def _check_distinct(comms: list[Commodity], where: str = "") -> None:
    """Routes are keyed (src, dst), so a repeated pair is ambiguous."""
    seen = set()
    for c in comms:
        if (c.src, c.dst) in seen:
            raise McfError(f"{where}repeated commodity ({c.src}, {c.dst})")
        seen.add((c.src, c.dst))


def _check_size(g: Digraph):
    if g.n > LINK_SIZE_HARD:
        raise McfError(
            f"link MCF on N={g.n} needs O(N^3) variables, more than "
            f"N={LINK_SIZE_HARD} allows; use the decomposed solver"
        )
    if g.n > LINK_SIZE_WARN:
        warnings.warn(
            f"link MCF on N={g.n} builds ~{g.n * g.n * g.num_edges // g.n} "
            "variables and may be slow", stacklevel=3
        )


def _even_split(g: Digraph, roots: np.ndarray, group,
                comms: CommodityArrays) -> np.ndarray:
    """(K, E) flows x[k, e] that split each commodity of flow ``group[ci]``
    evenly over all its fewest-hop paths out of ``roots[k]``.

    Path counting after Brandes (J. Math. Sociol. 2001), for all roots at
    once: a forward pass over the hop layers counts the shortest paths sigma
    from each root, and a backward pass gives each arc u -> v of the
    shortest-path DAG the share sigma_u / sigma_v of what enters v, which
    is v's demand plus what leaves v on the DAG. A destination no root
    reaches receives nothing.
    """
    N, E, K = g.n, g.num_edges, len(roots)
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(E)
    into = sp.csr_matrix((np.ones(E), (eidx, heads)), shape=(E, N))
    out_of = sp.csr_matrix((np.ones(E), (eidx, tails)), shape=(E, N))
    hop = _hop_counts(g, roots)
    layer = hop[:, heads]
    dag = np.isfinite(layer) & (layer == hop[:, tails] + 1)
    layer = np.where(dag, layer, 0)
    depth = int(layer.max(initial=0))
    sigma = np.zeros((K, N))
    sigma[np.arange(K), roots] = 1.0
    for h in range(1, depth + 1):
        sigma += np.where(layer == h, sigma[:, tails], 0.0) @ into
    share = np.divide(sigma[:, tails], sigma[:, heads],
                      out=np.zeros((K, E)), where=dag)
    # demand at each node plus, once its layer is done, the flow leaving it
    through = np.zeros((K, N))
    np.add.at(through, (np.asarray(group), comms[1]), comms[2])
    x = np.zeros((K, E))
    for h in range(depth, 0, -1):
        xh = np.where(layer == h, through[:, heads] * share, 0.0)
        through += xh @ out_of
        x += xh
    return x


def _build_master_model(g: Digraph, roots: np.ndarray, group,
                        comms: CommodityArrays, step=None) -> LpModel:
    """min sum_k U_k over flows x[k, e] out of ``roots[k]``, and U.

    Commodity ci travels in flow ``group[ci]``. Columns are the x[k, e] in
    row-major order, then U_0, U_1, ... (one U, step 0 for every arc, unless
    ``step`` is given). First, in arc order, a capacity row sum_k x[k, e] -
    cap_e * U_step[e] <= 0 for each arc e with step[e] >= 0; then per flow k
    and node u != roots[k], out - in <= -(demand of the flow's commodities
    to u), 0 elsewhere.
    """
    N, E, K = g.n, g.num_edges, len(roots)
    n = K * E
    tails, heads = _node_edge_templates(g)
    step = np.zeros(E, dtype=np.int64) if step is None else step
    capped = step >= 0
    R = int(capped.sum())
    src = np.asarray(roots)[:, None]
    cols = np.arange(n).reshape(K, E)
    # flow k's row of node u (its root's row is left out)
    base = R + np.arange(K)[:, None] * (N - 1)
    keep_out, keep_in = tails != src, heads != src
    a_ub = sp.csr_matrix(
        (np.concatenate([np.ones(K * R),
                         -np.asarray(g.capacities, dtype=float)[capped],
                         np.ones(keep_out.sum()), -np.ones(keep_in.sum())]),
         (np.concatenate([np.tile(np.arange(R), K), np.arange(R),
                          (base + tails - (tails > src))[keep_out],
                          (base + heads - (heads > src))[keep_in]]),
          np.concatenate([cols[:, capped].ravel(), n + step[capped],
                          cols[keep_out], cols[keep_in]]))),
        shape=(R + K * (N - 1), n + step.max(initial=0) + 1),
    )
    k = np.asarray(group)
    s = src[k, 0]
    _, d, demand = comms
    b_ub = np.zeros(R + K * (N - 1))
    np.add.at(b_ub, R + k * (N - 1) + d - (d > s), -demand)
    # flow back into its own root never helps; pin it to zero
    ub = np.full(a_ub.shape[1], np.inf)
    ub[cols[~keep_in]] = 0.0
    return LpModel(c=np.r_[np.zeros(n), np.ones(a_ub.shape[1] - n)],
                   a_ub=a_ub, b_ub=b_ub, ub=ub)


def _solve_flows(g: Digraph, roots: np.ndarray, group, comms: CommodityArrays,
                 want_flows: bool = True, step=None) -> SourceFlowSolution:
    """Solve ``_build_master_model`` and certify its F by ``_bracket``.

    Returns U and F = 1 / sum(U) and, unless ``want_flows=False``, the flows
    x * F keyed (flow index, arc). ``step`` groups the capacity rows as in
    ``_build_master_model``. ``solve_lp`` solves the LP on its
    colour-refined quotient and lifts the vertex and duals back. An F-only
    solve first tries the even shortest-path split (``_even_split``),
    certified with hop lengths: it closes when it loads every arc alike, as
    on tori and hypercubes with equal capacities, and then F is its F_lo and
    no LP is solved. ``_bracket`` bounds F over the whole graph for any
    flow, so a flow that needs no LP is as good as its certificate.
    """
    K, E = len(roots), g.num_edges
    step = np.zeros(E, dtype=np.int64) if step is None else step
    if not want_flows:
        x = _even_split(g, roots, group, comms)
        F_lo, F_hi = _bracket(g, comms, group, x, np.ones(E), step)
        # a graph that is not strongly connected gives F_lo = F_hi = 0
        if F_lo > 0 and F_lo >= (1.0 - F_ONLY_GAP) * F_hi:
            return SourceFlowSolution(F=F_lo, U=np.array([1.0 / F_lo]),
                                      sources=roots.tolist(), flows={},
                                      graph=g, F_lo=F_lo, F_hi=F_hi,
                                      lp_solves=0, lp_vars=0)
    sol = solve_lp(_build_master_model(g, roots, group, comms, step))
    if sol.status == "infeasible":
        raise McfError("master LP infeasible: a commodity has no path "
                       "(graph not strongly connected)")
    if not sol.optimal:
        raise McfError(f"master LP did not solve: {sol.status} {sol.message}")
    x, U = sol.x[:K * E], np.asarray(sol.x[K * E:])
    # minimizing U, the capacity rows' duals are <= 0
    capped = step >= 0
    ell = np.zeros(E)
    ell[capped] = -sol.duals_ub[:capped.sum()]
    F_lo, F_hi = _bracket(g, comms, group, x.reshape(K, E), ell, step)
    F = 1.0 / float(U.sum())
    flows = {}
    if want_flows:
        x = x * F
        nz = np.flatnonzero(x > FLOW_EPS)
        flows = {divmod(i, E): v for i, v in zip(nz.tolist(), x[nz].tolist())}
    return SourceFlowSolution(F=F, U=U, sources=roots.tolist(), flows=flows,
                              graph=g, F_lo=F_lo, F_hi=F_hi, lp_solves=1,
                              lp_vars=sol.solved_vars)


def _split_flows(comms: CommodityArrays, group, master: SourceFlowSolution
                 ) -> list[list[tuple[list[int], float]]]:
    """Peel each flow of ``master`` into its commodities (``_peel``): the
    paths of commodity ci, peeled from flow ``group[ci]`` with F * demand;
    within a flow, destinations are peeled in sorted order."""
    per_flow: dict[int, dict[int, float]] = {}
    for (k, e), v in master.flows.items():
        per_flow.setdefault(k, {})[e] = v
    group, dst, demand = (np.asarray(a).tolist() for a in (group, *comms[1:]))
    members: dict[int, list[int]] = {}
    for ci in np.argsort(comms[1], kind="stable").tolist():
        members.setdefault(group[ci], []).append(ci)
    tails, heads = (t.tolist() for t in _node_edge_templates(master.graph))
    peeled = {}
    for k, cis in members.items():
        peeled.update(zip(cis, _peel(
            tails, heads, per_flow.get(k, {}), master.sources[k],
            [(dst[ci], master.F * demand[ci]) for ci in cis])))
    return [peeled[ci] for ci in range(len(dst))]


def _link_solution(comms: CommodityArrays, master: SourceFlowSolution,
                   paths) -> LinkFlowSolution:
    return LinkFlowSolution(F=master.F, commodities=_commodity_list(comms),
                            paths=paths, graph=master.graph, F_lo=master.F_lo,
                            F_hi=master.F_hi, lp_solves=master.lp_solves,
                            lp_vars=master.lp_vars)


def mcf_link(
    g: Digraph,
    commodities: list[Commodity] | None = None,
) -> LinkFlowSolution:
    """Optimal concurrent rate F and per-commodity link flows.

    The master LP with one flow per commodity, so C * E flow variables
    (``_build_master_model``). Conservation is modeled as an inequality
    (received >= sent at intermediates) and tightened afterwards by peeling
    each commodity's flow (``_peel``), so the returned flows conserve
    exactly and deliver exactly F * demand. F is certified by ``[F_lo,
    F_hi]`` (``_bracket``). A graph of more than ``LINK_SIZE_HARD`` nodes
    raises McfError: its model would not fit in memory.
    """
    _check_size(g)
    comms = _commodities(g, commodities)
    group = np.arange(comms[0].size)
    master = _solve_flows(g, comms[0], group, comms)
    return _link_solution(comms, master, _split_flows(comms, group, master))


def solve_master(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    want_flows: bool = True,
) -> SourceFlowSolution:
    """Source-grouped master LP; returns optimal F and per-source edge flows.

    The same LP as ``mcf_link`` with one flow per source, which carries all
    of that source's commodities. It solves max concurrent flow as its
    reciprocal (Shahrokhi-Matula): the demands are fixed and the LP
    minimizes the edge-utilization scale U, so F = 1 / U and the flows are
    x * F. Every solve is certified by ``[F_lo, F_hi]`` (``_bracket``) and
    runs on the LP's quotient by colour refinement, one column per class of
    interchangeable flow variables (``lp.solve_lp``). The flows, an optimum
    constant on each class, feed flow decomposition. ``want_flows=False``
    solves the same LP to the same F and returns no flows, unless the even
    split of each commodity over its fewest-hop paths is certified within
    ``F_ONLY_GAP``: then no LP is solved and F is that split's F_lo
    (``_solve_flows``). ``lp_solves`` is 1, or 0 with no LP, and
    ``lp_vars`` the column count HiGHS solved.
    """
    comms = _commodities(g, commodities)
    # the sorted distinct sources, and each commodity's index among them
    sources, group = np.unique(comms[0], return_inverse=True)
    return _solve_flows(g, sources, group, comms, want_flows)


def mcf_decomposed(
    g: Digraph,
    commodities: list[Commodity] | None = None,
) -> LinkFlowSolution:
    """Master LP over source-grouped flows + per-source flow decomposition.

    Returns the same F as mcf_link. Per-commodity flows are recovered by
    peeling each source's master flow into its destinations (``_peel``), with
    no further LP. When only F is needed, ``solve_master(g,
    want_flows=False)`` solves the same LP without the recovery.
    """
    comms = _commodities(g, commodities)
    sources, group = np.unique(comms[0], return_inverse=True)
    master = _solve_flows(g, sources, group, comms)
    return _link_solution(comms, master, _split_flows(comms, group, master))

# ---------------------------------------------------------------------------
# time-stepped MCF

def _time_expanded(g: Digraph, T: int) -> tuple[Digraph, np.ndarray]:
    """The time-expanded DAG of ``g`` over T steps, and each arc's step.

    Node (u, k) is k * N + u for k = 0..T. Transport arc k * E + e runs
    (u, k) -> (v, k+1) for edge e = u -> v, with its capacity, at step k;
    then holdover arc E * T + k * N + u runs (u, k) -> (u, k+1), models
    buffering, and has no capacity (step -1).
    """
    N = g.n
    edges = [(k * N + u, (k + 1) * N + v, c)
             for k in range(T) for u, v, c in g.edges]
    edges += [(k * N + u, (k + 1) * N + u, math.inf)
              for k in range(T) for u in range(N)]
    step = np.r_[np.repeat(np.arange(T), g.num_edges), np.full(N * T, -1)]
    return Digraph(n=N * (T + 1), edges=tuple(edges)), step


def mcf_timestepped(
    g: Digraph,
    l_max: int,
    commodities: list[Commodity] | None = None,
) -> TimeExpandedSolution:
    """Minimal total per-step utilization delivering every commodity's demand.

    The master LP (``_solve_flows``) on the time-expanded DAG
    (``_time_expanded``), one flow per source: source s supplies its
    commodities at (s, 0) and each destination d absorbs demand(s, d) at
    (d, l_max); per step k, the sources together may use at most cap_e * U_k
    of edge e, and the LP minimizes sum U_k. ``[U_lo, U_hi]`` certifies that
    sum (``_bracket`` with one capacity group per step). Per-commodity
    trajectories are peeled from each source's flow (``_split_flows``) and
    cut at their first arrival at the destination. Infeasible when some
    commodity needs more than l_max hops, as when l_max < diameter.
    """
    if l_max < 1:
        raise McfError("l_max must be >= 1")
    comms = _commodities(g, commodities)
    src, dst, demand = comms
    N, E, T = g.n, g.num_edges, l_max
    sources, group = np.unique(src, return_inverse=True)
    if _hop_counts(g, sources)[group, dst].max() > T:
        raise McfError(f"time-stepped MCF infeasible at l_max={l_max}; "
                       "l_max must be >= diameter(G)")
    te, step = _time_expanded(g, T)
    te_comms = (src, T * N + dst, demand)
    master = _solve_flows(te, sources, group, te_comms, step=step)
    trajectories = []
    for d, paths in zip(dst.tolist(), _split_flows(te_comms, group, master)):
        merged: dict[tuple[tuple[int, int], ...], float] = {}
        for arcs, w in paths:
            # holdover arcs are implicit waiting. A path may reach d before
            # step T, leave and return; the commodity's share ends at its
            # first arrival, or d would receive more than its demand. Paths
            # that differ only after it are one trajectory
            hops = []
            for a in arcs:
                if a >= E * T:
                    continue
                k, e = divmod(a, E)
                hops.append((k, e))
                if g.edges[e][1] == d:
                    break
            merged[tuple(hops)] = merged.get(tuple(hops), 0.0) + w / master.F
        trajectories.append(list(merged.items()))
    return TimeExpandedSolution(l_max=T, U=master.U,
                                commodities=_commodity_list(comms),
                                trajectories=trajectories, graph=g,
                                U_lo=1.0 / master.F_hi,
                                U_hi=1.0 / master.F_lo)


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


def save_solution(sol: TimeExpandedSolution, path: str) -> None:
    """Serialize a time-stepped solution to JSON, with its certified
    bracket ``U_lo``, ``U_hi``. Its ``trajectories`` hold, per commodity
    index, [hops, shard fraction] pairs whose hops are [step, u, v]. A static
    solution is saved as its routes (``paths.save_routes``).
    """
    edges = sol.graph.edges
    _write_json(path, {
        "kind": "ts", "l_max": sol.l_max, "U": [float(u) for u in sol.U],
        "U_lo": sol.U_lo, "U_hi": sol.U_hi,
        "commodities": [[c.src, c.dst, c.demand] for c in sol.commodities],
        "trajectories": {
            ci: [[[[t, *edges[e][:2]] for t, e in hops], w]
                 for hops, w in trs]
            for ci, trs in enumerate(sol.trajectories)}})


def _check_causal(path: str, g: Digraph, T: int, com: Commodity,
                  trajectories) -> None:
    """McfError naming ``path`` unless every trajectory of ``com`` joins its
    source to its destination through hops at strictly increasing steps in
    [0, T), arriving only at its last hop, and they carry its demand."""
    where = f"{path}: commodity ({com.src},{com.dst})"
    for hops, _ in trajectories:
        node, last = com.src, -1
        for t, e in hops:
            u, v, _ = g.edges[e]
            if node == com.dst:
                raise McfError(f"{where}: leaves its destination at step {t}")
            if u != node:
                raise McfError(f"{where}: hop {u}->{v} at step {t} does not "
                               f"continue from node {node}")
            if not last < t < T:
                raise McfError(f"{where}: hop at step {t} after step {last}; "
                               f"steps must increase within [0, {T})")
            node, last = v, t
        if node != com.dst:
            raise McfError(f"{where}: trajectory ends at node {node}")
    total = sum(w for _, w in trajectories)
    if abs(total - com.demand) > 1e-9:
        raise McfError(f"{where}: trajectories carry {total:.12g}, not its "
                       f"demand {com.demand:.12g}")


def load_solution(path: str, g: Digraph) -> TimeExpandedSolution:
    """Inverse of save_solution; needs the graph for edge indexing.

    Trajectories are checked by ``_check_causal``. Text that is not JSON, a
    kind other than ``ts``, a missing field, a short record or a trajectory
    that fails a check raises McfError naming the file.
    """
    doc = _read_json(path, McfError)
    eidx = g.edge_index

    def get(key, parse):
        return _json_field(path, doc, key, parse, McfError)

    kind = get("kind", str)
    if kind != "ts":
        raise McfError(f"{path}: unknown solution kind {kind!r}")
    l_max = get("l_max", int)
    U = get("U", lambda u: np.asarray(u, dtype=float))
    comms = get("commodities", lambda cs: [Commodity(*c) for c in cs])
    _check_distinct(comms, f"{path}: ")
    trajectories = get("trajectories", lambda tr: [
        [(tuple((int(t), eidx[(u, v)]) for t, u, v in hops), float(w))
         for hops, w in tr[str(ci)]]
        for ci in range(len(comms))])
    for com, trs in zip(comms, trajectories):
        _check_causal(path, g, l_max, com, trs)
    return TimeExpandedSolution(l_max=l_max, U=U, commodities=comms,
                                trajectories=trajectories, graph=g,
                                U_lo=get("U_lo", float),
                                U_hi=get("U_hi", float))
