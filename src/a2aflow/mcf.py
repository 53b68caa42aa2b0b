"""Max-concurrent multi-commodity flow formulations over a Digraph.

Four formulations, all assembled as sparse matrices. Link-based and
source-decomposed are one static LP (``_build_master_model``) with the flows
grouped two ways: one flow per commodity (link) or one per source, which
carries all of that source's commodities (decomposed, the master LP).
Time-stepped is one flow per source on the time-expanded graph with holdover
arcs for buffering; path-based is the path model it shares with the
congestion ILP (``paths._path_model``). All four fix the demands and minimize
the edge-utilization scale U (F is 1 / U), so U sits only in the capacity
rows.

One flow decomposition (``_peel``) splits each solved flow into
per-commodity paths or time-stepped trajectories that deliver exactly their
demand. Solutions keep them, sum their ``flows`` from them, and route
extraction and the time-stepped lowering read them as they are.

Every static solve certifies F without trusting the solver: F_lo comes from
the returned primal flow, F_hi from the capacity-row duals as edge lengths
over the whole graph (``_bracket``). So an F-only solve needs the LP only as
large and as accurate as the certificate, or not at all: it first certifies
the even split of every commodity over its fewest-hop paths with hop
lengths, which closes on tori and hypercubes; then it solves over each
source's forward arcs at a looser interior-point optimality tolerance, and
the certified gap decides whether all arcs, then HiGHS's default tolerance,
are needed. ``verify_flow`` rechecks a link solution.
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
# F-only master solves stop the interior-point method at this optimality
# tolerance (HiGHS's default is 1e-8), on forward arcs first, and re-solve
# only while the certified gap 1 - F_lo / F_hi is above F_ONLY_GAP
F_ONLY_IPM_TOL = 1e-7
F_ONLY_GAP = 2e-7
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
    """Concurrent rate F plus each commodity's weighted paths.

    ``paths[ci]`` lists the (edge index list, rate) pairs that ``_peel``
    split commodity ci's flow into, carrying F * demand; ``paths`` is empty
    when the solve returned no flows. ``flows`` maps (ci, edge index) -> rate
    summed from them, without entries within FLOW_EPS of 0. ``F_lo <= F <=
    F_hi`` is the certified bracket on the optimal rate (NaN when loaded);
    ``lp_solves`` counts the LP solves behind it (None when loaded).
    """

    F: float
    commodities: list[Commodity]
    paths: list[list[tuple[list[int], float]]]
    graph: Digraph = field(repr=False)
    F_lo: float = math.nan
    F_hi: float = math.nan
    lp_solves: int | None = None

    @classmethod
    def from_flows(cls, F: float, commodities: list[Commodity],
                   flows: dict[tuple[int, int], float],
                   graph: Digraph) -> LinkFlowSolution:
        """Peel each commodity's arc rates, (ci, edge) -> rate, into paths
        carrying F * demand; flow left on a cycle is dropped."""
        by_comm: list[dict[int, float]] = [{} for _ in commodities]
        for (ci, e), v in flows.items():
            by_comm[ci][e] = v
        tails, heads = (t.tolist() for t in _node_edge_templates(graph))
        return cls(F=F, commodities=list(commodities), graph=graph, paths=[
            _peel(tails, heads, x, c.src, [(c.dst, F * c.demand)])[0]
            for c, x in zip(commodities, by_comm)])

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
    F: float
    sources: list[int]                     # root of each flow
    flows: dict[tuple[int, int], float]    # (flow index, edge index) -> rate
    graph: Digraph = field(repr=False)
    F_lo: float              # certified bracket on the optimal rate
    F_hi: float
    lp_solves: int           # 0 when the even shortest-path split certified F


@dataclass
class TimeExpandedSolution:
    l_max: int
    U: np.ndarray                           # per-step utilization bound
    commodities: list[Commodity]
    # per commodity, (hops, shard fraction) pairs: the (step, edge index)
    # transport hops of one path up to its first arrival; waiting is implicit
    trajectories: list[list[tuple[tuple[tuple[int, int], ...], float]]]
    graph: Digraph = field(repr=False)

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


# ---------------------------------------------------------------------------
# flow certificate, residuals and decomposition

def _node_edge_templates(g: Digraph):
    """Per-edge (tail, head) arrays used to assemble conservation rows fast."""
    tails = np.fromiter((u for u, _, _ in g.edges), dtype=np.int64, count=g.num_edges)
    heads = np.fromiter((v for _, v, _ in g.edges), dtype=np.int64, count=g.num_edges)
    return tails, heads


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
    sides meet. Where they meet, rounding may put F_lo above F_hi: F_hi is
    raised to F_lo within 1e-12 relative, and a larger excess is an error.
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
    util = (np.asarray(x.sum(axis=0)).ravel() / cap).max(initial=0.0)
    F_lo = delta / util if delta > 0 else 0.0

    ell = np.maximum(ell, 0.0)
    # sparse input keeps zero-length edges as edges
    sources, si = np.unique(src, return_inverse=True)
    dist = shortest_path(
        sp.csr_matrix((ell, (tails, heads)), shape=(g.n, g.n)),
        directed=True, indices=sources)
    total = demand @ dist[si, dst]
    F_lo = float(F_lo)
    F_hi = float(cap @ ell / total) if total > 0 else math.inf
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
                 commodities: list[Commodity] | None) -> list[Commodity]:
    comms = commodities if commodities is not None else all_to_all_commodities(range(g.n))
    if not comms:
        raise McfError("no commodities")
    _check_distinct(comms)
    return comms


def _check_distinct(comms: list[Commodity], where: str = "") -> None:
    """Flow records are keyed (src, dst), so a repeated pair is ambiguous."""
    seen = set()
    for c in comms:
        if (c.src, c.dst) in seen:
            raise McfError(f"{where}repeated commodity ({c.src}, {c.dst})")
        seen.add((c.src, c.dst))


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


def _hops(g: Digraph, roots: list[int]) -> np.ndarray:
    """(K, N) hop counts from each of ``roots``; inf where unreachable."""
    from scipy.sparse.csgraph import shortest_path

    tails, heads = _node_edge_templates(g)
    return shortest_path(sp.csr_matrix((np.ones(g.num_edges), (tails, heads)),
                                       shape=(g.n, g.n)),
                         directed=True, unweighted=True, indices=roots)


def _forward_arcs(g: Digraph, roots: list[int]) -> np.ndarray:
    """(K, E) mask of the arcs u -> v with hop(roots[k], v) >= hop(roots[k],
    u): flow k never moves back towards its root on them. Every BFS-tree arc
    is forward, so each node reachable from a root stays reachable."""
    tails, heads = _node_edge_templates(g)
    hop = _hops(g, roots)
    return hop[:, heads] >= hop[:, tails]


def _even_split(g: Digraph, roots: list[int], group,
                comms: list[Commodity]) -> np.ndarray:
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
    hop = _hops(g, roots)
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
    np.add.at(through, (np.asarray(group), [c.dst for c in comms]),
              [c.demand for c in comms])
    x = np.zeros((K, E))
    for h in range(depth, 0, -1):
        xh = np.where(layer == h, through[:, heads] * share, 0.0)
        through += xh @ out_of
        x += xh
    return x


def _build_master_model(g: Digraph, roots: list[int], group,
                        comms: list[Commodity], arcs=None) -> LpModel:
    """min U over flows x[k, e] out of ``roots[k]``, and U.

    Commodity ci travels in flow ``group[ci]``. Columns are the x[k, e] with
    ``arcs[k, e]`` (default all) in row-major order, then U. Rows 0..E-1 are
    sum_k x[k, e] - cap_e * U <= 0; then per flow k and node u != roots[k],
    out - in <= -(demand of the flow's commodities to u), 0 elsewhere.
    """
    N, E, K = g.n, g.num_edges, len(roots)
    arcs = np.ones((K, E), dtype=bool) if arcs is None else arcs
    n = int(arcs.sum())
    tails, heads = _node_edge_templates(g)
    eidx = np.arange(E)
    src = np.asarray(roots)[:, None]
    cols = np.cumsum(arcs).reshape(K, E) - 1
    # flow k's row of node u (its root's row is left out)
    base = E + np.arange(K)[:, None] * (N - 1)
    keep_out, keep_in = (tails != src) & arcs, (heads != src) & arcs
    a_ub = sp.csr_matrix(
        (np.concatenate([np.ones(n), -np.asarray(g.capacities, dtype=float),
                         np.ones(keep_out.sum()), -np.ones(keep_in.sum())]),
         (np.concatenate([np.broadcast_to(eidx, (K, E))[arcs], eidx,
                          (base + tails - (tails > src))[keep_out],
                          (base + heads - (heads > src))[keep_in]]),
          np.concatenate([cols[arcs], np.full(E, n),
                          cols[keep_out], cols[keep_in]]))),
        shape=(E + K * (N - 1), n + 1),
    )
    k = np.asarray(group)
    s = src[k, 0]
    d = np.array([c.dst for c in comms])
    b_ub = np.zeros(E + K * (N - 1))
    np.add.at(b_ub, E + k * (N - 1) + d - (d > s), [-c.demand for c in comms])
    # flow back into its own root never helps; pin it to zero
    ub = np.full(n + 1, np.inf)
    ub[cols[arcs & ~keep_in]] = 0.0
    return LpModel(c=np.r_[np.zeros(n), 1.0], sense="min", a_ub=a_ub,
                   b_ub=b_ub, ub=ub)


def _solve_flows(g: Digraph, roots: list[int], group, comms: list[Commodity],
                 want_flows: bool = True) -> SourceFlowSolution:
    """Solve ``_build_master_model`` and certify its F by ``_bracket``.

    Returns F = 1 / U and the flows x * F keyed (flow index, edge); with
    ``want_flows=False`` no flows are returned and F is F_lo. Those solves
    climb a ladder and stop at the first rung whose certified gap is within
    ``F_ONLY_GAP``. Rung 0 needs no LP: the even shortest-path split
    (``_even_split``) certified with hop lengths, which closes when it loads
    every arc alike, as on tori and hypercubes with equal capacities. Then
    the LP stops at an interior optimum: forward arcs only
    (``_forward_arcs``) at the loose ``F_ONLY_IPM_TOL``, then all arcs at
    that tolerance, then all arcs at HiGHS's default. ``_bracket`` bounds F
    over the whole graph for any flow, so a smaller LP, or none, is as good
    as its certificate.
    """
    K, E = len(roots), g.num_edges

    def closed(F_lo: float, F_hi: float) -> bool:
        # a graph that is not strongly connected gives F_lo = F_hi = 0
        return F_lo > 0 and F_lo >= (1.0 - F_ONLY_GAP) * F_hi

    if not want_flows:
        F_lo, F_hi = _bracket(g, comms, group,
                              _even_split(g, roots, group, comms), np.ones(E))
        if closed(F_lo, F_hi):
            return SourceFlowSolution(F=F_lo, sources=list(roots), flows={},
                                      graph=g, F_lo=F_lo, F_hi=F_hi,
                                      lp_solves=0)
    every = np.ones((K, E), dtype=bool)
    ladder = ([(every, None)] if want_flows else
              [(_forward_arcs(g, roots), F_ONLY_IPM_TOL),
               (every, F_ONLY_IPM_TOL), (every, None)])
    for lp_solves, (arcs, tol) in enumerate(ladder, 1):
        sol = solve_lp(_build_master_model(g, roots, group, comms, arcs),
                       crossover=want_flows, ipm_optimality_tolerance=tol)
        if sol.status == "infeasible":
            raise McfError("master LP infeasible: a commodity has no path "
                           "(graph not strongly connected)")
        if not sol.optimal:
            raise McfError(
                f"master LP did not solve: {sol.status} {sol.message}")
        x = np.zeros((K, E))
        x[arcs] = sol.x[:-1]
        # minimizing U, the capacity rows' duals are <= 0
        F_lo, F_hi = _bracket(g, comms, group, x, -sol.duals_ub[:E])
        if closed(F_lo, F_hi):
            break
    # an interior optimum's U lies a little above the utilization of its own
    # flow; F_lo is the rate that flow is checked to carry
    F = 1.0 / float(sol.x[-1]) if want_flows else F_lo
    flows = {}
    if want_flows:
        x = x.ravel() * F
        nz = np.flatnonzero(x > FLOW_EPS)
        flows = {divmod(i, E): v for i, v in zip(nz.tolist(), x[nz].tolist())}
    return SourceFlowSolution(F=F, sources=list(roots), flows=flows, graph=g,
                              F_lo=F_lo, F_hi=F_hi, lp_solves=lp_solves)


def _split_flows(comms: list[Commodity], group,
                 master: SourceFlowSolution) -> LinkFlowSolution:
    """Peel each flow of ``master`` into its commodities (``_peel``).

    Commodity ci is peeled from flow ``group[ci]``, with F * demand; within
    a flow, destinations are peeled in sorted order.
    """
    g = master.graph
    per_flow: dict[int, dict[int, float]] = {}
    for (k, e), v in master.flows.items():
        per_flow.setdefault(k, {})[e] = v
    members: dict[int, list[int]] = {}
    for ci in sorted(range(len(comms)), key=lambda ci: comms[ci].dst):
        members.setdefault(group[ci], []).append(ci)
    tails, heads = (t.tolist() for t in _node_edge_templates(g))
    peeled = {}
    for k, cis in members.items():
        peeled.update(zip(cis, _peel(
            tails, heads, per_flow.get(k, {}), master.sources[k],
            [(comms[ci].dst, master.F * comms[ci].demand) for ci in cis])))
    return LinkFlowSolution(F=master.F, commodities=list(comms),
                            paths=[peeled[ci] for ci in range(len(comms))],
                            graph=g, F_lo=master.F_lo, F_hi=master.F_hi,
                            lp_solves=master.lp_solves)


def mcf_link(
    g: Digraph,
    commodities: list[Commodity] | None = None,
    force: bool = False,
) -> LinkFlowSolution:
    """Optimal concurrent rate F and per-commodity link flows.

    The master LP with one flow per commodity, so C * E flow variables
    (``_build_master_model``). Conservation is modeled as an inequality
    (received >= sent at intermediates) and tightened afterwards by peeling
    each commodity's flow (``_peel``), so the returned flows conserve
    exactly and deliver exactly F * demand. F is certified by ``[F_lo,
    F_hi]`` (``_bracket``).
    """
    _check_size(g, force)
    comms = _commodities(g, commodities)
    group = range(len(comms))
    return _split_flows(comms, group,
                        _solve_flows(g, [c.src for c in comms], group, comms))


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
    x * F. Every solve is certified by ``[F_lo, F_hi]`` (``_bracket``). The
    flows, a vertex of the LP, feed flow decomposition; with
    ``want_flows=False`` none are returned, the solver skips its crossover
    from the interior optimum to a vertex (about half the time on large
    graphs) and stops its interior-point method at ``F_ONLY_IPM_TOL``. No LP
    is solved when the even split of each commodity over its fewest-hop paths
    is certified within ``F_ONLY_GAP``; otherwise the solve first keeps only
    each source's forward arcs and adds the rest, then HiGHS's default
    tolerance, only while the certified gap is above ``F_ONLY_GAP``
    (``_solve_flows``). F is then F_lo, and ``lp_solves`` counts the solves.
    """
    comms = _commodities(g, commodities)
    sources = sorted({c.src for c in comms})
    sidx = {s: si for si, s in enumerate(sources)}
    return _solve_flows(g, sources, [sidx[c.src] for c in comms], comms,
                        want_flows)


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
    comms = _commodities(g, commodities)
    master = solve_master(g, comms, want_flows=want_flows)
    if not want_flows:
        return LinkFlowSolution(F=master.F, commodities=list(comms), paths=[],
                                graph=g, F_lo=master.F_lo, F_hi=master.F_hi,
                                lp_solves=master.lp_solves)
    sidx = {s: si for si, s in enumerate(master.sources)}
    return _split_flows(comms, [sidx[c.src] for c in comms], master)

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
    comms = _commodities(g, commodities)
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
    trajectories = [[] for _ in comms]
    for si, s in enumerate(sources):
        x = sol.x[si * A:(si + 1) * A]
        nz = np.flatnonzero(x > FLOW_EPS)
        cis = by_src[s]
        peeled = _peel(arc_tail, arc_head, dict(zip(nz.tolist(), x[nz].tolist())),
                       s, [(T * N + comms[ci].dst, comms[ci].demand) for ci in cis])
        for ci, paths in zip(cis, peeled):
            d = comms[ci].dst
            merged: dict[tuple[tuple[int, int], ...], float] = {}
            for arcs, w in paths:
                # holdover arcs are implicit waiting. A path may reach d
                # before step T, leave and return; the commodity's share ends
                # at its first arrival, or d would receive more than its
                # demand. Paths that differ only after it are one trajectory
                hops = []
                for a in arcs:
                    if a >= E * T:
                        continue
                    k, e = divmod(a, E)
                    hops.append((k, e))
                    if heads[e] == d:
                        break
                merged[tuple(hops)] = merged.get(tuple(hops), 0.0) + w
            trajectories[ci] = list(merged.items())
    return TimeExpandedSolution(l_max=T, U=np.asarray(sol.x[S * A:]),
                                commodities=list(comms),
                                trajectories=trajectories, graph=g)


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
    """Serialize a link or time-stepped solution to JSON.

    A link file holds each commodity's arc rates as [s, d, u, v, rate]
    records under ``flows``. A time-stepped file holds ``trajectories``: per
    commodity index, [hops, shard fraction] pairs whose hops are [step, u, v].
    """
    edges = sol.graph.edges
    comms = [[c.src, c.dst, c.demand] for c in sol.commodities]
    if isinstance(sol, TimeExpandedSolution):
        doc = {"kind": "ts", "l_max": sol.l_max, "U": [float(u) for u in sol.U],
               "commodities": comms, "trajectories": {
                   ci: [[[[t, *edges[e][:2]] for t, e in hops], w]
                        for hops, w in trs]
                   for ci, trs in enumerate(sol.trajectories)}}
    elif isinstance(sol, LinkFlowSolution):
        doc = {"kind": "link", "F": sol.F, "commodities": comms, "flows": [
            [*comms[ci][:2], *edges[e][:2], v]
            for (ci, e), v in sorted(sol.flows.items())]}
    else:
        raise McfError(f"cannot serialize {type(sol).__name__}")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


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


def load_solution(path: str, g: Digraph):
    """Inverse of save_solution; needs the graph for edge indexing.

    A link file's arc rates are peeled once into paths; time-stepped
    trajectories are checked by ``_check_causal``. Text that is not JSON, a
    missing field, a short record or a flow that fails a check raises
    McfError naming the file.
    """
    doc = _read_json(path, McfError)
    eidx = g.edge_index

    def get(key, parse):
        return _json_field(path, doc, key, parse, McfError)

    kind = get("kind", str)
    if kind not in ("ts", "link"):
        raise McfError(f"{path}: unknown solution kind {kind!r}")
    if kind == "ts":
        l_max = get("l_max", int)
        U = get("U", lambda u: np.asarray(u, dtype=float))
        if "trajectories" not in doc and "flows" in doc:
            raise McfError(
                f"{path}: time-stepped file holds 'flows', the format before "
                "'trajectories'; solve it again")
    # entries are [s, d, demand]; older files hold [s, d] for unit demand
    comms = get("commodities", lambda cs: [Commodity(*c) for c in cs])
    _check_distinct(comms, f"{path}: ")
    if kind == "ts":
        trajectories = get("trajectories", lambda tr: [
            [(tuple((int(t), eidx[(u, v)]) for t, u, v in hops), float(w))
             for hops, w in tr[str(ci)]]
            for ci in range(len(comms))])
        for com, trs in zip(comms, trajectories):
            _check_causal(path, g, l_max, com, trs)
        return TimeExpandedSolution(l_max=l_max, U=U, commodities=comms,
                                    trajectories=trajectories, graph=g)
    cidx = {(c.src, c.dst): i for i, c in enumerate(comms)}
    F = get("F", float)
    flows = get("flows", lambda fl: {(cidx[(s, d)], eidx[(u, v)]): rate
                                     for s, d, u, v, rate in fl})
    try:
        return LinkFlowSolution.from_flows(F, comms, flows, g)
    except McfError as ex:
        raise McfError(f"{path}: {ex}") from None
