"""MCF formulation tests: oracles, conservation, and serialization."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from a2aflow.graphs import (Digraph, augment_host_bottleneck,
                            diameter, gen_complete_bipartite, gen_de_bruijn,
                            gen_gen_kautz, gen_hypercube, gen_random_regular,
                            gen_torus, puncture)
from a2aflow import mcf
from a2aflow.lp import INFEASIBLE, ITERATION_LIMIT, LpSolution, solve_lp
from a2aflow.mcf import (F_ONLY_GAP, F_ONLY_IPM_TOL, Commodity, LinkFlowSolution, McfError,
                         _build_master_model, _even_split, _forward_arcs,
                         _net_inflow, _path_sum, _peel, _split_flows,
                         all_to_all_commodities, load_solution,
                         mcf_decomposed, mcf_link, mcf_path, mcf_timestepped,
                         save_solution, solve_master, verify_flow)
from a2aflow.paths import extract_widest_paths


def check_conservation(g, sol, tol=1e-9):
    for ci, com in enumerate(sol.commodities):
        bal = np.zeros(g.n)
        for e, v in sol.flow_of(ci).items():
            u, w, _ = g.edges[e]
            bal[u] += v
            bal[w] -= v
        assert bal[com.src] == pytest.approx(sol.F * com.demand, abs=tol)
        assert bal[com.dst] == pytest.approx(-sol.F * com.demand, abs=tol)
        others = [bal[u] for u in range(g.n)
                  if u not in (com.src, com.dst)]
        assert max(map(abs, others), default=0.0) <= tol


def check_timestepped(g, ts, tol=1e-9):
    """Per-commodity checks of a TimeExpandedSolution's trajectories, and of
    the flows summed from them against its U_t."""
    T = ts.l_max
    for com, trs in zip(ts.commodities, ts.trajectories):
        assert sum(w for _, w in trs) == pytest.approx(com.demand, abs=tol)
        assert len({hops for hops, _ in trs}) == len(trs)
        for hops, w in trs:
            assert w > 0
            node, last = com.src, -1
            for t, e in hops:
                u, v, _ = g.edges[e]
                # joined hops at increasing steps, never back into the source
                assert u == node and last < t < T and v != com.src
                node, last = v, t
            # the trajectory ends at its first arrival
            arrivals = [g.edges[e][1] == com.dst for _, e in hops]
            assert arrivals == [False] * (len(hops) - 1) + [True]
    load = np.zeros((g.num_edges, T))
    for (_, e, t), v in ts.flows.items():
        load[e, t] += v
    cap = np.asarray(g.capacities)[:, None]
    assert (load <= cap * ts.U[None, :] + tol).all()


def record_solves(monkeypatch):
    """(column count, ipm_optimality_tolerance) of every solve_lp call the
    MCF solvers make from now on."""
    calls = []
    real = mcf.solve_lp

    def recording(model, **kwargs):
        calls.append((model.n_vars, kwargs.get("ipm_optimality_tolerance")))
        return real(model, **kwargs)

    monkeypatch.setattr(mcf, "solve_lp", recording)
    return calls


class TestCommodity:
    def test_rejects_self(self):
        with pytest.raises(McfError):
            Commodity(1, 1)

    def test_all_to_all_count(self):
        assert len(all_to_all_commodities(range(5))) == 20


class TestLinkMcf:
    def test_ring3(self):
        g = gen_torus([3], bidirectional=False)
        sol = mcf_link(g)
        assert sol.F == pytest.approx(1 / 3, abs=1e-8)
        check_conservation(g, sol)

    def test_bipartite_closed_form(self):
        for n in (4, 8):
            sol = mcf_link(gen_complete_bipartite(n))
            assert sol.F == pytest.approx(n / (3 * n - 4), abs=1e-8)

    def test_torus9(self):
        g = gen_torus([3, 3])
        sol = mcf_link(g)
        assert sol.F == pytest.approx(1 / 3, abs=1e-8)
        check_conservation(g, sol)

    def test_degree_bound(self):
        g = gen_hypercube(3)
        sol = mcf_link(g)
        assert sol.F <= 3 / 7 + 1e-9

    def test_custom_commodities(self):
        g = gen_torus([3], bidirectional=False)
        sol = mcf_link(g, commodities=[Commodity(0, 1)])
        assert sol.F == pytest.approx(1.0, abs=1e-8)

    def test_size_guard(self):
        g = Digraph.from_edges(
            401, [(i, (i + 1) % 401, 1.0) for i in range(401)])
        with pytest.raises(McfError):
            mcf_link(g)

    @pytest.mark.parametrize("solve", [
        mcf_link, mcf_decomposed, solve_master,
        lambda g, comms: mcf_timestepped(g, 2, comms),
    ], ids=["link", "decomposed", "master", "timestepped"])
    def test_repeated_commodity_rejected(self, solve):
        # flow records are keyed (src, dst): a repeated pair used to save
        # and load back with one copy's flow filed under the other
        g = gen_torus([3], bidirectional=False)
        with pytest.raises(McfError, match=r"repeated commodity \(0, 2\)"):
            solve(g, [Commodity(0, 2), Commodity(0, 2)])


class TestDecomposed:
    def test_matches_link_and_conserves(self):
        g = gen_complete_bipartite(4)
        lk = mcf_link(g)
        dc = mcf_decomposed(g)
        assert dc.F == pytest.approx(lk.F, abs=1e-6)
        check_conservation(g, dc, tol=1e-6)

    @pytest.mark.parametrize("g, comms", [
        (gen_torus([3], bidirectional=False),
         [Commodity(0, 1, 2.0), Commodity(1, 2)]),
        (gen_torus([3, 3]),
         [Commodity(s, d, 1.0 + (s + 2 * d) % 3 / 2)
          for s in range(9) for d in range(9) if s != d]),
    ], ids=["ring3", "torus3x3"])
    def test_non_unit_demands_match_link(self, g, comms):
        lk = mcf_link(g, comms)
        dc = mcf_decomposed(g, comms)
        assert dc.F == pytest.approx(lk.F, rel=1e-9)
        check_conservation(g, dc)
        assert dc.gap <= 1e-9

    def test_unsorted_commodities_match_link(self):
        # sources interleaved and each source's destinations out of order
        g = gen_torus([3, 3])
        comms = [Commodity(s, d) for s, d in
                 [(5, 1), (2, 7), (5, 0), (8, 3), (2, 4), (0, 8), (5, 8)]]
        lk = mcf_link(g, comms)
        dc = mcf_decomposed(g, comms)
        assert dc.F == pytest.approx(lk.F, rel=1e-9)
        for sol in (lk, dc):
            assert sol.commodities == comms
            assert max(verify_flow(g, sol).values()) <= 1e-9

    def test_master_only_fast_path(self):
        g = gen_torus([3, 3])
        dc = mcf_decomposed(g, want_flows=False)
        assert dc.F == pytest.approx(1 / 3, abs=1e-6)
        assert dc.flows == {}

    def test_master_solution_covers_per_source_flows(self):
        g = gen_torus([3, 3])
        master = solve_master(g)
        # per-edge sums respect capacity
        load = np.zeros(g.num_edges)
        for (_, e), v in master.flows.items():
            load[e] += v
        assert (load <= np.asarray(g.capacities) + 1e-8).all()


    def test_gk64_extraction_quantizes_exactly(self, suite, decomp_solutions):
        from a2aflow.paths import extract_widest_paths
        from a2aflow.schedule import DEFAULT_Q_MAX, compile_path_schedule

        g = dict((name, g) for name, g, _ in suite)["genkautz64"]
        wps = extract_widest_paths(g, decomp_solutions["genkautz64"])
        _, sched = compile_path_schedule(g, wps)
        # peeled flows are exact fractions of the master flow, so the
        # weights share a small common denominator and need no fallback
        assert sched.Q < DEFAULT_Q_MAX


# small random-regular and edge-punctured 3x3x3 torus graphs
SMALL_GRAPHS = dict(kind=st.sampled_from(["rrg", "punctured"]),
                    seed=st.integers(0, 10_000), k=st.integers(1, 4))


def small_graph(kind, seed, k):
    if kind == "rrg":
        return gen_random_regular(6 + seed % 5, 2 + seed % 2, seed=seed)
    return puncture(gen_torus([3, 3, 3]), "edges", k, seed=seed)


# the same graphs with each capacity drawn from {0.05, 1, 5}: forward arcs
# often miss the optimum there, so F-only solves fall back to all arcs
MIXED_GRAPHS = dict(**SMALL_GRAPHS, cap_seed=st.integers(0, 10_000))


def mixed_graph(kind, seed, k, cap_seed):
    g = small_graph(kind, seed, k)
    caps = np.random.default_rng(cap_seed).choice([0.05, 1.0, 5.0],
                                                  g.num_edges)
    return Digraph.from_edges(g.n, [(u, v, c) for (u, v, _), c
                                    in zip(g.edges, caps)])


class TestMaster:
    def test_unreachable_commodity_raises(self):
        # node 2 has no edges, so no commodity to or from it has a path
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(McfError, match="no path"):
            solve_master(g)

    @pytest.mark.parametrize("make", [
        lambda: gen_gen_kautz(27, 4),
        lambda: gen_torus([3, 3, 3]),
        lambda: puncture(gen_torus([3, 3, 3]), "edges", 3, seed=0),
    ], ids=["genkautz27", "torus3x3x3", "punctured27"])
    def test_dual_certificate(self, make):
        # the capacity-row duals are edge lengths l >= 0 with
        # sum cap * l = 1, and 1 / sum_(s,d) dist_l(s, d) bounds F from
        # above (Shahrokhi-Matula); equality proves the LP optimal
        g = make()
        comms = all_to_all_commodities(range(g.n))
        sol = solve_lp(_build_master_model(
            g, list(range(g.n)), [c.src for c in comms], comms))
        E = g.num_edges
        ell = -sol.duals_ub[:E]
        assert ell.min() >= -1e-12
        ell = np.maximum(ell, 0.0)
        assert np.asarray(g.capacities) @ ell == pytest.approx(1.0, abs=1e-9)
        tails = [u for u, _, _ in g.edges]
        heads = [v for _, v, _ in g.edges]
        # sparse input keeps zero-length edges as edges
        dist = shortest_path(
            sp.csr_matrix((ell, (tails, heads)), shape=(g.n, g.n)),
            directed=True)
        F_hi = 1.0 / sum(dist[c.src, c.dst] for c in comms)
        master = solve_master(g)
        assert F_hi == pytest.approx(master.F, rel=1e-9)
        assert master.F_hi == pytest.approx(F_hi, rel=1e-9)

    # link MCF takes ~9 s on a punctured 3x3x3 torus, so few examples
    @settings(max_examples=5, deadline=None)
    @given(**SMALL_GRAPHS)
    def test_matches_link_and_delivers(self, kind, seed, k):
        g = small_graph(kind, seed, k)
        master = solve_master(g)
        assert master.F == pytest.approx(mcf_link(g).F, rel=1e-9)
        load = np.zeros(g.num_edges)
        net_in = np.zeros((len(master.sources), g.n))
        for (si, e), v in master.flows.items():
            u, w, _ = g.edges[e]
            load[e] += v
            net_in[si, w] += v
            net_in[si, u] -= v
        assert (load <= np.asarray(g.capacities) + 1e-9).all()
        for si, s in enumerate(master.sources):
            for d in range(g.n):
                if d != s:
                    assert net_in[si, d] >= master.F - 1e-9


class TestCertificate:
    """[F_lo, F_hi] on every master and link solve; verify_flow."""

    @pytest.fixture(scope="class")
    def gk64(self):
        # 64 * 252 + 1 variables: the master LP takes the interior-point
        # branch, where crossover is a large share of the solve
        g = gen_gen_kautz(64, 4)
        comms = all_to_all_commodities(range(g.n))
        model = _build_master_model(g, list(range(g.n)),
                                    [c.src for c in comms], comms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            interior_lp = solve_lp(model, crossover=False)
            interior = mcf_decomposed(g, want_flows=False)
        return solve_lp(model), interior_lp, mcf_decomposed(g), interior

    def test_crossover_off_reaches_highs(self, gk64):
        vertex, interior, _, _ = gk64
        assert interior.optimal
        assert interior.objective == pytest.approx(vertex.objective, rel=1e-6)
        # an interior optimum spreads flow over many more variables
        assert (interior.x > 1e-9).sum() > 1.5 * (vertex.x > 1e-9).sum()

    def test_f_only_matches_vertex(self, gk64):
        _, _, vertex, interior = gk64
        assert interior.F == pytest.approx(vertex.F, rel=1e-6)
        for sol in (vertex, interior):
            assert sol.F_lo <= sol.F_hi
            assert sol.gap <= 1e-6
            assert sol.F_lo * (1 - 1e-12) <= sol.F <= sol.F_hi * (1 + 1e-12)

    def test_f_only_solves_once_at_loose_tolerance(self, gk64, monkeypatch):
        _, _, vertex, _ = gk64
        g = gen_gen_kautz(64, 4)
        calls = record_solves(monkeypatch)
        sol = mcf_decomposed(g, want_flows=False)
        # forward arcs only: 13,080 of the 64 * 252 = 16,128 flow columns
        forward = int(_forward_arcs(g, list(range(g.n))).sum())
        assert forward == 13_080
        assert calls == [(forward + 1, F_ONLY_IPM_TOL)]
        assert sol.lp_solves == 1
        assert sol.gap <= F_ONLY_GAP
        assert sol.F == sol.F_lo
        assert sol.F == pytest.approx(vertex.F, rel=1e-6)

    def test_f_only_resolves_at_default_tolerance(self, monkeypatch):
        g = gen_gen_kautz(64, 4)
        # one F-only solve of the full LP at HiGHS's default tolerance
        with monkeypatch.context() as m:
            m.setattr(mcf, "F_ONLY_IPM_TOL", None)
            m.setattr(mcf, "_forward_arcs", lambda g, roots: np.ones(
                (len(roots), g.num_edges), dtype=bool))
            default = solve_master(g, want_flows=False)
        monkeypatch.setattr(mcf, "F_ONLY_GAP", 0.0)
        calls = record_solves(monkeypatch)
        sol = solve_master(g, want_flows=False)
        assert calls == [(13_081, F_ONLY_IPM_TOL), (16_129, F_ONLY_IPM_TOL),
                         (16_129, None)]
        assert sol.F == pytest.approx(default.F, rel=1e-12)
        assert sol.F_hi == pytest.approx(default.F_hi, rel=1e-12)

    def test_f_only_infeasible_raises(self, monkeypatch):
        # the even split delivers nothing to node 2, so F_lo = F_hi = 0 and
        # rung 0 falls through to the LP; with no arcs at all its arrays are
        # empty
        for edges in ([(0, 1, 1.0), (1, 0, 1.0)], []):
            calls = record_solves(monkeypatch)
            with pytest.raises(McfError, match="master LP infeasible: a "
                               "commodity has no path"):
                solve_master(Digraph.from_edges(3, edges), want_flows=False)
            assert len(calls) == 1

    def test_f_only_falls_back_to_all_arcs(self, monkeypatch):
        # on forward arcs, flow from 0 to 2 must take the thin arc 0->2
        # (U = 100); the full LP routes it 0->1->3->2, back towards root 0
        g = Digraph.from_edges(4, [
            (0, 1, 10), (0, 2, 0.01), (1, 3, 10), (3, 2, 10), (2, 0, 10),
            (1, 0, 10), (3, 0, 10), (2, 3, 10), (3, 1, 10)])
        assert not _forward_arcs(g, [0])[0, g.edge_index[(3, 2)]]
        calls = record_solves(monkeypatch)
        sol = solve_master(g, want_flows=False)
        assert [tol for _, tol in calls] == [F_ONLY_IPM_TOL, F_ONLY_IPM_TOL]
        assert calls[0][0] < calls[1][0] == 4 * g.num_edges + 1
        assert sol.lp_solves == 2
        assert sol.F == pytest.approx(solve_master(g).F, rel=1e-6)
        assert sol.F_lo == sol.F <= sol.F_hi

    @settings(max_examples=20, deadline=None)
    @given(**MIXED_GRAPHS)
    def test_f_only_matches_vertex_mixed_capacities(self, kind, seed, k,
                                                    cap_seed):
        g = mixed_graph(kind, seed, k, cap_seed)
        sol = solve_master(g, want_flows=False)
        assert sol.F == pytest.approx(solve_master(g).F, rel=1e-6)
        assert sol.F_lo == sol.F <= sol.F_hi

    @pytest.mark.parametrize("make", [
        lambda: gen_torus([10, 10]),
        lambda: gen_torus([4, 4, 4]),
        lambda: gen_hypercube(5),
        lambda: gen_torus([4, 4]),
        lambda: gen_hypercube(4),
    ], ids=["torus10x10", "torus4x4x4", "hypercube5", "torus4x4",
            "hypercube4"])
    def test_even_split_needs_no_lp(self, make, monkeypatch):
        # on an edge-transitive graph with equal capacities the even
        # shortest-path split loads every arc alike, so it meets the
        # hop-length bound sum cap / sum dist
        g = make()
        calls = record_solves(monkeypatch)
        sol = solve_master(g, want_flows=False)
        assert calls == [] and sol.lp_solves == 0
        tails, heads = (np.array(t) for t in zip(*[e[:2] for e in g.edges]))
        hops = shortest_path(sp.csr_matrix((np.ones(g.num_edges),
                                            (tails, heads))), unweighted=True)
        bound = sum(g.capacities) / hops.sum()
        assert sol.F == pytest.approx(bound, rel=1e-12)
        assert sol.F == sol.F_lo <= sol.F_hi
        assert 1.0 - sol.F_lo / sol.F_hi <= 1e-12
        # the vertex solves of the larger graphs take seconds
        if g.n <= 16:
            assert sol.F == pytest.approx(solve_master(g).F, rel=1e-6)

    def test_even_split_misses_falls_through(self, monkeypatch):
        # torus 8x4 loads its short rings' arcs more than its long ones'
        g = gen_torus([8, 4])
        calls = record_solves(monkeypatch)
        sol = solve_master(g, want_flows=False)
        assert len(calls) == sol.lp_solves >= 1
        assert 1.0 - sol.F_lo / sol.F_hi <= F_ONLY_GAP
        assert sol.F == pytest.approx(solve_master(g).F, rel=1e-6)

    # random, punctured, and both with capacities from {0.05, 1, 5}
    @settings(max_examples=20, deadline=None)
    @given(**MIXED_GRAPHS, mixed=st.booleans())
    def test_even_split_delivers(self, kind, seed, k, cap_seed, mixed):
        g = (mixed_graph(kind, seed, k, cap_seed) if mixed
             else small_graph(kind, seed, k))
        comms = all_to_all_commodities(range(g.n))
        x = _even_split(g, list(range(g.n)), [c.src for c in comms], comms)
        assert x.min() >= 0.0
        # each root sends 1 to every other node: net inflow -(N - 1) at the
        # root and 1 everywhere else
        want = np.ones((g.n, g.n)) - g.n * np.eye(g.n)
        net = _net_inflow(g, sp.csr_matrix(x)).toarray()
        assert np.abs(net - want).max() <= 1e-12
        sol = solve_master(g, want_flows=False)
        if sol.lp_solves == 0:
            assert sol.F == pytest.approx(solve_master(g).F, rel=1e-6)

    def test_bracket_never_inverted(self):
        # rounding put F_lo one step above F_hi on this mixed-capacity
        # gen_random_regular(7, 3, seed=1) before F_hi was raised to F_lo
        sol = mcf_decomposed(mixed_graph("rrg", 1, 1, 1), want_flows=False)
        assert sol.F_lo <= sol.F_hi and sol.gap >= 0.0

    @pytest.mark.parametrize("scale, closes", [(1 + 1e-13, True),
                                               (1 + 1e-9, False)])
    def test_bracket_excess(self, monkeypatch, scale, closes):
        # a flow that claims to deliver more than it does: within 1e-12 the
        # excess is taken as rounding, above it the certificate fails
        real = mcf._net_inflow
        monkeypatch.setattr(mcf, "_net_inflow",
                            lambda g, x: real(g, x) * scale)
        g = gen_torus([4, 4])
        if closes:
            sol = solve_master(g, want_flows=False)
            assert sol.lp_solves == 0 and sol.F_lo == sol.F_hi
        else:
            with pytest.raises(McfError, match="certificate failed"):
                solve_master(g, want_flows=False)

    @pytest.mark.parametrize("status, message", [
        (INFEASIBLE, "master LP infeasible: a commodity has no path"),
        (ITERATION_LIMIT, "master LP did not solve: iteration-limit"),
    ])
    def test_f_only_resolve_status_checked(self, monkeypatch, status,
                                           message):
        # the re-solve's status is checked like the first solve's
        monkeypatch.setattr(mcf, "F_ONLY_GAP", -1.0)
        real = mcf.solve_lp

        def second_fails(model, **kwargs):
            if kwargs["ipm_optimality_tolerance"] is None:
                return LpSolution(status=status, objective=np.nan, x=None)
            return real(model, **kwargs)

        monkeypatch.setattr(mcf, "solve_lp", second_fails)
        with pytest.raises(McfError, match=message):
            solve_master(gen_torus([3, 3]), want_flows=False)

    @pytest.mark.parametrize("make", [
        lambda: gen_torus([3, 3]),
        lambda: puncture(gen_torus([3, 3]), "edges", 2, seed=1),
        lambda: gen_complete_bipartite(4),
    ], ids=["torus3x3", "punctured9", "bipartite4"])
    def test_link_bracket_and_residuals(self, make):
        g = make()
        sol = mcf_link(g)
        assert sol.F_lo <= sol.F_hi and sol.gap <= 1e-9
        assert sol.F == pytest.approx(solve_master(g).F_hi, rel=1e-9)
        assert max(verify_flow(g, sol).values()) <= 1e-9

    def test_verify_flow_detects_each_residual(self):
        g = gen_torus([3, 3])
        sol = mcf_decomposed(g)
        assert max(verify_flow(g, sol).values()) <= 1e-9
        eidx = g.edge_index
        c0 = sol.commodities[0]
        u, v, _ = next(ed for ed in g.edges
                       if not {c0.src, c0.dst} & set(ed[:2]))

        def corrupt(ci, extra=(), scale=1.0):
            # commodity ci's paths scaled, plus weighted arc lists that
            # need not be paths
            paths = list(sol.paths)
            paths[ci] = [(arcs, w * scale) for arcs, w in paths[ci]]
            paths[ci] += extra
            return verify_flow(g, LinkFlowSolution(
                F=sol.F, commodities=sol.commodities, paths=paths, graph=g))

        # a 2-cycle above capacity keeps every balance but overloads
        a, b, cap = g.edges[0]
        res = corrupt(0, [([eidx[(a, b)], eidx[(b, a)]], cap + 1.0)])
        assert res["capacity"] >= 1.0
        assert max(res["conservation"], res["delivery"]) <= 1e-9
        # a stray arc between two intermediates of commodity 0
        res = corrupt(0, [([eidx[(u, v)]], 1e-3)])
        assert res["conservation"] == pytest.approx(1e-3)
        assert res["delivery"] <= 1e-9
        # half of commodity 0's flow: still conserved, under-delivered
        res = corrupt(0, scale=0.5)
        assert res["delivery"] == pytest.approx(sol.F / 2)
        assert res["conservation"] <= 1e-9
        # a negative flow is a capacity (bound) violation
        res = corrupt(1, [([eidx[(a, b)]], -5.0)])
        assert res["capacity"] >= 5.0 - 1e-9


class TestPeel:
    @settings(max_examples=20, deadline=None)
    @given(**SMALL_GRAPHS)
    def test_exact_split_of_master_flow(self, kind, seed, k):
        g = small_graph(kind, seed, k)
        master = solve_master(g)
        comms = all_to_all_commodities(range(g.n))
        sidx = {s: si for si, s in enumerate(master.sources)}
        sol = _split_flows(comms, [sidx[c.src] for c in comms], master)
        heads = [v for _, v, _ in g.edges]
        total = np.zeros((len(master.sources), g.num_edges))
        for ci, com in enumerate(comms):
            s, d = com.src, com.dst
            assert sum(w for _, w in sol.paths[ci]) == pytest.approx(
                master.F, abs=1e-9)
            for arcs, w in sol.paths[ci]:
                nodes = [s, *(heads[a] for a in arcs)]
                assert w > 0 and nodes[-1] == d
                assert len(set(nodes)) == len(nodes)
                assert all(g.edges[a][0] == u for a, u in zip(arcs, nodes))
            bal = np.zeros(g.n)
            for e, v in sol.flow_of(ci).items():
                u, w, _ = g.edges[e]
                bal[u] += v
                bal[w] -= v
                total[sidx[s], e] += v
            assert -bal[d] == pytest.approx(master.F, abs=1e-9)
            assert bal[s] == pytest.approx(master.F, abs=1e-9)
            others = [bal[u] for u in range(g.n) if u not in (s, d)]
            assert max(map(abs, others), default=0.0) <= 1e-12
        # each source's commodities together use no more than its flow
        for (si, e), v in master.flows.items():
            total[si, e] -= v
        assert total.max() <= 1e-12
        # extraction returns exactly the stored paths as node tuples
        wps = extract_widest_paths(g, sol)
        for com, plist in zip(comms, sol.paths):
            assert wps.paths[(com.src, com.dst)] == sorted(
                ((com.src, *(heads[a] for a in arcs)), w) for arcs, w in plist)

    @pytest.mark.parametrize("pipeline", ["static", "timestepped"])
    def test_pipeline_peels_only_in_the_solver(self, monkeypatch, pipeline):
        # route extraction and the time-stepped lowering read the paths and
        # trajectories the solver peeled; neither decomposes a flow again
        from a2aflow import paths, schedule
        from a2aflow.evaluate import replay_timestep_schedule
        from a2aflow.schedule import compile_timestep_schedule

        g = gen_gen_kautz(27, 4)
        sol = (mcf_decomposed(g) if pipeline == "static"
               else mcf_timestepped(g, diameter(g)))
        calls = []

        def counting(*args):
            calls.append(args[3])
            return _peel(*args)

        for module in (mcf, paths, schedule):
            if hasattr(module, "_peel"):
                monkeypatch.setattr(module, "_peel", counting)
        if pipeline == "static":
            wps = extract_widest_paths(g, sol)
            assert sum(map(len, wps.paths.values())) == 777
        else:
            T, delivered = replay_timestep_schedule(
                g, compile_timestep_schedule(g, sol))
            assert delivered
        assert calls == []

    def test_short_flow_rejected(self):
        # arcs 0 -> 1 -> 2 -> 0 of a 3-ring
        x = {0: 0.5}
        with pytest.raises(McfError):
            _peel([0, 1, 2], [1, 2, 0], x, 0, [(1, 1.0)])

    def test_cycle_left_behind(self):
        # arcs 0: 0 -> 1, 1: 1 -> 2, 2: 2 -> 1; a path plus a circulation
        # 1 -> 2 -> 1, of which only the path is kept
        x = {0: 1.0, 1: 1.5, 2: 0.5}
        (paths,) = _peel([0, 1, 2], [1, 2, 1], x, 0, [(2, 1.0)])
        assert paths == [([0, 1], 1.0)]

    def test_per_target_amounts_and_repeats(self):
        # arcs 0: 0 -> 1, 1: 1 -> 2; node 1 keeps 0.25, node 2 gets 0.75 in
        # two targets
        x = {0: 1.0, 1: 0.75}
        split = _peel([0, 1], [1, 2], x, 0, [(2, 0.5), (1, 0.25), (2, 0.25)])
        assert [_path_sum(p) for p in split] == [
            {0: 0.5, 1: 0.5}, {0: 0.25}, {0: 0.25, 1: 0.25}]


class TestHostBottleneck:
    def test_torus27_augmented(self):
        g = gen_torus([3, 3, 3])
        aug, mapping = augment_host_bottleneck(g, 4.0)
        comms = all_to_all_commodities(mapping.host)
        F = solve_master(aug, comms).F
        assert F == pytest.approx(2 / 27, abs=1e-6)


class TestTimestepped:
    def test_ring3(self):
        g = gen_torus([3], bidirectional=False)
        ts = mcf_timestepped(g, l_max=2)
        assert ts.total_utilization == pytest.approx(3.0, abs=1e-6)

    def test_delivery_totals(self):
        g = gen_torus([3, 3])
        ts = mcf_timestepped(g, l_max=2)
        recv = {}
        for (ci, e, t), v in ts.flows.items():
            if g.edges[e][1] == ts.commodities[ci].dst:
                recv[ci] = recv.get(ci, 0.0) + v
        assert len(recv) == len(ts.commodities)
        assert all(v == pytest.approx(1.0, abs=1e-6) for v in recv.values())

    def test_infeasible_below_diameter(self):
        with pytest.raises(McfError, match="l_max must be >= diameter"):
            mcf_timestepped(gen_torus([5], bidirectional=False), l_max=2)

    def test_numerical_difficulties_not_blamed_on_l_max(self, monkeypatch):
        import scipy.optimize

        monkeypatch.setattr(
            scipy.optimize, "linprog",
            lambda *a, **k: scipy.optimize.OptimizeResult(
                status=4, x=None, nit=0, message="numerical difficulties"))
        with pytest.raises(McfError, match="did not solve"):
            mcf_timestepped(gen_torus([3], bidirectional=False), l_max=2)

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["rrg", "punctured"]),
           seed=st.integers(0, 10_000), k=st.integers(1, 3),
           extra=st.integers(0, 1))
    def test_commodity_flows_are_causal_and_exact(self, kind, seed, k, extra):
        if kind == "rrg":
            g = gen_random_regular(5 + seed % 3, 2, seed=seed)
        else:
            g = puncture(gen_torus([3, 3]), "edges", k, seed=seed)
        check_timestepped(g, mcf_timestepped(g, l_max=diameter(g) + extra))

    @pytest.mark.parametrize("name,make,l_max,sum_u", [
        ("hc4", lambda: gen_hypercube(4), 4, 8.0),
        ("gk27", lambda: gen_gen_kautz(27, 4), 3, 15.0746606335),
        ("gk27", lambda: gen_gen_kautz(27, 4), 4, 14.9215686275),
    ])
    def test_reference_total_utilization(self, name, make, l_max, sum_u):
        ts = mcf_timestepped(make(), l_max=l_max)
        assert ts.total_utilization == pytest.approx(sum_u, abs=1e-6)

    def test_gk27_revisited_destination_replays(self):
        # at l_max = 4 a peeled source path reaches a destination, leaves it
        # and returns; the commodity must keep only its first arrival
        from a2aflow.evaluate import replay_timestep_schedule
        from a2aflow.schedule import compile_timestep_schedule

        g = gen_gen_kautz(27, 4)
        ts = mcf_timestepped(g, l_max=4)
        check_timestepped(g, ts)
        sched = compile_timestep_schedule(g, ts)
        T, delivered = replay_timestep_schedule(g, sched)
        assert delivered
        assert T <= (1 + 2 / sched.Q) * ts.total_utilization + 1e-9


class TestPathMcf:
    def test_exhaustive_equals_link_ring(self):
        from a2aflow.paths import enum_paths_bounded

        g = gen_torus([4])
        ps = enum_paths_bounded(g, g.n - 1, per_commodity_cap=None)
        F, wps = mcf_path(g, ps)
        assert F == pytest.approx(mcf_link(g).F, abs=1e-6)
        # returned weights deliver F per commodity
        for (s, d), plist in wps.paths.items():
            assert sum(w for _, w in plist) == pytest.approx(F, abs=1e-6)

    def test_single_path_per_commodity(self):
        from a2aflow.paths import WeightedPathSet

        g = gen_torus([3], bidirectional=False)
        ps = WeightedPathSet(paths={
            (s, d): [(tuple((s + k) % 3 for k in range((d - s) % 3 + 1)), 0.0)]
            for s in range(3) for d in range(3) if s != d
        })
        F, _ = mcf_path(g, ps)
        assert F == pytest.approx(1 / 3, abs=1e-8)

    def test_empty_rejected(self):
        from a2aflow.paths import WeightedPathSet

        with pytest.raises(McfError):
            mcf_path(gen_torus([3]), WeightedPathSet(paths={}))

    def test_nonexistent_edge_rejected(self):
        from a2aflow.paths import RouteError, WeightedPathSet

        g = Digraph.from_edges(6, [(0, 1, 1.0), (1, 5, 1.0)])
        ps = WeightedPathSet(paths={(0, 5): [((0, 5), 0.0), ((0, 1, 5), 0.0)]})
        with pytest.raises(RouteError, match="nonexistent edge"):
            mcf_path(g, ps)


class TestScaleCheck:
    """LP homogeneity: F(c * g) = c * F(g), at 1e-6 relative."""

    def test_identity_and_double(self):
        g = gen_torus([3], bidirectional=False)
        scaled = solve_master(g.scaled(2.0)).F
        assert scaled == pytest.approx(2.0 * solve_master(g).F, rel=1e-6)
        assert scaled == pytest.approx(2 / 3, abs=1e-6)

    def test_half_torus(self):
        g = gen_torus([3, 3])
        scaled = solve_master(g.scaled(0.5)).F
        assert scaled == pytest.approx(0.5 * solve_master(g).F, rel=1e-6)
        assert scaled == pytest.approx(1 / 6, abs=1e-6)


class TestSolutionJson:
    def test_link_roundtrip(self, tmp_path):
        g = gen_complete_bipartite(4)
        sol = mcf_link(g)
        p = tmp_path / "sol.json"
        save_solution(sol, str(p))
        back = load_solution(str(p), g)
        assert back.F == pytest.approx(sol.F)
        assert set(back.flows) == set(sol.flows)

    def test_link_roundtrip_keeps_demand(self, tmp_path):
        g = gen_torus([3], bidirectional=False)
        comms = [Commodity(0, 1, 2.0), Commodity(1, 2)]
        sol = mcf_link(g, comms)
        p = tmp_path / "sol.json"
        save_solution(sol, str(p))
        back = load_solution(str(p), g)
        assert back.commodities == comms
        paths = extract_widest_paths(g, back).paths
        assert paths == extract_widest_paths(g, sol).paths
        assert paths[(0, 1)] == [((0, 1), pytest.approx(1.0))]

    def test_link_short_flow_rejected(self, tmp_path):
        # the file's flow carries 0.25 of commodity (0, 1)'s F * demand 0.5
        p = tmp_path / "short.json"
        p.write_text(json.dumps({
            "kind": "link", "F": 0.5, "commodities": [[0, 1, 1.0]],
            "flows": [[0, 1, 0, 1, 0.25]]}))
        with pytest.raises(McfError, match="recovered only 0.25") as exc:
            load_solution(str(p), gen_torus([3], bidirectional=False))
        assert str(p) in str(exc.value)

    def test_link_two_element_commodities_load_as_unit(self, tmp_path):
        g = gen_torus([3], bidirectional=False)
        p = tmp_path / "old.json"
        p.write_text(json.dumps({
            "kind": "link", "F": 0.5, "commodities": [[0, 1], [1, 2]],
            "flows": [[0, 1, 0, 1, 0.5], [1, 2, 1, 2, 0.5]]}))
        back = load_solution(str(p), g)
        assert back.commodities == [Commodity(0, 1), Commodity(1, 2)]

    @pytest.mark.parametrize("text, field", [
        ("{}", "kind"),
        ('{"kind": "ts", "l_max": 2, "U": [1, 1], "flows": [[0, 1, 0]]}',
         "flows"),
        ('{"kind": "link", "F": 0.5, "commodities": [[0, 1]]}', "flows"),
        ('{"kind": "link", "F": 0.5, "commodities": [[0, 1]], '
         '"flows": [[0, 1, 0, 1]]}', "flows"),
        ('{"kind": "ts", "flows": [], "U": []}', "l_max"),
        ('{"kind": "link", "F": 0.5, "commodities": [[0]], "flows": []}',
         "commodities"),
        ("kind: ts", "not valid JSON"),
    ])
    def test_malformed_file_names_file_and_field(self, tmp_path, text, field):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(McfError, match=field) as exc:
            load_solution(str(p), gen_torus([3], bidirectional=False))
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize("doc", [
        {"kind": "link", "F": 0.5},
        {"kind": "ts", "l_max": 2, "U": [1.0, 1.0], "trajectories": {}},
    ], ids=["link", "ts"])
    def test_repeated_commodity_in_file_rejected(self, tmp_path, doc):
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(
            {**doc, "commodities": [[0, 2], [0, 2]], "flows": []}))
        with pytest.raises(McfError, match="repeated commodity") as exc:
            load_solution(str(p), gen_torus([3], bidirectional=False))
        assert str(p) in str(exc.value)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "tree"}')
        with pytest.raises(McfError, match="unknown solution kind 'tree'"):
            load_solution(str(p), gen_torus([3], bidirectional=False))

    @pytest.mark.parametrize("comms", [
        [Commodity(0, 1, 2.0), Commodity(1, 2)],
        [Commodity(1, 2), Commodity(0, 1)],
    ], ids=["demand", "order"])
    def test_ts_roundtrip_keeps_commodities(self, tmp_path, comms):
        g = gen_torus([3], bidirectional=False)
        ts = mcf_timestepped(g, 2, comms)
        p = tmp_path / "ts.json"
        save_solution(ts, str(p))
        back = load_solution(str(p), g)
        assert back.commodities == comms
        assert back.trajectories == ts.trajectories
        assert back.flows == ts.flows

    @pytest.mark.parametrize("doc", [
        {"flows": [[1, 2, 1, 2, 1.0, 1], [0, 1, 0, 1, 1.0, 0]]},
        {"commodities": [[0, 1, 1.0]]},
    ], ids=["summed-flows", "nothing"])
    def test_ts_file_without_trajectories_rejected(self, tmp_path, doc):
        # time-stepped files used to hold summed flows; those cannot be
        # split into trajectories again without the time-expanded graph
        p = tmp_path / "old.json"
        p.write_text(json.dumps(
            {"kind": "ts", "l_max": 2, "U": [1.0, 1.0], **doc}))
        with pytest.raises(McfError, match="'trajectories'") as exc:
            load_solution(str(p), gen_torus([3], bidirectional=False))
        assert str(p) in str(exc.value)

    # 3-ring edges 0 -> 1, 1 -> 2, 2 -> 0; hops are [step, u, v]
    @pytest.mark.parametrize("dst, l_max, hops, weight, match", [
        (2, 3, [[0, 0, 1], [1, 2, 0]], 1.0, "does not continue from node 1"),
        (2, 3, [[0, 0, 1]], 1.0, "ends at node 1"),
        (2, 3, [[1, 0, 1], [1, 1, 2]], 1.0, r"step 1 after step 1; .*\[0, 3\)"),
        (2, 3, [[0, 0, 1], [3, 1, 2]], 1.0, r"step 3 after step 0; .*\[0, 3\)"),
        (1, 4, [[0, 0, 1], [1, 1, 2], [2, 2, 0], [3, 0, 1]], 1.0,
         "leaves its destination at step 1"),
        (1, 1, [[0, 0, 1]], 1.5, "carry 1.5, not its demand 1"),
    ], ids=["broken-chain", "ends-short", "non-increasing-step",
            "step-past-l_max", "leaves-dst", "weights-not-demand"])
    def test_ts_acausal_trajectory_rejected(self, tmp_path, dst, l_max, hops,
                                            weight, match):
        p = tmp_path / "ts.json"
        p.write_text(json.dumps({
            "kind": "ts", "l_max": l_max, "U": [1.0] * l_max,
            "commodities": [[0, dst, 1.0]],
            "trajectories": {"0": [[hops, weight]]}}))
        with pytest.raises(McfError, match=match) as exc:
            load_solution(str(p), gen_torus([3], bidirectional=False))
        assert str(p) in str(exc.value)

    def test_ts_roundtrip(self, tmp_path):
        g = gen_torus([3], bidirectional=False)
        ts = mcf_timestepped(g, l_max=2)
        p = tmp_path / "ts.json"
        save_solution(ts, str(p))
        back = load_solution(str(p), g)
        assert back.l_max == ts.l_max
        assert back.total_utilization == pytest.approx(ts.total_utilization)
        assert set(back.flows) == set(ts.flows)
        assert back.trajectories == ts.trajectories
