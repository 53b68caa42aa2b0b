"""MCF formulation tests: oracles, conservation, and serialization."""
from __future__ import annotations

import json

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
from a2aflow.lp import solve_lp
from a2aflow.mcf import (Commodity, LinkFlowSolution, McfError,
                         _build_master_model, _path_sum, _peel,
                         all_to_all_commodities, load_solution,
                         mcf_decomposed, mcf_link, mcf_path, mcf_timestepped,
                         save_solution, solve_master)
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
    """Per-commodity checks of a TimeExpandedSolution against its U_t."""
    from a2aflow.schedule import _decompose_trajectories

    T = ts.l_max
    by_comm: dict[int, dict] = {}
    load = np.zeros((g.num_edges, T))
    for (ci, e, t), v in ts.flows.items():
        by_comm.setdefault(ci, {})[(e, t)] = v
        load[e, t] += v
    for ci, com in enumerate(ts.commodities):
        flow = by_comm[ci]
        sent = np.zeros((g.n, T))
        recv = np.zeros((g.n, T))
        for (e, t), v in flow.items():
            u, w, _ = g.edges[e]
            assert w != com.src and u != com.dst
            sent[u, t] += v
            recv[w, t] += v
        assert recv[com.dst].sum() == pytest.approx(com.demand, abs=tol)
        for u in range(g.n):
            if u in (com.src, com.dst):
                continue
            # sent by step t <= received before step t
            assert (np.cumsum(sent[u]) <= np.cumsum(recv[u]) - recv[u]
                    + tol).all()
            assert sent[u].sum() == pytest.approx(recv[u].sum(), abs=tol)
        for hops, _ in _decompose_trajectories(g, com, flow, T):
            assert sum(g.edges[e][1] == com.dst for _, e in hops) == 1
    cap = np.asarray(g.capacities)[:, None]
    assert (load <= cap * ts.U[None, :] + tol).all()


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


class TestDecomposed:
    def test_matches_link_and_conserves(self):
        g = gen_complete_bipartite(4)
        lk = mcf_link(g)
        dc = mcf_decomposed(g)
        assert dc.F == pytest.approx(lk.F, abs=1e-6)
        check_conservation(g, dc, tol=1e-6)

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
        sol = solve_lp(_build_master_model(g, list(range(g.n)), comms))
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
        assert F_hi == pytest.approx(solve_master(g).F, rel=1e-9)

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


class TestPeel:
    @settings(max_examples=20, deadline=None)
    @given(**SMALL_GRAPHS)
    def test_exact_split_of_master_flow(self, kind, seed, k):
        g = small_graph(kind, seed, k)
        master = solve_master(g)
        tails = [u for u, _, _ in g.edges]
        heads = [v for _, v, _ in g.edges]
        comms, flows = [], {}
        for si, s in enumerate(master.sources):
            x = {e: v for (i, e), v in master.flows.items() if i == si}
            dests = [d for d in range(g.n) if d != s]
            split = _peel(tails, heads, x, s, [(d, master.F) for d in dests])
            total = np.zeros(g.num_edges)
            for d, paths in zip(dests, split):
                flow = _path_sum(paths)
                comms.append(Commodity(s, d))
                flows.update({(len(comms) - 1, e): v for e, v in flow.items()})
                bal = np.zeros(g.n)
                for e, v in flow.items():
                    u, w, _ = g.edges[e]
                    bal[u] += v
                    bal[w] -= v
                    total[e] += v
                assert -bal[d] == pytest.approx(master.F, abs=1e-9)
                assert bal[s] == pytest.approx(master.F, abs=1e-9)
                others = [bal[u] for u in range(g.n) if u not in (s, d)]
                assert max(map(abs, others), default=0.0) <= 1e-12
            for e in range(g.num_edges):
                assert total[e] <= x.get(e, 0.0) + 1e-12
        # extraction re-peels each commodity's flow into simple paths that
        # carry exactly that flow
        sol = LinkFlowSolution(F=master.F, commodities=comms, flows=flows,
                               graph=g)
        wps = extract_widest_paths(g, sol)
        for ci, com in enumerate(comms):
            carried = np.zeros(g.num_edges)
            for path, w in wps.paths[(com.src, com.dst)]:
                assert len(set(path)) == len(path)
                for a, b in zip(path, path[1:]):
                    carried[g.edge_index[(a, b)]] += w
            for e in range(g.num_edges):
                assert carried[e] == pytest.approx(flows.get((ci, e), 0.0),
                                                   abs=1e-9)

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

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "tree"}')
        with pytest.raises(McfError, match="unknown solution kind 'tree'"):
            load_solution(str(p), gen_torus([3], bidirectional=False))

    def test_ts_roundtrip(self, tmp_path):
        g = gen_torus([3], bidirectional=False)
        ts = mcf_timestepped(g, l_max=2)
        p = tmp_path / "ts.json"
        save_solution(ts, str(p))
        back = load_solution(str(p), g)
        assert back.l_max == ts.l_max
        assert back.total_utilization == pytest.approx(ts.total_utilization)
        assert set(back.flows) == set(ts.flows)
