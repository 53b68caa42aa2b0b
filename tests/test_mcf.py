"""MCF formulation tests: oracles, conservation, and serialization."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.graphs import (Digraph, augment_host_bottleneck,
                            gen_complete_bipartite, gen_de_bruijn,
                            gen_hypercube, gen_random_regular, gen_torus,
                            puncture)
from a2aflow.mcf import (Commodity, McfError, _peel, all_to_all_commodities,
                         flow_scale_check, load_solution, mcf_decomposed,
                         mcf_link, mcf_path, mcf_timestepped, save_solution,
                         solve_master)


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


class TestPeel:
    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["rrg", "punctured"]),
           seed=st.integers(0, 10_000), k=st.integers(1, 4))
    def test_exact_split_of_master_flow(self, kind, seed, k):
        if kind == "rrg":
            g = gen_random_regular(6 + seed % 5, 2 + seed % 2, seed=seed)
        else:
            g = puncture(gen_torus([3, 3, 3]), "edges", k, seed=seed)
        master = solve_master(g)
        for si, s in enumerate(master.sources):
            x = {e: v for (i, e), v in master.flows.items() if i == si}
            dests = [d for d in range(g.n) if d != s]
            split = _peel(g, x, s, dests, master.F)
            total = np.zeros(g.num_edges)
            for d, flow in split.items():
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

    def test_short_flow_rejected(self):
        g = gen_torus([3], bidirectional=False)
        x = {g.edge_index[(0, 1)]: 0.5}
        with pytest.raises(McfError):
            _peel(g, x, 0, [1], 1.0)

    def test_cycle_left_behind(self):
        # 0 -> 1 -> 2 plus a circulation 1 -> 2 -> 1; only the path is kept
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        ei = g.edge_index
        x = {ei[(0, 1)]: 1.0, ei[(1, 2)]: 1.5, ei[(2, 1)]: 0.5}
        split = _peel(g, x, 0, [2], 1.0)
        assert split[2] == {ei[(0, 1)]: 1.0, ei[(1, 2)]: 1.0}


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
        with pytest.raises(McfError):
            mcf_timestepped(gen_torus([5], bidirectional=False), l_max=2)


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


class TestScaleCheck:
    def test_identity_and_double(self):
        g = gen_torus([3], bidirectional=False)
        scaled, expected, ok = flow_scale_check(g, 2.0)
        assert ok and scaled == pytest.approx(2 / 3, abs=1e-6)

    def test_half_torus(self):
        g = gen_torus([3, 3])
        scaled, expected, ok = flow_scale_check(g, 0.5)
        assert ok and scaled == pytest.approx(1 / 6, abs=1e-6)


class TestSolutionJson:
    def test_link_roundtrip(self, tmp_path):
        g = gen_complete_bipartite(4)
        sol = mcf_link(g)
        p = tmp_path / "sol.json"
        save_solution(sol, str(p))
        back = load_solution(str(p), g)
        assert back.F == pytest.approx(sol.F)
        assert set(back.flows) == set(sol.flows)

    def test_ts_roundtrip(self, tmp_path):
        g = gen_torus([3], bidirectional=False)
        ts = mcf_timestepped(g, l_max=2)
        p = tmp_path / "ts.json"
        save_solution(ts, str(p))
        back = load_solution(str(p), g)
        assert back.l_max == ts.l_max
        assert back.total_utilization == pytest.approx(ts.total_utilization)
        assert set(back.flows) == set(ts.flows)
