"""Route generation, extraction, baselines, and load evaluation."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.graphs import (Digraph, diameter, gen_complete_bipartite,
                            gen_gen_kautz, gen_hypercube, gen_torus)
from a2aflow.mcf import (Commodity, LinkFlowSolution, McfError,
                         mcf_decomposed, mcf_link, solve_master)
from a2aflow.paths import (RouteError, RouteTable, WeightedPathSet,
                           disjoint_paths, dor_routes, enum_paths_bounded,
                           eval_link_load, ewsp_routes, extract_widest_paths,
                           ilp_min_congestion, load_routes,
                           save_routes, sssp_routes, validate_path)


class TestValidatePath:
    def test_rejects_wrong_endpoints(self):
        g = gen_torus([3], bidirectional=False)
        with pytest.raises(RouteError):
            validate_path(g, 0, 2, (0, 1))

    def test_rejects_nonsimple(self):
        g = gen_torus([4])
        with pytest.raises(RouteError):
            validate_path(g, 0, 2, (0, 1, 0, 1, 2))

    def test_rejects_missing_edge(self):
        g = gen_complete_bipartite(4)
        with pytest.raises(RouteError):
            validate_path(g, 0, 1, (0, 1))


class TestEnumPaths:
    def test_ring3_unique(self):
        g = gen_torus([3], bidirectional=False)
        ps = enum_paths_bounded(g, 2)
        assert all(len(v) == 1 for v in ps.paths.values())

    def test_shortest_first_order(self):
        g = gen_torus([4])
        ps = enum_paths_bounded(g, 3)
        for plist in ps.paths.values():
            lengths = [len(p) for p, _ in plist]
            assert lengths == sorted(lengths)

    def test_truncation_reported(self):
        g = gen_torus([4, 4])
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            ps = enum_paths_bounded(g, diameter(g), per_commodity_cap=8)
        assert ps.truncated
        assert any("truncated" in str(w.message) for w in rec)
        assert all(len(v) <= 8 for v in ps.paths.values())

    def test_genkautz_polynomial_at_diam_plus_1(self):
        g = gen_gen_kautz(50, 4)
        ps = enum_paths_bounded(g, diameter(g) + 1, per_commodity_cap=2048)
        assert not ps.truncated

    def test_exhaustive_cap_guard(self):
        with pytest.raises(RouteError):
            enum_paths_bounded(gen_gen_kautz(27, 4), 4, per_commodity_cap=None)


class TestDisjointPaths:
    def test_ring3_single(self):
        g = gen_torus([3], bidirectional=False)
        dj = disjoint_paths(g)
        assert all(len(v) == 1 for v in dj.paths.values())

    def test_hypercube_antipodal(self):
        dj = disjoint_paths(gen_hypercube(3))
        assert len(dj.paths[(0, 7)]) == 3

    def test_bipartite_same_side(self):
        dj = disjoint_paths(gen_complete_bipartite(8))
        plist = dj.paths[(0, 1)]
        assert len(plist) == 4
        assert all(len(p) == 3 for p, _ in plist)

    def test_pairwise_link_disjoint(self):
        g = gen_gen_kautz(27, 4)
        dj = disjoint_paths(g)
        for (s, d), plist in dj.paths.items():
            used = set()
            for p, _ in plist:
                for edge in zip(p, p[1:]):
                    assert edge not in used
                    used.add(edge)


class TestExtractWidest:
    def test_single_path_flow(self):
        g = gen_torus([3], bidirectional=False)
        sol = mcf_link(g)
        wp = extract_widest_paths(g, sol)
        assert wp.paths[(0, 1)] == [((0, 1), pytest.approx(1 / 3))]

    def test_conserves_per_commodity(self):
        g = gen_torus([3, 3])
        sol = mcf_link(g)
        wp = extract_widest_paths(g, sol)
        wp.validate(g)
        for (s, d), plist in wp.paths.items():
            assert sum(w for _, w in plist) == pytest.approx(sol.F, abs=1e-6)

    def test_load_matches_inverse_F(self):
        g = gen_complete_bipartite(8)
        sol = mcf_link(g)
        wp = extract_widest_paths(g, sol)
        ml, _ = eval_link_load(g, wp)
        assert ml == pytest.approx(1 / sol.F, abs=1e-4)

    def test_deterministic(self):
        g = gen_torus([3, 3])
        sol = mcf_link(g)
        assert (extract_widest_paths(g, sol).paths
                == extract_widest_paths(g, sol).paths)

    def test_cycle_beside_flow_dropped(self):
        # edges 0: 0 -> 1, 1: 1 -> 2, 2: 1 -> 3, 3: 3 -> 1; the s -> d flow
        # 0 -> 1 -> 2 plus a circulation 1 -> 3 -> 1
        g = Digraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0),
                                   (3, 1, 1.0)])
        sol = LinkFlowSolution(F=0.5, commodities=[Commodity(0, 2)],
                               flows={(0, 0): 0.5, (0, 1): 0.5, (0, 2): 0.25,
                                      (0, 3): 0.25}, graph=g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wp = extract_widest_paths(g, sol)
        assert wp.paths == {(0, 2): [((0, 1, 2), 0.5)]}

    def test_solution_without_flows_rejected(self):
        g = gen_torus([3, 3])
        with pytest.raises(McfError):
            extract_widest_paths(g, mcf_decomposed(g, want_flows=False))


class TestSsspRoutes:
    def test_ring3(self):
        g = gen_torus([3], bidirectional=False)
        ml, _ = eval_link_load(g, sssp_routes(g))
        assert ml == 3.0

    def test_same_seed_identical(self):
        g = gen_torus([3, 3])
        assert sssp_routes(g, seed=9).routes == sssp_routes(g, seed=9).routes

    def test_order_insensitive_after_init_weight(self):
        # the N^2 initial weight keeps seed choice from changing the max load
        g = gen_torus([3, 3, 3])
        loads = {eval_link_load(g, sssp_routes(g, seed=s))[0]
                 for s in (0, 1, 2)}
        assert len(loads) == 1


class TestEwsp:
    def test_ring3_matches_sssp(self):
        g = gen_torus([3], bidirectional=False)
        ew = ewsp_routes(g)
        rt = sssp_routes(g)
        assert {k: v[0][0] for k, v in ew.paths.items()} == rt.routes

    def test_hypercube_adjacent_single(self):
        ew = ewsp_routes(gen_hypercube(3))
        assert ew.paths[(0, 1)] == [((0, 1), 1.0)]

    def test_weights_sum_to_one(self):
        ew = ewsp_routes(gen_torus([3, 3]))
        for plist in ew.paths.values():
            assert sum(w for _, w in plist) == pytest.approx(1.0)


class TestDor:
    def test_spec_walk(self):
        g = gen_torus([3, 3, 3])
        rt = dor_routes(g)
        # (0,0,0) -> (1,2,0): one +step in dim 0, then one -step in dim 1
        assert rt.routes[(0, 9 + 6)] == (0, 9, 15)

    def test_path_length_is_lattice_distance(self):
        g = gen_torus([3, 3])
        rt = dor_routes(g)
        from a2aflow.graphs import all_pairs_distances
        dist = all_pairs_distances(g)
        for (s, d), p in rt.routes.items():
            assert len(p) - 1 == dist[s][d]

    def test_tie_positive_direction(self):
        g = gen_torus([4])
        rt = dor_routes(g)
        assert rt.routes[(0, 2)] == (0, 1, 2)

    def test_rejects_non_torus(self):
        with pytest.raises(RouteError):
            dor_routes(gen_hypercube(3))


class TestIlp:
    def test_ring3_forced(self):
        g = gen_torus([3], bidirectional=False)
        table, load, gap = ilp_min_congestion(g, disjoint_paths(g))
        assert load == pytest.approx(3.0, abs=1e-6)
        assert len(table.routes) == 6

    def test_torus9_matches_mcf(self):
        g = gen_torus([3, 3])
        table, load, gap = ilp_min_congestion(g, disjoint_paths(g), alpha=0.0)
        assert load == pytest.approx(3.0, abs=1e-6)
        ml, _ = eval_link_load(g, table)
        assert ml == pytest.approx(load, abs=1e-6)

    def test_single_path_cannot_beat_fractional(self):
        g = gen_complete_bipartite(4)
        F = mcf_link(g).F
        _, load, _ = ilp_min_congestion(g, disjoint_paths(g), alpha=0.0)
        assert load >= 1 / F - 1e-6

    def test_nonexistent_edge_rejected(self):
        g = Digraph.from_edges(6, [(0, 1, 1.0), (1, 5, 1.0)])
        ps = WeightedPathSet(paths={(0, 5): [((0, 5), 0.0), ((0, 1, 5), 0.0)]})
        with pytest.raises(RouteError, match=r"nonexistent edge \(0,5\)"):
            ilp_min_congestion(g, ps)

    def test_commodity_without_paths_rejected(self):
        g = gen_torus([3], bidirectional=False)
        ps = disjoint_paths(g)
        ps.paths[(0, 1)] = []
        with pytest.raises(RouteError, match=r"\(0,1\) has no paths"):
            ilp_min_congestion(g, ps)

    def test_genkautz27_optimum(self):
        g = gen_gen_kautz(27, 4)
        table, load, gap = ilp_min_congestion(g, disjoint_paths(g), alpha=0.0)
        assert load == pytest.approx(16.0, abs=1e-6)
        assert gap == pytest.approx(0.0, abs=1e-9)
        assert eval_link_load(g, table)[0] == pytest.approx(load, abs=1e-6)
        assert load >= 1 / solve_master(g).F - 1e-6


class TestEvalLinkLoad:
    def test_empty(self):
        g = gen_torus([3])
        assert eval_link_load(g, WeightedPathSet(paths={}))[0] == 0.0

    def test_route_table_ge_fractional(self):
        g = gen_torus([3, 3])
        F = mcf_link(g).F
        ml, _ = eval_link_load(g, sssp_routes(g))
        assert ml >= 1 / F - 1e-6

    def test_capacity_normalization(self):
        g = Digraph.from_edges(2, [(0, 1, 2.0), (1, 0, 2.0)])
        rt = RouteTable(routes={(0, 1): (0, 1), (1, 0): (1, 0)})
        assert eval_link_load(g, rt)[0] == pytest.approx(0.5)


class TestRoutesJson:
    def test_roundtrip(self, tmp_path):
        g = gen_torus([3, 3])
        wp = extract_widest_paths(g, mcf_link(g))
        p = tmp_path / "r.json"
        save_routes(wp, str(p))
        back = load_routes(str(p))
        assert set(back.paths) == set(wp.paths)
        for k in wp.paths:
            assert [pp for pp, _ in back.paths[k]] == [pp for pp, _
                                                       in wp.paths[k]]
            for (_, a), (_, b) in zip(back.paths[k], wp.paths[k]):
                assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("text, field", [
        ("{}", "routes"),
        ('{"routes": [{"s": 0, "d": 1}]}', "routes"),
        ('{"routes": [{"s": 0, "d": 1, "paths": [{"nodes": [0, 1]}]}]}',
         "routes"),
        ("[[0, 1]]", "routes"),
        ("routes: []", "not valid JSON"),
    ])
    def test_malformed_file_names_file_and_field(self, tmp_path, text, field):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(RouteError, match=field) as exc:
            load_routes(str(p))
        assert str(p) in str(exc.value)

    def test_route_table_roundtrip(self, tmp_path):
        g = gen_torus([3], bidirectional=False)
        rt = sssp_routes(g)
        p = tmp_path / "rt.json"
        save_routes(rt, str(p))
        back = load_routes(str(p))
        assert {k: v[0][0] for k, v in back.paths.items()} == rt.routes
