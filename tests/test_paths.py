"""Route generation, extraction, baselines, and load evaluation."""
from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.deadlock import lash_sequential, verify_layers
from a2aflow.graphs import (Digraph, diameter, gen_complete_bipartite,
                            gen_gen_kautz, gen_hypercube, gen_torus, hops)
from a2aflow.mcf import (_commodities, _even_split, _peel, mcf_decomposed,
                         mcf_link, solve_master)
from a2aflow.paths import (RouteError, WeightedPathSet, disjoint_paths,
                           dor_routes, enum_paths_bounded, eval_link_load,
                           ewsp_routes, extract_widest_paths,
                           ilp_min_congestion, load_routes, save_routes,
                           route_links, sssp_routes)
from test_mcf import SMALL_GRAPHS, small_graph


class TestRouteLinks:
    def test_rejects_wrong_endpoints(self):
        g = gen_torus([3], bidirectional=False)
        with pytest.raises(RouteError, match=r"does not join 0 -> 2"):
            route_links(g, 0, 2, (0, 1))

    def test_rejects_nonsimple(self):
        g = gen_torus([4])
        with pytest.raises(RouteError, match="not simple"):
            route_links(g, 0, 2, (0, 1, 0, 1, 2))

    def test_rejects_missing_edge(self):
        g = gen_complete_bipartite(4)
        with pytest.raises(RouteError, match=r"nonexistent edge \(0,1\)"):
            route_links(g, 0, 1, (0, 1))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), **SMALL_GRAPHS)
    def test_accepts_exactly_valid_routes(self, data, kind, seed, k):
        """A node sequence, often a walk along links, is accepted exactly
        when it joins s to d, is simple and uses only existing links; its
        links come back in route order."""
        g = small_graph(kind, seed, k)
        node = st.integers(0, g.n - 1)
        path = [data.draw(node)]
        for _ in range(data.draw(st.integers(0, 5))):
            nbrs = [v for v, _ in g.out_adj[path[-1]]]
            follow = nbrs and data.draw(st.booleans())
            path.append(data.draw(st.sampled_from(nbrs) if follow else node))
        s = path[0] if data.draw(st.booleans()) else data.draw(node)
        d = path[-1] if data.draw(st.booleans()) else data.draw(node)
        pairs = list(zip(path, path[1:]))
        arcs = {(u, v) for u, v, _ in g.edges}
        if (path[0] == s and path[-1] == d and len(set(path)) == len(path)
                and all(ab in arcs for ab in pairs)):
            links = route_links(g, s, d, tuple(path))
            assert [g.edges[e][:2] for e in links] == pairs
        else:
            with pytest.raises(RouteError):
                route_links(g, s, d, tuple(path))


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

    def test_unreachable_pairs_empty(self):
        # 0 reaches every node, but no node reaches 0
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        ps = enum_paths_bounded(g, 3)
        assert ps.paths[(1, 0)] == [] and ps.paths[(2, 0)] == []
        assert ps.paths[(0, 2)] == [((0, 1, 2), 0.0)]
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
        for (s, d), plist in wp.paths.items():
            for p, _ in plist:
                route_links(g, s, d, p)
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
        # 0 -> 1 -> 2 plus a circulation 1 -> 3 -> 1, peeled as the solvers
        # peel their flows
        tails, heads = [0, 1, 1, 3], [1, 2, 3, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (peeled,) = _peel(tails, heads, {0: 0.5, 1: 0.5, 2: 0.25, 3: 0.25},
                              0, [(2, 0.5)])
        paths = [((0, *(heads[a] for a in arcs)), w) for arcs, w in peeled]
        assert paths == [((0, 1, 2), 0.5)]


class TestSsspRoutes:
    def test_ring3(self):
        g = gen_torus([3], bidirectional=False)
        ml, _ = eval_link_load(g, sssp_routes(g))
        assert ml == 3.0

    def test_same_seed_identical(self):
        g = gen_torus([3, 3])
        assert sssp_routes(g, seed=9).paths == sssp_routes(g, seed=9).paths

    def test_order_insensitive_after_init_weight(self):
        # the N^2 initial weight keeps seed choice from changing the max load
        g = gen_torus([3, 3, 3])
        loads = {eval_link_load(g, sssp_routes(g, seed=s))[0]
                 for s in (0, 1, 2)}
        assert len(loads) == 1


class TestEwsp:
    def test_ring3_matches_sssp(self):
        g = gen_torus([3], bidirectional=False)
        assert ewsp_routes(g).paths == sssp_routes(g).paths

    def test_hypercube_adjacent_single(self):
        ew = ewsp_routes(gen_hypercube(3))
        assert ew.paths[(0, 1)] == [((0, 1), 1.0)]

    def test_weights_sum_to_one(self):
        ew = ewsp_routes(gen_torus([3, 3]))
        for plist in ew.paths.values():
            assert sum(w for _, w in plist) == pytest.approx(1.0)

    @pytest.mark.parametrize("g", [gen_gen_kautz(27, 4), gen_torus([4, 4]),
                                   gen_hypercube(4)],
                             ids=["gk27", "torus4x4", "hypercube4"])
    def test_loads_match_even_split(self, g):
        # two independent even shortest-path splits: explicit paths here,
        # per-root path counting in the master LP's no-LP shortcut
        comms = _commodities(g, None)
        x = _even_split(g, np.arange(g.n), comms[0], comms)
        want = x.sum(axis=0) / np.asarray(g.capacities)
        _, load = eval_link_load(g, ewsp_routes(g))
        np.testing.assert_allclose(load, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("g", [gen_torus([3, 3]), gen_hypercube(3),
                                   gen_gen_kautz(12, 3)],
                             ids=["torus3x3", "hypercube3", "genkautz12"])
    def test_is_enumeration_at_hop_distance(self, g):
        """Each commodity's even split is over the shortest paths of the
        exhaustive enumeration, in its order."""
        enum = enum_paths_bounded(g, diameter(g), per_commodity_cap=None)
        for sd, plist in ewsp_routes(g).paths.items():
            shortest = [p for p, _ in enum.paths[sd]
                        if len(p) == len(enum.paths[sd][0][0])]
            assert [p for p, _ in plist] == shortest

    def test_unreachable_pair_rejected(self):
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(RouteError, match="no path 1 -> 0"):
            ewsp_routes(g)


class TestDor:
    def test_spec_walk(self):
        g = gen_torus([3, 3, 3])
        rt = dor_routes(g)
        # (0,0,0) -> (1,2,0): one +step in dim 0, then one -step in dim 1
        assert rt.paths[(0, 9 + 6)] == [((0, 9, 15), 1.0)]

    def test_path_length_is_lattice_distance(self):
        g = gen_torus([3, 3])
        rt = dor_routes(g)
        dist = hops(g)
        for (s, d), [(p, w)] in rt.paths.items():
            assert len(p) - 1 == dist[s][d] and w == 1.0

    def test_tie_positive_direction(self):
        g = gen_torus([4])
        rt = dor_routes(g)
        assert rt.paths[(0, 2)] == [((0, 1, 2), 1.0)]

    def test_rejects_non_torus(self):
        with pytest.raises(RouteError):
            dor_routes(gen_hypercube(3))


class TestIlp:
    def test_ring3_forced(self):
        g = gen_torus([3], bidirectional=False)
        table, load, gap = ilp_min_congestion(g, disjoint_paths(g))
        assert load == pytest.approx(3.0, abs=1e-6)
        assert len(table.paths) == 6

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

    def test_empty_path_set_rejected(self):
        g = gen_torus([3])
        with pytest.raises(RouteError, match="empty path set"):
            ilp_min_congestion(g, WeightedPathSet(paths={}))

    def test_genkautz27_optimum(self):
        g = gen_gen_kautz(27, 4)
        table, load, gap = ilp_min_congestion(g, disjoint_paths(g), alpha=0.0)
        assert load == pytest.approx(15.0, abs=1e-6)
        assert gap == pytest.approx(0.0, abs=1e-9)
        assert eval_link_load(g, table)[0] == pytest.approx(load, abs=1e-6)
        assert load >= 1 / solve_master(g).F - 1e-6


class TestSinglePath:
    @pytest.mark.parametrize("algo", ["sssp", "ilp"])
    @settings(max_examples=8, deadline=None)
    @given(**SMALL_GRAPHS)
    def test_one_path_at_weight_one(self, tmp_path_factory, algo, kind,
                                    seed, k):
        g = small_graph(kind, seed, k)
        if algo == "sssp":
            wps = sssp_routes(g, seed=seed)
        else:
            wps, ilp_load, _ = ilp_min_congestion(g, disjoint_paths(g))
        assert set(wps.paths) == {(s, d) for s in range(g.n)
                                  for d in range(g.n) if s != d}
        assert all(len(plist) == 1 and plist[0][1] == 1.0
                   for plist in wps.paths.values())
        f = tmp_path_factory.mktemp("routes") / "r.json"
        save_routes(wps, str(f))
        assert load_routes(str(f)) == wps
        # at weight 1 a link's load counts the paths crossing it
        crossings = np.zeros(g.num_edges)
        for [(p, _)] in wps.paths.values():
            for ab in zip(p, p[1:]):
                crossings[g.edge_index[ab]] += 1
        max_load, load = eval_link_load(g, wps)
        np.testing.assert_array_equal(load,
                                      crossings / np.asarray(g.capacities))
        if algo == "ilp":
            assert max_load == pytest.approx(ilp_load, abs=1e-6)
        routes = {(s, d, 0): p for (s, d), [(p, _)] in wps.paths.items()}
        assert verify_layers(g, routes, lash_sequential(g, routes))[0]


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
        wp = WeightedPathSet(paths={(0, 1): [((0, 1), 1.0)],
                                    (1, 0): [((1, 0), 1.0)]})
        assert eval_link_load(g, wp)[0] == pytest.approx(0.5)

    def test_load_independent_of_commodity_order(self):
        """Link 0 -> 1 carries 0.1, 0.2 and 0.3 of three commodities, whose
        float sum depends on the order of addition; the load is their exact
        sum rounded once."""
        g = Digraph.from_edges(3, [(u, v, 1.0) for u in range(3)
                                   for v in range(3) if u != v])
        paths = {(0, 1): [((0, 1), 0.1), ((0, 2, 1), 0.9)],
                 (0, 2): [((0, 1, 2), 0.2), ((0, 2), 0.8)],
                 (2, 1): [((2, 0, 1), 0.3), ((2, 1), 0.7)]}
        first = eval_link_load(g, WeightedPathSet(paths=paths))
        assert first[1][g.edge_index[(0, 1)]] == 0.6
        for order in itertools.permutations(paths):
            ml, load = eval_link_load(
                g, WeightedPathSet(paths={sd: paths[sd] for sd in order}))
            assert ml == first[0]
            assert load.tobytes() == first[1].tobytes()

    def test_commodity_without_paths_rejected(self):
        g = gen_torus([3])
        with pytest.raises(RouteError, match=r"commodity \(0,1\) has no"):
            eval_link_load(g, WeightedPathSet(paths={(0, 1): []}))

    def test_zero_total_weight_rejected(self):
        # disjoint_paths leaves every weight at 0: no demand fraction to count
        g = gen_torus([3, 3])
        with pytest.raises(RouteError, match=r"commodity \(0,1\) has zero"):
            eval_link_load(g, disjoint_paths(g))


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
        ('{"routes": [{"s": 0, "d": 1, "paths": '
         '[{"nodes": [0, 1], "weight": NaN}]}]}', "routes"),
        ('{"routes": [{"s": 0, "d": 1, "paths": '
         '[{"nodes": [0, 1], "weight": Infinity}]}]}', "routes"),
        ('{"routes": [{"s": 0, "d": 1, "paths": '
         '[{"nodes": [0, 1], "weight": "one"}]}]}', "routes"),
        ('{"routes": [{"s": 0, "d": 1, "paths": [{"nodes": [0, 1], '
         '"weight": 2}, {"nodes": [0, 2, 1], "weight": -1}]}]}', "negative"),
    ])
    def test_malformed_file_names_file_and_field(self, tmp_path, text, field):
        p = tmp_path / "bad.json"
        p.write_text(text)
        with pytest.raises(RouteError, match=field) as exc:
            load_routes(str(p))
        assert str(p) in str(exc.value)

    def test_genkautz27_roundtrip_is_exact(self, tmp_path):
        g = gen_gen_kautz(27, 4)
        wp = extract_widest_paths(g, mcf_decomposed(g))
        p = tmp_path / "r.json"
        save_routes(wp, str(p))
        assert load_routes(str(p)).paths == wp.paths

    @pytest.mark.parametrize("weight", ['"1/3"', '"0.5"'],
                             ids=["fraction", "decimal"])
    def test_string_weights_rejected(self, tmp_path, weight):
        # save_routes writes floats; a weight is a number, never a string
        p = tmp_path / "old.json"
        p.write_text('{"routes": [{"s": 0, "d": 1, "paths": ['
                     f'{{"nodes": [0, 1], "weight": {weight}}}]}}]}}')
        with pytest.raises(RouteError, match="'routes'.*not a finite number"
                           ) as exc:
            load_routes(str(p))
        assert str(p) in str(exc.value)

    def test_route_table_roundtrip(self, tmp_path):
        g = gen_torus([3], bidirectional=False)
        rt = sssp_routes(g)
        p = tmp_path / "rt.json"
        save_routes(rt, str(p))
        assert load_routes(str(p)) == rt
