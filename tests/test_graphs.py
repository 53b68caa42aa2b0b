"""Generators, metrics, and graph JSON round-trips."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.graphs import (Digraph, GraphError, augment_host_bottleneck,
                            diameter, gen_complete_bipartite, gen_de_bruijn,
                            gen_gen_kautz, gen_hypercube, gen_random_regular,
                            gen_shortest_path_expander, gen_torus,
                            gen_twisted_hypercube, hops, is_strongly_connected,
                            load_graph, puncture, save_graph)


def out_degrees(g: Digraph):
    return [len(g.out_adj[u]) for u in range(g.n)]


class TestDigraph:
    def test_from_edges_merges_parallel(self):
        g = Digraph.from_edges(2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)])
        assert g.num_edges == 2
        assert g.capacities[g.edge_index[(0, 1)]] == 3.0

    def test_zero_capacity_dropped(self):
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.0), (2, 0, 1.0)])
        assert (1, 2) not in g.edge_index

    def test_scaled(self):
        g = gen_torus([3])
        g2 = g.scaled(2.5)
        assert all(c == 2.5 for c in g2.capacities)

    def test_bad_endpoint_rejected(self):
        with pytest.raises(GraphError):
            Digraph.from_edges(2, [(0, 5, 1.0)])

    @pytest.mark.parametrize("edges", [
        [(0, 1, -1.0), (1, 0, 1.0)],
        # a negative entry may not cancel part of a parallel edge
        [(0, 1, 2.0), (0, 1, -1.0), (1, 0, 1.0)],
    ], ids=["dropped", "merged"])
    def test_negative_capacity_rejected_before_merging(self, edges):
        with pytest.raises(GraphError, match=r"edge \(0,1\): -1.0"):
            Digraph.from_edges(2, edges)

    def test_dropped_edge_still_checked(self):
        # a self-link or zero capacity out of range is an error, not dropped
        for edge in [(5, 5, 1.0), (0, 5, 0.0)]:
            with pytest.raises(GraphError, match="out of range"):
                Digraph.from_edges(2, [edge, (0, 1, 1.0)])


class TestGenKautz:
    def test_formula(self):
        g = gen_gen_kautz(27, 4)
        idx = g.edge_index
        for u in range(27):
            for j in range(1, 5):
                v = (-4 * u - j) % 27
                if v != u:
                    assert (u, v) in idx

    def test_regular_and_connected(self):
        for n, d in [(27, 4), (50, 4), (64, 4), (12, 3)]:
            g = gen_gen_kautz(n, d)
            assert g.n == n
            assert is_strongly_connected(g)
            assert all(deg <= d for deg in out_degrees(g))

    def test_diameter_near_log(self):
        g = gen_gen_kautz(64, 4)
        assert diameter(g) <= 4

    def test_rejects_bad_args(self):
        with pytest.raises(GraphError):
            gen_gen_kautz(4, 4)


class TestDeBruijn:
    def test_formula(self):
        g = gen_de_bruijn(8, 2)
        idx = g.edge_index
        for u in range(8):
            for j in range(2):
                v = (2 * u + j) % 8
                if v != u:
                    assert (u, v) in idx

    def test_self_loops_excluded_from_edges(self):
        # 0 -> 0 and 7 -> 7 are self-loops in the binary de Bruijn graph
        g = gen_de_bruijn(8, 2)
        assert all(u != v for u, v, _ in g.edges)


class TestTorus:
    def test_3d_regularity(self):
        g = gen_torus([3, 3, 3])
        assert g.n == 27 and g.num_edges == 162
        assert out_degrees(g) == [6] * 27

    def test_extent2_merges_directions(self):
        g = gen_torus([2, 3])
        # the extent-2 dimension contributes one link pair, not two
        assert len(g.out_adj[0]) == 3

    def test_unidirectional_ring(self):
        g = gen_torus([5], bidirectional=False)
        assert out_degrees(g) == [1] * 5
        assert diameter(g) == 4

    def test_rejects_extent_1(self):
        with pytest.raises(GraphError):
            gen_torus([1, 3])

    @given(st.lists(st.integers(min_value=3, max_value=5),
                    min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_degree_is_2k(self, dims):
        g = gen_torus(dims)
        assert out_degrees(g) == [2 * len(dims)] * g.n
        assert is_strongly_connected(g)


class TestHypercubes:
    def test_hypercube(self):
        g = gen_hypercube(3)
        assert g.n == 8 and out_degrees(g) == [3] * 8
        assert diameter(g) == 3

    def test_twisted_symmetric_and_shorter(self):
        g = gen_twisted_hypercube(3)
        assert g.n == 8 and out_degrees(g) == [3] * 8
        idx = g.edge_index
        assert all((v, u) in idx for u, v, _ in g.edges)
        assert diameter(g) == 2


class TestBipartite:
    def test_structure(self):
        g = gen_complete_bipartite(8)
        assert g.n == 8 and out_degrees(g) == [4] * 8
        idx = g.edge_index
        assert (0, 1) not in idx and (0, 4) in idx

    def test_rejects_odd(self):
        with pytest.raises(GraphError):
            gen_complete_bipartite(5)


class TestRandomRegular:
    def test_regular_connected_deterministic(self):
        g1 = gen_random_regular(16, 4, seed=3)
        g2 = gen_random_regular(16, 4, seed=3)
        assert g1.edges == g2.edges
        assert out_degrees(g1) == [4] * 16
        assert is_strongly_connected(g1)

    def test_seeds_differ(self):
        assert (gen_random_regular(16, 4, seed=1).edges
                != gen_random_regular(16, 4, seed=2).edges)


class TestExpander:
    def test_degree_bounded_and_connected(self):
        g = gen_shortest_path_expander(20, 4, seed=0)
        assert max(out_degrees(g)) <= 4
        assert is_strongly_connected(g)


class TestPuncture:
    def test_edges_mode(self):
        g = gen_torus([3, 3, 3])
        p = puncture(g, "edges", 3, seed=1)
        assert p.num_edges == g.num_edges - 6
        assert is_strongly_connected(p)

    def test_nodes_mode(self):
        g = gen_torus([3, 3, 3])
        p = puncture(g, "nodes", 2, seed=1)
        assert p.n == 25
        assert is_strongly_connected(p)

    def test_deterministic(self):
        g = gen_torus([3, 3, 3])
        assert (puncture(g, "edges", 3, seed=5).edges
                == puncture(g, "edges", 3, seed=5).edges)


class TestAugment:
    def test_structure(self):
        g = gen_torus([3, 3, 3])
        aug, mapping = augment_host_bottleneck(g, 4.0)
        assert aug.n == 81
        assert aug.num_edges == 162 + 2 * 27
        # host edges carry the host capacity
        e = aug.edge_index[(mapping.host[0], mapping.nic_out[0])]
        assert aug.capacities[e] == 4.0
        assert is_strongly_connected(aug)

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            augment_host_bottleneck(gen_torus([3]), 0.0)


class TestMetrics:
    def test_distances_ring(self):
        g = gen_torus([5], bidirectional=False)
        dist = hops(g)
        assert dist[0][4] == 4 and dist[4][0] == 1

    def test_diameter_torus(self):
        assert diameter(gen_torus([3, 3, 3])) == 3

    def test_disconnected_detected(self):
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
        assert not is_strongly_connected(g)

    def test_node_no_one_reaches(self):
        # 0 reaches every node, but no node reaches 0
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        inf = float("inf")
        assert hops(g).tolist() == [[0, 1, 2], [inf, 0, 1], [inf, 1, 0]]
        assert hops(g, [2]).tolist() == [[inf, 1, 0]]
        assert not is_strongly_connected(g)
        with pytest.raises(GraphError, match="0 unreachable from 1"):
            diameter(g)


class TestJson:
    def test_roundtrip(self, tmp_path):
        g = gen_gen_kautz(27, 4)
        p = tmp_path / "g.json"
        save_graph(g, str(p))
        g2 = load_graph(str(p))
        assert g2.n == g.n and g2.edges == g.edges
        assert g2.meta["generator"] == "genkautz"

    def test_rational_capacity_preserved(self, tmp_path):
        g = Digraph.from_edges(2, [(0, 1, 1 / 3), (1, 0, 1.0)])
        p = tmp_path / "g.json"
        save_graph(g, str(p))
        doc = json.loads(p.read_text())
        assert any("/" in e[2] for e in doc["edges"])
        g2 = load_graph(str(p))
        assert g2.capacities[g2.edge_index[(0, 1)]] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("edge, match", [
        ([0, 5, "1"], r"edge \(0,5\) out of range for n=2"),
        ([0, 1, "-1"], r"negative capacity on edge \(0,1\)"),
    ], ids=["out-of-range", "negative"])
    def test_bad_edge_names_file_and_edge(self, tmp_path, edge, match):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 2, "edges": [edge, [1, 0, "1"]]}))
        with pytest.raises(GraphError, match=match) as exc:
            load_graph(str(p))
        assert str(exc.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("doc, field", [
        ({"edges": []}, "'n'"), ({"n": 2}, "'edges'"),
        ({"n": 2, "edges": [[0, 1]]}, "'edges'"),
        ({"n": 2, "edges": [[0, 1, "1/0"]]}, "'edges'"),
    ], ids=["no-n", "no-edges", "short-edge", "bad-capacity"])
    def test_malformed_file_names_file_and_field(self, tmp_path, doc, field):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match=field) as exc:
            load_graph(str(p))
        assert str(p) in str(exc.value)
