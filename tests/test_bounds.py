"""Lower-bound oracles and closed-form identities."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.bounds import (alltoall_time_lower_bound, bound_report,
                            full_tree_distance_sum_closed,
                            graph_distance_bound, tree_distance_sum)
from a2aflow.graphs import Digraph, GraphError, gen_torus
from a2aflow.mcf import solve_master


class TestTreeDistanceSum:
    def test_full_binary_3_levels(self):
        assert tree_distance_sum(2, 7) == 10

    def test_truncated_level(self):
        # depths 0, 1, 1, 2
        assert tree_distance_sum(2, 4) == 4

    def test_star(self):
        assert tree_distance_sum(4, 5) == 4

    def test_path_degenerate(self):
        # d=1 degenerates to a path: 0+1+2+3
        assert tree_distance_sum(1, 4) == 6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tree_distance_sum(2, 1)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=2, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_n(self, d, n):
        assert tree_distance_sum(d, n + 1) > tree_distance_sum(d, n)


class TestClosedForm:
    def test_matches_explicit_sum(self):
        for d in range(2, 9):
            for k in range(1, 7):
                n = (d ** k - 1) // (d - 1)
                expected = tree_distance_sum(d, n) if n >= 2 else 0
                assert full_tree_distance_sum_closed(d, k) == expected


class TestTimeLowerBound:
    def test_binary_7(self):
        assert alltoall_time_lower_bound(2, 7) == 5.0

    def test_two_cycle_achieves_bound(self):
        g = Digraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
        assert alltoall_time_lower_bound(1, 2) == 1.0
        assert solve_master(g).F == pytest.approx(1.0, abs=1e-8)

    def test_growth_order(self):
        # Omega(N log_d N): the bound at least doubles when N doubles
        b100 = alltoall_time_lower_bound(4, 100)
        b200 = alltoall_time_lower_bound(4, 200)
        assert b200 >= 2 * b100


class TestGraphDistanceBound:
    def test_ring3(self):
        g = gen_torus([3], bidirectional=False)
        assert graph_distance_bound(g) == 3.0

    def test_torus27(self):
        assert graph_distance_bound(gen_torus([3, 3, 3])) == pytest.approx(9.0)

    def test_complete_digraph(self):
        n = 5
        edges = [(u, v, 1.0) for u in range(n) for v in range(n) if u != v]
        assert graph_distance_bound(Digraph.from_edges(n, edges)) == 1.0

    def test_disconnected_rejected(self):
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(ValueError):
            graph_distance_bound(g)

    def test_node_no_one_reaches_rejected(self):
        # 0 reaches every node, but no node reaches 0
        g = Digraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(GraphError, match="0 unreachable from 1"):
            graph_distance_bound(g)


class TestBoundReport:
    def test_fields_consistent(self):
        r = bound_report(2, 7)
        assert r.tau == 10 and r.time_lb == 5.0
        assert r.f_ub_tree == pytest.approx(0.2)
        assert r.f_ub_degree == pytest.approx(2 / 6)
        assert r.f_ub_tree <= r.f_ub_degree

    def test_as_dict(self):
        d = bound_report(4, 27).as_dict()
        assert set(d) == {"n", "d", "tau", "time_lb", "f_ub_tree",
                          "f_ub_degree"}
