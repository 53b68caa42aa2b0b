"""Channel dependency graphs and virtual-layer assignment."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.deadlock import (DeadlockError, LayerAssignment,
                              lash_sequential, verify_layers)
from a2aflow.graphs import (Digraph, gen_gen_kautz, gen_random_regular,
                            gen_torus, puncture)
from a2aflow.mcf import mcf_decomposed
from a2aflow.paths import (RouteError, dor_routes, extract_widest_paths,
                           sssp_routes)


def route_keys(wps):
    """Route key (s, d, i) -> path i of commodity (s, d), the mapping that
    ``a2a layers`` layers."""
    return {(s, d, i): p for (s, d), plist in wps.paths.items()
            for i, (p, _) in enumerate(plist)}


def opposing_wrap_routes():
    """Two 3-hop routes covering the 4-ring in the same direction.

    Together their link dependencies close the full ring cycle, so they
    cannot share a layer.
    """
    return gen_torus([4]), {(0, 3): (0, 1, 2, 3), (2, 1): (2, 3, 0, 1)}


def first_fit_reference(g, routes, max_layers=8):
    """The greedy packing with every trial layer rebuilt and re-verified.

    Returns the layer of each route, or None once a route fits in none of
    max_layers layers.
    """
    members: list[dict] = []
    for key in sorted(routes, key=lambda k: (-len(routes[k]), k)):
        for li in range(len(members) + 1):
            trial = {**(members[li] if li < len(members) else {}),
                     key: routes[key]}
            if verify_layers(g, trial,
                             LayerAssignment({k: 0 for k in trial}))[0]:
                break
        if li == len(members):
            if li >= max_layers:
                return None
            members.append({})
        members[li][key] = routes[key]
    return {k: li for li, layer in enumerate(members) for k in layer}


class TestLashSequential:
    def test_adversarial_pair_needs_two_layers(self):
        g, routes = opposing_wrap_routes()
        la = lash_sequential(g, routes)
        assert la.num_layers == 2

    def test_dag_topology_single_layer(self):
        g = Digraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                   (0, 2, 1.0), (1, 3, 1.0)])
        routes = {(0, 3): (0, 1, 2, 3), (0, 2): (0, 1, 2), (1, 3): (1, 2, 3)}
        la = lash_sequential(g, routes)
        assert la.num_layers == 1

    def test_max_layers_enforced(self):
        g, routes = opposing_wrap_routes()
        with pytest.raises(DeadlockError):
            lash_sequential(g, routes, max_layers=1)

    def test_empty(self):
        la = lash_sequential(gen_torus([4]), {})
        assert la.num_layers == 0

    def test_monotone_in_routes(self):
        g = gen_torus([5, 5])
        routes = route_keys(dor_routes(g))
        items = sorted(routes.items())
        half = dict(items[: len(items) // 2])
        l_half = lash_sequential(g, half).num_layers
        l_full = lash_sequential(g, routes).num_layers
        assert l_full >= l_half

    def test_dor_5x5_within_four(self):
        g = gen_torus([5, 5])
        la = lash_sequential(g, route_keys(dor_routes(g)))
        assert 2 <= la.num_layers <= 4

    def test_missing_edge_rejected(self):
        with pytest.raises(RouteError, match="nonexistent edge"):
            lash_sequential(gen_torus([4]), {(0, 2): (0, 2)})

    def test_route_cyclic_on_its_own(self):
        # only a route that revisits a link can close a cycle on its own,
        # and such a route is not simple
        g = gen_torus([3])
        with pytest.raises(RouteError, match="not simple"):
            lash_sequential(g, {(0, 1): (0, 1, 2, 0, 1)})

    def test_route_checked_against_its_commodity(self):
        # a route key starts with its commodity (s, d)
        g = gen_torus([3, 3])
        routes = {(0, 4, 0): (0, 1)}
        with pytest.raises(RouteError, match="does not join 0 -> 4"):
            lash_sequential(g, routes)
        with pytest.raises(RouteError, match="does not join 0 -> 4"):
            verify_layers(g, routes, LayerAssignment({(0, 4, 0): 0}))

    def test_shared_arcs_stay_in_their_layer(self):
        """A route may reuse an arc its layer already holds. A rejected
        route leaves such an arc in place, and a later route that closes a
        cycle through it is rejected too."""
        # link i is i -> i + 1, and the CDG arc i -> i + 1 is walked by the
        # nodes (i, i + 1, i + 2); a cycle needs all five arcs
        g = gen_torus([5], bidirectional=False)
        routes = {
            (4, 3): (4, 0, 1, 2, 3),    # arcs 4, 0, 1
            (1, 4): (1, 2, 3, 4),       # arcs 1 (reused) and 2
            (2, 0): (2, 3, 4, 0),       # arcs 2 (reused) and 3: a cycle
            (0, 2): (0, 1, 2),          # arc 0 (reused)
            (3, 0): (3, 4, 0),          # arc 3: a cycle through arc 2
        }
        expected = {(4, 3): 0, (1, 4): 0, (2, 0): 1, (0, 2): 0, (3, 0): 1}
        assert first_fit_reference(g, routes) == expected
        assert lash_sequential(g, routes).layers == expected

    def test_genkautz27_matches_first_fit_reference(self, decomp_solutions):
        g = gen_gen_kautz(27, 4)
        routes = route_keys(
            extract_widest_paths(g, decomp_solutions["genkautz27"]))
        assert len(routes) > 700
        la = lash_sequential(g, routes)
        assert la.layers == first_fit_reference(g, routes)
        assert verify_layers(g, routes, la)[0]

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["rrg", "punctured-torus"]),
           st.integers(min_value=0, max_value=10 ** 6),
           st.booleans(), st.integers(min_value=2, max_value=3))
    def test_matches_first_fit_reference(self, kind, seed, extracted,
                                         max_layers):
        if kind == "rrg":
            g = gen_random_regular(8 + seed % 5, 2 + seed % 2, seed=seed)
        else:
            g = puncture(gen_torus([3, 4]), "edges", 1 + seed % 3, seed=seed)
        routes = route_keys(extract_widest_paths(g, mcf_decomposed(g))
                            if extracted else sssp_routes(g, seed=seed))
        expected = first_fit_reference(g, routes, max_layers)
        if expected is None:
            with pytest.raises(DeadlockError, match="does not fit within"):
                lash_sequential(g, routes, max_layers)
        else:
            assert lash_sequential(g, routes, max_layers).layers == expected


class TestVerifyLayers:
    def test_lash_output_verifies(self):
        g = gen_torus([3, 3, 3])
        routes = route_keys(sssp_routes(g, seed=0))
        la = lash_sequential(g, routes)
        ok, cert = verify_layers(g, routes, la)
        assert ok
        # certificate is a topological order covering each layer's links
        for li, order in cert.items():
            assert len(order) == len(set(order))

    def test_corrupted_assignment_detected(self):
        g, routes = opposing_wrap_routes()
        bad = LayerAssignment(layers={k: 0 for k in routes})
        ok, cert = verify_layers(g, routes, bad)
        assert not ok and cert["layer"] == 0 and cert["cycle"]
        # the dependency arcs: consecutive links of one route
        arcs = {(g.edge_index[(a, b)], g.edge_index[(b, c)])
                for p in routes.values() for a, b, c in zip(p, p[1:], p[2:])}
        cycle = cert["cycle"]
        assert all((a, b) in arcs
                   for a, b in zip(cycle, cycle[1:] + cycle[:1]))

    def test_unassigned_route_detected(self):
        g, routes = opposing_wrap_routes()
        partial = LayerAssignment(layers={(0, 3): 0})
        ok, cert = verify_layers(g, routes, partial)
        assert not ok and cert["unassigned"] == [(2, 1)]

    def test_empty_true(self):
        ok, cert = verify_layers(gen_torus([4]), {},
                                 LayerAssignment(layers={}))
        assert ok and cert == {}
