"""Channel-dependency analysis and virtual-layer assignment.

A channel dependency graph (CDG) has one node per directed link; routes that
traverse link e1 then e2 consecutively add the arc e1 -> e2. Wormhole routing
deadlocks exactly when a layer's CDG has a cycle, so routes are greedily
packed into the fewest layers whose CDGs stay acyclic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Digraph

__all__ = [
    "ChannelDependencyGraph",
    "LayerAssignment",
    "DeadlockError",
    "build_cdg",
    "lash_sequential",
    "verify_layers",
]


class DeadlockError(RuntimeError):
    pass


@dataclass
class ChannelDependencyGraph:
    """Arcs between link indices; multiplicity collapsed."""

    num_links: int
    arcs: set[tuple[int, int]] = field(default_factory=set)


@dataclass
class LayerAssignment:
    """route key -> layer id; layers are 0..num_layers-1."""

    layers: dict[tuple[int, int], int]

    @property
    def num_layers(self) -> int:
        return max(self.layers.values()) + 1 if self.layers else 0


def _route_items(routes) -> dict[tuple[int, int], tuple[int, ...]]:
    if hasattr(routes, "routes"):
        return dict(routes.routes)
    return dict(routes)


def _route_arcs(g: Digraph, path) -> list[tuple[int, int]]:
    idx = g.edge_index
    links = []
    for a, b in zip(path, path[1:]):
        if (a, b) not in idx:
            raise DeadlockError(f"route {path} uses nonexistent link ({a},{b})")
        links.append(idx[(a, b)])
    return list(zip(links, links[1:]))


def build_cdg(g: Digraph, routes) -> ChannelDependencyGraph:
    cdg = ChannelDependencyGraph(num_links=g.num_edges)
    for path in _route_items(routes).values():
        cdg.arcs.update(_route_arcs(g, path))
    return cdg


def _find_cycle(num_links: int, arcs: set[tuple[int, int]]):
    """A cycle as a link-index list, or None. Iterative colored DFS."""
    succ: dict[int, list[int]] = {}
    for a, b in sorted(arcs):
        succ.setdefault(a, []).append(b)
    color = {}
    parent = {}
    for start in sorted(succ):
        if start in color:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    cyc = [nxt, node]
                    while cyc[-1] != nxt:
                        cyc.append(parent[cyc[-1]])
                    cyc_nodes = cyc[1:][::-1]
                    return cyc_nodes
                if nxt not in color:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def _topo_order(nodes: set[int], arcs: set[tuple[int, int]]):
    """Topological order of the given CDG nodes, or None if cyclic."""
    indeg = {u: 0 for u in nodes}
    succ: dict[int, list[int]] = {u: [] for u in nodes}
    for a, b in arcs:
        succ[a].append(b)
        indeg[b] += 1
    ready = sorted(u for u in nodes if indeg[u] == 0)
    order = []
    while ready:
        u = ready.pop(0)
        order.append(u)
        for v in sorted(succ[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return order if len(order) == len(nodes) else None


def lash_sequential(g: Digraph, routes, max_layers: int = 8) -> LayerAssignment:
    """Greedy layer packing, longest routes first.

    Each route goes to the lowest-indexed layer whose CDG stays acyclic with
    the route's arcs added; a new layer opens when none fits. Raises once
    max_layers is exceeded, naming the offending route.
    """
    items = _route_items(routes)
    order = sorted(items, key=lambda k: (-len(items[k]), k))
    layer_arcs: list[set[tuple[int, int]]] = []
    assignment: dict[tuple[int, int], int] = {}
    for key in order:
        arcs = set(_route_arcs(g, items[key]))
        placed = False
        for li, existing in enumerate(layer_arcs):
            merged = existing | arcs
            if _find_cycle(g.num_edges, merged) is None:
                layer_arcs[li] = merged
                assignment[key] = li
                placed = True
                break
        if not placed:
            if len(layer_arcs) >= max_layers:
                raise DeadlockError(
                    f"route {key} does not fit within {max_layers} layers"
                )
            if _find_cycle(g.num_edges, arcs) is not None:
                raise DeadlockError(
                    f"route {key} has a cyclic dependency on its own"
                )
            layer_arcs.append(arcs)
            assignment[key] = len(layer_arcs) - 1
    return LayerAssignment(layers=assignment)


def verify_layers(g: Digraph, routes, assignment: LayerAssignment):
    """Independent recheck of a layer assignment.

    Rebuilds each layer's CDG from scratch. Returns (True, certificate) with
    a topological link order per layer, or (False, cycle) with the violating
    link cycle. Unassigned routes fail verification.
    """
    items = _route_items(routes)
    missing = set(items) - set(assignment.layers)
    if missing:
        return False, {"unassigned": sorted(missing)}
    per_layer_arcs: dict[int, set[tuple[int, int]]] = {}
    per_layer_nodes: dict[int, set[int]] = {}
    for key, li in assignment.layers.items():
        if key not in items:
            continue
        arcs = _route_arcs(g, items[key])
        per_layer_arcs.setdefault(li, set()).update(arcs)
        nodes = per_layer_nodes.setdefault(li, set())
        for a, b in zip(items[key], items[key][1:]):
            nodes.add(g.edge_index[(a, b)])
    certificate = {}
    for li in sorted(per_layer_nodes):
        order = _topo_order(per_layer_nodes[li], per_layer_arcs[li])
        if order is None:
            return False, {"layer": li,
                           "cycle": _find_cycle(g.num_edges,
                                                per_layer_arcs[li])}
        certificate[li] = order
    return True, certificate
