"""Channel-dependency analysis and virtual-layer assignment.

A channel dependency graph (CDG) has one node per directed link; routes that
traverse link e1 then e2 consecutively add the arc e1 -> e2. Wormhole routing
deadlocks exactly when a layer's CDG has a cycle, so routes are greedily
packed into the fewest layers whose CDGs stay acyclic. Each layer's CDG is
kept in a topological order that is repaired as arcs arrive (Pearce & Kelly,
JEA 2006), so an arc that agrees with the order costs no search;
``verify_layers`` rebuilds every layer from scratch with Kahn's algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Digraph
from .paths import route_links

__all__ = [
    "LayerAssignment",
    "DeadlockError",
    "lash_sequential",
    "verify_layers",
]


class DeadlockError(RuntimeError):
    pass


@dataclass
class LayerAssignment:
    """route key -> layer id; layers are 0..num_layers-1."""

    layers: dict[tuple, int]

    @property
    def num_layers(self) -> int:
        return max(self.layers.values()) + 1 if self.layers else 0


class _OrderedCdg:
    """One layer's CDG, kept acyclic and in a maintained topological order.

    pos[l] is link l's place in the order (Pearce & Kelly, "A dynamic
    topological sort algorithm for directed acyclic graphs", JEA 2006). An
    arc a -> b with pos[a] < pos[b] agrees with the order and needs no
    search; any other arc searches only the links placed between b and a.
    """

    def __init__(self, nlinks: int):
        self.succ: list[set[int]] = [set() for _ in range(nlinks)]
        self.pred: list[set[int]] = [set() for _ in range(nlinks)]
        self.pos = list(range(nlinks))

    def add_route(self, links: list[int]) -> bool:
        """Add a route's arcs if the CDG stays acyclic.

        On a cycle the arcs added so far are removed again, which leaves the
        order valid, and False is returned.
        """
        succ, pred, pos = self.succ, self.pred, self.pos
        added = []
        for a, b in zip(links, links[1:]):
            if b in succ[a]:
                continue
            if pos[a] >= pos[b] and not self._reorder(a, b):
                for x, y in added:
                    succ[x].discard(y)
                    pred[y].discard(x)
                return False
            succ[a].add(b)
            pred[b].add(a)
            added.append((a, b))
        return True

    def _reorder(self, a: int, b: int) -> bool:
        """Make room for a -> b against the order; False when b reaches a.

        Only the links that b reaches and that sit before a, and the links
        that reach a and sit after b, can be out of place. They share out
        the positions they held, in their old order, those reaching a first.
        """
        succ, pred, pos = self.succ, self.pred, self.pos
        lo, hi = pos[b], pos[a]
        fwd, stack = {b}, [b]
        while stack:
            u = stack.pop()
            if u == a:
                return False
            for w in succ[u]:
                if w not in fwd and pos[w] <= hi:
                    fwd.add(w)
                    stack.append(w)
        back, stack = {a}, [a]
        while stack:
            for w in pred[stack.pop()]:
                if w not in back and pos[w] > lo:
                    back.add(w)
                    stack.append(w)
        moved = (sorted(back, key=pos.__getitem__)
                 + sorted(fwd, key=pos.__getitem__))
        for link, p in zip(moved, sorted(pos[x] for x in moved)):
            pos[link] = p
        return True


def _topo_order(nodes: set[int], arcs: set[tuple[int, int]]):
    """Kahn's algorithm: (topological order, None) or (None, a link cycle).

    Each link Kahn leaves over has a predecessor among them, so a walk along
    predecessors repeats a link; the walk between the repeats is a cycle.
    """
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
    if len(order) == len(nodes):
        return order, None
    left = nodes.difference(order)
    pred = {b: a for a, b in arcs if a in left and b in left}
    walk = [min(left)]
    while pred[walk[-1]] not in walk:
        walk.append(pred[walk[-1]])
    return None, walk[walk.index(pred[walk[-1]]):][::-1]


def lash_sequential(g: Digraph, routes, max_layers: int = 8) -> LayerAssignment:
    """Greedy layer packing of route key -> node path, longest routes first.

    A key starts with the route's commodity (s, d), for which the route must
    pass ``route_links``; a simple route cannot close a cycle on its own.
    Each route goes to the lowest-indexed layer whose CDG stays acyclic with
    the route's arcs added; a new layer opens when none fits. Raises once
    max_layers is exceeded, naming the offending route. A layer's CDG keeps
    a topological order of its links: an arc that agrees with it is taken
    without a search, any other searches only the links ordered between its
    ends, and a rejected route's arcs are removed again.
    """
    layers: list[_OrderedCdg] = []
    assignment: dict[tuple, int] = {}
    for key in sorted(routes, key=lambda k: (-len(routes[k]), k)):
        links = route_links(g, key[0], key[1], routes[key])
        li = next((i for i, cdg in enumerate(layers) if cdg.add_route(links)),
                  len(layers))
        if li == len(layers):
            if li >= max_layers:
                raise DeadlockError(f"route {key} does not fit within "
                                    f"{max_layers} layers")
            layers.append(_OrderedCdg(g.num_edges))
            layers[li].add_route(links)
        assignment[key] = li
    return LayerAssignment(layers=assignment)


def verify_layers(g: Digraph, routes, assignment: LayerAssignment):
    """Independent recheck of a layer assignment of route key -> node path.

    Rebuilds each layer's CDG from scratch. Returns (True, certificate) with
    a topological link order per layer, or (False, cycle) with the violating
    link cycle. Unassigned routes fail verification. Keys and routes are
    checked as in ``lash_sequential``.
    """
    missing = set(routes) - set(assignment.layers)
    if missing:
        return False, {"unassigned": sorted(missing)}
    per_layer: dict[int, tuple[set[int], set[tuple[int, int]]]] = {}
    for key, li in assignment.layers.items():
        if key in routes:
            links = route_links(g, key[0], key[1], routes[key])
            nodes, arcs = per_layer.setdefault(li, (set(), set()))
            nodes.update(links)
            arcs.update(zip(links, links[1:]))
    certificate = {}
    for li in sorted(per_layer):
        order, cycle = _topo_order(*per_layer[li])
        if cycle is not None:
            return False, {"layer": li, "cycle": cycle}
        certificate[li] = order
    return True, certificate
