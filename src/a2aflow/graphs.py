"""Topology data model, generators, augmentations, metrics and graph file I/O.

Capacities are in link-units: 1.0 = one physical link of bandwidth b.
All generators are pure functions of their arguments (plus seed where present),
and every returned graph is immutable, so instances can be shared freely
across worker processes.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

__all__ = [
    "Digraph",
    "NodeMapping",
    "GraphError",
    "gen_gen_kautz",
    "gen_de_bruijn",
    "gen_torus",
    "gen_hypercube",
    "gen_twisted_hypercube",
    "gen_complete_bipartite",
    "gen_random_regular",
    "gen_shortest_path_expander",
    "puncture",
    "augment_host_bottleneck",
    "hops",
    "diameter",
    "is_strongly_connected",
    "load_graph",
    "save_graph",
]


class GraphError(ValueError):
    """Malformed graph input or an unsatisfiable generator request."""


def _check_edge(n: int, u: int, v: int, c: float) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u},{v}) out of range for n={n}")
    if c < 0:
        raise GraphError(f"negative capacity on edge ({u},{v}): {c}")


@dataclass(frozen=True)
class Digraph:
    """Capacitated directed graph.

    ``edges`` holds (src, dst, capacity) with no duplicate (src, dst) pairs;
    use :meth:`from_edges` to merge parallels and drop zero-capacity edges.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"node count must be >= 1, got {self.n}")
        seen = set()
        for u, v, c in self.edges:
            _check_edge(self.n, u, v, c)
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v}); merge capacities first")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n, edges, meta=None) -> "Digraph":
        merged: dict[tuple[int, int], float] = {}
        for u, v, c in edges:
            _check_edge(n, u, v, c)
            merged[(u, v)] = merged.get((u, v), 0.0) + float(c)
        # self-links carry no traffic; drop them and zero capacities
        clean = tuple(
            (u, v, c) for (u, v), c in sorted(merged.items())
            if c > 0 and u != v
        )
        return cls(n=n, edges=clean, meta=dict(meta or {}))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {(u, v): i for i, (u, v, _) in enumerate(self.edges)}

    @cached_property
    def capacities(self) -> tuple[float, ...]:
        return tuple(c for _, _, c in self.edges)

    @cached_property
    def out_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node: ((neighbor, edge index), ...) sorted by neighbor."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, i))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def in_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v, _) in enumerate(self.edges):
            adj[v].append((u, i))
        return tuple(tuple(sorted(a)) for a in adj)

    def scaled(self, factor: float) -> "Digraph":
        if factor <= 0:
            raise GraphError("scale factor must be positive")
        return Digraph.from_edges(
            self.n, [(u, v, c * factor) for u, v, c in self.edges], self.meta
        )


@dataclass(frozen=True)
class NodeMapping:
    """Original node -> (host, nic_in, nic_out) indices after augmentation."""

    host: tuple[int, ...]
    nic_in: tuple[int, ...]
    nic_out: tuple[int, ...]


# ---------------------------------------------------------------------------
# generators

def gen_gen_kautz(n: int, d: int) -> Digraph:
    """Generalized Kautz digraph: u -> (-d*u - j) mod n for j in 1..d.

    Imase-Itoh construction; covers any (n, d) with d < n and has diameter
    close to ceil(log_d n). Self-loops can arise for some (n, d); they are
    dropped from the edge set and counted in meta.
    """
    if n < 2 or d < 1:
        raise GraphError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    if d >= n:
        raise GraphError(f"degree d={d} must be < n={n}")
    edges = []
    loops = 0
    for u in range(n):
        for j in range(1, d + 1):
            v = (-d * u - j) % n
            if v == u:
                loops += 1
            edges.append((u, v, 1.0))
    return Digraph.from_edges(
        n, edges,
        {"generator": "genkautz", "params": {"n": n, "d": d},
         "self_loops": loops},
    )


def gen_de_bruijn(n: int, d: int) -> Digraph:
    """Generalized de Bruijn digraph: u -> (d*u + j) mod n for j in 0..d-1."""
    if n < 2 or d < 1:
        raise GraphError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
    if d >= n:
        raise GraphError(f"degree d={d} must be < n={n}")
    edges = [(u, (d * u + j) % n, 1.0) for u in range(n) for j in range(d)]
    return Digraph.from_edges(
        n, edges, {"generator": "debruijn", "params": {"n": n, "d": d}}
    )


def gen_torus(dims: list[int], bidirectional: bool = True) -> Digraph:
    """Multi-dimensional torus; each node links to its +-1 neighbors per dim.

    Extent-2 dimensions collapse the +1/-1 neighbor into a single link pair,
    so the graph is 2k-regular only when all extents are >= 3.
    """
    if not dims:
        raise GraphError("empty dims")
    if any(e < 2 for e in dims):
        raise GraphError(f"every extent must be >= 2, got {dims}")
    n, strides = _torus_strides(dims)

    def index(coord):
        return sum(c * s for c, s in zip(coord, strides))

    edges = []
    for u in range(n):
        coord = [(u // strides[i]) % dims[i] for i in range(len(dims))]
        for i, e in enumerate(dims):
            for delta in ((1, -1) if e > 2 else (1,)):
                nb = list(coord)
                nb[i] = (nb[i] + delta) % e
                v = index(nb)
                edges.append((u, v, 1.0))
                if not bidirectional:
                    break
    # from_edges dedupes the extent-2 double link into a single unit edge
    dedup = {(u, v): 1.0 for u, v, _ in edges}
    return Digraph.from_edges(
        n, [(u, v, c) for (u, v), c in dedup.items()],
        {"generator": "torus",
         "params": {"dims": list(dims), "bidirectional": bidirectional}},
    )


def _torus_strides(dims) -> tuple[int, list[int]]:
    """Node count and row-major strides of a torus with extents ``dims``."""
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides[0] * dims[0], strides


def gen_hypercube(k: int) -> Digraph:
    """k-dimensional hypercube, bidirectional unit links."""
    if k < 1:
        raise GraphError("hypercube dimension must be >= 1")
    n = 1 << k
    edges = [(u, u ^ (1 << i), 1.0) for u in range(n) for i in range(k)]
    return Digraph.from_edges(
        n, edges, {"generator": "hypercube", "params": {"k": k}}
    )


def gen_twisted_hypercube(k: int) -> Digraph:
    """Twisted k-cube (0-Mobius-cube wiring).

    Neighbor in dimension i flips bit i when bit i+1 is 0, and flips bits
    0..i when bit i+1 is 1 (the top dimension acts as if bit k were 0).
    Degree k, and shorter diameter than the plain hypercube (2 at k=3).
    """
    if k < 3:
        raise GraphError("twisted hypercube needs k >= 3")
    n = 1 << k
    edges = []
    for u in range(n):
        for i in range(k):
            upper = (u >> (i + 1)) & 1 if i + 1 < k else 0
            if upper == 0:
                v = u ^ (1 << i)
            else:
                v = u ^ ((1 << (i + 1)) - 1)
            edges.append((u, v, 1.0))
    g = Digraph.from_edges(
        n, edges, {"generator": "thypercube", "params": {"k": k}}
    )
    # wiring must stay symmetric for the graph to model full-duplex links
    idx = g.edge_index
    assert all((v, u) in idx for u, v, _ in g.edges)
    return g


def gen_complete_bipartite(n: int) -> Digraph:
    """Complete bipartite digraph on an even n; all cross-part link pairs."""
    if n % 2 != 0:
        raise GraphError(f"complete bipartite needs even n, got {n}")
    if n < 4:
        raise GraphError(f"need n >= 4, got {n}")
    half = n // 2
    edges = []
    for u in range(half):
        for v in range(half, n):
            edges.append((u, v, 1.0))
            edges.append((v, u, 1.0))
    return Digraph.from_edges(
        n, edges, {"generator": "bipartite", "params": {"n": n}}
    )


def gen_random_regular(n: int, d: int, seed: int, max_tries: int = 200) -> Digraph:
    """d-in/d-out-regular digraph as a union of d random derangements.

    Permutations are resampled on fixed points or duplicate (u, v) pairs,
    and the whole graph is resampled if not strongly connected.
    """
    if not (n > d >= 1):
        raise GraphError(f"need n > d >= 1, got n={n}, d={d}")
    rng = random.Random(seed)
    for _ in range(max_tries):
        used: set[tuple[int, int]] = set()
        perms = []
        ok = True
        for _ in range(d):
            perm = _sample_derangement(rng, n, used, max_tries)
            if perm is None:
                ok = False
                break
            perms.append(perm)
            used.update((u, perm[u]) for u in range(n))
        if not ok:
            continue
        edges = [(u, p[u], 1.0) for p in perms for u in range(n)]
        g = Digraph.from_edges(
            n, edges,
            {"generator": "rrg", "params": {"n": n, "d": d}, "seed": seed},
        )
        if is_strongly_connected(g):
            return g
    raise GraphError(
        f"failed to build a strongly connected {d}-regular digraph on "
        f"{n} nodes after {max_tries} tries (seed={seed})"
    )


def _sample_derangement(rng, n, used, max_tries):
    for _ in range(max_tries):
        perm = list(range(n))
        rng.shuffle(perm)
        if all(perm[u] != u and (u, perm[u]) not in used for u in range(n)):
            return perm
    return None


def gen_shortest_path_expander(
    n: int, d: int, seed: int, eps: float = 1e-6, max_tries: int = 20
) -> Digraph:
    """Grow a d-regular expander by iteratively laying down shortest paths.

    Start from the complete weighted digraph at weight eps; route each of the
    N(N-1) commodities (shuffled per seed) along a current-weight shortest
    path and increment traversed link weights by 1. Once a node has d laid
    out-links its remaining eps-weight out-links are deleted, so later paths
    must reuse laid links. Surviving laid links form the topology; nodes
    short of degree d are topped up from their surviving eps links.
    """
    if not (n > d >= 2):
        raise GraphError(f"need n > d >= 2, got n={n}, d={d}")
    if eps <= 0:
        raise GraphError("eps must be positive")
    rng = random.Random(seed)
    commodities = [(s, t) for s in range(n) for t in range(n) if s != t]
    for attempt in range(max_tries):
        weight = {(u, v): eps for u in range(n) for v in range(n) if u != v}
        alive = {u: set(v for v in range(n) if v != u) for u in range(n)}
        laid_out = {u: set() for u in range(n)}
        order = list(commodities)
        rng.shuffle(order)
        for s, t in order:
            path = _dijkstra_path(n, alive, weight, s, t)
            if path is None:
                break
            for a, b in zip(path, path[1:]):
                if b not in laid_out[a]:
                    laid_out[a].add(b)
                    if len(laid_out[a]) >= d:
                        alive[a] = set(laid_out[a])
                weight[(a, b)] += 1.0
        else:
            for u in range(n):
                if len(laid_out[u]) < d:
                    extra = sorted(alive[u] - laid_out[u])
                    laid_out[u].update(extra[: d - len(laid_out[u])])
            if all(len(laid_out[u]) == d for u in range(n)):
                g = Digraph.from_edges(
                    n,
                    [(u, v, 1.0) for u in range(n) for v in sorted(laid_out[u])],
                    {"generator": "spx",
                     "params": {"n": n, "d": d, "eps": eps}, "seed": seed},
                )
                if is_strongly_connected(g):
                    return g
    raise GraphError(
        f"shortest-path expander construction failed for n={n}, d={d} "
        f"after {max_tries} commodity orders (seed={seed})"
    )


def _dijkstra_path(n, alive, weight, s, t):
    import heapq

    dist = {s: 0.0}
    prev = {}
    heap = [(0.0, s)]
    done = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == t:
            break
        for v in alive[u]:
            nd = du + weight[(u, v)]
            if v not in dist or nd < dist[v] - 1e-15:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if t not in done:
        return None
    path = [t]
    while path[-1] != s:
        path.append(prev[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# transforms

def puncture(g: Digraph, mode: str, count: int, seed: int,
             max_tries: int = 100) -> Digraph:
    """Remove random link pairs or nodes, keeping the graph strongly connected.

    Edge mode removes `count` bidirectional link pairs; node mode removes
    `count` nodes (renumbering compactly). Resamples up to `max_tries` times
    until the result is strongly connected.
    """
    if mode not in ("edges", "nodes"):
        raise GraphError(f"unknown puncture mode {mode!r}")
    if count == 0:
        return g
    rng = random.Random(seed)
    idx = g.edge_index
    pairs = sorted(
        {tuple(sorted((u, v))) for u, v, _ in g.edges if (v, u) in idx and u != v}
    )
    for _ in range(max_tries):
        if mode == "edges":
            if count > len(pairs):
                raise GraphError("not enough bidirectional link pairs to remove")
            removed = set(rng.sample(pairs, count))
            drop = {(a, b) for a, b in removed} | {(b, a) for a, b in removed}
            n = g.n
            edges = [(u, v, c) for u, v, c in g.edges if (u, v) not in drop]
        else:
            if count >= g.n:
                raise GraphError("cannot remove all nodes")
            gone = set(rng.sample(range(g.n), count))
            remap = {}
            for u in range(g.n):
                if u not in gone:
                    remap[u] = len(remap)
            n = g.n - count
            edges = [
                (remap[u], remap[v], c)
                for u, v, c in g.edges
                if u not in gone and v not in gone
            ]
        cand = Digraph.from_edges(
            n, edges,
            {**g.meta, "punctured": {"mode": mode, "count": count,
                                     "seed": seed}},
        )
        if is_strongly_connected(cand):
            return cand
    raise GraphError(
        f"no strongly connected {mode} puncturing found in {max_tries} tries"
    )


def augment_host_bottleneck(
    g: Digraph, host_capacity: float
) -> tuple[Digraph, NodeMapping]:
    """Split each node into (host, nic_in, nic_out) to model the host link.

    Each original node v becomes host h_v with edges nic_in_v -> h_v and
    h_v -> nic_out_v of capacity `host_capacity`; every original edge (u, v)
    becomes nic_out_u -> nic_in_v. All traffic, including forwarded traffic,
    is forced through the host edges. Downstream MCF commodities should be
    restricted to host nodes via the returned mapping.
    """
    if host_capacity <= 0:
        raise GraphError("host_capacity must be positive")
    if g.n < 2:
        raise GraphError("augmentation needs at least 2 nodes")
    host = tuple(3 * v for v in range(g.n))
    nic_in = tuple(3 * v + 1 for v in range(g.n))
    nic_out = tuple(3 * v + 2 for v in range(g.n))
    edges = []
    for v in range(g.n):
        edges.append((nic_in[v], host[v], float(host_capacity)))
        edges.append((host[v], nic_out[v], float(host_capacity)))
    for u, v, c in g.edges:
        edges.append((nic_out[u], nic_in[v], c))
    aug = Digraph.from_edges(
        3 * g.n, edges,
        {**g.meta, "host_bottleneck": {"capacity": host_capacity}},
    )
    return aug, NodeMapping(host=host, nic_in=nic_in, nic_out=nic_out)


# ---------------------------------------------------------------------------
# metrics

def _node_edge_templates(g: Digraph):
    """Per-edge (tail, head) node arrays, for sparse incidence and adjacency."""
    import numpy as np

    tails = np.fromiter((u for u, _, _ in g.edges), dtype=np.int64, count=g.num_edges)
    heads = np.fromiter((v for _, v, _ in g.edges), dtype=np.int64, count=g.num_edges)
    return tails, heads


def _adjacency(g: Digraph):
    """(N, N) CSR matrix with a 1 at (u, v) for each edge u -> v."""
    import numpy as np
    import scipy.sparse as sp

    return sp.csr_matrix((np.ones(g.num_edges), _node_edge_templates(g)),
                         shape=(g.n, g.n))


def hops(g: Digraph, roots=None):
    """(K, N) hop counts from each of ``roots`` (all N nodes when None);
    inf where unreachable."""
    from scipy.sparse.csgraph import shortest_path

    return shortest_path(_adjacency(g), directed=True, unweighted=True,
                         indices=roots)


def _strong_hops(g: Digraph):
    """``hops(g)``; GraphError naming the first unreachable pair."""
    import numpy as np

    dist = hops(g)
    unreachable = np.argwhere(np.isinf(dist))
    if unreachable.size:
        s, t = unreachable[0].tolist()
        raise GraphError(f"graph is not strongly connected: "
                         f"{t} unreachable from {s}")
    return dist


def diameter(g: Digraph) -> int:
    return int(_strong_hops(g).max())


def is_strongly_connected(g: Digraph) -> bool:
    from scipy.sparse.csgraph import connected_components

    return connected_components(_adjacency(g), connection="strong",
                                return_labels=False) == 1


# ---------------------------------------------------------------------------
# file I/O

def _cap_to_str(c: float) -> str:
    f = Fraction(c).limit_denominator(10**9)
    if float(f) == c:
        return str(f)
    return repr(c)


def _cap_from_str(s) -> float:
    if isinstance(s, (int, float)):
        return float(s)
    return float(Fraction(s))


def _read_json(path: str, error: type[Exception]):
    """The JSON document in `path`; other text raises `error`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: not valid JSON: {exc}") from exc


def _write_json(path: str, doc, indent: int | None = None) -> None:
    """Write ``doc`` to ``path`` as JSON plus a newline, in one write;
    ``json.dumps`` encodes in C when ``indent`` is None."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=indent) + "\n")


def _json_field(path: str, doc, key: str, parse, error: type[Exception]):
    """parse(doc[key]); a missing field, or a record that parse cannot
    read, raises `error` naming the file and the field."""
    try:
        return parse(doc[key])
    except (KeyError, IndexError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise error(f"{path}: bad or missing field {key!r}: {exc!r}") from exc


def save_graph(g: Digraph, path: str) -> None:
    doc = {
        "n": g.n,
        "directed": True,
        "edges": [[u, v, _cap_to_str(c)] for u, v, c in g.edges],
        "meta": g.meta,
    }
    _write_json(path, doc, indent=1)


def load_graph(path: str) -> Digraph:
    """Inverse of save_graph. Text that is not JSON, a missing field, a
    malformed edge record or an edge ``Digraph`` rejects raises GraphError
    naming the file."""
    doc = _read_json(path, GraphError)
    n = _json_field(path, doc, "n", int, GraphError)
    edges = _json_field(path, doc, "edges", lambda es: [
        (int(u), int(v), _cap_from_str(c)) for u, v, c in es], GraphError)
    try:
        return Digraph.from_edges(n, edges, doc.get("meta", {}))
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc
