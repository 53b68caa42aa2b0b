"""Lower flow solutions to executable chunked schedules.

Two lowerings: time-stepped solutions become per-step link sends on the
time-expanded graph, and weighted path sets become chunk-to-route
assignments. Both quantize fractional rates into integer chunk counts at one
shared Q by the same rule (``_chunk_counts``) and serialize to a small XML
dialect.
"""
from __future__ import annotations

import math
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Digraph
from .mcf import _peel

__all__ = [
    "Chunking",
    "ChunkedSchedule",
    "Instruction",
    "ScheduleError",
    "quantize_flows",
    "compile_timestep_schedule",
    "compile_path_schedule",
    "emit_schedule_xml",
    "parse_schedule_xml",
]

DEFAULT_Q_MAX = 1024


class ScheduleError(RuntimeError):
    pass


@dataclass(frozen=True)
class Chunking:
    """Integer chunk counts approximating fractional rates at denominator Q."""

    Q: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.Q < 1 or any(c < 0 for c in self.counts):
            raise ScheduleError("invalid chunking")


@dataclass(frozen=True)
class Instruction:
    """One send: chunks [c0, c1) of shard (s, d) cross src->dst at step t.

    In path mode `dst` holds a route id instead of a next-hop node and t is 0.
    """

    t: int
    src: int
    dst: int
    s: int
    d: int
    c0: int
    c1: int


@dataclass
class ChunkedSchedule:
    n: int
    nsteps: int
    chunk_bytes: float
    Q: int
    mode: str                       # "ts" or "path"
    instructions: list[Instruction] = field(default_factory=list)


def quantize_flows(rates, q_max: int = DEFAULT_Q_MAX) -> Chunking:
    """Integer chunk counts for rates that sum to 1.

    Uses the exact common denominator when the rates are rationals whose LCM
    of denominators fits in q_max; otherwise rounds at Q = q_max and repairs
    the total with largest-remainder adjustments. A positive rate never gets
    0 chunks: it is bumped to 1 (with a warning) and the excess is taken from
    the largest counts.
    """
    rates = list(rates)
    if not rates:
        raise ScheduleError("no rates to quantize")
    if any(r <= 0 or r > 1 + 1e-12 for r in rates):
        raise ScheduleError(f"rates must lie in (0, 1]: {rates}")
    if q_max < 1:
        raise ScheduleError("q_max must be >= 1")
    fracs = [Fraction(r).limit_denominator(q_max) for r in rates]
    if all(abs(float(f) - r) <= 1e-9 for f, r in zip(fracs, rates)):
        Q = math.lcm(*(f.denominator for f in fracs))
        if Q <= q_max:
            counts = [int(f * Q) for f in fracs]
            if sum(counts) == Q:
                return Chunking(Q=Q, counts=tuple(counts))
    return Chunking(Q=q_max, counts=_counts_at(rates, q_max))


def _counts_at(rates, Q: int) -> tuple[int, ...]:
    """Integer counts summing to Q, largest-remainder rounded, none zero."""
    exact = [r * Q for r in rates]
    counts = [int(round(e)) if abs(e - round(e)) <= 1e-9 else int(e)
              for e in exact]
    short = Q - sum(counts)
    order = sorted(range(len(rates)), key=lambda i: exact[i] - counts[i],
                   reverse=short > 0)
    step = 1 if short > 0 else -1
    for i in order[:abs(short)]:
        counts[i] += step
    bumped = [i for i, c in enumerate(counts) if c == 0]
    if bumped:
        warnings.warn(
            f"{len(bumped)} rate(s) quantized to 0 chunks at Q={Q}; "
            "bumping to 1", stacklevel=3
        )
        for i in bumped:
            counts[i] = 1
            j = max(range(len(counts)), key=lambda k: counts[k])
            counts[j] -= 1
    if min(counts) < 1 or sum(counts) != Q:
        raise ScheduleError("quantization repair failed; increase q_max")
    return tuple(counts)


def _chunk_counts(weight_lists, q_max: int):
    """One Q for all commodities, and each commodity's chunk counts at Q.

    Each commodity's nonzero weights (which sum to 1) are quantized on their
    own by ``quantize_flows``; Q is the LCM of the results, capped at q_max,
    and a commodity whose own Q differs is recounted at Q by largest
    remainder. Zero weights get 0 chunks; negative ones raise ScheduleError.
    Returns (Q, one count tuple per weight list).
    """
    rates = [[w for w in ws if w != 0] for ws in weight_lists]
    chunkings = [quantize_flows(r, q_max) for r in rates]
    Q = min(math.lcm(*(c.Q for c in chunkings)), q_max)
    out = []
    for ws, r, c in zip(weight_lists, rates, chunkings):
        counts = iter(c.counts if c.Q == Q else _counts_at(r, Q))
        out.append(tuple(next(counts) if w else 0 for w in ws))
    return Q, out


# ---------------------------------------------------------------------------
# time-stepped lowering

def _decompose_trajectories(g: Digraph, com, flow: dict, T: int):
    """Split one commodity's time-expanded flow into weighted trajectories.

    ``flow`` maps (edge, step) -> rate for commodity ``com`` over steps
    0..T-1. It is rebuilt as a flow on the commodity's time-expanded DAG,
    the dynamic-flow model ``mcf_timestepped`` solves: a transport arc
    (u, t) -> (v, t+1) per flow entry, and a holdover arc (u, k) -> (u, k+1)
    carrying what u holds after step k, with the source holding the demand
    at step 0. The (s, 0) -> (d, T) paths of that flow are peeled with the
    shared ``_peel``; a trajectory is the list of (t, edge) transport hops
    of one path. Raises ScheduleError when the flow cannot be scheduled: a
    node sends more than it holds, flow leaves the destination, a hop lies
    outside steps 0..T-1, or after step T anything other than the demand at
    the destination is held.
    """
    tol = 1e-9
    N, s, d = g.n, com.src, com.dst
    # transport arcs are numbered before holdovers, so the peel's BFS
    # prefers sending to waiting and finds earliest-departure trajectories
    hops = sorted((t, e) for e, t in flow)
    m = len(hops)
    tails = [t * N + g.edges[e][0] for t, e in hops]
    heads = [(t + 1) * N + g.edges[e][1] for t, e in hops]
    x = {a: flow[(e, t)] for a, (t, e) in enumerate(hops)}
    held = {s: com.demand}
    a = 0
    for k in range(T):
        received: dict[int, float] = {}
        while a < m and hops[a][0] == k:
            u, v = tails[a] - k * N, heads[a] - (k + 1) * N
            if u == d:
                raise ScheduleError(
                    f"commodity ({s},{d}) sends flow out of its destination")
            held[u] = held.get(u, 0.0) - x[a]
            received[v] = received.get(v, 0.0) + x[a]
            a += 1
        for u, h in held.items():
            if h < -tol:
                raise ScheduleError(
                    f"commodity ({s},{d}): node {u} sends {-h:.3g} more than "
                    f"it holds at step {k}")
            if h > 0.0:
                x[len(tails)] = h
                tails.append(k * N + u)
                heads.append((k + 1) * N + u)
        for v, r in received.items():
            held[v] = held.get(v, 0.0) + r
    if a < m:
        raise ScheduleError(
            f"commodity ({s},{d}) sends at a step outside [0, {T})")
    if abs(held.pop(d, 0.0) - com.demand) > tol or any(
            abs(h) > tol for h in held.values()):
        raise ScheduleError(
            f"commodity ({s},{d}) does not end with exactly its demand "
            "at the destination")
    (paths,) = _peel(tails, heads, x, s, [(T * N + d, com.demand)])
    return [([hops[a] for a in arcs if a < m], w) for arcs, w in paths]


def compile_timestep_schedule(
    g: Digraph,
    ts,
    m: float = 1.0,
    q_max: int = DEFAULT_Q_MAX,
) -> ChunkedSchedule:
    """Chunked per-step link schedule from a TimeExpandedSolution.

    Each commodity's flow is decomposed into trajectories, trajectory weights
    are quantized to chunks of m/Q bytes by the rule the path lowering uses
    (``_chunk_counts``), and every chunk follows its trajectory hop by hop
    (buffering between hops). Delivery of all shards is then structural;
    quantization affects only per-step link volumes. Every commodity must
    have unit demand: its shard is the m bytes it sends.
    """
    by_comm: dict[int, dict] = {}
    for (ci, e, t), v in ts.flows.items():
        by_comm.setdefault(ci, {})[(e, t)] = v
    trajs = []
    for ci, com in enumerate(ts.commodities):
        if com.demand != 1.0:
            raise ScheduleError(
                f"commodity ({com.src},{com.dst}) has demand {com.demand}; "
                "time-stepped schedules need unit demands")
        trajs.append(_decompose_trajectories(g, com, by_comm.get(ci, {}),
                                             ts.l_max))
    Q, counts = _chunk_counts([[w for _, w in tr] for tr in trajs], q_max)
    sched = ChunkedSchedule(n=g.n, nsteps=ts.l_max, chunk_bytes=m / Q, Q=Q,
                            mode="ts")
    for com, tr, cnts in zip(ts.commodities, trajs, counts):
        off = 0
        for (hops, _), cnt in zip(tr, cnts):
            if cnt == 0:
                continue
            for (t, e) in hops:
                u, v, _ = g.edges[e]
                sched.instructions.append(
                    Instruction(t=t, src=u, dst=v, s=com.src, d=com.dst,
                                c0=off, c1=off + cnt))
            off += cnt
        if off != Q:
            raise ScheduleError("chunk accounting error in ts lowering")
    sched.instructions.sort(key=lambda i: (i.t, i.src, i.dst, i.s, i.d, i.c0))
    return sched


# ---------------------------------------------------------------------------
# path lowering

def compile_path_schedule(
    g: Digraph,
    wps,
    m: float = 1.0,
    q_max: int = DEFAULT_Q_MAX,
):
    """Chunk-to-route assignment for a weighted path set.

    Path weights are normalized per commodity and quantized by the rule the
    time-stepped lowering uses (``_chunk_counts``): Q is the LCM of the
    commodities' own denominators, capped at q_max, with largest-remainder
    counts where a commodity's own Q differs. A path of weight 0 gets no
    chunks and no instruction. Returns (route list, ChunkedSchedule) where
    instruction.dst indexes the route list.
    """
    items = sorted(wps.paths.items())
    weights = []
    for (s, d), plist in items:
        if not plist:
            raise ScheduleError(f"commodity ({s},{d}) has no paths")
        tot = sum(w for _, w in plist)
        if tot <= 0:
            raise ScheduleError(f"commodity ({s},{d}) has zero total weight")
        weights.append([w / tot for _, w in plist])
    Q, counts = _chunk_counts(weights, q_max)

    routes = []
    sched = ChunkedSchedule(n=g.n, nsteps=1, chunk_bytes=m / Q, Q=Q,
                            mode="path")
    for ((s, d), plist), cnts in zip(items, counts):
        off = 0
        for (path, _), cnt in zip(plist, cnts):
            rid = len(routes)
            routes.append({"s": s, "d": d, "nodes": list(path)})
            if cnt:
                sched.instructions.append(
                    Instruction(t=0, src=s, dst=rid, s=s, d=d,
                                c0=off, c1=off + cnt))
            off += cnt
        if off != Q:
            raise ScheduleError("chunk accounting error in path lowering")
    return routes, sched


# ---------------------------------------------------------------------------
# XML dialect

def emit_schedule_xml(sched: ChunkedSchedule, path: str) -> None:
    root = ET.Element("schedule", {
        "n": str(sched.n),
        "nsteps": str(sched.nsteps),
        "chunkbytes": repr(sched.chunk_bytes),
        "q": str(sched.Q),
        "mode": sched.mode,
    })
    steps: dict[int, ET.Element] = {}
    for ins in sched.instructions:
        el = steps.get(ins.t)
        if el is None:
            el = ET.SubElement(root, "step", {"t": str(ins.t)})
            steps[ins.t] = el
        ET.SubElement(el, "send", {
            "src": str(ins.src), "dst": str(ins.dst),
            "s": str(ins.s), "d": str(ins.d),
            "c0": str(ins.c0), "c1": str(ins.c1),
        })
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)


def _req(el, attr, line=""):
    v = el.get(attr)
    if v is None:
        raise ScheduleError(f"missing attribute {attr!r} on <{el.tag}>{line}")
    return v


def parse_schedule_xml(path: str) -> ChunkedSchedule:
    try:
        tree = ET.parse(path)
    except ET.ParseError as ex:
        raise ScheduleError(f"malformed XML: {ex}") from ex
    root = tree.getroot()
    if root.tag != "schedule":
        raise ScheduleError(f"root element is <{root.tag}>, not <schedule>")
    sched = ChunkedSchedule(
        n=int(_req(root, "n")),
        nsteps=int(_req(root, "nsteps")),
        chunk_bytes=float(_req(root, "chunkbytes")),
        Q=int(_req(root, "q")),
        mode=_req(root, "mode"),
    )
    if sched.mode not in ("ts", "path"):
        raise ScheduleError(f"unknown mode {sched.mode!r}")
    for step in root:
        if step.tag != "step":
            raise ScheduleError(f"unexpected element <{step.tag}>")
        t = int(_req(step, "t"))
        if not 0 <= t < sched.nsteps:
            raise ScheduleError(f"step t={t} outside [0, {sched.nsteps})")
        for send in step:
            if send.tag != "send":
                raise ScheduleError(f"unexpected element <{send.tag}>")
            ins = Instruction(
                t=t,
                src=int(_req(send, "src")), dst=int(_req(send, "dst")),
                s=int(_req(send, "s")), d=int(_req(send, "d")),
                c0=int(_req(send, "c0")), c1=int(_req(send, "c1")),
            )
            if not (0 <= ins.c0 < ins.c1 <= sched.Q):
                raise ScheduleError(f"bad chunk range [{ins.c0},{ins.c1})")
            sched.instructions.append(ins)
    return sched
