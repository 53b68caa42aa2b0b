"""Lower flow solutions to executable chunked schedules.

Two lowerings: time-stepped solutions become per-step link sends on the
time-expanded graph, and weighted path sets become chunk-to-route
assignments. Both quantize fractional rates into integer chunk counts at one
shared Q by the same rule (``_chunk_counts``, which quantizes each distinct
weight list once) and serialize to a small XML dialect, written line by line
and read back with ElementTree. `a2a compile` writes the XML of time-stepped
schedules only; it writes a path schedule as a route file of chunk counts.
"""
from __future__ import annotations

import math
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Digraph
from .mcf import TimeExpandedSolution
from .paths import _total_weight, route_links

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

    Each distinct tuple of nonzero weights (which sum to 1) is quantized
    once by ``quantize_flows``; Q is the LCM of the results, capped at q_max,
    and a tuple whose own Q differs is recounted once at Q by largest
    remainder. Commodities with the same nonzero weights share the counts,
    so a bump warning comes once per distinct weight list, not once per
    commodity. Zero weights get 0 chunks; negative ones raise ScheduleError.
    Returns (Q, one count tuple per weight list).
    """
    rates = [tuple(w for w in ws if w != 0) for ws in weight_lists]
    chunkings = {r: quantize_flows(r, q_max) for r in dict.fromkeys(rates)}
    Q = min(math.lcm(*(c.Q for c in chunkings.values())), q_max)
    at_q = {r: c.counts if c.Q == Q else _counts_at(r, Q)
            for r, c in chunkings.items()}
    out = []
    for ws, r in zip(weight_lists, rates):
        counts = iter(at_q[r])
        out.append(tuple(next(counts) if w else 0 for w in ws))
    return Q, out


# ---------------------------------------------------------------------------
# time-stepped lowering

def compile_timestep_schedule(
    g: Digraph,
    ts: TimeExpandedSolution,
    m: float = 1.0,
    q_max: int = DEFAULT_Q_MAX,
) -> ChunkedSchedule:
    """Chunked per-step link schedule from a TimeExpandedSolution.

    Each commodity's trajectories, as its solver peeled them, have their
    weights quantized to chunks of m/Q bytes by the rule the path lowering
    uses (``_chunk_counts``), and every chunk follows its trajectory hop by
    hop (buffering between hops). Delivery of all shards is then structural;
    quantization affects only per-step link volumes. Every commodity must
    have unit demand: its shard is the m bytes it sends.
    """
    for com in ts.commodities:
        if com.demand != 1.0:
            raise ScheduleError(
                f"commodity ({com.src},{com.dst}) has demand {com.demand}; "
                "time-stepped schedules need unit demands")
    trajs = ts.trajectories
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
    chunks and no instruction. Every path must pass ``route_links`` and
    every commodity needs paths of positive total weight (RouteError). Returns
    (route list, ChunkedSchedule) where instruction.dst indexes the list.
    """
    items = sorted(wps.paths.items())
    weights = []
    for (s, d), plist in items:
        tot = _total_weight(s, d, plist)
        for path, _ in plist:
            route_links(g, s, d, path)
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
    """Write the schedule as XML, one <step> per t in first-seen order.

    The lines are written directly, two spaces per level, in the layout
    ElementTree's ``indent`` and ``write`` give. Every attribute is an
    integer, a float repr or the mode, which must be "ts" or "path", so
    nothing needs escaping.
    """
    if sched.mode not in ("ts", "path"):
        raise ScheduleError(f"unknown mode {sched.mode!r}")
    steps: dict[int, list[str]] = {}
    for i in sched.instructions:
        steps.setdefault(i.t, []).append(
            f'    <send src="{i.src}" dst="{i.dst}" s="{i.s}" d="{i.d}" '
            f'c0="{i.c0}" c1="{i.c1}" />')
    head = (f'<schedule n="{sched.n}" nsteps="{sched.nsteps}" '
            f'chunkbytes="{sched.chunk_bytes!r}" q="{sched.Q}" '
            f'mode="{sched.mode}"')
    lines = ["<?xml version='1.0' encoding='utf-8'?>"]
    if steps:
        lines.append(head + ">")
        for t, sends in steps.items():
            lines.append(f'  <step t="{t}">')
            lines.extend(sends)
            lines.append("  </step>")
        lines.append("</schedule>")
    else:
        lines.append(head + " />")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _req(el, attr, conv=str):
    v = el.get(attr)
    if v is None:
        raise ScheduleError(f"missing attribute {attr!r} on <{el.tag}>")
    try:
        return conv(v)
    except ValueError:
        raise ScheduleError(f"attribute {attr}={v!r} on <{el.tag}> is not "
                            f"{conv.__name__}") from None


def parse_schedule_xml(path: str) -> ChunkedSchedule:
    try:
        tree = ET.parse(path)
    except ET.ParseError as ex:
        raise ScheduleError(f"malformed XML: {ex}") from ex
    root = tree.getroot()
    if root.tag != "schedule":
        raise ScheduleError(f"root element is <{root.tag}>, not <schedule>")
    sched = ChunkedSchedule(
        n=_req(root, "n", int),
        nsteps=_req(root, "nsteps", int),
        chunk_bytes=_req(root, "chunkbytes", float),
        Q=_req(root, "q", int),
        mode=_req(root, "mode"),
    )
    if sched.mode not in ("ts", "path"):
        raise ScheduleError(f"unknown mode {sched.mode!r}")
    for step in root:
        if step.tag != "step":
            raise ScheduleError(f"unexpected element <{step.tag}>")
        t = _req(step, "t", int)
        if not 0 <= t < sched.nsteps:
            raise ScheduleError(f"step t={t} outside [0, {sched.nsteps})")
        for send in step:
            if send.tag != "send":
                raise ScheduleError(f"unexpected element <{send.tag}>")
            ins = Instruction(
                t=t,
                src=_req(send, "src", int), dst=_req(send, "dst", int),
                s=_req(send, "s", int), d=_req(send, "d", int),
                c0=_req(send, "c0", int), c1=_req(send, "c1", int),
            )
            if not (0 <= ins.c0 < ins.c1 <= sched.Q):
                raise ScheduleError(f"bad chunk range [{ins.c0},{ins.c1})")
            sched.instructions.append(ins)
    return sched
