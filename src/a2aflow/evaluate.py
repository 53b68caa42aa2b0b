"""Evaluate schedules, path sets, and topologies.

Replay uses a store-and-forward step model for link schedules and a
cut-through fluid model for path schedules. Topology comparison, the one
solver sweep, reports each algorithm's all-to-all time and runtime against
the analytical lower bound.
"""
from __future__ import annotations

import bisect
import time
from collections import defaultdict
from dataclasses import dataclass, field

from . import domain_errors
from .bounds import alltoall_time_lower_bound, graph_distance_bound
from .graphs import Digraph

__all__ = [
    "EvalError",
    "EvalReport",
    "replay_timestep_schedule",
    "eval_path_alltoall",
    "compare_topologies",
    "ALGOS",
]

# the algorithms compare_topologies runs (``_solve_time``); each has the name
# `a2a solve --algo` gives it
ALGOS = ("decomp", "link", "path", "sssp", "ilp")


class EvalError(RuntimeError):
    pass


@dataclass
class EvalReport:
    label: str
    n: int
    algo: str
    alltoall_time: float            # 1/F equivalent, in units of m/b
    lower_bound: float
    ratio: float
    runtime_s: float
    F: float | None = None
    extra: dict = field(default_factory=dict)

    def throughput(self, m: float, b: float) -> float:
        return (self.n - 1) * m / (self.alltoall_time * m / b)

    def as_dict(self) -> dict:
        return {"label": self.label, "n": self.n, "algo": self.algo,
                "alltoall_time": self.alltoall_time,
                "lower_bound": self.lower_bound, "ratio": self.ratio,
                "runtime_s": self.runtime_s, "F": self.F, **self.extra}


def _add_range(bounds: list[int], c0: int, c1: int) -> None:
    """Merge [c0, c1) into ``bounds``, the flattened ends of sorted, disjoint
    half-open intervals [b0, b1), [b2, b3), ...; touching intervals join."""
    lo = bisect.bisect_left(bounds, c0)
    hi = bisect.bisect_right(bounds, c1)
    bounds[lo:hi] = ([c0] if lo % 2 == 0 else []) + ([c1] if hi % 2 == 0 else [])


def _first_missing(bounds: list[int], c0: int, c1: int) -> int | None:
    """First chunk of [c0, c1) outside the intervals in ``bounds``."""
    i = bisect.bisect_right(bounds, c0)
    if i % 2 == 0:
        return c0
    return bounds[i] if bounds[i] < c1 else None


def replay_timestep_schedule(
    g: Digraph,
    sched,
    b: float = 1.0,
    sync_latency: float = 0.0,
) -> tuple[float, bool]:
    """Simulate a link schedule; returns (completion time, delivered).

    Store-and-forward: a step costs max over links of bytes/(cap*b), plus
    sync_latency, where a chunk is the schedule's own ``chunk_bytes``.
    Verifies that every chunk sent is present at its source at the start of
    the step and that each shard arrives at its destination exactly once.
    Holdings are tracked as chunk intervals per (node, shard); a shard's
    source holds all of [0, Q).
    """
    if sched.mode != "ts":
        raise EvalError("replay_timestep_schedule expects a ts-mode schedule")
    if g.n != sched.n:
        raise EvalError(f"graph has {g.n} nodes, schedule says {sched.n}")
    chunk_bytes = sched.chunk_bytes
    holdings: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    arrivals: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    by_step = defaultdict(list)
    for ins in sched.instructions:
        by_step[ins.t].append(ins)
    eidx = g.edge_index
    T = 0.0
    for t in range(sched.nsteps):
        link_bytes = defaultdict(float)
        incoming = []
        for ins in by_step.get(t, ()):
            if (ins.src, ins.dst) not in eidx:
                raise EvalError(f"step {t}: no link {ins.src}->{ins.dst}")
            have = ([0, sched.Q] if ins.src == ins.s != ins.d
                    else holdings[(ins.src, ins.s, ins.d)])
            missing = _first_missing(have, ins.c0, ins.c1)
            if missing is not None:
                raise EvalError(
                    f"step {t}: node {ins.src} sends chunk {missing} of "
                    f"shard ({ins.s},{ins.d}) it does not hold"
                )
            link_bytes[(ins.src, ins.dst)] += (ins.c1 - ins.c0) * chunk_bytes
            incoming.append(ins)
        step_time = 0.0
        for (u, v), bts in link_bytes.items():
            cap = g.capacities[eidx[(u, v)]]
            step_time = max(step_time, bts / (cap * b))
        T += step_time + sync_latency
        for ins in incoming:
            _add_range(holdings[(ins.dst, ins.s, ins.d)], ins.c0, ins.c1)
            if ins.dst == ins.d:
                arrivals[(ins.s, ins.d)].append((ins.c0, ins.c1))
    # transpose check: the arrivals of every shard tile [0, Q) exactly
    for s in range(g.n):
        for d in range(g.n):
            if s == d:
                continue
            end = 0
            for c0, c1 in sorted(arrivals.get((s, d), ())):
                if c0 < end:
                    raise EvalError(
                        f"shard ({s},{d}) chunk {c0} delivered more than once")
                if c0 > end:
                    break
                end = c1
            if end < sched.Q:
                raise EvalError(f"shard ({s},{d}) chunk {end} never delivered")
    return T, True


def eval_path_alltoall(g: Digraph, wps, m: float = 1.0,
                       b: float = 1.0) -> float:
    """Completion time of a path schedule in the cut-through fluid model."""
    from .paths import eval_link_load

    max_load, _ = eval_link_load(g, wps)
    return max_load * m / b


def _solve_time(g: Digraph, algo: str) -> tuple[float, float | None, dict]:
    """(alltoall time 1/F or max load, F or None, extra report fields) for
    one algorithm; the MCF solvers add their certified gap, how many LP
    solves it took and the column count HiGHS solved."""
    from .mcf import mcf_link, mcf_path, solve_master
    from .paths import (disjoint_paths, eval_link_load, ilp_min_congestion,
                        sssp_routes)

    if algo in ("decomp", "link"):
        sol = (solve_master(g, want_flows=False) if algo == "decomp"
               else mcf_link(g))
        return 1.0 / sol.F, sol.F, {"gap": sol.gap,
                                    "lp_solves": sol.lp_solves,
                                    "lp_vars": sol.lp_vars}
    if algo == "path":
        F, _ = mcf_path(g, disjoint_paths(g))
        return 1.0 / F, F, {}
    if algo == "sssp":
        load, _ = eval_link_load(g, sssp_routes(g))
        return load, None, {}
    if algo == "ilp":
        _, load, _ = ilp_min_congestion(g, disjoint_paths(g), alpha=0.1)
        return load, None, {}
    raise EvalError(f"unknown algorithm {algo!r}")


def compare_topologies(
    entries: list[tuple[str, Digraph]],
    d: int,
    algo: str = "decomp",
) -> list[EvalReport]:
    """All-to-all time and bound ratio per labelled topology; the MCF
    algorithms add the certified gap of F, the number of LP solves behind
    it (0 when the even shortest-path split certified F) and the column count
    HiGHS solved (``lp_vars``, 0 with no LP) to ``extra``.

    A topology the solver rejects (one of the package's errors) is
    recorded as a report with NaN times rather than aborting the sweep; any
    other exception is a bug and propagates.
    """
    reports = []
    for label, g in entries:
        t0 = time.perf_counter()
        try:
            tval, F, extra = _solve_time(g, algo)
        except domain_errors() as ex:
            reports.append(EvalReport(label=label, n=g.n, algo=algo,
                                      alltoall_time=float("nan"),
                                      lower_bound=float("nan"),
                                      ratio=float("nan"),
                                      runtime_s=time.perf_counter() - t0,
                                      extra={"error": str(ex)}))
            continue
        lb = max(alltoall_time_lower_bound(d, g.n), graph_distance_bound(g))
        reports.append(EvalReport(
            label=label, n=g.n, algo=algo, alltoall_time=tval,
            lower_bound=lb, ratio=tval / lb,
            runtime_s=time.perf_counter() - t0, F=F, extra=extra))
    return reports
