"""Correctness gate: checks on each workload's outputs.

Every check returns `(name, ok, detail)`. The gate trusts no value it is
handed: it compares against the reference values in `reference.json` and
re-derives invariants (per-commodity weights, chunk counts, link load, lower
bounds) from the artifacts read back from disk. `selftest.py` feeds it
corrupted outputs to show that each check can fail.
"""
from __future__ import annotations

from collections import Counter

from a2aflow.bounds import alltoall_time_lower_bound, graph_distance_bound
from a2aflow.paths import eval_link_load

REL_TOL = 1e-6


def lower_bound(g, d: int) -> float:
    """max(degree bound, distance bound) on all-to-all completion time."""
    return max(alltoall_time_lower_bound(d, g.n), graph_distance_bound(g))


def _close(value, ref, rel=REL_TOL):
    return abs(value - ref) <= rel * abs(ref)


def check_reference(name, value, ref):
    return (f"{name}_reference", _close(value, ref),
            f"{value:.12g} vs {ref:.12g}")


def check_lower_bound(name, time_value, lb):
    return (f"{name}_above_lower_bound", time_value >= lb - 1e-9,
            f"{time_value:.9g} >= {lb:.9g}")


def check_path_weights(g, wps, F):
    """Every commodity present, and its path weights sum to F."""
    want = {(s, d) for s in range(g.n) for d in range(g.n) if s != d}
    worst = max((abs(sum(w for _, w in plist) - F)
                 for plist in wps.paths.values()), default=float("inf"))
    ok = set(wps.paths) == want and worst <= REL_TOL * F
    return ("path_weights_sum_to_F", ok,
            f"{len(wps.paths)}/{len(want)} commodities, worst {worst:.2e}")


def check_link_load(g, wps, F):
    """The extracted paths load the busiest link to exactly 1/F."""
    load, _ = eval_link_load(g, wps)
    return ("max_link_load_is_1_over_F", _close(load, 1 / F, 1e-4),
            f"{load:.9g} vs {1 / F:.9g}")


def check_roundtrip(sched, parsed):
    ok = (len(parsed.instructions) == len(sched.instructions)
          and parsed.Q == sched.Q and parsed.mode == sched.mode)
    return ("xml_roundtrip", ok,
            f"{len(parsed.instructions)}/{len(sched.instructions)} instructions")


def check_chunks(g, sched):
    """Every commodity gets exactly Q chunks: path mode counts the chunks
    assigned to its routes, ts mode the chunks that arrive at d."""
    got = Counter()
    for ins in sched.instructions:
        if sched.mode == "path" or ins.dst == ins.d:
            got[(ins.s, ins.d)] += ins.c1 - ins.c0
    want = {(s, d) for s in range(g.n) for d in range(g.n) if s != d}
    bad = [sd for sd in want if got[sd] != sched.Q] + sorted(set(got) - want)
    return ("chunks_per_commodity_is_Q", not bad,
            f"{len(bad)} commodities off, e.g. {bad[:1]}")


def check_layers(verified):
    return ("layers_verify", verified is True, str(verified))


def check_replay(T, delivered, Q, sum_u):
    bound = (1 + 2 / Q) * sum_u
    return ("replay_within_bound", delivered is True and T <= bound + 1e-9,
            f"T {T:.9g} <= {bound:.9g}")
