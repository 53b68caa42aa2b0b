"""Show that every gate check can fail: feed it clean and corrupted outputs.

    python3 a2abench/selftest.py

Builds real outputs on small graphs (GenKautz(16, 3) for the path pipeline,
torus 3x3 for the time-stepped one), checks that the gate passes them, then
corrupts them (a dropped path, one chunk moved between commodities, a wrong
F, a dropped instruction, merged deadlock layers, a slow replay) and checks
that the matching gate check fails. Exits 1 if any expectation is not met.
"""
from __future__ import annotations

import copy
import dataclasses
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from a2aflow.deadlock import (LayerAssignment, lash_sequential,  # noqa: E402
                              verify_layers)
from a2aflow.evaluate import replay_timestep_schedule  # noqa: E402
from a2aflow.graphs import diameter, gen_gen_kautz, gen_torus  # noqa: E402
from a2aflow.mcf import mcf_decomposed, mcf_timestepped  # noqa: E402
from a2aflow.paths import WeightedPathSet, extract_widest_paths  # noqa: E402
from a2aflow.schedule import (compile_path_schedule,  # noqa: E402
                              compile_timestep_schedule)


def move_one_chunk(sched, delivering):
    """Take one chunk from one commodity's instruction and give it to
    another commodity's; `delivering` picks the instructions that count."""
    out = copy.deepcopy(sched)
    picks = [i for i, ins in enumerate(out.instructions) if delivering(ins)]
    ins = out.instructions
    a = next(i for i in picks if ins[i].c1 - ins[i].c0 > 1)
    b = next(i for i in picks if (ins[i].s, ins[i].d) != (ins[a].s, ins[a].d))
    ia, ib = ins[a], ins[b]
    ins[a] = dataclasses.replace(ia, c1=ia.c1 - 1)
    ins[b] = dataclasses.replace(ib, c1=ib.c1 + 1)
    return out


def main() -> int:
    warnings.simplefilter("ignore")
    results = []

    def expect(label, check, ok):
        name, got, detail = check
        results.append(got == ok)
        verdict = "ok  " if got == ok else "MISS"
        print(f"{verdict} {label}: {name} -> {'pass' if got else 'fail'} "
              f"[{detail}]")

    # path pipeline
    g = gen_gen_kautz(16, 3)
    sol = mcf_decomposed(g)
    F = sol.F
    wps = extract_widest_paths(g, sol)
    routes = {(s, d, i): p for (s, d), plist in wps.paths.items()
              for i, (p, _) in enumerate(plist)}
    layers = lash_sequential(g, routes)
    _, sched = compile_path_schedule(g, wps)

    expect("clean F", gate.check_reference("F", F, F), True)
    expect("clean paths", gate.check_path_weights(g, wps, F), True)
    expect("clean load", gate.check_link_load(g, wps, F), True)
    expect("clean layers", gate.check_layers(verify_layers(g, routes, layers)[0]),
           True)
    expect("clean round trip", gate.check_roundtrip(sched, copy.deepcopy(sched)),
           True)
    expect("clean chunks", gate.check_chunks(g, sched), True)

    wrong_f = F * (1 + 1e-5)
    expect("wrong F", gate.check_reference("F", wrong_f, F), False)
    expect("wrong F", gate.check_path_weights(g, wps, wrong_f), False)
    expect("wrong F", gate.check_link_load(g, wps, F * 1.01), False)
    dropped = {sd: list(plist) for sd, plist in wps.paths.items()}
    sd = next(sd for sd, plist in dropped.items() if len(plist) > 1)
    dropped[sd].remove(max(dropped[sd], key=lambda pw: pw[1]))
    expect("dropped path", gate.check_path_weights(
        g, WeightedPathSet(paths=dropped), F), False)
    del dropped[sd]
    expect("dropped commodity", gate.check_path_weights(
        g, WeightedPathSet(paths=dropped), F), False)
    expect("one chunk moved", gate.check_chunks(
        g, move_one_chunk(sched, lambda ins: True)), False)
    short = copy.deepcopy(sched)
    short.instructions.pop()
    expect("dropped instruction", gate.check_roundtrip(sched, short), False)
    merged = LayerAssignment(layers={k: 0 for k in layers.layers})
    expect("merged layers",
           gate.check_layers(verify_layers(g, routes, merged)[0]), False)
    lb = gate.lower_bound(g, 3)
    expect("below lower bound", gate.check_lower_bound("x", lb * 0.99, lb),
           False)

    # time-stepped pipeline
    g = gen_torus([3, 3])
    ts = mcf_timestepped(g, l_max=diameter(g))
    sum_u = ts.total_utilization
    sched = compile_timestep_schedule(g, ts)
    T, delivered = replay_timestep_schedule(g, sched)
    expect("clean ts chunks", gate.check_chunks(g, sched), True)
    expect("clean replay", gate.check_replay(T, delivered, sched.Q, sum_u), True)
    expect("clean sum U", gate.check_reference("sum_U", sum_u, sum_u), True)
    expect("wrong sum U", gate.check_reference("sum_U", sum_u * 1.001, sum_u),
           False)
    expect("one chunk moved", gate.check_chunks(
        g, move_one_chunk(sched, lambda ins: ins.dst == ins.d)), False)
    expect("slow replay", gate.check_replay(
        sum_u * (1 + 3 / sched.Q), True, sched.Q, sum_u), False)
    expect("undelivered", gate.check_replay(T, False, sched.Q, sum_u), False)

    print(f"{sum(results)}/{len(results)} expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
