"""One benchmark iteration of one workload, in a fresh interpreter.

    python3 a2abench/worker.py --workload NAME --seed N --spawned EPOCH \
        --out RECORD.json [--trace] [--setup-only]

Set-up (imports, graph generation, relabelling) is timed from `--spawned`,
the wall-clock time at which the parent started this interpreter. The
pipeline is then timed from the graph in memory to the artifacts read back,
the gate checks the outputs, and the record is written to `--out`.
run.py drives this; it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import shutil
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def relabel(g, seed: int, label: str):
    """Permute node ids and shuffle edge order; seed 0 keeps generator order.

    F and sum U_t are invariant under relabelling, so the reference checks
    hold on every seed, while path choice and layer packing may change.
    """
    from a2aflow.graphs import Digraph

    perm, edges = list(range(g.n)), list(g.edges)
    if seed:
        rng = random.Random(f"{seed}:{label}")
        rng.shuffle(perm)
        rng.shuffle(edges)
    return Digraph.from_edges(
        g.n, [(perm[u], perm[v], c) for u, v, c in edges], g.meta)


# ---------------------------------------------------------------------------
# workloads: setup(seed) -> inputs, whose "entries" are the labelled graphs;
# run(inputs, workdir) -> outputs;
# check(inputs, outputs, reference) -> (checks, bound_ratio)

def extp_setup(seed):
    from a2aflow import graphs

    return {"entries": [("gk64", relabel(graphs.gen_gen_kautz(64, 4), seed,
                                         "gk64"))]}


def extp_run(inp, work):
    from a2aflow import deadlock, mcf, paths, schedule

    g = inp["entries"][0][1]
    sol = mcf.mcf_decomposed(g)
    wps = paths.extract_widest_paths(g, sol)
    paths.save_routes(wps, str(work / "routes.json"))
    wps = paths.load_routes(str(work / "routes.json"))
    routes = {(s, d, i): p for (s, d), plist in wps.paths.items()
              for i, (p, _) in enumerate(plist)}
    layers = deadlock.lash_sequential(g, routes)
    verified, _ = deadlock.verify_layers(g, routes, layers)
    route_list, sched = schedule.compile_path_schedule(g, wps)
    schedule.emit_schedule_xml(sched, str(work / "paths.xml"))
    parsed = schedule.parse_schedule_xml(str(work / "paths.xml"))
    quantized: dict = {}
    for ins in parsed.instructions:
        r = route_list[ins.dst]
        quantized.setdefault((r["s"], r["d"]), []).append(
            (tuple(r["nodes"]), (ins.c1 - ins.c0) / parsed.Q))
    load, _ = paths.eval_link_load(g, paths.WeightedPathSet(paths=quantized))
    return {"F": sol.F, "wps": wps, "verified": verified, "sched": sched,
            "parsed": parsed, "load": load}


def extp_check(inp, out, ref):
    import gate

    g, F = inp["entries"][0][1], out["F"]
    lb = gate.lower_bound(g, 4)
    return [
        gate.check_reference("gk64_F", F, ref["gk64_F"]),
        gate.check_path_weights(g, out["wps"], F),
        gate.check_link_load(g, out["wps"], F),
        gate.check_layers(out["verified"]),
        gate.check_roundtrip(out["sched"], out["parsed"]),
        gate.check_chunks(g, out["parsed"]),
        gate.check_lower_bound("inverse_F", 1 / F, lb),
    ], out["load"] / lb


def topo_setup(seed):
    from a2aflow import graphs

    return {"entries": [
        ("gk100", relabel(graphs.gen_gen_kautz(100, 4), seed, "gk100")),
        ("torus10x10", relabel(graphs.gen_torus([10, 10]), seed, "torus")),
    ]}


def topo_run(inp, work):
    from a2aflow import evaluate

    return {"reports": evaluate.compare_topologies(inp["entries"], d=4)}


def topo_check(inp, out, ref):
    import gate

    checks, ratios = [], []
    for (label, g), rep in zip(inp["entries"], out["reports"]):
        F = rep.F or float("nan")
        lb = gate.lower_bound(g, 4)
        checks.append(gate.check_reference(f"{label}_F", F, ref[f"{label}_F"]))
        checks.append(gate.check_lower_bound(f"{label}_inverse_F", 1 / F, lb))
        ratios.append((1 / F) / lb)
    return checks, max(ratios)


def ts_setup(seed):
    from a2aflow import graphs

    g = relabel(graphs.gen_gen_kautz(27, 4), seed, "gk27")
    return {"entries": [("gk27", g)], "l_max": graphs.diameter(g)}


def ts_run(inp, work):
    from a2aflow import evaluate, mcf, schedule

    g = inp["entries"][0][1]
    ts = mcf.mcf_timestepped(g, l_max=inp["l_max"])
    mcf.save_solution(ts, str(work / "ts.json"))
    ts = mcf.load_solution(str(work / "ts.json"), g)
    sched = schedule.compile_timestep_schedule(g, ts)
    schedule.emit_schedule_xml(sched, str(work / "ts.xml"))
    parsed = schedule.parse_schedule_xml(str(work / "ts.xml"))
    T, delivered = evaluate.replay_timestep_schedule(g, parsed)
    return {"sum_u": ts.total_utilization, "sched": sched, "parsed": parsed,
            "T": T, "delivered": delivered}


def ts_check(inp, out, ref):
    import gate

    g, sum_u = inp["entries"][0][1], out["sum_u"]
    lb = gate.lower_bound(g, 4)
    return [
        gate.check_reference("gk27_sum_U", sum_u, ref["gk27_sum_U"]),
        gate.check_roundtrip(out["sched"], out["parsed"]),
        gate.check_chunks(g, out["parsed"]),
        gate.check_replay(out["T"], out["delivered"], out["parsed"].Q, sum_u),
        gate.check_lower_bound("sum_U", sum_u, lb),
    ], out["T"] / lb


# name -> (setup, run, check, number of checks)
WORKLOADS = {
    "extp-gk64": (extp_setup, extp_run, extp_check, 7),
    "topo-n100": (topo_setup, topo_run, topo_check, 4),
    "ts-gk27": (ts_setup, ts_run, ts_check, 5),
}


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import a2aflow
    if not Path(a2aflow.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"a2aflow imported from {a2aflow.__file__}, "
                         f"not from {ROOT / 'src'}")
    # set-up pays for every import the pipeline needs, including the LP
    # backend that a2aflow imports lazily; the tracer also needs every
    # module loaded to find the names each one holds
    import scipy.optimize  # noqa: F401
    from a2aflow import (deadlock, evaluate, graphs, lp, mcf,  # noqa: F401
                         paths, schedule)

    setup, run, check, n_checks = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(f"{args.workload}:{args.seed}:{args.spawned:.6f}")

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext(
            {"attrs": {}})

    with span("graphs.gen") as rec:
        inputs = setup(args.seed)
        rec["attrs"]["edges"] = sum(g.num_edges for _, g in inputs["entries"])
    record = {"workload": args.workload, "seed": args.seed,
              "setup_s": time.time() - args.spawned}
    if not args.setup_only:
        record.update(_measure(args, run, check, n_checks, inputs, tracer))
    Path(args.out).write_text(json.dumps(record))
    return 0


def _measure(args, run, check, n_checks, inputs, tracer):
    ref = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".a2abench_out" / f"work-{args.workload}-{args.spawned:.6f}"
    work.mkdir(parents=True, exist_ok=True)
    # until the gate has run, every check counts as failed
    rec: dict = {"checks": [], "failed": n_checks, "attempted": n_checks}
    try:
        warnings.simplefilter("ignore")
        if tracer:
            tracer.install()
        cpu0, _ = _rusage()
        t0 = time.perf_counter()
        outputs = run(inputs, work)
        wall = time.perf_counter() - t0
        cpu1, rss = _rusage()
        if tracer:
            tracer.uninstall()
        rec.update(wall_s=wall, cpu_s=cpu1 - cpu0, peak_rss_mb=rss)
        checks, ratio = check(inputs, outputs, ref)
        rec.update(bound_ratio=ratio, checks=checks,
                   failed=sum(not ok for _, ok, _ in checks))
    except Exception:   # noqa: BLE001 - a raised stage is a counted failure
        rec["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer and "wall_s" in rec:
        from spans import layer_metrics
        roots = sum(s["end"] - s["start"] for s in tracer.spans
                    if s["parent"] is None and s["name"] != "graphs.gen")
        rec.update(spans=tracer.spans, missing=tracer.missing,
                   layers=layer_metrics(tracer.spans, tracer.missing),
                   coverage=roots / rec["wall_s"])
    return rec


if __name__ == "__main__":
    sys.exit(main())
