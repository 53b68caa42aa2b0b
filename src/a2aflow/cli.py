"""Command-line entry point.

Subcommands: gen, solve, bound, compile, layers, eval, compare. Every
command that writes an artifact also writes a sidecar
`<artifact>.manifest.json` recording the argument vector, seed, version, and
sha256 digests of inputs and outputs, so runs can be reproduced exactly.
Every static `solve` algorithm (link, decomp, path, sssp, ewsp, dor, ilp)
writes a route file of rates and prints its max normalized link load last,
which is 1/F for link, decomp and path. `solve --algo link|decomp` adds a
`quality` block: F, its certified bracket [F_lo, F_hi] and relative gap,
and the `verify_flow` residuals; `solve --algo ts` writes a time-stepped
solution and adds the certified bracket [U_lo, U_hi] on sum U_t and its gap.
`compile --mode ts` writes an XML schedule, and `compile --mode path` a
route file whose weights are chunk counts: each route that carries chunks,
in chunk order, so a commodity's counts sum to Q. `eval --routes` and
`layers` read either route file. `compare` is the one solver sweep.

Exit codes: 0 success, 1 domain error (the package's errors and OSError),
2 usage error. Any other exception is a bug and propagates.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

from . import __version__, domain_errors
from .evaluate import ALGOS
from .graphs import (GraphError, diameter, gen_complete_bipartite,
                     gen_de_bruijn, gen_gen_kautz, gen_hypercube,
                     gen_random_regular, gen_shortest_path_expander,
                     gen_torus, gen_twisted_hypercube, load_graph, puncture,
                     save_graph, _write_json)

# topology -> (flags it needs, generator); a missing --k is read from --d
_GEN = {
    "genkautz": (("n", "d"), lambda a: gen_gen_kautz(a.n, a.d)),
    "debruijn": (("n", "d"), lambda a: gen_de_bruijn(a.n, a.d)),
    "torus": (("dims",), lambda a: gen_torus(a.dims)),
    "hypercube": (("k",), lambda a: gen_hypercube(a.k)),
    "thypercube": (("k",), lambda a: gen_twisted_hypercube(a.k)),
    "bipartite": (("n",), lambda a: gen_complete_bipartite(a.n)),
    "rrg": (("n", "d"), lambda a: gen_random_regular(a.n, a.d, seed=a.seed)),
    "spx": (("n", "d"), lambda a: gen_shortest_path_expander(
        a.n, a.d, seed=a.seed, eps=a.eps)),
}
TOPOS = tuple(_GEN)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(args, inputs: list[str], outputs: list[str],
                    started: float) -> None:
    if not outputs:
        return
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {p: _sha256(p) for p in inputs if os.path.exists(p)},
        "outputs": {p: _sha256(p) for p in outputs if os.path.exists(p)},
        "wall_clock_s": time.time() - started,
    }
    if getattr(args, "quality", None):
        manifest["quality"] = args.quality
    _write_json(outputs[0] + ".manifest.json", manifest, indent=1)


def _parse_dims(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}")


def _parse_puncture(text: str) -> tuple[str, int]:
    mode, _, count = text.partition(":")
    if not count.isdecimal():
        raise argparse.ArgumentTypeError(
            f"bad puncture {text!r}, want MODE:COUNT")
    return mode, int(count)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="a2a",
        description="All-to-all schedule synthesis for direct-connect "
                    "topologies")
    ap.add_argument("--version", action="version",
                    version=f"%(prog)s {__version__}")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a topology")
    g.add_argument("--topo", required=True, choices=TOPOS)
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--k", type=int, help="hypercube dimension")
    g.add_argument("--dims", type=_parse_dims)
    g.add_argument("--eps", type=float, default=0.01)
    g.add_argument("--puncture", type=_parse_puncture, metavar="MODE:COUNT",
                   help="remove COUNT random edges or nodes")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="solve for a schedule or routes")
    s.add_argument("--algo", required=True,
                   choices=("link", "decomp", "ts", "path", "sssp", "ewsp",
                            "dor", "ilp"))
    s.add_argument("--graph", required=True)
    s.add_argument("--lmax", type=int, default=None)
    s.add_argument("--paths", default="disjoint",
                   help="path source for --algo path: disjoint|bounded|FILE")
    s.add_argument("--alpha", type=float, default=0.0)
    s.add_argument("--out", default=None)

    b = sub.add_parser("bound", help="lower bounds")
    b.add_argument("--n", type=int)
    b.add_argument("--d", type=int)
    b.add_argument("--graph", default=None)

    c = sub.add_parser("compile", help="compile a schedule")
    c.add_argument("--mode", required=True, choices=("ts", "path"))
    c.add_argument("--graph", required=True)
    c.add_argument("--sol", required=True,
                   help="solution JSON (ts) or route JSON (path)")
    c.add_argument("--m", type=float, default=1.0,
                   help="shard bytes of a time-stepped schedule (--mode ts)")
    c.add_argument("--qmax", type=int, default=1024)
    c.add_argument("--out", required=True)

    ly = sub.add_parser("layers", help="virtual-channel layering")
    ly.add_argument("--graph", required=True)
    ly.add_argument("--routes", required=True)
    ly.add_argument("--max-layers", type=int, default=8)
    ly.add_argument("--out", default=None)

    e = sub.add_parser("eval", help="replay / evaluate a schedule")
    e.add_argument("--graph", required=True)
    e.add_argument("--sched", default=None, help="XML schedule (ts mode)")
    e.add_argument("--routes", default=None, help="route JSON (path mode)")
    e.add_argument("--m", type=float, default=None,
                   help="shard bytes of --routes (default 1.0)")
    e.add_argument("--b", type=float, default=1.0)
    e.add_argument("--sync", type=float, default=0.0)

    cp = sub.add_parser("compare", help="compare topologies vs lower bound")
    cp.add_argument("--topos", required=True,
                    help="comma list, e.g. genkautz,torus")
    cp.add_argument("--n-range", required=True, type=_parse_dims)
    cp.add_argument("--d", type=int, required=True)
    cp.add_argument("--algo", default="decomp", choices=ALGOS)
    cp.add_argument("--format", default="json", choices=("json", "csv"))
    cp.add_argument("--out", default=None)
    return ap


def _cmd_gen(args) -> list[str]:
    if args.k is None:
        args.k = args.d
    flags, generate = _GEN[args.topo]
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        raise GraphError(f"{args.topo} needs {' and '.join(missing)}")
    g = generate(args)
    if args.puncture:
        g = puncture(g, *args.puncture, seed=args.seed)
    save_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n} edges={g.num_edges}")
    return [args.out]


def _cmd_solve(args) -> list[str]:
    from . import mcf, paths

    g = load_graph(args.graph)
    if args.algo == "ts":
        lmax = args.lmax if args.lmax is not None else diameter(g)
        ts = mcf.mcf_timestepped(g, lmax)
        print(f"l_max = {lmax}, sum U_t = {ts.total_utilization:.9g} in "
              f"[{ts.U_lo:.9g}, {ts.U_hi:.9g}] (gap {ts.gap:.2g})")
        args.quality = {"U_lo": ts.U_lo, "U_hi": ts.U_hi, "gap": ts.gap}
        if not args.out:
            return []
        mcf.save_solution(ts, args.out)
        return [args.out]
    if args.algo in ("link", "decomp"):
        sol = (mcf.mcf_link(g) if args.algo == "link"
               else mcf.mcf_decomposed(g))
        print(f"F = {sol.F:.9g} in [{sol.F_lo:.9g}, {sol.F_hi:.9g}] "
              f"(gap {sol.gap:.2g})")
        args.quality = {"F": sol.F, "F_lo": sol.F_lo, "F_hi": sol.F_hi,
                        "gap": sol.gap, "residuals": mcf.verify_flow(g, sol)}
        out = paths.extract_widest_paths(g, sol)
    elif args.algo == "path":
        if args.paths == "disjoint":
            ps = paths.disjoint_paths(g)
        elif args.paths == "bounded":
            ps = paths.enum_paths_bounded(g, diameter(g) + 1)
        else:
            ps = paths.load_routes(args.paths)
        F, out = mcf.mcf_path(g, ps)
        print(f"F = {F:.9g}")
    elif args.algo == "ilp":
        out, load, gap = paths.ilp_min_congestion(
            g, paths.disjoint_paths(g), alpha=args.alpha)
        print(f"max load = {load:.9g} (gap {gap:.3g})")
    elif args.algo == "sssp":
        out = paths.sssp_routes(g, seed=args.seed)
    elif args.algo == "ewsp":
        out = paths.ewsp_routes(g)
    else:
        out = paths.dor_routes(g)
    max_load, _ = paths.eval_link_load(g, out)
    print(f"max normalized link load = {max_load:.9g}")
    if not args.out:
        return []
    paths.save_routes(out, args.out)
    return [args.out]


def _cmd_bound(args) -> list[str]:
    from .bounds import bound_report, graph_distance_bound

    doc = {}
    if args.graph:
        g = load_graph(args.graph)
        doc["graph_distance_bound"] = graph_distance_bound(g)
        if args.d and not args.n:
            args.n = g.n
    if args.n and args.d:
        doc.update(bound_report(args.d, args.n).as_dict())
    if not doc:
        raise GraphError("bound needs --n and --d, or --graph")
    print(json.dumps(doc, indent=1))
    return []


def _cmd_compile(args) -> list[str]:
    from .mcf import load_solution
    from .schedule import (compile_path_schedule, compile_timestep_schedule,
                           emit_schedule_xml)

    g = load_graph(args.graph)
    if args.mode == "ts":
        ts = load_solution(args.sol, g)
        sched = compile_timestep_schedule(g, ts, m=args.m, q_max=args.qmax)
        emit_schedule_xml(sched, args.out)
        print(f"wrote {args.out}: nsteps={sched.nsteps} Q={sched.Q}")
        return [args.out]
    from .paths import WeightedPathSet, load_routes, save_routes
    routes, sched = compile_path_schedule(g, load_routes(args.sol),
                                          q_max=args.qmax)
    # each route that carries chunks, at its chunk count, in chunk order
    counts: dict[tuple[int, int], list] = {}
    for ins in sched.instructions:
        counts.setdefault((ins.s, ins.d), []).append(
            (routes[ins.dst]["nodes"], ins.c1 - ins.c0))
    save_routes(WeightedPathSet(paths=counts), args.out)
    print(f"wrote {args.out}: Q={sched.Q} routes={len(sched.instructions)}")
    return [args.out]


def _cmd_layers(args) -> list[str]:
    from .deadlock import lash_sequential, verify_layers
    from .paths import load_routes

    g = load_graph(args.graph)
    wps = load_routes(args.routes)
    # every path of a multi-path commodity is a route of its own
    routes = {(s, d, i): path for (s, d), plist in wps.paths.items()
              for i, (path, _) in enumerate(plist)}
    assignment = lash_sequential(g, routes, max_layers=args.max_layers)
    ok, cert = verify_layers(g, routes, assignment)
    print(f"layers = {assignment.num_layers}, verified = {ok}")
    if not ok:
        raise GraphError(f"layer verification failed: {cert}")
    if args.out:
        # s-d for a single-path commodity, s-d-i for path i of several
        _write_json(args.out, {
            "-".join(map(str, (s, d, i) if len(wps.paths[(s, d)]) > 1
                         else (s, d))): layer
            for (s, d, i), layer in sorted(assignment.layers.items())},
            indent=1)
        return [args.out]
    return []


def _cmd_eval(args) -> list[str]:
    from .evaluate import (EvalError, eval_path_alltoall,
                           replay_timestep_schedule)

    g = load_graph(args.graph)
    if args.sched:
        from .schedule import parse_schedule_xml
        if args.m is not None:
            raise EvalError("--m applies to --routes: a schedule carries its "
                            "own shard size")
        T, ok = replay_timestep_schedule(g, parse_schedule_xml(args.sched),
                                         b=args.b, sync_latency=args.sync)
        print(f"T = {T:.9g}, delivered = {ok}")
    elif args.routes:
        from .paths import load_routes
        T = eval_path_alltoall(g, load_routes(args.routes), b=args.b,
                               m=1.0 if args.m is None else args.m)
        print(f"T = {T:.9g}")
    else:
        raise GraphError("eval needs --sched or --routes")
    return []


def _gen_topo_for_compare(topo: str, n: int, d: int, seed: int):
    if topo == "genkautz":
        return gen_gen_kautz(n, d)
    if topo == "debruijn":
        return gen_de_bruijn(n, d)
    if topo == "torus":
        side = round(n ** 0.5)
        if side * side != n:
            raise GraphError(f"torus in compare needs square n, got {n}")
        return gen_torus([side, side])
    if topo == "rrg":
        return gen_random_regular(n, d, seed=seed)
    raise GraphError(f"unsupported compare topology {topo!r}")


def _emit_rows(rows: list[dict], fmt: str, out: str | None) -> list[str]:
    if fmt == "csv":
        keys = sorted({k for r in rows for k in r})
        target = open(out, "w", newline="") if out else sys.stdout
        w = csv.DictWriter(target, fieldnames=keys)
        w.writeheader()
        w.writerows(rows)
        if out:
            target.close()
    else:
        text = "\n".join(json.dumps(r) for r in rows) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return [out] if out else []


def _cmd_compare(args) -> list[str]:
    from .evaluate import compare_topologies

    entries = []
    for topo in args.topos.split(","):
        for n in args.n_range:
            try:
                entries.append((f"{topo}-{n}",
                                _gen_topo_for_compare(topo, n, args.d,
                                                      args.seed)))
            except GraphError as ex:
                print(f"skipping {topo} n={n}: {ex}", file=sys.stderr)
    reports = compare_topologies(entries, d=args.d, algo=args.algo)
    return _emit_rows([r.as_dict() for r in reports], args.format, args.out)


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bound": _cmd_bound,
    "compile": _cmd_compile,
    "layers": _cmd_layers,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    inputs = [getattr(args, name, None)
              for name in ("graph", "sol", "routes", "sched")]
    # solve --algo path reads --paths as a route file unless it is a keyword
    if (args.command == "solve" and args.algo == "path"
            and args.paths not in ("disjoint", "bounded")):
        inputs.append(args.paths)
    try:
        outputs = _COMMANDS[args.command](args)
    except domain_errors() as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    _write_manifest(args, [p for p in inputs if p], outputs, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
