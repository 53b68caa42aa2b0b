"""a2aflow benchmark: run one workload and print its metrics.

    python3 a2abench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
Each iteration runs in a fresh interpreter (worker.py), one at a time, until
the next one would end after `--seconds`; there is always at least one.
With `--trace 0` the iterations are untraced and the end-to-end metrics are
medians over them, with `setup_s` taken from at least SETUP_SAMPLES fresh
interpreters. With `--trace 1` untraced and traced iterations alternate, and
the per-layer metrics are medians over the traced ones.

The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the line before it records
the host, library versions, git commit and seed. Every iteration's record,
spans included, is written under `.a2abench_out/` in the checkout.
See README.md in this directory for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".a2abench_out"
SETUP_SAMPLES = 5
# every worker is stopped by then, so the run ends within 180 s
DEADLINE_S = 170.0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "bound_ratio": "ratio"}

sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from scipy.optimize._highspy import _core
        highs = (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
                 f"{_core.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs = "unknown"
    commit, dirty = None, None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"), "highs": highs,
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit, "git_dirty": dirty,
    }


_ids = itertools.count()


def spawn(workload: str, seed: int, deadline: float, *flags: str):
    """Run one worker to completion; its record, or None if it died."""
    out = OUT / f"rec-{os.getpid()}-{next(_ids)}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags,
           "--spawned", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    # the worker's own pool processes share its session; end them all
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    try:
        rec = json.loads(out.read_text())
    except (OSError, ValueError):
        return None
    out.unlink()
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "a2aflow" / "__init__.py").is_file():
        print(f"no a2aflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    n_checks = WORKLOADS[args.workload][3]
    plain, traced, attempted, failed = [], [], 0, 0
    start, longest = time.monotonic(), 0.0
    while True:
        t0 = time.monotonic()
        for flags in ((), ("--trace",)) if args.trace else ((),):
            rec = spawn(args.workload, args.seed, deadline, *flags)
            attempted += rec["attempted"] if rec else n_checks
            failed += rec["failed"] if rec else n_checks
            if rec and "wall_s" in rec:
                (traced if flags else plain).append(rec)
        longest = max(longest, time.monotonic() - t0)
        now = time.monotonic()
        if now - start + longest > args.seconds or now + longest > deadline:
            break
    setups = [r["setup_s"] for r in plain]
    while not args.trace and plain and len(setups) < SETUP_SAMPLES:
        rec = spawn(args.workload, args.seed, deadline, "--setup-only")
        if rec is None:
            break
        setups.append(rec["setup_s"])

    def median(key, recs):
        return statistics.median(r[key] for r in recs)

    if args.trace:
        if not (traced and plain):
            print("no traced iteration completed", file=sys.stderr)
            return 1
        metrics = {}
        for k in sorted(set.intersection(*(set(r["layers"]) for r in traced))):
            unit = "s" if k.endswith("_s") else "count"
            pick = statistics.median if unit == "s" else statistics.median_low
            metrics[k] = {"value": pick(r["layers"][k] for r in traced),
                          "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": median("wall_s", traced) - median("wall_s", plain),
            "unit": "s"}
        metrics["trace.coverage"] = {"value": median("coverage", traced),
                                     "unit": "ratio"}
    else:
        if not plain:
            print("no iteration completed", file=sys.stderr)
            return 1
        metrics = {k: {"value": median(k, plain), "unit": unit}
                   for k, unit in END_TO_END.items()}
        metrics["setup_s"]["value"] = statistics.median(setups)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_record(), "iterations": plain + traced,
              "missing": sorted({m for r in traced for m in r["missing"]})}
    path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                  f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(record))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": record["host"], "missing": record["missing"],
                      "iterations": len(plain) + len(traced),
                      "record": str(path.relative_to(ROOT))}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
