"""Spans around a2aflow's public calls, recorded from outside the library.

`Tracer.install` replaces each traced function with a wrapper under every
name an a2aflow module holds it by (for example `solve_lp` both as
`a2aflow.lp.solve_lp` and `a2aflow.mcf.solve_lp`), so calls made inside the
library are seen too. Spans live in memory as
`{name, start, end, parent, run_id, attrs}` and are written out when the run
ends. Calls made in pool worker processes are not visible here.

A traced function that no longer exists is recorded in `Tracer.missing`
instead of failing the run, and the per-layer metrics that depend only on
missing functions are left out of the result.
"""
from __future__ import annotations

import functools
import os
import sys
import time
import warnings
from contextlib import contextmanager


def _lp_attrs(args, kwargs, out):
    model = args[0] if args else kwargs["model"]
    rows = nnz = 0
    for a in (model.a_ub, model.a_eq):
        if a is not None:
            rows += a.shape[0]
            nnz += a.nnz
    return {"vars": int(model.c.size), "rows": int(rows), "nnz": int(nnz),
            "iterations": int(getattr(out, "iterations", 0) or 0)}


def _flow_attrs(args, kwargs, out):
    return {"flow_entries": len(out.flows)}


def _extract_attrs(args, kwargs, out):
    return {"paths": sum(len(p) for p in out.paths.values())}


def _lash_attrs(args, kwargs, out):
    return {"layers": out.num_layers, "routes": len(args[1])}


def _compile_attrs(args, kwargs, out):
    from a2aflow import schedule

    sched = out[1] if isinstance(out, tuple) else out
    q_max = kwargs.get("q_max", getattr(schedule, "DEFAULT_Q_MAX", None))
    return {"q": sched.Q, "q_fallback": int(sched.Q == q_max),
            "instructions": len(sched.instructions)}


def _emit_attrs(args, kwargs, out):
    return {"xml_bytes": os.path.getsize(args[1])}


def _replay_attrs(args, kwargs, out):
    g, sched = args[0], args[1]
    return {"replay_chunks": sched.Q * g.n * (g.n - 1)}


# (module, function, attrs from (args, kwargs, result) or None, whether to
#  record the warnings raised inside the call); the span is "module.function"
TRACED = [
    ("lp", "solve_lp", _lp_attrs, False),
    ("mcf", "mcf_decomposed", _flow_attrs, False),
    ("mcf", "solve_master", None, False),
    ("mcf", "mcf_timestepped", _flow_attrs, False),
    ("mcf", "save_solution", None, False),
    ("mcf", "load_solution", None, False),
    ("paths", "extract_widest_paths", _extract_attrs, True),
    ("paths", "save_routes", None, False),
    ("paths", "load_routes", None, False),
    ("paths", "eval_link_load", None, False),
    ("deadlock", "lash_sequential", _lash_attrs, False),
    ("deadlock", "verify_layers", None, False),
    ("schedule", "compile_path_schedule", _compile_attrs, True),
    ("schedule", "compile_timestep_schedule", _compile_attrs, True),
    ("schedule", "emit_schedule_xml", _emit_attrs, False),
    ("schedule", "parse_schedule_xml", None, False),
    ("evaluate", "replay_timestep_schedule", _replay_attrs, False),
    ("evaluate", "compare_topologies", None, False),
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "run_id": self.run_id, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, attrs_of, record_warnings):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if record_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                    rec["attrs"]["warnings"] = [str(w.message) for w in caught]
                else:
                    out = fn(*args, **kwargs)
                if attrs_of is not None:
                    rec["attrs"].update(attrs_of(args, kwargs, out))
                return out
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and k.startswith("a2aflow.")]
        for home, fname, attrs_of, record_warnings in TRACED:
            fn = getattr(sys.modules.get(f"a2aflow.{home}"), fname, None)
            if fn is None:
                self.missing.append(f"{home}.{fname}")
                continue
            wrapped = self._wrapper(f"{home}.{fname}", fn, attrs_of,
                                    record_warnings)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
                        self._undo.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()


def _dur(s):
    return s["end"] - s["start"]


def layer_metrics(spans: list[dict], missing: list[str]) -> dict:
    """Per-layer metrics from one traced iteration's spans.

    A layer's time counts only its outermost spans, so nested calls within
    the layer (solve_master inside mcf_decomposed) are not added twice.
    Self time is a span's duration minus the time its child spans cover.
    A metric whose traced functions are all missing is left out.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur(s)
    used: set[str] = set()

    def layer_of(s):
        return s["name"].split(".", 1)[0]

    def outermost(s):
        p = s["parent"]
        while p is not None:
            if layer_of(by_id[p]) == layer_of(s):
                return False
            p = by_id[p]["parent"]
        return True

    def named(*names):
        used.update(names)
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(_dur(s) for s in named(*names) if outermost(s))

    def attr_sum(key, *names):
        return sum(s["attrs"].get(key, 0) for s in named(*names)
                   if outermost(s))

    def biggest_lp(key):
        lp = named("lp.solve_lp")
        return max((s["attrs"] for s in lp), key=lambda a: a["nnz"],
                   default={key: 0})[key]

    def warned(text, *names):
        return sum(sum(text in w for w in s["attrs"]["warnings"])
                   for s in named(*names))

    entry = ("mcf.mcf_decomposed", "mcf.solve_master", "mcf.mcf_timestepped")
    comp = ("schedule.compile_path_schedule",
            "schedule.compile_timestep_schedule")
    replay = "evaluate.replay_timestep_schedule"
    spec = {
        "graphs.gen_s": lambda: total("graphs.gen"),
        "graphs.edges": lambda: attr_sum("edges", "graphs.gen"),
        "lp.solve_s": lambda: total("lp.solve_lp"),
        "lp.calls": lambda: len(named("lp.solve_lp")),
        "lp.max_solve_s": lambda: max(map(_dur, named("lp.solve_lp")),
                                      default=0.0),
        "lp.iterations": lambda: attr_sum("iterations", "lp.solve_lp"),
        "lp.vars": lambda: biggest_lp("vars"),
        "lp.rows": lambda: biggest_lp("rows"),
        "lp.nnz": lambda: biggest_lp("nnz"),
        "mcf.solve_s": lambda: total(*entry),
        "mcf.self_s": lambda: sum(_dur(s) - children.get(s["id"], 0.0)
                                  for s in named(*entry)),
        "mcf.flow_entries": lambda: attr_sum("flow_entries", *entry),
        "mcf.io_s": lambda: total("mcf.save_solution", "mcf.load_solution"),
        "paths.extract_s": lambda: total("paths.extract_widest_paths"),
        "paths.paths": lambda: attr_sum("paths", "paths.extract_widest_paths"),
        "paths.cycle_cancels": lambda: warned("cancelling cycles",
                                              "paths.extract_widest_paths"),
        "paths.io_s": lambda: total("paths.save_routes", "paths.load_routes"),
        "paths.load_eval_s": lambda: total("paths.eval_link_load"),
        "deadlock.lash_s": lambda: total("deadlock.lash_sequential"),
        "deadlock.verify_s": lambda: total("deadlock.verify_layers"),
        "deadlock.layers": lambda: attr_sum("layers", "deadlock.lash_sequential"),
        "deadlock.routes": lambda: attr_sum("routes", "deadlock.lash_sequential"),
        "schedule.compile_s": lambda: total(*comp),
        "schedule.q": lambda: attr_sum("q", *comp),
        "schedule.q_fallback": lambda: attr_sum("q_fallback", *comp),
        "schedule.quant_warnings": lambda: warned("", *comp),
        "schedule.instructions": lambda: attr_sum("instructions", *comp),
        "schedule.xml_emit_s": lambda: total("schedule.emit_schedule_xml"),
        "schedule.xml_parse_s": lambda: total("schedule.parse_schedule_xml"),
        "schedule.xml_bytes": lambda: attr_sum("xml_bytes",
                                               "schedule.emit_schedule_xml"),
        "evaluate.replay_s": lambda: total(replay),
        "evaluate.replay_chunks": lambda: attr_sum("replay_chunks", replay),
        "evaluate.compare_s": lambda: total("evaluate.compare_topologies"),
    }
    out = {}
    for key, value in spec.items():
        used.clear()
        v = value()
        if not used <= set(missing):
            out[key] = v
    return out
