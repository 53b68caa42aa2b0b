"""Replay, path evaluation, and topology comparison."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow import mcf
from a2aflow.evaluate import (EvalError, _add_range, _first_missing,
                              bench_runtimes, compare_topologies,
                              eval_path_alltoall, replay_timestep_schedule)
from a2aflow.graphs import gen_gen_kautz, gen_torus
from a2aflow.mcf import mcf_decomposed, mcf_link, mcf_timestepped
from a2aflow.paths import WeightedPathSet, extract_widest_paths, sssp_routes
from a2aflow.schedule import (ChunkedSchedule, Instruction,
                              compile_timestep_schedule)


@pytest.fixture(scope="module")
def ring3_sched():
    g = gen_torus([3], bidirectional=False)
    ts = mcf_timestepped(g, l_max=2)
    return g, ts, compile_timestep_schedule(g, ts)


class TestReplay:
    def test_ring3_time(self, ring3_sched):
        g, ts, sched = ring3_sched
        T, ok = replay_timestep_schedule(g, sched, m=1.0, b=1.0)
        assert ok and T == pytest.approx(3.0)

    def test_bandwidth_scaling(self, ring3_sched):
        g, ts, sched = ring3_sched
        T1, _ = replay_timestep_schedule(g, sched, b=1.0)
        T2, _ = replay_timestep_schedule(g, sched, b=2.0)
        assert T2 == pytest.approx(T1 / 2)

    def test_sync_latency_additive(self, ring3_sched):
        g, ts, sched = ring3_sched
        T0, _ = replay_timestep_schedule(g, sched, sync_latency=0.0)
        T1, _ = replay_timestep_schedule(g, sched, sync_latency=0.25)
        assert T1 == pytest.approx(T0 + 0.25 * sched.nsteps)

    def test_missing_chunk_detected(self, ring3_sched):
        g, ts, sched = ring3_sched
        import copy

        broken = copy.deepcopy(sched)
        # drop every send out of node 0 at step 0; the forwarded shard is
        # then sent from node 1 without having arrived
        broken.instructions = [i for i in broken.instructions
                               if not (i.t == 0 and i.src == 0 and i.d == 2)]
        with pytest.raises(EvalError):
            replay_timestep_schedule(g, broken)

    def test_nonexistent_link_detected(self, ring3_sched):
        g, ts, sched = ring3_sched
        import copy

        broken = copy.deepcopy(sched)
        broken.instructions.append(
            Instruction(t=0, src=0, dst=2, s=0, d=2, c0=0, c1=1))
        with pytest.raises(EvalError, match="no link"):
            replay_timestep_schedule(g, broken)


    def test_chunk_delivered_twice_detected(self, ring3_sched):
        g, ts, sched = ring3_sched
        import copy

        broken = copy.deepcopy(sched)
        last_hop = next(i for i in broken.instructions if i.dst == i.d)
        broken.instructions.append(last_hop)
        with pytest.raises(EvalError, match="delivered more than once"):
            replay_timestep_schedule(g, broken)

    def test_partly_held_range_detected(self):
        # node 1 receives chunk 0 of shard (0,2) but forwards chunks [0, 2)
        g = gen_torus([3], bidirectional=False)
        sched = ChunkedSchedule(n=3, nsteps=2, chunk_bytes=0.5, Q=2,
                                mode="ts", instructions=[
            Instruction(t=0, src=0, dst=1, s=0, d=2, c0=0, c1=1),
            Instruction(t=1, src=1, dst=2, s=0, d=2, c0=0, c1=2),
        ])
        with pytest.raises(EvalError, match="sends chunk 1 of shard"):
            replay_timestep_schedule(g, sched)


class TestChunkIntervals:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 6)),
                    max_size=8),
           st.integers(0, 20), st.integers(1, 6))
    def test_matches_chunk_set(self, adds, c0, width):
        bounds, held = [], set()
        for a, w in adds:
            _add_range(bounds, a, a + w)
            held.update(range(a, a + w))
        assert bounds == sorted(bounds)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert {c for a, b in zip(bounds[::2], bounds[1::2])
                for c in range(a, b)} == held
        missing = [c for c in range(c0, c0 + width) if c not in held]
        assert _first_missing(bounds, c0, c0 + width) == \
            (missing[0] if missing else None)


class TestEvalPath:
    def test_torus27_mcf(self):
        g = gen_torus([3, 3, 3])
        wp = extract_widest_paths(g, mcf_link(g))
        assert eval_path_alltoall(g, wp, m=2.0, b=1.0) \
            == pytest.approx(18.0, abs=1e-3)

    def test_sssp_worse(self):
        g = gen_torus([3, 3, 3])
        t_mcf = eval_path_alltoall(g, extract_widest_paths(g, mcf_link(g)))
        t_sssp = eval_path_alltoall(g, sssp_routes(g).as_pathset())
        assert t_sssp >= 1.2 * t_mcf

    def test_zero_weight_rejected(self):
        g = gen_torus([3], bidirectional=False)
        wps = WeightedPathSet(paths={(0, 1): [((0, 1), 0.0)]})
        with pytest.raises(EvalError):
            eval_path_alltoall(g, wps)

    def test_removing_path_never_helps(self):
        # GK27's optimal flows split: 777 paths for 702 commodities
        g = gen_gen_kautz(27, 4)
        wp = extract_widest_paths(g, mcf_decomposed(g))
        multi = [(k, v) for k, v in wp.paths.items() if len(v) > 1]
        assert multi, "extraction yielded single paths only"
        t_full = eval_path_alltoall(g, wp)
        for key, plist in multi:
            reduced = WeightedPathSet(paths={**wp.paths, key: plist[:-1]})
            assert eval_path_alltoall(g, reduced) >= t_full - 1e-9


class TestCompare:
    def test_small_sweep(self):
        entries = [("gk27", gen_gen_kautz(27, 4)),
                   ("t9", gen_torus([3, 3]))]
        reports = compare_topologies(entries, d=4)
        assert [r.label for r in reports] == ["gk27", "t9"]
        for r in reports:
            assert r.ratio >= 1.0 - 1e-9
            assert r.alltoall_time == pytest.approx(1 / r.F)
        # the even shortest-path split certifies the torus without an LP
        assert [r.extra["lp_solves"] for r in reports] == [1, 0]

    def test_generator_failure_recorded(self):
        from a2aflow.graphs import Digraph

        disconnected = Digraph.from_edges(3, [(0, 1, 1.0), (1, 0, 1.0)])
        reports = compare_topologies([("bad", disconnected)], d=1)
        assert "error" in reports[0].extra

    def test_bug_propagates(self, monkeypatch):
        # only the package's errors are recorded; anything else is a bug
        with pytest.raises(AttributeError):
            compare_topologies([("not a graph", None)], d=1)

        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(mcf, "mcf_decomposed", broken)
        with pytest.raises(TypeError, match="bug"):
            compare_topologies([("t9", gen_torus([3, 3]))], d=4)

    def test_throughput_bound(self):
        g = gen_torus([3, 3])
        (r,) = compare_topologies([("t9", g)], d=4)
        assert r.throughput(m=1.0, b=1.0) \
            <= (g.n - 1) * r.F * 1.0 + 1e-6


class TestBench:
    def test_rows_for_result_and_error(self):
        ok, bad = bench_runtimes([8], 2, ["sssp", "nope"], timeout_s=120)
        assert ok["runtime_s"] >= 0 and ok["timeout"] is False
        assert bad["runtime_s"] is None and bad["timeout"] is False
        assert "unknown algorithm" in bad["error"]

    def test_bug_raises(self, monkeypatch):
        # a worker's exception other than the package's errors is a bug,
        # not an error row; fork so the worker inherits the patched solver
        import multiprocessing

        from a2aflow import domain_errors, evaluate

        def broken(*args, **kwargs):
            raise TypeError("bug in solver")

        monkeypatch.setattr(mcf, "mcf_decomposed", broken)
        monkeypatch.setattr(evaluate, "multiprocessing",
                            multiprocessing.get_context("fork"))
        with pytest.raises(RuntimeError,
                           match="TypeError: bug in solver") as exc:
            bench_runtimes([8], 2, ["decomp"], timeout_s=120)
        assert not isinstance(exc.value, domain_errors())

    def test_timeout_terminates_run(self):
        (row,) = bench_runtimes([64], 4, ["decomp"], timeout_s=0.01)
        assert row == {"algo": "decomp", "n": 64, "d": 4,
                       "runtime_s": None, "timeout": True}
