"""Quantization, schedule compilation, and XML serialization."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.graphs import gen_hypercube, gen_torus
from a2aflow.mcf import (Commodity, TimeExpandedSolution, mcf_link,
                         mcf_timestepped)
from a2aflow.paths import WeightedPathSet, extract_widest_paths
from a2aflow.schedule import (ChunkedSchedule, Instruction, ScheduleError,
                              compile_path_schedule,
                              compile_timestep_schedule, emit_schedule_xml,
                              parse_schedule_xml, quantize_flows)


class TestQuantize:
    def test_exact_lcm(self):
        q = quantize_flows([1 / 3, 2 / 3])
        assert q.Q == 3 and q.counts == (1, 2)

    def test_percent_split(self):
        q = quantize_flows([0.43, 0.57], q_max=100)
        assert q.Q == 100 and q.counts == (43, 57)

    def test_unit(self):
        q = quantize_flows([1.0])
        assert q.Q == 1 and q.counts == (1,)

    def test_tiny_rate_bumped(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            q = quantize_flows([1e-5, 1 - 1e-5], q_max=10)
        assert min(q.counts) >= 1 and sum(q.counts) == q.Q
        assert any("0 chunks" in str(w.message) for w in rec)

    def test_rejects_bad_rates(self):
        with pytest.raises(ScheduleError):
            quantize_flows([0.0, 1.0])

    @given(st.lists(st.integers(min_value=1, max_value=50),
                    min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_counts_approximate_rates(self, parts):
        total = sum(parts)
        rates = [p / total for p in parts]
        q = quantize_flows(rates, q_max=128)
        assert sum(q.counts) == q.Q
        for r, c in zip(rates, q.counts):
            assert abs(c / q.Q - r) <= 1.0 / q.Q + 1e-9


class TestCompileTimestep:
    def test_ring3_two_steps(self):
        g = gen_torus([3], bidirectional=False)
        ts = mcf_timestepped(g, l_max=2)
        sched = compile_timestep_schedule(g, ts)
        assert sched.nsteps == 2 and sched.mode == "ts"
        steps = {i.t for i in sched.instructions}
        assert steps == {0, 1}

    def test_capacity_per_step(self):
        g = gen_torus([3, 3])
        ts = mcf_timestepped(g, l_max=2)
        sched = compile_timestep_schedule(g, ts, m=1.0)
        vol = {}
        for ins in sched.instructions:
            key = (ins.t, ins.src, ins.dst)
            vol[key] = vol.get(key, 0) + (ins.c1 - ins.c0)
        # per-step bytes within U_t * cap * (1 + 2/Q)
        for (t, u, v), chunks in vol.items():
            cap = g.capacities[g.edge_index[(u, v)]]
            assert chunks / sched.Q <= cap * ts.U[t] * (1 + 2 / sched.Q) + 1e-9

    def test_hypercube_delivers(self):
        from a2aflow.evaluate import replay_timestep_schedule

        g = gen_hypercube(3)
        ts = mcf_timestepped(g, l_max=3)
        sched = compile_timestep_schedule(g, ts)
        T, ok = replay_timestep_schedule(g, sched)
        assert ok

    # 3-ring edges: 0 is 0 -> 1, 1 is 1 -> 2, 2 is 2 -> 0; flows map
    # (edge, step) -> rate of the single commodity
    @pytest.mark.parametrize("com, l_max, flow, match", [
        # 1.5 units sent into d by a source holding 1
        (Commodity(0, 1), 1, {(0, 0): 1.5}, "more than it holds"),
        # node 1 sends 0.5 at step 0, before anything reaches it
        (Commodity(0, 2), 2, {(0, 0): 1.0, (1, 0): 0.5, (1, 1): 1.0},
         "node 1 sends"),
        (Commodity(0, 1, 2.0), 1, {(0, 0): 2.0}, "unit demands"),
        # half the shard leaves d at step 1 and comes back at step 3
        (Commodity(0, 1), 4, {(0, 0): 1.0, (1, 1): 0.5, (2, 2): 0.5,
                              (0, 3): 0.5}, "out of its destination"),
        # the shard stops at node 1
        (Commodity(0, 2), 2, {(0, 0): 1.0}, "exactly its demand"),
    ])
    def test_unschedulable_flow_rejected(self, com, l_max, flow, match):
        g = gen_torus([3], bidirectional=False)
        ts = TimeExpandedSolution(
            l_max=l_max, U=np.ones(l_max), commodities=[com],
            flows={(0, e, t): v for (e, t), v in flow.items()}, graph=g)
        with pytest.raises(ScheduleError, match=match):
            compile_timestep_schedule(g, ts)


class TestCompilePath:
    def test_single_route(self):
        g = gen_torus([3], bidirectional=False)
        wps = WeightedPathSet(paths={(0, 1): [((0, 1), 1.0)]})
        routes, sched = compile_path_schedule(g, wps, m=1.0)
        assert sched.Q == 1 and len(routes) == 1
        assert sched.instructions == [
            Instruction(t=0, src=0, dst=0, s=0, d=1, c0=0, c1=1)]

    def test_hcf_quarters(self):
        from a2aflow.graphs import Digraph

        g = Digraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)])
        wps = WeightedPathSet(paths={(0, 1): [((0, 1), 0.25),
                                              ((0, 2, 1), 0.75)]})
        _, sched = compile_path_schedule(g, wps)
        assert sched.Q == 4
        counts = sorted(i.c1 - i.c0 for i in sched.instructions)
        assert counts == [1, 3]

    def test_zero_weight_path_gets_no_chunks(self):
        from a2aflow.graphs import Digraph

        g = Digraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)])
        wps = WeightedPathSet(paths={(0, 1): [((0, 1), 1.0),
                                              ((0, 2, 1), 0.0)]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            routes, sched = compile_path_schedule(g, wps)
        assert sched.Q == 1
        assert sched.instructions == [
            Instruction(t=0, src=0, dst=0, s=0, d=1, c0=0, c1=1)]
        assert routes[0]["nodes"] == [0, 1]

    def test_negative_weight_rejected(self):
        from a2aflow.graphs import Digraph

        g = Digraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)])
        wps = WeightedPathSet(paths={(0, 1): [((0, 1), 1.5),
                                              ((0, 2, 1), -0.5)]})
        with pytest.raises(ScheduleError, match="rates must lie"):
            compile_path_schedule(g, wps)

    def test_43_57_split(self):
        from a2aflow.graphs import Digraph

        g = Digraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (2, 1, 1.0)])
        wps = WeightedPathSet(paths={(0, 1): [((0, 1), 0.43),
                                              ((0, 2, 1), 0.57)]})
        _, sched = compile_path_schedule(g, wps)
        assert sched.Q == 100
        counts = sorted(i.c1 - i.c0 for i in sched.instructions)
        assert counts == [43, 57]

    def test_chunks_proportional_within_1_over_q(self):
        g = gen_torus([3, 3])
        wp = extract_widest_paths(g, mcf_link(g))
        routes, sched = compile_path_schedule(g, wp)
        per_comm = {}
        for ins in sched.instructions:
            per_comm.setdefault((ins.s, ins.d), []).append(ins)
        for (s, d), inss in per_comm.items():
            plist = wp.paths[(s, d)]
            tot = sum(w for _, w in plist)
            assigned = {routes[i.dst]["nodes"][0]: None for i in inss}
            for ins in inss:
                path = tuple(routes[ins.dst]["nodes"])
                w = dict((tuple(p), w) for p, w in plist)[path] / tot
                assert abs((ins.c1 - ins.c0) / sched.Q - w) \
                    <= 1.0 / sched.Q + 1e-9


class TestXml:
    def test_roundtrip(self, tmp_path):
        g = gen_torus([3, 3])
        ts = mcf_timestepped(g, l_max=2)
        sched = compile_timestep_schedule(g, ts)
        p = tmp_path / "s.xml"
        emit_schedule_xml(sched, str(p))
        back = parse_schedule_xml(str(p))
        assert back.n == sched.n and back.nsteps == sched.nsteps
        assert back.Q == sched.Q and back.mode == sched.mode
        assert sorted(map(repr, back.instructions)) \
            == sorted(map(repr, sched.instructions))

    def test_missing_nsteps_rejected(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text('<schedule n="3" chunkbytes="1.0" q="1" mode="ts">'
                     "</schedule>")
        with pytest.raises(ScheduleError, match="nsteps"):
            parse_schedule_xml(str(p))

    def test_step_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text('<schedule n="3" nsteps="2" chunkbytes="1.0" q="1" '
                     'mode="ts"><step t="5"/></schedule>')
        with pytest.raises(ScheduleError, match="outside"):
            parse_schedule_xml(str(p))

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.xml"
        p.write_text("<schedule")
        with pytest.raises(ScheduleError, match="malformed"):
            parse_schedule_xml(str(p))
