"""Quantization, schedule compilation, and XML serialization."""
from __future__ import annotations

import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.graphs import diameter, gen_gen_kautz, gen_hypercube, gen_torus
from a2aflow.mcf import (Commodity, TimeExpandedSolution, mcf_decomposed,
                         mcf_link, mcf_timestepped)
from a2aflow.paths import RouteError, WeightedPathSet, extract_widest_paths
from a2aflow.schedule import (ChunkedSchedule, Instruction, ScheduleError,
                              _chunk_counts, _counts_at,
                              compile_path_schedule,
                              compile_timestep_schedule, emit_schedule_xml,
                              parse_schedule_xml, quantize_flows)


@pytest.fixture(scope="module")
def gk27_ts():
    g = gen_gen_kautz(27, 4)
    return g, mcf_timestepped(g, l_max=diameter(g))


def chunk_counts_reference(weight_lists, q_max):
    """``_chunk_counts`` with every commodity quantized on its own."""
    rates = [[w for w in ws if w != 0] for ws in weight_lists]
    chunkings = [quantize_flows(r, q_max) for r in rates]
    Q = min(math.lcm(*(c.Q for c in chunkings)), q_max)
    out = []
    for ws, r, c in zip(weight_lists, rates, chunkings):
        counts = iter(c.counts if c.Q == Q else _counts_at(r, Q))
        out.append(tuple(next(counts) if w else 0 for w in ws))
    return Q, out


def emit_reference(sched, path):
    """The schedule XML written through ElementTree and ``ET.indent``."""
    root = ET.Element("schedule", {
        "n": str(sched.n),
        "nsteps": str(sched.nsteps),
        "chunkbytes": repr(sched.chunk_bytes),
        "q": str(sched.Q),
        "mode": sched.mode,
    })
    steps = {}
    for ins in sched.instructions:
        el = steps.get(ins.t)
        if el is None:
            el = ET.SubElement(root, "step", {"t": str(ins.t)})
            steps[ins.t] = el
        ET.SubElement(el, "send", {
            "src": str(ins.src), "dst": str(ins.dst),
            "s": str(ins.s), "d": str(ins.d),
            "c0": str(ins.c0), "c1": str(ins.c1),
        })
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)


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


class TestChunkCounts:
    def quiet(self, f, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return f(*args)

    def test_genkautz64_extracted_weights(self, decomp_solutions):
        g = gen_gen_kautz(64, 4)
        wps = extract_widest_paths(g, decomp_solutions["genkautz64"])
        weights = []
        for plist in wps.paths.values():
            tot = sum(w for _, w in plist)
            weights.append([w / tot for _, w in plist])
        got = _chunk_counts(weights, 1024)
        assert got == chunk_counts_reference(weights, 1024)
        assert got[0] < 1024

    def test_genkautz27_trajectory_weights(self, gk27_ts):
        weights = [[w for _, w in tr] for tr in gk27_ts[1].trajectories]
        assert len({tuple(ws) for ws in weights}) < len(weights)
        assert self.quiet(_chunk_counts, weights, 1024) \
            == self.quiet(chunk_counts_reference, weights, 1024)

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=40),
                             min_size=1, max_size=4)
                    .filter(lambda parts: any(parts)),
                    min_size=1, max_size=4),
           st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=12),
           st.sampled_from([6, 16, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, bases, picks, q_max):
        """Repeated lists, zeros and, at small q_max, the q_max fallback."""
        weights = [[p / sum(parts) for p in parts]
                   for parts in (bases[i % len(bases)] for i in picks)]
        try:
            expected = self.quiet(chunk_counts_reference, weights, q_max)
        except ScheduleError:
            with pytest.raises(ScheduleError):
                self.quiet(_chunk_counts, weights, q_max)
            return
        assert self.quiet(_chunk_counts, weights, q_max) == expected

    def test_bump_warns_once_per_distinct_list(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            Q, counts = _chunk_counts([[1e-5, 1 - 1e-5]] * 3, 10)
        assert Q == 10 and counts == [(1, 9)] * 3
        assert sum("0 chunks" in str(w.message) for w in rec) == 1


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

    def test_non_unit_demand_rejected(self):
        # 3-ring edge 0 is 0 -> 1
        g = gen_torus([3], bidirectional=False)
        ts = TimeExpandedSolution(
            l_max=1, U=np.ones(1), commodities=[Commodity(0, 1, 2.0)],
            trajectories=[[(((0, 0),), 2.0)]], graph=g, U_lo=1.0, U_hi=1.0)
        with pytest.raises(ScheduleError, match="unit demands"):
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

    @pytest.mark.parametrize("sd, path, why", [
        ((0, 2), (0, 2), r"nonexistent edge \(0,2\)"),
        ((1, 0), (1, 2, 1, 0), "not simple"),
        ((0, 2), (0, 1), "does not join"),
    ], ids=["missing-edge", "nonsimple", "wrong-ends"])
    def test_invalid_path_rejected(self, sd, path, why):
        # the 3-ring 0 -> 1 -> 2 -> 0
        g = gen_torus([3], bidirectional=False)
        wps = WeightedPathSet(paths={sd: [(path, 1.0)]})
        with pytest.raises(RouteError, match=why):
            compile_path_schedule(g, wps)

    @pytest.mark.parametrize("plist, why", [
        ([], "has no paths"),
        ([((0, 1), 0.0)], "has zero total weight"),
    ], ids=["no-paths", "zero-weight"])
    def test_commodity_weights_checked(self, plist, why):
        g = gen_torus([3], bidirectional=False)
        with pytest.raises(RouteError, match=why):
            compile_path_schedule(g, WeightedPathSet(paths={(0, 1): plist}))

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

    def assert_same_bytes(self, sched, tmp_path):
        emit_schedule_xml(sched, str(tmp_path / "direct.xml"))
        emit_reference(sched, str(tmp_path / "etree.xml"))
        assert (tmp_path / "direct.xml").read_bytes() \
            == (tmp_path / "etree.xml").read_bytes()

    def test_genkautz27_path_bytes(self, tmp_path):
        g = gen_gen_kautz(27, 4)
        wps = extract_widest_paths(g, mcf_decomposed(g))
        _, sched = compile_path_schedule(g, wps)
        self.assert_same_bytes(sched, tmp_path)

    def test_torus_ts_bytes(self, tmp_path):
        g = gen_torus([3, 3])
        self.assert_same_bytes(
            compile_timestep_schedule(g, mcf_timestepped(g, l_max=2)),
            tmp_path)

    def test_genkautz27_ts_bytes(self, gk27_ts, tmp_path):
        sched = compile_timestep_schedule(*gk27_ts)
        assert sched.nsteps == 3
        self.assert_same_bytes(sched, tmp_path)

    def test_unsorted_steps_bytes(self, tmp_path):
        """Steps come out in the order their t first appears."""
        sched = ChunkedSchedule(n=4, nsteps=3, chunk_bytes=0.1, Q=10,
                                mode="ts", instructions=[
                                    Instruction(2, 0, 1, 0, 3, 0, 4),
                                    Instruction(0, 1, 2, 1, 3, 4, 10),
                                    Instruction(2, 2, 3, 0, 3, 4, 10),
                                    Instruction(1, 3, 0, 3, 1, 0, 10)])
        self.assert_same_bytes(sched, tmp_path)
        assert [int(el.get("t")) for el in ET.parse(
            str(tmp_path / "direct.xml")).getroot()] == [2, 0, 1]

    def test_empty_schedule_bytes(self, tmp_path):
        self.assert_same_bytes(
            ChunkedSchedule(n=2, nsteps=1, chunk_bytes=1.0, Q=1,
                            mode="path"), tmp_path)

    def test_unknown_mode_rejected(self, tmp_path):
        sched = ChunkedSchedule(n=2, nsteps=1, chunk_bytes=1.0, Q=1,
                                mode="wire")
        with pytest.raises(ScheduleError, match="unknown mode 'wire'"):
            emit_schedule_xml(sched, str(tmp_path / "s.xml"))

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
