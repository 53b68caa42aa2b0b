"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -s). Expensive solves
are shared through session fixtures in conftest.py.
"""
from __future__ import annotations

import time

import numpy as np

from a2aflow.bounds import (alltoall_time_lower_bound,
                            full_tree_distance_sum_closed,
                            graph_distance_bound, tree_distance_sum)
from a2aflow.graphs import (augment_host_bottleneck, diameter,
                            gen_complete_bipartite, gen_de_bruijn,
                            gen_gen_kautz, gen_hypercube, gen_torus,
                            puncture)
from a2aflow.mcf import (F_ONLY_GAP, all_to_all_commodities, mcf_decomposed,
                         mcf_link, mcf_path, mcf_timestepped, solve_master)
from a2aflow.paths import (disjoint_paths, dor_routes, enum_paths_bounded,
                           eval_link_load, extract_widest_paths,
                           ilp_min_congestion, sssp_routes)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    import conftest

    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def suite_map(suite):
    return {name: (g, d) for name, g, d in suite}


class TestAcceptance:
    def test_c01_torus_ground_truth(self):
        t0 = time.perf_counter()
        g = gen_torus([3, 3, 3])
        f_link = mcf_link(g).F
        f_dec = solve_master(g, want_flows=False).F
        aug, mapping = augment_host_bottleneck(g, 4.0)
        comms = all_to_all_commodities(mapping.host)
        f_aug_link = mcf_link(aug, commodities=comms).F
        f_aug_dec = solve_master(aug, comms).F
        elapsed = time.perf_counter() - t0
        ok = (abs(f_link - 1 / 9) <= 1e-6 and abs(f_dec - 1 / 9) <= 1e-6
              and abs(f_aug_link - 2 / 27) <= 1e-6
              and abs(f_aug_dec - 2 / 27) <= 1e-6
              and elapsed < 2 * 300)
        report(1, "3x3x3 torus F=1/9; host-augmented F=2/27", ok,
               f"F={f_link:.8f} F_aug={f_aug_link:.8f} {elapsed:.0f}s")

    def test_c02_bipartite_closed_form(self):
        errs = []
        for n in (4, 8, 16):
            F = mcf_link(gen_complete_bipartite(n)).F
            errs.append(abs(F - n / (3 * n - 4)))
        ok = max(errs) <= 1e-6
        report(2, "complete bipartite F = n/(3n-4) for n in {4,8,16}", ok,
               f"max err {max(errs):.2e}")

    def test_c03_de_bruijn(self):
        F = mcf_link(gen_de_bruijn(8, 2)).F
        ok = abs(F - 0.1111) <= 1e-3
        report(3, "binary de Bruijn n=8 F = 0.1111", ok, f"F={F:.6f}")

    def test_c04_decomposition_equivalence(self, suite, link_F,
                                           decomp_solutions):
        gaps = {name: abs(link_F[name] - decomp_solutions[name].F)
                for name, _, _ in suite}
        worst = max(gaps, key=gaps.get)
        ok = gaps[worst] <= 1e-6
        report(4, "decomposed F equals link F across the 12-graph suite", ok,
               f"worst {worst}: {gaps[worst]:.2e}")

    def test_c05_decomposition_speed(self, timed_link_gk64):
        _, t_link = timed_link_gk64
        g = gen_gen_kautz(64, 4)
        t0 = time.perf_counter()
        mcf_decomposed(g)
        t_dec = time.perf_counter() - t0
        ok = t_dec <= t_link / 3
        report(5, "decomposed at least 3x faster than link on GenKautz 64",
               ok, f"link {t_link:.1f}s vs decomp {t_dec:.1f}s "
                   f"({t_link / t_dec:.1f}x)")

    def test_c06_dual_equivalence(self, suite, link_F):
        small = [(name, g) for name, g, _ in suite if g.n <= 8]
        worst_gap = 0.0
        for name, g in small:
            ps = enum_paths_bounded(g, g.n - 1, per_commodity_cap=None)
            F, _ = mcf_path(g, ps)
            worst_gap = max(worst_gap, abs(F - link_F[name]))
        disjoint_ok = True
        fracs = []
        for n in (27, 50):
            g = gen_gen_kautz(n, 4)
            F_opt = solve_master(g).F
            F_dis, _ = mcf_path(g, disjoint_paths(g))
            fracs.append(F_dis / F_opt)
            disjoint_ok &= F_dis >= 0.95 * F_opt
        ok = worst_gap <= 1e-6 and disjoint_ok
        report(6, "exhaustive pMCF = link (N<=8); disjoint pMCF >= 0.95 F",
               ok, f"gap {worst_gap:.2e}; disjoint fractions "
                   + ",".join(f"{f:.3f}" for f in fracs))

    def test_c07_extraction_completeness(self, suite, decomp_solutions):
        worst_cons = 0.0
        worst_load = 0.0
        for name, g, _ in suite:
            sol = decomp_solutions[name]
            wp = extract_widest_paths(g, sol)
            for (s, d), plist in wp.paths.items():
                worst_cons = max(worst_cons,
                                 abs(sum(w for _, w in plist) - sol.F))
            ml, _ = eval_link_load(g, wp)
            worst_load = max(worst_load, abs(ml - 1 / sol.F) * sol.F)
        ok = worst_cons <= 1e-6 and worst_load <= 1e-4
        report(7, "widest-path extraction conserves flow and load = 1/F", ok,
               f"cons {worst_cons:.2e}, rel load err {worst_load:.2e}")

    def test_c08_baseline_gap(self, link_F):
        g = gen_torus([3, 3, 3])
        inv_f = 1 / link_F["torus3x3x3"]
        sssp_load, _ = eval_link_load(g, sssp_routes(g, seed=0))
        dor_load, _ = eval_link_load(g, dor_routes(g))
        ok = sssp_load >= 1.2 * inv_f and abs(dor_load - inv_f) <= 1e-6
        report(8, "SSSP >= 1.2x MCF load and DOR = MCF load on 3x3x3 torus",
               ok, f"sssp {sssp_load:.2f} dor {dor_load:.2f} 1/F {inv_f:.2f}")

    def test_c09_ilp_parity(self, link_F):
        t0 = time.perf_counter()
        g = gen_torus([3, 3])
        _, load, gap = ilp_min_congestion(g, disjoint_paths(g), alpha=0.0)
        elapsed = time.perf_counter() - t0
        ok = abs(load - 1 / link_F["torus3x3"]) <= 1e-6 and elapsed < 600
        report(9, "congestion ILP matches MCF throughput on 3x3 torus", ok,
               f"load {load:.6f}, {elapsed:.1f}s")

    def test_c10_lower_bounds(self, suite, link_F):
        ok = True
        detail = ""
        for name, g, d in suite:
            inv_f = 1 / link_F[name]
            lb = graph_distance_bound(g)
            if d is not None:
                lb = max(lb, alltoall_time_lower_bound(d, g.n))
            if inv_f < lb - 1e-9:
                ok = False
                detail = f"{name}: 1/F {inv_f:.4f} < bound {lb:.4f}"
        for d in range(2, 9):
            for k in range(1, 7):
                n = (d ** k - 1) // (d - 1)
                explicit = tree_distance_sum(d, n) if n >= 2 else 0
                if full_tree_distance_sum_closed(d, k) != explicit:
                    ok = False
                    detail = f"closed form mismatch d={d} k={k}"
        report(10, "1/F respects both lower bounds; closed form = sum", ok,
               detail)

    def test_c11_topology_study(self):
        t0 = time.perf_counter()
        ratios = []
        times = {}
        gaps = []
        for n in (27, 64, 100, 200):
            g = gen_gen_kautz(n, 4)
            master = solve_master(g, want_flows=False)
            F = master.F
            gaps.append(1 - master.F_lo / master.F_hi)
            times[n] = 1 / F
            ratios.append((1 / F) / alltoall_time_lower_bound(4, n))
        torus = solve_master(gen_torus([10, 10]), want_flows=False)
        F_torus = torus.F
        gaps.append(1 - torus.F_lo / torus.F_hi)
        elapsed = time.perf_counter() - t0
        slope = np.polyfit(np.log([27, 64, 100, 200]), ratios, 1)[0]
        ok = (max(ratios) <= 1.5 and slope < 0
              and 1 / F_torus >= 1.5 * times[100]
              and max(gaps) <= F_ONLY_GAP
              and elapsed < 3600)
        report(11, "GenKautz within 1.5x of bound, decreasing; torus 1.5x "
                   "slower at n=100; every F certified to 2e-7", ok,
               "ratios " + ",".join(f"{r:.3f}" for r in ratios)
               + f"; torus/gk {(1 / F_torus) / times[100]:.2f}; "
                 f"max gap {max(gaps):.1e}; {elapsed:.0f}s")

    def test_c12_schedule_correctness(self):
        from a2aflow.evaluate import replay_timestep_schedule
        from a2aflow.schedule import compile_timestep_schedule

        cases = [
            ("ring3", gen_torus([3], bidirectional=False)),
            ("ring5", gen_torus([5])),
            ("bipartite4", gen_complete_bipartite(4)),
            ("hypercube3", gen_hypercube(3)),
            ("torus3x3", gen_torus([3, 3])),
        ]
        ok = True
        detail = ""
        for name, g in cases:
            ts = mcf_timestepped(g, l_max=diameter(g))
            sched = compile_timestep_schedule(g, ts, m=1.0)
            T, delivered = replay_timestep_schedule(g, sched, b=1.0)
            bound = (1 + 2 / sched.Q) * ts.total_utilization
            if not (delivered and T <= bound + 1e-9):
                ok = False
                detail = f"{name}: T {T:.4f} > {bound:.4f}"
        report(12, "compiled schedules replay to verified transpose within "
                   "(1+2/Q) of sum U_t", ok, detail)

    def test_c13_deadlock_freedom(self, decomp_solutions, suite):
        from a2aflow.deadlock import lash_sequential, verify_layers

        smap = suite_map(suite)
        ok = True
        layer_counts = {}
        for name in ("torus3x3x3", "genkautz27"):
            g, _ = smap[name]
            route_sets = {
                "sssp": sssp_routes(g, seed=0),
                "extp": extract_widest_paths(g, decomp_solutions[name]),
            }
            if name == "torus3x3x3":
                route_sets["dor"] = dor_routes(g)
            for algo, wps in route_sets.items():
                routes = {(s, d, i): p for (s, d), plist in wps.paths.items()
                          for i, (p, _) in enumerate(plist)}
                la = lash_sequential(g, routes, max_layers=8)
                verified, _ = verify_layers(g, routes, la)
                layer_counts[f"{name}/{algo}"] = la.num_layers
                if not (verified and la.num_layers <= 6):
                    ok = False
        worst = max(layer_counts.values())
        report(13, "lash layers verify and stay <= 6 on torus and GenKautz",
               ok, f"max layers {worst}")

    def test_c14_punctured_robustness(self):
        base = gen_torus([3, 3, 3])
        ok = True
        worst_margin = np.inf
        for seed in range(10):
            g = puncture(base, "edges", 3, seed=seed)
            F = solve_master(g).F
            sssp_load, _ = eval_link_load(g, sssp_routes(g, seed=seed))
            margin = sssp_load - 1 / F
            worst_margin = min(worst_margin, margin)
            if not (F > 0 and sssp_load >= 1 / F - 1e-9):
                ok = False
        report(14, "10 punctured tori solve with F > 0 and SSSP load >= "
                   "MCF load", ok, f"min margin {worst_margin:.3f}")
