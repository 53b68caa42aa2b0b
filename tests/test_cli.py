"""End-to-end command-line workflows, invoked in-process."""
from __future__ import annotations

import json

import pytest

from a2aflow import cli
from a2aflow.cli import main
from a2aflow.graphs import load_graph


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestGen:
    def test_torus_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        rc, stdout, _ = run(capsys, "gen", "--topo", "torus",
                            "--dims", "3,3", "--out", out)
        assert rc == 0 and "n=9" in stdout
        g = load_graph(out)
        assert g.n == 9 and g.num_edges == 36

    def test_manifest_written(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        rc, _, _ = run(capsys, "gen", "--topo", "genkautz", "--n", "27",
                       "--d", "4", "--out", out)
        assert rc == 0
        manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert out in manifest["outputs"]
        assert len(manifest["outputs"][out]) == 64

    def test_puncture_and_augment(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        rc, _, _ = run(capsys, "--seed", "3", "gen", "--topo", "torus",
                       "--dims", "3,3,3", "--puncture", "edges:3",
                       "--augment-host", "4.0", "--out", out)
        assert rc == 0
        assert load_graph(out).n == 81

    def test_gen_determinism(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            rc, _, _ = run(capsys, "--seed", "5", "gen", "--topo", "rrg",
                           "--n", "16", "--d", "4", "--out", out)
            assert rc == 0
        with open(a) as fa, open(b) as fb:
            assert fa.read() == fb.read()

    def test_missing_dims_is_domain_error(self, tmp_path, capsys):
        rc, _, stderr = run(capsys, "gen", "--topo", "torus",
                            "--out", str(tmp_path / "g.json"))
        assert rc == 1 and "error" in stderr

    @pytest.mark.parametrize("topo, flags", [("genkautz", "--n and --d"),
                                             ("bipartite", "--n"),
                                             ("hypercube", "--k")])
    def test_missing_flags_named(self, tmp_path, capsys, topo, flags):
        rc, _, stderr = run(capsys, "gen", "--topo", topo,
                            "--out", str(tmp_path / "g.json"))
        assert rc == 1 and f"{topo} needs {flags}" in stderr

    def test_hypercube_dimension_from_d(self, tmp_path, capsys):
        rc, stdout, _ = run(capsys, "gen", "--topo", "hypercube", "--d", "3",
                            "--out", str(tmp_path / "g.json"))
        assert rc == 0 and "n=8" in stdout

    def test_puncture_without_count_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            main(["gen", "--topo", "torus", "--dims", "3,3", "--puncture",
                  "edges3", "--out", str(tmp_path / "g.json")])
        assert e.value.code == 2
        assert "MODE:COUNT" in capsys.readouterr().err

    def test_missing_input_file_is_domain_error(self, tmp_path, capsys):
        rc, _, stderr = run(capsys, "solve", "--algo", "decomp", "--graph",
                            str(tmp_path / "missing.json"))
        assert rc == 1 and "missing.json" in stderr

    def test_bug_is_not_swallowed(self, monkeypatch):
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setitem(cli._COMMANDS, "bound", broken)
        with pytest.raises(KeyError):
            main(["bound", "--n", "27", "--d", "6"])

    def test_bad_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2


class TestSolveAndRoutes:
    @pytest.fixture()
    def torus9(self, tmp_path, capsys):
        out = str(tmp_path / "t9.json")
        assert run(capsys, "gen", "--topo", "torus", "--dims", "3,3",
                   "--out", out)[0] == 0
        return out

    def test_solve_link(self, torus9, capsys):
        rc, stdout, _ = run(capsys, "solve", "--algo", "link",
                            "--graph", torus9)
        assert rc == 0
        # "F = <F> in [<F_lo>, <F_hi>] (gap <gap>)"
        assert float(stdout.split()[2]) == pytest.approx(1 / 3, abs=1e-6)
        assert "in [" in stdout and "(gap " in stdout

    def test_solve_decomp_saves_solution(self, torus9, tmp_path, capsys):
        out = str(tmp_path / "sol.json")
        rc, stdout, _ = run(capsys, "solve", "--algo", "decomp",
                            "--graph", torus9, "--out", out)
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "link" and doc["F"] == pytest.approx(1 / 3)
        quality = json.loads(open(out + ".manifest.json").read())["quality"]
        assert quality["F_lo"] <= quality["F_hi"]
        assert quality["F_lo"] == pytest.approx(1 / 3)
        assert quality["gap"] <= 1e-9
        assert set(quality["residuals"]) == {"capacity", "conservation",
                                             "delivery"}
        assert max(quality["residuals"].values()) <= 1e-9

    def test_solve_path_disjoint(self, torus9, capsys):
        rc, stdout, _ = run(capsys, "solve", "--algo", "path",
                            "--graph", torus9, "--paths", "disjoint")
        assert rc == 0
        assert float(stdout.split("=")[1]) > 0

    def test_routes_then_eval(self, torus9, tmp_path, capsys):
        routes = str(tmp_path / "routes.json")
        rc, stdout, _ = run(capsys, "routes", "--algo", "extp",
                            "--graph", torus9, "--out", routes)
        assert rc == 0
        assert float(stdout.rsplit("=", 1)[1]) == pytest.approx(3.0, abs=1e-4)
        rc, stdout, _ = run(capsys, "eval", "--graph", torus9,
                            "--routes", routes, "--m", "2.0")
        assert rc == 0
        assert float(stdout.split("=")[1].split(",")[0]) \
            == pytest.approx(6.0, abs=1e-3)

    def test_routes_sssp_layers(self, torus9, tmp_path, capsys):
        routes = str(tmp_path / "routes.json")
        assert run(capsys, "routes", "--algo", "sssp", "--graph", torus9,
                   "--out", routes)[0] == 0
        layers_out = str(tmp_path / "layers.json")
        rc, stdout, _ = run(capsys, "layers", "--graph", torus9,
                            "--routes", routes, "--out", layers_out)
        assert rc == 0 and "verified = True" in stdout
        doc = json.loads(open(layers_out).read())
        assert len(doc) == 9 * 8

    def test_extp_multipath_layers_genkautz27(self, tmp_path, capsys):
        graph, routes = str(tmp_path / "gk27.json"), str(tmp_path / "r.json")
        layers_out = str(tmp_path / "layers.json")
        assert run(capsys, "gen", "--topo", "genkautz", "--n", "27",
                   "--d", "4", "--out", graph)[0] == 0
        assert run(capsys, "routes", "--algo", "extp", "--graph", graph,
                   "--out", routes)[0] == 0
        recs = json.loads(open(routes).read())["routes"]
        assert any(len(r["paths"]) > 1 for r in recs)
        rc, stdout, _ = run(capsys, "layers", "--graph", graph,
                            "--routes", routes, "--out", layers_out)
        assert rc == 0 and "verified = True" in stdout
        # one entry per path: s-d, or s-d-i when the commodity has several
        want = {f"{r['s']}-{r['d']}" if len(r["paths"]) == 1
                else f"{r['s']}-{r['d']}-{i}"
                for r in recs for i in range(len(r["paths"]))}
        assert set(json.loads(open(layers_out).read())) == want

    def test_routes_ilp_genkautz27(self, tmp_path, capsys):
        graph, routes = str(tmp_path / "gk27.json"), str(tmp_path / "r.json")
        assert run(capsys, "gen", "--topo", "genkautz", "--n", "27",
                   "--d", "4", "--out", graph)[0] == 0
        rc, stdout, _ = run(capsys, "routes", "--algo", "ilp",
                            "--graph", graph, "--out", routes)
        assert rc == 0
        assert float(stdout.rsplit("=", 1)[1]) == pytest.approx(15.0, abs=1e-6)


class TestCompileEval:
    def test_ts_pipeline(self, tmp_path, capsys):
        g = str(tmp_path / "ring.json")
        sol = str(tmp_path / "sol.json")
        xml = str(tmp_path / "sched.xml")
        assert run(capsys, "gen", "--topo", "torus", "--dims", "5",
                   "--out", g)[0] == 0
        rc, stdout, _ = run(capsys, "solve", "--algo", "ts", "--graph", g,
                            "--out", sol)
        assert rc == 0 and "sum U_t" in stdout
        rc, stdout, _ = run(capsys, "compile", "--mode", "ts", "--graph", g,
                            "--sol", sol, "--out", xml)
        assert rc == 0 and "nsteps" in stdout
        rc, stdout, _ = run(capsys, "eval", "--graph", g, "--sched", xml)
        assert rc == 0 and "delivered = True" in stdout
        manifest = json.loads(open(xml + ".manifest.json").read())
        assert sol in manifest["inputs"]

    def test_malformed_solution_is_domain_error(self, tmp_path, capsys):
        g = str(tmp_path / "ring.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run(capsys, "gen", "--topo", "torus", "--dims", "3",
                   "--out", g)[0] == 0
        rc, _, stderr = run(capsys, "compile", "--mode", "ts", "--graph", g,
                            "--sol", str(bad), "--out",
                            str(tmp_path / "s.xml"))
        assert rc == 1 and str(bad) in stderr and "'kind'" in stderr

    def test_link_solution_in_ts_mode_is_domain_error(self, tmp_path,
                                                      capsys):
        g = str(tmp_path / "t9.json")
        sol = str(tmp_path / "sol.json")
        assert run(capsys, "gen", "--topo", "torus", "--dims", "3,3",
                   "--out", g)[0] == 0
        assert run(capsys, "solve", "--algo", "decomp", "--graph", g,
                   "--out", sol)[0] == 0
        rc, _, stderr = run(capsys, "compile", "--mode", "ts", "--graph", g,
                            "--sol", sol, "--out", str(tmp_path / "s.xml"))
        assert rc == 1
        assert "time-stepped solution (kind 'ts'), got LinkFlowSolution" \
            in stderr

    def test_non_integer_xml_attribute_is_domain_error(self, tmp_path,
                                                       capsys):
        g = str(tmp_path / "ring.json")
        bad = tmp_path / "bad.xml"
        bad.write_text('<schedule n="x" nsteps="1" chunkbytes="1.0" q="1" '
                       'mode="ts"></schedule>')
        assert run(capsys, "gen", "--topo", "torus", "--dims", "3",
                   "--out", g)[0] == 0
        rc, _, stderr = run(capsys, "eval", "--graph", g, "--sched", str(bad))
        assert rc == 1 and "attribute n='x' on <schedule>" in stderr

    def test_path_pipeline(self, tmp_path, capsys):
        g = str(tmp_path / "t9.json")
        routes = str(tmp_path / "routes.json")
        xml = str(tmp_path / "sched.xml")
        assert run(capsys, "gen", "--topo", "torus", "--dims", "3,3",
                   "--out", g)[0] == 0
        assert run(capsys, "routes", "--algo", "dor", "--graph", g,
                   "--out", routes)[0] == 0
        rc, stdout, _ = run(capsys, "compile", "--mode", "path",
                            "--graph", g, "--sol", routes, "--out", xml)
        assert rc == 0 and "routes=" in stdout
        assert json.loads(open(xml + ".routes.json").read())["routes"]


class TestBoundCompare:
    def test_bound_closed_form(self, capsys):
        rc, stdout, _ = run(capsys, "bound", "--n", "27", "--d", "6")
        assert rc == 0
        doc = json.loads(stdout)
        assert doc["time_lb"] == pytest.approx(doc["tau"] / 6)

    def test_bound_needs_args(self, capsys):
        rc, _, stderr = run(capsys, "bound")
        assert rc == 1 and "error" in stderr

    def test_bound_too_few_nodes_is_domain_error(self, capsys):
        rc, _, stderr = run(capsys, "bound", "--n", "1", "--d", "4")
        assert rc == 1 and "need n >= 2" in stderr

    def test_compare_json(self, tmp_path, capsys):
        out = str(tmp_path / "cmp.json")
        rc, _, _ = run(capsys, "compare", "--topos", "genkautz",
                       "--n-range", "27", "--d", "4", "--out", out)
        assert rc == 0
        rows = [json.loads(line) for line in open(out) if line.strip()]
        assert rows[0]["label"] == "genkautz-27"
        assert rows[0]["ratio"] >= 1.0 - 1e-9
        assert 0.0 <= rows[0]["gap"] <= 1e-6
        assert rows[0]["lp_solves"] == 1

    def test_compare_csv_stdout(self, capsys):
        rc, stdout, _ = run(capsys, "compare", "--topos", "torus",
                            "--n-range", "9", "--d", "4", "--format", "csv")
        assert rc == 0 and "label" in stdout.splitlines()[0]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
