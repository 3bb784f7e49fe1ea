import json
import math
from pathlib import Path

import numpy as np
import pytest

from pmcgraph.cli import main


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())
            if p.is_file()}


class TestBarrierCommand:
    def test_figure_parameters(self, tmp_path):
        # h near 1/3 over [1, 2.9]: endpoints of the slope interval land
        # near the figure values a = 1, b = 4
        code = run(["barrier", "--dim", 2, "--h", 0.3333333, "--r", 1,
                    "--R", 2.9, "--svg", "--out", tmp_path])
        assert code == 0
        params = json.loads((tmp_path / "params.json").read_text())
        assert abs(params["a"] - 1.0) <= 0.05
        assert abs(params["b"] - 4.0) <= 0.05
        header, table = read_csv(tmp_path / "profile.csv")
        assert header == ["t", "p", "p_prime"]
        assert table[0, 1] == 0.0
        # rise to the apex, fall beyond it
        peak = table[:, 1].argmax()
        assert 0 < peak < len(table) - 1
        assert (tmp_path / "profile.svg").read_text().startswith("<svg")

    def test_catenary_profile(self, tmp_path):
        code = run(["barrier", "--dim", 2, "--h", 0, "--r", 1, "--R", 5,
                    "--out", tmp_path])
        assert code == 0
        _, table = read_csv(tmp_path / "profile.csv")
        c = 0.5
        expected = c * (np.arccosh(table[:, 0] / c) - math.acosh(1.0 / c))
        assert np.max(np.abs(table[:, 1] - expected)) <= 1e-8

    def test_bound_violation_exits_2(self, tmp_path, capsys):
        code = run(["barrier", "--dim", 2, "--h", 0.9, "--r", 1, "--R", 2,
                    "--out", tmp_path])
        assert code == 2
        assert "0.8" in capsys.readouterr().err


class TestCheckCommand:
    def test_annulus_pass(self, tmp_path):
        code = run(["check", "--annulus", 1, 2, "--h", 0.3, "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "condition_report.json").read_text())
        assert report["overall"] == "existence-guaranteed"
        names = {c["name"]: c["verdict"] for c in report["checks"]}
        assert names["annulus_smallness"] == "pass"

    def test_thin_annulus_fails_smallness(self, tmp_path):
        code = run(["check", "--annulus", 0.05, 1, "--h", 1.0, "--out", tmp_path])
        assert code == 3
        report = json.loads((tmp_path / "condition_report.json").read_text())
        assert report["overall"] == "indeterminate"
        names = {c["name"]: c["verdict"] for c in report["checks"]}
        assert names["annulus_smallness"] == "fail"

    def test_overcurved_disc_violates_necessary_condition(self, tmp_path):
        code = run(["check", "--disc", 1, "--h", 1.2, "--out", tmp_path])
        assert code == 2
        report = json.loads((tmp_path / "condition_report.json").read_text())
        assert report["overall"] == "necessary-condition-violated"

    def test_convex_strip_pass(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "convex_polygon",
                       "vertices": [[0, 0], [8, 0], [8, 1], [0, 1]]},
            "curvature": {"constant": 0.9}}))
        code = run(["check", "--config", cfg, "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "condition_report.json").read_text())
        names = {c["name"]: c["verdict"] for c in report["checks"]}
        assert names["strip_smallness"] == "pass"
        assert report["overall"] == "existence-guaranteed"

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["check", "--config", bad, "--out", tmp_path]) == 64

    def test_missing_domain(self, tmp_path):
        assert run(["check", "--h", 0.3, "--out", tmp_path]) == 64


class TestSolveAndVerifyCommands:
    @pytest.fixture
    def annulus_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
            "curvature": {"constant": -0.3},
            "spacing": 0.1}))
        return cfg

    def test_solve_writes_solution_and_report(self, tmp_path, annulus_config):
        out = tmp_path / "solve"
        assert run(["solve", "--config", annulus_config, "--out", out]) == 0
        header, table = read_csv(out / "solution.csv")
        assert header == ["x", "y", "f"]
        assert len(table) > 100
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "converged"
        assert report["residual_inf"] <= 1e-8
        assert report["trace"][-1]["t"] == 1.0
        assert sum(step["factorizations"] for step in report["trace"]) == 1
        assert report["trace"][-1]["krylov_iters"] > 0
        assert report["gradient_hypotheses"]["monotone_ok"] is True

    def test_solve_stall_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "disc", "radius": 1.0},
            "curvature": {"constant": 1.2},
            "spacing": 0.06, "max_iters": 20}))
        out = tmp_path / "stall"
        assert run(["solve", "--config", cfg, "--out", out]) == 3
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "continuation-stalled"
        assert 0.0 < report["stall_t"] < 1.0

    def test_verify_passes_on_annulus(self, tmp_path, annulus_config):
        out = tmp_path / "verify"
        assert run(["verify", "--config", annulus_config, "--out", out]) == 0
        report = json.loads((out / "estimate_report.json").read_text())
        assert report["status"] == "checked"
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        assert set(verdicts.values()) == {"pass"}

    def test_verify_rejects_bitmap_domain(self, tmp_path, capsys):
        n = 21
        y, x = np.mgrid[0:n, 0:n]
        disc = (x - 10) ** 2 + (y - 10) ** 2 <= 8 ** 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "grid_mask", "cell_size": 0.1,
                       "bitmap": disc.astype(int).tolist()},
            "curvature": {"constant": -0.1}, "spacing": 0.1}))
        out = tmp_path / "verify"
        assert run(["verify", "--config", cfg, "--out", out]) == 64
        assert "no refinement" in capsys.readouterr().err
        assert not (out / "estimate_report.json").exists()

    def test_minimal_surface_on_square(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "convex_polygon",
                       "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "curvature": {"constant": 0.0},
            "spacing": 0.1}))
        out = tmp_path / "minimal"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["sup_norm"] == 0.0
        assert len(report["trace"]) == 1

    def test_nonzero_boundary_is_flagged(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "convex_polygon",
                       "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            "curvature": {"constant": 0.0},
            "boundary": {"linear": [0.3, 0.0, 0.0]},
            "spacing": 0.1}))
        out = tmp_path / "lipschitz"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert "no existence guarantee" in report["no_existence_guarantee"]

    def test_table_curvature_spec(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "disc", "radius": 1.0},
            "curvature": {"table": {"x": [-1, 1], "y": [-1, 1],
                                    "values": [[-0.2, -0.2], [-0.2, -0.2]]},
                          "z_slope": 0.1},
            "spacing": 0.1}))
        out = tmp_path / "table"
        assert run(["solve", "--config", cfg, "--out", out]) == 0


class TestNonexistCommand:
    def test_sweep_csv(self, tmp_path):
        code = run(["nonexist", "--dim", 2, "--h", 1, "--outer", 1,
                    "--eps", "0.5,0.3,0.2,0.1", "--out", tmp_path])
        assert code == 0
        header, table = read_csv(tmp_path / "nonexist.csv")
        assert header == ["epsilon", "exists", "sup_p", "bound"]
        exists = table[:, 1].astype(bool)
        assert list(exists) == [True, True, False, False]
        for row in table[exists]:
            assert row[2] <= row[3] + 1e-9

    def test_log_sweep_flags(self, tmp_path):
        code = run(["nonexist", "--dim", 2, "--h", 1, "--outer", 1,
                    "--eps-min", 0.2, "--eps-max", 0.5, "--num", 3,
                    "--out", tmp_path])
        assert code == 0

    def test_bad_eps_list(self, tmp_path):
        assert run(["nonexist", "--h", 1, "--eps", "abc",
                    "--out", tmp_path]) == 64


class TestBlowupCommand:
    def test_reference_values(self, tmp_path):
        code = run(["blowup", "--eps", "1,0.1,0.01", "--out", tmp_path])
        assert code == 0
        header, table = read_csv(tmp_path / "blowup.csv")
        assert header == ["epsilon", "fprime0", "H_bound", "minHz"]
        assert list(table[:, 1]) == [1.0, 10.0, 100.0]
        assert np.all(table[:, 3] < 0.0)


class TestDeterminism:
    def test_repeated_runs_are_bit_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
            "curvature": {"constant": -0.3},
            "spacing": 0.125}))
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert run(["barrier", "--dim", 2, "--h", 0.3, "--r", 1, "--R", 2,
                        "--svg", "--out", out / "barrier"]) == 0
            assert run(["check", "--annulus", 1, 2, "--h", 0.3,
                        "--out", out / "check"]) == 0
            assert run(["solve", "--config", cfg, "--out", out / "solve"]) == 0
            assert run(["nonexist", "--h", 1, "--eps", "0.5,0.2",
                        "--out", out / "nx"]) == 0
            assert run(["blowup", "--eps", "1,0.1", "--out", out / "bl"]) == 0
            outs.append(out)
        for sub in ("barrier", "check", "solve", "nx", "bl"):
            assert dir_bytes(outs[0] / sub) == dir_bytes(outs[1] / sub)

    def test_usage_error_code(self):
        assert run(["barrier", "--h", "oops", "--r", 1, "--R", 2]) == 64
