import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmcgraph import barrier, solver
from pmcgraph.cli import main
from pmcgraph.errors import SingularSystemError


ANNULUS_EIGHTH = {"domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
                  "curvature": {"constant": -0.3}, "spacing": 1.0 / 8}
PENTAGON = [[0, 0], [2, 0], [2, 1.5], [1, 2.5], [0, 1.5]]


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

    @pytest.mark.parametrize("h", [0.3, 0.0])
    def test_constants_are_computed_once(self, tmp_path, capsys, monkeypatch,
                                         h):
        calls = []
        constants = barrier.barrier_constants

        def count(*args, **kwargs):
            calls.append(args)
            return constants(*args, **kwargs)

        monkeypatch.setattr(barrier, "barrier_constants", count)
        assert run(["barrier", "--h", h, "--r", 1, "--R", 2,
                    "--out", tmp_path]) == 0
        assert len(calls) == 1
        printed = dict(item.split("=", 1)
                       for item in capsys.readouterr().out.split()[1:])
        params = json.loads((tmp_path / "params.json").read_text())
        assert float(printed["C1"]) == params["C1"]
        assert float(printed["C2"]) == params["C2"]

    def test_bound_violation_exits_2(self, tmp_path, capsys):
        code = run(["barrier", "--dim", 2, "--h", 0.9, "--r", 1, "--R", 2,
                    "--out", tmp_path])
        assert code == 2
        assert "0.8" in capsys.readouterr().err

    def test_huge_outer_radius_is_refused(self, tmp_path, capsys):
        # the bound tends to 0 as R grows; no power of R may overflow
        code = run(["barrier", "--h", 0.1, "--r", 1, "--R", 1e300,
                    "--out", tmp_path])
        assert code == 2
        assert "the bound 0.0" in capsys.readouterr().err


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

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_huge_annulus_fails_smallness(self, tmp_path, source):
        # (2r + d)^n and the volume's r_out^n exceed the float range here
        if source == "flags":
            args = ["--annulus", 1, 1e200, "--h", 0.1]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 1e200},
                "curvature": {"constant": 0.1}}))
            args = ["--config", cfg]
        out = tmp_path / "out"
        assert run(["check", *args, "--out", out]) == 2
        report = json.loads((out / "condition_report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["annulus_smallness"]["verdict"] == "fail"
        assert checks["annulus_smallness"]["bound"] == 0.0
        assert checks["volume_smallness"]["bound"] == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("domain, extra", [
        ({"kind": "convex_polygon", "vertices": PENTAGON},
         {"annulus_r": 1e160}),
        ({"kind": "disc", "radius": 1.0, "center": [1e200, 0.0]}, {}),
    ], ids=["pentagon", "far-disc"])
    def test_no_annulus_fit_leaves_the_other_checks(self, tmp_path, domain,
                                                    extra):
        # neither domain has an annulus fit in floats; the strip decides
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": domain,
                                   "curvature": {"constant": 0.2}, **extra}))
        assert run(["check", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "condition_report.json").read_text())
        assert report["overall"] == "existence-guaranteed"
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        assert verdicts["annulus_smallness"] == "not-applicable"
        assert verdicts["strip_smallness"] == "pass"

    @pytest.mark.filterwarnings("error")
    def test_bitmap_with_huge_cells_ends_in_a_verdict(self, tmp_path):
        yy, xx = np.mgrid[0:9, 0:9]
        disc = ((xx - 4) ** 2 + (yy - 4) ** 2 <= 12).astype(int).tolist()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "grid_mask", "cell_size": 1e200,
                       "bitmap": disc},
            "curvature": {"constant": 0.2}}))
        assert run(["check", "--config", cfg, "--out", tmp_path]) in (0, 2, 3)
        report = json.loads((tmp_path / "condition_report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert math.isfinite(checks["strip_smallness"]["bound"])

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["check", "--config", bad, "--out", tmp_path]) == 64

    def test_missing_domain(self, tmp_path):
        assert run(["check", "--h", 0.3, "--out", tmp_path]) == 64


class TestNumericFlags:
    @pytest.mark.parametrize("args", [
        ["check", "--disc", 1, "--h", "nan"],
        ["check", "--annulus", 1, "inf", "--h", 0.3],
        ["nonexist", "--h", 1, "--num", -1],
        ["nonexist", "--h", 1, "--num", 0],
        ["blowup", "--samples", 0],
        ["barrier", "--h", 0.1, "--r", 1, "--R", "nan"],
        ["barrier", "--h", "inf", "--r", 1, "--R", 2],
    ], ids=["check-h-nan", "check-annulus-inf", "nonexist-num-negative",
            "nonexist-num-zero", "blowup-samples-zero", "barrier-R-nan",
            "barrier-h-inf"])
    def test_malformed_flags_exit_64(self, tmp_path, args):
        # refused by argparse, before the output directory is made
        out = tmp_path / "out"
        assert run(args + ["--out", out]) == 64
        assert not out.exists()


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

    @pytest.mark.filterwarnings("error")
    def test_solve_with_no_annulus_fit_reports_the_unit_slab(self, tmp_path):
        # the pentagon has no annulus fit in floats at annulus_r 1e160, so
        # no barrier: the gradient hypotheses take the slab max(sup|f|, 1),
        # as with no admissible barrier; verify, which needs the barrier's
        # C1 and C2, stays indeterminate
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "convex_polygon", "vertices": PENTAGON},
            "curvature": {"constant": 0.2}, "spacing": 0.125,
            "annulus_r": 1e160}))
        out = tmp_path / "solve"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "converged"
        assert report["gradient_hypotheses"]["slab_height"] == max(
            report["sup_norm"], 1.0)
        assert sorted(p.name for p in out.iterdir()) == [
            "solution.csv", "solve_report.json"]
        assert run(["verify", "--config", cfg,
                    "--out", tmp_path / "verify"]) == 3

    def test_reports_list_the_levels(self, tmp_path):
        # the pentagon at 1/32 with the monotone table field: a chain down
        # to 1/16, the first grid with at most COARSEST_DOF nodes; verify
        # at 1/16 walks the same chain, and a field decreasing in z runs
        # the homotopy on the requested grid alone
        table = {"x": [0.0, 2.0], "y": [0.0, 2.5],
                 "values": [[-0.3, -0.2], [-0.2, -0.3]]}
        base = {"domain": {"kind": "convex_polygon",
                           "vertices": [[0, 0], [2, 0], [2, 1.5], [1, 2.5],
                                        [0, 1.5]]},
                "curvature": {"table": table, "z_slope": 0.1}}
        runs = {"solve": ("solve", 1.0 / 32, 0.1),
                "verify": ("verify", 1.0 / 16, 0.1),
                "homotopy": ("solve", 1.0 / 32, -0.1)}
        reports = {}
        for name, (command, spacing, z_slope) in runs.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({
                **base, "spacing": spacing,
                "curvature": {"table": table, "z_slope": z_slope}}))
            out = tmp_path / name
            assert run([command, "--config", cfg, "--out", out]) == 0
            report = "solve_report.json" if command == "solve" else \
                "estimate_report.json"
            reports[name] = json.loads((out / report).read_text())
        chain = [(1.0 / 16, 969, "chain"), (1.0 / 32, 3985, "chain")]
        for name in ("solve", "verify"):
            levels = reports[name]["levels"]
            assert [(level["spacing"], level["n_dof"], level["path"])
                    for level in levels] == chain
            assert [level["factorizations"] for level in levels] == [1, 1]
            assert all(level["newton_iters"] > 0 and level["krylov_iters"] > 0
                       for level in levels)
        (step,) = reports["solve"]["trace"]
        assert {key: reports["solve"]["levels"][-1][key] for key in
                ("newton_iters", "krylov_iters", "factorizations")} == {
            key: step[key] for key in
            ("newton_iters", "krylov_iters", "factorizations")}
        (level,) = reports["homotopy"]["levels"]
        trace = reports["homotopy"]["trace"]
        assert len(trace) == 11
        assert level == {
            "spacing": 1.0 / 32, "n_dof": 3985, "path": "homotopy",
            **{key: sum(step[key] for step in trace) for key in
               ("newton_iters", "krylov_iters", "factorizations")}}

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

    def test_newton_failing_everywhere_stalls_at_zero(self, tmp_path,
                                                      monkeypatch):
        # the climb and the homotopy catch every Newton error, so the one
        # failure that reaches solve is the homotopy's stall
        def singular(*args, **kwargs):
            raise SingularSystemError("singular")

        monkeypatch.setattr(solver, "newton_solve", singular)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(ANNULUS_EIGHTH))
        out = tmp_path / "stall"
        assert run(["solve", "--config", cfg, "--out", out]) == 3
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "continuation-stalled"
        assert report["stall_t"] == 0.0

    def test_verify_stall_reports_as_solve_does(self, tmp_path):
        # one Newton iteration per step stalls the homotopy at once, and
        # verify's first solve is solve's at the same spacing: the two
        # stall reports are the same, trace included
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**ANNULUS_EIGHTH, "max_iters": 1}))
        out = tmp_path / "stall"
        assert run(["solve", "--config", cfg, "--out", out]) == 3
        assert run(["verify", "--config", cfg, "--out", out]) == 3
        report = json.loads((out / "estimate_report.json").read_text())
        assert report["status"] == "continuation-stalled"
        assert report["trace"][0]["t"] == 0.0
        assert ((out / "estimate_report.json").read_bytes()
                == (out / "solve_report.json").read_bytes())

    def test_verify_passes_on_annulus(self, tmp_path, annulus_config):
        out = tmp_path / "verify"
        assert run(["verify", "--config", annulus_config, "--out", out]) == 0
        report = json.loads((out / "estimate_report.json").read_text())
        assert report["status"] == "checked"
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        assert set(verdicts.values()) == {"pass"}

    @pytest.mark.parametrize("h", [0.0, -0.3])
    def test_solve_and_verify_report_the_same_hypotheses(self, tmp_path, h):
        # one slab rule for both commands: the barrier's height C1 when
        # the annulus admits a barrier, the catenoid's for H = 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
            "curvature": {"constant": h}, "spacing": 0.125}))
        reports = []
        for command, name in (("solve", "solve_report.json"),
                              ("verify", "estimate_report.json")):
            out = tmp_path / command
            assert run([command, "--config", cfg, "--out", out]) == 0
            reports.append(json.loads((out / name).read_text()))
        solved, verified = (r["gradient_hypotheses"] for r in reports)
        assert solved == verified
        assert solved["slab_height"] < 1.0

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

    @pytest.mark.parametrize("boundary", [
        0.5, {"constant": 0.5}, {"linear": [0.1, 0.0, 0.0]}])
    def test_verify_rejects_nonzero_boundary(self, tmp_path, capsys,
                                             boundary):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**ANNULUS_EIGHTH, "boundary": boundary}))
        out = tmp_path / "verify"
        assert run(["verify", "--config", cfg, "--out", out]) == 64
        assert "zero-boundary" in capsys.readouterr().err
        assert not (out / "estimate_report.json").exists()

    def test_verify_accepts_zero_boundary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**ANNULUS_EIGHTH,
                                   "boundary": {"constant": 0}}))
        out = tmp_path / "verify"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        assert (out / "estimate_report.json").exists()

    @pytest.mark.parametrize("override, message, command", [
        ({"spacing": "fine"}, "config 'spacing'", "solve"),
        ({"max_iters": None}, "config 'max_iters'", "solve"),
        ({"domain": {"kind": "annulus", "r_in": 1.0}},
         "config 'domain': missing entry 'r_out'", "solve"),
        ({"curvature": {"constant": "big"}}, "config 'curvature'", "solve"),
        ({"boundary": {"linear": [1, 2]}}, "config 'boundary'", "solve"),
        ({"annulus_r": "big"}, "config 'annulus_r'", "solve"),
        ({"annulus_r": -1.0}, "config 'annulus_r': must be positive",
         "verify"),
        ({"samples": "many"}, "config 'samples'", "check"),
        ({"samples": 2.5}, "config 'samples': must be an integer", "check"),
        ({"annulus_r": math.inf}, "config 'annulus_r': must be positive",
         "verify"),
        ({"samples": 1e400}, "config 'samples'", "check"),
        ({"max_iters": 1e400}, "config 'max_iters'", "solve"),
        ({"max_iters": 1.7}, "config 'max_iters': must be an integer",
         "solve"),
        ({"max_iters": True}, "config 'max_iters': must be an integer",
         "solve"),
        ({"max_iters": "40"}, "config 'max_iters': must be an integer",
         "solve"),
        ({"max_iters": 0}, "config 'max_iters': must be positive", "solve"),
        ({"max_iters": -3}, "config 'max_iters': must be positive",
         "verify"),
        ({"dim": 1}, "graph dimension must be an integer >= 2, got 1",
         "check"),
        ({"dim": 2.5}, "config 'dim': must be an integer", "check"),
        # refused before the lattice's arrays are allocated
        ({"domain": {"kind": "disc", "radius": 1.0}, "spacing": 1e-7},
         "a lattice of 400000200000025 nodes", "solve"),
        ({"domain": {"kind": "disc", "radius": 1.0}, "spacing": 1e-7},
         "a lattice of 400000200000025 nodes", "verify"),
        ({"tol": math.nan}, "config 'tol': must be positive", "solve"),
        ({"tol": math.nan}, "config 'tol': must be positive", "verify"),
        ({"spacing": math.nan}, "config 'spacing': must be positive",
         "solve"),
        ({"spacing": math.nan}, "config 'spacing': must be positive",
         "verify"),
        # the homotopy's steps are fixed: a schedule is refused, not ignored
        ({"schedule": [0.0, 0.5, 1.0]}, "config 'schedule'", "solve"),
        ({"schedule": [0.0, 0.5, 1.0]}, "config 'schedule'", "verify"),
        # a misspelt key does not fall back to the default it meant to change
        ({"spacng": 0.5}, "config 'spacng': unknown key", "solve"),
        ({"tolerance": 1e-6}, "config 'tolerance': unknown key", "verify"),
        ({"sample": 64}, "config 'sample': unknown key", "check"),
        ({"_base_dir": "."}, "config '_base_dir': unknown key", "check"),
        # non-finite and wrong-typed values are refused where they are read
        ({"curvature": {"constant": math.inf}},
         "config 'curvature': must be finite", "check"),
        ({"curvature": {"constant": math.nan}},
         "config 'curvature': must be finite", "solve"),
        ({"curvature": {"table": {"x": [0, 1], "y": [0, 1],
                                  "values": [[0.1, math.nan], [0.1, 0.1]]}}},
         "config 'curvature': must be finite", "solve"),
        ({"curvature": {"table": {"x": [0, 1], "y": [0, 1],
                                  "values": [[0.1, 0.1], [0.1, 0.1]]},
                        "z_slope": math.nan}},
         "config 'curvature': must be finite", "solve"),
        ({"boundary": {"constant": math.nan}},
         "config 'boundary': must be finite", "solve"),
        ({"boundary": {"linear": [math.nan, 0, 0]}},
         "config 'boundary': must be finite", "solve"),
        ({"curvature": {"table": {"x": [0, 1], "y": [0, 1],
                                  "values": [[0.1, 0.1], [math.nan, 0.1]]}}},
         "config 'curvature': must be finite", "check"),
        ({"curvature": {"table": {"x": [0, math.nan], "y": [0, 1],
                                  "values": [[0.1, 0.1], [0.1, 0.1]]}}},
         "config 'curvature': must be finite", "check"),
        ({"curvature": {"table": {"x": [1, 0], "y": [0, 1],
                                  "values": [[0.1, 0.1], [0.1, 0.1]]}}},
         "must increase strictly", "check"),
        ({"domain": {"kind": "disc", "radius": 1.0,
                     "center": [math.nan, 0.0]}},
         "config 'domain': must be finite", "check"),
        ({"domain": {"kind": "disc", "radius": 1.0,
                     "center": [0.0, 0.0, 5.0]}},
         "disc center must be two finite coordinates", "check"),
        ({"domain": {"kind": "disc", "radius": 1.0, "center": [0.0]}},
         "disc center must be two finite coordinates", "check"),
        ({"domain": {"kind": "grid_mask", "cell_size": 0.5,
                     "bitmap": [[1, 1, 1], [1, "x", 1], [1, 1, 1]]}},
         "bitmap entries must be 0 or 1", "check"),
        ({"domain": {"kind": "annulus", "r_in": 1.0, "r_out": "2"}},
         "config 'domain': must be a number", "check"),
        ({"spacing": True}, "config 'spacing': must be a number", "solve"),
    ], ids=["spacing-string", "max-iters-null", "annulus-without-r-out",
            "curvature-string", "boundary-short-linear", "annulus-r-string",
            "annulus-r-negative", "samples-string", "samples-fraction",
            "annulus-r-infinite", "samples-overflow", "max-iters-overflow",
            "max-iters-fraction", "max-iters-bool", "max-iters-string",
            "max-iters-zero", "max-iters-negative", "dim-one", "dim-fraction",
            "lattice-cap-solve", "lattice-cap-verify",
            "tol-nan-solve", "tol-nan-verify", "spacing-nan-solve",
            "spacing-nan-verify", "schedule-key-solve", "schedule-key-verify",
            "unknown-key-solve", "unknown-key-verify", "unknown-key-check",
            "internal-key-check",
            "curvature-infinite-check", "curvature-nan-solve",
            "table-value-nan-solve", "z-slope-nan-solve",
            "boundary-constant-nan", "boundary-linear-nan",
            "table-value-nan-check", "table-knot-nan-check",
            "table-knots-decreasing", "disc-center-nan", "disc-center-3d",
            "disc-center-1d", "bitmap-string-entry", "annulus-r-out-string",
            "spacing-bool"])
    def test_malformed_values_exit_64(self, tmp_path, capsys, override,
                                      message, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**ANNULUS_EIGHTH, **override}))
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", out]) == 64
        assert message in capsys.readouterr().err
        # refused before any solve: no report and no solution.csv
        assert list(out.iterdir()) == []

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

    def test_nonzero_boundary_on_curved_domain_converges(self, tmp_path):
        # from a zero start this stalls at the minimal-surface member
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
            "curvature": {"constant": -0.5},
            "boundary": {"linear": [0.3, -0.2, 0.1]},
            "spacing": 1.0 / 16}))
        out = tmp_path / "annulus"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "converged"
        assert report["residual_inf"] <= 1e-10

    @pytest.mark.parametrize("spacing", [0.1, 0.05])
    def test_plane_on_pentagon_converges(self, tmp_path, spacing):
        # the plane 0.4x - 1.1y + 0.3 is the exact solution for H = 0;
        # lattice points on the slanted edges are boundary nodes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "convex_polygon",
                       "vertices": [[0, 0], [2, 0], [2, 1.5], [1, 2.5],
                                    [0, 1.5]]},
            "curvature": {"constant": 0.0},
            "boundary": {"linear": [0.4, -1.1, 0.3]},
            "spacing": spacing, "tol": 1e-10}))
        out = tmp_path / "plane"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "converged"
        assert report["residual_inf"] <= 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spacing", [1e20, 1e200])
    def test_grid_coarser_than_the_domain_exits_64(self, tmp_path, capsys,
                                                   spacing):
        # the one lattice node inside the disc is a hair from its boundary
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "disc", "radius": 1.0,
                       "center": [0.5, -0.25]},
            "curvature": {"constant": 0.3}, "spacing": spacing}))
        assert run(["solve", "--config", cfg, "--out",
                    tmp_path / "coarse"]) == 64
        assert "no lattice nodes fall inside" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("h", [0.0, 1e-201, 0.1])
    @pytest.mark.parametrize("domain", [
        {"kind": "disc", "radius": 1e200},
        {"kind": "annulus", "r_in": 1e200, "r_out": 2e200},
    ], ids=["disc", "annulus"])
    def test_huge_domains_end_in_a_verdict(self, tmp_path, domain, h):
        # the barrier radius's square is past the float range here
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": domain,
                                   "curvature": {"constant": h},
                                   "spacing": 1e199}))
        codes = {cmd: run([cmd, "--config", cfg, "--out", tmp_path / cmd])
                 for cmd in ("solve", "verify", "check")}
        assert set(codes.values()) <= {0, 2, 3, 64}
        if h == 0.0:
            assert codes["solve"] == 0
            _, table = read_csv(tmp_path / "solve" / "solution.csv")
            assert len(table) and not table[:, 2].any()
            # the catenoid's inner slope c / sqrt(r^2 - c^2) at c = r / 2
            assert codes["verify"] == 0
            report = json.loads(
                (tmp_path / "verify" / "estimate_report.json").read_text())
            assert report["bgrad_bound"] == pytest.approx(3 ** -0.5,
                                                          rel=1e-15)
        if h == 1e-201:
            assert codes["verify"] == 2
            report = json.loads(
                (tmp_path / "verify" / "estimate_report.json").read_text())
            assert report["status"] == "no-admissible-barrier"

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

    def test_outer_radius_an_ulp_above_b(self, tmp_path):
        # at the lowest feasible c the profile's zero b lands one ulp below
        # the outer radius, which the height integral must accept there as
        # it accepts a at its lower end
        code = run(["nonexist", "--dim", 2, "--h", 0.5636617307353248,
                    "--outer", 2.813491328706566,
                    "--eps", 1.4921266620748224, "--out", tmp_path])
        assert code == 0
        _, table = read_csv(tmp_path / "nonexist.csv")
        assert table[0, 1] == 1.0

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


class TestImports:
    @staticmethod
    def fresh_process(script, *args):
        """Last line of standard output of ``script`` run in a fresh
        interpreter that imports pmcgraph from this checkout."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        return done.stdout.splitlines()[-1]

    def test_analytic_solve_never_loads_ndimage(self, tmp_path):
        # only bitmap domains use scipy.ndimage; a fresh process that
        # imports the CLI and solves on a disc must not load it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": {"kind": "disc", "radius": 1.0},
                                   "curvature": {"constant": 0.5},
                                   "spacing": 0.125}))
        script = ("import sys\n"
                  "from pmcgraph.cli import main\n"
                  "code = main(['solve', '--config', sys.argv[1],"
                  " '--out', sys.argv[2]])\n"
                  "print(code, 'scipy.ndimage' in sys.modules)\n")
        last = self.fresh_process(script, cfg, tmp_path / "out")
        assert last.split() == ["0", "False"]

    def test_analytic_commands_load_only_sparse_and_linalg(self, tmp_path):
        # annuli and discs need numpy, scipy.sparse(.linalg) and
        # scipy.linalg only: no quadrature, optimizer, qhull or special
        # functions, neither at import nor in verify or solve
        annulus, disc = tmp_path / "annulus.json", tmp_path / "disc.json"
        annulus.write_text(json.dumps(ANNULUS_EIGHTH))
        disc.write_text(json.dumps({"domain": {"kind": "disc", "radius": 1.0},
                                    "curvature": {"constant": 0.5},
                                    "spacing": 0.125}))
        script = (
            "import json, sys\n"
            "from pmcgraph.cli import main\n"
            "banned = ('scipy.integrate', 'scipy.optimize', 'scipy.spatial',"
            " 'scipy.special')\n"
            "def loaded():\n"
            "    return [m for m in banned if m in sys.modules]\n"
            "stages = [['import', 0, loaded()]]\n"
            "for cmd, cfg, out in (('verify', sys.argv[1], sys.argv[3]),"
            " ('solve', sys.argv[2], sys.argv[4])):\n"
            "    code = main([cmd, '--config', cfg, '--out', out])\n"
            "    stages.append([cmd, code, loaded()])\n"
            "print(json.dumps(stages))\n")
        last = self.fresh_process(script, annulus, disc, tmp_path / "verify",
                                  tmp_path / "solve")
        assert json.loads(last) == [["import", 0, []], ["verify", 0, []],
                                    ["solve", 0, []]]

    def test_polygon_and_bitmap_commands_load_no_optimizer(self, tmp_path):
        # the annulus fit's Nelder-Mead and the inscribed disc are numpy
        # code: check, solve and verify on a polygon, and solve and verify
        # on a bitmap, load no optimizer, qhull or quadrature
        polygon, bitmap = tmp_path / "polygon.json", tmp_path / "bitmap.json"
        polygon.write_text(json.dumps({
            "domain": {"kind": "convex_polygon",
                       "vertices": [[0, 0], [2, 0], [2, 1.5], [1, 2.5],
                                    [0, 1.5]]},
            "curvature": {"constant": -0.3}, "spacing": 0.125}))
        ring = [[int(1 <= i <= 8 and 1 <= j <= 8
                     and not (4 <= i <= 5 and 4 <= j <= 5))
                 for i in range(10)] for j in range(10)]
        bitmap.write_text(json.dumps({
            "domain": {"kind": "grid_mask", "cell_size": 0.125,
                       "bitmap": ring},
            "curvature": {"constant": -0.3}}))
        script = (
            "import json, sys\n"
            "from pmcgraph.cli import main\n"
            "banned = ('scipy.integrate', 'scipy.optimize', 'scipy.spatial')\n"
            "stages = []\n"
            "for cfg, cmds in ((sys.argv[1], ('check', 'solve', 'verify')),"
            " (sys.argv[2], ('solve', 'verify'))):\n"
            "    for cmd in cmds:\n"
            "        code = main([cmd, '--config', cfg, '--out',"
            " sys.argv[3] + '/' + cmd])\n"
            "        stages.append([cmd, code,"
            " [m for m in banned if m in sys.modules]])\n"
            "print(json.dumps(stages))\n")
        last = self.fresh_process(script, polygon, bitmap, tmp_path)
        # a bitmap has no refined grid for verify's estimate, so it exits 64
        # after reading the domain
        assert json.loads(last) == [["check", 0, []], ["solve", 0, []],
                                    ["verify", 0, []], ["solve", 0, []],
                                    ["verify", 64, []]]
