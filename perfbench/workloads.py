"""Workload inputs, operations and per-operation correctness checks.

Every operation is a sequence of in-process calls to ``pmcgraph.cli.main``
on config files written during set-up.  An operation's outputs are checked
after its timed region ends.

The seed never changes the numbers a workload solves.  Newton, bisection
and quadrature counts depend on every bit of the inputs, and traced runs
must repeat those counts exactly.  Even an equivalent input changes bytes:
rotating the pentagon's vertex list changes the last digit of its area in
the condition report.  So the seed only rotates the order of the
independent ledger commands, and seed 0 gives the reference cases
verbatim.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from pmcgraph.cli import main as cli_main

ANNULUS_CONFIG = {
    "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
    "curvature": {"constant": -0.3},
    "spacing": 1.0 / 32,
}
DISC_CONFIG = {
    "domain": {"kind": "disc", "radius": 1.0},
    "curvature": {"constant": 1.2},
    "spacing": 1.0 / 32,
}
PENTAGON = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.5], [1.0, 2.5], [0.0, 1.5]]
H_TABLE = {
    "x": [0.0, 1.0, 2.0],
    "y": [0.0, 1.25, 2.5],
    "values": [[-0.30, -0.22, -0.30],
               [-0.25, -0.15, -0.25],
               [-0.20, -0.28, -0.20]],
}
POLYGON_TOL = 1e-10
POLYGON_CONFIG = {
    "domain": {"kind": "convex_polygon", "vertices": PENTAGON},
    "curvature": {"table": H_TABLE, "z_slope": 0.1},
    "spacing": 1.0 / 64,
    "tol": POLYGON_TOL,
}
# the acceptance suite's thin-annulus sweep (criterion 07), and its first
# four radii in three dimensions, where existence also flips once
NONEXIST_DIM2_EPS = [0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
NONEXIST_DIM3_EPS = [0.5, 0.3, 0.2, 0.1]
BLOWUP_EPS = [1.0, 0.1, 0.01]
# pinned in tests/test_acceptance.py (c07) and tests/test_solver.py
HEIGHT_BOUND_SLACK = 1e-9
RADIAL_ERROR_FACTOR = 20.0


class CheckFailed(Exception):
    """An operation's outputs are wrong."""


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


def run_cli(argv):
    """One CLI call with its console output captured; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_main([str(a) for a in argv])


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Workload:
    """Inputs made at set-up, one timed operation, and its output check.

    The operation is one ``subcommand`` on the workload's config file
    unless a subclass lists its own commands.
    """

    name = ""
    subcommand = "solve"
    config = None

    def __init__(self, inputs_dir):
        inputs_dir = Path(inputs_dir)
        inputs_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = inputs_dir / f"{self.name}.json"
        _write_json(self.config_path, self.config)

    def commands(self, out):
        return [[self.subcommand, "--config", self.config_path, "--out", out]]

    def operate(self, out):
        """Run the operation's CLI calls; returns their exit codes."""
        return [run_cli(argv) for argv in self.commands(out)]

    def check(self, out, codes):
        raise NotImplementedError

    def details(self):
        """Figures beside the metrics, from the last checked operation."""
        return {}


class AnnulusVerify(Workload):
    """`verify` on Annulus(1, 2), H = -0.3 at 1/32 (fine grid 1/64)."""

    name = "annulus-verify"
    subcommand = "verify"
    config = ANNULUS_CONFIG

    def __init__(self, inputs_dir, seed):
        super().__init__(inputs_dir)
        self._radial = None
        self.err_vs_radial = None

    def radial_profile(self):
        """p(|x|) from radial_shoot(2, 0.3, 1, 2), made once on demand."""
        if self._radial is None:
            from pmcgraph.solver import radial_shoot
            from scipy.interpolate import CubicSpline
            shot = radial_shoot(2, 0.3, 1.0, 2.0)
            self._radial = CubicSpline(shot.table[:, 0], shot.table[:, 1])
        return self._radial

    def check(self, out, codes):
        _require(codes == [0], f"verify exit codes {codes}")
        rep = json.loads((out / "estimate_report.json").read_text())
        _require(rep.get("status") == "checked", f"status {rep.get('status')}")
        verdicts = [c["verdict"] for c in rep["checks"]]
        _require(verdicts and all(v == "pass" for v in verdicts),
                 f"estimate verdicts {verdicts}")
        sol = _read_csv(out / "solution.csv")
        p = self.radial_profile()(np.hypot(sol[:, 0], sol[:, 1]))
        err = float(np.max(np.abs(sol[:, 2] - p)))
        self.err_vs_radial = err
        limit = RADIAL_ERROR_FACTOR * float(rep["error_estimate"])
        _require(err <= limit, f"err_vs_radial {err} above {limit}")

    def details(self):
        return {"err_vs_radial": self.err_vs_radial}


class DiscStall(Workload):
    """`solve` on Disc(1), H = 1.2 at 1/32: the continuation must stall."""

    name = "disc-stall"
    config = DISC_CONFIG

    def __init__(self, inputs_dir, seed):
        super().__init__(inputs_dir)
        self.stall_t = None

    def check(self, out, codes):
        rep = json.loads((out / "solve_report.json").read_text())
        _require(rep.get("status") == "continuation-stalled",
                 f"status {rep.get('status')}")
        _require(codes == [3], f"solve exit codes {codes}")
        t_star = float(rep["stall_t"])
        failed_t = float(rep["diagnostics"]["failed_t"])
        _require(0.0 < t_star < failed_t <= 1.0,
                 f"stall t* = {t_star}, failed_t = {failed_t}")
        self.stall_t = t_star

    def details(self):
        return {"stall_t": self.stall_t}


class PolygonField(Workload):
    """`solve` on a convex pentagon with tabulated H(x, y) + 0.1 z at 1/64."""

    name = "polygon-field"
    config = POLYGON_CONFIG

    def __init__(self, inputs_dir, seed):
        super().__init__(inputs_dir)
        self.first_outputs = None
        self.residual_inf = None

    def check(self, out, codes):
        _require(codes == [0], f"solve exit codes {codes}")
        rep = json.loads((out / "solve_report.json").read_text())
        _require(rep.get("status") == "converged", f"status {rep.get('status')}")
        self.residual_inf = float(rep["residual_inf"])
        _require(self.residual_inf <= POLYGON_TOL,
                 f"residual_inf {self.residual_inf} above {POLYGON_TOL}")
        outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self.first_outputs is None:
            self.first_outputs = outputs
        _require(outputs == self.first_outputs,
                 "output bytes differ from the run's first operation")

    def details(self):
        return {"residual_inf": self.residual_inf}


def _existing_rows(sweep_dir):
    """Rows of a nonexist sweep with a solution; existence must flip once."""
    rows = _read_csv(sweep_dir / "nonexist.csv")
    flags = rows[:, 1].astype(bool)
    flips = int(np.count_nonzero(flags[1:] != flags[:-1]))
    _require(flips == 1 and flags[0] and not flags[-1],
             f"{sweep_dir.name} existence flags {flags.tolist()}")
    return rows[flags]


def _rotate(items, seed):
    start = seed % len(items)
    return items[start:] + items[:start]


class Ledger(Workload):
    """One pass of check, nonexist, barrier --svg and blowup (no grid solve)."""

    name = "ledger"
    config = POLYGON_CONFIG  # for `check` on the pentagon

    def __init__(self, inputs_dir, seed):
        super().__init__(inputs_dir)
        self.order = _rotate(["check-polygon", "check-annulus", "nonexist-2",
                              "nonexist-3", "barrier", "blowup"], seed)

    def _argv(self, key, out):
        eps2 = ",".join(repr(e) for e in NONEXIST_DIM2_EPS)
        eps3 = ",".join(repr(e) for e in NONEXIST_DIM3_EPS)
        return {
            "check-polygon": ["check", "--config", self.config_path],
            "check-annulus": ["check", "--annulus", 1, 2, "--h", 0.3],
            "nonexist-2": ["nonexist", "--dim", 2, "--h", 1, "--outer", 1,
                           "--eps", eps2],
            "nonexist-3": ["nonexist", "--dim", 3, "--h", 1, "--outer", 1,
                           "--eps", eps3],
            "barrier": ["barrier", "--dim", 2, "--h", 0.3333333, "--r", 1,
                        "--R", 2.9, "--svg"],
            "blowup": ["blowup", "--eps", ",".join(repr(e) for e in BLOWUP_EPS)],
        }[key] + ["--out", out / key]

    def commands(self, out):
        return [self._argv(key, out) for key in self.order]

    def check(self, out, codes):
        by_key = dict(zip(self.order, codes))
        _require(all(c == 0 for c in codes), f"exit codes {by_key}")
        for key in ("check-polygon", "check-annulus"):
            rep = json.loads((out / key / "condition_report.json").read_text())
            _require(rep["overall"] == "existence-guaranteed",
                     f"{key} overall verdict {rep['overall']}")

        for eps, _, sup_p, _ in _existing_rows(out / "nonexist-2"):
            bound = eps * math.acosh(1.0 / eps)
            _require(sup_p <= bound + HEIGHT_BOUND_SLACK,
                     f"dim-2 height {sup_p} above eps*arcosh(1/eps) at {eps}")
        for eps, _, sup_p, bound in _existing_rows(out / "nonexist-3"):
            _require(sup_p <= bound + HEIGHT_BOUND_SLACK,
                     f"dim-3 height {sup_p} above its bound at {eps}")

        params = json.loads((out / "barrier" / "params.json").read_text())
        _require(params["a"] <= params["r"] == 1.0
                 and params["R_usable"] >= 2.9 and params["C1"] > 0.0,
                 f"barrier parameters {params}")
        _require((out / "barrier" / "profile.svg").stat().st_size > 0,
                 "empty profile.svg")

        rows = _read_csv(out / "blowup" / "blowup.csv")
        _require(rows[:, 0].tolist() == BLOWUP_EPS, "blowup epsilon column")
        _require(all(eps * fp == 1.0 for eps, fp in rows[:, :2]),
                 "fprime0 * eps differs from 1")
        _require(bool(np.all(rows[:, 3] < 0.0)), "blowup minHz not negative")


WORKLOADS = {cls.name: cls for cls in (AnnulusVerify, DiscStall, PolygonField,
                                       Ledger)}
