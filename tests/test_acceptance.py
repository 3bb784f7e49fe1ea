"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from pmcgraph import barrier, geometry, pipeline, solver, verify
from pmcgraph.cli import main as cli_main
from pmcgraph.conditions import CurvatureField
from pmcgraph.errors import ContinuationFailureError, SolverError
from pmcgraph.grid import grid_from_domain

from oracles import angular_asymmetry, spherical_cap_oracle


def report(num, description, failures):
    status = "PASS" if not failures else f"FAIL ({'; '.join(failures)})"
    print(f"ACCEPTANCE {num:02d} {description}: {status}")
    assert not failures, failures


def test_c01_figure_parameter_reproduction():
    failures = []
    start = time.time()
    a, b = barrier.profile_zeros(2, 1.0 / 3.0, 4.0 / 3.0)
    if abs(a - 1.0) > 1e-9:
        failures.append(f"a = {a}")
    if abs(b - 4.0) > 1e-9:
        failures.append(f"b = {b}")
    t0 = barrier.apex(2, 1.0 / 3.0, 4.0 / 3.0)
    if abs(t0 - 2.0) > 1e-9:
        failures.append(f"t0 = {t0}")
    rng = np.random.default_rng(42)
    h = 1.0 / 3.0
    for c in np.exp(rng.uniform(math.log(0.05), math.log(50.0), 20)):
        za, zb = barrier.profile_zeros(2, h, float(c))
        if abs((zb - za) - 1.0 / h) > 1e-10 * max(1.0, 1.0 / h):
            failures.append(f"interval length off at c = {c}")
            break
    if time.time() - start > 1.0:
        failures.append("runtime over 1 s")
    report(1, "figure parameters a=1, b=4, t0=2 and planar interval length",
           failures)


def test_c02_catenary_oracle():
    failures = []
    start = time.time()
    r, c = 1.0, 0.5
    prof = barrier.make_profile(2, 0.0, r, c)
    ts = np.linspace(r, 5.0 * r, 101)
    oracle = c * (np.arccosh(ts / c) - math.acosh(r / c))
    worst_closed = max(abs(prof.height(t) - o) for t, o in zip(ts, oracle))
    worst_quad = max(
        abs(barrier.profile_height_integral(2, 0.0, prof.c, prof.r, t) - o)
        for t, o in zip(ts, oracle))
    if worst_closed > 1e-8:
        failures.append(f"closed form off by {worst_closed}")
    if worst_quad > 1e-8:
        failures.append(f"quadrature off by {worst_quad}")
    if time.time() - start > 1.0:
        failures.append("runtime over 1 s")
    report(2, "catenary heights match c*arcosh(t/c) anchored at r", failures)


def test_c03_bound_equivalence_and_strip_limit():
    failures = []
    start = time.time()
    rng = np.random.default_rng(1234)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        r = float(rng.uniform(0.2, 3.0))
        d = float(rng.uniform(0.05, 4.0))
        R = r + d
        h_eq = barrier.annulus_height_bound(dim, r, R)
        sup_at_heq = 2.0 * r * (1.0 + 1.0 / (h_eq * r)) ** (1.0 / dim) - r
        if abs(sup_at_heq - R) > 1e-10 * max(1.0, R):
            failures.append(f"identity off at dim={dim}, r={r}, d={d}")
            break
        h = float(rng.uniform(0.2, 1.8)) * h_eq
        if abs(h - h_eq) > 1e-10 * h_eq:
            sup_r = 2.0 * r * (1.0 + 1.0 / (h * r)) ** (1.0 / dim) - r
            if (h < h_eq) != (R < sup_r):
                failures.append(f"predicates disagree at dim={dim}, r={r}, d={d}")
                break
    for dim in (2, 3, 4):
        d = 0.7
        annulus_bound = barrier.annulus_height_bound(dim, 1e6, 1e6 + d)
        strip_bound = 2.0 / (dim * d)
        if abs(annulus_bound - strip_bound) > 1e-6 * strip_bound:
            failures.append(f"strip limit off at dim={dim}")
    if time.time() - start > 1.0:
        failures.append("runtime over 1 s")
    report(3, "barrier bound matches usable-radius supremum and strip limit",
           failures)


def test_c04_slope_symmetry_inequality():
    failures = []
    start = time.time()
    rng = np.random.default_rng(77)
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        h = float(rng.uniform(0.1, 2.0))
        r = float(rng.uniform(0.5, 2.0))
        lo, hi = barrier.admissible_interval(dim, h, r)
        c = float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
        prof = barrier.make_profile(dim, h, r, c)
        span = prof.t0 - prof.a
        for s in np.linspace(1e-3 * span, span * (1 - 1e-3), 50):
            if not prof.slope(prof.t0 - s) > abs(prof.slope(prof.t0 + s)):
                failures.append(f"violated at dim={dim}, h={h}, c={c}, s={s}")
                break
        if failures:
            break
    if time.time() - start > 1.0:
        failures.append("runtime over 1 s")
    report(4, "inner slope strictly dominates outer slope at equal offsets",
           failures)


def test_c05_spherical_cap_grid_convergence():
    failures = []
    start = time.time()
    h, R = 0.5, 1.0
    field = CurvatureField.from_constant(-h)
    cap = spherical_cap_oracle(2, h, R)
    errors = []
    for n in (65, 129, 257):
        grid = grid_from_domain(geometry.Disc(R), 2.0 / (n - 1))
        sol = solver.newton_solve(grid, field, tol=1e-11)
        pts = np.stack([grid.X, grid.Y], axis=-1)
        errors.append(float(np.max(np.abs(
            (sol.values - cap(pts))[grid.interior]))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for o in orders:
        if not (1.7 <= o <= 2.3):
            failures.append(f"orders {orders} from errors {errors}")
            break
    if time.time() - start > 120.0:
        failures.append("runtime over 2 min")
    report(5, "cap solve errors shrink at second order (65/129/257 grids)",
           failures)


def test_c06_barrier_estimates_on_annulus(annulus_case):
    failures = []
    start = time.time()
    sol = annulus_case["fine"].solution
    slack = annulus_case["slack"]
    c1, c2 = barrier.barrier_constants(annulus_case["profile"])
    if sol.residual_inf > 1e-8:
        failures.append(f"residual {sol.residual_inf}")
    if sol.sup_norm > c1 + slack:
        failures.append(f"sup |f| = {sol.sup_norm} vs C1 = {c1}")
    if sol.sup_gradient_boundary > c2 + slack:
        failures.append(f"boundary quotient {sol.sup_gradient_boundary} vs C2 = {c2}")
    asym = angular_asymmetry(sol)
    if asym > 5.0 * annulus_case["error_estimate"]:
        failures.append(f"asymmetry {asym} vs estimate "
                        f"{annulus_case['error_estimate']}")
    if time.time() - start > 120.0:
        failures.append("runtime over 2 min")
    report(6, "annulus solve honors C1/C2 bounds and rotational symmetry",
           failures)


def test_c07_thin_annulus_nonexistence_sweep():
    failures = []
    start = time.time()
    eps_list = [0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
    rows = pipeline.nonexistence_sweep(2, 1.0, 1.0, eps_list)
    flags = [r["exists"] for r in rows]
    flips = sum(1 for x, y in zip(flags, flags[1:]) if x != y)
    if flips != 1:
        failures.append(f"existence flags {flags}")
    if not (flags[0] and not flags[-1]):
        failures.append(f"boundary flags {flags[0]}, {flags[-1]}")
    for r in rows:
        if r["exists"]:
            bound = r["epsilon"] * math.acosh(1.0 / r["epsilon"])
            if r["sup_p"] > bound + 1e-9:
                failures.append(f"height bound violated at eps = {r['epsilon']}")
    if time.time() - start > 30.0:
        failures.append("runtime over 30 s")
    report(7, "existence flips exactly once; heights below eps*arcosh(1/eps)",
           failures)


def test_c08_overcurved_disc_never_succeeds():
    failures = []
    start = time.time()
    grid = grid_from_domain(geometry.Disc(1.0), 1.0 / 32)
    field = CurvatureField.from_constant(1.2)
    try:
        solver.continuation_solve(grid, field, max_iters=25)
        failures.append("continuation reported success")
    except ContinuationFailureError as exc:
        if not (0.0 < exc.stall_t < 1.0):
            failures.append(f"stall_t = {exc.stall_t}")
    except SolverError:
        pass  # nonconvergence without a trace is also a valid failure mode
    try:
        solver.newton_solve(grid, field, max_iters=25)
        failures.append("direct Newton reported success")
    except SolverError:
        pass
    if time.time() - start > 120.0:
        failures.append("runtime over 2 min")
    report(8, "curvature above the inscribed-disc limit never solves quietly",
           failures)


def test_c09_gradient_blowup_counterexample():
    failures = []
    start = time.time()
    rows = verify.gradient_blowup_example([1.0, 0.1, 0.01], samples=4001)
    for r in rows:
        if r.fprime0 * r.epsilon != 1.0:
            failures.append(f"center slope product at eps = {r.epsilon}")
        if r.min_hz >= 0.0:
            failures.append(f"monotone at eps = {r.epsilon}")
    bound = max(r.h_bound for r in rows)
    refined = verify.gradient_blowup_example([1.0, 0.1, 0.01], samples=8001)
    bound_refined = max(r.h_bound for r in refined)
    if abs(bound_refined - bound) > 0.01 * bound:
        failures.append(f"bound unstable: {bound} vs {bound_refined}")
    if time.time() - start > 1.0:
        failures.append("runtime over 1 s")
    report(9, f"blowup family: exact 1/eps slopes under one bound {bound:.4f}",
           failures)


def test_c10_bit_identical_reruns(tmp_path):
    failures = []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
        "curvature": {"constant": -0.3},
        "spacing": 0.0625}))
    outcomes = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        codes = [
            cli_main(["barrier", "--dim", "2", "--h", "0.3333333", "--r", "1",
                      "--R", "2.9", "--svg", "--out", str(base / "barrier")]),
            cli_main(["check", "--annulus", "1", "2", "--h", "0.3",
                      "--out", str(base / "check")]),
            cli_main(["solve", "--config", str(cfg), "--out",
                      str(base / "solve")]),
            cli_main(["nonexist", "--h", "1", "--eps", "0.5,0.3,0.2,0.1",
                      "--out", str(base / "nonexist")]),
            cli_main(["blowup", "--eps", "1,0.1,0.01", "--out",
                      str(base / "blowup")]),
        ]
        if any(code != 0 for code in codes):
            failures.append(f"exit codes {codes}")
        outcomes.append(base)
    for sub in ("barrier", "check", "solve", "nonexist", "blowup"):
        for path in sorted((outcomes[0] / sub).iterdir()):
            twin = outcomes[1] / sub / path.name
            if path.read_bytes() != twin.read_bytes():
                failures.append(f"{sub}/{path.name} differs between runs")
    report(10, "repeated runs produce bit-identical CSV/JSON/SVG outputs",
           failures)
