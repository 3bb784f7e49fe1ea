import json
import math
from pathlib import Path

import numpy as np
import pytest

from pmcgraph import barrier, geometry, pipeline, solver
from pmcgraph.conditions import CurvatureField
from pmcgraph.errors import (
    ContinuationFailureError,
    ParameterError,
    SolverError,
)
from pmcgraph.grid import grid_from_domain, interpolate_values

FIXTURES = Path(__file__).parent / "fixtures"

H_ZERO = CurvatureField.from_constant(0.0)


class FactorEveryStep(solver.FactorOnceSolver):
    """Reference linear solver: a fresh LU factor at every Newton step."""

    def solve(self, J, rhs, krylov=True):
        return super().solve(J, rhs, krylov=False)


def cap_values(h, R, X, Y):
    return np.sqrt(1.0 / h**2 - X**2 - Y**2) - math.sqrt(1.0 / h**2 - R**2)


class TestResidual:
    def test_zero_for_flat_minimal(self):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        res = solver.mc_residual(np.zeros(grid.shape), grid, H_ZERO)
        assert np.max(np.abs(res)) == 0.0

    def test_zero_for_affine_plane(self):
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        plane = lambda x, y: 0.4 * x - 1.1 * y + 0.3
        grid = grid_from_domain(square, 0.05, boundary=plane)
        res = solver.mc_residual(plane(grid.X, grid.Y), grid, H_ZERO)
        assert np.max(np.abs(res[grid.interior])) <= 1e-12

    def test_cap_truncation_orders(self):
        # interpolating the exact cap: the finite-volume residual decays at
        # order ~2 everywhere; the pointwise residual does so on the bulk
        h, R = 0.5, 1.0
        field = CurvatureField.from_constant(-h)
        disc = geometry.Disc(R)
        weighted, bulk = [], []
        for n in (33, 65, 129):
            grid = grid_from_domain(disc, 2.0 / (n - 1))
            f = cap_values(h, R, grid.X, grid.Y)
            res_w = solver.mc_residual(f, grid, field, area_weighted=True)
            weighted.append(np.max(np.abs(res_w[grid.interior])))
            res_p = solver.mc_residual(f, grid, field)
            bulk.append(np.max(np.abs(res_p[solver.full_stencil_mask(grid)])))
        for errs in (weighted, bulk):
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert all(1.5 <= o <= 2.5 for o in orders), (errs, orders)

    def test_jacobian_matches_finite_differences(self):
        field = CurvatureField(
            lambda p, z: 0.1 * p[..., 0] - 0.2 * p[..., 1] + 0.3 * z)
        grid = grid_from_domain(geometry.Disc(1.0), 0.21)
        rng = np.random.default_rng(4)
        f = np.zeros(grid.shape)
        f[grid.interior] = 0.3 * rng.standard_normal(grid.n_dof)
        J = solver._assemble_jacobian(grid, f, field, 0.8).toarray()
        eps = 1e-7
        for k in range(grid.n_dof):
            e = np.zeros(grid.n_dof)
            e[k] = eps
            fp, fm = f.copy(), f.copy()
            fp[grid.interior] += e
            fm[grid.interior] -= e
            col = (solver.mc_residual(fp, grid, field, 0.8)
                   - solver.mc_residual(fm, grid, field, 0.8))[grid.interior] / (2 * eps)
            assert np.max(np.abs(J[:, k] - col)) <= 1e-6 * max(1.0, np.abs(col).max())


class TestNewton:
    def test_minimal_zero_data_is_exact_root(self):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        sol = solver.newton_solve(grid, H_ZERO)
        assert sol.newton_iters <= 2
        assert np.max(np.abs(sol.values)) == 0.0

    def test_minimal_on_mask(self):
        m = np.zeros((12, 12), dtype=bool)
        m[2:10, 2:10] = True
        m[4:6, 4:8] = False
        m[4:6, 4] = True  # keep it connected but irregular
        grid = grid_from_domain(geometry.GridMask(m, 0.1), 0.1)
        sol = solver.newton_solve(grid, H_ZERO)
        assert sol.newton_iters <= 2
        assert sol.residual_inf <= 1e-12

    def test_factor_once_matches_factor_every_step(self):
        grid = grid_from_domain(geometry.Disc(1.0), 0.1)
        field = CurvatureField.from_constant(-0.4)
        once, every = solver.FactorOnceSolver(), FactorEveryStep()
        reused = solver.newton_solve(grid, field, linsolve=once)
        reference = solver.newton_solve(grid, field, linsolve=every)
        assert np.max(np.abs(reused.values - reference.values)) <= 1e-12
        assert reused.newton_iters == reference.newton_iters
        assert once.factorizations == 1 and once.krylov_iters > 0
        assert every.factorizations == reference.newton_iters

    def test_invalid_tolerance(self):
        grid = grid_from_domain(geometry.Disc(1.0), 0.2)
        with pytest.raises(ParameterError):
            solver.newton_solve(grid, H_ZERO, tol=0.0)


class TestAnnulusReferenceSolve:
    def test_residual_within_tolerance(self, annulus_case):
        assert annulus_case["fine"].solution.residual_inf <= 1e-8

    def test_discrete_maximum_principle(self, annulus_case):
        # H = -h < 0 with zero boundary keeps the solution nonnegative
        assert annulus_case["fine"].solution.interior_values().min() >= -1e-9

    def test_sup_norm_below_barrier_height(self, annulus_case):
        c1, _ = barrier.barrier_constants(annulus_case["profile"])
        sol = annulus_case["fine"].solution
        assert sol.sup_norm <= c1 + annulus_case["slack"]

    def test_boundary_quotients_below_barrier_slope(self, annulus_case):
        _, c2 = barrier.barrier_constants(annulus_case["profile"])
        sol = annulus_case["fine"].solution
        assert sol.sup_gradient_boundary <= c2 + annulus_case["slack"]

    def test_rotational_symmetry(self, annulus_case):
        asym = solver.angular_asymmetry(annulus_case["fine"].solution)
        assert asym <= 5.0 * annulus_case["error_estimate"]

    def test_warm_start_consistency(self, annulus_case):
        # uniqueness under nondecreasing H: direct solve and continuation
        # land on the same discrete solution
        coarse = annulus_case["coarse"]
        direct = solver.newton_solve(coarse.grid, annulus_case["field"])
        diff = np.max(np.abs(direct.values - coarse.solution.values))
        assert diff <= 10.0 * 1e-10

    def test_every_step_converged_quickly(self, annulus_case):
        steps = annulus_case["coarse"].trace.steps
        assert steps[-1].t == 1.0
        assert all(s.newton_iters <= 15 for s in steps)
        ts = [s.t for s in steps]
        assert ts == sorted(ts)

    def test_trace_matches_committed_record(self, annulus_case):
        record = json.loads((FIXTURES / "annulus_trace.json").read_text())
        steps = annulus_case["coarse"].trace.steps
        assert len(steps) == len(record["trace"])
        for step, ref in zip(steps, record["trace"]):
            assert step.t == pytest.approx(ref["t"], abs=1e-15)
            assert step.newton_iters == ref["newton_iters"]
            assert step.sup_norm == pytest.approx(ref["sup_norm"], abs=1e-9)
            assert step.final_residual <= 1e-8


class TestContinuation:
    def test_minimal_surface_single_step(self):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        sol, trace = solver.continuation_solve(grid, H_ZERO)
        assert len(trace.steps) == 1
        assert trace.steps[0].t == 1.0

    def test_schedule_validation(self):
        grid = grid_from_domain(geometry.Disc(1.0), 0.2)
        with pytest.raises(ParameterError):
            solver.continuation_solve(grid, H_ZERO, schedule=[0.0, 0.5])
        with pytest.raises(ParameterError):
            solver.continuation_solve(grid, H_ZERO, schedule=[0.5, 0.5, 1.0])

    def test_overcurved_disc_stalls(self):
        # constant curvature above the inscribed-disc limit: no solution;
        # the homotopy must stall strictly below t = 1 and report it
        grid = grid_from_domain(geometry.Disc(1.0), 1.0 / 24)
        field = CurvatureField.from_constant(1.2)
        with pytest.raises(ContinuationFailureError) as info:
            solver.continuation_solve(grid, field, max_iters=25)
        exc = info.value
        assert 0.0 < exc.stall_t < 1.0
        assert exc.diagnostics["failed_t"] > exc.stall_t
        assert exc.trace.steps[-1].t == exc.stall_t

    def test_overcurved_disc_direct_newton_fails(self):
        grid = grid_from_domain(geometry.Disc(1.0), 1.0 / 24)
        field = CurvatureField.from_constant(1.2)
        with pytest.raises(SolverError) as info:
            solver.newton_solve(grid, field, max_iters=25)
        first = info.value.trace[0]
        assert first["factored"] is True and first["krylov_iters"] == 0
        assert all({"krylov_iters", "factored"} <= step.keys()
                   for step in info.value.trace)

    def test_one_factorization_per_homotopy(self, monkeypatch):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 16)
        field = CurvatureField.from_constant(-0.3)
        _, trace = solver.continuation_solve(grid, field)
        assert sum(s.factorizations for s in trace.steps) == 1
        assert all(s.krylov_iters > 0 for s in trace.steps[2:])
        monkeypatch.setattr(solver, "FactorOnceSolver", FactorEveryStep)
        _, reference = solver.continuation_solve(grid, field)
        iters = [s.newton_iters for s in trace.steps]
        assert iters == [s.newton_iters for s in reference.steps]
        assert [s.factorizations for s in reference.steps] == iters


class TestRadialShoot:
    def test_matches_grid_solution(self, annulus_case, radial_case):
        assert radial_case.exists
        sol = annulus_case["fine"].solution
        ts = radial_case.table[:, 0]
        pts = np.column_stack([ts, np.zeros_like(ts)])
        vals = interpolate_values(sol.grid, sol.values, pts)
        ok = np.isfinite(vals)
        assert ok.sum() > 100
        diff = np.max(np.abs(vals[ok] - radial_case.table[ok, 1]))
        assert diff <= 20.0 * annulus_case["error_estimate"]

    def test_profile_satisfies_grid_operator(self, radial_case):
        # the shot profile is an exact solution: its grid residual decays
        # at second order like any other interpolated exact solution
        field = CurvatureField.from_constant(-0.3)
        errs = []
        for spacing in (1.0 / 16, 1.0 / 32):
            grid = grid_from_domain(geometry.Annulus(1.0, 2.0), spacing)
            radii = np.hypot(grid.X, grid.Y)
            flat = np.argsort(radii, axis=None)
            sorted_r = np.clip(radii.flatten()[flat], radial_case.epsilon,
                               radial_case.outer)
            prof_heights = barrier.cumulative_heights(
                2, 0.3, radial_case.c, sorted_r[0], sorted_r)
            f = np.zeros(grid.shape)
            f.flat[flat] = prof_heights
            res = solver.mc_residual(f, grid, field, area_weighted=True)
            errs.append(np.max(np.abs(res[grid.interior])))
        order = math.log2(errs[0] / errs[1])
        assert 1.5 <= order <= 2.5

    def test_boundary_values_and_invariants(self, radial_case):
        assert abs(radial_case.table[0, 1]) == 0.0
        assert abs(radial_case.p_outer) <= 1e-11
        assert radial_case.k >= 0.0
        assert radial_case.radicand_min >= -1e-12
        assert radial_case.table[:, 1].min() >= -1e-11  # nonnegative inside

    def test_nonexistence_on_thin_annulus(self):
        res = solver.radial_shoot(2, 1.0, 0.05, 1.0)
        assert not res.exists
        assert res.message
        assert math.isfinite(res.nearest_p_outer)

    def test_sweep_flips_once_with_height_bound(self):
        eps_list = [0.5, 0.3, 0.2, 0.1]
        rows = pipeline.nonexistence_sweep(2, 1.0, 1.0, eps_list)
        flags = [r["exists"] for r in rows]
        assert flags == [True, True, False, False]
        for r in rows:
            if r["exists"]:
                assert r["sup_p"] <= r["bound"] + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            solver.radial_shoot(2, 1.0, 0.5, 0.4)
        with pytest.raises(ParameterError):
            solver.radial_shoot(2, 0.0, 0.1, 1.0)


class TestGradientBoundInputs:
    def test_linear_in_height(self):
        field = CurvatureField(lambda p, z: np.asarray(z, dtype=float),
                               monotone=True)
        out = solver.verify_gradient_bound_inputs(field, 1.0,
                                                  domain=geometry.Disc(1.0))
        assert out.h0 == pytest.approx(2.0, rel=1e-6)
        assert out.monotone_ok

    def test_constant(self):
        field = CurvatureField.from_constant(-0.7)
        out = solver.verify_gradient_bound_inputs(field, 2.0,
                                                  domain=geometry.Disc(1.0))
        assert out.h0 == pytest.approx(0.7, abs=1e-12)
        assert out.monotone_ok

    def test_blowup_family_is_not_monotone(self):
        from pmcgraph.verify import _blowup_curvature

        field = CurvatureField(lambda p, z: _blowup_curvature(
            np.asarray(z, dtype=float), 0.1))
        out = solver.verify_gradient_bound_inputs(field, 1.0,
                                                  domain=geometry.Disc(1.0))
        assert not out.monotone_ok
        assert out.min_hz < 0.0

    def test_tabulated_field_matches_slab_loop(self):
        # the sampling loop this function used before it delegated to
        # conditions.sample_field_bounds, kept as the bit-exact reference
        field = pipeline.curvature_from_json({
            "table": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.25, 2.5],
                      "values": [[-0.30, -0.22, -0.30],
                                 [-0.25, -0.15, -0.25],
                                 [-0.20, -0.28, -0.20]]},
            "z_slope": 0.1})
        domain = geometry.ConvexPolygon(
            [(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)])
        points = solver._domain_sample_points(domain)
        h0, min_hz = 0.0, math.inf
        for z in np.linspace(-0.4, 0.4, 21):
            zz = np.full(points.shape[:-1], float(z))
            gx, gz = field.grad_eval(points, zz)
            gnorm = np.sqrt(np.sum(gx**2, axis=-1) + gz**2)
            h0 = max(h0, float(np.max(np.abs(field.eval(points, zz)) + gnorm)))
            min_hz = min(min_hz, float(np.min(gz)))
        out = solver.verify_gradient_bound_inputs(field, 0.4, domain=domain)
        assert out.as_dict() == {"h0": h0, "monotone_ok": min_hz >= -1e-12,
                                 "min_hz": min_hz, "slab_height": 0.4}


class TestLipschitzFlag:
    def test_nonzero_boundary_flagged(self):
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        plane = lambda x, y: 0.25 * x
        grid = grid_from_domain(square, 0.1, boundary=plane)
        sol = solver.newton_solve(grid, H_ZERO)
        assert sol.boundary_nonzero
        assert "no existence guarantee" in sol.no_existence_guarantee
        lip = grid.boundary_lipschitz_estimate()
        assert lip == pytest.approx(0.25, abs=0.02)

    def test_zero_boundary_not_flagged(self, annulus_case):
        assert not annulus_case["fine"].solution.boundary_nonzero
        assert annulus_case["fine"].solution.no_existence_guarantee == ""
