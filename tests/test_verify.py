import dataclasses
import math

import numpy as np
import pytest

from pmcgraph import geometry, pipeline, solver, verify
from pmcgraph.conditions import CurvatureField
from pmcgraph.errors import ParameterError
from pmcgraph.grid import grid_from_domain


class TestSphericalCapOracle:
    def test_center_height(self):
        cap = verify.spherical_cap_oracle(2, 0.5, 1.0)
        assert cap(np.zeros(2)) == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-14)

    def test_zero_boundary(self):
        cap = verify.spherical_cap_oracle(2, 0.5, 1.0)
        pts = np.array([[1.0, 0.0], [0.0, -1.0], [math.sqrt(0.5), math.sqrt(0.5)]])
        assert np.max(np.abs(cap(pts))) <= 1e-14

    def test_flat_limit(self):
        flat = verify.spherical_cap_oracle(2, 0.0, 1.0)
        assert np.all(flat(np.random.default_rng(0).normal(size=(5, 2))) == 0.0)

    def test_no_cap_past_hemisphere(self):
        with pytest.raises(ParameterError):
            verify.spherical_cap_oracle(2, 1.0, 1.0)
        with pytest.raises(ParameterError):
            verify.spherical_cap_oracle(2, 1.5, 1.0)

    def test_near_hemisphere_has_steep_rim(self):
        h = 0.999
        cap = verify.spherical_cap_oracle(2, h, 1.0)
        eps = 1e-6
        quotient = (cap(np.array([1.0 - eps, 0.0]))
                    - cap(np.array([1.0, 0.0]))) / eps
        assert quotient > 20.0

    def test_residual_decays_at_second_order(self):
        h, R = 0.5, 1.0
        field = CurvatureField.from_constant(-h)
        cap = verify.spherical_cap_oracle(2, h, R)
        errs = []
        for n in (33, 65):
            grid = grid_from_domain(geometry.Disc(R), 2.0 / (n - 1))
            pts = np.stack([grid.X, grid.Y], axis=-1)
            res = (solver.mc_residual(cap(pts), grid, field)
                   * grid.spacing * grid.spacing)
            errs.append(np.max(np.abs(res[grid.interior])))
        assert 1.5 <= math.log2(errs[0] / errs[1]) <= 2.5


class TestHeightEstimate:
    def test_flat_solution_passes(self, annulus_case):
        grid = annulus_case["coarse"].solution.grid
        flat = solver.newton_solve(grid, CurvatureField.from_constant(0.0))
        sup_check, point_check = verify.check_height_estimate(
            flat, annulus_case["barrier"], 1e-9)
        assert sup_check.verdict == verify.PASS
        assert point_check.verdict == verify.PASS

    def test_reference_solution_passes(self, annulus_case):
        sup_check, point_check = verify.check_height_estimate(
            annulus_case["fine"].solution, annulus_case["barrier"],
            annulus_case["slack"])
        assert sup_check.verdict == verify.PASS
        assert point_check.verdict == verify.PASS

    def test_scaled_solution_is_caught(self, annulus_case):
        # negative control: a fabricated violation must fail the check
        sol = annulus_case["fine"].solution
        fake = dataclasses.replace(sol, values=sol.values * 10.0,
                                   sup_norm=sol.sup_norm * 10.0)
        sup_check, point_check = verify.check_height_estimate(
            fake, annulus_case["barrier"], annulus_case["slack"])
        assert verify.FAIL in (sup_check.verdict, point_check.verdict)


class TestBoundaryGradient:
    def test_flat_solution_passes(self, annulus_case):
        grid = annulus_case["coarse"].solution.grid
        flat = solver.newton_solve(grid, CurvatureField.from_constant(0.0))
        check = verify.check_boundary_gradient(flat, annulus_case["barrier"],
                                               1e-9)
        assert check.verdict == verify.PASS
        assert check.actual == 0.0

    def test_reference_solution_passes(self, annulus_case):
        check = verify.check_boundary_gradient(
            annulus_case["fine"].solution, annulus_case["barrier"],
            annulus_case["slack"])
        assert check.verdict == verify.PASS

    def test_catenoid_bound_on_a_polygon(self):
        # H = 0 on a domain without a radial extent: the catenoid's
        # constants come from the fit's outer radius; its inner slope is
        # 3^(-1/2) at every inner radius
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        sol = solver.newton_solve(grid_from_domain(square, 0.1),
                                  CurvatureField.from_constant(0.0))
        check = verify.check_boundary_gradient(
            sol, pipeline.barrier_for_domain(square, 0.0), 0.0)
        assert check.verdict == verify.PASS
        assert check.bound == pytest.approx(3 ** -0.5, rel=1e-15)

    def test_nonzero_boundary_data_not_applicable(self, annulus_case):
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        grid = grid_from_domain(square, 0.1, boundary=lambda x, y: 0.2 * x)
        sol = solver.newton_solve(grid, CurvatureField.from_constant(0.0))
        check = verify.check_boundary_gradient(sol, annulus_case["barrier"],
                                               0.0)
        assert check.verdict == verify.NOT_APPLICABLE


class TestEstimateReport:
    def test_reference_report(self, annulus_case, tmp_path):
        report = verify.estimate_report(
            annulus_case["fine"].solution, annulus_case["barrier"],
            annulus_case["slack"])
        assert report.passed()
        assert report.c0_actual <= report.c0_bound
        assert report.bgrad_actual <= report.bgrad_bound
        assert report.barrier_violation <= annulus_case["slack"]
        path = tmp_path / "estimates.json"
        report.write_json(path)
        assert path.exists()


class TestGradientBlowupExample:
    def test_exact_center_slopes(self):
        rows = verify.gradient_blowup_example([1.0, 0.1, 0.01])
        assert [r.fprime0 for r in rows] == [1.0, 10.0, 100.0]
        for r in rows:
            assert r.fprime0 * r.epsilon == 1.0  # exact in floating point

    def test_curvature_data_uniformly_bounded(self):
        rows = verify.gradient_blowup_example([1.0, 0.3, 0.1, 0.03, 0.01],
                                              samples=4001)
        bound = max(r.h_bound for r in rows)
        refined = verify.gradient_blowup_example([1.0, 0.3, 0.1, 0.03, 0.01],
                                                 samples=8001)
        bound_refined = max(r.h_bound for r in refined)
        assert abs(bound_refined - bound) <= 0.01 * bound
        assert bound < 10.0

    def test_monotonicity_hypothesis_fails(self):
        rows = verify.gradient_blowup_example([1.0, 0.1, 0.01])
        assert all(r.min_hz < 0.0 for r in rows)

    def test_analytic_curvature_derivative(self):
        # cross-check the closed-form derivative by central differences
        zs = np.linspace(-0.9, 0.9, 11)
        eps = 0.2
        dz = 1e-6
        fd = (verify._blowup_curvature(zs + dz, eps)
              - verify._blowup_curvature(zs - dz, eps)) / (2 * dz)
        exact = verify._blowup_curvature_z(zs, eps)
        assert np.max(np.abs(fd - exact)) <= 1e-6

    def test_reparametrized_curve_has_this_curvature(self):
        # the inverse graph of z -> z^3 + eps*z really is a curve of
        # curvature H_eps at height z (planar curvature of (beta(z), z))
        eps = 0.3
        zs = np.linspace(-0.8, 0.8, 9)
        dz = 1e-5
        beta = lambda z: z**3 + eps * z
        xp = (beta(zs + dz) - beta(zs - dz)) / (2 * dz)
        xpp = (beta(zs + dz) - 2 * beta(zs) + beta(zs - dz)) / dz**2
        curvature = -xpp / (1.0 + xp**2) ** 1.5
        assert np.max(np.abs(curvature - verify._blowup_curvature(zs, eps))) <= 1e-4

    def test_domain_validation(self):
        with pytest.raises(ParameterError):
            verify.gradient_blowup_example([0.0])
        with pytest.raises(ParameterError):
            verify.gradient_blowup_example([1.5])

    def test_csv_export(self, tmp_path):
        rows = verify.gradient_blowup_example([1.0, 0.1])
        path = tmp_path / "blowup.csv"
        verify.write_blowup_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,fprime0,H_bound,minHz"
        assert len(lines) == 3
