import json

import numpy as np
import pytest

from pmcgraph import conditions, geometry, pipeline, solver
from pmcgraph.cli import main as cli_main
from pmcgraph.conditions import CurvatureField
from pmcgraph.errors import (ContinuationFailureError, NonconvergenceError,
                             ParameterError)
from pmcgraph.grid import grid_from_domain, interpolate_values_cubic


class TestConditionsPipeline:
    def test_annulus_reference(self):
        report = pipeline.conditions_for(
            geometry.Annulus(1.0, 2.0), CurvatureField.from_constant(-0.3))
        assert report.overall == conditions.EXISTENCE_GUARANTEED
        assert report.check("annulus_smallness").bound == pytest.approx(0.8)
        # the annulus itself is not mean convex: informational failure only
        assert report.check("mean_convexity").verdict == conditions.FAIL

    def test_convex_domain_gets_strip_route(self):
        rect = geometry.ConvexPolygon([(0, 0), (6, 0), (6, 1), (0, 1)])
        report = pipeline.conditions_for(rect, CurvatureField.from_constant(0.9))
        assert report.check("strip_smallness").verdict == conditions.PASS
        # the large-radius annulus route approaches the same bound
        assert report.check("annulus_smallness").bound == pytest.approx(
            1.0, abs=0.02)
        assert report.overall == conditions.EXISTENCE_GUARANTEED

    def test_mask_domain_never_certifies(self):
        m = np.zeros((14, 14), dtype=bool)
        m[2:12, 2:12] = True
        domain = geometry.GridMask(m, 0.1)
        report = pipeline.conditions_for(domain, CurvatureField.from_constant(-0.1))
        assert report.overall != conditions.EXISTENCE_GUARANTEED
        assert report.check("mean_convexity").verdict == conditions.NOT_APPLICABLE
        assert any("approximate" in note for note in report.notes)

    def test_nonconstant_field_skips_inscribed_comparison(self):
        field = CurvatureField(lambda p, z: 0.1 * p[..., 0], monotone=True)
        report = pipeline.conditions_for(geometry.Disc(1.0), field)
        assert report.check("inscribed_disc").verdict == conditions.NOT_APPLICABLE

    def test_nonmonotone_field_blocks_guarantee(self):
        field = CurvatureField(lambda p, z: -0.01 * np.asarray(z, dtype=float))
        report = pipeline.conditions_for(geometry.Annulus(1.0, 2.0), field)
        assert report.check("curvature_monotone").verdict == conditions.FAIL
        assert report.overall == conditions.INDETERMINATE


class TestBarrierPipeline:
    def test_profile_matches_fit(self):
        fit, profile = pipeline.barrier_for_domain(geometry.Annulus(1.0, 2.0), 0.3)
        assert fit.r == 1.0 and fit.d == pytest.approx(1.0)
        assert profile.r_usable >= fit.r + fit.d

    def test_disc_uses_large_radius(self):
        fit, profile = pipeline.barrier_for_domain(geometry.Disc(0.5), 0.5)
        assert fit.r == pytest.approx(100.0 * 1.0, rel=1e-12)
        assert profile.r_usable >= fit.r + fit.d


class TestRadialDimension3:
    def test_existence_and_bound(self):
        res = solver.radial_shoot(3, 0.5, 0.3, 1.0)
        assert res.exists
        assert res.k >= 0.0
        assert res.sup_p <= conditions.nonexistence_height_bound(3, 0.3) + 1e-9

    def test_thin_annulus_nonexistence(self):
        assert not solver.radial_shoot(3, 0.5, 0.05, 1.0).exists

    def test_cli_sweep_dim3(self, tmp_path):
        code = cli_main(["nonexist", "--dim", "3", "--h", "0.5",
                         "--eps", "0.3,0.05", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "nonexist_summary.json").read_text())
        assert summary["flips"] == 1

    def test_conditions_dim3_annulus(self):
        report = pipeline.conditions_for(
            geometry.Annulus(1.0, 2.0), CurvatureField.from_constant(-0.1),
            dim=3)
        assert report.check("annulus_smallness").bound == pytest.approx(8.0 / 19.0)
        assert report.overall == conditions.EXISTENCE_GUARANTEED


class TestCliWithMaskFile:
    def test_pgm_domain_config(self, tmp_path):
        n = 20
        y, x = np.mgrid[0:n, 0:n]
        img = (((x - n / 2 + 0.5) ** 2 + (y - n / 2 + 0.5) ** 2)
               <= (n / 3) ** 2).astype(int)
        lines = ["P2", f"{n} {n}", "1"]
        lines += [" ".join(str(v) for v in row) for row in img]
        (tmp_path / "disc.pgm").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "grid_mask", "path": "disc.pgm",
                       "cell_size": 0.1},
            "curvature": {"constant": -0.1}}))
        code = cli_main(["check", "--config", str(cfg), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "condition_report.json").read_text())
        assert report["overall"] == "indeterminate"
        assert code == 3

    def test_solve_on_mask_domain(self, tmp_path):
        m = np.zeros((16, 16), dtype=bool)
        m[2:14, 2:14] = True
        domain = geometry.GridMask(m, 0.1)
        out = pipeline.solve_domain(domain, CurvatureField.from_constant(-0.4),
                                    0.1)
        sol = out.solution
        assert sol.residual_inf <= 1e-10
        assert sol.interior_values().min() >= -1e-12
        # cell-sized square of side 1.2: bounded by the cap over its
        # circumscribed disc is loose; sanity bound by sup of the barrier
        assert sol.sup_norm < 0.5


class TestNonexistSummary:
    def test_threshold_bracket_emitted(self, tmp_path):
        code = cli_main(["nonexist", "--h", "1", "--eps", "0.5,0.3,0.2,0.1",
                         "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "nonexist_summary.json").read_text())
        assert summary["flips"] == 1
        lo, hi = summary["eps_star_bracket"]
        assert lo == 0.2 and hi == 0.3


class TestCoarseToFineVerify:
    DOMAIN = geometry.Annulus(1.0, 2.0)
    FIELD = CurvatureField.from_constant(-0.3)

    def test_matches_fine_continuation(self):
        outcome = pipeline.verify_domain(self.DOMAIN, self.FIELD, 1.0 / 16)
        fine = pipeline.solve_domain(self.DOMAIN, self.FIELD, 1.0 / 32)
        diff = np.max(np.abs(outcome.solution.values - fine.solution.values))
        assert diff <= 1e-12
        (step,) = outcome.trace.steps
        assert step.t == 1.0 and step.newton_iters <= 6
        assert step.factorizations <= 2
        assert outcome.report.passed()

    def test_falls_back_to_fine_continuation(self, monkeypatch):
        real = solver.newton_solve
        injected = []

        def fail_first_fine_solve(grid, hfield, **kwargs):
            if grid.spacing == 1.0 / 32 and not injected:
                injected.append(kwargs["t_homotopy"])
                raise NonconvergenceError("injected failure")
            return real(grid, hfield, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", fail_first_fine_solve)
        outcome = pipeline.verify_domain(self.DOMAIN, self.FIELD, 1.0 / 16)
        assert injected == [1.0]
        assert [s.t for s in outcome.trace.steps] == pytest.approx(
            np.linspace(0.0, 1.0, 11), abs=1e-15)
        assert outcome.solution.residual_inf <= 1e-10
        assert outcome.report.passed()


class TestProlongation:
    DOMAIN = geometry.Annulus(1.0, 2.0)
    FIELD = CurvatureField.from_constant(-0.3)

    @pytest.fixture(scope="class")
    def levels(self):
        return (pipeline.solve_domain(self.DOMAIN, self.FIELD, 1.0 / 16),
                pipeline.solve_domain(self.DOMAIN, self.FIELD, 1.0 / 32))

    def test_band_fill_covers_the_cubic_gap(self, levels):
        coarse, fine = levels
        pts = fine.grid.interior_points()
        cubic = interpolate_values_cubic(coarse.grid, coarse.solution.values,
                                         pts)
        gap = np.isnan(cubic)
        assert gap.any()
        fill = pipeline._band_linear(coarse, fine.grid, pts[gap])
        assert not np.isnan(fill).any()

    def test_start_is_close_to_the_fine_solution(self, levels):
        coarse, fine = levels
        start = pipeline.prolongate(coarse, fine.grid)
        exact = fine.solution.values[fine.grid.interior]
        assert np.max(np.abs(start - exact)) <= 1e-3

    def test_refine_takes_one_factorization(self, levels):
        coarse, fine = levels
        refined = pipeline.refine_solve(coarse, self.DOMAIN, self.FIELD,
                                        1.0 / 32)
        (step,) = refined.trace.steps
        assert step.t == 1.0
        assert step.newton_iters <= 3
        assert step.factorizations == 1
        diff = np.max(np.abs(refined.solution.values - fine.solution.values))
        assert diff <= 1e-12

    def test_band_is_the_eroded_rim(self):
        grid = grid_from_domain(geometry.ConvexPolygon(
            [(0, 0), (2, 0), (2, 2), (0, 2)]), 0.1)
        band = pipeline._band_nodes(grid)
        depth = pipeline.PROLONGATION_BAND
        core = grid.interior.copy()
        core[band] = False
        # a square's interior is a 19 x 19 block; the band is its outer
        # ``depth`` rings
        assert grid.interior.sum() == 19 * 19
        assert core.sum() == (19 - 2 * depth) ** 2


class TestNestedVerify:
    DOMAIN = geometry.Annulus(1.0, 2.0)
    FIELD = CurvatureField.from_constant(-0.3)

    @staticmethod
    def spy(monkeypatch):
        calls = []
        for name in ("solve_domain", "refine_solve"):
            real = getattr(pipeline, name)

            def wrapped(*args, _real=real, _name=name, **kwargs):
                out = _real(*args, **kwargs)
                calls.append((_name, out.grid.spacing, out))
                return out

            monkeypatch.setattr(pipeline, name, wrapped)
        return calls

    def test_levels_match_continuations(self, monkeypatch):
        calls = self.spy(monkeypatch)
        outcome = pipeline.verify_domain(self.DOMAIN, self.FIELD, 1.0 / 16)
        levels = list(calls)
        assert [(name, h) for name, h, _ in levels] == [
            ("solve_domain", 1.0 / 8), ("refine_solve", 1.0 / 16),
            ("refine_solve", 1.0 / 32)]
        for _, h, level in levels[1:]:
            direct = pipeline.solve_domain(self.DOMAIN, self.FIELD, h)
            diff = np.max(np.abs(level.solution.values
                                 - direct.solution.values))
            assert diff <= 1e-12
        assert outcome.solution is levels[-1][2].solution
        assert outcome.trace is levels[-1][2].trace

    def test_no_interior_at_twice_the_spacing(self, monkeypatch):
        domain = geometry.Disc(0.15)
        with pytest.raises(ParameterError, match="no lattice nodes"):
            grid_from_domain(domain, 0.4)
        calls = self.spy(monkeypatch)
        # the homotopy runs at 0.2 (one interior node) and refines to 0.1;
        # a 2 x 2 block of interior nodes at 0.2 would contain a node of
        # the 0.4 lattice, so the Richardson estimate has no common point
        # and verify stops where a direct two-grid solve stops
        with pytest.raises(ParameterError, match="no common interpolation"):
            pipeline.verify_domain(domain, CurvatureField.from_constant(-0.5),
                                   0.2)
        assert [(name, h) for name, h, _ in calls] == [
            ("solve_domain", 0.2), ("refine_solve", 0.1)]

    def test_coarsest_homotopy_failure_falls_back(self, monkeypatch):
        real = solver.continuation_solve

        def stall_at_eighth(grid, hfield, **kwargs):
            if grid.spacing == 1.0 / 8:
                raise ContinuationFailureError("injected stall", stall_t=0.5)
            return real(grid, hfield, **kwargs)

        monkeypatch.setattr(solver, "continuation_solve", stall_at_eighth)
        calls = self.spy(monkeypatch)
        outcome = pipeline.verify_domain(self.DOMAIN, self.FIELD, 1.0 / 16)
        assert [(name, h) for name, h, _ in calls] == [
            ("solve_domain", 1.0 / 16), ("refine_solve", 1.0 / 32)]
        assert outcome.report.passed()


class TestBitmapVerify:
    def test_mask_domain_has_no_refinement(self):
        n = 21
        y, x = np.mgrid[0:n, 0:n]
        disc = (x - 10) ** 2 + (y - 10) ** 2 <= 8 ** 2
        domain = geometry.GridMask(disc, 0.1)
        with pytest.raises(ParameterError, match="no refinement"):
            pipeline.verify_domain(domain, CurvatureField.from_constant(-0.1),
                                   0.1)
