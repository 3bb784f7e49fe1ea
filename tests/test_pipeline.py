import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmcgraph import (barrier, conditions, geometry, grid, pipeline, solver,
                      verify)
from pmcgraph.cli import main as cli_main
from pmcgraph.conditions import CurvatureField
from pmcgraph.errors import (ContinuationFailureError,
                             NoAdmissibleConstantError, NonconvergenceError,
                             ParameterError, SolverError)
from pmcgraph.grid import (_band_fill, grid_from_domain, nested_prolongation,
                           prolongate, twin_dofs)


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


VERDICT_RANK = {conditions.EXISTENCE_GUARANTEED: 0, conditions.INDETERMINATE: 1,
                conditions.NECESSARY_VIOLATED: 2}


class TestCheckProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["annulus", "disc"]),
           size=st.floats(0.1, 5.0), ratio=st.floats(1.0, 10.0, exclude_min=True),
           sign=st.sampled_from([-1.0, 1.0]),
           scaled=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2))
    def test_verdict_is_monotone_in_h(self, kind, size, ratio, sign, scaled):
        # existence guaranteed at |H| holds at every smaller |H|, and a
        # violated necessary condition at every larger one
        if kind == "annulus":
            domain = geometry.Annulus(size, ratio * size)
            rho = 0.5 * (ratio - 1.0) * size
        else:
            domain, rho = geometry.Disc(size), size
        ranks = [VERDICT_RANK[pipeline.conditions_for(
            domain, CurvatureField.from_constant(sign * x / rho)).overall]
            for x in sorted(scaled)]
        assert ranks[0] <= ranks[1]


class TestBarrierPipeline:
    def test_profile_matches_fit(self):
        fit, profile, c1, c2 = pipeline.barrier_for_domain(
            geometry.Annulus(1.0, 2.0), 0.3)
        assert fit.r == 1.0 and fit.d == pytest.approx(1.0)
        assert profile.r_usable >= fit.r + fit.d
        assert (c1, c2) == barrier.barrier_constants(profile, outer=2.0)

    def test_verify_evaluates_the_constants_once(self, monkeypatch):
        # C1 and C2 come from the one barrier record; the only other
        # profile heights are the pointwise check's, one per fine dof
        calls, sizes = [], []
        constants = barrier.barrier_constants
        heights = barrier.NodoidProfile.heights

        def count(*args, **kwargs):
            calls.append(args)
            return constants(*args, **kwargs)

        def record(profile, ts):
            sizes.append(np.size(ts))
            return heights(profile, ts)

        monkeypatch.setattr(barrier, "barrier_constants", count)
        monkeypatch.setattr(barrier.NodoidProfile, "heights", record)
        outcome = pipeline.verify_domain(geometry.Annulus(1.0, 2.0),
                                         CurvatureField.from_constant(-0.3),
                                         1.0 / 16)
        assert len(calls) == 1
        assert sizes == [1, outcome.solution.grid.n_dof]
        report = outcome.report
        assert report.c0_bound == outcome.barrier.c1 + report.slack
        assert report.bgrad_bound == outcome.barrier.c2 + report.slack

    def test_disc_uses_large_radius(self):
        fit, profile, _, _ = pipeline.barrier_for_domain(geometry.Disc(0.5),
                                                         0.5)
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
        assert sol.dof_values.min() >= -1e-12
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
        fine = solver.continuation_solve(
            grid_from_domain(self.DOMAIN, 1.0 / 32), self.FIELD)
        diff = np.max(np.abs(outcome.solution.values - fine.solution.values))
        assert diff <= 1e-12
        level = outcome.levels[-1].as_dict()
        assert outcome.solution.homotopy_t == 1.0
        assert (level["spacing"], level["path"]) == (1.0 / 32, "chain")
        assert level["newton_iters"] <= 6 and level["factorizations"] <= 2
        assert outcome.report.passed()

    # (failing grid, the grid whose homotopy runs, the levels' spacings and
    # paths): verify at 1/16 climbs 1/8, 1/16, 1/32 and keeps 1/16 and 1/32
    @pytest.mark.parametrize("failing, homotopy_at, levels", [
        (1.0 / 8, 1.0 / 16, [(1.0 / 16, "homotopy"), (1.0 / 32, "chain")]),
        (1.0 / 16, 1.0 / 16, [(1.0 / 16, "homotopy"), (1.0 / 32, "chain")]),
        (1.0 / 32, 1.0 / 32, [(1.0 / 8, "chain"), (1.0 / 16, "chain"),
                              (1.0 / 32, "homotopy")]),
    ], ids=["coarsest", "h", "half_h"])
    def test_falls_back_to_fine_continuation(self, monkeypatch, failing,
                                             homotopy_at, levels):
        # a failed run at 1/16 or below runs the homotopy at 1/16, the
        # lowest kept grid, and drops the levels below it; a failure at
        # 1/32 runs it at 1/32 and keeps the solution at 1/16
        real = solver.newton_solve
        injected = []
        homotopies = []
        real_homotopy = solver.continuation_solve

        def record_homotopy(grid, *args, **kwargs):
            homotopies.append(real_homotopy(grid, *args, **kwargs))
            return homotopies[-1]

        def fail_first_solve(grid, hfield, **kwargs):
            if grid.spacing == failing and not injected:
                injected.append(kwargs["t_homotopy"])
                raise NonconvergenceError("injected failure")
            return real(grid, hfield, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", fail_first_solve)
        monkeypatch.setattr(solver, "continuation_solve", record_homotopy)
        outcome = pipeline.verify_domain(self.DOMAIN, self.FIELD, 1.0 / 16)
        assert injected == [1.0]
        (homotopy,) = homotopies
        assert homotopy.solution.grid.spacing == homotopy_at
        assert (homotopy.solution is outcome.solution) == (
            homotopy_at == 1.0 / 32)
        assert [s.t for s in homotopy.levels[-1].steps] == pytest.approx(
            np.linspace(0.0, 1.0, 11), abs=1e-15)
        assert [(level.spacing, level.path)
                for level in outcome.levels] == levels
        assert outcome.levels[levels.index((homotopy_at, "homotopy"))] == \
            homotopy.levels[0]
        assert outcome.solution.residual_inf <= 1e-10
        assert outcome.report.passed()

    @pytest.mark.parametrize("field", [
        CurvatureField.from_constant(-0.3),
        pipeline.curvature_from_json({
            "table": {"x": [-3.0, 3.0], "y": [-3.0, 3.0],
                      "values": [[-0.3, -0.3], [-0.3, -0.3]]},
            "z_slope": -0.05})], ids=["monotone", "decreasing"])
    def test_verify_at_h_is_solve_at_half_h(self, field):
        # verify's pair is the top of solve's climb to h/2, which keeps h
        outcome = pipeline.verify_domain(self.DOMAIN, field, 1.0 / 32)
        solved = pipeline.solve_domain(self.DOMAIN, field, 1.0 / 64)
        assert np.array_equal(outcome.solution.dof_values,
                              solved.solution.dof_values)
        assert outcome.levels == solved.levels


class TestSolveOutcome:
    """One record per solve: the report's trace is the last level's steps."""

    DOMAIN = geometry.Annulus(1.0, 2.0)
    NONMONOTONE = {"table": {"x": [-2.0, 2.0], "y": [-2.0, 2.0],
                             "values": [[-0.3, -0.2], [-0.2, -0.3]]},
                   "z_slope": -0.1}

    def test_last_level_is_built_from_the_trace(self, tmp_path):
        # a non-monotone field climbs from the homotopy on its chain's
        # coarsest grid, 1/8; on that grid alone the homotopy is the solve
        base = {"domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0}}
        runs = {"chain": ({"constant": -0.3}, 1.0 / 32),
                "climb": (self.NONMONOTONE, 1.0 / 16),
                "homotopy": (self.NONMONOTONE, 1.0 / 8)}
        outcomes = {}
        for name, (curvature, spacing) in runs.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**base, "curvature": curvature,
                                       "spacing": spacing}))
            out = tmp_path / name
            assert cli_main(["solve", "--config", str(cfg),
                             "--out", str(out)]) == 0
            report = json.loads((out / "solve_report.json").read_text())
            outcome = pipeline.solve_domain(
                self.DOMAIN, pipeline.curvature_from_json(curvature), spacing)
            assert report["trace"] == json.loads(json.dumps(
                [step.as_dict() for step in outcome.levels[-1].steps]))
            assert report["levels"] == json.loads(json.dumps(
                [level.as_dict() for level in outcome.levels]))
            outcomes[name] = outcome
        chain, climb, homotopy = (outcomes[name] for name in runs)
        for outcome, path in ((chain, "chain"), (climb, "chain"),
                              (homotopy, "homotopy")):
            grid = outcome.solution.grid
            assert outcome.levels[-1][:3] == (grid.spacing, grid.n_dof, path)
        assert len(chain.levels) > 1 and len(chain.levels[-1].steps) == 1
        assert [level.path for level in climb.levels] == [
            "homotopy", "chain"]
        assert len(climb.levels[-1].steps) == 1
        assert climb.levels[0] == homotopy.levels[0]
        assert len(homotopy.levels) == 1
        assert len(homotopy.levels[-1].steps) == 11


def coarse_start(coarse, grid):
    """The start :func:`pmcgraph.grid.prolongate` makes on ``grid`` from a
    solved coarse outcome."""
    return prolongate(nested_prolongation(coarse.solution.grid, grid),
                      coarse.solution.dof_values, grid)


#: (domain, field) pairs whose refine is pinned; each admits a barrier,
#: so that ``verify`` refines it (on Disc(1) that needs H < 0.5)
REFINE_CASES = {
    "annulus": (geometry.Annulus(1.0, 2.0), CurvatureField.from_constant(-0.3)),
    "disc": (geometry.Disc(1.0), CurvatureField.from_constant(0.4)),
    "pentagon": (geometry.ConvexPolygon(
        [(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)]),
        CurvatureField.from_constant(0.3)),
}


@functools.cache
def refine_levels(case):
    """Solved outcomes at 1/16 and 1/32 for one of ``REFINE_CASES``."""
    domain, field = REFINE_CASES[case]
    return tuple(pipeline.solve_domain(domain, field, h)
                 for h in (1.0 / 16, 1.0 / 32))


class TestProlongation:
    DOMAIN = geometry.Annulus(1.0, 2.0)

    def test_band_fill_covers_the_linear_gap(self):
        coarse, fine = refine_levels("annulus")
        coarse_grid, grid = coarse.solution.grid, fine.solution.grid
        P = nested_prolongation(coarse_grid, grid)
        linear = np.where(P @ np.ones(coarse_grid.n_dof) == 1.0,
                          P @ coarse.solution.dof_values, np.nan)
        gap = np.isnan(linear)
        assert gap.any()
        fill = _band_fill(grid, linear)
        assert not np.isnan(fill).any()
        assert np.array_equal(fill[~gap], linear[~gap])
        assert np.array_equal(coarse_start(coarse, grid), fill)

    def test_start_is_mirror_symmetric(self):
        # the annulus lattices are symmetric about both axes and the
        # diagonal, and so is the start built on their index arrays
        coarse, fine = refine_levels("annulus")
        grid = fine.solution.grid
        start = np.zeros(grid.shape)
        start[grid.interior] = coarse_start(coarse, grid)
        assert np.max(np.abs(start[:, ::-1] - start)) <= 1e-15
        assert np.max(np.abs(start.T - start)) <= 1e-15

    def test_complete_rows_reproduce_bilinears(self):
        coarse = grid_from_domain(self.DOMAIN, 1.0 / 8)
        fine = grid_from_domain(self.DOMAIN, 1.0 / 16)
        P = nested_prolongation(coarse, fine)
        complete = P @ np.ones(coarse.n_dof) == 1.0
        # a row is complete exactly when the coarse nodes at the floor and
        # ceiling of its position, on each axis, are all interior
        pts = fine.interior_points()
        cell = (pts - coarse.origin) / coarse.spacing
        lo, hi = np.floor(cell + 1e-9), np.ceil(cell - 1e-9)
        parents = np.ones(fine.n_dof, dtype=bool)
        for ix in (lo[:, 0], hi[:, 0]):
            for iy in (lo[:, 1], hi[:, 1]):
                parents &= coarse.interior[iy.astype(int), ix.astype(int)]
        assert np.array_equal(complete, parents)
        assert complete.sum() > 0.5 * fine.n_dof

        def bilinear(points):
            x, y = points[:, 0], points[:, 1]
            return 0.3 - 0.7 * x + 1.1 * y + 0.5 * x * y

        error = P @ bilinear(coarse.interior_points()) - bilinear(pts)
        assert np.max(np.abs(error[complete])) <= 1e-13

    def test_band_fill_is_exact_for_linear_data(self):
        # interpolation along rows and columns between nodes and boundary
        # crossings reproduces an affine function, Dirichlet data included
        def plane(x, y):
            return 0.3 * x - 0.7 * y + 0.2

        grid = grid_from_domain(self.DOMAIN, 1.0 / 16, boundary=plane)
        pts = grid.interior_points()
        exact = plane(pts[:, 0], pts[:, 1])
        values = exact.copy()
        values[np.hypot(*pts.T) > 1.5] = np.nan
        fill = _band_fill(grid, values)
        assert np.max(np.abs(fill - exact)) <= 1e-12

    def test_start_is_close_to_the_fine_solution(self):
        coarse, fine = refine_levels("annulus")
        start = coarse_start(coarse, fine.solution.grid)
        exact = fine.solution.dof_values
        assert np.max(np.abs(start - exact)) <= 1e-3

    @pytest.mark.parametrize("case", ["annulus", "disc", "pentagon"])
    def test_refine_takes_one_factorization(self, case):
        # verify's fine grid, solved from its solution at 1/16
        coarse, fine = refine_levels(case)
        refined = pipeline.verify_domain(*REFINE_CASES[case], 1.0 / 16)
        level = refined.levels[-1].as_dict()
        assert refined.solution.homotopy_t == 1.0
        assert (level["spacing"], level["path"]) == (1.0 / 32, "chain")
        assert level["newton_iters"] <= 3
        assert level["factorizations"] == 1
        diff = np.max(np.abs(refined.solution.values - fine.solution.values))
        assert diff <= 1e-12

class TestTwoGridVerify:
    DOMAIN = geometry.Annulus(1.0, 2.0)
    FIELD = CurvatureField.from_constant(-0.3)

    @staticmethod
    def spy(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def wrapped(grid, *args, **kwargs):
            calls.append(grid.spacing)
            return real(grid, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)
        return calls

    @staticmethod
    def record_lu_sizes(monkeypatch):
        """The size of every sparse LU, in order."""
        sizes = []
        real = solver.sparse_linalg.splu

        def splu(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return real(A, *args, **kwargs)

        monkeypatch.setattr(solver.sparse_linalg, "splu", splu)
        return sizes

    @staticmethod
    def record_newton(monkeypatch):
        """(spacing, solution) of every converged Newton run, in order."""
        runs = []
        real = solver.newton_solve

        def record(grid, *args, **kwargs):
            out = real(grid, *args, **kwargs)
            runs.append((grid.spacing, out))
            return out

        monkeypatch.setattr(solver, "newton_solve", record)
        return runs

    def test_chain_levels_match_continuations(self, monkeypatch):
        runs = self.record_newton(monkeypatch)
        homotopies = self.spy(monkeypatch, solver, "continuation_solve")
        outcome = pipeline.verify_domain(self.DOMAIN, self.FIELD, 1.0 / 16)
        levels = list(runs)
        # one chain from 1/32 down to the first grid of at most
        # COARSEST_DOF nodes, solved coarsest first, one Newton run each
        assert [h for h, _ in levels] == [1.0 / 8, 1.0 / 16, 1.0 / 32]
        assert (grid_from_domain(self.DOMAIN, 1.0 / 8).n_dof
                <= grid.COARSEST_DOF
                < grid_from_domain(self.DOMAIN, 1.0 / 16).n_dof)
        assert homotopies == []
        for h, level in levels:
            direct = solver.continuation_solve(
                grid_from_domain(self.DOMAIN, h), self.FIELD)
            diff = np.max(np.abs(level.values - direct.solution.values))
            assert diff <= 1e-12
        assert outcome.solution is levels[-1][1]
        assert outcome.solution.homotopy_t == 1.0
        assert [(level.spacing, level.as_dict()["newton_iters"], level.path)
                for level in outcome.levels] == [
            (h, level.newton_iters, "chain") for h, level in levels]

    def test_coarse_newton_failure_falls_back(self, monkeypatch):
        real = solver.newton_solve
        injected = []

        def fail_coarse_solve(grid, hfield, **kwargs):
            if grid.spacing == 1.0 / 16 and not injected:
                injected.append(kwargs["t_homotopy"])
                raise NonconvergenceError("injected failure")
            return real(grid, hfield, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", fail_coarse_solve)
        homotopies = self.spy(monkeypatch, solver, "continuation_solve")
        outcome = pipeline.verify_domain(self.DOMAIN, self.FIELD, 1.0 / 16)
        assert injected == [1.0]
        assert homotopies == [1.0 / 16]
        assert outcome.solution.residual_inf <= 1e-10
        assert outcome.report.passed()

    def test_nonmonotone_field_runs_the_homotopy(self, monkeypatch):
        field = pipeline.curvature_from_json({
            "table": {"x": [-2.0, 2.0], "y": [-2.0, 2.0],
                      "values": [[-0.3, -0.2], [-0.2, -0.3]]},
            "z_slope": -0.1})
        assert not field.monotone
        homotopies = self.spy(monkeypatch, solver, "continuation_solve")
        newton = self.spy(monkeypatch, solver, "newton_solve")
        sizes = self.record_lu_sizes(monkeypatch)
        outcome = pipeline.verify_domain(self.DOMAIN, field, 1.0 / 16)
        # the homotopy on the chain's coarsest grid, 1/8, then one Newton
        # run on each finer grid from the solution below it, each
        # preconditioned by a V-cycle down to 1/8, the only grid factored
        assert homotopies == [1.0 / 8]
        assert newton[-2:] == [1.0 / 16, 1.0 / 32]
        assert set(newton[:-2]) == {1.0 / 8}
        assert sizes == [grid_from_domain(self.DOMAIN, 1.0 / 8).n_dof] * 3
        assert [(level.spacing, level.path)
                for level in outcome.levels] == [(1.0 / 8, "homotopy"),
                                                 (1.0 / 16, "chain"),
                                                 (1.0 / 32, "chain")]
        direct = solver.continuation_solve(
            grid_from_domain(self.DOMAIN, 1.0 / 32), field)
        diff = np.max(np.abs(outcome.solution.values - direct.solution.values))
        assert diff <= 1e-12

    def test_overcurved_disc_stalls_once(self, monkeypatch):
        disc, field = geometry.Disc(1.0), CurvatureField.from_constant(1.2)
        with pytest.raises(ContinuationFailureError) as direct:
            pipeline.solve_domain(disc, field, 0.1, max_iters=20)
        assert 0.0 < direct.value.stall_t < 1.0
        # verify has no barrier for this curvature, and finds that first
        newton = self.spy(monkeypatch, solver, "newton_solve")
        homotopies = self.spy(monkeypatch, solver, "continuation_solve")
        with pytest.raises(NoAdmissibleConstantError):
            pipeline.verify_domain(disc, field, 0.1, max_iters=20)
        assert newton == [] and homotopies == []

    def test_disc_with_one_coarse_node_verifies(self, tmp_path):
        # Disc(0.15) at 0.2 has a single interior node, and at 0.1 four:
        # the estimate compares that node with its fine twin
        domain = geometry.Disc(0.15)
        assert grid_from_domain(domain, 0.2).n_dof == 1
        outcome = pipeline.verify_domain(
            domain, CurvatureField.from_constant(-0.5), 0.2)
        assert outcome.solution.grid.n_dof == 4
        assert outcome.error_estimate > 0.0
        assert all(c.verdict == conditions.PASS
                   for c in outcome.report.checks)
        cfg = tmp_path / "disc.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "disc", "radius": 0.15},
            "curvature": {"constant": -0.5}, "spacing": 0.2}))
        assert cli_main(["verify", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 0

    def test_estimate_is_the_sup_over_every_coarse_node(self, monkeypatch):
        # pentagon, H = 0.3 at 1/16: the injection estimate against a sup
        # over all coarse interior nodes, each matched to the fine node at
        # the same coordinates
        pentagon = geometry.ConvexPolygon(
            [[0, 0], [2, 0], [2, 1.5], [1, 2.5], [0, 1.5]])
        runs = self.record_newton(monkeypatch)
        outcome = pipeline.verify_domain(
            pentagon, CurvatureField.from_constant(0.3), 1.0 / 16)
        # the grid at 1/16 is the chain's coarsest
        (_, coarse), (_, fine) = runs

        def key(x, y):
            return round(x * 2**20), round(y * 2**20)

        fine_at = {key(x, y): v for (x, y), v in zip(
            fine.grid.interior_points(), fine.dof_values)}
        diffs = [abs(v - fine_at[key(x, y)]) for (x, y), v in zip(
            coarse.grid.interior_points(), coarse.dof_values)]
        assert len(diffs) == 969
        assert outcome.error_estimate == max(diffs) / 3.0
        assert outcome.error_estimate == pytest.approx(9.59047043829972e-05,
                                                       rel=1e-9)

    def test_an_exterior_twin_is_left_out(self):
        # the unit square at 0.1 over the triangle (0, 0), (1, 0), (0, 1)
        # at 0.05: the lattices nest, and the coarse nodes on or above the
        # diagonal have exterior twins
        square = geometry.ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
        triangle = geometry.ConvexPolygon([[0, 0], [1, 0], [0, 1]])
        coarse = grid_from_domain(square, 0.1)
        fine = grid_from_domain(triangle, 0.05)
        x, y = coarse.interior_points().T
        outside = twin_dofs(coarse, fine) < 0
        assert coarse.n_dof == 81
        assert np.array_equal(outside, x + y > 0.95)

        def solution(grid, values):
            return solver.GridSolution(grid, values, 0.0, 0, 1.0, 0.0, 0.0,
                                       0.0)

        # the largest x with an interior twin is 0.8; an exterior twin
        # read as the last fine dof would bring in 0.9
        estimate = verify.richardson_error_estimate(
            solution(coarse, x), solution(fine, np.zeros(fine.n_dof)))
        assert estimate == x[~outside].max() / 3.0 == 0.8 / 3.0

    @pytest.mark.parametrize("spacing", [0.1, 0.05])
    def test_every_pentagon_node_has_an_interior_twin(self, spacing):
        # lattice points on the pentagon's slanted edges are boundary nodes
        # on both grids, on whichever side of the edge roundoff puts them
        pentagon = geometry.ConvexPolygon(
            [[0, 0], [2, 0], [2, 1.5], [1, 2.5], [0, 1.5]])
        coarse = grid_from_domain(pentagon, spacing)
        fine = grid_from_domain(pentagon, spacing / 2)
        assert (twin_dofs(coarse, fine) >= 0).all()

    def test_no_admissible_barrier_fails_before_solving(self, monkeypatch,
                                                        tmp_path):
        # |H| = 0.85 is above the barrier bound of Annulus(1, 2)
        with pytest.raises(NoAdmissibleConstantError) as info:
            pipeline.barrier_for_domain(self.DOMAIN, 0.85)
        newton = self.spy(monkeypatch, solver, "newton_solve")
        homotopies = self.spy(monkeypatch, solver, "continuation_solve")
        out = tmp_path / "verify"
        assert cli_main(["verify", "--annulus", "1", "2", "--h", "-0.85",
                         "--out", str(out)]) == 2
        assert newton == [] and homotopies == []
        report = json.loads((out / "estimate_report.json").read_text())
        assert report == {"status": "no-admissible-barrier",
                          "message": str(info.value)}


class TestOneSolveRule:
    """``solve`` and ``verify`` reach every grid through ``solve_grid``:
    a climb up the grid's chain, whose coarsest grid is solved by Newton
    at t = 1 for a monotone field and by the homotopy otherwise, and the
    homotopy on the requested grid when a run fails."""

    NONMONOTONE = {"table": {"x": [-2.0, 2.0], "y": [-2.0, 2.0],
                             "values": [[-0.3, -0.2], [-0.2, -0.3]]},
                   "z_slope": -0.1}
    # H = -0.3 - 0.05 z: the reference annulus's field, decreasing in z
    DECREASING = {"table": {"x": [-3.0, 3.0], "y": [-3.0, 3.0],
                            "values": [[-0.3, -0.3], [-0.3, -0.3]]},
                  "z_slope": -0.05}
    # H = 1.2 - 0.1 z on Disc(1): over the inscribed disc's limit 1/rho
    OVERCURVED = {"table": {"x": [-2.0, 2.0], "y": [-2.0, 2.0],
                            "values": [[1.2, 1.2], [1.2, 1.2]]},
                  "z_slope": -0.1}

    @staticmethod
    def record_solves(monkeypatch):
        """Events in call order: ("newton", t, converged) per Newton run and
        ("homotopy",) when a homotopy starts."""
        events = []
        newton, homotopy = solver.newton_solve, solver.continuation_solve

        def spy_newton(grid, hfield, **kwargs):
            try:
                out = newton(grid, hfield, **kwargs)
            except SolverError:
                events.append(("newton", kwargs["t_homotopy"], False))
                raise
            events.append(("newton", kwargs["t_homotopy"], True))
            return out

        def spy_homotopy(*args, **kwargs):
            events.append(("homotopy",))
            return homotopy(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", spy_newton)
        monkeypatch.setattr(solver, "continuation_solve", spy_homotopy)
        return events

    def solve(self, tmp_path, curvature):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "annulus", "r_in": 1.0, "r_out": 2.0},
            "curvature": curvature, "spacing": 0.125}))
        out = tmp_path / "solve"
        assert cli_main(["solve", "--config", str(cfg),
                         "--out", str(out)]) == 0
        return json.loads((out / "solve_report.json").read_text())["trace"]

    def test_monotone_field_is_one_newton_run(self, monkeypatch, tmp_path):
        events = self.record_solves(monkeypatch)
        trace = self.solve(tmp_path, {"constant": -0.3})
        assert events == [("newton", 1.0, True)]
        (step,) = trace
        assert step["t"] == 1.0 and step["factorizations"] == 1

    def test_nonmonotone_field_runs_the_homotopy(self, monkeypatch,
                                                 tmp_path):
        events = self.record_solves(monkeypatch)
        trace = self.solve(tmp_path, self.NONMONOTONE)
        assert events[0] == ("homotopy",)
        assert [e[1] for e in events[1:]] == [s["t"] for s in trace]
        assert [s["t"] for s in trace] == pytest.approx(
            np.linspace(0.0, 1.0, 11), abs=1e-15)

    def test_nonmonotone_solve_factors_only_the_coarsest_grid(
            self, monkeypatch):
        # solve at 1/32 (9,640 dof) runs the homotopy on its chain's
        # coarsest grid, 1/8, and climbs from there with the V-cycle of
        # the chain below each grid: 1/8's 596 nodes are the only ones
        # factored, once by each of the three grids' solves
        annulus = geometry.Annulus(1.0, 2.0)
        field = pipeline.curvature_from_json(self.DECREASING)
        assert not field.monotone
        homotopies = TestTwoGridVerify.spy(monkeypatch, solver,
                                           "continuation_solve")
        runs = TestTwoGridVerify.record_newton(monkeypatch)
        sizes = TestTwoGridVerify.record_lu_sizes(monkeypatch)
        outcome = pipeline.solve_domain(annulus, field, 1.0 / 32)
        assert sizes == [grid_from_domain(annulus, 1.0 / 8).n_dof] * 3
        assert max(sizes) <= grid.COARSEST_DOF
        assert homotopies == [1.0 / 8]
        assert [run.newton_iters for h, run in runs if h == 1.0 / 8] == (
            [0] + [3] * 10)
        assert [level.path for level in outcome.levels] == [
            "homotopy", "chain", "chain"]
        assert outcome.solution.residual_inf <= 1e-10

    def test_verify_fine_homotopy_factors_only_the_coarsest_grid(
            self, monkeypatch):
        # verify at 1/16 climbs from the homotopy at 1/8 to 1/16 and
        # solves 1/32 by Newton from there; when that run fails, the
        # homotopy at 1/32 takes its own chain's V-cycle and factors no
        # grid above COARSEST_DOF nodes either
        annulus = geometry.Annulus(1.0, 2.0)
        field = pipeline.curvature_from_json(self.DECREASING)
        real = solver.newton_solve
        injected = []

        def fail_fine_climb(grid, hfield, **kwargs):
            if grid.spacing == 1.0 / 32 and not injected:
                injected.append(kwargs["t_homotopy"])
                raise NonconvergenceError("injected failure")
            return real(grid, hfield, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", fail_fine_climb)
        sizes = TestTwoGridVerify.record_lu_sizes(monkeypatch)
        outcome = pipeline.verify_domain(annulus, field, 1.0 / 16)
        assert injected == [1.0]
        assert [(level.spacing, level.path)
                for level in outcome.levels] == [(1.0 / 8, "homotopy"),
                                                 (1.0 / 16, "chain"),
                                                 (1.0 / 32, "homotopy")]
        assert sizes and max(sizes) <= grid.COARSEST_DOF
        assert outcome.solution.residual_inf <= 1e-10

    @pytest.mark.parametrize("spacing", [1.0 / 32, 1.0 / 64])
    def test_nonmonotone_solve_is_the_homotopy_on_the_requested_grid(
            self, monkeypatch, spacing):
        # the homotopy picks the branch once, on the coarsest grid; the
        # climb from it reaches the solution that the homotopy on the
        # requested grid reaches
        annulus = geometry.Annulus(1.0, 2.0)
        field = pipeline.curvature_from_json(self.DECREASING)
        direct = solver.continuation_solve(grid_from_domain(annulus, spacing),
                                           field)
        homotopies = TestTwoGridVerify.spy(monkeypatch, solver,
                                           "continuation_solve")
        outcome = pipeline.solve_domain(annulus, field, spacing)
        assert homotopies == [1.0 / 8]
        diff = np.max(np.abs(outcome.solution.values - direct.solution.values))
        assert diff <= 1e-12
        assert outcome.solution.residual_inf <= 1e-10

    @pytest.mark.parametrize("domain, h", [
        (geometry.Disc(1.0), 0.9), (geometry.Disc(1.0), 0.95),
        (REFINE_CASES["pentagon"][0], 0.8), (geometry.Annulus(1.0, 2.0), -0.3),
    ], ids=["disc-0.9", "disc-0.95", "pentagon-0.8", "annulus"])
    def test_monotone_climb_is_the_homotopy_on_the_requested_grid(
            self, domain, h):
        # the climb solves a monotone field by Newton from zero, with no
        # homotopy to pick the branch.  Uniqueness is proved for the
        # continuous problem only: the 9-point Jacobian is not an M-matrix,
        # so for the discrete one it is tested here
        field, tol = CurvatureField.from_constant(h), 1e-10
        outcome = pipeline.solve_domain(domain, field, 1.0 / 32, tol=tol)
        assert {level.path for level in outcome.levels} == {"chain"}
        direct = solver.continuation_solve(grid_from_domain(domain, 1.0 / 32),
                                           field, tol=tol)
        diff = np.max(np.abs(outcome.solution.dof_values
                             - direct.solution.dof_values))
        assert diff <= 10.0 * tol

    def test_one_grid_chain_runs_its_homotopy_once(self, monkeypatch):
        # Disc(1) at 1/16 is its own chain's coarsest grid, so its
        # homotopy is the requested grid's: its stall is final
        disc = geometry.Disc(1.0)
        field = pipeline.curvature_from_json(self.OVERCURVED)
        grid = grid_from_domain(disc, 1.0 / 16)
        assert pipeline.grid_chain(grid) == [grid]
        with pytest.raises(ContinuationFailureError) as direct:
            solver.continuation_solve(grid, field)
        homotopies = TestTwoGridVerify.spy(monkeypatch, solver,
                                           "continuation_solve")
        with pytest.raises(ContinuationFailureError) as solved:
            pipeline.solve_domain(disc, field, 1.0 / 16)
        assert homotopies == [1.0 / 16]
        assert solved.value.stall_t == direct.value.stall_t
        assert solved.value.diagnostics == direct.value.diagnostics
        assert solved.value.trace == direct.value.trace

    def test_nonmonotone_stall_is_the_homotopy_at_the_requested_spacing(
            self, monkeypatch):
        # the homotopy stalls on the chain's coarsest grid, 1/16, and
        # again on the requested grid, 1/32, whose stall is reported as
        # the homotopy there reports it alone
        disc = geometry.Disc(1.0)
        field = pipeline.curvature_from_json(self.OVERCURVED)
        grid = grid_from_domain(disc, 1.0 / 32)
        assert [g.spacing for g in pipeline.grid_chain(grid)] == [
            1.0 / 32, 1.0 / 16]
        with pytest.raises(ContinuationFailureError) as direct:
            solver.continuation_solve(grid, field)
        assert direct.value.stall_t == pytest.approx(0.79375, abs=1e-15)
        homotopies = TestTwoGridVerify.spy(monkeypatch, solver,
                                           "continuation_solve")
        with pytest.raises(ContinuationFailureError) as solved:
            pipeline.solve_domain(disc, field, 1.0 / 32)
        assert homotopies == [1.0 / 16, 1.0 / 32]
        assert solved.value.stall_t == direct.value.stall_t
        assert solved.value.diagnostics == direct.value.diagnostics
        assert solved.value.trace == direct.value.trace

    def test_failed_newton_falls_back_to_the_same_stall(self, monkeypatch):
        disc, field = geometry.Disc(1.0), CurvatureField.from_constant(1.2)
        with pytest.raises(ContinuationFailureError) as direct:
            solver.continuation_solve(grid_from_domain(disc, 0.1), field,
                                      max_iters=20)
        events = self.record_solves(monkeypatch)
        with pytest.raises(ContinuationFailureError) as solved:
            pipeline.solve_domain(disc, field, 0.1, max_iters=20)
        assert events[:2] == [("newton", 1.0, False), ("homotopy",)]
        assert events[2:].count(("homotopy",)) == 0
        assert solved.value.stall_t == direct.value.stall_t
        assert solved.value.diagnostics == direct.value.diagnostics

    def test_fallback_builds_no_grid_twice(self, monkeypatch):
        # Disc(1), H = 1.2: Newton fails on the chain's coarsest grid,
        # 1/16, and the homotopy at 1/32 takes the V-cycle over the climb's
        # own grids
        built = []
        real = grid.grid_from_domain

        def spy(domain, spacing, **kwargs):
            built.append(spacing)
            return real(domain, spacing, **kwargs)

        monkeypatch.setattr(grid, "grid_from_domain", spy)
        monkeypatch.setattr(pipeline, "grid_from_domain", spy)
        with pytest.raises(ContinuationFailureError) as stalled:
            pipeline.solve_domain(geometry.Disc(1.0),
                                  CurvatureField.from_constant(1.2), 1.0 / 32)
        assert built == [1.0 / 32, 1.0 / 16]
        assert stalled.value.stall_t == pytest.approx(0.8515625, abs=1e-15)

    def test_stall_is_the_homotopy_at_the_requested_spacing(self,
                                                            monkeypatch):
        # Disc(1), H = 1.2 has no solution.  Newton from zero fails on the
        # chain's coarsest grid, 1/12, and the homotopy runs on the
        # requested grid, 1/24, where it stalls as it does alone
        disc, field = geometry.Disc(1.0), CurvatureField.from_constant(1.2)
        grid = grid_from_domain(disc, 1.0 / 24)
        assert [g.spacing for g in pipeline.grid_chain(grid)] == [
            1.0 / 24, 1.0 / 12]
        with pytest.raises(ContinuationFailureError) as direct:
            solver.continuation_solve(grid, field, max_iters=25)
        assert direct.value.stall_t == 0.859375
        spacings = TestTwoGridVerify.spy(monkeypatch, solver, "newton_solve")
        with pytest.raises(ContinuationFailureError) as solved:
            pipeline.solve_domain(disc, field, 1.0 / 24, max_iters=25)
        assert spacings[0] == 1.0 / 12 and set(spacings[1:]) == {1.0 / 24}
        assert solved.value.stall_t == direct.value.stall_t
        assert solved.value.diagnostics == direct.value.diagnostics
        assert solved.value.trace == direct.value.trace
        # verify finds first that no barrier admits this curvature; where
        # it has one, its stall is solve's at the same spacing: one Newton
        # iteration per run fails on the chain's coarsest grid, 1/8, and
        # the homotopy at 1/16 stalls at once
        with pytest.raises(NoAdmissibleConstantError):
            pipeline.verify_domain(disc, field, 1.0 / 24, max_iters=25)
        annulus = geometry.Annulus(1.0, 2.0)
        h = CurvatureField.from_constant(-0.3)
        with pytest.raises(ContinuationFailureError) as direct:
            solver.continuation_solve(grid_from_domain(annulus, 1.0 / 16), h,
                                      max_iters=1)
        for run in (pipeline.solve_domain, pipeline.verify_domain):
            with pytest.raises(ContinuationFailureError) as stalled:
                run(annulus, h, 1.0 / 16, max_iters=1)
            assert stalled.value.stall_t == direct.value.stall_t
            assert stalled.value.diagnostics == direct.value.diagnostics


class TestVerifySymmetries:
    """Exact symmetries of the discrete scheme, through the whole verify
    path: the coarse Newton solve, the prolongation and the two-grid
    Newton-Krylov solve on the fine grid."""

    DOMAIN = geometry.Annulus(1.0, 2.0)

    @pytest.fixture(scope="class")
    def values(self):
        outcome = pipeline.verify_domain(
            self.DOMAIN, CurvatureField.from_constant(-0.3), 1.0 / 16)
        return outcome.solution.values

    def test_curvature_sign_flips_the_solution_bitwise(self, values):
        # the residual is odd and the Jacobian even under (f, H) -> (-f, -H)
        flipped = pipeline.verify_domain(
            self.DOMAIN, CurvatureField.from_constant(0.3), 1.0 / 16)
        assert np.array_equal(flipped.solution.values, -values)

    def test_reflection_and_transposition(self, values):
        # the lattice is symmetric about both axes and the diagonal, but
        # the stencil sums in a fixed order, so these hold to roundoff
        assert np.max(np.abs(values[:, ::-1] - values)) <= 1e-15
        assert np.max(np.abs(values.T - values)) <= 1e-15


class TestBitmapVerify:
    def test_mask_domain_has_no_refinement(self):
        n = 21
        y, x = np.mgrid[0:n, 0:n]
        disc = (x - 10) ** 2 + (y - 10) ** 2 <= 8 ** 2
        domain = geometry.GridMask(disc, 0.1)
        with pytest.raises(ParameterError, match="no refinement"):
            pipeline.verify_domain(domain, CurvatureField.from_constant(-0.1),
                                   0.1)
