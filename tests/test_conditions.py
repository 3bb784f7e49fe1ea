import json
import math

import mpmath
import numpy as np
import pytest

from pmcgraph import conditions as cond
from pmcgraph.conditions import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CurvatureField,
    check_annulus_smallness,
    check_inscribed_disc,
    check_mean_convexity,
    check_strip_smallness,
    check_volume_smallness,
    nonexistence_height_bound,
    unit_ball_volume,
)
from pmcgraph.errors import ParameterError

mpmath.mp.dps = 40


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


class TestAnnulusSmallness:
    def test_reference_bound(self):
        res = check_annulus_smallness(2, 1.0, 1.0, 0.3)
        assert res.bound == pytest.approx(0.8, abs=1e-15)
        assert res.verdict == PASS

    def test_equality_fails(self):
        assert check_annulus_smallness(2, 1.0, 1.0, 0.8).verdict == FAIL

    def test_three_dimensional_bound(self):
        res = check_annulus_smallness(3, 1.0, 2.0, 0.1)
        assert res.bound == pytest.approx(1.0 / 7.0, rel=1e-15)

    def test_monotonicity_in_gap_and_radius(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            r = float(rng.uniform(0.2, 4.0))
            d = float(rng.uniform(0.1, 3.0))
            bound = check_annulus_smallness(dim, r, d, 0.0).bound
            assert check_annulus_smallness(dim, r, d * 1.3, 0.0).bound < bound
            assert check_annulus_smallness(dim, r * 1.3, d, 0.0).bound > bound


class TestVolumeSmallness:
    def test_unit_disc(self):
        res = check_volume_smallness(2, math.pi, 0.5)
        assert res.bound == pytest.approx(1.0, rel=1e-15)
        assert res.verdict == PASS

    def test_four_unit_discs(self):
        res = check_volume_smallness(2, 4.0 * math.pi, 0.6)
        assert res.bound == pytest.approx(0.5, rel=1e-15)
        assert res.verdict == FAIL

    def test_ball_of_radius_two(self):
        res = check_volume_smallness(3, (4.0 / 3.0) * math.pi * 8.0, 0.1)
        assert res.bound == pytest.approx(0.5, rel=1e-15)


class TestStripSmallness:
    def test_reference_values(self):
        assert check_strip_smallness(2, 1.0, 0.9).verdict == PASS
        assert check_strip_smallness(2, 1.0, 0.9).bound == pytest.approx(1.0)
        assert check_strip_smallness(2, 1.0, 1.0).verdict == FAIL

    def test_nonconvex_not_applicable(self):
        assert check_strip_smallness(2, 1.0, 0.5, convex=False).verdict \
            == NOT_APPLICABLE
        assert check_strip_smallness(2, None, 0.5).verdict == NOT_APPLICABLE

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_large_radius_limit_of_annulus_bound(self, dim):
        d = 0.7
        strip = check_strip_smallness(dim, d, 0.0).bound
        annulus = check_annulus_smallness(dim, 1e6, d, 0.0).bound
        assert abs(annulus - strip) <= 1e-6 * strip


class TestInscribedDisc:
    def test_equality_allowed(self):
        assert check_inscribed_disc(2, 1.0, 1.0).verdict == PASS

    def test_violation(self):
        assert check_inscribed_disc(2, 2.0, 1.0).verdict == FAIL

    def test_tiny_disc_never_binds(self):
        assert check_inscribed_disc(3, 1e-12, 1e6).verdict == PASS


class TestMeanConvexity:
    def test_disc_threshold(self):
        # constant h over a disc of radius R passes iff h <= (n-1)/n * 1/R
        R, dim = 2.0, 2
        samples = [(np.array([R * math.cos(t), R * math.sin(t)]), 1.0 / R)
                   for t in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)]
        ok = CurvatureField.from_constant(0.25)
        bad = CurvatureField.from_constant(0.2500001)
        assert check_mean_convexity(dim, samples, ok, (-1, 1)).verdict == PASS
        assert check_mean_convexity(dim, samples, bad, (-1, 1)).verdict == FAIL

    def test_concave_inner_boundary_fails_any_positive_h(self):
        samples = [(np.array([1.0, 0.0]), -1.0)]
        field = CurvatureField.from_constant(1e-8)
        assert check_mean_convexity(2, samples, field, (-1, 1)).verdict == FAIL

    def test_minimal_case_passes_on_convex(self):
        samples = [(np.array([2.0, 0.0]), 0.5), (np.array([0.0, 2.0]), 0.5)]
        field = CurvatureField.from_constant(0.0)
        assert check_mean_convexity(2, samples, field, (-1, 1)).verdict == PASS

    def test_empty_samples_error(self):
        with pytest.raises(ParameterError):
            check_mean_convexity(2, [], CurvatureField.from_constant(0.0), (-1, 1))


class TestNonexistenceHeightBound:
    def test_planar_closed_form(self):
        val = nonexistence_height_bound(2, 0.1)
        assert val == pytest.approx(0.1 * math.log(10.0 + math.sqrt(99.0)),
                                    rel=1e-14)
        assert val == pytest.approx(0.1 * math.acosh(10.0), rel=1e-15)

    def test_vanishes_at_unit_ratio(self):
        assert nonexistence_height_bound(2, 1.0 - 1e-12) <= 1e-5

    def test_quadrature_oracle_dim3(self):
        val = nonexistence_height_bound(3, 0.1)
        ref = 0.1 * float(mpmath.quad(
            lambda tau: 1.0 / mpmath.sqrt(tau**4 - 1.0), [1.0, 2.0, 10.0]))
        assert val == pytest.approx(ref, abs=1e-10)
        improper = 0.1 * float(mpmath.quad(
            lambda tau: 1.0 / mpmath.sqrt(tau**4 - 1.0), [1.0, 2.0, mpmath.inf]))
        assert val < improper

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_decreasing_in_thinness(self, dim):
        vals = [nonexistence_height_bound(dim, 10.0**-k) for k in range(1, 7)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_outer_scaling(self):
        # bound over {eps < |x| < R} is the rescaled unit-annulus bound
        val = nonexistence_height_bound(2, 0.2, outer=2.0)
        ref = 2.0 * nonexistence_height_bound(2, 0.1)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_domain_validation(self):
        for eps in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ParameterError):
                nonexistence_height_bound(2, eps)


class TestTwoSmallnessTestsAreIncomparable:
    """Neither sufficient smallness test implies the other."""

    def find_fixtures(self):
        # deterministic scan over annulus-shaped and disc-shaped settings
        fixtures = {}
        # full annulus {r < |x| < r+d}: volume pi*d*(2r+d)
        for r, d in ((10.0, 1.0), (5.0, 0.5)):
            vol = math.pi * d * (2.0 * r + d)
            b3 = check_annulus_smallness(2, r, d, 0.0).bound
            b4 = check_volume_smallness(2, vol, 0.0).bound
            if b4 < b3:
                fixtures["annulus_passes_volume_fails"] = (r, d, vol, 0.5 * (b3 + b4))
                break
        # small disc far out: volume pi*rho^2, best gap d = 2*rho
        for rho, r in ((1.0, 10.0), (0.5, 8.0)):
            vol = math.pi * rho * rho
            b3 = check_annulus_smallness(2, r, 2.0 * rho, 0.0).bound
            b4 = check_volume_smallness(2, vol, 0.0).bound
            if b3 < b4:
                fixtures["volume_passes_annulus_fails"] = (r, 2.0 * rho, vol,
                                                           0.5 * (b3 + b4))
                break
        return fixtures

    def test_both_orderings_exist(self):
        fixtures = self.find_fixtures()
        r, d, vol, h = fixtures["annulus_passes_volume_fails"]
        assert check_annulus_smallness(2, r, d, h).verdict == PASS
        assert check_volume_smallness(2, vol, h).verdict == FAIL
        r, d, vol, h = fixtures["volume_passes_annulus_fails"]
        assert check_annulus_smallness(2, r, d, h).verdict == FAIL
        assert check_volume_smallness(2, vol, h).verdict == PASS


class TestCurvatureField:
    def test_constant_field(self):
        f = CurvatureField.from_constant(-0.3)
        pts = np.zeros((5, 2))
        assert np.all(f.eval(pts, np.zeros(5)) == -0.3)
        gx, gz = f.grad_eval(pts, np.zeros(5))
        assert np.all(gx == 0.0) and np.all(gz == 0.0)
        assert f.is_constant

    def test_finite_difference_gradient(self):
        f = CurvatureField(lambda p, z: p[..., 0] ** 2 + 3.0 * z)
        pts = np.array([[1.0, 2.0], [0.5, -1.0]])
        gx, gz = f.grad_eval(pts, np.array([0.0, 1.0]))
        assert gx[..., 0] == pytest.approx([2.0, 1.0], rel=1e-6)
        assert gz == pytest.approx([3.0, 3.0], rel=1e-8)

    def test_hz_is_grad_z_with_two_evaluations(self):
        # the polygon workload's tabulated field: hz must equal the z part
        # of grad_eval bit for bit, from 2 field evaluations instead of 6
        from pmcgraph import pipeline

        tab = pipeline.curvature_from_json({
            "table": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.25, 2.5],
                      "values": [[-0.30, -0.22, -0.30],
                                 [-0.25, -0.15, -0.25],
                                 [-0.20, -0.28, -0.20]]},
            "z_slope": 0.1})
        calls = []

        def counted(points, z):
            calls.append(1)
            return tab.eval(points, z)

        field = CurvatureField(counted)
        xs, ys = np.meshgrid(np.linspace(0.0, 2.0, 33), np.linspace(0.0, 2.5, 41))
        pts = np.stack([xs, ys], axis=-1)
        z = np.sin(3.0 * xs) * np.cos(2.0 * ys) * 1.7
        gz = field.grad_eval(pts, z)[1]
        assert len(calls) == 6
        hz = field.hz(pts, z)
        assert len(calls) == 8
        assert np.array_equal(hz, gz)
        assert hz == pytest.approx(np.full(z.shape, 0.1), rel=1e-6)

    def test_hz_uses_analytic_gradient(self):
        f = CurvatureField(lambda p, z: z**3,
                           grad=lambda p, z: (np.zeros(p.shape), 3.0 * z**2))
        pts = np.zeros((3, 2))
        z = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(f.hz(pts, z), 3.0 * z**2)

    def test_table_field_gradient_is_exact(self):
        from pmcgraph import pipeline

        tab = pipeline.curvature_from_json({
            "table": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.25, 2.5],
                      "values": [[-0.30, -0.22, -0.30],
                                 [-0.25, -0.15, -0.25],
                                 [-0.20, -0.28, -0.20]]},
            "z_slope": 0.1})
        rng = np.random.default_rng(2)
        pts = rng.uniform([-0.5, -0.5], [2.5, 3.0], size=(2000, 2))
        # away from the table lines, where H is not differentiable; the
        # points past the table test the clamp
        off_x = np.min(np.abs(pts[:, :1] - [0.0, 1.0, 2.0]), axis=1) > 1e-3
        off_y = np.min(np.abs(pts[:, 1:] - [0.0, 1.25, 2.5]), axis=1) > 1e-3
        pts = pts[off_x & off_y]
        z = rng.uniform(-2.0, 2.0, len(pts))
        assert np.array_equal(tab.hz(pts, z), np.full(len(pts), 0.1))
        gx, gz = tab.grad_eval(pts, z)
        assert np.array_equal(gz, np.full(len(pts), 0.1))
        step = 1e-6
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = step
            central = (tab.eval(pts + dp, z) - tab.eval(pts - dp, z)) / (2 * step)
            assert np.max(np.abs(gx[:, k] - central)) <= 1e-6
        outside = (pts[:, 0] < 0.0) | (pts[:, 0] > 2.0)
        assert outside.any() and np.all(gx[outside, 0] == 0.0)

    @pytest.mark.parametrize("spec", [
        {"constant": -0.3},
        {"table": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.25, 2.5],
                   "values": [[-0.30, -0.22, -0.30], [-0.25, -0.15, -0.25],
                              [-0.20, -0.28, -0.20]]},
         "z_slope": 0.1}], ids=["constant", "table"])
    def test_z_affine_hz_is_grad_z_bitwise(self, spec, monkeypatch):
        # H(x) + s z: hz is s, bitwise the z part of the gradient, and no
        # gradient is evaluated for it
        from pmcgraph import pipeline

        field = pipeline.curvature_from_json(spec)
        rng = np.random.default_rng(5)
        pts = rng.uniform([-0.5, -0.5], [2.5, 3.0], size=(300, 2))
        cases = [(pts, rng.uniform(-2.0, 2.0, 300)),
                 (pts.reshape(15, 20, 2), 0.7)]
        expected = [field.grad_eval(p, z)[1] for p, z in cases]

        def no_gradient(*args, **kwargs):
            raise AssertionError("hz evaluated the gradient")

        monkeypatch.setattr(CurvatureField, "grad_eval", no_gradient)
        for (p, z), gz in zip(cases, expected):
            hz = field.hz(p, z)
            assert hz.dtype == gz.dtype and np.array_equal(hz, gz)

    def test_on_nodes_evaluates_the_spatial_part_once(self):
        calls = []

        def spatial(points):
            calls.append(points)
            return np.sin(points[..., 0]) * np.cos(3.0 * points[..., 1])

        field = CurvatureField(lambda p, z: spatial(p) + 0.25 * z,
                               z_slope=0.25, spatial=spatial)
        rng = np.random.default_rng(6)
        nodes = rng.uniform(-1.0, 1.0, size=(200, 2))
        zs = [rng.uniform(-2.0, 2.0, 200) for _ in range(3)]
        reference = [field.eval(nodes, z) for z in zs]
        calls.clear()
        fixed = field.on_nodes(nodes)
        assert len(calls) == 1 and calls[0] is nodes
        for z, ref in zip(zs, reference):
            assert np.array_equal(fixed.eval(nodes, z), ref)
        assert len(calls) == 1
        # other points, even equal ones, are evaluated in full
        assert np.array_equal(fixed.eval(nodes.copy(), zs[0]), reference[0])
        assert len(calls) == 2
        assert fixed.z_slope == 0.25 and fixed.on_nodes(nodes) is fixed

    def test_constant_field_is_z_affine_without_a_spatial_part(self):
        f = CurvatureField.from_constant(0.4)
        assert f.z_slope == 0.0
        assert f.on_nodes(np.zeros((3, 2))) is f

    def test_sampled_bounds(self):
        f = CurvatureField(lambda p, z: z)
        pts = np.zeros((4, 2))
        h_sup0, h0, min_hz = cond.sample_field_bounds(f, pts,
                                                      np.linspace(-1, 1, 9))
        assert h_sup0 == 0.0
        assert h0 == pytest.approx(2.0, rel=1e-6)
        assert min_hz == pytest.approx(1.0, rel=1e-8)


class TestReportAggregation:
    def test_existence_guaranteed(self):
        rep = cond.evaluate_conditions(
            2, 0.3, annulus_r=1.0, annulus_d=1.0, volume=3.0 * math.pi,
            strip_width=None, convex=False, inscribed_rho=0.5,
            constant_h=-0.3, monotone_ok=True)
        assert rep.overall == cond.EXISTENCE_GUARANTEED
        assert rep.exit_code() == 0

    def test_inscribed_violation_dominates(self):
        rep = cond.evaluate_conditions(
            2, 1.2, annulus_r=100.0, annulus_d=2.0, volume=math.pi,
            strip_width=2.0, convex=True, inscribed_rho=1.0,
            constant_h=1.2, monotone_ok=True)
        assert rep.overall == cond.NECESSARY_VIOLATED
        assert rep.exit_code() == 2

    def test_smallness_failure_is_indeterminate(self):
        rep = cond.evaluate_conditions(
            2, 1.0, annulus_r=0.05, annulus_d=0.95, volume=math.pi,
            strip_width=None, convex=False, inscribed_rho=0.475,
            constant_h=1.0, monotone_ok=True)
        assert rep.overall == cond.INDETERMINATE
        assert rep.exit_code() == 3

    def test_monotonicity_required_for_guarantee(self):
        rep = cond.evaluate_conditions(
            2, 0.3, annulus_r=1.0, annulus_d=1.0, volume=3.0 * math.pi,
            strip_width=None, convex=False, inscribed_rho=0.5,
            constant_h=None, monotone_ok=False)
        assert rep.overall == cond.INDETERMINATE

    def test_approximate_metrics_block_guarantee(self):
        rep = cond.evaluate_conditions(
            2, 0.3, annulus_r=1.0, annulus_d=1.0, volume=3.0 * math.pi,
            strip_width=None, convex=False, inscribed_rho=0.5,
            constant_h=-0.3, monotone_ok=True, metrics_exact=False)
        assert rep.overall == cond.INDETERMINATE
        assert rep.notes

    def test_json_wire_format(self, tmp_path):
        rep = cond.evaluate_conditions(
            2, 0.3, annulus_r=1.0, annulus_d=1.0, volume=3.0 * math.pi,
            strip_width=None, convex=False, inscribed_rho=0.5,
            constant_h=-0.3, monotone_ok=True)
        path = tmp_path / "report.json"
        rep.write_json(path)
        data = json.loads(path.read_text())
        assert data["overall"] == "existence-guaranteed"
        for row in data["checks"]:
            assert set(row) == {"name", "bound", "actual", "verdict", "citation"}
