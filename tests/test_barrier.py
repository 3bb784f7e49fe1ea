import json
import math

import mpmath
import numpy as np
import pytest

from pmcgraph import barrier, geometry, ioutil
from pmcgraph.errors import (
    NoAdmissibleConstantError,
    OutOfDomainError,
    ParameterError,
)

mpmath.mp.dps = 50


def mp_slope(t, dim, h, c):
    """Profile slope evaluated in 50-digit arithmetic."""
    t, h, c = mpmath.mpf(t), mpmath.mpf(h), mpmath.mpf(c)
    num = c - h * t**dim
    return float(num / mpmath.sqrt(t ** (2 * dim - 2) - num**2))


def bisect_root(fn, lo, hi, iters=200):
    flo = fn(lo)
    assert flo <= 0.0 <= fn(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestProfileZeros:
    def test_figure_parameters(self):
        a, b = barrier.profile_zeros(2, 1.0 / 3.0, 4.0 / 3.0)
        assert abs(a - 1.0) <= 1e-9
        assert abs(b - 4.0) <= 1e-9

    def test_catenoid_single_zero(self):
        a, b = barrier.profile_zeros(2, 0.0, 1.0)
        assert a == 1.0
        assert b == math.inf

    def test_against_bisection_oracle(self):
        dim, h, c = 3, 0.1, 2.0
        a, b = barrier.profile_zeros(dim, h, c)
        a_ref = bisect_root(lambda t: 0.1 * t**3 + t**2 - 2.0, 0.0, 2.0)
        b_ref = bisect_root(lambda t: 0.1 * t**3 - t**2 - 2.0, 1.0, 50.0)
        assert abs(a - a_ref) <= 1e-10
        assert abs(b - b_ref) <= 1e-10

    @pytest.mark.parametrize("dim,h,c", [(2, 0.5, 1.7), (3, 0.05, 4.0),
                                         (4, 2.0, 0.3), (2, 1e-3, 12.0)])
    def test_defining_equation_residuals(self, dim, h, c):
        a, b = barrier.profile_zeros(dim, h, c)
        assert abs(h * a**dim + a ** (dim - 1) - c) <= 1e-12 * max(1.0, c)
        assert abs(h * b**dim - b ** (dim - 1) - c) <= 1e-12 * max(1.0, c)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ParameterError):
            barrier.profile_zeros(2, 0.5, 0.0)
        with pytest.raises(ParameterError):
            barrier.profile_zeros(2, 0.5, -1.0)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ParameterError):
            barrier.profile_zeros(1, 0.5, 1.0)


class TestApex:
    def test_figure_value(self):
        assert barrier.apex(2, 1.0 / 3.0, 4.0 / 3.0) == pytest.approx(2.0, abs=1e-14)

    def test_cube_root(self):
        assert barrier.apex(3, 1.0, 8.0) == pytest.approx(2.0, abs=1e-14)

    def test_catenoid_sentinel(self):
        assert barrier.apex(2, 0.0, 1.0) == math.inf

    def test_monotone_in_c(self):
        cs = np.linspace(0.4, 1.3, 40)  # admissible interval for r=1, h=1/3
        t0s = [barrier.apex(2, 1.0 / 3.0, c) for c in cs]
        assert all(x < y for x, y in zip(t0s, t0s[1:]))

    def test_lies_between_zeros(self):
        for dim, h, c in [(2, 0.5, 1.0), (3, 0.2, 5.0), (5, 1.5, 2.0)]:
            a, b = barrier.profile_zeros(dim, h, c)
            assert a < barrier.apex(dim, h, c) < b


class TestSlope:
    def test_zero_at_apex(self):
        assert barrier.slope(2.0, 2, 1.0 / 3.0, 4.0 / 3.0) == 0.0

    def test_catenoid_closed_form(self):
        assert barrier.slope(2.0, 2, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(3.0), rel=1e-14)

    def test_high_precision_oracle(self):
        val = barrier.slope(1.05, 2, 1.0 / 3.0, 4.0 / 3.0)
        ref = mp_slope(1.05, 2, 1.0 / 3.0, 4.0 / 3.0)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_sign_pattern(self):
        prof = barrier.make_profile(2, 1.0 / 3.0, 1.0, 1.2)
        assert prof.slope(0.5 * (prof.a + prof.t0) + 0.2) > 0.0
        assert prof.slope(prof.t0 + 0.3) < 0.0

    def test_out_of_domain(self):
        a, b = barrier.profile_zeros(2, 1.0 / 3.0, 4.0 / 3.0)
        for t in (a, a - 0.1, b, b + 0.1):
            with pytest.raises(OutOfDomainError):
                barrier.slope(t, 2, 1.0 / 3.0, 4.0 / 3.0)


class TestHeight:
    def test_anchor_is_zero(self):
        for prof in (barrier.make_profile(2, 1.0 / 3.0, 1.0, 1.2),
                     barrier.make_profile(2, 0.0, 1.0, 0.5),
                     barrier.make_profile(3, 0.1, 1.0, 0.7)):
            assert prof.height(prof.r) == 0.0

    def test_catenary_closed_form(self):
        # the anchored catenary: c * (arcosh(t/c) - arcosh(r/c))
        prof = barrier.make_profile(2, 0.0, 1.0, 0.5)
        ts = np.linspace(1.0, 5.0, 41)
        worst = max(abs(prof.height(t, force_quadrature=True)
                        - 0.5 * (math.acosh(t / 0.5) - math.acosh(2.0)))
                    for t in ts)
        assert worst <= 1e-8

    def test_quadrature_matches_closed_form(self):
        prof = barrier.make_profile(2, 0.0, 1.0, 0.5)
        for t in (1.3, 2.7, 4.9):
            assert prof.height(t) == pytest.approx(
                prof.height(t, force_quadrature=True), abs=1e-10)

    def test_monotone_rise_and_fall(self):
        prof = barrier.make_profile(2, 1.0 / 3.0, 1.0, 1.25)
        rise = prof.heights(np.linspace(prof.r, prof.t0, 30))
        assert np.all(np.diff(rise) > 0.0)
        fall = prof.heights(np.linspace(prof.t0, prof.r_usable, 30))
        assert np.all(np.diff(fall) < 0.0)
        # positivity over the guaranteed range
        assert prof.heights(np.linspace(prof.r + 1e-6, prof.r_usable, 50)).min() > 0.0

    def test_mpmath_quadrature_oracle(self):
        dim, h, c, r = 3, 0.25, 1.1, 1.0
        prof = barrier.make_profile(dim, h, r, c)
        t_hi = 0.5 * (prof.t0 + prof.r_usable)

        def integrand(s):
            num = c - h * s**dim
            return num / mpmath.sqrt(s ** (2 * dim - 2) - num**2)

        ref = float(mpmath.quad(integrand, [r, prof.t0, t_hi]))
        assert prof.height(t_hi) == pytest.approx(ref, abs=1e-9)

    def test_bounded_for_higher_dim_catenoid(self):
        # for dim >= 3 the catenoid's generating curve is uniformly bounded
        from scipy import integrate as si

        dim, r, c = 3, 1.0, 0.5
        prof = barrier.make_profile(dim, 0.0, r, c)
        bound, _ = si.quad(
            lambda s: c / math.sqrt(s ** (2 * dim - 2) - c * c), r, np.inf)
        ts = np.geomspace(r, 1e6 * r, 40)
        heights = prof.heights(ts)
        assert np.all(np.diff(heights) > 0.0)
        assert heights[-1] <= bound

    def test_out_of_domain(self):
        prof = barrier.make_profile(2, 1.0 / 3.0, 1.0, 1.2)
        with pytest.raises(OutOfDomainError):
            prof.height(prof.r - 0.01)
        with pytest.raises(OutOfDomainError):
            prof.height(prof.r_usable * 1.01)


class TestPlanarIntervalLength:
    def test_interval_length_is_reciprocal_curvature(self):
        # planar nodoids: b - a = 1/h independently of the constant
        rng = np.random.default_rng(7)
        h = 1.0 / 3.0
        for c in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 20)):
            a, b = barrier.profile_zeros(2, h, float(c))
            assert abs((b - a) - 1.0 / h) <= 1e-10 * max(1.0, 1.0 / h)

    def test_higher_dim_interval_depends_on_c(self):
        lengths = []
        for c in (0.5, 1.0, 2.0):
            a, b = barrier.profile_zeros(3, 0.5, c)
            lengths.append(b - a)
        assert max(lengths) - min(lengths) > 1e-3


class TestSymmetryInequality:
    def test_rise_beats_fall(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            h = float(rng.uniform(0.1, 2.0))
            r = float(rng.uniform(0.5, 2.0))
            lo, hi = barrier.admissible_interval(dim, h, r)
            c = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
            prof = barrier.make_profile(dim, h, r, c)
            span = prof.t0 - prof.a
            for s in np.linspace(1e-3 * span, span * (1.0 - 1e-3), 50):
                up = prof.slope(prof.t0 - s)
                down = prof.slope(prof.t0 + s)
                assert up > abs(down)


class TestUsableRadius:
    def test_figure_value(self):
        assert barrier.usable_radius(2, 1.0 / 3.0, 1.0, 4.0 / 3.0) == pytest.approx(
            3.0, abs=1e-12)

    def test_upper_limit(self):
        dim, h, r = 2, 1.0 / 3.0, 1.0
        lo, hi = barrier.admissible_interval(dim, h, r)
        limit = 2.0 * r * (1.0 + 1.0 / (h * r)) ** (1.0 / dim) - r
        for k in (6, 9, 12):
            c = hi - 10.0**-k
            assert barrier.usable_radius(dim, h, r, c) == pytest.approx(
                limit, abs=10.0 ** (-k + 1))

    def test_below_outer_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            h = float(rng.uniform(0.05, 1.5))
            r = float(rng.uniform(0.3, 3.0))
            lo, hi = barrier.admissible_interval(dim, h, r)
            c = float(rng.uniform(lo * 1.0 + 1e-9, hi - 1e-9))
            _, b = barrier.profile_zeros(dim, h, c)
            assert barrier.usable_radius(dim, h, r, c) < b

    def test_bound_equivalence(self):
        # the existence bound for (r, R) equals the curvature at which the
        # usable-radius supremum hits R, and the pass/fail predicates agree
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            r = float(rng.uniform(0.2, 3.0))
            R = r + float(rng.uniform(0.05, 4.0))
            h_eq = barrier.annulus_height_bound(dim, r, R)
            sup_at_heq = 2.0 * r * (1.0 + 1.0 / (h_eq * r)) ** (1.0 / dim) - r
            assert abs(sup_at_heq - R) <= 1e-10 * max(1.0, R)
            for factor in (0.7, 1.3):
                h = factor * h_eq
                sup_r = 2.0 * r * (1.0 + 1.0 / (h * r)) ** (1.0 / dim) - r
                assert (h < h_eq) == (R < sup_r)


class TestSelectC:
    def test_near_bound_pushes_to_upper_limit(self):
        h = 0.8 * (1.0 - 1e-9)
        c = barrier.select_c(2, h, 1.0, 2.0)
        assert abs(c - (h + 1.0)) <= 1e-6

    def test_catenoid_choice(self):
        assert barrier.select_c(2, 0.0, 1.0, 7.0) == 0.5
        assert barrier.select_c(3, 0.0, 2.0, 9.0) == 2.0

    def test_violating_curvature_rejected(self):
        with pytest.raises(NoAdmissibleConstantError):
            barrier.select_c(2, 0.81, 1.0, 2.0)
        with pytest.raises(NoAdmissibleConstantError):
            barrier.select_c(2, 0.8, 1.0, 2.0)  # equality is rejected too

    def test_grazing_rejected(self):
        bound = barrier.annulus_height_bound(2, 1.0, 2.0)
        with pytest.raises(NoAdmissibleConstantError):
            barrier.select_c(2, bound * (1.0 - 1e-14), 1.0, 2.0)

    def test_usable_radius_covers_target(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            dim = int(rng.integers(2, 4))
            r = float(rng.uniform(0.3, 2.0))
            R = r + float(rng.uniform(0.1, 2.0))
            bound = barrier.annulus_height_bound(dim, r, R)
            h = float(rng.uniform(0.1, 0.95)) * bound
            c = barrier.select_c(dim, h, r, R)
            lo, hi = barrier.admissible_interval(dim, h, r)
            assert lo < c < hi
            assert barrier.usable_radius(dim, h, r, c) >= R


class TestBarrierConstants:
    def test_catenoid_inner_slope(self):
        prof = barrier.make_profile(2, 0.0, 1.0, 0.5)
        c1, c2 = barrier.barrier_constants(prof, outer=5.0)
        assert c2 == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        assert c1 == pytest.approx(0.5 * (math.acosh(10.0) - math.acosh(2.0)),
                                   rel=1e-12)

    def test_dual_quadrature_cross_check(self):
        prof = barrier.profile_for_annulus(2, 1.0 / 3.0, 1.0, 2.0)
        c1, _ = barrier.barrier_constants(prof)

        def integrand(s):
            num = prof.c - prof.h * s**2
            return num / mpmath.sqrt(s**2 - num**2)

        ref = float(mpmath.quad(integrand, [prof.r, prof.t0]))
        assert abs(c1 - ref) <= 1e-8

    def test_positive_and_finite(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            dim = int(rng.integers(2, 5))
            h = float(rng.uniform(0.05, 1.0))
            r = float(rng.uniform(0.4, 2.0))
            lo, hi = barrier.admissible_interval(dim, h, r)
            c = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            prof = barrier.make_profile(dim, h, r, c)
            c1, c2 = barrier.barrier_constants(prof)
            assert 0.0 < c1 < math.inf
            assert 0.0 < c2 < math.inf

    def test_catenoid_requires_outer(self):
        prof = barrier.make_profile(2, 0.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            barrier.barrier_constants(prof)


def running_heights(dim, h, c, r, ts):
    """Running sum of per-interval quadratures: the path the vectorized
    kernel replaced, kept as its oracle."""
    out = np.empty(ts.size)
    acc = barrier.profile_height_integral(dim, h, c, r, ts[0])
    out[0] = acc
    for i in range(1, ts.size):
        acc += barrier.profile_height_integral(dim, h, c, ts[i - 1], ts[i])
        out[i] = acc
    return out


class TestCumulativeHeights:
    def assert_matches_oracle(self, dim, h, c, r, ts):
        got = barrier.cumulative_heights(dim, h, c, r, ts)
        assert got.shape == ts.shape
        assert np.max(np.abs(got - running_heights(dim, h, c, r, ts))) <= 1e-10

    def test_annulus_verify_fine_grid(self):
        # the radii verify's pointwise barrier check feeds it, duplicates
        # included, through the profile's public entry point
        from pmcgraph.grid import grid_from_domain

        prof = barrier.profile_for_annulus(2, 0.3, 1.0, 2.0)
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 64)
        radii = np.sort(np.clip(np.hypot(grid.X[grid.interior],
                                         grid.Y[grid.interior]),
                                prof.r, prof.domain_limit()))
        assert np.unique(radii).size < radii.size
        got = prof.heights(radii)
        oracle = running_heights(2, 0.3, prof.c, prof.r, radii)
        assert np.max(np.abs(got - oracle)) <= 1e-10

    def test_higher_dim_nodoid_to_usable_radius(self):
        prof = barrier.make_profile(3, 0.25, 1.0, 1.1)
        ts = np.linspace(prof.r, prof.r_usable, 3000)
        self.assert_matches_oracle(3, 0.25, 1.1, prof.r, ts)

    def test_catenoid_geometric_grid(self):
        prof = barrier.make_profile(3, 0.0, 1.0, 0.5)
        ts = np.geomspace(prof.r, 1e6 * prof.r, 2000)
        self.assert_matches_oracle(3, 0.0, 0.5, prof.r, ts)
        got = prof.heights(ts)
        assert np.max(np.abs(got - running_heights(3, 0.0, 0.5, 1.0, ts))) <= 1e-10

    def test_grid_ending_at_the_outer_guard(self):
        # the last tenth of (a, b) goes through the singular-window chain
        prof = barrier.profile_for_annulus(2, 0.3, 1.0, 2.0)
        guard = barrier.B_GUARD_FRACTION * (prof.b - prof.a)
        ts = np.linspace(prof.r, prof.b - guard, 2000)
        self.assert_matches_oracle(2, 0.3, prof.c, prof.r, ts)

    def test_anchor_at_inner_zero(self):
        # radial shooting at its largest constant anchors exactly at a
        eps, h = 0.3, 1.0
        c = h * eps**2 + eps
        a, b = barrier.profile_zeros(2, h, c)
        ts = np.linspace(eps, min(1.0, b), 1001)
        self.assert_matches_oracle(2, h, c, eps, ts)

    def test_short_grid_is_the_running_sum(self):
        # no more smooth-range radii than knots: the radii are the knots
        prof = barrier.profile_for_annulus(2, 0.3, 1.0, 2.0)
        ts = np.linspace(prof.r, 2.0, 40)
        got = barrier.cumulative_heights(2, 0.3, prof.c, prof.r, ts)
        assert np.array_equal(got, running_heights(2, 0.3, prof.c, prof.r, ts))

    def test_gauss_legendre_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert np.max(np.abs(barrier._GL_NODES - nodes)) <= 1e-15
        assert np.max(np.abs(barrier._GL_WEIGHTS - weights)) <= 1e-15

    def test_planar_catenoid_closed_form(self):
        prof = barrier.make_profile(2, 0.0, 1.0, 0.5)
        ts = np.geomspace(1.0, 1e3, 500)
        got = prof.heights(ts)
        assert got[0] == 0.0
        per_point = np.array([prof.height(t) for t in ts])
        assert np.max(np.abs(got - per_point)) <= 1e-14


class TestExports:
    def test_table_and_csv(self, tmp_path):
        prof = barrier.profile_for_annulus(2, 0.3, 1.0, 2.0)
        table = barrier.profile_table(prof, 2.0, num=51)
        assert table.shape == (51, 3)
        assert table[0, 0] == 1.0 and table[0, 1] == 0.0
        path = tmp_path / "profile.csv"
        barrier.write_profile_csv(prof, path, 2.0, num=51)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p,p_prime"
        assert len(lines) == 52

    def test_params_json_keys(self, tmp_path):
        prof = barrier.profile_for_annulus(2, 0.3, 1.0, 2.0)
        path = tmp_path / "params.json"
        barrier.write_params_json(prof, path)
        data = json.loads(path.read_text())
        assert set(data) == {"dim", "h", "r", "c", "a", "b", "t0",
                             "R_usable", "C1", "C2"}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_array_csv_bytes(self, tmp_path, dtype):
        # the float-array fast path against the per-value formatter, over
        # more rows than one conversion block
        rng = np.random.default_rng(3)
        spread = rng.normal(size=(2500, 3)) * 10.0 ** rng.integers(-30, 30, (2500, 3))
        rows = np.vstack([[[0.0, -0.0, 1e-300], [np.nan, np.inf, -np.inf],
                           [1.0 / 3.0, 2.5e10, -7.0]], spread]).astype(dtype)
        path = tmp_path / "rows.csv"
        ioutil.write_csv(path, ["a", "b", "c"], rows)
        expected = ["a,b,c"] + [",".join(ioutil.format_value(v) for v in row)
                                for row in rows]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_mixed_rows_csv_bytes(self, tmp_path):
        rows = [(0.5, 1, np.float64(-0.0)), (np.int64(3), 1e-300, np.nan)]
        path = tmp_path / "rows.csv"
        ioutil.write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text() == "a,b,c\n0.5,1,-0.0\n3,1e-300,nan\n"

    def test_infinity_serialized_readably(self, tmp_path):
        prof = barrier.make_profile(2, 0.0, 1.0, 0.5)
        path = tmp_path / "params.json"
        barrier.write_params_json(prof, path, outer=3.0)
        data = json.loads(path.read_text())
        assert data["b"] == "inf" and data["t0"] == "inf"
