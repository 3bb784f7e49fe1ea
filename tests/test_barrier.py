import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pmcgraph import barrier, geometry, ioutil
from pmcgraph.errors import (
    NoAdmissibleConstantError,
    OutOfDomainError,
    ParameterError,
    QuadratureError,
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
        worst = max(abs(barrier.profile_height_integral(2, 0.0, prof.c,
                                                        prof.r, t)
                        - 0.5 * (math.acosh(t / 0.5) - math.acosh(2.0)))
                    for t in ts)
        assert worst <= 1e-8

    def test_quadrature_matches_closed_form(self):
        prof = barrier.make_profile(2, 0.0, 1.0, 0.5)
        for t in (1.3, 2.7, 4.9):
            assert prof.height(t) == pytest.approx(
                barrier.profile_height_integral(2, 0.0, prof.c, prof.r, t),
                abs=1e-10)

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

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("neck", [1e-2, 1e-4, 1e-6])
    def test_small_neck_catenoid_against_mpmath(self, dim, neck):
        # the catenoid with neck a has height a * int_1^(1/a) of
        # (tau^(2n-2) - 1)^(-1/2) at radius 1; its mass sits within a few
        # necks of a, so a tail chunk that starts at 1.1 a and ends at
        # radius 1 misses it
        c = neck ** (dim - 1)
        a, _ = barrier.profile_zeros(dim, 0.0, c)
        knots = [1.0]
        while knots[-1] * 4.0 < 1.0 / a:
            knots.append(knots[-1] * 4.0)
        ref = a * float(mpmath.quad(
            lambda tau: 1.0 / mpmath.sqrt(tau ** (2 * dim - 2) - 1.0),
            knots + [1.0 / mpmath.mpf(a)]))
        got = barrier.profile_height_integral(dim, 0.0, c, a, 1.0)
        assert got == pytest.approx(ref, rel=1e-10)

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


class TestCatenoidSlope:
    @staticmethod
    def general_formula(t, c):
        # the nodoid slope's operations at h = 0, n = 2
        t = np.asarray(t, dtype=float)
        num = c - 0.0 * t**2
        return num / np.sqrt(barrier._g1(2, 0.0, c, t)
                             * (-barrier._g2(2, 0.0, c, t)))

    def test_same_bits_as_the_general_formula(self):
        rng = np.random.default_rng(23)
        for c in 10.0 ** rng.uniform(-60.0, 60.0, size=40):
            t = c * (1.0 + 10.0 ** rng.uniform(-14.0, 30.0, size=100))
            assert (barrier.slope(t, 2, 0.0, c).tobytes()
                    == self.general_formula(t, c).tobytes())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e300])
    def test_scale_free_past_the_float_range_of_t_squared(self, scale):
        # c / sqrt(t^2 - c^2) depends on t / c only
        profile = barrier.make_profile(2, 0.0, scale, 0.5 * scale)
        assert profile.slope(scale) == pytest.approx(3 ** -0.5, rel=1e-15)


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


class TestHeightBound:
    def test_closed_forms(self):
        assert barrier.annulus_height_bound(2, 1.0, 2.0) == 0.8
        assert barrier.annulus_height_bound(3, 1.0, 3.0) == 1.0 / 7.0

    def test_huge_lengths_do_not_overflow(self):
        # (R + r)^n is past the largest float here
        assert barrier.annulus_height_bound(2, 1.0, 1e300) == 0.0
        assert barrier.annulus_height_bound(4, 1e-300, 1e300) == 0.0
        # r^n alone overflows here, yet the bound is an ordinary number
        bound = barrier.annulus_height_bound(3, 1e200, 1.5e200)
        assert bound == pytest.approx(1.0 / (1e200 * (1.25 ** 3 - 1.0)),
                                      rel=1e-15)


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

    def test_thin_annulus_at_the_bound_is_refused(self):
        # the exact usable radii reach past R by less than an ulp of R, and
        # no double constant covers R: a refusal, not a radius short of R
        R = 1.000001
        limit = (barrier.annulus_height_bound(2, 1.0, R)
                 * (1.0 - barrier.REL_STRICTNESS))
        h = limit * (1.0 - 1e-14)
        with pytest.raises(NoAdmissibleConstantError):
            barrier.select_c(2, h, 1.0, R)

    def test_grazing_rejected(self):
        bound = barrier.annulus_height_bound(2, 1.0, 2.0)
        with pytest.raises(NoAdmissibleConstantError):
            barrier.select_c(2, bound * (1.0 - 1e-14), 1.0, 2.0)

    def test_radius_past_the_float_range_is_refused(self):
        # h is below the height bound, but r^2 is no float
        r, R = 2e202, 2.02e202
        assert 1e-201 < barrier.annulus_height_bound(2, r, R)
        with pytest.raises(NoAdmissibleConstantError):
            barrier.select_c(2, 1e-201, r, R)

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


def mp_height(dim, h, c, t_lo, t_hi):
    """Height integral of the slope in 50-digit arithmetic (tanh-sinh)."""
    h, c = mpmath.mpf(h), mpmath.mpf(c)

    def integrand(s):
        num = c - h * s**dim
        # abs: tanh-sinh nodes next to an end at a zero of the radicand
        # can see it round to a tiny negative value
        return num / mpmath.sqrt(abs(s ** (2 * dim - 2) - num**2))

    return float(mpmath.quad(integrand, [mpmath.mpf(t_lo), mpmath.mpf(t_hi)]))


def acceptance_integrals():
    """(dim, h, c, t_lo, t_hi) at the parameters of acceptance criteria
    c01-c03 and c07, each range reaching both singular windows or the
    catenoid tail where the profile allows."""
    cases = []
    # c01: the figure profile (a = 1, b = 4, t0 = 2) and the planar
    # interval-length sweep over c
    a, b = barrier.profile_zeros(2, 1.0 / 3.0, 4.0 / 3.0)
    cases += [(2, 1.0 / 3.0, 4.0 / 3.0, a * (1 + 1e-9), 2.0),
              (2, 1.0 / 3.0, 4.0 / 3.0, a * (1 + 1e-9), b * (1 - 1e-9))]
    for c in (0.05, 1.0, 50.0):
        a, b = barrier.profile_zeros(2, 1.0 / 3.0, c)
        cases.append((2, 1.0 / 3.0, c, a * (1 + 1e-6), b * (1 - 1e-6)))
    # c02: the catenary r = 1, c = 1/2 out to 5 r
    cases.append((2, 0.0, 0.5, 1.0, 5.0))
    # c03: annulus barriers below the bound, to the apex and to R_usable
    for dim, r, R in ((2, 1.0, 2.0), (3, 0.5, 2.5), (4, 2.0, 2.6)):
        h = 0.9 * barrier.annulus_height_bound(dim, r, R)
        prof = barrier.profile_for_annulus(dim, h, r, R)
        cases += [(dim, h, prof.c, r, prof.t0),
                  (dim, h, prof.c, r, prof.r_usable)]
    # c07: radial shooting at h = 1 across the thin-annulus sweep
    for eps in (0.5, 0.1, 0.01):
        cases.append((2, 1.0, eps * eps + 0.5 * eps, eps, 1.0))
    return cases


class TestQuadrature:
    @pytest.mark.parametrize("dim,h,c,t_lo,t_hi", acceptance_integrals())
    def test_against_mpmath_at_acceptance_parameters(self, dim, h, c, t_lo,
                                                     t_hi):
        got = barrier.profile_height_integral(dim, h, c, t_lo, t_hi)
        assert got == pytest.approx(mp_height(dim, h, c, t_lo, t_hi),
                                    abs=1e-11)

    @pytest.mark.parametrize("dim,h,c", [(2, 1.0, 0.5), (3, 0.3, 0.2),
                                         (4, 1.0, 0.9)])
    def test_ranges_ending_at_a_zero(self, dim, h, c):
        # an end at the rounded zero a or b stands for the exact zero: the
        # endpoint integrands have no cancellation there
        a, b = barrier.profile_zeros(dim, h, c)
        mp_h, mp_c = mpmath.mpf(h), mpmath.mpf(c)
        exact_a = mpmath.findroot(
            lambda t: mp_h * t**dim + t ** (dim - 1) - mp_c, mpmath.mpf(a))
        exact_b = mpmath.findroot(
            lambda t: mp_h * t**dim - t ** (dim - 1) - mp_c, mpmath.mpf(b))
        near_a, near_b = a + 0.05 * (b - a), b - 0.05 * (b - a)
        assert barrier.profile_height_integral(dim, h, c, a, near_a) == (
            pytest.approx(mp_height(dim, h, c, exact_a, near_a), abs=1e-13))
        assert barrier.profile_height_integral(dim, h, c, near_b, b) == (
            pytest.approx(mp_height(dim, h, c, near_b, exact_b), abs=1e-13))

    @pytest.mark.parametrize("kind", ["near_a", "near_b", "catenoid_tail"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_against_quadpack(self, monkeypatch, kind, dim):
        # every integrand the height integral hands to the Gauss-Kronrod
        # rule, integrated again by QUADPACK: the two agree within their
        # combined error estimates
        from scipy import integrate

        real = barrier._quad
        calls = []

        def both(fn, lo, hi):
            val, err = real(fn, lo, hi)
            ref, ref_err = integrate.quad(
                lambda x: float(fn(np.float64(x))), lo, hi,
                epsabs=barrier._QUAD_EPS, epsrel=barrier._QUAD_EPS,
                limit=barrier._QUAD_LIMIT)
            calls.append((val, err, ref, ref_err))
            return val, err

        monkeypatch.setattr(barrier, "_quad", both)
        for h in ((0.0,) if kind == "catenoid_tail" else (0.3, 1.0)):
            for c in (0.2, 0.5, 0.9):
                a, b = barrier.profile_zeros(dim, h, c)
                if kind == "near_a":
                    barrier.profile_height_integral(dim, h, c, a,
                                                    a + 0.05 * (b - a))
                elif kind == "near_b":
                    barrier.profile_height_integral(dim, h, c,
                                                    b - 0.05 * (b - a), b)
                else:
                    barrier.profile_height_integral(dim, h, c, 1.2 * a,
                                                    300.0 * a)
        assert calls
        for val, err, ref, ref_err in calls:
            assert abs(val - ref) <= err + ref_err

    def test_missed_tolerance_raises(self, monkeypatch):
        # one panel cannot resolve a small catenoid neck: the error
        # estimate then exceeds the 1e-9 guarantee
        monkeypatch.setattr(barrier, "_QUAD_LIMIT", 1)
        c = 1e-4
        a, _ = barrier.profile_zeros(3, 0.0, c)
        with pytest.raises(QuadratureError, match="exceeds"):
            barrier.profile_height_integral(3, 0.0, c, a, 1.0)

    def test_kronrod_rule(self):
        # QK21 integrates polynomials up to degree 31 exactly on [-1, 1]
        # (its embedded Gauss rule: TestCumulativeHeights)
        for k in range(32):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            got = np.dot(barrier._GK_WEIGHTS, barrier._GK_NODES**k)
            assert got == pytest.approx(exact, abs=1e-14)


# few examples with a fixed seed: each one runs a handful of quadratures
BARRIER_EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                            max_examples=25)


class TestBarrierProperties:
    @BARRIER_EXAMPLES
    @given(h=st.floats(1e-2, 10.0), c=st.floats(1e-2, 100.0))
    def test_planar_interval_length(self, h, c):
        a, b = barrier.profile_zeros(2, h, c)
        assert b - a == pytest.approx(1.0 / h, rel=1e-12, abs=1e-12 * b)

    # h = 0 or bounded away from it: b grows like 1/h, and heights of that
    # size cannot be held to the 1e-9 absolute guarantee in doubles
    @BARRIER_EXAMPLES
    @given(dim=st.integers(2, 4),
           h=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
           c=st.floats(0.05, 2.0),
           cuts=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_height_is_additive(self, dim, h, c, cuts):
        a, b = barrier.profile_zeros(dim, h, c)
        top = b if h > 0.0 else 20.0 * a
        lo, mid, hi = (min(a + f * (top - a), b) for f in sorted(cuts))
        whole = barrier.profile_height_integral(dim, h, c, lo, hi)
        split = (barrier.profile_height_integral(dim, h, c, lo, mid)
                 + barrier.profile_height_integral(dim, h, c, mid, hi))
        assert abs(whole - split) <= 2e-9

    @BARRIER_EXAMPLES
    @given(dim=st.integers(2, 4), r=st.floats(0.1, 10.0),
           ratio=st.floats(1.0, 100.0, exclude_min=True),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_select_c_covers_outer_radius(self, dim, r, ratio, frac):
        R = ratio * r
        limit = (barrier.annulus_height_bound(dim, r, R)
                 * (1.0 - barrier.REL_STRICTNESS))
        h = frac * limit
        assume(r < R and 0.0 < h < limit)
        try:
            c = barrier.select_c(dim, h, r, R)
        except NoAdmissibleConstantError:
            # refused only where the exact supremum of the usable radii
            # lies within a few ulps of R, beyond what doubles resolve
            sup = 2 * r * (1 + 1 / (mpmath.mpf(h) * r)) ** (1 / mpmath.mpf(dim))
            assert sup - r - R <= 1e-15 * R
            return
        assert barrier.usable_radius(dim, h, r, c) >= R

    @BARRIER_EXAMPLES
    @given(dim=st.integers(2, 4), h=st.floats(0.05, 2.0),
           eps=st.floats(0.1, 2.0), ratio=st.floats(1.0, 4.0, exclude_min=True),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_outer_height_is_monotone_in_c(self, dim, h, eps, ratio, fracs):
        # radial_shoot's bisection rests on this: over its feasible
        # constants, the slope radicand stays nonnegative on [eps, outer]
        # and the profile's height at outer grows with c
        outer = ratio * eps
        c_lo = max(h * eps**dim, h * outer**dim - outer ** (dim - 1))
        c_hi = h * eps**dim + eps ** (dim - 1)
        assume(c_lo < c_hi)
        heights = [barrier.profile_height_integral(
            dim, h, c_lo + f * (c_hi - c_lo), eps, outer) for f in sorted(fracs)]
        # each height is within 1e-9 of the integral
        assert heights[1] >= heights[0] - 2e-9


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
        # a float array, including float32 and non-finite values, against
        # the per-value formatter
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
