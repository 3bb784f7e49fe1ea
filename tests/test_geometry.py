import inspect
import itertools
import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pmcgraph import geometry as geo
from pmcgraph.errors import (
    DisconnectedMaskError,
    InfeasibleFitError,
    ParameterError,
    UnsupportedDomainError,
)
from pmcgraph.grid import grid_from_domain


@pytest.fixture
def unit_square():
    return geo.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def rectangle_1x4():
    return geo.ConvexPolygon([(0, 0), (4, 0), (4, 1), (0, 1)])


class TestDomainBasics:
    def test_annulus_validation(self):
        with pytest.raises(ParameterError):
            geo.Annulus(2.0, 1.0)
        with pytest.raises(ParameterError):
            geo.Annulus(0.0, 1.0)

    def test_polygon_orientation_normalized(self):
        cw = geo.ConvexPolygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert cw.volume() == pytest.approx(1.0)

    def test_polygon_rejects_nonconvex(self):
        with pytest.raises(ParameterError):
            geo.ConvexPolygon([(0, 0), (2, 0), (1, 0.5), (2, 2), (0, 2)])

    def test_contains(self, unit_square):
        assert bool(unit_square.contains(np.array([0.5, 0.5])))
        assert not bool(unit_square.contains(np.array([1.5, 0.5])))
        ann = geo.Annulus(1.0, 2.0)
        assert bool(ann.contains(np.array([1.5, 0.0])))
        assert not bool(ann.contains(np.array([0.5, 0.0])))

    def test_volumes(self, unit_square):
        assert unit_square.volume() == pytest.approx(1.0)
        assert geo.Disc(2.0).volume() == pytest.approx(4.0 * math.pi)
        assert geo.Disc(1.0).volume(3) == pytest.approx(4.0 * math.pi / 3.0)
        assert geo.Annulus(1.0, 2.0).volume() == pytest.approx(3.0 * math.pi)

    def test_mask_connectivity_enforced(self):
        m = np.zeros((5, 5), dtype=bool)
        m[0, 0] = m[4, 4] = True
        with pytest.raises(DisconnectedMaskError):
            geo.GridMask(m, 1.0)


class TestExteriorSphereRadius:
    def test_annulus_hole(self):
        assert geo.exterior_sphere_radius(geo.Annulus(1.0, 2.0)) == 1.0

    def test_convex_domains_unbounded(self, unit_square):
        assert geo.exterior_sphere_radius(geo.Disc(5.0)) == math.inf
        assert geo.exterior_sphere_radius(unit_square) == math.inf

    def test_square_mask_detected_convex(self):
        m = np.zeros((12, 12), dtype=bool)
        m[2:10, 2:10] = True
        assert geo.exterior_sphere_radius(geo.GridMask(m, 0.1)) == math.inf

    def test_notched_mask_finite(self):
        m = np.zeros((16, 16), dtype=bool)
        m[2:14, 2:14] = True
        m[7:9, 8:14] = False
        r = geo.exterior_sphere_radius(geo.GridMask(m, 0.1))
        assert 0.0 < r < math.inf


class TestAnnulusFit:
    def test_annulus_in_place(self):
        fit = geo.annulus_fit(geo.Annulus(1.0, 2.0), 1.0)
        assert fit.d == pytest.approx(1.0, abs=1e-14)
        assert fit.translation == (0.0, 0.0)
        assert geo.fit_margin(geo.Annulus(1.0, 2.0), fit) >= -1e-12

    def test_annulus_with_smaller_sphere(self):
        fit = geo.annulus_fit(geo.Annulus(1.0, 2.0), 0.5)
        assert fit.d == pytest.approx(1.5, abs=1e-14)

    def test_radius_larger_than_hole_rejected(self):
        with pytest.raises(ParameterError):
            geo.annulus_fit(geo.Annulus(1.0, 2.0), 1.5)

    def test_disc_moves_to_tangency(self):
        # the minimal ring thickness for a disc is its diameter, achieved
        # by translating the disc against the forbidden ball
        domain = geo.Disc(0.5, (1.6, 0.0))
        fit = geo.annulus_fit(domain, 1.0)
        assert fit.d == pytest.approx(1.0, abs=1e-6)
        assert fit.translation[0] == pytest.approx(-0.1, abs=1e-6)
        assert geo.fit_margin(domain, fit) >= 0.0

    def test_unit_square_search(self, unit_square):
        fit = geo.annulus_fit(unit_square, 3.0)
        # best placement: flush against an edge -> sqrt((3+1)^2+0.25)-3
        expected = math.sqrt(16.25) - 3.0
        assert fit.d == pytest.approx(expected, abs=1e-6)
        assert geo.fit_margin(unit_square, fit) >= 1e-9 * 0.99
        for v in unit_square.vertices:
            rho = np.linalg.norm(v + np.asarray(fit.translation))
            assert fit.r + 1e-9 * 0.99 <= rho <= fit.r + fit.d - 1e-9 * 0.99

    @pytest.mark.parametrize("r", [1e3, 1e4])
    def test_large_radius_gap_approaches_width(self, rectangle_1x4, r):
        fit = geo.annulus_fit(rectangle_1x4, r)
        width = geo.strip_width(rectangle_1x4)
        assert abs(fit.d - width) <= 0.01 * width

    def test_mask_fit_is_flagged(self):
        m = np.zeros((10, 10), dtype=bool)
        m[2:8, 2:8] = True
        domain = geo.GridMask(m, 0.1)
        fit = geo.annulus_fit(domain, 2.0)
        assert fit.approximate
        assert geo.fit_margin(domain, fit) >= 1e-9 * 0.99


def scalar_polygon_distance(q, poly):
    """Per-point, per-edge projection: the formula the array distance
    replaced, kept as its oracle."""
    if bool(poly.contains(q)):
        return 0.0
    best = math.inf
    for p0, p1 in poly.edges():
        d = p1 - p0
        t = np.clip(np.dot(q - p0, d) / np.dot(d, d), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(q - (p0 + t * d))))
    return best


class TestPolygonDistance:
    def test_array_matches_scalar_formula(self, unit_square):
        pent = geo.ConvexPolygon([(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)])
        rng = np.random.default_rng(7)
        for poly in (pent, unit_square):
            pts = rng.uniform(-3.0, 5.0, size=(400, 2))
            got = geo._polygon_distance(pts, poly)
            assert got.shape == (400,)
            assert (got == 0.0).any() and (got > 0.0).any()
            want = [scalar_polygon_distance(q, poly) for q in pts]
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_shape_follows_points(self, unit_square):
        pts = np.array([[[2.0, 0.5], [0.5, 0.5]], [[-1.0, -1.0], [0.5, 3.0]]])
        got = geo._polygon_distance(pts, unit_square)
        assert got.shape == (2, 2)
        assert got[0, 0] == 1.0 and got[0, 1] == 0.0
        assert got[1, 0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert geo._polygon_distance(np.array([2.0, 0.5]), unit_square).shape == ()


def loop_contains(poly, points):
    """The per-edge membership loop that one broadcast over points x edges
    replaced, kept as its oracle."""
    pts = np.asarray(points, dtype=float)
    out = np.ones(pts.shape[:-1], dtype=bool)
    v = poly.vertices
    for i in range(len(v)):
        p, q = v[i], v[(i + 1) % len(v)]
        cross = ((q[0] - p[0]) * (pts[..., 1] - p[1])
                 - (q[1] - p[1]) * (pts[..., 0] - p[0]))
        out &= cross > 0.0
    return out


def roll_polygon_distance(q, poly):
    """``_polygon_distance`` as it was before the polygon stored its
    edges: a fresh ``np.roll`` per call and a second membership test."""
    q = np.asarray(q, dtype=float)
    p0 = poly.vertices
    d = np.roll(p0, -1, axis=0) - p0
    rel = q[..., None, :] - p0
    t = np.clip(np.sum(rel * d, axis=-1) / np.sum(d * d, axis=-1), 0.0, 1.0)
    gap = q[..., None, :] - (p0 + t[..., None] * d)
    dist = np.sqrt(np.min(np.sum(gap * gap, axis=-1), axis=-1))
    return np.where(loop_contains(poly, q), 0.0, dist)


@st.composite
def polygons_and_points(draw):
    """A convex polygon, with random points around it, its vertices and
    the points a quarter, half and three quarters along each edge.  On
    an integer polygon those edge points are exact, so their cross
    products are exactly 0."""
    if draw(st.booleans()):
        corners = draw(st.lists(st.tuples(st.integers(-20, 20),
                                          st.integers(-20, 20)),
                                min_size=3, max_size=12))
        hull = geo._convex_hull(np.array(corners, dtype=float))
        assume(len(hull) >= 3)
        poly = geo.ConvexPolygon(hull)
    else:
        n = draw(st.integers(3, 9))
        angles = np.sort(draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                       min_size=n, max_size=n)))
        assume(np.min(np.diff(np.append(angles, angles[0] + 2.0 * math.pi)))
               > 0.05)
        a, b = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
        cx, cy = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
        poly = geo.ConvexPolygon(np.column_stack(
            [cx + a * np.cos(angles), cy + b * np.sin(angles)]))
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    on_edges = np.concatenate([v + f * (w - v) for f in (0.25, 0.5, 0.75)])
    xmin, ymin, xmax, ymax = poly.bbox()
    pad = 0.5 * max(xmax - xmin, ymax - ymin)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scattered = rng.uniform([xmin - pad, ymin - pad], [xmax + pad, ymax + pad],
                            size=(200, 2))
    return poly, np.concatenate([v, on_edges, scattered]), len(v) * 4


class TestPolygonArrays:
    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(case=polygons_and_points())
    def test_match_the_per_edge_oracles_bit_for_bit(self, case):
        poly, pts, n_boundary = case
        for q in (pts, pts.reshape(-1, 4, 2), pts[7]):
            assert (np.asarray(poly.contains(q)).tobytes()
                    == loop_contains(poly, q).tobytes())
            got = geo._polygon_distance(q, poly)
            assert got.shape == np.shape(q)[:-1]
            assert got.tobytes() == roll_polygon_distance(q, poly).tobytes()
        # vertices and exact edge points are outside, at distance 0
        on_boundary = pts[:n_boundary]
        if np.all(poly.vertices == np.round(poly.vertices)):
            assert not poly.contains(on_boundary).any()
            assert not geo._polygon_distance(on_boundary, poly).any()

    def test_edges_are_stored_read_only(self):
        corners = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)])
        poly = geo.ConvexPolygon(corners)
        assert corners.flags.writeable  # the caller's array is copied
        assert poly.edge_vectors.tolist() == [[2, 0], [-1, 2], [-1, -2]]
        assert poly.edge_sq.tolist() == [4, 5, 5]
        with pytest.raises(ValueError):
            poly.vertices[0, 0] = 1.0


@pytest.mark.filterwarnings("error")
class TestHugeScales:
    """Disc and annulus membership past the range of the squares of the
    coordinates (about 1.3e154)."""

    def test_radius_is_the_norm_bit_for_bit(self):
        rng = np.random.default_rng(11)
        pts = (rng.standard_normal((2000, 2))
               * 10.0 ** rng.integers(-150, 150, size=(2000, 1)))
        assert (geo._radius(pts).tobytes()
                == np.linalg.norm(pts, axis=-1).tobytes())

    def test_membership(self):
        pts = np.array([[0.0, 0.0], [0.7, 0.7], [0.71, 0.71], [1.0, 0.0],
                        [-1.5, 0.2]])
        for scale in (1.0, 1e160, 1e300):
            assert (geo.Disc(scale).contains(scale * pts).tolist()
                    == [True, True, False, False, False])
            assert (geo.Annulus(0.99 * scale, 2.0 * scale)
                    .contains(scale * pts).tolist()
                    == [False, False, True, True, True])

    @pytest.mark.parametrize("radius", [1.0, 1e160, 1e200, 1e300])
    def test_disc_grid_is_scale_free(self, radius):
        assert grid_from_domain(geo.Disc(radius), radius / 10).n_dof == 305

    def test_annulus_grid_is_scale_free(self):
        assert (grid_from_domain(geo.Annulus(1e200, 2e200), 1e199).n_dof
                == grid_from_domain(geo.Annulus(1.0, 2.0), 0.1).n_dof == 928)


class TestHugeFits:
    """Search fits past ``FIT_SCALE_LIMIT``: finite, or refused."""

    PENTAGON = [(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)]

    @staticmethod
    def disc_mask(cell):
        yy, xx = np.mgrid[0:9, 0:9]
        return geo.GridMask((xx - 4) ** 2 + (yy - 4) ** 2 <= 12, cell)

    @pytest.mark.parametrize("kind", ["polygon", "mask"])
    @pytest.mark.parametrize("r", [1e20, 1e100, 1e154, 1e160, 1e200, 1e300])
    def test_fit_is_finite_or_infeasible(self, kind, r):
        domain = (geo.ConvexPolygon(self.PENTAGON) if kind == "polygon"
                  else self.disc_mask(0.25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit = geo.annulus_fit(domain, r)
            except InfeasibleFitError:
                # the pentagon, 2.5 wide, falls below FIT_SCALE_LIMIT ** -7
                # in units that bring r to 2**64; the mask's cells stay
                # normal numbers in any units
                assert kind == "polygon" and r >= 1e160
                return
        assert fit.r == r and math.isfinite(fit.d) and fit.d > 0.0
        assert all(map(math.isfinite, fit.translation))

    def test_bitmap_metrics_are_exact_in_cell_units(self):
        # the hull of a bitmap runs in cell units, so cells whose
        # coordinates' squares overflow scale every metric bit for bit
        scale = 2.0 ** 600
        small, huge = self.disc_mask(0.25), self.disc_mask(0.25 * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert huge.is_convex() and small.is_convex()
            assert huge.diameter() == scale * small.diameter()
            assert geo.strip_width(huge) == scale * geo.strip_width(small)
            assert self.disc_mask(1e200).volume() == math.inf

    def test_units_are_exact(self):
        # past the limit a fit runs in units of a power of two, so scaling
        # the domain and r by another one scales the fit bit for bit
        scale = 2.0 ** 40
        for domain, scaled in (
                (geo.ConvexPolygon(self.PENTAGON),
                 geo.ConvexPolygon(scale * np.array(self.PENTAGON))),
                (self.disc_mask(0.25), self.disc_mask(0.25 * scale))):
            fit = geo.annulus_fit(domain, 1e30)
            big = geo.annulus_fit(scaled, 1e30 * scale)
            assert big.d == scale * fit.d
            assert big.translation == tuple(scale * v
                                            for v in fit.translation)

    def test_fits_below_the_limit_run_unscaled(self, monkeypatch):
        seen = []
        real = geo._search_fit_at_scale

        def spy(domain, r):
            seen.append((domain, r))
            return real(domain, r)

        monkeypatch.setattr(geo, "_search_fit_at_scale", spy)
        pentagon = geo.ConvexPolygon(self.PENTAGON)
        geo.annulus_fit(pentagon, geo.FIT_SCALE_LIMIT)
        assert seen == [(pentagon, geo.FIT_SCALE_LIMIT)]


class TestSearchFitPinned:
    # d and translation from the per-ray scan this lockstep scan replaced
    @pytest.mark.parametrize("vertices, r, d, translation", [
        ([(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)], 269.2582403567252,
         2.0010368348796526, (269.2582403577252, -0.7499999999992204)),
        ([(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)], 0.5,
         2.1100766293078173, (0.5000000010000001, -0.7499999995741975)),
        ([(0, 0), (1, 0), (1, 1), (0, 1)], 3.0,
         1.031128876141553, (3.000000001, -0.49999999999999534)),
        ([(0, 0), (1, 0), (1, 1), (0, 1)], 141.4213562373095,
         1.0008776766559997, (141.4213562383095, -0.5000000000042648)),
        ([(0, 0), (4, 0), (4, 1), (0, 1)], 1000.0,
         1.0019980020041537, (-2.000000000055344, 1000.000000001)),
        ([(0, 0), (4, 0), (4, 1), (0, 1)], 0.5,
         2.0000000016000006, (-1.9999999999999996, 0.500000001)),
    ])
    def test_fit_unchanged(self, vertices, r, d, translation):
        fit = geo.annulus_fit(geo.ConvexPolygon(vertices), r)
        assert abs(fit.d - d) <= 1e-9
        assert np.max(np.abs(np.subtract(fit.translation, translation))) <= 1e-9


def recording(func, calls):
    """``func``, appending a copy of every point it is called at to ``calls``."""
    def recorded(x):
        calls.append(np.array(x, copy=True))
        return func(x)
    return recorded


def bumpy(x):
    # a bowl plus steps: its search expands, contracts on both sides and
    # shrinks within 60 iterations
    return float(np.sum(x ** 2) + 0.5 * np.sum(np.floor(3.0 * x)))


class TestNelderMead:
    """``_nelder_mead`` against scipy's Nelder-Mead, imported by this
    class only: the same calls, point and value, bit for bit."""

    @staticmethod
    def assert_same_as_scipy(func, x0, xatol=1e-12, fatol=1e-12, maxiter=2000):
        from scipy import optimize

        ours, theirs = [], []
        x, fun = geo._nelder_mead(recording(func, ours), x0, xatol=xatol,
                                  fatol=fatol, maxiter=maxiter)
        res = optimize.minimize(recording(func, theirs), x0,
                                method="Nelder-Mead",
                                options={"xatol": xatol, "fatol": fatol,
                                         "maxiter": maxiter})
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
        assert len(ours) == len(theirs) == res.nfev
        assert np.array(ours).tobytes() == np.array(theirs).tobytes()
        return res

    @staticmethod
    def search_fit_objectives(monkeypatch, domain, r):
        """The (objective, start, options) ``annulus_fit`` hands the search."""
        seen = []

        def spy(func, x0, **options):
            seen.append((func, np.array(x0, copy=True), options))
            return real(func, x0, **options)

        real = geo._nelder_mead
        monkeypatch.setattr(geo, "_nelder_mead", spy)
        geo.annulus_fit(domain, r)
        monkeypatch.undo()
        assert len(seen) == 1
        return seen[0]

    @pytest.mark.parametrize("vertices, r", [
        ([(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)], 0.5),
        ([(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)], 269.2582403567252),
        ([(0, 0), (1, 0), (1, 1), (0, 1)], 3.0),
        ([(0, 0), (4, 0), (4, 1), (0, 1)], 1000.0),
        ([(0, 0), (4, 0), (3, 2)], 1.0),
    ])
    def test_polygon_fit_objectives(self, monkeypatch, vertices, r):
        func, x0, options = self.search_fit_objectives(
            monkeypatch, geo.ConvexPolygon(vertices), r)
        self.assert_same_as_scipy(func, x0, **options)

    def test_mask_fit_objective(self, monkeypatch):
        m = np.zeros((10, 10), dtype=bool)
        m[2:8, 2:8] = True
        func, x0, options = self.search_fit_objectives(
            monkeypatch, geo.GridMask(m, 0.1), 2.0)
        self.assert_same_as_scipy(func, x0, **options)

    def test_fixed_point_returns_scipys_minimum(self, monkeypatch):
        # far from the origin the objective rounds above the tolerances,
        # and the search reaches a simplex that its iteration maps to
        # itself; scipy repeats it until maxiter, the port stops there
        from scipy import optimize

        yy, xx = np.mgrid[0:9, 0:9]
        mask = geo.GridMask((xx - 4) ** 2 + (yy - 4) ** 2 <= 12, 0.25)
        func, x0, options = self.search_fit_objectives(monkeypatch, mask, 1e6)
        ours = []
        x, fun = geo._nelder_mead(recording(func, ours), x0, **options)
        res = optimize.minimize(func, x0, method="Nelder-Mead",
                                options=options)
        assert x.tobytes() == res.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
        assert res.nit == options["maxiter"]
        assert len(ours) <= 400

    @pytest.mark.parametrize("x0", [[1.3, -0.7], [0.0, 0.0]])
    def test_stops_at_maxiter(self, x0):
        res = self.assert_same_as_scipy(bumpy, np.array(x0), maxiter=60)
        assert res.nit == 60 and res.status == 2

    def test_every_step_is_taken(self):
        # trace the lines of the port that compute each kind of step
        lines, first = inspect.getsourcelines(geo._nelder_mead)
        steps = {"expansion": "xe = (1 + rho * chi)",
                 "outside contraction": "xc = (1 + psi * rho)",
                 "inside contraction": "xc = (1 - psi)",
                 "shrink": "sim[j] = sim[0] + sigma"}
        where = {first + i: name for i, text in enumerate(lines)
                 for name, statement in steps.items() if statement in text}
        assert sorted(where.values()) == sorted(steps)
        code, taken = geo._nelder_mead.__code__, set()

        def tracer(frame, event, arg):
            if frame.f_code is not code:
                return None
            if event == "line" and frame.f_lineno in where:
                taken.add(where[frame.f_lineno])
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            geo._nelder_mead(bumpy, np.array([1.3, -0.7]), xatol=1e-12,
                             fatol=1e-12, maxiter=60)
        finally:
            sys.settrace(previous)
        assert taken == set(steps)


class TestInscribedDiscRadius:
    def test_closed_forms(self, unit_square):
        assert geo.inscribed_disc_radius(geo.Disc(2.0)) == 2.0
        assert geo.inscribed_disc_radius(geo.Annulus(1.0, 2.0)) == 0.5
        assert geo.inscribed_disc_radius(unit_square) == pytest.approx(0.5, abs=1e-9)

    def test_triangle_incircle(self):
        # 3-4-5 right triangle: inradius = (3 + 4 - 5) / 2 = 1
        tri = geo.ConvexPolygon([(0, 0), (4, 0), (0, 3)])
        assert geo.inscribed_disc_radius(tri) == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def enumerated_radius(poly):
        # the LP optimum is a vertex: the best feasible meeting point of
        # three edge lines offset inward by rho
        v = poly.vertices
        e = np.roll(v, -1, axis=0) - v
        normal = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(*e.T)[:, None]
        rows = np.column_stack([normal, np.ones(len(v))])
        rhs = np.sum(normal * v, axis=1)
        best = -np.inf
        for triple in itertools.combinations(range(len(v)), 3):
            t = list(triple)
            if abs(np.linalg.det(rows[t])) < 1e-14:
                continue
            x = np.linalg.solve(rows[t], rhs[t])
            if np.all(rows @ x <= rhs + 1e-12):
                best = max(best, x[2])
        return best

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)],
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 0), (6, 0), (6, 1), (0, 1)],
        [(0, 0), (1, 0), (0.3, 0.8)],
        [(2.0 * math.cos(a), math.sin(a)) for a in
         2 * math.pi * (np.arange(40) + 0.25 * np.sin(3 * np.arange(40))) / 40],
    ], ids=["pentagon", "square", "rectangle-6x1", "triangle", "40-gon"])
    def test_polygon_matches_vertex_enumeration(self, vertices):
        poly = geo.ConvexPolygon(vertices)
        assert geo.inscribed_disc_radius(poly) == pytest.approx(
            self.enumerated_radius(poly), abs=1.1e-16)

    def test_random_polygons_match_vertex_enumeration(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(40):
            points = rng.normal(size=(12, 2)) * rng.uniform(0.2, 3.0, size=2)
            poly = geo.ConvexPolygon(geo._convex_hull(points))
            assert geo.inscribed_disc_radius(poly) == pytest.approx(
                self.enumerated_radius(poly), rel=1e-15)

    @pytest.mark.parametrize("n", [5, 40, 2000])
    def test_regular_polygons(self, n):
        # inradius cos(pi / n) with every edge active at the optimum: the
        # last three edges must not be nearly parallel ones, which put the
        # 2000-gon's radius 3.3e-12 too high; 2000 edges take well under
        # a second
        poly = geo.ConvexPolygon([(math.cos(a), math.sin(a))
                                  for a in 2 * math.pi * np.arange(n) / n])
        start = time.perf_counter()
        rho = geo.inscribed_disc_radius(poly)
        assert time.perf_counter() - start < 2.0
        assert rho == pytest.approx(math.cos(math.pi / n), abs=2.3e-16)

    def test_mask_distance_transform(self):
        m = np.zeros((20, 20), dtype=bool)
        m[2:18, 2:18] = True
        rho = geo.inscribed_disc_radius(geo.GridMask(m, 0.1))
        assert rho == pytest.approx(0.8, abs=0.1)

    def test_never_exceeds_half_diameter(self, unit_square, rectangle_1x4):
        for domain in (geo.Disc(3.0), geo.Annulus(0.5, 4.0), unit_square,
                       rectangle_1x4):
            assert geo.inscribed_disc_radius(domain) <= 0.5 * domain.diameter() + 1e-12


class TestStripWidth:
    def test_disc(self):
        assert geo.strip_width(geo.Disc(1.0)) == 2.0

    def test_long_rectangle(self):
        rect = geo.ConvexPolygon([(0, 0), (10, 0), (10, 1), (0, 1)])
        assert geo.strip_width(rect) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_rectangle(self):
        c, s = math.cos(0.4), math.sin(0.4)
        rot = [(c * x - s * y, s * x + c * y) for x, y in
               [(0, 0), (10, 0), (10, 1), (0, 1)]]
        assert geo.strip_width(geo.ConvexPolygon(rot)) == pytest.approx(1.0, abs=1e-12)

    def test_annulus_not_applicable(self):
        assert geo.strip_width(geo.Annulus(1.0, 2.0)) is None

    def test_width_below_diameter(self, rectangle_1x4):
        for domain in (geo.Disc(2.0), rectangle_1x4):
            assert geo.strip_width(domain) <= domain.diameter() + 1e-12


class TestBoundaryMeanCurvature:
    def test_disc_constant(self):
        samples = geo.boundary_mean_curvature(geo.Disc(2.0), 64)
        assert len(samples) == 64
        assert all(h == pytest.approx(0.5) for _, h in samples)
        assert all(np.linalg.norm(p) == pytest.approx(2.0) for p, _ in samples)

    def test_annulus_two_components(self):
        samples = geo.boundary_mean_curvature(geo.Annulus(1.0, 2.0), 96)
        values = {round(h, 10) for _, h in samples}
        assert values == {0.5, -1.0}

    def test_polygon_edges_flat_with_warning(self):
        square = geo.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.warns(UserWarning):
            samples = geo.boundary_mean_curvature(square, 16)
        assert samples
        assert all(h == 0.0 for _, h in samples)

    def test_mask_unsupported(self):
        m = np.ones((4, 4), dtype=bool)
        with pytest.raises(UnsupportedDomainError):
            geo.boundary_mean_curvature(geo.GridMask(m, 1.0), 8)


class TestPgm:
    def _disc_mask(self, n=24):
        y, x = np.mgrid[0:n, 0:n]
        return ((x - n / 2 + 0.5) ** 2 + (y - n / 2 + 0.5) ** 2
                <= (n / 3) ** 2).astype(int)

    def test_ascii_roundtrip(self, tmp_path):
        img = self._disc_mask()
        lines = ["P2", "# test image", f"{img.shape[1]} {img.shape[0]}", "1"]
        lines += [" ".join(str(v) for v in row) for row in img]
        path = tmp_path / "disc.pgm"
        path.write_text("\n".join(lines) + "\n")
        mask = geo.mask_from_pgm(path, 0.1)
        assert mask.mask.sum() == img.sum()

    def test_binary_roundtrip(self, tmp_path):
        img = self._disc_mask()
        header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
        path = tmp_path / "disc5.pgm"
        path.write_bytes(header + (img * 255).astype(np.uint8).tobytes())
        mask = geo.mask_from_pgm(path, 0.1)
        assert mask.mask.sum() == img.sum()

    def test_json_loader(self, tmp_path):
        domain = geo.domain_from_json({"kind": "annulus", "r_in": 1, "r_out": 2})
        assert isinstance(domain, geo.Annulus)
        domain = geo.domain_from_json(
            {"kind": "disc", "radius": 1.5, "center": [1, 0]})
        assert domain.center == (1.0, 0.0)
        domain = geo.domain_from_json(
            {"kind": "convex_polygon", "vertices": [[0, 0], [1, 0], [0, 1]]})
        assert isinstance(domain, geo.ConvexPolygon)
        with pytest.raises(ParameterError):
            geo.domain_from_json({"kind": "moebius"})
