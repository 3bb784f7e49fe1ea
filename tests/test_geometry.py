import math

import numpy as np
import pytest

from pmcgraph import geometry as geo
from pmcgraph.errors import (
    DisconnectedMaskError,
    ParameterError,
    UnsupportedDomainError,
)


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


class TestInscribedDiscRadius:
    def test_closed_forms(self, unit_square):
        assert geo.inscribed_disc_radius(geo.Disc(2.0)) == 2.0
        assert geo.inscribed_disc_radius(geo.Annulus(1.0, 2.0)) == 0.5
        assert geo.inscribed_disc_radius(unit_square) == pytest.approx(0.5, abs=1e-9)

    def test_triangle_incircle(self):
        # 3-4-5 right triangle: inradius = (3 + 4 - 5) / 2 = 1
        tri = geo.ConvexPolygon([(0, 0), (4, 0), (0, 3)])
        assert geo.inscribed_disc_radius(tri) == pytest.approx(1.0, abs=1e-9)

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
