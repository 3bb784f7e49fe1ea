"""Planar and radially symmetric domains and their geometric metrics.

Four domain kinds are supported: annulus (centered at the origin), disc,
convex polygon and bitmap grid mask.  The metrics computed here feed the
solvability checks: the exterior-sphere radius, the minimal annulus fit
(after translation), the inscribed-disc radius, the minimal slab width of
convex domains and sampled boundary mean curvature.

Annulus and disc metrics are closed-form.  Polygon fits use a coarse
directional scan plus Nelder-Mead refinement (a numpy port of scipy's,
``_nelder_mead``) and are re-verified by an independent containment
check; bitmap metrics are discrete estimates and are flagged approximate
(they never certify existence).  Only the bitmap code paths use
``scipy.ndimage``, imported where it is used, and no code path uses
``scipy.optimize``.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DisconnectedMaskError,
    InfeasibleFitError,
    ParameterError,
    UnsupportedDomainError,
    config_key,
    finite_number,
)
from .conditions import unit_ball_volume

# Search-based fits keep at least this containment margin on both sides.
FIT_MARGIN = 1e-9


@dataclass(frozen=True)
class Annulus:
    """Open annulus {r_in < |x| < r_out} centered at the origin."""

    r_in: float
    r_out: float

    def __post_init__(self):
        if not (0.0 < self.r_in < self.r_out < math.inf):
            raise ParameterError(f"need 0 < r_in < r_out, got {self.r_in}, {self.r_out}")

    def contains(self, points):
        rho = np.linalg.norm(np.asarray(points, dtype=float), axis=-1)
        return (rho > self.r_in) & (rho < self.r_out)

    def volume(self, dim=2):
        try:
            return unit_ball_volume(dim) * (self.r_out**dim - self.r_in**dim)
        except OverflowError:  # beyond the largest float
            return math.inf

    def diameter(self):
        return 2.0 * self.r_out

    def bbox(self):
        r = self.r_out
        return (-r, -r, r, r)

    def radial_extent(self):
        return self.r_in, self.r_out


@dataclass(frozen=True)
class Disc:
    """Open disc of given radius, optionally off-center."""

    radius: float
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise ParameterError(
                f"disc radius must be positive and finite, got {self.radius}")
        center = tuple(float(v) for v in self.center)
        if len(center) != 2 or not all(map(math.isfinite, center)):
            raise ParameterError(f"disc center must be two finite "
                                 f"coordinates, got {self.center!r}")
        object.__setattr__(self, "center", center)

    def contains(self, points):
        d = np.asarray(points, dtype=float) - np.asarray(self.center)
        return np.linalg.norm(d, axis=-1) < self.radius

    def volume(self, dim=2):
        try:
            return unit_ball_volume(dim) * self.radius**dim
        except OverflowError:  # beyond the largest float
            return math.inf

    def diameter(self):
        return 2.0 * self.radius

    def bbox(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cy - r, cx + r, cy + r)

    def radial_extent(self):
        rho = math.hypot(*self.center)
        return max(rho - self.radius, 0.0), rho + self.radius


class ConvexPolygon:
    """Convex polygon with counterclockwise vertices (planar only)."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ParameterError("polygon needs at least three planar vertices")
        if not np.all(np.isfinite(v)):
            raise ParameterError("polygon vertices must be finite")
        area2 = 0.0
        n = v.shape[0]
        for i in range(n):
            j = (i + 1) % n
            area2 += v[i, 0] * v[j, 1] - v[j, 0] * v[i, 1]
        if area2 < 0.0:
            v = v[::-1].copy()
            area2 = -area2
        if area2 <= 0.0:
            raise ParameterError("polygon is degenerate")
        scale = float(np.max(np.abs(v))) or 1.0
        for i in range(n):
            e1 = v[(i + 1) % n] - v[i]
            e2 = v[(i + 2) % n] - v[(i + 1) % n]
            cross = e1[0] * e2[1] - e1[1] * e2[0]
            if cross <= 1e-12 * scale**2:
                raise ParameterError("vertices must be in strictly convex position")
        self.vertices = v

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.tolist()!r})"

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def contains(self, points):
        pts = np.asarray(points, dtype=float)
        out = np.ones(pts.shape[:-1], dtype=bool)
        v = self.vertices
        for i in range(len(v)):
            p, q = v[i], v[(i + 1) % len(v)]
            cross = (q[0] - p[0]) * (pts[..., 1] - p[1]) - (q[1] - p[1]) * (pts[..., 0] - p[0])
            out &= cross > 0.0
        return out

    def volume(self, dim=2):
        if dim != 2:
            raise UnsupportedDomainError("polygon volume is planar only")
        v = self.vertices
        area2 = 0.0
        for i in range(len(v)):
            j = (i + 1) % len(v)
            area2 += v[i, 0] * v[j, 1] - v[j, 0] * v[i, 1]
        return 0.5 * area2

    def diameter(self):
        v = self.vertices
        d = v[:, None, :] - v[None, :, :]
        return float(np.max(np.linalg.norm(d, axis=-1)))

    def bbox(self):
        v = self.vertices
        return (float(v[:, 0].min()), float(v[:, 1].min()),
                float(v[:, 0].max()), float(v[:, 1].max()))

    def perimeter(self):
        return float(sum(np.linalg.norm(q - p) for p, q in self.edges()))


class GridMask:
    """Bitmap domain: nonzero cells are interior, on a square lattice."""

    def __init__(self, mask, cell_size, origin=(0.0, 0.0)):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or not mask.any():
            raise ParameterError("mask must be a nonempty 2-D bitmap")
        if not 0.0 < cell_size < math.inf:
            raise ParameterError("cell size must be positive and finite")
        if len(origin) != 2 or not all(map(math.isfinite, origin)):
            raise ParameterError("mask origin must be two finite coordinates")
        from scipy import ndimage

        _, count = ndimage.label(mask)
        if count != 1:
            raise DisconnectedMaskError(f"mask interior has {count} components")
        self.mask = mask
        self.cell_size = float(cell_size)
        self.origin = tuple(float(v) for v in origin)

    def __repr__(self):
        return (f"GridMask(shape={self.mask.shape}, cell_size={self.cell_size}, "
                f"origin={self.origin})")

    def cell_centers(self):
        ny, nx = self.mask.shape
        x0, y0 = self.origin
        xs = x0 + (np.arange(nx) + 0.5) * self.cell_size
        ys = y0 + (np.arange(ny) + 0.5) * self.cell_size
        return xs, ys

    def contains(self, points):
        pts = np.asarray(points, dtype=float)
        x0, y0 = self.origin
        ix = np.floor((pts[..., 0] - x0) / self.cell_size).astype(int)
        iy = np.floor((pts[..., 1] - y0) / self.cell_size).astype(int)
        ny, nx = self.mask.shape
        ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
        out = np.zeros(pts.shape[:-1], dtype=bool)
        out[ok] = self.mask[iy[ok], ix[ok]]
        return out

    def volume(self, dim=2):
        if dim != 2:
            raise UnsupportedDomainError("mask volume is planar only")
        return float(self.mask.sum()) * self.cell_size**2

    def corner_points(self):
        """Corners of all interior cells (closure point cloud)."""
        iy, ix = np.nonzero(self.mask)
        x0, y0 = self.origin
        h = self.cell_size
        pts = []
        for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
            pts.append(np.column_stack([x0 + (ix + dx) * h, y0 + (iy + dy) * h]))
        return np.unique(np.vstack(pts), axis=0)

    def diameter(self):
        pts = self.corner_points()
        hull = _convex_hull(pts)
        d = hull[:, None, :] - hull[None, :, :]
        return float(np.max(np.linalg.norm(d, axis=-1)))

    def bbox(self):
        pts = self.corner_points()
        return (float(pts[:, 0].min()), float(pts[:, 1].min()),
                float(pts[:, 0].max()), float(pts[:, 1].max()))

    def is_convex(self):
        """Discrete convexity: the mask fills its own convex hull."""
        hull = _convex_hull(self.corner_points())
        xs, ys = self.cell_centers()
        gx, gy = np.meshgrid(xs, ys)
        pts = np.stack([gx, gy], axis=-1)
        inside = np.ones(pts.shape[:-1], dtype=bool)
        n = len(hull)
        for i in range(n):
            p, q = hull[i], hull[(i + 1) % n]
            cross = (q[0] - p[0]) * (pts[..., 1] - p[1]) - (q[1] - p[1]) * (pts[..., 0] - p[0])
            inside &= cross >= -1e-9 * self.cell_size
        from scipy import ndimage

        # shrink by one cell: centers well inside the hull must be set
        core = inside & ~ndimage.binary_dilation(~inside, iterations=1)
        return bool(np.all(self.mask[core]))


def _convex_hull(points):
    """Andrew monotone chain; returns hull vertices counterclockwise."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) < 3:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def _polygon_distance(q, poly):
    """Distance from points (..., 2) to the polygon closure (0 inside).

    Every point is projected onto every edge at once, over a
    (points x edges) array; the result has shape ``q.shape[:-1]``.
    """
    q = np.asarray(q, dtype=float)
    p0 = poly.vertices
    d = np.roll(p0, -1, axis=0) - p0
    rel = q[..., None, :] - p0
    t = np.clip(np.sum(rel * d, axis=-1) / np.sum(d * d, axis=-1), 0.0, 1.0)
    gap = q[..., None, :] - (p0 + t[..., None] * d)
    dist = np.sqrt(np.min(np.sum(gap * gap, axis=-1), axis=-1))
    return np.where(poly.contains(q), 0.0, dist)


def exterior_sphere_radius(domain):
    """Largest uniform exterior-sphere radius of the domain.

    An annulus is pinned by the sphere in its hole (r_in); convex domains
    admit exterior spheres of every radius, so +inf is returned.  For
    bitmap masks a discrete estimate is computed: convex-looking masks get
    +inf, otherwise the radius of the largest complement ball touching the
    worst concave boundary feature.  Mask estimates are approximate.
    """
    if isinstance(domain, Annulus):
        return domain.r_in
    if isinstance(domain, (Disc, ConvexPolygon)):
        return math.inf
    if isinstance(domain, GridMask):
        if domain.is_convex():
            return math.inf
        return _mask_exterior_radius(domain)
    raise UnsupportedDomainError(f"unknown domain kind {type(domain).__name__}")


def _mask_exterior_radius(domain):
    from scipy import ndimage

    mask = domain.mask
    pad = max(mask.shape)
    big = np.pad(mask, pad, constant_values=False)
    # distance from each exterior cell to the domain, with the index of
    # the nearest interior cell: the exterior ball centered there touches
    # the boundary near that cell
    dist, (inds_y, inds_x) = ndimage.distance_transform_edt(~big, return_indices=True)
    boundary = big & ~ndimage.binary_erosion(big)
    by, bx = np.nonzero(boundary)
    best = np.zeros(big.shape)
    ext = ~big
    np.maximum.at(best, (inds_y[ext], inds_x[ext]), dist[ext])
    radii = best[by, bx]
    radii = radii[radii > 0.0]
    if radii.size == 0:
        return 0.0
    return float(np.min(radii)) * domain.cell_size


@dataclass(frozen=True)
class AnnulusFit:
    """Placement of a translated domain inside {r < |x| < r + d}."""

    r: float
    d: float
    translation: tuple
    approximate: bool = False


def containment_extent(domain, translation):
    """(min, max) of |x + translation| over the domain closure."""
    t = np.asarray(translation, dtype=float)
    # hypot, not a sum of squares: the squares of huge lengths overflow
    if isinstance(domain, Annulus):
        shift = math.hypot(*t)
        return max(domain.r_in - shift, 0.0), domain.r_out + shift
    if isinstance(domain, Disc):
        rho = math.hypot(*(np.asarray(domain.center) + t))
        return max(rho - domain.radius, 0.0), rho + domain.radius
    if isinstance(domain, ConvexPolygon):
        q = -t
        m = float(_polygon_distance(q, domain))
        big = float(np.max(np.linalg.norm(domain.vertices - q, axis=1)))
        return m, big
    if isinstance(domain, GridMask):
        pts = domain.corner_points()
        rho = np.linalg.norm(pts + t, axis=1)
        return float(rho.min()), float(rho.max())
    raise UnsupportedDomainError(f"unknown domain kind {type(domain).__name__}")


def fit_margin(domain, fit):
    """Smallest slack of the containment r <= |x + translation| <= r + d."""
    m, big = containment_extent(domain, fit.translation)
    return min(m - fit.r, fit.r + fit.d - big)


def annulus_fit(domain, r):
    """Translate the domain into {r < |x| < r + d} with d minimized.

    Annulus and disc placements are closed-form optima; polygons and masks
    run a 64-direction coarse scan followed by Nelder-Mead refinement of
    the worst-radius objective, so the reported d is the best found, not a
    certified minimum.  Every returned fit passes an independent
    containment recheck (with margin at least ``FIT_MARGIN`` when the fit
    came from the search).
    """
    if r <= 0.0 or not math.isfinite(r):
        raise ParameterError("need a finite r > 0")
    ext = exterior_sphere_radius(domain)
    if r > ext * (1.0 + 1e-12):
        raise ParameterError(
            f"requested exterior-sphere radius {r} exceeds the domain's {ext}")

    if isinstance(domain, Annulus):
        fit = AnnulusFit(r=r, d=domain.r_out - r, translation=(0.0, 0.0))
        if fit_margin(domain, fit) < -1e-12 * max(1.0, r):
            raise InfeasibleFitError("annulus fit recheck failed")
        return fit

    if isinstance(domain, Disc):
        margin = max(FIT_MARGIN, 1e-12 * (r + domain.radius))
        center = np.asarray(domain.center, dtype=float)
        rho = float(np.linalg.norm(center))
        direction = center / rho if rho > 0.0 else np.array([1.0, 0.0])
        target = (r + domain.radius + margin) * direction
        fit = AnnulusFit(r=r, d=2.0 * domain.radius + 2.0 * margin,
                         translation=tuple(target - center))
        if fit_margin(domain, fit) < 0.5 * margin:
            raise InfeasibleFitError("disc fit recheck failed")
        return fit

    if isinstance(domain, (ConvexPolygon, GridMask)):
        return _search_fit(domain, r)

    raise UnsupportedDomainError(f"unknown domain kind {type(domain).__name__}")


def _search_fit(domain, r):
    approximate = isinstance(domain, GridMask)
    if approximate:
        cloud = domain.corner_points()
        safety = domain.cell_size * math.sqrt(0.5)

        def distances(qs):
            # one point at a time: the corner cloud can be large
            qs = np.asarray(qs, dtype=float)
            near = [np.min(np.linalg.norm(cloud - q, axis=1))
                    for q in qs.reshape(-1, 2)]
            return np.maximum(np.reshape(near, qs.shape[:-1]) - safety, 0.0)
    else:
        cloud = domain.vertices

        def distances(qs):
            return _polygon_distance(qs, domain)

    def dist_fn(q):
        return float(distances(q))

    margin = max(FIT_MARGIN, 1e-12 * r)
    target = r + margin
    centroid = cloud.mean(axis=0)

    def worst_radius(q):
        return float(np.max(np.linalg.norm(cloud - q, axis=1)))

    def place_on_rays(rays):
        # doubling, then bisection, of every ray's clearance in lockstep
        lo = np.zeros(len(rays))
        hi = np.full(len(rays), max(1.0, 2.0 * target))
        for _ in range(200):
            reached = distances(centroid - hi[:, None] * rays) >= target
            if reached.all():
                break
            hi = np.where(reached, hi, 2.0 * hi)
        else:
            raise InfeasibleFitError("could not reach the required clearance")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            clear = distances(centroid - mid[:, None] * rays) >= target
            hi = np.where(clear, mid, hi)
            lo = np.where(clear, lo, mid)
        return centroid - hi[:, None] * rays

    angles = [2.0 * math.pi * k / 64.0 for k in range(64)]
    rays = np.array([[math.cos(ang), math.sin(ang)] for ang in angles])
    placed = place_on_rays(rays)
    worst = np.max(np.linalg.norm(cloud - placed[:, None, :], axis=2), axis=1)
    best = int(np.argmin(worst))
    best_q, best_val = placed[best], float(worst[best])

    penalty_scale = 1e8 * max(1.0, best_val)

    def objective(q):
        gap = target - dist_fn(q)
        pen = penalty_scale * gap * gap if gap > 0.0 else 0.0
        return worst_radius(q) + pen

    x, fun = _nelder_mead(objective, best_q, xatol=1e-12, fatol=1e-12,
                          maxiter=2000)
    q = x if fun <= objective(best_q) else best_q
    # restore clearance exactly if the optimizer nibbled into the margin
    if dist_fn(q) < target:
        for _ in range(60):
            direction = q - centroid
            nrm = np.linalg.norm(direction)
            direction = direction / nrm if nrm > 0 else np.array([1.0, 0.0])
            q = q + direction * max(target - dist_fn(q), 1e-15)
            if dist_fn(q) >= target:
                break
        else:
            raise InfeasibleFitError("could not restore fit clearance")

    d = worst_radius(q) - r + margin
    fit = AnnulusFit(r=r, d=d, translation=tuple(-q), approximate=approximate)
    if fit_margin(domain, fit) < 0.99 * FIT_MARGIN:
        raise InfeasibleFitError("search fit recheck failed")
    return fit


def _nelder_mead(func, x0, xatol, fatol, maxiter):
    """Minimum ``(x, fun)`` of ``func`` found by Nelder-Mead from ``x0``.

    A port of the path of scipy 1.17's ``_minimize_neldermead`` that runs
    without bounds, adaptive coefficients, a callback or a cap on function
    evaluations, so that ``solve`` and ``verify`` need not load
    ``scipy.optimize``.  The initial simplex, the coefficients, the sorts,
    the stopping test and the iteration count are scipy's, so it makes the
    same calls and returns the same point, bit for bit.  It makes fewer
    calls in one case only: an iteration that leaves the sorted simplex
    and its values bitwise unchanged is a fixed point of the iteration,
    which scipy repeats until ``maxiter`` and then returns, so the port
    returns the same ``(x, fun)`` at once.  Far from the origin, where
    the objective's rounding exceeds the tolerances, that saves thousands
    of calls.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5

    def f(x):
        return func(np.copy(x))

    x0 = np.asarray(x0, dtype=float).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(x) for x in sim], dtype=float)

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # scipy sorts twice before the first iteration
    sim, fsim = order(*order(sim, fsim))
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        state = sim.tobytes() + fsim.tobytes()
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = order(sim, fsim)
        if sim.tobytes() + fsim.tobytes() == state:
            break
    return sim[0], np.min(fsim)


def inscribed_disc_radius(domain):
    """Radius of the largest disc contained in the domain."""
    if isinstance(domain, Annulus):
        return 0.5 * (domain.r_out - domain.r_in)
    if isinstance(domain, Disc):
        return domain.radius
    if isinstance(domain, ConvexPolygon):
        return _chebyshev_radius(domain)
    if isinstance(domain, GridMask):
        from scipy import ndimage

        dist = ndimage.distance_transform_edt(domain.mask)
        return float(dist.max()) * domain.cell_size
    raise UnsupportedDomainError(f"unknown domain kind {type(domain).__name__}")


def _chebyshev_radius(poly):
    """Inradius of a convex polygon: the largest rho with n_i . q + rho <=
    n_i . v_i over its edges i (outward unit normal n_i, first vertex v_i).

    Offset inward by rho, an edge leaves where its line meets its two
    neighbours'.  Dropping edges in that order until three remain keeps
    the three active at the optimum, whose lines meet at the inradius.
    An edge whose drop would leave its neighbours' normals more than pi
    apart is kept, so that under ties (a regular polygon) the last three
    are not nearly parallel.
    """
    v = poly.vertices
    n = len(v)
    e = np.roll(v, -1, axis=0) - v
    normal = np.column_stack([e[:, 1], -e[:, 0]]) / np.hypot(*e.T)[:, None]
    rows = np.column_stack([normal, np.ones(n)])
    rhs = np.sum(normal * v, axis=1)
    prev, succ = list(np.roll(range(n), 1)), list(np.roll(range(n), -1))

    def leave(k):
        t = [prev[k], k, succ[k]]
        return float(np.linalg.solve(rows[t], rhs[t])[2])

    when = [leave(k) for k in range(n)]
    heap, live = sorted(zip(when, range(n))), n
    while live > 3:
        t, k = heapq.heappop(heap)
        p, q = prev[k], succ[k]
        (xp, yp), (xq, yq) = normal[p], normal[q]
        if t != when[k] or xp * yq - yp * xq < 0.0:
            continue  # stale, or kept until a neighbour changes
        when[k] = math.nan
        live -= 1
        succ[p], prev[q] = q, p
        for j in (p, q):
            when[j] = leave(j)
            heapq.heappush(heap, (when[j], j))
    # the three edges left all meet at their own three lines
    return float(np.nanmin(when))


def strip_width(domain):
    """Minimal slab width of a convex domain; None when not applicable."""
    if isinstance(domain, Disc):
        return 2.0 * domain.radius
    if isinstance(domain, ConvexPolygon):
        return _polygon_width(domain.vertices)
    if isinstance(domain, Annulus):
        return None
    if isinstance(domain, GridMask):
        if domain.is_convex():
            return _polygon_width(_convex_hull(domain.corner_points()))
        return None
    raise UnsupportedDomainError(f"unknown domain kind {type(domain).__name__}")


def _polygon_width(vertices):
    # minimal width of a convex polygon is attained with one side flush:
    # minimum over edges of the farthest vertex distance to the edge line
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    width = math.inf
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        e = q - p
        nrm = np.linalg.norm(e)
        if nrm == 0.0:
            continue
        normal = np.array([-e[1], e[0]]) / nrm
        width = min(width, float(np.max(np.abs((v - p) @ normal))))
    return width


def boundary_mean_curvature(domain, sample_count=256):
    """Sampled (point, Hhat) pairs with Hhat w.r.t. the inner normal.

    ``sample_count`` points are placed on each boundary component, evenly
    spaced by arclength.  Discs and annuli are closed-form (1/R on
    circles, negative on the concave inner circle of an annulus); polygon
    edges are flat, corners are skipped with a warning since curvature is
    undefined there.  Bitmap boundaries carry no well-defined curvature at
    this fidelity.
    """
    if sample_count < 1:
        raise ParameterError("need at least one sample")
    if isinstance(domain, Disc):
        angles = 2.0 * math.pi * np.arange(sample_count) / sample_count
        c = np.asarray(domain.center)
        pts = c + domain.radius * np.column_stack([np.cos(angles), np.sin(angles)])
        return [(pts[i], 1.0 / domain.radius) for i in range(sample_count)]
    if isinstance(domain, Annulus):
        out = []
        for radius, hhat in ((domain.r_out, 1.0 / domain.r_out),
                             (domain.r_in, -1.0 / domain.r_in)):
            angles = 2.0 * math.pi * np.arange(sample_count) / sample_count
            pts = radius * np.column_stack([np.cos(angles), np.sin(angles)])
            out.extend((pts[i], hhat) for i in range(sample_count))
        return out
    if isinstance(domain, ConvexPolygon):
        warnings.warn(
            "polygon corners carry no defined boundary curvature and are "
            "skipped; edge samples have Hhat = 0",
            stacklevel=2,
        )
        perim = domain.perimeter()
        step = perim / sample_count
        samples = []
        walked = 0.0
        corner_tol = 1e-9 * max(1.0, perim)
        targets = (np.arange(sample_count) + 0.5) * step
        ti = 0
        for p, q in domain.edges():
            length = float(np.linalg.norm(q - p))
            while ti < len(targets) and targets[ti] <= walked + length:
                s = targets[ti] - walked
                if s > corner_tol and length - s > corner_tol:
                    samples.append((p + (s / length) * (q - p), 0.0))
                ti += 1
            walked += length
        return samples
    if isinstance(domain, GridMask):
        raise UnsupportedDomainError(
            "boundary curvature of a bitmap domain is not well-defined")
    raise UnsupportedDomainError(f"unknown domain kind {type(domain).__name__}")


def read_pgm(path):
    """Read a P2 (ascii) or P5 (binary) PGM file into a numpy array."""
    data = Path(path).read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise ParameterError("not a P2/P5 PGM file")
    binary = data[:2] == b"P5"
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(int(data[start:pos]))
    width, height, maxval = tokens
    if binary:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        count = width * height
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        return arr.reshape(height, width).astype(np.int64)
    values = np.array(data[pos:].split(), dtype=np.int64)
    return values.reshape(height, width)


def mask_from_pgm(path, cell_size, origin=(0.0, 0.0)):
    """Bitmap domain from a PGM file; nonzero pixels are interior.

    Row 0 of the image is placed at the top, so rows are flipped to keep
    the y-axis pointing up.
    """
    img = read_pgm(path)
    return GridMask(img[::-1] != 0, cell_size, origin)


def domain_from_json(spec, base_dir="."):
    """Build a domain from its JSON description; a malformed entry raises
    ParameterError.

    Every length and coordinate must be a finite JSON number, and every
    bitmap entry 0 or 1 (false or true).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParameterError("domain spec must be an object with a 'kind' key")
    kind = spec["kind"]

    def point(value):
        return tuple(finite_number(v) for v in value)

    def bit(value):
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        raise ValueError(f"bitmap entries must be 0 or 1, got {value!r}")

    with config_key("domain"):
        if kind == "annulus":
            return Annulus(finite_number(spec["r_in"]),
                           finite_number(spec["r_out"]))
        if kind == "disc":
            return Disc(finite_number(spec["radius"]),
                        point(spec.get("center", (0.0, 0.0))))
        if kind == "convex_polygon":
            return ConvexPolygon([point(v) for v in spec["vertices"]])
        if kind == "grid_mask":
            origin = point(spec.get("origin", (0.0, 0.0)))
            cell = finite_number(spec["cell_size"])
            if "path" in spec:
                return mask_from_pgm(Path(base_dir) / spec["path"], cell, origin)
            bitmap = [[bit(v) for v in row] for row in spec["bitmap"]]
            return GridMask(np.array(bitmap, dtype=bool), cell, origin)
    raise ParameterError(f"unknown domain kind {kind!r}")
