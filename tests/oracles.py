"""Reference quantities the tests compare solutions with: the closed-form
spherical cap and the angular spread of a solution on a centred domain."""

import math

import numpy as np

from pmcgraph.errors import ParameterError
from pmcgraph.geometry import containment_extent


def spherical_cap_oracle(dim, h, disc_radius):
    """Closed-form cap f(x) = sqrt(1/h^2 - |x|^2) - sqrt(1/h^2 - R^2).

    A graph of constant mean curvature -h over the disc |x| < R with zero
    boundary values; it exists exactly while h R < 1 and degenerates to a
    hemisphere with vertical boundary slope as h R -> 1.  For h = 0 the
    flat graph f = 0 is returned.  The returned callable accepts point
    arrays of shape (..., k) and uses only |x|.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ParameterError(f"dimension must be an integer >= 2, got {dim!r}")
    if disc_radius <= 0.0:
        raise ParameterError("disc radius must be positive")
    if h < 0.0:
        raise ParameterError("cap oracle takes the magnitude h >= 0; "
                             "mirror with H -> -H for the other orientation")
    if h == 0.0:
        def flat(points):
            points = np.asarray(points, dtype=float)
            return np.zeros(points.shape[:-1])
        return flat
    if h * disc_radius >= 1.0:
        raise ParameterError(
            f"no cap over the disc: h * R = {h * disc_radius} >= 1")
    rho = 1.0 / h
    offset = math.sqrt(rho * rho - disc_radius * disc_radius)

    def cap(points):
        points = np.asarray(points, dtype=float)
        r2 = np.sum(points**2, axis=-1)
        return np.sqrt(rho * rho - r2) - offset

    return cap


def _keys_weights(t):
    # Keys cubic convolution kernel (a = -1/2), third-order accurate
    w0 = ((-0.5 * t + 1.0) * t - 0.5) * t
    w1 = (1.5 * t - 2.5) * t * t + 1.0
    w2 = ((-1.5 * t + 2.0) * t + 0.5) * t
    w3 = (0.5 * t - 0.5) * t * t
    return w0, w1, w2, w3


def interpolate_values_cubic(grid, values, points):
    """Local cubic-convolution interpolation of lattice values.

    Third-order accurate and free of global prefilters, so masked exterior
    values cannot leak in; returns NaN where the 4x4 stencil touches a
    non-interior node.
    """
    pts = np.asarray(points, dtype=float)
    x0, y0 = grid.origin
    h = grid.spacing
    fx = (pts[..., 0] - x0) / h
    fy = (pts[..., 1] - y0) / h
    ix = np.floor(fx).astype(int)
    iy = np.floor(fy).astype(int)
    ny, nx = grid.shape
    ok = (ix >= 1) & (ix < nx - 2) & (iy >= 1) & (iy < ny - 2)
    ixc = np.clip(ix, 1, nx - 3)
    iyc = np.clip(iy, 1, ny - 3)
    wx = _keys_weights(fx - ixc)
    wy = _keys_weights(fy - iyc)
    val = np.zeros(pts.shape[:-1])
    stencil_ok = np.ones(pts.shape[:-1], dtype=bool)
    for b, wyb in enumerate(wy):
        row = np.zeros(pts.shape[:-1])
        for a, wxa in enumerate(wx):
            jj = iyc + b - 1
            ii = ixc + a - 1
            row = row + wxa * values[jj, ii]
            stencil_ok &= grid.interior[jj, ii]
        val = val + wyb * row
    return np.where(ok & stencil_ok, val, np.nan)


def angular_asymmetry(solution):
    """Max over 24 radii of the angular spread of the interpolated
    solution at 64 equally spaced angles.

    For rotationally symmetric problems this measures how much the lattice
    breaks the symmetry; it should track the discretization error.  Cubic
    interpolation keeps the measurement's own error below the effect being
    measured.  The radii span the domain's distances from the origin.
    """
    grid, values = solution.grid, solution.values
    r_lo, r_hi = containment_extent(grid.domain, (0.0, 0.0))
    pad = 4.0 * grid.spacing
    radii = np.linspace(r_lo + pad, r_hi - pad, 24)
    thetas = 2.0 * math.pi * np.arange(64) / 64
    worst = 0.0
    for rho in radii:
        pts = np.column_stack([rho * np.cos(thetas), rho * np.sin(thetas)])
        vals = interpolate_values_cubic(grid, values, pts)
        vals = vals[np.isfinite(vals)]
        if vals.size >= 2:
            worst = max(worst, float(vals.max() - vals.min()))
    return worst
