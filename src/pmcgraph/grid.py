"""Masked finite-difference lattices over planar domains.

Interior nodes are lattice points inside the domain whose arms to
outside neighbours are at least ``THETA_SNAP`` cells long; a point with a
shorter one is a boundary node.  Each interior node has four arms, one per
axis direction, and each arm a neighbour status, a fraction ``theta`` (1
to an interior neighbour or a boundary node, else the fractional distance
to the domain boundary) and the Dirichlet value at its end.  Bitmap
domains use their own cells as nodes with whole arms, so their staircase
boundary is represented exactly.

The arm fractions feed a Shortley-Weller style divergence discretization
in :mod:`pmcgraph.solver`; computing them by bisection of the domain's
membership test keeps one code path for every domain kind, and one
bisection over every cut arm of all four directions at once keeps the
membership calls per grid at 55.  The grid's builder computes the arms
once, per interior node, and the grid builds from them its
:class:`StencilPlan`, the only copy of the arm geometry: the scheme's
neighbour indices, and its geometry-only coefficients, which the
solver's residual and Jacobian kernels read instead of recomputing them,
stored per dof only where the boundary cuts the stencil.
The coarse-to-fine transfer between nested grids (:func:`prolongate`)
lives here too, since its boundary fill reads the cut-arm geometry, and
so does the map of their shared lattice points (:func:`twin_dofs`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ParameterError
from .geometry import GridMask

DIRECTIONS = ("E", "W", "N", "S")
# (dj, di) lattice offsets, rows = y, columns = x
OFFSETS = {"E": (0, 1), "W": (0, -1), "N": (1, 0), "S": (-1, 0)}
#: a lattice point whose arm to an outside neighbour is shorter than this
#: many cells is a boundary node, not an unknown, so no arm is shorter
#: (Gibou, Fedkiw, Cheng & Kang, J. Comput. Phys. 176, 2002)
THETA_SNAP = 1e-3
#: largest lattice (nodes, exterior ones included) a domain is rasterized
#: onto: 16 times the largest in use, Annulus(1, 2) at 1/128 (267,289)
MAX_LATTICE_NODES = 2**22
#: lattice cells between a domain's bounding box and its lattice's edge
PAD_CELLS = 2
#: the 3 x 3 block of lattice offsets coupled by the scheme, sorted, so
#: that their dof indices increase along every row of the Jacobian
STENCIL_OFFSETS = tuple((dj, di) for dj in (-1, 0, 1) for di in (-1, 0, 1))


def shift(arr, dj, di, fill=0):
    """out[j, i] = arr[j + dj, i + di], with ``fill`` past the border."""
    out = np.full(arr.shape, fill, dtype=arr.dtype)
    ny, nx = arr.shape
    tj = slice(max(0, -dj), ny - max(0, dj))
    ti = slice(max(0, -di), nx - max(0, di))
    sj = slice(max(0, dj), ny - max(0, -dj))
    si = slice(max(0, di), nx - max(0, -di))
    out[tj, ti] = arr[sj, si]
    return out


def _boundary_callable(g):
    if g is None:
        return None
    if callable(g):
        return g
    value = float(g)
    if value == 0.0:
        return None
    return lambda x, y: np.full(np.shape(x), value)


@dataclass
class MaskedGrid:
    """Lattice, interior mask and stencil plan for one domain.

    ``nbr``, ``theta`` and ``gval`` are the interior nodes' arms, (4,
    n_dof) each with rows in ``DIRECTIONS`` order: whether the neighbour
    is interior, the arm fraction and the Dirichlet value at the arm's
    end.  They go into ``plan``, the only copy of the arm geometry.
    ``boundary`` is the Dirichlet data ``g(x, y)`` the grid was built
    with, None for zero data, so that the grids of the same problem at
    other spacings can be built.
    """

    origin: tuple
    spacing: float
    interior: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    nbr: InitVar[np.ndarray]
    theta: InitVar[np.ndarray]
    gval: InitVar[np.ndarray]
    domain: object = None
    boundary: object = None

    def __post_init__(self, nbr, theta, gval):
        self.n_dof = int(self.interior.sum())
        self.index = np.full(self.interior.shape, -1, dtype=np.int64)
        self.index[self.interior] = np.arange(self.n_dof)
        self.plan = StencilPlan(self, nbr, theta, gval)

    @property
    def shape(self):
        return self.interior.shape

    @property
    def boundary_nonzero(self):
        return self.boundary is not None

    def interior_points(self):
        return np.column_stack([self.X[self.interior], self.Y[self.interior]])

    def boundary_data(self):
        """Crossing points with their Dirichlet values, one per cut arm, in
        direction then dof order."""
        plan = self.plan
        arms = plan.cut_arms
        h = self.spacing
        points, values = [], []
        for k, d in enumerate(DIRECTIONS):
            dj, di = OFFSETS[d]
            # every cut arm belongs to a cut dof
            cut = ~arms.nbr_mask[k]
            thetas = arms.theta[k, cut]
            x, y = plan.points[plan.cut_dofs[cut]].T
            points.append(np.column_stack([x + di * thetas * h,
                                           y + dj * thetas * h]))
            values.append(arms.gval[k, cut])
        return np.vstack(points), np.concatenate(values)

    def boundary_lipschitz_estimate(self):
        """Sampled Lipschitz constant of the boundary data, over at most
        4000 pairs of crossing points.

        Returns None for identically zero data.  Deterministic: pair
        selection uses a generator seeded with 0.
        """
        if not self.boundary_nonzero:
            return None
        pts, vals = self.boundary_data()
        m = len(vals)
        if m < 2:
            return 0.0
        rng = np.random.Generator(np.random.PCG64(0))
        n_pairs = min(4000, m * (m - 1) // 2)
        a = rng.integers(0, m, size=n_pairs)
        b = rng.integers(0, m, size=n_pairs)
        keep = a != b
        a, b = a[keep], b[keep]
        dist = np.linalg.norm(pts[a] - pts[b], axis=1)
        good = dist > 1e-12
        if not good.any():
            return 0.0
        return float(np.max(np.abs(vals[a][good] - vals[b][good]) / dist[good]))


class ArmCoefficients:
    """Arms and geometry-only coefficients of the scheme at a set of dofs.

    Arrays of shape (4, k) have one row per direction in ``DIRECTIONS``
    order, and arrays of shape (2, k) one row per axis pair, (E, W) then
    (N, S).  Per direction: ``nbr_mask`` (whether the neighbour is
    interior), ``theta`` (the arm fraction), ``theta_h`` (the arm length,
    theta times the spacing) and ``gval`` (the Dirichlet value at the
    arm's end).  For the node derivatives: ``theta_sq``, ``den_x``/
    ``den_y`` and ``dsq_x``/``dsq_y`` (the differences of opposite
    squared thetas); ``cfac`` is the divergence factor of each axis pair.

    For the Jacobian: ``slope_coef`` holds the one-sided slope's
    sensitivities to the node itself (``mP``) and to the neighbour
    (``mN``, zero on a cut arm).  ``deriv_node`` holds, per axis pair, the
    coefficients of the transverse node derivative at the node (``cx`` or
    ``cy`` at P) and at its first and second transverse arm (N and S for
    the (E, W) pair, E and W for the (N, S) pair), zero where that arm is
    cut; ``deriv_nbr`` holds the same three, per direction, taken at the
    arm's neighbour Q (zero where Q is not interior).  ``nbr_deriv_node``
    maps the (3, 4, k) per-direction ``deriv_node`` to the neighbours'.
    """

    def __init__(self, nbr_mask, theta, gval, h, nbr_deriv_node):
        self.nbr_mask = nbr_mask
        self.theta = theta
        self.theta_h = theta * h
        self.gval = gval

        tE, tW, tN, tS = theta
        self.theta_sq = theta**2
        sqE, sqW, sqN, sqS = self.theta_sq
        self.den_x = tE * tW * (tE + tW) * h
        self.den_y = tN * tS * (tN + tS) * h
        self.dsq_x = sqE - sqW
        self.dsq_y = sqN - sqS
        self.cfac = np.stack([2.0 / ((tE + tW) * h), 2.0 / ((tN + tS) * h)])

        self.slope_coef = np.stack([
            -1.0 / self.theta_h,
            np.where(nbr_mask, 1.0 / self.theta_h, 0.0)])
        mask_e, mask_w, mask_n, mask_s = nbr_mask
        cx_p = self.dsq_x / self.den_x
        cy_p = self.dsq_y / self.den_y
        guard_n = np.where(mask_n, sqS / self.den_y, 0.0)
        guard_s = np.where(mask_s, -sqN / self.den_y, 0.0)
        guard_e = np.where(mask_e, sqW / self.den_x, 0.0)
        guard_w = np.where(mask_w, -sqE / self.den_x, 0.0)
        # (coefficient, axis pair): the transverse axis of E/W arms is y
        self.deriv_node = np.array([[cy_p, cx_p], [guard_n, guard_e],
                                    [guard_s, guard_w]])
        self.deriv_nbr = np.where(nbr_mask, nbr_deriv_node(
            self.deriv_node[:, (0, 0, 1, 1)]), 0.0)
        for value in vars(self).values():
            value.flags.writeable = False


class StencilPlan:
    """Neighbour indices, CSR structure and arm geometry of the scheme.

    Every per-dof array runs over interior nodes in ``grid.index`` order;
    arrays of shape (4, n) have one row per direction in ``DIRECTIONS``
    order.  The residual and Jacobian kernels of :mod:`pmcgraph.solver`
    compute on dof vectors through the plan and evaluate the field only at
    ``points``.  The plan keeps no reference to its grid, so a grid and
    its plan are freed by reference counting alone.

    The scheme is the Shortley-Weller cut-arm stencil (Shortley & Weller
    1938): it differs from the five-point Laplacian's only next to the
    boundary.  So the dofs split in two.  A **bulk** dof and the four
    neighbours its arms reach have only whole arms (theta = 1 to an
    interior neighbour), and its coefficients are those of the single
    column ``bulk_arms``, the same at every bulk dof.  Every other dof is
    a **cut** dof, listed in ``cut_dofs`` (ascending), with its own
    coefficients in ``cut_arms``, one column per cut dof; as in
    embedded-boundary codes (Johansen & Colella 1998), only these carry
    per-dof geometry, and they are O(n^1/2) of the dofs.  Both are
    :class:`ArmCoefficients`.  A kernel runs the bulk formula on every dof
    and then recomputes the cut dofs from ``cut_arms``.

    Stored per dof: ``points``, ``nbr_mask``, ``nbr_index`` (the
    neighbour's dof index, 0 on a cut arm) and the Jacobian's CSR
    structure, ``indptr`` and ``indices``, of the 9-point interior
    adjacency; about 76 bytes per dof.  Stored per cut dof, about 400
    bytes: its :class:`ArmCoefficients` column and ``cut_present``, which
    offsets of its 3 x 3 block (``STENCIL_OFFSETS`` order) are interior; a
    bulk dof has all nine.  The plan of Annulus(1, 2) holds 98.2 bytes per
    dof at spacing 1/64 (2,176 of 38,576 dofs cut) and 87.1 at 1/128
    (4,352 of 154,424), where storing every coefficient per dof took 496.
    :meth:`arms` gives the arm fractions and Dirichlet values of every
    dof, on demand.
    """

    def __init__(self, grid, nbr, theta, gval):
        h = grid.spacing
        n = grid.n_dof
        self.n_dof = n
        self.points = grid.interior_points()

        def at_offset(dj, di):
            return shift(grid.index, dj, di, fill=-1)[grid.interior]

        self.nbr_mask = nbr
        self.nbr_index = np.where(
            nbr, np.stack([at_offset(*OFFSETS[d]) for d in DIRECTIONS]),
            0).astype(np.int32)
        whole = nbr.all(axis=0)
        # a cut arm's index 0 is harmless: its own node is not whole
        bulk = whole & whole.take(self.nbr_index).all(axis=0)
        self.cut_dofs = np.flatnonzero(~bulk).astype(np.int32)
        m = self.cut_dofs.size

        # a bulk dof's neighbours are bulk-like: whole arms everywhere
        self.bulk_arms = ArmCoefficients(
            np.ones((4, 1), dtype=bool), np.ones((4, 1)), np.zeros((4, 1)),
            h, lambda node: node)
        # a cut dof's neighbour is cut, at its position in ``cut_dofs``,
        # or bulk, at the appended bulk column m
        position = np.full(n, m)
        position[self.cut_dofs] = np.arange(m)
        cut_nbr = position.take(self.nbr_index[:, self.cut_dofs])
        bulk_node = self.bulk_arms.deriv_node[:, (0, 0, 1, 1)]

        def cut_deriv_node(node):
            node = np.concatenate([node, bulk_node], axis=-1)
            return np.stack([node[:, d].take(cut_nbr[d], axis=-1)
                             for d in range(len(DIRECTIONS))], axis=1)

        cut = self.cut_dofs
        self.cut_arms = ArmCoefficients(nbr[:, cut], theta[:, cut],
                                        gval[:, cut], h, cut_deriv_node)

        cols = np.stack([at_offset(dj, di) for dj, di in STENCIL_OFFSETS])
        present = cols.T >= 0
        self.indptr = np.concatenate(
            [[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)
        self.indices = cols.T[present].astype(np.int32)
        self.cut_present = present[cut]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def arms(self):
        """Arm fractions and Dirichlet values of every dof, (4, n) each:
        1 and 0 on whole arms (new arrays)."""
        theta = np.ones((len(DIRECTIONS), self.n_dof))
        gval = np.zeros((len(DIRECTIONS), self.n_dof))
        theta[:, self.cut_dofs] = self.cut_arms.theta
        gval[:, self.cut_dofs] = self.cut_arms.gval
        return theta, gval

    def csr_data(self, coef):
        """The stored entries of a (9, n) per-offset coefficient array
        (rows in ``STENCIL_OFFSETS`` order), in CSR data order."""
        present = np.ones((self.n_dof, len(STENCIL_OFFSETS)), dtype=bool)
        present[self.cut_dofs] = self.cut_present
        return coef.T[present]

    def at_nbr(self, per_direction):
        """Values of a (..., 4, n) per-direction array at each arm's
        neighbour node (meaningful where ``nbr_mask`` holds)."""
        return np.stack([row.take(idx, axis=-1) for row, idx in
                         zip(np.moveaxis(per_direction, -2, 0),
                             self.nbr_index)], axis=-2)


def _eval_boundary(gfun, x, y):
    if gfun is None:
        return np.zeros(np.shape(x))
    return np.asarray(gfun(x, y), dtype=float)


def grid_from_domain(domain, spacing, boundary=None):
    """Rasterize a domain onto a uniform lattice.

    ``boundary`` is the Dirichlet data: None/0 for zero data, a scalar, or
    a vectorized callable ``g(x, y)``.  A bitmap's own cells are the
    nodes, with whole arms.  On other domains boundary nodes are found by
    a probe ``THETA_SNAP`` cells along each arm to an outside neighbour,
    one membership call per direction, and cut-arm fractions by 50
    bisection steps on the membership test, each one call over the cut
    arms of all four directions, so any domain kind with a vectorized
    ``contains`` method works, with 55 calls per grid.
    """
    if not spacing > 0.0:
        raise ParameterError("grid spacing must be positive")
    gfun = _boundary_callable(boundary)
    bitmap = isinstance(domain, GridMask)
    if bitmap:
        spacing = domain.cell_size
        X, Y = np.meshgrid(*domain.cell_centers())
        interior = domain.mask.copy()
    else:
        xmin, ymin, xmax, ymax = domain.bbox()
        x0 = xmin - PAD_CELLS * spacing
        y0 = ymin - PAD_CELLS * spacing
        # counted in floats, so that no spacing overflows the count
        nx = np.ceil((xmax - x0) / spacing) + 1 + PAD_CELLS
        ny = np.ceil((ymax - y0) / spacing) + 1 + PAD_CELLS
        if not nx * ny <= MAX_LATTICE_NODES:
            raise ParameterError(
                f"spacing {spacing!r} needs a lattice of {nx * ny:.0f} nodes "
                f"({nx:.0f} x {ny:.0f}), above the cap of {MAX_LATTICE_NODES}")
        X, Y = np.meshgrid(x0 + spacing * np.arange(int(nx)),
                           y0 + spacing * np.arange(int(ny)))
        pts = np.stack([X, Y], axis=-1)
        inside = domain.contains(pts)
        interior = inside.copy()
        for dj, di in OFFSETS.values():
            # a node snaps if an arm to an outside neighbour is too short
            cut = inside & ~shift(inside, dj, di, fill=False)
            interior[cut] &= domain.contains(
                pts[cut] + THETA_SNAP * spacing * np.array([di, dj]))
        if not interior.any():
            raise ParameterError("no lattice nodes fall inside the domain; "
                                 "reduce the spacing")

    nbr = np.stack([shift(interior, *OFFSETS[d], fill=False)[interior]
                    for d in DIRECTIONS])
    theta = np.ones(nbr.shape)
    gval = np.zeros(nbr.shape)
    # every cut arm, in direction then dof order, with its own offsets
    k, dof = np.nonzero(~nbr)
    dj, di = np.array([OFFSETS[d] for d in DIRECTIONS])[k].T
    cx, cy = X[interior][dof], Y[interior][dof]
    if not bitmap:
        # an arm to a boundary node inside the domain ends at that node:
        # its bisection starts, and so stays, at lo = hi = 1
        lo = np.stack([shift(inside, *OFFSETS[d], fill=False)[interior]
                       for d in DIRECTIONS])[k, dof].astype(float)
        hi = np.ones(cx.shape)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            probe = np.stack([cx + di * mid * spacing, cy + dj * mid * spacing], axis=-1)
            within = domain.contains(probe)
            lo = np.where(within, mid, lo)
            hi = np.where(within, hi, mid)
        theta[k, dof] = 0.5 * (lo + hi)
    frac = theta[k, dof]
    gval[k, dof] = _eval_boundary(gfun, cx + di * frac * spacing,
                                  cy + dj * frac * spacing)
    return MaskedGrid(origin=(X[0, 0], Y[0, 0]), spacing=spacing,
                      interior=interior, X=X, Y=Y, nbr=nbr, theta=theta,
                      gval=gval, domain=domain, boundary=gfun)


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


def _nesting_offset(coarse, fine):
    """The fine origin's (row, column) offset from the coarse one, in fine
    cells; ParameterError unless the fine lattice nests in the coarse one
    at half its spacing, as :func:`grid_from_domain` builds them."""
    if fine.spacing * 2.0 != coarse.spacing:
        raise ParameterError("the fine spacing must be half the coarse one")
    offset = [(f - c) / fine.spacing
              for f, c in zip(fine.origin, coarse.origin)]
    if any(abs(o - round(o)) > 1e-6 for o in offset):
        raise ParameterError("the fine lattice does not nest in the coarse one")
    return round(offset[1]), round(offset[0])


def twin_dofs(coarse, fine):
    """Per coarse interior dof, the fine dof of its twin (the fine node at
    the same lattice point), or -1 where the twin is not interior, as on
    grids of two different domains."""
    oy, ox = _nesting_offset(coarse, fine)
    jj, ii = np.nonzero(coarse.interior)
    fj, fi = 2 * jj - oy, 2 * ii - ox
    ny, nx = fine.shape
    on = (fj >= 0) & (fj < ny) & (fi >= 0) & (fi < nx)
    return np.where(on, fine.index.take(fj * nx + fi, mode="clip"), -1)


def nested_prolongation(coarse, fine):
    """Bilinear interpolation from coarse to fine interior dofs.

    The lattices must nest (:func:`_nesting_offset`).  Along each axis a
    fine node takes the coarse node it lies on, or half of each of the two
    coarse nodes around it.  A coarse node that is not interior gets no
    entry, as for zero boundary values, so a fine dof's row sums to
    exactly 1 when all of its coarse nodes are interior and to less
    otherwise: the weights 1, 1/2 and 1/4 add without rounding.
    Returns the sparse (fine.n_dof, coarse.n_dof) matrix, built from index
    arrays with no reference to either grid.
    """
    oy, ox = _nesting_offset(coarse, fine)
    jj, ii = np.nonzero(fine.interior)
    py, px = jj + oy, ii + ox  # fine node positions from the coarse origin
    # per axis, the weights of the coarse nodes p // 2 and p // 2 + 1
    wy = (1.0 - 0.5 * (py % 2), 0.5 * (py % 2))
    wx = (1.0 - 0.5 * (px % 2), 0.5 * (px % 2))
    # a missing or exterior coarse node has index -1
    ny, nx = coarse.shape
    cy, cx = py // 2, px // 2
    index = coarse.index.ravel()
    rows, cols, weights = [], [], []
    for dj in (0, 1):
        on_row = (cy + dj >= 0) & (cy + dj < ny)
        for di in (0, 1):
            w = wy[dj] * wx[di]
            on = on_row & (cx + di >= 0) & (cx + di < nx)
            col = np.where(on, index.take((cy + dj) * nx + cx + di,
                                          mode="clip"), -1)
            k = np.flatnonzero((w != 0.0) & (col >= 0))
            rows.append(k)
            cols.append(col[k])
            weights.append(w[k])
    return csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(fine.n_dof, coarse.n_dof))


def _line_fill(values, gap, index, cut_lo, cut_hi, theta_lo, theta_hi, g_lo,
               g_hi):
    """Linear interpolation along each lattice row (axis 1) at the ``gap``
    nodes, from the nearest node with a value or boundary crossing on
    either side.

    ``values`` is NaN at every node without one, ``index`` holds the
    nodes' dof indices, ``cut_lo``/``cut_hi`` mark the nodes whose arm
    towards lower/higher columns is cut, with per-dof arm fractions
    ``theta_*`` and Dirichlet values ``g_*``.  Returns the
    interpolated values and the factor (x - x_lo)(x_hi - x), in cell
    units, of the linear interpolation error, both NaN off the gap.
    """
    known = ~np.isnan(values)
    col = np.arange(values.shape[1])
    # a row's run of interior nodes starts and ends at cut arms, so the
    # nearest anchor on either side of a gap node lies in its own run
    lo = np.maximum.accumulate(np.where(known | cut_lo, col, -1), axis=1)
    hi = np.minimum.accumulate(
        np.where(known | cut_hi, col, col.size)[:, ::-1], axis=1)[:, ::-1]
    jj, ii = np.nonzero(gap)
    k_lo, k_hi = lo[jj, ii], hi[jj, ii]
    on_lo, on_hi = known[jj, k_lo], known[jj, k_hi]
    dof_lo, dof_hi = index[jj, k_lo], index[jj, k_hi]
    # distances as whole cells plus an arm fraction, so that mirrored
    # lattices give bitwise mirrored fills
    d_lo = (ii - k_lo) + np.where(on_lo, 0.0, theta_lo[dof_lo])
    d_hi = (k_hi - ii) + np.where(on_hi, 0.0, theta_hi[dof_hi])
    v_lo = np.where(on_lo, values[jj, k_lo], g_lo[dof_lo])
    v_hi = np.where(on_hi, values[jj, k_hi], g_hi[dof_hi])
    fill = np.full(values.shape, np.nan)
    spread = np.full(values.shape, np.nan)
    fill[jj, ii] = (v_lo * d_hi + v_hi * d_lo) / (d_lo + d_hi)
    spread[jj, ii] = d_lo * d_hi
    return fill, spread


def _band_fill(grid, values):
    """Interior-node ``values`` with their NaN entries filled from the
    defined ones and the grid's boundary crossings.

    Each NaN node gets the linear interpolant along its lattice row and
    the one along its column (:func:`_line_fill`), averaged with weights
    inversely proportional to their error factors, so that the line with
    the closer anchors dominates.
    """
    plan = grid.plan
    lattice = np.full(grid.shape, np.nan)
    lattice[grid.interior] = values
    gap = grid.interior & np.isnan(lattice)
    cut = np.zeros((4,) + grid.shape, dtype=bool)
    cut[:, grid.interior] = ~plan.nbr_mask
    theta, g = plan.arms()
    E, W, N, S = range(4)
    row, row_spread = _line_fill(lattice, gap, grid.index, cut[W], cut[E],
                                 theta[W], theta[E], g[W], g[E])
    col, col_spread = (a.T for a in _line_fill(
        lattice.T, gap.T, grid.index.T, cut[S].T, cut[N].T, theta[S],
        theta[N], g[S], g[N]))
    lattice[gap] = ((row * col_spread + col * row_spread)
                    / (row_spread + col_spread))[gap]
    return lattice[grid.interior]


def prolongate(P, coarse_dofs, fine_grid):
    """Coarse interior-node values at a finer grid's interior nodes,
    through ``P``, the grids' :func:`nested_prolongation` matrix, which
    the V-cycle of the fine solve reuses.

    A fine dof whose row of ``P`` sums to 1 takes its bilinear value; the
    others, next to the boundary, are filled by :func:`_band_fill`, and
    anything still undefined by 0.
    """
    complete = P @ np.ones(P.shape[1]) == 1.0
    values = np.where(complete, P @ coarse_dofs, np.nan)
    if not complete.all():
        values = _band_fill(fine_grid, values)
    return np.nan_to_num(values, nan=0.0)
