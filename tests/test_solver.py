import gc
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import coo_matrix

from pmcgraph import barrier, conditions, geometry, pipeline, solver
from pmcgraph.conditions import CurvatureField
from pmcgraph.errors import (
    ContinuationFailureError,
    ParameterError,
    SolverError,
)
from pmcgraph.grid import (DIRECTIONS, OFFSETS, PAD_CELLS, THETA_SNAP,
                           grid_from_domain, nested_prolongation, prolongate,
                           shift)
from pmcgraph.ioutil import write_csv

FIXTURES = Path(__file__).parent / "fixtures"

H_ZERO = CurvatureField.from_constant(0.0)

PENTAGON = geometry.ConvexPolygon(
    [(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)])


def table_field():
    return pipeline.curvature_from_json({
        "table": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.25, 2.5],
                  "values": [[-0.30, -0.22, -0.30],
                             [-0.25, -0.15, -0.25],
                             [-0.20, -0.28, -0.20]]},
        "z_slope": 0.1})


class FactorEveryStep(solver.FactorOnceSolver):
    """Reference linear solver: a fresh LU factor at every Newton step."""

    def solve(self, J, rhs, rtol=None):
        self._precond = None
        return super().solve(J, rhs)


def cap_values(h, R, X, Y):
    return np.sqrt(1.0 / h**2 - X**2 - Y**2) - math.sqrt(1.0 / h**2 - R**2)


def lattice_arms(grid):
    """The plan's per-dof arms scattered back onto the lattice: dicts by
    direction of the neighbour flags, arm fractions and Dirichlet values,
    filled off the interior with False, 1 and 0."""
    plan = grid.plan
    theta, gval = plan.arms()
    out = []
    for rows, fill in ((plan.nbr_mask, False), (theta, 1.0), (gval, 0.0)):
        arms = {}
        for d, row in zip(DIRECTIONS, rows):
            arms[d] = np.full(grid.shape, fill, dtype=row.dtype)
            arms[d][grid.interior] = row
        out.append(arms)
    return out


def full_stencil_mask(grid):
    """Interior nodes whose full 9-point stencil has only whole arms: where
    the scheme has its clean second-order truncation."""
    nbr, _, _ = lattice_arms(grid)
    full = grid.interior.copy()
    for d in ("E", "W", "N", "S"):
        full &= nbr[d]
        dj, di = OFFSETS[d]
        for arm in ("E", "W", "N", "S"):
            full &= shift(nbr[arm], dj, di, fill=False)
    return full


class TestResidual:
    def test_zero_for_flat_minimal(self):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        res = solver.mc_residual(np.zeros(grid.n_dof), grid, H_ZERO)
        assert np.max(np.abs(res)) == 0.0

    def test_zero_for_affine_plane(self):
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        plane = lambda x, y: 0.4 * x - 1.1 * y + 0.3
        grid = grid_from_domain(square, 0.05, boundary=plane)
        res = solver.mc_residual(plane(*grid.plan.points.T), grid, H_ZERO)
        assert np.max(np.abs(res)) <= 1e-12

    def test_cap_truncation_orders(self):
        # interpolating the exact cap: the finite-volume residual (cell
        # area times the pointwise one) decays at order ~2 everywhere; the
        # pointwise residual does so on the bulk, but stays first order in
        # the cell count next to cut arms (the usual cut-cell behaviour)
        h, R = 0.5, 1.0
        field = CurvatureField.from_constant(-h)
        disc = geometry.Disc(R)
        weighted, bulk = [], []
        for n in (33, 65, 129):
            grid = grid_from_domain(disc, 2.0 / (n - 1))
            x = cap_values(h, R, *grid.plan.points.T)
            res_p = solver.mc_residual(x, grid, field)
            res_w = res_p * grid.spacing * grid.spacing
            weighted.append(np.max(np.abs(res_w)))
            bulk.append(np.max(np.abs(
                res_p[full_stencil_mask(grid)[grid.interior]])))
        for errs in (weighted, bulk):
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert all(1.5 <= o <= 2.5 for o in orders), (errs, orders)

    @pytest.mark.parametrize("case", ["annulus", "pentagon", "disc", "table"])
    def test_jacobian_matches_complex_steps(self, case):
        # complex-step differentiation (Squire & Trapp 1998): a residual at
        # values + i h e has imaginary part h J e to roundoff, with no
        # difference to cancel.  A node's residual reads only its 3 x 3
        # block, so the nodes of one colour of a 3 x 3 lattice colouring
        # never share a row: J e for that colour's indicator e holds one
        # entry per row, and nine residuals recover every entry
        if case == "annulus":
            grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
            field = CurvatureField.from_constant(-0.3)
        elif case == "pentagon":
            linear = pipeline.boundary_from_json({"linear": [0.2, -0.1, 0.05]})
            grid = grid_from_domain(PENTAGON, 0.1, boundary=linear)
            field = CurvatureField(
                lambda p, z: 0.2 * p[..., 0] + 0.1 * z, z_slope=0.1,
                spatial=lambda p: 0.2 * p[..., 0])
        elif case == "disc":
            grid = grid_from_domain(geometry.Disc(1.0, (0.3, -0.2)), 0.1)
            field = CurvatureField.from_constant(0.5)
        else:
            # the benchmark's tabulated field: its z term keeps the step
            grid, field = grid_from_domain(PENTAGON, 0.2), table_field()
        x = 0.3 * np.sin(grid.X + 2.0 * grid.Y)[grid.interior]
        t, step = 0.8, 1e-30
        J = solver._assemble_jacobian(grid, x, field, t)
        rows, cols = np.indices(grid.shape)
        colour = ((rows % 3) * 3 + cols % 3)[grid.interior]
        worst = 0.0
        for c in range(9):
            e = (colour == c).astype(float)
            res = solver.mc_residual(x + 1j * step * e, grid, field, t)
            worst = max(worst, np.max(np.abs(J @ e - res.imag / step)))
        assert worst <= 1e-14 * np.max(np.abs(J.data))

    def test_jacobian_matches_finite_differences(self):
        field = CurvatureField(
            lambda p, z: 0.1 * p[..., 0] - 0.2 * p[..., 1] + 0.3 * z)
        pentagon = geometry.ConvexPolygon(
            [(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)])
        linear = pipeline.boundary_from_json({"linear": [0.2, -0.1, 0.05]})
        grids = [
            grid_from_domain(geometry.Disc(1.0), 0.21),
            # cut arms in all four directions and nonzero Dirichlet data
            grid_from_domain(pentagon, 0.3, boundary=linear),
        ]
        cut = ~grids[1].plan.nbr_mask
        gval = grids[1].plan.arms()[1]
        assert cut.any(axis=1).all() and np.any(gval != 0.0)
        for grid in grids:
            rng = np.random.default_rng(4)
            x = 0.3 * rng.standard_normal(grid.n_dof)
            J = solver._assemble_jacobian(grid, x, field, 0.8).toarray()
            eps = 1e-7
            for k in range(grid.n_dof):
                e = np.zeros(grid.n_dof)
                e[k] = eps
                col = (solver.mc_residual(x + e, grid, field, 0.8)
                       - solver.mc_residual(x - e, grid, field, 0.8))
                col /= 2 * eps
                assert np.max(np.abs(J[:, k] - col)) <= 1e-6 * max(1.0, np.abs(col).max())


# The lattice kernels that the stencil plan replaced, kept as the bit-exact
# reference: every stencil term on whole bounding-box arrays, accumulated
# per offset in a dict, then masked into COO triplets.  They read the arm
# geometry on the lattice, from ``lattice_arms``.

def _lattice_edge_data(grid, f):
    h = grid.spacing
    nbr, theta, gval = lattice_arms(grid)
    val, dval = {}, {}
    for d in ("E", "W", "N", "S"):
        dj, di = OFFSETS[d]
        val[d] = np.where(nbr[d], shift(f, dj, di), gval[d])
        dval[d] = (val[d] - f) / (theta[d] * h)
    tE, tW = theta["E"], theta["W"]
    tN, tS = theta["N"], theta["S"]
    den_x = tE * tW * (tE + tW) * h
    den_y = tN * tS * (tN + tS) * h
    Dx = (tW**2 * val["E"] - tE**2 * val["W"] + (tE**2 - tW**2) * f) / den_x
    Dy = (tS**2 * val["N"] - tN**2 * val["S"] + (tN**2 - tS**2) * f) / den_y
    return val, dval, Dx, Dy


def _lattice_edge_states(grid, f):
    val, dval, Dx, Dy = _lattice_edge_data(grid, f)
    nbr, _, _ = lattice_arms(grid)
    states = {}
    for d, transverse in (("E", Dy), ("W", Dy), ("N", Dx), ("S", Dx)):
        dj, di = OFFSETS[d]
        primary = dval[d] if d in ("E", "N") else -dval[d]
        cross = np.where(nbr[d],
                         0.5 * (transverse + shift(transverse, dj, di)),
                         transverse)
        W = np.sqrt(1.0 + primary**2 + cross**2)
        states[d] = (primary, cross, W)
    return states, Dx, Dy


def _lattice_residual(f, grid, hfield, t_homotopy):
    states, _, _ = _lattice_edge_states(grid, f)
    h = grid.spacing
    _, theta, _ = lattice_arms(grid)
    cfac_x = 2.0 / ((theta["E"] + theta["W"]) * h)
    cfac_y = 2.0 / ((theta["N"] + theta["S"]) * h)
    flux = {d: states[d][0] / states[d][2] for d in states}
    div = (flux["E"] - flux["W"]) * cfac_x + (flux["N"] - flux["S"]) * cfac_y
    pts = np.stack([grid.X, grid.Y], axis=-1)
    rhs = t_homotopy * solver.GRID_DIM * hfield.eval(pts, f)
    return np.where(grid.interior, div - rhs, 0.0)


def _lattice_jacobian(grid, f, hfield, t_homotopy):
    h = grid.spacing
    states, Dx, Dy = _lattice_edge_states(grid, f)
    nbr, theta, _ = lattice_arms(grid)
    cfac = {
        "E": 2.0 / ((theta["E"] + theta["W"]) * h),
        "W": 2.0 / ((theta["E"] + theta["W"]) * h),
        "N": 2.0 / ((theta["N"] + theta["S"]) * h),
        "S": 2.0 / ((theta["N"] + theta["S"]) * h),
    }
    sign = {"E": 1.0, "W": -1.0, "N": 1.0, "S": -1.0}
    mP = {d: -1.0 / (theta[d] * h) for d in OFFSETS}
    mN = {d: 1.0 / (theta[d] * h) for d in OFFSETS}
    tE, tW = theta["E"], theta["W"]
    tN, tS = theta["N"], theta["S"]
    den_x = tE * tW * (tE + tW) * h
    den_y = tN * tS * (tN + tS) * h
    cx = {"P": (tE**2 - tW**2) / den_x, "E": tW**2 / den_x, "W": -(tE**2) / den_x}
    cy = {"P": (tN**2 - tS**2) / den_y, "N": tS**2 / den_y, "S": -(tN**2) / den_y}
    acc = {}

    def add(offset, coef):
        if offset in acc:
            acc[offset] = acc[offset] + coef
        else:
            acc[offset] = coef.copy() if isinstance(coef, np.ndarray) else coef

    def add_node_derivative(base_offset, weight, axis):
        bj, bi = base_offset
        coefs = cx if axis == "x" else cy
        arms = ("E", "W") if axis == "x" else ("N", "S")
        if base_offset == (0, 0):
            add((0, 0), weight * coefs["P"])
            for arm in arms:
                oj, oi = OFFSETS[arm]
                add((oj, oi), weight * np.where(nbr[arm], coefs[arm], 0.0))
        else:
            add((bj, bi), weight * shift(coefs["P"], bj, bi))
            for arm in arms:
                oj, oi = OFFSETS[arm]
                guard = shift(np.where(nbr[arm], coefs[arm], 0.0), bj, bi)
                add((bj + oj, bi + oi), weight * guard)

    for d in ("E", "W", "N", "S"):
        dj, di = OFFSETS[d]
        primary, cross, W = states[d]
        phi_p = (1.0 + cross**2) / W**3
        phi_c = -primary * cross / W**3
        A = sign[d] * cfac[d] * phi_p
        B = sign[d] * cfac[d] * phi_c
        flip = 1.0 if d in ("E", "N") else -1.0
        add((0, 0), A * flip * mP[d])
        add((dj, di), A * flip * np.where(nbr[d], mN[d], 0.0))
        axis = "y" if d in ("E", "W") else "x"
        wP = np.where(nbr[d], 0.5, 1.0)
        wQ = np.where(nbr[d], 0.5, 0.0)
        add_node_derivative((0, 0), B * wP, axis)
        add_node_derivative((dj, di), B * wQ, axis)

    pts = np.stack([grid.X, grid.Y], axis=-1)
    add((0, 0), -t_homotopy * solver.GRID_DIM * hfield.hz(pts, f))
    rows, cols, vals = [], [], []
    for (dj, di), coef in sorted(acc.items()):
        mask = grid.interior & shift(grid.interior, dj, di, fill=False)
        rows.append(grid.index[mask])
        cols.append(shift(grid.index, dj, di, fill=-1)[mask])
        vals.append(coef[mask])
    n = grid.n_dof
    return coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                              np.concatenate(cols))),
                      shape=(n, n)).tocsr()


class TestStencilPlan:
    @pytest.mark.parametrize("case", ["pentagon", "annulus"])
    def test_kernels_match_lattice_reference(self, case):
        if case == "pentagon":
            grid = grid_from_domain(PENTAGON, 0.07,
                                    boundary=pipeline.boundary_from_json(
                                        {"linear": [0.2, -0.1, 0.05]}))
            field = CurvatureField(
                lambda p, z: 0.1 * p[..., 0] - 0.2 * p[..., 1] + 0.3 * z)
        else:
            grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 16)
            field = CurvatureField.from_constant(-0.3)
        rng = np.random.default_rng(5)
        f = np.zeros(grid.shape)
        f[grid.interior] = 0.4 * rng.standard_normal(grid.n_dof)
        x = f[grid.interior]
        for t in (0.0, 0.7, 1.0):
            res = solver.mc_residual(x, grid, field, t)
            assert np.array_equal(
                res, _lattice_residual(f, grid, field, t)[grid.interior])
            J = solver._assemble_jacobian(grid, x, field, t)
            ref = _lattice_jacobian(grid, f, field, t)
            assert np.array_equal(J.indptr, ref.indptr)
            assert np.array_equal(J.indices, ref.indices)
            assert np.array_equal(J.data, ref.data)
        _, dval, Dx, Dy = _lattice_edge_data(grid, f)
        nbr, _, _ = lattice_arms(grid)
        cut_slopes = [np.abs(dval[d][grid.interior & ~nbr[d]])
                      for d in ("E", "W", "N", "S")]
        expected = (np.max(np.sqrt(Dx**2 + Dy**2)[grid.interior]),
                    max(s.max() for s in cut_slopes if s.size))
        assert solver._gradient_diagnostics(grid.plan, x) == expected

    def test_plan_is_freed_with_its_grid(self):
        # the plan keeps no reference to its grid, so no cycle outlives
        # the last reference to the grid
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        solver.mc_residual(np.zeros(grid.n_dof), grid, H_ZERO)
        assert "plan" in vars(grid)
        ref = weakref.ref(grid)
        del grid
        assert ref() is None


def held_bytes(obj):
    """Bytes of every ndarray an object holds through its attributes,
    counting a view's whole base."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            base = value.base if isinstance(value.base, np.ndarray) else value
            total += base.nbytes
        elif hasattr(value, "__dict__") and not callable(value):
            total += held_bytes(value)
    return total


class TestPlanStorage:
    @pytest.mark.parametrize("domain", [geometry.Annulus(1.0, 2.0), PENTAGON],
                             ids=["annulus", "pentagon"])
    def test_geometry_is_stored_only_at_cut_dofs(self, domain):
        grid = grid_from_domain(domain, 1.0 / 128)
        plan = grid.plan
        assert held_bytes(plan) <= 100 * grid.n_dof
        # a dof is bulk when it and the four neighbours its arms reach have
        # only arms to interior neighbours; the cut set is every other dof
        nbr, _, _ = lattice_arms(grid)
        whole = nbr["E"] & nbr["W"] & nbr["N"] & nbr["S"]
        bulk = whole.copy()
        for d in DIRECTIONS:
            bulk &= shift(whole, *OFFSETS[d], fill=False)
        assert np.array_equal(plan.cut_dofs,
                              np.flatnonzero(~bulk[grid.interior]))
        assert plan.cut_arms.theta.shape == (4, plan.cut_dofs.size)
        # the boundary's share: under 3 % of the dofs at this spacing
        assert plan.cut_dofs.size < 0.03 * grid.n_dof


class TestScaleCovariance:
    # Omega -> lam Omega, H -> H / lam and spacing -> lam spacing map the
    # scheme onto itself: for a power of two lam every lattice coordinate,
    # membership test and bisection probe scales exactly, so the grids
    # are bitwise the same, the residual of lam f is the residual of f
    # over lam, and the Jacobian is scaled by 1 / lam^2, bit for bit.  The
    # solves differ only in Newton's absolute stopping test and GMRES's
    # forcing terms: measured max |lam f_1 - f_2| / (lam sup|f_1|) at 1/16
    # is 1.07e-15 on the annulus and 3.0e-16 on the pentagon
    CASES = {
        "annulus": (lambda lam: geometry.Annulus(lam * 1.0, lam * 2.0), -0.3),
        "pentagon": (lambda lam: geometry.ConvexPolygon(
            [(lam * x, lam * y) for x, y in PENTAGON.vertices]), 0.3),
    }

    @pytest.mark.parametrize("lam", [2, 8])
    @pytest.mark.parametrize("case", ["annulus", "pentagon"])
    def test_scaled_problem_is_the_scaled_solution(self, case, lam):
        make, h = self.CASES[case]
        spacing = 1.0 / 16
        field_1 = CurvatureField.from_constant(h)
        field_2 = CurvatureField.from_constant(h / lam)
        grid_1 = grid_from_domain(make(1), spacing)
        grid_2 = grid_from_domain(make(lam), lam * spacing)
        plan_1, plan_2 = grid_1.plan, grid_2.plan
        assert grid_1.interior.tobytes() == grid_2.interior.tobytes()
        assert plan_1.nbr_mask.tobytes() == plan_2.nbr_mask.tobytes()
        assert plan_1.arms()[0].tobytes() == plan_2.arms()[0].tobytes()
        assert plan_1.cut_dofs.tobytes() == plan_2.cut_dofs.tobytes()
        assert np.array_equal(lam * plan_1.points, plan_2.points)

        x = 0.3 * np.sin(plan_1.points @ [1.0, 2.0])
        for t in (0.0, 0.7):
            assert np.array_equal(
                solver.mc_residual(x, grid_1, field_1, t) / lam,
                solver.mc_residual(lam * x, grid_2, field_2, t))
            J_1 = solver._assemble_jacobian(grid_1, x, field_1, t)
            J_2 = solver._assemble_jacobian(grid_2, lam * x, field_2, t)
            assert np.array_equal(J_1.data / lam**2, J_2.data)

        f_1 = pipeline.solve_grid(grid_1, field_1).solution.dof_values
        f_2 = pipeline.solve_grid(grid_2, field_2).solution.dof_values
        assert np.max(np.abs(lam * f_1 - f_2)) <= (
            1e-14 * lam * np.max(np.abs(f_1)))


class TestBoundaryData:
    def test_crossings_lie_on_the_pentagon(self):
        # spacing 0.1 puts lattice points on the slanted edges, so cut arms
        # end at boundary nodes as well as at bisected crossings
        g = pipeline.boundary_from_json({"linear": [0.2, -0.1, 0.05]})
        grid = grid_from_domain(PENTAGON, 0.1, boundary=g)
        points, values = grid.boundary_data()
        plan = grid.plan
        # one point per cut arm, in direction then dof order
        k, dof = np.nonzero(~plan.nbr_mask)
        unit = np.array([OFFSETS[d][::-1] for d in DIRECTIONS], dtype=float)
        theta_h = plan.arms()[0] * grid.spacing
        assert np.allclose(points, plan.points[dof]
                           + unit[k] * theta_h[k, dof, None],
                           rtol=0.0, atol=1e-12)
        assert np.array_equal(values, g(points[:, 0], points[:, 1]))
        # distance to the nearest edge
        v = np.array(PENTAGON.vertices)
        p, q = v, np.roll(v, -1, axis=0)
        s = np.clip(np.einsum("mej,ej->me", points[:, None] - p, q - p)
                    / np.sum((q - p) ** 2, axis=1), 0.0, 1.0)
        foot = p + s[..., None] * (q - p)
        dist = np.linalg.norm(points[:, None] - foot, axis=-1).min(axis=1)
        assert dist.max() <= 1e-12


def per_direction_arms(domain, spacing, boundary=None):
    """Interior mask and (4, n_dof) arm fractions and Dirichlet values of
    a non-bitmap domain, bisecting the cut arms of one direction at a
    time: the loop that one batched bisection replaced, kept as its
    oracle."""
    xmin, ymin, xmax, ymax = domain.bbox()
    x0, y0 = xmin - PAD_CELLS * spacing, ymin - PAD_CELLS * spacing
    nx = np.ceil((xmax - x0) / spacing) + 1 + PAD_CELLS
    ny = np.ceil((ymax - y0) / spacing) + 1 + PAD_CELLS
    X, Y = np.meshgrid(x0 + spacing * np.arange(int(nx)),
                       y0 + spacing * np.arange(int(ny)))
    pts = np.stack([X, Y], axis=-1)
    inside = domain.contains(pts)
    interior = inside.copy()
    for dj, di in OFFSETS.values():
        cut = inside & ~shift(inside, dj, di, fill=False)
        interior[cut] &= domain.contains(
            pts[cut] + THETA_SNAP * spacing * np.array([di, dj]))
    nbr = np.stack([shift(interior, *OFFSETS[d], fill=False)[interior]
                    for d in DIRECTIONS])
    points = np.column_stack([X[interior], Y[interior]])
    theta, gval = np.ones(nbr.shape), np.zeros(nbr.shape)
    for k, d in enumerate(DIRECTIONS):
        dj, di = OFFSETS[d]
        cut = ~nbr[k]
        cx, cy = points[cut].T
        lo = shift(inside, dj, di, fill=False)[interior][cut].astype(float)
        hi = np.ones(cx.shape)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            within = domain.contains(np.stack(
                [cx + di * mid * spacing, cy + dj * mid * spacing], axis=-1))
            lo = np.where(within, mid, lo)
            hi = np.where(within, hi, mid)
        theta[k, cut] = 0.5 * (lo + hi)
        if boundary is not None:
            frac = theta[k, cut]
            gval[k, cut] = boundary(cx + di * frac * spacing,
                                    cy + dj * frac * spacing)
    return interior, theta, gval


class TestArmBisection:
    LINEAR = pipeline.boundary_from_json({"linear": [0.4, -1.1, 0.3]})

    @pytest.mark.parametrize("domain, spacing, boundary", [
        (geometry.Annulus(1.0, 2.0), 1.0 / 32, None),
        (geometry.Disc(1.0, (0.5, -0.25)), 0.05, LINEAR),
        (PENTAGON, 1.0 / 64, None),
    ], ids=["annulus", "offcentre-disc", "pentagon"])
    def test_matches_per_direction_bisection(self, domain, spacing, boundary):
        grid = grid_from_domain(domain, spacing, boundary=boundary)
        interior, theta, gval = per_direction_arms(domain, spacing, boundary)
        assert grid.interior.tobytes() == interior.tobytes()
        plan_theta, plan_gval = grid.plan.arms()
        assert plan_theta.tobytes() == theta.tobytes()
        assert plan_gval.tobytes() == gval.tobytes()

    @pytest.mark.parametrize("domain, spacing", [
        (geometry.Annulus(1.0, 2.0), 1.0 / 32),
        (geometry.Disc(1.0, (0.5, -0.25)), 0.05),
        (PENTAGON, 1.0 / 64),
    ], ids=["annulus", "offcentre-disc", "pentagon"])
    def test_one_membership_call_per_bisection_step(self, monkeypatch,
                                                    domain, spacing):
        # the lattice, one snap probe per direction, then 50 steps that
        # bisect the cut arms of all four directions at once
        calls = []
        real = type(domain).contains

        def spy(self, points):
            calls.append(np.shape(points))
            return real(self, points)

        monkeypatch.setattr(type(domain), "contains", spy)
        grid_from_domain(domain, spacing)
        assert len(calls) == 1 + 4 + 50
        assert len({shape for shape in calls[5:]}) == 1


class TestNewton:
    def test_minimal_zero_data_is_exact_root(self):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        sol = solver.newton_solve(grid, H_ZERO)
        assert sol.newton_iters <= 2
        assert np.max(np.abs(sol.values)) == 0.0

    def test_minimal_on_mask(self):
        m = np.zeros((12, 12), dtype=bool)
        m[2:10, 2:10] = True
        m[4:6, 4:8] = False
        m[4:6, 4] = True  # keep it connected but irregular
        grid = grid_from_domain(geometry.GridMask(m, 0.1), 0.1)
        sol = solver.newton_solve(grid, H_ZERO)
        assert sol.newton_iters <= 2
        assert sol.residual_inf <= 1e-12

    def test_factor_once_matches_factor_every_step(self):
        grid = grid_from_domain(geometry.Disc(1.0), 0.1)
        field = CurvatureField.from_constant(-0.4)
        once, every = solver.FactorOnceSolver(), FactorEveryStep()
        reused = solver.newton_solve(grid, field, linsolve=once)
        reference = solver.newton_solve(grid, field, linsolve=every)
        assert np.max(np.abs(reused.values - reference.values)) <= 1e-12
        assert reused.newton_iters == reference.newton_iters
        assert once.factorizations == 1 and once.krylov_iters > 0
        assert every.factorizations == reference.newton_iters

    def test_initial_must_be_a_dof_vector(self):
        # a lattice would otherwise be read in the wrong order by ``take``
        grid = grid_from_domain(geometry.Disc(1.0), 0.2)
        field = CurvatureField.from_constant(-0.3)
        for initial in (np.zeros(grid.shape), np.zeros(grid.n_dof + 1),
                        np.zeros((grid.n_dof, 1))):
            with pytest.raises(ParameterError, match="initial values"):
                solver.newton_solve(grid, field, initial=initial)

    def test_values_lay_the_dof_vector_on_the_lattice(self):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        sol = solver.newton_solve(grid, CurvatureField.from_constant(-0.3))
        assert sol.dof_values.shape == (grid.n_dof,)
        assert np.all(sol.dof_values > 0.0)
        values = sol.values
        assert values.shape == grid.shape
        assert np.array_equal(values[grid.interior], sol.dof_values)
        assert not values[~grid.interior].any()

    def test_invalid_tolerance(self):
        grid = grid_from_domain(geometry.Disc(1.0), 0.2)
        with pytest.raises(ParameterError):
            solver.newton_solve(grid, H_ZERO, tol=0.0)

    def test_nan_tolerance_is_refused(self):
        # NaN fails every comparison: "residual > tol" would end Newton at
        # once and report the zero start as converged
        grid = grid_from_domain(geometry.Disc(1.0), 0.2)
        field = CurvatureField.from_constant(-0.3)
        with pytest.raises(ParameterError, match="tolerance"):
            solver.newton_solve(grid, field, tol=math.nan)
        with pytest.raises(ParameterError, match="tolerance"):
            solver.continuation_solve(grid, field, tol=math.nan)
        with pytest.raises(ParameterError, match="tolerance"):
            pipeline.solve_domain(geometry.Disc(1.0), field, 0.2, tol=math.nan)

    def test_nan_spacing_is_refused(self):
        with pytest.raises(ParameterError, match="spacing"):
            grid_from_domain(geometry.Disc(1.0), math.nan)
        with pytest.raises(ParameterError, match="spacing"):
            pipeline.solve_domain(geometry.Disc(1.0), H_ZERO, math.nan)

    def test_nan_residual_is_not_converged(self):
        grid = grid_from_domain(geometry.Disc(1.0), 0.2)
        field = CurvatureField(lambda p, z: np.full(np.shape(z), math.nan))
        with pytest.raises(SolverError, match="not finite"):
            solver.newton_solve(grid, field)


class TestHarmonicStart:
    """Newton from its default start on nonzero Dirichlet data begins at
    the discrete harmonic extension, the solution of the W = 1 scheme."""

    def test_constant_data_is_reached_exactly(self):
        out = pipeline.solve_domain(geometry.Disc(1.0), H_ZERO, 1.0 / 32,
                                    boundary=0.1)
        assert np.max(np.abs(out.solution.dof_values - 0.1)) <= 1e-12

    def test_plane_needs_no_newton_step(self):
        # the W = 1 scheme is exact on affine data, like the full one
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        plane = lambda x, y: 0.4 * x - 1.1 * y + 0.3
        grid = grid_from_domain(square, 0.05, boundary=plane)
        linsolve = solver.FactorOnceSolver()
        sol = solver.newton_solve(grid, H_ZERO, linsolve=linsolve)
        assert sol.newton_iters == 0 and linsolve.factorizations == 1
        exact = plane(grid.X, grid.Y)[grid.interior]
        assert np.max(np.abs(sol.dof_values - exact)) <= 1e-12

    def test_homotopy_leaves_the_minimal_surface_member(self):
        # a zero start puts the whole boundary jump on the cut arms, and
        # the homotopy stalls at t* = 0
        grid = grid_from_domain(
            geometry.Annulus(1.0, 2.0), 1.0 / 16,
            boundary=pipeline.boundary_from_json({"linear": [0.3, -0.2, 0.1]}))
        field = CurvatureField.from_constant(-0.5)
        sol, trace, _ = solver.continuation_solve(grid, field)
        assert [s.t for s in trace.steps] == pytest.approx(
            np.linspace(0.0, 1.0, 11), abs=1e-15)
        assert sol.residual_inf <= 1e-10
        direct = solver.newton_solve(grid, field)
        assert np.max(np.abs(direct.values - sol.values)) <= 1e-12

    def test_zero_data_keeps_the_zero_start(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("harmonic start on zero boundary data")

        monkeypatch.setattr(solver, "_harmonic_start", refuse)
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 8)
        field = CurvatureField.from_constant(-0.3)
        solver.newton_solve(grid, field)
        solver.continuation_solve(grid, field)


class TestOncePerIterate:
    """Newton computes each iterate's edge states once, for its residual,
    and hands them on to its assembly or to the final report; a field
    H(x) + s z gives dH/dz as s, with no gradient evaluation.  Every
    iterate reaches the kernels as a dof vector."""

    # kernel name -> (letter, position of its values argument)
    KERNELS = {"_edge_states": ("E", 1), "mc_residual": ("R", 0),
               "_assemble_jacobian": ("J", 1)}

    @pytest.mark.parametrize("field", [CurvatureField.from_constant(-0.3),
                                       table_field()],
                             ids=["constant", "table"])
    def test_edge_states_once_per_iterate(self, field, monkeypatch):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 16)
        calls, nested = [], []  # kernel letters, from Newton / from a kernel
        shapes = set()  # of every values argument
        depth = 0

        def spy(name):
            real = getattr(solver, name)
            letter, position = self.KERNELS[name]

            def wrapped(*args, **kwargs):
                nonlocal depth
                (nested if depth else calls).append(letter)
                shapes.add(np.shape(args[position]))
                depth += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth -= 1

            monkeypatch.setattr(solver, name, wrapped)

        for name in self.KERNELS:
            spy(name)

        def no_gradient(*args, **kwargs):
            raise AssertionError("Newton evaluated the field's gradient")

        monkeypatch.setattr(CurvatureField, "grad_eval", no_gradient)
        # a start far enough from the solution that the line search backtracks
        r = np.hypot(*grid.plan.points.T)
        sol = solver.newton_solve(grid, field,
                                  initial=2.0 * (r - 1.0) * (2.0 - r))
        monkeypatch.undo()
        # states at the start and at each line-search trial, each followed
        # by that trial's residual; one assembly per step; the final
        # report's residual reuses the accepted iterate's states
        sequence = "".join(calls)
        assert re.fullmatch(r"ER(J(ER)+)*R", sequence), sequence
        assert "JERER" in sequence and nested == []
        assert sequence.count("J") == sol.newton_iters > 0
        assert shapes == {(grid.n_dof,)}
        fresh = solver.mc_residual(sol.dof_values, grid, field)
        assert float(np.max(np.abs(fresh))) == sol.residual_inf


class TestSolveSymmetries:
    """Metamorphic relations of the discrete scheme, through the homotopy
    on a disc with H = 0.5 at spacing 1/16.  The lattice is anchored at
    the bounding box, so neither holds bitwise: pinned at roundoff."""

    @staticmethod
    def solve(domain, h, spacing):
        grid = grid_from_domain(domain, spacing)
        field = CurvatureField.from_constant(h)
        return solver.continuation_solve(grid, field).solution

    @pytest.fixture(scope="class")
    def reference(self):
        return self.solve(geometry.Disc(1.0), 0.5, 1.0 / 16)

    @pytest.mark.parametrize("center", [(3.0, 0.0), (5.0, -7.0)])
    def test_translation_by_whole_cells(self, reference, center):
        moved = self.solve(geometry.Disc(1.0, center), 0.5, 1.0 / 16)
        assert np.array_equal(moved.grid.interior, reference.grid.interior)
        diff = moved.dof_values - reference.dof_values
        assert np.max(np.abs(diff)) <= 1e-15

    @pytest.mark.parametrize("lam", [2.0, 0.5])
    def test_scaling(self, reference, lam):
        # domain times lam, H / lam and spacing times lam: f -> lam f
        scaled = self.solve(geometry.Disc(lam), 0.5 / lam, lam / 16)
        assert np.array_equal(scaled.grid.interior, reference.grid.interior)
        diff = scaled.dof_values - lam * reference.dof_values
        assert np.max(np.abs(diff)) <= 1e-15


class TestFactorOnceSolver:
    """The single refactor rule: a new factor only after a GMRES failure.

    The factored matrix is the identity and the later one is diagonal with
    eigenvalues spread over [1, 5], so GMRES preconditioned by the old
    factor needs about 30 inner iterations, and one with an exact factor.
    """

    N = 200

    def matrices(self):
        identity = sparse.identity(self.N, format="csr")
        spread = sparse.diags(np.linspace(1.0, 5.0, self.N)).tocsr()
        return identity, spread, np.ones(self.N)

    def test_converged_gmres_never_refactors(self):
        identity, spread, rhs = self.matrices()
        linsolve = solver.FactorOnceSolver()
        assert linsolve.solve(identity, rhs)[1:] == (0, True)
        for _ in range(3):
            x, iters, factored = linsolve.solve(spread, rhs)
            assert iters > 20 and not factored
            assert np.max(np.abs(spread @ x - rhs)) <= 1e-10
        assert linsolve.factorizations == 1

    def test_gmres_failure_factors_once(self, monkeypatch):
        identity, spread, rhs = self.matrices()
        linsolve = solver.FactorOnceSolver()
        linsolve.solve(identity, rhs)
        real = solver._gmres
        calls = []

        def fail_first(*args):
            x, iters, converged = real(*args)
            calls.append(converged)
            return (x, iters, False) if len(calls) == 1 else (x, iters,
                                                               converged)

        monkeypatch.setattr(solver, "_gmres", fail_first)
        x, iters, factored = linsolve.solve(spread, rhs)
        assert iters > 0 and factored
        assert linsolve.factorizations == 2
        assert np.max(np.abs(spread @ x - rhs)) <= 1e-12
        # the next solve runs GMRES on the new, exact factor
        x, iters, factored = linsolve.solve(spread, 2.0 * rhs)
        assert (iters, factored) == (1, False)
        assert linsolve.factorizations == 2 and len(calls) == 2
        assert np.max(np.abs(spread @ x - 2.0 * rhs)) <= 1e-12


class TestInexactNewton:
    """Right-preconditioned GMRES to the forcing term of each Newton step."""

    @pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-12])
    def test_gmres_applies_the_preconditioner_once_per_iteration(self, rtol):
        # a nonsymmetric tridiagonal system, unpreconditioned in effect:
        # 5, 18 and 38 inner iterations, so one, two and three cycles
        n = 200
        J = sparse.diags([np.linspace(1.0, 5.0, n), np.full(n - 1, 0.4),
                          np.full(n - 1, -0.3)], [0, 1, -1]).tocsr()
        rhs = np.ones(n)
        applies = []

        def identity(v):
            applies.append(1)
            return v.copy()

        x, iters, converged = solver._gmres(J, rhs, identity, rtol)
        cycles = math.ceil(iters / solver._KRYLOV_RESTART)
        assert converged and cycles >= 1
        assert len(applies) == iters + cycles
        assert np.linalg.norm(rhs - J @ x) <= rtol * np.linalg.norm(rhs)

    def test_forcing_floor_cap_and_between(self):
        assert solver._forcing(0.0) == solver._KRYLOV_RTOL == 1e-12
        assert solver._forcing(1e-7) == 1e-12
        assert solver._forcing(2.0 ** -10) == 2.0 ** -20
        assert solver._forcing(0.1) == solver._FORCING_CAP == 1e-2
        assert solver._forcing(50.0) == 1e-2

    def test_newton_hands_the_forcing_term_to_gmres(self):
        calls = []  # (rtol, sup norm of the Newton residual) per step

        class Recording(solver.FactorOnceSolver):
            def solve(self, J, rhs, rtol=solver._KRYLOV_RTOL):
                calls.append((rtol, float(np.max(np.abs(rhs)))))
                return super().solve(J, rhs, rtol)

        grid = grid_from_domain(geometry.Disc(1.0), 0.1)
        sol = solver.newton_solve(grid, CurvatureField.from_constant(-0.4),
                                  linsolve=Recording())
        assert len(calls) == sol.newton_iters
        assert all(rtol == solver._forcing(rinf) for rtol, rinf in calls)
        # the residual from zero is 2 |H| = 0.8, so the first step is
        # capped; later ones tighten as Newton converges
        rtols = [rtol for rtol, _ in calls]
        assert rtols[0] == 1e-2 and rtols[-1] < 1e-10
        assert rtols == sorted(rtols, reverse=True)

    def test_table_field_homotopy_keeps_direct_newton_counts(self,
                                                             monkeypatch):
        grid = grid_from_domain(PENTAGON, 1.0 / 16)
        field = table_field()
        inexact, trace, _ = solver.continuation_solve(grid, field)
        monkeypatch.setattr(solver, "FactorOnceSolver", FactorEveryStep)
        direct, reference, _ = solver.continuation_solve(grid, field)
        iters = [s.newton_iters for s in trace.steps]
        assert iters == [s.newton_iters for s in reference.steps]
        assert [s.factorizations for s in reference.steps] == iters
        assert sum(s.factorizations for s in trace.steps) == 1
        assert np.max(np.abs(inexact.values - direct.values)) <= 1e-12


def spy_splu(monkeypatch):
    """Record the order of every sparse LU factorization."""
    sizes = []
    real = solver.sparse_linalg.splu

    def recorded(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(solver.sparse_linalg, "splu", recorded)
    return sizes


class TestTwoGridSolver:
    ANNULUS = geometry.Annulus(1.0, 2.0)
    FIELD = CurvatureField.from_constant(-0.3)

    def test_prolongation_reproduces_bilinear_functions(self):
        coarse = grid_from_domain(self.ANNULUS, 1.0 / 8)
        fine = grid_from_domain(self.ANNULUS, 1.0 / 16)
        P = nested_prolongation(coarse, fine)
        assert P.shape == (fine.n_dof, coarse.n_dof)

        def bilinear(points):
            x, y = points[:, 0], points[:, 1]
            return 0.3 - 0.7 * x + 1.1 * y + 0.5 * x * y

        got = P @ bilinear(coarse.interior_points())
        # the lower-left corner of each fine node's coarse cell; a node on
        # a coarse line or at a coarse node lies in that cell's closure
        x0, y0 = coarse.origin
        pts = fine.interior_points()
        i0 = np.floor((pts[:, 0] - x0) / coarse.spacing + 1e-9).astype(int)
        j0 = np.floor((pts[:, 1] - y0) / coarse.spacing + 1e-9).astype(int)
        parents = (coarse.interior[j0, i0] & coarse.interior[j0, i0 + 1]
                   & coarse.interior[j0 + 1, i0]
                   & coarse.interior[j0 + 1, i0 + 1])
        assert parents.sum() > 0.8 * fine.n_dof
        assert np.max(np.abs(got - bilinear(pts))[parents]) <= 1e-13

    def test_prolongation_needs_nested_lattices(self):
        coarse = grid_from_domain(self.ANNULUS, 1.0 / 8)
        with pytest.raises(ParameterError, match="half the coarse"):
            nested_prolongation(
                coarse, grid_from_domain(self.ANNULUS, 1.0 / 12))
        shifted = geometry.ConvexPolygon(
            [(0.01, 0), (1, 0), (1, 1), (0.01, 1)])
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        with pytest.raises(ParameterError, match="does not nest"):
            nested_prolongation(grid_from_domain(square, 0.1),
                                grid_from_domain(shifted, 0.05))

    @pytest.mark.parametrize("case", ["annulus", "pentagon"])
    def test_refine_matches_factor_once_newton(self, case):
        if case == "annulus":
            domain, field = self.ANNULUS, self.FIELD
        else:
            domain, field = PENTAGON, table_field()
        coarse = pipeline.solve_domain(domain, field, 1.0 / 16)
        # verify solves its fine grid from this same coarse solution
        refined = pipeline.verify_domain(domain, field, 1.0 / 16)
        grid = grid_from_domain(domain, 1.0 / 32)
        initial = prolongate(nested_prolongation(coarse.solution.grid, grid),
                             coarse.solution.dof_values, grid)
        reference = solver.newton_solve(grid, field, initial=initial,
                                        linsolve=solver.FactorOnceSolver())
        diff = np.max(np.abs(refined.solution.values - reference.values))
        assert diff <= 1e-12
        assert refined.solution.newton_iters == reference.newton_iters
        level = refined.levels[-1]
        assert level["newton_iters"] == reference.newton_iters
        assert level["factorizations"] == 1 and level["krylov_iters"] > 0

    def test_verify_factors_no_fine_matrix(self, monkeypatch):
        sizes = spy_splu(monkeypatch)
        outcome = pipeline.verify_domain(self.ANNULUS, self.FIELD, 1.0 / 16)
        n_coarsest = grid_from_domain(self.ANNULUS, 1.0 / 8).n_dof
        # the chain 1/32, 1/16, 1/8: the coarsest grid's own factor, then
        # one Galerkin operator of its size for each grid above it
        assert sizes == [n_coarsest] * 3
        assert outcome.solution.grid.n_dof > n_coarsest

    def test_gmres_failure_factors_the_fine_jacobian(self, monkeypatch):
        fine_n = grid_from_domain(self.ANNULUS, 1.0 / 32).n_dof
        real = solver._gmres
        failed = []

        def fail_first_fine(J, *args):
            x, iters, converged = real(J, *args)
            if J.shape[0] == fine_n and not failed:
                failed.append(J.shape[0])
                return x, iters, False
            return x, iters, converged

        monkeypatch.setattr(solver, "_gmres", fail_first_fine)
        sizes = spy_splu(monkeypatch)
        refined = pipeline.verify_domain(self.ANNULUS, self.FIELD, 1.0 / 16)
        assert failed == [fine_n]
        # the chain 1/16, 1/8 takes three factors of the coarsest grid's
        # size (test_verify_factors_no_fine_matrix); the fine grid's
        # Galerkin factor at 1/8 is the last of them, then one fine factor
        # preconditions every later Newton step
        level = refined.levels[-1]
        assert refined.solution.homotopy_t == 1.0
        assert level["path"] == "chain" and level["newton_iters"] > 1
        n_coarsest = grid_from_domain(self.ANNULUS, 1.0 / 8).n_dof
        assert sizes == [n_coarsest] * 3 + [fine_n]
        assert level["factorizations"] == 2
        assert refined.solution.residual_inf <= 1e-10

    def test_grids_are_freed_while_the_solver_lives(self, monkeypatch):
        fine, middle, coarse = (grid_from_domain(self.ANNULUS, h)
                                for h in (1.0 / 32, 1.0 / 16, 1.0 / 8))
        prolongations = [nested_prolongation(middle, fine),
                         nested_prolongation(coarse, middle)]
        linsolve = solver.FactorOnceSolver(prolongations)
        solver.newton_solve(fine, self.FIELD, linsolve=linsolve)
        assert linsolve.factorizations == 1
        # a second solver whose GMRES fails: the fine factor takes over
        real = solver._gmres
        monkeypatch.setattr(solver, "_gmres",
                            lambda *args: real(*args)[:2] + (False,))
        failed = solver.FactorOnceSolver(prolongations)
        iters = solver.newton_solve(fine, self.FIELD,
                                    linsolve=failed).newton_iters
        assert failed.factorizations == 1 + iters
        refs = [weakref.ref(grid) for grid in (coarse, middle, fine)]
        solvers = [weakref.ref(linsolve), weakref.ref(failed)]
        gc.disable()
        try:
            del coarse, middle, fine
            assert [ref() for ref in refs] == [None, None, None]
            # no reference cycle keeps a solver alive either
            del linsolve, failed
            assert [ref() for ref in solvers] == [None, None]
        finally:
            gc.enable()


def chain_case(name):
    """(domain, monotone field) of a chain whose finest grid is at 1/32."""
    if name == "annulus":
        return geometry.Annulus(1.0, 2.0), CurvatureField.from_constant(-0.3)
    if name == "pentagon":
        return PENTAGON, table_field()
    return geometry.Disc(1.0, (0.3, -0.2)), CurvatureField.from_constant(0.4)


class TwoGridReference(solver.FactorOnceSolver):
    """The two-grid preconditioner that the V-cycle generalises, as it was
    written before: the Galerkin operator ``P^T J P`` factored at the
    first solve, then one damped-Jacobi sweep, the coarse correction
    through that factor and one more sweep."""

    def __init__(self, prolong):
        super().__init__()
        self._reference = prolong

    def solve(self, J, rhs, rtol=solver._KRYLOV_RTOL):
        if self._reference is not None:
            prolong, self._reference = self._reference, None
            restrict = prolong.T.tocsr()
            coarse_lu = solver._splu(restrict @ J @ prolong)
            self.factorizations += 1

            def cycle(J):
                weight = solver._JACOBI_WEIGHT / J.diagonal()

                def apply(r):
                    x = weight * r
                    x += prolong @ coarse_lu.solve(restrict @ (r - J @ x))
                    x += weight * (r - J @ x)
                    return x

                return apply

            self._precond = cycle
        return super().solve(J, rhs, rtol)


def spy_gmres(monkeypatch):
    """Record (order, inner iterations) of every GMRES solve."""
    calls = []
    real = solver._gmres

    def recorded(J, *args):
        out = real(J, *args)
        calls.append((J.shape[0], out[1]))
        return out

    monkeypatch.setattr(solver, "_gmres", recorded)
    return calls


class TestVCycle:
    """The V-cycle over a chain of nested grids (``pipeline.grid_chain``):
    only the coarsest grid is factored, and the fine solutions are the
    homotopy's."""

    ANNULUS = geometry.Annulus(1.0, 2.0)
    FIELD = CurvatureField.from_constant(-0.3)

    def test_one_prolongation_is_the_two_grid_cycle(self):
        coarse = grid_from_domain(self.ANNULUS, 1.0 / 16)
        fine = grid_from_domain(self.ANNULUS, 1.0 / 32)
        P = nested_prolongation(coarse, fine)
        start = prolongate(
            P, solver.newton_solve(coarse, self.FIELD).dof_values, fine)
        runs = []
        for cls in (solver.FactorOnceSolver, TwoGridReference):
            updates = []

            class Recording(cls):
                def solve(self, J, rhs, rtol=solver._KRYLOV_RTOL,
                          updates=updates):
                    out = super().solve(J, rhs, rtol)
                    updates.append(out)
                    return out

            linsolve = Recording([P] if cls is solver.FactorOnceSolver else P)
            runs.append((solver.newton_solve(fine, self.FIELD, initial=start,
                                             linsolve=linsolve), updates))
        (vcycle, updates), (two_grid, reference) = runs
        assert len(updates) == len(reference) == vcycle.newton_iters > 1
        for (x, iters, factored), (y, ref_iters, ref_factored) in zip(
                updates, reference):
            assert np.array_equal(x, y)
            assert (iters, factored) == (ref_iters, ref_factored)
        assert np.array_equal(vcycle.values, two_grid.values)

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("case", ["annulus", "pentagon", "disc"])
    def test_no_factor_larger_than_the_coarsest_grid(self, monkeypatch,
                                                     case, command):
        domain, field = chain_case(case)
        chain = pipeline.grid_chain(grid_from_domain(domain, 1.0 / 32))
        sizes = spy_splu(monkeypatch)
        if command == "solve":
            outcome = pipeline.solve_domain(domain, field, 1.0 / 32)
        else:
            outcome = pipeline.verify_domain(domain, field, 1.0 / 16)
        assert len(chain) > 1
        assert outcome.solution.grid.n_dof == chain[0].n_dof
        # the coarsest grid's own factor, and one Galerkin factor of its
        # size per grid above it
        assert sizes == [chain[-1].n_dof] * len(chain)
        assert [(level["n_dof"], level["path"]) for level in outcome.levels] \
            == [(grid.n_dof, "chain") for grid in chain[::-1]]

    @pytest.mark.parametrize("case", ["annulus", "pentagon", "disc"])
    def test_every_vcycle_gmres_fits_one_restart(self, monkeypatch, case):
        domain, field = chain_case(case)
        n_coarsest = pipeline.grid_chain(
            grid_from_domain(domain, 1.0 / 32))[-1].n_dof
        calls = spy_gmres(monkeypatch)
        outcome = pipeline.verify_domain(domain, field, 1.0 / 16)
        # GMRES above the coarsest grid runs on the V-cycle, once per
        # Newton step
        vcycle = [iters for n, iters in calls if n > n_coarsest]
        assert len(vcycle) == sum(level["newton_iters"] for level
                                  in outcome.levels[1:]) > 0
        assert all(0 < iters <= solver._KRYLOV_RESTART for iters in vcycle)

    @pytest.mark.parametrize("case", ["annulus", "pentagon", "disc"])
    def test_fine_solutions_match_the_homotopy(self, case):
        domain, field = chain_case(case)
        outcome = pipeline.verify_domain(domain, field, 1.0 / 16)
        homotopy = solver.continuation_solve(
            grid_from_domain(domain, 1.0 / 32), field).solution
        assert np.max(np.abs(outcome.solution.values
                             - homotopy.values)) <= 1e-12
        assert outcome.report.passed()

    def test_the_climb_frees_each_grid_below(self, monkeypatch):
        # while Newton runs on a grid of the chain, no grid below it is
        # alive: each was needed only for the start of the grid above
        below, alive = [], []
        real = solver.newton_solve

        def record(grid, *args, **kwargs):
            alive.append([ref() is not None for ref in below])
            below.append(weakref.ref(grid))
            return real(grid, *args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", record)
        gc.disable()
        try:
            pipeline.solve_domain(self.ANNULUS, self.FIELD, 1.0 / 32)
        finally:
            gc.enable()
        assert alive == [[], [False], [False, False]]

    def test_dropping_the_solver_frees_its_fine_jacobian(self):
        chain = pipeline.grid_chain(grid_from_domain(self.ANNULUS, 1.0 / 32))
        prolongations = [nested_prolongation(coarse, fine)
                         for fine, coarse in zip(chain, chain[1:])]
        jacobians = []

        class Watching(solver.FactorOnceSolver):
            def solve(self, J, rhs, rtol=solver._KRYLOV_RTOL):
                jacobians.append(weakref.ref(J))
                return super().solve(J, rhs, rtol)

        gc.disable()
        try:
            linsolve = Watching(prolongations)
            solver.newton_solve(chain[0], self.FIELD, linsolve=linsolve)
            assert len(chain) == 3 and len(jacobians) > 1
            assert linsolve.factorizations == 1
            del linsolve
            # a V-cycle whose apply called itself would keep every Jacobian
            # it saw in a reference cycle, which only the collector frees
            assert [ref() for ref in jacobians] == [None] * len(jacobians)
        finally:
            gc.enable()


# few examples, with a fixed seed and no example database: each example
# runs a homotopy
MONOTONE_EXAMPLES = settings(derandomize=True, database=None, deadline=None,
                             max_examples=10)


class TestNewtonFromZero:
    """For H nondecreasing in z the discrete solution is unique, so Newton
    at t = 1 from zero reaches the homotopy's solution; ``verify``'s
    coarse level rests on this.  Both solve to 1e-12, since at the default
    1e-10 the two differ by up to about 7e-13."""

    @staticmethod
    def assert_newton_matches_homotopy(grid, field):
        newton = solver.newton_solve(grid, field, tol=1e-12)
        homotopy = solver.continuation_solve(grid, field, tol=1e-12).solution
        assert np.max(np.abs(newton.values - homotopy.values)) <= 1e-12

    @MONOTONE_EXAMPLES
    @given(h=st.floats(-0.7, 0.7))
    def test_constant_field_on_annulus(self, h):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 8)
        self.assert_newton_matches_homotopy(
            grid, CurvatureField.from_constant(h))

    @MONOTONE_EXAMPLES
    @given(values=st.lists(st.floats(-0.5, 0.5), min_size=9, max_size=9),
           z_slope=st.floats(0.0, 0.5))
    def test_table_field_on_pentagon(self, values, z_slope):
        field = pipeline.curvature_from_json({
            "table": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.25, 2.5],
                      "values": [values[0:3], values[3:6], values[6:9]]},
            "z_slope": z_slope})
        assert field.monotone
        self.assert_newton_matches_homotopy(
            grid_from_domain(PENTAGON, 1.0 / 8), field)


class TestSolutionCsv:
    def test_bytes_match_the_generic_writer(self, tmp_path):
        grid = grid_from_domain(PENTAGON, 0.07,
                                boundary=pipeline.boundary_from_json(
                                    {"linear": [0.2, -0.1, 0.05]}))
        sol = solver.newton_solve(grid, table_field())
        assert not grid.plan.nbr_mask[0].all()  # cut E arms
        sol.write_csv(tmp_path / "lattice.csv")
        mask = grid.interior
        write_csv(tmp_path / "rows.csv", ["x", "y", "f"],
                  np.column_stack([grid.X[mask], grid.Y[mask],
                                   sol.values[mask]]))
        assert ((tmp_path / "lattice.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())


class TestAnnulusReferenceSolve:
    def test_residual_within_tolerance(self, annulus_case):
        assert annulus_case["fine"].solution.residual_inf <= 1e-8

    def test_discrete_maximum_principle(self, annulus_case):
        # H = -h < 0 with zero boundary keeps the solution nonnegative
        assert annulus_case["fine"].solution.dof_values.min() >= -1e-9

    def test_sup_norm_below_barrier_height(self, annulus_case):
        c1, _ = barrier.barrier_constants(annulus_case["profile"])
        sol = annulus_case["fine"].solution
        assert sol.sup_norm <= c1 + annulus_case["slack"]

    def test_boundary_quotients_below_barrier_slope(self, annulus_case):
        _, c2 = barrier.barrier_constants(annulus_case["profile"])
        sol = annulus_case["fine"].solution
        assert sol.sup_gradient_boundary <= c2 + annulus_case["slack"]

    def test_rotational_symmetry(self, annulus_case):
        asym = solver.angular_asymmetry(annulus_case["fine"].solution)
        assert asym <= 5.0 * annulus_case["error_estimate"]

    def test_warm_start_consistency(self, annulus_case):
        # uniqueness under nondecreasing H: direct solve and continuation
        # land on the same discrete solution
        coarse = annulus_case["coarse"]
        direct = solver.newton_solve(coarse.solution.grid,
                                     annulus_case["field"])
        diff = np.max(np.abs(direct.values - coarse.solution.values))
        assert diff <= 10.0 * 1e-10

    def test_every_step_converged_quickly(self, annulus_case):
        steps = annulus_case["coarse"].trace.steps
        assert steps[-1].t == 1.0
        assert all(s.newton_iters <= 15 for s in steps)
        ts = [s.t for s in steps]
        assert ts == sorted(ts)

    def test_trace_matches_committed_record(self, annulus_case):
        record = json.loads((FIXTURES / "annulus_trace.json").read_text())
        steps = annulus_case["coarse"].trace.steps
        assert len(steps) == len(record["trace"])
        for step, ref in zip(steps, record["trace"]):
            assert step.t == pytest.approx(ref["t"], abs=1e-15)
            assert step.newton_iters == ref["newton_iters"]
            assert step.sup_norm == pytest.approx(ref["sup_norm"], abs=1e-9)
            assert step.final_residual <= 1e-8


class TestContinuation:
    def test_minimal_surface_single_step(self):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 0.1)
        sol, trace, _ = solver.continuation_solve(grid, H_ZERO)
        assert len(trace.steps) == 1
        assert trace.steps[0].t == 1.0

    def test_overcurved_disc_stalls(self, monkeypatch):
        # constant curvature above the inscribed-disc limit: no solution;
        # the homotopy must stall strictly below t = 1 and report it
        sizes = spy_splu(monkeypatch)
        grid = grid_from_domain(geometry.Disc(1.0), 1.0 / 24)
        field = CurvatureField.from_constant(1.2)
        with pytest.raises(ContinuationFailureError) as info:
            solver.continuation_solve(grid, field, max_iters=25)
        exc = info.value
        assert 0.0 < exc.stall_t < 1.0
        assert exc.stall_t == 0.859375
        assert exc.diagnostics["failed_t"] > exc.stall_t
        assert exc.trace.steps[-1].t == exc.stall_t
        # the failed bisected runs factor only where GMRES fails on the
        # lagged factor (79 when each run factored every step after its
        # first GMRES failure)
        assert len(sizes) <= 20

    def test_overcurved_disc_direct_newton_fails(self):
        grid = grid_from_domain(geometry.Disc(1.0), 1.0 / 24)
        field = CurvatureField.from_constant(1.2)
        with pytest.raises(SolverError) as info:
            solver.newton_solve(grid, field, max_iters=25)
        first = info.value.trace[0]
        assert first["factored"] is True and first["krylov_iters"] == 0
        assert all({"krylov_iters", "factored"} <= step.keys()
                   for step in info.value.trace)

    def test_one_factorization_per_homotopy(self, monkeypatch):
        grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 16)
        field = CurvatureField.from_constant(-0.3)
        _, trace, _ = solver.continuation_solve(grid, field)
        assert sum(s.factorizations for s in trace.steps) == 1
        assert all(s.krylov_iters > 0 for s in trace.steps[2:])
        monkeypatch.setattr(solver, "FactorOnceSolver", FactorEveryStep)
        _, reference, _ = solver.continuation_solve(grid, field)
        iters = [s.newton_iters for s in trace.steps]
        assert iters == [s.newton_iters for s in reference.steps]
        assert [s.factorizations for s in reference.steps] == iters


class TestRadialShoot:
    def test_matches_grid_solution(self, annulus_case, radial_case):
        assert radial_case.exists
        sol = annulus_case["fine"].solution
        # the fine lattice nodes on the positive x axis, left to right
        on_axis = sol.grid.interior & (sol.grid.Y == 0.0) & (sol.grid.X > 0.0)
        ts = sol.grid.X[on_axis]
        assert len(ts) > 50
        profile = barrier.cumulative_heights(2, 0.3, radial_case.c,
                                             radial_case.epsilon, ts)
        diff = np.max(np.abs(sol.values[on_axis] - profile))
        assert diff <= 20.0 * annulus_case["error_estimate"]

    def test_profile_satisfies_grid_operator(self, radial_case):
        # the shot profile is an exact solution: its grid residual decays
        # at second order like any other interpolated exact solution
        field = CurvatureField.from_constant(-0.3)
        errs = []
        for spacing in (1.0 / 16, 1.0 / 32):
            grid = grid_from_domain(geometry.Annulus(1.0, 2.0), spacing)
            radii = np.hypot(grid.X, grid.Y)
            flat = np.argsort(radii, axis=None)
            sorted_r = np.clip(radii.flatten()[flat], radial_case.epsilon,
                               radial_case.outer)
            prof_heights = barrier.cumulative_heights(
                2, 0.3, radial_case.c, sorted_r[0], sorted_r)
            f = np.zeros(grid.shape)
            f.flat[flat] = prof_heights
            res = solver.mc_residual(f[grid.interior], grid, field)
            errs.append(np.max(np.abs(res * spacing * spacing)))
        order = math.log2(errs[0] / errs[1])
        assert 1.5 <= order <= 2.5

    def test_boundary_values_and_invariants(self, radial_case):
        assert abs(radial_case.table[0, 1]) == 0.0
        assert abs(radial_case.p_outer) <= 1e-11
        assert radial_case.k >= 0.0
        assert radial_case.radicand_min >= -1e-12
        assert radial_case.table[:, 1].min() >= -1e-11  # nonnegative inside

    def test_nonexistence_on_thin_annulus(self):
        res = solver.radial_shoot(2, 1.0, 0.05, 1.0)
        assert not res.exists
        assert res.message
        assert math.isfinite(res.nearest_p_outer)

    def test_sweep_flips_once_with_height_bound(self):
        eps_list = [0.5, 0.3, 0.2, 0.1]
        rows = pipeline.nonexistence_sweep(2, 1.0, 1.0, eps_list)
        flags = [r["exists"] for r in rows]
        assert flags == [True, True, False, False]
        for r in rows:
            if r["exists"]:
                assert r["sup_p"] <= r["bound"] + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            solver.radial_shoot(2, 1.0, 0.5, 0.4)
        with pytest.raises(ParameterError):
            solver.radial_shoot(2, 0.0, 0.1, 1.0)


class TestGradientBoundInputs:
    def test_linear_in_height(self):
        field = CurvatureField(lambda p, z: np.asarray(z, dtype=float),
                               monotone=True)
        out = conditions.verify_gradient_bound_inputs(
            field, 1.0, domain=geometry.Disc(1.0))
        assert out.h0 == pytest.approx(2.0, rel=1e-6)
        assert out.monotone_ok

    def test_constant(self):
        field = CurvatureField.from_constant(-0.7)
        out = conditions.verify_gradient_bound_inputs(
            field, 2.0, domain=geometry.Disc(1.0))
        assert out.h0 == pytest.approx(0.7, abs=1e-12)
        assert out.monotone_ok

    def test_blowup_family_is_not_monotone(self):
        from pmcgraph.verify import _blowup_curvature

        field = CurvatureField(lambda p, z: _blowup_curvature(
            np.asarray(z, dtype=float), 0.1))
        out = conditions.verify_gradient_bound_inputs(
            field, 1.0, domain=geometry.Disc(1.0))
        assert not out.monotone_ok
        assert out.min_hz < 0.0

    def test_tabulated_field_matches_slab_loop(self):
        # the sampling loop this function used before it delegated to
        # conditions.sample_field_bounds, kept as the bit-exact reference
        field, domain = table_field(), PENTAGON
        points = conditions.domain_sample_points(domain)
        h0, min_hz = 0.0, math.inf
        for z in np.linspace(-0.4, 0.4, 21):
            zz = np.full(points.shape[:-1], float(z))
            gx, gz = field.grad_eval(points, zz)
            gnorm = np.sqrt(np.sum(gx**2, axis=-1) + gz**2)
            h0 = max(h0, float(np.max(np.abs(field.eval(points, zz)) + gnorm)))
            min_hz = min(min_hz, float(np.min(gz)))
        out = conditions.verify_gradient_bound_inputs(field, 0.4,
                                                      domain=domain)
        assert out.as_dict() == {"h0": h0, "monotone_ok": min_hz >= -1e-12,
                                 "min_hz": min_hz, "slab_height": 0.4}


class TestLipschitzFlag:
    def test_nonzero_boundary_flagged(self):
        square = geometry.ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        plane = lambda x, y: 0.25 * x
        grid = grid_from_domain(square, 0.1, boundary=plane)
        sol = solver.newton_solve(grid, H_ZERO)
        assert sol.grid.boundary_nonzero
        assert "no existence guarantee" in sol.no_existence_guarantee
        lip = grid.boundary_lipschitz_estimate()
        assert lip == pytest.approx(0.25, abs=0.02)

    def test_zero_boundary_not_flagged(self, annulus_case):
        assert not annulus_case["fine"].solution.grid.boundary_nonzero
        assert annulus_case["fine"].solution.no_existence_guarantee == ""
