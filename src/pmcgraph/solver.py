"""Solvers for the prescribed mean curvature Dirichlet problem.

Two routes:

* a damped-Newton solver for the divergence-form finite-difference
  discretization of ``div(grad f / sqrt(1 + |grad f|^2)) = t n H(x, f)``
  on masked planar lattices, wrapped in a homotopy in ``t`` from the
  minimal surface problem (t = 0) to the full problem (t = 1);
* a radial shooting solver for rotationally symmetric annuli in any
  dimension, which adjusts the profile integration constant until the
  outer zero boundary value is met and declares nonexistence when no
  feasible constant achieves it.

Discretization: edge-centered fluxes ``(f_E - f_P) / (theta h) / W`` with
the slope factor ``W`` built from the axis difference and the averaged
transverse node derivatives of the two edge endpoints; divergence divides
by the half-sum of opposite arm lengths.  Cut arms next to the boundary
use their fractional length and the Dirichlet value at the true crossing
point, which is what keeps the scheme second order on curved domains.

Linear solves factor once per grid: the first Newton step of a homotopy
factors its Jacobian with SuperLU and solves directly, and every later
Newton step, at the same or a later t, runs GMRES preconditioned by that
LU factor (:class:`FactorOnceSolver`).  The factor is renewed only when
GMRES fails or needs many iterations, because the Jacobian drifts slowly
along the homotopy and an old factor stays a good preconditioner.

Residual and Jacobian assembly are vectorized numpy expressions evaluated
in a fixed order, so reruns are bit-identical; independent solves share no
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse import linalg as sparse_linalg

from . import barrier, conditions
from .errors import (
    ContinuationFailureError,
    LineSearchStallError,
    NonconvergenceError,
    ParameterError,
    SingularSystemError,
)
from .grid import OFFSETS, interpolate_values_cubic, shift
from .ioutil import dump_json, write_csv

#: graph dimension of the planar grid problem
GRID_DIM = 2

_LINE_SEARCH_FLOOR = 2.0 ** -20
_DEFAULT_SCHEDULE_STEPS = 11
_DT_MIN = 1e-3

# GMRES preconditioned by a reused LU factor: the Newton update is solved
# to near machine precision, so Newton iteration counts match a direct
# solve; a short restart keeps the Krylov basis (and peak memory) small
_KRYLOV_RTOL = 1e-12
_KRYLOV_RESTART = 10
_KRYLOV_MAXITER = 5
# a solve that needed more than two restart cycles refactors before the
# next step; along a smooth homotopy the count creeps from 4 to about 11
# per solve, while a Newton start far from the factored point needs 20+
_KRYLOV_REFACTOR_ITERS = 2 * _KRYLOV_RESTART


def _edge_data(grid, f):
    """Per-direction arm values, one-sided slopes and node derivatives."""
    h = grid.spacing
    val, dval = {}, {}
    for d in ("E", "W", "N", "S"):
        dj, di = OFFSETS[d]
        val[d] = np.where(grid.nbr[d], shift(f, dj, di), grid.gval[d])
        dval[d] = (val[d] - f) / (grid.theta[d] * h)

    tE, tW = grid.theta["E"], grid.theta["W"]
    tN, tS = grid.theta["N"], grid.theta["S"]
    den_x = tE * tW * (tE + tW) * h
    den_y = tN * tS * (tN + tS) * h
    Dx = (tW**2 * val["E"] - tE**2 * val["W"] + (tE**2 - tW**2) * f) / den_x
    Dy = (tS**2 * val["N"] - tN**2 * val["S"] + (tN**2 - tS**2) * f) / den_y
    return val, dval, Dx, Dy


def _edge_states(grid, f):
    """Primary/transverse slopes and metric factors on the four edges."""
    val, dval, Dx, Dy = _edge_data(grid, f)
    states = {}
    for d, transverse in (("E", Dy), ("W", Dy), ("N", Dx), ("S", Dx)):
        dj, di = OFFSETS[d]
        primary = dval[d] if d in ("E", "N") else -dval[d]
        cross = np.where(grid.nbr[d],
                         0.5 * (transverse + shift(transverse, dj, di)),
                         transverse)
        W = np.sqrt(1.0 + primary**2 + cross**2)
        states[d] = (primary, cross, W)
    return states, Dx, Dy


def mc_residual(values, grid, hfield, t_homotopy=1.0, area_weighted=False):
    """Residual of the discrete operator minus t n H(x, f), per node.

    Zero outside the interior mask.  Vanishes identically for constant
    values with H = 0 and, up to rounding, for affine data on polygonal
    domains (planes are minimal graphs).

    The default is the strong (pointwise) normalization used for Newton
    stopping tests.  With ``area_weighted=True`` the finite-volume form
    (cell area times the pointwise residual) is returned; its sup norm
    decays at second order under refinement when exact solutions are
    interpolated, including at cut-arm nodes, whereas the pointwise sup
    stays first-order-in-cell-count there (the usual cut-cell behavior;
    the solution error is second order either way).
    """
    f = np.asarray(values, dtype=float)
    states, _, _ = _edge_states(grid, f)
    h = grid.spacing
    cfac_x = 2.0 / ((grid.theta["E"] + grid.theta["W"]) * h)
    cfac_y = 2.0 / ((grid.theta["N"] + grid.theta["S"]) * h)
    flux = {d: states[d][0] / states[d][2] for d in states}
    div = (flux["E"] - flux["W"]) * cfac_x + (flux["N"] - flux["S"]) * cfac_y
    pts = np.stack([grid.X, grid.Y], axis=-1)
    rhs = t_homotopy * GRID_DIM * hfield.eval(pts, f)
    out = np.where(grid.interior, div - rhs, 0.0)
    if area_weighted:
        out = out * h * h
    return out


def full_stencil_mask(grid):
    """Interior nodes whose full 9-point stencil has only whole arms.

    On these nodes the discretization carries its clean second-order
    truncation; nodes next to cut arms trade pointwise truncation order
    for geometric fidelity.
    """
    full = grid.interior.copy()
    for d in ("E", "W", "N", "S"):
        full &= grid.nbr[d]
        dj, di = OFFSETS[d]
        for arm in ("E", "W", "N", "S"):
            full &= shift(grid.nbr[arm], dj, di, fill=False)
    return full


def _assemble_jacobian(grid, f, hfield, t_homotopy):
    h = grid.spacing
    states, Dx, Dy = _edge_states(grid, f)
    cfac = {
        "E": 2.0 / ((grid.theta["E"] + grid.theta["W"]) * h),
        "W": 2.0 / ((grid.theta["E"] + grid.theta["W"]) * h),
        "N": 2.0 / ((grid.theta["N"] + grid.theta["S"]) * h),
        "S": 2.0 / ((grid.theta["N"] + grid.theta["S"]) * h),
    }
    sign = {"E": 1.0, "W": -1.0, "N": 1.0, "S": -1.0}
    # one-sided slope sensitivities: dval[d] w.r.t. f_P and the neighbor
    mP = {d: -1.0 / (grid.theta[d] * h) for d in OFFSETS}
    mN = {d: 1.0 / (grid.theta[d] * h) for d in OFFSETS}

    tE, tW = grid.theta["E"], grid.theta["W"]
    tN, tS = grid.theta["N"], grid.theta["S"]
    den_x = tE * tW * (tE + tW) * h
    den_y = tN * tS * (tN + tS) * h
    # node-derivative coefficients (valid where the arm neighbor is interior)
    cx = {"P": (tE**2 - tW**2) / den_x, "E": tW**2 / den_x, "W": -(tE**2) / den_x}
    cy = {"P": (tN**2 - tS**2) / den_y, "N": tS**2 / den_y, "S": -(tN**2) / den_y}

    acc = {}

    def add(offset, coef):
        if offset in acc:
            acc[offset] = acc[offset] + coef
        else:
            acc[offset] = coef.copy() if isinstance(coef, np.ndarray) else coef

    def add_node_derivative(base_offset, weight, axis):
        """Scatter B * weight * D{axis} taken at node P + base_offset."""
        bj, bi = base_offset
        coefs = cx if axis == "x" else cy
        arms = ("E", "W") if axis == "x" else ("N", "S")
        if base_offset == (0, 0):
            add((0, 0), weight * coefs["P"])
            for arm in arms:
                oj, oi = OFFSETS[arm]
                add((oj, oi), weight * np.where(grid.nbr[arm], coefs[arm], 0.0))
        else:
            # coefficients live at the shifted node; pull them back to P
            add((bj, bi), weight * shift(coefs["P"], bj, bi))
            for arm in arms:
                oj, oi = OFFSETS[arm]
                guard = shift(np.where(grid.nbr[arm], coefs[arm], 0.0), bj, bi)
                add((bj + oj, bi + oi), weight * guard)

    for d in ("E", "W", "N", "S"):
        dj, di = OFFSETS[d]
        primary, cross, W = states[d]
        phi_p = (1.0 + cross**2) / W**3
        phi_c = -primary * cross / W**3
        A = sign[d] * cfac[d] * phi_p
        B = sign[d] * cfac[d] * phi_c
        flip = 1.0 if d in ("E", "N") else -1.0  # primary = +-dval[d]
        add((0, 0), A * flip * mP[d])
        add((dj, di), A * flip * np.where(grid.nbr[d], mN[d], 0.0))

        axis = "y" if d in ("E", "W") else "x"
        wP = np.where(grid.nbr[d], 0.5, 1.0)
        wQ = np.where(grid.nbr[d], 0.5, 0.0)
        add_node_derivative((0, 0), B * wP, axis)
        add_node_derivative((dj, di), B * wQ, axis)

    pts = np.stack([grid.X, grid.Y], axis=-1)
    hz = hfield.hz(pts, f)
    add((0, 0), -t_homotopy * GRID_DIM * hz)

    rows, cols, vals = [], [], []
    for (dj, di), coef in sorted(acc.items()):
        target_interior = shift(grid.interior, dj, di, fill=False)
        mask = grid.interior & target_interior
        if not mask.any():
            continue
        target_index = shift(grid.index, dj, di, fill=-1)
        rows.append(grid.index[mask])
        cols.append(target_index[mask])
        vals.append(coef[mask])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    n = grid.n_dof
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


class FactorOnceSolver:
    """Newton linear solves that reuse one sparse LU factor.

    One instance belongs to one homotopy (or one standalone Newton solve)
    on one grid.  The first solve factors the Jacobian and solves directly;
    later solves run GMRES with the stored factor as preconditioner.  A
    solve refactors when GMRES fails or returns a non-finite update, and
    the next solve refactors when this one needed more than
    ``_KRYLOV_REFACTOR_ITERS`` inner iterations.  ``factorizations`` and
    ``krylov_iters`` count the work done so far.
    """

    def __init__(self):
        self._lu = None
        self._precond = None
        self._stale = True
        self.factorizations = 0
        self.krylov_iters = 0

    def _factor(self, J):
        # release the old factor (and the operator holding it) before the
        # new one is allocated, so two factors never coexist
        self._lu = self._precond = None
        self._stale = True
        try:
            self._lu = sparse_linalg.splu(
                J.tocsc(), permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularSystemError(f"sparse factorization failed: {exc}")
        self._precond = sparse_linalg.LinearOperator(J.shape,
                                                     matvec=self._lu.solve)
        self._stale = False
        self.factorizations += 1

    def solve(self, J, rhs, krylov=True):
        """Solve ``J x = rhs``; returns ``(x, krylov_iters, factored)``.

        ``krylov=False`` skips GMRES and factors ``J`` directly.  When
        GMRES was tried and failed, the result comes from a fresh factor
        with ``krylov_iters > 0`` and ``factored`` true.
        """
        iters = 0
        if krylov and not self._stale:
            residuals = []  # one entry per inner iteration
            x, info = sparse_linalg.gmres(
                J, rhs, rtol=_KRYLOV_RTOL, atol=0.0,
                restart=_KRYLOV_RESTART, maxiter=_KRYLOV_MAXITER,
                M=self._precond, callback=residuals.append,
                callback_type="pr_norm")
            iters = len(residuals)
            self.krylov_iters += iters
            if info == 0 and np.all(np.isfinite(x)):
                self._stale = iters > _KRYLOV_REFACTOR_ITERS
                return x, iters, False
        self._factor(J)
        return self._lu.solve(rhs), iters, True


def _gradient_diagnostics(grid, f):
    _, dval, Dx, Dy = _edge_data(grid, f)
    mag = np.sqrt(Dx**2 + Dy**2)
    sup_int = float(np.max(mag[grid.interior])) if grid.n_dof else 0.0
    sup_bdry = 0.0
    for d in ("E", "W", "N", "S"):
        cut = grid.interior & ~grid.nbr[d]
        if cut.any():
            sup_bdry = max(sup_bdry, float(np.max(np.abs(dval[d][cut]))))
    return sup_int, sup_bdry


@dataclass
class GridSolution:
    """Converged lattice solution with residual and gradient diagnostics."""

    grid: object
    values: np.ndarray
    residual_inf: float
    newton_iters: int
    homotopy_t: float
    sup_norm: float
    sup_gradient_interior: float
    sup_gradient_boundary: float
    boundary_nonzero: bool = False
    no_existence_guarantee: str = ""

    def interior_values(self):
        return self.values[self.grid.interior]

    def report_dict(self):
        rep = {
            "residual_inf": self.residual_inf,
            "sup_norm": self.sup_norm,
            "sup_gradient_interior": self.sup_gradient_interior,
            "sup_gradient_boundary": self.sup_gradient_boundary,
            "newton_iters": self.newton_iters,
            "homotopy_t": self.homotopy_t,
            "n_dof": self.grid.n_dof,
            "spacing": self.grid.spacing,
        }
        if self.no_existence_guarantee:
            rep["no_existence_guarantee"] = self.no_existence_guarantee
        return rep

    def write_csv(self, path):
        mask = self.grid.interior
        rows = np.column_stack([self.grid.X[mask], self.grid.Y[mask],
                                self.values[mask]])
        write_csv(path, ["x", "y", "f"], rows)


def _finish_solution(grid, f, hfield, t, iters):
    res = mc_residual(f, grid, hfield, t)
    rinf = float(np.max(np.abs(res[grid.interior]))) if grid.n_dof else 0.0
    sup_int, sup_bdry = _gradient_diagnostics(grid, f)
    sol = GridSolution(
        grid=grid, values=f, residual_inf=rinf, newton_iters=iters,
        homotopy_t=t, sup_norm=float(np.max(np.abs(f[grid.interior]))),
        sup_gradient_interior=sup_int, sup_gradient_boundary=sup_bdry,
        boundary_nonzero=grid.boundary_nonzero,
    )
    if grid.boundary_nonzero:
        lip = grid.boundary_lipschitz_estimate()
        limit = 1.0 / math.sqrt(GRID_DIM - 1.0)
        rel = "below" if lip is not None and lip < limit else "NOT below"
        sol.no_existence_guarantee = (
            f"nonzero Dirichlet data: no existence guarantee is claimed; "
            f"sampled Lipschitz constant {lip:.6g} is {rel} the reference "
            f"slope {limit:.6g}")
    return sol


def newton_solve(grid, hfield, *, t_homotopy=1.0, initial=None, tol=1e-10,
                 max_iters=40, linsolve=None):
    """Damped Newton iteration for the discrete problem at fixed t.

    The analytic Jacobian of the discrete operator is assembled each step
    and handed to ``linsolve``, a :class:`FactorOnceSolver` (a fresh one
    when omitted).  Its first solve factors the Jacobian; later steps run
    LU-preconditioned GMRES, and after one GMRES failure the rest of this
    run factors every step directly.  Backtracking halves the step until
    the residual 2-norm decreases (floor 2^-20).  Raises on
    nonconvergence, line-search stall and singular linear systems,
    carrying the iterate trace: one dict per accepted step with the
    residual sup norm, step length, GMRES iterations and whether the
    Jacobian was factored.
    """
    if tol <= 0.0:
        raise ParameterError("tolerance must be positive")
    if linsolve is None:
        linsolve = FactorOnceSolver()
    f = np.zeros(grid.shape) if initial is None else np.array(initial, dtype=float)
    f[~grid.interior] = 0.0

    trace = []
    res = mc_residual(f, grid, hfield, t_homotopy)
    r_vec = res[grid.interior]
    rinf = float(np.max(np.abs(r_vec))) if r_vec.size else 0.0
    rnorm = float(np.linalg.norm(r_vec))
    iters = 0
    krylov = True
    while rinf > tol:
        if iters >= max_iters:
            raise NonconvergenceError(
                f"no convergence after {max_iters} Newton iterations "
                f"(residual_inf={rinf:.3e}, t={t_homotopy})", trace=trace)
        if not math.isfinite(rnorm):
            raise NonconvergenceError("residual is not finite", trace=trace)
        J = _assemble_jacobian(grid, f, hfield, t_homotopy)
        delta, k_iters, factored = linsolve.solve(J, -r_vec, krylov=krylov)
        if factored and k_iters:
            # GMRES failed: factor directly for the rest of this run
            krylov = False
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError("linear solve produced non-finite update",
                                      trace=trace)
        lam = 1.0
        while True:
            f_try = f.copy()
            f_try[grid.interior] += lam * delta
            res_try = mc_residual(f_try, grid, hfield, t_homotopy)
            r_try = res_try[grid.interior]
            rnorm_try = float(np.linalg.norm(r_try))
            if math.isfinite(rnorm_try) and rnorm_try < rnorm:
                break
            lam *= 0.5
            if lam < _LINE_SEARCH_FLOOR:
                raise LineSearchStallError(
                    f"line search stalled at iteration {iters} "
                    f"(residual_inf={rinf:.3e}, t={t_homotopy})", trace=trace)
        f, r_vec, rnorm = f_try, r_try, rnorm_try
        rinf = float(np.max(np.abs(r_vec)))
        iters += 1
        trace.append({"iter": iters, "residual_inf": rinf, "step": lam,
                      "krylov_iters": k_iters, "factored": factored})
    return _finish_solution(grid, f, hfield, t_homotopy, iters)


@dataclass(frozen=True)
class ContinuationStep:
    """One accepted homotopy step.

    ``factorizations`` and ``krylov_iters`` count the linear-solver work
    spent since the previous accepted step, failed bisected attempts
    included.
    """

    t: float
    newton_iters: int
    final_residual: float
    sup_norm: float
    sup_gradient: float
    factorizations: int
    krylov_iters: int

    def as_dict(self):
        return {"t": self.t, "newton_iters": self.newton_iters,
                "final_residual": self.final_residual,
                "sup_norm": self.sup_norm, "sup_gradient": self.sup_gradient,
                "factorizations": self.factorizations,
                "krylov_iters": self.krylov_iters}

    @classmethod
    def from_solution(cls, solution, factorizations, krylov_iters):
        return cls(t=solution.homotopy_t, newton_iters=solution.newton_iters,
                   final_residual=solution.residual_inf,
                   sup_norm=solution.sup_norm,
                   sup_gradient=solution.sup_gradient_interior,
                   factorizations=factorizations, krylov_iters=krylov_iters)


@dataclass
class ContinuationTrace:
    steps: list = field(default_factory=list)

    def as_dict(self):
        return {"steps": [s.as_dict() for s in self.steps]}


def continuation_solve(grid, hfield, *, schedule=None, tol=1e-10, max_iters=40,
                       dt_min=_DT_MIN):
    """Solve the homotopy family t -> t n H successively, warm-starting.

    The default schedule is 11 uniform steps on [0, 1]; a failed step is
    bisected until the increment falls below ``dt_min``, at which point a
    :class:`ContinuationFailureError` reports the stall parameter and the
    gradient at the last success.  A stall is a numerical statement, not a
    nonexistence proof.

    All Newton runs share one :class:`FactorOnceSolver`: the Jacobian is
    factored at the first Newton step of the homotopy and that LU
    preconditions GMRES at every later step and t, so a smooth homotopy
    costs a single factorization.
    """
    if schedule is None:
        if hfield.is_constant and hfield.constant == 0.0:
            schedule = [1.0]  # every t gives the minimal surface problem
        else:
            schedule = np.linspace(0.0, 1.0, _DEFAULT_SCHEDULE_STEPS)
    schedule = [float(t) for t in schedule]
    if not schedule or abs(schedule[-1] - 1.0) > 1e-14:
        raise ParameterError("schedule must end at t = 1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ParameterError("schedule must be strictly increasing")
    if any(t < 0.0 or t > 1.0 for t in schedule):
        raise ParameterError("schedule values must lie in [0, 1]")
    if schedule[0] > 0.0 and not (hfield.is_constant and hfield.constant == 0.0):
        schedule.insert(0, 0.0)  # always anchor at the minimal surface member

    trace = ContinuationTrace()
    linsolve = FactorOnceSolver()
    counted = (0, 0)  # linear-solver counters at the last accepted step
    f = np.zeros(grid.shape)
    t_prev = None
    solution = None
    pending = list(schedule)
    while pending:
        t_next = pending.pop(0)
        try:
            solution = newton_solve(grid, hfield, t_homotopy=t_next, initial=f,
                                    tol=tol, max_iters=max_iters,
                                    linsolve=linsolve)
        except (NonconvergenceError, SingularSystemError) as exc:
            base = t_prev if t_prev is not None else 0.0
            dt = t_next - base
            if 0.5 * dt < dt_min:
                stall_grad = trace.steps[-1].sup_gradient if trace.steps else 0.0
                raise ContinuationFailureError(
                    f"continuation stalled at t = {base} "
                    f"(next step {t_next} failed: {exc})",
                    trace=trace, stall_t=base,
                    diagnostics={"failed_t": t_next,
                                 "sup_gradient_at_stall": stall_grad,
                                 "reason": str(exc)})
            pending.insert(0, t_next)
            pending.insert(0, base + 0.5 * dt)
            continue
        f = solution.values
        t_prev = t_next
        trace.steps.append(ContinuationStep.from_solution(
            solution, linsolve.factorizations - counted[0],
            linsolve.krylov_iters - counted[1]))
        counted = (linsolve.factorizations, linsolve.krylov_iters)
    return solution, trace


def angular_asymmetry(solution, radial_extent=None, num_radii=24, num_theta=64):
    """Max over radii of the angular spread of the interpolated solution.

    For rotationally symmetric problems this measures how much the lattice
    breaks the symmetry; it should track the discretization error.  Cubic
    interpolation keeps the measurement's own error below the effect being
    measured.
    """
    grid = solution.grid
    if radial_extent is None:
        radial_extent = grid.domain.radial_extent()
    r_lo, r_hi = radial_extent
    pad = 4.0 * grid.spacing
    radii = np.linspace(r_lo + pad, r_hi - pad, num_radii)
    thetas = 2.0 * math.pi * np.arange(num_theta) / num_theta
    worst = 0.0
    for rho in radii:
        pts = np.column_stack([rho * np.cos(thetas), rho * np.sin(thetas)])
        vals = interpolate_values_cubic(grid, solution.values, pts)
        vals = vals[np.isfinite(vals)]
        if vals.size >= 2:
            worst = max(worst, float(vals.max() - vals.min()))
    return worst


# ----------------------------------------------------------------------
# radial shooting on annuli
# ----------------------------------------------------------------------

@dataclass
class RadialShootResult:
    """Outcome of the radial shooting solve (nonexistence is a result)."""

    exists: bool
    dim: int
    h: float
    epsilon: float
    outer: float
    c: float = math.nan
    k: float = math.nan
    table: np.ndarray = None
    sup_p: float = math.nan
    p_outer: float = math.nan
    radicand_min: float = math.nan
    c_interval: tuple = (math.nan, math.nan)
    message: str = ""
    nearest_c: float = math.nan
    nearest_p_outer: float = math.nan

    def report_dict(self):
        rep = {
            "exists": self.exists, "dim": self.dim, "h": self.h,
            "epsilon": self.epsilon, "outer": self.outer,
            "c_interval": list(self.c_interval), "message": self.message,
        }
        if self.exists:
            rep.update({"c": self.c, "k": self.k, "sup_p": self.sup_p,
                        "p_outer": self.p_outer,
                        "radicand_min": self.radicand_min})
        else:
            rep.update({"nearest_c": self.nearest_c,
                        "nearest_p_outer": self.nearest_p_outer})
        return rep

    def write_csv(self, path):
        if self.table is None:
            raise ParameterError("no profile table to write")
        write_csv(path, ["t", "p"], self.table)


def radial_shoot(dim, h, epsilon, outer, tol=1e-10, table_points=1001):
    """Zero-boundary rotationally symmetric solve on {eps < |x| < outer}.

    The profile integral anchored at ``epsilon`` vanishes there by
    construction; the integration constant is found by bisection so that
    the profile also vanishes at ``outer``.  The profile height is
    monotone in the constant, so the bracket endpoints decide feasibility:
    if even the largest radicand-feasible constant leaves the outer value
    negative (the thin-annulus regime) no solution exists and the nearest
    miss is reported.
    """
    if not (0.0 < epsilon < outer):
        raise ParameterError("need 0 < epsilon < outer")
    if h <= 0.0:
        raise ParameterError("radial shooting targets constant curvature h > 0")
    dim = barrier._check_dim(dim)

    c_hi = h * epsilon**dim + epsilon ** (dim - 1)
    c_feas_lo = h * outer**dim - outer ** (dim - 1)
    # returned constants satisfy k = c - h eps^n >= 0 (otherwise the slope
    # is negative throughout and the outer boundary value cannot vanish)
    c_lo = max(h * epsilon**dim, c_feas_lo)
    interval = (c_lo, c_hi)

    if c_lo >= c_hi:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            c_interval=interval,
            message="no feasible integration constant: the slope radicand "
                    "cannot stay nonnegative over the annulus")

    def p_outer(c):
        return barrier.profile_height_integral(dim, h, c, epsilon, outer)

    p_hi = p_outer(c_hi)
    if p_hi < -tol:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            c_interval=interval, nearest_c=c_hi, nearest_p_outer=p_hi,
            message="no solution: even the steepest feasible profile "
                    "returns below zero at the outer radius")
    p_lo = p_outer(c_lo)
    if p_lo > tol:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            c_interval=interval, nearest_c=c_lo, nearest_p_outer=p_lo,
            message="no solution: every feasible profile stays positive "
                    "at the outer radius")

    lo, hi = c_lo, c_hi
    c_mid, p_mid = c_hi, p_hi
    for _ in range(200):
        c_mid = 0.5 * (lo + hi)
        p_mid = p_outer(c_mid)
        if abs(p_mid) <= 0.5 * tol or hi - lo <= 1e-15 * max(1.0, c_hi):
            break
        if p_mid < 0.0:
            lo = c_mid
        else:
            hi = c_mid
    if abs(p_mid) > tol:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            c_interval=interval, nearest_c=c_mid, nearest_p_outer=p_mid,
            message="shooting tolerance not reachable at the feasibility "
                    "boundary")

    c = c_mid
    ts = np.linspace(epsilon, outer, table_points)
    ps = np.empty_like(ts)
    ps[0] = 0.0
    for i in range(1, ts.size):
        ps[i] = ps[i - 1] + barrier.profile_height_integral(
            dim, h, c, ts[i - 1], ts[i])
    radicand = barrier._radicand(dim, h, c, ts)
    return RadialShootResult(
        exists=True, dim=dim, h=h, epsilon=epsilon, outer=outer, c=c,
        k=c - h * epsilon**dim, table=np.column_stack([ts, ps]),
        sup_p=float(ps.max()), p_outer=p_mid,
        radicand_min=float(radicand.min()), c_interval=interval)


# ----------------------------------------------------------------------
# gradient-estimate hypothesis sampling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GradientBoundInputs:
    """Sampled hypothesis data for the global gradient estimate.

    ``h0`` bounds |H| + |grad H| on the slab |z| <= M and ``monotone_ok``
    records whether the sampled dH/dz stayed nonnegative; both are
    informational and attached to solve reports.
    """

    h0: float
    monotone_ok: bool
    min_hz: float
    slab_height: float

    def as_dict(self):
        return {"h0": self.h0, "monotone_ok": self.monotone_ok,
                "min_hz": self.min_hz, "slab_height": self.slab_height}


def _domain_sample_points(domain, target=400):
    xmin, ymin, xmax, ymax = domain.bbox()
    side = int(math.ceil(math.sqrt(target)))
    xs = np.linspace(xmin, xmax, side + 2)[1:-1]
    ys = np.linspace(ymin, ymax, side + 2)[1:-1]
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    inside = domain.contains(pts)
    if not inside.any():
        raise ParameterError("no sample points fall inside the domain")
    return pts[inside]


def verify_gradient_bound_inputs(hfield, M, domain=None, points=None, num_z=21):
    """Sample the slab |z| <= M to bound |H| + |grad H| and check dH/dz >= 0."""
    if M <= 0.0:
        raise ParameterError("slab height M must be positive")
    if points is None:
        if domain is None:
            raise ParameterError("pass a domain or explicit sample points")
        points = _domain_sample_points(domain)
    zs = np.linspace(-float(M), float(M), int(num_z))
    _, h0, min_hz = conditions.sample_field_bounds(hfield, points, zs)
    return GradientBoundInputs(h0=h0, monotone_ok=min_hz >= -1e-12,
                               min_hz=min_hz, slab_height=float(M))


def write_solution_report(solution, trace, path, extra=None):
    """Solve report JSON: residual, norms, gradients and the homotopy trace."""
    rep = solution.report_dict()
    rep["trace"] = trace.as_dict()["steps"] if trace is not None else []
    if extra:
        rep.update(extra)
    dump_json(rep, path)
