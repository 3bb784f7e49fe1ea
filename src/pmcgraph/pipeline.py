"""End-to-end assemblies: domain + curvature -> checks, solves, reports.

These functions wire the geometry metrics into the condition checks,
build barrier profiles matched to a domain's annulus fit, run the grid
solver with a two-grid error estimate and feed everything into the
verification checks.  Every grid that ``solve`` or ``verify`` solves goes
through one rule and one loop, :func:`_climb`, the same for every field:
Newton at t = 1 up a chain of nested grids (:func:`grid_chain`), whose
coarsest grid a non-monotone field solves by the homotopy, with the
homotopy on the lowest kept grid not yet solved when a run fails.
``solve`` keeps the requested grid; ``verify`` at h is the climb to h/2
that keeps the grid at h as well, its Richardson pair.  Each grid's
solve is recorded as one :class:`pmcgraph.solver.Level`.  The command
line front end is a thin wrapper around this module.

A monotone field skips the homotopy because its solution is unique,
which is proved for the continuous problem and tested for the discrete
one (:func:`solve_grid`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import barrier, conditions, geometry, solver, verify
from .conditions import CurvatureField
from .errors import (InfeasibleFitError, NoAdmissibleConstantError,
                     ParameterError, SolverError, UnsupportedDomainError,
                     config_key, finite_number)
from .grid import chain_prolongations, grid_chain, grid_from_domain, prolongate

#: exterior-sphere radius multiplier used for convex domains, which admit
#: every radius; large values approach the strip-bound limit
CONVEX_RADIUS_FACTOR = 100.0

GRID_DIM = solver.GRID_DIM

#: ``verify`` runs its checks with this multiple of the Richardson error
#: estimate as slack
SLACK_FACTOR = 10.0


def effective_sphere_radius(domain, annulus_r=None):
    """Finite exterior-sphere radius used for the annulus fit.

    Convex domains admit every radius; a large multiple of the diameter is
    used so the annulus bound sits near its strip-bound limit.
    """
    if annulus_r is not None:
        if annulus_r <= 0.0:
            raise ParameterError("annulus_r must be positive")
        return float(annulus_r)
    ext = geometry.exterior_sphere_radius(domain)
    if math.isfinite(ext):
        return ext
    return CONVEX_RADIUS_FACTOR * domain.diameter()


def sampled_h_sup0(field, domain):
    """sup |H(x, 0)| over the domain: exact for constant fields, sampled
    at about 600 points for the others."""
    if field.is_constant:
        return abs(field.constant)
    pts = conditions.domain_sample_points(domain, target=600)
    return float(np.max(np.abs(field.eval(pts, np.zeros(len(pts))))))


def conditions_for(domain, field, dim=GRID_DIM, *, annulus_r=None,
                   boundary_sample_count=256):
    """Evaluate every applicable solvability/nonexistence check, with H
    sampled over the heights ``conditions.CHECK_SLAB``.

    A domain with no annulus fit at the exterior-sphere radius
    (:class:`pmcgraph.errors.InfeasibleFitError`) reports the annulus
    condition as not applicable; the other checks still decide.
    """
    h_sup0 = sampled_h_sup0(field, domain)
    metrics_exact = not isinstance(domain, geometry.GridMask)

    r_eff = effective_sphere_radius(domain, annulus_r)
    try:
        fit = geometry.annulus_fit(domain, r_eff)
    except InfeasibleFitError:
        fit = None

    try:
        volume = domain.volume(dim)
    except UnsupportedDomainError:
        volume = None

    width = geometry.strip_width(domain)
    rho = geometry.inscribed_disc_radius(domain)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            boundary_samples = geometry.boundary_mean_curvature(
                domain, boundary_sample_count)
    except UnsupportedDomainError:
        boundary_samples = None

    notes = []
    if field.is_constant:
        monotone_ok = True
    else:
        # a claimed monotone flag must survive the sampled verification
        pts = conditions.domain_sample_points(domain)
        _, _, min_hz = conditions.sample_field_bounds(
            field, pts, np.linspace(*conditions.CHECK_SLAB, 9))
        sampled_ok = min_hz >= -1e-12
        if field.monotone is None:
            monotone_ok = sampled_ok
        else:
            monotone_ok = bool(field.monotone) and sampled_ok
            if field.monotone and not sampled_ok:
                notes.append("claimed dH/dz >= 0 contradicted by sampling "
                             f"(min {min_hz:.3e})")

    report = conditions.evaluate_conditions(
        dim, h_sup0,
        annulus_r=fit and fit.r, annulus_d=fit and fit.d, volume=volume,
        strip_width=width, inscribed_rho=rho,
        constant_h=field.constant, boundary_samples=boundary_samples,
        field=field, monotone_ok=monotone_ok, metrics_exact=metrics_exact)
    report.notes.extend(notes)
    if fit and fit.approximate:
        report.notes.append("annulus fit computed from a bitmap point cloud")
    return report


class DomainBarrier(NamedTuple):
    """A domain's annulus fit and barrier profile, with the profile's
    :func:`pmcgraph.barrier.barrier_constants` at ``fit.r + fit.d``."""

    fit: object
    profile: object
    c1: float
    c2: float


def barrier_for_domain(domain, h_sup0, *, annulus_r=None):
    """The :class:`DomainBarrier` of the planar graph problem on a domain:
    the one place where a domain becomes a barrier.

    Raises :class:`pmcgraph.errors.NoAdmissibleConstantError` when the
    curvature magnitude is not strictly below the fit's bound.
    """
    r_eff = effective_sphere_radius(domain, annulus_r)
    fit = geometry.annulus_fit(domain, r_eff)
    outer = fit.r + fit.d
    profile = barrier.profile_for_annulus(GRID_DIM, h_sup0, fit.r, outer)
    return DomainBarrier(fit, profile,
                         *barrier.barrier_constants(profile, outer=outer))


def gradient_hypotheses(domain, field, solution, *, annulus_r=None,
                        fitted=None):
    """Gradient-bound hypotheses for a solved domain
    (:func:`pmcgraph.conditions.verify_gradient_bound_inputs`), sampled over
    the slab ``|z| <= M``.

    ``M`` is ``max(C1, sup|f|)`` with the domain's :class:`DomainBarrier`,
    ``fitted`` when the caller has it, or ``max(sup|f|, 1)`` with no
    admissible barrier, as when the domain has no annulus fit in floats.
    ``solve`` and ``verify`` both report these.
    """
    try:
        fitted = fitted or barrier_for_domain(
            domain, sampled_h_sup0(field, domain), annulus_r=annulus_r)
    except (NoAdmissibleConstantError, ParameterError, InfeasibleFitError):
        m_slab = max(solution.sup_norm, 1.0)
    else:
        m_slab = max(fitted.c1, solution.sup_norm, 1e-12)
    return conditions.verify_gradient_bound_inputs(field, m_slab,
                                                   domain=domain)


def solve_domain(domain, field, spacing, *, boundary=None, tol=1e-10,
                 max_iters=40):
    """Rasterize and solve by :func:`solve_grid`; returns a
    :class:`pmcgraph.solver.SolveOutcome`."""
    return solve_grid(grid_from_domain(domain, spacing, boundary=boundary),
                      field, tol=tol, max_iters=max_iters)


def _climb(chain, field, settings, kept=1):
    """Newton at t = 1 up a chain, coarsest grid first; returns the
    :class:`pmcgraph.solver.SolveOutcome` of each of the chain's ``kept``
    finest grids, finest first, each with the
    :class:`pmcgraph.solver.Level` of every grid solved up to it.

    ``chain`` lists nested grids finest first; it is emptied as the climb
    goes, so that each grid below the kept ones is freed once the grid
    above it has its start.  The chain's last grid is the only one whose
    solve depends on the field: Newton from
    :func:`pmcgraph.solver.newton_solve`'s default start with its own
    factor (a ``"chain"`` level) when ``field.monotone`` holds, whose
    solution is unique (proved for the continuous problem, tested for the
    discrete one; see :func:`solve_grid`), else the homotopy
    :func:`pmcgraph.solver.continuation_solve` on that grid (a
    ``"homotopy"`` level), which picks the solution branch.  Every other
    grid starts from the solution below,
    :func:`pmcgraph.grid.prolongate`d, and its GMRES is preconditioned by
    the V-cycle over every grid below it, which factors only the
    coarsest.

    When a run fails, the homotopy runs on the lowest kept grid not yet
    solved, with the same V-cycle, and the climb resumes above it.  When
    that is the lowest kept grid, the levels of every grid solved before
    are dropped with their solutions.  A failed homotopy on a kept grid
    raises its :class:`pmcgraph.errors.ContinuationFailureError`.
    """
    prolongations = chain_prolongations(chain)
    outcomes, levels, solution = [], [], None
    homotopy = not field.monotone
    while chain:
        grid = chain.pop()
        linsolve = solver.FactorOnceSolver(prolongations[len(chain):])
        try:
            if homotopy:
                solution, (level,) = solver.continuation_solve(
                    grid, field, linsolve=linsolve, **settings)
            else:
                initial = None if solution is None else prolongate(
                    prolongations[len(chain)], solution.dof_values, grid)
                solution = None  # frees the grid below
                solution = solver.newton_solve(
                    grid, field, t_homotopy=1.0, initial=initial,
                    linsolve=linsolve, **settings)
                level = solver.Level(grid.spacing, grid.n_dof, "chain", (
                    solver.ContinuationStep.from_solution(
                        solution, linsolve.factorizations,
                        linsolve.krylov_iters),))
        except SolverError:
            if homotopy and len(chain) < kept:
                raise  # the homotopy ran on a kept grid
            levels = levels if outcomes else []
            chain.append(grid)
            del chain[kept:]  # the lowest kept grid not yet solved is last
            homotopy = True
            continue
        homotopy = False
        levels.append(level)
        if len(chain) < kept:
            outcomes.insert(0, solver.SolveOutcome(solution, list(levels)))
    return outcomes


def solve_grid(grid, field, *, tol=1e-10, max_iters=40):
    """Solve one grid by the one rule of ``solve`` and ``verify``; returns
    a :class:`pmcgraph.solver.SolveOutcome`.

    The rule is a climb up the grid's chain (:func:`grid_chain`), the
    same for every field but at its coarsest grid: there, for a monotone
    field (H nondecreasing in z), Newton at t = 1 from zero (or the
    harmonic start, for nonzero data) with its own factor; for any other
    field, whose homotopy picks the solution branch, the homotopy
    (:func:`pmcgraph.solver.continuation_solve`) on that grid.  Each finer
    grid then runs Newton at t = 1 from the solution below, with GMRES
    preconditioned by a V-cycle that factors only the coarsest grid's
    Galerkin operator.  ``grid`` is the climb's one kept grid
    (:func:`_climb`): when any run fails, the homotopy runs on ``grid``
    itself, with the same V-cycle, so that a stall is reported at the
    requested spacing, and a stall there is final.  The last level's steps
    are one step at t = 1, or the homotopy's members when ``grid`` is the
    chain's only grid or the fallback ran.

    A monotone field needs no homotopy to pick its branch because its
    solution is unique: that is proved for the continuous problem, by the
    comparison principle, but not for the discrete one, whose 9-point
    Jacobian is not an M-matrix (its cross-derivative corners take the
    wrong sign).  For the scheme it is tested: the climb and the homotopy
    on the requested grid agree to within ten times the tolerance.
    """
    return _climb(grid_chain(grid), field,
                  dict(tol=tol, max_iters=max_iters))[0]


@dataclass
class VerifyOutcome:
    """The fine solution of :func:`verify_domain`, the
    :class:`DomainBarrier` its checks read, their report, and the
    ``levels`` of every grid solved, coarsest first."""

    solution: object
    barrier: object
    report: object
    error_estimate: float
    gradient_inputs: object
    levels: list


def verify_domain(domain, field, spacing, *, annulus_r=None, tol=1e-10,
                  max_iters=40):
    """Solve on two grids and check the barrier estimates on the fine one.

    The Richardson pair (spacing, spacing/2) provides the discretization
    error estimate; the checks run with ``SLACK_FACTOR`` times it.  Only
    zero-boundary solves are in scope here.  Bitmap domains raise
    :class:`ParameterError`: their grid is the bitmap's own cells at every
    spacing, so there is no finer grid to compare with.  The barrier
    record (:func:`barrier_for_domain`), which every check and the
    gradient hypotheses read, is made once before any solve: a curvature
    with no admissible barrier raises :class:`NoAdmissibleConstantError`
    at no solve cost.

    The grid at ``spacing`` is built first, so that a lattice past the
    cap is named at that spacing.  The pair is the top of one climb
    (:func:`_climb`): ``solve``'s climb to ``spacing / 2`` on the grid at
    ``spacing / 2`` above the chain of the grid at ``spacing``
    (:func:`grid_chain`), which keeps the grid at ``spacing`` too.  A
    failed run at ``spacing`` or below therefore runs the homotopy at
    ``spacing``, so that a stall is that of ``solve`` at ``spacing``; a
    failed run at ``spacing / 2`` runs the homotopy there and keeps the
    solution at ``spacing``.
    """
    if isinstance(domain, geometry.GridMask):
        raise ParameterError(
            "verify needs a Richardson grid pair, but a bitmap domain has no "
            "refinement: its grid is the bitmap's own cells at every spacing")
    grid = grid_from_domain(domain, spacing)
    fitted = barrier_for_domain(domain, sampled_h_sup0(field, domain),
                                annulus_r=annulus_r)
    chain = grid_chain(grid)
    chain.insert(0, grid_from_domain(domain, 0.5 * spacing))
    fine, coarse = _climb(chain, field, dict(tol=tol, max_iters=max_iters),
                          kept=2)

    est = verify.richardson_error_estimate(coarse.solution, fine.solution)
    report = verify.estimate_report(fine.solution, fitted, SLACK_FACTOR * est)
    ginputs = gradient_hypotheses(domain, field, fine.solution, fitted=fitted)

    return VerifyOutcome(solution=fine.solution, barrier=fitted,
                         report=report, error_estimate=est,
                         gradient_inputs=ginputs, levels=fine.levels)


def nonexistence_sweep(dim, h, outer, epsilons):
    """Radial shoot over a list of inner radii, with the height bound column.

    Returns rows (epsilon, exists, sup_p, bound); ``sup_p`` is NaN for
    nonexistent cases.  The bound column is the closed-form/quadrature
    height bound, which every existing solution must respect.
    """
    rows = []
    for eps in epsilons:
        eps = float(eps)
        res = solver.radial_shoot(dim, h, eps, outer)
        bound = conditions.nonexistence_height_bound(dim, eps, outer=outer)
        rows.append({
            "epsilon": eps,
            "exists": res.exists,
            "sup_p": res.sup_p if res.exists else math.nan,
            "bound": bound,
            "result": res,
        })
    return rows


def curvature_from_json(spec):
    """Build a curvature field from its JSON description.

    Supported forms: {"constant": v} and
    {"table": {"x": [...], "y": [...], "values": [[...]]}, "z_slope": s}
    with bilinear interpolation in x, y (clamped at the table edges) plus
    an optional linear term in z.  Every value must be a finite JSON
    number, and the knots x and y must increase strictly; a malformed
    entry raises ParameterError.
    """
    if not isinstance(spec, dict):
        raise ParameterError("curvature spec must be an object")

    def numbers(values):
        return np.array([finite_number(v) for v in values])

    with config_key("curvature"):
        if "constant" in spec:
            return CurvatureField.from_constant(finite_number(spec["constant"]))
        if "table" in spec:
            tab = spec["table"]
            xs = numbers(tab["x"])
            ys = numbers(tab["y"])
            vals = np.array([numbers(row) for row in tab["values"]])
            if vals.shape != (len(ys), len(xs)):
                raise ParameterError("table values must have shape (len(y), len(x))")
            if len(xs) < 2 or len(ys) < 2:
                raise ParameterError("table needs at least a 2x2 grid")
            if not (np.all(np.diff(xs) > 0.0) and np.all(np.diff(ys) > 0.0)):
                raise ParameterError("table knots x and y must increase "
                                     "strictly")
            z_slope = finite_number(spec.get("z_slope", 0.0))

            def cell(coords, knots):
                """Cell index, clamped local coordinate, and the cell width
                where the clamp is inactive (inf where it is)."""
                k = np.clip(np.searchsorted(knots, coords) - 1, 0, len(knots) - 2)
                width = knots[k + 1] - knots[k]
                local = (coords - knots[k]) / width
                inside = (local >= 0.0) & (local <= 1.0)
                return k, np.clip(local, 0.0, 1.0), np.where(inside, width, np.inf)

            def interp(points):
                p = np.asarray(points, dtype=float)
                fx, tx, _ = cell(p[..., 0], xs)
                fy, ty, _ = cell(p[..., 1], ys)
                return ((1 - tx) * (1 - ty) * vals[fy, fx]
                        + tx * (1 - ty) * vals[fy, fx + 1]
                        + (1 - tx) * ty * vals[fy + 1, fx]
                        + tx * ty * vals[fy + 1, fx + 1])

            def func(points, z):
                return interp(points) + z_slope * np.asarray(z)

            def grad(points, z):
                # the bilinear cell's gradient; zero across a clamped edge
                fx, tx, wx = cell(points[..., 0], xs)
                fy, ty, wy = cell(points[..., 1], ys)
                v00, v01 = vals[fy, fx], vals[fy, fx + 1]
                v10, v11 = vals[fy + 1, fx], vals[fy + 1, fx + 1]
                gx = ((1 - ty) * (v01 - v00) + ty * (v11 - v10)) / wx
                gy = ((1 - tx) * (v10 - v00) + tx * (v11 - v01)) / wy
                shape = np.broadcast_shapes(points.shape[:-1], z.shape)
                spatial = np.empty(shape + (2,))
                spatial[..., 0], spatial[..., 1] = gx, gy
                return spatial, np.full(shape, z_slope)

            return CurvatureField(func, grad=grad, monotone=z_slope >= 0.0,
                                  z_slope=z_slope, spatial=interp)
    raise ParameterError("curvature spec needs 'constant' or 'table'")


def boundary_from_json(spec):
    """Dirichlet data from JSON: zero, a constant, or a linear function,
    each value a finite JSON number.  A malformed entry raises
    ParameterError."""
    if spec is None:
        return None
    with config_key("boundary"):
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            return finite_number(spec)
        if isinstance(spec, dict):
            if "constant" in spec:
                return finite_number(spec["constant"])
            if "linear" in spec:
                ax, ay, b = (finite_number(v) for v in spec["linear"])
                return lambda x, y: ax * np.asarray(x) + ay * np.asarray(y) + b
    raise ParameterError("boundary spec must be a number, {'constant': v} "
                         "or {'linear': [ax, ay, b]}")
