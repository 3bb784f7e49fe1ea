"""End-to-end assemblies: domain + curvature -> checks, solves, reports.

These functions wire the geometry metrics into the condition checks,
build barrier profiles matched to a domain's annulus fit, run the grid
solver with a two-grid error estimate and feed everything into the
verification checks.  The command line front end is a thin wrapper around
this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import barrier, conditions, geometry, solver, verify
from .conditions import CurvatureField
from .errors import ParameterError, SolverError, UnsupportedDomainError
from .grid import grid_from_domain, interpolate_values, interpolate_values_cubic

#: exterior-sphere radius multiplier used for convex domains, which admit
#: every radius; large values approach the strip-bound limit
CONVEX_RADIUS_FACTOR = 100.0

GRID_DIM = solver.GRID_DIM


def is_convex_domain(domain):
    if isinstance(domain, (geometry.Disc, geometry.ConvexPolygon)):
        return True
    if isinstance(domain, geometry.GridMask):
        return domain.is_convex()
    return False


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


def sampled_h_sup0(field, domain, target=600):
    """sup |H(x, 0)| over the domain.

    A supplied bound is trusted for constant fields; for general fields it
    is cross-checked against sampling and the larger value wins, so an
    understated bound cannot weaken the checks.
    """
    if field.is_constant:
        return abs(field.constant)
    pts = solver._domain_sample_points(domain, target=target)
    sampled = float(np.max(np.abs(field.eval(pts, np.zeros(len(pts))))))
    if field.h_sup0 is not None:
        return max(float(field.h_sup0), sampled)
    return sampled


def conditions_for(domain, field, dim=GRID_DIM, *, annulus_r=None,
                   boundary_sample_count=256, z_range=(-1.0, 1.0)):
    """Evaluate every applicable solvability/nonexistence check."""
    h_sup0 = sampled_h_sup0(field, domain)
    convex = is_convex_domain(domain)
    metrics_exact = not isinstance(domain, geometry.GridMask)

    r_eff = effective_sphere_radius(domain, annulus_r)
    fit = geometry.annulus_fit(domain, r_eff)

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
        pts = solver._domain_sample_points(domain)
        _, _, min_hz = conditions.sample_field_bounds(
            field, pts, np.linspace(z_range[0], z_range[1], 9))
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
        annulus_r=fit.r, annulus_d=fit.d, volume=volume,
        strip_width=width, convex=convex, inscribed_rho=rho,
        constant_h=field.constant, boundary_samples=boundary_samples,
        field=field, z_range=z_range, monotone_ok=monotone_ok,
        metrics_exact=metrics_exact)
    report.notes.extend(notes)
    if fit.approximate:
        report.notes.append("annulus fit computed from a bitmap point cloud")
    return report


def barrier_for_domain(domain, h_sup0, *, dim=GRID_DIM, annulus_r=None):
    """Annulus fit plus the matching barrier profile for a domain.

    Raises :class:`pmcgraph.errors.NoAdmissibleConstantError` when the
    curvature magnitude is not strictly below the fit's bound.
    """
    r_eff = effective_sphere_radius(domain, annulus_r)
    fit = geometry.annulus_fit(domain, r_eff)
    profile = barrier.profile_for_annulus(dim, h_sup0, fit.r, fit.r + fit.d)
    return fit, profile


@dataclass
class SolveOutcome:
    solution: object
    trace: object
    grid: object


def solve_domain(domain, field, spacing, *, boundary=None, tol=1e-10,
                 schedule=None, max_iters=40):
    """Rasterize and run the homotopy solve."""
    grid = grid_from_domain(domain, spacing, boundary=boundary)
    solution, trace = solver.continuation_solve(
        grid, field, schedule=schedule, tol=tol, max_iters=max_iters)
    return SolveOutcome(solution=solution, trace=trace, grid=grid)


def refine_solve(coarse, domain, field, spacing, *, tol=1e-10, schedule=None,
                 max_iters=40):
    """Solve on a finer grid, starting Newton at t = 1 from a coarse solution.

    The coarse solution is interpolated onto the fine nodes (cubic, then
    bilinear where the cubic stencil leaves the interior, then zero) and
    one Newton solve at the full problem finishes the job, with one LU
    factor reused across its steps.  The trace is a single step at t = 1.
    If that Newton solve fails, the full fine homotopy runs instead, so
    refinement succeeds wherever a direct fine continuation does.
    """
    grid = grid_from_domain(domain, spacing)
    pts = grid.interior_points()
    guess = interpolate_values_cubic(coarse.grid, coarse.solution.values, pts)
    missing = np.isnan(guess)
    guess[missing] = interpolate_values(coarse.grid, coarse.solution.values,
                                        pts[missing])
    initial = np.zeros(grid.shape)
    initial[grid.interior] = np.nan_to_num(guess, nan=0.0)
    linsolve = solver.FactorOnceSolver()
    try:
        solution = solver.newton_solve(grid, field, t_homotopy=1.0,
                                       initial=initial, tol=tol,
                                       max_iters=max_iters, linsolve=linsolve)
    except SolverError:
        solution, trace = solver.continuation_solve(
            grid, field, schedule=schedule, tol=tol, max_iters=max_iters)
        return SolveOutcome(solution=solution, trace=trace, grid=grid)
    step = solver.ContinuationStep.from_solution(
        solution, linsolve.factorizations, linsolve.krylov_iters)
    return SolveOutcome(solution=solution,
                        trace=solver.ContinuationTrace(steps=[step]), grid=grid)


@dataclass
class VerifyOutcome:
    solution: object
    trace: object
    fit: object
    profile: object
    report: object
    error_estimate: float
    slack: float
    gradient_inputs: object


def verify_domain(domain, field, spacing, *, annulus_r=None, tol=1e-10,
                  schedule=None, max_iters=40, slack_factor=10.0):
    """Solve on two grids and check the barrier estimates on the fine one.

    The Richardson pair (spacing, spacing/2) provides the discretization
    error estimate; the checks run with ``slack_factor`` times it.  Only
    zero-boundary solves are in scope here.

    The coarse grid runs the full homotopy; the fine grid starts at t = 1
    from the interpolated coarse solution (:func:`refine_solve`).  With
    nondecreasing H the discrete solution is unique, so this lands on the
    fine homotopy's solution for a fraction of its Newton steps; if the
    Newton solve fails, the fine homotopy runs instead.  ``trace`` is the
    fine solve's trace.
    """
    coarse = solve_domain(domain, field, spacing, tol=tol, schedule=schedule,
                          max_iters=max_iters)
    fine = refine_solve(coarse, domain, field, 0.5 * spacing, tol=tol,
                        schedule=schedule, max_iters=max_iters)

    pts = coarse.grid.interior_points()
    est = verify.richardson_error_estimate(coarse.solution, fine.solution, pts)
    slack = slack_factor * est

    h_sup0 = sampled_h_sup0(field, domain)
    fit, profile = barrier_for_domain(domain, h_sup0, annulus_r=annulus_r)
    report = verify.estimate_report(fine.solution, profile, fit, slack)

    if profile.h > 0.0:
        m_slab = max(barrier.barrier_constants(profile, outer=fit.r + fit.d)[0],
                     fine.solution.sup_norm, 1e-12)
    else:
        m_slab = max(fine.solution.sup_norm, 1.0)
    ginputs = solver.verify_gradient_bound_inputs(field, m_slab, domain=domain)

    return VerifyOutcome(solution=fine.solution, trace=fine.trace, fit=fit,
                         profile=profile, report=report, error_estimate=est,
                         slack=slack, gradient_inputs=ginputs)


def nonexistence_sweep(dim, h, outer, epsilons, tol=1e-10):
    """Radial shoot over a list of inner radii, with the height bound column.

    Returns rows (epsilon, exists, sup_p, bound); ``sup_p`` is NaN for
    nonexistent cases.  The bound column is the closed-form/quadrature
    height bound, which every existing solution must respect.
    """
    rows = []
    for eps in epsilons:
        eps = float(eps)
        res = solver.radial_shoot(dim, h, eps, outer, tol=tol)
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
    an optional linear term in z.
    """
    if not isinstance(spec, dict):
        raise ParameterError("curvature spec must be an object")
    if "constant" in spec:
        return CurvatureField.from_constant(float(spec["constant"]))
    if "table" in spec:
        tab = spec["table"]
        xs = np.asarray(tab["x"], dtype=float)
        ys = np.asarray(tab["y"], dtype=float)
        vals = np.asarray(tab["values"], dtype=float)
        if vals.shape != (len(ys), len(xs)):
            raise ParameterError("table values must have shape (len(y), len(x))")
        if len(xs) < 2 or len(ys) < 2:
            raise ParameterError("table needs at least a 2x2 grid")
        z_slope = float(spec.get("z_slope", 0.0))

        def interp(points):
            p = np.asarray(points, dtype=float)
            fx = np.clip(np.searchsorted(xs, p[..., 0]) - 1, 0, len(xs) - 2)
            fy = np.clip(np.searchsorted(ys, p[..., 1]) - 1, 0, len(ys) - 2)
            tx = np.clip((p[..., 0] - xs[fx]) / (xs[fx + 1] - xs[fx]), 0.0, 1.0)
            ty = np.clip((p[..., 1] - ys[fy]) / (ys[fy + 1] - ys[fy]), 0.0, 1.0)
            return ((1 - tx) * (1 - ty) * vals[fy, fx]
                    + tx * (1 - ty) * vals[fy, fx + 1]
                    + (1 - tx) * ty * vals[fy + 1, fx]
                    + tx * ty * vals[fy + 1, fx + 1])

        def func(points, z):
            return interp(points) + z_slope * np.asarray(z, dtype=float)

        return CurvatureField(func, monotone=z_slope >= 0.0,
                              description="tabulated H(x, y) + z_slope * z")
    raise ParameterError("curvature spec needs 'constant' or 'table'")


def boundary_from_json(spec):
    """Dirichlet data from JSON: zero, a constant, or a linear function."""
    if spec is None:
        return None
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, dict):
        if "constant" in spec:
            return float(spec["constant"])
        if "linear" in spec:
            ax, ay, b = (float(v) for v in spec["linear"])
            return lambda x, y: ax * np.asarray(x) + ay * np.asarray(y) + b
    raise ParameterError("boundary spec must be a number, {'constant': v} "
                         "or {'linear': [ax, ay, b]}")
