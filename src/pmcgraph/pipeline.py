"""End-to-end assemblies: domain + curvature -> checks, solves, reports.

These functions wire the geometry metrics into the condition checks,
build barrier profiles matched to a domain's annulus fit, run the grid
solver with a two-grid error estimate and feed everything into the
verification checks.  Every grid that ``solve`` or ``verify`` solves goes
through one rule for choosing between Newton at t = 1 up a chain of
nested grids (:func:`grid_chain`) and the homotopy.  The command line
front end is a thin wrapper around this module.
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
from .grid import grid_from_domain, nested_prolongation, prolongate

#: exterior-sphere radius multiplier used for convex domains, which admit
#: every radius; large values approach the strip-bound limit
CONVEX_RADIUS_FACTOR = 100.0

GRID_DIM = solver.GRID_DIM

#: ``verify`` runs its checks with this multiple of the Richardson error
#: estimate as slack
SLACK_FACTOR = 10.0

#: a solve's chain of nested grids (:func:`grid_chain`) ends at the first
#: grid with at most this many interior nodes, the only one whose matrices
#: are factored.  The depth barely matters: on the pentagon at 1/64, with
#: the table field, chains ending at 1/32, 1/16, 1/8, 1/4 and 1/2 all took
#: 18 GMRES iterations on the fine grid and 0.129-0.144 s per solve
#: (0.170 s factoring the fine grid).  This limit keeps both the coarsest
#: factor and the chain short
COARSEST_DOF = 1024


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

    width = geometry.strip_width(domain)  # None exactly when not convex
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
        strip_width=width, convex=width is not None, inscribed_rho=rho,
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


def grid_chain(grid):
    """``grid`` and the grids of its problem at twice, four times, ...
    its spacing, finest first: the chain of nested grids a solve walks.

    Halving stops at the first grid with at most ``COARSEST_DOF`` interior
    nodes, or where the next coarser lattice would have no interior node.
    The grids come from :func:`pmcgraph.grid.grid_from_domain` with the
    grid's domain and Dirichlet data, so their lattices nest.  A bitmap's
    grid is its own cells at every spacing, so its chain is that grid.
    """
    chain = [grid]
    if isinstance(grid.domain, geometry.GridMask):
        return chain
    while chain[-1].n_dof > COARSEST_DOF:
        try:
            coarser = grid_from_domain(grid.domain, 2.0 * chain[-1].spacing,
                                       boundary=grid.boundary)
        except ParameterError:  # no lattice node inside the domain
            break
        chain.append(coarser)
    return chain


def _prolongations(chain):
    """The :func:`pmcgraph.grid.nested_prolongation` matrices between the
    neighbouring grids of a chain, finest first; they hold no grid."""
    return [nested_prolongation(coarse, fine)
            for fine, coarse in zip(chain, chain[1:])]


def _climb(chain, prolongations, field, settings, solution=None):
    """Newton at t = 1 up a chain, coarsest grid first; returns the
    :class:`pmcgraph.solver.SolveOutcome` of its finest grid, with one
    ``"chain"`` level per grid.

    ``chain`` lists grids finest first; it is emptied as the climb goes,
    so that each grid is freed once the grid above it has its start.
    ``prolongations`` are the :func:`_prolongations` from ``chain[0]``
    down, which may reach below the chain to a solved grid ``solution``
    that the climb starts from.  Without one, the chain's last grid is
    solved from :func:`pmcgraph.solver.newton_solve`'s default start with
    its own factor.  Every other grid starts from the solution below,
    :func:`pmcgraph.grid.prolongate`d, and its GMRES is preconditioned by
    the V-cycle over every grid below it, which factors only the
    coarsest.  Raises the first :class:`SolverError`.
    """
    levels = []
    while chain:
        grid = chain.pop()
        below = prolongations[len(chain):]
        initial = None
        if solution is not None:
            initial = prolongate(below[0], solution.dof_values, grid)
            solution = None  # frees the grid below
        linsolve = solver.FactorOnceSolver(below)
        solution = solver.newton_solve(grid, field, t_homotopy=1.0,
                                       initial=initial, linsolve=linsolve,
                                       **settings)
        trace = solver.ContinuationTrace(steps=[
            solver.ContinuationStep.from_solution(
                solution, linsolve.factorizations, linsolve.krylov_iters)])
        levels.append(trace.level(grid, "chain"))
    return solver.SolveOutcome(solution, trace, levels)


def _solve_chain(chain, prolongations, field, settings, start=None):
    """:func:`_climb` for a monotone field or from a solved ``start``;
    else, or when the climb raises a :class:`SolverError`, the homotopy on
    the chain's finest grid.  Returns that grid's
    :class:`pmcgraph.solver.SolveOutcome`."""
    finest = chain[0]
    if start is not None or field.monotone:
        try:
            return _climb(chain, prolongations, field, settings, start)
        except SolverError:
            pass
    chain.clear()
    return solver.continuation_solve(finest, field, **settings)


def solve_grid(grid, field, *, tol=1e-10, max_iters=40):
    """Solve one grid by the one rule of ``solve`` and ``verify``; returns
    a :class:`pmcgraph.solver.SolveOutcome`.

    When ``field.monotone`` holds (H nondecreasing in z, so the discrete
    solution is unique by the comparison principle), a climb up the
    grid's chain (:func:`grid_chain`): Newton at t = 1 from zero (or the
    harmonic start, for nonzero data) on the coarsest grid with its own
    factor, then on each finer grid from the solution below, with GMRES
    preconditioned by a V-cycle that factors only the coarsest grid's
    Galerkin operator.  For any other field, whose homotopy defines the
    solution branch, or when any Newton run of the climb fails: the
    homotopy (:func:`pmcgraph.solver.continuation_solve`) on ``grid``
    itself, so that a stall is reported at the requested spacing.  A
    climb's trace is the one step at t = 1 of its finest grid.
    """
    # a homotopy solves the grid alone
    chain = grid_chain(grid) if field.monotone else [grid]
    return _solve_chain(chain, _prolongations(chain), field,
                        dict(tol=tol, max_iters=max_iters))


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
    cap is named at that spacing.  One chain runs from ``spacing / 2``
    down (:func:`grid_chain`), and every grid and prolongation is built
    before any solve.  The grid at ``spacing`` is solved by ``solve``'s
    rule (:func:`solve_grid`) on the chain below it, and a stall is
    therefore that of ``solve`` at ``spacing``.  The grid at
    ``spacing / 2`` is then solved from it by Newton at t = 1, with the
    V-cycle over the whole chain, or by the homotopy if that fails: the
    one place where a grid is solved from a solved coarser one.
    """
    if isinstance(domain, geometry.GridMask):
        raise ParameterError(
            "verify needs a Richardson grid pair, but a bitmap domain has no "
            "refinement: its grid is the bitmap's own cells at every spacing")
    settings = dict(tol=tol, max_iters=max_iters)
    grid = grid_from_domain(domain, spacing)
    fitted = barrier_for_domain(domain, sampled_h_sup0(field, domain),
                                annulus_r=annulus_r)
    chain = grid_chain(grid)
    fine_grid = grid_from_domain(domain, 0.5 * spacing)
    prolongations = _prolongations([fine_grid] + chain)
    coarse = _solve_chain(chain, prolongations[1:], field, settings)
    fine = _solve_chain([fine_grid], prolongations, field, settings,
                        start=coarse.solution)

    est = verify.richardson_error_estimate(coarse.solution, fine.solution)
    report = verify.estimate_report(fine.solution, fitted, SLACK_FACTOR * est)
    ginputs = gradient_hypotheses(domain, field, fine.solution, fitted=fitted)

    return VerifyOutcome(solution=fine.solution, barrier=fitted,
                         report=report, error_estimate=est,
                         gradient_inputs=ginputs,
                         levels=coarse.levels + fine.levels)


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
