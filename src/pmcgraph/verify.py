"""A posteriori checks of computed solutions against barrier estimates.

Conventions: the solver's operator is ``div(grad f / W) = n H(x, f)`` with
the upward graph orientation, so a spherical cap lying above the plane has
H = -h < 0.  Replacing H by -H mirrors solutions through z = 0, which is
how results for the opposite sign are obtained.

The checks compare a converged grid solution against its domain's
:class:`pmcgraph.pipeline.DomainBarrier`: the sup norm against the apex height
C1, boundary difference quotients against the inner slope C2, and the pointwise
values against the translated profile.  Discrete solutions satisfy the
continuous estimates only up to discretization error, so every check takes a
slack; the pipeline uses 10x a two-grid Richardson error estimate, which reads
both solutions off the nested lattices by injection at the coarse nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import FAIL, NOT_APPLICABLE, PASS
from .errors import ParameterError
from .grid import twin_dofs
from .ioutil import dump_json, write_csv


@dataclass(frozen=True)
class EstimateCheck:
    name: str
    bound: float
    actual: float
    verdict: str

    def as_dict(self):
        return {"name": self.name, "bound": self.bound, "actual": self.actual,
                "verdict": self.verdict}


@dataclass
class EstimateReport:
    """Comparison of a solution against its barrier constants."""

    c0_bound: float
    c0_actual: float
    bgrad_bound: float
    bgrad_actual: float
    barrier_violation: float
    slack: float
    checks: list

    def passed(self):
        return all(c.verdict != FAIL for c in self.checks)

    def as_dict(self):
        return {
            "c0_bound": self.c0_bound,
            "c0_actual": self.c0_actual,
            "bgrad_bound": self.bgrad_bound,
            "bgrad_actual": self.bgrad_actual,
            "barrier_violation": self.barrier_violation,
            "slack": self.slack,
            "checks": [c.as_dict() for c in self.checks],
        }

    def write_json(self, path):
        dump_json(self.as_dict(), path)


def check_height_estimate(solution, barrier, slack):
    """sup |f| <= C1 + slack and |f(x)| <= p(|x + translation|) + slack,
    with ``barrier`` a :class:`pmcgraph.pipeline.DomainBarrier`.

    Requires a zero-boundary solve; the estimate is proved only there.
    """
    if solution.boundary_nonzero:
        return (EstimateCheck("height_sup", math.nan, math.nan, NOT_APPLICABLE),
                EstimateCheck("height_pointwise", math.nan, math.nan,
                              NOT_APPLICABLE))
    c1, profile = barrier.c1, barrier.profile
    abs_f = np.abs(solution.interior_values())
    sup_f = float(np.max(abs_f))
    sup_check = EstimateCheck("height_sup", c1 + slack, sup_f,
                              PASS if sup_f <= c1 + slack else FAIL)

    grid = solution.grid
    t = np.asarray(barrier.fit.translation, dtype=float)
    radii = np.hypot(grid.X[grid.interior] + t[0], grid.Y[grid.interior] + t[1])
    radii = np.clip(radii, profile.r, profile.domain_limit())
    violation = float(np.max(abs_f - profile.heights(radii)))
    point_check = EstimateCheck("height_pointwise", slack, violation,
                                PASS if violation <= slack else FAIL)
    return sup_check, point_check


def check_boundary_gradient(solution, barrier, slack):
    """Max one-sided boundary difference quotient <= C2 + slack, with
    ``barrier`` a :class:`pmcgraph.pipeline.DomainBarrier`.

    Solves with nonzero Dirichlet data are out of the estimate's scope and
    report not-applicable.
    """
    if solution.boundary_nonzero:
        return EstimateCheck("boundary_gradient", math.nan, math.nan,
                             NOT_APPLICABLE)
    actual = solution.sup_gradient_boundary
    return EstimateCheck("boundary_gradient", barrier.c2 + slack, actual,
                         PASS if actual <= barrier.c2 + slack else FAIL)


def estimate_report(solution, barrier, slack):
    """Bundle the height and boundary-gradient checks against a
    :class:`pmcgraph.pipeline.DomainBarrier` into one report."""
    sup_check, point_check = check_height_estimate(solution, barrier, slack)
    grad_check = check_boundary_gradient(solution, barrier, slack)
    return EstimateReport(
        c0_bound=sup_check.bound, c0_actual=sup_check.actual,
        bgrad_bound=grad_check.bound, bgrad_actual=grad_check.actual,
        barrier_violation=point_check.actual, slack=slack,
        checks=[sup_check, point_check, grad_check])


def richardson_error_estimate(coarse_solution, fine_solution):
    """Two-grid error estimate of the second-order scheme: the sup of
    |f_coarse - f_fine| over the coarse interior nodes whose fine twin
    (:func:`pmcgraph.grid.twin_dofs`) is interior too, over 2^2 - 1."""
    twin = twin_dofs(coarse_solution.grid, fine_solution.grid)
    both = twin >= 0
    if not both.any():
        raise ParameterError("no coarse interior node has an interior twin")
    diff = (coarse_solution.interior_values()[both]
            - fine_solution.interior_values()[twin[both]])
    return float(np.max(np.abs(diff))) / 3.0


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


def _blowup_curvature(z, eps):
    w = 3.0 * z * z + eps
    return -6.0 * z / (1.0 + w * w) ** 1.5


def _blowup_curvature_z(z, eps):
    w = 3.0 * z * z + eps
    return (-6.0 * (1.0 + w * w) + 108.0 * z * z * w) / (1.0 + w * w) ** 2.5


@dataclass(frozen=True)
class BlowupRow:
    epsilon: float
    fprime0: float
    h_bound: float
    min_hz: float


def gradient_blowup_example(epsilon_list, samples=4001):
    """Family of graphs with bounded curvature data but exploding gradient.

    For each eps the inverse of z -> z^3 + eps z is a graph over [-1, 1]
    whose prescribed curvature H_eps(z) = -6z / (1 + (3z^2 + eps)^2)^(3/2)
    satisfies a uniform bound on |H| + |H'| and has |f'(0)| = 1/eps, while
    dH/dz < 0 near zero.  This is the counterexample showing the interior
    gradient estimate genuinely needs dH/dz >= 0: every other hypothesis
    holds with constants independent of eps.

    Returns one row per eps with the exact center slope 1/eps, the sampled
    sup of |H_eps| + |H_eps'| over [-1, 1] and the sampled min of dH/dz.
    """
    rows = []
    zs = np.linspace(-1.0, 1.0, int(samples))
    for eps in epsilon_list:
        eps = float(eps)
        if not (0.0 < eps <= 1.0):
            raise ParameterError(f"epsilon must lie in (0, 1], got {eps}")
        hv = _blowup_curvature(zs, eps)
        hz = _blowup_curvature_z(zs, eps)
        rows.append(BlowupRow(
            epsilon=eps,
            fprime0=1.0 / eps,
            h_bound=float(np.max(np.abs(hv) + np.abs(hz))),
            min_hz=float(np.min(hz)),
        ))
    return rows


def write_blowup_csv(rows, path):
    write_csv(path, ["epsilon", "fprime0", "H_bound", "minHz"],
              [(r.epsilon, r.fprime0, r.h_bound, r.min_hz) for r in rows])
