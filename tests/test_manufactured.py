"""Manufactured solutions (Roache, J. Fluids Eng. 124, 2002).

A chosen smooth graph f is made the exact solution by the curvature field
H(x, z) = div(grad f / W) / 2 + 0.1 (z - f(x)) and the Dirichlet data
g = f.  The field has the form H(x) + s z with s = 0.1 > 0, so the solve
is Newton at t = 1 (``pipeline.solve_grid``) and the discrete solution is
unique.  The sup-norm error against f then shows the order of the whole
scheme, cut arms and snapped nodes included, and the Richardson estimate
of ``verify`` can be compared with the true error.
"""

import math

import numpy as np
import pytest

from pmcgraph import geometry, pipeline
from pmcgraph.conditions import CurvatureField
from pmcgraph.grid import grid_from_domain

PENTAGON_VERTICES = np.array([[0, 0], [2, 0], [2, 1.5], [1, 2.5], [0, 1.5]],
                             dtype=float)
PENTAGON = geometry.ConvexPolygon(PENTAGON_VERTICES)


def mean_curvature_operator(fx, fy, fxx, fxy, fyy):
    """div(grad f / sqrt(1 + |grad f|^2)) from the derivatives of f."""
    return (((1.0 + fy * fy) * fxx - 2.0 * fx * fy * fxy
             + (1.0 + fx * fx) * fyy) / (1.0 + fx * fx + fy * fy) ** 1.5)


def manufactured_field(f, derivatives):
    """The field of the module docstring for the exact solution ``f(x, y)``
    whose ``derivatives(x, y)`` are (fx, fy, fxx, fxy, fyy)."""
    def spatial(points):
        x, y = points[..., 0], points[..., 1]
        return (0.5 * mean_curvature_operator(*derivatives(x, y))
                - 0.1 * f(x, y))

    return CurvatureField(lambda points, z: spatial(points) + 0.1 * z,
                          monotone=True, z_slope=0.1, spatial=spatial)


def trig(x, y):
    return 0.4 * np.sin(1.3 * x) * np.cos(0.9 * y) + 0.2 * x - 0.1 * y


def trig_derivatives(x, y):
    sx, cx = np.sin(1.3 * x), np.cos(1.3 * x)
    sy, cy = np.sin(0.9 * y), np.cos(0.9 * y)
    return (0.52 * cx * cy + 0.2, -0.36 * sx * sy - 0.1,
            -0.676 * sx * cy, -0.468 * cx * sy, -0.324 * sx * cy)


def edge_distances(x, y):
    """Inward distances to the pentagon's five edge lines, shape (5, ...),
    and their gradients, shape (5, 2)."""
    edges = np.roll(PENTAGON_VERTICES, -1, axis=0) - PENTAGON_VERTICES
    normals = np.stack([-edges[:, 1], edges[:, 0]], axis=1)
    normals /= np.hypot(*edges.T)[:, None]
    offsets = np.sum(normals * PENTAGON_VERTICES, axis=1)
    points = np.stack([np.ravel(x), np.ravel(y)])
    dist = normals @ points - offsets[:, None]
    return dist.reshape((5,) + np.shape(x)), normals


def bubble(x, y):
    """0.15 times the product of the edge distances: zero on the boundary."""
    return 0.15 * np.prod(edge_distances(x, y)[0], axis=0)


def bubble_derivatives(x, y):
    dist, normals = edge_distances(x, y)

    def product_without(*skip):
        return 0.15 * np.prod([d for k, d in enumerate(dist) if k not in skip],
                              axis=0)

    def first(a):
        return sum(normals[i, a] * product_without(i) for i in range(5))

    def second(a, b):
        return sum(normals[i, a] * normals[k, b] * product_without(i, k)
                   for i in range(5) for k in range(5) if i != k)

    return first(0), first(1), second(0, 0), second(0, 1), second(1, 1)


def sup_error(solution, f):
    grid = solution.grid
    exact = f(grid.X[grid.interior], grid.Y[grid.interior])
    return float(np.max(np.abs(solution.interior_values() - exact)))


def snapped_nodes(grid, domain):
    """Lattice points inside the domain that the grid made boundary nodes."""
    inside = domain.contains(np.stack([grid.X, grid.Y], axis=-1))
    return int(np.count_nonzero(inside & ~grid.interior))


# (domain, spacings, whether every grid of the chain snaps some node)
CHAINS = {
    "pentagon": (PENTAGON, (1 / 8, 1 / 16, 1 / 32), False),
    "annulus": (geometry.Annulus(1.0, 2.0), (1 / 8, 1 / 16, 1 / 32), False),
    "off-center disc": (geometry.Disc(1.0, (0.3, -0.2)),
                        (1 / 8, 1 / 16, 1 / 32), False),
    "snapped pentagon": (PENTAGON, (0.1, 0.05, 0.025), True),
    "snapped disc": (geometry.Disc(1.0), (1 / 12, 1 / 24, 1 / 48), True),
}


@pytest.mark.parametrize("name", list(CHAINS))
def test_second_order_in_the_sup_norm(name):
    domain, spacings, snapped = CHAINS[name]
    field = manufactured_field(trig, trig_derivatives)
    errors = []
    for spacing in spacings:
        grid = grid_from_domain(domain, spacing, boundary=trig)
        assert (snapped_nodes(grid, domain) > 0) == snapped
        errors.append(sup_error(pipeline.solve_grid(grid, field).solution,
                                trig))
    assert 1.8 <= math.log2(errors[-2] / errors[-1]) <= 2.2, errors


@pytest.mark.parametrize("spacing", [1 / 8, 1 / 16])
def test_richardson_estimate_tracks_the_true_error(spacing):
    # zero boundary data, so verify's checks apply: the estimate must be
    # within a factor 2 of the fine grid's true error, and the slack
    # verify grants must cover that error
    outcome = pipeline.verify_domain(
        PENTAGON, manufactured_field(bubble, bubble_derivatives), spacing)
    true_error = sup_error(outcome.solution, bubble)
    assert 0.5 <= outcome.error_estimate / true_error <= 2.0
    assert true_error <= pipeline.SLACK_FACTOR * outcome.error_estimate
    assert outcome.report.passed()
