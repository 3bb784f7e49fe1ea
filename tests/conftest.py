import pytest

from pmcgraph import geometry, pipeline, solver, verify
from pmcgraph.conditions import CurvatureField


@pytest.fixture(scope="session")
def annulus_case():
    """Reference solve: annulus(1, 2), constant H = -0.3, Richardson pair.

    Shared across solver, verify and acceptance tests; everything
    downstream treats it as read-only.
    """
    domain = geometry.Annulus(1.0, 2.0)
    field = CurvatureField.from_constant(-0.3)
    coarse = pipeline.solve_domain(domain, field, 1.0 / 32)
    # Newton at t = 1 from the interpolated coarse solution: the same fine
    # solution as the full 1/64 homotopy, to about 6e-16
    fine = pipeline.refine_solve(coarse, domain, field, 1.0 / 64)
    est = verify.richardson_error_estimate(
        coarse.solution, fine.solution, coarse.grid.interior_points())
    fit, profile = pipeline.barrier_for_domain(domain, 0.3)
    return {
        "domain": domain,
        "field": field,
        "coarse": coarse,
        "fine": fine,
        "error_estimate": est,
        "slack": 10.0 * est,
        "fit": fit,
        "profile": profile,
    }


@pytest.fixture(scope="session")
def radial_case():
    """Radial shooting solution matching the annulus reference solve."""
    return solver.radial_shoot(2, 0.3, 1.0, 2.0, tol=1e-11)
