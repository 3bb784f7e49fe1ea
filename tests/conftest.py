import pytest

from pmcgraph import geometry, pipeline, solver
from pmcgraph.conditions import CurvatureField
from pmcgraph.grid import grid_from_domain


@pytest.fixture(scope="session")
def annulus_case():
    """Reference solve: annulus(1, 2), constant H = -0.3, Richardson pair.

    Shared across solver, verify and acceptance tests; everything
    downstream treats it as read-only.  ``fine`` is ``verify``'s outcome
    at 1/32, whose fine solution, error estimate and barrier the tests
    read.
    """
    domain = geometry.Annulus(1.0, 2.0)
    field = CurvatureField.from_constant(-0.3)
    # the homotopy, which tests/fixtures/annulus_trace.json pins, though
    # ``solve`` reaches this monotone field's solution by Newton from zero
    coarse = solver.continuation_solve(grid_from_domain(domain, 1.0 / 32),
                                       field)
    fine = pipeline.verify_domain(domain, field, 1.0 / 32)
    est = fine.error_estimate
    return {
        "domain": domain,
        "field": field,
        "coarse": coarse,
        "fine": fine,
        "error_estimate": est,
        "slack": pipeline.SLACK_FACTOR * est,
        "barrier": fine.barrier,
        "fit": fine.barrier.fit,
        "profile": fine.barrier.profile,
    }


@pytest.fixture(scope="session")
def radial_case():
    """Radial shooting solution matching the annulus reference solve."""
    return solver.radial_shoot(2, 0.3, 1.0, 2.0, tol=1e-11)
