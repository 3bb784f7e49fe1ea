"""The contract between the program and the benchmark's hooks.

``perfbench/spans.py`` wraps functions of the program by name, and
``perfbench/layers.py`` derives per-layer metrics from the recorded calls:
``solver.newton_backtracks`` is the residual calls of a Newton run minus
the assemblies and the two residuals that every converged run makes (the
start and the final report).  A renamed target, or a residual evaluated
some other way, would silently zero or skew those metrics.  These tests
only read ``spans.py``; they never run the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pmcgraph import geometry, pipeline, solver
from pmcgraph.conditions import CurvatureField
from pmcgraph.grid import grid_from_domain

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PENTAGON = geometry.ConvexPolygon(
    [(0, 0), (2, 0), (2, 1.5), (1, 2.5), (0, 1.5)])
TABLE_SPEC = {"table": {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.25, 2.5],
                        "values": [[-0.30, -0.22, -0.30],
                                   [-0.25, -0.15, -0.25],
                                   [-0.20, -0.28, -0.20]]},
              "z_slope": 0.1}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves(spans):
    for name, target, _ in spans.HOOKS:
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def traced_counts(spans, solve):
    """Run ``solve()`` under the benchmark's hooks; returns its result and
    the number of spans per name."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = solve()
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == []
    counts = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return result, counts


def test_newton_calls_the_hooked_kernels(spans):
    grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 16)
    field = CurvatureField.from_constant(-0.3)
    sol, counts = traced_counts(spans,
                                lambda: solver.newton_solve(grid, field))
    iters = sol.newton_iters
    assert iters > 0
    assert counts["solver.newton"] == 1
    assert counts["solver.residual"] == iters + 2
    assert counts["solver.assembly"] == iters


def test_table_field_is_evaluated_once_per_residual(spans):
    # ``conditions.field_eval_calls`` counts ``CurvatureField.eval``: a
    # field whose z-independent part is stored for the run must still be
    # evaluated through it, once per residual
    grid = grid_from_domain(PENTAGON, 1.0 / 16)
    field = pipeline.curvature_from_json(TABLE_SPEC)
    sol, counts = traced_counts(spans,
                                lambda: solver.newton_solve(grid, field))
    assert sol.newton_iters > 0
    assert counts["conditions.eval"] == counts["solver.residual"]
    assert counts["solver.residual"] == sol.newton_iters + 2
