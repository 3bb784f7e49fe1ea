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

from pmcgraph import geometry, solver
from pmcgraph.conditions import CurvatureField
from pmcgraph.grid import grid_from_domain

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_newton_calls_the_hooked_kernels(spans):
    grid = grid_from_domain(geometry.Annulus(1.0, 2.0), 1.0 / 16)
    field = CurvatureField.from_constant(-0.3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sol = solver.newton_solve(grid, field)
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == []
    counts = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    iters = sol.newton_iters
    assert iters > 0
    assert counts["solver.newton"] == 1
    assert counts["solver.residual"] == iters + 2
    assert counts["solver.assembly"] == iters
