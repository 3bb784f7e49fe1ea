"""Per-layer metrics derived from the spans of one traced operation.

Counts must repeat exactly from one operation to the next; times are
summed over a layer's outermost spans (a span inside another span of the
same layer is not counted twice).  Every layer runs on the calling thread
and nothing queues, so no layer has a waiting time.
"""

from __future__ import annotations

import math
import statistics

# (metric, unit, hooks it needs); trace.* metrics are added by run.py
METRICS = [
    ("grid.builds", "count", ["grid.build"]),
    ("grid.build_s", "s", ["grid.build"]),
    ("grid.n_dof", "count", ["grid.build"]),
    ("linear.factorizations", "count", ["linear.splu"]),
    ("linear.factor_s", "s", ["linear.splu"]),
    ("linear.factor_s_per_call", "s", ["linear.splu"]),
    ("linear.factor_scaling_exp", "exponent", ["linear.splu"]),
    ("linear.lu_nnz", "nnz", ["linear.splu"]),
    ("linear.krylov_calls", "count", ["linear.gmres", "linear.lgmres"]),
    ("solver.assembly_calls", "count", ["solver.assembly"]),
    ("solver.assembly_s", "s", ["solver.assembly"]),
    ("solver.residual_calls", "count", ["solver.residual"]),
    ("solver.residual_s", "s", ["solver.residual"]),
    ("solver.newton_backtracks", "count",
     ["solver.newton", "solver.residual", "solver.assembly"]),
    ("solver.newton_calls", "count", ["solver.newton"]),
    ("solver.newton_failed", "count", ["solver.newton"]),
    ("solver.newton_self_s", "s", ["solver.newton"]),
    ("solver.continuation_bisections", "count",
     ["solver.newton", "solver.continuation"]),
    ("solver.useful_factor_ratio", "ratio", ["solver.newton", "linear.splu"]),
    ("conditions.field_eval_calls", "count",
     ["conditions.eval", "conditions.grad_eval"]),
    ("conditions.field_eval_s", "s",
     ["conditions.eval", "conditions.grad_eval"]),
    ("conditions.evaluate_s", "s", ["conditions.evaluate"]),
    ("barrier.quad_calls", "count", ["barrier.quad"]),
    ("barrier.quad_s", "s", ["barrier.quad", "barrier.profile"]),
    ("solver.radial_calls", "count", ["solver.radial"]),
    ("solver.radial_s", "s", ["solver.radial"]),
    ("geometry.annulus_fit_s", "s", ["geometry.annulus_fit"]),
    ("geometry.boundary_curvature_s", "s", ["geometry.boundary_curvature"]),
    ("verify.richardson_s", "s", ["verify.richardson"]),
    ("verify.estimate_s", "s", ["verify.estimate"]),
    ("verify.blowup_s", "s", ["verify.blowup"]),
    ("ioutil.write_s", "s", ["ioutil.dump_json", "ioutil.write_csv"]),
    ("ioutil.bytes_written", "B", ["ioutil.dump_json", "ioutil.write_csv"]),
]
UNITS = {name: unit for name, unit, _ in METRICS}
# metrics that must repeat exactly from one operation to the next
COUNT_UNITS = {"count", "nnz", "B", "ratio"}


def unmeasured_metrics(unmeasured_hooks):
    missing = set(unmeasured_hooks)
    return [name for name, _, hooks in METRICS if missing.intersection(hooks)]


class OpView:
    """The spans of one operation, with ancestry and self-time queries."""

    def __init__(self, spans, op):
        self.spans = spans
        self.ids = [i for i, s in enumerate(spans) if s.op == op]
        self.child_time = {}
        for i in self.ids:
            parent = spans[i].parent
            if parent is not None:
                self.child_time[parent] = (self.child_time.get(parent, 0.0)
                                           + spans[i].duration())

    def of(self, *names):
        return [i for i in self.ids if self.spans[i].name in names]

    def ancestor(self, i, *names):
        """Nearest enclosing span with one of ``names``, or None."""
        parent = self.spans[i].parent
        while parent is not None and self.spans[parent].name not in names:
            parent = self.spans[parent].parent
        return parent

    def outermost(self, *names):
        return [i for i in self.of(*names) if self.ancestor(i, *names) is None]

    def time(self, *names):
        return math.fsum(self.spans[i].duration() for i in self.outermost(*names))

    def self_time(self, i):
        return self.spans[i].duration() - self.child_time.get(i, 0.0)

    def info(self, i, key, default=None):
        return (self.spans[i].info or {}).get(key, default)


def _scaling_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / math.fsum((x - mx) ** 2 for x in xs))


def _factorizations_by_size(view):
    """Factorization seconds per call, and the largest fill, by matrix size."""
    per_n, nnz = {}, {}
    for i in view.of("linear.splu"):
        n = view.info(i, "n")
        if n is not None:
            per_n.setdefault(n, []).append(view.spans[i].duration())
            nnz[n] = max(nnz.get(n, 0), view.info(i, "lu_nnz", 0))
    return per_n, nnz


def op_layer_metrics(view):
    """Per-layer metrics of one operation and the names with no defined value."""
    m, undefined = {}, []
    spans = view.spans

    m["grid.builds"] = len(view.of("grid.build"))
    m["grid.build_s"] = view.time("grid.build")
    m["grid.n_dof"] = max((view.info(i, "n_dof", 0)
                           for i in view.of("grid.build")), default=0)

    factors = view.of("linear.splu")
    per_n, nnz = _factorizations_by_size(view)
    m["linear.factorizations"] = len(factors)
    m["linear.factor_s"] = view.time("linear.splu")
    if per_n:
        largest = max(per_n)
        m["linear.factor_s_per_call"] = statistics.median(per_n[largest])
        m["linear.lu_nnz"] = nnz[largest]
    else:
        m["linear.factor_s_per_call"] = 0.0
        m["linear.lu_nnz"] = 0
        undefined += ["linear.factor_s_per_call", "linear.lu_nnz"]
    if len(per_n) >= 2:
        sizes = sorted(per_n)
        m["linear.factor_scaling_exp"] = _scaling_exponent(
            sizes, [statistics.median(per_n[n]) for n in sizes])
    else:
        m["linear.factor_scaling_exp"] = 0.0
        undefined.append("linear.factor_scaling_exp")
    m["linear.krylov_calls"] = len(view.outermost("linear.gmres",
                                                  "linear.lgmres"))

    m["solver.assembly_calls"] = len(view.of("solver.assembly"))
    m["solver.assembly_s"] = view.time("solver.assembly")
    m["solver.residual_calls"] = len(view.of("solver.residual"))
    m["solver.residual_s"] = view.time("solver.residual")

    newtons = view.of("solver.newton")
    inside = {i: {"solver.residual": 0, "solver.assembly": 0} for i in newtons}
    for i in view.of("solver.residual", "solver.assembly"):
        owner = view.ancestor(i, "solver.newton")
        if owner is not None:
            inside[owner][spans[i].name] += 1
    backtracks = 0
    for i in newtons:
        status = spans[i].status
        assemblies = inside[i]["solver.assembly"]
        if status == "SingularSystemError" and assemblies:
            assemblies -= 1  # the last step never tried a residual
        backtracks += (inside[i]["solver.residual"] - assemblies - 1
                       - (status == "ok"))
    m["solver.newton_backtracks"] = backtracks
    m["solver.newton_calls"] = len(newtons)
    m["solver.newton_failed"] = sum(spans[i].status != "ok" for i in newtons)
    m["solver.newton_self_s"] = math.fsum(view.self_time(i) for i in newtons)

    bisections = 0
    for c in view.of("solver.continuation"):
        failed = sum(1 for i in newtons if spans[i].status != "ok"
                     and view.ancestor(i, "solver.continuation") == c)
        stalled = spans[c].status == "ContinuationFailureError"
        bisections += failed - stalled
    m["solver.continuation_bisections"] = bisections

    if factors:
        useful = 0
        for i in factors:
            owner = view.ancestor(i, "solver.newton")
            useful += owner is not None and spans[owner].status == "ok"
        m["solver.useful_factor_ratio"] = useful / len(factors)
    else:
        m["solver.useful_factor_ratio"] = 0.0
        undefined.append("solver.useful_factor_ratio")

    m["conditions.field_eval_calls"] = len(view.of("conditions.eval",
                                                   "conditions.grad_eval"))
    m["conditions.field_eval_s"] = view.time("conditions.eval",
                                             "conditions.grad_eval")
    m["conditions.evaluate_s"] = view.time("conditions.evaluate")
    m["barrier.quad_calls"] = len(view.of("barrier.quad"))
    m["barrier.quad_s"] = view.time("barrier.quad", "barrier.profile")
    m["solver.radial_calls"] = len(view.of("solver.radial"))
    m["solver.radial_s"] = view.time("solver.radial")
    m["geometry.annulus_fit_s"] = view.time("geometry.annulus_fit")
    m["geometry.boundary_curvature_s"] = view.time(
        "geometry.boundary_curvature")
    m["verify.richardson_s"] = view.time("verify.richardson")
    m["verify.estimate_s"] = view.time("verify.estimate")
    m["verify.blowup_s"] = view.time("verify.blowup")
    writes = view.outermost("ioutil.dump_json", "ioutil.write_csv")
    m["ioutil.write_s"] = view.time("ioutil.dump_json", "ioutil.write_csv")
    m["ioutil.bytes_written"] = sum(view.info(i, "bytes", 0) for i in writes)
    return m, undefined


def factor_times_by_size(view):
    """Median factorization seconds per call at each matrix size."""
    per_n, _ = _factorizations_by_size(view)
    return {n: {"calls": len(t), "median_s": statistics.median(t)}
            for n, t in sorted(per_n.items())}


def self_times(view):
    """Self seconds per span name over the operation."""
    out = {}
    for i in view.ids:
        name = view.spans[i].name
        out[name] = out.get(name, 0.0) + view.self_time(i)
    return dict(sorted(out.items()))


def solve_breakdown(view):
    """Per continuation solve: size, counts, time and Newton iterations."""
    spans = view.spans
    solves = []
    for c in view.of("solver.continuation"):
        inside = [i for i in view.ids
                  if view.ancestor(i, "solver.continuation") == c]
        factors = [i for i in inside if spans[i].name == "linear.splu"]
        duration = spans[c].duration()
        factor_s = math.fsum(spans[i].duration() for i in factors)
        solves.append({
            "n_dof": view.info(c, "n_dof"),
            "status": spans[c].status,
            "wall_s": duration,
            "assemblies": sum(spans[i].name == "solver.assembly"
                              for i in inside),
            "factorizations": len(factors),
            "factor_s": factor_s,
            "factor_share": factor_s / duration if duration > 0 else 0.0,
            "step_iters": view.info(c, "step_iters"),
        })
    return solves
