"""Spans recorded around calls into pmcgraph, from outside the program.

A hook replaces a function or method with a wrapper that records one span
per call: name, start, end, parent span, operation id, outcome and a few
computed facts about the call (matrix size, fill, bytes written).  Spans
stay in memory until the run ends.  A hook whose target no longer exists
is reported as unmeasured; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time


_INHERITED = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "status", "info")

    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "status": self.status,
                "info": self.info}


# annotations run after the span ends; ``result`` is None when the call raised


def _grid_info(args, kwargs, result):
    return {"n_dof": result.n_dof}


def _factor_info(args, kwargs, result):
    # computed from the factor's stored entries, not a memory measurement
    return {"n": args[0].shape[0], "lu_nnz": result.L.nnz + result.U.nnz}


def _newton_info(args, kwargs, result):
    info = {"t": kwargs.get("t_homotopy", 1.0), "n_dof": args[0].n_dof}
    if result is not None:
        info["iters"] = result.newton_iters
    return info


def _continuation_info(args, kwargs, result):
    info = {"n_dof": args[0].n_dof}
    if result is not None:
        info["step_iters"] = [step.newton_iters for step in result[1].steps]
    return info


def _bytes_info(path_index):
    def info(args, kwargs, result):
        path = kwargs.get("path", args[path_index])
        return {"bytes": os.path.getsize(path)}
    return info


# (span name, "module:attribute.path", optional annotation of a finished call)
HOOKS = [
    ("grid.build", "pmcgraph.grid:grid_from_domain", _grid_info),
    ("solver.residual", "pmcgraph.solver:mc_residual", None),
    ("solver.assembly", "pmcgraph.solver:_assemble_jacobian", None),
    ("linear.splu", "scipy.sparse.linalg:splu", _factor_info),
    ("linear.gmres", "scipy.sparse.linalg:gmres", None),
    ("linear.lgmres", "scipy.sparse.linalg:lgmres", None),
    ("solver.newton", "pmcgraph.solver:newton_solve", _newton_info),
    ("solver.continuation", "pmcgraph.solver:continuation_solve",
     _continuation_info),
    ("solver.radial", "pmcgraph.solver:radial_shoot", None),
    ("conditions.eval", "pmcgraph.conditions:CurvatureField.eval", None),
    ("conditions.grad_eval", "pmcgraph.conditions:CurvatureField.grad_eval",
     None),
    ("conditions.evaluate", "pmcgraph.conditions:evaluate_conditions", None),
    ("barrier.quad", "pmcgraph.barrier:profile_height_integral", None),
    ("barrier.profile", "pmcgraph.barrier:profile_for_annulus", None),
    ("geometry.annulus_fit", "pmcgraph.geometry:annulus_fit", None),
    ("geometry.boundary_curvature",
     "pmcgraph.geometry:boundary_mean_curvature", None),
    ("verify.richardson", "pmcgraph.verify:richardson_error_estimate", None),
    ("verify.estimate", "pmcgraph.verify:estimate_report", None),
    ("verify.blowup", "pmcgraph.verify:gradient_blowup_example", None),
    ("ioutil.dump_json", "pmcgraph.ioutil:dump_json", _bytes_info(1)),
    ("ioutil.write_csv", "pmcgraph.ioutil:write_csv", _bytes_info(0)),
]


class Tracer:
    """Records spans from installed hooks; ``op`` tags the current operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.unmeasured = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, annotate=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.name = name
            span.parent = stack[-1] if stack else None
            span.op = self.op
            span.status = "ok"
            span.info = None
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.status = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if annotate is not None:
                    try:
                        span.info = annotate(args, kwargs, result)
                    except (AttributeError, TypeError, ValueError,
                            IndexError, KeyError, OSError):
                        pass  # the call's shape changed; keep the timing

        return traced

    def install(self):
        for name, target, annotate in HOOKS:
            if not self._install_one(name, target, annotate):
                self.unmeasured.append(name)

    def _install_one(self, name, target, annotate):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        wrapper = self.wrap(name, original, annotate)
        self._patch(owner, attr, wrapper)
        if inspect.isclass(owner):
            return True
        # names bound by `from module import fn` elsewhere in the package
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "pmcgraph"
                                    or mod_name.startswith("pmcgraph.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)
        return True

    def _patch(self, owner, attr, value):
        # an inherited method has no entry of its own and is deleted again
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
