"""The config contract of ``check``, ``solve`` and ``verify``, fuzzed.

Configs are drawn from a small grammar: every domain kind, both curvature
forms, every boundary form and the settings each command reads, on grids
small enough to solve in milliseconds.  A drawn config may carry one
malformed value (NaN, an infinity, a negative length, a string or another
wrong type) in an entry its command reads, or a misspelt key.  Or one of
its lengths may be finite but huge (1e200 or 1e300): that is no malformed
value, and it may end in a verdict or a refusal.  The contract:

* every run ends in exit 0, 2, 3 or 64, never in an exception (an
  ``OverflowError`` from a huge length, say);
* a malformed value or an unknown key exits 64 before any output is
  written;
* exit 0 from ``solve`` means a residual within the config's tolerance.

A solve may stall (exit 3); that is an allowed outcome, not one the
grammar avoids.  On the pentagon at the grammar's spacings only the
over-curved H = 1.2 stalls, with zero and nonzero Dirichlet data alike.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pmcgraph.cli import main

NONFINITE = [math.nan, math.inf, -math.inf]
WRONG_TYPES = ["0.5", "abc", True, [0.5], {"value": 0.5}]
BAD_NUMBER = NONFINITE + WRONG_TYPES + [None]
BAD_POSITIVE = BAD_NUMBER + [-1.0, 0.0]
BAD_COUNT = BAD_POSITIVE + [2.5]
# None stands for "absent" in these two entries, so it is no bad value
BAD_OPTIONAL = NONFINITE + WRONG_TYPES + [-1.0, 0.0]
BAD_BOUNDARY = NONFINITE + WRONG_TYPES
BAD_BIT = NONFINITE + ["x", "1", [1], None, -1, 0.5, 2]
BAD_POINT = [[0.0], [0.0, 0.0, 5.0], "00", math.nan]
# finite lengths whose powers and squares leave the float range, and the
# entries that may take them
HUGE = [1e200, 1e300]
LENGTHS = {("domain", "r_in"), ("domain", "r_out"), ("domain", "radius"),
           ("domain", "cell_size"), ("annulus_r",), ("spacing",)}

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
PENTAGON = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.5], [1.0, 2.5], [0.0, 1.5]]
# a disc of radius 3.5 cells on a 9 x 9 bitmap
BITMAP = [[int((i - 4) ** 2 + (j - 4) ** 2 <= 12) for i in range(9)]
          for j in range(9)]


def _domain(draw, slots):
    kind = draw(st.sampled_from(["annulus", "disc", "convex_polygon",
                                 "grid_mask"]))
    slots.append((("domain", "kind"), ["hexagon", 5, None]))
    if kind == "annulus":
        slots += [(("domain", "r_in"), BAD_POSITIVE),
                  (("domain", "r_out"), BAD_POSITIVE)]
        return {"kind": kind, "r_in": draw(st.sampled_from([0.5, 1.0])),
                "r_out": 2.0}
    if kind == "disc":
        slots += [(("domain", "radius"), BAD_POSITIVE),
                  (("domain", "center", 0), BAD_NUMBER),
                  (("domain", "center"), BAD_POINT)]
        center = draw(st.sampled_from([(0.0, 0.0), (0.5, -0.25)]))
        return {"kind": kind, "radius": draw(st.sampled_from([0.75, 1.0])),
                "center": list(center)}
    if kind == "convex_polygon":
        slots.append((("domain", "vertices", 1, 0), BAD_NUMBER))
        vertices = draw(st.sampled_from([SQUARE, PENTAGON]))
        return {"kind": kind, "vertices": [list(v) for v in vertices]}
    slots += [(("domain", "cell_size"), BAD_POSITIVE),
              (("domain", "bitmap", 4, 4), BAD_BIT)]
    return {"kind": kind, "cell_size": 0.25,
            "bitmap": [list(row) for row in BITMAP]}


def _curvature(draw, slots):
    if draw(st.booleans()):
        slots.append((("curvature", "constant"), BAD_NUMBER))
        return {"constant": draw(st.sampled_from([-0.5, -0.3, 0.0, 0.2,
                                                  1.2]))}
    values = draw(st.lists(st.sampled_from([-0.3, -0.1, 0.0, 0.2]),
                           min_size=4, max_size=4))
    spec = {"table": {"x": [0.0, 2.0], "y": [0.0, 2.5],
                      "values": [values[:2], values[2:]]}}
    slots += [(("curvature", "table", "values", 0, 1), BAD_NUMBER),
              (("curvature", "table", "x", 1), BAD_NUMBER),
              (("curvature", "z_slope"), BAD_NUMBER)]
    z_slope = draw(st.sampled_from([None, 0.1, -0.05]))
    if z_slope is not None:
        spec["z_slope"] = z_slope
    return spec


def _boundary(draw, slots):
    form = draw(st.sampled_from(["zero", "number", "constant", "linear"]))
    if form == "zero":
        return None
    if form == "number":
        slots.append((("boundary",), BAD_BOUNDARY))
        return 0.2
    if form == "constant":
        slots.append((("boundary", "constant"), BAD_NUMBER))
        return {"constant": -0.1}
    slots += [(("boundary", "linear", 0), BAD_NUMBER),
              (("boundary", "linear"), [[1.0, 2.0], "abc", math.nan])]
    return {"linear": [0.3, -0.2, 0.1]}


@st.composite
def cases(draw):
    """(command, config, whether the config must be refused): at most one
    entry the command reads is malformed or huge, or a key is misspelt."""
    command = draw(st.sampled_from(["check", "solve", "verify"]))
    # (path, malformed values) of the entries ``command`` reads, and of
    # one misspelt key
    slots = []
    cfg = {"domain": _domain(draw, slots),
           "curvature": _curvature(draw, slots)}
    if draw(st.booleans()):
        cfg["annulus_r"] = draw(st.sampled_from([0.5, 3.0]))
    slots += [(("annulus_r",), BAD_OPTIONAL),
              (("anulus_r",), [0.5])]
    if command == "check":
        cfg["dim"] = draw(st.sampled_from([2, 3]))
        slots += [(("dim",), BAD_COUNT + [1]), (("samples",), BAD_COUNT)]
    else:
        boundary = _boundary(draw, slots)
        if boundary is not None:
            cfg["boundary"] = boundary
        cfg["spacing"] = draw(st.sampled_from([0.25, 0.5]))
        cfg["tol"] = draw(st.sampled_from([1e-10, 1e-8]))
        slots += [(("spacing",), BAD_POSITIVE), (("tol",), BAD_POSITIVE),
                  (("max_iters",), BAD_COUNT),
                  (("schedule",), [[0.0, 1.0], [0.5, 1.0]])]
    change = draw(st.sampled_from(["none", "malformed", "huge"]))
    if change == "malformed":
        path, values = draw(st.sampled_from(slots))
    elif change == "huge":
        path = draw(st.sampled_from([p for p, _ in slots if p in LENGTHS]))
        values = HUGE
    if change != "none":
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.sampled_from(values))
    return command, cfg, change == "malformed"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=cases())
def test_config_contract(case):
    command, cfg, refused = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main([command, "--config", str(path), "--out", str(out)])
        written = sorted(p.name for p in out.iterdir())
        if refused:
            assert code == 64, sink.getvalue()
            assert written == []
        else:
            assert code in (0, 2, 3, 64), sink.getvalue()
        if command == "solve" and code == 0:
            report = json.loads((out / "solve_report.json").read_text())
            assert report["residual_inf"] <= cfg["tol"]
