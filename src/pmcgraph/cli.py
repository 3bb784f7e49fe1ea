"""Command line front end.

Subcommands: barrier, check, solve, verify, nonexist, blowup.  All outputs
land under ``--out`` (CSV/JSON, plus a static SVG for profiles) and are
byte-identical across reruns of the same configuration.

Exit codes: 0 success / existence guaranteed, 2 condition failed /
nonexistence, 3 indeterminate / nonconvergence, 64 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import barrier, conditions, geometry, pipeline, verify
from .errors import (
    ContinuationFailureError,
    InfeasibleFitError,
    NoAdmissibleConstantError,
    ParameterError,
    config_key,
    json_number,
)
from .ioutil import dump_json, write_csv

EXIT_OK = 0
EXIT_CONDITION_FAILED = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64


def _svg_polyline(path, xs, ys, title, marks=()):
    """Static SVG plot of one curve with optional labeled vertical marks."""
    width, height, margin = 640, 420, 50.0
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = min(float(ys.min()), 0.0), float(ys.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{sy(0.0):.3f}" x2="{width - margin}" '
        f'y2="{sy(0.0):.3f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{margin}" '
        f'y2="{margin}" stroke="black" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="2"/>',
    ]
    for label, xv in marks:
        if x_lo <= xv <= x_hi:
            lines.append(
                f'<line x1="{sx(xv):.3f}" y1="{margin}" x2="{sx(xv):.3f}" '
                f'y2="{height - margin}" stroke="#aaaaaa" stroke-width="1" '
                f'stroke-dasharray="4 3"/>')
            lines.append(
                f'<text x="{sx(xv):.3f}" y="{height - margin + 16:.1f}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="12">{label}</text>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args):
    """The --config file's entries (none without one), plus ``_base_dir``
    for the paths they name.  A key outside ``CONFIG_KEYS`` exits 64,
    so a misspelt setting cannot silently fall back to its default."""
    if not getattr(args, "config", None):
        return {"_base_dir": "."}
    path = Path(args.config)
    try:
        cfg = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ParameterError(f"config {key!r}: unknown key; the keys "
                                 f"are {', '.join(CONFIG_KEYS)}")
    return {**cfg, "_base_dir": str(path.parent)}


def _domain_and_field(args, cfg):
    if "domain" in cfg:
        domain = geometry.domain_from_json(cfg["domain"], cfg["_base_dir"])
    elif getattr(args, "annulus", None):
        domain = geometry.Annulus(*args.annulus)
    elif getattr(args, "disc", None) is not None:
        domain = geometry.Disc(args.disc)
    else:
        raise ParameterError("no domain given (use --config, --annulus or --disc)")
    if "curvature" in cfg:
        field = pipeline.curvature_from_json(cfg["curvature"])
    elif getattr(args, "h", None) is not None:
        field = conditions.CurvatureField.from_constant(args.h)
    else:
        raise ParameterError("no curvature given (use --config or --h)")
    return domain, field


def cmd_barrier(args):
    out = _out_dir(args)
    try:
        profile = barrier.profile_for_annulus(args.dim, args.h, args.r, args.R)
    except NoAdmissibleConstantError:
        bound = barrier.annulus_height_bound(args.dim, args.r, args.R)
        print(f"no admissible barrier: h = {args.h} is not strictly below "
              f"the bound {bound!r} for r = {args.r}, R = {args.R}",
              file=sys.stderr)
        return EXIT_CONDITION_FAILED
    barrier.write_profile_csv(profile, out / "profile.csv", args.R,
                              num=args.points)
    params = barrier.profile_params(profile, outer=args.R)
    dump_json(params, out / "params.json")
    if args.svg:
        table = barrier.profile_table(profile, args.R, num=args.points)
        marks = [("r", profile.r), ("R", args.R)]
        if math.isfinite(profile.t0):
            marks.insert(1, ("t0", profile.t0))
        _svg_polyline(out / "profile.svg", table[:, 0], table[:, 1],
                      f"barrier profile (dim={profile.dim}, h={profile.h})",
                      marks)
    print(f"profile: a={profile.a!r} b={profile.b!r} t0={profile.t0!r} "
          f"C1={params['C1']!r} C2={params['C2']!r}")
    return EXIT_OK


def cmd_check(args):
    out = _out_dir(args)
    cfg = _load_config(args)
    domain, field = _domain_and_field(args, cfg)
    st = _settings({"dim": args.dim, **cfg}, _CHECK_SETTINGS)
    report = pipeline.conditions_for(
        domain, field, dim=st["dim"],
        annulus_r=st["annulus_r"], boundary_sample_count=st["samples"])
    report.write_json(out / "condition_report.json")
    for c in report.checks:
        print(f"{c.name}: {c.verdict} (bound={c.bound!r}, actual={c.actual!r})")
    print(f"overall: {report.overall}")
    return report.exit_code()


def _integer(value):
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _finite(convert):
    """``convert``, then a check that the value is finite."""
    def finite(value):
        value = convert(value)
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {value!r}")
        return value
    return finite


def _positive(convert):
    """``convert``, then a check that the value is finite and positive."""
    def positive(value):
        value = convert(value)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"must be positive and finite, got {value!r}")
        return value
    return positive


def _annulus_r(value):
    return None if value is None else _positive(json_number)(value)


def _dim(value):
    return barrier._check_dim(_integer(value))


# (config key, converter, default when the key is absent)
_SOLVE_SETTINGS = (("spacing", _positive(json_number), 0.05),
                   ("tol", _positive(json_number), 1e-10),
                   ("max_iters", _positive(_integer), 40),
                   ("annulus_r", _annulus_r, None))
_CHECK_SETTINGS = (("dim", _dim, 2),
                   ("annulus_r", _annulus_r, None),
                   ("samples", _positive(_integer), 256))
# The top-level keys of a config file.  One file serves check, solve and
# verify, so each command accepts the keys of all three.
CONFIG_KEYS = tuple(dict.fromkeys(
    ["domain", "curvature", "boundary"]
    + [key for key, _, _ in _SOLVE_SETTINGS + _CHECK_SETTINGS]))


def _settings(cfg, rows):
    """The settings of ``rows`` read from ``cfg``, each with its default;
    a malformed value exits 64 naming its key."""
    settings = {}
    for key, convert, default in rows:
        with config_key(key):
            settings[key] = convert(cfg[key]) if key in cfg else default
    return settings


def _write_stall_report(exc, domain, field, path):
    """``solve``'s and ``verify``'s report of a ContinuationFailureError.

    Its diagnostics gain ``check``'s ``inscribed_disc`` row: for a
    constant field, |H| against 1/rho, whose failure proves that no
    solution exists.
    """
    disc = conditions.inscribed_disc_row(
        pipeline.GRID_DIM, geometry.inscribed_disc_radius(domain),
        field.constant)
    dump_json({"status": "continuation-stalled", "stall_t": exc.stall_t,
               "diagnostics": {**exc.diagnostics,
                               "inscribed_disc": disc.as_dict()},
               "trace": exc.trace.as_dict()["steps"]}, path)


def _write_solve_report(outcome, ginputs, path):
    """``solve``'s report of a converged solve, with its trace's steps, the
    gradient hypotheses ``ginputs`` and the levels."""
    sol = outcome.solution
    rep = {"residual_inf": sol.residual_inf, "sup_norm": sol.sup_norm,
           "sup_gradient_interior": sol.sup_gradient_interior,
           "sup_gradient_boundary": sol.sup_gradient_boundary,
           "newton_iters": sol.newton_iters, "homotopy_t": sol.homotopy_t,
           "n_dof": sol.grid.n_dof, "spacing": sol.grid.spacing}
    if sol.no_existence_guarantee:
        rep["no_existence_guarantee"] = sol.no_existence_guarantee
    dump_json({**rep, "trace": outcome.trace.as_dict()["steps"],
               "status": "converged", "gradient_hypotheses": ginputs.as_dict(),
               "levels": outcome.levels}, path)


def cmd_solve(args):
    out = _out_dir(args)
    cfg = _load_config(args)
    domain, field = _domain_and_field(args, cfg)
    st = _settings(cfg, _SOLVE_SETTINGS)
    boundary = pipeline.boundary_from_json(cfg.get("boundary"))
    try:
        outcome = pipeline.solve_domain(
            domain, field, st["spacing"], boundary=boundary, tol=st["tol"],
            max_iters=st["max_iters"])
    except ContinuationFailureError as exc:
        _write_stall_report(exc, domain, field, out / "solve_report.json")
        print(f"continuation stalled at t* = {exc.stall_t} (numerical; "
              f"see solve_report.json)", file=sys.stderr)
        return EXIT_INDETERMINATE
    sol = outcome.solution
    sol.write_csv(out / "solution.csv")
    ginputs = pipeline.gradient_hypotheses(domain, field, sol,
                                           annulus_r=st["annulus_r"])
    _write_solve_report(outcome, ginputs, out / "solve_report.json")
    print(f"converged: residual_inf={sol.residual_inf!r} "
          f"sup|f|={sol.sup_norm!r}")
    return EXIT_OK


def cmd_verify(args):
    out = _out_dir(args)
    cfg = _load_config(args)
    domain, field = _domain_and_field(args, cfg)
    st = _settings(cfg, _SOLVE_SETTINGS)
    if pipeline.boundary_from_json(cfg.get("boundary")) not in (None, 0.0):
        raise ParameterError("verify checks zero-boundary solves only; use solve")
    path = out / "estimate_report.json"
    try:
        outcome = pipeline.verify_domain(
            domain, field, st["spacing"], annulus_r=st["annulus_r"],
            tol=st["tol"], max_iters=st["max_iters"])
    except ContinuationFailureError as exc:
        _write_stall_report(exc, domain, field, path)
        print(f"continuation stalled at t* = {exc.stall_t}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except NoAdmissibleConstantError as exc:
        dump_json({"status": "no-admissible-barrier", "message": str(exc)}, path)
        print(f"no admissible barrier: {exc}", file=sys.stderr)
        return EXIT_CONDITION_FAILED
    except InfeasibleFitError as exc:
        dump_json({"status": "no-annulus-fit", "message": str(exc)}, path)
        raise  # main names it and exits 3
    rep = outcome.report.as_dict()
    rep["status"] = "checked"
    rep["error_estimate"] = outcome.error_estimate
    rep["gradient_hypotheses"] = outcome.gradient_inputs.as_dict()
    rep["levels"] = outcome.levels
    dump_json(rep, path)
    outcome.solution.write_csv(out / "solution.csv")
    for c in outcome.report.checks:
        print(f"{c.name}: {c.verdict} (bound={c.bound!r}, actual={c.actual!r})")
    return EXIT_OK if outcome.report.passed() else EXIT_CONDITION_FAILED


def _parse_eps_list(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse epsilon list {text!r}")
    if not values:
        raise ParameterError("empty epsilon list")
    return values


def cmd_nonexist(args):
    out = _out_dir(args)
    if args.eps:
        eps_values = _parse_eps_list(args.eps)
    else:
        if not (0.0 < args.eps_min < args.eps_max < args.outer):
            raise ParameterError("need 0 < eps-min < eps-max < outer")
        eps_values = list(np.geomspace(args.eps_max, args.eps_min, args.num))
    rows = pipeline.nonexistence_sweep(args.dim, args.h, args.outer, eps_values)
    write_csv(out / "nonexist.csv", ["epsilon", "exists", "sup_p", "bound"],
              [(r["epsilon"], int(r["exists"]), r["sup_p"], r["bound"])
               for r in rows])
    for r in rows:
        state = f"exists, sup_p={r['sup_p']!r}" if r["exists"] else "nonexistent"
        print(f"epsilon={r['epsilon']!r}: {state} (bound={r['bound']!r})")
    # empirical threshold: bracket between the last existing and the first
    # nonexistent inner radius of the (descending) sweep
    summary = {"dim": args.dim, "h": args.h, "outer": args.outer,
               "flips": sum(1 for a, b in zip(rows, rows[1:])
                            if a["exists"] != b["exists"])}
    existing = [r["epsilon"] for r in rows if r["exists"]]
    missing = [r["epsilon"] for r in rows if not r["exists"]]
    if existing and missing:
        summary["eps_star_bracket"] = [max(missing), min(existing)]
        print(f"empirical threshold between {max(missing)!r} and "
              f"{min(existing)!r}")
    dump_json(summary, out / "nonexist_summary.json")
    return EXIT_OK


def cmd_blowup(args):
    out = _out_dir(args)
    eps_values = _parse_eps_list(args.eps)
    rows = verify.gradient_blowup_example(eps_values, samples=args.samples)
    verify.write_blowup_csv(rows, out / "blowup.csv")
    for r in rows:
        print(f"epsilon={r.epsilon!r}: fprime0={r.fprime0!r} "
              f"H_bound={r.h_bound!r} minHz={r.min_hz!r}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pmcgraph",
        description="Nodoid barriers, solvability checks and solvers for "
                    "the prescribed mean curvature Dirichlet problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barrier", help="construct a barrier profile")
    p.add_argument("--dim", type=_positive(int), default=2)
    p.add_argument("--h", type=_finite(float), required=True)
    p.add_argument("--r", type=_positive(float), required=True)
    p.add_argument("--R", type=_positive(float), required=True)
    p.add_argument("--points", type=_positive(int), default=201)
    p.add_argument("--svg", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_barrier)

    p = sub.add_parser("check", help="evaluate solvability conditions")
    p.add_argument("--config")
    p.add_argument("--annulus", type=_positive(float), nargs=2,
                   metavar=("R_IN", "R_OUT"))
    p.add_argument("--disc", type=_positive(float), metavar="RADIUS")
    p.add_argument("--h", type=_finite(float))
    p.add_argument("--dim", type=_positive(int), default=2)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_check)

    for name, fn in (("solve", cmd_solve), ("verify", cmd_verify)):
        p = sub.add_parser(name, help=f"{name} the Dirichlet problem on a grid")
        p.add_argument("--config")
        p.add_argument("--annulus", type=_positive(float), nargs=2,
                       metavar=("R_IN", "R_OUT"))
        p.add_argument("--disc", type=_positive(float), metavar="RADIUS")
        p.add_argument("--h", type=_finite(float))
        p.add_argument("--out", default=".")
        p.set_defaults(func=fn)

    p = sub.add_parser("nonexist", help="radial existence sweep over the "
                                        "inner radius")
    p.add_argument("--dim", type=_positive(int), default=2)
    p.add_argument("--h", type=_finite(float), required=True)
    p.add_argument("--outer", type=_positive(float), default=1.0)
    p.add_argument("--eps", help="comma-separated inner radii")
    p.add_argument("--eps-min", type=_positive(float), default=0.005)
    p.add_argument("--eps-max", type=_positive(float), default=0.5)
    p.add_argument("--num", type=_positive(int), default=8)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_nonexist)

    p = sub.add_parser("blowup", help="gradient blowup counterexample table")
    p.add_argument("--eps", default="1,0.1,0.01")
    p.add_argument("--samples", type=_positive(int), default=4001)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_blowup)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleFitError as exc:
        print(f"indeterminate: no annulus fit found: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
