"""Solvability and nonexistence checks for the zero-boundary-value problem.

Each check compares the curvature magnitude against a geometric bound and
records (name, bound, actual, verdict) in a machine-readable ledger.  The
sufficient smallness conditions use strict inequalities, the necessary
conditions (inscribed disc, boundary mean convexity) allow equality.

Verdict aggregation:

* existence is reported as guaranteed only when the annulus smallness
  check (or the convex-strip check) passes, the curvature is nondecreasing
  in the height variable, and the domain metrics are exact (bitmap domains
  only carry approximate metrics);
* a failed inscribed-disc comparison means no solution can exist;
* anything else is honestly indeterminate.

The boundary mean-convexity inequality is the classical requirement for
solvability under *all* boundary data; with zero boundary values it is
informational and recorded without affecting the overall verdict (the
whole point of the annulus results is that it may fail there).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import barrier
from .errors import ParameterError
from .ioutil import dump_json

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

EXISTENCE_GUARANTEED = "existence-guaranteed"
NECESSARY_VIOLATED = "necessary-condition-violated"
INDETERMINATE = "indeterminate"

#: CLI exit codes keyed by overall verdict.
EXIT_CODES = {EXISTENCE_GUARANTEED: 0, NECESSARY_VIOLATED: 2, INDETERMINATE: 3}


@lru_cache(maxsize=None)
def unit_ball_volume(dim):
    """Volume of the n-dimensional unit ball, pi^(n/2) / Gamma(n/2 + 1)."""
    if not isinstance(dim, int) or dim < 1:
        raise ParameterError(f"dimension must be a positive integer, got {dim!r}")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    bound: float
    actual: float
    verdict: str
    citation: str

    def __post_init__(self):
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "actual", float(self.actual))

    def as_dict(self):
        return {
            "name": self.name,
            "bound": self.bound,
            "actual": self.actual,
            "verdict": self.verdict,
            "citation": self.citation,
        }


@dataclass
class ConditionReport:
    """Pass/fail ledger of all solvability and nonexistence checks."""

    checks: list = field(default_factory=list)
    overall: str = INDETERMINATE
    notes: list = field(default_factory=list)

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def exit_code(self):
        return EXIT_CODES[self.overall]

    def as_dict(self):
        return {
            "overall": self.overall,
            "checks": [c.as_dict() for c in self.checks],
            "notes": list(self.notes),
        }

    def write_json(self, path):
        dump_json(self.as_dict(), path)


#: the heights z over which ``check`` samples H(x, z)
CHECK_SLAB = (-1.0, 1.0)

# Central-difference step for fields without a gradient (scaled by
# max(1, |z|) in z).
_FD_STEP = 1e-6


class CurvatureField:
    """Prescribed curvature H(x, z) with its gradient and sampled bounds.

    ``func(points, z)`` must broadcast over numpy arrays: ``points`` has
    shape (..., spatial_dim) and ``z`` shape (...).  ``grad(points, z)``
    returns (spatial gradient (..., spatial_dim), dH/dz (...)); when it is
    not supplied, central finite differences are used.

    monotone  asserted dH/dz >= 0 (verified by sampling where needed)
    constant  set when the field is a constant, enabling the comparisons
              that are only meaningful for constant curvature
    z_slope   set when the field has the form H(x, z) = H(x) + s z: ``hz``
              is then s, with no evaluation (a constant is the case s = 0)
    spatial   the z-independent part ``spatial(points)`` of such a field,
              with ``func(points, z) == spatial(points) + z_slope * z``;
              :meth:`on_nodes` evaluates it once at a solve's nodes
    """

    def __init__(self, func, grad=None, monotone=None, constant=None,
                 z_slope=None, spatial=None):
        self._func = func
        self._grad = grad
        self.monotone = monotone
        self.constant = constant
        self.z_slope = z_slope
        self._spatial = spatial

    @classmethod
    def from_constant(cls, value):
        value = float(value)
        if not math.isfinite(value):
            raise ParameterError(f"curvature must be finite, got {value!r}")

        def func(points, z):
            return np.full(np.broadcast_shapes(np.shape(points)[:-1],
                                               np.shape(z)), value)

        def grad(points, z):  # grad_eval passes arrays
            shape = np.broadcast_shapes(points.shape[:-1], z.shape)
            return np.zeros(shape + (points.shape[-1],)), np.zeros(shape)

        return cls(func, grad=grad, monotone=True, constant=value,
                   z_slope=0.0)

    @property
    def is_constant(self):
        return self.constant is not None

    def eval(self, points, z):
        """H(points, z); a complex ``z`` keeps its imaginary part."""
        return np.asarray(self._func(np.asarray(points, dtype=float),
                                     np.asarray(z)))

    def grad_eval(self, points, z):
        points = np.asarray(points, dtype=float)
        z = np.asarray(z, dtype=float)
        if self._grad is not None:
            gx, gz = self._grad(points, z)
            return np.asarray(gx, dtype=float), np.asarray(gz, dtype=float)
        gz = self._central_hz(points, z)
        gx = np.empty(np.broadcast_shapes(points.shape[:-1], z.shape) + (points.shape[-1],))
        for k in range(points.shape[-1]):
            dp = np.zeros_like(points)
            dp[..., k] = _FD_STEP
            gx[..., k] = ((self.eval(points + dp, z) - self.eval(points - dp, z))
                          / (2.0 * _FD_STEP))
        return gx, gz

    def _central_hz(self, points, z):
        step = _FD_STEP * np.maximum(1.0, np.abs(z))
        return (self.eval(points, z + step) - self.eval(points, z - step)) / (2.0 * step)

    def hz(self, points, z):
        """dH/dz, equal to ``grad_eval(points, z)[1]``: ``z_slope`` when it
        is set; otherwise without an analytic gradient only the z
        difference is taken (two field evaluations)."""
        if self.z_slope is not None:
            return np.full(np.broadcast_shapes(np.shape(points)[:-1],
                                               np.shape(z)), self.z_slope)
        if self._grad is not None:
            return self.grad_eval(points, z)[1]
        return self._central_hz(np.asarray(points, dtype=float),
                                np.asarray(z, dtype=float))

    def on_nodes(self, nodes):
        """This field, with its z-independent part evaluated once at
        ``nodes``, an array of points.

        ``eval`` at that same array object then adds ``z_slope * z`` to
        the stored values, bitwise what the full evaluation gives, and at
        any other points evaluates in full.  A field without a ``spatial``
        part is returned as it is.  The stored values live as long as the
        returned field, so a solve keeps it for one Newton run or one
        homotopy and drops it with that run.
        """
        if self._spatial is None:
            return self
        base = self._spatial(nodes)
        slope, func = self.z_slope, self._func

        def at_nodes(points, z):
            if points is nodes:
                return base + slope * z
            return func(points, z)

        fixed = copy.copy(self)
        fixed._func, fixed._spatial = at_nodes, None
        return fixed


def sample_field_bounds(field, points, z_values):
    """Sampled sup of |H(x,0)|, sup of |H|+|grad H|, and min dH/dz on a slab."""
    points = np.asarray(points, dtype=float)
    z_values = np.asarray(z_values, dtype=float)
    h_sup0 = float(np.max(np.abs(field.eval(points, np.zeros(points.shape[:-1])))))
    h0 = 0.0
    min_hz = math.inf
    for z in z_values:
        zz = np.full(points.shape[:-1], float(z))
        hv = field.eval(points, zz)
        gx, gz = field.grad_eval(points, zz)
        gnorm = np.sqrt(np.sum(gx**2, axis=-1) + gz**2)
        h0 = max(h0, float(np.max(np.abs(hv) + gnorm)))
        min_hz = min(min_hz, float(np.min(gz)))
    return h_sup0, h0, min_hz


@dataclass(frozen=True)
class GradientBoundInputs:
    """Sampled hypothesis data for the global gradient estimate.

    ``h0`` bounds |H| + |grad H| on the slab |z| <= M and ``monotone_ok``
    records whether the sampled dH/dz stayed nonnegative; both are
    informational and attached to solve reports.
    """

    h0: float
    monotone_ok: bool
    min_hz: float
    slab_height: float

    def as_dict(self):
        return {"h0": self.h0, "monotone_ok": self.monotone_ok,
                "min_hz": self.min_hz, "slab_height": self.slab_height}


def domain_sample_points(domain, target=400):
    """About ``target`` points of a lattice over the bounding box, those
    inside the domain: where fields are sampled."""
    xmin, ymin, xmax, ymax = domain.bbox()
    side = int(math.ceil(math.sqrt(target)))
    xs = np.linspace(xmin, xmax, side + 2)[1:-1]
    ys = np.linspace(ymin, ymax, side + 2)[1:-1]
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X, Y], axis=-1).reshape(-1, 2)
    inside = domain.contains(pts)
    if not inside.any():
        raise ParameterError("no sample points fall inside the domain")
    return pts[inside]


def verify_gradient_bound_inputs(hfield, M, domain=None, points=None):
    """Sample the slab |z| <= M at 21 heights to bound |H| + |grad H| and
    check dH/dz >= 0."""
    if M <= 0.0:
        raise ParameterError("slab height M must be positive")
    if points is None:
        if domain is None:
            raise ParameterError("pass a domain or explicit sample points")
        points = domain_sample_points(domain)
    zs = np.linspace(-float(M), float(M), 21)
    _, h0, min_hz = sample_field_bounds(hfield, points, zs)
    return GradientBoundInputs(h0=h0, monotone_ok=min_hz >= -1e-12,
                               min_hz=min_hz, slab_height=float(M))


def check_annulus_smallness(dim, r, d, h_sup0):
    """Strict smallness of h against 2 (2r)^(n-1) / ((2r+d)^n - (2r)^n).

    Passing it (for a domain with exterior-sphere radius r fitted into the
    annulus of gap d, with nondecreasing H) guarantees a unique solution
    with zero boundary values.
    """
    if r <= 0.0 or d <= 0.0:
        raise ParameterError("need r > 0 and d > 0")
    bound = barrier.annulus_height_bound(dim, r, r + d)
    verdict = PASS if h_sup0 < bound else FAIL
    return CheckResult(
        "annulus_smallness", bound, h_sup0, verdict,
        "curvature magnitude vs nodoid barrier bound for the fitted annulus "
        "(sufficient, strict)",
    )


def check_volume_smallness(dim, volume, h_sup0):
    """Strict smallness of h against (omega_n / |domain|)^(1/n).

    An alternative sufficient height bound; it does not control boundary
    gradients, so it never certifies existence here on its own.
    """
    if volume <= 0.0:
        raise ParameterError("need volume > 0")
    bound = (unit_ball_volume(dim) / volume) ** (1.0 / dim)
    verdict = PASS if h_sup0 < bound else FAIL
    return CheckResult(
        "volume_smallness", bound, h_sup0, verdict,
        "curvature magnitude vs unit-ball/volume bound (alternative height "
        "bound, informational)",
    )


def check_strip_smallness(dim, strip_width_d, h_sup0):
    """Strict smallness of h against 2/(n d) for convex domains in a strip.

    The large-exterior-sphere limit of the annulus bound; only meaningful
    for convex domains.  ``strip_width_d`` is the domain's
    :func:`pmcgraph.geometry.strip_width`, which is None exactly when the
    domain is not convex: the check is then not applicable.
    """
    if strip_width_d is None:
        return CheckResult(
            "strip_smallness", math.nan, h_sup0, NOT_APPLICABLE,
            "strip bound applies to convex domains only",
        )
    if strip_width_d <= 0.0:
        raise ParameterError("need strip width > 0")
    bound = 2.0 / (dim * strip_width_d)
    verdict = PASS if h_sup0 < bound else FAIL
    return CheckResult(
        "strip_smallness", bound, h_sup0, verdict,
        "curvature magnitude vs cylinder bound 2/(n d) over the domain "
        "width (sufficient for convex domains, strict)",
    )


def check_inscribed_disc(dim, rho, h):
    """Necessary condition h <= 1/rho for constant curvature magnitude h.

    A graph of constant mean curvature h over a domain containing a disc
    of radius rho forces h <= 1/rho (comparison with spherical caps);
    failing this check proves nonexistence.
    """
    if rho <= 0.0:
        raise ParameterError("need rho > 0")
    if h < 0.0:
        raise ParameterError("need h >= 0")
    bound = 1.0 / rho
    verdict = PASS if h <= bound else FAIL
    return CheckResult(
        "inscribed_disc", bound, h, verdict,
        "constant curvature vs reciprocal inscribed-disc radius "
        "(necessary, non-strict)",
    )


def inscribed_disc_row(dim, rho, constant_h):
    """The ``inscribed_disc`` row of a report: :func:`check_inscribed_disc`
    of ``|constant_h|``, or not applicable when the curvature is not
    constant (``constant_h`` None)."""
    if constant_h is None:
        return CheckResult(
            "inscribed_disc", 1.0 / rho, math.nan, NOT_APPLICABLE,
            "inscribed-disc comparison applies to constant curvature only")
    return check_inscribed_disc(dim, rho, abs(constant_h))


def check_mean_convexity(dim, boundary_samples, field, z_range):
    """Pointwise |H(x,z)| <= (n-1)/n * Hhat(x) on sampled boundary points,
    at 33 heights z spanning ``z_range``.

    This is the classical necessary condition for solvability under all
    boundary data; with zero boundary values it is informational only.
    ``boundary_samples`` is a list of (point, Hhat) pairs.
    """
    if not boundary_samples:
        raise ParameterError("boundary sample set is empty")
    z_lo, z_hi = z_range
    zs = np.linspace(float(z_lo), float(z_hi), 33)
    pts = np.asarray([np.asarray(p, dtype=float) for p, _ in boundary_samples])
    hhat = np.asarray([hh for _, hh in boundary_samples], dtype=float)
    factor = (dim - 1.0) / dim
    worst = -math.inf
    for z in zs:
        hv = np.abs(field.eval(pts, np.full(len(pts), z)))
        worst = max(worst, float(np.max(hv - factor * hhat)))
    verdict = PASS if worst <= 1e-14 else FAIL
    return CheckResult(
        "mean_convexity", 0.0, worst, verdict,
        "max over boundary samples of |H| - (n-1)/n * boundary mean "
        "curvature (necessary for all boundary data; informational for "
        "zero boundary data)",
    )


def nonexistence_height_bound(dim, epsilon, outer=1.0):
    """Upper bound B(eps) on the height of any zero-boundary CMC graph
    over the annulus {eps < |x| < outer}.

    B(eps) = eps * arcosh(outer/eps) in the plane and
    eps * integral_1^(outer/eps) dtau / sqrt(tau^(2n-2) - 1) in general:
    the height at ``outer`` of the catenoid with neck ``eps``
    (:func:`pmcgraph.barrier.profile_height_integral`).  B(eps) -> 0 as
    eps -> 0, which is what rules out solutions on thin annuli.  The bound
    only uses the radicand feasibility at the inner rim, so it holds for
    every curvature magnitude.
    """
    if not (0.0 < epsilon < outer):
        raise ParameterError(f"epsilon must lie in (0, {outer}), got {epsilon!r}")
    if dim == 2:
        return epsilon * math.acosh(outer / epsilon)
    return barrier.profile_height_integral(dim, 0.0, epsilon ** (dim - 1),
                                           epsilon, outer)


def evaluate_conditions(dim, h_sup0, *, annulus_r=None, annulus_d=None,
                        volume=None, strip_width=None, inscribed_rho=None,
                        constant_h=None, boundary_samples=None, field=None,
                        monotone_ok=None, metrics_exact=True):
    """Aggregate all applicable checks into a :class:`ConditionReport`.

    The caller (normally the pipeline in :mod:`pmcgraph.pipeline`) supplies
    the geometric quantities; anything passed as ``None`` is skipped with a
    not-applicable row.  Mean convexity samples H over ``CHECK_SLAB``.
    """
    report = ConditionReport()

    if annulus_r is not None and annulus_d is not None:
        report.checks.append(check_annulus_smallness(dim, annulus_r, annulus_d, h_sup0))
    else:
        report.checks.append(CheckResult(
            "annulus_smallness", math.nan, h_sup0, NOT_APPLICABLE,
            "no finite exterior-sphere annulus fit available"))

    if volume is not None:
        report.checks.append(check_volume_smallness(dim, volume, h_sup0))

    report.checks.append(check_strip_smallness(dim, strip_width, h_sup0))

    if inscribed_rho is not None:
        report.checks.append(inscribed_disc_row(dim, inscribed_rho, constant_h))

    if boundary_samples and field is not None:
        report.checks.append(check_mean_convexity(dim, boundary_samples, field,
                                                  CHECK_SLAB))
    else:
        report.checks.append(CheckResult(
            "mean_convexity", 0.0, math.nan, NOT_APPLICABLE,
            "no boundary curvature samples available for this domain kind"))

    if monotone_ok is not None:
        report.checks.append(CheckResult(
            "curvature_monotone", 0.0, 0.0 if monotone_ok else -1.0,
            PASS if monotone_ok else FAIL,
            "dH/dz >= 0 over the working slab (required for the existence "
            "guarantee and uniqueness)"))

    def verdict_of(name):
        try:
            return report.check(name).verdict
        except KeyError:
            return NOT_APPLICABLE

    if verdict_of("inscribed_disc") == FAIL:
        report.overall = NECESSARY_VIOLATED
    else:
        smallness_ok = (verdict_of("annulus_smallness") == PASS
                        or verdict_of("strip_smallness") == PASS)
        monotone_fine = verdict_of("curvature_monotone") != FAIL
        if smallness_ok and monotone_fine and metrics_exact:
            report.overall = EXISTENCE_GUARANTEED
        else:
            report.overall = INDETERMINATE
            if smallness_ok and not metrics_exact:
                report.notes.append(
                    "domain metrics are approximate (bitmap domain); "
                    "existence is not certified")
    return report
