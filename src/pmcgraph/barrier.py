"""Rotationally symmetric barrier profiles of constant mean curvature.

The graph ``f(x) = p(|x|)`` over an n-dimensional annulus has constant mean
curvature ``-h`` exactly when the generating curve satisfies the reduced
first-order equation

    t^(n-1) p'(t) / sqrt(1 + p'(t)^2) = c - h t^n,

with an integration constant ``c``.  Choosing ``c > 0`` selects the nodoid
branch (for ``h > 0``) or the catenoid (``h = 0``).  Solving for the slope,

    p'(t) = (c - h t^n) / sqrt(t^(2n-2) - (c - h t^n)^2),

which is defined where the radicand is positive, i.e. strictly between the
two positive zeros ``a < b`` of the radicand (``b = +inf`` for ``h = 0``).
The height is the integral of the slope anchored at ``p(r) = 0``:

    p(t) = integral_r^t (c - h s^n) / sqrt(s^(2n-2) - (c - h s^n)^2) ds.

For ``h > 0`` the profile rises from ``r`` to an apex ``t0 = (c/h)^(1/n)``
and falls beyond it, remaining positive at least up to ``2 t0 - r``.  The
apex height ``C1 = p(t0)`` and inner slope ``C2 = |p'(r)|`` are the
comparison constants that bound solutions of the zero-boundary-value
prescribed mean curvature problem over domains fitted into the annulus.

Heights over many radii come from one vectorized kernel,
:func:`cumulative_heights`.  Away from the square-root singularities at
``a`` and ``b`` the slope is analytic, so adaptive quadrature runs only up
to a few knots (64 panels, each at most half as wide as its distance from
``a``) and every other radius adds one array-wide 10-point Gauss-Legendre
sum from the knot below it.  Radii within the singular windows next to
``a`` or ``b`` keep the per-interval adaptive quadrature of
:func:`profile_height_integral`.  The accuracy guarantee is unchanged:
1e-9 absolute on every height.

All functions are pure and deterministic; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoAdmissibleConstantError,
    OutOfDomainError,
    ParameterError,
    QuadratureError,
)
from .ioutil import dump_json, write_csv

# Inputs this close (relatively) to a strict inequality are rejected:
# grazing cases carry no numerical meaning.
REL_STRICTNESS = 1e-12
# Fraction of the slope interval excluded right at the outer zero b.
B_GUARD_FRACTION = 1e-12
# Within this fraction of (b - a) of an endpoint the square-root
# singularity is removed by the substitution s = a + u^2 (or b - u^2).
_SING_WINDOW = 0.1
# Quadrature targets; the documented guarantee is 1e-9 absolute.
_QUAD_EPS = 1e-12
_HEIGHT_ABS_TOL = 1e-9
# Vectorized height kernel: knot panels across the smooth range, and the
# row block that bounds its (radii x nodes) temporaries.
_KERNEL_PANELS = 64
_KERNEL_BLOCK = 4096
# QUADPACK's 21-point Gauss-Kronrod rule QK21 on [-1, 1] (Piessens et al.,
# QUADPACK, Springer 1983), its constants rounded to doubles: the Kronrod
# abscissae from the outermost in and their weights, and the weights of
# the embedded 10-point Gauss-Legendre rule, whose abscissae are every
# second Kronrod one from the second on.
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849)
_WGK_CENTRE = 0.1494455540029169
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)
_GK_NODES = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
_GK_WEIGHTS = np.array(list(_WGK) + [_WGK_CENTRE] + list(reversed(_WGK)))
_GL_NODES = _GK_NODES[1::2]
_GL_WEIGHTS = np.array(list(_WG) + list(reversed(_WG)))
# adaptive quadrature: most panels, as QUADPACK's ``limit``
_QUAD_LIMIT = 300
_EPS = np.finfo(float).eps


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ParameterError(f"graph dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def _g1(dim, h, c, t):
    """Lower radicand factor: h t^n + t^(n-1) - c, zero at a."""
    return h * t**dim + t ** (dim - 1) - c


def _g1p(dim, h, c, t):
    return dim * h * t ** (dim - 1) + (dim - 1) * t ** (dim - 2)


def _g2(dim, h, c, t):
    """Upper radicand factor with sign flipped: h t^n - t^(n-1) - c, zero at b."""
    return h * t**dim - t ** (dim - 1) - c


def _g2p(dim, h, c, t):
    return dim * h * t ** (dim - 1) - (dim - 1) * t ** (dim - 2)


def _radicand(dim, h, c, t):
    # t^(2n-2) - (c - h t^n)^2 factored as g1 * (-g2); the factored form
    # stays accurate next to the zeros a and b.
    return _g1(dim, h, c, t) * (-_g2(dim, h, c, t))


def _bracketed_root(fn, dfn, lo, hi, scale):
    """Root of an increasing-through-zero function on [lo, hi].

    Bisection down to 1e-14 * scale followed by three clamped Newton
    polishing steps; the bracket makes bisection safe, Newton makes the
    final digits cheap.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo > 0.0 or fhi < 0.0:
        raise ParameterError("root bracket does not straddle a sign change")
    width_tol = 1e-14 * max(1.0, abs(scale))
    for _ in range(300):
        if hi - lo <= width_tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid <= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    fx = fn(x)
    for _ in range(3):
        d = dfn(x)
        if d == 0.0 or not math.isfinite(d):
            break
        step = fx / d
        x_new = x - step
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
        fx_new = fn(x_new)
        if abs(fx_new) > abs(fx):
            break
        x, fx = x_new, fx_new
    return x


def profile_zeros(dim, h, c):
    """Both positive zeros (a, b) of the slope radicand.

    ``a`` solves h a^n + a^(n-1) = c and ``b`` solves h b^n - b^(n-1) = c;
    for the catenoid (h = 0) there is only ``a = c^(1/(n-1))`` and ``b``
    is returned as ``+inf``.
    """
    dim = _check_dim(dim)
    if not (math.isfinite(c) and c > 0.0):
        raise ParameterError(
            f"the integration constant must be positive (nodoid branch), got c={c!r}"
        )
    if h < 0.0 or not math.isfinite(h):
        raise ParameterError(f"curvature magnitude h must be >= 0, got {h!r}")
    return _profile_zeros(dim, float(h), float(c))


@functools.lru_cache(maxsize=64)
def _profile_zeros(dim, h, c):
    # every height integral needs (a, b); the two root finds are pure, so
    # repeated (dim, h, c) are served from the cache, bit-identically
    if h == 0.0:
        return c ** (1.0 / (dim - 1)), math.inf

    hi_a = c ** (1.0 / (dim - 1))  # g1(hi_a) = h * hi_a^n > 0
    a = _bracketed_root(
        lambda t: _g1(dim, h, c, t),
        lambda t: _g1p(dim, h, c, t),
        0.0,
        hi_a,
        hi_a,
    )

    t0 = (c / h) ** (1.0 / dim)  # g2(t0) = -t0^(n-1) < 0
    hi_b = 2.0 * max(t0, 1.0)
    for _ in range(400):
        if _g2(dim, h, c, hi_b) > 0.0:
            break
        hi_b *= 2.0
    b = _bracketed_root(
        lambda t: _g2(dim, h, c, t),
        lambda t: _g2p(dim, h, c, t),
        t0,
        hi_b,
        hi_b,
    )
    return a, b


def apex(dim, h, c):
    """Radius where the profile slope vanishes, (c/h)^(1/n).

    The catenoid has no apex: for h = 0 the sentinel +inf is returned
    (its profile keeps rising over the whole domain).
    """
    dim = _check_dim(dim)
    if not (math.isfinite(c) and c > 0.0):
        raise ParameterError(f"the integration constant must be positive, got c={c!r}")
    if h == 0.0:
        return math.inf
    if h < 0.0 or not math.isfinite(h):
        raise ParameterError(f"curvature magnitude h must be >= 0, got {h!r}")
    return (c / h) ** (1.0 / dim)


def _slope_raw(t, dim, h, c):
    t = np.asarray(t, dtype=float)
    if h == 0.0 and dim == 2:
        # the planar catenoid's c / sqrt((t - c)(t + c)), the general
        # formula's operations at h = 0, in units of c's power of two:
        # the scaling is exact, so the bits are the same wherever the
        # radicand is a normal float, and t^2 stays in range at any radius
        e = math.frexp(c)[1]
        t, c = np.ldexp(t, -e), math.ldexp(c, -e)
        return c / np.sqrt((t - c) * (t + c))
    num = c - h * t**dim
    rad = _g1(dim, h, c, t) * (-_g2(dim, h, c, t))
    return num / np.sqrt(rad)


def slope(t, dim, h, c):
    """Profile slope p'(t); positive below the apex, negative above it.

    Accepts scalars or arrays.  Raises :class:`OutOfDomainError` when any
    point lies outside the open interval (a, b) where the radicand is
    positive.
    """
    a, b = profile_zeros(dim, h, c)
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= a) or np.any(arr >= b):
        raise OutOfDomainError(f"slope is defined on the open interval ({a}, {b})")
    out = _slope_raw(arr, dim, h, c)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _qk21(fn, lo, hi):
    """QUADPACK's QK21 on the panels [lo[k], hi[k]] (arrays), from one call
    of the vectorized ``fn``: per panel, the tuple (lo, hi, integral,
    error estimate, integral of |fn|)."""
    half = 0.5 * (hi - lo)
    f = fn((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES)
    resk = f @ _GK_WEIGHTS
    sums = np.array([resk, f[:, 1::2] @ _GL_WEIGHTS, np.abs(f) @ _GK_WEIGHTS,
                     np.abs(f - 0.5 * resk[:, None]) @ _GK_WEIGHTS]) * half
    panels = []
    for p_lo, p_hi, (val, gauss, resabs, resasc) in zip(
            lo.tolist(), hi.tolist(), sums.T.tolist()):
        err = abs(val - gauss)
        if resasc > 0.0:
            # QUADPACK's scaling of the Kronrod-Gauss difference
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        # and its roundoff floor
        panels.append((p_lo, p_hi, val, max(50.0 * _EPS * resabs, err),
                       resabs))
    return panels


def _quad(fn, lo, hi):
    """Integral of the vectorized ``fn`` over [lo, hi] and an estimate of
    its absolute error, aiming at max(_QUAD_EPS, _QUAD_EPS * |integral|).

    Globally adaptive QK21: while the summed error estimates miss the
    target, the panel with the largest one is bisected, up to
    ``_QUAD_LIMIT`` panels or until the error estimate is at the roundoff
    floor of the integral of |fn|.
    """
    if hi <= lo:
        return 0.0, 0.0
    width = hi - lo
    if width <= 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
        # roundoff-width segment: bisection would only thrash on it
        mid_val = float(fn(0.5 * (lo + hi)))
        return mid_val * width, abs(mid_val) * width
    panels = _qk21(fn, np.array([lo]), np.array([hi]))
    while True:
        total, err_total, abs_total = (sum(column) for column in
                                       list(zip(*panels))[2:])
        if (err_total <= _QUAD_EPS * max(1.0, abs(total))
                or err_total <= 100.0 * _EPS * abs_total
                or len(panels) >= _QUAD_LIMIT):
            break
        worst = max(panels, key=lambda panel: panel[3])
        p_lo, p_hi = worst[:2]
        mid = 0.5 * (p_lo + p_hi)
        if not p_lo < mid < p_hi:
            break
        panels.remove(worst)
        panels += _qk21(fn, np.array([p_lo, mid]), np.array([mid, p_hi]))
    return total, err_total


def _power_quotient(m, s, t):
    """(s^m - t^m) / (s - t) = s^(m-1) + t s^(m-2) + ... + t^(m-1), by
    Horner's rule: all terms are positive, so there is no cancellation as
    s approaches t, where it tends to m t^(m-1)."""
    acc = 1.0
    for k in range(1, m):
        acc = acc * s + t**k
    return acc


def _segment_near_a(dim, h, c, a, lo, hi):
    # substitute s = a + u^2: ds = 2u du removes the (s - a)^(-1/2) blowup,
    # and g1(s) / u^2 is g1's difference quotient at the zero a
    def psi(u):
        s = a + u * u
        num = c - h * s**dim
        q1 = h * _power_quotient(dim, s, a) + _power_quotient(dim - 1, s, a)
        return 2.0 * num / np.sqrt(q1 * (s ** (dim - 1) + num))

    return _quad(psi, math.sqrt(max(lo - a, 0.0)), math.sqrt(hi - a))


def _segment_near_b(dim, h, c, b, lo, hi):
    # substitute s = b - u^2 against the (b - s)^(-1/2) blowup; -g2(s) / u^2
    # is g2's difference quotient at the zero b
    def psi(u):
        s = b - u * u
        num = c - h * s**dim
        q2 = h * _power_quotient(dim, s, b) - _power_quotient(dim - 1, s, b)
        return 2.0 * num / np.sqrt((s ** (dim - 1) - num) * q2)

    return _quad(psi, math.sqrt(max(b - hi, 0.0)), math.sqrt(b - lo))


def _singular_cuts(a, b):
    """Ends of the singular windows: below cut_a and above cut_b the
    endpoint substitutions take over (cut_b = +inf for the catenoid)."""
    if math.isfinite(b):
        width = b - a
        return a + _SING_WINDOW * width, b - _SING_WINDOW * width
    return a * (1.0 + _SING_WINDOW), math.inf


def profile_height_integral(dim, h, c, t_lo, t_hi):
    """Integral of the slope between two radii inside [a, b].

    Handles the inverse-square-root endpoint singularities by substitution
    on subintervals within 10% of an endpoint; elsewhere plain adaptive
    quadrature is used.  The estimated absolute error is kept below 1e-9.
    """
    if t_hi < t_lo:
        raise ParameterError("integration bounds must be ordered")
    if t_hi == t_lo:
        return 0.0
    a, b = profile_zeros(dim, h, c)
    if t_lo < a - 1e-12 * max(1.0, a) or t_hi > b + 1e-12 * max(1.0, b):
        raise OutOfDomainError(f"integration range must lie inside [{a}, {b}]")

    cut_a, cut_b = _singular_cuts(a, b)
    total, err_total = 0.0, 0.0
    s0 = max(t_lo, a)
    if s0 < cut_a:
        s1 = min(t_hi, cut_a)
        val, err = _segment_near_a(dim, h, c, a, s0, s1)
        total += val
        err_total += err
        s0 = s1
    mid_hi = min(t_hi, cut_b)
    while s0 < mid_hi:
        # long catenoid tails (b = inf) are integrated in geometric chunks
        s1 = mid_hi if math.isfinite(b) else min(mid_hi, 4.0 * s0)
        val, err = _quad(lambda s: _slope_raw(s, dim, h, c), s0, s1)
        total += val
        err_total += err
        s0 = s1
    if s0 < t_hi:
        val, err = _segment_near_b(dim, h, c, b, s0, t_hi)
        total += val
        err_total += err

    if not err_total <= _HEIGHT_ABS_TOL:
        raise QuadratureError(
            f"profile quadrature error estimate {err_total:.3e} exceeds {_HEIGHT_ABS_TOL}"
        )
    return total


def _knot_grid(lo, hi, a):
    """Knots over [lo, hi]: 64 equal panels, each cut to at most half its
    distance from the singular zero ``a``.

    On the nodoid's smooth range the equal panels already meet the bound
    (and lie at least 8 panel widths from ``b``); on the catenoid's
    unbounded range it grades them geometrically.  Every panel thus lies
    at least two widths from the nearest singularity, where the error of
    the 10-point Gauss-Legendre rule (Bernstein-ellipse bound) is of
    order 1e-20 relative: far inside the 1e-9 guarantee.
    """
    step = (hi - lo) / _KERNEL_PANELS
    knots = [lo]
    while knots[-1] < hi:
        z = knots[-1]
        knots.append(min(hi, z + min(step, 0.5 * (z - a))))
    return np.array(knots)


def cumulative_heights(dim, h, c, r, ts):
    """Heights p(t) = integral_r^t p'(s) ds over a nondecreasing radius grid.

    Equals the running sum of :func:`profile_height_integral` over
    consecutive radii (to roundoff, within the same 1e-9 absolute
    guarantee) without one adaptive quadrature per radius:

    - radii inside the singular windows next to ``a`` or ``b`` are chained
      with ``profile_height_integral``, as are the knots of
      :func:`_knot_grid` across the smooth range between them;
    - every other radius adds one Gauss-Legendre sum over [knot below, t]
      to that knot's height, for all radii at once.

    When there are no more smooth-range radii than knots, the radii are
    the knots and the result is the running sum itself.  ``r`` need not be
    a profile's anchor: the radial shooting table anchors at r = a.
    """
    ts = np.asarray(ts, dtype=float)
    a, b = profile_zeros(dim, h, c)
    cut_a, cut_b = _singular_cuts(a, b)
    radii, where = np.unique(ts, return_inverse=True)
    n_a = int(np.searchsorted(radii, cut_a, side="left"))
    n_b = int(np.searchsorted(radii, cut_b, side="right"))
    smooth = radii[n_a:n_b]
    knots = smooth
    if smooth.size:
        grid = _knot_grid(smooth[0], smooth[-1], a)
        if grid.size < smooth.size:
            knots = grid
    chain = np.concatenate([radii[:n_a], knots, radii[n_b:]])
    starts = np.concatenate([[r], chain[:-1]])
    acc = np.cumsum([profile_height_integral(dim, h, c, lo, hi)
                     for lo, hi in zip(starts.tolist(), chain.tolist())])

    heights = np.empty(radii.size)
    heights[:n_a] = acc[:n_a]
    heights[n_b:] = acc[n_a + knots.size:]
    below = np.searchsorted(knots, smooth, side="right") - 1
    for i in range(0, smooth.size, _KERNEL_BLOCK):
        k = below[i:i + _KERNEL_BLOCK]
        base = knots[k]
        half = 0.5 * (smooth[i:i + _KERNEL_BLOCK] - base)
        nodes = (base + half)[:, None] + half[:, None] * _GL_NODES
        fill = np.sum(_slope_raw(nodes, dim, h, c) * _GL_WEIGHTS, axis=1) * half
        heights[n_a + i:n_a + i + k.size] = acc[n_a + k] + fill
    return heights[where]


@dataclass(frozen=True)
class NodoidProfile:
    """Parameters of one barrier profile.

    dim        ambient graph dimension n >= 2
    h          constant mean curvature magnitude, >= 0
    r          inner anchor radius, p(r) = 0
    c          integration constant of the reduced equation
    a, b       endpoints of the maximal slope domain (b = +inf for h = 0)
    t0         apex radius, p'(t0) = 0 (+inf for h = 0)
    r_usable   largest radius with guaranteed positivity, 2 t0 - r for h > 0
    """

    dim: int
    h: float
    r: float
    c: float
    a: float
    b: float
    t0: float
    r_usable: float

    def domain_limit(self):
        """Largest radius accepted by :meth:`height`."""
        if self.h == 0.0:
            return math.inf
        guard = B_GUARD_FRACTION * (self.b - self.a)
        return min(self.r_usable, self.b - guard)

    def slope(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr <= self.a) or np.any(arr >= self.b):
            raise OutOfDomainError(
                f"slope is defined on the open interval ({self.a}, {self.b})"
            )
        out = _slope_raw(arr, self.dim, self.h, self.c)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def height(self, t):
        """Profile height p(t) with p(r) = 0.

        The planar catenoid uses its closed form c*(arcosh(t/c) - arcosh(r/c)).
        """
        t = float(t)
        limit = self.domain_limit()
        tol = 1e-12 * max(1.0, self.r)
        if t < self.r - tol or t > limit * (1.0 + 1e-12):
            raise OutOfDomainError(
                f"height is defined for {self.r} <= t <= {limit}, got {t}"
            )
        t = min(max(t, self.r), limit)
        if t == self.r:
            return 0.0
        if self.h == 0.0 and self.dim == 2:
            return self.c * (math.acosh(t / self.c) - math.acosh(self.r / self.c))
        return profile_height_integral(self.dim, self.h, self.c, self.r, t)

    def heights(self, ts):
        """Heights p(t) over a nondecreasing radius grid.

        The planar catenoid uses its closed form; every other profile goes
        through the vectorized kernel :func:`cumulative_heights`: adaptive
        quadrature at a few knots and in the singular windows, one
        Gauss-Legendre sum per remaining radius.  Heights are accurate to
        1e-9 absolute.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1 or ts.size == 0 or np.any(np.diff(ts) < 0.0):
            raise ParameterError("radius grid must be one-dimensional and increasing")
        limit = self.domain_limit()
        if ts[0] < self.r - 1e-12 * max(1.0, self.r) or ts[-1] > limit * (1.0 + 1e-12):
            raise OutOfDomainError("radius grid leaves the profile domain")
        ts = np.clip(ts, self.r, limit)
        if self.h == 0.0 and self.dim == 2:
            return self.c * (np.arccosh(ts / self.c) - np.arccosh(self.r / self.c))
        return cumulative_heights(self.dim, self.h, self.c, self.r, ts)


def admissible_interval(dim, h, r):
    """Open interval of integration constants keeping a < r < t0.

    A radius whose powers pass the largest float leaves no constant to
    represent, which raises ``NoAdmissibleConstantError``.
    """
    dim = _check_dim(dim)
    if r <= 0.0:
        raise ParameterError(f"inner radius must be positive, got {r!r}")
    if h <= 0.0:
        raise ParameterError("the admissible interval is defined for h > 0")
    try:
        lo = h * r**dim
        return lo, lo + r ** (dim - 1)
    except OverflowError:
        raise NoAdmissibleConstantError(
            f"r^{dim} overflows for r={r}: no integration constant "
            f"for h={h}") from None


def make_profile(dim, h, r, c):
    """Construct a validated profile from its raw parameters."""
    dim = _check_dim(dim)
    if r <= 0.0 or not math.isfinite(r):
        raise ParameterError(f"inner radius must be positive, got {r!r}")
    if h < 0.0 or not math.isfinite(h):
        raise ParameterError(f"curvature magnitude h must be >= 0, got {h!r}")
    if h == 0.0:
        limit = r ** (dim - 1)
        if not (0.0 < c < limit * (1.0 - REL_STRICTNESS)):
            raise ParameterError(
                f"catenoid constant must satisfy 0 < c < r^(n-1) = {limit}, got {c!r}"
            )
        a, b = profile_zeros(dim, h, c)
        return NodoidProfile(dim, h, r, c, a, b, math.inf, math.inf)
    lo, hi = admissible_interval(dim, h, r)
    gap = hi - lo
    if not (lo + REL_STRICTNESS * gap < c < hi - REL_STRICTNESS * gap):
        raise ParameterError(
            f"integration constant must lie strictly inside ({lo}, {hi}), got {c!r}"
        )
    a, b = profile_zeros(dim, h, c)
    t0 = apex(dim, h, c)
    if not (a < r < t0 < b):
        raise ParameterError(
            f"inconsistent profile ordering a={a}, r={r}, t0={t0}, b={b}")
    return NodoidProfile(dim, h, r, c, a, b, t0, 2.0 * t0 - r)


def usable_radius(dim, h, r, c):
    """Largest radius with guaranteed profile positivity, 2 (c/h)^(1/n) - r.

    The closed admissible interval is accepted here: the formula extends
    continuously to the endpoints, where it returns the limiting values
    (r at the lower end, the supremum at the upper end).
    """
    dim = _check_dim(dim)
    if h <= 0.0:
        raise ParameterError("usable_radius is defined for h > 0")
    lo, hi = admissible_interval(dim, h, r)
    if not (lo <= c <= hi):
        raise ParameterError(
            f"integration constant must lie inside [{lo}, {hi}], got {c!r}"
        )
    return 2.0 * (c / h) ** (1.0 / dim) - r


def annulus_height_bound(dim, r, R):
    """Supremum of curvature magnitudes admitting a barrier over [r, R].

    Equals 2 (2r)^(n-1) / ((R + r)^n - (2r)^n); a profile reaching R exists
    exactly for h strictly below this value.  Divided through by (2r)^n it
    is 1 / (r ((1 + t)^n - 1)) with t = (R - r) / (2r), and (1 + t)^n - 1 is
    summed as its binomial series: positive terms, so no cancellation, and
    products only, so a huge R gives a bound of 0 rather than an overflow.
    """
    dim = _check_dim(dim)
    if r <= 0.0 or R <= r:
        raise ParameterError("need 0 < r < R")
    t = (R - r) / (2.0 * r)
    growth = 0.0  # (1 + t)^n - 1 by Horner's rule
    for k in range(dim, 0, -1):
        growth = (growth + math.comb(dim, k)) * t
    return 1.0 / (r * growth)


def select_c(dim, h, r, R):
    """Pick an integration constant whose usable radius covers R.

    Any constant with usable radius >= R would do; the midpoint between
    the bisection solution of ``usable_radius(c) = R`` and the supremum of
    the admissible interval is returned, keeping a positive margin against
    both the positivity constraint and the degenerate upper limit.  An
    annulus only a few ulps wide can leave no float constant whose computed
    usable radius reaches R; that raises ``NoAdmissibleConstantError`` too.
    """
    dim = _check_dim(dim)
    if r <= 0.0 or R <= r:
        raise ParameterError("need 0 < r < R")
    if h < 0.0 or not math.isfinite(h):
        raise ParameterError(f"curvature magnitude h must be >= 0, got {h!r}")
    if h == 0.0:
        return 0.5 * r ** (dim - 1)
    bound = annulus_height_bound(dim, r, R)
    if h >= bound * (1.0 - REL_STRICTNESS):
        raise NoAdmissibleConstantError(
            f"h={h} is not strictly below the admissible bound {bound} "
            f"for r={r}, R={R}"
        )
    lo, hi = admissible_interval(dim, h, r)

    def gap(c):
        return 2.0 * (c / h) ** (1.0 / dim) - r - R

    c_lo, c_hi = lo, hi
    # gap(lo) = r - R < 0 and gap(hi) > 0 thanks to the bound check
    for _ in range(200):
        if c_hi - c_lo <= 1e-15 * hi:
            break
        mid = 0.5 * (c_lo + c_hi)
        if gap(mid) <= 0.0:
            c_lo = mid
        else:
            c_hi = mid
    c = 0.5 * (0.5 * (c_lo + c_hi) + hi)
    if gap(c) < 0.0:
        raise NoAdmissibleConstantError(
            f"no constant in floating point gives a usable radius of at "
            f"least R={R} for h={h}, r={r}")
    return c


def profile_for_annulus(dim, h, r, R):
    """Barrier profile covering the annulus radii [r, R]."""
    return make_profile(dim, h, r, select_c(dim, h, r, R))


def barrier_constants(profile, outer=None):
    """Comparison constants (C1, C2) of a profile.

    C1 is the maximal profile height (the apex height for h > 0, the
    height at ``outer`` for the monotone catenoid) and C2 the inner slope
    magnitude |p'(r)|.  Solutions with zero boundary data over a domain
    fitted into the annulus satisfy sup|f| <= C1 and boundary gradients
    <= C2.
    """
    if profile.h > 0.0:
        if outer is not None and outer > profile.r_usable * (1.0 + 1e-12):
            raise ParameterError(
                f"outer radius {outer} exceeds the usable radius {profile.r_usable}"
            )
        c1 = profile.height(profile.t0)
    else:
        if outer is None:
            raise ParameterError(
                "the catenoid profile is increasing; pass the outer radius "
                "at which the height bound is needed"
            )
        c1 = profile.height(float(outer))
    c2 = abs(profile.slope(profile.r))
    return c1, c2


def profile_table(profile, t_end, num=201):
    """(t, p, p') samples from r to t_end, inclusive."""
    if num < 2:
        raise ParameterError("need at least two sample points")
    t_end = float(t_end)
    limit = profile.domain_limit()
    if t_end > limit * (1.0 + 1e-12) or t_end <= profile.r:
        raise OutOfDomainError(
            f"table end must lie in ({profile.r}, {limit}], got {t_end}"
        )
    ts = np.linspace(profile.r, min(t_end, limit), num)
    ps = profile.heights(ts)
    slopes = profile.slope(ts)
    return np.column_stack([ts, ps, slopes])


def write_profile_csv(profile, path, t_end, num=201):
    table = profile_table(profile, t_end, num=num)
    write_csv(path, ["t", "p", "p_prime"], table)


def profile_params(profile, outer=None):
    """Parameter block with the comparison constants attached."""
    c1, c2 = barrier_constants(profile, outer=outer)
    return {
        "dim": profile.dim,
        "h": profile.h,
        "r": profile.r,
        "c": profile.c,
        "a": profile.a,
        "b": profile.b,
        "t0": profile.t0,
        "R_usable": profile.r_usable,
        "C1": c1,
        "C2": c2,
    }


def write_params_json(profile, path, outer=None):
    dump_json(profile_params(profile, outer=outer), path)
