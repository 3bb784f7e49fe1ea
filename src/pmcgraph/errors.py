"""Exception types shared across the package."""

from __future__ import annotations

import math
from contextlib import contextmanager


class ParameterError(ValueError):
    """An input parameter lies outside its admissible range."""


class NoAdmissibleConstantError(ParameterError):
    """The curvature magnitude is too large for the requested annulus,
    so no integration constant produces a usable barrier profile."""


class OutOfDomainError(ValueError):
    """An evaluation point lies outside the domain of definition."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested accuracy."""


class DisconnectedMaskError(ValueError):
    """A bitmap domain has a disconnected interior."""


class UnsupportedDomainError(ValueError):
    """The requested geometric quantity is not defined for this domain kind."""


class InfeasibleFitError(RuntimeError):
    """No translation was found placing the domain inside the annulus."""


class SolverError(RuntimeError):
    """Base class for nonlinear solver failures.

    ``trace`` holds the steps accepted before the failure: a list of
    per-iteration dicts for a Newton failure, the homotopy's
    :class:`pmcgraph.solver.ContinuationTrace` for a
    :class:`ContinuationFailureError`.
    """

    def __init__(self, message, trace=None, diagnostics=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
        self.diagnostics = diagnostics if diagnostics is not None else {}


class NonconvergenceError(SolverError):
    """Newton iteration did not reach the residual tolerance."""


class LineSearchStallError(NonconvergenceError):
    """Backtracking reached its floor without reducing the residual."""


class SingularSystemError(SolverError):
    """The linearized system could not be solved (singular or non-finite)."""


class ContinuationFailureError(SolverError):
    """The homotopy stalled before reaching the full problem.

    ``stall_t`` is the last parameter value that was solved successfully.
    Stalls are a numerical observation; they suggest, but do not prove,
    nonexistence past ``stall_t``.
    """

    def __init__(self, message, trace=None, stall_t=0.0, diagnostics=None):
        super().__init__(message, trace=trace, diagnostics=diagnostics)
        self.stall_t = stall_t


@contextmanager
def config_key(key):
    """Turn a malformed value under the config key ``key`` (a missing entry,
    a wrong type, an infinite integer) into a :class:`ParameterError` that
    names the key."""
    try:
        yield
    except ParameterError:
        raise
    except KeyError as exc:
        raise ParameterError(f"config {key!r}: missing entry {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"config {key!r}: {exc}") from exc


def json_number(value):
    """A config value that must be a JSON number, as a float; a string, a
    bool, null or a container raises :class:`TypeError`, which
    :func:`config_key` turns into a :class:`ParameterError` naming the
    key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def finite_number(value):
    """:func:`json_number`, which must also be finite: NaN or an infinity
    raises :class:`ValueError`."""
    value = json_number(value)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value
