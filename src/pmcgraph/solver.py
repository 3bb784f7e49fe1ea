"""Solvers for the prescribed mean curvature Dirichlet problem.

Two routes:

* a damped-Newton solver for the divergence-form finite-difference
  discretization of ``div(grad f / sqrt(1 + |grad f|^2)) = t n H(x, f)``
  on masked planar lattices, run at t = 1 or wrapped in a homotopy in
  ``t`` from the minimal surface problem (t = 0) to the full problem
  (t = 1); :func:`pmcgraph.pipeline.solve_grid` chooses between them;
* a radial shooting solver for rotationally symmetric annuli in any
  dimension, which adjusts the profile integration constant until the
  outer zero boundary value is met and declares nonexistence when no
  feasible constant achieves it.

Discretization: edge-centered fluxes ``(f_E - f_P) / (theta h) / W`` with
the slope factor ``W`` built from the axis difference and the averaged
transverse node derivatives of the two edge endpoints; divergence divides
by the half-sum of opposite arm lengths.  Cut arms next to the boundary
use their fractional length and the Dirichlet value at the true crossing
point, which is what keeps the scheme second order on curved domains; a
lattice point whose cut arm would be shorter than
:data:`pmcgraph.grid.THETA_SNAP` cells is a boundary node instead.

Linear solves have one solver, :class:`FactorOnceSolver`: right-
preconditioned GMRES with a stored preconditioner, and a direct SuperLU
solve whose factor becomes that preconditioner when there is none yet or
GMRES fails.  Every Newton step follows this rule: a factor made after a
GMRES failure is kept, lagged, until GMRES fails again.  A grid solved by
itself (a homotopy, or Newton from its default start) thus factors its
Jacobian at the first Newton step, and that factor preconditions every
later step at the same or a later t.
The default start is zero for zero Dirichlet data; for nonzero data it
is the discrete harmonic extension (:func:`_harmonic_start`), whose
factor is the first preconditioner instead.  A grid refined
from a solved coarser one starts with a V-cycle over a chain of nested
coarser grids whose Galerkin operator is factored only at the coarsest
grid, once.  Newton is inexact: each GMRES solve
stops at a relative residual set by the size of the Newton residual
(:func:`_forcing`), so early steps are solved loosely and the last ones
tightly.

A grid function has one representation here, the dof vector: its values
at the grid's interior nodes in ``grid.index`` order.  Only
:attr:`GridSolution.values` and :meth:`GridSolution.write_csv` see the
lattice.  The residual and the analytic Jacobian run on dof vectors
through the grid's :class:`pmcgraph.grid.StencilPlan` (neighbour
indices, the CSR structure and the geometry-only coefficients, built
with the grid) and evaluate the field only at interior nodes.  Each
kernel runs the bulk formula, whose coefficients are the same at every
dof, on every dof, then recomputes the few cut dofs next to the boundary
with their own coefficients, in the same operation order.
Newton computes each
iterate's edge states (:func:`_edge_states`) once and hands them to that
iterate's residual and then to its Jacobian assembly or its final
report, which take them over so that they are freed as soon as they are
used.  A field
of the form H(x) + s z has its H(x) evaluated once per homotopy or Newton
run (:meth:`pmcgraph.conditions.CurvatureField.on_nodes`), and its dH/dz
is s.  Each node's floating-point operations run in a fixed order, so
reruns are bit-identical; solves share no state beyond the geometry of
their grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse import csr_matrix
from scipy.sparse import linalg as sparse_linalg

from . import barrier
from .errors import (
    ContinuationFailureError,
    LineSearchStallError,
    NonconvergenceError,
    ParameterError,
    SingularSystemError,
)
from .grid import DIRECTIONS, STENCIL_OFFSETS, interpolate_values_cubic
from .ioutil import lattice_rows, write_csv

#: graph dimension of the planar grid problem
GRID_DIM = 2

_LINE_SEARCH_FLOOR = 2.0 ** -20
_HOMOTOPY_MEMBERS = 11
_DT_MIN = 1e-3

# Right-preconditioned GMRES, by a reused LU factor or by the V-cycle.
# A Newton step with residual sup norm r solves its update to the
# relative residual min(_FORCING_CAP, max(_KRYLOV_RTOL, r^2)) (Dembo,
# Eisenstat & Steihaug 1982): an update is solved only as far as the
# quadratic convergence of Newton can use, so Newton iteration counts
# still match a direct solve, and the near-converged last steps keep the
# 1e-12 floor that holds the solution's symmetries to roundoff.  Forcing
# terms linear in r (0.1 r, or Eisenstat & Walker's safeguards) save a few
# more iterations but break the transposition symmetry of ``verify``
# beyond 1e-15.  The basis holds restart + 1 vectors, and the restart is
# the smallest that held a whole two-grid solve in one cycle: on
# Annulus(1, 2), H = -0.3, those took 14 iterations at 1/64 and 17 at
# 1/128 to 1e-12.  V-cycle solves down to a coarsest grid of at most
# 1,024 nodes fit it too: the three Newton steps above the coarsest grid
# take 2, 4-5 and 11-13 iterations at every level up to 1/64 on that
# annulus, a pentagon and an off-centre disc; at 1/128 the annulus's
# fourth step takes 20, in two cycles.  LU-preconditioned solves along a
# homotopy take about 4 to 11
_KRYLOV_RTOL = 1e-12
_FORCING_CAP = 1e-2
_KRYLOV_RESTART = 17
_KRYLOV_MAXITER = 3
# damping of the V-cycle's Jacobi sweeps
_JACOBI_WEIGHT = 0.8


# sign of the primary slope per direction: E and N arms point along +x/+y
_SIGN = np.array([1.0, -1.0, 1.0, -1.0])[:, None]

# The Jacobian of one node couples it to the 3 x 3 block around it.  Its
# coefficients are sums of terms, each the product of a per-arm flux
# sensitivity and a geometry-only coefficient of the plan (the kinds are
# listed in ``_stencil_coefficients``).  Each offset of the block sums its
# terms in the order listed: the order is part of the result, since
# floating-point addition does not associate.
_JACOBIAN_TERMS = {
    (0, 0): (("a_node", "E"), ("b_node", "E"), ("a_node", "W"),
             ("b_node", "W"), ("a_node", "N"), ("b_node", "N"),
             ("a_node", "S"), ("b_node", "S")),
    (0, 1): (("a_nbr", "E"), ("b_nbr", "E"), ("b_node_a", "N"),
             ("b_node_a", "S")),
    (0, -1): (("a_nbr", "W"), ("b_nbr", "W"), ("b_node_b", "N"),
              ("b_node_b", "S")),
    (1, 0): (("b_node_a", "E"), ("b_node_a", "W"), ("a_nbr", "N"),
             ("b_nbr", "N")),
    (-1, 0): (("b_node_b", "E"), ("b_node_b", "W"), ("a_nbr", "S"),
              ("b_nbr", "S")),
    (1, 1): (("b_nbr_a", "E"), ("b_nbr_a", "N")),
    (-1, 1): (("b_nbr_b", "E"), ("b_nbr_a", "S")),
    (1, -1): (("b_nbr_a", "W"), ("b_nbr_b", "N")),
    (-1, -1): (("b_nbr_b", "W"), ("b_nbr_b", "S")),
}
# the same terms in ``STENCIL_OFFSETS`` order, with direction indices
_TERMS = tuple(
    tuple((kind, DIRECTIONS.index(d)) for kind, d in _JACOBIAN_TERMS[offset])
    for offset in STENCIL_OFFSETS)
_CENTER = STENCIL_OFFSETS.index((0, 0))


def _slopes(arms, val, x):
    """One-sided arm slopes and node derivatives through one
    :class:`pmcgraph.grid.ArmCoefficients`, from the arms' end values."""
    dval = (val - x) / arms.theta_h
    sqE, sqW, sqN, sqS = arms.theta_sq
    Dx = (sqW * val[0] - sqE * val[1] + arms.dsq_x * x) / arms.den_x
    Dy = (sqS * val[2] - sqN * val[3] + arms.dsq_y * x) / arms.den_y
    return dval, Dx, Dy


def _edge_slopes(plan, x):
    """One-sided arm slopes (4, n) and the node derivatives Dx, Dy.

    The bulk formula runs on every dof, reading ``x`` at index 0 on cut
    arms; the cut dofs are then recomputed with their own arms."""
    val = x.take(plan.nbr_index)
    dval, Dx, Dy = _slopes(plan.bulk_arms, val, x)
    cut, arms = plan.cut_dofs, plan.cut_arms
    dval[:, cut], Dx[cut], Dy[cut] = _slopes(
        arms, np.where(arms.nbr_mask, val[:, cut], arms.gval), x[cut])
    return dval, Dx, Dy


def _edge_states(plan, x):
    """Primary/transverse slopes and metric factors on the four edges,
    (4, n) each."""
    dval, Dx, Dy = _edge_slopes(plan, x)
    primary = dval * _SIGN
    transverse = np.stack([Dy, Dy, Dx, Dx])
    cross = np.where(plan.nbr_mask,
                     0.5 * (transverse + plan.at_nbr(transverse)), transverse)
    W = np.sqrt(1.0 + primary**2 + cross**2)
    return primary, cross, W


def mc_residual(x, grid, hfield, t_homotopy=1.0, states=None):
    """Residual of the discrete operator minus t n H(x, f), per interior
    node.

    Vanishes identically for constant values with H = 0 and, up to
    rounding, for affine data on polygonal domains (planes are minimal
    graphs).  This is the strong (pointwise) normalization used for Newton
    stopping tests.

    ``x`` holds the values at the interior nodes in dof order (length
    ``grid.n_dof``), and so does the result; the stencil runs through
    ``grid.plan``.  ``states`` are the :func:`_edge_states` of ``x`` when
    the caller has them.  Complex values give a complex residual (a
    complex-step derivative).
    """
    plan = grid.plan
    primary, _, W = _edge_states(plan, x) if states is None else states
    flux = primary / W
    div = _divergence(plan.bulk_arms, flux)
    div[plan.cut_dofs] = _divergence(plan.cut_arms, flux[:, plan.cut_dofs])
    return div - t_homotopy * GRID_DIM * hfield.eval(plan.points, x)


def _divergence(arms, flux):
    """The discrete divergence of the four edge fluxes, through one
    :class:`pmcgraph.grid.ArmCoefficients`."""
    return ((flux[0] - flux[1]) * arms.cfac[0]
            + (flux[2] - flux[3]) * arms.cfac[1])


def _assemble_jacobian(grid, x, hfield, t_homotopy, states=None):
    """Analytic Jacobian of :func:`mc_residual` at the dof vector ``x``,
    CSR.

    ``states``, when given, is a one-item list holding the
    :func:`_edge_states` of ``x``; they are taken out of it, so that they
    are freed here once used rather than held by the caller.
    """
    plan = grid.plan
    n = plan.n_dof
    primary, cross, W = states.pop() if states else _edge_states(plan, x)
    W3 = W**3
    phi = ((1.0 + cross**2) / W3, -primary * cross / W3)
    del primary, cross, W, W3
    cut = plan.cut_dofs
    cut_coef = _stencil_coefficients(plan.cut_arms,
                                     *(p[:, cut] for p in phi))
    coef = _stencil_coefficients(plan.bulk_arms, *phi)
    del phi
    coef[:, cut] = cut_coef
    coef[_CENTER] += -t_homotopy * GRID_DIM * hfield.hz(plan.points, x)
    return csr_matrix((plan.csr_data(coef), plan.indices, plan.indptr),
                      shape=(n, n))


def _stencil_coefficients(arms, phi_p, phi_c):
    """The (9, k) per-offset Jacobian coefficients (rows in
    ``STENCIL_OFFSETS`` order) of the dofs whose
    :class:`pmcgraph.grid.ArmCoefficients` are ``arms``, from their edges'
    flux derivatives in the primary slope and the transverse one."""
    k = phi_p.shape[1]
    cfac = arms.cfac[:, None]  # one factor per axis pair
    # flux sensitivities to the primary slope (A, with the slope's sign
    # folded in) and to the transverse derivative (B); B is split between
    # an arm's two endpoints, half each, and falls wholly on the node when
    # the arm is cut
    a = (cfac * phi_p.reshape(2, 2, k)).reshape(4, k)
    b = _SIGN * (cfac * phi_c.reshape(2, 2, k)).reshape(4, k)
    half = 0.5 * b
    # with every arm whole (the bulk) both are ``half``: one array, not
    # two more at the assembly's memory peak
    if arms.nbr_mask.all():
        b_node = b_nbr = half
    else:
        b_node = np.where(arms.nbr_mask, half, b)
        b_nbr = np.where(arms.nbr_mask, half, 0.0)
    del b, half
    # transverse-derivative coefficients per direction; E/W arms have y
    node = [[pair[p] for p in (0, 0, 1, 1)] for pair in arms.deriv_node]
    nbr = arms.deriv_nbr
    # term kind -> (sensitivity, coefficient), each indexed by direction:
    #   a_node  A times the slope's derivative in f_P
    #   a_nbr   A times its derivative in the arm's neighbour Q
    #   b_node, b_node_a, b_node_b  B times the transverse node derivative
    #           at P: its coefficient at P, at its first and at its second
    #           transverse arm
    #   b_nbr, b_nbr_a, b_nbr_b     the same, for the node derivative at Q
    factors = {
        "a_node": (a, arms.slope_coef[0]), "a_nbr": (a, arms.slope_coef[1]),
        "b_node": (b_node, node[0]), "b_node_a": (b_node, node[1]),
        "b_node_b": (b_node, node[2]), "b_nbr": (b_nbr, nbr[0]),
        "b_nbr_a": (b_nbr, nbr[1]), "b_nbr_b": (b_nbr, nbr[2]),
    }

    coef = np.empty((len(STENCIL_OFFSETS), k))
    term = np.empty(k)
    for row, terms in zip(coef, _TERMS):
        for i, (kind, d) in enumerate(terms):
            sensitivity, geometry = factors[kind]
            np.multiply(sensitivity[d], geometry[d], out=term if i else row)
            if i:
                row += term
    return coef


def _splu(A):
    """SuperLU factor of a sparse matrix, with the scheme's ordering."""
    try:
        return sparse_linalg.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse factorization failed: {exc}")


def _forcing(rinf):
    """Relative GMRES tolerance of a Newton step whose residual has sup
    norm ``rinf``: ``rinf**2``, kept within [_KRYLOV_RTOL, _FORCING_CAP]."""
    return min(_FORCING_CAP, max(_KRYLOV_RTOL, rinf * rinf))


def _gmres(J, rhs, precond, rtol=_KRYLOV_RTOL):
    """Right-preconditioned restarted GMRES for ``J x = rhs`` from x = 0;
    returns ``(x, iters, converged)``.

    It solves ``J M u = rhs`` with ``x = M u`` (``precond`` maps ``v`` to
    ``M v``), so the residual it minimises is the true one, ``rhs - J x``.
    Each inner iteration applies ``M`` once and ``J`` once; each cycle
    ends with one more apply of ``M`` to update ``x`` and one product with
    ``J`` for the true residual.  The basis is orthogonalised by modified
    Gram-Schmidt and the Hessenberg least-squares problem is reduced by
    Givens rotations.  Converged means ``||rhs - J x||_2 <= rtol ||rhs||_2`` at
    the end of a cycle, with ``x`` finite.
    """
    m = _KRYLOV_RESTART
    x = np.zeros_like(rhs)
    r, beta = rhs, float(np.linalg.norm(rhs))
    target = rtol * beta
    V = np.empty((m + 1, rhs.size))  # the Krylov basis, one row per vector
    H = np.empty((m + 1, m))  # upper triangular after the rotations
    cs, sn = np.empty(m), np.empty(m)
    iters = 0
    cycle = 0
    while beta > target and cycle < _KRYLOV_MAXITER:
        cycle += 1
        np.divide(r, beta, out=V[0])
        g = np.zeros(m + 1)  # rotated residual; |g[k]| is ||rhs - J x_k||
        g[0] = beta
        k = 0
        while k < m:
            w = J @ precond(V[k])
            iters += 1
            for i in range(k + 1):
                H[i, k] = V[i] @ w
                w -= H[i, k] * V[i]
            h = float(np.linalg.norm(w))
            for i in range(k):
                H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                        cs[i] * H[i + 1, k] - sn[i] * H[i, k])
            rho = math.hypot(H[k, k], h)
            cs[k], sn[k] = H[k, k] / rho, h / rho
            H[k, k] = rho
            g[k + 1] = -sn[k] * g[k]
            g[k] *= cs[k]
            k += 1
            # stops on NaN as well; h == 0 means x is exact in this basis
            if not abs(g[k]) > target or h == 0.0:
                break
            np.divide(w, h, out=V[k])
        y = solve_triangular(H[:k, :k], g[:k], check_finite=False)
        x += precond(V[:k].T @ y)
        r = rhs - J @ x
        beta = float(np.linalg.norm(r))
    return x, iters, beta <= target and bool(np.all(np.isfinite(x)))


def _v_cycle(J, prolongations):
    """Build the Galerkin operators ``P^T A P`` down ``prolongations``
    (finest first) from ``J`` and factor only the coarsest; returns the
    map from a fine Jacobian to its V-cycle.

    Each level above the coarsest does one damped-Jacobi sweep, hands its
    restricted residual down, adds the prolongated correction on the way
    back up and does one more sweep; the coarsest level solves through
    the factor.  The fine level takes the Jacobian the map is given, the
    levels below keep their operators from ``J``.  The cycle is a loop
    down and up the levels: a closure that called itself would form a
    reference cycle holding every Jacobian it saw until the garbage
    collector ran.  With one prolongation this is the two-grid cycle.
    """
    restricts = [P.T.tocsr() for P in prolongations]
    operators = []  # the Galerkin operators below J, coarsest last
    A = J
    for R, P in zip(restricts, prolongations):
        A = R @ A @ P
        operators.append(A)
    coarsest_lu = _splu(operators.pop())
    weights = [_JACOBI_WEIGHT / A.diagonal() for A in operators]

    def cycle(J):
        levels = list(zip([J] + operators,
                          [_JACOBI_WEIGHT / J.diagonal()] + weights,
                          restricts, prolongations))

        def apply(r):
            down = []  # each level's first sweep and right-hand side
            for A, weight, R, _ in levels:
                x = weight * r
                down.append((x, r))
                r = R @ (r - A @ x)
            e = coarsest_lu.solve(r)
            for (A, weight, _, P), (x, r) in zip(reversed(levels),
                                                 reversed(down)):
                x += P @ e
                x += weight * (r - A @ x)
                e = x
            return e

        return apply

    return cycle


class FactorOnceSolver:
    """Newton linear solves on one grid: GMRES with a stored preconditioner.

    One instance serves one homotopy (or one Newton solve), and every
    solve follows one rule: GMRES with the stored preconditioner, and a
    SuperLU factor of ``J``, with that solve direct, only when there is
    no preconditioner yet or GMRES fails.  The new factor then becomes
    the preconditioner, a lagged one for the later solves (Knoll & Keyes
    2004).  The solver keeps a map from a Jacobian to its preconditioner,
    a function ``v -> M v``.  With ``prolongations``, the
    :func:`pmcgraph.grid.nested_prolongation` matrices of a chain of
    nested coarser grids, finest first, the first solve builds their
    Galerkin operators from ``J``, factors only the coarsest, and the map
    gives the V-cycle (:func:`_v_cycle`; with one prolongation, the
    two-grid cycle).
    ``factorizations`` counts every sparse LU and ``krylov_iters`` every
    GMRES inner iteration.
    """

    def __init__(self, prolongations=()):
        # the preconditioner closures hold factors and the prolongations,
        # never ``self``, so a solver is freed by reference counting alone
        self._prolongations = list(prolongations)
        self._precond = None  # Jacobian -> preconditioner function
        self.factorizations = 0
        self.krylov_iters = 0

    def solve(self, J, rhs, rtol=_KRYLOV_RTOL):
        """Solve ``J x = rhs``, by GMRES to the relative residual ``rtol``
        or directly; returns ``(x, krylov_iters, factored)``, with
        ``factored`` true when ``J`` was factored for this solve."""
        if self._precond is None and self._prolongations:
            self._precond = _v_cycle(J, self._prolongations)
            self._prolongations = []
            self.factorizations += 1
        iters = 0
        if self._precond is not None:
            x, iters, converged = _gmres(J, rhs, self._precond(J), rtol)
            self.krylov_iters += iters
            if converged:
                return x, iters, False
        # release the old preconditioner before the new factor is
        # allocated, so two factors never coexist
        self._precond = None
        lu = _splu(J)
        self._precond = lambda J: lu.solve
        self.factorizations += 1
        return lu.solve(rhs), iters, True


def _gradient_diagnostics(plan, x):
    """Sup of the node gradient and of the one-sided slope on cut arms."""
    dval, Dx, Dy = _edge_slopes(plan, x)
    sup_int = float(np.max(np.sqrt(Dx**2 + Dy**2))) if plan.n_dof else 0.0
    cut = ~plan.nbr_mask
    sup_bdry = float(np.max(np.abs(dval[cut]))) if cut.any() else 0.0
    return sup_int, sup_bdry


@dataclass
class GridSolution:
    """Converged grid solution, ``dof_values`` in dof order, with residual
    and gradient diagnostics."""

    grid: object
    dof_values: np.ndarray
    residual_inf: float
    newton_iters: int
    homotopy_t: float
    sup_norm: float
    sup_gradient_interior: float
    sup_gradient_boundary: float
    no_existence_guarantee: str = ""

    @property
    def values(self):
        """The solution on the lattice, zero off the interior (a new array)."""
        lattice = np.zeros(self.grid.shape)
        lattice[self.grid.interior] = self.dof_values
        return lattice

    def write_csv(self, path):
        """Interior nodes as ``x,y,f`` rows in dof order, with the bytes
        :func:`pmcgraph.ioutil.write_csv` writes for the float rows.

        ``np.nonzero`` of the interior mask runs in dof order.  Lattice
        coordinates repeat along rows and columns (``X == X[0]`` and
        ``Y == Y[:, :1]`` exactly), so :func:`lattice_rows` formats each x
        and y once.
        """
        grid = self.grid
        jj, ii = np.nonzero(grid.interior)
        write_csv(path, ["x", "y", "f"],
                  lattice_rows(grid.X[0], grid.Y[:, 0], jj, ii,
                               self.dof_values))


def _finish_solution(grid, x, hfield, t, iters, states):
    # the final residual takes the one-item list's edge states, which are
    # freed before the gradient diagnostics run
    res = mc_residual(x, grid, hfield, t, states=states.pop())
    rinf = float(np.max(np.abs(res))) if grid.n_dof else 0.0
    sup_int, sup_bdry = _gradient_diagnostics(grid.plan, x)
    sol = GridSolution(
        grid=grid, dof_values=x, residual_inf=rinf, newton_iters=iters,
        homotopy_t=t, sup_norm=float(np.max(np.abs(x))),
        sup_gradient_interior=sup_int, sup_gradient_boundary=sup_bdry,
    )
    if grid.boundary_nonzero:
        lip = grid.boundary_lipschitz_estimate()
        limit = 1.0 / math.sqrt(GRID_DIM - 1.0)
        rel = "below" if lip is not None and lip < limit else "NOT below"
        sol.no_existence_guarantee = (
            f"nonzero Dirichlet data: no existence guarantee is claimed; "
            f"sampled Lipschitz constant {lip:.6g} is {rel} the reference "
            f"slope {limit:.6g}")
    return sol


def _harmonic_start(grid, hfield, linsolve):
    """Interior values solving the scheme's W = 1 linearization, the
    discrete harmonic extension of the Dirichlet data.

    That scheme is affine in the values: its residual at zero plus
    :func:`_assemble_jacobian` on flat edge states (W = 1) at t = 0 times
    the values.  One ``linsolve`` solve gives them, and its factor then
    preconditions the Newton steps.
    """
    zero = np.zeros(grid.n_dof)
    slope = _edge_slopes(grid.plan, zero)[0] * _SIGN
    res = mc_residual(zero, grid, hfield, 0.0, states=(slope, None, 1.0))
    flat = (np.zeros_like(slope), np.zeros_like(slope), np.ones_like(slope))
    lap = _assemble_jacobian(grid, zero, hfield, 0.0, [flat])
    return linsolve.solve(lap, -res)[0]


def newton_solve(grid, hfield, *, t_homotopy=1.0, initial=None, tol=1e-10,
                 max_iters=40, linsolve=None):
    """Damped Newton iteration for the discrete problem at fixed t.

    Iterates are dof vectors, and so is ``initial`` (length ``grid.n_dof``;
    any other shape raises :class:`ParameterError`).  Without it Newton
    starts from zero on zero Dirichlet data and from
    :func:`_harmonic_start` on nonzero data, where a zero start puts the
    whole boundary jump on the cut arms.  The analytic Jacobian of the
    discrete operator is assembled each step and handed to ``linsolve``,
    a :class:`FactorOnceSolver` (a fresh one, without prolongation, when
    omitted).  The step is inexact: GMRES stops at the relative residual
    :func:`_forcing` gives for the current residual sup norm,
    ``min(1e-2, max(1e-12, rinf**2))``, which keeps Newton's quadratic
    convergence and so its iteration count.  A GMRES failure factors
    that step's Jacobian, which then preconditions the later steps.
    Backtracking halves the step until the residual 2-norm decreases
    (floor 2^-20).  Each iterate's edge states are computed once, for its
    residual, and reused by its assembly or the final report.  Raises on
    nonconvergence, line-search stall and singular linear systems,
    carrying the iterate trace: one dict per accepted step with the
    residual sup norm, step length, GMRES iterations and whether the
    Jacobian was factored.
    """
    if not tol > 0.0:
        raise ParameterError("tolerance must be positive")
    if linsolve is None:
        linsolve = FactorOnceSolver()
    plan = grid.plan
    hfield = hfield.on_nodes(plan.points)
    if initial is None:
        x = (_harmonic_start(grid, hfield, linsolve) if grid.boundary_nonzero
             else np.zeros(grid.n_dof))
    else:
        x = np.array(initial, dtype=float)
        if x.shape != (grid.n_dof,):
            raise ParameterError(f"initial values must have shape "
                                 f"({grid.n_dof},), got {x.shape}")

    trace = []
    # the current iterate's edge states, in a one-item list that its
    # assembly or the final report empties
    states = [_edge_states(plan, x)]
    r_vec = mc_residual(x, grid, hfield, t_homotopy, states=states[0])
    rinf = float(np.max(np.abs(r_vec))) if r_vec.size else 0.0
    rnorm = float(np.linalg.norm(r_vec))
    iters = 0
    while not rinf <= tol:  # a NaN residual is not converged
        if iters >= max_iters:
            raise NonconvergenceError(
                f"no convergence after {max_iters} Newton iterations "
                f"(residual_inf={rinf:.3e}, t={t_homotopy})", trace=trace)
        if not math.isfinite(rnorm):
            raise NonconvergenceError("residual is not finite", trace=trace)
        J = _assemble_jacobian(grid, x, hfield, t_homotopy, states)
        delta, k_iters, factored = linsolve.solve(J, -r_vec,
                                                  rtol=_forcing(rinf))
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError("linear solve produced non-finite update",
                                      trace=trace)
        lam = 1.0
        while True:
            x_try = x + lam * delta
            states.append(_edge_states(plan, x_try))
            r_try = mc_residual(x_try, grid, hfield, t_homotopy,
                                states=states[0])
            rnorm_try = float(np.linalg.norm(r_try))
            if math.isfinite(rnorm_try) and rnorm_try < rnorm:
                break
            states.pop()
            lam *= 0.5
            if lam < _LINE_SEARCH_FLOOR:
                raise LineSearchStallError(
                    f"line search stalled at iteration {iters} "
                    f"(residual_inf={rinf:.3e}, t={t_homotopy})", trace=trace)
        x, r_vec, rnorm = x_try, r_try, rnorm_try
        rinf = float(np.max(np.abs(r_vec)))
        iters += 1
        trace.append({"iter": iters, "residual_inf": rinf, "step": lam,
                      "krylov_iters": k_iters, "factored": factored})
    return _finish_solution(grid, x, hfield, t_homotopy, iters, states)


@dataclass(frozen=True)
class ContinuationStep:
    """One accepted homotopy step.

    ``factorizations`` and ``krylov_iters`` count the linear-solver work
    spent since the previous accepted step, failed bisected attempts
    included.
    """

    t: float
    newton_iters: int
    final_residual: float
    sup_norm: float
    sup_gradient: float
    factorizations: int
    krylov_iters: int

    def as_dict(self):
        return asdict(self)

    @classmethod
    def from_solution(cls, solution, factorizations, krylov_iters):
        return cls(t=solution.homotopy_t, newton_iters=solution.newton_iters,
                   final_residual=solution.residual_inf,
                   sup_norm=solution.sup_norm,
                   sup_gradient=solution.sup_gradient_interior,
                   factorizations=factorizations, krylov_iters=krylov_iters)


@dataclass
class ContinuationTrace:
    steps: list = field(default_factory=list)

    def as_dict(self):
        return {"steps": [s.as_dict() for s in self.steps]}

    def level(self, grid, path):
        """The ``levels`` entry of ``grid`` solved by these steps: its
        spacing, ``n_dof``, the steps' Newton steps, GMRES iterations and
        factorizations, and ``path``, ``"chain"`` or ``"homotopy"``."""
        return {"spacing": grid.spacing, "n_dof": grid.n_dof,
                "newton_iters": sum(s.newton_iters for s in self.steps),
                "krylov_iters": sum(s.krylov_iters for s in self.steps),
                "factorizations": sum(s.factorizations for s in self.steps),
                "path": path}


class SolveOutcome(NamedTuple):
    """A converged grid solution, the trace of the solve that reached it,
    and ``levels``: the :meth:`ContinuationTrace.level` of every grid that
    solve solved, coarsest first, the last one the solution's."""

    solution: GridSolution
    trace: ContinuationTrace
    levels: list


def continuation_solve(grid, hfield, *, tol=1e-10, max_iters=40):
    """Solve the homotopy family t -> t n H successively, warm-starting.

    Returns a :class:`SolveOutcome` whose one level is the grid's
    ``"homotopy"``.  The members are the 11 uniform values of t on [0, 1],
    or t = 1 alone for H = 0, whose every member is the minimal surface
    problem; the first member starts where :func:`newton_solve` starts by
    default.  A failed step is bisected
    until the increment falls below 1e-3, at which point a
    :class:`ContinuationFailureError` reports the stall parameter and the
    gradient at the last success.  A stall is a numerical statement, not
    a nonexistence proof.

    All Newton runs share one :class:`FactorOnceSolver`: the Jacobian is
    factored at the first Newton step of the homotopy and that LU
    preconditions GMRES at every later step and t, so a smooth homotopy
    costs a single factorization.  They also share the field's
    z-independent part at the grid's nodes, evaluated once here.
    """
    if hfield.is_constant and hfield.constant == 0.0:
        pending = [1.0]
    else:
        pending = np.linspace(0.0, 1.0, _HOMOTOPY_MEMBERS).tolist()
    hfield = hfield.on_nodes(grid.plan.points)
    trace = ContinuationTrace()
    linsolve = FactorOnceSolver()
    counted = (0, 0)  # linear-solver counters at the last accepted step
    x = None  # until a member converges, Newton's default start
    t_prev = None
    solution = None
    while pending:
        t_next = pending.pop(0)
        try:
            solution = newton_solve(grid, hfield, t_homotopy=t_next, initial=x,
                                    tol=tol, max_iters=max_iters,
                                    linsolve=linsolve)
        except (NonconvergenceError, SingularSystemError) as exc:
            base = t_prev if t_prev is not None else 0.0
            dt = t_next - base
            if 0.5 * dt < _DT_MIN:
                stall_grad = trace.steps[-1].sup_gradient if trace.steps else 0.0
                raise ContinuationFailureError(
                    f"continuation stalled at t = {base} "
                    f"(next step {t_next} failed: {exc})",
                    trace=trace, stall_t=base,
                    diagnostics={"failed_t": t_next,
                                 "sup_gradient_at_stall": stall_grad,
                                 "reason": str(exc)})
            pending.insert(0, t_next)
            pending.insert(0, base + 0.5 * dt)
            continue
        x = solution.dof_values
        t_prev = t_next
        trace.steps.append(ContinuationStep.from_solution(
            solution, linsolve.factorizations - counted[0],
            linsolve.krylov_iters - counted[1]))
        counted = (linsolve.factorizations, linsolve.krylov_iters)
    return SolveOutcome(solution, trace, [trace.level(grid, "homotopy")])


def angular_asymmetry(solution):
    """Max over 24 radii of the angular spread of the interpolated
    solution at 64 equally spaced angles.

    For rotationally symmetric problems this measures how much the lattice
    breaks the symmetry; it should track the discretization error.  Cubic
    interpolation keeps the measurement's own error below the effect being
    measured.
    """
    grid, values = solution.grid, solution.values
    r_lo, r_hi = grid.domain.radial_extent()
    pad = 4.0 * grid.spacing
    radii = np.linspace(r_lo + pad, r_hi - pad, 24)
    thetas = 2.0 * math.pi * np.arange(64) / 64
    worst = 0.0
    for rho in radii:
        pts = np.column_stack([rho * np.cos(thetas), rho * np.sin(thetas)])
        vals = interpolate_values_cubic(grid, values, pts)
        vals = vals[np.isfinite(vals)]
        if vals.size >= 2:
            worst = max(worst, float(vals.max() - vals.min()))
    return worst


# ----------------------------------------------------------------------
# radial shooting on annuli
# ----------------------------------------------------------------------

@dataclass
class RadialShootResult:
    """Outcome of the radial shooting solve (nonexistence is a result)."""

    exists: bool
    dim: int
    h: float
    epsilon: float
    outer: float
    c: float = math.nan
    k: float = math.nan
    table: np.ndarray = None
    sup_p: float = math.nan
    p_outer: float = math.nan
    radicand_min: float = math.nan
    message: str = ""
    nearest_p_outer: float = math.nan


def radial_shoot(dim, h, epsilon, outer, tol=1e-10):
    """Zero-boundary rotationally symmetric solve on {eps < |x| < outer}.

    The profile integral anchored at ``epsilon`` vanishes there by
    construction; the integration constant is found by bisection so that
    the profile also vanishes at ``outer``.  The profile height is
    monotone in the constant, so the bracket endpoints decide feasibility:
    if even the largest radicand-feasible constant leaves the outer value
    negative (the thin-annulus regime) no solution exists and the nearest
    miss is reported.  An existing solution's profile is tabulated at
    1001 uniform radii.
    """
    if not (0.0 < epsilon < outer):
        raise ParameterError("need 0 < epsilon < outer")
    if h <= 0.0:
        raise ParameterError("radial shooting targets constant curvature h > 0")
    dim = barrier._check_dim(dim)

    c_hi = h * epsilon**dim + epsilon ** (dim - 1)
    c_feas_lo = h * outer**dim - outer ** (dim - 1)
    # returned constants satisfy k = c - h eps^n >= 0 (otherwise the slope
    # is negative throughout and the outer boundary value cannot vanish)
    c_lo = max(h * epsilon**dim, c_feas_lo)

    if c_lo >= c_hi:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            message="no feasible integration constant: the slope radicand "
                    "cannot stay nonnegative over the annulus")

    def p_outer(c):
        return barrier.profile_height_integral(dim, h, c, epsilon, outer)

    p_hi = p_outer(c_hi)
    if p_hi < -tol:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            nearest_p_outer=p_hi,
            message="no solution: even the steepest feasible profile "
                    "returns below zero at the outer radius")
    p_lo = p_outer(c_lo)
    if p_lo > tol:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            nearest_p_outer=p_lo,
            message="no solution: every feasible profile stays positive "
                    "at the outer radius")

    lo, hi = c_lo, c_hi
    c_mid, p_mid = c_hi, p_hi
    for _ in range(200):
        c_mid = 0.5 * (lo + hi)
        p_mid = p_outer(c_mid)
        if abs(p_mid) <= 0.5 * tol or hi - lo <= 1e-15 * max(1.0, c_hi):
            break
        if p_mid < 0.0:
            lo = c_mid
        else:
            hi = c_mid
    if abs(p_mid) > tol:
        return RadialShootResult(
            exists=False, dim=dim, h=h, epsilon=epsilon, outer=outer,
            nearest_p_outer=p_mid,
            message="shooting tolerance not reachable at the feasibility "
                    "boundary")

    c = c_mid
    ts = np.linspace(epsilon, outer, 1001)
    ps = barrier.cumulative_heights(dim, h, c, epsilon, ts)
    radicand = barrier._radicand(dim, h, c, ts)
    return RadialShootResult(
        exists=True, dim=dim, h=h, epsilon=epsilon, outer=outer, c=c,
        k=c - h * epsilon**dim, table=np.column_stack([ts, ps]),
        sup_p=float(ps.max()), p_outer=p_mid,
        radicand_min=float(radicand.min()))
