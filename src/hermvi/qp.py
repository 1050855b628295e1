"""Bound-constrained SPD quadratic programs.

Solves min 1/2 x'Ax - b'x subject to x_i <= u_i on a subset of coordinates
with a primal-dual active set (PDAS) iteration: guess the active set, solve
the equality-constrained system, update multipliers, repeat until the set is
stable.  Finite termination is proved for M-matrices (Hintermüller, Ito and
Kunisch, SIAM J. Optim. 13, 2002); the Hermite energy matrix has positive
off-diagonal entries, so :func:`solve_pdas` raises on a cycle or after
:data:`MAX_ITER` iterations.  KKT residuals complete the module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import MatrixNotSpdError, SymmetricBandedMatrix
from .mesh import _frozen

#: PDAS iteration limit on each call of :func:`solve_pdas`.
MAX_ITER = 100


class NonConvergenceError(Exception):
    """PDAS failed to settle; ``last`` is its last iterate, a :class:`QpSolution`."""

    def __init__(self, message, last):
        super().__init__(message)
        self.last = last

    def __reduce__(self):
        # the default replays only ``args``, which lacks ``last``
        return type(self), (self.args[0], self.last)


class KktResidual(NamedTuple):
    """Violations of the four KKT conditions, computed from (x, lambda)."""

    stationarity: float       # ||Ax - b + lambda||_inf
    stationarity_scaled: float  # the same over ||A||_inf ||x||_inf + ||b||_inf (inf when only that is 0)
    primal_violation: float   # max(0, x_i - u_i) over bounded coordinates
    min_multiplier: float     # most negative multiplier (dual feasibility)
    complementarity: float    # max |lambda_i * (x_i - u_i)|


@dataclass(frozen=True, eq=False)
class BoundQp:
    """SPD quadratic program with upper bounds on selected coordinates.

    ``a`` must be a SymmetricBandedMatrix (any other type raises
    TypeError); ``constrained`` holds distinct indices into it, by the rule
    of :meth:`SymmetricBandedMatrix._indices`; bounds may include +inf for
    coordinates that are listed but unconstrained.  ``b``, ``constrained``
    and ``bounds`` are stored as read-only copies and no field can be
    reassigned, so the unconstrained minimizer, solved at most once per
    instance and cached read-only, never goes stale: the cold start and
    every PDAS step with nothing active share that one solve.
    Nothing is factored here: a matrix that is not positive definite raises
    :class:`MatrixNotSpdError` at its first solve, in :func:`solve_pdas` or the cold start.
    """

    a: SymmetricBandedMatrix
    b: np.ndarray
    constrained: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        a = self.a
        if not isinstance(a, SymmetricBandedMatrix):
            raise TypeError(f"a must be a SymmetricBandedMatrix, got {type(a).__name__}")
        b = _frozen(self.b)
        constrained = _frozen(a._indices(self.constrained), dtype=int)
        bounds = _frozen(self.bounds)
        if b.shape != (a.dim,):
            raise ValueError("load vector length does not match the matrix")
        if not np.isfinite(b).all():
            raise ValueError("load vector must be finite")
        if constrained.size != bounds.size:
            raise ValueError("need exactly one bound per constrained coordinate")
        if constrained.size and np.bincount(constrained).max() > 1:
            raise ValueError("constrained indices must be distinct")
        if np.any(np.isnan(bounds)) or np.any(bounds == -np.inf):
            raise ValueError("bounds must be finite or +inf")
        for name, value in (("b", b), ("constrained", constrained), ("bounds", bounds)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _unconstrained(self) -> np.ndarray:
        x = self.a.solve(self.b)
        x.flags.writeable = False
        return x

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Minimizer, multipliers (nonzero only on the active set), and counts.

    ``x`` and ``multipliers`` are long-double arrays so the stationarity
    residual of fine-mesh systems stays resolvable; cast to float for
    downstream double-precision work.  Compare them by value, as
    ``np.array_equal`` does, not by ``tobytes()``: on x86-64 each element
    carries uninitialised padding bytes.  ``iterations`` counts the PDAS
    iterations of this QP alone; in a ``solve_problem`` result each level of
    the warm-start chain counts its own PDAS, and ``qp_solution`` is the
    finest level's.  A solution that :func:`solve_pdas` returns has a
    read-only ``x`` and ``multipliers``, so a record computed from it later,
    as a coarse chain level's KKT record is, reads what the solve returned.
    """

    x: np.ndarray
    multipliers: np.ndarray
    active_set: tuple
    iterations: int


def _equality_step(qp: BoundQp, active: np.ndarray):
    """Solve with x pinned to its bound on the active coordinates.

    ``active`` is a boolean mask over ``qp.constrained``.  The bounds move
    into the right-hand side and :meth:`SymmetricBandedMatrix.solve` treats
    the active rows and columns as the identity's, on the QP's own matrix,
    so the system keeps its dimension and bandwidth and x equals the bound
    exactly on the active set.  Returns (x, multipliers), both read-only;
    stationarity holds on free rows by the solve and on fixed rows by the
    definition of the multiplier, read from b - Ax.  With nothing active,
    x is the QP's cached unconstrained solve and the multipliers are zero:
    the same bits the pinned path computes, without its products.
    """
    fixed = qp.constrained[active]
    if not fixed.size:
        x = qp._unconstrained
        multipliers = np.zeros_like(x)
    else:
        x = np.zeros(qp.dim)
        x[fixed] = qp.bounds[active]
        rhs = qp.a.residual(x, qp.b)
        rhs[fixed] = x[fixed]
        x = qp.a.solve(rhs, fixed)
        x.flags.writeable = False
        multipliers = np.zeros_like(x)
        multipliers[fixed] = qp.a.residual(x, qp.b)[fixed]
    multipliers.flags.writeable = False
    return x, multipliers


def _cold_start(qp: BoundQp) -> np.ndarray:
    """Mask over ``qp.constrained`` of the bounds the unconstrained minimizer violates.

    Reads the QP's cached unconstrained solve, so a PDAS step that starts
    from the empty mask reuses it instead of solving again.
    """
    return qp._unconstrained[qp.constrained] > qp.bounds


def solve_pdas(qp: BoundQp, active: np.ndarray | None = None) -> QpSolution:
    """Primal-dual active set iteration for the bound QP.

    Starts from ``active``, a boolean mask over ``qp.constrained`` (indices
    raise); without one, from the unconstrained solve with the violated
    bounds as the initial active set.  That solve is the QP's cached one,
    also returned by any iteration with nothing active, so an unconstrained
    QP is solved once.  An active coordinate stays active while its
    multiplier is positive and an inactive one enters when it exceeds its
    bound; this is the semismooth Newton rule
    ``lambda_i + c (x_i - u_i) > 0`` for any c > 0, since x_i = u_i on the
    active set and lambda_i = 0 off it.  Terminates when the active set
    repeats; an immediate repeat is optimality, any longer cycle or hitting
    :data:`MAX_ITER` raises :class:`NonConvergenceError`.
    """
    active = _cold_start(qp) if active is None else np.asarray(active)
    if active.dtype != bool or active.shape != qp.constrained.shape:
        raise ValueError(
            f"initial active set needs a boolean mask, one entry per constrained coordinate "
            f"({qp.constrained.size}), got {active.dtype} of shape {active.shape}"
        )
    seen = {active.tobytes()}
    for it in range(1, MAX_ITER + 1):
        x, multipliers = _equality_step(qp, active)
        last = QpSolution(x, multipliers, tuple(sorted(qp.constrained[active].tolist())), it)
        updated = np.where(active, multipliers[qp.constrained] > 0, x[qp.constrained] > qp.bounds)
        if np.array_equal(updated, active):
            return last
        if updated.tobytes() in seen:
            raise NonConvergenceError("active set cycled without converging", last)
        seen.add(updated.tobytes())
        active = updated
    raise NonConvergenceError(f"no stable active set within {MAX_ITER} iterations", last)


def kkt_residual(qp: BoundQp, sol: QpSolution) -> KktResidual:
    """The four KKT residuals, stationarity also scaled, of a candidate solution.

    Reads nothing but its arguments.  Differences and products stay in
    long double; their abs, max and min run in double, which gives the same
    floats since rounding is monotone.
    """
    residual = qp.a.residual(sol.x, qp.b)
    stationarity = float(np.max(np.abs(sol.multipliers - residual, dtype=float), initial=0.0))
    scale = qp.a.norm_inf * float(np.max(np.abs(sol.x, dtype=float), initial=0.0)) + np.max(np.abs(qp.b), initial=0.0)
    scaled = stationarity / float(scale) if scale else (np.inf if stationarity else 0.0)
    if qp.constrained.size:
        gap = sol.x[qp.constrained] - qp.bounds
        lam = sol.multipliers[qp.constrained]
        primal = float(max(0.0, np.maximum.reduce(gap, dtype=float)))
        min_mult = float(np.minimum.reduce(lam, dtype=float))
        finite = np.isfinite(qp.bounds)  # lambda * (x - inf) is 0 * -inf
        comp = float(np.max(np.abs(lam[finite] * gap[finite], dtype=float), initial=0.0))
    else:
        primal, min_mult, comp = 0.0, 0.0, 0.0
    return KktResidual(stationarity, scaled, primal, min_mult, comp)
