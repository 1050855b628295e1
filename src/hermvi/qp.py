"""Bound-constrained SPD quadratic programs.

Solves min 1/2 x'Ax - b'x subject to x_i <= u_i on a subset of coordinates
with a primal-dual active set (PDAS) iteration: guess the active set, solve
the equality-constrained system, update multipliers, repeat until the set is
stable.  Finite termination is proved for M-matrices (Hintermüller, Ito and
Kunisch, SIAM J. Optim. 13, 2002); the Hermite energy matrix has positive
off-diagonal entries, so :func:`solve_pdas` raises on a cycle or after
:data:`MAX_ITER` iterations.  A brute-force oracle and KKT residuals
complete the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import MatrixNotSpdError, SymmetricBandedMatrix

#: Refused above this many bounded coordinates (2^n candidate sets).
BRUTEFORCE_LIMIT = 20

#: PDAS iteration limit on each call of :func:`solve_pdas`.
MAX_ITER = 100


class NonConvergenceError(Exception):
    """PDAS failed to settle; carries the last iterate for inspection."""

    def __init__(self, message, x=None, multipliers=None, active_set=(), iterations=0):
        super().__init__(message)
        self.x = x
        self.multipliers = multipliers
        self.active_set = tuple(active_set)
        self.iterations = iterations


class KktResidual(NamedTuple):
    """Violations of the four KKT conditions, computed fresh from (x, lambda)."""

    stationarity: float       # ||Ax - b + lambda||_inf
    stationarity_scaled: float  # the same over ||A||_inf ||x||_inf + ||b||_inf (0 when it is 0)
    primal_violation: float   # max(0, x_i - u_i) over bounded coordinates
    min_multiplier: float     # most negative multiplier (dual feasibility)
    complementarity: float    # max |lambda_i * (x_i - u_i)|


@dataclass
class BoundQp:
    """SPD quadratic program with upper bounds on selected coordinates.

    ``a`` may be a SymmetricBandedMatrix or a dense symmetric array; bounds
    may include +inf for coordinates that are listed but unconstrained.
    """

    a: SymmetricBandedMatrix
    b: np.ndarray
    constrained: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        if isinstance(self.a, np.ndarray):
            self.a = SymmetricBandedMatrix.from_dense(self.a)
        self.b = np.asarray(self.b, dtype=float)
        self.constrained = np.asarray(self.constrained, dtype=int)
        self.bounds = np.asarray(self.bounds, dtype=float)
        dim = self.a.dim
        if self.b.shape != (dim,):
            raise ValueError("load vector length does not match the matrix")
        if not np.isfinite(self.b).all():
            raise ValueError("load vector must be finite")
        if self.constrained.size != self.bounds.size:
            raise ValueError("need exactly one bound per constrained coordinate")
        if self.constrained.size and (
            self.constrained.min() < 0 or self.constrained.max() >= dim
        ):
            raise ValueError("constrained index out of range")
        if np.any(np.isnan(self.bounds)) or np.any(self.bounds == -np.inf):
            raise ValueError("bounds must be finite or +inf")
        self.a.factor()  # fail early if not SPD; the factor is cached for later solves

    @property
    def dim(self) -> int:
        return self.a.dim

    def objective(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.a.matvec(x)) - float(self.b @ x)


@dataclass
class QpSolution:
    """Minimizer, multipliers (nonzero only on the active set), and counts.

    ``x`` and ``multipliers`` are long-double arrays so the stationarity
    residual of fine-mesh systems stays resolvable; cast to float for
    downstream double-precision work.  ``iterations`` counts the PDAS
    iterations of this QP alone (the candidate sets tried, for
    :func:`solve_bruteforce`); in a ``solve_problem`` result each level of
    the warm-start chain counts its own PDAS, and ``qp_solution`` is the
    finest level's.
    """

    x: np.ndarray
    multipliers: np.ndarray
    active_set: tuple
    iterations: int


def _equality_step(qp: BoundQp, active: np.ndarray):
    """Solve with x pinned to its bound on the active coordinates.

    ``active`` is a boolean mask over ``qp.constrained``.  The active rows
    and columns of a copy of the band become the identity's and the bounds
    move into the right-hand side, so the system keeps its dimension and
    bandwidth and x equals the bound exactly on the active set.  Returns
    (x, multipliers); stationarity holds on free rows by the solve and on
    fixed rows by the definition of the multiplier.
    """
    fixed = qp.constrained[active]
    x = np.zeros(qp.dim)
    x[fixed] = qp.bounds[active]
    rhs = qp.a.residual(x, qp.b)
    rhs[fixed] = x[fixed]
    x = qp.a.pinned(fixed).solve(rhs)
    multipliers = np.zeros_like(x)
    multipliers[fixed] = qp.a.residual(x, qp.b)[fixed]
    return x, multipliers


def _cold_start(qp: BoundQp) -> np.ndarray:
    """Mask over ``qp.constrained`` of the bounds the unconstrained minimizer violates."""
    return qp.a.solve(qp.b)[qp.constrained] > qp.bounds


def solve_pdas(qp: BoundQp, active: np.ndarray | None = None) -> QpSolution:
    """Primal-dual active set iteration for the bound QP.

    Starts from ``active``, a boolean mask over ``qp.constrained``; without
    one, from the unconstrained solve with the violated bounds as the
    initial active set.  An active coordinate stays active while its
    multiplier is positive and an inactive one enters when it exceeds its
    bound; this is the semismooth Newton rule ``lambda_i + c (x_i - u_i) > 0``
    for any c > 0, since x_i = u_i on the active set and lambda_i = 0 off it.
    Terminates when the active set repeats; an immediate repeat is
    optimality, any longer cycle or hitting :data:`MAX_ITER` raises
    :class:`NonConvergenceError`.
    """
    active = np.asarray(_cold_start(qp) if active is None else active, dtype=bool)
    if active.shape != qp.constrained.shape:
        raise ValueError(
            f"initial active set needs one entry per constrained coordinate "
            f"({qp.constrained.size}), got shape {active.shape}"
        )
    seen = {active.tobytes()}
    for it in range(1, MAX_ITER + 1):
        x, multipliers = _equality_step(qp, active)
        last = dict(x=x, multipliers=multipliers, iterations=it,
                    active_set=tuple(sorted(qp.constrained[active].tolist())))
        updated = np.where(active, multipliers[qp.constrained] > 0, x[qp.constrained] > qp.bounds)
        if np.array_equal(updated, active):
            return QpSolution(**last)
        if updated.tobytes() in seen:
            raise NonConvergenceError("active set cycled without converging", **last)
        seen.add(updated.tobytes())
        active = updated
    raise NonConvergenceError(f"no stable active set within {MAX_ITER} iterations", **last)


def solve_bruteforce(qp: BoundQp) -> QpSolution:
    """Enumerate candidate active sets; independent oracle for small QPs.

    Every subset of the finitely-bounded coordinates is tried as an active
    set; the equality-constrained stationary point is kept if it is primal
    and dual feasible.  Strict convexity makes the minimizer unique, so the
    feasible candidate with the lowest objective is the solution.  Uses
    dense linear algebra on purpose: a code path disjoint from the PDAS
    solver.
    """
    finite = [
        (int(i), float(u))
        for i, u in zip(qp.constrained, qp.bounds)
        if np.isfinite(u)
    ]
    if len(finite) > BRUTEFORCE_LIMIT:
        raise ValueError(
            f"{len(finite)} bounded coordinates exceed the enumeration limit "
            f"({BRUTEFORCE_LIMIT})"
        )
    a = qp.a.to_dense()
    al = a.astype(np.longdouble)
    best = None
    tried = 0
    for size in range(len(finite) + 1):
        for combo in itertools.combinations(finite, size):
            tried += 1
            fixed = np.array([i for i, _ in combo], dtype=int)
            vals = np.array([u for _, u in combo])
            free = np.setdiff1d(np.arange(qp.dim), fixed)
            x = np.zeros(qp.dim)
            if fixed.size:
                x[fixed] = vals
            if free.size:
                rhs = qp.b[free] - a[np.ix_(free, fixed)] @ x[fixed]
                xf = np.linalg.solve(a[np.ix_(free, free)], rhs)
                r = rhs.astype(np.longdouble) - al[np.ix_(free, free)] @ xf.astype(np.longdouble)
                xf = xf + np.linalg.solve(a[np.ix_(free, free)], r.astype(float))
                x[free] = xf
            multipliers = np.zeros(qp.dim)
            if fixed.size:
                multipliers[fixed] = qp.b[fixed] - a[fixed] @ x
            feasible = all(x[i] <= u + 1e-9 for i, u in finite)
            dual_ok = not fixed.size or multipliers[fixed].min() >= -1e-11
            if feasible and dual_ok:
                obj = qp.objective(x)
                if best is None or obj < best[0]:
                    best = (obj, x, multipliers, tuple(int(i) for i in fixed))
    if best is None:
        raise RuntimeError("no KKT-consistent active set found (not SPD?)")
    _, x, multipliers, active = best
    return QpSolution(x=x, multipliers=multipliers, active_set=tuple(sorted(active)), iterations=tried)


def kkt_residual(qp: BoundQp, sol: QpSolution) -> KktResidual:
    """Recompute the four KKT residuals, stationarity also scaled, for a candidate solution."""
    r = sol.multipliers - qp.a.residual(sol.x, qp.b)
    stationarity = float(np.max(np.abs(r))) if r.size else 0.0
    # the band is symmetric with zero unused slots: its largest column sum is ||A||_inf
    scale = np.abs(qp.a.data).sum(axis=0).max() * float(np.max(np.abs(sol.x))) + np.max(np.abs(qp.b))
    scaled = stationarity / float(scale) if stationarity else 0.0
    if qp.constrained.size:
        gap = sol.x[qp.constrained] - qp.bounds
        lam = sol.multipliers[qp.constrained]
        primal = float(max(0.0, np.max(gap)))
        min_mult = float(np.min(lam))
        comp = float(np.max(np.abs(lam * gap)))
    else:
        primal, min_mult, comp = 0.0, 0.0, 0.0
    return KktResidual(stationarity, scaled, primal, min_mult, comp)
