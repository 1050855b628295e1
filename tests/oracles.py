"""Reference implementations that the tests compare the solver against.

Nothing here is on the solve path, and nothing reads a private ``hermvi``
name: every oracle reaches its result by its own route, so it can judge
the code it checks.

* Band import and export, slot by slot from ``data``: :func:`from_dense`,
  :func:`to_dense`, :func:`pinned_by_slots` (and :func:`pinned`) and
  :func:`matvec_per_diagonal`.
* A small bound QP by brute force: :func:`solve_bruteforce` and its
  :func:`objective`.
* The split rule of every quadrature, one interval at a time:
  :func:`split_segments`.
* The Hermite prolongation from a coarse mesh to a fine one, one fine node
  at a time: :func:`prolongation`.
* The exact bundle's checks from fresh Legendre matrices:
  :func:`rule_checks_by_legvander`.
* The continuous cost of a control problem: :func:`cost`.
* The discrete problem of a mesh in 40-digit decimal arithmetic:
  :func:`solve_decimal`.
"""

from __future__ import annotations

import itertools
from decimal import Decimal, localcontext
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
import scipy.sparse

import hermvi as hv

# ---------------------------------------------------------------------------
# the band, slot by slot
# ---------------------------------------------------------------------------


def from_dense(a: np.ndarray) -> hv.SymmetricBandedMatrix:
    """The band of a dense symmetric matrix, half-bandwidth dim - 1, filled one diagonal at a time."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    # matvec reads both triangles but factor only the upper one
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-14 * np.max(np.abs(a), initial=0.0):
        raise ValueError("expected a symmetric matrix")
    n = a.shape[0]
    hbw = max(n - 1, 0)
    data = np.zeros((2 * hbw + 1, n))
    for d in range(-hbw, hbw + 1):  # entry (j + d, j) sits in slot [hbw + d, j]
        j = np.arange(max(0, -d), min(n, n - d))
        data[hbw + d, j] = a[j + d, j]
    return hv.SymmetricBandedMatrix(data)


def matvec_per_diagonal(a, x):
    """A @ x in long double, one diagonal at a time: the oracle for matvec."""
    hbw = a.half_bandwidth
    xl = np.asarray(x, dtype=np.longdouble)
    y = np.zeros(a.dim, dtype=np.longdouble)
    for d in range(-hbw, hbw + 1):
        j0, j1 = max(0, -d), min(a.dim, a.dim - d)
        if j1 > j0:
            y[j0 + d : j1 + d] += a.data[hbw + d, j0:j1].astype(np.longdouble) * xl[j0:j1]
    return y


def to_dense(a: hv.SymmetricBandedMatrix) -> np.ndarray:
    """Dense copy of a band, column by column from :func:`matvec_per_diagonal`: each
    entry is one slot times 1, so slots outside the matrix are never read."""
    out = np.zeros((a.dim, a.dim))
    for k, e in enumerate(np.eye(a.dim)):
        out[:, k] = matvec_per_diagonal(a, e)
    return out


def pinned_by_slots(a, fixed):
    """Band of ``a`` with rows and columns ``fixed`` set to the identity's,
    from the row and column of every storage slot: the oracle for the pins."""
    mask = np.zeros(a.dim, dtype=bool)
    mask[np.asarray(fixed, dtype=np.intp)] = True
    hbw = a.half_bandwidth
    j = np.broadcast_to(np.arange(a.dim), (2 * hbw + 1, a.dim))
    i = j + np.arange(-hbw, hbw + 1)[:, None]
    valid = (i >= 0) & (i < a.dim)
    hit = valid & (mask[np.clip(i, 0, a.dim - 1)] | mask[j])
    return np.where(hit, i == j, a.data)


def pinned(a, fixed) -> hv.SymmetricBandedMatrix:
    """The matrix that ``a.solve(rhs, fixed)`` solves, as a band of its own."""
    return hv.SymmetricBandedMatrix(pinned_by_slots(a, fixed))


# ---------------------------------------------------------------------------
# brute force on small bound QPs
# ---------------------------------------------------------------------------

#: Refused above this many bounded coordinates (2^n candidate sets).
BRUTEFORCE_LIMIT = 20


def objective(qp: hv.BoundQp, x: np.ndarray) -> float:
    """1/2 x'Ax - b'x."""
    return 0.5 * float(x @ qp.a.matvec(x)) - float(qp.b @ x)


def solve_bruteforce(qp: hv.BoundQp) -> hv.QpSolution:
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
    a = to_dense(qp.a)
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
                obj = objective(qp, x)
                if best is None or obj < best[0]:
                    best = (obj, x, multipliers, tuple(int(i) for i in fixed))
    if best is None:
        raise RuntimeError("no KKT-consistent active set found (not SPD?)")
    _, x, multipliers, active = best
    return hv.QpSolution(x=x, multipliers=multipliers, active_set=tuple(sorted(active)), iterations=tried)


# ---------------------------------------------------------------------------
# the split rule
# ---------------------------------------------------------------------------


def split_segments(lo: float, hi: float, breakpoints: Iterable[float]) -> list[tuple[float, float]]:
    """Split [lo, hi] at the breakpoints strictly inside it, one interval at a time.

    Breakpoints closer than ``1e-12 * (hi - lo)`` to a segment end are
    ignored; slivers that thin contribute nothing but noise to quadrature.
    """
    tol = 1e-12 * (hi - lo)
    cuts = sorted(b for b in breakpoints if lo + tol < b < hi - tol)
    edges = [lo, *cuts, hi]
    return list(zip(edges[:-1], edges[1:]))


# ---------------------------------------------------------------------------
# the Hermite prolongation
# ---------------------------------------------------------------------------


def prolongation(coarse: hv.Mesh, fine: hv.Mesh) -> scipy.sparse.csr_matrix:
    """The coarse Hermite basis read at the fine nodes, shape ``(2 fine nodes, 2 coarse nodes)``.

    Rows 2i and 2i + 1 hold the value and the slope at fine node i of each
    coarse basis function: :func:`hermvi.reference_shape` at orders 0 and 1
    on the coarse element holding node i.  When every coarse node is a fine
    node, the coarse space lies inside the fine one and P maps coarse
    coefficients to the fine coefficients of the same function, so the
    coarse energy is P^T A P and the coarse load P^T b, for data that the
    load's rule integrates exactly.
    """
    rows, cols, vals = [], [], []
    for i, x in enumerate(fine.nodes.tolist()):
        e = min(int(np.searchsorted(coarse.nodes, x, side="right")) - 1, coarse.n_elements - 1)
        h = float(coarse.h[e])
        for order in (0, 1):
            rows += [2 * i + order] * 4
            cols += range(2 * e, 2 * e + 4)
            vals += hv.reference_shape((x - float(coarse.nodes[e])) / h, h, order).tolist()
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(2 * fine.n_nodes, 2 * coarse.n_nodes))


# ---------------------------------------------------------------------------
# the bundle's checks, from fresh Legendre matrices
# ---------------------------------------------------------------------------


def rule_checks_by_legvander(spec: hv.ProblemSpec, x: np.ndarray, w: np.ndarray) -> tuple:
    """The exact bundle's checks on the rule (x, w), each Legendre matrix built by ``legvander`` here.

    Returns the worst density mismatch, negativity and rho * (p - psi), the
    weak stationarity residuals on q_0 .. q_19, int phi and int psi, in the
    arithmetic order of ``verify``: ``(w p') @ V_18 @ D + (w (phi - f' + rho
    - lam)) @ V_19`` plus the boundary terms.
    """
    ex, leg = spec.exact, np.polynomial.legendre
    rho, phi, f_prime, psi = ex.rho(x), ex.phi(x), ex.f_prime(x), spec.psi(x)
    density = ex.p_dprime(x) + f_prime - phi + ex.lam
    q_left, q_right = leg.legvander([-1.0, 1.0], 19)
    residuals = (
        (w * ex.p_prime(x)) @ leg.legvander(x, 18) @ leg.legder(np.eye(20))
        + (w * (phi - f_prime + rho - ex.lam)) @ leg.legvander(x, 19)
        + (spec.f(1.0) + ex.zeta) * q_right + (ex.gamma - spec.f(-1.0)) * q_left
    )
    return (float(np.max(np.abs(density - rho))), float(max(0.0, -np.min(density))),
            float(np.max(np.abs(rho * (ex.p(x) - psi)))), residuals, float(w @ phi), float(w @ psi))


# ---------------------------------------------------------------------------
# the continuous cost
# ---------------------------------------------------------------------------


def cost(spec: hv.ProblemSpec, y: Callable, u: Callable, breakpoints: Sequence[float] = ()) -> float:
    """Cost 1/2 (||y - y_d||^2 + beta ||u||^2) by :func:`hermvi.composite_integral`.

    Extra breakpoints (for example mesh nodes, where a discrete control
    jumps) can be passed on top of the problem's registered ones.
    """
    return 0.5 * hv.composite_integral(
        lambda t: (np.asarray(y(t), dtype=float) - spec.y_d(t)) ** 2
        + spec.beta * np.asarray(u(t), dtype=float) ** 2,
        (*spec.breakpoints, *breakpoints),
    )


# ---------------------------------------------------------------------------
# the discrete problem in 40-digit decimal
# ---------------------------------------------------------------------------

#: Significant digits of :func:`solve_decimal`.
DIGITS = 40

#: Half-bandwidth of the Hermite energy matrix in interleaved DOF order.
HBW = 3

#: Unit-element mass (times 420) and bending matrices in local DOF order
#: (value_left, slope_left, value_right, slope_right).
MASS_420 = ((156, 22, 54, -13), (22, 4, 13, -3), (54, 13, 156, -22), (-13, -3, -22, 4))
BENDING = ((12, 6, -12, 6), (6, 4, -6, 2), (-12, -6, 12, -6), (6, 2, -6, 4))

#: Decimal PDAS iteration limit.
DECIMAL_MAX_ITER = 20


class DecimalSolution(NamedTuple):
    """Coefficients over all Hermite DOFs, the active nodes and the PDAS iteration count."""

    x: list
    active_nodes: tuple
    iterations: int

    def rounded(self, mesh: hv.Mesh) -> hv.DiscreteSolution:
        """The coefficients rounded to double, as a discrete solution on ``mesh``."""
        return hv.DiscreteSolution(np.array([float(v) for v in self.x]), mesh, self.iterations,
                                   active_nodes=self.active_nodes)


def energy_band(mesh: hv.Mesh, beta: float) -> list:
    """Lower band of the energy matrix from the closed-form element matrices.

    ``low[i][k]`` is entry (i, i - k), k = 0 .. 3.  Each width is the
    difference of the float nodes' exact binary values; the mass part is
    h MASS_420 / 420 and the bending part beta / h^3 BENDING, with slope
    rows and columns scaled by h.
    """
    nodes = [Decimal(float(x)) for x in mesh.nodes]
    beta = Decimal(float(beta))
    low = [[Decimal(0)] * (HBW + 1) for _ in range(2 * len(nodes))]
    for e in range(len(nodes) - 1):
        h = nodes[e + 1] - nodes[e]
        mass, bending = h / 420, beta / (h * h * h)
        scale = (1, h, 1, h)
        for i in range(4):
            for j in range(i + 1):
                low[2 * e + i][i - j] += scale[i] * scale[j] * (mass * MASS_420[i][j] + bending * BENDING[i][j])
    return low


def _entry(low: list, i: int, j: int):
    return low[i][i - j] if j <= i else low[j][j - i]


def _matvec(low: list, x: list) -> list:
    n = len(low)
    return [sum(_entry(low, i, j) * x[j] for j in range(max(0, i - HBW), min(n, i + HBW + 1))) for i in range(n)]


def _pinned_solve(low: list, b: list, fixed: dict) -> list:
    """x with x[i] = fixed[i] on the pinned DOFs and the free rows of A x = b,
    by a banded LDL^T of A with the pinned rows and columns the identity's."""
    n = len(low)

    def pinned_entry(i, k):  # entry (i, i - k)
        return Decimal(int(k == 0)) if i in fixed or i - k in fixed else low[i][k]

    a = [[pinned_entry(i, k) for k in range(min(i, HBW) + 1)] for i in range(n)]
    near = [[j for j in range(max(0, i - HBW), min(n, i + HBW + 1)) if j in fixed] for i in range(n)]
    rhs = [fixed[i] if i in fixed else b[i] - sum(_entry(low, i, j) * fixed[j] for j in near[i]) for i in range(n)]
    lower = [[Decimal(0)] * (HBW + 1) for _ in range(n)]  # lower[i][k] = L[i, i - k]
    d = [Decimal(0)] * n
    for i in range(n):
        first = max(0, i - HBW)
        for j in range(first, i):
            s = a[i][i - j] - sum(lower[i][i - m] * d[m] * lower[j][j - m] for m in range(first, j))
            lower[i][i - j] = s / d[j]
        d[i] = a[i][0] - sum(lower[i][i - m] ** 2 * d[m] for m in range(first, i))
    z = []
    for i in range(n):
        z.append(rhs[i] - sum(lower[i][i - m] * z[m] for m in range(max(0, i - HBW), i)))
    x = [zi / di for zi, di in zip(z, d)]
    for i in reversed(range(n)):
        x[i] -= sum(lower[m][m - i] * x[m] for m in range(i + 1, min(n, i + HBW + 1)))
    return x


def solve_decimal(spec: hv.ProblemSpec, mesh: hv.Mesh, active_nodes: Sequence[int]) -> DecimalSolution:
    """The discrete problem of ``spec`` on ``mesh``, solved by PDAS in :data:`DIGITS`-digit decimal.

    The matrix is :func:`energy_band`; the load and slope bounds are
    :func:`hermvi.assemble_system`'s, as exact binary values, so only the
    matrix differs from the float solve.  The Dirichlet values and the
    slopes of the active nodes are pinned; PDAS starts from
    ``active_nodes`` and stops when the active set repeats, as
    :func:`hermvi.solve_pdas` does.
    """
    system = hv.assemble_system(spec, mesh)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        low = energy_band(mesh, spec.beta)
        b = [Decimal(float(v)) for v in system.b]
        bounds = [Decimal(float(u)) for u in system.bounds]
        dirichlet = {0: Decimal(0), len(low) - 2: Decimal(0)}
        active = frozenset(int(k) for k in active_nodes)
        seen = {active}
        for iterations in range(1, DECIMAL_MAX_ITER + 1):
            x = _pinned_solve(low, b, {**dirichlet, **{2 * k + 1: bounds[k] for k in active}})
            residual = [bi - ai for bi, ai in zip(b, _matvec(low, x))]
            updated = frozenset(k for k in range(len(bounds))
                                if (residual[2 * k + 1] > 0 if k in active else x[2 * k + 1] > bounds[k]))
            if updated == active:
                return DecimalSolution(x, tuple(sorted(active)), iterations)
            if updated in seen:
                raise RuntimeError("decimal PDAS cycled")
            seen.add(updated)
            active = updated
    raise RuntimeError(f"no stable active set within {DECIMAL_MAX_ITER} decimal PDAS iterations")
