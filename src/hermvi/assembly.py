"""Assembly of the energy form, load functional, slope bounds and Dirichlet
elimination.

The energy bilinear form combines an L2 mass term with a width-scaled
bending term,

    a(v, w) = int v w dx + beta * int v'' w'' dx,

so the assembled matrix is symmetric positive definite with half-bandwidth 3
in the interleaved (value, slope) DOF ordering.  Load assembly splits any
element containing a registered data breakpoint so that each quadrature
segment sees a smooth integrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .mesh import DofMap, Mesh, _shape_matrix, gauss_rule, segment_quadrature

#: Half-bandwidth of the Hermite energy matrix in interleaved DOF order.
HALF_BANDWIDTH = 3

#: Default Gauss point count for assembly; exact for the degree-6 mass
#: integrands with headroom for smooth data.
DEFAULT_QUAD_POINTS = 6

#: Iterative refinement steps after the Cholesky solve in
#: :meth:`SymmetricBandedMatrix.solve`.
REFINE_STEPS = 3


class MatrixNotSpdError(Exception):
    """Raised when a Cholesky factorization of a system matrix fails."""


def _band_slots(dim: int, hbw: int):
    """Row index, column index and in-range mask of every band storage slot."""
    j = np.broadcast_to(np.arange(dim), (2 * hbw + 1, dim))
    i = j + np.arange(-hbw, hbw + 1)[:, None]
    return i, j, (i >= 0) & (i < dim)


@dataclass
class SymmetricBandedMatrix:
    """Symmetric band matrix in LAPACK diagonal-ordered storage.

    ``data[half_bandwidth + i - j, j]`` holds entry (i, j); both triangles
    are stored so assembly round-off symmetry can be checked rather than
    assumed.
    """

    dim: int
    half_bandwidth: int
    data: np.ndarray

    @classmethod
    def zeros(cls, dim: int, half_bandwidth: int = HALF_BANDWIDTH) -> "SymmetricBandedMatrix":
        hbw = max(0, min(half_bandwidth, dim - 1))
        return cls(dim=dim, half_bandwidth=hbw, data=np.zeros((2 * hbw + 1, dim)))

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymmetricBandedMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        out = cls.zeros(a.shape[0], a.shape[0] - 1)
        i, j, valid = _band_slots(out.dim, out.half_bandwidth)
        out.data[valid] = a[i[valid], j[valid]]
        return out

    def get(self, i: int, j: int) -> float:
        if abs(i - j) > self.half_bandwidth:
            return 0.0
        return float(self.data[self.half_bandwidth + i - j, j])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        i, j, valid = _band_slots(self.dim, self.half_bandwidth)
        out[i[valid], j[valid]] = self.data[valid]
        return out

    def symmetry_error(self) -> float:
        """max |A[i,j] - A[j,i]| over the stored band."""
        worst = 0.0
        hbw = self.half_bandwidth
        for off in range(1, hbw + 1):
            lo = self.data[hbw + off, : self.dim - off]  # A[j+off, j]
            up = self.data[hbw - off, off:]              # A[j, j+off]
            if lo.size:
                worst = max(worst, float(np.max(np.abs(lo - up))))
        return worst

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x in long double.

        The bending block scales like 1/h^3, so double-precision products
        lose enough bits on fine meshes to drown KKT residuals; carrying the
        product in long double (80-bit on x86) keeps them measurable.
        """
        hbw = self.half_bandwidth
        xl = np.asarray(x, dtype=np.longdouble)
        y = np.zeros(self.dim, dtype=np.longdouble)
        for d in range(-hbw, hbw + 1):
            j0, j1 = max(0, -d), min(self.dim, self.dim - d)
            if j1 > j0:
                band = self.data[hbw + d, j0:j1].astype(np.longdouble)
                y[j0 + d : j1 + d] += band * xl[j0:j1]
        return y

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """rhs - A @ x in long double."""
        return np.asarray(rhs, dtype=np.longdouble) - self.matvec(x)

    def upper_band(self) -> np.ndarray:
        """Upper band in the form scipy's *h_banded solvers expect."""
        return self.data[: self.half_bandwidth + 1]

    def factor(self):
        """Banded Cholesky factor; raises MatrixNotSpdError on failure."""
        try:
            return cholesky_banded(self.upper_band(), lower=False)
        except np.linalg.LinAlgError as exc:
            raise MatrixNotSpdError(str(exc)) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs with :data:`REFINE_STEPS` refinement steps.

        The correction steps run in double precision but the iterate and its
        residual are carried in long double, so the returned solution
        satisfies the system beyond double-precision roundoff in A @ x.  A
        long-double ``rhs`` keeps its extra bits in those residuals.
        """
        factor = self.factor()
        x = cho_solve_banded((factor, False), np.asarray(rhs, dtype=float)).astype(np.longdouble)
        for _ in range(REFINE_STEPS):
            r = self.residual(x, rhs).astype(float)
            x = x + cho_solve_banded((factor, False), r)
        return x

    def pinned(self, fixed: np.ndarray) -> "SymmetricBandedMatrix":
        """Copy with the rows and columns ``fixed`` replaced by the identity's.

        The pinned coordinates decouple from the rest, in the Cholesky
        factor too, so :meth:`solve` returns the right-hand side's values
        there exactly.  Dimension and bandwidth stay those of ``self``.
        """
        mask = np.zeros(self.dim, dtype=bool)
        mask[fixed] = True
        i, j, valid = _band_slots(self.dim, self.half_bandwidth)
        hit = valid & (mask[np.clip(i, 0, self.dim - 1)] | mask[j])
        return SymmetricBandedMatrix(self.dim, self.half_bandwidth, np.where(hit, i == j, self.data))

    def submatrix(self, keep: np.ndarray) -> "SymmetricBandedMatrix":
        """Principal submatrix on the (sorted) retained indices.

        Removing rows/columns never widens the band: retained indices that
        end up adjacent were at least as close originally, and any pair that
        was outside the band contributes an exact zero.
        """
        keep = np.asarray(keep, dtype=int)
        hbw = self.half_bandwidth
        out = SymmetricBandedMatrix.zeros(keep.size, hbw)
        i, j, valid = _band_slots(out.dim, out.half_bandwidth)
        row = hbw + keep[i[valid]] - keep[j[valid]]
        inband = (row >= 0) & (row <= 2 * hbw)
        out.data[valid] = np.where(inband, self.data[row.clip(0, 2 * hbw), keep[j[valid]]], 0.0)
        return out


def assemble_energy(mesh: Mesh, beta: float, quad_points: int = DEFAULT_QUAD_POINTS) -> SymmetricBandedMatrix:
    """Assemble int v w + beta int v'' w'' over the global Hermite basis.

    No boundary conditions are applied; use :func:`apply_dirichlet` next.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    rule = gauss_rule(quad_points)
    h = mesh.h[:, None]
    xi = np.broadcast_to(rule.points, (mesh.n_elements, rule.points.size))
    s0, s2 = _shape_matrix(xi, h, 0), _shape_matrix(xi, h, 2)
    w = rule.weights * h
    local = np.einsum("eq,eqi,eqj->eij", w, s0, s0) + beta * np.einsum("eq,eqi,eqj->eij", w, s2, s2)
    # average with the transpose so the band is exactly symmetric
    local = 0.5 * (local + local.swapaxes(1, 2))
    # local (i, j) of element e is entry (2e + i, 2e + j): band row
    # hbw + i - j, columns 2e + j over all e
    a = SymmetricBandedMatrix.zeros(2 * mesh.n_nodes, HALF_BANDWIDTH)
    for i in range(4):
        for j in range(4):
            a.data[HALF_BANDWIDTH + i - j, j : a.dim - 2 + j : 2] += local[:, i, j]
    return a


def assemble_load(
    mesh: Mesh,
    y_d: Callable,
    f: Callable,
    beta: float,
    breakpoints: Sequence[float] = (),
    quad_points: int = DEFAULT_QUAD_POINTS,
) -> np.ndarray:
    """Assemble b[i] = int y_d phi_i dx - beta int f phi_i'' dx.

    Elements containing a registered breakpoint of the data are integrated
    piecewise so kinks or jumps never sit inside a Gauss panel.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    element, x, xi, w = segment_quadrature(mesh, breakpoints, quad_points)
    h = mesh.h[element]
    wy = w * np.asarray(y_d(x), dtype=float)
    wf = w * np.asarray(f(x), dtype=float)
    vals = _shape_matrix(xi, h, 0) * wy[:, None] - beta * (_shape_matrix(xi, h, 2) * wf[:, None])
    dofs = 2 * element[:, None] + np.arange(4)
    return np.bincount(dofs.ravel(), weights=vals.ravel(), minlength=2 * mesh.n_nodes)


def constraint_bounds(mesh: Mesh, psi: Callable) -> np.ndarray:
    """Upper bound for the slope DOF at each node: psi evaluated there."""
    return np.broadcast_to(np.asarray(psi(mesh.nodes), dtype=float), mesh.nodes.shape).copy()


@dataclass
class AssembledSystem:
    """Energy matrix and load after Dirichlet elimination.

    ``retained`` maps reduced indices back to full DOF indices;
    ``constrained`` are the reduced indices of the slope DOFs, aligned with
    ``bounds`` (one entry per mesh node).
    """

    a: SymmetricBandedMatrix
    b: np.ndarray
    dof_map: DofMap
    retained: np.ndarray
    full_to_reduced: np.ndarray
    constrained: np.ndarray
    bounds: np.ndarray | None = None

    def embed(self, x_reduced: np.ndarray) -> np.ndarray:
        """Expand a reduced vector to all DOFs, zeros at Dirichlet DOFs."""
        full = np.zeros(self.dof_map.n_dofs)
        full[self.retained] = x_reduced
        return full

    def to_qp(self):
        from .qp import BoundQp

        if self.bounds is None:
            raise ValueError("system has no slope bounds attached")
        return BoundQp(a=self.a, b=self.b, constrained=self.constrained, bounds=self.bounds)


def apply_dirichlet(
    a: SymmetricBandedMatrix,
    b: np.ndarray,
    dof_map: DofMap,
    bounds: np.ndarray | None = None,
) -> AssembledSystem:
    """Eliminate the endpoint value DOFs (homogeneous boundary data).

    Rows and columns are dropped; with zero boundary values there is no
    right-hand-side correction.  The returned index maps let solutions be
    re-embedded with zeros.
    """
    n_dofs = dof_map.n_dofs
    if a.dim != n_dofs or len(b) != n_dofs:
        raise ValueError("system size does not match the DOF map")
    retained = np.setdiff1d(np.arange(n_dofs), dof_map.dirichlet_dofs)
    full_to_reduced = np.full(n_dofs, -1, dtype=int)
    full_to_reduced[retained] = np.arange(retained.size)
    constrained = full_to_reduced[dof_map.constrained_dofs]
    if np.any(constrained < 0):
        raise ValueError("constrained DOFs overlap Dirichlet DOFs")
    bounds_arr = None if bounds is None else np.asarray(bounds, dtype=float)
    if bounds_arr is not None and bounds_arr.shape != (dof_map.n_nodes,):
        raise ValueError("expected one bound per node")
    return AssembledSystem(
        a=a.submatrix(retained),
        b=np.asarray(b, dtype=float)[retained],
        dof_map=dof_map,
        retained=retained,
        full_to_reduced=full_to_reduced,
        constrained=constrained,
        bounds=bounds_arr,
    )
