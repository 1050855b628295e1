"""Assembly of the energy form, load functional, slope bounds and Dirichlet
conditions.

The energy bilinear form combines an L2 mass term with a width-scaled
bending term,

    a(v, w) = int v w dx + beta * int v'' w'' dx,

so the assembled matrix is symmetric positive definite with half-bandwidth 3
in the interleaved (value, slope) DOF ordering.  Its element matrices are
the closed-form cubic Hermite mass and bending matrices, so the band is
exactly symmetric.  Load assembly splits any element containing a
registered data breakpoint so that each quadrature segment sees a smooth
integrand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .mesh import DofMap, Mesh, _element_dofs, _shape_matrix, segment_quadrature

#: Half-bandwidth of the Hermite energy matrix in interleaved DOF order.
HALF_BANDWIDTH = 3

#: Gauss point count for the load; exact for polynomial y_d up to
#: degree 8 and f up to degree 10, with headroom for smooth data.
LOAD_QUAD_POINTS = 6

#: Mass and bending matrices of the unit element in local DOF order
#: (value_left, slope_left, value_right, slope_right); an element of width h
#: scales slope rows and columns by h, the mass by h and the bending by 1/h^3.
_MASS = np.array([
    [156.0, 22.0, 54.0, -13.0],
    [22.0, 4.0, 13.0, -3.0],
    [54.0, 13.0, 156.0, -22.0],
    [-13.0, -3.0, -22.0, 4.0],
]) / 420.0
_BENDING = np.array([
    [12.0, 6.0, -12.0, 6.0],
    [6.0, 4.0, -6.0, 2.0],
    [-12.0, -6.0, 12.0, -6.0],
    [6.0, 2.0, -6.0, 4.0],
])

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


def _zero_band(dim: int, half_bandwidth: int):
    """Half-bandwidth clamped to ``[0, dim - 1]`` and zero band storage for it."""
    hbw = max(0, min(half_bandwidth, dim - 1))
    return hbw, np.zeros((2 * hbw + 1, dim))


def _require_finite(a: np.ndarray) -> None:
    # LAPACK runs on through infs and NaNs, so check as scipy's wrappers do
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


@dataclass(frozen=True)
class SymmetricBandedMatrix:
    """Symmetric band matrix in LAPACK diagonal-ordered storage.

    ``data[half_bandwidth + i - j, j]`` holds entry (i, j); both triangles
    are stored because :meth:`matvec`, :meth:`pinned` and :meth:`to_dense`
    read them (and so do the KKT residual's and the benchmark's norm ||A||_inf).  ``data`` is
    made read-only on construction, so the long-double copy of the band
    and the Cholesky factor are computed at most once per instance and
    never go stale; fill the array before constructing the matrix.
    """

    dim: int
    half_bandwidth: int
    data: np.ndarray

    def __post_init__(self):
        self.data.flags.writeable = False

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymmetricBandedMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        # matvec reads both triangles but factor only the upper one
        if np.max(np.abs(a - a.T), initial=0.0) > 1e-14 * np.max(np.abs(a), initial=0.0):
            raise ValueError("expected a symmetric matrix")
        hbw, data = _zero_band(a.shape[0], a.shape[0] - 1)
        i, j, valid = _band_slots(a.shape[0], hbw)
        data[valid] = a[i[valid], j[valid]]
        return cls(a.shape[0], hbw, data)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        i, j, valid = _band_slots(self.dim, self.half_bandwidth)
        out[i[valid], j[valid]] = self.data[valid]
        return out

    @functools.cached_property
    def _longdouble(self) -> np.ndarray:
        band = self.data.astype(np.longdouble)
        band.flags.writeable = False
        return band

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x in long double.

        The bending block scales like 1/h^3, so double-precision products
        lose enough bits on fine meshes to drown KKT residuals; carrying the
        product in long double (80-bit on x86) keeps them measurable.  All
        products come from one multiplication of the cached long-double
        band; the diagonals are then summed in the order d = -hbw .. hbw.
        """
        hbw = self.half_bandwidth
        products = self._longdouble * np.asarray(x, dtype=np.longdouble)
        y = np.zeros(self.dim, dtype=np.longdouble)
        for d in range(-hbw, hbw + 1):
            j0, j1 = max(0, -d), min(self.dim, self.dim - d)
            if j1 > j0:
                y[j0 + d : j1 + d] += products[hbw + d, j0:j1]
        return y

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """rhs - A @ x in long double."""
        return np.asarray(rhs, dtype=np.longdouble) - self.matvec(x)

    @functools.cached_property
    def _factor(self) -> np.ndarray:
        upper = self.data[: self.half_bandwidth + 1]
        _require_finite(upper)
        factor, info = dpbtrf(upper, lower=0)
        if info > 0:
            raise MatrixNotSpdError(f"{info}-th leading minor not positive definite")
        factor.flags.writeable = False
        return factor

    def factor(self) -> np.ndarray:
        """Upper banded Cholesky factor, computed once per instance.

        Raises MatrixNotSpdError if the matrix is not positive definite and
        ValueError if its band holds an inf or NaN; a failed factorization
        is not cached, so every later call raises again.
        """
        return self._factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs with :data:`REFINE_STEPS` refinement steps.

        The correction steps run in double precision but the iterate and its
        residual are carried in long double, so the returned solution
        satisfies the system beyond double-precision roundoff in A @ x.  A
        long-double ``rhs`` keeps its extra bits in those residuals.  Every
        solve of one instance reuses its :meth:`factor`; an inf or NaN in
        ``rhs`` raises ValueError.
        """
        factor = self.factor()
        b = np.asarray(rhs, dtype=float)
        _require_finite(b)
        x = dpbtrs(factor, b, lower=0)[0].astype(np.longdouble)
        for _ in range(REFINE_STEPS):
            r = self.residual(x, rhs).astype(float)
            x = x + dpbtrs(factor, r, lower=0)[0]
        return x

    def pinned(self, fixed: np.ndarray) -> "SymmetricBandedMatrix":
        """Matrix with the rows and columns ``fixed`` replaced by the identity's.

        The pinned coordinates decouple from the rest, in the Cholesky
        factor too, so :meth:`solve` returns the right-hand side's values
        there exactly.  Dimension and bandwidth stay those of ``self``;
        with nothing to pin the result is ``self``, cached factor included.
        """
        mask = np.zeros(self.dim, dtype=bool)
        mask[fixed] = True
        if not mask.any():
            return self
        hbw = self.half_bandwidth
        data = self.data.copy()
        for d in range(-hbw, hbw + 1):
            # diagonal d holds entries (j + d, j): hit where row or column is pinned
            j0, j1 = max(0, -d), min(self.dim, self.dim - d)
            data[hbw + d, j0:j1][mask[j0:j1] | mask[j0 + d : j1 + d]] = 0.0
        data[hbw, mask] = 1.0
        return SymmetricBandedMatrix(self.dim, hbw, data)

    def submatrix(self, keep: np.ndarray) -> "SymmetricBandedMatrix":
        """Principal submatrix on the (sorted) retained indices.

        Removing rows/columns never widens the band: retained indices that
        end up adjacent were at least as close originally, and any pair that
        was outside the band contributes an exact zero.
        """
        keep = np.asarray(keep, dtype=int)
        hbw = self.half_bandwidth
        out_hbw, data = _zero_band(keep.size, hbw)
        i, j, valid = _band_slots(keep.size, out_hbw)
        row = hbw + keep[i[valid]] - keep[j[valid]]
        inband = (row >= 0) & (row <= 2 * hbw)
        data[valid] = np.where(inband, self.data[row.clip(0, 2 * hbw), keep[j[valid]]], 0.0)
        return SymmetricBandedMatrix(keep.size, out_hbw, data)


def assemble_energy(mesh: Mesh, beta: float) -> SymmetricBandedMatrix:
    """Assemble int v w + beta int v'' w'' over the global Hermite basis.

    No boundary conditions are applied; use :func:`apply_dirichlet` next.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    h = mesh.h
    bending = beta / h**3
    scale = (1.0, h, 1.0, h)
    # local (i, j) of element e is entry (2e + i, 2e + j): band row
    # hbw + i - j, columns 2e + j over all e
    dim = 2 * mesh.n_nodes
    data = np.zeros((2 * HALF_BANDWIDTH + 1, dim))
    for i in range(4):
        for j in range(4):
            local = scale[i] * scale[j] * (h * _MASS[i, j] + bending * _BENDING[i, j])
            data[HALF_BANDWIDTH + i - j, j : dim - 2 + j : 2] += local
    return SymmetricBandedMatrix(dim, HALF_BANDWIDTH, data)


def assemble_load(
    mesh: Mesh,
    y_d: Callable,
    f: Callable,
    beta: float,
    breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """Assemble b[i] = int y_d phi_i dx - beta int f phi_i'' dx.

    Elements containing a registered breakpoint of the data are integrated
    piecewise so kinks or jumps never sit inside a Gauss panel.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    element, x, xi, w = segment_quadrature(mesh, breakpoints, LOAD_QUAD_POINTS)
    h = mesh.h[element]
    wy = w * np.asarray(y_d(x), dtype=float)
    wf = w * np.asarray(f(x), dtype=float)
    vals = _shape_matrix(xi, h, 0) * wy[:, None] - beta * (_shape_matrix(xi, h, 2) * wf[:, None])
    return np.bincount(_element_dofs(element).ravel(), weights=vals.ravel(), minlength=2 * mesh.n_nodes)


def constraint_bounds(mesh: Mesh, psi: Callable) -> np.ndarray:
    """Upper bound for the slope DOF at each node: psi evaluated there."""
    return np.broadcast_to(np.asarray(psi(mesh.nodes), dtype=float), mesh.nodes.shape).copy()


@dataclass
class AssembledSystem:
    """Energy matrix and load with the Dirichlet DOFs pinned to zero.

    Indices are global DOF indices; ``bounds`` holds one slope bound per
    mesh node, aligned with ``dof_map.constrained_dofs``.
    """

    a: SymmetricBandedMatrix
    b: np.ndarray
    dof_map: DofMap
    bounds: np.ndarray

    def to_qp(self):
        from .qp import BoundQp

        return BoundQp(a=self.a, b=self.b, constrained=self.dof_map.constrained_dofs, bounds=self.bounds)


def apply_dirichlet(
    a: SymmetricBandedMatrix,
    b: np.ndarray,
    dof_map: DofMap,
    bounds: np.ndarray,
) -> AssembledSystem:
    """Pin the endpoint value DOFs to zero (homogeneous boundary data).

    Their rows and columns become the identity's and their load entries
    zero, as PDAS pins active slopes, so every solve returns exactly 0.0
    there and the system keeps the global DOF numbering.
    """
    if a.dim != dof_map.n_dofs or len(b) != dof_map.n_dofs:
        raise ValueError("system size does not match the DOF map")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (dof_map.n_nodes,):
        raise ValueError("expected one bound per node")
    b = np.array(b, dtype=float)
    b[dof_map.dirichlet_dofs] = 0.0
    return AssembledSystem(a=a.pinned(dof_map.dirichlet_dofs), b=b, dof_map=dof_map, bounds=bounds)
