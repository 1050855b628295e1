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
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import Mesh, _element_dofs, _shape_columns, segment_quadrature

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


def __getattr__(name: str):
    """scipy's banded LAPACK ``dpbtrf``, ``dpbtrs`` and ``csr_array``, imported on the first
    read of any of them and bound as plain module globals, so importing hermvi loads numpy
    alone.  A name bound before then, such as a patched ``dpbtrf``, keeps its value."""
    if name not in ("dpbtrf", "dpbtrs", "csr_array"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    from scipy.sparse import csr_array

    for key, value in (("dpbtrf", dpbtrf), ("dpbtrs", dpbtrs), ("csr_array", csr_array)):
        globals().setdefault(key, value)
    return globals()[name]


def _scipy(name: str):
    """The module global ``name``, one of :func:`__getattr__`'s, bound on first use."""
    return globals().get(name) or __getattr__(name)


@functools.lru_cache(maxsize=32)
def _slot_rows(hbw: int, dim: int) -> np.ndarray:
    """Read-only slot map of a band, built once per shape: the row ``j + r - hbw`` of every
    slot ``[r, j]`` (intp), clipped into the matrix, as the slots outside hold 0.0.  It is
    stored column by column from the bottom slot up, so ``rows[::-1].T.ravel()``, row i
    listing columns i + hbw down to i - hbw, is the CSR copy's column indices, uncopied."""
    columns = (np.arange(dim, dtype=np.intp)[:, None] + np.arange(hbw, -hbw - 1, -1, dtype=np.intp)).clip(0, max(dim - 1, 0))
    columns.flags.writeable = False
    return columns.T[::-1]


def _pinned(band: np.ndarray, hbw: int, fixed: np.ndarray, order: str) -> np.ndarray:
    """A copy of the top rows ``band`` of a band in ``order``, with the rows and columns ``fixed``
    (checked indices) the identity's, set by index: slot ``[r, j]`` holds entry ``(j + r - hbw, j)``,
    so row i is the slots ``[r, i + hbw - r]``, those past either end in hbw columns padding each
    side.  :meth:`SymmetricBandedMatrix.factor` pins the upper rows in Fortran order, for LAPACK to
    overwrite, and :func:`_dirichlet_systems` the whole band in C order, whose rows its readers scan."""
    k, dim = band.shape
    padded = np.zeros((k, dim + 2 * hbw), order=order)
    pinned = padded[:, hbw : hbw + dim]
    pinned[...] = band
    rows = np.arange(k)[:, None]
    padded[rows, fixed + (2 * hbw - rows)] = 0.0
    pinned[:, fixed] = 0.0
    pinned[hbw, fixed] = 1.0
    return pinned


def _require_finite(a: np.ndarray) -> None:
    # LAPACK runs on through infs and NaNs, so check as scipy's wrappers do
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


@dataclass(frozen=True, eq=False)
class SymmetricBandedMatrix:
    """Symmetric band matrix in LAPACK diagonal-ordered storage.

    ``data`` has shape ``(2 * half_bandwidth + 1, dim)`` and holds entry (i, j) at
    ``[half_bandwidth + i - j, j]``.  Its upper rows ``data[:half_bandwidth + 1]`` are the
    matrix: construction fills the lower rows from them, sets every slot outside the
    matrix to 0.0, refuses an inf or NaN and makes ``data`` read-only, so every reader
    reads plain arrays and the long-double CSR copy behind :meth:`matvec` is built at
    most once per instance and never goes stale.  A float array is completed in place
    unless it is read-only, which is copied first.  No factor is cached.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] % 2 == 0:
            raise ValueError("band data must be 2-D with an odd number of rows")
        if not data.flags.writeable:
            data = data.copy()
        hbw, dim = data.shape[0] // 2, data.shape[1]
        for d in range(1, hbw + 1):  # slot [hbw - d, j] holds entry (j - d, j), and [hbw + d, j] entry (j + d, j)
            n = min(d, dim)
            data[hbw - d, :n] = 0.0
            data[hbw + d, : dim - n] = data[hbw - d, n:]
            data[hbw + d, dim - n :] = 0.0
        _require_finite(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def half_bandwidth(self) -> int:
        return self.data.shape[0] // 2

    @functools.cached_property
    def _csr(self) -> csr_array:
        # by symmetry row i is column i read bottom to top: columns i + hbw down to
        # i - hbw, those outside the matrix at a clipped index with the value 0.0
        width, dim = self.data.shape
        values = np.ascontiguousarray(self.data[::-1].T, dtype=np.longdouble).ravel()
        indices = _slot_rows(self.half_bandwidth, dim)[::-1].T.ravel()
        return _scipy("csr_array")((values, indices, np.arange(0, width * dim + 1, width)), shape=(dim, dim))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x in long double.

        The bending block scales like 1/h^3, so double-precision products
        lose enough bits on fine meshes to drown KKT residuals; carrying the
        product in long double (80-bit on x86) keeps them measurable.  It is
        one product of the cached long-double CSR copy, the band read column
        by column: row i adds columns i + hbw down to i - hbw in turn, the
        diagonals d = i - j from -hbw to hbw, the order that fixes every
        solve's bits; the terms outside the matrix add 0.0.
        """
        return self._csr @ np.asarray(x, dtype=np.longdouble)

    def residual(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """rhs - A @ x in long double."""
        return np.asarray(rhs, dtype=np.longdouble) - self.matvec(x)

    @property
    def norm_inf(self) -> float:
        """||A||_inf: by symmetry the largest column sum of |band|, whose slots outside the matrix hold 0.0."""
        return float(np.abs(self.data).sum(axis=0).max(initial=0.0))

    def _indices(self, indices) -> np.ndarray:
        """``indices`` checked as 1-D integers in [0, dim), the rule of every index set into
        this matrix: a bool mask or a float is not an index.  Uncopied unless empty."""
        indices = np.asarray(indices)
        if indices.ndim != 1 or indices.size and (
            indices.dtype.kind not in "iu" or indices.min() < 0 or indices.max() >= self.dim
        ):
            raise ValueError(f"indices must be 1-D integers in [0, {self.dim}), not bools or floats")
        return indices if indices.size else indices.astype(np.intp)

    def factor(self, fixed=()) -> np.ndarray:
        """Upper banded Cholesky factor, from the upper band rows alone, of this
        matrix with the rows and columns ``fixed`` replaced by the identity's.

        ``fixed`` follows the rule of :meth:`_indices`, which raises
        ValueError; an empty one pins nothing.  Nothing is cached: each call
        runs one LAPACK factorization, in place in a pinned copy.  Raises
        MatrixNotSpdError if the matrix is not positive definite; construction
        has refused an inf or NaN.
        """
        hbw = self.half_bandwidth
        pinned = _pinned(self.data[: hbw + 1], hbw, self._indices(fixed), "F")
        factor, info = _scipy("dpbtrf")(pinned, lower=0, overwrite_ab=1)
        if info > 0:
            raise MatrixNotSpdError(f"{info}-th leading minor not positive definite")
        return factor

    def solve(self, rhs: np.ndarray, fixed=()) -> np.ndarray:
        """Solve A x = rhs, A pinned as in :meth:`factor`, from one :meth:`factor` and :data:`REFINE_STEPS` refinement steps.

        The corrections run in double precision but the iterate and its
        residual are carried in long double, so x satisfies the system beyond
        double-precision roundoff in A @ x; a long-double ``rhs`` keeps its
        extra bits.  The pinned coordinates decouple in the factor, so the
        solve works on the free rows alone: x is zero on the fixed rows until
        the end, each step reads :meth:`residual` of this matrix with its
        fixed rows zeroed, and x takes ``rhs`` on the fixed rows last.
        ``fixed`` follows the rule of :meth:`factor`; an inf or NaN in
        ``rhs`` raises ValueError.
        """
        factor = self.factor(fixed)
        dpbtrs = _scipy("dpbtrs")
        fixed = np.asarray(fixed, dtype=np.intp)
        b = np.array(rhs, dtype=float)
        _require_finite(b)
        target = np.asarray(rhs, dtype=np.longdouble)
        b[fixed] = 0.0
        x = dpbtrs(factor, b, lower=0)[0].astype(np.longdouble)
        for _ in range(REFINE_STEPS):
            r = self.residual(x, target)
            r[fixed] = 0.0
            x += dpbtrs(factor, r.astype(float), lower=0)[0]
        x[fixed] = target[fixed]
        return x

    def submatrix(self, keep: np.ndarray) -> "SymmetricBandedMatrix":
        """Principal submatrix on the retained indices: strictly increasing, by the rule of :meth:`_indices`.

        Removing rows/columns never widens the band: retained indices that
        end up adjacent were at least as close originally, and any pair that
        was outside the band contributes an exact zero.
        """
        keep = self._indices(keep)
        if not np.all(np.diff(keep) > 0):
            raise ValueError("retained indices must be strictly increasing")
        hbw = self.half_bandwidth
        rows = _slot_rows(min(hbw, max(keep.size - 1, 0)), keep.size)
        # band row of the source entry (keep[row], keep[j]); construction clears the slots outside
        source = hbw + keep[rows] - keep
        inband = (source >= 0) & (source <= 2 * hbw)
        return SymmetricBandedMatrix(np.where(inband, self.data[source.clip(0, 2 * hbw), keep], 0.0))

def _require_beta(beta) -> None:
    """Refuse a beta that is not positive and finite; a bool is not a beta."""
    if isinstance(beta, (bool, np.bool_)) or not 0.0 < beta < np.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")


def assemble_energy(mesh: Mesh, beta: float) -> SymmetricBandedMatrix:
    """Assemble int v w + beta int v'' w'' over the global Hermite basis.

    No boundary conditions are applied; use :func:`apply_dirichlet` next.
    ``mesh`` may be a :class:`MeshStack`: each seam element, of width 0,
    adds an exact zero, so each mesh's columns hold its own band.
    """
    _require_beta(beta)
    h = mesh.h
    bending = np.divide(beta, h**3, out=np.zeros_like(h), where=h > 0)
    scale = (1.0, h, h * h)  # by the number of slope DOFs among the entry's row and column
    slopes = (0, 1, 0, 1)
    # local (i, j), i <= j, of element e is entry (2e + i, 2e + j): upper band
    # row hbw + i - j, columns 2e + j over all e; the element matrices are
    # symmetric and construction fills the lower rows, so each of their 10
    # distinct entries is added once
    dim = 2 * mesh.n_nodes
    data = np.zeros((2 * HALF_BANDWIDTH + 1, dim))
    for i, j in itertools.combinations_with_replacement(range(4), 2):
        local = scale[slopes[i] + slopes[j]] * (h * _MASS[i, j] + bending * _BENDING[i, j])
        data[HALF_BANDWIDTH + i - j, j : dim - 2 + j : 2] += local
    return SymmetricBandedMatrix(data)


def assemble_load(
    mesh: Mesh,
    y_d: Callable,
    f: Callable,
    beta: float,
    breakpoints: Sequence[float] = (),
) -> np.ndarray:
    """Assemble b[i] = int y_d phi_i dx - beta int f phi_i'' dx.

    Elements containing a registered breakpoint of the data are integrated
    piecewise so kinks or jumps never sit inside a Gauss panel.  ``y_d``
    and ``f`` are called once, on all Gauss points; ``mesh`` may be a
    :class:`MeshStack`, and each of its DOFs sums its own mesh's points in
    the order a load of that mesh alone would.
    """
    _require_beta(beta)
    element, x, xi, w = segment_quadrature(mesh, breakpoints, LOAD_QUAD_POINTS)
    h = mesh.h[element]
    wy = w * np.asarray(y_d(x), dtype=float)
    wf = w * np.asarray(f(x), dtype=float)
    vals = np.empty((xi.size, 4))  # (point, local DOF), the order bincount sums in
    for k, (value, curvature) in enumerate(zip(_shape_columns(xi, h, 0), _shape_columns(xi, h, 2))):
        vals[:, k] = value * wy - beta * (curvature * wf)
    return np.bincount(_element_dofs(element).ravel(), weights=vals.ravel(), minlength=2 * mesh.n_nodes)


def constraint_bounds(mesh: Mesh, psi: Callable) -> np.ndarray:
    """Upper bound for the slope DOF at each node (of a mesh or :class:`MeshStack`): psi there, in one call."""
    return np.broadcast_to(np.asarray(psi(mesh.nodes), dtype=float), mesh.nodes.shape).copy()


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Energy matrix and load with the Dirichlet DOFs pinned to zero.

    Indices are global DOF indices; ``bounds`` holds one bound per mesh
    node, on its slope DOF, so :meth:`to_qp` bounds DOFs 1, 3, ..., 2n - 1
    of the n nodes.  From :func:`assemble_system`, ``b`` and ``bounds`` are
    read-only.
    """

    a: SymmetricBandedMatrix
    b: np.ndarray
    bounds: np.ndarray

    def to_qp(self):
        from .qp import BoundQp

        return BoundQp(self.a, self.b, np.arange(1, 2 * self.bounds.size, 2), self.bounds)


def apply_dirichlet(a: SymmetricBandedMatrix, b: np.ndarray, bounds: np.ndarray) -> AssembledSystem:
    """Pin the endpoint value DOFs, 0 and ``a.dim - 2``, to zero (homogeneous boundary data).

    ``bounds`` holds one bound per node, at least two nodes, and ``a`` and
    ``b`` must have two DOFs per node.  The Dirichlet rows and columns
    become the identity's and their load entries zero, as PDAS pins active
    slopes, so every solve returns exactly 0.0 there and the system keeps
    the global DOF numbering.  This is the one-mesh case of
    :func:`_dirichlet_systems`.
    """
    return _dirichlet_systems(a, b, bounds, (0,))[0]


def _dirichlet_systems(a: SymmetricBandedMatrix, b: np.ndarray, bounds: np.ndarray, first_node) -> list:
    """:func:`apply_dirichlet` on the systems of meshes stacked end to end, one system per mesh.

    Mesh k owns the nodes from ``first_node[k]`` to the next mesh's first
    (:class:`MeshStack`).  The endpoint value DOFs of every mesh are pinned
    by one :func:`_pinned`; the slots that couple two meshes lie
    outside each mesh's matrix and read 0.0, as they would alone.  Each
    system holds views of its mesh's part of the pinned band, of a copy
    of the load and of ``bounds``; the load and bound views are read-only,
    and ``bounds`` keeps its own flags.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 1 or bounds.size < 2 or a.dim != 2 * bounds.size or np.shape(b) != (a.dim,):
        raise ValueError("matrix, load and bounds do not agree: need two or more nodes, two DOFs and one bound each")
    ends = [*first_node, bounds.size]  # mesh k's nodes are ends[k] .. ends[k + 1] - 1
    dirichlet = [2 * n for n in ends[:-1]] + [2 * n - 2 for n in ends[1:]]
    band = _pinned(a.data, a.half_bandwidth, np.array(dirichlet), "C")
    b = np.array(b, dtype=float)
    b[dirichlet] = 0.0
    b.flags.writeable = False
    bounds = bounds.view()  # read-only without touching the flags of the caller's array
    bounds.flags.writeable = False
    return [
        AssembledSystem(a=SymmetricBandedMatrix(band[:, 2 * lo : 2 * hi]), b=b[2 * lo : 2 * hi], bounds=bounds[lo:hi])
        for lo, hi in zip(ends[:-1], ends[1:])
    ]
