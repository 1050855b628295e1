"""Meshes on [-1, 1] with the cubic Hermite basis.

Each mesh node carries two degrees of freedom, the function value and the
physical slope, so discrete functions are globally C^1 piecewise cubics.
This module owns the reference shape functions, DOF bookkeeping with
Dirichlet/constrained flags, Gauss-Legendre quadrature on [0, 1], nodal
interpolation, and evaluation of discrete functions up to the second
derivative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: Domain endpoints; everything in this package lives on [-1, 1].
DOMAIN = (-1.0, 1.0)

#: Maximum supported Gauss point count.
MAX_GAUSS_POINTS = 16


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass
class Mesh:
    """Partition of [-1, 1] into intervals.

    Parameters
    ----------
    nodes : array_like
        Strictly increasing coordinates with ``nodes[0] == -1`` and
        ``nodes[-1] == 1``.  Use :func:`build_mesh` for uniform meshes.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        if nodes[0] != DOMAIN[0] or nodes[-1] != DOMAIN[1]:
            raise ValueError("mesh must span exactly [-1, 1]")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("mesh nodes must be strictly increasing")
        self.nodes = _frozen(nodes)
        self.h = _frozen(np.diff(nodes))

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def mesh_size(self) -> float:
        """Largest element width."""
        return float(np.max(self.h))

    def element_of(self, x):
        """Index of the element containing ``x`` (right element at nodes)."""
        idx = np.searchsorted(self.nodes, x, side="right") - 1
        return np.clip(idx, 0, self.n_elements - 1)


def build_mesh(n_elements: int) -> Mesh:
    """Uniform mesh of ``n_elements`` intervals on [-1, 1] (h = 2/n)."""
    if not isinstance(n_elements, (int, np.integer)) or n_elements < 1:
        raise ValueError(f"n_elements must be a positive integer, got {n_elements!r}")
    return Mesh(np.linspace(-1.0, 1.0, int(n_elements) + 1))


@dataclass(frozen=True)
class DofMap:
    """Global DOF layout: node i owns value DOF 2i and slope DOF 2i+1.

    The two value DOFs at the endpoints are Dirichlet DOFs (homogeneous
    boundary condition); the slope DOFs at every node, endpoints included,
    are the constrained DOFs that carry the obstacle bounds.
    """

    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("DofMap needs at least two nodes")

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    @property
    def dirichlet_dofs(self) -> np.ndarray:
        return np.array([0, self.n_dofs - 2])

    @property
    def constrained_dofs(self) -> np.ndarray:
        return np.arange(1, self.n_dofs, 2)


def _element_dofs(element) -> np.ndarray:
    """Global DOFs 2e .. 2e + 3 of each element e, in local order, shape ``(..., 4)``."""
    return 2 * np.asarray(element)[..., None] + np.arange(4)


def _shape_matrix(xi, h, deriv_order: int) -> np.ndarray:
    """Hermite shape values at reference points, shape ``(..., 4)``.

    Local DOF order is (value_left, slope_left, value_right, slope_right).
    The slope functions carry a factor h so that global slope DOFs are
    physical derivatives; x-derivatives use the chain rule d/dx = (1/h) d/dxi.
    """
    xi = np.asarray(xi, dtype=float)
    if deriv_order == 0:
        cols = (
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            h * (-(xi**2) + xi**3),
        )
    elif deriv_order == 1:
        cols = (
            (-6.0 * xi + 6.0 * xi**2) / h,
            1.0 - 4.0 * xi + 3.0 * xi**2,
            (6.0 * xi - 6.0 * xi**2) / h,
            -2.0 * xi + 3.0 * xi**2,
        )
    elif deriv_order == 2:
        cols = (
            (-6.0 + 12.0 * xi) / (h * h),
            (-4.0 + 6.0 * xi) / h,
            (6.0 - 12.0 * xi) / (h * h),
            (-2.0 + 6.0 * xi) / h,
        )
    else:
        raise ValueError(f"deriv_order must be 0, 1 or 2, got {deriv_order!r}")
    return np.stack([np.broadcast_to(c, xi.shape) for c in cols], axis=-1)


def reference_shape(xi: float, h: float, deriv_order: int = 0) -> np.ndarray:
    """The four cubic Hermite shape functions (or derivatives) at ``xi``.

    Parameters
    ----------
    xi : float
        Reference coordinate in [0, 1].
    h : float
        Element width used to scale the slope DOFs.
    deriv_order : int
        0 for values, 1 and 2 for physical-space derivatives.

    Returns
    -------
    numpy.ndarray
        Shape ``(4,)``, ordered (value_left, slope_left, value_right,
        slope_right).
    """
    xi = float(xi)
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"reference coordinate must lie in [0, 1], got {xi}")
    if h <= 0.0:
        raise ValueError("element width must be positive")
    return _shape_matrix(np.asarray(xi), float(h), deriv_order)


@dataclass(frozen=True)
class QuadRule:
    """Quadrature points/weights on the reference element [0, 1]."""

    points: np.ndarray
    weights: np.ndarray
    order: int  # degree of exact polynomial integration

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points))
        object.__setattr__(self, "weights", _frozen(self.weights))


def gauss_rule(m: int) -> QuadRule:
    """m-point Gauss-Legendre rule on [0, 1], exact to degree 2m-1."""
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_GAUSS_POINTS:
        raise ValueError(f"point count must lie in [1, {MAX_GAUSS_POINTS}], got {m!r}")
    return _gauss_rule(int(m))


@functools.cache
def _gauss_rule(m: int) -> QuadRule:
    # one rule per point count, shared: its arrays are read-only, and
    # computing it costs more than assembling a coarse mesh
    x, w = np.polynomial.legendre.leggauss(m)
    return QuadRule(points=(x + 1.0) / 2.0, weights=w / 2.0, order=2 * m - 1)


def split_segments(lo: float, hi: float, breakpoints: Iterable[float]) -> list[tuple[float, float]]:
    """Split [lo, hi] at the breakpoints strictly inside it.

    Breakpoints closer than ``1e-12 * (hi - lo)`` to a segment end are
    ignored; slivers that thin contribute nothing but noise to quadrature.
    """
    tol = 1e-12 * (hi - lo)
    cuts = sorted(b for b in breakpoints if lo + tol < b < hi - tol)
    edges = [lo, *cuts, hi]
    return list(zip(edges[:-1], edges[1:]))


def _cut(edges: np.ndarray, breakpoints: Iterable[float]) -> np.ndarray:
    """``edges`` plus the breakpoints inside its intervals, by :func:`split_segments`' rule."""
    bps = np.unique(np.asarray(list(breakpoints), dtype=float))
    e = np.searchsorted(edges, bps, side="right") - 1
    inside = (e >= 0) & (e < edges.size - 1)
    bps, e = bps[inside], e[inside]
    tol = 1e-12 * (edges[e + 1] - edges[e])
    cuts = bps[(edges[e] + tol < bps) & (bps < edges[e + 1] - tol)]
    return np.sort(np.concatenate([edges, cuts]))


def _gauss_points(edges: np.ndarray, quad_points: int):
    """Flat Gauss points and weights over (interval of ``edges``, point)."""
    rule = gauss_rule(quad_points)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + width * rule.points).ravel(), (width * rule.weights).ravel()


def segment_quadrature(mesh: Mesh, breakpoints: Iterable[float], quad_points: int):
    """Gauss points of every element, split at the breakpoints inside it.

    Each element is cut where :func:`split_segments` would cut it, so a kink
    or jump of the data never sits inside a Gauss panel.  Returns flat arrays
    over (segment, Gauss point): the owning element, the point ``x``, its
    reference coordinate ``xi`` in that element, and the quadrature weight.
    """
    edges = _cut(mesh.nodes, breakpoints)
    x, w = _gauss_points(edges, quad_points)
    element = np.repeat(mesh.element_of(edges[:-1]), quad_points)
    return element, x, (x - mesh.nodes[element]) / mesh.h[element], w


def composite_integral(
    fn: Callable,
    lo: float = -1.0,
    hi: float = 1.0,
    breakpoints: Sequence[float] = (),
    panels: int = 64,
    quad_points: int = 10,
) -> float:
    """Composite Gauss quadrature of ``fn`` over [lo, hi].

    The interval is split at the breakpoints by the rule of
    :func:`segment_quadrature`, then each piece into panels proportional to
    its length (at least one), so discontinuities land on panel boundaries.
    ``fn`` is called once, on an array of every panel's Gauss points; a
    scalar result is taken as a constant integrand.
    """
    pieces = _cut(np.array([lo, hi], dtype=float), breakpoints)
    start, width = pieces[:-1], np.diff(pieces)
    n_sub = np.maximum(1, np.ceil(panels * width / (hi - lo))).astype(int)
    piece = np.repeat(np.arange(start.size), n_sub)
    k = np.arange(piece.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    # np.linspace(a, b, n_sub + 1) of every piece, flattened
    edges = np.append(k * (width / n_sub)[piece] + start[piece], hi)
    x, w = _gauss_points(edges, quad_points)
    return float(w @ np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape))


@dataclass
class DiscreteSolution:
    """Coefficient vector over all Hermite DOFs plus solve metadata.

    ``iterations`` is the PDAS iteration count on this mesh alone; each
    level of a warm-start chain (``SolveResult.levels``) counts its own.
    """

    coefficients: np.ndarray
    mesh: Mesh
    iterations: int = 0
    active_nodes: tuple = ()
    kkt: "KktResidual | None" = None

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (2 * self.mesh.n_nodes,):
            raise ValueError(
                f"expected {2 * self.mesh.n_nodes} coefficients, got {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        self.coefficients = coeffs

    def __call__(self, x, deriv_order: int = 0):
        return evaluate(self, x, deriv_order)


def _element_evaluator(sol: DiscreteSolution, element):
    """Widths of ``element`` and ``(xi, k) ->`` the k-th derivative there.

    Gathers the widths and local coefficients once; each call contracts them
    with the shapes at ``xi`` (broadcast against ``element``) in one einsum.
    """
    h = sol.mesh.h[element]
    local = sol.coefficients[_element_dofs(element)]
    return h, lambda xi, k: np.einsum("...i,...i->...", _shape_matrix(xi, h, k), local)


def hermite_interpolant(g: Callable, dg: Callable, mesh: Mesh) -> DiscreteSolution:
    """Nodal Hermite interpolant: coefficients (g(x_i), g'(x_i)) per node.

    ``g`` and ``dg`` are called once on the node array, so they must accept
    arrays, like every ``ProblemSpec`` callable.  No Dirichlet zeroing is
    applied; callers decide whether the boundary values should be clamped.
    """
    coeffs = np.empty(2 * mesh.n_nodes)
    coeffs[0::2] = g(mesh.nodes)
    coeffs[1::2] = dg(mesh.nodes)
    return DiscreteSolution(coeffs, mesh)


def evaluate_element(sol: DiscreteSolution, element: int, xi, deriv_order: int = 0):
    """Evaluate on a single element at reference coordinates ``xi``."""
    element = int(element)
    if not 0 <= element < sol.mesh.n_elements:
        raise ValueError(f"element index out of range: {element}")
    _, at = _element_evaluator(sol, element)
    out = at(xi, deriv_order)
    return float(out) if np.ndim(out) == 0 else out


def evaluate(sol: DiscreteSolution, x, deriv_order: int = 0):
    """Value (or 1st/2nd derivative) of the discrete function at ``x``.

    ``x`` may be a scalar or an array inside [-1, 1].  Values and first
    derivatives are continuous; the second derivative is double-valued at
    interior nodes and is taken from the element to the right.
    """
    xs = np.asarray(x, dtype=float)
    if xs.size and (xs.min() < DOMAIN[0] or xs.max() > DOMAIN[1]):
        raise ValueError("evaluation point outside [-1, 1]")
    elem = sol.mesh.element_of(xs)
    h, at = _element_evaluator(sol, elem)
    vals = at((xs - sol.mesh.nodes[elem]) / h, deriv_order)
    return float(vals) if np.ndim(vals) == 0 else vals
