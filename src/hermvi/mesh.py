"""Meshes on [-1, 1] with the cubic Hermite basis.

Each mesh node carries two degrees of freedom, the function value and the
physical slope, so discrete functions are globally C^1 piecewise cubics.
This module owns the reference shape functions, the node-to-DOF layout
(:func:`_element_dofs`), meshes stacked end to end (:class:`MeshStack`),
Gauss-Legendre quadrature on [0, 1], nodal interpolation, and evaluation
of discrete functions up to the second derivative.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import InitVar, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: Domain endpoints; everything in this package lives on [-1, 1].
DOMAIN = (-1.0, 1.0)

#: Maximum supported Gauss point count.
MAX_GAUSS_POINTS = 16

#: The composite rule on [-1, 1]: equal panels cut at breakpoints, Gauss points per
#: piece.  ``verify``'s 20 Legendre test functions need it exact to degree 23.
COMPOSITE_PANELS = 96
COMPOSITE_QUAD_POINTS = 12


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
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
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("mesh nodes must be finite and strictly increasing")
        object.__setattr__(self, "nodes", _frozen(nodes))
        object.__setattr__(self, "h", _frozen(np.diff(nodes)))

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
    if not isinstance(n_elements, (int, np.integer)) or isinstance(n_elements, bool) or n_elements < 1:
        raise ValueError(f"n_elements must be a positive integer, got {n_elements!r}")
    if 8 * (int(n_elements) + 1) > np.iinfo(np.intp).max:  # numpy cannot index the nodes' bytes
        raise ValueError(f"cannot index a mesh of {n_elements} elements: its nodes exceed numpy's largest array")
    return Mesh(np.linspace(-1.0, 1.0, int(n_elements) + 1))


def _element_dofs(element) -> np.ndarray:
    """Global DOFs 2e .. 2e + 3 of each element e, in local order, shape ``(..., 4)``.

    This is the DOF layout: node i owns value DOF 2i and slope DOF 2i + 1.
    """
    return 2 * np.asarray(element)[..., None] + np.arange(4)


def _shape_columns(xi, h, deriv_order: int) -> tuple:
    """The four Hermite shape functions (or derivatives) at reference points, one array each.

    Local DOF order is (value_left, slope_left, value_right, slope_right).
    The slope functions carry a factor h so that global slope DOFs are
    physical derivatives; x-derivatives use the chain rule d/dx = (1/h) d/dxi.
    """
    if isinstance(deriv_order, bool) or not isinstance(deriv_order, (int, np.integer)) or not 0 <= deriv_order <= 2:
        raise ValueError(f"deriv_order must be 0, 1 or 2, got {deriv_order!r}")
    xi = np.asarray(xi, dtype=float)
    if deriv_order == 0:
        xi2, xi3 = xi**2, xi**3
        return (
            1.0 - 3.0 * xi2 + 2.0 * xi3,
            h * (xi - 2.0 * xi2 + xi3),
            3.0 * xi2 - 2.0 * xi3,
            h * (-xi2 + xi3),
        )
    if deriv_order == 1:
        xi2 = xi**2
        return (
            (-6.0 * xi + 6.0 * xi2) / h,
            1.0 - 4.0 * xi + 3.0 * xi2,
            (6.0 * xi - 6.0 * xi2) / h,
            -2.0 * xi + 3.0 * xi2,
        )
    return (
        (-6.0 + 12.0 * xi) / (h * h),
        (-4.0 + 6.0 * xi) / h,
        (6.0 - 12.0 * xi) / (h * h),
        (-2.0 + 6.0 * xi) / h,
    )


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
    if not h > 0.0:
        raise ValueError("element width must be positive")
    return np.array(_shape_columns(xi, float(h), deriv_order))


@functools.lru_cache(maxsize=None, typed=True)
def gauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (points, weights) of the m-point Gauss-Legendre rule on
    [0, 1], exact to degree 2m-1.

    One rule per point count is computed and shared: its arrays are
    read-only, and computing it costs more than assembling a coarse mesh.
    A count that raises is never cached, and the cache is typed, so 4.0
    and True are checked (and refused) even once the rules for 4 and 1
    are cached.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or not 1 <= m <= MAX_GAUSS_POINTS:
        raise ValueError(f"point count must lie in [1, {MAX_GAUSS_POINTS}], got {m!r}")
    x, w = np.polynomial.legendre.leggauss(m)
    return _frozen((x + 1.0) / 2.0), _frozen(w / 2.0)


@functools.lru_cache(maxsize=16)
def _sorted_breakpoints(breakpoints: tuple) -> np.ndarray:
    """Read-only sorted ``breakpoints`` without repeats, a zero as +0.0, one array per tuple.
    Each is kept unless it equals its left neighbour: ``np.unique`` would import ``numpy.ma``."""
    bps = np.sort(np.asarray(breakpoints, dtype=float), axis=None) + 0.0
    keep = np.ones(bps.size, dtype=bool)
    keep[1:] = bps[1:] != bps[:-1]
    return _frozen(bps[keep])


def _segments(nodes: np.ndarray, h: np.ndarray, breakpoints: Iterable[float]):
    """Every element of positive width, cut at the breakpoints inside it, in one pass over all of them.

    Element e spans ``nodes[e]`` to ``nodes[e + 1]``, of width ``h[e]``: a :class:`Mesh`, or a
    :class:`MeshStack` whose seams of width 0 drop out, passes its own arrays.  A breakpoint nearer
    either end of its element than 1e-12 of the element's width is ignored, since slivers that thin
    add only noise to quadrature.  Returns the segments' elements, left ends and right ends, element
    by element, each element's cuts in increasing order.  Each element's ends are searched among
    the sorted breakpoints, which are shared read-only, as the composite rule is.
    """
    element = np.flatnonzero(h > 0)
    lo, hi = nodes[element], nodes[element + 1]
    bps = _sorted_breakpoints(tuple(breakpoints))
    tol = 1e-12 * h[element]
    first = np.searchsorted(bps, lo + tol, side="right")  # an element's cuts are bps[first:first + inside]
    inside = np.searchsorted(bps, hi - tol) - first
    if inside.any():
        at = np.repeat(np.arange(element.size), inside)  # each cut's element
        seq = np.arange(at.size)  # each cut's rank among all cuts
        cuts = bps[(first - np.cumsum(inside) + inside)[at] + seq]  # less the cuts of earlier elements
        pos = at + seq  # the segment that each cut ends; the next one starts there
        counts = inside + 1
        element, lo, hi = np.repeat(element, counts), np.repeat(lo, counts), np.repeat(hi, counts)
        lo[pos + 1] = cuts
        hi[pos] = cuts
    return element, lo, hi


#: The width of the seam element between two stacked meshes.
_SEAM = _frozen([0.0])


def _join(arrays: list) -> np.ndarray:
    """The arrays end to end; a single array itself, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class MeshStack:
    """Several meshes end to end, read as one mesh by the assembly and error passes.

    Mesh k's nodes follow those of mesh k - 1 from ``first_node[k]`` on, so
    its element e is element ``first_node[k] + e`` of the stack and owns
    DOFs ``2 * first_node[k]`` on by :func:`_element_dofs`.  ``nodes``,
    ``h`` and ``n_nodes`` are those a :class:`Mesh` has; the seam between
    two meshes is an element of width 0 in ``h``.  A stack of one mesh
    shares that mesh's arrays.
    """

    def __init__(self, meshes: Sequence[Mesh]):
        self.meshes = tuple(meshes)
        self.first_node = tuple(itertools.accumulate((m.n_nodes for m in self.meshes[:-1]), initial=0))
        self.nodes = _join([m.nodes for m in self.meshes])
        self.h = _join([w for m in self.meshes for w in (m.h, _SEAM)][:-1])
        self.n_nodes = self.nodes.size

    def segments(self, breakpoints: Iterable[float]):
        """Every element of every mesh, cut at the breakpoints inside it by :func:`_segments`.

        Returns the segments' elements in the stack's numbering, their left
        and right ends, in mesh order, and the number of segments per mesh.
        """
        element, lo, hi = _segments(self.nodes, self.h, breakpoints)
        counts = np.diff(np.searchsorted(element, self.first_node), append=element.size)
        return element, lo, hi, counts.tolist()


def _gauss_points(lo: np.ndarray, hi: np.ndarray, quad_points: int):
    """Gauss points and weights of the intervals [lo, hi], shape ``(interval, point)``."""
    points, weights = gauss_rule(quad_points)
    lo, width = lo[:, None], (hi - lo)[:, None]
    return lo + width * points, width * weights


def segment_quadrature(mesh: Mesh, breakpoints: Iterable[float], quad_points: int):
    """Gauss points of every element, split at the breakpoints inside it.

    Each element is cut at the breakpoints inside it, ignoring one closer to
    either end than 1e-12 of the element's width (:func:`_segments`), so a kink
    or jump of the data never sits inside a Gauss panel.  Returns flat arrays
    over (segment, Gauss point): the owning element, the point ``x``, its
    reference coordinate ``xi`` in that element, and the quadrature weight.
    ``mesh`` may be a :class:`MeshStack`; its elements are numbered end to end.
    """
    element, lo, hi = _segments(mesh.nodes, mesh.h, breakpoints)
    x, w = (a.ravel() for a in _gauss_points(lo, hi, quad_points))
    element = np.repeat(element, quad_points)
    return element, x, (x - mesh.nodes[element]) / mesh.h[element], w


@functools.lru_cache(maxsize=16)
def _composite_rule(breakpoints: tuple):
    """Read-only points and weights of the composite rule, its panels cut at the breakpoints, one per tuple."""
    panels = build_mesh(COMPOSITE_PANELS)
    _, lo, hi = _segments(panels.nodes, panels.h, breakpoints)
    return tuple(_frozen(a.ravel()) for a in _gauss_points(lo, hi, COMPOSITE_QUAD_POINTS))


def composite_integral(fn: Callable, breakpoints: Sequence[float] = ()) -> float:
    """Composite Gauss quadrature of ``fn`` over [-1, 1].

    :data:`COMPOSITE_PANELS` equal panels are cut at the breakpoints by the
    rule of :func:`segment_quadrature`, so jumps land on piece ends, with
    :data:`COMPOSITE_QUAD_POINTS` Gauss points per piece.  ``fn`` is called
    once, on all these points; a scalar result is a constant integrand.
    The rule is built once per ``tuple(breakpoints)`` and shared read-only.
    """
    x, w = _composite_rule(tuple(breakpoints))
    return float(w @ np.broadcast_to(np.asarray(fn(x), dtype=float), x.shape))


class _KktOnRead:
    """The ``kkt`` record of a frozen dataclass whose init-only ``kkt_source`` is a zero-argument
    callable or None: computed on first read and kept, so a record nobody reads is never computed.
    The source is held as ``_kkt_source``, outside the fields, so ``dataclasses.replace`` builds a
    record without one, whose ``kkt`` reads None rather than the record it was made from.  A pickle
    carries the record, read then, and not its source, so no QP travels with it."""

    def __post_init__(self, kkt_source):
        object.__setattr__(self, "_kkt_source", kkt_source)

    @functools.cached_property
    def kkt(self) -> "KktResidual | None":
        """The KKT record from ``kkt_source``, computed once; None without a source."""
        return None if self._kkt_source is None else self._kkt_source()

    def __getstate__(self):
        return {**self.__dict__, "_kkt_source": None, "kkt": self.kkt}


@dataclass(frozen=True, eq=False)
class DiscreteSolution(_KktOnRead):
    """Coefficient vector over all Hermite DOFs plus solve metadata.

    ``iterations`` is the PDAS iteration count on this mesh alone; each
    level of a warm-start chain (``SolveResult.levels``) counts its own.
    :attr:`kkt` is its KKT record, read from ``kkt_source`` (:class:`_KktOnRead`).
    """

    coefficients: np.ndarray
    mesh: Mesh
    iterations: int = 0
    active_nodes: tuple = ()
    kkt_source: InitVar["Callable[[], KktResidual] | None"] = None

    def __post_init__(self, kkt_source):
        super().__post_init__(kkt_source)
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.shape != (2 * self.mesh.n_nodes,):
            raise ValueError(
                f"expected {2 * self.mesh.n_nodes} coefficients, got {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x, deriv_order: int = 0):
        return evaluate(self, x, deriv_order)


def _element_evaluator(nodes: np.ndarray, coefficients: np.ndarray, element):
    """Widths of ``element`` and ``(xi, k) ->`` the k-th derivative there.

    Element e spans ``nodes[e]`` to ``nodes[e + 1]`` and owns coefficients
    2e .. 2e + 3, so the arrays of several meshes may be concatenated.
    Gathers the widths and the four local coefficient columns once, column
    k at DOF ``2 * element + k`` as :func:`_element_dofs` lays them out; each
    call sums them times the shape columns at ``xi`` (broadcast against
    ``element``) as ``(s0 c0 + s2 c2) + (s1 c1 + s3 c3)``: numpy 2.4's einsum
    pairing, written out so that the bits do not depend on numpy's version.
    """
    h = nodes[element + 1] - nodes[element]
    first = 2 * np.asarray(element)
    c0, c1, c2, c3 = (coefficients[first + k] for k in range(4))

    def at(xi, k):
        s0, s1, s2, s3 = _shape_columns(xi, h, k)
        return (s0 * c0 + s2 * c2) + (s1 * c1 + s3 * c3)

    return h, at


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
    """Evaluate on a single element at reference coordinates ``xi``, a scalar or an array in [0, 1]."""
    if not isinstance(element, (int, np.integer)) or isinstance(element, bool):
        raise ValueError(f"element index must be an integer, got {element!r}")
    if not 0 <= element < sol.mesh.n_elements:
        raise ValueError(f"element index out of range: {element}")
    xi = np.asarray(xi, dtype=float)
    if not np.all((xi >= 0.0) & (xi <= 1.0)):
        raise ValueError(f"reference coordinate must lie in [0, 1], got {xi}")
    _, at = _element_evaluator(sol.mesh.nodes, sol.coefficients, element)
    out = at(xi, deriv_order)
    return float(out) if np.ndim(out) == 0 else out


def evaluate(sol: DiscreteSolution, x, deriv_order: int = 0):
    """Value (or 1st/2nd derivative) of the discrete function at ``x``.

    ``x`` may be a scalar or an array inside [-1, 1].  Values and first
    derivatives are continuous; the second derivative is double-valued at
    interior nodes and is taken from the element to the right.
    """
    xs = np.asarray(x, dtype=float)
    if xs.size and not (xs.min() >= DOMAIN[0] and xs.max() <= DOMAIN[1]):
        raise ValueError("evaluation point outside [-1, 1]")
    elem = sol.mesh.element_of(xs)
    h, at = _element_evaluator(sol.mesh.nodes, sol.coefficients, elem)
    vals = at((xs - sol.mesh.nodes[elem]) / h, deriv_order)
    return float(vals) if np.ndim(vals) == 0 else vals
