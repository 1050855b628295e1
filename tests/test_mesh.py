import math
import platform

import numpy as np
import pytest

import hermvi as hv
from hermvi.mesh import (
    COMPOSITE_PANELS, COMPOSITE_QUAD_POINTS, MeshStack, _composite_rule, _element_dofs, _element_evaluator,
    _segments,
)
from hermvi.mesh import _sorted_breakpoints

from conftest import nonuniform_mesh, shape_matrix
from oracles import split_segments


# ---------------------------------------------------------------- build_mesh

def test_build_mesh_bisection():
    mesh = hv.build_mesh(2)
    assert np.array_equal(mesh.nodes, [-1.0, 0.0, 1.0])
    assert np.allclose(mesh.h, 1.0)


def test_build_mesh_width():
    mesh = hv.build_mesh(9)
    assert mesh.n_elements == 9
    assert np.allclose(mesh.h, 2.0 / 9.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True, np.True_])
def test_build_mesh_rejects_bad_counts(bad):
    with pytest.raises(ValueError, match="n_elements must be a positive integer"):
        hv.build_mesh(bad)


@pytest.mark.parametrize("n", [2**60 - 1, 2**60, 2**63 - 513, 2**63 - 1, 2**63, 2**63 + 1023, 2**64])
def test_build_mesh_refuses_counts_numpy_cannot_index(n):
    # n + 1 float64 nodes would exceed the largest array numpy can index; from
    # 2^63 - 513 on, n + 1 rounds to 2^63 as a float and linspace wrapped around
    with pytest.raises(ValueError, match=f"cannot index a mesh of {n} elements"):
        hv.build_mesh(n)


def test_bool_element_counts_are_refused(paper):
    # True is an int equal to 1, but no element count
    with pytest.raises(ValueError, match="got True"):
        hv.solve_problem(paper, True)
    with pytest.raises(ValueError, match="got True"):
        hv.run_convergence_study(paper, [True, 2])


def test_mesh_invariants():
    for n in (1, 2, 7, 64):
        mesh = hv.build_mesh(n)
        assert mesh.nodes[0] == -1.0 and mesh.nodes[-1] == 1.0
        assert np.all(np.diff(mesh.nodes) > 0)
        assert abs(float(np.sum(mesh.h)) - 2.0) <= 1e-14


def test_mesh_rejects_bad_nodes():
    with pytest.raises(ValueError):
        hv.Mesh(np.array([-1.0, 0.5, 0.25, 1.0]))  # not increasing
    with pytest.raises(ValueError):
        hv.Mesh(np.array([-0.9, 0.0, 1.0]))  # wrong left endpoint
    with pytest.raises(ValueError, match="finite"):
        hv.Mesh(np.array([-1.0, np.nan, 1.0]))
    for few in ([1.0], [], [[-1.0, 1.0]]):
        with pytest.raises(ValueError, match="at least two nodes"):
            hv.Mesh(np.array(few))


def test_nonuniform_mesh_allowed():
    mesh = hv.Mesh(np.array([-1.0, -0.25, 0.6, 1.0]))
    assert mesh.n_elements == 3
    assert mesh.mesh_size == pytest.approx(0.85)


# ----------------------------------------------------------- reference_shape

def test_shape_interpolation_condition_at_left_node():
    assert np.array_equal(hv.reference_shape(0.0, 0.7, 0), [1.0, 0.0, 0.0, 0.0])


def test_shape_partition_of_unity():
    for xi in np.linspace(0.0, 1.0, 17):
        s = hv.reference_shape(xi, 0.3, 0)
        assert s[0] + s[2] == pytest.approx(1.0, abs=1e-15)


def test_shape_second_derivative_at_left_node():
    # oracle: one-sided finite difference of the first-derivative shapes
    eps = 1e-6
    fd = (hv.reference_shape(eps, 1.0, 1) - hv.reference_shape(0.0, 1.0, 1)) / eps
    assert fd[0] == pytest.approx(-6.0, abs=1e-4)
    assert hv.reference_shape(0.0, 1.0, 2)[0] == pytest.approx(-6.0, abs=1e-13)


def test_shape_rejects_out_of_range():
    with pytest.raises(ValueError):
        hv.reference_shape(1.2, 1.0, 0)
    with pytest.raises(ValueError):
        hv.reference_shape(-0.1, 1.0, 1)
    with pytest.raises(ValueError):
        hv.reference_shape(0.5, 1.0, 3)
    for h in (0.0, np.nan):
        with pytest.raises(ValueError, match="element width must be positive"):
            hv.reference_shape(0.5, h)


# ---------------------------------------------------------------- gauss_rule

def test_gauss_two_points_integrates_cubic():
    rule_points, rule_weights = hv.gauss_rule(2)
    val = float(np.dot(rule_weights, rule_points**3))
    assert val == pytest.approx(0.25, abs=1e-15)


def test_gauss_weights_sum_to_one():
    for m in range(1, 17):
        rule_points, rule_weights = hv.gauss_rule(m)
        assert float(np.sum(rule_weights)) == pytest.approx(1.0, abs=1e-14)


def test_gauss_six_points_degree_ten():
    rule_points, rule_weights = hv.gauss_rule(6)
    val = float(np.dot(rule_weights, rule_points**10))
    assert abs(val - 1.0 / 11.0) <= 1e-15


def test_gauss_monomial_exactness():
    # m points must integrate x^d exactly for d <= 2m-1
    for m in (1, 3, 5, 8, 16):
        rule_points, rule_weights = hv.gauss_rule(m)
        for d in range(2 * m):
            val = float(np.dot(rule_weights, rule_points**d))
            assert val == pytest.approx(1.0 / (d + 1), rel=2e-14)


@pytest.mark.parametrize("bad", [0, 17, -1, 4.0, True, np.True_])
def test_gauss_rejects_unsupported_counts(bad):
    # 4.0 == 4 and True == 1 and they hash alike: the cached rules for 4 and 1 must not answer them
    hv.gauss_rule(4)
    hv.gauss_rule(1)
    with pytest.raises(ValueError, match="point count must lie in"):
        hv.gauss_rule(bad)


# ------------------------------------------------------- evaluate/interpolant

def test_evaluate_reproduces_quadratic_derivative():
    mesh = hv.build_mesh(5)
    sol = hv.hermite_interpolant(lambda x: x**2 - 1.0, lambda x: 2.0 * x, mesh)
    assert hv.evaluate(sol, 0.5, 1) == pytest.approx(1.0, abs=1e-14)


def test_evaluate_zero_coefficients():
    mesh = hv.build_mesh(3)
    sol = hv.DiscreteSolution(np.zeros(8), mesh)
    for x in (-1.0, -0.3, 0.9, 1.0):
        assert hv.evaluate(sol, x, 0) == 0.0


def test_evaluate_cubic_second_derivative():
    mesh = hv.build_mesh(2)
    sol = hv.hermite_interpolant(lambda x: x**3, lambda x: 3.0 * x**2, mesh)
    assert hv.evaluate(sol, -0.5, 2) == pytest.approx(-3.0, abs=1e-13)


def test_evaluate_rejects_outside_domain():
    sol = hv.DiscreteSolution(np.zeros(6), hv.build_mesh(2))
    with pytest.raises(ValueError):
        hv.evaluate(sol, 1.0001)
    with pytest.raises(ValueError):
        hv.evaluate(sol, np.array([0.0, -1.5]))
    with pytest.raises(ValueError, match="outside"):
        hv.evaluate(sol, np.array([0.0, np.nan]))
    for element in (-1, 2):
        with pytest.raises(ValueError, match="element index out of range"):
            hv.evaluate_element(sol, element, 0.5)
    for element in (1.7, True):  # True would index the nodes as a mask
        with pytest.raises(ValueError, match="element index must be an integer"):
            hv.evaluate_element(sol, element, 0.5)
    # the reference coordinate, scalar or array, lies in [0, 1]: no extrapolated cubic, no NaN
    for xi in (1.5, -1e-12, np.nan, np.array([0.0, 1.5]), np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match=r"reference coordinate must lie in \[0, 1\]"):
            hv.evaluate_element(sol, 0, xi)
    assert hv.evaluate_element(sol, 0, np.array([0.0, 1.0])).shape == (2,)


def test_deriv_order_is_an_integer_in_0_to_2():
    sol = hv.hermite_interpolant(lambda x: x**3, lambda x: 3.0 * x**2, hv.build_mesh(2))
    entry_points = [
        lambda k: hv.reference_shape(0.5, 1.0, k),
        lambda k: hv.evaluate(sol, 0.25, k),
        lambda k: sol(0.25, k),
        lambda k: hv.evaluate_element(sol, 1, 0.5, k),
    ]
    for at in entry_points:
        # True and 1.0 equal 1, but no derivative order
        for bad in (True, np.True_, 1.0, -1, 3):
            with pytest.raises(ValueError, match="deriv_order must be 0, 1 or 2"):
                at(bad)
        assert np.array_equal(at(np.int64(1)), at(1))


def test_discrete_solution_needs_two_coefficients_per_node():
    for count in (5, 7):
        with pytest.raises(ValueError, match="expected 6 coefficients"):
            hv.DiscreteSolution(np.zeros(count), hv.build_mesh(2))


@pytest.mark.parametrize("seed", range(5))
def test_evaluate_equals_evaluate_element_exactly(seed):
    # both go through one element kernel, so the same point gives the same
    # bits, second derivatives included
    rng = np.random.default_rng(seed)
    mesh = nonuniform_mesh(seed, 5 + 11 * seed)
    sol = hv.DiscreteSolution(rng.normal(size=2 * mesh.n_nodes), mesh)
    xs = np.append(rng.uniform(-1.0, 1.0, 300), mesh.nodes)
    element = mesh.element_of(xs)
    xi = (xs - mesh.nodes[element]) / mesh.h[element]
    for k in range(3):
        single = [hv.evaluate_element(sol, e, t, k) for e, t in zip(element, xi)]
        assert np.array_equal(hv.evaluate(sol, xs, k), single), k


#: numpy's einsum reduces the four products as (p0 + p2) + (p1 + p3) on x86-64,
#: the kernel's pairing; elsewhere (a fused multiply-add, say) it may round otherwise.
EINSUM_PAIRS_LIKE_KERNEL = platform.machine().lower() in ("x86_64", "amd64")


def assert_matches_einsum(got, nodes, coefficients, element, xi, k):
    """``got`` against the einsum over the stacked shape matrix that the kernel
    replaced: the same bits where numpy pairs alike, within rounding everywhere."""
    h = nodes[element + 1] - nodes[element]
    s, c = shape_matrix(xi, h, k), coefficients[_element_dofs(element)]
    want = np.einsum("...i,...i->...", s, c)
    assert np.shape(got) == np.shape(want)
    if EINSUM_PAIRS_LIKE_KERNEL:
        assert np.asarray(got, dtype=float).tobytes() == want.tobytes()
    bound = 4 * np.finfo(float).eps * np.einsum("...i,...i->...", np.abs(s), np.abs(c))
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_element_kernel_matches_einsum_at_every_call_shape(k):
    rng = np.random.default_rng(k)
    mesh = nonuniform_mesh(k, 300)
    coefficients = rng.normal(size=2 * mesh.n_nodes) * 10.0 ** rng.integers(-6, 6, size=2 * mesh.n_nodes)
    sol = hv.DiscreteSolution(coefficients, mesh)
    nodes = mesh.nodes
    # the error pass: elements (segment, 1) against points (segment, point) and (segment, 1)
    element = rng.integers(0, mesh.n_elements, size=(400, 1))
    xi = rng.uniform(0.0, 1.0, size=(400, 9))
    _, at = _element_evaluator(nodes, coefficients, element)
    for points in (xi, xi[:, :1]):
        assert_matches_einsum(at(points, k), nodes, coefficients, element, points, k)
    # _prolong: one point per element, 1-D
    _, at = _element_evaluator(nodes, coefficients, element[:, 0])
    assert_matches_einsum(at(xi[:, 0], k), nodes, coefficients, element[:, 0], xi[:, 0], k)
    # evaluate on a nonuniform mesh, nodes included
    xs = np.append(rng.uniform(-1.0, 1.0, 2000), nodes)
    e = mesh.element_of(xs)
    assert_matches_einsum(hv.evaluate(sol, xs, k), nodes, coefficients, e, (xs - nodes[e]) / mesh.h[e], k)
    # evaluate_element with a scalar xi
    for e, t in zip(element[:20, 0], xi[:20, 0]):
        got = hv.evaluate_element(sol, int(e), float(t), k)
        assert isinstance(got, float)
        assert_matches_einsum(got, nodes, coefficients, int(e), float(t), k)


def test_interpolant_of_zero():
    sol = hv.hermite_interpolant(lambda x: 0.0, lambda x: 0.0, hv.build_mesh(4))
    assert np.all(sol.coefficients == 0.0)


def test_interpolant_matches_cubic_at_midpoints():
    mesh = hv.build_mesh(7)
    sol = hv.hermite_interpolant(lambda x: x**3, lambda x: 3.0 * x**2, mesh)
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    assert np.max(np.abs(hv.evaluate(sol, mids, 0) - mids**3)) <= 1e-14


def test_cubic_reproduction_all_derivatives(rng):
    # any degree-3 polynomial is reproduced exactly, derivatives included
    poly = np.polynomial.Polynomial(rng.normal(size=4))
    meshes = [hv.build_mesh(6), hv.Mesh(np.array([-1.0, -0.7, -0.1, 0.4, 1.0]))]
    xs = rng.uniform(-1.0, 1.0, size=200)
    for mesh in meshes:
        sol = hv.hermite_interpolant(poly, poly.deriv(), mesh)
        for d in (0, 1, 2):
            exact = poly.deriv(d)(xs) if d else poly(xs)
            assert np.max(np.abs(hv.evaluate(sol, xs, d) - exact)) <= 1e-12


def test_c1_continuity_at_interior_nodes(rng):
    mesh = hv.build_mesh(9)
    sol = hv.DiscreteSolution(rng.normal(size=2 * mesh.n_nodes), mesh)
    for node in range(1, mesh.n_elements):
        for d in (0, 1):
            left = hv.evaluate_element(sol, node - 1, 1.0, d)
            right = hv.evaluate_element(sol, node, 0.0, d)
            assert abs(left - right) <= 1e-13


def test_second_derivative_uses_right_element_at_nodes(rng):
    # y'' is double-valued at interior nodes; the evaluator reports the
    # right element's value there
    mesh = hv.build_mesh(2)
    sol = hv.DiscreteSolution(rng.normal(size=6), mesh)
    at_node = hv.evaluate(sol, 0.0, 2)
    assert at_node == hv.evaluate_element(sol, 1, 0.0, 2)
    assert at_node != hv.evaluate_element(sol, 0, 1.0, 2)


def test_interpolation_error_rates_for_benchmark_state(paper):
    # the interpolation error of the exact state lives on the one element
    # containing the kink, giving H1 order 2.5; meshes are chosen so the
    # kink never lands on a node
    errs = []
    for n in (5, 10, 20, 40):
        mesh = hv.build_mesh(n)
        interp = hv.hermite_interpolant(paper.exact.y_bar, paper.exact.p, mesh)
        rep = hv.error_norms(interp, paper)
        errs.append(rep)
    order_h1 = math.log(errs[0].h1 / errs[-1].h1) / math.log(8.0)
    order_h_h2 = math.log(
        (errs[0].h * errs[0].h2) / (errs[-1].h * errs[-1].h2)
    ) / math.log(8.0)
    assert order_h1 >= 1.8
    assert order_h_h2 >= 0.9


# ------------------------------------------------------------ split/integral

def test_split_segments_interior_point():
    segs = split_segments(0.0, 1.0, [0.25, 2.0])
    assert segs == [(0.0, 0.25), (0.25, 1.0)]
    assert split_segments(0.0, 1.0, [1e-15]) == [(0.0, 1.0)]


def test_composite_integral_polynomial_and_breakpoint():
    val = hv.composite_integral(lambda x: x**2)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-14)
    step = lambda x: np.where(x < 0.3, 1.0, 2.0)
    val = hv.composite_integral(step, breakpoints=(0.3,))
    assert val == pytest.approx(1.3 + 1.4, abs=1e-14)


def composite_reference(fn, breakpoints, panels, quad_points):
    """Loop over ``panels`` equal panels on [-1, 1], each split by
    split_segments: the reference for composite_integral.  Also returns
    sum |w * fn| (the roundoff scale)."""
    rule_points, rule_weights = hv.gauss_rule(quad_points)
    total = scale = 0.0
    for k in range(panels):
        lo, hi = -1.0 + 2.0 * k / panels, -1.0 + 2.0 * (k + 1) / panels
        for a, b in split_segments(lo, hi, breakpoints):
            xs = a + (b - a) * rule_points
            vals = np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)
            total += (b - a) * float(rule_weights @ vals)
            scale += (b - a) * float(rule_weights @ np.abs(vals))
    return total, scale


#: Half the cut tolerance (1e-12 of the panel width 2/96) below 0.5, an edge
#: of the composite rule's panels.
_SLIVER = 0.5 - 0.5e-12 * (2.0 / COMPOSITE_PANELS)


@pytest.mark.parametrize(
    "fn, breakpoints",
    [
        (lambda x: x**2, ()),
        (lambda x: np.where(x < 0.3, 1.0, 2.0), (0.3,)),
        (lambda x: np.exp(3.0 * x), (0.2, -0.4, 0.2, 0.2)),
        # at -1, outside [-1, 1], within 1e-12 h of the panel edge 0.5, and
        # inside; a cut at the sliver would put Gauss points on its 1e6 jump
        (lambda x: np.select([x < 0.1, x < _SLIVER, x < 0.5], [np.sin(x), np.cos(x), 1e6], np.cos(x)),
         (-1.0, -2.0, 4.0, _SLIVER, 0.1)),
        (lambda x: 2.5, (0.5,)),
        (lambda x: np.abs(np.sin(16.0 * np.pi * x)), tuple(hv.build_mesh(32).nodes)),
    ],
    ids=["square", "step", "repeated", "edge-cases", "scalar", "mesh-nodes"],
)
def test_composite_integral_matches_panel_loop(fn, breakpoints):
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return fn(x)

    val = hv.composite_integral(counted, breakpoints)
    ref, scale = composite_reference(fn, breakpoints, COMPOSITE_PANELS, COMPOSITE_QUAD_POINTS)
    assert len(calls) == 1
    assert abs(val - ref) <= 64 * np.finfo(float).eps * scale


def test_composite_rule_and_cut_are_shared_read_only():
    breakpoints = [0.3, -0.2, 0.3]
    x, w = _composite_rule(tuple(breakpoints))
    assert not x.flags.writeable and not w.flags.writeable
    assert _composite_rule(tuple(breakpoints))[0] is x
    mesh = hv.build_mesh(8)
    cut = _segments(mesh.nodes, mesh.h, tuple(breakpoints), 4)
    for kind in (list, tuple, lambda bps: (b for b in bps)):
        assert all(map(np.array_equal, _segments(mesh.nodes, mesh.h, kind(breakpoints), 4), cut))
        assert hv.composite_integral(np.cos, kind(breakpoints)) == hv.composite_integral(np.cos, (0.3, -0.2))
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 0.0


@pytest.mark.parametrize(
    "breakpoints",
    [(0.3, -0.2, 0.7), (0.3, -0.2, 0.3, 0.3, -0.2), (0.5, 0.5 + 1e-15, 0.5), (0.25,), ()],
    ids=["unsorted", "repeated", "1e-15-apart", "one", "empty"],
)
def test_sorted_breakpoints_are_numpy_unique(breakpoints):
    bps = _sorted_breakpoints(breakpoints)
    assert bps.dtype == float and not bps.flags.writeable
    assert np.array_equal(bps, np.unique(np.asarray(breakpoints, dtype=float)))


def test_a_zero_breakpoint_reads_the_same_whatever_its_sign():
    # -0.0 == 0.0, so the caches keyed by the tuple keep whichever sign comes first: the array
    # stores +0.0, and every cut and rule is the same bits whichever tuple built it
    mesh = hv.build_mesh(3)
    built = []
    for breakpoints in ((-0.0, 1.0 / 3.0), (0.0, -0.0, 1.0 / 3.0), (0.0, 1.0 / 3.0)):
        _sorted_breakpoints.cache_clear()
        _composite_rule.cache_clear()
        assert [str(b) for b in _sorted_breakpoints(breakpoints)] == ["0.0", str(1.0 / 3.0)]
        built.append([a.tobytes() for a in (*_segments(mesh.nodes, mesh.h, breakpoints, 4), *_composite_rule(breakpoints))])
    assert built[0] == built[1] == built[2]


def segments_reference(meshes, breakpoints):
    """split_segments over each element of each mesh, numbered end to end as in a stack whose
    meshes are joined by one seam element each, and the number of segments per mesh: the reference
    for the elements and ends that _segments gives a MeshStack.  A repeated breakpoint is one point."""
    element, lo, hi, counts, first = [], [], [], [], 0
    for mesh in meshes:
        counts.append(0)
        for e in range(mesh.n_elements):
            for a, b in split_segments(float(mesh.nodes[e]), float(mesh.nodes[e + 1]), set(breakpoints)):
                element.append(first + e)
                lo.append(a)
                hi.append(b)
                counts[-1] += 1
        first += mesh.n_nodes
    return np.array(element), np.array(lo), np.array(hi), counts


def breakpoint_cases(mesh):
    """Breakpoints against ``mesh``: at its middle node x, nearer to x than the cut tolerance
    of either element beside it, farther than that, at and beyond the ends of [-1, 1],
    repeated, two inside its first element, and many: 60 random points and every third node."""
    x = mesh.nodes[mesh.n_nodes // 2]
    sliver, gap = 0.25e-12 * mesh.h.min(), 8e-12 * mesh.h.max()
    lo, w = mesh.nodes[0], mesh.h[0]
    return {
        "node": (x,),
        "sliver": (x - sliver, x + sliver),
        "near": (x - gap, x + gap),
        "ends": (-1.0, 1.0, -1.5, 2.0, -np.inf),
        "repeated": (0.3, -0.2, 0.3, 0.3),
        "two-in-one": (lo + 0.6 * w, lo + 0.3 * w, 0.0, 1.0 / 3.0),
        "many": (*np.random.default_rng(mesh.n_nodes).uniform(-1.0, 1.0, 60), *mesh.nodes[::3]),
    }


def coarse_meshes_of_paper_1024(solve_cache):
    return [level.mesh for level in solve_cache(1024).levels[-2::-1]]  # as the solve stacks them


STACKS = {
    "paper-1024-coarse": coarse_meshes_of_paper_1024,
    "one-element": lambda solve_cache: [hv.build_mesh(1)],
    "nonuniform": lambda solve_cache: [nonuniform_mesh(1, 40), nonuniform_mesh(2, 7), nonuniform_mesh(3, 1)],
}


@pytest.mark.parametrize("case", ["node", "sliver", "near", "ends", "repeated", "two-in-one", "many"])
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_stack_segments_match_the_per_element_split(solve_cache, stack, case):
    meshes = STACKS[stack](solve_cache)
    for mesh in meshes:  # the cases of each mesh, against the whole stack
        breakpoints = breakpoint_cases(mesh)[case]
        stack = MeshStack(meshes)
        element, lo, hi, _, _ = _segments(stack.nodes, stack.h, breakpoints, 1)
        counts = np.diff(np.searchsorted(element, stack.first_node), append=element.size).tolist()
        ref_element, ref_lo, ref_hi, ref_counts = segments_reference(meshes, breakpoints)
        assert np.array_equal(element, ref_element)
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert counts == ref_counts
