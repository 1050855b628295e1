import math

import numpy as np
import pytest

import hermvi as hv
from hermvi.mesh import split_segments

from conftest import nonuniform_mesh


# ---------------------------------------------------------------- build_mesh

def test_build_mesh_bisection():
    mesh = hv.build_mesh(2)
    assert np.array_equal(mesh.nodes, [-1.0, 0.0, 1.0])
    assert np.allclose(mesh.h, 1.0)


def test_build_mesh_width():
    mesh = hv.build_mesh(9)
    assert mesh.n_elements == 9
    assert np.allclose(mesh.h, 2.0 / 9.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "4"])
def test_build_mesh_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        hv.build_mesh(bad)


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


def test_nonuniform_mesh_allowed():
    mesh = hv.Mesh(np.array([-1.0, -0.25, 0.6, 1.0]))
    assert mesh.n_elements == 3
    assert mesh.mesh_size == pytest.approx(0.85)


# -------------------------------------------------------------------- DofMap

def test_dofmap_counts_and_disjointness():
    for n in (1, 2, 9):
        dm = hv.DofMap(n + 1)
        assert dm.n_dofs == 2 * (n + 1)
        assert dm.dirichlet_dofs.shape == (2,)
        assert dm.constrained_dofs.shape == (n + 1,)
        assert not set(dm.dirichlet_dofs) & set(dm.constrained_dofs)
        assert dm.dirichlet_dofs[0] == 0 and dm.constrained_dofs[-1] == 2 * n + 1


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


# ---------------------------------------------------------------- gauss_rule

def test_gauss_two_points_integrates_cubic():
    rule = hv.gauss_rule(2)
    val = float(np.dot(rule.weights, rule.points**3))
    assert val == pytest.approx(0.25, abs=1e-15)


def test_gauss_weights_sum_to_one():
    for m in range(1, 17):
        rule = hv.gauss_rule(m)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-14)


def test_gauss_six_points_degree_ten():
    rule = hv.gauss_rule(6)
    val = float(np.dot(rule.weights, rule.points**10))
    assert abs(val - 1.0 / 11.0) <= 1e-15


def test_gauss_monomial_exactness():
    # m points must integrate x^d exactly for d <= 2m-1
    for m in (1, 3, 5, 8, 16):
        rule = hv.gauss_rule(m)
        assert rule.order == 2 * m - 1
        for d in range(rule.order + 1):
            val = float(np.dot(rule.weights, rule.points**d))
            assert val == pytest.approx(1.0 / (d + 1), rel=2e-14)


@pytest.mark.parametrize("bad", [0, 17, -1])
def test_gauss_rejects_unsupported_counts(bad):
    with pytest.raises(ValueError):
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
    for element in (-1, 2):
        with pytest.raises(ValueError, match="element index out of range"):
            hv.evaluate_element(sol, element, 0.5)


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
    val = hv.composite_integral(lambda x: x**2, -1.0, 1.0)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-14)
    step = lambda x: np.where(x < 0.3, 1.0, 2.0)
    val = hv.composite_integral(step, 0.0, 1.0, breakpoints=(0.3,))
    assert val == pytest.approx(0.3 + 1.4, abs=1e-14)


def composite_reference(fn, lo, hi, breakpoints, panels, quad_points):
    """Per-piece, per-panel loop over split_segments: the reference for
    composite_integral.  Also returns sum |w * fn| (the roundoff scale)."""
    rule = hv.gauss_rule(quad_points)
    total = scale = 0.0
    for a, b in split_segments(lo, hi, breakpoints):
        n_sub = max(1, math.ceil(panels * (b - a) / (hi - lo)))
        edges = np.linspace(a, b, n_sub + 1)
        for s0, s1 in zip(edges[:-1], edges[1:]):
            xs = s0 + (s1 - s0) * rule.points
            vals = np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)
            total += (s1 - s0) * float(rule.weights @ vals)
            scale += (s1 - s0) * float(rule.weights @ np.abs(vals))
    return total, scale


@pytest.mark.parametrize(
    "fn, lo, hi, breakpoints, panels, quad_points",
    [
        (lambda x: x**2, -1.0, 1.0, (), 64, 10),
        (lambda x: np.where(x < 0.3, 1.0, 2.0), 0.0, 1.0, (0.3,), 64, 10),
        (lambda x: np.exp(3.0 * x), -1.0, 1.0, (0.2, -0.4, 0.2, 0.2), 37, 2),
        # at lo, outside [lo, hi], within 1e-12 (hi - lo) of hi, and inside;
        # a cut at the sliver would put Gauss points on its 1e6 jump
        (lambda x: np.select([x < 1.1, x < 3.0 - 1.5e-12], [np.sin(x), np.cos(x)], 1e6),
         0.0, 3.0, (0.0, -2.0, 4.0, 3.0 - 1.5e-12, 1.1), 40, 5),
        (lambda x: 2.5, -1.0, 2.0, (0.5,), 16, 3),
        (lambda x: np.abs(np.sin(16.0 * np.pi * x)), -1.0, 1.0,
         tuple(hv.build_mesh(32).nodes), 96, 12),
    ],
    ids=["square", "step", "repeated", "edge-cases", "scalar", "mesh-nodes"],
)
def test_composite_integral_matches_panel_loop(fn, lo, hi, breakpoints, panels, quad_points):
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return fn(x)

    val = hv.composite_integral(counted, lo, hi, breakpoints, panels, quad_points)
    ref, scale = composite_reference(fn, lo, hi, breakpoints, panels, quad_points)
    assert len(calls) == 1
    assert abs(val - ref) <= 64 * np.finfo(float).eps * scale
