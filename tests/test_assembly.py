import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import hermvi as hv
from hermvi import assembly
from hermvi.mesh import _element_dofs, segment_quadrature

from conftest import nonuniform_mesh, shape_matrix
from oracles import from_dense, matvec_per_diagonal, pinned, pinned_by_slots, split_segments, to_dense


def hermite_basis_integrals(mesh, quad_points=8):
    """Quadrature oracle for int phi_i dx over the global basis."""
    rule_points, rule_weights = hv.gauss_rule(quad_points)
    out = np.zeros(2 * mesh.n_nodes)
    for e in range(mesh.n_elements):
        h = float(mesh.h[e])
        s0 = shape_matrix(rule_points, h, 0)
        out[2 * e : 2 * e + 4] += s0.T @ (rule_weights * h)
    return out


# ------------------------------------------------------------ assemble_energy

def test_mass_action_on_constant_one():
    # beta -> 0 limit extracted as M = 2 A(1) - A(2); M applied to the
    # function identically 1 must reproduce the basis integrals
    mesh = hv.build_mesh(6)
    m = 2.0 * to_dense(hv.assemble_energy(mesh, 1.0)) - to_dense(hv.assemble_energy(mesh, 2.0))
    c = np.zeros(2 * mesh.n_nodes)
    c[0::2] = 1.0
    assert np.max(np.abs(m @ c - hermite_basis_integrals(mesh))) <= 1e-12


@pytest.mark.parametrize("h", [1.0, 0.35, 2.0])
def test_bending_block_leading_entry(h):
    # beta-part of the (value_left, value_left) entry on the first element
    nodes = np.array([-1.0, -1.0 + h, 1.0]) if h < 2.0 else np.array([-1.0, 1.0])
    mesh = hv.Mesh(nodes)
    a1 = hv.assemble_energy(mesh, 1.0)
    a2 = hv.assemble_energy(mesh, 2.0)
    bending = to_dense(a2)[0, 0] - to_dense(a1)[0, 0]  # isolates the beta coefficient
    assert bending == pytest.approx(12.0 / h**3, rel=1e-13)


def test_energy_of_sine_interpolant():
    # c'Ac for the interpolant of sin(pi x) approaches 1 + pi^4
    # (analytic L2 norm and curvature seminorm on (-1, 1) are 1 and pi^4)
    mesh = hv.build_mesh(64)
    interp = hv.hermite_interpolant(
        lambda x: np.sin(np.pi * x), lambda x: np.pi * np.cos(np.pi * x), mesh
    )
    c = interp.coefficients
    energy = float(c @ hv.assemble_energy(mesh, 1.0).matvec(c))
    assert energy == pytest.approx(1.0 + np.pi**4, rel=1e-5)


def test_energy_rejects_nonpositive_beta():
    # and the load: both reject a beta that is not positive and finite
    mesh = hv.build_mesh(2)
    zero = lambda x: np.zeros_like(x)
    for beta in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            hv.assemble_energy(mesh, beta)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            hv.assemble_load(mesh, zero, zero, beta)


@pytest.mark.parametrize("beta", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_is_not_a_beta(beta):
    # every caller of the one beta check refuses it, though it compares as 1
    mesh, zero = hv.build_mesh(2), lambda x: np.zeros_like(x)
    one = lambda x: np.ones_like(np.asarray(x, float))
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        hv.assemble_energy(mesh, beta)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        hv.assemble_load(mesh, zero, zero, beta)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        hv.ProblemSpec("b", beta, f=zero, psi=one, y_d=zero)


def test_energy_consistency_under_refinement():
    # c'Ac vs the analytic energy of sin(pi x): relative error falls at
    # order >= 2 (observed ~4)
    target = 1.0 + np.pi**4
    rel = []
    for n in (8, 16, 32, 64):
        mesh = hv.build_mesh(n)
        interp = hv.hermite_interpolant(
            lambda x: np.sin(np.pi * x), lambda x: np.pi * np.cos(np.pi * x), mesh
        )
        c = interp.coefficients
        energy = float(c @ hv.assemble_energy(mesh, 1.0).matvec(c))
        rel.append(abs(energy - target) / target)
    order = np.log(rel[0] / rel[-1]) / np.log(8.0)
    assert order >= 2.0


def test_symmetry_and_spd_across_sizes():
    for n in (2, 3, 5, 8, 13, 21, 34, 64):
        for beta in (1e-3, 1.0, 1e3):
            mesh = hv.build_mesh(n)
            a = hv.assemble_energy(mesh, beta)
            d = to_dense(a)
            assert np.array_equal(d, d.T)
            system = hv.apply_dirichlet(a, np.zeros(a.dim), np.ones(mesh.n_nodes))
            system.a.factor()  # raises if not SPD


def quadrature_energy(mesh, beta, quad_points=6):
    """Energy matrix from per-element Gauss quadrature of the mass and bending
    integrands, added element by element into a dense matrix."""
    rule_points, rule_weights = hv.gauss_rule(quad_points)
    h = mesh.h[:, None]
    xi = np.broadcast_to(rule_points, (mesh.n_elements, rule_points.size))
    s0, s2 = shape_matrix(xi, h, 0), shape_matrix(xi, h, 2)
    w = rule_weights * h
    local = np.einsum("eq,eqi,eqj->eij", w, s0, s0) + beta * np.einsum("eq,eqi,eqj->eij", w, s2, s2)
    out = np.zeros((2 * mesh.n_nodes, 2 * mesh.n_nodes))
    for e in range(mesh.n_elements):
        out[2 * e : 2 * e + 4, 2 * e : 2 * e + 4] += local[e]
    return out


@pytest.mark.parametrize("mesh", [nonuniform_mesh(7, 37), hv.build_mesh(64)], ids=["nonuniform-37", "uniform-64"])
@pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
def test_closed_form_energy_matches_quadrature(mesh, beta):
    # 6 Gauss points integrate the degree-6 integrands exactly, so the two
    # differ by rounding; measured against the largest entry, since exact
    # zeros (interior value-slope couplings on a uniform mesh) pick up
    # quadrature rounding that is large relative to themselves
    a = to_dense(hv.assemble_energy(mesh, beta))
    ref = quadrature_energy(mesh, beta)
    assert np.max(np.abs(a - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("mesh", [hv.build_mesh(1), nonuniform_mesh(7, 37), hv.build_mesh(1000)],
                         ids=["uniform-1", "nonuniform-37", "uniform-1000"])
def test_energy_band_matches_per_entry_scatter(mesh):
    # all 16 local entries computed and added one by one: a slot takes at most
    # two element contributions, so the band must come out bit for bit
    beta, h, dim = 0.7, mesh.h, 2 * mesh.n_nodes
    scale = (1.0, h, 1.0, h)
    ref = np.zeros((7, dim))
    for i in range(4):
        for j in range(4):
            local = scale[i] * scale[j] * (h * assembly._MASS[i, j] + beta / h**3 * assembly._BENDING[i, j])
            ref[3 + i - j, j : dim - 2 + j : 2] += local
    assert np.array_equal(hv.assemble_energy(mesh, beta).data, ref)


# -------------------------------------------------------------- assemble_load

def test_load_zero_data():
    mesh = hv.build_mesh(4)
    b = hv.assemble_load(mesh, lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), 1.0)
    assert np.all(b == 0.0)


def test_load_constant_target_single_element():
    # int H1 over one element of width h is h/2
    mesh = hv.Mesh(np.array([-1.0, 1.0]))
    b = hv.assemble_load(mesh, lambda x: np.ones_like(x), lambda x: np.zeros_like(x), 1.0)
    assert b[0] == pytest.approx(2.0 / 2.0, rel=1e-14)


def test_load_source_telescopes_on_matched_slopes(rng):
    # with f = 1 the source part of b pairs to -(z'(1) - z'(-1))
    mesh = hv.build_mesh(5)
    b = hv.assemble_load(mesh, lambda x: np.zeros_like(x), lambda x: np.ones_like(x), 1.0)
    c = rng.normal(size=2 * mesh.n_nodes)
    c[-1] = c[1]  # match endpoint slopes
    assert abs(float(b @ c)) <= 1e-12


def test_load_consistency_under_refinement():
    # b.c vs int y_d g - beta int f g'' for g = sin(pi x), by an independent
    # adaptive-quadrature oracle
    beta = 1.0
    y_d = np.exp
    f = lambda x: np.cos(2.0 * x)
    ref = quad(lambda x: np.exp(x) * np.sin(np.pi * x), -1, 1)[0] - beta * quad(
        lambda x: np.cos(2.0 * x) * (-np.pi**2) * np.sin(np.pi * x), -1, 1
    )[0]
    rel = []
    for n in (8, 16, 32, 64):
        mesh = hv.build_mesh(n)
        interp = hv.hermite_interpolant(
            lambda x: np.sin(np.pi * x), lambda x: np.pi * np.cos(np.pi * x), mesh
        )
        b = hv.assemble_load(mesh, y_d, f, beta)
        rel.append(abs(float(b @ interp.coefficients) - ref) / abs(ref))
    order = np.log(rel[0] / rel[-1]) / np.log(8.0)
    assert order >= 2.0


def test_load_splits_at_breakpoints(paper):
    # without the split the jump in y_d sits inside a Gauss panel and the
    # load is visibly polluted on meshes whose nodes miss the breakpoint
    mesh = hv.build_mesh(4)
    with_split = hv.assemble_load(mesh, paper.y_d, paper.f, paper.beta, breakpoints=paper.breakpoints)
    without = hv.assemble_load(mesh, paper.y_d, paper.f, paper.beta)
    assert np.max(np.abs(with_split - without)) > 1e-4


def load_reference(mesh, y_d, f, beta, breakpoints, quad_points=6):
    """Per-element loop over split_segments: the reference for assemble_load.

    Also returns the sum of |terms| per entry (the roundoff scale) and the
    (element, point, weight) triples of every segment.
    """
    rule_points, rule_weights = hv.gauss_rule(quad_points)
    b, scale, points = np.zeros(2 * mesh.n_nodes), np.zeros(2 * mesh.n_nodes), []
    for e in range(mesh.n_elements):
        x0, x1 = float(mesh.nodes[e]), float(mesh.nodes[e + 1])
        h = x1 - x0
        for s0, s1 in split_segments(x0, x1, breakpoints):
            xs = s0 + (s1 - s0) * rule_points
            ws = rule_weights * (s1 - s0)
            sv, sdd = shape_matrix((xs - x0) / h, h, 0), shape_matrix((xs - x0) / h, h, 2)
            wy, wf = ws * y_d(xs), ws * f(xs)
            b[2 * e : 2 * e + 4] += sv.T @ wy - beta * (sdd.T @ wf)
            scale[2 * e : 2 * e + 4] += np.abs(sv).T @ np.abs(wy) + beta * (np.abs(sdd).T @ np.abs(wf))
            points.append((np.full(xs.size, e), xs, ws))
    return b, scale, points


def test_load_nonuniform_mesh_matches_per_element_split():
    # breakpoints inside two elements, on a node, within 1e-12 h of a node
    # on either side, and outside [-1, 1]; the data jump at each of them
    mesh = hv.Mesh(np.array([-1.0, -0.7, -0.2, 0.1, 0.35, 0.8, 1.0]))
    bps = np.array([-1.5, -0.5, -0.2 + 0.4e-12 * 0.3, 0.1, 0.35 - 0.5e-12 * 0.25, 0.6, 1.25])
    y_d = lambda x: np.cos(3.0 * x) + np.searchsorted(bps, x)
    f = lambda x: np.sin(2.0 * x) - 0.5 * np.searchsorted(bps, x)
    beta = 0.7
    ref, scale, points = load_reference(mesh, y_d, f, beta, bps)
    element, x, _, w = segment_quadrature(mesh, bps, 6)
    ref_element, ref_x, ref_w = map(np.concatenate, zip(*points))
    assert x.size == (mesh.n_elements + 2) * 6  # only -0.5 and 0.6 cut
    assert np.array_equal(element, ref_element)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    b = hv.assemble_load(mesh, y_d, f, beta, breakpoints=bps)
    # same terms, summed in another order: a few ulps of the term magnitudes
    assert np.all(np.abs(b - ref) <= 32 * np.finfo(float).eps * scale)


# ---------------------------------------------------------- constraint_bounds

def load_by_stacked_tables(mesh, spec, beta):
    """The load from whole (point, 4) value and curvature tables: the oracle for
    the column-by-column fill of assemble_load."""
    element, x, xi, w = segment_quadrature(mesh, spec.breakpoints, assembly.LOAD_QUAD_POINTS)
    h = mesh.h[element]
    wy = w * np.asarray(spec.y_d(x), dtype=float)
    wf = w * np.asarray(spec.f(x), dtype=float)
    vals = shape_matrix(xi, h, 0) * wy[:, None] - beta * (shape_matrix(xi, h, 2) * wf[:, None])
    return np.bincount(_element_dofs(element).ravel(), weights=vals.ravel(), minlength=2 * mesh.n_nodes)


@pytest.mark.parametrize("problem", ["paper", "unconstrained-smoke"])
@pytest.mark.parametrize("beta", [1.0, 1.7])
def test_load_matches_stacked_shape_tables(problem, beta):
    spec = hv.get_problem(problem)
    for n in (1, 2, 3, 16, 1000, 1024, 4096):
        mesh = hv.build_mesh(n)
        load = hv.assemble_load(mesh, spec.y_d, spec.f, beta, breakpoints=spec.breakpoints)
        assert np.array_equal(load, load_by_stacked_tables(mesh, spec, beta)), n


def test_bounds_of_benchmark_obstacle(paper):
    mesh = hv.build_mesh(2)
    bounds = hv.constraint_bounds(mesh, paper.psi)
    assert bounds[1] == pytest.approx(1.0, abs=1e-15)          # node at 0
    assert bounds[0] == pytest.approx(-7.0 / 2.0, abs=1e-14)   # node at -1


def test_bounds_constant_obstacle():
    mesh = hv.build_mesh(5)
    bounds = hv.constraint_bounds(mesh, lambda x: 3.25)
    assert np.all(bounds == 3.25)


# ------------------------------------------------------------ apply_dirichlet

def test_dirichlet_pins_boundary_dofs(rng):
    mesh = hv.build_mesh(2)
    a = hv.assemble_energy(mesh, 1.0)
    b = rng.normal(size=a.dim)
    b_before = b.copy()
    system = hv.apply_dirichlet(a, b, bounds=np.full(mesh.n_nodes, 0.1))
    dense, eye = to_dense(system.a), np.eye(a.dim)
    assert system.a.dim == a.dim == 6
    for d in (0, 4):  # the value DOFs of the first and the last node
        assert np.array_equal(dense[d], eye[d]) and np.array_equal(dense[:, d], eye[d])
        assert system.b[d] == 0.0
    # the other entries keep the global numbering and their values
    free = [1, 2, 3, 5]
    assert np.array_equal(dense[np.ix_(free, free)], to_dense(a)[np.ix_(free, free)])
    assert np.array_equal(system.b[free], b[free]) and np.array_equal(b, b_before)
    x = system.a.solve(system.b)
    sol = hv.solve_pdas(system.to_qp())
    assert sol.active_set  # the bound binds, so PDAS pins slopes as well
    for d in (0, 4):
        assert x[d] == 0.0 and sol.x[d] == 0.0


def test_eliminated_system_symmetric_and_spd():
    mesh = hv.build_mesh(5)
    a = hv.assemble_energy(mesh, 1.0)
    system = hv.apply_dirichlet(a, np.zeros(a.dim), np.ones(mesh.n_nodes))
    d = to_dense(system.a)
    assert np.array_equal(d, d.T)
    system.a.factor()


def test_dirichlet_rejects_mismatched_sizes():
    mesh = hv.build_mesh(3)
    a, b = hv.assemble_energy(mesh, 1.0), np.zeros(8)
    bounds = np.ones(mesh.n_nodes)
    system = hv.apply_dirichlet(a, b, bounds)
    # the slope DOFs carry the bounds, disjoint from the Dirichlet value DOFs 0 and 6
    assert system.to_qp().constrained.tolist() == [1, 3, 5, 7]
    assert np.array_equal(to_dense(system.a)[[0, 6]], np.eye(8)[[0, 6]])
    for bad_a, bad_b, bad_bounds in (
        (hv.assemble_energy(hv.build_mesh(4), 1.0), b, bounds),
        (a, np.zeros(10), bounds),
        (a, b, np.ones(mesh.n_nodes - 1)),
        # one node: two DOFs and one bound agree, but both ends need a node
        (from_dense(np.eye(2)), np.zeros(2), np.ones(1)),
    ):
        with pytest.raises(ValueError, match="matrix, load and bounds do not agree"):
            hv.apply_dirichlet(bad_a, bad_b, bad_bounds)


def test_equality_resolve_matches_qp_solution(paper):
    # independent dense re-solve of the equality-constrained system on the
    # solver's final active set reproduces the constrained solution
    result = hv.solve_problem(paper, n_elements=33)
    qp, qp_sol = result.qp, result.qp_solution
    a = to_dense(qp.a)
    fixed = np.array(qp_sol.active_set, dtype=int)
    pos = {int(c): k for k, c in enumerate(qp.constrained)}
    free = np.setdiff1d(np.arange(qp.dim), fixed)
    x = np.zeros(qp.dim)
    x[fixed] = qp.bounds[[pos[int(i)] for i in fixed]]
    x[free] = np.linalg.solve(a[np.ix_(free, free)], qp.b[free] - a[np.ix_(free, fixed)] @ x[fixed])
    assert np.max(np.abs(x - np.asarray(qp_sol.x, dtype=float))) <= 1e-10
    # off the active set the unconstrained stationarity rows hold
    resid = np.asarray(qp.a.residual(qp_sol.x, qp.b), dtype=float)
    assert np.max(np.abs(resid[free])) <= 1e-10


# ------------------------------------------------------ SymmetricBandedMatrix

def test_banded_roundtrip_and_matvec(rng):
    dense = rng.normal(size=(7, 7))
    dense = dense + dense.T + 10.0 * np.eye(7)
    banded = from_dense(dense)
    assert np.array_equal(to_dense(banded), dense)
    x = rng.normal(size=7)
    assert np.max(np.abs(np.asarray(banded.matvec(x), float) - dense @ x)) <= 1e-12
    sub = banded.submatrix(np.array([0, 2, 5]))
    assert np.array_equal(to_dense(sub), dense[np.ix_([0, 2, 5], [0, 2, 5])])
    # pinned solve: identity rows/columns at the pinned coordinates decouple
    # them, so the rest solves the principal submatrix and they come out 0
    m = rng.normal(size=(7, 7))
    spd = m @ m.T + 7.0 * np.eye(7)
    fixed, free = np.array([1, 4]), np.array([0, 2, 3, 5, 6])
    rhs = rng.normal(size=7)
    rhs[fixed] = 0.0
    x = from_dense(spd).solve(rhs, fixed)
    assert np.all(x[fixed] == 0.0)
    ref = np.linalg.solve(spd[np.ix_(free, free)], rhs[free])
    assert np.max(np.abs(np.asarray(x[free], float) - ref)) <= 1e-12
    # empty inputs: no rows kept, and a 0x0 matrix
    for empty in (banded.submatrix([]), from_dense(np.zeros((0, 0)))):
        assert empty.dim == 0 and to_dense(empty).shape == (0, 0)
        assert np.asarray(empty.matvec(np.zeros(0))).shape == (0,)
    # unsorted or repeated indices would drop entries beyond the kept band; indices out of
    # range or not 1-D fail the index rule, and so do floats and masks, which are not rows
    energy = hv.assemble_energy(hv.build_mesh(3), 1.0)
    for bad in ([0, 5, 1, 6, 2], [1, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            energy.submatrix(bad)
    for bad in ([-1, 2], [0, energy.dim], [[0, 1]], [0.5, 1.7, 2.2], [False, True]):
        with pytest.raises(ValueError, match="1-D integers in"):
            energy.submatrix(bad)


def test_banded_from_dense_round_trips(rng):
    # bands as wide as the matrix, 119 diagonals at most, and trailing zero
    # columns, read back through the library's slot map: the whole submatrix
    # keeps every slot inside the matrix, and norm_inf sums the dense columns
    m = rng.normal(size=(60, 60))
    for dense in (np.array([[1.0, 0.0], [0.0, 0.0]]), np.diag([2.0, 3.0, 0.0]), np.zeros((3, 3)),
                  np.zeros((0, 0)), m @ m.T + 60.0 * np.eye(60)):
        banded = from_dense(dense)
        assert banded.half_bandwidth == max(dense.shape[0] - 1, 0)
        assert np.array_equal(to_dense(banded), dense)
        whole = banded.submatrix(np.arange(dense.shape[0]))
        assert whole.half_bandwidth == banded.half_bandwidth and np.array_equal(to_dense(whole), dense)
        assert banded.norm_inf == np.abs(dense).sum(axis=0).max(initial=0.0)


def test_banded_solve_matches_dense(rng):
    mesh = hv.build_mesh(11)
    a = hv.assemble_energy(mesh, 0.5)
    rhs = rng.normal(size=a.dim)
    x = np.asarray(a.solve(rhs), dtype=float)
    assert np.max(np.abs(np.linalg.solve(to_dense(a), rhs) - x)) <= 1e-10


def test_banded_shape_comes_from_its_data():
    band = hv.SymmetricBandedMatrix(np.ones((3, 4)))
    assert (band.dim, band.half_bandwidth) == (4, 1)
    for bad in (np.ones(3), np.ones((2, 4)), np.ones((4, 4))):
        with pytest.raises(ValueError, match="2-D with an odd number of rows"):
            hv.SymmetricBandedMatrix(bad)
    # a shape apart from the data, such as (5, 1) or (4, 2) here, cannot be passed
    for dim, half_bandwidth in ((5, 1), (4, 2)):
        with pytest.raises(TypeError):
            hv.SymmetricBandedMatrix(dim, half_bandwidth, np.ones((3, 4)))


def test_banded_factor_rejects_indefinite():
    bad = from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(hv.MatrixNotSpdError):
        bad.factor()


def test_banded_solve_rejects_non_finite_input():
    a = from_dense(np.array([[4.0, 1.0], [1.0, 3.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            a.solve(np.array([1.0, bad]))
        # the band is refused at construction; outside the matrix, or in the
        # lower rows that construction fills from the upper ones, it is cleared
        with pytest.raises(ValueError, match="infs or NaNs"):
            hv.SymmetricBandedMatrix(np.array([[0.0, 1.0], [4.0, bad], [1.0, 0.0]]))
        band = hv.SymmetricBandedMatrix(np.array([[bad, 1.0], [4.0, 3.0], [bad, bad]]))
        assert np.array_equal(band.data, [[0.0, 1.0], [4.0, 3.0], [1.0, 0.0]])


def pinned_band(a, fixed):
    """The whole band of ``a`` pinned by the library's rule: ``fixed`` checked as
    :meth:`factor` checks it, then :func:`assembly._pinned`, as the Dirichlet pins run it."""
    return assembly._pinned(a.data, a.half_bandwidth, a._indices(fixed), "C")


def banded_case(rng, kind, n):
    if kind == "dense":  # half-bandwidth n - 1
        m = rng.normal(size=(n, n))
        return from_dense(m + m.T + 2.0 * n * np.eye(n))
    mesh = hv.build_mesh(n)
    return hv.apply_dirichlet(hv.assemble_energy(mesh, 1.0), np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes)).a


BANDED_CASES = [("dense", n) for n in range(1, 10)] + [("mesh", n) for n in (1, 2, 3, 7, 64, 1024)]


@pytest.mark.parametrize("kind, n", BANDED_CASES, ids=[f"{k}-{n}" for k, n in BANDED_CASES])
def test_banded_kernel_matches_per_slot_oracles(rng, kind, n):
    a = banded_case(rng, kind, n)
    # long-double x with bits below double precision
    x = np.asarray(rng.normal(size=a.dim), dtype=np.longdouble)
    x += np.asarray(rng.normal(size=a.dim), dtype=np.longdouble) * np.longdouble(2.0) ** -60
    y = a.matvec(x)
    assert y.dtype == np.longdouble and np.array_equal(y, matvec_per_diagonal(a, x))
    masks = {
        "empty": np.array([], dtype=int),
        "all": np.arange(a.dim),
        "endpoints": np.array([0, a.dim - 1]),
        "random": np.flatnonzero(rng.random(a.dim) < 0.3),
    }
    for name, fixed in masks.items():
        p = pinned_band(a, fixed)
        assert p.shape == a.data.shape
        assert np.array_equal(p, pinned_by_slots(a, fixed)), name


def csr_by_edge_rows(a):
    """(values, indices, indptr) of the long-double CSR copy of ``a``, its inner
    rows copied in one strided pass and its first and last hbw rows one by one:
    the oracle for the terms of _csr inside the matrix."""
    hbw, dim = a.half_bandwidth, a.dim
    width = 2 * hbw + 1
    index = np.int32 if width * dim < 2**31 else np.int64

    def strided(flat, steps):
        return np.lib.stride_tricks.as_strided(flat, (dim, width), tuple(k * flat.strides[0] for k in steps))

    # [i, r] is row i's r-th term: column i + hbw - r, from band slot [r, i + hbw - r]
    cols = strided(np.arange(-hbw, dim + hbw, dtype=index)[2 * hbw :], (1, -1))
    band = strided(np.ascontiguousarray(a.data).ravel()[hbw:], (1, dim - 1))
    first, last = min(hbw, dim), max(min(hbw, dim), dim - hbw)
    edge = {i: slice(max(0, i + hbw - dim + 1), min(width, i + hbw + 1)) for i in (*range(first), *range(last, dim))}
    counts = np.full(dim, width, dtype=index)
    for i, terms in edge.items():
        counts[i] = terms.stop - terms.start
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    values, indices = np.empty(indptr[-1], dtype=np.longdouble), np.empty(indptr[-1], dtype=index)
    values[indptr[first] : indptr[last]].reshape(-1, width)[...] = band[first:last]
    indices[indptr[first] : indptr[last]].reshape(-1, width)[...] = cols[first:last]
    for i, terms in edge.items():
        values[indptr[i] : indptr[i + 1]] = band[i, terms]
        indices[indptr[i] : indptr[i + 1]] = cols[i, terms]
    return values, indices, indptr


def assert_csr_matches_edge_rows(a):
    """The CSR copy has 2 hbw + 1 terms a row: those of columns inside the
    matrix are the edge-row build's, in its order, and the rest add 0.0."""
    csr, hbw, dim = a._csr, a.half_bandwidth, a.dim
    width = 2 * hbw + 1
    column = np.arange(dim)[:, None] + hbw - np.arange(width)  # row i's r-th term: column i + hbw - r
    inside = ((column >= 0) & (column < dim)).ravel()
    values, indices, _ = csr_by_edge_rows(a)
    assert np.array_equal(csr.indptr, np.arange(dim + 1) * width)
    assert csr.data.dtype == values.dtype and np.array_equal(csr.data[inside], values)
    assert np.array_equal(csr.indices[inside], indices) and not csr.data[~inside].any()


@pytest.mark.parametrize("kind, n", BANDED_CASES, ids=[f"{k}-{n}" for k, n in BANDED_CASES])
def test_csr_copy_matches_edge_row_build(rng, kind, n):
    assert_csr_matches_edge_rows(banded_case(rng, kind, n))


def test_csr_layout_matches_edge_row_build_at_small_shapes(rng):
    # slots outside the matrix hold random values too: construction must clear them
    for hbw in range(4):
        for dim in range(1, 21):
            assert_csr_matches_edge_rows(hv.SymmetricBandedMatrix(rng.normal(size=(2 * hbw + 1, dim))))


def test_slot_map_readers_match_oracles_at_small_shapes(rng):
    # slots outside the matrix hold random values too, until construction clears them for the pins, the factor and norm_inf
    for hbw in range(4):
        for dim in range(1, 21):
            data = rng.normal(size=(2 * hbw + 1, dim))
            data[hbw] = 2 * hbw + 1 + np.abs(data[hbw])  # a heavy diagonal: positive definite at these shapes
            a = hv.SymmetricBandedMatrix(data)
            assert a.norm_inf == np.abs(to_dense(a)).sum(axis=0).max(), (hbw, dim)
            for fixed in (np.array([], dtype=int), np.arange(dim), np.flatnonzero(rng.random(dim) < 0.5)):
                oracle = pinned_by_slots(a, fixed)
                assert np.array_equal(pinned_band(a, fixed), oracle), (hbw, dim, fixed)
                factor, info = assembly.dpbtrf(oracle[: hbw + 1], lower=0)
                assert info == 0 and np.array_equal(a.factor(fixed), factor), (hbw, dim, fixed)


@pytest.mark.parametrize("kind, n", BANDED_CASES, ids=[f"{k}-{n}" for k, n in BANDED_CASES])
def test_pinned_solve_matches_pinned_copy(rng, kind, n):
    # the seam PDAS calls, against the path it replaces: factor and refine on a pinned copy
    a = banded_case(rng, kind, n)
    rhs = np.asarray(rng.normal(size=a.dim), dtype=np.longdouble)
    rhs += np.asarray(rng.normal(size=a.dim), dtype=np.longdouble) * np.longdouble(2.0) ** -60
    masks = {
        "empty": np.array([], dtype=int),
        "all": np.arange(a.dim),
        "endpoints": np.array([0, a.dim - 1]),
        "random": np.flatnonzero(rng.random(a.dim) < 0.3),
    }
    for name, fixed in masks.items():
        x = a.solve(rhs, fixed)
        assert x.dtype == np.longdouble and np.array_equal(x, pinned(a, fixed).solve(rhs)), name


def test_pinned_leaves_unused_slots():
    # slots outside the matrix hold ones here until construction clears them; pinning must keep them 0.0
    a = hv.SymmetricBandedMatrix(np.ones((3, 4)))
    assert a.data[0, 0] == a.data[2, 3] == 0.0 and np.count_nonzero(a.data) == 10
    for fixed in ([0], [3], [0, 3], [1, 2]):
        assert np.array_equal(pinned_band(a, fixed), pinned_by_slots(a, fixed)), fixed


def test_fixed_indices_follow_one_rule(rng):
    a = banded_case(rng, "mesh", 2)
    rhs = np.arange(a.dim) + 1.0
    # an empty tuple or list pins nothing, as an empty index array does
    for empty in ((), [], np.array([], dtype=int)):
        assert np.array_equal(pinned_band(a, empty), a.data)
        assert np.array_equal(a.factor(empty), a.factor())
        assert np.array_equal(a.solve(rhs, empty), a.solve(rhs))
    # a negative index is not read from the end, and a mask or float is not an index
    for bad in ([-1], [a.dim], np.arange(a.dim) == 0, np.array([1.0])):
        for call in (lambda: pinned_band(a, bad), lambda: a.factor(bad), lambda: a.solve(rhs, bad)):
            with pytest.raises(ValueError, match="1-D integers in"):
                call()


INDEX_CALLS = {
    "factor": lambda a, indices: a.factor(indices),
    "solve": lambda a, indices: a.solve(np.ones(a.dim), indices),
    "submatrix": lambda a, indices: a.submatrix(indices),
    "bound-qp": lambda a, indices: hv.BoundQp(a, np.ones(a.dim), indices, np.ones(np.size(indices))),
}


@pytest.mark.parametrize("call", INDEX_CALLS.values(), ids=INDEX_CALLS.keys())
def test_every_index_set_into_a_band_reads_one_rule(rng, call):
    a = banded_case(rng, "mesh", 2)
    for empty in ((), [], np.array([], dtype=int)):
        call(a, empty)
    for bad in ([0.5], np.arange(a.dim) == 1, [[0, 1]], [-1], [a.dim]):
        with pytest.raises(ValueError, match=rf"^indices must be 1-D integers in \[0, {a.dim}\), not bools or floats$"):
            call(a, bad)


def test_norm_inf_reads_only_slots_inside_the_matrix():
    # the two corner slots hold 99, but the matrix is tridiag(1, 4, 1)
    a = hv.SymmetricBandedMatrix(np.array([[99.0, 1, 1], [4, 4, 4], [1, 1, 99]]))
    assert np.array_equal(a.data, [[0.0, 1, 1], [4, 4, 4], [1, 1, 0]])
    assert a.norm_inf == np.abs(to_dense(a)).sum(axis=1).max() == 6.0
    x = np.ones(3)
    res = hv.kkt_residual(hv.BoundQp(a, np.zeros(3), [], []), hv.QpSolution(x, np.zeros(3), (), 1))
    assert res.stationarity == 6.0 and res.stationarity_scaled == 1.0
    # half-bandwidth 3 on a 2 x 2 matrix [[5, -2], [-2, 3]]: ten of the 14 slots lie outside
    wide = hv.SymmetricBandedMatrix(np.array([[99.0, 99], [99, 99], [99, -2], [5, 3], [-2, 99], [99, 99], [99, 99]]))
    assert np.array_equal(to_dense(wide), [[5.0, -2.0], [-2.0, 3.0]])
    assert np.array_equal(wide.data, [[0.0, 0], [0, 0], [0, -2], [5, 3], [-2, 0], [0, 0], [0, 0]])
    assert wide.norm_inf == 7.0


def test_band_is_its_upper_rows():
    # the lower rows [3, 3] disagree with the upper ones: construction
    # overwrites them, so the QP is tridiag(1, 4, 1) and its solve is exact
    a = hv.SymmetricBandedMatrix([[0, 1, 1], [4, 4, 4], [3, 3, 0]])
    assert np.array_equal(a.data, [[0.0, 1, 1], [4, 4, 4], [1, 1, 0]]) and not a.data.flags.writeable
    qp = hv.BoundQp(a, np.ones(3), [0], [10.0])
    sol = hv.solve_pdas(qp)
    assert np.allclose(np.asarray(sol.x, dtype=float), [3 / 14, 1 / 7, 3 / 14], rtol=0.0, atol=1e-16)
    assert hv.kkt_residual(qp, sol).stationarity <= 1e-15
    # a writeable float array is completed in place; a read-only one, such as
    # another band's, is copied and left as it was
    data = np.array([[7.0, 1, 1], [4, 4, 4], [3, 3, 7]])
    assert hv.SymmetricBandedMatrix(data).data is data and np.array_equal(data, a.data)
    b = hv.SymmetricBandedMatrix(a.data)
    assert b.data is not a.data and np.array_equal(b.data, a.data)
    frozen = np.array([[7.0, 1, 1], [4, 4, 4], [3, 3, 7]])
    frozen.flags.writeable = False
    assert np.array_equal(hv.SymmetricBandedMatrix(frozen).data, a.data)
    assert frozen[0, 0] == 7.0 and frozen[2, 0] == 3.0


@pytest.mark.parametrize(
    "where", [{"n_elements": 1024}, {"mesh": nonuniform_mesh(1, 1000)}], ids=["uniform-1024", "nonuniform-1000"]
)
def test_solve_bits_match_per_diagonal_matvec(paper, where, monkeypatch):
    # the library product must add the diagonals in the oracle's order, or
    # the refined solves of the whole chain move by rounding
    shipped = hv.solve_problem(paper, **where)
    monkeypatch.setattr(hv.SymmetricBandedMatrix, "matvec", matvec_per_diagonal)
    oracle = hv.solve_problem(paper, **where)
    assert np.array_equal(shipped.qp_solution.x, oracle.qp_solution.x)
    assert np.array_equal(shipped.qp_solution.multipliers, oracle.qp_solution.multipliers)
    assert len(shipped.levels) == len(oracle.levels)
    for ours, theirs in zip(shipped.levels, oracle.levels):
        assert np.array_equal(ours.coefficients, theirs.coefficients)


@pytest.mark.parametrize(
    "where", [{"n_elements": 1024}, {"n_elements": 2047}, {"mesh": nonuniform_mesh(1, 1000)}],
    ids=["uniform-1024", "uniform-2047", "nonuniform-1000"],
)
def test_solve_bits_match_pinned_copy_solves(paper, where, monkeypatch):
    # every PDAS step of the chain, solved on a pinned copy of the band as before the seam
    shipped = hv.solve_problem(paper, **where)
    solve = hv.SymmetricBandedMatrix.solve
    monkeypatch.setattr(hv.SymmetricBandedMatrix, "solve", lambda a, rhs, fixed=(): solve(pinned(a, fixed), rhs))
    copies = hv.solve_problem(paper, **where)
    assert np.array_equal(shipped.qp_solution.x, copies.qp_solution.x)
    assert np.array_equal(shipped.qp_solution.multipliers, copies.qp_solution.multipliers)
    assert len(shipped.levels) == len(copies.levels)
    for ours, theirs in zip(shipped.levels, copies.levels):
        assert np.array_equal(ours.coefficients, theirs.coefficients)
        assert ours.active_nodes == theirs.active_nodes
        assert ours.iterations == theirs.iterations and ours.kkt == theirs.kkt


def test_one_factorization_per_level_and_pdas_step(paper, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return factorize(*args, **kwargs)

    factorize = assembly.dpbtrf
    monkeypatch.setattr(assembly, "dpbtrf", counting)
    result = hv.solve_problem(paper, 1024)
    # the finest and the coarsest level each solve their QP unconstrained once,
    # for the cold starts, and each PDAS step factors its pinned band
    assert len(calls) == 2 + sum(s.iterations for s in result.levels) == 15
    unbound = dataclasses.replace(paper, psi=lambda x: np.full_like(np.asarray(x, dtype=float), 1e3))
    calls.clear()
    result = hv.solve_problem(unbound, 64)
    assert result.solution.iterations == 1 and not result.solution.active_nodes
    assert len(calls) == 1


# ------------------------------------------------------ scipy on first use

def run_fresh(code: str) -> list:
    """The JSON lines that ``code`` prints in a fresh interpreter, with warnings as errors,
    importing the hermvi under test."""
    package_root = str(Path(hv.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import sys; sys.path.insert(0, {package_root!r})\n{code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_import_and_verify_load_no_scipy():
    stages = run_fresh("""
import contextlib, io, json
def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
import hermvi, hermvi.cli
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert hermvi.cli.main(["verify", "--problem", "paper"]) == 0
loaded()
hermvi.solve_problem(hermvi.paper_example(), 8)
loaded()
import scipy.linalg.lapack, scipy.sparse
assembly = hermvi.assembly
print(json.dumps([assembly.dpbtrf is scipy.linalg.lapack.dpbtrf, assembly.dpbtrs is scipy.linalg.lapack.dpbtrs,
                  assembly.csr_array is scipy.sparse.csr_array]))
""")
    imported, verified, solved, bound = stages
    assert imported == verified == []
    assert {"scipy.linalg.lapack", "scipy.sparse"} <= set(solved)
    assert bound == [True, True, True]


def test_lapack_patched_before_first_solve_is_the_one_called():
    # in-process the names are bound already; only a fresh interpreter patches them unbound
    (counts,) = run_fresh("""
import json
import hermvi
from hermvi import assembly
assert "dpbtrf" not in vars(assembly) and "dpbtrs" not in vars(assembly)
counts = {"dpbtrf": 0, "dpbtrs": 0}
def counting(name):
    def counted(*args, **kwargs):
        counts[name] += 1
        import scipy.linalg.lapack
        return getattr(scipy.linalg.lapack, name)(*args, **kwargs)
    return counted
assembly.dpbtrf, assembly.dpbtrs = counting("dpbtrf"), counting("dpbtrs")
hermvi.solve_problem(hermvi.paper_example(), 1024)
try:
    assembly.nope
except AttributeError:
    counts["nope"] = "AttributeError"
print(json.dumps(counts))
""")
    # the counts that test_solve_work_counts pins for this solve
    assert counts == {"dpbtrf": 15, "dpbtrs": 60, "nope": "AttributeError"}


# ---------------------------------------------- no numpy.ma before a solve

def test_import_build_and_verify_load_no_numpy_ma():
    # np.unique loads numpy.ma on numpy 2; numpy 1.x loads it on import, which this cannot test
    stages = run_fresh("""
import contextlib, io, json
def loaded():
    print(json.dumps("numpy.ma" in sys.modules))
import numpy
loaded()
import hermvi, hermvi.cli
hermvi.paper_example()
hermvi.unconstrained_smoke()
with contextlib.redirect_stdout(io.StringIO()):
    assert hermvi.cli.main(["verify", "--problem", "paper"]) == 0
loaded()
""")
    numpy_alone, verified = stages
    if numpy_alone:
        pytest.skip("this numpy loads numpy.ma on import")
    assert not verified
