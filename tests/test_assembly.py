import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import hermvi as hv
from hermvi import assembly
from hermvi.assembly import _band_slots
from hermvi.mesh import _shape_matrix, segment_quadrature, split_segments

from conftest import nonuniform_mesh


def hermite_basis_integrals(mesh, quad_points=8):
    """Quadrature oracle for int phi_i dx over the global basis."""
    rule = hv.gauss_rule(quad_points)
    out = np.zeros(2 * mesh.n_nodes)
    for e in range(mesh.n_elements):
        h = float(mesh.h[e])
        s0 = _shape_matrix(rule.points, h, 0)
        out[2 * e : 2 * e + 4] += s0.T @ (rule.weights * h)
    return out


# ------------------------------------------------------------ assemble_energy

def test_mass_action_on_constant_one():
    # beta -> 0 limit extracted as M = 2 A(1) - A(2); M applied to the
    # function identically 1 must reproduce the basis integrals
    mesh = hv.build_mesh(6)
    m = 2.0 * hv.assemble_energy(mesh, 1.0).to_dense() - hv.assemble_energy(mesh, 2.0).to_dense()
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
    bending = a2.to_dense()[0, 0] - a1.to_dense()[0, 0]  # isolates the beta coefficient
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
    mesh = hv.build_mesh(2)
    with pytest.raises(ValueError):
        hv.assemble_energy(mesh, 0.0)
    with pytest.raises(ValueError):
        hv.assemble_energy(mesh, -1.0)


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
            d = a.to_dense()
            assert np.array_equal(d, d.T)
            system = hv.apply_dirichlet(a, np.zeros(a.dim), hv.DofMap(mesh.n_nodes))
            system.a.factor()  # raises if not SPD


def quadrature_energy(mesh, beta, quad_points=6):
    """Energy matrix from per-element Gauss quadrature of the mass and bending
    integrands, added element by element into a dense matrix."""
    rule = hv.gauss_rule(quad_points)
    h = mesh.h[:, None]
    xi = np.broadcast_to(rule.points, (mesh.n_elements, rule.points.size))
    s0, s2 = _shape_matrix(xi, h, 0), _shape_matrix(xi, h, 2)
    w = rule.weights * h
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
    a = hv.assemble_energy(mesh, beta).to_dense()
    ref = quadrature_energy(mesh, beta)
    assert np.max(np.abs(a - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))
    assert np.array_equal(a, a.T)


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
    rule = hv.gauss_rule(quad_points)
    b, scale, points = np.zeros(2 * mesh.n_nodes), np.zeros(2 * mesh.n_nodes), []
    for e in range(mesh.n_elements):
        x0, x1 = float(mesh.nodes[e]), float(mesh.nodes[e + 1])
        h = x1 - x0
        for s0, s1 in split_segments(x0, x1, breakpoints):
            xs = s0 + (s1 - s0) * rule.points
            ws = rule.weights * (s1 - s0)
            sv, sdd = _shape_matrix((xs - x0) / h, h, 0), _shape_matrix((xs - x0) / h, h, 2)
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
    dm = hv.DofMap(mesh.n_nodes)
    a = hv.assemble_energy(mesh, 1.0)
    b = rng.normal(size=a.dim)
    b_before = b.copy()
    system = hv.apply_dirichlet(a, b, dm, bounds=np.full(mesh.n_nodes, 0.1))
    pinned, eye = system.a.to_dense(), np.eye(a.dim)
    assert system.a.dim == a.dim == 6
    for d in (0, dm.n_dofs - 2):
        assert np.array_equal(pinned[d], eye[d]) and np.array_equal(pinned[:, d], eye[d])
        assert system.b[d] == 0.0
    # the other entries keep the global numbering and their values
    free = [1, 2, 3, 5]
    assert np.array_equal(pinned[np.ix_(free, free)], a.to_dense()[np.ix_(free, free)])
    assert np.array_equal(system.b[free], b[free]) and np.array_equal(b, b_before)
    x = system.a.solve(system.b)
    sol = hv.solve_pdas(system.to_qp())
    assert sol.active_set  # the bound binds, so PDAS pins slopes as well
    for d in (0, dm.n_dofs - 2):
        assert x[d] == 0.0 and sol.x[d] == 0.0


def test_eliminated_system_symmetric_and_spd():
    mesh = hv.build_mesh(5)
    a = hv.assemble_energy(mesh, 1.0)
    system = hv.apply_dirichlet(a, np.zeros(a.dim), hv.DofMap(mesh.n_nodes))
    d = system.a.to_dense()
    assert np.array_equal(d, d.T)
    system.a.factor()
    with pytest.raises(ValueError, match="no slope bounds"):
        system.to_qp()


def test_dirichlet_rejects_mismatched_sizes():
    mesh = hv.build_mesh(3)
    dm = hv.DofMap(mesh.n_nodes)
    a, b = hv.assemble_energy(mesh, 1.0), np.zeros(dm.n_dofs)
    hv.apply_dirichlet(a, b, dm, bounds=np.ones(mesh.n_nodes))
    for bad_a, bad_b in ((hv.assemble_energy(hv.build_mesh(4), 1.0), b), (a, np.zeros(dm.n_dofs + 2))):
        with pytest.raises(ValueError, match="does not match the DOF map"):
            hv.apply_dirichlet(bad_a, bad_b, dm)
    with pytest.raises(ValueError, match="one bound per node"):
        hv.apply_dirichlet(a, b, dm, bounds=np.ones(mesh.n_nodes - 1))


def test_equality_resolve_matches_qp_solution(paper):
    # independent dense re-solve of the equality-constrained system on the
    # solver's final active set reproduces the constrained solution
    result = hv.solve_problem(paper, n_elements=33)
    qp, qp_sol = result.qp, result.qp_solution
    a = qp.a.to_dense()
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
    banded = hv.SymmetricBandedMatrix.from_dense(dense)
    assert np.array_equal(banded.to_dense(), dense)
    x = rng.normal(size=7)
    assert np.max(np.abs(np.asarray(banded.matvec(x), float) - dense @ x)) <= 1e-12
    sub = banded.submatrix(np.array([0, 2, 5]))
    assert np.array_equal(sub.to_dense(), dense[np.ix_([0, 2, 5], [0, 2, 5])])
    # pinned solve: identity rows/columns at the pinned coordinates decouple
    # them, so the rest solves the principal submatrix and they come out 0
    m = rng.normal(size=(7, 7))
    spd = m @ m.T + 7.0 * np.eye(7)
    pinned, free = np.array([1, 4]), np.array([0, 2, 3, 5, 6])
    rhs = rng.normal(size=7)
    rhs[pinned] = 0.0
    x = hv.SymmetricBandedMatrix.from_dense(spd).pinned(pinned).solve(rhs)
    assert np.all(x[pinned] == 0.0)
    ref = np.linalg.solve(spd[np.ix_(free, free)], rhs[free])
    assert np.max(np.abs(np.asarray(x[free], float) - ref)) <= 1e-12
    # empty inputs: no rows kept, and a 0x0 matrix
    for empty in (banded.submatrix([]), hv.SymmetricBandedMatrix.from_dense(np.zeros((0, 0)))):
        assert empty.dim == 0 and empty.to_dense().shape == (0, 0)
        assert np.asarray(empty.matvec(np.zeros(0))).shape == (0,)


def test_banded_solve_matches_dense(rng):
    mesh = hv.build_mesh(11)
    a = hv.assemble_energy(mesh, 0.5)
    rhs = rng.normal(size=a.dim)
    x = np.asarray(a.solve(rhs), dtype=float)
    assert np.max(np.abs(np.linalg.solve(a.to_dense(), rhs) - x)) <= 1e-10


def test_banded_factor_rejects_indefinite():
    bad = hv.SymmetricBandedMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(hv.MatrixNotSpdError):
        bad.factor()


def test_banded_solve_rejects_non_finite_input():
    a = hv.SymmetricBandedMatrix.from_dense(np.array([[4.0, 1.0], [1.0, 3.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            a.solve(np.array([1.0, bad]))
        band = hv.SymmetricBandedMatrix(2, 1, np.array([[0.0, 1.0], [4.0, bad], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            band.factor()


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


def pinned_by_slots(a, fixed):
    """Band of ``a`` with rows and columns ``fixed`` set to the identity's,
    from the row and column of every storage slot: the oracle for pinned."""
    mask = np.zeros(a.dim, dtype=bool)
    mask[fixed] = True
    i, j, valid = _band_slots(a.dim, a.half_bandwidth)
    hit = valid & (mask[np.clip(i, 0, a.dim - 1)] | mask[j])
    return np.where(hit, i == j, a.data)


def banded_case(rng, kind, n):
    if kind == "dense":  # half-bandwidth n - 1
        m = rng.normal(size=(n, n))
        return hv.SymmetricBandedMatrix.from_dense(m + m.T + 2.0 * n * np.eye(n))
    mesh = hv.build_mesh(n)
    return hv.apply_dirichlet(hv.assemble_energy(mesh, 1.0), np.zeros(2 * mesh.n_nodes), hv.DofMap(mesh.n_nodes)).a


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
        p = a.pinned(fixed)
        assert p.dim == a.dim and p.half_bandwidth == a.half_bandwidth
        assert np.array_equal(p.data, pinned_by_slots(a, fixed)), name
    assert a.pinned([]) is a


def test_one_factorization_per_level_and_pdas_step(paper, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return factorize(*args, **kwargs)

    factorize = assembly.dpbtrf
    monkeypatch.setattr(assembly, "dpbtrf", counting)
    result = hv.solve_problem(paper, 1024)
    # each level's QP factors its matrix once, which also serves the cold
    # and unconstrained solves, and each PDAS step factors its pinned copy
    assert len(calls) == len(result.levels) + sum(s.iterations for s in result.levels) == 33
    assert result.qp.a.factor() is result.qp.a.factor() and len(calls) == 33
    with pytest.raises(ValueError):
        result.qp.a.factor()[0, 0] = 1.0
    unbound = dataclasses.replace(paper, psi=lambda x: np.full_like(np.asarray(x, dtype=float), 1e3))
    calls.clear()
    result = hv.solve_problem(unbound, 64)
    assert result.solution.iterations == 1 and not result.solution.active_nodes
    assert len(calls) == 1
