import dataclasses

import numpy as np
import pytest

import hermvi as hv
from hermvi.solver import assemble_system


def test_solution_coefficients_vanish_at_dirichlet_dofs(solve_cache):
    sol = solve_cache(9).solution
    dm = hv.DofMap(sol.mesh.n_nodes)
    assert all(sol.coefficients[d] == 0.0 for d in dm.dirichlet_dofs)


def test_active_nodes_touch_their_bounds(paper, solve_cache):
    result = solve_cache(16)
    sol = result.solution
    for node in sol.active_nodes:
        x = float(sol.mesh.nodes[node])
        assert hv.evaluate(sol, x, 1) == pytest.approx(float(paper.psi(x)), abs=1e-14)


def test_solution_slopes_respect_bounds_at_nodes(paper, solve_cache):
    sol = solve_cache(32).solution
    slopes = sol.coefficients[1::2]
    bounds = hv.constraint_bounds(sol.mesh, paper.psi)
    assert np.max(slopes - bounds) <= 1e-10


def test_solve_problem_argument_validation(paper):
    with pytest.raises(ValueError):
        hv.solve_problem(paper)
    with pytest.raises(ValueError):
        hv.solve_problem(paper, n_elements=4, mesh=hv.build_mesh(4))


def test_solve_problem_accepts_custom_mesh(paper):
    mesh = hv.Mesh(np.array([-1.0, -0.5, 0.1, 0.4, 1.0]))
    result = hv.solve_problem(paper, mesh=mesh)
    assert result.solution.mesh is mesh
    assert result.solution.kkt.stationarity <= 1e-10


def test_non_finite_data_raises(paper):
    spec = dataclasses.replace(paper, y_d=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan))
    with pytest.raises(ValueError):
        hv.solve_problem(spec, 8)


def test_shared_structures_are_immutable(paper, solve_cache):
    mesh = hv.build_mesh(4)
    with pytest.raises(ValueError):
        mesh.nodes[0] = 0.0
    rule = hv.gauss_rule(4)
    with pytest.raises(ValueError):
        rule.weights[0] = 2.0
    sol = solve_cache(4).solution
    with pytest.raises(ValueError):
        sol.coefficients[0] = 1.0
    a = solve_cache(4).qp.a
    with pytest.raises(ValueError):
        a.data[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.data = np.zeros_like(a.data)


def random_even_mesh(rng, n):
    widths = rng.uniform(0.2, 1.0, size=n)
    nodes = -1.0 + 2.0 * np.cumsum(np.append(0.0, widths)) / widths.sum()
    nodes[-1] = 1.0
    return hv.Mesh(nodes)


WARM_START_MESHES = {
    **{f"uniform-{n}": hv.build_mesh(n) for n in (6, 96, 768, 1000, 1024)},
    **{f"nonuniform-seed{s}": random_even_mesh(np.random.default_rng(s), 200) for s in (1, 2)},
}


@pytest.mark.parametrize("mesh", WARM_START_MESHES.values(), ids=WARM_START_MESHES.keys())
def test_warm_start_matches_cold_start(paper, mesh):
    warm = hv.solve_problem(paper, mesh=mesh).qp_solution
    cold = hv.solve_pdas(assemble_system(paper, mesh).to_qp())
    assert warm.active_set == cold.active_set
    assert np.array_equal(warm.x, cold.x)


def test_coarse_chain_runs_only_on_even_meshes_with_a_binding_bound(paper, monkeypatch):
    sizes = []

    def counting(spec, mesh, **kwargs):
        sizes.append(mesh.n_elements)
        return assemble_system(spec, mesh, **kwargs)

    monkeypatch.setattr("hermvi.solver.assemble_system", counting)
    unbound = hv.ProblemSpec(
        name="unbound", beta=1.0, f=paper.f, y_d=paper.y_d,
        psi=lambda x: np.full_like(np.asarray(x, dtype=float), 1e3),
    )
    for spec, n, chain in [
        (paper, 96, [96, 48, 24, 12, 6, 3]),
        (paper, 33, [33]),
        (unbound, 64, [64]),
    ]:
        sizes.clear()
        hv.solve_problem(spec, n)
        assert sizes == chain


@pytest.mark.parametrize("k", range(5, 13))
def test_pdas_iterations_do_not_grow_with_the_mesh(solve_cache, k):
    assert solve_cache(2**k).solution.iterations <= 2


def test_coarse_level_nonconvergence_names_its_mesh(paper, monkeypatch):
    monkeypatch.setattr(hv.qp, "MAX_ITER", 1)
    with pytest.raises(hv.NonConvergenceError, match="on the 1-element coarse mesh") as excinfo:
        hv.solve_problem(paper, 16)
    # the iterate is the coarse mesh's: one element, two nodes, four DOFs
    assert excinfo.value.x.shape == (4,)
    # an odd mesh has no chain, so the error is the mesh's own, unrenamed
    with pytest.raises(hv.NonConvergenceError, match="within 1 iterations") as excinfo:
        hv.solve_problem(paper, 33)
    assert "coarse mesh" not in str(excinfo.value)
    assert excinfo.value.x.shape == (68,)
