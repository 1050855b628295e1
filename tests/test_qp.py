import dataclasses
import pickle

import numpy as np
import pytest

import hermvi as hv
from hermvi.assembly import SymmetricBandedMatrix
from hermvi.solver import assemble_system

from conftest import random_bound_qp
from oracles import from_dense, objective, solve_bruteforce, to_dense


def paper_qp(paper, n):
    return assemble_system(paper, hv.build_mesh(n)).to_qp()


# ------------------------------------------------------------------ solve_pdas

def test_pdas_all_bounds_infinite(rng):
    m = rng.normal(size=(5, 5))
    a = m @ m.T + 5.0 * np.eye(5)
    b = rng.normal(size=5)
    qp = hv.BoundQp(a=from_dense(a), b=b, constrained=np.arange(5), bounds=np.full(5, np.inf))
    sol = hv.solve_pdas(qp)
    assert sol.iterations == 1
    assert sol.active_set == ()
    assert np.max(np.abs(np.asarray(sol.x, float) - np.linalg.solve(a, b))) <= 1e-12
    assert np.all(sol.multipliers == 0.0)


def test_pdas_clamped_scalar():
    qp = hv.BoundQp(a=from_dense(np.array([[1.0]])), b=np.array([2.0]), constrained=[0], bounds=[1.0])
    sol = hv.solve_pdas(qp)
    assert float(sol.x[0]) == 1.0
    assert float(sol.multipliers[0]) == pytest.approx(1.0, abs=1e-15)
    assert sol.active_set == (0,)


def test_pdas_matches_bruteforce_on_benchmark(paper):
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        qp = paper_qp(paper, n)
        x_bf = np.asarray(solve_bruteforce(qp).x, dtype=float)
        size = qp.constrained.size
        # the cold start, then initial active sets far from the solution's
        for start in (None, np.ones(size, bool), np.zeros(size, bool), rng.random(size) < 0.5):
            x_pdas = np.asarray(hv.solve_pdas(qp, active=start).x, dtype=float)
            assert np.max(np.abs(x_pdas - x_bf)) <= 1e-10


def test_pdas_max_iter_carries_iterate(paper, monkeypatch):
    monkeypatch.setattr(hv.qp, "MAX_ITER", 1)
    qp = paper_qp(paper, 16)
    with pytest.raises(hv.NonConvergenceError) as excinfo:
        hv.solve_pdas(qp)
    assert excinfo.value.last.x.shape == (qp.dim,)
    assert excinfo.value.last.iterations == 1


def test_pdas_cycle_carries_iterate():
    # an SPD matrix (eigenvalues 0.053, 3.85 and 45.9) that is no M-matrix: PDAS
    # runs {0} -> {0, 1, 2} -> {2} -> {0}, every decision by a margin of 0.27 or more
    a = np.array([[12.76, 16.32, -6.73], [16.32, 29.19, -14.54], [-6.73, -14.54, 7.87]])
    b, bounds = np.array([5.94, 1.46, -0.60]), np.array([-0.01, -0.10, -1.25])
    qp = hv.BoundQp(from_dense(a), b, [0, 1, 2], bounds)
    for start, iterations in ((None, 3), (np.zeros(3, bool), 4)):
        with pytest.raises(hv.NonConvergenceError, match="^active set cycled without converging$") as excinfo:
            hv.solve_pdas(qp, active=start)
        last = excinfo.value.last
        assert last.active_set == (2,) and last.iterations == iterations
        # the equality step with x_2 at its bound, and its multiplier
        x = np.append(np.linalg.solve(a[:2, :2], b[:2] - a[:2, 2] * bounds[2]), bounds[2])
        assert np.max(np.abs(np.asarray(last.x, dtype=float) - x)) <= 1e-12 and last.x[2] == bounds[2]
        assert np.max(np.abs(np.asarray(last.multipliers, dtype=float) - [0.0, 0.0, b[2] - a[2] @ x])) <= 1e-12
    # the brute-force oracle solves it: x_0 and x_2 at their bounds
    sol = solve_bruteforce(qp)
    assert sol.active_set == (0, 2)
    kkt = hv.kkt_residual(qp, sol)
    assert kkt.stationarity <= 1e-12 and kkt.primal_violation == kkt.min_multiplier == 0.0
    assert np.all(sol.multipliers[[0, 2]] > 0.0) and np.array_equal(sol.x[[0, 2]], bounds[[0, 2]])


def test_nonconvergence_error_survives_pickle(paper, monkeypatch):
    monkeypatch.setattr(hv.qp, "MAX_ITER", 1)
    with pytest.raises(hv.NonConvergenceError) as excinfo:
        hv.solve_problem(paper, 1)
    exc = excinfo.value
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is hv.NonConvergenceError
    assert str(back) == str(exc) == "no stable active set within 1 iterations"
    # long doubles compared by value: their padding bytes are not part of it
    assert np.array_equal(back.last.x, exc.last.x)
    assert back.last.iterations == exc.last.iterations == 1


def test_bound_qp_owns_read_only_copies():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b, constrained, bounds = np.array([1.0, 2.0]), np.array([0, 1]), np.array([5.0, 6.0])
    expected = np.linalg.solve(a, b)
    solved = hv.BoundQp(a=from_dense(a), b=b, constrained=constrained, bounds=bounds)
    solved._unconstrained  # cached before the caller's arrays change
    unsolved = hv.BoundQp(a=from_dense(a), b=b, constrained=constrained, bounds=bounds)
    b[:], constrained[:], bounds[:], a[:] = -7.0, 0, -9.0, 0.0
    for qp in (solved, unsolved):
        assert qp.b.tolist() == [1.0, 2.0]
        assert qp.constrained.tolist() == [0, 1] and qp.bounds.tolist() == [5.0, 6.0]
        assert np.max(np.abs(np.asarray(qp._unconstrained, float) - expected)) <= 1e-15
        for name in ("b", "constrained", "bounds"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(qp, name)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            qp._unconstrained[0] = 0.0
        for field in dataclasses.fields(qp):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(qp, field.name, getattr(qp, field.name))


@pytest.mark.parametrize("problem", ["paper", "unconstrained-smoke"])
def test_solver_records_hold_read_only_arrays(problem):
    # the pinned PDAS step and the step with nothing active both return read-only multipliers
    system = assemble_system(hv.get_problem(problem), hv.build_mesh(4))
    sol = hv.solve_pdas(system.to_qp())
    assert bool(sol.active_set) == (problem == "paper")
    for array in (sol.multipliers, system.b, system.bounds):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_apply_dirichlet_leaves_the_callers_flags(paper):
    mesh = hv.build_mesh(4)
    a, b = hv.assemble_energy(mesh, paper.beta), hv.assemble_load(mesh, paper.y_d, paper.f, paper.beta)
    bounds = hv.constraint_bounds(mesh, paper.psi)
    system = hv.apply_dirichlet(a, b, bounds)
    assert b.flags.writeable and bounds.flags.writeable
    assert not system.b.flags.writeable and not system.bounds.flags.writeable
    assert np.shares_memory(system.bounds, bounds)  # a view, not a copy


def test_qp_rejects_indefinite_matrix():
    # nothing is factored on construction; the first solve raises, whatever the start:
    # pinning coordinate 0 leaves the indefinite block [[1, 3], [3, 1]]
    a = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 3.0, 1.0]])
    qp = hv.BoundQp(a=from_dense(a), b=np.zeros(3), constrained=[0], bounds=[0.0])
    for active in (None, np.array([False]), np.array([True])):
        with pytest.raises(hv.MatrixNotSpdError):
            hv.solve_pdas(qp, active=active)


def test_qp_rejects_nonsymmetric_matrix():
    # the upper triangle alone is SPD, so only a symmetry check catches it; a
    # BoundQp takes no dense array (test_bound_qp_takes_only_a_band), so the
    # tests' band import is where a dense matrix is checked
    a = np.array([[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [0.0, 0.0, 4.0]])
    with pytest.raises(ValueError, match="symmetric"):
        from_dense(a)


def test_bound_qp_takes_only_a_band():
    # a dense array, even a symmetric one, is refused by its type's name
    for a in (np.eye(2), [[1.0, 0.0], [0.0, 1.0]], None):
        with pytest.raises(TypeError, match=f"a must be a SymmetricBandedMatrix, got {type(a).__name__}$"):
            hv.BoundQp(a=a, b=np.ones(2), constrained=[0], bounds=[1.0])


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(b=np.ones(3)), "load vector length"),
        (dict(bounds=[1.0, 2.0]), "one bound per constrained coordinate"),
        (dict(constrained=[2]), "1-D integers in"),
        (dict(constrained=[-1]), "1-D integers in"),
        (dict(bounds=[np.nan]), r"finite or \+inf"),
        (dict(bounds=[-np.inf]), r"finite or \+inf"),
        (dict(b=[np.inf, 0.0]), "load vector must be finite"),
        (dict(b=[0.0, np.nan]), "load vector must be finite"),
        (dict(constrained=[0, 0], bounds=[0.5, 1.0]), "distinct"),
        (dict(constrained=[0.9, 2.2], bounds=[0.5, 1.0]), "integers"),
    ],
    ids=["load-length", "bound-count", "index-above", "index-below", "nan-bound", "minus-inf-bound",
         "inf-load", "nan-load", "repeated-index", "fractional-index"],
)
def test_qp_rejects_malformed_inputs(change, message):
    valid = dict(a=from_dense(np.eye(2)), b=np.ones(2), constrained=[0], bounds=[1.0])
    hv.BoundQp(**valid)
    with pytest.raises(ValueError, match=message):
        hv.BoundQp(**{**valid, **change})


def test_pdas_validates_parameters(paper):
    qp = paper_qp(paper, 2)
    for start in (np.ones(qp.constrained.size - 1, bool), np.ones((1, qp.constrained.size), bool)):
        with pytest.raises(ValueError, match="one entry per constrained coordinate"):
            hv.solve_pdas(qp, active=start)
    for start in (np.zeros(qp.constrained.size, int), np.zeros(qp.constrained.size)):
        with pytest.raises(ValueError, match="needs a boolean mask"):
            hv.solve_pdas(qp, active=start)
    assert hv.solve_pdas(qp, active=[False] * qp.constrained.size).active_set == hv.solve_pdas(qp).active_set


# ------------------------------------------------------------- solve_bruteforce

def test_bruteforce_all_bounds_infinite(rng):
    m = rng.normal(size=(4, 4))
    a = m @ m.T + 4.0 * np.eye(4)
    b = rng.normal(size=4)
    qp = hv.BoundQp(a=from_dense(a), b=b, constrained=np.arange(4), bounds=np.full(4, np.inf))
    sol = solve_bruteforce(qp)
    assert np.max(np.abs(sol.x - np.linalg.solve(a, b))) <= 1e-12


def test_bruteforce_clamped_scalar():
    qp = hv.BoundQp(a=from_dense(np.array([[1.0]])), b=np.array([2.0]), constrained=[0], bounds=[1.0])
    sol = solve_bruteforce(qp)
    assert sol.x[0] == 1.0 and sol.multipliers[0] == pytest.approx(1.0)


def test_bruteforce_beats_random_feasible_points(rng):
    for _ in range(5):
        qp = random_bound_qp(rng, dim=int(rng.integers(2, 9)))
        sol = solve_bruteforce(qp)
        obj = objective(qp, sol.x)
        z = rng.normal(size=(10_000, qp.dim))
        z[:, qp.constrained] = np.minimum(z[:, qp.constrained], qp.bounds)
        a = to_dense(qp.a)
        objs = 0.5 * np.einsum("ij,jk,ik->i", z, a, z) - z @ qp.b
        assert obj <= float(np.min(objs)) + 1e-12


def test_bruteforce_refuses_large_sets():
    dim = 25
    qp = hv.BoundQp(
        a=from_dense(np.eye(dim) * 2.0), b=np.zeros(dim),
        constrained=np.arange(dim), bounds=np.zeros(dim),
    )
    with pytest.raises(ValueError):
        solve_bruteforce(qp)


# ---------------------------------------------------------------- kkt_residual

def test_kkt_residual_zero_at_exact_solution():
    qp = hv.BoundQp(a=from_dense(np.array([[1.0]])), b=np.array([2.0]), constrained=[0], bounds=[1.0])
    sol = hv.solve_pdas(qp)
    res = hv.kkt_residual(qp, sol)
    assert res.stationarity == 0.0
    assert res.primal_violation == 0.0
    assert res.min_multiplier >= 0.0
    assert res.complementarity == 0.0
    # no constrained coordinate: only stationarity is left to measure
    free = hv.BoundQp(a=from_dense(np.array([[1.0]])), b=np.array([2.0]), constrained=[], bounds=[])
    assert hv.kkt_residual(free, hv.solve_pdas(free)) == (0.0, 0.0, 0.0, 0.0, 0.0)
    # no coordinate at all: every maximum runs over an empty array
    empty = hv.BoundQp(a=from_dense(np.zeros((0, 0))), b=np.zeros(0), constrained=[], bounds=[])
    assert hv.kkt_residual(empty, hv.solve_pdas(empty)) == hv.KktResidual(0.0, 0.0, 0.0, 0.0, 0.0)


def test_kkt_residual_skips_infinite_bounds_in_complementarity(paper):
    # lambda (x - u) is 0 * -inf on an unconstrained coordinate; only finite bounds count
    qp = hv.BoundQp(a=from_dense(np.eye(2)), b=np.zeros(2), constrained=[0, 1], bounds=[np.inf, 1.0])
    res = hv.kkt_residual(qp, hv.QpSolution(np.array([0.0, 0.5]), np.array([0.0, 2.0]), (1,), 1))
    assert res.complementarity == 1.0 and res.primal_violation == 0.0
    spec = dataclasses.replace(paper, psi=lambda x: np.where(np.asarray(x) < 0, np.inf, paper.psi(x)))
    assert hv.solve_problem(spec, 64).solution.kkt.complementarity == 0.0


def test_kkt_residual_with_zero_scale():
    spec = hv.ProblemSpec(name="zero", beta=1.0, f=np.zeros_like, y_d=np.zeros_like, psi=np.ones_like)
    qp = assemble_system(spec, hv.build_mesh(4)).to_qp()
    x = np.zeros(qp.dim)
    assert hv.kkt_residual(qp, hv.QpSolution(x, np.zeros(qp.dim), (), 1)) == (0.0, 0.0, 0.0, 0.0, 0.0)
    # x = 0 and b = 0 scale the residual by 0: a nonzero multiplier still reads as a violation
    multipliers = np.zeros(qp.dim)
    multipliers[1] = 1.0
    res = hv.kkt_residual(qp, hv.QpSolution(x, multipliers, (1,), 1))
    assert res.stationarity == 1.0 and res.stationarity_scaled == np.inf


def test_kkt_residual_linear_in_perturbation(rng):
    qp = random_bound_qp(rng, dim=6)
    sol = hv.solve_pdas(qp)
    j = 3
    perturbed = hv.QpSolution(
        x=np.asarray(sol.x, float) + 1e-3 * np.eye(qp.dim)[j],
        multipliers=np.asarray(sol.multipliers, float),
        active_set=sol.active_set,
        iterations=sol.iterations,
    )
    res = hv.kkt_residual(qp, perturbed)
    col = to_dense(qp.a)[:, j]
    assert res.stationarity == pytest.approx(1e-3 * float(np.max(np.abs(col))), rel=1e-6)
    assert res.stationarity_scaled > 1e-6


@pytest.mark.parametrize("n", [4, 128, 1024, 4096])
def test_scaled_stationarity_at_working_precision(solve_cache, n):
    # the absolute residual grows like 1/h^3 (3.7e-8 at 4096 elements); the scaled one does not
    assert solve_cache(n).solution.kkt.stationarity_scaled <= 1e-14


def test_scaled_stationarity_matches_benchmark_harness(solve_cache):
    from test_bench_contract import load_harness_module

    result = solve_cache(64)
    absolute, scaled = load_harness_module("workloads").scaled_stationarity(
        result.qp, result.qp_solution.x, result.qp_solution.multipliers
    )
    kkt = result.solution.kkt
    assert kkt.stationarity == absolute
    assert kkt.stationarity_scaled == pytest.approx(scaled, rel=1e-12)


def test_kkt_residual_reads_only_its_arguments(paper, monkeypatch):
    qp, again = paper_qp(paper, 64), paper_qp(paper, 64)
    sol = hv.solve_pdas(qp)
    assert sol.active_set and not sol.x.flags.writeable
    assert [f.name for f in dataclasses.fields(sol)] == ["x", "multipliers", "active_set", "iterations"]
    copy = hv.QpSolution(sol.x, sol.multipliers, sol.active_set, sol.iterations)
    products = []
    matvec = SymmetricBandedMatrix.matvec
    monkeypatch.setattr(SymmetricBandedMatrix, "matvec", lambda a, x: products.append(1) or matvec(a, x))
    # a solve_pdas solution's record is a plain copy's, and that of the same data assembled again
    record = hv.kkt_residual(qp, sol)
    assert record == hv.kkt_residual(qp, copy) == hv.kkt_residual(again, sol)
    assert len(products) == 3  # one product per call
    moved = dataclasses.replace(sol, x=sol.x + 1e-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.x = moved.x  # a record keeps its x; a moved x is a new record
    assert hv.kkt_residual(qp, moved) != record
    assert len(products) == 4


def long_double_kkt(qp, sol):
    """kkt_residual with every abs, max and min taken in long double: its oracle."""
    r = sol.multipliers - qp.a.residual(sol.x, qp.b)
    stationarity = float(np.max(np.abs(r), initial=0.0))
    scale = qp.a.norm_inf * float(np.max(np.abs(sol.x), initial=0.0)) + np.max(np.abs(qp.b), initial=0.0)
    scaled = stationarity / float(scale) if scale else (np.inf if stationarity else 0.0)
    if not qp.constrained.size:
        return hv.KktResidual(stationarity, scaled, 0.0, 0.0, 0.0)
    gap = sol.x[qp.constrained] - qp.bounds
    lam = sol.multipliers[qp.constrained]
    finite = np.isfinite(qp.bounds)
    comp = float(np.max(np.abs(lam[finite] * gap[finite]), initial=0.0))
    return hv.KktResidual(stationarity, scaled, float(max(0.0, np.max(gap))), float(np.min(lam)), comp)


def test_kkt_residual_equals_long_double_reductions(paper, rng):
    qps = [
        hv.BoundQp(a=from_dense(np.array([[1.0]])), b=np.array([2.0]), constrained=[0], bounds=[1.0]),
        hv.BoundQp(a=from_dense(np.array([[1.0]])), b=np.array([2.0]), constrained=[], bounds=[]),
        hv.BoundQp(a=from_dense(np.zeros((0, 0))), b=np.zeros(0), constrained=[], bounds=[]),
        hv.BoundQp(a=from_dense(np.eye(2)), b=np.zeros(2), constrained=[0, 1], bounds=[np.inf, 1.0]),
        *(random_bound_qp(rng) for _ in range(10)),
        paper_qp(paper, 64),
        assemble_system(dataclasses.replace(
            paper, psi=lambda x: np.where(np.asarray(x) < 0, np.inf, paper.psi(x))), hv.build_mesh(64)).to_qp(),
    ]
    for qp in qps:
        sol = hv.solve_pdas(qp)
        # off the optimum, in long double, so every field is nonzero and carries extra bits
        shift = np.longdouble(1e-3) / 3 * rng.normal(size=qp.dim)
        moved = hv.QpSolution(sol.x + shift, sol.multipliers - shift, sol.active_set, 1)
        for candidate in (sol, moved):
            got, want = hv.kkt_residual(qp, candidate), long_double_kkt(qp, candidate)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (qp.dim, got, want)


def test_kkt_residual_on_benchmark_level(paper):
    qp = paper_qp(paper, 33)
    sol = hv.solve_pdas(qp)
    res = hv.kkt_residual(qp, sol)
    assert res.stationarity <= 1e-10
    assert res.primal_violation <= 1e-10
    assert res.min_multiplier >= -1e-12
    assert res.complementarity <= 1e-10


# ------------------------------------------------------------------ invariants

def test_oracle_equivalence_on_random_instances(rng):
    worst = 0.0
    for _ in range(50):
        qp = random_bound_qp(rng)
        x_pdas = np.asarray(hv.solve_pdas(qp).x, dtype=float)
        x_bf = np.asarray(solve_bruteforce(qp).x, dtype=float)
        worst = max(worst, float(np.max(np.abs(x_pdas - x_bf))))
    assert worst <= 1e-10


def test_objective_not_worse_than_clamped_unconstrained(paper, rng):
    qps = [paper_qp(paper, 8)] + [random_bound_qp(rng) for _ in range(10)]
    for qp in qps:
        sol = hv.solve_pdas(qp)
        clamped = np.asarray(qp.a.solve(qp.b), dtype=float)
        clamped[qp.constrained] = np.minimum(clamped[qp.constrained], qp.bounds)
        assert objective(qp, sol.x) <= objective(qp, clamped) + 1e-12


def test_active_set_scale_invariant(paper):
    qp = paper_qp(paper, 5)
    reference = hv.solve_pdas(qp).active_set
    for s in (1e-3, 1e3, 7.0):
        scaled = hv.BoundQp(
            a=SymmetricBandedMatrix(qp.a.data * s),
            b=qp.b * s,
            constrained=qp.constrained,
            bounds=qp.bounds,
        )
        assert hv.solve_pdas(scaled).active_set == reference


def test_pdas_feasibility_and_complementarity_invariants(paper, rng):
    for qp in (paper_qp(paper, 7), random_bound_qp(rng)):
        sol = hv.solve_pdas(qp)
        gap = np.asarray(sol.x, float)[qp.constrained] - qp.bounds
        lam = np.asarray(sol.multipliers, float)[qp.constrained]
        assert np.max(gap) <= 1e-10
        assert np.min(lam) >= -1e-12
        assert np.max(np.abs(lam * gap)) <= 1e-10
