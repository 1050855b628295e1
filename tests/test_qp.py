import numpy as np
import pytest

import hermvi as hv
from hermvi.assembly import SymmetricBandedMatrix
from hermvi.solver import assemble_system

from conftest import random_bound_qp


def paper_qp(paper, n):
    return assemble_system(paper, hv.build_mesh(n)).to_qp()


# ------------------------------------------------------------------ solve_pdas

def test_pdas_all_bounds_infinite(rng):
    m = rng.normal(size=(5, 5))
    a = m @ m.T + 5.0 * np.eye(5)
    b = rng.normal(size=5)
    qp = hv.BoundQp(a=a, b=b, constrained=np.arange(5), bounds=np.full(5, np.inf))
    sol = hv.solve_pdas(qp)
    assert sol.iterations == 1
    assert sol.active_set == ()
    assert np.max(np.abs(np.asarray(sol.x, float) - np.linalg.solve(a, b))) <= 1e-12
    assert np.all(sol.multipliers == 0.0)


def test_pdas_clamped_scalar():
    qp = hv.BoundQp(a=np.array([[1.0]]), b=np.array([2.0]), constrained=[0], bounds=[1.0])
    sol = hv.solve_pdas(qp)
    assert float(sol.x[0]) == 1.0
    assert float(sol.multipliers[0]) == pytest.approx(1.0, abs=1e-15)
    assert sol.active_set == (0,)


def test_pdas_matches_bruteforce_on_benchmark(paper):
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        qp = paper_qp(paper, n)
        x_bf = np.asarray(hv.solve_bruteforce(qp).x, dtype=float)
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
    assert excinfo.value.x is not None
    assert excinfo.value.iterations == 1


def test_qp_rejects_indefinite_matrix():
    with pytest.raises(hv.MatrixNotSpdError):
        hv.BoundQp(
            a=np.array([[1.0, 3.0], [3.0, 1.0]]),
            b=np.zeros(2), constrained=[0], bounds=[0.0],
        )


def test_qp_rejects_nonsymmetric_matrix():
    # the upper triangle alone is SPD, so only a symmetry check catches it
    a = np.array([[4.0, 1.0, 0.0], [0.0, 4.0, 1.0], [0.0, 0.0, 4.0]])
    with pytest.raises(ValueError, match="symmetric"):
        hv.BoundQp(a=a, b=np.ones(3), constrained=[0], bounds=[10.0])
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricBandedMatrix.from_dense(a)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(b=np.ones(3)), "load vector length"),
        (dict(bounds=[1.0, 2.0]), "one bound per constrained coordinate"),
        (dict(constrained=[2]), "out of range"),
        (dict(constrained=[-1]), "out of range"),
        (dict(bounds=[np.nan]), r"finite or \+inf"),
        (dict(bounds=[-np.inf]), r"finite or \+inf"),
        (dict(b=[np.inf, 0.0]), "load vector must be finite"),
        (dict(b=[0.0, np.nan]), "load vector must be finite"),
    ],
    ids=["load-length", "bound-count", "index-above", "index-below", "nan-bound", "minus-inf-bound",
         "inf-load", "nan-load"],
)
def test_qp_rejects_malformed_inputs(change, message):
    valid = dict(a=np.eye(2), b=np.ones(2), constrained=[0], bounds=[1.0])
    hv.BoundQp(**valid)
    with pytest.raises(ValueError, match=message):
        hv.BoundQp(**{**valid, **change})


def test_pdas_validates_parameters(paper):
    qp = paper_qp(paper, 2)
    for start in (np.ones(qp.constrained.size - 1, bool), np.ones((1, qp.constrained.size), bool)):
        with pytest.raises(ValueError, match="one entry per constrained coordinate"):
            hv.solve_pdas(qp, active=start)


# ------------------------------------------------------------- solve_bruteforce

def test_bruteforce_all_bounds_infinite(rng):
    m = rng.normal(size=(4, 4))
    a = m @ m.T + 4.0 * np.eye(4)
    b = rng.normal(size=4)
    qp = hv.BoundQp(a=a, b=b, constrained=np.arange(4), bounds=np.full(4, np.inf))
    sol = hv.solve_bruteforce(qp)
    assert np.max(np.abs(sol.x - np.linalg.solve(a, b))) <= 1e-12


def test_bruteforce_clamped_scalar():
    qp = hv.BoundQp(a=np.array([[1.0]]), b=np.array([2.0]), constrained=[0], bounds=[1.0])
    sol = hv.solve_bruteforce(qp)
    assert sol.x[0] == 1.0 and sol.multipliers[0] == pytest.approx(1.0)


def test_bruteforce_beats_random_feasible_points(rng):
    for _ in range(5):
        qp = random_bound_qp(rng, dim=int(rng.integers(2, 9)))
        sol = hv.solve_bruteforce(qp)
        obj = qp.objective(sol.x)
        z = rng.normal(size=(10_000, qp.dim))
        z[:, qp.constrained] = np.minimum(z[:, qp.constrained], qp.bounds)
        a = qp.a.to_dense()
        objs = 0.5 * np.einsum("ij,jk,ik->i", z, a, z) - z @ qp.b
        assert obj <= float(np.min(objs)) + 1e-12


def test_bruteforce_refuses_large_sets():
    dim = 25
    qp = hv.BoundQp(
        a=np.eye(dim) * 2.0, b=np.zeros(dim),
        constrained=np.arange(dim), bounds=np.zeros(dim),
    )
    with pytest.raises(ValueError):
        hv.solve_bruteforce(qp)


# ---------------------------------------------------------------- kkt_residual

def test_kkt_residual_zero_at_exact_solution():
    qp = hv.BoundQp(a=np.array([[1.0]]), b=np.array([2.0]), constrained=[0], bounds=[1.0])
    sol = hv.solve_pdas(qp)
    res = hv.kkt_residual(qp, sol)
    assert res.stationarity == 0.0
    assert res.primal_violation == 0.0
    assert res.min_multiplier >= 0.0
    assert res.complementarity == 0.0
    # no constrained coordinate: only stationarity is left to measure
    free = hv.BoundQp(a=np.array([[1.0]]), b=np.array([2.0]), constrained=[], bounds=[])
    assert hv.kkt_residual(free, hv.solve_pdas(free)) == (0.0, 0.0, 0.0, 0.0, 0.0)


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
    col = qp.a.to_dense()[:, j]
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
        x_bf = np.asarray(hv.solve_bruteforce(qp).x, dtype=float)
        worst = max(worst, float(np.max(np.abs(x_pdas - x_bf))))
    assert worst <= 1e-10


def test_objective_not_worse_than_clamped_unconstrained(paper, rng):
    qps = [paper_qp(paper, 8)] + [random_bound_qp(rng) for _ in range(10)]
    for qp in qps:
        sol = hv.solve_pdas(qp)
        clamped = np.asarray(qp.a.solve(qp.b), dtype=float)
        clamped[qp.constrained] = np.minimum(clamped[qp.constrained], qp.bounds)
        assert qp.objective(sol.x) <= qp.objective(clamped) + 1e-12


def test_active_set_scale_invariant(paper):
    qp = paper_qp(paper, 5)
    reference = hv.solve_pdas(qp).active_set
    for s in (1e-3, 1e3, 7.0):
        scaled = hv.BoundQp(
            a=SymmetricBandedMatrix(qp.a.dim, qp.a.half_bandwidth, qp.a.data * s),
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
