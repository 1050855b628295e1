import numpy as np
import pytest

import hermvi as hv
from hermvi.mesh import _shape_columns

from oracles import from_dense
from table1_reference import ACCEPTANCE_ELEMENTS


@pytest.fixture(scope="session")
def paper():
    return hv.paper_example()


@pytest.fixture(scope="session")
def solve_cache(paper):
    """Memoized benchmark solves shared across test modules."""
    cache = {}

    def solve(n):
        if n not in cache:
            cache[n] = hv.solve_problem(paper, n_elements=n)
        return cache[n]

    return solve


@pytest.fixture(scope="session")
def study(paper):
    """Convergence study over the acceptance levels (4..128 elements)."""
    return hv.run_convergence_study(paper, ACCEPTANCE_ELEMENTS)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_bound_qp(rng, dim=None):
    """Random SPD bound QP with a random constrained subset."""
    if dim is None:
        dim = int(rng.integers(2, 11))
    m = rng.normal(size=(dim, dim))
    a = m @ m.T + dim * np.eye(dim)
    b = rng.normal(size=dim)
    n_con = int(rng.integers(1, dim + 1))
    cons = np.sort(rng.choice(dim, size=n_con, replace=False))
    bounds = rng.normal(size=n_con)
    return hv.BoundQp(a=from_dense(a), b=b, constrained=cons, bounds=bounds)


def nonuniform_mesh(seed, n):
    """Mesh of ``n`` elements with seeded widths up to five times apart."""
    widths = np.random.default_rng(seed).uniform(0.2, 1.0, size=n)
    nodes = -1.0 + 2.0 * np.cumsum(np.append(0.0, widths)) / widths.sum()
    nodes[-1] = 1.0
    return hv.Mesh(nodes)


def corpus_spec(seed):
    """A seeded problem of the stress corpus: y_d and f of four Fourier modes
    each (amplitude up to 30), beta = 10^U(-6, 2) and the obstacle
    c (1 + d sin(k pi x)) with c in [0.05, 2], d in [0, 1] and k in {1, 2, 3}."""
    rng = np.random.default_rng(seed)
    a, b, c, d = (30.0 * rng.uniform(-1.0, 1.0, size=4) for _ in range(4))
    beta = 10.0 ** rng.uniform(-6.0, 2.0)
    level, depth, k = rng.uniform(0.05, 2.0), rng.uniform(0.0, 1.0), int(rng.integers(1, 4))

    def modes(x):
        return np.pi * np.multiply.outer(np.asarray(x, dtype=float), np.arange(1, 5))

    return hv.ProblemSpec(
        name=f"corpus-seed{seed}", beta=beta,
        y_d=lambda x: np.sin(modes(x)) @ a + np.cos(modes(x)) @ b,
        f=lambda x: np.sin(modes(x)) @ c + np.cos(modes(x)) @ d,
        psi=lambda x: level * (1.0 + depth * np.sin(k * np.pi * np.asarray(x, dtype=float))),
    )


def counting_kkt(monkeypatch):
    """Record the arguments of every call of ``hermvi.solver.kkt_residual``."""
    calls = []
    kkt_residual = hv.solver.kkt_residual

    def recording(qp, sol):
        calls.append((qp, sol))
        return kkt_residual(qp, sol)

    monkeypatch.setattr(hv.solver, "kkt_residual", recording)
    return calls


def shape_matrix(xi, h, deriv_order):
    """The four Hermite shape columns stacked, shape ``(..., 4)``."""
    return np.stack(_shape_columns(xi, h, deriv_order), axis=-1)
