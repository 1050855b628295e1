import dataclasses
import importlib
import pickle
import re

import numpy as np
import pytest
import scipy.linalg.lapack

import hermvi as hv
from hermvi.assembly import SymmetricBandedMatrix
from hermvi.solver import _assemble_stack, assemble_system

from conftest import corpus_spec, counting_kkt, nonuniform_mesh
from oracles import pinned


def unbound_spec(paper):
    """The paper's data under an obstacle far above any slope of its state."""
    return hv.ProblemSpec(
        name="unbound", beta=1.0, f=paper.f, y_d=paper.y_d,
        psi=lambda x: np.full_like(np.asarray(x, dtype=float), 1e3),
    )


def test_solution_coefficients_vanish_at_dirichlet_dofs(solve_cache):
    sol = solve_cache(9).solution
    # the value DOFs 0 and 2n - 2 of the first and last of the n nodes
    assert sol.coefficients[0] == 0.0 and sol.coefficients[2 * sol.mesh.n_nodes - 2] == 0.0


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
    # a record keeps what its constructor checked: nodes against h, coefficients against the mesh
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.nodes = np.array([-1.0, 0.0, 1.0])
    for array in hv.gauss_rule(4):  # points and weights
        with pytest.raises(ValueError):
            array[0] = 2.0
    sol = solve_cache(4).solution
    with pytest.raises(ValueError):
        sol.coefficients[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.coefficients = np.zeros(3)
    a = solve_cache(4).qp.a
    with pytest.raises(ValueError):
        a.data[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.data = np.zeros_like(a.data)


MODULES = ("analysis", "assembly", "cli", "mesh", "problems", "qp", "solver")


def test_every_record_is_frozen():
    records = {
        cls.__name__: cls
        for module in (importlib.import_module(f"hermvi.{name}") for name in MODULES)
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
    }
    assert {"AssembledSystem", "QpSolution", "SolveResult", "ErrorReport", "ConvergenceReport",
            "CheckResult"} <= records.keys()
    assert [name for name, cls in records.items() if not cls.__dataclass_params__.frozen] == []


def test_records_refuse_assignments(paper, solve_cache):
    # each of these assignments used to be taken, and left a record that disagreed with its checks
    system = assemble_system(paper, hv.build_mesh(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.bounds = np.zeros(3)
    assert system.to_qp().constrained.size == 5
    result = solve_cache(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.levels = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.qp_solution.x = np.zeros(3)
    assert result.solution.mesh.n_elements == 4
    check = hv.verify_continuous_kkt(paper)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.passed = not check.passed
    report = hv.run_convergence_study(paper, [2, 4])
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.reports[0].l2 = 0.0
    with pytest.raises(AttributeError):
        report.reports.append(report.reports[0])
    assert hv.render_report(report, format="csv").count("\n") == 3


WARM_START_MESHES = {
    **{f"uniform-{n}": hv.build_mesh(n) for n in (6, 33, 96, 768, 1000, 1023, 1024)},
    **{f"nonuniform-seed{s}": nonuniform_mesh(s, 200) for s in (1, 2)},
    "nonuniform-201": nonuniform_mesh(3, 201),
}


@pytest.mark.parametrize("mesh", WARM_START_MESHES.values(), ids=WARM_START_MESHES.keys())
def test_warm_start_matches_cold_start(paper, mesh):
    warm = hv.solve_problem(paper, mesh=mesh).qp_solution
    cold = hv.solve_pdas(assemble_system(paper, mesh).to_qp())
    assert warm.active_set == cold.active_set
    assert np.array_equal(warm.x, cold.x)


def test_coarse_chain_runs_only_with_a_binding_bound(paper, monkeypatch):
    sizes = []

    def counting(spec, meshes):  # every mesh of a stacked assembly, in stack order
        sizes.extend(mesh.n_elements for mesh in meshes)
        return _assemble_stack(spec, meshes)

    monkeypatch.setattr("hermvi.solver._assemble_stack", counting)
    for spec, n, chain in [
        # every other node and the last: an odd count's coarse meshes are non-uniform
        (paper, 96, [96, 48, 24, 12, 6, 3, 2, 1]),
        (paper, 33, [33, 17, 9, 5, 3, 2, 1]),
        (unbound_spec(paper), 64, [64]),
    ]:
        sizes.clear()
        hv.solve_problem(spec, n)
        assert sizes == chain


def fourier_spec(seed, psi):
    """Seeded smooth data evaluated with ``@``, as hermbench's unbound-fine
    workload draws it, under the constant obstacle ``psi``."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, 5)
    a, b, c, d = (rng.normal(size=k.size) for _ in range(4))

    def modes(x):
        return np.pi * np.multiply.outer(np.asarray(x, dtype=float), k)

    return hv.ProblemSpec(
        name=f"fourier-seed{seed}", beta=1.0,
        y_d=lambda x: np.sin(0.5 * (modes(x) + np.pi * k)) @ a + np.cos(modes(x)) @ b,
        f=lambda x: np.cos(0.5 * modes(x)) @ c + np.sin(modes(x)) @ d,
        psi=lambda x: np.full_like(np.asarray(x, dtype=float), psi),
    )


STACK_CASES = {
    **{f"paper-{n}": (lambda paper, n=n: (paper, hv.build_mesh(n))) for n in (1024, 2047, 96, 33)},
    "paper-nonuniform-seed1": lambda paper: (paper, nonuniform_mesh(1, 1000)),
    # the unbound-fine data with the obstacle lowered until it binds
    "fourier-seed1": lambda paper: (fourier_spec(1, 0.1), hv.build_mesh(1024)),
    "scalar-data": lambda paper: (
        dataclasses.replace(paper, f=lambda x: 0.0, psi=lambda x: 0.25, exact=None), hv.build_mesh(100)
    ),
}


@pytest.mark.parametrize("case", STACK_CASES.values(), ids=STACK_CASES.keys())
def test_stacked_assembly_equals_one_mesh_assembly(paper, case):
    spec, mesh = case(paper)
    meshes = [level.mesh for level in reversed(hv.solve_problem(spec, mesh=mesh).levels)]
    assert len(meshes) > 2  # a bound binds, so solve_problem stacks the coarse meshes
    # the solver's stack of the coarse levels, and the whole chain with the finest first
    for stack in (meshes[1:], meshes):
        for stacked, level in zip(_assemble_stack(spec, stack), stack, strict=True):
            alone = assemble_system(spec, level)
            assert stacked.a.data.tobytes() == alone.a.data.tobytes()
            assert stacked.b.tobytes() == alone.b.tobytes()
            assert stacked.bounds.tobytes() == alone.bounds.tobytes()


def test_solve_calls_the_data_once_per_assembly_pass(paper):
    calls = dict.fromkeys(("y_d", "f", "psi"), 0)

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    per_solve = []
    for spec, n in [(paper, 1024), (unbound_spec(paper), 64)]:
        spec = dataclasses.replace(spec, **{name: counted(name, getattr(spec, name)) for name in calls})
        calls.update(dict.fromkeys(calls, 0))  # the spec's own obstacle check calls psi
        hv.solve_problem(spec, n)
        per_solve.append(dict(calls))
    # the finest level alone, then one stack of every coarse level; no chain without a binding bound
    assert per_solve == [dict.fromkeys(calls, 2), dict.fromkeys(calls, 1)]


@pytest.mark.parametrize(
    "problem, n, factorizations, triangular_solves, matvecs",
    [
        # one refined solve (1 + 3 dpbtrs, 3 residuals) serves the cold start and
        # the one PDAS step; kkt_residual takes the fourth residual
        ("unconstrained-smoke", 64, 1, 4, 4),
        # 13 pinned PDAS steps (1 + 3 dpbtrs, 5 residuals each), the two cold
        # starts' refined solves and one kkt_residual, on the finest level
        ("paper", 1024, 15, 60, 72),
    ],
)
def test_solve_work_counts(monkeypatch, problem, n, factorizations, triangular_solves, matvecs):
    counts = dict.fromkeys(("dpbtrf", "dpbtrs", "matvec", "residual"), 0)

    def counting(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(scipy.linalg.lapack, "dpbtrf")
    counting(scipy.linalg.lapack, "dpbtrs")
    counting(SymmetricBandedMatrix, "matvec")
    counting(SymmetricBandedMatrix, "residual")
    hv.solve_problem(hv.get_problem(problem), n)
    # every product is a residual's: the refinement steps read residual too
    assert counts == {"dpbtrf": factorizations, "dpbtrs": triangular_solves, "matvec": matvecs, "residual": matvecs}


@pytest.mark.parametrize("problem, n", [("paper", 1024), ("paper", 33), ("unbound", 64)])
def test_every_pdas_start_comes_from_the_solver(paper, monkeypatch, problem, n):
    starts = []

    def recording(qp, active=None):
        starts.append(active)
        return hv.solve_pdas(qp, active=active)

    monkeypatch.setattr("hermvi.solver.solve_pdas", recording)
    spec = unbound_spec(paper) if problem == "unbound" else hv.get_problem(problem)
    result = hv.solve_problem(spec, n)
    # one start per level, the coarsest's cold start included
    assert len(starts) == len(result.levels)
    assert all(isinstance(start, np.ndarray) and start.dtype == bool for start in starts)


@pytest.mark.parametrize("problem", ["unconstrained-smoke", "unbound"])
def test_unconstrained_pdas_step_is_the_plain_solve(paper, problem):
    spec = unbound_spec(paper) if problem == "unbound" else hv.get_problem(problem)
    qp = assemble_system(spec, hv.build_mesh(64)).to_qp()
    sol = hv.solve_pdas(qp)
    assert sol.active_set == () and sol.iterations == 1
    # long doubles compared by value: their padding bytes are not part of it
    fresh = SymmetricBandedMatrix(qp.a.data.copy()).solve(qp.b)
    assert np.array_equal(sol.x, fresh)
    # the pinned path with nothing pinned, as PDAS took it before the solve was cached
    assert np.array_equal(sol.x, pinned(qp.a, []).solve(qp.a.residual(np.zeros(qp.dim), qp.b)))
    assert sol.multipliers.dtype == fresh.dtype and not sol.multipliers.any()
    plain = hv.QpSolution(fresh, np.zeros_like(fresh), (), 1)
    assert hv.kkt_residual(qp, sol) == hv.kkt_residual(qp, plain)
    assert np.array_equal(hv.solve_problem(spec, 64).qp_solution.x, fresh)


@pytest.mark.parametrize("k", range(5, 13))
def test_pdas_iterations_do_not_grow_with_the_mesh(solve_cache, k):
    assert solve_cache(2**k).solution.iterations <= 2


@pytest.mark.parametrize(
    "mesh",
    [*(hv.build_mesh(n) for n in (2047, 2049, 4094, 4095, 8191)),
     *(nonuniform_mesh(1, n) for n in (1000, 2000, 3000))],
    ids=[*(f"uniform-{n}" for n in (2047, 2049, 4094, 4095, 8191)),
         *(f"nonuniform-seed1-{n}" for n in (1000, 2000, 3000))],
)
def test_every_mesh_warm_starts(paper, mesh):
    # a cold start takes up to 69 iterations at 1023 elements and none settles from 2047 up
    result = hv.solve_problem(paper, mesh=mesh)
    assert len(result.levels) > 1
    assert max(level.iterations for level in result.levels) <= 2


def prolong_by_flags(coarse, multipliers, mesh, bounds):
    """The earlier start rule, the reference for the slope rule: a shared node
    keeps its flag, a node inside a coarse element needs both ends' flags."""
    nodes, flags = coarse.mesh.nodes, multipliers > 0
    j = np.searchsorted(nodes, mesh.nodes)
    return flags[j] & (flags[j - 1] | (nodes[j] == mesh.nodes))


PROLONG_MESHES = {
    **{f"uniform-{n}": hv.build_mesh(n) for n in (16, 33, 64, 96, 1000, 1024, 2047, 4094)},
    **{f"nonuniform-seed{s}-{n}": nonuniform_mesh(s, n) for s in (1, 2, 3) for n in (200, 1000, 3000)},
}


@pytest.mark.parametrize("mesh", PROLONG_MESHES.values(), ids=PROLONG_MESHES.keys())
def test_slope_prolongation_settles_where_the_flag_rule_does(paper, mesh, monkeypatch):
    # the start only moves the PDAS path: every level's result is the flag rule's, bit for bit
    shipped = hv.solve_problem(paper, mesh=mesh).levels
    monkeypatch.setattr(hv.solver, "_prolong", prolong_by_flags)
    reference = hv.solve_problem(paper, mesh=mesh).levels
    assert len(shipped) == len(reference) > 1
    for ours, theirs in zip(shipped, reference):
        assert np.array_equal(ours.coefficients, theirs.coefficients)
        assert ours.active_nodes == theirs.active_nodes and ours.kkt == theirs.kkt
    assert sum(level.iterations for level in shipped) <= sum(level.iterations for level in reference)


def prolong_by_slope(coarse, multipliers, mesh, bounds):
    """The slope rule without its run-end exception: every shared node keeps
    its flag, a new one compares the coarse state's slope with its bound."""
    nodes, flags = coarse.mesh.nodes, multipliers > 0
    j = np.searchsorted(nodes, mesh.nodes)
    return np.where(nodes[j] == mesh.nodes, flags[j], hv.evaluate(coarse, mesh.nodes, 1) >= bounds)


def prolong_by_run_ends(coarse, multipliers, mesh, bounds):
    """The start rule written out node by node: the slope rule, except that an
    interior node i ending an active run starts inactive when its multiplier is
    below rho (H - H_f) / 2, provided its next two run nodes k, k' are interior
    with densities lambda / w within 5% of each other."""
    nodes, widths, flags = coarse.mesh.nodes, coarse.mesh.h, multipliers > 0
    start, last = multipliers.copy(), nodes.size - 1
    for i in range(1, last):
        for d in (1, -1):
            k, k2 = i + d, i + 2 * d
            if not (flags[i] and not flags[i - d] and 0 < k2 < last and flags[k] and flags[k2]):
                continue
            rho, rho2 = (multipliers[n] / ((widths[n - 1] + widths[n]) / 2) for n in (k, k2))
            f = mesh.nodes.tolist().index(nodes[i])
            coarse_width, fine_width = abs(nodes[k] - nodes[i]), abs(mesh.nodes[f + d] - mesh.nodes[f])
            if abs(rho - rho2) <= 0.05 * rho and multipliers[i] < rho * (coarse_width - fine_width) / 2:
                start[i] = 0.0
    return prolong_by_slope(coarse, start, mesh, bounds)


def recorded_starts(monkeypatch, spec, **where):
    """One solve, and every call of the solver's ``_prolong`` in it: its arguments and the mask it returned."""
    calls, prolong = [], hv.solver._prolong

    def recording(*args):
        calls.append((args, prolong(*args)))
        return calls[-1][1]

    monkeypatch.setattr(hv.solver, "_prolong", recording)
    return hv.solve_problem(spec, **where), calls


PROLONG_CASES = {
    **{f"uniform-{n}": (lambda paper, n=n: (paper, hv.build_mesh(n))) for n in (1024, 33, 768)},
    "nonuniform-seed1-1000": lambda paper: (paper, nonuniform_mesh(1, 1000)),
    # random data, where the density guard keeps run ends active (at 0.0508 apart on seed 7's 256-element level)
    **{f"corpus-seed{s}-{n}": (lambda paper, s=s, n=n: (corpus_spec(s), hv.build_mesh(n))) for s, n in ((1, 128), (7, 512))},
}


@pytest.mark.parametrize("case", PROLONG_CASES.values(), ids=PROLONG_CASES.keys())
def test_prolongation_reads_the_coarse_slope(paper, case, monkeypatch):
    # the start rule as stated, on every level: it reads the coarse level's own multipliers, shared
    # nodes keep their flag unless they end a run (prolong_by_run_ends), new ones compare the slope
    spec, mesh = case(paper)
    result, calls = recorded_starts(monkeypatch, spec, mesh=mesh)
    assert len(calls) == len(result.levels) - 1
    for coarse, fine, ((given, multipliers, fine_mesh, bounds), start) in zip(result.levels, result.levels[1:], calls):
        assert given is coarse and fine_mesh is fine.mesh
        assert tuple(np.flatnonzero(multipliers > 0).tolist()) == coarse.active_nodes
        assert np.array_equal(bounds, hv.constraint_bounds(fine.mesh, spec.psi))
        assert np.array_equal(start, prolong_by_run_ends(coarse, multipliers, fine.mesh, bounds))


def test_run_end_starts_inactive_where_the_fine_cell_misses_the_contact_set(paper, monkeypatch):
    # paper/512: the node at 0.33203 ends the run on [1/3, 1] at lambda / (rho h) = 0.157, under the
    # bound 1/4 of a bisected mesh, so it starts inactive at 1024 elements, where it is inactive
    result, calls = recorded_starts(monkeypatch, paper, n_elements=1024)
    (coarse, multipliers, mesh, _), start = calls[-1]
    i = 341
    assert coarse.mesh.nodes[i] == 0.33203125 and mesh.nodes[2 * i] == 0.33203125
    assert multipliers[i] > 0 and not multipliers[i - 1] > 0
    assert multipliers[i] / (paper.exact.rho(0.5) * coarse.mesh.h[i]) == pytest.approx(0.157, abs=5e-4)
    assert not start[2 * i] and 2 * i not in result.solution.active_nodes
    assert start[2 * i + 1] and start[2 * i + 2]
    # 768 = 3 * 2^8: the 384-element level's node at 1/3 ends the run at lambda / (rho h) = 0.499,
    # so it starts active and stays active
    result, calls = recorded_starts(monkeypatch, paper, n_elements=768)
    (coarse, multipliers, mesh, _), start = calls[-1]
    i = 256
    assert coarse.mesh.nodes[i] == pytest.approx(1 / 3, abs=1e-15) and mesh.nodes[2 * i] == coarse.mesh.nodes[i]
    assert multipliers[i] > 0 and not multipliers[i - 1] > 0
    assert multipliers[i] / (paper.exact.rho(0.5) * coarse.mesh.h[i]) == pytest.approx(0.499, abs=5e-4)
    assert start[2 * i] and 2 * i in result.solution.active_nodes


#: Item 13's generator on uniform meshes, one size per seed in turn.
CORPUS_SIZES = (64, 128, 256, 512)


def test_corpus_settles_where_the_rule_without_run_ends_does(monkeypatch):
    # random data: the run-end exception moves only the PDAS path, never a level's result
    def solves():
        return [hv.solve_problem(corpus_spec(seed), CORPUS_SIZES[seed % len(CORPUS_SIZES)]).levels
                for seed in range(24)]

    shipped = solves()
    monkeypatch.setattr(hv.solver, "_prolong", prolong_by_slope)
    reference = solves()
    for ours, theirs in zip(shipped, reference):
        assert len(ours) == len(theirs) > 1
        for a, b in zip(ours, theirs):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.active_nodes == b.active_nodes and a.kkt == b.kkt
    assert sum(level.iterations for levels in shipped for level in levels) <= sum(
        level.iterations for levels in reference for level in levels)


def test_chain_iterations_per_level(solve_cache):
    # the flag rule (prolong_by_flags) takes 2 steps on every level, 22 in all; the slope rule
    # without its run-end exception (prolong_by_slope) 17, with a second step at 1, 8, 16, 64, 256 and 1024
    assert [level.iterations for level in solve_cache(1024).levels] == [2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "mesh", [hv.build_mesh(33), hv.build_mesh(96), nonuniform_mesh(1, 1000)],
    ids=["uniform-33", "uniform-96", "nonuniform-seed1-1000"],
)
def test_chain_levels_equal_their_own_solves(paper, mesh):
    # odd and non-uniform chains: each coarse level's hand-off gives what a solve on its mesh gives
    levels = hv.solve_problem(paper, mesh=mesh).levels
    assert len(levels) > 1
    for level in levels[:-1]:
        own = hv.solve_problem(paper, mesh=level.mesh).solution
        assert level.active_nodes == own.active_nodes
        assert np.array_equal(level.coefficients, own.coefficients)
        assert level.iterations == own.iterations and level.kkt == own.kkt


def test_records_holding_arrays_compare_by_identity(paper):
    # a field-wise == over ndarray fields raises "truth value ... is ambiguous"
    def records(result):
        mesh = result.solution.mesh
        return (mesh, result.solution, result.qp.a, result.qp, result.qp_solution,
                assemble_system(paper, mesh), result)

    for one, other in zip(records(hv.solve_problem(paper, 4)), records(hv.solve_problem(paper, 4))):
        assert (one == one) is True and (one == other) is False
        assert len({one, other}) == 2


def test_coarse_level_nonconvergence_names_its_mesh(paper, monkeypatch):
    monkeypatch.setattr(hv.qp, "MAX_ITER", 1)
    with pytest.raises(hv.NonConvergenceError, match="on the 1-element coarse mesh") as excinfo:
        hv.solve_problem(paper, 16)
    # the iterate is the coarse mesh's: one element, two nodes, four DOFs
    assert excinfo.value.last.x.shape == (4,)
    # one element has no chain, so the error is the mesh's own, unrenamed
    with pytest.raises(hv.NonConvergenceError, match="within 1 iterations") as excinfo:
        hv.solve_problem(paper, 1)
    assert "coarse mesh" not in str(excinfo.value)
    assert excinfo.value.last.x.shape == (4,)


def test_failed_factorization_names_its_level(paper):
    # node 32 of 64 moved 1e-6 right of node 31: the bending entries of that element reach 1e18
    nodes = hv.build_mesh(64).nodes.copy()
    nodes[32] = nodes[31] + 1e-6
    with pytest.raises(hv.MatrixNotSpdError) as excinfo:
        hv.solve_problem(paper, mesh=hv.Mesh(nodes))
    assert re.fullmatch(
        r"\d+-th leading minor not positive definite "
        r"\(on the 64-element mesh of the warm-start chain, element widths 1e-06 to 0.0625\)",
        str(excinfo.value),
    )
    assert isinstance(excinfo.value.__cause__, hv.MatrixNotSpdError)


def test_coarse_level_failed_factorization_names_its_level(paper, monkeypatch):
    factor = SymmetricBandedMatrix.factor

    def failing(self, fixed=()):
        if self.dim == 6:  # the three nodes of the 2-element level
            raise hv.MatrixNotSpdError("1-th leading minor not positive definite")
        return factor(self, fixed)

    monkeypatch.setattr(SymmetricBandedMatrix, "factor", failing)
    with pytest.raises(hv.MatrixNotSpdError) as excinfo:
        hv.solve_problem(paper, 16)
    assert str(excinfo.value).endswith("(on the 2-element mesh of the warm-start chain, element widths 1 to 1)")


@pytest.mark.parametrize(
    "problem, where",
    [*(("paper", {"n_elements": n}) for n in (1, 16, 33, 1024)),
     ("paper", {"mesh": nonuniform_mesh(1, 1000)}), ("unbound", {"n_elements": 64})],
    ids=["paper-1", "paper-16", "paper-33", "paper-1024", "nonuniform-1000", "unbound-64"],
)
def test_active_nodes_are_the_active_set_by_node(paper, problem, where):
    # each level reads its flags from its multipliers; they must name the slope DOFs of the active set
    result = hv.solve_problem(paper if problem == "paper" else unbound_spec(paper), **where)
    assert result.solution.active_nodes == tuple(i // 2 for i in result.qp_solution.active_set)


def test_solve_computes_only_the_finest_record(paper, monkeypatch):
    calls = counting_kkt(monkeypatch)
    result = hv.solve_problem(paper, 1024)
    assert len(result.levels) == 11
    assert len(calls) == 1 and calls[0][0] is result.qp and calls[0][1] is result.qp_solution
    assert result.solution.kkt == hv.kkt_residual(result.qp, result.qp_solution)


def test_coarse_record_is_computed_once_on_read(paper, monkeypatch):
    calls = counting_kkt(monkeypatch)
    levels = hv.solve_problem(paper, 64).levels
    first = levels[2].kkt
    assert levels[2].kkt is first and len(calls) == 2
    # the record is the one its level's own solve certifies
    assert first == hv.solve_problem(paper, mesh=levels[2].mesh).solution.kkt


def test_levels_survive_pickle(paper):
    levels = hv.solve_problem(paper, 1024).levels
    data = pickle.dumps(levels)
    for name in (b"BoundQp", b"SymmetricBandedMatrix", b"csr_array"):
        assert name not in data  # the records travel, not the QPs behind them
    back = pickle.loads(data)
    assert [level.kkt for level in back] == [level.kkt for level in levels]
    for ours, theirs in zip(back, levels):
        assert np.array_equal(ours.coefficients, theirs.coefficients)
        assert ours.active_nodes == theirs.active_nodes and ours.iterations == theirs.iterations
        assert ours._kkt_source is None
    # read records pickle as values
    again = pickle.loads(pickle.dumps(levels))
    assert [level.kkt for level in again] == [level.kkt for level in levels]


def test_replaced_level_certifies_no_solve(paper):
    levels = hv.solve_problem(paper, 64).levels
    # replaced before and after the source's record is read: neither certifies the zeros
    zeroed = dataclasses.replace(levels[3], coefficients=np.zeros_like(levels[3].coefficients))
    assert zeroed.kkt is None and levels[3].kkt.stationarity < 1e-12
    assert dataclasses.replace(levels[3], coefficients=np.zeros_like(levels[3].coefficients)).kkt is None
    # a source is the caller's to give
    assert dataclasses.replace(zeroed, kkt_source=lambda: levels[3].kkt).kkt is levels[3].kkt
