"""High-level driver: assemble a problem on a mesh and solve the bound QP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    DEFAULT_QUAD_POINTS,
    AssembledSystem,
    apply_dirichlet,
    assemble_energy,
    assemble_load,
    constraint_bounds,
)
from .mesh import DiscreteSolution, DofMap, Mesh, build_mesh
from .problems import ProblemSpec
from .qp import DEFAULT_MAX_ITER, BoundQp, NonConvergenceError, QpSolution, kkt_residual, solve_pdas


@dataclass
class SolveResult:
    """Discrete solution plus the QP artifacts used to produce it."""

    solution: DiscreteSolution
    system: AssembledSystem
    qp: BoundQp
    qp_solution: QpSolution


def assemble_system(spec: ProblemSpec, mesh: Mesh, quad_points: int = DEFAULT_QUAD_POINTS) -> AssembledSystem:
    """Assemble the Dirichlet-pinned system with slope bounds for ``spec``."""
    a = assemble_energy(mesh, spec.beta, quad_points=quad_points)
    b = assemble_load(
        mesh, spec.y_d, spec.f, spec.beta,
        breakpoints=spec.breakpoints, quad_points=quad_points,
    )
    bounds = constraint_bounds(mesh, spec.psi)
    return apply_dirichlet(a, b, DofMap(mesh.n_nodes), bounds=bounds)


def _nested_start(spec: ProblemSpec, mesh: Mesh, quad_points: int, max_iter: int) -> np.ndarray:
    """PDAS start on ``mesh`` (even element count) from the mesh one level coarser.

    ``Mesh(mesh.nodes[::2])`` is solved first, itself started this way when
    its element count is even and cold otherwise, and its active set is
    prolonged: fine node 2i takes coarse node i, and fine node 2i + 1 is
    active iff coarse nodes i and i + 1 both are.  From that start PDAS
    takes one or two iterations on any mesh, where a cold start takes a
    number that grows with the element count.
    """
    coarse = Mesh(mesh.nodes[::2])
    qp = assemble_system(spec, coarse, quad_points=quad_points).to_qp()
    start = None if coarse.n_elements % 2 else _nested_start(spec, coarse, quad_points, max_iter)
    try:
        sol = solve_pdas(qp, max_iter=max_iter, active=start)
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            f"{exc} (on the {coarse.n_elements}-element coarse mesh of the warm start)",
            exc.x, exc.multipliers, exc.active_set, exc.iterations,
        ) from exc
    # constrained slopes are in node order, one per node
    coarse_active = np.isin(qp.constrained, sol.active_set)
    active = np.empty(mesh.n_nodes, dtype=bool)
    active[0::2] = coarse_active
    active[1::2] = coarse_active[:-1] & coarse_active[1:]
    return active


def solve_problem(
    spec: ProblemSpec,
    n_elements: int | None = None,
    mesh: Mesh | None = None,
    quad_points: int = DEFAULT_QUAD_POINTS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Solve ``spec`` on a uniform mesh (or a supplied one).

    Returns the discrete state, whose boundary values are pinned to zero,
    the active slope constraints as node indices, and fresh KKT residuals
    of the underlying QP.  PDAS starts from the bounds that the
    unconstrained solve violates, or, when there are any and the element
    count is even, from the solution on the mesh one level coarser (see
    :func:`_nested_start`); a :class:`NonConvergenceError` raised on such a
    coarser mesh names its element count and carries that mesh's iterate.
    """
    if (n_elements is None) == (mesh is None):
        raise ValueError("pass exactly one of n_elements or mesh")
    if mesh is None:
        mesh = build_mesh(n_elements)
    system = assemble_system(spec, mesh, quad_points=quad_points)
    qp = system.to_qp()
    start = qp.a.solve(qp.b)[qp.constrained] > qp.bounds
    if start.any() and mesh.n_elements % 2 == 0:
        start = _nested_start(spec, mesh, quad_points, max_iter)
    qp_sol = solve_pdas(qp, max_iter=max_iter, active=start)
    solution = DiscreteSolution(
        coefficients=qp_sol.x,
        mesh=mesh,
        iterations=qp_sol.iterations,
        active_nodes=tuple(system.dof_map.node_of_dof(i) for i in qp_sol.active_set),
        kkt=kkt_residual(qp, qp_sol),
    )
    return SolveResult(solution=solution, system=system, qp=qp, qp_solution=qp_sol)
