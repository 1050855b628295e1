"""High-level driver: assemble a problem on a mesh and solve the bound QP."""

from __future__ import annotations

from dataclasses import dataclass

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
from .qp import DEFAULT_MAX_ITER, BoundQp, QpSolution, kkt_residual, solve_pdas


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
    of the underlying QP.
    """
    if (n_elements is None) == (mesh is None):
        raise ValueError("pass exactly one of n_elements or mesh")
    if mesh is None:
        mesh = build_mesh(n_elements)
    system = assemble_system(spec, mesh, quad_points=quad_points)
    qp = system.to_qp()
    qp_sol = solve_pdas(qp, max_iter=max_iter)
    solution = DiscreteSolution(
        coefficients=qp_sol.x,
        mesh=mesh,
        iterations=qp_sol.iterations,
        active_nodes=tuple(system.dof_map.node_of_dof(i) for i in qp_sol.active_set),
        kkt=kkt_residual(qp, qp_sol),
    )
    return SolveResult(solution=solution, system=system, qp=qp, qp_solution=qp_sol)
