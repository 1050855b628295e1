"""High-level driver: assemble a problem on a mesh and solve the bound QP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (
    AssembledSystem,
    apply_dirichlet,
    assemble_energy,
    assemble_load,
    constraint_bounds,
)
from .mesh import DiscreteSolution, Mesh, build_mesh
from .problems import ProblemSpec
from .qp import BoundQp, NonConvergenceError, QpSolution, _cold_start, kkt_residual, solve_pdas


@dataclass
class SolveResult:
    """Discrete solution plus the QP artifacts used to produce it.

    ``levels`` holds the solution on every mesh of the warm-start chain,
    coarsest first (one level without a chain); ``qp`` and ``qp_solution``
    are the finest level's.
    """

    qp: BoundQp
    qp_solution: QpSolution
    levels: tuple

    @property
    def solution(self) -> DiscreteSolution:
        """The solution on the requested mesh, the finest level."""
        return self.levels[-1]


def assemble_system(spec: ProblemSpec, mesh: Mesh) -> AssembledSystem:
    """Assemble the Dirichlet-pinned system with slope bounds for ``spec``."""
    a = assemble_energy(mesh, spec.beta)
    b = assemble_load(mesh, spec.y_d, spec.f, spec.beta, breakpoints=spec.breakpoints)
    return apply_dirichlet(a, b, constraint_bounds(mesh, spec.psi))


def solve_problem(
    spec: ProblemSpec,
    n_elements: int | None = None,
    mesh: Mesh | None = None,
) -> SolveResult:
    """Solve ``spec`` on a uniform mesh (or a supplied one).

    Returns the discrete state, whose boundary values are pinned to zero,
    the active slope constraints as node indices, and fresh KKT residuals
    of the underlying QP.  PDAS starts from the bounds that the
    unconstrained solve violates.  When there are any and the element
    count is even, the solve first goes down a chain of nested meshes,
    ``Mesh(nodes[::2])`` while the count is even, and climbs back up: the
    coarsest mesh starts cold and each finer one from the active set below
    it, prolonged, so PDAS takes one or two iterations on any mesh (a cold
    start takes a number that grows with the element count).  A
    :class:`NonConvergenceError` raised on a coarser mesh names its
    element count and carries that mesh's iterate.
    """
    if (n_elements is None) == (mesh is None):
        raise ValueError("pass exactly one of n_elements or mesh")
    if mesh is None:
        mesh = build_mesh(n_elements)
    system = assemble_system(spec, mesh)
    qp = system.to_qp()
    active = _cold_start(qp)
    chain = [(mesh, system)]
    while active.any() and chain[-1][0].n_elements % 2 == 0:
        coarse = Mesh(chain[-1][0].nodes[::2])
        chain.append((coarse, assemble_system(spec, coarse)))
    active = active if len(chain) == 1 else None  # the coarsest level of a chain starts cold
    levels = []
    while chain:  # coarsest first; popping frees each solved level's matrices and cached factor
        level_mesh, level_system = chain.pop()
        if levels:  # prolong the level below: fine node 2i takes its node i, 2i + 1 needs i and i + 1
            active = np.repeat(np.isin(level_qp.constrained, qp_sol.active_set), 2)[:-1]
            active[1::2] &= active[2::2]
        level_qp = qp if level_mesh is mesh else level_system.to_qp()
        try:
            qp_sol = solve_pdas(level_qp, active=active)
        except NonConvergenceError as exc:
            if level_mesh is mesh:
                raise
            raise NonConvergenceError(
                f"{exc} (on the {level_mesh.n_elements}-element coarse mesh of the warm start)", exc.last
            ) from exc
        levels.append(DiscreteSolution(
            qp_sol.x, level_mesh, qp_sol.iterations, kkt=kkt_residual(level_qp, qp_sol),
            active_nodes=tuple((np.asarray(qp_sol.active_set) // 2).tolist()),
        ))
    return SolveResult(qp, qp_sol, tuple(levels))
