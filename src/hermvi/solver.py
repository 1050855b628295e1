"""High-level driver: assemble a problem on a mesh and solve the bound QP."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .assembly import (
    AssembledSystem,
    MatrixNotSpdError,
    _dirichlet_systems,
    assemble_energy,
    assemble_load,
    constraint_bounds,
)
from .assembly import apply_dirichlet  # noqa: F401  (no caller here; hermbench traces solver.apply_dirichlet)
from .mesh import DiscreteSolution, Mesh, MeshStack, _element_evaluator, build_mesh
from .problems import ProblemSpec
from .qp import BoundQp, NonConvergenceError, QpSolution, _cold_start, kkt_residual, solve_pdas


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Discrete solution plus the QP artifacts used to produce it.

    ``levels`` holds the solution on every mesh of the warm-start chain,
    coarsest first (one level when no bound binds or the mesh has one
    element); ``qp`` and ``qp_solution`` are the finest level's.
    """

    qp: BoundQp
    qp_solution: QpSolution
    levels: tuple

    @property
    def solution(self) -> DiscreteSolution:
        """The solution on the requested mesh, the finest level."""
        return self.levels[-1]


def assemble_system(spec: ProblemSpec, mesh: Mesh) -> AssembledSystem:
    """Assemble the Dirichlet-pinned system with slope bounds for ``spec``.

    This is the one-mesh case of :func:`_assemble_stack`.
    """
    return _assemble_stack(spec, [mesh])[0]


def _assemble_stack(spec: ProblemSpec, meshes) -> list:
    """:func:`assemble_system` on each of ``meshes``, from one pass over their :class:`MeshStack`.

    One energy scatter, one call each of ``y_d``, ``f`` and ``psi``, one
    load ``bincount`` and one Dirichlet pin serve every mesh.
    """
    stack = MeshStack(meshes)
    a = assemble_energy(stack, spec.beta)
    b = assemble_load(stack, spec.y_d, spec.f, spec.beta, breakpoints=spec.breakpoints)
    return _dirichlet_systems(a, b, constraint_bounds(stack, spec.psi), stack.first_node)


#: Largest relative gap between the multiplier densities of the two run nodes beyond a run end
#: at which :func:`_prolong` reads the coarse contact measure there as smooth.
_RUN_DENSITY_TOL = 0.05


def _prolong(coarse: DiscreteSolution, multipliers: np.ndarray, mesh: Mesh, bounds: np.ndarray) -> np.ndarray:
    """PDAS start mask, one flag per node of ``mesh``, from the solved level below it.

    ``multipliers`` holds the slope multiplier of each node of ``coarse``;
    a node is active there where its multiplier is positive.  A node shared
    with the coarse mesh keeps that flag, with one exception: an interior
    node i at the end of an active run starts inactive when its multiplier
    is below rho * (H - H_f) / 2, where H is the coarse element between i and
    the next run node k, H_f the fine element next to i on that side, and
    rho = lambda / w the density of k, with w half the sum of k's two coarse
    widths; the next two run nodes must be interior, with densities within
    :data:`_RUN_DENSITY_TOL` of each other.  With a smooth density the contact
    set then starts beyond the half of H next to i, and so misses i's dual
    cell on ``mesh``.  A new node starts active where the coarse state's
    slope there, as :func:`evaluate` gives it, reaches its bound.
    """
    nodes, widths = coarse.mesh.nodes, coarse.mesh.h
    flags = multipliers > 0
    start = flags.copy()
    # one pass per run end, a few per level: over so few nodes numpy's calls cost more than the arithmetic
    for e in np.flatnonzero(flags[1:] != flags[:-1]).tolist():  # the flags of nodes e and e + 1 differ
        d = 1 if flags[e + 1] else -1  # the way the run goes on from its end i
        i = e + (d > 0)
        k, k2 = i + d, i + 2 * d
        if 0 < i < widths.size and 0 < k2 < widths.size and flags[k] and flags[k2]:
            rho, rho2 = (multipliers[n] / ((widths[n - 1] + widths[n]) / 2) for n in (k, k2))
            fine = np.searchsorted(mesh.nodes, nodes[i])
            gap = widths[min(i, k)] - mesh.h[fine - (d < 0)]  # H - H_f
            if abs(rho - rho2) <= _RUN_DENSITY_TOL * rho and multipliers[i] < rho * gap / 2:
                start[i] = False
    j = np.searchsorted(nodes, mesh.nodes)
    active = start[j]
    new = np.flatnonzero(nodes[j] != mesh.nodes)
    element = j[new] - 1  # the coarse element the new node lies inside
    h, at = _element_evaluator(nodes, coarse.coefficients, element)
    active[new] = at((mesh.nodes[new] - nodes[element]) / h, 1) >= bounds[new]
    return active


def solve_problem(
    spec: ProblemSpec,
    n_elements: int | None = None,
    mesh: Mesh | None = None,
) -> SolveResult:
    """Solve ``spec`` on a uniform mesh (or a supplied one).

    Returns the discrete state, whose boundary values are pinned to zero,
    the active slope constraints as node indices, and fresh KKT residuals
    of the underlying QP.  PDAS starts from the bounds that the
    unconstrained solve violates.  When there are any, the solve goes down
    a chain of meshes to one element, each made of every other node of the
    one above and the last, and climbs back up: the coarsest starts cold
    and each finer one from the solution below (see :func:`_prolong`), so
    PDAS takes one or two iterations per level on most meshes; a level's
    active nodes are those with a positive multiplier.  A
    :class:`MatrixNotSpdError` on any level names its element count and
    element widths; a :class:`NonConvergenceError` on a coarser mesh names
    its element count and carries that mesh's iterate.  The finest level's
    KKT record, the solve's certificate, is computed before this returns;
    a coarse level's on its first read, by the :func:`kkt_residual` that
    this module's name held when the level was built.  Each level keeps
    its QP for that; a pickled level carries its record instead.

    The requested mesh is assembled alone, for the unconstrained solve;
    the coarse meshes are built first and then assembled together in one
    stacked pass (see :func:`_assemble_stack`), so ``y_d``, ``f`` and
    ``psi`` are called twice per solve with a chain and once without.  As
    in the error pass, which calls the exact bundle once on the points of
    every level, a coarse level's bits equal those of its own assembly only
    for data whose value at a point does not depend on the array around it.
    """
    if (n_elements is None) == (mesh is None):
        raise ValueError("pass exactly one of n_elements or mesh")
    if mesh is None:
        mesh = build_mesh(n_elements)
    level = mesh
    try:
        qp = assemble_system(spec, mesh).to_qp()
        meshes = [mesh]
        binds = _cold_start(qp).any()
        while binds and meshes[-1].n_elements > 1:
            meshes.append(Mesh(np.append(meshes[-1].nodes[:-1:2], 1.0)))
        coarse = _assemble_stack(spec, meshes[1:]) if len(meshes) > 1 else []
        chain = list(zip(meshes, [qp, *(system.to_qp() for system in coarse)]))
        levels = []
        for level, level_qp in reversed(chain):  # coarsest first
            active = _prolong(levels[-1], lam, level, level_qp.bounds) if levels else _cold_start(level_qp)
            qp_sol = solve_pdas(level_qp, active=active)
            lam = qp_sol.multipliers[level_qp.constrained]  # one per node: its slope DOF's multiplier
            levels.append(DiscreteSolution(
                qp_sol.x, level, qp_sol.iterations, active_nodes=tuple(np.flatnonzero(lam > 0).tolist()),
                kkt_source=functools.partial(kkt_residual, level_qp, qp_sol),
            ))
    except MatrixNotSpdError as exc:
        raise MatrixNotSpdError(
            f"{exc} (on the {level.n_elements}-element mesh of the warm-start chain, "
            f"element widths {level.h.min():.3g} to {level.h.max():.3g})"
        ) from exc
    except NonConvergenceError as exc:
        if level is mesh:
            raise
        raise NonConvergenceError(
            f"{exc} (on the {level.n_elements}-element coarse mesh of the warm start)", exc.last
        ) from exc
    levels[-1].kkt  # noqa: B018  (the finest record is computed now, as the solve's certificate)
    return SolveResult(qp, qp_sol, tuple(levels))
