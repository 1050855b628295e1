"""Solver for a one-dimensional optimal control problem with pointwise
bounds on the state's slope, discretized with C1 cubic Hermite elements and
solved as a bound-constrained quadratic program."""

from .analysis import (
    ConvergenceReport,
    ErrorReport,
    convergence_rates,
    error_norms,
    render_report,
    run_convergence_study,
)
from .assembly import (
    AssembledSystem,
    MatrixNotSpdError,
    SymmetricBandedMatrix,
    apply_dirichlet,
    assemble_energy,
    assemble_load,
    constraint_bounds,
)
from .mesh import (
    DiscreteSolution,
    Mesh,
    build_mesh,
    composite_integral,
    evaluate,
    evaluate_element,
    gauss_rule,
    hermite_interpolant,
    reference_shape,
)
from .problems import (
    ExactBundle,
    ProblemSpec,
    exact_control,
    exact_state,
    exact_state_deriv,
    get_problem,
    paper_example,
    unconstrained_smoke,
    verify_continuous_kkt,
    with_obstacle,
)
from .qp import (
    BoundQp,
    KktResidual,
    NonConvergenceError,
    QpSolution,
    kkt_residual,
    solve_pdas,
)
from .solver import SolveResult, assemble_system, solve_problem

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "BoundQp",
    "ConvergenceReport",
    "DiscreteSolution",
    "ErrorReport",
    "ExactBundle",
    "KktResidual",
    "MatrixNotSpdError",
    "Mesh",
    "NonConvergenceError",
    "ProblemSpec",
    "QpSolution",
    "SolveResult",
    "SymmetricBandedMatrix",
    "apply_dirichlet",
    "assemble_energy",
    "assemble_load",
    "assemble_system",
    "build_mesh",
    "composite_integral",
    "constraint_bounds",
    "convergence_rates",
    "error_norms",
    "evaluate",
    "evaluate_element",
    "exact_control",
    "exact_state",
    "exact_state_deriv",
    "gauss_rule",
    "get_problem",
    "hermite_interpolant",
    "kkt_residual",
    "paper_example",
    "reference_shape",
    "render_report",
    "run_convergence_study",
    "solve_pdas",
    "solve_problem",
    "unconstrained_smoke",
    "verify_continuous_kkt",
    "with_obstacle",
]
