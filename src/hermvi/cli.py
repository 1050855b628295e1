"""Command-line interface: solve one mesh, run a convergence study, or
verify optimality conditions.

Reports go to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 invalid configuration (an unwritable
--output too), 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .analysis import render_report, run_convergence_study
from .mesh import evaluate
from .problems import CheckResult, KktVerificationReport, get_problem, verify_continuous_kkt
from .qp import NonConvergenceError, kkt_residual  # noqa: F401  (tracer target (hermvi.cli, "kkt_residual"))
from .solver import solve_problem

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

#: Discrete KKT tolerances used by the verify subcommand; stationarity is
#: judged scaled, since its absolute floor grows like 1/h^3.
KKT_TOLERANCES = {
    "stationarity": 1e-14,
    "primal_violation": 1e-10,
    "min_multiplier": -1e-12,
    "complementarity": 1e-10,
}

SAMPLES_PER_ELEMENT = 20


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _load_problem(args):
    spec = get_problem(args.problem)
    tamper = getattr(args, "tamper_lambda", None)
    if tamper is not None:
        if spec.exact is None:
            raise KeyError("--tamper-lambda needs a problem with exact data")
        spec = dataclasses.replace(
            spec, exact=dataclasses.replace(spec.exact, lam=float(tamper))
        )
    return spec


def _emit(text: str, output):
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror}") from exc


def cmd_solve(args, spec) -> int:
    sol = solve_problem(spec, n_elements=args.elements).solution
    mesh = sol.mesh
    offsets = np.linspace(0.0, 1.0, SAMPLES_PER_ELEMENT, endpoint=False)
    xs = np.append((mesh.nodes[:-1, None] + mesh.h[:, None] * offsets[None, :]).ravel(), 1.0)
    ys = evaluate(sol, xs, 0)
    dys = evaluate(sol, xs, 1)
    d2ys = evaluate(sol, xs, 2)
    us = -(d2ys + np.asarray(spec.f(xs), dtype=float))
    rows = np.column_stack([xs, ys, dys, d2ys, us])
    samples = ("%.12e,%.12e,%.12e,%.12e,%.12e\n" * len(rows)) % tuple(rows.ravel().tolist())
    _emit("x,y,dy,d2y,u\n" + samples, args.output)
    kkt = sol.kkt
    print(f"elements: {mesh.n_elements}  pdas iterations: {sol.iterations}", file=sys.stderr)
    print(f"active nodes: {list(sol.active_nodes)}", file=sys.stderr)
    print(
        "kkt residuals: "
        f"stationarity={kkt.stationarity:.3e} primal={kkt.primal_violation:.3e} "
        f"min_multiplier={kkt.min_multiplier:.3e} complementarity={kkt.complementarity:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_convergence(args, spec) -> int:
    if (args.levels is None) == (args.elements is None):
        return _fail("pass exactly one of --levels or --elements")
    if args.levels is not None:
        if any(k < 0 for k in args.levels):
            return _fail("levels must be nonnegative")
        counts = [2**k for k in args.levels]
    else:
        counts = args.elements
    report = run_convergence_study(spec, counts)
    _emit(render_report(report, format=args.format), args.output)
    return EXIT_OK


def cmd_verify(args, spec) -> int:
    if spec.exact is None and args.elements is None:
        return _fail("problem has no exact data; pass --elements for a discrete check")
    checks = verify_continuous_kkt(spec).checks if spec.exact is not None else []
    if args.elements is not None:
        kkt = solve_problem(spec, n_elements=args.elements).solution.kkt
        tol, at = KKT_TOLERANCES, f"at {args.elements} elements"
        checks += [
            CheckResult(f"discrete stationarity {at}", kkt.stationarity_scaled <= tol["stationarity"],
                        kkt.stationarity_scaled, tol["stationarity"], note=f"absolute {kkt.stationarity:.3e}"),
            CheckResult(f"discrete primal feasibility {at}", kkt.primal_violation <= tol["primal_violation"],
                        kkt.primal_violation, tol["primal_violation"]),
            CheckResult(f"discrete dual feasibility {at}", kkt.min_multiplier >= tol["min_multiplier"],
                        kkt.min_multiplier, tol["min_multiplier"]),
            CheckResult(f"discrete complementarity {at}", kkt.complementarity <= tol["complementarity"],
                        kkt.complementarity, tol["complementarity"]),
        ]
    report = KktVerificationReport(checks)
    _emit("".join(line + "\n" for line in report.lines()), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermvi",
        description=(
            "Solve the slope-constrained optimal control problem on [-1, 1] "
            "with C1 cubic Hermite finite elements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", required=True, help="registered problem name")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p_solve = sub.add_parser("solve", help="solve one mesh and dump solution samples as CSV")
    add_common(p_solve)
    p_solve.add_argument("--elements", type=int, required=True, help="element count")
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("convergence", help="run a mesh refinement study")
    add_common(p_conv)
    p_conv.add_argument("--levels", type=int, nargs="+", default=None,
                        help="level indices k; level k has 2^k elements (1+2^k nodes)")
    p_conv.add_argument("--elements", type=int, nargs="+", default=None,
                        help="explicit element counts instead of --levels")
    p_conv.add_argument("--format", choices=("md", "markdown", "csv"), default="md")
    p_conv.set_defaults(func=cmd_convergence)

    p_verify = sub.add_parser("verify", help="check continuous and/or discrete optimality conditions")
    add_common(p_verify)
    p_verify.add_argument("--elements", type=int, default=None,
                          help="also run the discrete KKT check at this element count")
    p_verify.add_argument("--tamper-lambda", type=float, default=None, dest="tamper_lambda",
                          help="debug: override the exact multiplier before verifying")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _load_problem(args)
    except KeyError as exc:
        return _fail(exc.args[0])
    try:
        return args.func(args, spec)
    except NonConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
