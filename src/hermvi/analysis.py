"""Error norms against exact solutions, observed convergence rates, and
table rendering (markdown or CSV)."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mesh import DiscreteSolution, _cut, _element_evaluator, build_mesh, segment_quadrature
from .mesh import evaluate  # noqa: F401  (no caller here; hermbench traces analysis.evaluate)
from .problems import ProblemSpec
from .qp import KktResidual
from .solver import solve_problem

#: Gauss points per (split) element segment for the integrated norms.
NORM_QUAD_POINTS = 8

#: Equispaced sample intervals per split element segment seeding the max norm.
LINF_SAMPLES_PER_ELEMENT = 8

#: Newton steps on the error's slope from each segment's best sample.
_LINF_NEWTON_STEPS = 3


@dataclass
class ErrorReport:
    """Error norms of one discrete solve, with that level's KKT residuals."""

    n_elements: int
    h: float
    l2: float
    linf: float
    h1: float
    h2: float
    control_l2: float
    kkt: KktResidual | None = None

    NORM_FIELDS = ("l2", "linf", "h1", "h2", "control_l2")


def _norm_pass(sol: DiscreteSolution, spec: ProblemSpec):
    """One quadrature sweep accumulating all squared error norms."""
    ex = spec.exact
    element, xs, xi, ws = segment_quadrature(sol.mesh, spec.breakpoints, NORM_QUAD_POINTS)
    _, at = _element_evaluator(sol, element)
    y0, y1, y2 = (at(xi, k) for k in range(3))
    du = -(y2 + np.asarray(spec.f(xs), dtype=float)) - ex.u_bar(xs)
    d = np.stack([y0 - ex.y_bar(xs), y1 - ex.p(xs), y2 - ex.p_prime(xs), du])
    return np.sqrt((d * d) @ ws)  # l2, h1, h2, control


def _max_error(sol: DiscreteSolution, spec: ProblemSpec) -> float:
    """max |y_h - y_bar| over samples of every split segment and Newton steps on e' = y_h' - p.

    Each segment is evaluated on its own element (so y_h'' at a node comes
    from the segment's side), and its Newton iterates are clamped into it.
    """
    ex, mesh = spec.exact, sol.mesh
    edges = _cut(mesh.nodes, spec.breakpoints)
    element = mesh.element_of(edges[:-1])[:, None]
    lo, hi, left = edges[:-1, None], edges[1:, None], mesh.nodes[element]
    h, at = _element_evaluator(sol, element)

    def err(x, k):  # k-th derivative of the error at x of shape (segment, point)
        return at((x - left) / h, k) - (ex.y_bar, ex.p, ex.p_prime)[k](x)

    x = lo + (hi - lo) * np.linspace(0.0, 1.0, LINF_SAMPLES_PER_ELEMENT + 1)
    seeded = np.abs(err(x, 0))
    x = np.take_along_axis(x, seeded.argmax(axis=1)[:, None], axis=1)
    for _ in range(_LINF_NEWTON_STEPS):
        curvature = err(x, 2)
        step = np.divide(err(x, 1), curvature, out=np.zeros_like(x), where=curvature != 0)
        x = np.clip(x - step, lo, hi)
    return float(max(seeded.max(), np.abs(err(x, 0)).max()))


def error_norms(sol: DiscreteSolution, spec: ProblemSpec) -> ErrorReport:
    """L2/max/H1/H2 errors of the state plus the L2 control error.

    Integrated norms use :data:`NORM_QUAD_POINTS`-point Gauss quadrature on
    every element segment split at ``spec.breakpoints``; the control error
    -(y_h'' + f) - u_bar comes from the same pass as the H2 error.  The max norm samples each of those split
    segments at ``LINF_SAMPLES_PER_ELEMENT + 1`` equispaced points (ends
    included) and refines the segment's best sample by Newton steps on the
    error's slope, so it reads the local maximum instead of a grid value.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution bundle")
    l2, h1, h2, control = _norm_pass(sol, spec)
    mesh = sol.mesh
    return ErrorReport(
        n_elements=mesh.n_elements,
        h=mesh.mesh_size,
        l2=float(l2),
        linf=_max_error(sol, spec),
        h1=float(h1),
        h2=float(h2),
        control_l2=float(control),
        kkt=sol.kkt,
    )


@dataclass
class ConvergenceReport:
    """Ordered error reports plus per-norm observed rates between levels."""

    reports: list
    rates: dict = field(init=False)

    def __post_init__(self):
        self.rates = {
            name: [
                math.log(getattr(a, name) / getattr(b, name)) / math.log(a.h / b.h)
                for a, b in zip(self.reports[:-1], self.reports[1:])
            ]
            for name in ErrorReport.NORM_FIELDS
        }


def convergence_rates(reports: Sequence[ErrorReport]) -> ConvergenceReport:
    """Rates log(e_k / e_{k+1}) / log(h_k / h_{k+1}) between levels."""
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("need at least two levels to compute rates")
    hs = [r.h for r in reports]
    if any(b >= a for a, b in zip(hs[:-1], hs[1:])):
        raise ValueError("levels must be strictly refining (h decreasing)")
    return ConvergenceReport(reports=reports)


def run_convergence_study(
    spec: ProblemSpec,
    element_counts: Sequence[int],
) -> ConvergenceReport:
    """Solve each level and collect error norms and rates.

    The exact bundle and the counts are checked before anything is solved:
    at least two counts, strictly increasing (so no duplicates).  They are
    then walked from the largest down, and ``solve_problem`` runs only for a
    count whose uniform mesh, matched node for node, no earlier solve's
    warm-start chain (``SolveResult.levels``) holds; a dyadic study is one
    solve, and other counts keep one solve each.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution bundle")
    counts = [int(n) for n in element_counts]
    if len(counts) < 2:
        raise ValueError("a convergence study needs at least two levels")
    if any(b <= a for a, b in zip(counts[:-1], counts[1:])):
        raise ValueError(f"element counts must strictly increase, without duplicates, got {counts}")
    keys = [build_mesh(n).nodes.tobytes() for n in counts]
    solved = {}
    for n, key in zip(reversed(counts), reversed(keys)):
        if key not in solved:
            result = solve_problem(spec, n_elements=n)
            solved.update((level.mesh.nodes.tobytes(), level) for level in result.levels)
    return convergence_rates([error_norms(solved[key], spec) for key in keys])


_COLUMNS = (
    ("nodes", None),
    ("L2", "l2"),
    ("Linf", "linf"),
    ("H1", "h1"),
    ("H2", "h2"),
    ("control_L2", "control_l2"),
)


def _table_cells(report: ConvergenceReport) -> tuple[list, list]:
    header = [name for name, _ in _COLUMNS]
    header += [f"rate_{name}" for name, attr in _COLUMNS if attr]
    rows = []
    for k, rep in enumerate(report.reports):
        row = [str(rep.n_elements + 1)]
        row += [f"{getattr(rep, attr):.6e}" for _, attr in _COLUMNS[1:]]
        for _, attr in _COLUMNS[1:]:
            row.append(f"{report.rates[attr][k - 1]:.2f}" if k > 0 else "")
        rows.append(row)
    return header, rows


def render_report(report: ConvergenceReport, format: str = "markdown") -> str:
    """Render the study as a GitHub pipe table or CSV text.

    The mesh column lists the node count of each level; norms use
    scientific notation with six decimals.
    """
    header, rows = _table_cells(report)
    if format in ("markdown", "md"):
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        def fmt(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        lines = [fmt(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        lines += [fmt(r) for r in rows]
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for r in rows:
            buf.write(",".join(r) + "\n")
        return buf.getvalue()
    raise ValueError(f"unknown report format {format!r} (expected markdown, md or csv)")
