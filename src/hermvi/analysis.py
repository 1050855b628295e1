"""Error norms against exact solutions, observed convergence rates, and
table rendering (markdown or CSV)."""

from __future__ import annotations

import functools
import io
import math
from dataclasses import InitVar, dataclass
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .mesh import DiscreteSolution, MeshStack, _element_evaluator, _gauss_points, _KktOnRead, build_mesh
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


@dataclass(frozen=True)
class ErrorReport(_KktOnRead):
    """Error norms of one discrete solve, with that level's KKT residuals.

    The record is :attr:`kkt`, read from ``kkt_source`` on first read and
    pickled as a value, as a :class:`DiscreteSolution`'s is, so a study
    whose records nobody reads computes none.  Reports compare by their
    size and norms, not by the record.
    """

    n_elements: int
    h: float
    l2: float
    linf: float
    h1: float
    h2: float
    control_l2: float
    kkt_source: InitVar[Callable[[], KktResidual | None] | None] = None

    NORM_FIELDS = ("l2", "linf", "h1", "h2", "control_l2")


def _level_errors(levels: Sequence[DiscreteSolution], spec: ProblemSpec) -> list[ErrorReport]:
    """Error reports of every level, from one pass over all their segments.

    Each level's elements are cut at ``spec.breakpoints``, and the segments
    of all levels are concatenated (:meth:`MeshStack.segments`), so every
    exact-bundle function and ``spec.f`` is called once per use, whatever
    the number of levels.  Each segment is evaluated on its own element
    (y_h'' at a node comes from the segment's side).  Squared norms are
    summed per level in segment order by ``bincount`` and maxima taken per
    level, so a level's report does not depend on the levels beside it.
    """
    ex = spec.exact
    stack = MeshStack([sol.mesh for sol in levels])
    element, lo, hi, segments = stack.segments(spec.breakpoints)
    element, lo, hi, nodes = element[:, None], lo[:, None], hi[:, None], stack.nodes
    h, at = _element_evaluator(nodes, np.concatenate([sol.coefficients for sol in levels]), element)
    left = nodes[element]

    def err(x, xi, k):  # k-th derivative of the error at x of shape (segment, point), of reference coordinate xi
        return at(xi, k) - (ex.y_bar, ex.p, ex.p_prime)[k](x)

    # integrated norms, one squared error at a time; the control error shares y_h'' and p' with H2
    xs, ws = _gauss_points(lo[:, 0], hi[:, 0], NORM_QUAD_POINTS)
    level_of = np.repeat(np.arange(len(levels)), [n * NORM_QUAD_POINTS for n in segments])

    def norm(e):  # per level, summed in segment order
        return np.sqrt(np.bincount(level_of, weights=(e * e * ws).ravel()))

    xi = (xs - left) / h
    y2, p2, f = at(xi, 2), ex.p_prime(xs), np.asarray(spec.f(xs), dtype=float)
    l2, h1, h2 = norm(err(xs, xi, 0)), norm(err(xs, xi, 1)), norm(y2 - p2)
    control = norm(-(y2 + f) + (p2 + f))

    # max norm: the best equispaced sample of each segment, refined by clamped Newton steps on e'
    x = lo + (hi - lo) * np.linspace(0.0, 1.0, LINF_SAMPLES_PER_ELEMENT + 1)
    seeded = np.abs(err(x, (x - left) / h, 0))
    x = np.take_along_axis(x, seeded.argmax(axis=1)[:, None], axis=1)
    for _ in range(_LINF_NEWTON_STEPS):
        xi = (x - left) / h
        curvature = err(x, xi, 2)
        step = np.divide(err(x, xi, 1), curvature, out=np.zeros_like(x), where=curvature != 0)
        x = np.clip(x - step, lo, hi)
    refined = np.abs(err(x, (x - left) / h, 0))[:, 0]
    linf = np.maximum.reduceat(np.maximum(seeded.max(axis=1), refined), np.cumsum([0] + segments[:-1]))
    return [
        ErrorReport(
            n_elements=sol.mesh.n_elements, h=sol.mesh.mesh_size,
            l2=float(l2[k]), linf=float(linf[k]), h1=float(h1[k]), h2=float(h2[k]),
            control_l2=float(control[k]), kkt_source=functools.partial(getattr, sol, "kkt"),
        )
        for k, sol in enumerate(levels)
    ]


def error_norms(sol: DiscreteSolution, spec: ProblemSpec) -> ErrorReport:
    """L2/max/H1/H2 errors of the state plus the L2 control error.

    Integrated norms use :data:`NORM_QUAD_POINTS`-point Gauss quadrature on
    every element segment split at ``spec.breakpoints``; the control error
    -(y_h'' + f) + (p' + f), against the state equation's exact control,
    comes from the same pass as the H2 error.  The max norm samples each
    of those segments at ``LINF_SAMPLES_PER_ELEMENT + 1`` equispaced points
    (ends included) and refines the segment's best sample by Newton steps
    on the error's slope, clamped into the segment, so it reads the local
    maximum instead of a grid value.  This is the one-level case of the
    pass that :func:`run_convergence_study` makes over all its levels at
    once, and gives the same report bit for bit.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution bundle")
    return _level_errors([sol], spec)[0]


def _rate(coarse: float, fine: float, h_ratio: float) -> float:
    return math.log(coarse / fine) / math.log(h_ratio) if coarse > 0 and fine > 0 else math.nan


@dataclass(frozen=True)
class ConvergenceReport:
    """Error reports of strictly refining levels (h decreasing) plus per-norm observed rates between
    them, computed on first read into a read-only mapping of tuples; a rate next to an error of exactly
    zero is not defined and reads ``nan``."""

    reports: tuple

    def __post_init__(self):
        object.__setattr__(self, "reports", tuple(self.reports))
        if any(b.h >= a.h for a, b in zip(self.reports[:-1], self.reports[1:])):
            raise ValueError("levels must be strictly refining (h decreasing)")

    def __getstate__(self):  # the cached rates do not pickle; they are derived again on read
        return {"reports": self.reports}

    @functools.cached_property
    def rates(self) -> MappingProxyType:
        return MappingProxyType({
            name: tuple(
                _rate(getattr(a, name), getattr(b, name), a.h / b.h)
                for a, b in zip(self.reports[:-1], self.reports[1:])
            )
            for name in ErrorReport.NORM_FIELDS
        })


def convergence_rates(reports: Sequence[ErrorReport]) -> ConvergenceReport:
    """Rates log(e_k / e_{k+1}) / log(h_k / h_{k+1}) between two or more levels."""
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("need at least two levels to compute rates")
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
    solve, and other counts keep one solve each.  The errors of all levels
    then come from one pass over all their element segments, so each
    exact-bundle function and ``spec.f`` is called as often for ten levels
    as for two; each level's report equals :func:`error_norms` on it.  Only
    the solves' finest records are computed here; a report computes its
    level's KKT record when it is read.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution bundle")
    counts = list(element_counts)
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
    return convergence_rates(_level_errors([solved[key] for key in keys], spec))


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
