"""The benchmark's three workloads.

Each workload builds its problem once (``build``), runs one closed-loop
operation per call (``op``) and checks that operation's output outside the
timed region (``check``).  Only ``unbound-fine`` draws from the seed; the
program receives the generated ``ProblemSpec`` and nothing else.

Why these three:

* ``paper-fine`` is bound by the active-set solver: 70 PDAS iterations
  make up about three quarters of the operation, so ``qp`` and the banded
  core show here.  1024 elements is the finest dyadic mesh that converges
  under the default ``max_iter=100``; at 2048 elements the solve raises
  ``NonConvergenceError`` (known defect, not hidden, not run).
* ``paper-study`` is the user's reproduce session through the CLI
  (``verify`` then ``convergence --levels 0..9``).  It is the only workload
  where ``analysis`` (error norms and the max-norm scan),
  ``problems.verify_continuous_kkt`` and ``cli`` carry weight.
* ``unbound-fine`` is bound by assembly: the obstacle never binds, PDAS
  stops after one iteration and energy/load assembly dominate.  An
  active-set change should not move it; an assembly change should.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np

import hermvi
import hermvi.cli

#: Scaled stationarity tolerance, ||Ax - b + lam||_inf / (||A||_inf ||x||_inf
#: + ||b||_inf).  A backward-stable double-precision solve stays near
#: 1e-16; the current long-double path reads about 2e-20.
KKT_SCALED_TOL = 1e-14

#: ``ref_err_max`` may not exceed the acceptance gate's 2%.
REF_ERR_GATE = 0.02

#: Node counts of the reference rows outside the acceptance gate.
FINE_REFERENCE_NODES = (257, 513)

#: Levels k (2^k elements) of the reproduce session.
STUDY_LEVELS = tuple(range(10))

_STATIONARITY_FLOOR = (
    "discrete stationarity grows like 1/h^3 (4.9e-10 at 1024 elements), so "
    "`hermvi verify --elements 1024` exits 1 on a correct solve; "
    "qp.kkt_stationarity_scaled keeps the floor visible"
)
_LONG_DOUBLE = "extra precision comes from np.longdouble, so residuals depend on the platform"

#: Known defects of the program that each workload runs into or sits next to.
KNOWN_DEFECTS = {
    "paper-fine": [
        "solve_problem(paper_example(), n_elements=2048) raises NonConvergenceError under "
        "the default max_iter=100: PDAS iterations grow linearly with n (70 at 1024)",
        _STATIONARITY_FLOOR,
        _LONG_DOUBLE,
    ],
    "paper-study": [
        "H1 error at the 257- and 513-node reference rows is 2.1% and 3.2% above the table; "
        "reported as analysis.ref_err_fine_max, never gated",
        _LONG_DOUBLE,
    ],
    "unbound-fine": [_STATIONARITY_FLOOR, _LONG_DOUBLE],
}

#: Reduced sizes used by ``--quick`` (the harness self-check).
QUICK = {"paper-fine": 256, "unbound-fine": 512, "paper-study": 8}


def load_reference(root: Path):
    """``(TABLE1, ACCEPTANCE_NODES)`` from the repository's frozen table."""
    path = root / "tests" / "table1_reference.py"
    spec = importlib.util.spec_from_file_location("table1_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TABLE1, tuple(module.ACCEPTANCE_NODES)


def reference_deviation(rows: dict, table: dict, nodes) -> float:
    """Worst relative deviation of (L2, Linf, H1, H2) from the table.

    ``rows`` maps node count to the four computed norms.  A node count
    missing from ``rows`` is an error: the deviation would be undefined.
    """
    worst = 0.0
    for n in nodes:
        for got, ref in zip(rows[n], table[n]):
            worst = max(worst, abs(got / ref - 1.0))
    return worst


def scaled_stationarity(qp, x, multipliers) -> tuple[float, float]:
    """Absolute and scaled stationarity ||Ax - b + lam||_inf of a QP solve.

    The scale ||A||_inf ||x||_inf + ||b||_inf makes the residual comparable
    across meshes, where ||A|| grows like 1/h^3.
    """
    a = qp.a
    hbw = a.half_bandwidth
    row_sums = np.zeros(a.dim)
    for d in range(-hbw, hbw + 1):
        j0, j1 = max(0, -d), min(a.dim, a.dim - d)
        row_sums[j0 + d : j1 + d] += np.abs(a.data[hbw + d, j0:j1])
    r = a.matvec(x) - qp.b + multipliers
    absolute = float(np.max(np.abs(r)))
    scale = float(row_sums.max()) * float(np.max(np.abs(x))) + float(np.max(np.abs(qp.b)))
    return absolute, absolute / scale


class Context:
    """What operations and checks share: a scratch directory and the table."""

    def __init__(self, tmp_dir: Path, table: dict, acceptance: tuple):
        self.tmp_dir = tmp_dir
        self.table = table
        self.acceptance = acceptance

    def reference_errors(self, rows: dict) -> dict:
        """Deviations at the acceptance rows and at the fine rows present."""
        fine = [n for n in FINE_REFERENCE_NODES if n in rows]
        return {
            "ref_err_max": reference_deviation(rows, self.table, self.acceptance),
            "ref_err_fine_max": reference_deviation(rows, self.table, fine),
        }

    def reference_study(self, quick: bool) -> dict:
        """Reference errors from ``run_convergence_study`` over the table rows.

        Gives ``paper-fine`` and ``unbound-fine`` the same accuracy anchor
        that ``paper-study`` reads from its CLI report; run untimed.
        """
        nodes = [n for n in (*self.acceptance, *FINE_REFERENCE_NODES) if not quick or n <= 257]
        study = hermvi.run_convergence_study(hermvi.paper_example(), [n - 1 for n in nodes])
        rows = {r.n_elements + 1: (r.l2, r.linf, r.h1, r.h2) for r in study.reports}
        return self.reference_errors(rows)


def _contact_nodes(nodes: np.ndarray) -> tuple:
    """Node indices in {-1} union [1/3, 1], the exact contact set."""
    return tuple(int(i) for i, x in enumerate(nodes) if x == -1.0 or x >= 1.0 / 3.0)


class SolveWorkload:
    """One ``solve_problem`` call per operation on a fixed mesh."""

    def __init__(self, n_elements: int):
        self.n_elements = n_elements

    def op(self, spec, ctx):
        return hermvi.solve_problem(spec, n_elements=self.n_elements)

    def expected_active(self, result) -> tuple:
        raise NotImplementedError

    def check(self, spec, result, ctx):
        failures = []
        active = result.solution.active_nodes
        if active != self.expected_active(result):
            failures.append(f"active nodes differ from the expected set ({len(active)} active)")
        stat, scaled = scaled_stationarity(
            result.qp, result.qp_solution.x, result.qp_solution.multipliers
        )
        if not scaled <= KKT_SCALED_TOL:
            failures.append(f"scaled stationarity {scaled:.3e} above {KKT_SCALED_TOL:.0e}")
        info = {
            "kkt_stationarity": stat,
            "kkt_stationarity_scaled": scaled,
            "active_nodes": len(active),
            "pdas_iterations": result.solution.iterations,
            "reduced_dofs": result.qp.dim,
        }
        return failures, info


class PaperFine(SolveWorkload):
    def build(self, seed: int):
        return hermvi.paper_example()

    def expected_active(self, result) -> tuple:
        return _contact_nodes(result.solution.mesh.nodes)


class UnboundFine(SolveWorkload):
    """Seeded smooth data with an obstacle far above any slope."""

    #: Fourier modes per data function.
    MODES = 4
    #: Constant obstacle; slopes of this data stay below about 20.
    PSI = 1.0e3

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        k = np.arange(1, self.MODES + 1)
        a, b, c, d = (rng.normal(size=self.MODES) for _ in range(4))

        def y_d(x):
            t = np.pi * np.multiply.outer(np.asarray(x, dtype=float), k)
            return np.sin(0.5 * (t + np.pi * k)) @ a + np.cos(t) @ b

        def f(x):
            t = np.pi * np.multiply.outer(np.asarray(x, dtype=float), k)
            return np.cos(0.5 * t) @ c + np.sin(t) @ d

        def psi(x):
            return np.full_like(np.asarray(x, dtype=float), self.PSI)

        return hermvi.ProblemSpec(name=f"unbound-seed{seed}", beta=1.0, f=f, psi=psi, y_d=y_d)

    def expected_active(self, result) -> tuple:
        return ()


class PaperStudy:
    """``hermvi verify`` then ``hermvi convergence``, in-process."""

    def __init__(self, levels):
        self.levels = tuple(levels)

    def build(self, seed: int):
        return hermvi.cli.get_problem("paper")

    def op(self, spec, ctx):
        report = ctx.tmp_dir / "report.md"
        report.unlink(missing_ok=True)
        verify_out = io.StringIO()
        with contextlib.redirect_stdout(verify_out):
            verify_rc = hermvi.cli.main(["verify", "--problem", "paper"])
        conv_rc = hermvi.cli.main([
            "convergence", "--problem", "paper",
            "--levels", *map(str, self.levels), "--output", str(report),
        ])
        return verify_rc, verify_out.getvalue(), conv_rc, report

    def check(self, spec, output, ctx):
        verify_rc, verify_text, conv_rc, report = output
        failures = []
        if verify_rc != 0 or "FAIL" in verify_text:
            failures.append(f"verify exited {verify_rc}")
        if conv_rc != 0 or not report.is_file():
            failures.append(f"convergence exited {conv_rc}")
            return failures, {}
        rows = parse_report(report.read_text(encoding="utf-8"))
        expected_nodes = {2**k + 1 for k in self.levels}
        if set(rows) != expected_nodes:
            failures.append(f"report has rows {sorted(rows)}, expected {sorted(expected_nodes)}")
            return failures, {}
        info = ctx.reference_errors(rows)
        if not info["ref_err_max"] <= REF_ERR_GATE:
            failures.append(f"ref_err_max {info['ref_err_max']:.3%} above {REF_ERR_GATE:.0%}")
        return failures, info


def parse_report(text: str) -> dict:
    """Markdown convergence table -> {nodes: (L2, Linf, H1, H2)}."""
    rows = {}
    for line in text.splitlines()[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        rows[int(cells[0])] = tuple(float(c) for c in cells[1:5])
    return rows


def make_workloads(quick: bool = False) -> dict:
    """Workloads by name; ``quick`` shrinks each to a self-check size."""
    fine = QUICK["paper-fine"] if quick else 1024
    unbound = QUICK["unbound-fine"] if quick else 4096
    levels = range(QUICK["paper-study"] + 1) if quick else STUDY_LEVELS
    return {
        "paper-fine": PaperFine(fine),
        "paper-study": PaperStudy(levels),
        "unbound-fine": UnboundFine(unbound),
    }
