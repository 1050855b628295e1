import csv
import io
import math

import numpy as np
import pytest

import hermvi as hv
from hermvi.solver import assemble_system

from conftest import nonuniform_mesh
from table1_reference import TABLE1


def synthetic_report(n, errs):
    return hv.ErrorReport(
        n_elements=n, h=2.0 / n,
        l2=errs, linf=errs, h1=errs, h2=errs, control_l2=errs,
    )


# ---------------------------------------------------------------- error_norms

def test_interpolant_errors_are_interpolation_errors(paper, solve_cache):
    # the interpolant's error is concentrated at the kink element, so it sits
    # below the solver error at the same level (qualitative ordering)
    mesh = hv.build_mesh(16)
    interp = hv.hermite_interpolant(paper.exact.y_bar, paper.exact.p, mesh)
    rep_interp = hv.error_norms(interp, paper)
    rep_solve = hv.error_norms(solve_cache(16).solution, paper)
    assert rep_interp.h1 < rep_solve.h1
    assert rep_interp.l2 < rep_solve.l2


def test_interpolant_error_on_kink_aligned_mesh(paper):
    # the exact state is piecewise cubic with its only kink at 1/3; on a mesh
    # with a node there the interpolant reproduces it to rounding, while a
    # mesh whose elements straddle the kink has a genuinely positive error
    aligned = hv.hermite_interpolant(paper.exact.y_bar, paper.exact.p, hv.build_mesh(3))
    rep = hv.error_norms(aligned, paper)
    assert rep.h2 <= 1e-12
    straddling = hv.hermite_interpolant(paper.exact.y_bar, paper.exact.p, hv.build_mesh(4))
    rep = hv.error_norms(straddling, paper)
    assert rep.h2 > 1e-2


def dense_scan(sol, spec, samples=1000):
    """The former max norm, |y_h - y_bar| on ``samples`` equispaced intervals
    per element, and the most such a grid can read below the true maximum:
    max|e''| (h / samples)^2 / 8, from a Taylor expansion at the maximum."""
    mesh = sol.mesh
    offsets = np.linspace(0.0, 1.0, samples + 1)
    xs = (mesh.nodes[:-1, None] + mesh.h[:, None] * offsets[None, :]).ravel()
    scan = np.max(np.abs(hv.evaluate(sol, xs, 0) - spec.exact.y_bar(xs)))
    curvature = np.max(np.abs(hv.evaluate(sol, xs, 2) - spec.exact.p_prime(xs)))
    return scan, curvature * (mesh.mesh_size / samples) ** 2 / 8


def interpolant(spec, n):
    return hv.hermite_interpolant(spec.exact.y_bar, spec.exact.p, hv.build_mesh(n))


MAX_NORM_CASES = {
    **{f"solve-{2**k}": lambda spec, solve, n=2**k: solve(n).solution for k in range(11)},
    "kink-aligned-interpolant-3": lambda spec, solve: interpolant(spec, 3),
    "straddling-interpolant-4": lambda spec, solve: interpolant(spec, 4),
    "solve-nonuniform-seed7": lambda spec, solve: hv.solve_problem(
        spec, mesh=nonuniform_mesh(7, 37)).solution,
}

#: Rounding of |y_h - y_bar| for values of order one; the kink-aligned
#: interpolant's error is this rounding alone.
ROUNDING = 1e-15


@pytest.mark.parametrize("case", MAX_NORM_CASES)
def test_max_norm_search_never_reads_below_the_dense_scan(paper, solve_cache, case):
    sol = MAX_NORM_CASES[case](paper, solve_cache)
    scan, scan_miss = dense_scan(sol, paper)
    linf = hv.error_norms(sol, paper).linf
    assert linf >= scan * (1.0 - 1e-9) - ROUNDING
    assert linf <= scan + scan_miss + ROUNDING


def test_max_norm_reads_a_kink_inside_an_element():
    # y_bar = 1 - |x - 0.3| peaks at its slope jump 0.3, inside the element
    # [0, 0.5] of a 4-element mesh: the samples of the unsplit element miss
    # it (best 0.9875) and Newton steps see a zero curvature, so only the
    # cut at the exact breakpoint reads the maximum 1
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    exact = hv.ExactBundle(
        y_bar=lambda x: 1.0 - np.abs(x - 0.3), p=lambda x: -np.sign(x - 0.3),
        p_prime=zero, p_dprime=zero, u_bar=zero, phi=zero, f_prime=zero,
        lam=0.0, rho=zero, gamma=0.0, zeta=0.0, breakpoints=(0.3,),
    )
    spec = hv.ProblemSpec("kink", 1.0, f=zero, psi=lambda x: zero(x) + 1.0, y_d=zero, exact=exact)
    mesh = hv.build_mesh(4)
    sol = hv.DiscreteSolution(np.zeros(2 * mesh.n_nodes), mesh)
    assert hv.error_norms(sol, spec).linf == pytest.approx(1.0, abs=ROUNDING)


def test_curvature_error_matches_reference_level(solve_cache, paper):
    rep = hv.error_norms(solve_cache(16).solution, paper)
    assert rep.h2 == pytest.approx(TABLE1[17][3], rel=2e-2)


def test_error_norms_need_exact_bundle():
    smoke = hv.unconstrained_smoke()
    sol = hv.solve_problem(smoke, n_elements=4).solution
    with pytest.raises(ValueError):
        hv.error_norms(sol, smoke)


# --------------------------------------------------------------- control error

def test_control_error_zero_for_exact_input(paper):
    aligned = hv.hermite_interpolant(paper.exact.y_bar, paper.exact.p, hv.build_mesh(3))
    assert hv.error_norms(aligned, paper).control_l2 <= 1e-10


def test_control_error_equals_curvature_seminorm(solve_cache, paper):
    for n in (4, 9, 16):
        rep = hv.error_norms(solve_cache(n).solution, paper)
        assert abs(rep.control_l2 - rep.h2) <= 1e-12


def test_control_error_fine_level_reference(paper):
    result = hv.solve_problem(paper, n_elements=512)
    val = hv.error_norms(result.solution, paper).control_l2
    assert val == pytest.approx(TABLE1[513][3], rel=2e-2)


# ----------------------------------------------------------- convergence_rates

def test_rates_of_synthetic_first_order_errors():
    reports = [synthetic_report(n, 2.0 / n) for n in (2, 4, 8, 16)]
    conv = hv.convergence_rates(reports)
    for rates in conv.rates.values():
        assert rates == pytest.approx([1.0, 1.0, 1.0], abs=1e-13)


def test_rates_from_published_reference_values():
    # arithmetic on the frozen reference errors: the last refinement halves h
    h2_rate = math.log(TABLE1[257][3] / TABLE1[513][3]) / math.log(2.0)
    l2_rate = math.log(TABLE1[257][0] / TABLE1[513][0]) / math.log(2.0)
    assert h2_rate == pytest.approx(1.00, abs=0.02)
    assert l2_rate == pytest.approx(1.96, abs=0.02)


def test_rates_reject_non_refining_levels():
    reports = [synthetic_report(4, 0.1), synthetic_report(2, 0.2)]
    with pytest.raises(ValueError):
        hv.convergence_rates(reports)
    with pytest.raises(ValueError):
        hv.convergence_rates(reports[:1])


@pytest.mark.parametrize("counts", [[8, 4], [4, 4], [4]], ids=["decreasing", "duplicate", "single"])
def test_convergence_study_validates_before_solving(paper, monkeypatch, counts):
    calls = []
    monkeypatch.setattr(hv.analysis, "solve_problem", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError):
        hv.run_convergence_study(paper, counts)
    assert calls == []


def record_assembled_sizes(monkeypatch):
    sizes = []

    def counting(spec, mesh, **kwargs):
        sizes.append(mesh.n_elements)
        return assemble_system(spec, mesh, **kwargs)

    monkeypatch.setattr("hermvi.solver.assemble_system", counting)
    return sizes


def test_study_solves_one_chain(paper, monkeypatch):
    sizes = record_assembled_sizes(monkeypatch)
    hv.run_convergence_study(paper, [2**k for k in range(10)])
    assert sorted(sizes) == [2**k for k in range(10)]
    # 6 brings its chain 6 -> 3 along; 5 is not in it and gets its own solve
    sizes.clear()
    study = hv.run_convergence_study(paper, [3, 5, 6])
    assert sizes == [6, 3, 5]
    assert study.reports[0] == hv.error_norms(hv.solve_problem(paper, 3).solution, paper)


def test_study_levels_equal_their_own_solves(paper, solve_cache):
    counts = [2**k for k in range(2, 10)]
    study = hv.run_convergence_study(paper, counts)
    chain = {level.mesh.n_elements: level for level in hv.solve_problem(paper, counts[-1]).levels}
    assert sorted(chain) == [2**k for k in range(10)]
    for n, report in zip(counts, study.reports):
        own = solve_cache(n).solution
        assert chain[n].active_nodes == own.active_nodes
        assert np.array_equal(chain[n].coefficients, own.coefficients)
        assert chain[n].iterations == own.iterations and chain[n].kkt == own.kkt
        assert report == hv.error_norms(own, paper)


def test_rates_from_129_to_8193_nodes(paper):
    study = hv.run_convergence_study(paper, [2**k for k in range(7, 14)])
    for name in ("l2", "linf", "h1"):
        assert all(1.9 <= rate <= 2.1 for rate in study.rates[name]), name
    assert all(0.95 <= rate <= 1.05 for rate in study.rates["h2"])


# --------------------------------------------------------------- render_report

def test_render_empty_report_header_only():
    out = hv.render_report(hv.ConvergenceReport(reports=[]), format="csv")
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("nodes,L2,Linf,H1,H2,control_L2")


def test_render_single_level_has_no_rates():
    out = hv.render_report(hv.ConvergenceReport(reports=[synthetic_report(4, 0.5)]), format="csv")
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "5"
    assert all(cell == "" for cell in row[6:])


def test_render_two_levels_roundtrips_through_csv():
    reports = [synthetic_report(4, 0.5), synthetic_report(8, 0.25)]
    out = hv.render_report(hv.convergence_rates(reports), format="csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    rates = [float(cell) for cell in rows[2][6:]]
    assert rates == pytest.approx([1.0] * 5)


def test_render_markdown_shape():
    reports = [synthetic_report(4, 0.5), synthetic_report(8, 0.25)]
    out = hv.render_report(hv.convergence_rates(reports), format="markdown")
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert lines[0].startswith("| nodes")


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        hv.render_report(hv.ConvergenceReport(reports=[]), format="html")


# ------------------------------------------------------------------ invariants

def test_norm_columns_strictly_decreasing(study):
    for name in hv.ErrorReport.NORM_FIELDS:
        values = [getattr(rep, name) for rep in study.reports]
        assert all(b < a for a, b in zip(values[:-1], values[1:])), name


def test_rate_windows(study):
    assert np.mean(study.rates["h2"][-3:]) == pytest.approx(1.0, abs=0.1)
    for name in ("l2", "linf", "h1"):
        assert np.mean(study.rates[name][-3:]) == pytest.approx(2.0, abs=0.2)


def test_identity_control_equals_curvature_on_every_level(study):
    for rep in study.reports:
        assert abs(rep.control_l2 - rep.h2) <= 1e-12
