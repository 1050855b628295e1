"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

import hermvi as hv

from conftest import random_bound_qp
from oracles import solve_bruteforce
from table1_reference import ACCEPTANCE_NODES, TABLE1


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_reference_table_reproduction(study):
    worst = 0.0
    for rep in study.reports:
        ref = TABLE1[rep.n_elements + 1]
        for k, name in enumerate(("l2", "linf", "h1", "h2")):
            rel = abs(getattr(rep, name) - ref[k]) / ref[k]
            worst = max(worst, rel)
    report(
        "criterion 1: error norms match the reference table within 2% "
        f"(nodes {ACCEPTANCE_NODES[0]}..{ACCEPTANCE_NODES[-1]})",
        worst <= 0.02,
        f"worst relative deviation {worst:.2e}",
    )


def test_criterion_2_observed_rates(study):
    h2_mean = float(np.mean(study.rates["h2"][-3:]))
    ok = 0.9 <= h2_mean <= 1.1
    others = {}
    for name in ("h1", "l2", "linf"):
        mean = float(np.mean(study.rates[name][-3:]))
        others[name] = mean
        ok &= 1.8 <= mean <= 2.2
    report(
        "criterion 2: curvature rate ~1, lower-order norm rates ~2",
        ok,
        f"h2 {h2_mean:.3f}; " + ", ".join(f"{k} {v:.3f}" for k, v in others.items()),
    )


def test_criterion_3_control_estimate_sharpness(study):
    identity_worst = max(abs(rep.control_l2 - rep.h2) for rep in study.reports)
    rate_mean = float(np.mean(study.rates["control_l2"][-3:]))
    ok = identity_worst <= 1e-12 and 0.9 <= rate_mean <= 1.1
    report(
        "criterion 3: control error equals the curvature seminorm error and "
        "converges at first order",
        ok,
        f"identity gap {identity_worst:.2e}, mean rate {rate_mean:.3f}",
    )


def test_criterion_4_oracle_equivalence(paper, rng):
    worst = 0.0
    for n in (2, 3, 5):
        qp = hv.assemble_system(paper, hv.build_mesh(n)).to_qp()
        x_pdas = np.asarray(hv.solve_pdas(qp).x, dtype=float)
        x_bf = np.asarray(solve_bruteforce(qp).x, dtype=float)
        worst = max(worst, float(np.max(np.abs(x_pdas - x_bf))))
    for _ in range(50):
        qp = random_bound_qp(rng)
        x_pdas = np.asarray(hv.solve_pdas(qp).x, dtype=float)
        x_bf = np.asarray(solve_bruteforce(qp).x, dtype=float)
        worst = max(worst, float(np.max(np.abs(x_pdas - x_bf))))
    report(
        "criterion 4: active-set solver equals brute-force enumeration",
        worst <= 1e-10,
        f"worst coordinate difference {worst:.2e}",
    )


def test_criterion_5_discrete_kkt_on_every_level(study):
    worst = {"stationarity": 0.0, "primal": 0.0, "multiplier": 0.0, "complementarity": 0.0}
    for rep in study.reports:
        kkt = rep.kkt
        worst["stationarity"] = max(worst["stationarity"], kkt.stationarity)
        worst["primal"] = max(worst["primal"], kkt.primal_violation)
        worst["multiplier"] = min(worst["multiplier"], kkt.min_multiplier)
        worst["complementarity"] = max(worst["complementarity"], kkt.complementarity)
    ok = (
        worst["stationarity"] <= 1e-10
        and worst["primal"] <= 1e-10
        and worst["multiplier"] >= -1e-12
        and worst["complementarity"] <= 1e-10
    )
    report(
        "criterion 5: discrete KKT residuals within tolerance on every level",
        ok,
        ", ".join(f"{k} {v:.2e}" for k, v in worst.items()),
    )


def gauss_legendre_integrals(fns, breakpoints, panels=256, points=12):
    """Integrals over [-1, 1] by an explicit loop, independent of the package's
    rule: equal panels, each cut at the breakpoints inside it, and
    ``points``-point Gauss-Legendre on every piece."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    totals = [0.0] * len(fns)
    for k in range(panels):
        lo, hi = -1.0 + 2.0 * k / panels, -1.0 + 2.0 * (k + 1) / panels
        edges = [lo, *sorted(b for b in breakpoints if lo < b < hi), hi]
        for a, b in zip(edges[:-1], edges[1:]):
            xs = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            for i, fn in enumerate(fns):
                totals[i] += 0.5 * (b - a) * float(weights @ fn(xs))
    return totals


def test_criterion_6_continuous_kkt_of_benchmark(paper):
    ex = paper.exact
    xs = np.linspace(-1.0, 1.0, 1002)[1:-1]
    xs = xs[np.abs(xs - 1.0 / 3.0) > 1e-9]
    rho = ex.p_dprime(xs) + ex.f_prime(xs) - ex.phi(xs) + ex.lam
    target = np.where(xs < 1.0 / 3.0, 0.0, 211.0 / 48.0)
    rho_dev = float(np.max(np.abs(rho - target)))
    gamma = float(ex.p_prime(-1.0) + paper.f(-1.0))
    zeta = float(-(ex.p_prime(1.0) + paper.f(1.0)))
    phi_mean, psi_mass = gauss_legendre_integrals((ex.phi, paper.psi), paper.breakpoints)
    checks = hv.verify_continuous_kkt(paper)
    ok = (
        rho_dev <= 1e-10
        and abs(gamma - 27.0 / 4.0) <= 1e-12
        and abs(zeta - 4.0 / 9.0) <= 1e-12
        and abs(phi_mean) <= 1e-12
        and abs(psi_mass - 0.5) <= 1e-12
        and all(c.passed for c in checks)
    )
    report(
        "criterion 6: continuous optimality data verified "
        "(density, endpoint masses, zero-mean potential, obstacle integral)",
        ok,
        f"rho dev {rho_dev:.2e}, gamma {gamma:.12g}, zeta {zeta:.12g}, "
        f"int phi {phi_mean:.2e}, int psi {psi_mass:.12g}",
    )


def test_criterion_7_unconstrained_degeneracy(paper):
    tall = hv.with_obstacle(paper, lambda x: np.full_like(np.asarray(x, float), 1e6))
    result = hv.solve_problem(tall, n_elements=33)
    direct = result.qp.a.solve(result.qp.b)
    diff = float(np.max(np.abs(result.qp_solution.x - direct)))
    ok = diff <= 1e-10 and result.qp_solution.active_set == ()
    report(
        "criterion 7: a never-binding obstacle reduces to the direct linear solve",
        ok,
        f"difference {diff:.2e}, active set {result.qp_solution.active_set}",
    )


@pytest.mark.parametrize("n", [129, 256])
def test_criterion_8_active_set_localization(paper, n):
    result = hv.solve_problem(paper, n_elements=n)
    sol = result.solution
    nodes = sol.mesh.nodes
    h = sol.mesh.mesh_size
    active = set(sol.active_nodes)
    third = 1.0 / 3.0
    must_be_active = {i for i, x in enumerate(nodes) if x >= third + h}
    must_be_inactive = {i for i, x in enumerate(nodes) if -1.0 + h < x < third - h}
    missing = must_be_active - active
    spurious = must_be_inactive & active
    ok = not missing and not spurious
    report(
        f"criterion 8: active nodes localize to the contact set at {n} elements",
        ok,
        f"{len(active)} active nodes; missing {sorted(missing)}, spurious {sorted(spurious)}",
    )
