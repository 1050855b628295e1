import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import hermvi as hv
from hermvi.mesh import _composite_rule
from hermvi.problems import BREAK, _legendre_table, _rule_checks

from oracles import cost, rule_checks_by_legvander


# ------------------------------------------------------------- paper_example

def test_obstacle_integral_is_one_half(paper):
    mass = hv.composite_integral(paper.psi, paper.breakpoints)
    assert mass == pytest.approx(0.5, abs=1e-12)
    assert mass > 0.0


def test_multiplier_measure_constants(paper):
    ex = paper.exact
    assert float(ex.rho(0.5)) == pytest.approx(211.0 / 48.0, abs=1e-15)
    assert float(ex.rho(-0.5)) == 0.0
    assert ex.gamma == pytest.approx(27.0 / 4.0)
    assert ex.zeta == pytest.approx(4.0 / 9.0)
    assert ex.lam == pytest.approx(81.0 / 16.0)


def test_state_values_against_quadrature_oracle(paper):
    # antiderivative closed form cross-checked by adaptive quadrature of p
    ex = paper.exact
    val, err = quad(lambda t: float(ex.p(t)), -1.0, BREAK)
    assert err < 1e-12
    assert val == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert float(ex.y_bar(BREAK)) == pytest.approx(-2.0 / 3.0, abs=1e-14)
    assert float(ex.y_bar(1.0)) == pytest.approx(0.0, abs=1e-14)
    assert float(ex.y_bar(-1.0)) == pytest.approx(0.0, abs=1e-14)


def test_exact_ops_published_values(paper):
    assert hv.exact_state_deriv(BREAK) == pytest.approx(1.0, abs=1e-14)
    assert hv.exact_state_deriv(1.0) == pytest.approx(1.0, abs=1e-14)
    assert paper.exact.p_prime(-1.0) == pytest.approx(27.0 / 4.0, abs=1e-13)
    assert paper.exact.p_prime(1.0) == 0.0
    assert hv.exact_control(BREAK) == pytest.approx(0.0, abs=1e-14)
    assert hv.exact_control(1.0) == pytest.approx(4.0 / 9.0, abs=1e-14)
    assert float(paper.f(1.0)) == pytest.approx(-4.0 / 9.0, abs=1e-15)
    assert float(paper.f(-1.0)) == pytest.approx(0.0, abs=1e-15)
    assert float(paper.f(BREAK)) == pytest.approx(0.0, abs=1e-14)


def test_exact_state_against_rational_closed_form():
    # the closed form in exact rationals at each float x; near x = -1 its two
    # terms cancel, so the error is measured in epsilons of their magnitudes
    third, c = Fraction(1, 3), Fraction(27, 32)
    xs = np.concatenate([np.linspace(-1.0, 1.0, 101), -1.0 + np.geomspace(1e-12, 0.5, 100)])
    for x, got in zip(xs.tolist(), hv.exact_state(xs).tolist()):
        r, t = Fraction(x), Fraction(x) - third
        if r <= third:
            exact = (r + 1) - c * (t**3 + Fraction(4, 3) ** 3)
            scale = abs(r + 1) + c * (abs(t) ** 3 + Fraction(4, 3) ** 3)
        else:
            exact, scale = r - 1, abs(r) + 1
        assert abs(Fraction(got) - exact) <= 2 * Fraction(np.finfo(float).eps) * scale, x


def test_state_derivative_consistency_by_finite_differences(paper):
    ex = paper.exact
    step = 1e-5
    xs = np.linspace(-0.99, 0.99, 500)
    xs = xs[np.abs(xs - BREAK) > 2 * step]
    fd = (ex.y_bar(xs + step) - ex.y_bar(xs - step)) / (2 * step)
    assert np.max(np.abs(fd - ex.p(xs))) <= 1e-9


def test_exact_solution_feasible_with_expected_contact_set(paper):
    ex = paper.exact
    xs = np.linspace(-1.0, 1.0, 10_001)
    margin = paper.psi(xs) - ex.p(xs)
    assert np.min(margin) >= -1e-12
    contact = xs[(np.abs(xs + 1.0) < 1e-12) | (xs >= BREAK)]
    assert np.max(np.abs(paper.psi(contact) - ex.p(contact))) <= 1e-13
    interior = xs[(xs > -1.0 + 1e-3) & (xs < BREAK - 1e-3)]
    assert np.min(paper.psi(interior) - ex.p(interior)) > 0.0


def test_bundle_zero_mean_identities(paper):
    ex = paper.exact
    p_mean = hv.composite_integral(ex.p, paper.breakpoints)
    phi_mean = hv.composite_integral(ex.phi, paper.breakpoints)
    assert abs(p_mean) <= 1e-12
    assert abs(phi_mean) <= 1e-12
    assert ex.lam >= 0.0 and ex.gamma >= 0.0 and ex.zeta >= 0.0
    xs = np.linspace(-1.0, 1.0, 2001)
    assert np.min(ex.rho(xs)) >= 0.0


def test_problem_registry():
    assert set(hv.problems.PROBLEMS) == {"paper", "unconstrained-smoke"}
    assert hv.get_problem("paper").exact is not None
    assert hv.get_problem("unconstrained-smoke").exact is None
    with pytest.raises(KeyError):
        hv.get_problem("no-such-problem")


def test_spec_rejects_incompatible_obstacle():
    for level in (-1.0, np.nan):
        with pytest.raises(ValueError, match="obstacle integral must be positive"):
            hv.ProblemSpec(
                name="bad", beta=1.0,
                f=lambda x: np.zeros_like(x),
                psi=lambda x: np.full_like(np.asarray(x, float), level),
                y_d=lambda x: np.zeros_like(x),
            )
    for beta in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            hv.ProblemSpec(
                name="bad-beta", beta=beta,
                f=lambda x: np.zeros_like(x),
                psi=lambda x: np.ones_like(np.asarray(x, float)),
                y_d=lambda x: np.zeros_like(x),
            )



@pytest.mark.parametrize(
    "breakpoints, bad",
    [((np.nan,), "[nan]"), ((np.inf,), "[inf]"), ((0.0, np.nan), "[nan]"), ((-np.inf, 0.5, np.inf), "[-inf, inf]")],
    ids=["nan", "inf", "zero-nan", "both-infs"],
)
def test_spec_rejects_non_finite_breakpoints(paper, breakpoints, bad):
    # a non-finite breakpoint cuts no element, so the spec would solve as if it were not there
    with pytest.raises(ValueError, match=re.escape(f"breakpoints must be finite, got {bad}")):
        dataclasses.replace(paper, breakpoints=breakpoints)


@pytest.mark.parametrize("kind", [list, np.array], ids=["list", "array"])
def test_records_keep_what_their_constructors_checked(paper, kind):
    # a mutable field of a frozen record could take a NaN past the finite check, or lose a cut
    spec = dataclasses.replace(paper, breakpoints=kind([0.0, BREAK]), exact=None)
    assert type(spec.breakpoints) is tuple and spec.breakpoints == (0.0, BREAK)
    assert all(type(bp) is float for bp in spec.breakpoints)
    hash(spec)
    sol = hv.DiscreteSolution(np.zeros(4), hv.build_mesh(1), active_nodes=kind([0]))
    assert type(sol.active_nodes) is tuple and sol.active_nodes == (0,)


# ------------------------------------------------------ verify_continuous_kkt

def test_kkt_verification_passes_for_benchmark(paper):
    checks = hv.verify_continuous_kkt(paper)
    assert all(c.passed for c in checks), "\n".join(c.line() for c in checks)


def test_kkt_density_pieces(paper):
    # on the left of the kink: p'' = -81/16, f' - phi = 0, lam = 81/16
    ex = paper.exact
    xs = np.linspace(-0.999, BREAK - 1e-6, 500)
    rho = ex.p_dprime(xs) + ex.f_prime(xs) - ex.phi(xs) + ex.lam
    assert np.max(np.abs(rho)) <= 1e-10
    assert np.max(np.abs(ex.p_dprime(xs) + 81.0 / 16.0)) <= 1e-13


def test_kkt_endpoint_mass_recomputation(paper):
    ex = paper.exact
    gamma = float(ex.p_prime(-1.0) + paper.f(-1.0))
    assert gamma == pytest.approx(27.0 / 4.0, abs=1e-13)


def test_kkt_verification_flags_tampered_multiplier(paper):
    tampered = dataclasses.replace(
        paper, exact=dataclasses.replace(paper.exact, lam=5.0)
    )
    checks = hv.verify_continuous_kkt(tampered)
    assert not all(c.passed for c in checks)
    failed = {c.name for c in checks if not c.passed}
    assert any("density" in name for name in failed)


#: The continuous checks of ``verify_continuous_kkt``, in report order.
CONTINUOUS_CHECK_NAMES = [
    "density formula p'' + f' - phi + lam",
    "density nonnegative",
    "endpoint masses gamma, zeta",
    "complementarity rho * (p - psi)",
    "weak stationarity on 20 polynomial test functions",
    "zero-mean potential int phi",
    "obstacle compatibility int psi > 0",
]


def test_kkt_verification_check_names_in_order(paper):
    assert [c.name for c in hv.verify_continuous_kkt(paper)] == CONTINUOUS_CHECK_NAMES


def with_exact(spec, **changes):
    return dataclasses.replace(spec, exact=dataclasses.replace(spec.exact, **changes))


@pytest.mark.parametrize("perturbed", [False, True], ids=["paper", "perturbed"])
def test_weak_stationarity_matches_per_function_quadrature(paper, perturbed):
    # oracle: one composite_integral per Legendre test function, as a loop
    spec = paper
    if perturbed:  # residuals of order one on every test function and both boundary terms
        base = paper.exact
        spec = with_exact(
            paper, p_prime=lambda x: base.p_prime(x) + np.exp(np.asarray(x, float)),
            rho=lambda x: base.rho(x) + np.cos(5.0 * np.asarray(x, float)),
            gamma=base.gamma - 0.2, zeta=base.zeta + 0.1,
        )
    ex = spec.exact
    *_, residuals, phi_mean, psi_mass = _rule_checks(spec)
    assert residuals.shape == (20,)
    oracle = []
    for j in range(20):
        q = np.polynomial.legendre.Legendre.basis(j)
        dq = q.deriv()
        integral = hv.composite_integral(
            lambda t: ex.p_prime(t) * dq(t) + (ex.phi(t) - ex.f_prime(t) + ex.rho(t) - ex.lam) * q(t),
            spec.breakpoints,
        )
        oracle.append(integral + (spec.f(1.0) + ex.zeta) * q(1.0) + (ex.gamma - spec.f(-1.0)) * q(-1.0))
    assert np.max(np.abs(residuals - np.array(oracle))) <= 1e-13
    if perturbed:
        assert np.min(np.abs(oracle)) > 1e-8
    assert phi_mean == pytest.approx(hv.composite_integral(ex.phi, spec.breakpoints), abs=1e-15)
    assert psi_mass == pytest.approx(0.5, abs=1e-14)


def test_legendre_table_is_shared_read_only(paper):
    table = _legendre_table(tuple(paper.breakpoints))
    assert _legendre_table((0.0, BREAK)) is table and _legendre_table((0.5,)) is not table
    q_left, q_right, vander_low, vander, derivative = table
    for array in table:
        with pytest.raises(ValueError):
            array[0] = 1.0
    # the degree-18 matrix is the degree-19 one's first 19 columns, a copy in the same layout
    assert np.array_equal(vander_low, vander[:, :19]) and vander_low.flags.f_contiguous
    assert vander.shape == (_composite_rule((0.0, BREAK))[0].size, 20) and derivative.shape == (19, 20)
    assert np.array_equal(q_left, (-1.0) ** np.arange(20)) and np.array_equal(q_right, np.ones(20))


@pytest.mark.parametrize("case", ["paper", "perturbed", "one-breakpoint"])
def test_rule_checks_equal_fresh_legendre_matrices(paper, case):
    # bit for bit: the table changes where the Legendre matrices come from, not the arithmetic
    base = paper.exact
    spec = {
        "paper": paper,
        "perturbed": with_exact(paper, p_prime=lambda x: base.p_prime(x) + np.exp(np.asarray(x, float)),
                                rho=lambda x: base.rho(x) + np.cos(5.0 * np.asarray(x, float))),
        "one-breakpoint": dataclasses.replace(paper, breakpoints=(BREAK,)),
    }[case]
    ours = _rule_checks(spec)
    theirs = rule_checks_by_legvander(spec, *_composite_rule(tuple(spec.breakpoints)))
    assert ours[3].tobytes() == theirs[3].tobytes()
    assert ours[:3] + ours[4:] == theirs[:3] + theirs[4:]


def test_kkt_verification_flags_tampered_slope_derivative(paper):
    # 1e-6 (1 - x^2) vanishes at both ends, so only the weak form can see it:
    # its residual on q_1 = x is 1e-6 * int (1 - x^2) dx = 4e-6 / 3
    ex = paper.exact
    tampered = with_exact(
        paper, p_prime=lambda x: ex.p_prime(x) + 1e-6 * (1.0 - np.asarray(x, float) ** 2)
    )
    failed = [c for c in hv.verify_continuous_kkt(tampered) if not c.passed]
    assert [c.name for c in failed] == ["weak stationarity on 20 polynomial test functions"]
    assert failed[0].worst == pytest.approx(4e-6 / 3, rel=1e-6)
    assert failed[0].worst > failed[0].tolerance == 1e-8


def test_kkt_verification_reads_scalar_obstacle_and_potential(paper):
    # a scalar is a constant on the rule's points, as the spec's own int psi > 0 check reads it
    checks = hv.verify_continuous_kkt(dataclasses.replace(paper, psi=lambda x: 2.0))
    assert [c.name for c in checks] == CONTINUOUS_CHECK_NAMES
    assert [c.name for c in checks if not c.passed] == ["complementarity rho * (p - psi)"]
    assert checks[3].worst == pytest.approx(211.0 / 48.0)  # rho * (1 - 2) on the contact set
    assert checks[-1].worst == pytest.approx(4.0) and checks[-1].note == "int psi = 4"
    checks = hv.verify_continuous_kkt(with_exact(paper, phi=lambda x: 0.0))
    assert checks[5].passed and checks[5].worst == 0.0
    assert {c.name for c in checks if not c.passed} >= {"density formula p'' + f' - phi + lam"}


def test_kkt_verification_evaluates_each_function_a_few_times(paper):
    # one quadrature pass: a per-test-function loop calls each of these 21-22 times
    calls = dict.fromkeys(("p_prime", "phi", "f_prime", "rho"), 0)

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    ex = paper.exact
    spec = with_exact(paper, **{name: counted(name, getattr(ex, name)) for name in calls})
    assert all(c.passed for c in hv.verify_continuous_kkt(spec))
    assert all(0 < n <= 3 for n in calls.values()), calls


def test_kkt_verification_requires_bundle():
    with pytest.raises(ValueError):
        hv.verify_continuous_kkt(hv.unconstrained_smoke())


# ----------------------------------------------------------------------- cost

def test_objective_zero_at_target(paper):
    val = cost(paper, paper.y_d, lambda x: np.zeros_like(np.asarray(x, float)))
    assert val == 0.0


def test_objective_of_zero_state_against_unit_target():
    spec = hv.ProblemSpec(
        name="unit", beta=1.0,
        f=lambda x: np.zeros_like(np.asarray(x, float)),
        psi=lambda x: np.ones_like(np.asarray(x, float)),
        y_d=lambda x: np.ones_like(np.asarray(x, float)),
    )
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    assert cost(spec, zero, zero) == pytest.approx(1.0, abs=1e-14)


def test_discrete_objective_approaches_exact_value(paper, solve_cache):
    # the discrete feasible set only enforces the bound at nodes, so the
    # discrete cost sits below the exact one and climbs toward it
    ex = paper.exact
    j_star = cost(paper, ex.y_bar, hv.exact_control)
    gaps = []
    for n in (4, 8, 16, 32):
        sol = solve_cache(n).solution
        j_n = cost(
            paper,
            lambda x: hv.evaluate(sol, x, 0),
            lambda x: -(hv.evaluate(sol, x, 2) + np.asarray(paper.f(x), dtype=float)),
            breakpoints=tuple(sol.mesh.nodes),
        )
        gaps.append(j_star - j_n)
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))
