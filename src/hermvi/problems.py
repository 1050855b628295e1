"""Problem data for the slope-constrained optimal control solver.

A problem is the tuple (beta, f, psi, y_d): minimize
``1/2 ||y - y_d||^2 + beta/2 ||y'' + f||^2`` over functions on [-1, 1] that
vanish at the endpoints and satisfy y' <= psi pointwise.  The control is
recovered from the state as u = -(y'' + f).

The built-in "paper" benchmark problem has a known closed-form solution
engineered so that the first-order optimality system holds with an explicit
multiplier measure: an absolutely continuous density rho on the contact
interval plus point masses gamma, zeta at the endpoints.  That data lets the
optimality conditions be verified numerically rather than trusted.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import _require_beta
from .mesh import _composite_rule, _frozen, composite_integral

#: Location where the benchmark data changes branch.
BREAK = 1.0 / 3.0


@dataclass(frozen=True)
class ExactBundle:
    """Closed-form state derivatives and multipliers; the control is -(p_prime + f).

    ``p`` is the state derivative (the constrained quantity), ``p_prime``
    and ``p_dprime`` its next two derivatives, ``phi`` the zero-mean
    potential with beta * phi' = y_d - y, and (lam, rho, gamma, zeta) the
    multiplier data: scalar mean multiplier, density, and endpoint masses.
    Where these are nonsmooth is part of ``ProblemSpec.breakpoints``.
    """

    y_bar: Callable
    p: Callable
    p_prime: Callable
    p_dprime: Callable
    phi: Callable
    f_prime: Callable
    lam: float
    rho: Callable
    gamma: float
    zeta: float


@dataclass(frozen=True)
class ProblemSpec:
    """Data tuple (beta, f, psi, y_d) with optional exact-solution bundle.

    ``breakpoints`` lists every point where f, y_d, psi or the exact
    solution is nonsmooth; every quadrature cuts there.  Construction checks
    that beta and every breakpoint are finite, beta positive, and the obstacle
    condition int psi dx > 0, without which no admissible state exists.
    """

    name: str
    beta: float
    f: Callable
    psi: Callable
    y_d: Callable
    breakpoints: tuple = ()
    exact: ExactBundle | None = None

    def __post_init__(self):
        _require_beta(self.beta)
        bad = [float(bp) for bp in self.breakpoints if not np.isfinite(bp)]
        if bad:
            raise ValueError(f"breakpoints must be finite, got {bad}")
        mass = composite_integral(self.psi, self.breakpoints)
        if not mass > 0.0:
            raise ValueError(
                f"obstacle integral must be positive for a feasible problem, got {mass:.3e}"
            )


# ---------------------------------------------------------------------------
# the closed-form benchmark ("paper")
# ---------------------------------------------------------------------------

def paper_obstacle(x):
    """psi: downward parabola on [-1, 0], constant 1 on [0, 1]."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, 1.0 - 4.5 * x * x, 1.0)


def exact_state_deriv(x):
    """p = y': concave parabola touching 1 at x = 1/3, then constant 1."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= BREAK, 1.0 - (81.0 / 32.0) * (x - BREAK) ** 2, 1.0)


def _exact_state_deriv2(x):
    x = np.asarray(x, dtype=float)
    return np.where(x <= BREAK, -(81.0 / 16.0) * (x - BREAK), 0.0)


def _exact_state_deriv3(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < BREAK, -81.0 / 16.0, 0.0)


def exact_state(x):
    """Antiderivative of p vanishing at both endpoints (closed form)."""
    x = np.asarray(x, dtype=float)
    t = x - BREAK  # cubed by products: pow is slow and platform-rounded on negative bases
    left = (x + 1.0) - (27.0 / 32.0) * (t * t * t + (4.0 / 3.0) ** 3)
    return np.where(x <= BREAK, left, x - 1.0)


def _paper_source(x):
    x = np.asarray(x, dtype=float)
    return np.where(
        x <= BREAK,
        (2.0 / (9.0 * np.pi)) * np.sin(np.pi * (3.0 * x - 1.0)),
        -((x - BREAK) ** 2),
    )


def _paper_source_deriv(x):
    x = np.asarray(x, dtype=float)
    return np.where(
        x <= BREAK,
        (2.0 / 3.0) * np.cos(np.pi * (3.0 * x - 1.0)),
        -2.0 * (x - BREAK),
    )


def _paper_potential(x):
    # f' on the left branch, f' + 2/3 on the right; continuous, zero mean
    return _paper_source_deriv(x) + np.where(np.asarray(x, dtype=float) <= BREAK, 0.0, 2.0 / 3.0)


def _paper_potential_deriv(x):
    x = np.asarray(x, dtype=float)
    return np.where(x <= BREAK, -2.0 * np.pi * np.sin(np.pi * (3.0 * x - 1.0)), -2.0)


def _paper_target(x):
    return exact_state(x) + _paper_potential_deriv(x)


def exact_control(x):
    """u = -(y'' + f) for the benchmark problem."""
    return -(_exact_state_deriv2(x) + _paper_source(x))


def _paper_density(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < BREAK, 0.0, 211.0 / 48.0)


def paper_example() -> ProblemSpec:
    """The benchmark problem with its exact solution bundle.

    beta = 1; the slope constraint is active on {-1} union [1/3, 1]; the
    multiplier measure is (211/48) dx on [1/3, 1] plus point masses 27/4 at
    -1 and 4/9 at +1, with mean multiplier 81/16.
    """
    bundle = ExactBundle(
        y_bar=exact_state,
        p=exact_state_deriv,
        p_prime=_exact_state_deriv2,
        p_dprime=_exact_state_deriv3,
        phi=_paper_potential,
        f_prime=_paper_source_deriv,
        lam=81.0 / 16.0,
        rho=_paper_density,
        gamma=27.0 / 4.0,
        zeta=4.0 / 9.0,
    )
    return ProblemSpec(
        name="paper",
        beta=1.0,
        f=_paper_source,
        psi=paper_obstacle,
        y_d=_paper_target,
        breakpoints=(0.0, BREAK),
        exact=bundle,
    )


def unconstrained_smoke() -> ProblemSpec:
    """Smooth data with an obstacle too high to ever bind; no exact bundle."""
    return ProblemSpec(
        name="unconstrained-smoke",
        beta=1.0,
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        psi=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0e6),
        y_d=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
    )


PROBLEMS = {
    "paper": paper_example,
    "unconstrained-smoke": unconstrained_smoke,
}


def get_problem(name: str) -> ProblemSpec:
    """Look up a registered problem by name."""
    try:
        factory = PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; known problems: {known}") from None
    return factory()


def with_obstacle(spec: ProblemSpec, psi: Callable) -> ProblemSpec:
    """Copy of ``spec`` with a smooth obstacle ``psi`` (exact bundle dropped).

    A kinked obstacle also needs its kinks in ``breakpoints``: build it with
    ``dataclasses.replace(spec, psi=..., breakpoints=..., exact=None)``.
    """
    return dataclasses.replace(spec, psi=psi, exact=None, name=f"{spec.name}+obstacle")


# ---------------------------------------------------------------------------
# verification of the first-order optimality data
# ---------------------------------------------------------------------------

#: Legendre polynomials tested in the weak stationarity identity.
_KKT_TEST_FUNCTIONS = 20
#: Tolerances of the weak stationarity, pointwise and integral checks.
_STATIONARITY_TOL = 1e-8
_POINTWISE_TOL = 1e-10
_INTEGRAL_TOL = 1e-12

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status}  {self.name}: worst {self.worst:.3e} (tol {self.tolerance:.1e})"
        return msg + (f"  [{self.note}]" if self.note else "")


@functools.lru_cache(maxsize=16)
def _legendre_table(breakpoints: tuple):
    """Read-only Legendre data of the weak stationarity check on :func:`_composite_rule`'s points,
    one per tuple: q_0 .. q_19 at -1 and at +1, their Vandermonde matrices of degree 18 and 19 at
    the points, and the derivative map from degree-19 to degree-18 coefficients.  The degree-18
    matrix is the first 19 columns of the degree-19 one, copied: both keep ``legvander``'s
    column-major layout, on which the bits of their products depend."""
    leg, degree = np.polynomial.legendre, _KKT_TEST_FUNCTIONS - 1
    x, _ = _composite_rule(breakpoints)
    vander = leg.legvander(x, degree)
    q_left, q_right = leg.legvander([-1.0, 1.0], degree)
    return tuple(_frozen(a) for a in (
        q_left, q_right, vander[:, :degree], vander, leg.legder(np.eye(degree + 1))
    ))


def _rule_checks(spec: ProblemSpec):
    """The bundle's checks on [-1, 1], each function evaluated once on the
    composite rule cut at ``spec.breakpoints`` (no point is a breakpoint).

    Returns the worst density mismatch, negativity and rho * (p - psi) over
    the points, the weak stationarity residuals on q_0 .. q_19 (on q: int p' q'
    + (phi - f' + rho - lam) q dx + (f(1) + zeta) q(1) + (gamma - f(-1)) q(-1)),
    int phi and int psi.  The Legendre data come from :func:`_legendre_table`.
    """
    ex, breakpoints = spec.exact, tuple(spec.breakpoints)
    x, w = _composite_rule(breakpoints)
    q_left, q_right, vander_low, vander, derivative = _legendre_table(breakpoints)
    rho, phi, f_prime, psi = ex.rho(x), ex.phi(x), ex.f_prime(x), spec.psi(x)
    # a scalar is a constant on the points, as composite_integral reads it
    phi, psi = (np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in (phi, psi))
    density = ex.p_dprime(x) + f_prime - phi + ex.lam
    residuals = (
        (w * ex.p_prime(x)) @ vander_low @ derivative
        + (w * (phi - f_prime + rho - ex.lam)) @ vander
        + (spec.f(1.0) + ex.zeta) * q_right + (ex.gamma - spec.f(-1.0)) * q_left
    )
    return (float(np.max(np.abs(density - rho))), float(max(0.0, -np.min(density))),
            float(np.max(np.abs(rho * (ex.p(x) - psi)))), residuals, float(w @ phi), float(w @ psi))


def verify_continuous_kkt(spec: ProblemSpec) -> list[CheckResult]:
    """Check the exact bundle against the first-order optimality system.

    Verifies: (a) the multiplier density equals p'' + f' - phi + lam and is
    nonnegative, (b) the endpoint masses equal p'(-1) + f(-1) and -(p'(1) +
    f(1)) and are nonnegative, (c) the density vanishes off the contact set
    (complementarity), (d) the weak stationarity identity holds against a
    polynomial test basis, and (e) phi has zero mean.  All but (b), and the
    int psi > 0 check, read :func:`composite_integral`'s points cut at
    ``spec.breakpoints``.  Failures are failed checks, not exceptions.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution bundle to verify")
    ex = spec.exact
    mismatch, negativity, comp, residuals, phi_mean, psi_mass = _rule_checks(spec)
    gamma = float(ex.p_prime(-1.0) + spec.f(-1.0))
    zeta = float(-(ex.p_prime(1.0) + spec.f(1.0)))
    worst_mass = max(abs(gamma - ex.gamma), abs(zeta - ex.zeta))
    worst_res = float(np.max(np.abs(residuals)))
    return [
        CheckResult("density formula p'' + f' - phi + lam", mismatch <= _POINTWISE_TOL,
                    mismatch, _POINTWISE_TOL),
        CheckResult("density nonnegative", negativity <= _POINTWISE_TOL, negativity, _POINTWISE_TOL),
        CheckResult("endpoint masses gamma, zeta",
                    worst_mass <= _INTEGRAL_TOL and min(gamma, zeta) >= -_INTEGRAL_TOL,
                    worst_mass, _INTEGRAL_TOL, note=f"gamma={gamma:.12g}, zeta={zeta:.12g}"),
        CheckResult("complementarity rho * (p - psi)", comp <= _POINTWISE_TOL, comp, _POINTWISE_TOL),
        CheckResult(f"weak stationarity on {_KKT_TEST_FUNCTIONS} polynomial test functions",
                    worst_res <= _STATIONARITY_TOL, worst_res, _STATIONARITY_TOL),
        CheckResult("zero-mean potential int phi", abs(phi_mean) <= _INTEGRAL_TOL,
                    abs(phi_mean), _INTEGRAL_TOL),
        CheckResult("obstacle compatibility int psi > 0", psi_mass > 0.0, psi_mass, 0.0,
                    note=f"int psi = {psi_mass:.12g}"),
    ]

