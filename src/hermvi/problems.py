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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mesh import composite_integral

#: Location where the benchmark data changes branch.
BREAK = 1.0 / 3.0


@dataclass(frozen=True)
class ExactBundle:
    """Closed-form solution data: state derivatives, control, multipliers.

    ``p`` is the state derivative (the constrained quantity), ``p_prime``
    and ``p_dprime`` its next two derivatives, ``phi`` the zero-mean
    potential with beta * phi' = y_d - y, and (lam, rho, gamma, zeta) the
    multiplier data: scalar mean multiplier, density, and endpoint masses.
    """

    y_bar: Callable
    p: Callable
    p_prime: Callable
    p_dprime: Callable
    u_bar: Callable
    phi: Callable
    f_prime: Callable
    lam: float
    rho: Callable
    gamma: float
    zeta: float
    breakpoints: tuple = ()


@dataclass(frozen=True)
class ProblemSpec:
    """Data tuple (beta, f, psi, y_d) with optional exact-solution bundle.

    Breakpoint tuples register locations where f or y_d are nonsmooth so
    quadrature can split there.  Construction checks the obstacle
    compatibility condition int psi dx > 0, without which no admissible
    state exists.
    """

    name: str
    beta: float
    f: Callable
    psi: Callable
    y_d: Callable
    f_breakpoints: tuple = ()
    y_d_breakpoints: tuple = ()
    psi_breakpoints: tuple = ()
    exact: ExactBundle | None = None

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        mass = composite_integral(self.psi, breakpoints=self.psi_breakpoints, panels=128)
        if mass <= 0.0:
            raise ValueError(
                f"obstacle integral must be positive for a feasible problem, got {mass:.3e}"
            )

    @property
    def breakpoints(self) -> tuple:
        """Union of the registered data breakpoints, sorted."""
        return tuple(sorted(set(self.f_breakpoints) | set(self.y_d_breakpoints)))


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
    left = (x + 1.0) - (27.0 / 32.0) * ((x - BREAK) ** 3 + (4.0 / 3.0) ** 3)
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
    x = np.asarray(x, dtype=float)
    return np.where(
        x <= BREAK,
        (2.0 / 3.0) * np.cos(np.pi * (3.0 * x - 1.0)),
        -2.0 * (x - BREAK) + 2.0 / 3.0,
    )


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
        u_bar=exact_control,
        phi=_paper_potential,
        f_prime=_paper_source_deriv,
        lam=81.0 / 16.0,
        rho=_paper_density,
        gamma=27.0 / 4.0,
        zeta=4.0 / 9.0,
        breakpoints=(BREAK,),
    )
    return ProblemSpec(
        name="paper",
        beta=1.0,
        f=_paper_source,
        psi=paper_obstacle,
        y_d=_paper_target,
        f_breakpoints=(BREAK,),
        y_d_breakpoints=(BREAK,),
        psi_breakpoints=(0.0,),
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


def with_obstacle(spec: ProblemSpec, psi: Callable, breakpoints: tuple = ()) -> ProblemSpec:
    """Copy of ``spec`` with the obstacle replaced (exact bundle dropped)."""
    return dataclasses.replace(
        spec, psi=psi, psi_breakpoints=breakpoints, exact=None,
        name=f"{spec.name}+obstacle",
    )


# ---------------------------------------------------------------------------
# verification of the first-order optimality data
# ---------------------------------------------------------------------------

#: Midpoint samples on [-1, 1] for the pointwise checks.
_KKT_SAMPLES = 1000
#: Legendre polynomials tested in the weak stationarity identity.
_KKT_TEST_FUNCTIONS = 20
#: Tolerances of the weak stationarity, pointwise and integral checks.
_STATIONARITY_TOL = 1e-8
_POINTWISE_TOL = 1e-10
_INTEGRAL_TOL = 1e-12

@dataclass
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


@dataclass
class KktVerificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [c.line() for c in self.checks]


def _sample_points(n_samples: int, avoid: Sequence[float], margin: float = 1e-6):
    xs = -1.0 + (np.arange(n_samples) + 0.5) * (2.0 / n_samples)
    for a in avoid:
        xs = xs[np.abs(xs - a) > margin]
    return xs


def verify_continuous_kkt(spec: ProblemSpec) -> KktVerificationReport:
    """Check the exact bundle against the first-order optimality system.

    Verifies, at sample points and by quadrature: (a) the multiplier density
    equals p'' + f' - phi + lam and is nonnegative, (b) the endpoint masses
    equal p'(-1) + f(-1) and -(p'(1) + f(1)) and are nonnegative, (c) the
    density vanishes off the contact set (complementarity), (d) the weak
    stationarity identity holds against a polynomial test basis, and (e) phi
    has zero mean.  Failures produce a failed report, not an exception.
    """
    if spec.exact is None:
        raise ValueError("problem has no exact solution bundle to verify")
    ex = spec.exact
    bps = tuple(sorted(set(ex.breakpoints) | set(spec.breakpoints)))
    xs = _sample_points(_KKT_SAMPLES, bps)
    checks = []

    rho_recomputed = ex.p_dprime(xs) + ex.f_prime(xs) - ex.phi(xs) + ex.lam
    mismatch = float(np.max(np.abs(rho_recomputed - ex.rho(xs))))
    negativity = float(max(0.0, -np.min(rho_recomputed)))
    checks.append(CheckResult(
        "density formula p'' + f' - phi + lam", mismatch <= _POINTWISE_TOL,
        mismatch, _POINTWISE_TOL,
    ))
    checks.append(CheckResult(
        "density nonnegative", negativity <= _POINTWISE_TOL, negativity, _POINTWISE_TOL,
    ))

    gamma = float(ex.p_prime(-1.0) + spec.f(-1.0))
    zeta = float(-(ex.p_prime(1.0) + spec.f(1.0)))
    worst_mass = max(abs(gamma - ex.gamma), abs(zeta - ex.zeta))
    checks.append(CheckResult(
        "endpoint masses gamma, zeta", worst_mass <= _INTEGRAL_TOL and min(gamma, zeta) >= -_INTEGRAL_TOL,
        worst_mass, _INTEGRAL_TOL,
        note=f"gamma={gamma:.12g}, zeta={zeta:.12g}",
    ))

    comp = float(np.max(np.abs(ex.rho(xs) * (ex.p(xs) - spec.psi(xs)))))
    checks.append(CheckResult(
        "complementarity rho * (p - psi)", comp <= _POINTWISE_TOL, comp, _POINTWISE_TOL,
    ))

    f_right = float(spec.f(1.0))
    f_left = float(spec.f(-1.0))
    worst_res = 0.0
    quad_bps = tuple(sorted(set(bps) | set(spec.psi_breakpoints)))
    for j in range(_KKT_TEST_FUNCTIONS):
        q = np.polynomial.legendre.Legendre.basis(j, domain=[-1.0, 1.0])
        dq = q.deriv()
        integrand = lambda t: (
            ex.p_prime(t) * dq(t)
            + (ex.phi(t) - ex.f_prime(t)) * q(t)
            + ex.rho(t) * q(t)
            - ex.lam * q(t)
        )
        res = composite_integral(integrand, breakpoints=quad_bps, panels=96, quad_points=12)
        res += f_right * q(1.0) - f_left * q(-1.0)
        res += ex.gamma * q(-1.0) + ex.zeta * q(1.0)
        worst_res = max(worst_res, abs(res))
    checks.append(CheckResult(
        f"weak stationarity on {_KKT_TEST_FUNCTIONS} polynomial test functions",
        worst_res <= _STATIONARITY_TOL, worst_res, _STATIONARITY_TOL,
    ))

    phi_mean = composite_integral(ex.phi, breakpoints=bps, panels=256, quad_points=12)
    checks.append(CheckResult(
        "zero-mean potential int phi", abs(phi_mean) <= _INTEGRAL_TOL,
        abs(phi_mean), _INTEGRAL_TOL,
    ))

    psi_mass = composite_integral(spec.psi, breakpoints=spec.psi_breakpoints, panels=256, quad_points=12)
    checks.append(CheckResult(
        "obstacle compatibility int psi > 0", psi_mass > 0.0, psi_mass, 0.0,
        note=f"int psi = {psi_mass:.12g}",
    ))

    return KktVerificationReport(checks=checks)


#: Composite rule of :func:`objective`: panels over [-1, 1], Gauss points each.
_OBJECTIVE_PANELS = 400
_OBJECTIVE_QUAD_POINTS = 10


def objective(
    spec: ProblemSpec,
    y: Callable,
    u: Callable,
    breakpoints: Sequence[float] = (),
) -> float:
    """Cost 1/2 (||y - y_d||^2 + beta ||u||^2) by composite quadrature.

    Extra breakpoints (for example mesh nodes, where a discrete control
    jumps) can be passed on top of the problem's registered ones.
    """
    bps = tuple(sorted(set(spec.breakpoints) | set(breakpoints)))
    return 0.5 * composite_integral(
        lambda t: (np.asarray(y(t), dtype=float) - spec.y_d(t)) ** 2
        + spec.beta * np.asarray(u(t), dtype=float) ** 2,
        breakpoints=bps, panels=_OBJECTIVE_PANELS, quad_points=_OBJECTIVE_QUAD_POINTS,
    )
