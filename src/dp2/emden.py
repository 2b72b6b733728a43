"""Scale-factor dynamics for the self-similar family.

The time-dependent scale factor a(s) obeys the Emden equation

    a''(s) = xi / (mu * a(s)**kappa),    a(0) = a0 > 0,  a'(0) = a1,

with mu = 4 for the scaled-time normalisation s = 4t used by the
self-similar construction (mu = 1 gives the unnormalised variant).
For xi < 0 the factor is pulled to a touchdown a -> 0+ at a finite
time S, which drives the density blowup of the assembled solution;
for xi > 0 the motion is convex and a grows without bound.

Two independent routes to the touchdown time are provided:

* :func:`integrate` - adaptive embedded Runge-Kutta with dense output
  and event detection at the touchdown threshold, S being the event
  root that ``solve_ivp`` locates on the dense output;
* :func:`touchdown_time_quadrature` - closed-form energy reduction
  a'^2 = a1^2 + 2*xi*(a^(1-kappa) - a0^(1-kappa))/(mu*(1-kappa)),
  whose time integral ds = -da/|a'(a)| is the regularized incomplete
  beta function for kappa < 1 and the scaled complementary error
  function for kappa = 1.

They share no code path and cross-check each other in the test suite.

Importing this module loads no scipy.  ``scipy.integrate`` (~0.25 s of
imports) loads on the first call of :func:`integrate`, through the
module-level :func:`solve_ivp` shim, and ``scipy.special`` on the first
call of :func:`touchdown_time_quadrature`: ``dp2 solve`` and
``dp2 riccati``, which call neither, load no scipy at all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError

# Touchdown event fires at a = TOUCHDOWN_FRACTION * a0.  The slope a'(a)
# stays finite there for kappa < 1, so event bracketing at a small
# positive level is robust; only a = 0 itself is singular.
TOUCHDOWN_FRACTION = 1e-8

# A step collapse on a falling trajectory counts as touchdown when the
# remaining fall time a/|a'| is at most this fraction of s: the touchdown
# window is then narrower than any step the integrator can still take.
FALL_TIME_RTOL = 1e-10


class NonPositiveA0(ValidationError):
    """The initial value a0 must be strictly positive."""


class UnsupportedKappa(ValidationError):
    """Classification is only established for 0 < kappa <= 1."""


class StepCollapse(NumericalError):
    """The adaptive step size underflowed before touchdown or s_max."""


class NoTouchdown(ValidationError):
    """The energy level forbids the trajectory from reaching a = 0."""


class Fate(enum.Enum):
    TOUCHDOWN = "TouchdownAt"
    GLOBAL_ON_HORIZON = "GlobalOnHorizon"


class Classification(enum.Enum):
    BLOWUP_FINITE_TIME = "BlowupFiniteTime"
    GLOBAL_GROWING = "GlobalGrowing"
    LINEAR = "Linear"


@dataclass(frozen=True)
class EmdenProblem:
    """Inputs of the scale-factor ODE.

    Parameters
    ----------
    xi : float
        Forcing strength; any sign.  xi < 0 pulls a(s) toward zero.
    kappa : float
        Exponent of the restoring term.  The canonical self-similar
        case k1 = k2 = 1 gives kappa = 1/2.
    mu : float
        Denominator normalisation, 1 or 4.  The scaled-time form of the
        construction carries mu = 4 (default).
    a0, a1 : float
        Initial value (must be > 0) and initial slope.
    s_max : float
        Integration horizon in the scaled time s = 4t.
    """

    xi: float
    kappa: float
    mu: float = 4.0
    a0: float = 1.0
    a1: float = 0.0
    s_max: float = 10.0

    def __post_init__(self) -> None:
        if not (self.a0 > 0.0):
            raise NonPositiveA0(f"a0 must be > 0, got a0={self.a0}")
        if self.mu not in (1.0, 4.0):
            raise ValidationError(f"mu must be 1 or 4, got mu={self.mu}")
        if not math.isfinite(self.kappa):
            raise ValidationError(f"kappa must be finite, got kappa={self.kappa}")
        if not (self.s_max > 0.0 and math.isfinite(self.s_max)):
            raise ValidationError(f"s_max must be positive and finite, got s_max={self.s_max}")
        for name in ("xi", "a1"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    def energy(self, a, a_dot):
        """Conserved energy; logarithmic potential for kappa = 1."""
        if self.kappa == 1.0:
            return 0.5 * np.asarray(a_dot) ** 2 - (self.xi / self.mu) * np.log(a)
        pw = 1.0 - self.kappa
        return 0.5 * np.asarray(a_dot) ** 2 - self.xi * np.asarray(a) ** pw / (self.mu * pw)


@dataclass(frozen=True)
class EmdenTrajectory:
    """Dense-output solution of an :class:`EmdenProblem`.

    ``samples`` holds the accepted integrator steps as rows (s, a, a').
    ``touchdown_s`` is the event time S when ``fate`` is TOUCHDOWN,
    else None.  Queries of a(s), a'(s) between samples use
    the integrator's dense output.
    """

    problem: EmdenProblem
    samples: np.ndarray
    fate: Fate
    touchdown_s: Optional[float]
    energy_drift_max: float
    _dense: object = field(repr=False)

    @property
    def s_end(self) -> float:
        return float(self.samples[-1, 0])

    def _check_domain(self, s: float) -> None:
        if not (0.0 <= s <= self.s_end * (1.0 + 1e-12)):
            raise ValidationError(
                f"s={s} outside trajectory domain [0, {self.s_end}]"
            )

    def a(self, s: float) -> float:
        self._check_domain(s)
        return float(self._dense(min(s, self.s_end))[0])

    def a_dot(self, s: float) -> float:
        self._check_domain(s)
        return float(self._dense(min(s, self.s_end))[1])

    def summary(self) -> dict:
        return {
            "fate": self.fate.value,
            "S": self.touchdown_s,
            "energy_drift_max": self.energy_drift_max,
        }


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first call (~0.25 s); only integrate needs it."""
    from scipy.integrate import solve_ivp as impl

    return impl(*args, **kwargs)


def _rhs(problem: EmdenProblem, floor: float):
    xi, mu, kappa = problem.xi, problem.mu, problem.kappa

    def rhs(s, y):
        # Trial stages may probe below the touchdown level; pin the
        # force there so the solver never sees a NaN from a <= 0.
        a = y[0] if y[0] > floor else floor
        return (y[1], xi / (mu * a**kappa))

    return rhs


def integrate(problem: EmdenProblem, tol: float = 1e-10) -> EmdenTrajectory:
    """Integrate the scale-factor ODE with touchdown event detection.

    Uses an embedded adaptive Runge-Kutta pair (DOP853) with local error
    per step bounded by ``tol`` relative to the solution components.  If
    a(s) decreases through eps_a = 1e-8 * a0 the fate is TOUCHDOWN at
    the event root that ``solve_ivp`` finds on the dense output.

    When the step size underflows on a falling trajectory (xi < 0,
    a' < 0) whose remaining fall time a/|a'| is at most FALL_TIME_RTOL
    times the last sample's s, the touchdown window is narrower than
    ulp(s) (S ~ 1e9) and the fate is TOUCHDOWN at that last sample.

    Raises
    ------
    StepCollapse
        If the step size underflows in any other state before touchdown
        or s_max; must not occur for kappa in (0, 1].
    """
    if not (0.0 < tol <= 1e-3):
        raise ValidationError(f"tol must lie in (0, 1e-3], got {tol}")

    eps_a = TOUCHDOWN_FRACTION * problem.a0
    floor = 1e-3 * eps_a

    def touchdown_event(s, y):
        return y[0] - eps_a

    touchdown_event.terminal = True
    touchdown_event.direction = -1.0

    sol = solve_ivp(
        _rhs(problem, floor),
        (0.0, problem.s_max),
        (problem.a0, problem.a1),
        method="DOP853",
        rtol=tol,
        # Keep error control purely relative near touchdown (a ~ 1e-8*a0);
        # the tiny absolute floor only guards exact-zero components.
        atol=1e-30,
        dense_output=True,
        events=touchdown_event,
    )

    touchdown_s: Optional[float] = None
    if sol.status == -1:
        s_last = float(sol.t[-1])
        a_last, a_dot_last = (float(v) for v in sol.y[:, -1])
        # For xi < 0 the fall only speeds up, so a falling trajectory reaches
        # a = 0 within a/|a'| of its last sample.  When that is a negligible
        # fraction of s, the step collapsed on a touchdown window narrower
        # than ulp(s): report the touchdown there.
        if not (
            problem.xi < 0.0
            and a_dot_last < 0.0
            and a_last / -a_dot_last <= FALL_TIME_RTOL * s_last
        ):
            raise StepCollapse(f"integrator failed before touchdown or s_max: {sol.message}")
        fate = Fate.TOUCHDOWN
        touchdown_s = s_last
    elif sol.status == 1:
        fate = Fate.TOUCHDOWN
        touchdown_s = float(sol.t_events[0][0])
    else:
        fate = Fate.GLOBAL_ON_HORIZON

    samples = np.column_stack([sol.t, sol.y[0], sol.y[1]])
    e0 = float(problem.energy(problem.a0, problem.a1))
    energies = problem.energy(samples[:, 1], samples[:, 2])
    drift = float(np.max(np.abs(energies - e0))) / max(1.0, abs(e0))

    return EmdenTrajectory(
        problem=problem,
        samples=samples,
        fate=fate,
        touchdown_s=touchdown_s,
        energy_drift_max=drift,
        _dense=sol.sol,
    )


def classify(problem: EmdenProblem) -> Classification:
    """Fate dichotomy of the scale factor for 0 < kappa <= 1.

    xi < 0 gives touchdown in finite s (density blowup of the assembled
    solution), xi > 0 gives unbounded growth of a, and xi = 0 gives
    plain linear motion regardless of kappa.  The xi > 0 statement
    assumes the trajectory enters its growing branch (always true for
    a1 >= 0); a strongly negative a1 can still drive a to zero, which
    :func:`integrate` detects as a touchdown event.
    """
    if problem.xi == 0.0:
        return Classification.LINEAR
    if not (0.0 < problem.kappa <= 1.0):
        raise UnsupportedKappa(
            f"classification requires kappa in (0, 1], got kappa={problem.kappa}"
        )
    if problem.xi < 0.0:
        return Classification.BLOWUP_FINITE_TIME
    return Classification.GLOBAL_GROWING


# ---------------------------------------------------------------------------
# Quadrature oracle: energy reduction, summed in closed form.
# ---------------------------------------------------------------------------


class QuadratureBudgetExceeded(NumericalError):
    """Kept for callers that catch it; the closed-form oracle never raises it."""


def touchdown_time_quadrature(problem: EmdenProblem) -> float:
    """Touchdown time from the conserved-energy reduction, in closed form.

    Independent oracle for :func:`integrate`: energy conservation gives
    a'(a)^2 = C*(w_t - w) with w = a^(1-kappa), C = 2|xi|/(mu*(1-kappa))
    and turning level w_t = w0 + a1^2/C, for either sign of a1.  The
    time to fall from w_t to a = 0 is

        full = w_t^(p+1/2) * B(p+1, 1/2) / ((1-kappa)*sqrt(C)),  p = kappa/(1-kappa),

    and the fall from w0 is full * I_{w0/w_t}(p+1, 1/2), with I the
    regularized incomplete beta function (DLMF 8.17).  A rising start (a1 > 0)
    climbs to w_t first, which takes full - full*I, so S = full*(2 - I);
    otherwise S = full*I.  At kappa = 1 the potential is logarithmic and
    S = a0*sqrt(pi/c)*erfcx(-a1/sqrt(c)) with c = 2|xi|/mu, the scaled
    complementary error function (DLMF 7.2).

    Supports xi < 0 with kappa in (0, 1]; raises NoTouchdown otherwise.
    """
    if problem.xi >= 0.0:
        raise NoTouchdown(
            f"xi={problem.xi}: the force never drives a to zero from a0 > 0"
        )
    if not (0.0 < problem.kappa <= 1.0):
        raise ValidationError(
            f"quadrature oracle supports kappa in (0, 1], got {problem.kappa}"
        )

    from scipy import special  # ~0.3 s of imports, paid by the oracle's first call only

    a0, a1 = problem.a0, problem.a1
    if problem.kappa == 1.0:
        c = 2.0 * abs(problem.xi) / problem.mu
        return a0 * math.sqrt(math.pi / c) * float(special.erfcx(-a1 / math.sqrt(c)))

    kappa = problem.kappa
    om = 1.0 - kappa
    p = kappa / om
    C = 2.0 * abs(problem.xi) / (problem.mu * om)
    # With r = w_t/w0 - 1, w_t^(p+1/2) = a0^((1+kappa)/2) * (1+r)^(p+1/2) and
    # I_{w0/w_t}(p+1, 1/2) = 1 - I_{r/(1+r)}(1/2, p+1).  Neither form rounds
    # w0 = a0^(1-kappa) or w0/w_t near 1, so S stays accurate as kappa -> 1.
    r = a1 * a1 / (C * a0**om)
    full = (
        a0 ** (0.5 * (1.0 + kappa))
        * math.exp((p + 0.5) * math.log1p(r))
        * special.beta(p + 1.0, 0.5)
        / (om * math.sqrt(C))
    )
    fall = special.betaincc(0.5, p + 1.0, r / (1.0 + r))
    return float(full * (2.0 - fall) if a1 > 0.0 else full * fall)
