"""Scale-factor dynamics for the self-similar family.

The time-dependent scale factor a(s) obeys the Emden equation

    a''(s) = xi / (mu * a(s)**kappa),    a(0) = a0 > 0,  a'(0) = a1,

with mu = 4 for the scaled-time normalisation s = 4t used by the
self-similar construction (mu = 1 gives the unnormalised variant).
For xi < 0 the factor is pulled to a touchdown a -> 0+ at a finite
time S, which drives the density blowup of the assembled solution;
for xi > 0 the motion is convex and a grows without bound.

Two independent routes to the touchdown time are provided:

* :func:`integrate` - the adaptive embedded Runge-Kutta pair DOP853,
  stepped on plain floats, with event detection at the touchdown
  threshold, S being where the crossing step's landing map meets it.
  The step is straight-line code whose literals are scipy's DOP853
  coefficients, with the force law written out at each stage; the test
  suite compares it bit for bit with a step driven by scipy's
  coefficient tables and the law's one definition, ``_force``.  A
  trajectory's energy drift is computed on first read;
* :func:`touchdown_time_quadrature` - the energy reduction
  a'^2 = a1^2 + 2*xi*(a^(1-kappa) - a0^(1-kappa))/(mu*(1-kappa))
  (logarithmic at kappa = 1), whose time integral S = integral of
  da/|a'(a)| is summed by one double-exponential (tanh-sinh) rule on a
  fixed 145-node table built at import.  It meets a 30-digit
  ``mpmath.quad`` of the same integral to 1e-14 relative in the test
  suite, at a few microseconds a call.

They share no code path and cross-check each other in the test suite.
Nothing in this module loads scipy.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
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
        """Conserved energy a'^2/2 + V(a), with V(a0) = 0.

        V(a) = -(xi/mu) * integral of s^-kappa from a0 to a
             = (xi/mu) * a0^(1-kappa) * _pull(ln(a/a0), 1-kappa),
        one expression through kappa = 1, where :func:`_pull` is logarithmic.
        When a0^(1-kappa) is not a normal float, V is the product of its
        factors' mantissas scaled by the sum of their exponents, so that for
        |1-kappa| <= 1022 it reads inf or 0 only where V or _pull leaves the
        float range.
        """
        om = 1.0 - self.kappa
        pull = _pull(np.log(np.asarray(a) / self.a0), om)
        with np.errstate(over="ignore"):
            power = np.float64(self.a0) ** om  # numpy's power, which overflows to inf
        if sys.float_info.min <= power < math.inf:
            return 0.5 * np.asarray(a_dot) ** 2 + self.xi / self.mu * power * pull
        # a0^om = m^n * a0^(om-n) * 2^(e*n), a0 = m*2^e and n = round(om): each factor is in range
        n, (m, e) = round(min(max(om, -1022.0), 1022.0)), np.frexp(self.a0)
        mantissas, exponents = zip(*map(np.frexp, (self.xi / self.mu, m**n, np.power(self.a0, om - n), pull)))
        return 0.5 * np.asarray(a_dot) ** 2 + np.ldexp(math.prod(mantissas), sum(exponents) + e * n)


@dataclass(frozen=True)
class EmdenTrajectory:
    """Solution of an :class:`EmdenProblem`.

    ``samples`` holds the accepted integrator steps as rows (s, a, a'),
    ending at the touchdown state when ``fate`` is TOUCHDOWN.
    ``touchdown_s`` is then the touchdown time S, else None.
    :meth:`state` reads (a, a') at any s of the trajectory.
    ``nfev`` and ``rejected_steps`` count the right-hand-side
    evaluations and the rejected step attempts of the run that built
    the trajectory.  :attr:`energy_drift_max` is computed on first read,
    so a caller that never reads it, such as ``dp2 sweep``, pays nothing
    for it.
    """

    problem: EmdenProblem
    samples: np.ndarray
    fate: Fate
    touchdown_s: Optional[float]
    nfev: int
    rejected_steps: int

    @functools.cached_property
    def energy_drift_max(self) -> float:
        """The largest |E - E(0)| over the samples, relative to max(1, max a'^2/2);
        inf when an energy E leaves the float range.

        E(0) = a1^2/2, as the potential V(a0) is 0.  V changes along the
        orbit by as much as a'^2/2 does, so the largest a'^2/2 over the
        samples sets the drift's scale.
        """
        a_dot = self.samples[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed energy reads inf or nan
            energies = self.problem.energy(self.samples[:, 1], a_dot)
            kinetic = 0.5 * float(np.max(a_dot * a_dot))
            drift = float(np.max(np.abs(energies - energies[0]))) / max(1.0, kinetic)
        return drift if math.isfinite(drift) else math.inf

    @property
    def s_end(self) -> float:
        return float(self.samples[-1, 0])

    def _check_domain(self, s: float) -> None:
        if not (0.0 <= s <= self.s_end * (1.0 + 1e-12)):
            raise ValidationError(
                f"s={s} outside trajectory domain [0, {self.s_end}]"
            )

    def state(self, s: float) -> tuple[float, float]:
        """(a, a') at s: the last sample at or before s, advanced by one
        DOP853 step of length s - s_k, so each sample reads back bit for bit."""
        self._check_domain(s)
        s = min(s, self.s_end)
        k = int(np.searchsorted(self.samples[:, 0], s, side="right")) - 1
        s_k, a, a_dot = self.samples[k].tolist()
        a, a_dot, *_ = _dop853_step(_law(self.problem), a, a_dot, _force(self.problem)(a), s - s_k)
        return a, a_dot

    def summary(self) -> dict:
        """fate, S and the energy drift; refuses an infinite drift, which JSON cannot hold."""
        if not math.isfinite(self.energy_drift_max):
            raise NumericalError(
                f"the energy of a(s) left the float range at xi={self.problem.xi},"
                f" kappa={self.problem.kappa}: energy_drift_max is not finite"
            )
        return {
            "fate": self.fate.value,
            "S": self.touchdown_s,
            "energy_drift_max": self.energy_drift_max,
        }


def _law(problem: EmdenProblem):
    """The force law's constants (xi, mu, kappa, floor): a'' = xi / (mu * max(a, floor)**kappa)."""
    # Trial stages may probe below the touchdown level; pin the force
    # there so the stepper never sees a NaN from a <= 0.
    return problem.xi, problem.mu, problem.kappa, 1e-3 * TOUCHDOWN_FRACTION * problem.a0


def _force(problem: EmdenProblem):
    """a'' as a function of a: the force law's one definition."""
    xi, mu, kappa, floor = _law(problem)

    def force(a):
        return xi / (mu * (a if a > floor else floor) ** kappa)

    return force


_STAGE_EVALS = 11  # right-hand-side evaluations per DOP853 step; stage 0 is given

# Step-size control of scipy's explicit Runge-Kutta solvers (rk.py).
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1/(error estimator order 7 + 1)
ATOL = 1e-30  # keeps error control purely relative, even near a ~ 1e-8 * a0
LANDING_NEWTON_MAX = 16  # Newton iterations on the crossing step; 1-3 converge


def _dop853_step(law, a: float, a_dot: float, f: float, h: float):
    """One DOP853 step of length h from (a, a') with a'' = f there, under the force law ``law``.

    Returns (a, a') at the step's end and the 3rd- and 5th-order error
    estimates of each component, (e3_a, e5_a, e3_adot, e5_adot), not yet
    multiplied by h.

    DOP853 is the 8(5,3) pair of Hairer, Norsett & Wanner (Solving ODEs I,
    sec. II.10), written out stage by stage as in their dop853.f.  The
    literals are the nonzero A[i, j], B[j], E3[j] and E5[j] of scipy's
    dop853_coefficients; stage i's a' and a'' are v_i and f_i, and each sum
    adds its terms in ascending j.  Each f_i is :func:`_force`'s expression
    written out on the stage's a, x, with the constants of ``law`` (see
    :func:`_law`), which spares a call per stage; the test suite drives a
    step by scipy's tables with ``_force`` and compares it with this one
    bit for bit, starts below the force floor included.
    """
    xi, mu, kappa, floor = law
    v0, f0 = a_dot, f
    v1 = a_dot + (0.05260015195876773 * f0) * h
    x = a + (0.05260015195876773 * v0) * h
    f1 = xi / (mu * (x if x > floor else floor) ** kappa)
    v2 = a_dot + (0.0197250569845379 * f0 + 0.0591751709536137 * f1) * h
    x = a + (0.0197250569845379 * v0 + 0.0591751709536137 * v1) * h
    f2 = xi / (mu * (x if x > floor else floor) ** kappa)
    v3 = a_dot + (0.02958758547680685 * f0 + 0.08876275643042054 * f2) * h
    x = a + (0.02958758547680685 * v0 + 0.08876275643042054 * v2) * h
    f3 = xi / (mu * (x if x > floor else floor) ** kappa)
    v4 = a_dot + (0.2413651341592667 * f0 - 0.8845494793282861 * f2 + 0.924834003261792 * f3) * h
    x = a + (0.2413651341592667 * v0 - 0.8845494793282861 * v2
             + 0.924834003261792 * v3) * h
    f4 = xi / (mu * (x if x > floor else floor) ** kappa)
    v5 = a_dot + (0.037037037037037035 * f0 + 0.17082860872947386 * f3
                  + 0.12546768756682242 * f4) * h
    x = a + (0.037037037037037035 * v0 + 0.17082860872947386 * v3
             + 0.12546768756682242 * v4) * h
    f5 = xi / (mu * (x if x > floor else floor) ** kappa)
    v6 = a_dot + (0.037109375 * f0 + 0.17025221101954405 * f3 + 0.06021653898045596 * f4
                  - 0.017578125 * f5) * h
    x = a + (0.037109375 * v0 + 0.17025221101954405 * v3 + 0.06021653898045596 * v4
             - 0.017578125 * v5) * h
    f6 = xi / (mu * (x if x > floor else floor) ** kappa)
    v7 = a_dot + (0.03709200011850479 * f0 + 0.17038392571223998 * f3 + 0.10726203044637328 * f4
                  - 0.015319437748624402 * f5 + 0.008273789163814023 * f6) * h
    x = a + (0.03709200011850479 * v0 + 0.17038392571223998 * v3 + 0.10726203044637328 * v4
             - 0.015319437748624402 * v5 + 0.008273789163814023 * v6) * h
    f7 = xi / (mu * (x if x > floor else floor) ** kappa)
    v8 = a_dot + (0.6241109587160757 * f0 - 3.3608926294469414 * f3 - 0.868219346841726 * f4
                  + 27.59209969944671 * f5 + 20.154067550477894 * f6 - 43.48988418106996 * f7) * h
    x = a + (0.6241109587160757 * v0 - 3.3608926294469414 * v3 - 0.868219346841726 * v4
             + 27.59209969944671 * v5 + 20.154067550477894 * v6
             - 43.48988418106996 * v7) * h
    f8 = xi / (mu * (x if x > floor else floor) ** kappa)
    v9 = a_dot + (0.47766253643826434 * f0 - 2.4881146199716677 * f3 - 0.590290826836843 * f4
                  + 21.230051448181193 * f5 + 15.279233632882423 * f6 - 33.28821096898486 * f7
                  - 0.020331201708508627 * f8) * h
    x = a + (0.47766253643826434 * v0 - 2.4881146199716677 * v3 - 0.590290826836843 * v4
             + 21.230051448181193 * v5 + 15.279233632882423 * v6 - 33.28821096898486 * v7
             - 0.020331201708508627 * v8) * h
    f9 = xi / (mu * (x if x > floor else floor) ** kappa)
    v10 = a_dot + (-0.9371424300859873 * f0 + 5.186372428844064 * f3 + 1.0914373489967295 * f4
                   - 8.149787010746927 * f5 - 18.52006565999696 * f6 + 22.739487099350505 * f7
                   + 2.4936055526796523 * f8 - 3.0467644718982196 * f9) * h
    x = a + (-0.9371424300859873 * v0 + 5.186372428844064 * v3 + 1.0914373489967295 * v4
             - 8.149787010746927 * v5 - 18.52006565999696 * v6 + 22.739487099350505 * v7
             + 2.4936055526796523 * v8 - 3.0467644718982196 * v9) * h
    f10 = xi / (mu * (x if x > floor else floor) ** kappa)
    v11 = a_dot + (2.273310147516538 * f0 - 10.53449546673725 * f3 - 2.0008720582248625 * f4
                   - 17.9589318631188 * f5 + 27.94888452941996 * f6 - 2.8589982771350235 * f7
                   - 8.87285693353063 * f8 + 12.360567175794303 * f9
                   + 0.6433927460157636 * f10) * h
    x = a + (2.273310147516538 * v0 - 10.53449546673725 * v3 - 2.0008720582248625 * v4
             - 17.9589318631188 * v5 + 27.94888452941996 * v6 - 2.8589982771350235 * v7
             - 8.87285693353063 * v8 + 12.360567175794303 * v9
             + 0.6433927460157636 * v10) * h
    f11 = xi / (mu * (x if x > floor else floor) ** kappa)
    sa = (0.054293734116568765 * v0 + 4.450312892752409 * v5 + 1.8915178993145003 * v6
          - 5.801203960010585 * v7 + 0.3111643669578199 * v8 - 0.1521609496625161 * v9
          + 0.20136540080403034 * v10 + 0.04471061572777259 * v11)
    sv = (0.054293734116568765 * f0 + 4.450312892752409 * f5 + 1.8915178993145003 * f6
          - 5.801203960010585 * f7 + 0.3111643669578199 * f8 - 0.1521609496625161 * f9
          + 0.20136540080403034 * f10 + 0.04471061572777259 * f11)
    e3a = (-0.18980075407240762 * v0 + 4.450312892752409 * v5 + 1.8915178993145003 * v6
           - 5.801203960010585 * v7 - 0.4226823213237919 * v8 - 0.1521609496625161 * v9
           + 0.20136540080403034 * v10 + 0.02265179219836082 * v11)
    e5a = (0.01312004499419488 * v0 - 1.2251564463762044 * v5 - 0.4957589496572502 * v6
           + 1.6643771824549864 * v7 - 0.35032884874997366 * v8 + 0.3341791187130175 * v9
           + 0.08192320648511571 * v10 - 0.022355307863886294 * v11)
    e3v = (-0.18980075407240762 * f0 + 4.450312892752409 * f5 + 1.8915178993145003 * f6
           - 5.801203960010585 * f7 - 0.4226823213237919 * f8 - 0.1521609496625161 * f9
           + 0.20136540080403034 * f10 + 0.02265179219836082 * f11)
    e5v = (0.01312004499419488 * f0 - 1.2251564463762044 * f5 - 0.4957589496572502 * f6
           + 1.6643771824549864 * f7 - 0.35032884874997366 * f8 + 0.3341791187130175 * f9
           + 0.08192320648511571 * f10 - 0.022355307863886294 * f11)
    return a + h * sa, a_dot + h * sv, e3a, e5a, e3v, e5v


def _initial_step(force, problem: EmdenProblem, f0: float, tol: float) -> float:
    """scipy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4) for DOP853."""
    a0, a1, s_max = problem.a0, problem.a1, problem.s_max
    sa, sv = ATOL + abs(a0) * tol, ATOL + abs(a1) * tol
    d0 = math.hypot(a0 / sa, a1 / sv) / math.sqrt(2.0)
    d1 = math.hypot(a1 / sa, f0 / sv) / math.sqrt(2.0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, s_max)
    # the change of (a', a'') over an Euler step of h0, per unit of s
    d2 = math.hypot(f0 / sa, (force(a0 + h0 * a1) - f0) / (h0 * sv)) / math.sqrt(2.0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, s_max)


def integrate(problem: EmdenProblem, tol: float = 1e-10) -> EmdenTrajectory:
    """Integrate the scale-factor ODE with touchdown event detection.

    Uses the embedded adaptive Runge-Kutta pair DOP853 with scipy's
    coefficients, step control and initial step, on plain floats: local
    error per step bounded by ``tol`` relative to the solution
    components.  If a step takes a(s) down through eps_a = 1e-8 * a0 the
    fate is TOUCHDOWN at the time S where the landing map of that step,
    (a, a') at s_k + h from the step's start s_k, meets eps_a: Newton's
    method on h, with the a' the landing map returns.  The samples then
    end at (S, a(S), a'(S)).

    When the step size falls below 10 ulp(s) on a falling trajectory
    (xi < 0, a' < 0) whose remaining fall time a/|a'| is at most
    FALL_TIME_RTOL times the last sample's s, the touchdown window is
    narrower than ulp(s) (S ~ 1e9) and the fate is TOUCHDOWN at that
    last sample.

    Raises
    ------
    StepCollapse
        If the step size collapses in any other state before touchdown
        or s_max while the last attempt's (a, a') is finite.
    NumericalError
        If a float operation divides by zero or overflows, as a**kappa can for kappa = 1e308,
        or if the step size collapses while the last attempt's (a, a') is not finite, as
        the stages' sums of a' are for a0 = a1 = 1e308.
    """
    if not (0.0 < tol <= 1e-3):
        raise ValidationError(f"tol must lie in (0, 1e-3], got {tol}")

    eps_a = TOUCHDOWN_FRACTION * problem.a0
    s_max = problem.s_max
    law, force = _law(problem), _force(problem)
    ulp, sqrt = math.ulp, math.sqrt
    s, a, a_dot = 0.0, problem.a0, problem.a1
    samples = [(s, a, a_dot)]
    nfev, rejected_steps = 2, 0
    fate, touchdown_s = Fate.GLOBAL_ON_HORIZON, None
    try:
        f = force(a)
        h = _initial_step(force, problem, f, tol)
        # Each max(x, y) below is written as the comparison it makes, y if y > x
        # else x, and each min(x, y) as y if y < x else x, which saves a call per
        # use and keeps the value max and min pick on ties and NaNs.
        while s < s_max:
            min_step = 10.0 * ulp(s)
            if min_step > h:
                h = min_step
            rejected = False
            while h >= min_step:
                s_new = s + h
                if s_max < s_new:
                    s_new = s_max
                h = s_new - s
                a_new, a_dot_new, e3a, e5a, e3v, e5v = _dop853_step(law, a, a_dot, f, h)
                nfev += _STAGE_EVALS
                size, size_new = abs(a), abs(a_new)
                sa = ATOL + (size_new if size_new > size else size) * tol
                size, size_new = abs(a_dot), abs(a_dot_new)
                sv = ATOL + (size_new if size_new > size else size) * tol
                e5 = (e5a / sa) ** 2 + (e5v / sv) ** 2
                e3 = (e3a / sa) ** 2 + (e3v / sv) ** 2
                # guard on the sum: 0.01 * e3 can underflow to 0 while e5 is 0
                norm = e5 + 0.01 * e3
                err = h * e5 / sqrt(2.0 * norm) if norm else 0.0
                if err < 1.0:
                    factor = SAFETY * err**ERROR_EXPONENT if err else MAX_FACTOR
                    factor = factor if factor < MAX_FACTOR else MAX_FACTOR
                    h *= (factor if factor < 1.0 else 1.0) if rejected else factor
                    break
                factor = SAFETY * err**ERROR_EXPONENT
                h *= factor if factor > MIN_FACTOR else MIN_FACTOR
                rejected = True
                rejected_steps += 1
            else:
                if not (math.isfinite(a_new) and math.isfinite(a_dot_new)):
                    raise NumericalError(
                        f"a(s) left the float range at xi={problem.xi}, kappa={problem.kappa}:"
                        f" the step from s={s} fell below 10 ulp(s) on a non-finite (a, a')"
                    )
                # For xi < 0 the fall only speeds up, so a falling trajectory reaches
                # a = 0 within a/|a'| of its last sample.  When that is a negligible
                # fraction of s, the step collapsed on a touchdown window narrower
                # than ulp(s): report the touchdown there.
                if not (problem.xi < 0.0 and a_dot < 0.0 and a / -a_dot <= FALL_TIME_RTOL * s):
                    raise StepCollapse(
                        f"step size fell below 10 ulp(s) at s={s} before touchdown or s_max"
                    )
                fate, touchdown_s = Fate.TOUCHDOWN, s
                break

            if a_new <= eps_a:  # a only falls through eps_a: every earlier sample lies above it
                # Newton on the landing map from s, clamped to the step, until the
                # update is within 4 ulp (scipy's Brent locator stops at 4 eps).
                t = s_new
                for _ in range(LANDING_NEWTON_MAX):
                    if not a_dot_new < 0.0:  # no downward slope to follow
                        break
                    t_next = min(max(t - (a_new - eps_a) / a_dot_new, s), s_new)
                    if abs(t_next - t) <= 4.0 * math.ulp(t):
                        break
                    t = t_next
                    a_new, a_dot_new, *_ = _dop853_step(law, a, a_dot, f, t - s)
                    nfev += _STAGE_EVALS
                samples.append((t, a_new, a_dot_new))
                fate, touchdown_s = Fate.TOUCHDOWN, t
                break

            s, a, a_dot = s_new, a_new, a_dot_new
            f = force(a)
            nfev += 1
            samples.append((s, a, a_dot))
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalError(f"a(s) left the float range at xi={problem.xi}, kappa={problem.kappa}: {exc}") from exc

    return EmdenTrajectory(
        problem=problem,
        samples=np.array(samples),
        fate=fate,
        touchdown_s=touchdown_s,
        nfev=nfev,
        rejected_steps=rejected_steps,
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
# Quadrature oracle: the energy integral, summed by one tanh-sinh rule.
# ---------------------------------------------------------------------------


class QuadratureBudgetExceeded(NumericalError):
    """Raised by no dp2 code; perfbench's self-tests and ``workloads.KNOWN_FAILURES`` name it."""


# Tanh-sinh rule on [0, 1] (Takahasi & Mori 1974): u = (1 + tanh(pi/2*sinh(t)))/2
# at t = k*TANH_SINH_H, |t| <= TANH_SINH_T, 145 nodes.  The outermost nodes lie
# 4e-62 from either end and weigh 4e-61, so the inverse square root at a' = 0
# loses a share of about 1e-30 beyond them.  At h = 1/10 the slowest fall the
# oracle sums directly is 1.4e-14 off; at |t| <= 3.5, a fall from rest 2e-12.
TANH_SINH_H = 1.0 / 16.0
TANH_SINH_T = 4.5


def _tanh_sinh_table(h: float, t_max: float):
    """ln(u), 1 - u and the weight of each node, from e = exp(-pi*sinh(t)) = (1 - u)/u.

    Each is formed from e directly, so ln(u) and 1 - u keep full relative
    precision at both ends, where u and 1 - u round to 0 or 1.
    """
    t = h * np.arange(-round(t_max / h), round(t_max / h) + 1)
    e = np.exp(-np.pi * np.sinh(t))
    gap = e / (1.0 + e)
    weight = h * np.pi * np.cosh(t) * gap / (1.0 + e)  # h * du/dt, du/dt = pi*cosh(t)*u*(1-u)
    return -np.log1p(e), gap, weight


LN_U, GAP, WEIGHT = _tanh_sinh_table(TANH_SINH_H, TANH_SINH_T)
WEIGHT2 = WEIGHT * WEIGHT

# Below this ratio z = |a1|/v of the start speed to the pull's speed scale,
# the fall from a0 at speed |a1| turns from |a1|- to pull-dominated within
# about z^2*a0 of its top, too close to the end for the rule's nodes to
# follow (a direct sum is 1.5e-16 off at z = 1/64, 3e-14 at z = 1/300);
# the oracle then sums the fall from the turning point instead.
SLOW_START = 1.0 / 16.0

LN_FLOAT_MAX = math.log(sys.float_info.max)


def _pull(ell, om: float):
    """(1 - exp(om*ell))/om, the integral of s^-kappa from e^ell to 1 (om = 1 - kappa); -ell at om = 0."""
    return -ell if om == 0.0 else np.expm1(om * ell) / -om


def _rule(y) -> float:
    """The rule's sum of WEIGHT/sqrt(y) over the nodes."""
    return float(np.sqrt(WEIGHT2 / y).sum())


@functools.lru_cache(maxsize=64)
def _fall_from_rest(om: float):
    """g(ln u) at the nodes for one kappa, and the fall from rest at height 1 and speed scale 1.

    Both depend on kappa alone, so a sweep over xi, a0 and a1 builds them once per kappa.
    """
    g = _pull(LN_U, om)
    g.flags.writeable = False
    return g, _rule(g)


def touchdown_time_quadrature(problem: EmdenProblem) -> float:
    """Touchdown time from the conserved-energy reduction, by tanh-sinh quadrature.

    Independent oracle for :func:`integrate`.  Energy conservation gives
    the speed on the fall from a height ``top`` where a' = a_top',

        a'(a)^2 = a_top'^2 + c * top^(1-kappa) * g(ln(a/top)),   c = 2|xi|/mu,

    with g the pull of :func:`_pull` (logarithmic at kappa = 1), and
    S = integral of da/|a'| down to a = 0.  Every integral below is one sum
    on a fixed 145-node tanh-sinh table (a = top*u, u in (0, 1)), built at
    import.  With v^2 = c*a0^(1-kappa) and z = |a1|/v:

    * a falling start (a1 < 0, z >= SLOW_START) sums
      S = (a0/|a1|) * integral of du/sqrt(1 + g(ln u)/z^2);
    * a rising start (z >= SLOW_START) climbs to the turning point a_t,
      ln(a_t/a0) = log1p((1-kappa)*z^2)/(1-kappa) (z^2 at kappa = 1), and
      falls back through a0 at speed -a1, so S = 2*F - S(a0, -a1) with F
      the fall from rest at a_t;
    * a slow start (z < SLOW_START) is F plus (rising) or minus (falling)
      the leg between a0 and a_t, whose nodes' distances below a_t are
      formed as fractions of a_t.

    The fall from rest is the table's sum of 1/sqrt(g), the same for every
    start with the same kappa, and is cached per kappa.  A call costs about
    five numpy operations on the 145 nodes, a slow start about ten.
    Against a 30-digit ``mpmath.quad`` of the same integral the test suite
    checks it to 1e-14 relative; the canonical case gives 8/3 to 1e-15.

    S is inf when it leaves the float range (a rising start whose turning
    point climbs past it), never NaN.  Supports xi < 0 with kappa in
    (0, 1]; raises NoTouchdown otherwise.
    """
    if problem.xi >= 0.0:
        raise NoTouchdown(
            f"xi={problem.xi}: the force never drives a to zero from a0 > 0"
        )
    if not (0.0 < problem.kappa <= 1.0):
        raise ValidationError(
            f"quadrature oracle supports kappa in (0, 1], got {problem.kappa}"
        )

    abs_xi, kappa, a0, a1 = -problem.xi, problem.kappa, problem.a0, problem.a1
    om = 1.0 - kappa
    g, fall = _fall_from_rest(om)
    # z^2 = a1^2/v^2, multiplied out from the left so that it can only overflow to inf
    rho = a1 * a1 * (0.5 * problem.mu) / abs_xi / a0**om
    slow = rho < SLOW_START**2
    if not slow:
        at_speed = _rule(1.0 + g / rho)  # the fall from a0 at speed |a1|, in units of a0/|a1|
        if a1 < 0.0:
            # |a1| factored out, so a1 = -1e200 gives S = 1e-200, not 1/sqrt(inf) = 0
            return a0 / -a1 * at_speed

    lift = rho if om == 0.0 else math.log1p(om * rho) / om  # ln(a_t/a0)
    # F = a_t/(sqrt(c)*a_t^((1-kappa)/2)) * fall = a0^((1+kappa)/2)/sqrt(c) * exp((1+kappa)/2 * lift),
    # formed in logs so that it stays finite where a_t alone would not; every
    # other term is scaled to it, so no two terms that left the float range meet
    half = 0.5 * (1.0 + kappa)
    ln_scale = half * (math.log(a0) + lift) - 0.5 * (math.log(abs_xi) + math.log(2.0 / problem.mu))
    if ln_scale > LN_FLOAT_MAX:
        return math.inf
    if not slow:
        # up to a_t, back down through a0 at speed -a1, then that fall: 2F - S(a0, -a1),
        # where a0/|a1| is F/fall * exp(-half*lift)/sqrt(rho)
        return math.exp(ln_scale) * (2.0 * fall - math.exp(-half * lift) / math.sqrt(rho) * at_speed)
    below = -math.expm1(-lift)  # (a_t - a0)/a_t
    if below < 1e-60:  # the leg adds ~sqrt(below) < 1e-30 of S; its nodes' g would underflow
        return math.exp(ln_scale) * fall
    leg = below * _rule(_pull(np.log1p(-below * GAP), om))
    return math.exp(ln_scale) * (fall + leg if a1 > 0.0 else fall - leg)
