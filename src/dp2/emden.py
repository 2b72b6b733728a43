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
  threshold, S being where the crossing step's landing map meets it;
* :func:`touchdown_time_quadrature` - closed-form energy reduction
  a'^2 = a1^2 + 2*xi*(a^(1-kappa) - a0^(1-kappa))/(mu*(1-kappa)),
  whose time integral ds = -da/|a'(a)| is the regularized incomplete
  beta function for kappa < 1 and the scaled complementary error
  function for kappa = 1.

They share no code path and cross-check each other in the test suite.

Neither importing this module nor :func:`integrate` loads any scipy;
``scipy.special`` loads on the first call of
:func:`touchdown_time_quadrature` only.
"""

from __future__ import annotations

import enum
import math
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
        """Conserved energy; logarithmic potential for kappa = 1."""
        if self.kappa == 1.0:
            return 0.5 * np.asarray(a_dot) ** 2 - (self.xi / self.mu) * np.log(a)
        pw = 1.0 - self.kappa
        return 0.5 * np.asarray(a_dot) ** 2 - self.xi * np.asarray(a) ** pw / (self.mu * pw)


@dataclass(frozen=True)
class EmdenTrajectory:
    """Solution of an :class:`EmdenProblem`.

    ``samples`` holds the accepted integrator steps as rows (s, a, a'),
    ending at the touchdown state when ``fate`` is TOUCHDOWN.
    ``touchdown_s`` is then the touchdown time S, else None.
    :meth:`state` reads (a, a') at any s of the trajectory.
    ``energy_drift_max`` is the largest |E - E(0)| over the samples,
    relative to max(1, |E(0)|), and inf when an energy E leaves the
    float range.  ``nfev`` and ``rejected_steps`` count the
    right-hand-side evaluations and the rejected step attempts of the
    run that built the trajectory.
    """

    problem: EmdenProblem
    samples: np.ndarray
    fate: Fate
    touchdown_s: Optional[float]
    energy_drift_max: float
    nfev: int
    rejected_steps: int

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
        force = _force(self.problem)
        a, a_dot, *_ = _dop853_step(force, a, a_dot, force(a), s - s_k)
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


def _force(problem: EmdenProblem):
    """a'' as a function of a."""
    xi, mu, kappa = problem.xi, problem.mu, problem.kappa
    # Trial stages may probe below the touchdown level; pin the force
    # there so the stepper never sees a NaN from a <= 0.
    floor = 1e-3 * TOUCHDOWN_FRACTION * problem.a0

    def force(a):
        return xi / (mu * (a if a > floor else floor) ** kappa)

    return force


# DOP853, the 8(5,3) pair of Hairer, Norsett & Wanner (Solving ODEs I,
# sec. II.10), with the coefficients of scipy's dop853_coefficients module.
# _STAGES[i - 1] lists the nonzero (j, A[i, j]) of stage i = 1..11;
# _WEIGHTS lists (j, B[j], E3[j], E5[j]) for the stages that the solution
# and the two error estimates weigh.
_STAGES = (
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
)
_WEIGHTS = (
    (0, 0.054293734116568765, -0.18980075407240762, 0.01312004499419488),
    (5, 4.450312892752409, 4.450312892752409, -1.2251564463762044),
    (6, 1.8915178993145003, 1.8915178993145003, -0.4957589496572502),
    (7, -5.801203960010585, -5.801203960010585, 1.6643771824549864),
    (8, 0.3111643669578199, -0.4226823213237919, -0.35032884874997366),
    (9, -0.1521609496625161, -0.1521609496625161, 0.3341791187130175),
    (10, 0.20136540080403034, 0.20136540080403034, 0.08192320648511571),
    (11, 0.04471061572777259, 0.02265179219836082, -0.022355307863886294),
)
_STAGE_EVALS = len(_STAGES)  # right-hand-side evaluations per step; stage 0 is given

# Step-size control of scipy's explicit Runge-Kutta solvers (rk.py).
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1/(error estimator order 7 + 1)
ATOL = 1e-30  # keeps error control purely relative, even near a ~ 1e-8 * a0
LANDING_NEWTON_MAX = 16  # Newton iterations on the crossing step; 1-3 converge


def _dop853_step(force, a: float, a_dot: float, f: float, h: float):
    """One DOP853 step of length h from (a, a') with a'' = f there.

    Returns (a, a') at the step's end and the 3rd- and 5th-order error
    estimates of each component, (e3_a, e5_a, e3_adot, e5_adot), not yet
    multiplied by h.
    """
    vs, fs = [a_dot], [f]  # the stages' a' and a''
    for row in _STAGES:
        da = dv = 0.0
        for j, c in row:
            da += c * vs[j]
            dv += c * fs[j]
        vs.append(a_dot + dv * h)
        fs.append(force(a + da * h))
    sa = sv = e3a = e3v = e5a = e5v = 0.0
    for j, b, e3, e5 in _WEIGHTS:
        v, g = vs[j], fs[j]
        sa += b * v
        sv += b * g
        e3a += e3 * v
        e3v += e3 * g
        e5a += e5 * v
        e5v += e5 * g
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
    force = _force(problem)
    s, a, a_dot = 0.0, problem.a0, problem.a1
    samples = [(s, a, a_dot)]
    nfev, rejected_steps = 2, 0
    fate, touchdown_s = Fate.GLOBAL_ON_HORIZON, None
    try:
        f = force(a)
        h = _initial_step(force, problem, f, tol)
        while s < s_max:
            min_step = 10.0 * math.ulp(s)
            h = max(h, min_step)
            rejected = False
            while h >= min_step:
                s_new = min(s + h, s_max)
                h = s_new - s
                a_new, a_dot_new, e3a, e5a, e3v, e5v = _dop853_step(force, a, a_dot, f, h)
                nfev += _STAGE_EVALS
                sa = ATOL + max(abs(a), abs(a_new)) * tol
                sv = ATOL + max(abs(a_dot), abs(a_dot_new)) * tol
                e5 = (e5a / sa) ** 2 + (e5v / sv) ** 2
                e3 = (e3a / sa) ** 2 + (e3v / sv) ** 2
                err = h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3)) if e5 or e3 else 0.0
                if err < 1.0:
                    factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
                    h *= min(1.0, factor) if rejected else factor
                    break
                h *= max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
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
                    a_new, a_dot_new, *_ = _dop853_step(force, a, a_dot, f, t - s)
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

    samples = np.array(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed energy reads inf or nan
        e0 = float(problem.energy(problem.a0, problem.a1))
        energies = problem.energy(samples[:, 1], samples[:, 2])
        drift = float(np.max(np.abs(energies - e0))) / max(1.0, abs(e0))
    if not math.isfinite(drift):
        drift = math.inf

    return EmdenTrajectory(
        problem=problem,
        samples=samples,
        fate=fate,
        touchdown_s=touchdown_s,
        energy_drift_max=drift,
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
# Quadrature oracle: energy reduction, summed in closed form.
# ---------------------------------------------------------------------------


class QuadratureBudgetExceeded(NumericalError):
    """Raised by no dp2 code; perfbench's self-tests and ``workloads.KNOWN_FAILURES`` name it."""


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
