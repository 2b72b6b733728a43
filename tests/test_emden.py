"""Scale-factor dynamics: events, classification, energy, oracles."""

import math
import re

import numpy as np
import pytest

from dp2 import emden
from dp2.emden import (
    Classification,
    EmdenProblem,
    Fate,
    NonPositiveA0,
    NoTouchdown,
    StepCollapse,
    UnsupportedKappa,
    classify,
    integrate,
    touchdown_time_quadrature,
)
from dp2.errors import NumericalError, ValidationError

CANONICAL = dict(xi=-1.0, kappa=0.5, mu=4.0, a0=1.0, a1=0.0)

# Independent value for the canonical touchdown time: the energy
# reduction gives a'^2 = 1 - sqrt(a), so S = int_0^1 da/sqrt(1-sqrt(a))
# = 2*B(2, 1/2) after w = sqrt(a).
S_CANONICAL = 2.0 * math.gamma(2.0) * math.gamma(0.5) / math.gamma(2.5)


def test_beta_function_value_is_eight_thirds():
    assert S_CANONICAL == pytest.approx(8.0 / 3.0, abs=1e-15)


def test_zero_forcing_gives_linear_motion():
    problem = EmdenProblem(xi=0.0, kappa=0.5, mu=4.0, a0=1.0, a1=2.0, s_max=1.0)
    traj = integrate(problem, tol=1e-10)
    assert traj.fate is Fate.GLOBAL_ON_HORIZON
    assert traj.state(1.0) == pytest.approx((3.0, 2.0), abs=1e-12)


@pytest.mark.parametrize("xi", [1.0, -1.0])
def test_trajectory_state_reads_both_components_in_one_call(xi):
    traj = integrate(EmdenProblem(xi=xi, kappa=0.5, a1=0.3, s_max=2.0))
    for s in np.linspace(0.0, traj.s_end, 37).tolist() + [traj.s_end * (1.0 + 1e-13)]:
        a, a_dot = traj.state(s)
        assert type(a) is float and type(a_dot) is float
        assert (a, a_dot) == traj.state(s)


@pytest.mark.parametrize("s", [0.5, 1.7])
def test_state_reads_every_trajectory(s):
    # state() once needed a dense output that only one caller asked integrate for
    kwargs = dict(xi=-1.0, kappa=0.5, a1=0.3)
    traj = integrate(EmdenProblem(s_max=2.0, **kwargs))
    a, a_dot = traj.state(s)
    _, a_end, a_dot_end = integrate(EmdenProblem(s_max=s, **kwargs)).samples[-1]
    assert (a, a_dot) == pytest.approx((a_end, a_dot_end), rel=1e-9)


# One problem per branch of integrate: kappa < 1 and kappa = 1 touchdown,
# xi > 0 growth, xi > 0 touchdown from a strongly falling start, and the
# step collapse on a touchdown narrower than ulp(S) (S = 1.727e9).
FATE_LATTICE = [
    (Fate.TOUCHDOWN, dict(xi=-1.0, kappa=0.5, a1=0.3, s_max=10.0)),
    (Fate.TOUCHDOWN, dict(xi=-0.7, kappa=1.0, a0=1.3, a1=-0.5, s_max=10.0)),
    (Fate.GLOBAL_ON_HORIZON, dict(xi=1.0, kappa=0.5, a1=0.3, s_max=20.0)),
    (Fate.TOUCHDOWN, dict(xi=0.5, kappa=0.5, a1=-1.5, s_max=20.0)),
    (Fate.TOUCHDOWN, dict(xi=-0.17229347302922404, kappa=0.88575712942259,
                          a0=1.202935475732981, a1=2.560212566385392, s_max=3.5e9)),
]


@pytest.mark.parametrize("fate, kwargs", FATE_LATTICE)
def test_dense_output_changes_no_result(fate, kwargs):
    # The dense output, state(), returns each sample bit for bit at its time and
    # is continuous across each sample boundary: one ulp of s before s_k it is
    # within one ulp of s times the slope (plus rounding) of sample k.
    problem = EmdenProblem(**kwargs)
    traj = integrate(problem)
    assert traj.fate is fate and len(traj.samples) > 10
    rows = traj.samples.tolist()
    for s, a, a_dot in rows:
        assert traj.state(s) == (a, a_dot)

    def force(a):
        return problem.xi / (problem.mu * a**problem.kappa)

    for (_, a0, a_dot0), (s, a, a_dot) in zip(rows, rows[1:]):
        a_left, a_dot_left = traj.state(math.nextafter(s, 0.0))
        ds = math.ulp(s)
        assert abs(a_left - a) <= 4.0 * (ds * max(abs(a_dot0), abs(a_dot)) + math.ulp(a0))
        assert abs(a_dot_left - a_dot) <= 4.0 * (ds * max(abs(force(a0)), abs(force(a)))
                                                 + math.ulp(a_dot0))


def test_run_counters_on_the_canonical_case():
    # 80 accepted and 53 rejected attempts of 11 evaluations, 79 FSAL evaluations
    # after accepted steps, 2 to start and one 11-evaluation landing for S
    traj = integrate(EmdenProblem(s_max=10.0, **CANONICAL))
    assert (len(traj.samples), traj.rejected_steps, traj.nfev) == (81, 53, 1555)
    assert traj.nfev == 2 + 11 * (80 + 53) + 79 + 11
    assert set(traj.summary()) == {"fate", "S", "energy_drift_max"}  # counters stay off artefacts


def _scipy_dop853(problem, tol):
    """(fate, S) from scipy's solve_ivp on the same problem, event and tolerances."""
    from scipy.integrate import solve_ivp

    eps_a = emden.TOUCHDOWN_FRACTION * problem.a0
    floor = 1e-3 * eps_a

    def rhs(s, y):
        a = y[0] if y[0] > floor else floor
        return (y[1], problem.xi / (problem.mu * a**problem.kappa))

    def touchdown(s, y):
        return y[0] - eps_a

    touchdown.terminal, touchdown.direction = True, -1.0
    sol = solve_ivp(rhs, (0.0, problem.s_max), (problem.a0, problem.a1), method="DOP853",
                    rtol=tol, atol=1e-30, events=touchdown)
    assert sol.status in (0, 1), sol.message
    if sol.status == 1:
        return Fate.TOUCHDOWN, float(sol.t_events[0][0])
    return Fate.GLOBAL_ON_HORIZON, None


def _sweep_lattice():
    return [EmdenProblem(xi=float(xi), kappa=float(kappa), s_max=20.0)
            for xi in np.linspace(-2.0, -0.2, 16) for kappa in np.linspace(0.2, 1.0, 16)]


def _random_problems():
    rng = np.random.default_rng(20)
    return [EmdenProblem(xi=float(rng.uniform(-3.0, 3.0)), kappa=1.0 - float(rng.uniform(0.0, 1.0)),
                         a0=float(rng.uniform(0.3, 3.0)), a1=float(rng.uniform(-3.0, 3.0)),
                         s_max=float(rng.choice([5.0, 10.0, 20.0, 50.0])))
            for _ in range(300)]


@pytest.mark.parametrize("problems", [_sweep_lattice, _random_problems])
@pytest.mark.parametrize("tol, s_rtol", [(1e-8, 1e-9), (1e-10, 1e-11)])
def test_integrate_matches_scipy_dop853(problems, tol, s_rtol):
    # The float stepper is scipy's DOP853 method: same fate everywhere, and
    # S within rounding-driven step-sequence noise, far below tol.
    for problem in problems():
        traj = integrate(problem, tol=tol)
        fate, s_ref = _scipy_dop853(problem, tol)
        assert traj.fate is fate, problem
        if fate is Fate.TOUCHDOWN:
            assert abs(traj.touchdown_s - s_ref) <= s_rtol * s_ref, problem


def test_canonical_touchdown_event_time():
    problem = EmdenProblem(s_max=10.0, **CANONICAL)
    traj = integrate(problem, tol=1e-10)
    assert traj.fate is Fate.TOUCHDOWN
    assert traj.touchdown_s == pytest.approx(8.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize(
    "xi, kappa, a0, a1",
    [(-1.0, 0.5, 1.0, 0.0), (-2.3, 0.35, 1.7, 0.9), (-0.7, 1.0, 1.3, -0.5)],
)
def test_touchdown_s_is_the_event_root(xi, kappa, a0, a1):
    # S is where the dense output meets the event level, not a point before it
    # (a bisection that stopped short left a(S) 1e-2 relative above the level).
    traj = integrate(EmdenProblem(xi=xi, kappa=kappa, a0=a0, a1=a1, s_max=10.0))
    assert traj.fate is Fate.TOUCHDOWN
    assert traj.state(traj.touchdown_s)[0] == pytest.approx(emden.TOUCHDOWN_FRACTION * a0, rel=1e-5)


def test_quadrature_oracle_beta_value():
    problem = EmdenProblem(s_max=10.0, **CANONICAL)
    assert touchdown_time_quadrature(problem) == pytest.approx(S_CANONICAL, abs=1e-8)


def test_quadrature_monotone_in_mu():
    s4 = touchdown_time_quadrature(EmdenProblem(s_max=10.0, **CANONICAL))
    s1 = touchdown_time_quadrature(
        EmdenProblem(xi=-1.0, kappa=0.5, mu=1.0, a0=1.0, a1=0.0, s_max=10.0)
    )
    assert s1 < s4  # mu = 1 is the stronger pull


def test_quadrature_rejects_repulsive_forcing():
    with pytest.raises(NoTouchdown):
        touchdown_time_quadrature(
            EmdenProblem(xi=1.0, kappa=0.5, mu=4.0, a0=1.0, a1=0.0)
        )


@pytest.mark.parametrize(
    "xi,expected",
    [
        (-1.0, Classification.BLOWUP_FINITE_TIME),
        (1.0, Classification.GLOBAL_GROWING),
        (0.0, Classification.LINEAR),
    ],
)
def test_classification_dichotomy(xi, expected):
    assert classify(EmdenProblem(xi=xi, kappa=0.5)) is expected


def test_classification_linear_ignores_kappa():
    assert classify(EmdenProblem(xi=0.0, kappa=7.3)) is Classification.LINEAR


def test_classification_rejects_large_kappa():
    with pytest.raises(UnsupportedKappa):
        classify(EmdenProblem(xi=-1.0, kappa=1.5))


def test_rejects_nonpositive_a0():
    with pytest.raises(NonPositiveA0):
        EmdenProblem(xi=-1.0, kappa=0.5, a0=-1.0)
    with pytest.raises(NonPositiveA0):
        EmdenProblem(xi=-1.0, kappa=0.5, a0=0.0)


def test_rejects_bad_mu_and_tol():
    with pytest.raises(ValidationError):
        EmdenProblem(xi=-1.0, kappa=0.5, mu=2.0)
    with pytest.raises(ValidationError):
        integrate(EmdenProblem(xi=-1.0, kappa=0.5), tol=1e-2)


def test_energy_conservation_random_problems():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        problem = EmdenProblem(
            xi=rng.uniform(-2.0, 2.0),
            kappa=rng.uniform(1e-3, 1.0),
            mu=4.0,
            a0=rng.uniform(0.5, 2.0),
            a1=rng.uniform(-1.0, 1.0),
            s_max=5.0,
        )
        traj = integrate(problem, tol=1e-12)
        worst = max(worst, traj.energy_drift_max)
    assert worst < 1e-8


def test_energy_conservation_log_potential():
    problem = EmdenProblem(xi=-1.0, kappa=1.0, mu=4.0, a0=1.0, a1=0.0, s_max=20.0)
    traj = integrate(problem, tol=1e-12)
    assert traj.fate is Fate.TOUCHDOWN
    assert traj.energy_drift_max < 1e-8


def test_oracle_agreement_random_touchdowns():
    rng = np.random.default_rng(202)
    for _ in range(20):
        kwargs = dict(
            xi=rng.uniform(-2.0, -0.1),
            kappa=rng.uniform(0.05, 1.0),
            mu=4.0,
            a0=rng.uniform(0.5, 2.0),
            a1=rng.uniform(-1.0, 1.0),
        )
        s_quad = touchdown_time_quadrature(EmdenProblem(s_max=1.0, **kwargs))
        traj = integrate(EmdenProblem(s_max=2.0 * s_quad, **kwargs), tol=1e-10)
        assert traj.fate is Fate.TOUCHDOWN
        assert abs(traj.touchdown_s - s_quad) / s_quad < 1e-4


def test_turning_point_case_agrees_with_oracle():
    # a1 > 0 with xi < 0: rise, turn, fall; the oracle splits the integral.
    kwargs = dict(xi=-0.8, kappa=0.7, mu=4.0, a0=1.2, a1=0.9)
    s_quad = touchdown_time_quadrature(EmdenProblem(s_max=1.0, **kwargs))
    traj = integrate(EmdenProblem(s_max=2.0 * s_quad, **kwargs), tol=1e-11)
    assert traj.touchdown_s == pytest.approx(s_quad, rel=1e-6)
    assert np.max(traj.samples[:, 1]) > kwargs["a0"]  # actually rose first


def _assert_oracle_matches_integrate(**kwargs):
    s_quad = touchdown_time_quadrature(EmdenProblem(s_max=1.0, **kwargs))
    traj = integrate(EmdenProblem(s_max=2.0 * s_quad, **kwargs), tol=1e-10)
    assert traj.fate is Fate.TOUCHDOWN
    assert abs(traj.touchdown_s - s_quad) / s_quad < 1e-4
    return s_quad


def test_oracle_small_kappa_falling_start():
    # Small p = kappa/(1-kappa) with a falling start: the (w0 - v^2)^p
    # endpoint factor exhausted the budget of an adaptive-Simpson oracle.
    s = _assert_oracle_matches_integrate(
        xi=-1.5580054077029755, kappa=0.11959143384416046, mu=4.0,
        a0=2.813871414100901, a1=-2.8556900354709285,
    )
    assert s == pytest.approx(0.930048336, rel=1e-8)


def test_oracle_kappa_near_one_falling_start():
    # p = kappa/(1-kappa) ~ 1.4e4: an adaptive-Simpson oracle returned 0.0 here.
    s = _assert_oracle_matches_integrate(
        xi=-1.607306286064532, kappa=0.9999299284855272, mu=4.0,
        a0=1.1223697210109371, a1=-1.433772427366471,
    )
    assert s == pytest.approx(0.67915565, rel=1e-7)


def test_oracle_small_kappa_lattice():
    # Small-kappa, falling-start box; an adaptive-Simpson oracle failed on 7 of these cells.
    for xi in np.linspace(-3.0, -0.1, 4):
        for kappa in np.linspace(0.05, 0.3, 4):
            for a1 in np.linspace(-3.0, -0.05, 4):
                _assert_oracle_matches_integrate(
                    xi=float(xi), kappa=float(kappa), mu=4.0, a0=2.0, a1=float(a1)
                )


def test_touchdown_narrower_than_ulp_of_s():
    # S = 1.727e9: the step collapsed 7e-10 relative below S, a/|a'| = 6.6e-6
    # from a = 0, and integrate raised StepCollapse.
    s = _assert_oracle_matches_integrate(
        xi=-0.17229347302922404, kappa=0.88575712942259, mu=4.0,
        a0=1.202935475732981, a1=2.560212566385392,
    )
    assert s == pytest.approx(1.727345e9, rel=1e-6)


def test_step_collapse_off_a_falling_trajectory_still_raises(monkeypatch):
    # A collapse on a rising trajectory is no touchdown.  After the first step
    # every error estimate reads 1/h, which no step size h can bring below
    # tol, so each attempt is rejected until h falls below 10 ulp(s).
    real = emden._dop853_step

    def collapse_after_one_step(problem):
        calls = []

        def stepper(*args):
            calls.append(args)
            a, a_dot, *errors = real(*args)
            return (a, a_dot, *errors) if len(calls) == 1 else (a, a_dot, *[1.0 / args[-1]] * 4)

        monkeypatch.setattr(emden, "_dop853_step", stepper)
        with pytest.raises(StepCollapse, match="before touchdown or s_max"):
            integrate(problem)
        assert len(calls) > 2

    collapse_after_one_step(EmdenProblem(xi=1.0, kappa=0.5, s_max=2.0))
    # falling, but far from a = 0
    collapse_after_one_step(EmdenProblem(xi=-1.0, kappa=0.5, a1=-1.0, s_max=0.1))


@pytest.mark.parametrize("xi, kappa, cause", [
    (-1.0, 1e308, ZeroDivisionError),  # a**kappa underflows to 0 once a < 1
    (1.0, 1e308, OverflowError),  # and overflows once a > 1
    (-1.0, -1e4, OverflowError),
])
def test_float_range_failures_raise_a_numerical_error_naming_kappa(xi, kappa, cause):
    # these inputs pass validation, and the bare float error escaped integrate
    with pytest.raises(NumericalError, match=re.escape(f"kappa={kappa}")) as info:
        integrate(EmdenProblem(xi=xi, kappa=kappa))
    assert isinstance(info.value.__cause__, cause)


def test_an_energy_outside_the_float_range_reads_an_infinite_drift():
    # under the suite's filterwarnings = error this raised numpy's overflow
    # RuntimeWarning; outside it the drift read nan
    traj = integrate(EmdenProblem(xi=-1e308, kappa=0.5, a0=1e300, a1=-1e300))
    assert traj.fate is Fate.TOUCHDOWN and traj.touchdown_s == 0.99999999000000073
    assert traj.energy_drift_max == math.inf
    with pytest.raises(NumericalError, match=re.escape("the energy of a(s) left the float range")):
        traj.summary()


def test_step_collapse_outside_the_float_range_names_the_float_range():
    # every step's (a, a') from a0 = a1 = 1e308 is nan; this raised StepCollapse
    with pytest.raises(NumericalError, match=re.escape("a(s) left the float range")) as info:
        integrate(EmdenProblem(xi=1.0, kappa=0.5, a0=1e308, a1=1e308))
    assert not isinstance(info.value, StepCollapse)


@pytest.mark.parametrize("a1", [0.7, -0.7])
def test_oracle_log_potential_both_slopes(a1):
    kwargs = dict(xi=-1.0, mu=4.0, a0=1.3, a1=a1)
    s_log = _assert_oracle_matches_integrate(kappa=1.0, **kwargs)
    # kappa -> 1 from below must reach the logarithmic value continuously.
    s_near = touchdown_time_quadrature(EmdenProblem(kappa=1.0 - 1e-12, **kwargs))
    assert s_near == pytest.approx(s_log, rel=1e-8)


def test_convexity_along_samples():
    grow = integrate(EmdenProblem(xi=1.0, kappa=0.5, s_max=5.0), tol=1e-10)
    assert np.all(np.diff(grow.samples[:, 2]) >= -1e-12)  # a_dot nondecreasing
    fall = integrate(EmdenProblem(xi=-1.0, kappa=0.5, s_max=5.0), tol=1e-10)
    assert np.all(np.diff(fall.samples[:, 2]) <= 1e-12)


def test_sample_invariants():
    traj = integrate(EmdenProblem(s_max=10.0, **CANONICAL), tol=1e-10)
    s = traj.samples[:, 0]
    assert np.all(np.diff(s) > 0.0)
    assert np.all(traj.samples[:, 1] > 0.0)


def test_tolerance_tightening_improves_event_time():
    # Order sanity, not a strict power law: three decades of tol must
    # buy at least a 4x deviation reduction (or hit the noise floor).
    kwargs = dict(xi=-2.0, kappa=0.3, mu=4.0, a0=0.6, a1=1.4)
    s_ref = touchdown_time_quadrature(EmdenProblem(s_max=1.0, **kwargs))
    problem = EmdenProblem(s_max=2.0 * s_ref, **kwargs)
    err_coarse = abs(integrate(problem, tol=1e-3).touchdown_s - s_ref) / s_ref
    err_fine = abs(integrate(problem, tol=1e-6).touchdown_s - s_ref) / s_ref
    assert err_fine <= max(0.25 * err_coarse, 1e-9)


def test_global_growth_for_positive_xi():
    traj = integrate(EmdenProblem(xi=1.0, kappa=0.5, s_max=50.0), tol=1e-10)
    assert traj.fate is Fate.GLOBAL_ON_HORIZON
    a = traj.samples[:, 1]
    assert a[-1] > 10.0 * a[0]  # unbounded growth, sampled
    # first steps from a1 = 0 sit below float resolution of a
    assert np.all(np.diff(a) >= 0.0)


def test_summary_emission():
    traj = integrate(EmdenProblem(s_max=10.0, **CANONICAL), tol=1e-10)
    summary = traj.summary()
    assert summary["fate"] == "TouchdownAt"
    assert summary["S"] == pytest.approx(8.0 / 3.0, rel=1e-6)
    assert summary["energy_drift_max"] < 1e-8
