"""Scale-factor dynamics: events, classification, energy, oracles."""

import math

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
from dp2.errors import ValidationError

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
    assert traj.a(1.0) == pytest.approx(3.0, abs=1e-12)
    assert traj.a_dot(1.0) == pytest.approx(2.0, abs=1e-12)


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
    assert traj.a(traj.touchdown_s) == pytest.approx(emden.TOUCHDOWN_FRACTION * a0, rel=1e-5)


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
    # A collapse on a rising trajectory is no touchdown.
    real = emden.solve_ivp

    def collapsing(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.status, sol.message = -1, "Required step size is less than spacing between numbers."
        return sol

    monkeypatch.setattr(emden, "solve_ivp", collapsing)
    with pytest.raises(StepCollapse):
        integrate(EmdenProblem(xi=1.0, kappa=0.5, s_max=2.0))
    with pytest.raises(StepCollapse):  # falling, but far from a = 0
        integrate(EmdenProblem(xi=-1.0, kappa=0.5, a1=-1.0, s_max=0.1))


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
