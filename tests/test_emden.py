"""Scale-factor dynamics: events, classification, energy, oracles."""

import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from oracles import dop853_step, touchdown_time_mpmath

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


def _step_inputs(count=3000, seed=24):
    """Seeded (problem, a, a', h): xi of both signs and 0, kappa in (0, 1], a down to
    1e-12 * a0, below the force floor, h from 1e-20 to 1, and some a' = -0.0."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        xi = (0.0, float(rng.uniform(-3.0, 3.0)))[i % 4 != 0]
        a0 = float(rng.uniform(0.3, 3.0))
        problem = EmdenProblem(xi=xi, kappa=1.0 - float(rng.uniform(0.0, 1.0)), a0=a0)
        a = a0 * 10.0 ** float(rng.uniform(-12.0, 0.0))
        a_dot = (-0.0, float(rng.uniform(-3.0, 3.0)))[i % 3 != 0]
        yield problem, a, a_dot, 10.0 ** float(rng.uniform(-20.0, 0.0))


def test_step_is_the_table_driven_dop853_step_bit_for_bit():
    # The step's literals, order of summation and inlined force law, against
    # scipy's tables driven by the law's one definition, _force: a mistyped
    # coefficient, a reordered sum or a stage's law that strays from _force's
    # changes the last bits here.
    floored = 0
    for problem, a, a_dot, h in _step_inputs():
        force = emden._force(problem)
        got = emden._dop853_step(emden._law(problem), a, a_dot, force(a), h)
        want = dop853_step(force, a, a_dot, force(a), h)
        assert [x.hex() for x in got] == [x.hex() for x in want], (problem, a, a_dot, h)
        floored += a < 1e-11 * problem.a0
    assert floored > 100  # enough starts below the force floor


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


def _mpmath_cells():
    """(xi, kappa, mu, a0, a1): fixed corners, then seeded draws, 16 in all."""
    cells = [
        (-1.0, 0.5, 4.0, 1.0, 0.0),  # canonical, S = 8/3
        (-1.5, 0.05, 4.0, 2.0, -3.0),  # the adaptive-Simpson oracle's budget corner
        # betaincc's route was 1.2e-12 off here
        (-1.1772919564781863, 0.9994167416397947, 4.0, 1.9227726400930245, -0.6233612243472906),
        (-1.0, 1.0, 4.0, 1.3, 0.7),
        (-1.0, 1.0, 4.0, 1.3, -0.7),
        (-1.0, 1.0 - 1e-12, 4.0, 1.3, 0.7),
        (-1.0, 1.0 - 1e-12, 4.0, 1.3, -0.7),
        (-2.0, 0.3, 1.0, 1.5, -0.7),
        (-0.8, 0.7, 1.0, 1.2, 0.9),
        (-2.5, 0.02, 4.0, 0.4, 2.5),
        # the slowest fall summed directly, z = |a1|/v = 0.063 (1.4e-14 off at h = 1/10)
        (-1.0, 1.0, 4.0, 1.0, -0.0445),
        # slow starts: a direct sum of the fall from a0 is 2e-14 off at these
        (-1.0, 0.5, 4.0, 1.0, 1e-3),
        (-1.0, 0.5, 4.0, 1.0, -1e-3),
        (-1.0, 1.0, 1.0, 0.5, -1e-6),
    ]
    rng = np.random.default_rng(12)
    while len(cells) < 16:
        cells.append((rng.uniform(-3.0, -0.1), rng.uniform(0.01, 1.0), float(rng.choice([1.0, 4.0])),
                      rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0)))
    return cells


@pytest.mark.parametrize("xi,kappa,mu,a0,a1", _mpmath_cells())
def test_quadrature_matches_mpmath_at_30_digits(xi, kappa, mu, a0, a1):
    # a third route to S, sharing no code with either oracle: mpmath.quad at 30 digits
    s = touchdown_time_quadrature(EmdenProblem(xi=xi, kappa=kappa, mu=mu, a0=a0, a1=a1))
    reference = touchdown_time_mpmath(xi, kappa, mu, a0, a1)
    assert abs(s - reference) <= 1e-14 * reference  # pytest.approx would allow 1e-12 absolute too


@pytest.mark.parametrize("xi,kappa,mu,a0,a1", _mpmath_cells())
def test_touchdown_event_matches_mpmath_less_the_tail(xi, kappa, mu, a0, a1):
    # integrate stops at a = 1e-8*a0, which it reaches 1.9e-10 to 9.6e-9 relative
    # before a = 0: mpmath's S less the fall from there, at 30 digits, pins the event
    import mpmath

    reference = touchdown_time_mpmath(xi, kappa, mu, a0, a1)
    s = integrate(EmdenProblem(xi=xi, kappa=kappa, mu=mu, a0=a0, a1=a1, s_max=2.0 * reference)).touchdown_s
    with mpmath.workdps(30):
        xi, kappa, mu, a0, a1 = (mpmath.mpf(x) for x in (xi, kappa, mu, a0, a1))
        c, om = -2 * xi / mu, 1 - kappa

        def speed(a):  # a'**2 = a1**2 + c*(a0**om - a**om)/om, c*log(a0/a) at om = 0
            pull = mpmath.log(a0 / a) if om == 0 else (a0**om - a**om) / om
            return mpmath.sqrt(a1**2 + c * pull)

        tail = float(mpmath.quad(lambda a: 1 / speed(a), [0, mpmath.mpf("1e-8") * a0]))
    assert abs(s - (reference - tail)) <= 5e-11 * reference


@pytest.mark.parametrize("xi,kappa,a1", [
    (-1.0, 0.5, 1e200),  # was nan: a1**2 overflowed inside betaincc
    (-0.01, 0.999, 3.0),  # raised OverflowError: the turning point is e^1030 * a0
    (-1e-300, 0.5, 1.0),  # raised OverflowError
    (-1.0, 1.0, 1e200),  # erfcx gave inf already
])
def test_quadrature_past_the_float_range_is_inf(xi, kappa, a1):
    assert touchdown_time_quadrature(EmdenProblem(xi=xi, kappa=kappa, a1=a1)) == math.inf


@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_quadrature_fast_fall_factors_out_a1(kappa):
    # was nan at kappa = 0.5; S = a0/|a1| to first order once |a1| dwarfs the pull
    s = touchdown_time_quadrature(EmdenProblem(xi=-1.0, kappa=kappa, a1=-1e200))
    assert abs(s - 1e-200) <= 1e-15 * 1e-200


def test_quadrature_never_returns_nan():
    extremes = [5e-324, 1e-300, 1e-3, 1.0, 1e300, 1.7e308]
    for xi, a0, a1, kappa, mu in itertools.product(
        extremes, extremes, [0.0, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300],
        [1e-300, 0.5, 1.0 - 1e-12, 1.0], [1.0, 4.0],
    ):
        s = touchdown_time_quadrature(EmdenProblem(xi=-xi, kappa=kappa, mu=mu, a0=a0, a1=a1))
        assert s >= 0.0, (xi, a0, a1, kappa, mu)


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


def test_energy_drift_runs_continuously_through_kappa_1():
    # the potential carried a constant 1/(mu*(1-kappa)) that the drift was divided by:
    # this orbit read 4.8e-15, 1.2e-16 and 1.2e-16 at the first three kappas and 1.2e-9 at 1
    drifts = [integrate(EmdenProblem(xi=-1.0, kappa=kappa, a1=0.0, s_max=20.0)).energy_drift_max
              for kappa in (1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0)]
    assert max(drifts) <= 1.1 * min(drifts)
    assert 2e-10 < min(drifts) < 3e-10


def _potential_mpmath(problem, a):
    """V(a) = -(xi/mu) * integral of s^-kappa from a0 to a at 30 digits, and |a*V'(a)|."""
    import mpmath

    with mpmath.workdps(30):
        xi, mu, kappa, a0, a = (mpmath.mpf(x) for x in (problem.xi, problem.mu, problem.kappa, problem.a0, a))
        om, ell = 1 - kappa, mpmath.log(a / a0)
        v = -(xi / mu) * (ell if om == 0 else a0**om * mpmath.expm1(om * ell) / om)
        return v, abs(xi / mu) * a**om


def test_potential_meets_mpmath_on_a_seeded_lattice():
    # The closed-form audit of energy's potential (xi/mu) * a0^(1-kappa) * _pull(ln(a/a0), 1-kappa):
    # kappa near 1 and kappa <= 0, a/a0 from 1e-8 to 1e8, xi and a0 over 200 and 24 decades.
    # Bound: 32 ulp of |V| + |a*V'(a)|, the second term being what one ulp of a moves V
    # by (measured: 12.7 ulp, at kappa = -4 and a/a0 = 1e8, where expm1's argument is 92).
    # 1 - kappa is exact on this lattice; where it rounds, the rounding moves V by up to
    # ulp(1-kappa)/2 * |ln a| * |V| more.  Cells whose |V| + |a*V'(a)| leaves [1e-300, 1e300]
    # are skipped: there the factors a0^(1-kappa) and _pull leave the normal range.
    rng = np.random.default_rng(36)
    kappas = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1.0 - 1e-12, 1.0 + 1e-9,
              1.0 - 1e-6, 0.0, -(2.0**-40), -0.5, -1.0, -4.0]
    kappas += (-rng.integers(1, 256, 5) / 64.0).tolist()
    kappas += (1.0 + rng.choice((-1.0, 1.0), 5) * 10.0 ** rng.uniform(-16.0, -0.5, 5)).tolist()
    eps, checked = 2.0**-52, 0
    for kappa in kappas:
        for _ in range(3):
            problem = EmdenProblem(xi=float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-100.0, 100.0)),
                                   kappa=kappa, mu=float(rng.choice((1.0, 4.0))),
                                   a0=float(10.0 ** rng.uniform(-12.0, 12.0)))
            ratios = np.concatenate(([1e-8, 1e8, 1.0], 10.0 ** rng.uniform(-8.0, 8.0, 12),
                                     1.0 + rng.choice((-1.0, 1.0), 5) * 10.0 ** rng.uniform(-16.0, -1.0, 5)))
            a = problem.a0 * ratios
            with np.errstate(over="ignore", invalid="ignore"):
                pot = problem.energy(a, np.zeros_like(a))
            for a_k, got in zip(a.tolist(), pot.tolist()):
                v, slope = _potential_mpmath(problem, a_k)
                unit = abs(v) + slope
                if 1e-300 < unit < 1e300:
                    assert abs(got - v) <= 32 * eps * unit, (problem, a_k)
                    checked += 1
    assert checked > 1000


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


# The sweep lattice of tests/test_cli.py's sweep.csv pin, as integrate's inputs: both
# signs of xi and a1, kappa < 1 and kappa = 1, touchdown and global cells.
PIN_LATTICE = [dict(xi=xi, kappa=kappa, a1=a1, s_max=20.0)
               for xi, kappa, a1 in itertools.product(np.linspace(-1.0, 1.0, 4).tolist(),
                                                      (0.5, 1.0), (-1.5, 0.0, 1.5))]
FLOAT_RANGE_MAGNITUDES = (0.0, 1e-320, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e300, 1.7e308)


def _float_range_inputs(count=50, seed=29):
    """Seeded problems with xi, a0, a1 and every other kappa drawn from +-FLOAT_RANGE_MAGNITUDES."""
    rng = np.random.default_rng(seed)

    def draw():
        return float(rng.choice((-1.0, 1.0)) * rng.choice(FLOAT_RANGE_MAGNITUDES))

    for i in range(count):
        kappa = draw() if i % 2 else float(rng.uniform(0.0, 1.0))
        yield dict(xi=draw(), kappa=kappa, mu=float(rng.choice((1.0, 4.0))), a0=abs(draw()),
                   a1=draw(), s_max=float(rng.choice((1e-8, 1.0, 10.0))))


def _outcome(kwargs, tol):
    """integrate's whole result as bytes, or the type and message of the error it raised."""
    try:
        traj = integrate(EmdenProblem(**kwargs), tol=tol)
    except (ValidationError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    head = (traj.fate.value, traj.touchdown_s, traj.nfev, traj.rejected_steps, traj.energy_drift_max)
    return repr(head).encode() + traj.samples.tobytes()


@pytest.mark.parametrize("inputs, digest", [
    (PIN_LATTICE, "c258a3f7f0040a403838eaa44cfdf98ff40457a6fe84426c43f350500b9e8294"),
    (list(_float_range_inputs()), "976c4cddf959a16d67708e65a73a45e296b6406ac1a21203f9fe1627f8f64622"),
], ids=["lattice", "float_range"])
def test_integrate_results_are_pinned_bit_for_bit(inputs, digest):
    # Recorded before integrate's step inlined the force law and its drift became
    # lazy: any change to a sample, fate, S, a counter, the drift or an error shows.
    # The drift digits were re-recorded when the potential came to be measured from
    # a0 through _pull and the drift scaled by max a'^2/2; with the drift left out
    # the digests (4ef4c5c4... and 618ef33f...) did not change.
    outcomes = [_outcome(kwargs, tol) for tol in (1e-10, 1e-8) for kwargs in inputs]
    assert hashlib.sha256(b"|".join(outcomes)).hexdigest() == digest
