"""Blowup-time bound: closed form vs RK4 oracle, limits."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from dp2.errors import ValidationError
from dp2.riccati import (
    ESCAPE_THRESHOLD,
    BlowupCriterion,
    check,
    comparison_trajectory,
    escape_time,
)


def test_unbounded_point_closed_form():
    crit = BlowupCriterion(M=0.0, v0=-2.0)
    assert crit.applies
    assert check(crit) == pytest.approx(0.5, abs=1e-15)


def test_bounded_point_closed_form_vs_rk4():
    crit = BlowupCriterion(M=1.0, v0=-2.0)
    t_bound = check(crit)
    c = math.sqrt(1.5)
    expected = math.log((-2.0 - c) / (-2.0 + c)) / (2.0 * c)
    assert t_bound == pytest.approx(expected, abs=1e-15)
    assert t_bound == pytest.approx(0.582, abs=1e-3)
    rk4 = escape_time(crit, dt=1e-4)
    assert abs(rk4 - t_bound) / t_bound < 1e-3


def test_escape_time_is_zero_when_v0_already_escaped():
    # |v0| beyond the threshold: the trajectory escapes at its first row.
    for v0 in (-2.0 * ESCAPE_THRESHOLD, 2.0 * ESCAPE_THRESHOLD):
        assert escape_time(BlowupCriterion(M=0.0, v0=v0), dt=1e-4) == 0.0


def test_escape_time_none_when_trajectory_settles():
    assert escape_time(BlowupCriterion(M=1.0, v0=5.0), dt=1e-3, t_max=5.0) is None


def test_inconclusive_when_hypothesis_fails():
    crit = BlowupCriterion(M=2.0, v0=-1.0)
    assert not crit.applies
    assert check(crit) is None


def test_trajectory_escape_window_unbounded_point():
    traj = comparison_trajectory(BlowupCriterion(M=0.0, v0=-2.0), dt=1e-4)
    assert 0.499 <= traj[-1, 0] <= 0.501
    assert traj[-1, 1] < -1e6


def test_trajectory_row_cap_stops_an_endless_run():
    # settles at v = c, so t < inf kept the loop running forever
    with pytest.raises(ValidationError, match="cap"):
        comparison_trajectory(BlowupCriterion(M=1.0, v0=5.0), dt=1e-3, t_max=math.inf)


def test_trajectory_stable_equilibrium_above_threshold():
    crit = BlowupCriterion(M=1.0, v0=5.0)
    traj = comparison_trajectory(crit, dt=1e-3, t_max=5.0)
    v = traj[:, 1]
    assert np.all(np.diff(v) <= 0.0)  # monotone decay toward +c
    assert v[-1] > crit.c
    assert v[-1] == pytest.approx(crit.c, rel=1e-2)


def test_lattice_closed_form_vs_rk4_and_monotonicity():
    ms = np.linspace(0.0, 2.0, 10)
    offsets = np.linspace(0.5, 5.0, 10)
    bounds = np.empty((10, 10))
    for i, m in enumerate(ms):
        for j, d in enumerate(offsets):
            crit = BlowupCriterion(M=float(m), v0=float(-math.sqrt(1.5) * m - d))
            t_closed = check(crit)
            bounds[i, j] = t_closed
            t_rk4 = escape_time(crit, dt=1e-4)
            assert abs(t_rk4 - t_closed) / t_closed < 1e-3
    # decreasing in |v0| at fixed M (larger offset -> faster blowup)
    assert np.all(np.diff(bounds, axis=1) < 0.0)
    # increasing in M at fixed v0: the squeeze -v**2 + c**2 weakens
    v0 = -4.0
    fixed_v0 = [check(BlowupCriterion(M=float(m), v0=v0))
                for m in np.linspace(0.0, 3.0, 10)]
    assert np.all(np.diff(fixed_v0) > 0.0)


def test_small_m_limit_continuity():
    v0 = -2.0
    t0 = 0.5
    last = None
    for m in (1e-1, 1e-2, 1e-3):
        t_m = check(BlowupCriterion(M=m, v0=v0))
        gap = abs(t_m - t0)
        assert gap < 1e-3
        if last is not None:
            assert gap < last
        last = gap


def test_check_meets_mpmath_on_a_seeded_lattice():
    # The closed-form audit of check: M from 0 and 1e-300 up to 1e154 (c**2 finite), v0
    # from -1e300 to the four floats below -c.  Reference: atanh(c/|v0|)/c at 30 digits,
    # with the float c the criterion holds (1/|v0| at c = 0).  Bound: 2 ulp relative
    # (measured: 1.13 ulp); a T past the float range reads inf.
    import mpmath

    rng = np.random.default_rng(19)
    crits = []
    for m in [0.0, 1e-300, 1e154] + (10.0 ** rng.uniform(-300.0, 154.0, 60)).tolist():
        c = BlowupCriterion(M=m, v0=-1.0).c
        v0s = [-1e300] + (-(10.0 ** rng.uniform(math.log10(c) if c else -300.0, 300.0, 8))).tolist()
        v0s += (-c * (1.0 + 10.0 ** rng.uniform(-15.0, 0.0, 4))).tolist()
        edge = -c
        for _ in range(4):
            edge = math.nextafter(edge, -math.inf)
            v0s.append(edge)
        crits += [BlowupCriterion(M=m, v0=v0) for v0 in v0s if -1e300 <= v0 < -c]
    assert len(crits) > 1000
    eps = 2.0**-52
    with mpmath.workdps(30):
        for crit in crits:
            c, v0 = mpmath.mpf(crit.c), mpmath.mpf(crit.v0)
            t_ref = 1 / -v0 if c == 0 else mpmath.atanh(c / -v0) / c
            t = check(crit)
            if t_ref > sys.float_info.max:
                assert t == math.inf, crit
            else:
                assert abs(t - t_ref) <= 2 * eps * t_ref, crit


def test_rejects_negative_m():
    with pytest.raises(ValidationError):
        BlowupCriterion(M=-1.0, v0=-2.0)


def tuple_trajectory(crit, dt, t_max=10.0):
    """Reference: the comparison RK4 run kept as a list of (t, v) tuples."""
    t_bound = check(crit)
    horizon = t_max if t_bound is None else 10.0 * t_bound
    c2 = crit.c**2
    t, v = 0.0, crit.v0
    rows = [(t, v)]
    while abs(v) <= ESCAPE_THRESHOLD and t < horizon:
        k1 = -v * v + c2
        v2 = v + 0.5 * dt * k1
        k2 = -v2 * v2 + c2
        v3 = v + 0.5 * dt * k2
        k3 = -v3 * v3 + c2
        v4 = v + dt * k3
        k4 = -v4 * v4 + c2
        v = v + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t += dt
        rows.append((t, v))
    return np.asarray(rows)


@pytest.mark.parametrize("m,v0,dt,t_max", [
    (0.0, -2.0, 1e-4, 10.0), (1.0, -3.0, 1e-3, 10.0), (1.0, 5.0, 1e-3, 5.0),
    (2.0, -1.0, 1e-2, 3.0), (0.0, -2e6, 1e-4, 10.0),
])
def test_trajectory_is_the_tuple_runs_bit_for_bit(m, v0, dt, t_max):
    crit = BlowupCriterion(M=m, v0=v0)
    traj = comparison_trajectory(crit, dt, t_max)
    expected = tuple_trajectory(crit, dt, t_max)
    assert traj.shape == expected.shape and traj.dtype == expected.dtype
    assert traj.tobytes() == expected.tobytes()
    escaped = abs(expected[-1, 1]) > ESCAPE_THRESHOLD
    assert escape_time(crit, dt, t_max) == (float(expected[-1, 0]) if escaped else None)


def test_trajectory_keeps_two_floats_a_row():
    # a list of (t, v) tuples took about 112 bytes a row
    crit = BlowupCriterion(M=0.0, v0=-1.0)
    tracemalloc.start()
    try:
        traj = comparison_trajectory(crit, dt=1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) > 99_000
    assert peak < 40 * len(traj)
