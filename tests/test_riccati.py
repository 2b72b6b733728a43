"""Blowup-time bound: closed form vs RK4 oracle, limits, positivity factor."""

import math

import numpy as np
import pytest

from dp2.errors import ValidationError
from dp2.riccati import (
    ESCAPE_THRESHOLD,
    BlowupCriterion,
    EmptyHistory,
    check,
    comparison_trajectory,
    density_positivity_factor,
    escape_time,
)
from dp2.selfsim import SystemParams


def test_unbounded_point_closed_form():
    result = check(BlowupCriterion(M=0.0, v0=-2.0))
    assert result.applies
    assert result.t_bound == pytest.approx(0.5, abs=1e-15)


def test_bounded_point_closed_form_vs_rk4():
    crit = BlowupCriterion(M=1.0, v0=-2.0)
    result = check(crit)
    c = math.sqrt(1.5)
    expected = math.log((-2.0 - c) / (-2.0 + c)) / (2.0 * c)
    assert result.t_bound == pytest.approx(expected, abs=1e-15)
    assert result.t_bound == pytest.approx(0.582, abs=1e-3)
    rk4 = escape_time(crit, dt=1e-4)
    assert abs(rk4 - result.t_bound) / result.t_bound < 1e-3


def test_escape_time_is_zero_when_v0_already_escaped():
    # |v0| beyond the threshold: the trajectory escapes at its first row.
    for v0 in (-2.0 * ESCAPE_THRESHOLD, 2.0 * ESCAPE_THRESHOLD):
        assert escape_time(BlowupCriterion(M=0.0, v0=v0), dt=1e-4) == 0.0


def test_escape_time_none_when_trajectory_settles():
    assert escape_time(BlowupCriterion(M=1.0, v0=5.0), dt=1e-3, t_max=5.0) is None


def test_inconclusive_when_hypothesis_fails():
    result = check(BlowupCriterion(M=2.0, v0=-1.0))
    assert not result.applies
    assert result.t_bound is None


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
            t_closed = check(crit).t_bound
            bounds[i, j] = t_closed
            t_rk4 = escape_time(crit, dt=1e-4)
            assert abs(t_rk4 - t_closed) / t_closed < 1e-3
    # decreasing in |v0| at fixed M (larger offset -> faster blowup)
    assert np.all(np.diff(bounds, axis=1) < 0.0)
    # increasing in M at fixed v0: the squeeze -v**2 + c**2 weakens
    v0 = -4.0
    fixed_v0 = [check(BlowupCriterion(M=float(m), v0=v0)).t_bound
                for m in np.linspace(0.0, 3.0, 10)]
    assert np.all(np.diff(fixed_v0) > 0.0)


def test_small_m_limit_continuity():
    v0 = -2.0
    t0 = 0.5
    last = None
    for m in (1e-1, 1e-2, 1e-3):
        t_m = check(BlowupCriterion(M=m, v0=v0)).t_bound
        gap = abs(t_m - t0)
        assert gap < 1e-3
        if last is not None:
            assert gap < last
        last = gap


def test_positivity_factor_identity_and_closed_form():
    params = SystemParams(k1=1.0, k2=1.0, k3=1.0)
    ts = np.linspace(0.0, 1.0, 11)
    zero = np.column_stack([ts, np.zeros_like(ts)])
    assert density_positivity_factor(zero, params) == 1.0
    const = np.column_stack([ts, np.full_like(ts, 0.7)])
    expected = math.exp(-(1.0 + 1.0) * 0.7 * 1.0)
    assert density_positivity_factor(const, params) == pytest.approx(expected, rel=1e-12)
    assert density_positivity_factor(const, params) > 0.0


def test_positivity_factor_empty_history():
    with pytest.raises(EmptyHistory):
        density_positivity_factor(np.empty((0, 2)), SystemParams(1.0, 1.0, 1.0))


def test_rejects_negative_m():
    with pytest.raises(ValidationError):
        BlowupCriterion(M=-1.0, v0=-2.0)
