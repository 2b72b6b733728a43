"""Assembled solutions: evaluation, scaling laws, diagnostics, guards."""

import math

import numpy as np
import pytest

from oracles import rk4_scale_factor, spatial_mass

from dp2.emden import EmdenProblem, integrate
from dp2.errors import ValidationError
from dp2.profile import Profile
from dp2.selfsim import (
    BeyondBlowup,
    HorizonExceeded,
    OriginFate,
    SelfSimilarSolution,
    SystemParams,
    WrongBranch,
    build_solution,
)


BRANCH2 = dict(xi=1.0, alpha=1.0, a0=1.0, a1=0.0, s_max=8.0)


def make_branch2():
    return build_solution(SystemParams(k1=1.0, k2=1.0, k3=1.0), **BRANCH2)


def make_branch3(s_max=4.0):
    return build_solution(
        SystemParams(k1=1.0, k2=1.0, k3=-1.0),
        xi=-1.0,
        alpha=1.0,
        a0=1.0,
        a1=0.0,
        s_max=s_max,
    )


def test_kappa_derivation():
    assert SystemParams(k1=1.0, k2=1.0, k3=1.0).kappa == pytest.approx(0.5)
    assert SystemParams(k1=0.0, k2=1.0, k3=1.0).kappa == pytest.approx(0.0)
    with pytest.raises(ValidationError):
        SystemParams(k1=1.0, k2=0.0, k3=1.0)


def test_initial_time_is_identity_scaling():
    sol = build_solution(SystemParams(k1=1.0, k2=1.0, k3=1.0), xi=1.0, alpha=1.0, a1=0.5)
    xs = np.linspace(-0.9, 0.9, 21)
    rho, u = sol.evaluate(0.0, xs)
    prof = Profile.from_params(1.0, 1.0, 1.0)
    assert np.allclose(rho, prof.eval_f(xs), atol=1e-14)
    assert np.allclose(u, 0.5 * xs, atol=1e-14)


def test_velocity_vanishes_at_origin():
    sol = make_branch2()
    for t in (0.0, 0.3, 1.0):
        _, u = sol.evaluate(t, 0.0)
        assert u == 0.0


def test_velocity_linearity_exact():
    sol = make_branch2()
    xs = np.array([0.01, 0.1, 0.2, 0.37])
    _, u1 = sol.evaluate(0.2, xs)
    _, u2 = sol.evaluate(0.2, 2.0 * xs)
    assert np.all(u2 == 2.0 * u1)


def test_origin_density_against_fixed_step_oracle():
    sol = make_branch2()
    rho, _ = sol.evaluate(0.25, 0.0)
    a_oracle, _ = rk4_scale_factor(1.0, 0.5, 4.0, 1.0, 0.0, 1.0, 100000)
    assert rho == pytest.approx(1.0 / math.sqrt(a_oracle), rel=1e-9)


def test_mass_conserved_only_for_zero_k1():
    sol = build_solution(SystemParams(k1=0.0, k2=1.0, k3=1.0), **BRANCH2)
    masses = [sol.mass(t) for t in (0.0, 0.2, 0.5, 1.0)]
    assert all(abs(m - masses[0]) <= 1e-14 * abs(masses[0]) for m in masses)

    sol1 = make_branch2()
    assert sol1.mass(1.0) < sol1.mass(0.0)  # growing a, k1 > 0 dilutes


def test_mass_value_when_scale_factor_reaches_four():
    sol = make_branch2()
    traj = sol.traj
    lo, hi = 0.0, traj.s_end
    assert traj.state(hi)[0] > 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if traj.state(mid)[0] < 4.0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi) / 4.0
    assert sol.mass(t_star) == pytest.approx((math.pi / 2.0) * 4.0 ** (-0.25), rel=1e-6)


def test_mass_scaling_law_against_spatial_quadrature():
    sol = make_branch2()
    for t in (0.1, 0.5, 1.2):
        a, _ = sol.traj.state(4.0 * t)
        mass_quad = spatial_mass(sol, t)
        assert abs(mass_quad * a**0.25 - sol.profile.mass_eta()) / sol.profile.mass_eta() < 1e-6


def test_support_tracking():
    sol = make_branch2()
    for t in (0.0, 0.4, 1.0):
        a, _ = sol.traj.state(4.0 * t)
        expected = 1.0 * a**0.25
        assert abs(sol.support_halfwidth(t) - expected) <= 1e-12 * expected
        xs = np.linspace(-2.0 * expected, 2.0 * expected, 4001)
        rho, _ = sol.evaluate(t, xs)
        inside = np.abs(xs) <= expected
        assert np.all(rho[~inside] == 0.0)
        assert np.all(rho >= 0.0)
        sampled_edge = np.max(np.abs(xs[rho > 0.0]))
        assert abs(sampled_edge - expected) < 2.0 * (xs[1] - xs[0])


def test_branch_guards():
    with pytest.raises(ValidationError):
        build_solution(SystemParams(k1=1.0, k2=1.0, k3=1.0), xi=-1.0, alpha=1.0)
    traj = integrate(EmdenProblem(xi=1.0, kappa=0.5, s_max=4.0))
    prof = Profile.from_params(1.0, 1.0, 1.0)
    with pytest.raises(WrongBranch):
        SelfSimilarSolution(
            params=SystemParams(k1=1.0, k2=1.0, k3=0.0), profile=prof, traj=traj
        )


def test_beyond_blowup_and_horizon_guards():
    sol3 = make_branch3()
    T = sol3.traj.touchdown_s / 4.0
    with pytest.raises(BeyondBlowup):
        sol3.evaluate(T, 0.0)
    with pytest.raises(BeyondBlowup):
        sol3.evaluate(T + 0.1, 0.0)
    sol2 = make_branch2()
    with pytest.raises(HorizonExceeded):
        sol2.evaluate(sol2.traj.s_end / 4.0 + 1.0, 0.0)


def test_origin_density_limit_diverges_for_touchdown():
    sol = make_branch3()
    result = sol.origin_density_limit()
    assert result.fate is OriginFate.DIVERGES_AT_T
    assert result.T == pytest.approx((8.0 / 3.0) / 4.0, rel=1e-6)
    # some t within 1e-6 of T pushes the origin density past 1e3x
    rho0 = sol.evaluate(0.0, 0.0)[0]
    assert sol.evaluate(result.T - 1e-7, 0.0)[0] > 1e3 * rho0


def test_origin_density_limit_decays_for_global_branch():
    sol = make_branch2()
    result = sol.origin_density_limit()
    assert result.fate is OriginFate.DECAYS_TO_ZERO
    assert result.T is None
    rho_start, _ = sol.evaluate(0.0, 0.0)
    rho_end, _ = sol.evaluate(sol.traj.s_end / 4.0 - 1e-9, 0.0)
    assert rho_end < rho_start


def test_origin_density_limit_diverges_when_mass_is_conserved():
    # rho(t, 0) ~ a**(-1/4): 12 samples toward T reached 52.7 (42.9x the first one,
    # against a 100x test), and "growth toward T looks bounded" refused this touchdown
    sol = build_solution(SystemParams(k1=0.0, k2=1.0, k3=-1.0), xi=-1.0, alpha=1.0, s_max=50.0)
    result = sol.origin_density_limit()
    assert result.fate is OriginFate.DIVERGES_AT_T
    assert result.T == sol.traj.touchdown_s / 4.0 == 0.7071067776510129


@pytest.mark.parametrize("k1, k2, k3, xi, alpha, a1, message", [
    # DecaysToZero, while rho(t, 0) reads 1, 1.031 and 1.042 at t = 0, 0.1 and 0.2
    (1.0, 1.0, 1.0, 1.0, 1.0, -0.2, "does not decay over the horizon: (k1+k2)*a' < 0"),
    # these three raised "rho(t,0) failed to grow monotonically toward T"
    (1.0, 1.0, -1.0, -1.0, 0.0, 0.0, "is 0 at alpha = 0 and constant at k1+k2 = 0 (alpha=0.0, k1+k2=2.0)"),
    (-1.0, 1.0, -1.0, -1.0, 1.0, 0.0, "is 0 at alpha = 0 and constant at k1+k2 = 0 (alpha=1.0, k1+k2=0.0)"),
    (-2.0, 1.0, -1.0, -1.0, 1.0, 0.0, "k1+k2=-1.0 < 0: rho(t,0) falls to 0 at the touchdown"),  # kappa = -1
], ids=["rising", "alpha_0", "k1_plus_k2_0", "kappa_-1"])
def test_origin_density_limit_refuses_a_density_that_does_not_diverge_or_decay(k1, k2, k3, xi, alpha, a1, message):
    sol = build_solution(SystemParams(k1=k1, k2=k2, k3=k3), xi=xi, alpha=alpha, a1=a1, s_max=50.0)
    with pytest.raises(ValidationError) as info:
        sol.origin_density_limit()
    assert message in str(info.value)


def test_origin_density_limit_rejects_free_branch():
    sol = build_solution(
        SystemParams(k1=1.0, k2=1.0, k3=0.0),
        xi=0.0,
        alpha=0.0,
        a1=1.0,
        rho0=lambda eta: np.exp(-(eta**2)),
    )
    with pytest.raises(WrongBranch):
        sol.origin_density_limit()


def test_free_profile_branch_evaluation():
    shape = lambda eta: np.exp(-(eta**2))
    sol = build_solution(
        SystemParams(k1=1.0, k2=1.0, k3=0.0), xi=0.0, alpha=0.0, a1=1.0, rho0=shape
    )
    xs = np.linspace(-2.0, 2.0, 11)
    rho, u = sol.evaluate(0.0, xs)
    assert np.allclose(rho, shape(xs))
    assert np.allclose(u, xs)  # a1 = 1, a0 = 1
    t = 0.25  # s = 1, a = 2 under linear motion
    a, _ = sol.traj.state(1.0)
    rho_t, _ = sol.evaluate(t, xs)
    assert np.allclose(rho_t, shape(xs / a**0.25) / a**0.5, atol=1e-12)
    with pytest.raises(WrongBranch):
        sol.mass(0.0)


def test_free_profile_rejects_negative_shape():
    sol = build_solution(
        SystemParams(k1=1.0, k2=1.0, k3=0.0),
        xi=0.0,
        alpha=0.0,
        rho0=lambda eta: -np.ones_like(eta),
    )
    with pytest.raises(ValidationError):
        sol.evaluate(0.0, np.array([0.0, 1.0]))


def test_snapshot_metadata_fields():
    sol = make_branch2()
    meta = sol.snapshot_metadata(0.3)
    assert set(meta) == {"t", "a", "a_dot", "mass", "support_halfwidth"}
    assert meta["a"] > 1.0
    assert meta["mass"] == pytest.approx(sol.mass(0.3))
