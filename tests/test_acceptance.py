"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import quadrature_mass, spatial_mass

from dp2.cli import main as cli_main
from dp2.emden import Classification, EmdenProblem, Fate, classify, integrate, touchdown_time_quadrature
from dp2.grid import Grid1D
from dp2.pdesolver import BlowupExperimentConfig, helmholtz_inverse, run_blowup_experiment
from dp2.profile import Profile
from dp2.residual import convergence_study
from dp2.riccati import BlowupCriterion, check, escape_time
from dp2.selfsim import OriginFate, SystemParams, build_solution


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {label}")
        raise
    print(f"[PASS] criterion {num:02d}: {label}")


def test_criterion_01_emden_energy_conservation():
    with criterion(1, "energy drift < 1e-8 over 50 random problems"):
        rng = np.random.default_rng(20260808)
        worst = 0.0
        for _ in range(50):
            problem = EmdenProblem(
                xi=float(rng.uniform(-2.0, 2.0)),
                kappa=float(rng.uniform(1e-9, 1.0)),
                mu=4.0,
                a0=float(rng.uniform(0.5, 2.0)),
                a1=float(rng.uniform(-1.0, 1.0)),
                s_max=5.0,
            )
            worst = max(worst, integrate(problem, tol=1e-12).energy_drift_max)
        assert worst < 1e-8


def test_criterion_02_touchdown_oracle_agreement():
    with criterion(2, "event time matches quadrature oracle to 1e-4 relative"):
        canonical = EmdenProblem(xi=-1.0, kappa=0.5, mu=4.0, a0=1.0, a1=0.0, s_max=10.0)
        traj = integrate(canonical, tol=1e-10)
        assert abs(traj.touchdown_s - 8.0 / 3.0) / (8.0 / 3.0) < 1e-4
        assert abs(touchdown_time_quadrature(canonical) - 8.0 / 3.0) < 1e-8

        rng = np.random.default_rng(31415)
        for _ in range(20):
            kwargs = dict(
                xi=float(rng.uniform(-2.0, -0.1)),
                kappa=float(rng.uniform(0.05, 1.0)),
                mu=4.0,
                a0=float(rng.uniform(0.5, 2.0)),
                a1=float(rng.uniform(-1.0, 1.0)),
            )
            s_quad = touchdown_time_quadrature(EmdenProblem(s_max=1.0, **kwargs))
            traj = integrate(EmdenProblem(s_max=2.0 * s_quad, **kwargs), tol=1e-10)
            assert traj.fate is Fate.TOUCHDOWN
            assert abs(traj.touchdown_s - s_quad) / s_quad < 1e-4


def test_criterion_03_classification_dichotomy_lattice():
    with criterion(3, "integrate fate agrees with classify on a 10x10 lattice"):
        xis = np.linspace(-2.0, 2.0, 10)  # symmetric, excludes 0
        kappas = np.linspace(0.1, 1.0, 10)
        for xi in xis:
            for kappa in kappas:
                problem = EmdenProblem(
                    xi=float(xi), kappa=float(kappa), mu=4.0, a0=1.0, a1=0.0, s_max=50.0
                )
                fate = integrate(problem, tol=1e-9).fate
                tag = classify(problem)
                if tag is Classification.BLOWUP_FINITE_TIME:
                    assert fate is Fate.TOUCHDOWN
                else:
                    assert tag is Classification.GLOBAL_GROWING
                    assert fate is Fate.GLOBAL_ON_HORIZON


def test_criterion_04_profile_correctness():
    with criterion(4, "shape ODE residual order in [1.7,2.3]; mass to 1e-6"):
        rng = np.random.default_rng(77)
        for _ in range(10):
            prof = Profile(alpha=float(rng.uniform(0.8, 2.5)), beta=1.0)
            eta = float(rng.uniform(0.1, 0.7)) * prof.half_width
            h = 1e-3 * prof.half_width
            order = math.log2(
                abs(prof.ode_residual_f(eta, h)) / abs(prof.ode_residual_f(eta, 0.5 * h))
            )
            assert 1.7 <= order <= 2.3
        for _ in range(10):
            beta = float(rng.uniform(0.2, 5.0))
            alpha = float(rng.uniform(0.1, 3.0))
            oracle = quadrature_mass(beta, alpha)
            assert abs(Profile(alpha=alpha, beta=beta).mass_eta() - oracle) / oracle < 1e-6


def test_criterion_05_equation_level_verification():
    with criterion(5, "residual orders in [1.7,2.3] on band; < 1 with boundary"):
        grids = [Grid1D(n=512 * 2**i, length=4.096, x0=-2.048) for i in range(4)]
        for k3, xi, s_max in ((1.0, 1.0, 8.0), (-1.0, -1.0, 2.0)):
            sol = build_solution(
                SystemParams(k1=1.0, k2=1.0, k3=k3),
                xi=xi, alpha=1.0, a0=1.0, a1=0.0, s_max=s_max,
            )
            report = convergence_study(sol.evaluate, sol.params, 0.1, grids)
            assert 1.7 <= report.order_estimate_mass <= 2.3
            assert 1.7 <= report.order_estimate_momentum <= 2.3
            edge = convergence_study(sol.evaluate, sol.params, 0.1, grids, delta_in_h=0.0)
            assert edge.order_estimate_mass < 1.0
            assert edge.order_estimate_momentum < 1.0


def test_criterion_06_mass_scaling_law():
    with criterion(6, "mass(t)*a**(k1/4) matches shape mass to 1e-6 at 10 times"):
        for k1, k2 in ((1.0, 1.0), (0.0, 1.0), (2.0, 0.5)):
            sol = build_solution(
                SystemParams(k1=k1, k2=k2, k3=1.0),
                xi=1.0, alpha=1.0, a0=1.0, a1=0.0, s_max=8.0,
            )
            mass_eta = sol.profile.mass_eta()
            for t in np.linspace(0.0, 1.5, 10):
                a, _ = sol.traj.state(4.0 * float(t))
                mass_quad = spatial_mass(sol, float(t))
                assert abs(mass_quad * a ** (k1 / 4.0) - mass_eta) / mass_eta < 1e-6
                assert sol.mass(float(t)) == pytest.approx(
                    a ** (-k1 / 4.0) * mass_eta, rel=1e-14
                )


def test_criterion_07_origin_density_fates():
    with criterion(7, "collapse exceeds 1e3x within 1e-6 of T; global decays"):
        sol3 = build_solution(
            SystemParams(k1=2.0, k2=0.8, k3=-1.0),
            xi=-1.0, alpha=1.0, a0=1.0, a1=0.0, s_max=5.0, tol=1e-12,
        )
        result = sol3.origin_density_limit()
        assert result.fate is OriginFate.DIVERGES_AT_T
        T = result.T
        rho0 = sol3.evaluate(0.0, 0.0)[0]
        assert sol3.evaluate(T - 1e-6, 0.0)[0] > 1e3 * rho0

        sol2 = build_solution(
            SystemParams(k1=1.0, k2=1.0, k3=1.0),
            xi=1.0, alpha=1.0, a0=1.0, a1=0.0, s_max=8.0,
        )
        assert sol2.origin_density_limit().fate is OriginFate.DECAYS_TO_ZERO
        ts = np.linspace(0.0, 2.0, 20)
        vals = [sol2.evaluate(float(t), 0.0)[0] for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_criterion_08_riccati_bound_lattice():
    with criterion(8, "closed form vs RK4 within 1e-3 on 10x10 lattice; M->0 limit"):
        for m in np.linspace(0.0, 2.0, 10):
            for d in np.linspace(0.5, 5.0, 10):
                crit = BlowupCriterion(M=float(m), v0=float(-math.sqrt(1.5) * m - d))
                t_closed = check(crit)
                t_rk4 = escape_time(crit, dt=1e-4)
                assert abs(t_rk4 - t_closed) / t_closed < 1e-3
        for m in (1e-1, 1e-2, 1e-3):
            t_m = check(BlowupCriterion(M=m, v0=-2.0))
            assert abs(t_m - 0.5) < 1e-3


def test_criterion_09_helmholtz_inverse():
    with criterion(9, "single mode exact; kernel quadrature match to 1e-8"):
        grid = Grid1D(n=128, length=2.0 * math.pi)
        x = grid.nodes
        assert np.max(np.abs(helmholtz_inverse(grid, np.cos(x)) - 0.5 * np.cos(x))) < 1e-14

        L = grid.length
        rng = np.random.default_rng(5)
        modes = [(k, rng.normal(), rng.normal()) for k in range(1, 12)]

        def w_func(y):
            out = np.zeros_like(y)
            for k, a, b in modes:
                out += a * np.cos(2 * np.pi * k * y / L) + b * np.sin(2 * np.pi * k * y / L)
            return out

        conv = helmholtz_inverse(grid, w_func(x))
        n_quad = 1 << 16
        y = np.arange(n_quad) * (L / n_quad)
        w_fine = w_func(y)

        def kernel(d):
            d = np.mod(d, L)
            return np.cosh(np.abs(d) - 0.5 * L) / (2.0 * np.sinh(0.5 * L))

        direct = np.array([np.sum(kernel(xj - y) * w_fine) * (L / n_quad) for xj in x])
        assert np.max(np.abs(conv - direct)) < 1e-8


def test_criterion_10_odd_data_blowup_experiment():
    with criterion(10, "slope crosses -1e3 by t=0.24; <2% under n-doubling; parity"):
        results = {}
        for n in (8192, 16384):
            config = BlowupExperimentConfig(n=n, slope=-5.0, threshold=-1e3, t_max=0.5)
            results[n] = run_blowup_experiment(config)
        base, fine = results[8192], results[16384]
        assert base.bound == pytest.approx(0.2, abs=1e-15)
        assert base.blowup_detected and fine.blowup_detected
        assert base.crossing_time <= 0.24
        assert fine.crossing_time <= 0.24
        change = abs(base.crossing_time - fine.crossing_time) / fine.crossing_time
        assert change < 0.02
        assert base.parity_residual_max < 1e-10
        assert fine.parity_residual_max < 1e-10


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "repeated CLI runs are byte-identical"):
        pairs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert cli_main(
                ["emden", "--out", str(out), "--xi", "-1", "--kappa", "0.5"]
            ) == 0
            assert cli_main(
                ["riccati", "--out", str(out), "--m", "1", "--v0", "-2"]
            ) == 0
            pairs.append(out)
        for name in (
            "emden_trajectory.csv",
            "emden_summary.json",
            "riccati_trajectory.csv",
            "riccati_summary.json",
        ):
            assert (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
