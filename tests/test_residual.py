"""Residual lab: stencils, interior band, convergence orders, parity."""

import math

import numpy as np
import pytest

from dp2.errors import ValidationError
from dp2.grid import Grid1D
from dp2.pdesolver import RunSampler, SolverState, dealias
from dp2.residual import (
    InsufficientGrids,
    convergence_study,
    equation_residuals,
    interior_mask,
)
from dp2.selfsim import SystemParams, build_solution

PARAMS = SystemParams(k1=1.0, k2=1.0, k3=1.0)


def branch2_solution():
    return build_solution(PARAMS, xi=1.0, alpha=1.0, a0=1.0, a1=0.0, s_max=8.0)


def study_grids(levels=4, n_base=512):
    return [Grid1D(n=n_base * 2**i, length=4.096, x0=-2.048) for i in range(levels)]


def white_noise(x):
    # Deterministic hash-style white noise, uncorrelated at any stencil width.
    return np.modf(np.sin(x * 12.9898) * 43758.5453)[0] - 0.25


def test_constant_state_residuals_vanish():
    sampler = lambda t, x: (np.full_like(x, 1.7), np.zeros_like(x))
    grid = Grid1D(n=64, length=4.0, x0=-2.0)
    r1, r2 = equation_residuals(sampler, PARAMS, 0.3, grid, 1e-3, 1e-4)
    assert np.max(np.abs(r1)) < 1e-12
    assert np.max(np.abs(r2)) < 1e-8  # third-derivative stencil noise ~ eps/h**3


def test_selfsim_mass_residual_small_on_interior():
    sol = branch2_solution()
    grid = Grid1D(n=4096, length=4.096, x0=-2.048)
    r1, _ = equation_residuals(sol.evaluate, sol.params, 0.1, grid, 1e-3, 1e-4)
    rho, _ = sol.evaluate(0.1, grid.nodes)
    mask = interior_mask(grid.nodes, rho, 0.04)
    assert np.max(np.abs(r1[mask])) < 1e-4


def test_selfsim_momentum_residual_small_on_interior():
    sol = branch2_solution()
    grid = Grid1D(n=4096, length=4.096, x0=-2.048)
    _, r2 = equation_residuals(sol.evaluate, sol.params, 0.1, grid, 1e-3, 1e-3)
    rho, _ = sol.evaluate(0.1, grid.nodes)
    mask = interior_mask(grid.nodes, rho, 0.04)
    assert np.max(np.abs(r2[mask])) < 1e-3


def test_refinement_shrinks_mass_residual_second_order():
    sol = branch2_solution()
    norms = []
    for n in (512, 1024):
        grid = Grid1D(n=n, length=4.096, x0=-2.048)
        h = grid.dx
        r1, _ = equation_residuals(sol.evaluate, sol.params, 0.1, grid, h, h)
        rho, _ = sol.evaluate(0.1, grid.nodes)
        mask = interior_mask(grid.nodes, rho, 0.04)
        norms.append(np.max(np.abs(r1[mask])))
    factor = norms[0] / norms[1]
    assert 3.2 <= factor <= 5.0


def test_momentum_monomial_case_exact():
    # u = c*x frozen in t, rho = 0: every stencil is exact on a linear
    # function, so the residual is 4*c**2*x to rounding.
    c = 0.7
    sampler = lambda t, x: (np.zeros_like(x), c * x)
    grid = Grid1D(n=64, length=4.0, x0=-2.0)
    _, r2 = equation_residuals(sampler, PARAMS, 0.0, grid, 1e-3, 1e-3)
    assert np.allclose(r2, 4.0 * c**2 * grid.nodes, atol=1e-8)


def test_momentum_even_density_antisymmetric_residual():
    sampler = lambda t, x: (np.exp(-(x**2)), np.zeros_like(x))
    grid = Grid1D(n=128, length=6.0, x0=-3.0)
    _, r2 = equation_residuals(sampler, PARAMS, 0.0, grid, 1e-3, 1e-3)
    # R2 = k3*rho*rho_x is odd; check antisymmetry node-by-node
    defect = r2[1:] + r2[:0:-1]
    assert np.max(np.abs(defect)) < 1e-12


def test_parity_even_rho_odd_u():
    # odd*odd and even*even products make R1 even; every R2 term is
    # odd (the monomial case R2 = 4c^2 x shows the same parity).
    sampler = lambda t, x: (np.exp(-(x**2)), x * np.exp(-(x**2)))
    grid = Grid1D(n=128, length=6.0, x0=-3.0)
    r1, r2 = equation_residuals(sampler, PARAMS, 0.0, grid, 1e-3, 1e-3)
    even_defect = r1[1:] - r1[:0:-1]
    odd_defect = r2[1:] + r2[:0:-1]
    assert np.max(np.abs(even_defect)) < 1e-10
    assert np.max(np.abs(odd_defect)) < 1e-10


@pytest.mark.parametrize("k3,xi,s_max", [(1.0, 1.0, 8.0), (-1.0, -1.0, 2.0)])
def test_convergence_orders_on_interior_band(k3, xi, s_max):
    sol = build_solution(
        SystemParams(k1=1.0, k2=1.0, k3=k3), xi=xi, alpha=1.0, a0=1.0, a1=0.0, s_max=s_max
    )
    report = convergence_study(sol.evaluate, sol.params, 0.1, study_grids())
    assert 1.7 <= report.order_estimate_mass <= 2.3
    assert 1.7 <= report.order_estimate_momentum <= 2.3
    assert report.mass_eq_linf < 1e-4
    assert report.momentum_eq_linf < 1e-3


def test_report_carries_finest_level_residuals():
    sol = branch2_solution()
    grids = study_grids(3, 128)
    report = convergence_study(sol.evaluate, sol.params, 0.1, grids, dt_over_h=0.5)
    fine = grids[-1]
    x, r1, r2 = report.finest_residuals
    h = fine.dx
    assert np.array_equal(x, fine.nodes)
    r1_fine, r2_fine = equation_residuals(sol.evaluate, sol.params, 0.1, fine, h, 0.5 * h)
    assert np.array_equal(r1, r1_fine)
    assert np.array_equal(r2, r2_fine)
    assert "finest_residuals" not in report.summary()


def test_boundary_inclusion_destroys_order():
    sol = branch2_solution()
    report = convergence_study(sol.evaluate, sol.params, 0.1, study_grids(), delta_in_h=0.0)
    assert report.order_estimate_mass < 1.0
    assert report.order_estimate_momentum < 1.0


@pytest.mark.parametrize("delta_in_h", [1e6, np.nan])
def test_empty_interior_band_rejected(delta_in_h):
    # np.max of the empty band used to raise a bare ValueError
    sol = branch2_solution()
    with pytest.raises(ValidationError, match="no node"):
        convergence_study(sol.evaluate, sol.params, 0.1, study_grids(3, 64), delta_in_h=delta_in_h)


def test_constant_state_orders_not_applicable():
    sampler = lambda t, x: (np.full_like(x, 2.0), np.zeros_like(x))
    report = convergence_study(sampler, PARAMS, 0.0, study_grids(3, 64))
    assert report.order_estimate_mass is None


def test_two_grids_rejected():
    sol = branch2_solution()
    with pytest.raises(InsufficientGrids):
        convergence_study(sol.evaluate, sol.params, 0.1, study_grids(2))


def test_perturbation_response_scales_like_eps_over_h():
    sol = branch2_solution()
    grid = Grid1D(n=512, length=4.096, x0=-2.048)
    rho0, _ = sol.evaluate(0.1, grid.nodes)
    mask = interior_mask(grid.nodes, rho0, 0.1)

    def perturbed(eps):
        def sampler(t, x):
            rho, u = sol.evaluate(t, x)
            return rho + eps * white_noise(x), u
        return sampler

    def response(eps, h):
        base, _ = equation_residuals(sol.evaluate, sol.params, 0.1, grid, h, h)
        r, _ = equation_residuals(perturbed(eps), sol.params, 0.1, grid, h, h)
        return np.max(np.abs((r - base)[mask]))

    # linear in eps at fixed h
    assert response(2e-6, 4e-3) / response(1e-6, 4e-3) == pytest.approx(2.0, rel=0.2)
    # ~1/h at fixed eps for white noise
    assert response(1e-6, 2e-3) / response(1e-6, 4e-3) == pytest.approx(2.0, rel=0.35)


def test_interior_mask_detects_support():
    x = np.linspace(-2.0, 2.0, 401)
    rho = np.where(np.abs(x) <= 1.0, 1.0 - np.abs(x), 0.0)
    mask = interior_mask(x, rho, 0.25)
    assert not mask[np.abs(x) > 1.0].any()  # exterior never in band
    assert mask[np.abs(np.abs(x) - 0.5) < 0.1].all()  # deep interior kept
    assert not mask[np.abs(np.abs(x) - 1.0) < 0.2].any()  # edge collar excluded


class RecordingSampler:
    """Wraps a sampler and records the time of every call."""

    def __init__(self, sampler):
        self.sampler, self.times = sampler, []

    def __call__(self, t, x):
        self.times.append(t)
        return self.sampler(t, x)


def first_visits(times):
    return list(dict.fromkeys(times))


def test_convergence_study_samples_each_level_once_in_stencil_order():
    sol = branch2_solution()
    sampler = RecordingSampler(sol.evaluate)
    grids = study_grids(3, 64)
    convergence_study(sampler, sol.params, 0.1, grids, dt_over_h=0.5)
    # 11 stencil samples plus the interior mask's
    assert len(sampler.times) == 3 * 12
    for level, grid in enumerate(grids):  # coarsest first
        dt = 0.5 * grid.dx
        calls = sampler.times[12 * level:12 * (level + 1)]
        assert first_visits(calls) == [0.1 + dt, 0.1 - dt, 0.1]


def parent_residuals(sol_eval, params, t, grid, h, dt):
    """Reference: separate mass and momentum stencils, sampled in their old order."""
    x = grid.nodes
    rho_p, _ = sol_eval(t + dt, x)
    rho_m, _ = sol_eval(t - dt, x)
    rho, u = sol_eval(t, x)
    rho_r, u_r = sol_eval(t, x + h)
    rho_l, u_l = sol_eval(t, x - h)
    rho_t = (rho_p - rho_m) / (2.0 * dt)
    rho_x = (rho_r - rho_l) / (2.0 * h)
    u_x = (u_r - u_l) / (2.0 * h)
    r1 = rho_t + params.k2 * u * rho_x + (params.k1 + params.k2) * rho * u_x

    rho, u = sol_eval(t, x)
    rho_r, u_r = sol_eval(t, x + h)
    rho_l, u_l = sol_eval(t, x - h)
    _, u_rr = sol_eval(t, x + 2.0 * h)
    _, u_ll = sol_eval(t, x - 2.0 * h)
    _, up = sol_eval(t + dt, x)
    _, up_r = sol_eval(t + dt, x + h)
    _, up_l = sol_eval(t + dt, x - h)
    _, um = sol_eval(t - dt, x)
    _, um_r = sol_eval(t - dt, x + h)
    _, um_l = sol_eval(t - dt, x - h)
    u_t = (up - um) / (2.0 * dt)
    u_x = (u_r - u_l) / (2.0 * h)
    u_xx = (u_r - 2.0 * u + u_l) / h**2
    u_xxx = (u_rr - 2.0 * u_r + 2.0 * u_l - u_ll) / (2.0 * h**3)
    uxx_p = (up_r - 2.0 * up + up_l) / h**2
    uxx_m = (um_r - 2.0 * um + um_l) / h**2
    u_xxt = (uxx_p - uxx_m) / (2.0 * dt)
    rho_x = (rho_r - rho_l) / (2.0 * h)
    r2 = u_t - u_xxt + 4.0 * u * u_x - 3.0 * u_x * u_xx - u * u_xxx + params.k3 * rho * rho_x
    return r1, r2


def test_convergence_study_on_solver_run_matches_two_stencil_reference():
    # RunSampler steps from its latest cached state, so its bits depend on
    # the order in which times are first visited.
    run_grid = Grid1D(n=256, length=2.0 * math.pi)
    x = run_grid.nodes
    state0 = SolverState.make(
        0.0, dealias(run_grid, 1.0 + 0.1 * np.cos(x) + 0.05 * np.sin(2.0 * x)),
        dealias(run_grid, -0.6 * np.sin(x)), PARAMS, run_grid,
    )
    grids = [Grid1D(n=m, length=2.0 * math.pi) for m in (64, 128, 256)]
    t = 0.12  # past the coarsest dt = 2*pi/64
    report = convergence_study(RunSampler(state0), PARAMS, t, grids)

    sampler = RunSampler(state0)
    norms = []
    for grid in grids:
        r1, r2 = parent_residuals(sampler, PARAMS, t, grid, grid.dx, grid.dx)
        rho, _ = sampler(t, grid.nodes)
        mask = interior_mask(grid.nodes, rho, 5.0 * grids[0].dx)
        norms.append((float(np.max(np.abs(r1[mask]))), float(np.max(np.abs(r2[mask])))))
    assert report.mass_norms == tuple(n[0] for n in norms)
    assert report.momentum_norms == tuple(n[1] for n in norms)
    _, fine_r1, fine_r2 = report.finest_residuals
    assert np.array_equal(fine_r1, r1)
    assert np.array_equal(fine_r2, r2)


@pytest.mark.parametrize("dt_over_h", [0.0, -1.0, np.nan, np.inf])
def test_non_positive_dt_over_h_rejected_before_sampling(dt_over_h):
    # dt = 0 made nan orders, which passed the CLI's order gate
    sol = branch2_solution()
    sampler = RecordingSampler(sol.evaluate)
    with pytest.raises(ValidationError, match="dt_over_h"):
        convergence_study(sampler, sol.params, 0.1, study_grids(3, 64), dt_over_h=dt_over_h)
    assert sampler.times == []
