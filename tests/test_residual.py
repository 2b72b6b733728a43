"""Residual lab: stencils, interior band, convergence orders, parity."""

import numpy as np
import pytest

from dp2.errors import ValidationError
from dp2.grid import Grid1D
from dp2.residual import (
    InsufficientGrids,
    convergence_study,
    interior_mask,
    mass_equation_residual,
    momentum_equation_residual,
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
    r1 = mass_equation_residual(sampler, PARAMS, 0.3, grid, 1e-3, 1e-4)
    r2 = momentum_equation_residual(sampler, PARAMS, 0.3, grid, 1e-3, 1e-4)
    assert np.max(np.abs(r1)) < 1e-12
    assert np.max(np.abs(r2)) < 1e-8  # third-derivative stencil noise ~ eps/h**3


def test_selfsim_mass_residual_small_on_interior():
    sol = branch2_solution()
    grid = Grid1D(n=4096, length=4.096, x0=-2.048)
    r1 = mass_equation_residual(sol.evaluate, sol.params, 0.1, grid, 1e-3, 1e-4)
    rho, _ = sol.evaluate(0.1, grid.nodes)
    mask = interior_mask(grid.nodes, rho, 0.04)
    assert np.max(np.abs(r1[mask])) < 1e-4


def test_selfsim_momentum_residual_small_on_interior():
    sol = branch2_solution()
    grid = Grid1D(n=4096, length=4.096, x0=-2.048)
    r2 = momentum_equation_residual(sol.evaluate, sol.params, 0.1, grid, 1e-3, 1e-3)
    rho, _ = sol.evaluate(0.1, grid.nodes)
    mask = interior_mask(grid.nodes, rho, 0.04)
    assert np.max(np.abs(r2[mask])) < 1e-3


def test_refinement_shrinks_mass_residual_second_order():
    sol = branch2_solution()
    norms = []
    for n in (512, 1024):
        grid = Grid1D(n=n, length=4.096, x0=-2.048)
        h = grid.dx
        r1 = mass_equation_residual(sol.evaluate, sol.params, 0.1, grid, h, h)
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
    r2 = momentum_equation_residual(sampler, PARAMS, 0.0, grid, 1e-3, 1e-3)
    assert np.allclose(r2, 4.0 * c**2 * grid.nodes, atol=1e-8)


def test_momentum_even_density_antisymmetric_residual():
    sampler = lambda t, x: (np.exp(-(x**2)), np.zeros_like(x))
    grid = Grid1D(n=128, length=6.0, x0=-3.0)
    r2 = momentum_equation_residual(sampler, PARAMS, 0.0, grid, 1e-3, 1e-3)
    # R2 = k3*rho*rho_x is odd; check antisymmetry node-by-node
    defect = r2[1:] + r2[:0:-1]
    assert np.max(np.abs(defect)) < 1e-12


def test_parity_even_rho_odd_u():
    # odd*odd and even*even products make R1 even; every R2 term is
    # odd (the monomial case R2 = 4c^2 x shows the same parity).
    sampler = lambda t, x: (np.exp(-(x**2)), x * np.exp(-(x**2)))
    grid = Grid1D(n=128, length=6.0, x0=-3.0)
    r1 = mass_equation_residual(sampler, PARAMS, 0.0, grid, 1e-3, 1e-3)
    r2 = momentum_equation_residual(sampler, PARAMS, 0.0, grid, 1e-3, 1e-3)
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
    assert np.array_equal(r1, mass_equation_residual(sol.evaluate, sol.params, 0.1, fine, h, 0.5 * h))
    assert np.array_equal(r2, momentum_equation_residual(sol.evaluate, sol.params, 0.1, fine, h, 0.5 * h))
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
        base = mass_equation_residual(sol.evaluate, sol.params, 0.1, grid, h, h)
        r = mass_equation_residual(perturbed(eps), sol.params, 0.1, grid, h, h)
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
