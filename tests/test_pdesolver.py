"""Spectral solver: multipliers, oracles, parity, stepping, experiment."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from dp2 import pdesolver
from dp2.errors import ValidationError
from dp2.grid import Grid1D
from dp2.pdesolver import (
    DEFECT_TOL,
    RECORD,
    START_N_MIN,
    BlowupExperimentConfig,
    NonFinite,
    RunSampler,
    SolverState,
    cfl_dt,
    dealias,
    helmholtz_inverse,
    odd_gaussian_derivative,
    parity_residual,
    run_blowup_experiment,
    step,
    trig_interp,
)
from dp2.residual import convergence_study, equation_residuals
from dp2.selfsim import SystemParams
from oracles import LandingSampler, blowup_record_fields

PARAMS = SystemParams(k1=1.0, k2=1.0, k3=1.0)
TWO_PI = 2.0 * math.pi


def make_state(grid, rho, u, params=PARAMS):
    return SolverState.make(0.0, dealias(grid, rho), dealias(grid, u), params, grid)


def tendency(state):
    """Nodal tendency of the state, its kept-band tendency through one irfft:
    (d rho/dt, d u/dt), or d u/dt alone, shape (1, n), for a rho-free state,
    whose stages pass u alone (the state's first row)."""
    rows = state.rows[:1] if state.rho_free else state.rows
    spectral = pdesolver._tendency_arrays(state.grid, state.params, rows)
    return np.fft.irfft(spectral, n=state.grid.n)


def dense_interp(grid, values, xs):
    """Reference: the interpolant summed through the full phase matrix."""
    coeffs = np.fft.rfft(values) / grid.n
    k = grid.wavenumbers
    phase = np.exp(1j * np.outer(np.asarray(xs, dtype=float) - grid.x0, k))
    weights = np.full(k.shape, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    return np.real(phase @ (weights * coeffs))


def solver_like_fields(grid):
    """rho and u shaped like the residual lab's solver runs, stacked (2, n)."""
    x = grid.nodes - grid.x0
    rho = 1.0 + 0.08 * np.cos(x + 0.3) - 0.05 * np.sin(2.0 * x) + 0.02 * np.cos(3.0 * x + 1.0)
    u = odd_gaussian_derivative(Grid1D(n=grid.n, length=grid.length), -1.2, 0.4)
    return np.stack((dealias(grid, rho), u))


def test_grid_validation():
    with pytest.raises(ValidationError):
        Grid1D(n=100, length=1.0)  # not a power of two
    with pytest.raises(ValidationError):
        Grid1D(n=8, length=1.0)  # too small
    grid = Grid1D(n=64, length=4.0, x0=-2.0)
    assert grid.dx == pytest.approx(0.0625)
    assert grid.nodes[0] == -2.0


def test_helmholtz_single_mode_exact():
    grid = Grid1D(n=128, length=TWO_PI)
    x = grid.nodes
    out = helmholtz_inverse(grid, np.cos(x))
    assert np.max(np.abs(out - 0.5 * np.cos(x))) < 1e-14
    assert np.max(np.abs(helmholtz_inverse(grid, np.zeros(grid.n)))) == 0.0


def test_helmholtz_matches_periodised_kernel_quadrature():
    # Direct convolution with cosh(|x|-L/2)/(2 sinh(L/2)), the periodised
    # half-exponential kernel, on a fine quadrature grid; the input is
    # evaluated analytically so the oracle shares no transform code.
    grid = Grid1D(n=128, length=TWO_PI)
    L = grid.length
    rng = np.random.default_rng(5)
    modes = [(k, rng.normal(), rng.normal()) for k in range(1, 12)]

    def w_func(y):
        out = np.zeros_like(y)
        for k, a, b in modes:
            out += a * np.cos(2 * np.pi * k * y / L) + b * np.sin(2 * np.pi * k * y / L)
        return out

    conv = helmholtz_inverse(grid, w_func(grid.nodes))
    n_quad = 1 << 16
    y = np.arange(n_quad) * (L / n_quad)
    w_fine = w_func(y)

    def kernel(d):
        d = np.mod(d, L)
        return np.cosh(np.abs(d) - 0.5 * L) / (2.0 * np.sinh(0.5 * L))

    direct = np.array(
        [np.sum(kernel(xj - y) * w_fine) * (L / n_quad) for xj in grid.nodes]
    )
    assert np.max(np.abs(conv - direct)) < 1e-8


def test_tendency_rest_state():
    grid = Grid1D(n=64, length=TWO_PI)
    state = make_state(grid, np.zeros(grid.n), np.zeros(grid.n))
    assert state.rho_free and state.max_rho == 0.0 and not state.rho.any()
    (du,) = tendency(state)  # rho = 0 has no tendency to take: u's alone
    assert np.max(np.abs(du)) == 0.0
    stepped = step(state, 0.01)
    assert stepped.rho_free
    assert np.max(np.abs(stepped.u)) == 0.0


def test_tendency_two_mode_hand_oracle():
    # u = sin x, rho = 0: q = 3/2 sin^2 x has a constant part (multiplier 1)
    # and a cos 2x part (multiplier 1/5), giving du/dt = -(4/5) sin 2x.
    grid = Grid1D(n=128, length=TWO_PI)
    x = grid.nodes
    state = SolverState.make(0.0, np.zeros(grid.n), np.sin(x), PARAMS, grid)
    assert state.rho_free
    (du,) = tendency(state)
    assert np.max(np.abs(du + 0.8 * np.sin(2.0 * x))) < 1e-13


def test_tendency_against_finite_difference_oracle():
    # 4th-order central differences of the same right-hand side, with the
    # nonlocal term from the kernel-validated helmholtz route.
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    rho = 0.8 + 0.2 * np.cos(2 * x) + 0.1 * np.sin(3 * x)
    u = 0.3 * np.sin(x) + 0.05 * np.cos(4 * x)
    state = SolverState.make(0.0, rho, u, PARAMS, grid)
    drho, du = tendency(state)

    def fd4(w):
        return (
            -np.roll(w, -2) + 8 * np.roll(w, -1) - 8 * np.roll(w, 1) + np.roll(w, 2)
        ) / (12.0 * grid.dx)

    q = 1.5 * u**2 + 0.5 * PARAMS.k3 * rho**2
    drho_fd = -PARAMS.k2 * fd4(rho) * u - (PARAMS.k1 + PARAMS.k2) * rho * fd4(u)
    du_fd = -u * fd4(u) - fd4(helmholtz_inverse(grid, q))
    h4 = grid.dx**4
    assert np.max(np.abs(drho - drho_fd)) < 50.0 * h4
    assert np.max(np.abs(du - du_fd)) < 50.0 * h4


def test_step_rejects_cfl_violation():
    grid = Grid1D(n=64, length=TWO_PI)
    state = make_state(grid, np.zeros(grid.n), np.sin(grid.nodes))
    with pytest.raises(ValidationError):
        step(state, 10.0 * cfl_dt(state))


def test_nonfinite_state_rejected():
    grid = Grid1D(n=64, length=TWO_PI)
    bad = np.zeros(grid.n)
    bad[3] = np.inf
    with pytest.raises(NonFinite):
        SolverState.make(0.0, bad, np.zeros(grid.n), PARAMS, grid)


def test_odd_parity_preserved_over_100_steps():
    grid = Grid1D(n=512, length=TWO_PI)
    x = grid.nodes
    state = make_state(grid, 0.1 * np.sin(x), 0.2 * np.sin(x))
    assert parity_residual(state.u) < 1e-15
    for _ in range(100):
        state = step(state, cfl_dt(state))
    assert parity_residual(state.u) < 1e-10
    assert parity_residual(state.rho) < 1e-10
    # parity pins the symmetry points, so M = 0 there
    assert abs(state.u[0]) < 1e-12
    assert abs(state.u[grid.n // 2]) < 1e-12


def test_density_positivity_before_breaking():
    grid = Grid1D(n=512, length=TWO_PI)
    x = grid.nodes
    rho0 = np.exp(-((x - math.pi) ** 2) / (2.0 * 0.3**2))
    state = make_state(grid, rho0, 0.3 * np.sin(x))
    min_rho = float(np.min(state.rho))
    while state.t < 1.0:
        state = step(state, cfl_dt(state))
        min_rho = min(min_rho, float(np.min(state.rho)))
    assert min_rho >= -1e-8 * float(np.max(rho0))


def test_time_reversal_consistency():
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    state = make_state(grid, 0.5 + 0.1 * np.cos(x), 0.2 * np.sin(x))
    dt = 0.5 * cfl_dt(state)
    back = step(step(state, dt), -dt)
    assert np.max(np.abs(back.rho - state.rho)) < 1e-8
    assert np.max(np.abs(back.u - state.u)) < 1e-8


def test_band_limited_self_convergence_under_doubling():
    results = {}
    for n in (128, 256):
        grid = Grid1D(n=n, length=TWO_PI)
        x = grid.nodes
        state = make_state(grid, 0.5 + 0.1 * np.cos(2 * x), 0.2 * np.sin(3 * x))
        for _ in range(100):
            state = step(state, 1e-3)
        results[n] = state
    diff = max(
        np.max(np.abs(results[256].rho[::2] - results[128].rho)),
        np.max(np.abs(results[256].u[::2] - results[128].u)),
    )
    # band-limited data: far below any 4th-order envelope
    assert diff < (1.0 / 128.0) ** 4


def test_blowup_experiment_coarse_threshold():
    config = BlowupExperimentConfig(n=1024, slope=-5.0, threshold=-1e2, t_max=0.3)
    result = run_blowup_experiment(config)
    assert result.bound == pytest.approx(0.2, abs=1e-15)
    assert result.blowup_detected
    assert result.crossing_time <= 0.24  # bound + 20% threshold margin
    assert result.within_margin
    assert result.parity_residual_max < 1e-10
    assert np.all(np.diff(result.times) > 0.0)
    assert np.min(result.min_ux) < -1e2


def test_blowup_experiment_reports_no_crossing():
    config = BlowupExperimentConfig(n=256, slope=-5.0, threshold=-1e3, t_max=0.02)
    result = run_blowup_experiment(config)
    assert not result.blowup_detected
    assert result.crossing_time is None
    assert result.within_margin is None


def test_blowup_run_takes_a_step_before_its_crossing():
    # min u_x(0) = -5 is below the threshold -4: the start state is never the
    # crossing, and a step clipped to t_max can be
    result = run_blowup_experiment(BlowupExperimentConfig(n=256, slope=-5.0, threshold=-4.0))
    assert result.min_ux[0] < -4.0
    assert len(result.times) == 2 and result.crossing_time == result.times[1] > 0.0
    clipped = run_blowup_experiment(
        BlowupExperimentConfig(n=256, slope=-5.0, threshold=-4.0, t_max=1e-4)
    )
    assert clipped.times.tolist() == [0.0, 1e-4] and clipped.crossing_time == 1e-4
    assert clipped.refinements == ((0.0, 256),) and clipped.resolved_until is None


def test_physical_density_passes_the_parity_gate():
    # A nonnegative density symmetric about L/2 is even; gated on oddness it
    # read 0.717, about 2*max rho0.
    grid = Grid1D(n=256, length=TWO_PI)
    y = (grid.nodes - 0.5 * TWO_PI) / 0.6
    config = BlowupExperimentConfig(
        n=256, k3=-1.0, slope=-5.0, t_max=0.02, rho0=y**2 * np.exp(-(y**2))
    )
    result = run_blowup_experiment(config)
    assert np.max(result.max_rho) > 0.3
    assert result.parity_residual_max < 1e-10  # perfbench's PARITY_TOL
    assert parity_residual(np.cos(grid.nodes), even=True) < 1e-15
    assert parity_residual(np.cos(grid.nodes)) > 1.0


def former_parity_residual(values, even=False):
    """parity_residual as it was, through a reflected copy of the values."""
    reflected = np.concatenate(([values[0]], values[:0:-1]))
    return float(np.max(np.abs(values - reflected if even else values + reflected)))


def float_bits(x):
    return np.float64(x).view(np.int64)


@pytest.mark.parametrize("even", [False, True])
def test_parity_residual_matches_the_reflected_copy_bit_for_bit(even):
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 16, 257, 1024):
        w = rng.standard_normal(n)
        odd = 0.5 * (w - np.concatenate(([w[0]], w[:0:-1])))
        sym = 0.5 * (w + np.concatenate(([w[0]], w[:0:-1])))
        cases = [w, odd, sym, odd + 1e-13 * w, sym + 1e-13 * w]
        for at in {0, n // 2, n - 1}:
            for bad in (np.nan, np.inf, -np.inf):
                hit = w.copy()
                hit[at] = bad
                cases.append(hit)
        for values in cases:
            with np.errstate(invalid="ignore"):  # inf - inf, in both formulas
                got = parity_residual(values, even=even)
                want = former_parity_residual(values, even=even)
            assert float_bits(got) == float_bits(want)


def test_snapshot_capture():
    config = BlowupExperimentConfig(n=256, slope=-5.0, threshold=-1e3, t_max=0.05)
    result = run_blowup_experiment(config, snapshot_times=[0.01, 0.03])
    assert len(result.snapshots) == 2
    t0, rho0, u0 = result.snapshots[0]
    assert t0 >= 0.01
    assert rho0.shape == (256,)
    assert np.max(np.abs(u0)) > 0.0


def test_snapshots_start_at_the_start_state_and_keep_their_times():
    # [0.0, -1.0, 0.5] with t_max = 0.02 gave two snapshots, both of the first
    # stepped state, and none at 0.5
    config = BlowupExperimentConfig(n=256, t_max=0.02)
    result = run_blowup_experiment(config, snapshot_times=[0.01, 0.0, 0.02, 0.01])
    times = [t for t, _, _ in result.snapshots]
    assert times[0] == 0.0 and times[-1] == 0.02 == result.times[-1]
    assert times[1] == times[2] == min(t for t in result.times if t >= 0.01)
    _, rho, u = result.snapshots[0]
    grid = Grid1D(n=256, length=TWO_PI)
    assert np.array_equal(u, odd_gaussian_derivative(grid, -5.0, TWO_PI / 16.0))
    assert not rho.any()


@pytest.mark.parametrize("t", [-1.0, -1e-300, 0.020000000000000004, 0.5, math.nan])
def test_snapshot_times_outside_the_run_are_refused_before_any_step(monkeypatch, t):
    monkeypatch.setattr(pdesolver, "step", None)  # a step would raise TypeError
    with pytest.raises(ValidationError, match=r"snapshot times must lie in \[0, t_max=0.02\]"):
        run_blowup_experiment(BlowupExperimentConfig(n=256, t_max=0.02), [0.0, t])


class StepCalled(Exception):
    pass


def refuse_step(*args, **kwargs):
    raise StepCalled


@pytest.mark.parametrize("count, refused", [(16, False), (17, True)])
def test_snapshot_nodes_are_capped_before_any_allocation(monkeypatch, count, refused):
    # 16 MB of (rho, u) per snapshot at n = 2**20, and nothing limited the count
    monkeypatch.setattr(pdesolver, "step", refuse_step)
    config = BlowupExperimentConfig(n=2**20, t_max=0.01)
    assert pdesolver.SNAPSHOT_POINTS_MAX == 16 * 2**20
    times = np.linspace(0.0, 0.01, count).tolist()
    if refused:
        with pytest.raises(ValidationError, match="17 snapshot times on n=1048576 would keep"):
            run_blowup_experiment(config, times)
    else:
        with pytest.raises(StepCalled):  # past the cap check, at the first step
            run_blowup_experiment(config, times)


def test_a_run_past_the_step_cap_is_refused_after_its_first_step(monkeypatch):
    # the first step is taken, so a start state past the float range is still a NonFinite
    grid = Grid1D(n=64, length=pdesolver.LENGTH)
    u0 = odd_gaussian_derivative(grid, -5.0, pdesolver.LENGTH / 16.0)
    dt0 = pdesolver.CFL * grid.dx / float(np.max(np.abs(u0)))
    monkeypatch.setattr(pdesolver, "STEPS_MAX", 10)
    steps = []

    def counted(*args, **kwargs):
        steps.append(args[1])
        return step(*args, **kwargs)

    monkeypatch.setattr(pdesolver, "step", counted)
    with pytest.raises(ValidationError, match=r" steps of the start dt .* on n=64, over the cap 10$"):
        run_blowup_experiment(BlowupExperimentConfig(n=64, t_max=10.5 * dt0))
    assert steps == [dt0]
    result = run_blowup_experiment(BlowupExperimentConfig(n=64, t_max=9.5 * dt0))
    assert result.times[-1] >= 9.5 * dt0 and len(steps) > 10


def test_blowup_result_margin_is_a_constant_not_a_field():
    result = run_blowup_experiment(BlowupExperimentConfig(n=256, slope=-5.0, threshold=-4.0))
    assert result.margin == pdesolver.MARGIN == 0.2
    assert {f.name for f in dataclasses.fields(result)}.isdisjoint({"margin", "threshold"})
    assert result.within_margin is (result.crossing_time <= result.bound * 1.2)


def test_run_sampler_matches_states_and_feeds_residual_lab():
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    state0 = make_state(grid, 0.8 + 0.1 * np.cos(x), 0.2 * np.sin(x))
    sampler = RunSampler(state0)
    rho_s, u_s = sampler(0.0, x)
    assert np.max(np.abs(rho_s - state0.rho)) < 1e-12
    assert np.max(np.abs(u_s - state0.u)) < 1e-12
    # trig interpolation reproduces the band-limited fields off-grid
    xq = x + 0.37 * grid.dx
    rho_q, _ = sampler(0.0, xq)
    assert np.max(np.abs(rho_q - (0.8 + 0.1 * np.cos(xq)))) < 1e-10
    r1, _, _ = equation_residuals(sampler, PARAMS, 0.05, grid, 1e-3, 1e-3)
    assert np.max(np.abs(r1)) < 5e-3


def test_characteristic_density_factor_matches_pointwise_density():
    # Track q' = k2*u(q) from x0; the transported density satisfies
    # rho(t, q(t))/rho(0, x0) = exp(-(k1+k2) int u_x(q) dt).
    grid = Grid1D(n=512, length=TWO_PI)
    x = grid.nodes
    rho0 = 1.0 + 0.5 * np.exp(-((x - math.pi) ** 2) / (2.0 * 0.4**2))
    state = make_state(grid, rho0, 0.3 * np.sin(x))
    q = math.pi + 0.5

    def at(values, point):  # the interpolant at one point, through the dense reference
        return float(dense_interp(grid, values, [point])[0])

    rho_start = at(state.rho, q)
    ts, ux = [0.0], [at(state.rows[3], q)]
    while state.t < 0.5:
        dt = cfl_dt(state)
        u_here = at(state.u, q)
        new_state = step(state, dt)
        q_pred = q + dt * PARAMS.k2 * u_here
        u_pred = at(new_state.u, q_pred)
        q = q + 0.5 * dt * PARAMS.k2 * (u_here + u_pred)
        state = new_state
        ts.append(state.t)
        ux.append(at(state.rows[3], q))
    factor = math.exp(-(PARAMS.k1 + PARAMS.k2) * np.trapezoid(ux, ts))
    rho_end = at(state.rho, q)
    assert rho_end / rho_start == pytest.approx(factor, rel=1e-2)


@pytest.mark.parametrize("kwargs", [
    {"t_max": 0.0}, {"t_max": -1.0}, {"t_max": math.inf}, {"t_max": math.nan},
    {"slope": 0.0}, {"threshold": 0.0}, {"threshold": math.nan},
    # slope = -inf passed, then the start state warned before the bound raised;
    # these three keep the ids they had when the sigma and margin settings
    # (then kwargs4-9) were still tested here
    pytest.param({"slope": -math.inf}, id="kwargs10"),
    pytest.param({"slope": math.nan}, id="kwargs11"),
    pytest.param({"threshold": -math.inf}, id="kwargs12"),
    # slope**2 underflows: the centre defect's v*v was 0 from t = 0
    pytest.param({"slope": -1e-320}, id="slope_square_underflows"),
    # -1/slope overflows: the bound T was inf, written as Infinity
    pytest.param({"slope": -1e-309}, id="slope_bound_overflows"),
])
def test_blowup_config_rejects_bad_step_and_horizon(kwargs):
    with pytest.raises(ValidationError):
        BlowupExperimentConfig(n=256, **kwargs)


def lab_queries(t, grids):
    """The (t, xs) pairs equation_residuals asks for, level by level, with dt = h."""
    queries = []
    for grid in grids:
        x, h = grid.nodes, grid.dx
        queries += [
            (t + h, x), (t - h, x), (t, x), (t, x + h), (t, x - h), (t, x + 2.0 * h),
            (t, x - 2.0 * h), (t + h, x + h), (t + h, x - h), (t - h, x + h), (t - h, x - h),
        ]
    return queries


def test_run_sampler_sample_depends_on_t_alone():
    # The former sampler stepped from its latest cached state, so asking the
    # same times in reverse order moved the samples by up to 1.1e-10.
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    state0 = make_state(grid, 1.0 + 0.1 * np.cos(x) + 0.05 * np.sin(2.0 * x), -0.6 * np.sin(x))
    t = 0.12
    queries = lab_queries(t, [Grid1D(n=m, length=TWO_PI) for m in (64, 128, 256)])

    run = [state0]  # CFL steps up to the latest query
    while run[-1].t + cfl_dt(run[-1]) <= max(tq for tq, _ in queries) + 1e-15:
        run.append(step(run[-1], cfl_dt(run[-1])))

    def sample_all(order):
        sampler = RunSampler(state0)
        return {i: sampler(*queries[i]) for i in order}

    forward = sample_all(range(len(queries)))
    shuffled = np.random.default_rng(15).permutation(len(queries))
    for order in (reversed(range(len(queries))), shuffled):
        got = sample_all(order)
        for i, want in forward.items():
            assert all(np.array_equal(g, w) for g, w in zip(got[i], want))
    for i, (tq, xs) in enumerate(queries):
        base = [st for st in run if st.t <= tq + 1e-15][-1]
        assert tq - base.t < cfl_dt(base)
        landed = base if base.t >= tq - 1e-15 else step(base, tq - base.t)
        want = trig_interp(grid, landed.rows[:2], xs)
        assert all(np.array_equal(g, w) for g, w in zip(forward[i], want))


def test_run_sampler_rejects_non_finite_and_early_times_before_stepping():
    # +inf and 1e300 used to step forever, nan returned the start state, and
    # 1e3 needs about 6,800 steps, more than a run may hold
    grid = Grid1D(n=64, length=TWO_PI)
    state0 = make_state(grid, np.ones(grid.n), 0.2 * np.sin(grid.nodes))
    sampler = RunSampler(state0)
    for t in (math.nan, math.inf, -math.inf, state0.t - 1e-3, 1e300, 1e3):
        with pytest.raises(ValidationError):
            sampler(t, grid.nodes)
    assert len(sampler._run) == 1 and sampler._run[0] is state0


def test_run_sampler_stops_at_its_cap_while_stepping(monkeypatch):
    # u grows from 0.01 under the density's pressure, so dt falls from 2.9 to
    # 0.015 after one step: t = 3.2 looks like one step from state0 and takes 21
    grid = Grid1D(n=64, length=TWO_PI)
    state0 = make_state(grid, 1.0 + 0.5 * np.cos(grid.nodes), 0.01 * np.sin(grid.nodes))
    monkeypatch.setattr(pdesolver, "RUN_STATES_MAX", 4)
    sampler = RunSampler(state0)
    assert 3.2 / cfl_dt(state0) < 2.0
    with pytest.raises(ValidationError):
        sampler(3.2, grid.nodes)
    assert 1 < len(sampler._run) <= 4


def verify_solver_case(seed):
    """A convergence study shaped like perfbench's verify_solver: an n = 1024
    run with rho from 3 seeded cosines, read at t by levels 128...1024."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=1024, length=TWO_PI)
    amps = rng.uniform(-0.1, 0.1, size=3)
    phases = rng.uniform(0.0, TWO_PI, size=3)
    rho0 = 1.0 + sum(a * np.cos((k + 1) * grid.nodes + p) for k, (a, p) in enumerate(zip(amps, phases)))
    u0 = odd_gaussian_derivative(grid, float(rng.uniform(-1.5, -0.5)), TWO_PI / 16.0)
    state0 = SolverState.make(0.0, dealias(grid, rho0), u0, PARAMS, grid)
    grids = tuple(Grid1D(n=m, length=TWO_PI) for m in (128, 256, 512, 1024))
    return state0, float(rng.uniform(0.06, 0.1)), grids


def recorded_study(sampler, state0, t, grids):
    """The study's report and every (t, rho, u) the sampler returned, in query order."""
    samples = []

    def record(tq, xs):
        rho, u = sampler(tq, xs)
        samples.append((tq, rho, u))
        return rho, u

    return convergence_study(record, state0.params, t, grids), samples


@pytest.mark.parametrize("seed", [2501, 2502, 2503])
def test_run_sampler_matches_the_landing_oracle_bit_for_bit(seed):
    state0, t, grids = verify_solver_case(seed)
    report, samples = recorded_study(RunSampler(state0), state0, t, grids)
    want_report, want_samples = recorded_study(LandingSampler(state0), state0, t, grids)
    assert len(samples) == len(want_samples) == 11 * len(grids)
    for (tq, rho, u), (want_t, want_rho, want_u) in zip(samples, want_samples):
        assert tq == want_t
        assert rho.tobytes() == want_rho.tobytes() and u.tobytes() == want_u.tobytes()
    for name in ("mass_norms", "momentum_norms", "order_estimate_mass", "order_estimate_momentum"):
        got, want = np.atleast_1d(getattr(report, name)), np.atleast_1d(getattr(want_report, name))
        assert np.array_equal(float_bits(got), float_bits(want)), name


def test_run_sampler_reads_a_rho_free_run_bit_for_bit():
    # a rho-free state holds u alone; the sampler reads its rho as zeros
    grid = Grid1D(n=256, length=TWO_PI)
    u0 = odd_gaussian_derivative(grid, -1.0, TWO_PI / 16.0)
    state0 = SolverState.make(0.0, np.zeros(grid.n), u0, PARAMS, grid)
    assert state0.rho_free
    sampler, oracle = RunSampler(state0), LandingSampler(state0)
    xs = Grid1D(n=64, length=TWO_PI).nodes + 0.01
    for t in (0.0, 0.03, 0.05, 0.03):
        (rho, u), (want_rho, want_u) = sampler(t, xs), oracle(t, xs)
        assert not rho.any() and u.any()
        assert rho.tobytes() == want_rho.tobytes() and u.tobytes() == want_u.tobytes()
    assert all(state.rho_free for state in sampler._run)


def test_study_takes_one_coefficient_rfft_per_landed_time(monkeypatch):
    state0, t, grids = verify_solver_case(2501)
    sampler = RunSampler(state0)
    rows = count_transform_rows(monkeypatch)
    _, samples = recorded_study(sampler, state0, t, grids)
    times = {tq for tq, _, _ in samples}
    assert (len(samples), len(times)) == (44, 9)  # t, and t +- h on each of the 4 levels
    # rho != 0 here, so each step transform has 3 or 4 rows: the 2-row
    # calls are the rffts of a landed (rho, u), one per distinct time
    assert rows.count(2) == len(times) == len(sampler._landed)
    # the nodes shifted by 0, +-h and +-2h on each level: 20 starts, 11 distinct,
    # as each level's 2h is the next coarser level's h
    assert len(sampler._phases) == 11


def test_run_sampler_keeps_at_most_run_states_max_landed_times():
    # Each landed time used to be kept for good: these 2000 queries held 13
    # run states and 2000 landed states, and RSS grew by 84 MB.
    grid = Grid1D(n=1024, length=TWO_PI)
    rho0 = dealias(grid, 1.0 + 0.1 * np.cos(grid.nodes))
    u0 = odd_gaussian_derivative(grid, -1.0, TWO_PI / 16.0)
    sampler = RunSampler(SolverState.make(0.0, rho0, u0, PARAMS, grid))
    times = np.linspace(0.0, 0.1, 2001)[1:].tolist()
    first = sampler(times[0], grid.nodes)
    for t in times[1:]:
        sampler(t, grid.nodes)
    cap = pdesolver.RUN_STATES_MAX
    assert len(sampler._run) == 13
    assert len(sampler._landed) == cap and times[0] not in sampler._landed
    assert list(sampler._landed) == times[-cap:]  # the oldest went first
    # 2*(n/2 + 1) complex numbers per landed time: 16.4 KB at n = 1024
    assert sum(c.nbytes for c in sampler._landed.values()) == cap * 2 * (grid.n // 2 + 1) * 16
    again = sampler(times[0], grid.nodes)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, first))


def test_run_sampler_keeps_at_most_run_states_max_phases(monkeypatch):
    grid = Grid1D(n=64, length=TWO_PI)
    sampler = RunSampler(make_state(grid, 1.0 + 0.5 * np.cos(grid.nodes), 0.01 * np.sin(grid.nodes)))
    monkeypatch.setattr(pdesolver, "RUN_STATES_MAX", 4)
    starts = [0.1 * k for k in range(6)]
    first = sampler(0.0, grid.nodes + starts[0])
    for start in starts[1:]:
        sampler(0.0, grid.nodes + start)
    assert list(sampler._phases) == starts[-4:]  # the oldest went first
    again = sampler(0.0, grid.nodes + starts[0])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, first))


@pytest.mark.parametrize("m", [64, 256, 1024])  # m < n, m = n, m > n
@pytest.mark.parametrize("offset", [0.0, 1.0, -1.0, 2.0, -2.0, 0.37])
@pytest.mark.parametrize("x0", [0.0, -1.3])
def test_trig_interp_one_period_matches_dense(m, offset, x0):
    grid = Grid1D(n=256, length=TWO_PI, x0=x0)
    values = solver_like_fields(grid)
    xs = Grid1D(n=m, length=TWO_PI, x0=x0).nodes + offset * (TWO_PI / m)
    assert pdesolver._is_one_period(grid, xs)
    got = trig_interp(grid, values, xs)
    assert got.shape == (2, m)
    for row, field in zip(got, values):
        scale = np.max(np.abs(field))
        assert np.max(np.abs(row - dense_interp(grid, field, xs))) <= 1e-13 * scale
        assert np.array_equal(row, trig_interp(grid, field, xs))


@pytest.mark.parametrize("start", [0.5, 1.0, 3.0])  # in units of L: wraps past x0 + L
def test_trig_interp_one_period_wraps_past_the_domain(start):
    grid = Grid1D(n=256, length=TWO_PI, x0=-1.3)
    values = solver_like_fields(grid)[1]
    xs = grid.x0 + start * TWO_PI + np.arange(128) * (TWO_PI / 128)
    assert pdesolver._is_one_period(grid, xs)
    err = np.max(np.abs(trig_interp(grid, values, xs) - dense_interp(grid, values, xs)))
    assert err <= 1e-13 * np.max(np.abs(values))


def test_trig_interp_and_run_sampler_refuse_other_points():
    # a single point, a partial period and jittered nodes, which the removed
    # dense phase-matrix route used to take
    grid = Grid1D(n=256, length=TWO_PI)
    values = solver_like_fields(grid)
    state0 = SolverState.make(0.0, values[0], values[1], PARAMS, grid)
    x = grid.nodes
    jitter = np.random.default_rng(3).uniform(-1e-3, 1e-3, size=grid.n) * grid.dx
    for xs in (np.array([1.234]), x[:32] + 0.37 * grid.dx, x + jitter):
        assert not pdesolver._is_one_period(grid, xs)
        with pytest.raises(ValidationError, match="one uniform period"):
            trig_interp(grid, values, xs)
        sampler = RunSampler(state0)
        assert 0.05 > cfl_dt(state0)  # the query would need a step
        with pytest.raises(ValidationError, match="one uniform period"):
            sampler(0.05, xs)
        assert len(sampler._run) == 1 and not sampler._landed


# ---------------------------------------------------------------------------
# Physical-space reference: the solver as it was before the state moved to
# Fourier space (ten numpy.fft transforms per RK4 stage, nodal combination).
# ---------------------------------------------------------------------------


def reference_tendency(grid, params, rho, u):
    ik = 1j * grid.wavenumbers
    mask = np.arange(grid.n // 2 + 1) <= grid.n // 3

    rho_x = np.fft.irfft(ik * np.fft.rfft(rho), n=grid.n)
    u_x = np.fft.irfft(ik * np.fft.rfft(u), n=grid.n)

    def dealiased(prod):
        p_hat = np.fft.rfft(prod)
        p_hat[~mask] = 0.0
        return p_hat

    drho_hat = -params.k2 * dealiased(u * rho_x) - (params.k1 + params.k2) * dealiased(
        rho * u_x
    )
    q_hat = dealiased(1.5 * u * u + 0.5 * params.k3 * rho * rho)
    du_hat = -dealiased(u * u_x) - ik / (1.0 + grid.wavenumbers**2) * q_hat
    return np.fft.irfft(drho_hat, n=grid.n), np.fft.irfft(du_hat, n=grid.n)


def reference_step(grid, params, rho, u, dt):
    dr1, du1 = reference_tendency(grid, params, rho, u)
    dr2, du2 = reference_tendency(grid, params, rho + 0.5 * dt * dr1, u + 0.5 * dt * du1)
    dr3, du3 = reference_tendency(grid, params, rho + 0.5 * dt * dr2, u + 0.5 * dt * du2)
    dr4, du4 = reference_tendency(grid, params, rho + dt * dr3, u + dt * du3)
    rho_new = rho + dt / 6.0 * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
    u_new = u + dt / 6.0 * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
    return rho_new, u_new


def reference_min_ux(grid, u):
    u_hat = np.fft.rfft(u) * (1j * grid.wavenumbers)
    u_hat[-1] = 0.0
    return float(np.min(np.fft.irfft(u_hat, n=grid.n)))


def reference_blowup_run(config):
    """(steps, crossing time) of the former driver: min of the doubling rule and the CFL dt."""
    grid = Grid1D(n=config.n, length=pdesolver.LENGTH)
    params = SystemParams(k1=config.k1, k2=config.k2, k3=config.k3)
    u = odd_gaussian_derivative(grid, config.slope, pdesolver.LENGTH / 16.0)
    rho = np.zeros(grid.n)
    u0_max = float(np.max(np.abs(u)))
    dt0 = pdesolver.CFL * grid.dx / u0_max
    t, steps = 0.0, 0
    while t < config.t_max:
        u_max = float(np.max(np.abs(u)))
        doublings = max(0, math.ceil(math.log2(u_max / u0_max))) if u_max > u0_max else 0
        dt = min(dt0 / 2**doublings, pdesolver.CFL * grid.dx / u_max, config.t_max - t)
        rho, u = reference_step(grid, params, rho, u, dt)
        t, steps = t + dt, steps + 1
        if reference_min_ux(grid, u) < config.threshold:
            return steps, t
    return steps, None


def test_steps_match_physical_space_reference():
    params = SystemParams(k1=0.8, k2=1.2, k3=0.5)
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    rho = dealias(grid, 0.9 + 0.2 * np.cos(2.0 * x + 0.4) + 0.1 * np.sin(5.0 * x))
    u = dealias(grid, 0.4 * np.sin(x) - 0.15 * np.cos(3.0 * x + 1.1) + 0.05 * np.sin(7.0 * x))
    state = SolverState.make(0.0, rho, u, params, grid)
    for _ in range(50):
        dt = cfl_dt(state)
        state = step(state, dt)
        rho, u = reference_step(grid, params, rho, u, dt)
    for got, want in ((state.rho, rho), (state.u, u)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    ux_scale = np.max(np.abs(state.rows[3]))
    assert abs(state.min_ux - reference_min_ux(grid, u)) <= 1e-12 * ux_scale
    assert abs(state.max_rho - float(np.max(rho))) <= 1e-12 * np.max(np.abs(rho))
    # the kept-band tendency matches the reference in physical space
    for got, want in zip(tendency(state), reference_tendency(grid, params, state.rho, state.u)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_blowup_run_matches_physical_space_driver():
    config = BlowupExperimentConfig(n=1024, slope=-5.0, threshold=-100.0, t_max=0.3)
    result = run_blowup_experiment(config)
    steps, crossing = reference_blowup_run(config)
    assert len(result.times) - 1 == steps
    assert result.crossing_time == crossing


def count_transform_rows(monkeypatch):
    """Record the rows of every numpy.fft rfft/irfft call that dp2.pdesolver
    makes, one list entry per call; this file's own references are not counted."""
    rows = []
    for name in ("rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(x, *args, _original=original, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == pdesolver.__name__:
                rows.append(int(np.prod(np.shape(x)[:-1])))
            return _original(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return rows


def test_step_costs_28_transforms_in_8_calls(monkeypatch):
    grid = Grid1D(n=256, length=TWO_PI)
    state = make_state(grid, 1.0 + 0.1 * np.cos(grid.nodes), 0.3 * np.sin(grid.nodes))
    rows = count_transform_rows(monkeypatch)
    step(state, cfl_dt(state))
    assert (len(rows), sum(rows)) == (8, 28)


def test_step_raises_nonfinite_when_tendency_overflows():
    # the state is finite, but u*u_x ~ 1e320 overflows inside the first stage
    grid = Grid1D(n=64, length=TWO_PI)
    state = SolverState.make(0.0, np.zeros(grid.n), 1e160 * np.sin(grid.nodes), PARAMS, grid)
    assert state.rho_free  # tendency passes u alone, as step does
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            tendency(state)
        with pytest.raises(NonFinite):
            step(state, cfl_dt(state))


@pytest.mark.parametrize("rho_scale", [0.0, 1.0])
def test_step_overflow_is_nonfinite_not_a_warning(rho_scale):
    # step silences numpy's overflow warnings itself; the NonFinite is the only report
    grid = Grid1D(n=64, length=TWO_PI)
    state = SolverState.make(
        0.0, rho_scale * np.cos(grid.nodes), 1e160 * np.sin(grid.nodes), PARAMS, grid
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            step(state, cfl_dt(state))


def test_make_keeps_the_given_nodal_values():
    # A transform round trip moves these values by an ulp; a 1-ulp rise in
    # max|u0| would halve dt for the whole blowup run (doubling rule).
    grid = Grid1D(n=1024, length=TWO_PI)
    u = odd_gaussian_derivative(grid, -5.0, TWO_PI / 16.0)
    rho = dealias(grid, 1.0 + 0.1 * np.cos(grid.nodes))
    assert not np.array_equal(np.fft.irfft(np.fft.rfft(u), n=grid.n), u)
    state = SolverState.make(0.0, rho, u, PARAMS, grid)
    assert np.array_equal(state.u, u)
    assert np.array_equal(state.rho, rho)
    assert state.max_rho == float(np.max(rho))


@pytest.mark.parametrize("op", [dealias, helmholtz_inverse])
def test_spectral_operators_reject_wrong_length(op):
    grid = Grid1D(n=64, length=TWO_PI)
    with pytest.raises(ValidationError):
        op(grid, np.zeros(32))


def test_operators_are_read_only_and_cached_per_grid():
    grid = Grid1D(n=128, length=3.0)
    ops = pdesolver._operators(grid)
    arrays = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 6  # centre weights included
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    hits = pdesolver._operators.cache_info().hits
    assert pdesolver._operators(Grid1D(n=128, length=3.0)) is ops
    assert pdesolver._operators.cache_info().hits == hits + 1


def test_rho_free_step_costs_9_transforms_in_8_calls(monkeypatch):
    grid = Grid1D(n=256, length=TWO_PI)
    state = make_state(grid, np.zeros(grid.n), 0.3 * np.sin(grid.nodes))
    rows = count_transform_rows(monkeypatch)
    state = step(state, cfl_dt(state))
    assert (len(rows), sum(rows)) == (8, 9)
    # the new state is rho-free too, so the next step costs the same
    rows.clear()
    step(state, cfl_dt(state))
    assert (len(rows), sum(rows)) == (8, 9)


@pytest.mark.parametrize("k3", [0.5, -0.7])
def test_rho_free_steps_match_physical_space_reference(k3):
    params = SystemParams(k1=0.8, k2=1.2, k3=k3)
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    rho = np.zeros(grid.n)
    u = dealias(grid, 0.4 * np.sin(x) - 0.15 * np.cos(3.0 * x + 1.1) + 0.05 * np.sin(7.0 * x))
    state = SolverState.make(0.0, rho, u, params, grid)
    for _ in range(50):
        dt = cfl_dt(state)
        state = step(state, dt)
        rho, u = reference_step(grid, params, rho, u, dt)
    assert np.max(np.abs(state.u - u)) <= 1e-12 * np.max(np.abs(u))
    ux_scale = np.max(np.abs(state.rows[-1]))
    assert abs(state.min_ux - reference_min_ux(grid, u)) <= 1e-12 * ux_scale
    assert not rho.any()
    # the state holds u alone: the u band and the rows (u, u_x)
    assert state.rho_free and not state.rho.any() and state.max_rho == 0.0
    assert state.rows.shape == (2, grid.n)
    assert state.spectrum.shape == (1, grid.n // 3 + 1)
    assert np.shares_memory(state.u, state.rows[0])
    # the kept-band tendency of a rho-free state is du alone; the reference's drho is 0
    (du,) = tendency(state)
    drho_ref, du_ref = reference_tendency(grid, params, state.rho, state.u)
    assert not drho_ref.any()
    assert np.max(np.abs(du - du_ref)) <= 1e-12 * np.max(np.abs(du_ref))


def test_tiny_rho_takes_the_general_path(monkeypatch):
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    rho = 1e-30 * np.cos(x)
    u = 0.3 * np.sin(x) + 0.1 * np.cos(2.0 * x)
    state = SolverState.make(0.0, rho, u, PARAMS, grid)
    rows = count_transform_rows(monkeypatch)
    for _ in range(10):
        dt = cfl_dt(state)
        state = step(state, dt)
        rho, u = reference_step(grid, PARAMS, rho, u, dt)
    assert sum(rows) == 10 * 28
    assert not np.array_equal(state.rho, 1e-30 * np.cos(x))
    for got, want in ((state.rho, rho), (state.u, u)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def fresh_scans(state):
    """(max|u|, min u_x, max rho, rho all zeros, CFL dt) of a state, scanned anew.

    u and u_x are the rows (rho, u, rho_x, u_x)[1::2] of a coupled state and
    (u, u_x) of a rho-free one; a rho-free state's rho is all zeros.
    """
    u, u_x = state.rows[-3::2] if len(state.rows) == 4 else state.rows
    rho = state.rows[0] if len(state.rows) == 4 else np.zeros(state.grid.n)
    u_max = float(np.max(np.abs(u)))
    dt = pdesolver.CFL * state.grid.dx / max(u_max, pdesolver.CFL_VELOCITY_FLOOR)
    return u_max, float(np.min(u_x)), float(np.max(rho)), not np.any(rho), dt


def test_cached_scans_equal_fresh_scans_bit_for_bit():
    grid, fine = Grid1D(n=256, length=TWO_PI), Grid1D(n=512, length=TWO_PI)
    x = grid.nodes
    u = 0.3 * np.sin(x) + 0.1 * np.cos(2.0 * x)
    starts = {
        "rho-free": make_state(grid, np.zeros(grid.n), u),
        "coupled": make_state(grid, 1.0 + 0.1 * np.cos(x), u),
        "tiny rho": SolverState.make(0.0, 1e-30 * np.cos(x), u, PARAMS, grid),
    }
    states = {name: step(state, cfl_dt(state)) for name, state in starts.items()}
    for name in ("rho-free", "coupled"):
        states[f"padded {name}"] = pdesolver._padded(states[name], fine)
    for name in ("rho-free", "padded rho-free"):
        # the layout says rho-free, and max_rho is known without a scan
        assert len(states[name].spectrum) == 1 and len(states[name].rows) == 2, name
        assert states[name].max_rho == 0.0 and "rho_free" not in vars(states[name]), name
    for name, state in states.items():
        want = fresh_scans(state)
        for _ in range(2):  # the first read scans, the second reads the kept value
            got = (state.max_abs_u, state.min_ux, state.max_rho, state.rho_free, cfl_dt(state))
            assert got[3] is want[3], name
            floats = [0, 1, 2, 4]
            assert [float_bits(got[i]) for i in floats] == [float_bits(want[i]) for i in floats], name
    assert [states[name].rho_free for name in states] == [True, False, False, True, False]


def test_rho_free_layout_matches_the_general_path_with_a_zero_rho_band():
    # the same u band, held alone and beside an exactly zero rho band
    grid = Grid1D(n=256, length=TWO_PI)
    u = odd_gaussian_derivative(grid, -5.0, TWO_PI / 16.0)
    alone = SolverState.make(0.0, np.zeros(grid.n), u, PARAMS, grid)
    assert alone.rho_free and alone.rows.shape == (2, grid.n) and alone.spectrum.shape == (1, grid.n // 3 + 1)
    for _ in range(50):
        alone = step(alone, cfl_dt(alone))
    zero_band = np.concatenate((np.zeros_like(alone.spectrum), alone.spectrum))
    general = SolverState._advanced(alone.t, zero_band, PARAMS, grid)
    assert not general.rho_free and general.rows.shape == (4, grid.n)
    assert same_bits(alone.rows, np.ascontiguousarray(general.rows[1::2]))  # (u, u_x)
    assert same_bits(alone.spectrum, np.ascontiguousarray(general.spectrum[1:]))
    assert not general.rows[::2].any()
    scans = ("max_abs_u", "min_ux", "max_rho")
    assert [float_bits(getattr(alone, name)) for name in scans] == [
        float_bits(getattr(general, name)) for name in scans
    ]
    assert np.array_equal(alone.u, general.u) and np.array_equal(alone.rho, general.rho)
    assert alone.rows.flags.c_contiguous


@pytest.mark.parametrize("rho_scale", [0.0, 1.0])
def test_step_leaves_its_state_bit_for_bit(rho_scale):
    # stage 1 reads the state's rows while the step's buffers take the products
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    state = make_state(grid, rho_scale * (1.0 + 0.1 * np.cos(x)), 0.3 * np.sin(x) + 0.1 * np.cos(2 * x))
    assert state.rho_free == (rho_scale == 0.0)
    rows, spectrum = state.rows.copy(), state.spectrum.copy()
    for dt in (cfl_dt(state), -0.5 * cfl_dt(state)):
        spectra = []
        stepped = step(state, dt, spectra_out=spectra)
        assert same_bits(state.rows, rows) and same_bits(state.spectrum, spectrum)
        assert stepped.rho_free == state.rho_free
        for arr in spectra + [stepped.rows, stepped.spectrum]:
            assert not np.shares_memory(arr, state.rows) and not np.shares_memory(arr, state.spectrum)


def former_stage_rows(grid, spectrum):
    """A stage's nodal rows as they were taken: from a stage band s + c*k formed apart."""
    if len(spectrum) == 1:
        return np.fft.irfft(spectrum, n=grid.n)
    return pdesolver._nodal_rows(grid, spectrum)


def former_step_spectrum(state, dt):
    """step's new kept bands, combined as before: s + dt/6*(k1 + 2*k2 + 2*k3 + k4)."""
    grid, params = state.grid, state.params
    s, rows = state.spectrum, state.rows[:1] if state.rho_free else state.rows
    k1 = pdesolver._tendency_arrays(grid, params, rows)
    k2 = pdesolver._tendency_arrays(grid, params, former_stage_rows(grid, s + 0.5 * dt * k1))
    k3 = pdesolver._tendency_arrays(grid, params, former_stage_rows(grid, s + 0.5 * dt * k2))
    k4 = pdesolver._tendency_arrays(grid, params, former_stage_rows(grid, s + dt * k3))
    return s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("rho_scale", [0.0, 1.0])
def test_in_place_rk4_sum_matches_the_former_expression(rho_scale):
    grid = Grid1D(n=256, length=TWO_PI)
    x = grid.nodes
    state = make_state(grid, rho_scale * (1.0 + 0.1 * np.cos(x)), 0.3 * np.sin(x) + 0.1 * np.cos(2 * x))
    for dt in (cfl_dt(state), -0.5 * cfl_dt(state)):
        got = step(state, dt).spectrum
        want = former_step_spectrum(state, dt)
        assert got.shape == want.shape == (2 - state.rho_free, grid.n // 3 + 1)
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Resolution-adaptive blowup runs: start coarse, double n while the centre
# Riccati defect D exceeds DEFECT_TOL.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,crossing,fixed_steps",
    [
        # crossings and step counts of the runs that stepped on grid n throughout
        (2048, 0.3288426096951083, 577),
        (4096, 0.22103169535323317, 581),
        (8192, 0.2026767905817653, 1049),
        (16384, 0.19890920486551597, 2059),
    ],
)
def test_adaptive_run_keeps_the_fixed_grid_crossing(n, crossing, fixed_steps):
    result = run_blowup_experiment(BlowupExperimentConfig(n=n, slope=-5.0))
    assert abs(result.crossing_time - crossing) <= 1e-12 * crossing
    assert len(result.times) - 1 < fixed_steps  # coarse steps scale with dx
    assert result.parity_residual_max < 1e-10
    ts, ns = zip(*result.refinements)
    assert ns == tuple(START_N_MIN * 2**j for j in range(len(ns))) and ns[-1] == n
    assert ts[0] == 0.0 and np.all(np.diff(ts) > 0.0)
    assert set(ts[1:]) <= set(result.times.tolist())


def test_resolved_until_marks_where_grid_n_stops_resolving():
    # D on grid n alone at slope -5: 3.3e-4 by t = 0.15 at n = 1024;
    # 2.3e-7 at t = 0.18 and 1.5e-2 at t = 0.19 at n = 8192
    assert run_blowup_experiment(BlowupExperimentConfig(n=1024)).resolved_until < 0.15
    assert 0.18 < run_blowup_experiment(BlowupExperimentConfig(n=8192)).resolved_until < 0.19
    short = run_blowup_experiment(BlowupExperimentConfig(n=256, t_max=0.02))
    assert short.resolved_until is None
    assert short.refinements == ((0.0, 256),)


@pytest.mark.parametrize("rho_scale", [0.0, 1.0])
def test_centre_defect_is_round_off_only_while_resolved(rho_scale):
    def defect(n):
        grid = Grid1D(n=n, length=TWO_PI)
        y = (grid.nodes - math.pi) / 0.6
        rho = dealias(grid, rho_scale * y**2 * np.exp(-(y**2)))
        u = odd_gaussian_derivative(grid, -5.0, TWO_PI / 16.0)
        state = SolverState.make(0.0, rho, u, PARAMS, grid)
        spectra = []
        step(state, cfl_dt(state), spectra_out=spectra)
        return pdesolver._centre_defect(state, *spectra)

    assert defect(1024) < 1e-12
    assert defect(32) > DEFECT_TOL


def test_adaptive_run_transforms_9_rows_per_step(monkeypatch):
    rows = count_transform_rows(monkeypatch)
    result = run_blowup_experiment(BlowupExperimentConfig(n=2048))
    steps, doublings = len(result.times) - 1, len(result.refinements) - 1
    assert doublings == 1
    # start: dealias u0 (2 rows), the start-grid rfft of (rho0, u0) (2) and
    # the rho-free n = 1024 state (2: u's rfft, u_x's irfft); each doubling:
    # one irfft of (u, u_x) (2)
    assert sum(rows) == 6 + 9 * steps + 2 * doublings


def test_start_grid_keeps_every_mode_of_the_start_state():
    grid = Grid1D(n=2048, length=TWO_PI)
    y = grid.nodes - math.pi
    smooth = (y / 0.6) ** 2 * np.exp(-((y / 0.6) ** 2))
    # mode 400 lies above the n = 1024 band (k <= 341), inside n = 2048's
    for rho0, n_start in ((smooth, 1024), (smooth + 1e-3 * np.cos(400.0 * y), 2048)):
        result = run_blowup_experiment(BlowupExperimentConfig(n=2048, rho0=rho0, t_max=0.002))
        assert result.refinements[0] == (0.0, n_start)


def test_coarse_snapshots_are_zero_padded_to_grid_n():
    result = run_blowup_experiment(BlowupExperimentConfig(n=2048, t_max=0.06), [0.05])
    assert result.refinements == ((0.0, 1024),)  # the snapshot was taken on 1024 points
    ((t, rho, u),) = result.snapshots
    assert t >= 0.05 and rho.shape == u.shape == (2048,)
    assert not rho.any()
    spectrum = np.abs(np.fft.rfft(u))
    assert np.max(spectrum[1024 // 3 + 1 :]) <= 1e-13 * np.max(spectrum)
    assert parity_residual(u) < 1e-12 * np.max(np.abs(u))


def same_bits(got, want):
    """Equal arrays by dtype, shape and bytes; anything else by type and repr."""
    if isinstance(want, np.ndarray):
        return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    return type(got) is type(want) and repr(got) == repr(want)


@pytest.mark.parametrize("config", [
    dict(n=256, t_max=1e-4),
    dict(n=1024),  # resolved_until is not None
    dict(n=2048),  # starts on 1024 points and doubles once
    dict(n=256, k3=-2.0, t_max=0.05, rho0=0.5 + 0.2 * np.cos(Grid1D(n=256, length=TWO_PI).nodes)),
], ids=["clipped", "n1024", "n2048", "coupled"])
def test_result_fields_are_the_former_derivation_of_the_record(config):
    config = BlowupExperimentConfig(**config)
    result = run_blowup_experiment(config)
    assert RECORD.names == ("t", "n", "min_ux", "max_rho", "parity", "defect")
    assert result.record.dtype == RECORD
    want = blowup_record_fields(result.record.tolist(), config.threshold, config.n)
    for name, value in want.items():
        assert same_bits(getattr(result, name), value), name
    for view in (result.times, result.min_ux, result.max_rho):
        assert np.shares_memory(view, result.record)
    if config.n == 1024:
        assert result.resolved_until is not None
    if config.n == 2048:
        assert [n for _, n in result.refinements] == [1024, 2048]
    if config.rho0 is not None:
        assert result.max_rho[0] > 0.6 and result.parity_residual_max < 1e-10


def test_a_centre_slope_whose_square_underflows_has_an_infinite_defect():
    # v = u_x(L/2) is not 0 but v*v is: D divided by it (ZeroDivisionError).
    # BlowupExperimentConfig refuses such a slope, so the state is built directly.
    grid = Grid1D(n=64, length=pdesolver.LENGTH)
    u = odd_gaussian_derivative(grid, -1e-170, pdesolver.LENGTH / 16.0)
    state = SolverState.make(0.0, np.zeros(grid.n), u, PARAMS, grid)
    spectra = []
    step(state, 1e-3, spectra_out=spectra)
    assert state.rows[-1, grid.n // 2] ** 2 == 0.0 < abs(state.rows[-1, grid.n // 2])
    assert pdesolver._centre_defect(state, *spectra) == math.inf
