"""Periodic pseudo-spectral reference solver for the nonlocal form.

The system is integrated as a quasi-linear evolution of hyperbolic
type,

    rho_t = -k2*rho_x*u - (k1+k2)*rho*u_x
    u_t   = -u*u_x - d/dx G * (3/2*u**2 + k3/2*rho**2),

where G* is convolution with the Green kernel of (1 - d2/dx2)^-1,
realised on the periodic domain through the Fourier multiplier
1/(1 + w**2).  Spatial derivatives are spectral, quadratic products are
dealiased with the 2/3 rule, and time stepping is classical RK4 with a
CFL-limited dt that is halved whenever max|u| doubles.  Blowup is
detected, never resolved: once the minimum slope falls below the
configured threshold the run stops and reports diagnostics only.

Odd initial data stay odd under this discretisation (the equations are
parity-equivariant, transforms and multipliers preserve it), which
pins u = 0 at the symmetry point and makes the M = 0 slope-blowup
criterion applicable there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import Grid1D
from .riccati import BlowupCriterion, check
from .selfsim import SystemParams

CFL_DEFAULT = 0.3
CFL_VELOCITY_FLOOR = 1e-12
# trig_interp: points within UNIFORM_RTOL*(L + |xs[0]|) of one uniform
# period take the FFT route; the dense route builds its phase matrix
# DENSE_BLOCK_ROWS points at a time (DENSE_BLOCK_ROWS*(n/2+1)*16 bytes
# per block, 8.4 MB at n=4096).
UNIFORM_RTOL = 64 * np.finfo(float).eps
DENSE_BLOCK_ROWS = 256


class NonFinite(NumericalError):
    """A tendency or state entry is not finite (blowup in progress)."""


def _check_cfl(cfl: float) -> None:
    if not (math.isfinite(cfl) and cfl > 0.0):
        raise ValidationError(f"cfl must be finite and positive, got cfl={cfl}")


def _dealias_mask(grid: Grid1D) -> np.ndarray:
    k_index = np.arange(grid.n // 2 + 1)
    return k_index <= grid.n // 3


def dealias(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum (2/3-rule product filter)."""
    w_hat = np.fft.rfft(w)
    w_hat[~_dealias_mask(grid)] = 0.0
    return np.fft.irfft(w_hat, n=grid.n)


def spectral_dx(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    w_hat = np.fft.rfft(w) * (1j * grid.wavenumbers)
    if grid.n % 2 == 0:
        w_hat[-1] = 0.0  # odd-derivative Nyquist mode is not representable
    return np.fft.irfft(w_hat, n=grid.n)


def helmholtz_inverse(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    """Convolution with the periodised Green kernel of (1 - d2/dx2)^-1.

    Acts as the multiplier 1/(1 + w_k**2) with w_k = 2*pi*k/L; exact for
    band-limited input.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n,):
        raise ValidationError(f"field length {w.shape} does not match grid n={grid.n}")
    w_hat = np.fft.rfft(w) / (1.0 + grid.wavenumbers**2)
    return np.fft.irfft(w_hat, n=grid.n)


@dataclass(frozen=True)
class SolverState:
    t: float
    rho: np.ndarray
    u: np.ndarray
    params: SystemParams
    grid: Grid1D
    min_ux: float
    max_rho: float

    @classmethod
    def make(
        cls,
        t: float,
        rho: np.ndarray,
        u: np.ndarray,
        params: SystemParams,
        grid: Grid1D,
    ) -> "SolverState":
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        for name, arr in (("rho", rho), ("u", u)):
            if arr.shape != (grid.n,):
                raise ValidationError(f"{name} length {arr.shape} does not match grid")
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"{name} contains non-finite entries at t={t}")
        return cls(
            t=t,
            rho=rho,
            u=u,
            params=params,
            grid=grid,
            min_ux=float(np.min(spectral_dx(grid, u))),
            max_rho=float(np.max(rho)),
        )


def _tendency_arrays(
    grid: Grid1D, params: SystemParams, rho: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    ik = 1j * grid.wavenumbers
    mask = _dealias_mask(grid)

    rho_hat = np.fft.rfft(rho)
    u_hat = np.fft.rfft(u)
    rho_x = np.fft.irfft(ik * rho_hat, n=grid.n)
    u_x = np.fft.irfft(ik * u_hat, n=grid.n)

    def dealiased(prod: np.ndarray) -> np.ndarray:
        p_hat = np.fft.rfft(prod)
        p_hat[~mask] = 0.0
        return p_hat

    drho_hat = -params.k2 * dealiased(u * rho_x) - (params.k1 + params.k2) * dealiased(
        rho * u_x
    )
    q_hat = dealiased(1.5 * u * u + 0.5 * params.k3 * rho * rho)
    du_hat = -dealiased(u * u_x) - ik / (1.0 + grid.wavenumbers**2) * q_hat

    drho = np.fft.irfft(drho_hat, n=grid.n)
    du = np.fft.irfft(du_hat, n=grid.n)
    if not (np.all(np.isfinite(drho)) and np.all(np.isfinite(du))):
        raise NonFinite("tendency produced non-finite entries")
    return drho, du


def tendency(state: SolverState) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (d rho/dt, d u/dt) of the nonlocal form."""
    return _tendency_arrays(state.grid, state.params, state.rho, state.u)


def cfl_dt(state: SolverState, cfl: float = CFL_DEFAULT) -> float:
    return cfl * state.grid.dx / max(float(np.max(np.abs(state.u))), CFL_VELOCITY_FLOOR)


def step(state: SolverState, dt: float, cfl: float = CFL_DEFAULT) -> SolverState:
    """One classical RK4 step; dt must respect the CFL bound.

    Negative dt is accepted for time-reversal consistency checks.
    """
    if abs(dt) > cfl_dt(state, cfl) * (1.0 + 1e-12):
        raise ValidationError(
            f"dt={dt} violates the CFL bound {cfl_dt(state, cfl)} at t={state.t}"
        )
    grid, params = state.grid, state.params
    rho, u = state.rho, state.u
    dr1, du1 = _tendency_arrays(grid, params, rho, u)
    dr2, du2 = _tendency_arrays(grid, params, rho + 0.5 * dt * dr1, u + 0.5 * dt * du1)
    dr3, du3 = _tendency_arrays(grid, params, rho + 0.5 * dt * dr2, u + 0.5 * dt * du2)
    dr4, du4 = _tendency_arrays(grid, params, rho + dt * dr3, u + dt * du3)
    rho_new = rho + dt / 6.0 * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
    u_new = u + dt / 6.0 * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
    return SolverState.make(state.t + dt, rho_new, u_new, params, grid)


def parity_residual(values: np.ndarray) -> float:
    """Oddness defect max_j |w(x_j) + w(L - x_j)| on the periodic grid."""
    reflected = np.concatenate(([values[0]], values[:0:-1]))
    return float(np.max(np.abs(values + reflected)))


def odd_gaussian_derivative(
    grid: Grid1D, slope: float, sigma: float
) -> np.ndarray:
    """Odd initial velocity with u'(L/2) = slope at the symmetry point.

    u0(x) = slope * (x - L/2) * exp(-(x - L/2)**2 / (2 sigma**2)),
    antisymmetrised on the grid so parity holds to the last bit, then
    dealiased so the evolved state stays in the resolved band.
    """
    y = grid.nodes - (grid.x0 + 0.5 * grid.length)
    u0 = slope * y * np.exp(-(y**2) / (2.0 * sigma**2))
    u0 = 0.5 * (u0 - np.concatenate(([u0[0]], u0[:0:-1])))
    return dealias(grid, u0)


@dataclass(frozen=True)
class BlowupExperimentConfig:
    n: int = 2048
    length: float = 2.0 * math.pi
    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    slope: float = -5.0
    sigma: float = 0.0  # 0 -> length/16
    cfl: float = CFL_DEFAULT
    threshold: float = -1e3
    t_max: float = 0.5
    m_est: float = 0.0
    margin: float = 0.2
    rho0: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.slope >= 0.0:
            raise ValidationError(f"slope must be negative, got slope={self.slope}")
        if not (self.threshold < 0.0):
            raise ValidationError("threshold must be negative")
        _check_cfl(self.cfl)
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValidationError(f"t_max must be finite and positive, got t_max={self.t_max}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValidationError(f"sigma must be finite and >= 0, got sigma={self.sigma}")


@dataclass(frozen=True)
class BlowupExperimentResult:
    times: np.ndarray
    min_ux: np.ndarray
    max_rho: np.ndarray
    crossing_time: Optional[float]
    bound: float
    threshold: float
    margin: float
    parity_residual_max: float
    snapshots: tuple

    @property
    def blowup_detected(self) -> bool:
        return self.crossing_time is not None

    @property
    def within_margin(self) -> Optional[bool]:
        if self.crossing_time is None:
            return None
        return self.crossing_time <= self.bound * (1.0 + self.margin)


def run_blowup_experiment(
    config: BlowupExperimentConfig,
    snapshot_times: Sequence[float] = (),
) -> BlowupExperimentResult:
    """Drive odd data toward slope blowup and compare with the bound.

    Preconditions: the initial velocity is odd (so u = 0 at the
    symmetry point and M = 0 there honestly) and the initial slope at
    the symmetry point is below the criterion threshold.  The run stops
    at the first step with min u_x < threshold, or at t_max, in which
    case no blowup is reported (the bound is one-sided, so this is a
    reported outcome, not a failure).
    """
    grid = Grid1D(n=config.n, length=config.length)
    params = SystemParams(k1=config.k1, k2=config.k2, k3=config.k3)
    sigma = config.sigma if config.sigma > 0.0 else config.length / 16.0
    u0 = odd_gaussian_derivative(grid, config.slope, sigma)
    rho0 = (
        np.zeros(grid.n)
        if config.rho0 is None
        else dealias(grid, np.asarray(config.rho0, dtype=float))
    )
    if parity_residual(u0) > 1e-12 * max(1.0, float(np.max(np.abs(u0)))):
        raise ValidationError("initial velocity is not odd")

    crit = BlowupCriterion(M=config.m_est, v0=config.slope)
    if not crit.applies:
        raise ValidationError(
            f"criterion hypothesis fails: v0={config.slope} >= -sqrt(3/2)*M={-crit.c}"
        )
    bound = check(crit).t_bound

    state = SolverState.make(0.0, rho0, u0, params, grid)
    u0_max = max(float(np.max(np.abs(u0))), CFL_VELOCITY_FLOOR)
    dt0 = cfl_dt(state, config.cfl)

    times, min_ux, max_rho = [state.t], [state.min_ux], [state.max_rho]
    parity_max = parity_residual(state.u)
    snapshots = []
    pending = sorted(snapshot_times)
    crossing: Optional[float] = None

    while state.t < config.t_max:
        # Halve dt each time max|u| doubles relative to the start.
        u_max = max(float(np.max(np.abs(state.u))), CFL_VELOCITY_FLOOR)
        doublings = max(0, math.ceil(math.log2(u_max / u0_max))) if u_max > u0_max else 0
        dt = min(dt0 / 2**doublings, cfl_dt(state, config.cfl))
        dt = min(dt, config.t_max - state.t)
        state = step(state, dt, cfl=config.cfl)
        times.append(state.t)
        min_ux.append(state.min_ux)
        max_rho.append(state.max_rho)
        parity_max = max(parity_max, parity_residual(state.u), parity_residual(state.rho))
        while pending and state.t >= pending[0]:
            snapshots.append((state.t, state.rho.copy(), state.u.copy()))
            pending.pop(0)
        if state.min_ux < config.threshold:
            crossing = state.t
            break

    return BlowupExperimentResult(
        times=np.asarray(times),
        min_ux=np.asarray(min_ux),
        max_rho=np.asarray(max_rho),
        crossing_time=crossing,
        bound=bound,
        threshold=config.threshold,
        margin=config.margin,
        parity_residual_max=parity_max,
        snapshots=tuple(snapshots),
    )


# ---------------------------------------------------------------------------
# Field-sampler adapter so solver runs can feed the residual lab.
# ---------------------------------------------------------------------------


def _is_one_period(grid: Grid1D, xs: np.ndarray) -> bool:
    """True when xs is xs[0] + j*L/len(xs), j = 0..len(xs)-1, to round-off."""
    m = xs.size
    if m < 2:
        return False
    uniform = xs[0] + np.arange(m) * (grid.length / m)
    tol = UNIFORM_RTOL * (grid.length + abs(float(xs[0])))
    return bool(np.max(np.abs(xs - uniform)) <= tol)


def trig_interp(grid: Grid1D, values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of nodal values at xs.

    values has shape (n,) or (..., n), for instance rho and u stacked as
    (2, n); the result has shape values.shape[:-1] + (len(xs),).  The
    interpolant is Re sum_k a_k c_k exp(i w_k (x - x0)) over the
    half-spectrum c = rfft(values), with a_k = 2/n (1/n for the mean
    and Nyquist modes).  Two routes evaluate the same sum:

    * one period, when xs is xs[0] + j*L/m for j = 0..m-1 to within
      UNIFORM_RTOL*(L + |xs[0]|), m >= 2: the terms are shifted by
      exp(i w_k (xs[0] - x0)), folded mod m (zero-padded when m > n)
      and summed by one inverse FFT of length m, O(n log n + m log m).
      The points are taken as exactly uniform, which moves the result
      by no more than the round-off already carried by xs.
    * anything else (single points, partial periods, non-uniform
      points): the dense phase matrix, O(m n), built DENSE_BLOCK_ROWS
      points at a time, so its memory does not grow with len(xs).
    """
    values = np.asarray(values, dtype=float)
    xs = np.asarray(xs, dtype=float).ravel()
    coeffs = np.fft.rfft(values) / grid.n
    coeffs[..., 1:-1] *= 2.0  # n is even: the mean and Nyquist modes count once
    m = xs.size
    if _is_one_period(grid, xs):
        coeffs = coeffs * np.exp(1j * grid.wavenumbers * (xs[0] - grid.x0))
        folds = -(-coeffs.shape[-1] // m)
        padded = np.zeros(coeffs.shape[:-1] + (folds * m,), dtype=complex)
        padded[..., : coeffs.shape[-1]] = coeffs
        folded = padded.reshape(coeffs.shape[:-1] + (folds, m)).sum(axis=-2)
        return np.fft.ifft(folded, norm="forward").real
    out = np.empty(coeffs.shape[:-1] + (m,))
    for start in range(0, m, DENSE_BLOCK_ROWS):
        block = xs[start : start + DENSE_BLOCK_ROWS]
        phase = np.exp(1j * np.outer(block - grid.x0, grid.wavenumbers))
        # a row-wise sum, not a matmul: the values do not depend on the blocking
        out[..., start : start + block.size] = (phase * coeffs[..., None, :]).sum(-1).real
    return out


class RunSampler:
    """(t, x) sampler over a solver run, stepping and caching on demand.

    Advances from the latest cached state at or before the requested
    time with CFL-limited steps, landing exactly on t with one final
    short step; the cached states are kept in time order, so finding
    the start state is a bisection.  rho and u are evaluated together
    by one trig_interp call: a query over one full period of uniform
    points (the residual lab's grid nodes shifted by c*h) costs
    O(n log n + m log m), any other query O(m n).
    """

    def __init__(self, state0: SolverState, cfl: float = CFL_DEFAULT):
        _check_cfl(cfl)
        self._states = [state0]
        self._cfl = cfl

    def _state_at(self, t: float) -> SolverState:
        if t < self._states[0].t - 1e-15:
            raise ValidationError(f"t={t} precedes the run start {self._states[0].t}")
        idx = bisect.bisect_right(self._states, t + 1e-15, key=lambda st: st.t) - 1
        state = self._states[idx]
        while state.t < t - 1e-15:
            dt = min(cfl_dt(state, self._cfl), t - state.t)
            state = step(state, dt, cfl=self._cfl)
            bisect.insort_right(self._states, state, key=lambda st: st.t)
        return state

    def __call__(self, t: float, xs):
        state = self._state_at(t)
        rho, u = trig_interp(state.grid, np.stack((state.rho, state.u)), xs)
        return rho, u
