"""Periodic pseudo-spectral reference solver for the nonlocal form.

The system is integrated as a quasi-linear evolution of hyperbolic
type,

    rho_t = -k2*rho_x*u - (k1+k2)*rho*u_x
    u_t   = -u*u_x - d/dx G * (3/2*u**2 + k3/2*rho**2),

where G* is convolution with the Green kernel of (1 - d2/dx2)^-1,
realised on the periodic domain through the Fourier multiplier
1/(1 + w**2).  Spatial derivatives are spectral, quadratic products are
dealiased with the 2/3 rule, and time stepping is classical RK4 with a
CFL-limited dt that is halved whenever max|u| doubles.

The state is advanced in Fourier space: RK4 combines the (rho, u)
half-spectra on the band the 2/3 rule keeps (k <= n//3), and each stage
goes to physical space only to form its products.  A stage costs one
4-row irfft for the nodal (rho, u, rho_x, u_x) and one 3-row rfft for
the products, so a step costs 28 transforms in 8 batched scipy.fft
calls, on one CPU.  The multipliers (i*w, 1 + w**2 and the kept band)
are built once per grid.  Blowup is
detected, never resolved: once the minimum slope falls below the
configured threshold the run stops and reports diagnostics only.

Odd initial data stay odd under this discretisation (the equations are
parity-equivariant, transforms and multipliers preserve it), which
pins u = 0 at the symmetry point and makes the M = 0 slope-blowup
criterion applicable there.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.fft

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


@dataclass(frozen=True)
class _Operators:
    """Fourier multipliers of one grid over the half-spectrum, built once.

    keep is the length of the band the 2/3 rule keeps (modes k <= n//3);
    the solver state and every tendency live on that band.
    """

    keep: int
    ik: np.ndarray  # i*w_k, Nyquist mode zeroed (not representable for an odd derivative)
    helmholtz: np.ndarray  # 1 + w_k**2, the symbol of (1 - d2/dx2)
    ik_kept: np.ndarray  # i*w_k on the kept band
    ik_helmholtz_kept: np.ndarray  # i*w_k/(1 + w_k**2) on the kept band


@functools.lru_cache(maxsize=16)
def _operators(grid: Grid1D) -> _Operators:
    w = grid.wavenumbers
    keep = grid.n // 3 + 1
    ik = 1j * w
    ik[-1] = 0.0
    helmholtz = 1.0 + w**2
    ops = _Operators(keep, ik, helmholtz, ik[:keep], ik[:keep] / helmholtz[:keep])
    for arr in (ops.ik, ops.helmholtz, ops.ik_kept, ops.ik_helmholtz_kept):
        arr.flags.writeable = False  # shared by every caller on this grid
    return ops


def _field(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n,):
        raise ValidationError(f"field length {w.shape} does not match grid n={grid.n}")
    return w


def dealias(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum (2/3-rule product filter)."""
    w_hat = scipy.fft.rfft(_field(grid, w))[: _operators(grid).keep]
    return scipy.fft.irfft(w_hat, n=grid.n)


def spectral_dx(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    return scipy.fft.irfft(scipy.fft.rfft(_field(grid, w)) * _operators(grid).ik, n=grid.n)


def helmholtz_inverse(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    """Convolution with the periodised Green kernel of (1 - d2/dx2)^-1.

    Acts as the multiplier 1/(1 + w_k**2) with w_k = 2*pi*k/L; exact for
    band-limited input.
    """
    w_hat = scipy.fft.rfft(_field(grid, w)) / _operators(grid).helmholtz
    return scipy.fft.irfft(w_hat, n=grid.n)


def _nodal_rows(grid: Grid1D, spectrum: np.ndarray) -> np.ndarray:
    """Nodal (rho, u, rho_x, u_x), shape (4, n), from the kept (rho, u) band by one irfft."""
    ops = _operators(grid)
    stacked = np.empty((4, ops.keep), dtype=complex)
    stacked[:2] = spectrum
    np.multiply(spectrum, ops.ik_kept, out=stacked[2:])
    return scipy.fft.irfft(stacked, n=grid.n)


@dataclass(frozen=True)
class SolverState:
    """One solver time level.

    spectrum holds the (rho, u) half-spectra on the band the 2/3 rule
    keeps, shape (2, n//3 + 1); it is what step advances.  rows holds
    the nodal (rho, u, rho_x, u_x), shape (4, n), and rho and u are
    views of its first two rows.  make keeps the nodal rho and u it is
    given value for value; the first step projects them onto the kept
    band (every dp2 caller passes dealiased data, where that is a no-op
    to round-off).
    """

    t: float
    rho: np.ndarray
    u: np.ndarray
    params: SystemParams
    grid: Grid1D
    min_ux: float
    max_rho: float
    spectrum: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @classmethod
    def make(
        cls,
        t: float,
        rho: np.ndarray,
        u: np.ndarray,
        params: SystemParams,
        grid: Grid1D,
    ) -> "SolverState":
        rows = np.empty((4, grid.n))
        for row, name, arr in ((rows[0], "rho", rho), (rows[1], "u", u)):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (grid.n,):
                raise ValidationError(f"{name} length {arr.shape} does not match grid")
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"{name} contains non-finite entries at t={t}")
            row[:] = arr
        ops = _operators(grid)
        spectrum = scipy.fft.rfft(rows[:2])[:, : ops.keep]
        rows[2:] = scipy.fft.irfft(spectrum * ops.ik_kept, n=grid.n)
        return cls._from(t, spectrum, rows, params, grid)

    @classmethod
    def _advanced(
        cls, t: float, spectrum: np.ndarray, params: SystemParams, grid: Grid1D
    ) -> "SolverState":
        rows = _nodal_rows(grid, spectrum)
        if not np.all(np.isfinite(rows[:2])):
            raise NonFinite(f"state contains non-finite entries at t={t}")
        return cls._from(t, spectrum, rows, params, grid)

    @classmethod
    def _from(cls, t, spectrum, rows, params, grid) -> "SolverState":
        return cls(
            t=t,
            rho=rows[0],
            u=rows[1],
            params=params,
            grid=grid,
            min_ux=float(np.min(rows[3])),
            max_rho=float(np.max(rows[0])),
            spectrum=spectrum,
            rows=rows,
        )


def _tendency_arrays(grid: Grid1D, params: SystemParams, rows: np.ndarray) -> np.ndarray:
    """Kept-band spectral tendency (d rho_hat/dt, d u_hat/dt), shape (2, n//3 + 1).

    rows are one stage's nodal (rho, u, rho_x, u_x).  The three
    quadratic products -k2*u*rho_x - (k1+k2)*rho*u_x, u*u_x and
    q = 3/2*u**2 + k3/2*rho**2 go through one batched rfft, and the
    2/3 rule keeps the band k <= n//3 of each.
    """
    ops = _operators(grid)
    rho, u, rho_x, u_x = rows
    products = np.empty((3, grid.n))
    mass, transport, q = products
    np.multiply(u, rho_x, out=mass)
    mass *= -params.k2
    mass -= (params.k1 + params.k2) * rho * u_x
    np.multiply(u, u_x, out=transport)
    np.multiply(1.5 * u, u, out=q)
    q += 0.5 * params.k3 * rho * rho
    p_hat = scipy.fft.rfft(products)
    out = np.empty((2, ops.keep), dtype=complex)
    out[0] = p_hat[0, : ops.keep]
    np.multiply(ops.ik_helmholtz_kept, p_hat[2, : ops.keep], out=out[1])
    out[1] += p_hat[1, : ops.keep]
    np.negative(out[1], out=out[1])
    if not np.all(np.isfinite(out)):
        raise NonFinite("tendency produced non-finite entries")
    return out


def tendency(state: SolverState) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides (d rho/dt, d u/dt) of the nonlocal form, nodal."""
    spectral = _tendency_arrays(state.grid, state.params, state.rows)
    drho, du = scipy.fft.irfft(spectral, n=state.grid.n)
    return drho, du


def cfl_dt(state: SolverState, cfl: float = CFL_DEFAULT) -> float:
    return cfl * state.grid.dx / max(float(np.max(np.abs(state.u))), CFL_VELOCITY_FLOOR)


def step(state: SolverState, dt: float, cfl: float = CFL_DEFAULT) -> SolverState:
    """One classical RK4 step on the kept spectrum; dt must respect the CFL bound.

    Stage 1 reads the state's own nodal rows; stages 2-4 get theirs
    from one 4-row irfft each, and the new state's rows come from a
    fourth: 28 transforms in 8 calls.  Negative dt is accepted for
    time-reversal consistency checks.
    """
    if abs(dt) > cfl_dt(state, cfl) * (1.0 + 1e-12):
        raise ValidationError(
            f"dt={dt} violates the CFL bound {cfl_dt(state, cfl)} at t={state.t}"
        )
    grid, params = state.grid, state.params
    s = state.spectrum
    k1 = _tendency_arrays(grid, params, state.rows)
    k2 = _tendency_arrays(grid, params, _nodal_rows(grid, s + 0.5 * dt * k1))
    k3 = _tendency_arrays(grid, params, _nodal_rows(grid, s + 0.5 * dt * k2))
    k4 = _tendency_arrays(grid, params, _nodal_rows(grid, s + dt * k3))
    spectrum = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return SolverState._advanced(state.t + dt, spectrum, params, grid)


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
        # dt0 / 2**doublings <= dt0 * u0_max / u_max, the CFL dt; step checks it.
        dt = min(dt0 / 2**doublings, config.t_max - state.t)
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
    coeffs = scipy.fft.rfft(values) / grid.n
    coeffs[..., 1:-1] *= 2.0  # n is even: the mean and Nyquist modes count once
    m = xs.size
    if _is_one_period(grid, xs):
        coeffs = coeffs * np.exp(1j * grid.wavenumbers * (xs[0] - grid.x0))
        folds = -(-coeffs.shape[-1] // m)
        padded = np.zeros(coeffs.shape[:-1] + (folds * m,), dtype=complex)
        padded[..., : coeffs.shape[-1]] = coeffs
        folded = padded.reshape(coeffs.shape[:-1] + (folds, m)).sum(axis=-2)
        return scipy.fft.ifft(folded, norm="forward").real
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
        rho, u = trig_interp(state.grid, state.rows[:2], xs)
        return rho, u
