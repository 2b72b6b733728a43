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
goes to physical space only to form its products.  On that band the
2/3 rule leaves no alias (2*(n//3) < n - n//3), so the transport term
u*u_x is d/dx(u**2)/2 exactly and the momentum tendency is

    du_hat/dt = M_u*FFT(u**2) - k3/2 * i*w/(1 + w**2) * FFT(rho**2),
    M_u = -i*w*(1/2 + 3/(2*(1 + w**2))).

A stage costs one 4-row irfft for the nodal (rho, u, rho_x, u_x) and one
3-row rfft for the products, so a step costs 28 transforms in 8 batched
numpy.fft calls, on one CPU.  rho = 0 is invariant (the rho equation is
linear and homogeneous in rho), so a state whose rho is all exact zeros
holds u alone, its u band and the rows (u, u_x), and is stepped on u
alone: one 1-row irfft and one rfft of u**2 per stage, 9 transforms in
8 calls per step, which is what every blowup run from rho0 = 0 costs.
``SolverState.make`` chooses the layout once, from the rho it is
given, and every step keeps it.  One helper, ``_nodal_rows``, makes
every stage's and every new state's nodal rows from kept bands.  A
step allocates its stage buffers once, the band each stage irfft
reads, the nodal rows it writes, the products and their spectrum;
stages 2-4 write all of them, and stage 1 the products and, unless
the step keeps stage 1's spectra, their spectrum (see ``step``).  A
state's scans (max|u|, min u_x and a coupled state's max rho) are
taken once each, on first use.  The transforms are numpy.fft's, called
as module attributes so that a patched numpy.fft (perfbench's tracer,
the transform-count tests) sees every one; numpy is the only
third-party library this module imports.
The multipliers (i*w, 1 + w**2, M_u and the kept band) and the
centre-node weights of the defect D below are built once per
grid, in one cached table.  Blowup is detected, never resolved: once
the minimum slope falls below the configured threshold the run stops
and reports diagnostics only, from one structured array with a row per
state, whose row format RECORD declares (see ``run_blowup_experiment``).
A blowup run lives on the period L = LENGTH = 2*pi, starts from the odd
bump of width L/16 (``odd_gaussian_derivative``) and compares its
crossing with the M = 0 bound T = -1/slope; a crossing at most
(1 + MARGIN)*T, MARGIN = 0.2, is ``within_margin``.  None of these numbers is a setting.
A run that would take more than STEPS_MAX = 10**6 steps on grid n at
its start dt (t_max/dt0) is refused after its first step.

A blowup run's ``n`` is its finest grid.  It starts on the coarsest
grid n/2**j that is at least START_N_MIN = 1024 points and whose kept
band holds the start state to START_BAND_RTOL, and it doubles the grid
when the step it has just taken started from a state whose centre
defect D exceeded DEFECT_TOL = 1e-6.  D tests the paper's Riccati
identity for v = u_x(L/2), v' = -v**2 - G*P(L/2) + P(L/2), on the sums
the first RK4 stage already holds (see ``_centre_defect``): no extra
transform.  A doubling zero-pads the kept (rho, u) band, which is exact,
and dt scales with dx, so the run keeps the time lattice of a run on
grid n alone.  On grid n, D > DEFECT_TOL marks the first time the grid
no longer resolves the run: ``resolved_until``.

An odd u with an even rho stays so under this discretisation (the
equations are parity-equivariant, transforms and multipliers preserve
it), which pins u = 0 at the symmetry point and makes the M = 0
slope-blowup criterion applicable there.

``RunSampler`` reads a run at (t, x) for the residual lab, through the
trigonometric interpolant of the state t lands on.  It keeps, per
landed time, that state's interpolation coefficients, 2*(n/2 + 1)
complex numbers (16.4 KB at n = 1024, against 43.7 KB for a coupled state),
for the latest RUN_STATES_MAX times: a query costs one inverse FFT,
plus one rfft and the landing step when its time is not kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import N_MAX, Grid1D
from .riccati import BlowupCriterion, check
from .selfsim import SystemParams

CFL = 0.3
# BlowupExperimentResult.within_margin: the crossing is at most (1 + MARGIN)*bound.
MARGIN = 0.2
# The period of every blowup run.
LENGTH = 2.0 * math.pi
# Nodes all snapshots of one blowup run may hold, per field: 16 grids at the
# cap, 256 MB of (rho, u).
SNAPSHOT_POINTS_MAX = 16 * N_MAX
# Steps a blowup run may take on grid n alone at its start dt, t_max/dt0, a
# record row each.  The default slope -5 and t_max 0.5 take 3.3e5 at N_MAX.
STEPS_MAX = 10**6
CFL_VELOCITY_FLOOR = 1e-12
# How far xs may lie from one uniform period before trig_interp refuses it.
UNIFORM_RTOL = 64 * np.finfo(float).eps
# Grid growth in run_blowup_experiment (see the module docstring).
START_N_MIN = 1024
START_BAND_RTOL = 1e-13
DEFECT_TOL = 1e-6
# A blowup run's row format, one row per state in time order: its t and grid n,
# min u_x, max rho, parity defect, and the centre defect D of the step taken from
# it (see run_blowup_experiment).
RECORD = np.dtype([("t", float), ("n", int), ("min_ux", float), ("max_rho", float),
                   ("parity", float), ("defect", float)])
# States one RunSampler run may hold, and landed times whose interpolation
# coefficients it keeps (the oldest time goes first).  A coupled state is
# 43.7 KB at n = 1024 (a rho-free one 21.9 KB) and a landed time's
# coefficients 16.4 KB (2*(n/2 + 1) complex numbers), so 44.8 MB and 16.8 MB
# at the cap; a convergence study over four levels holds 8-25 states and 9
# landed times.  The phases of distinct xs[0] are kept to the same cap, 8.2 KB
# each at n = 1024 (8.4 MB at the cap).
RUN_STATES_MAX = 1024


class NonFinite(NumericalError):
    """A tendency or state entry is not finite (blowup in progress)."""


@dataclass(frozen=True)
class _Operators:
    """Fourier multipliers of one grid over the half-spectrum, built once.

    keep is the length of the band the 2/3 rule keeps (modes k <= n//3);
    the solver state and every tendency live on that band.  The centre
    weights sum a kept band c of f at x = L/2, where
    exp(i*w_k*L/2) = (-1)**k: f(L/2) = sum_k a_k*Re(c_k), with
    a_k = 2*(-1)**k/n and a_0 = 1/n (see ``_centre_defect``).
    """

    keep: int
    helmholtz: np.ndarray  # 1 + w_k**2, the symbol of (1 - d2/dx2)
    ik_kept: np.ndarray  # i*w_k on the kept band
    ik_helmholtz_kept: np.ndarray  # i*w_k/(1 + w_k**2) on the kept band
    momentum_u: np.ndarray  # M_u = -i*w_k*(1/2 + 3/(2*(1 + w_k**2))) on the kept band
    centre_dx: np.ndarray  # -w_k*a_k: weights of Im(c) that give f_x(L/2)
    centre_green: np.ndarray  # a_k/(1 + w_k**2): weights of Re(c) that give G*f(L/2)


def _kept(n: int) -> int:
    """Length of the band the 2/3 rule keeps on n points: modes k <= n//3."""
    return n // 3 + 1


@functools.lru_cache(maxsize=16)
def _operators(grid: Grid1D) -> _Operators:
    keep = _kept(grid.n)
    w = grid.wavenumbers
    helmholtz = 1.0 + w**2
    ik_kept = 1j * w[:keep]
    a = np.where(np.arange(keep) % 2 == 0, 2.0, -2.0) / grid.n
    a[0] = 1.0 / grid.n
    ops = _Operators(
        keep,
        helmholtz,
        ik_kept,
        ik_kept / helmholtz[:keep],
        -ik_kept * (0.5 + 1.5 / helmholtz[:keep]),
        -w[:keep] * a,
        a / helmholtz[:keep],
    )
    for arr in vars(ops).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False  # shared by every caller on this grid
    return ops


def _field(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n,):
        raise ValidationError(f"field length {w.shape} does not match grid n={grid.n}")
    return w


def dealias(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    """Zero the top third of the spectrum (2/3-rule product filter)."""
    w_hat = np.fft.rfft(_field(grid, w))[: _operators(grid).keep]
    return np.fft.irfft(w_hat, n=grid.n)


def helmholtz_inverse(grid: Grid1D, w: np.ndarray) -> np.ndarray:
    """Convolution with the periodised Green kernel of (1 - d2/dx2)^-1.

    Acts as the multiplier 1/(1 + w_k**2) with w_k = 2*pi*k/L; exact for
    band-limited input.
    """
    w_hat = np.fft.rfft(_field(grid, w)) / _operators(grid).helmholtz
    return np.fft.irfft(w_hat, n=grid.n)


def _nodal_rows(grid: Grid1D, band: np.ndarray, m: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Nodal rows from the kept bands in band[:m], by one irfft of band into out.

    Rows m: of band first receive the x-derivatives of its first
    len(band) - m rows.  A state's band of 2m rows gives its fields and
    all their x-derivatives: (rho, u, rho_x, u_x) from (rho, u) bands,
    m = 2, and (u, u_x) from a u band, m = 1.  A coupled stage's band
    of 4 rows, m = 2, gives (rho, u, rho_x, u_x) too; a rho-free
    stage's band of 1 row, m = 1, gives u alone, shape (1, n), since
    u**2 needs no u_x.
    """
    if len(band) > m:  # none on a rho-free stage, where an empty multiply would still cost a call
        np.multiply(band[: len(band) - m], _operators(grid).ik_kept, out=band[m:])
    return np.fft.irfft(band, n=grid.n, out=out)


@dataclass(frozen=True)
class SolverState:
    """One solver time level, in one of two layouts.

    spectrum holds the half-spectra step advances, on the band the 2/3
    rule keeps, and rows the nodal fields and their x-derivatives.  A
    state whose rho is all exact zeros holds u alone: spectrum is the u
    band, shape (1, n//3 + 1), and rows are (u, u_x), shape (2, n).
    Any other state holds the (rho, u) bands, shape (2, n//3 + 1), and
    the rows (rho, u, rho_x, u_x), shape (4, n).  make chooses the
    layout once and every step keeps it (rho = 0 is invariant), so
    rho_free is len(spectrum) == 1, read without a scan.  u is a view of
    its row; rho is a coupled state's row and fresh zeros of a rho-free
    one.  max_abs_u and min_ux are scanned from rows on first use and
    kept, and so is a coupled state's max_rho; a rho-free state's is 0.0
    without a scan.  make keeps the nodal rho and u it is given value
    for value; the first step projects them onto the kept band (every
    dp2 caller passes dealiased data, where that is a no-op to
    round-off).
    """

    t: float
    params: SystemParams
    grid: Grid1D
    spectrum: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @property
    def rho_free(self) -> bool:
        """rho is all exact zeros, so the state holds u alone and step advances u alone."""
        return len(self.spectrum) == 1

    @property
    def rho(self) -> np.ndarray:
        return np.zeros(self.grid.n) if self.rho_free else self.rows[0]

    @property
    def u(self) -> np.ndarray:
        return self.rows[len(self.spectrum) - 1]

    @functools.cached_property
    def max_abs_u(self) -> float:
        return float(np.abs(self.u).max())

    @functools.cached_property
    def min_ux(self) -> float:
        return float(self.rows[-1].min())

    @functools.cached_property
    def max_rho(self) -> float:
        return 0.0 if self.rho_free else float(self.rows[0].max())

    @classmethod
    def make(
        cls,
        t: float,
        rho: np.ndarray,
        u: np.ndarray,
        params: SystemParams,
        grid: Grid1D,
    ) -> "SolverState":
        fields = []
        for name, arr in (("rho", rho), ("u", u)):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (grid.n,):
                raise ValidationError(f"{name} length {arr.shape} does not match grid")
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"{name} contains non-finite entries at t={t}")
            fields.append(arr)
        if not fields[0].any():
            del fields[0]  # rho-free: the state holds u alone
        m = len(fields)
        rows = np.empty((2 * m, grid.n))
        rows[:m] = fields
        ops = _operators(grid)
        spectrum = np.fft.rfft(rows[:m])[:, : ops.keep]
        np.fft.irfft(spectrum * ops.ik_kept, n=grid.n, out=rows[m:])
        return cls(t, params, grid, spectrum, rows)

    @classmethod
    def _advanced(
        cls, t: float, spectrum: np.ndarray, params: SystemParams, grid: Grid1D
    ) -> "SolverState":
        """State from the kept (rho, u) bands, or from the u band alone of a rho-free state."""
        m = len(spectrum)
        band = np.empty((2 * m, spectrum.shape[1]), dtype=complex)
        band[:m] = spectrum
        rows = _nodal_rows(grid, band, m)
        del band  # before the scan, which a step's peak memory would otherwise hold it through
        if not np.isfinite(rows[:m]).all():
            raise NonFinite(f"state contains non-finite entries at t={t}")
        return cls(t, params, grid, spectrum, rows)


def _tendency_arrays(
    grid: Grid1D, params: SystemParams, rows: np.ndarray, products: np.ndarray, product_spectrum: np.ndarray
) -> np.ndarray:
    """Kept-band spectral tendency of one RK4 stage, on the band k <= n//3.

    rows are the stage's nodal (rho, u, rho_x, u_x); the products u**2,
    rho**2 and -k2*u*rho_x - (k1+k2)*rho*u_x are written into
    ``products``, shape (3, n), and go through one batched rfft into
    ``product_spectrum``, shape (3, n//2 + 1), and the result is
    (d rho_hat/dt, d u_hat/dt), shape (2, n//3 + 1).  A rho-free stage
    passes u alone, shape (1, n), with buffers of one row (``products``
    may be rows itself, squared in place): only u**2 is transformed,
    and the result is d u_hat/dt alone, shape (1, n//3 + 1).  The
    result is always a fresh array; the buffers are the caller's.
    """
    ops = _operators(grid)
    if len(rows) == 1:
        np.multiply(rows, rows, out=products)
    else:
        rho, u, rho_x, u_x = rows
        u_sq, rho_sq, mass = products
        np.multiply(u, u, out=u_sq)
        np.multiply(u, rho_x, out=mass)
        mass *= -params.k2
        # (k1+k2)*rho*u_x, formed in rho_sq's row before rho**2 takes it
        np.multiply(params.k1 + params.k2, rho, out=rho_sq)
        rho_sq *= u_x
        mass -= rho_sq
        np.multiply(rho, rho, out=rho_sq)
    p_hat = np.fft.rfft(products, out=product_spectrum)[:, : ops.keep]
    if len(p_hat) == 1:
        out = ops.momentum_u * p_hat
    else:
        out = np.empty((2, ops.keep), dtype=complex)
        du = np.multiply(ops.momentum_u, p_hat[0], out=out[1])
        du -= (0.5 * params.k3) * ops.ik_helmholtz_kept * p_hat[1]
        out[0] = p_hat[2]
    if not np.isfinite(out).all():
        raise NonFinite("tendency produced non-finite entries")
    return out


def cfl_dt(state: SolverState) -> float:
    return CFL * state.grid.dx / max(state.max_abs_u, CFL_VELOCITY_FLOOR)


def step(state: SolverState, dt: float, spectra_out: Optional[list] = None) -> SolverState:
    """One classical RK4 step on the kept spectrum; dt must respect the CFL bound.

    Stage 1 reads the state's own nodal rows; stages 2-4 get theirs
    from one irfft each, and the new state's rows come from a fourth,
    each through ``_nodal_rows``.  With rho != 0 the irffts have 4 rows
    and the rffts 3: 28 transforms in 8 calls.  A rho-free state holds
    u alone and the step advances u alone: 1-row irffts and rffts in the
    stages and a 2-row irfft for the new (u, u_x), 9 transforms in 8
    calls.  The step allocates four buffers once: the stage band, one
    row per nodal row, whose first rows take each stage's s + c*k; the
    stage's nodal rows; its products (on the rho-free path the nodal
    row itself, squared in place); and their spectrum.  Stage 1 writes
    the products and their spectrum, and stages 2-4 all four, the
    transforms through numpy.fft's ``out=``; only each stage's tendency
    is a fresh array.  ``state`` is only read.  Negative dt is accepted
    for time-reversal consistency checks.  ``spectra_out``, if given, is
    extended by the first stage's kept-band product spectra and
    tendency, which belong to ``state`` itself; stage 1 then writes its
    product spectrum into a fifth buffer, which the list keeps.
    """
    if abs(dt) > (limit := cfl_dt(state)) * (1.0 + 1e-12):
        raise ValidationError(f"dt={dt} violates the CFL bound {limit} at t={state.t}")
    grid, params = state.grid, state.params
    s = state.spectrum
    m, keep = s.shape
    if state.rho_free:
        rows = state.rows[:1]  # u alone: u**2 needs no u_x
        nodal = products = np.empty((1, grid.n))
    else:
        rows = state.rows
        nodal, products = np.empty((4, grid.n)), np.empty((3, grid.n))
    band = np.empty((len(rows), keep), dtype=complex)  # one row per nodal row; see _nodal_rows
    product_spectrum = np.empty((len(products), grid.n // 2 + 1), dtype=complex)
    first = product_spectrum if spectra_out is None else np.empty_like(product_spectrum)
    # Overflow surfaces as the NonFinite the finiteness checks raise, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        ks = [_tendency_arrays(grid, params, rows, products, first)]
        if spectra_out is not None:
            spectra_out += (first[:, :keep], ks[0])
        stage = band[:m]  # each stage's band s + c*k
        for c in (0.5 * dt, 0.5 * dt, dt):
            np.multiply(c, ks[-1], out=stage)
            np.add(s, stage, out=stage)
            stage_rows = _nodal_rows(grid, band, m, nodal)
            ks.append(_tendency_arrays(grid, params, stage_rows, products, product_spectrum))
        k1, k2, k3, k4 = ks
        # freed before the new state's rows are made, which a step's peak memory
        # would otherwise hold beside them
        del band, stage, nodal, stage_rows, products, product_spectrum, first, ks
        # s + dt/6*(k1 + 2*k2 + 2*k3 + k4) with the same operations, so the
        # same bits, summed in k2's array; k1 may be held by spectra_out.
        spectrum = k2
        spectrum *= 2.0
        spectrum += k1
        k3 *= 2.0
        spectrum += k3
        spectrum += k4
        spectrum *= dt / 6.0
        spectrum += s
        return SolverState._advanced(state.t + dt, spectrum, params, grid)


def parity_residual(values: np.ndarray, even: bool = False) -> float:
    """Oddness defect max_j |w(x_j) + w(L - x_j)| on the periodic grid (``-`` if ``even``).

    Node 0 is its own mirror; node j pairs with node n - j.
    """
    head, body, mirror = values[0], values[1:], values[:0:-1]
    pairs = body - mirror if even else body + mirror
    return float(np.abs(pairs).max(initial=abs(head - head if even else head + head)))


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
    k1: float = 1.0
    k2: float = 1.0
    k3: float = 1.0
    slope: float = -5.0
    threshold: float = -1e3
    t_max: float = 0.5
    rho0: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # the bound T = -1/slope and the centre defect's v**2 must be floats too
        slope = self.slope
        if not (math.isfinite(slope) and slope < 0.0 and math.isfinite(-1.0 / slope) and slope * slope > 0.0):
            raise ValidationError(
                f"slope must be finite and negative with -1/slope finite and slope**2 > 0, got slope={slope}"
            )
        if not (math.isfinite(self.threshold) and self.threshold < 0.0):
            raise ValidationError(
                f"threshold must be finite and negative, got threshold={self.threshold}"
            )
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValidationError(f"t_max must be finite and positive, got t_max={self.t_max}")


@dataclass(frozen=True)
class BlowupExperimentResult:
    """What run_blowup_experiment found, all of it read from ``record``.

    record holds one RECORD row per state, in time order.  times, min_ux
    and max_rho are views of its columns t, min_ux and max_rho;
    parity_residual_max and refinements are computed from it.
    crossing_time and resolved_until are the driver's, since they read
    the run's threshold and finest grid, which the result does not keep.
    """

    record: np.ndarray
    crossing_time: Optional[float]
    bound: float
    snapshots: tuple  # (t, rho, u) per captured time, in time order
    resolved_until: Optional[float]  # first step time with D > DEFECT_TOL on grid n
    margin: ClassVar[float] = MARGIN

    @property
    def times(self) -> np.ndarray:
        return self.record["t"]

    @property
    def min_ux(self) -> np.ndarray:
        return self.record["min_ux"]

    @property
    def max_rho(self) -> np.ndarray:
        return self.record["max_rho"]

    @property
    def parity_residual_max(self) -> float:
        return float(self.record["parity"].max())

    @property
    def refinements(self) -> tuple:
        """(t, n): the start grid at t = 0, then each doubling."""
        return tuple(self.record[["t", "n"]][np.diff(self.record["n"], prepend=0) != 0].tolist())

    @property
    def blowup_detected(self) -> bool:
        return self.crossing_time is not None

    @property
    def within_margin(self) -> Optional[bool]:
        crossing = self.crossing_time
        return None if crossing is None else crossing <= self.bound * (1.0 + self.margin)


def _start_grid(fine: Grid1D, rho0: np.ndarray, u0: np.ndarray) -> Grid1D:
    """Coarsest grid fine.n/2**j >= START_N_MIN whose kept band carries (rho0, u0).

    Each field's modes above that band must be at most START_BAND_RTOL
    of its largest, so the coarse nodes hold the same field to round-off.
    """
    n = fine.n
    if n // 2 >= START_N_MIN:
        spectra = np.abs(np.fft.rfft(np.stack((rho0, u0))))
        limit = START_BAND_RTOL * spectra.max(axis=1, keepdims=True)
        while n // 2 >= START_N_MIN and np.all(spectra[:, _kept(n // 2) :] <= limit):
            n //= 2
    return fine if n == fine.n else Grid1D(n=n, length=fine.length)


def _padded(state: SolverState, grid: Grid1D) -> SolverState:
    """The state on a finer grid, its kept band zero-padded, which is exact."""
    s = state.spectrum  # a rho-free state's u band alone
    band = np.zeros((len(s), _operators(grid).keep), dtype=complex)
    band[:, : s.shape[1]] = s * (grid.n // state.grid.n)
    return SolverState._advanced(state.t, band, state.params, grid)


def _centre_defect(state: SolverState, p_hat: np.ndarray, tendency_hat: np.ndarray) -> float:
    """Relative defect D of the centre Riccati identity, from a step's first stage.

    At x = L/2, where odd data keep u = 0, v = u_x obeys
    v' = -v**2 - G*P + P with P = 3/2*u**2 + k3/2*rho**2.  v' and
    G*P(L/2) are sums over the stage's kept bands (tendency and product
    spectra), v and P are nodal, so D = |v' + v**2 + G*P - P|/v**2 is
    the part of the identity the 2/3-rule band drops: round-off while
    the band resolves the products, and O(1) once they reach its edge.
    D is inf where v**2 is 0, v = 0 or an underflow.
    """
    ops = _operators(state.grid)
    k3 = state.params.k3
    centre = state.grid.n // 2
    u, v = float(state.u[centre]), float(state.rows[-1, centre])
    rho = 0.0 if state.rho_free else float(state.rows[0, centre])
    v_dot = float(np.dot(tendency_hat[-1].imag, ops.centre_dx))
    green_p = 1.5 * float(np.dot(p_hat[0].real, ops.centre_green))
    if len(p_hat) > 1:
        green_p += 0.5 * k3 * float(np.dot(p_hat[1].real, ops.centre_green))
    p = 1.5 * u * u + 0.5 * k3 * rho * rho
    return abs(v_dot + v * v + green_p - p) / (v * v) if v * v else math.inf


def _record_row(state: SolverState, defect: float) -> tuple:
    """One state's row of a blowup run's record, a tuple in the column order of RECORD.

    The parity of a rho-free state is u's alone: all-zero rho has none.
    """
    parity = parity_residual(state.u)
    if not state.rho_free:
        parity = max(parity, parity_residual(state.rho, even=True))
    return (state.t, state.grid.n, state.min_ux, state.max_rho, parity, defect)


def run_blowup_experiment(
    config: BlowupExperimentConfig,
    snapshot_times: Sequence[float] = (),
) -> BlowupExperimentResult:
    """Drive odd data toward slope blowup and compare with the bound.

    Preconditions: the initial velocity is odd and ``rho0`` even, so
    u = 0 at the symmetry point and the bound is the M = 0 criterion's
    T = -1/slope (the gated ``parity_residual_max`` measures both
    parities, the start state's in the first row; a negative slope is
    all M = 0 asks).  A slope whose start state leaves the float range
    raises NonFinite, with no numpy warning, from its start state or its
    first step; after that step, a t_max that is more than STEPS_MAX
    steps of dt0 on grid n raises ValidationError.  The run stops
    at the first step with min u_x < threshold, or at t_max, in which
    case no blowup is reported (the bound is one-sided, so this is a
    reported outcome, not a failure).

    ``config.n`` is the finest grid.  The run starts on the coarsest
    grid n/2**j >= START_N_MIN that carries the start state (see
    ``_start_grid``) and doubles it, by zero-padding the kept band,
    after each step whose start state had a centre defect D above
    DEFECT_TOL (see ``_centre_defect``).  dt0 and max|u0| are taken on
    grid n and dt scales with dx, so a step on n/2**j points spans 2**j
    steps of a run on grid n alone; a run with n <= START_N_MIN is that
    run.  Snapshots are returned on grid n.

    The loop keeps one row per state (``_record_row``), and the result
    carries them as ``record``, a structured array of dtype RECORD with
    the columns t, n, min_ux, max_rho, parity and defect, D of the step
    taken from the state (nan on the last row).  Every result field is
    read from it.  times, min_ux and max_rho are views of its columns,
    ``parity_residual_max`` is the largest parity and ``refinements``
    the (t, n) rows where n changes, the first included (see
    ``BlowupExperimentResult``); the driver derives ``crossing_time``,
    the last row's t if its min_ux is below the threshold, and
    ``resolved_until``, the first t on grid n with D > DEFECT_TOL.

    The initial velocity is ``odd_gaussian_derivative`` of width L/16.
    Each snapshot time must lie in [0, t_max], and len(snapshot_times)*n
    must not exceed SNAPSHOT_POINTS_MAX, else ValidationError before
    any allocation; a time is taken from the first state at or past it,
    t = 0 from the start state, unless the run stops at its crossing
    first.  Snapshots come in time order, each with its state's t.
    """
    if not all(0.0 <= t <= config.t_max for t in snapshot_times):
        raise ValidationError(
            f"snapshot times must lie in [0, t_max={config.t_max}], got {list(snapshot_times)}"
        )
    fine = Grid1D(n=config.n, length=LENGTH)
    if (nodes := len(snapshot_times) * fine.n) > SNAPSHOT_POINTS_MAX:
        raise ValidationError(
            f"{len(snapshot_times)} snapshot times on n={fine.n} would keep {nodes} nodes"
            f" per field, over the cap {SNAPSHOT_POINTS_MAX}"
        )
    params = SystemParams(k1=config.k1, k2=config.k2, k3=config.k3)
    # A start state past the float range fails as a NonFinite, from make or from the
    # first step's tendency, not with numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = odd_gaussian_derivative(fine, config.slope, LENGTH / 16.0)
        rho0 = np.zeros(fine.n) if config.rho0 is None else dealias(fine, config.rho0)
        grid = _start_grid(fine, rho0, u0)
        stride = fine.n // grid.n  # the coarse nodes are every stride-th fine node
        state = SolverState.make(0.0, rho0[::stride], u0[::stride], params, grid)
    u0_max = max(float(np.max(np.abs(u0))), CFL_VELOCITY_FLOOR)
    dt0 = CFL * fine.dx / u0_max
    steps = config.t_max / dt0  # on grid n alone, at dt0

    snapshots = []
    pending = sorted(snapshot_times)
    rows = []  # one _record_row per state

    while True:
        while pending and state.t >= pending[0]:
            shot = state if state.grid.n == fine.n else _padded(state, fine)
            snapshots.append((state.t, shot.rho.copy(), shot.u.copy()))
            pending.pop(0)
        # t_max > 0, so the run takes at least one step: the start state never ends it
        if rows and (state.min_ux < config.threshold or state.t >= config.t_max):
            break
        # Halve dt each time max|u| doubles relative to the start.
        u_max = max(state.max_abs_u, CFL_VELOCITY_FLOOR)
        doublings = math.ceil(math.log2(u_max / u0_max)) if u_max > u0_max else 0
        # dt0 * dx/dx_n / 2**doublings <= this grid's CFL dt; step checks it.
        dt = min(dt0 * (fine.n // state.grid.n) / 2**doublings, config.t_max - state.t)
        spectra: list = []
        advanced = step(state, dt, spectra_out=spectra)
        # after the first step, whose tendency finds a start state past the float range
        if not rows and steps > STEPS_MAX:
            raise ValidationError(
                f"t_max={config.t_max} is {steps:.3g} steps of the start dt {dt0:.3g} on n={fine.n},"
                f" over the cap {STEPS_MAX}"
            )
        defect = _centre_defect(state, *spectra)
        rows.append(_record_row(state, defect))
        if defect > DEFECT_TOL and state.grid.n < fine.n:
            advanced = _padded(advanced, Grid1D(n=2 * state.grid.n, length=fine.length))
        state = advanced
    record = np.array(rows + [_record_row(state, math.nan)], dtype=RECORD)  # no step, so D is nan
    unresolved = record["t"][(record["defect"] > DEFECT_TOL) & (record["n"] == fine.n)]
    return BlowupExperimentResult(
        record=record,
        crossing_time=float(record[-1]["t"]) if record[-1]["min_ux"] < config.threshold else None,
        bound=check(BlowupCriterion(M=0.0, v0=config.slope)),
        snapshots=tuple(snapshots),
        resolved_until=float(unresolved[0]) if unresolved.size else None,
    )


# ---------------------------------------------------------------------------
# Field-sampler adapter so solver runs can feed the residual lab.
# ---------------------------------------------------------------------------


def _is_one_period(grid: Grid1D, xs: np.ndarray) -> bool:
    """True when xs is xs[0] + j*L/len(xs), j = 0..len(xs)-1, to round-off."""
    m = xs.size
    if m < 2:
        return False
    uniform = xs[0] + np.arange(m, dtype=float) * (grid.length / m)  # float: same values, no int cast
    tol = UNIFORM_RTOL * (grid.length + abs(float(xs[0])))
    return bool(np.abs(xs - uniform).max() <= tol)


def _one_period(grid: Grid1D, xs) -> np.ndarray:
    """xs as a flat float array if it is one uniform period, else ValidationError."""
    xs = np.asarray(xs, dtype=float).ravel()
    if not _is_one_period(grid, xs):
        raise ValidationError(f"xs must be one uniform period xs[0] + j*L/m, j < m, m >= 2, L = {grid.length}")
    return xs


def _interp_coeffs(grid: Grid1D, values: np.ndarray) -> np.ndarray:
    """The interpolant's coefficients a_k*c_k of nodal values, by one rfft.

    c = rfft(values), a_k = 2/n, and 1/n for the mean and Nyquist modes:
    shape values.shape[:-1] + (n/2 + 1,).
    """
    coeffs = np.fft.rfft(values) / grid.n
    coeffs[..., 1:-1] *= 2.0  # n is even: the mean and Nyquist modes count once
    return coeffs


def _phase(grid: Grid1D, start) -> np.ndarray:
    """exp(i w_k (start - x0)), which shifts the coefficients to a period that begins at start."""
    return np.exp(1j * grid.wavenumbers * (start - grid.x0))


def _eval_one_period(coeffs: np.ndarray, phase: np.ndarray, m: int) -> np.ndarray:
    """Re sum_k coeffs_k exp(i w_k (x - x0)) at one period of m points from xs[0].

    The coefficients are shifted by phase = _phase(grid, xs[0]), folded mod
    m (zero-padded when m > n/2 + 1) and summed by one inverse FFT of
    length m, O(n + m log m).  The caller checks that xs is one period.
    """
    coeffs = coeffs * phase
    folds = -(-coeffs.shape[-1] // m)
    padded = np.zeros(coeffs.shape[:-1] + (folds * m,), dtype=complex)
    padded[..., : coeffs.shape[-1]] = coeffs
    folded = padded.reshape(coeffs.shape[:-1] + (folds, m)).sum(axis=-2)
    return np.fft.ifft(folded, norm="forward").real


def trig_interp(grid: Grid1D, values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of nodal values at one period of points.

    values has shape (n,) or (..., n), for instance rho and u stacked as
    (2, n); the result has shape values.shape[:-1] + (m,).  xs must be
    xs[0] + j*L/m, j = 0..m-1, m >= 2, to within UNIFORM_RTOL*(L + |xs[0]|),
    else ValidationError, and is taken as exactly uniform, which moves the
    result by no more than the round-off xs carries.  The interpolant
    Re sum_k a_k c_k exp(i w_k (x - x0)), c = rfft(values), a_k = 2/n (1/n
    for the mean and Nyquist modes), is shifted by exp(i w_k (xs[0] - x0)),
    folded mod m (zero-padded when m > n) and summed by one inverse FFT of
    length m: two transforms per call, O(n log n + m log m).  RunSampler
    keeps the coefficients of each time it lands on and repeats only the
    inverse FFT.
    """
    xs = _one_period(grid, xs)
    coeffs = _interp_coeffs(grid, np.asarray(values, dtype=float))
    return _eval_one_period(coeffs, _phase(grid, xs[0]), xs.size)


def _rho_u(state: SolverState) -> np.ndarray:
    """A state's nodal (rho, u), shape (2, n): a coupled state's rows themselves, not a copy."""
    return np.stack((state.rho, state.u)) if state.rho_free else state.rows[:2]


def _cached(cache: dict, key, make):
    """cache[key], made by make() and kept when missing; past RUN_STATES_MAX keys the oldest goes."""
    if (value := cache.get(key)) is None:
        value = make()
        if len(cache) >= RUN_STATES_MAX:
            del cache[next(iter(cache))]  # dicts keep insertion order
        cache[key] = value
    return value


class RunSampler:
    """(t, x) sampler over one solver run, stepping on demand.

    The run is CFL-limited steps from state0, extended only until its
    next step would pass the latest query.  The state at t is the run's
    last state at or before t advanced by one step of length t - base.t
    (shorter than that state's CFL dt), so a sample depends on t alone,
    not on the times asked before; a non-finite t raises, and so does a
    t the run cannot reach within RUN_STATES_MAX states.  rho and u are
    trig_interp's, so xs must be one full period of uniform points (the
    residual lab's grid nodes shifted by c*h); other xs raise
    ValidationError before any step.  The interpolation coefficients of
    (rho, u) at each landed t, 2*(n/2 + 1) complex numbers (16.4 KB at
    n = 1024, against 43.7 KB for the state), are kept for the latest
    RUN_STATES_MAX distinct times, the oldest evicted first: a query
    costs one inverse FFT of length m, O(n + m log m), plus one rfft
    (and the landing step) when its t is not kept.  An evicted t asked
    again lands on the same base state and gives the same bits.  The
    phase exp(i w_k (xs[0] - x0)) is kept the same way, per distinct
    xs[0] (a four-level study from x0 = 0 asks 11 of them in 44 queries).
    """

    def __init__(self, state0: SolverState):
        self._run = [state0]
        self._landed: dict = {}  # t -> interpolation coefficients of the state t landed on
        self._phases: dict = {}  # xs[0] -> _phase(grid, xs[0])

    def _state_at(self, t: float) -> SolverState:
        run = self._run
        if not (math.isfinite(t) and t >= run[0].t - 1e-15):
            raise ValidationError(f"t={t} is not finite or precedes the run start {run[0].t}")
        while run[-1].t + (dt := cfl_dt(run[-1])) <= t + 1e-15:
            # (t - t_last)/dt steps at least are left, as dt shrinks while max|u| grows
            if len(run) + (t - run[-1].t) / dt > RUN_STATES_MAX:
                raise ValidationError(f"t={t} needs more than the {RUN_STATES_MAX} states a run holds")
            run.append(step(run[-1], dt))
        base = next(st for st in reversed(run) if st.t <= t + 1e-15)  # the run is in time order
        return base if base.t >= t - 1e-15 else step(base, t - base.t)

    def __call__(self, t: float, xs):
        grid = self._run[0].grid
        xs = _one_period(grid, xs)
        coeffs = _cached(self._landed, t, lambda: _interp_coeffs(grid, _rho_u(self._state_at(t))))
        phase = _cached(self._phases, xs[0], lambda: _phase(grid, xs[0]))
        rho, u = _eval_one_period(coeffs, phase, xs.size)
        return rho, u
