"""Manufactured-solution verification lab.

Plugs any field sampler -- a callable (t, x_array) -> (rho, u) -- into
the two governing equations with central finite differences and reports
pointwise residuals, both formed from one pass over 11 stencil samples
per level:

    R1 = rho_t + k2*u*rho_x + (k1+k2)*rho*u_x
    R2 = u_t - u_xxt + 4*u*u_x - 3*u_x*u_xx - u*u_xxx + k3*rho*rho_x

Residual norms are taken over the interior of the density support,
keeping a margin delta from its edge: the assembled solutions are only
C0 there (the shape's derivative diverges at the support boundary) and
satisfy the equations on the support only, so edge and exterior nodes
would destroy the convergence order.  Time derivatives are central
differences with their own dt, read from the sampler like any stencil point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .grid import Grid1D
from .selfsim import SystemParams

Sampler = Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]]

# Margin between the interior band and the support edge, in stencil
# widths.  The widest stencil spans 2h, so any few-h margin restores
# interior smoothness; 5h is comfortable.
DELTA_IN_H = 5.0


class InsufficientGrids(ValidationError):
    """A convergence study needs at least three refinement levels."""


@dataclass(frozen=True)
class ResidualReport:
    """A refinement study, coarsest level first: the finest level's h and
    norms are the last entries of ``hs``, ``mass_norms`` and ``momentum_norms``."""

    dt: float
    interior_band: float
    order_estimate_mass: Optional[float]
    order_estimate_momentum: Optional[float]
    hs: tuple
    mass_norms: tuple
    momentum_norms: tuple
    # Finest level's (nodes, R1, R2), for callers that emit pointwise
    # residuals; not part of the summary.
    finest_residuals: tuple = field(default=(), repr=False, compare=False)

    def summary(self) -> dict:
        return {
            "grid_h": self.hs[-1],
            "dt": self.dt,
            "mass_eq_linf": self.mass_norms[-1],
            "momentum_eq_linf": self.momentum_norms[-1],
            "interior_band": self.interior_band,
            "order_estimate_mass": self.order_estimate_mass,
            "order_estimate_momentum": self.order_estimate_momentum,
            "hs": list(self.hs),
            "mass_norms": list(self.mass_norms),
            "momentum_norms": list(self.momentum_norms),
        }


def equation_residuals(
    sol_eval: Sampler,
    params: SystemParams,
    t: float,
    grid: Grid1D,
    h: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise (R1, R2) on the grid nodes from one pass of 11 samples.

    Also returns the sampled rho(t, nodes), from which a caller can
    take the interior band without sampling again.

    All derivatives are central: (t, x), (t, x +- h), (t, x +- 2h),
    (t +- dt, x) and (t +- dt, x +- h); u_xxt uses the cross stencil and
    u_xxx the 5-point third-derivative stencil.  Each difference is formed
    as soon as its samples exist and the samples are dropped; R1 and R2
    accumulate in place, with the operations of the formulas in the module
    docstring in their order, so the residuals are bit for bit those of the
    plain expressions while at most about 12 arrays of n floats are alive
    (the sampler's own temporaries aside).  A sampler's arrays are only
    read, never written.
    """
    x = grid.nodes
    two_dt, two_h, h_sq = 2.0 * dt, 2.0 * h, h**2
    rho_p, up = sol_eval(t + dt, x)
    rho_m, um = sol_eval(t - dt, x)
    r1 = rho_p - rho_m  # rho_t, then R1 accumulated onto it
    del rho_p, rho_m
    r1 /= two_dt
    rho, u = sol_eval(t, x)
    rho_r, u_r = sol_eval(t, x + h)
    rho_l, u_l = sol_eval(t, x - h)
    rho_x = rho_r - rho_l
    del rho_r, rho_l
    rho_x /= two_h
    u_x = u_r - u_l
    u_x /= two_h
    term = params.k2 * u
    term *= rho_x
    r1 += term
    np.multiply(params.k1 + params.k2, rho, out=term)
    term *= u_x
    r1 += term
    del term

    # R2's spatial terms, each kept until u_t - u_xxt exists: A = 4*u*u_x,
    # B = 3*u_x*u_xx, C = u*u_xxx and D = k3*rho*rho_x
    u_rr = sol_eval(t, x + 2.0 * h)[1]
    u_xx = 2.0 * u
    np.subtract(u_r, u_xx, out=u_xx)
    u_xx += u_l
    u_xx /= h_sq
    a_term = 4.0 * u
    a_term *= u_x
    b_term = u_x
    b_term *= 3.0
    b_term *= u_xx
    d_term = u_xx
    np.multiply(params.k3, rho, out=d_term)
    d_term *= rho_x
    u_xxx = rho_x
    np.multiply(2.0, u_r, out=u_xxx)
    np.subtract(u_rr, u_xxx, out=u_xxx)
    del u_x, u_xx, rho_x, u_r, u_rr
    u_xxx += 2.0 * u_l
    del u_l
    u_xxx -= sol_eval(t, x - 2.0 * h)[1]
    u_xxx /= 2.0 * h**3
    c_term = u_xxx
    c_term *= u  # a rounded product commutes: u_xxx*u is u*u_xxx bit for bit
    del u, u_xxx

    r2 = up - um  # u_t, then R2 accumulated onto it
    r2 /= two_dt
    uxx_p = 2.0 * up
    del up
    np.subtract(sol_eval(t + dt, x + h)[1], uxx_p, out=uxx_p)
    uxx_p += sol_eval(t + dt, x - h)[1]
    uxx_p /= h_sq
    uxx_m = 2.0 * um
    del um
    np.subtract(sol_eval(t - dt, x + h)[1], uxx_m, out=uxx_m)
    uxx_m += sol_eval(t - dt, x - h)[1]
    uxx_m /= h_sq
    u_xxt = uxx_p
    u_xxt -= uxx_m
    del uxx_m
    u_xxt /= two_dt

    r2 -= u_xxt
    r2 += a_term
    r2 -= b_term
    r2 -= c_term
    r2 += d_term
    return r1, r2, rho


def interior_mask(x: np.ndarray, rho: np.ndarray, delta: float) -> np.ndarray:
    """Support-interior nodes at distance > delta from the support edge.

    The support is detected black-box as the rho > 0 region, so the lab
    needs no knowledge of the sampler's internals; a field with no
    zero/nonzero transition (a constant state, or a pure-velocity
    field) has no edge and the whole grid counts as interior.  The
    assembled solutions satisfy the equations on the support only: the
    linear flow u is global while the balancing density term vanishes
    outside, so exterior nodes are never part of the band.
    """
    supported = rho > 0.0
    flips = np.nonzero(supported[:-1] != supported[1:])[0]
    if flips.size == 0:
        return np.ones_like(x, dtype=bool)
    edges = 0.5 * (x[flips] + x[flips + 1])
    return supported & (_edge_distance(x, edges) > delta)


def _edge_distance(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """|x - e| to the nearest of ``edges``, for every (finite) node of ``x``.

    A rounded difference x - e is monotone in e, so the nearest edge is the
    last one below x or the first one at or above it.  Those two neighbours,
    found by ``np.searchsorted`` on the sorted edges, give the minimum over
    all edges bit for bit, in a few arrays of n floats whatever the number
    of edges.
    """
    bounded = np.concatenate(([-np.inf], np.sort(edges), [np.inf]))
    right = np.searchsorted(bounded, x)  # bounded[right - 1] < x <= bounded[right]
    dist = np.subtract(bounded[right], x)
    right -= 1
    np.minimum(dist, np.subtract(x, bounded[right]), out=dist)
    return dist


def _fit_order(hs: Sequence[float], norms: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(norm) over log(h), from centred sums."""
    if any(norm <= 0.0 for norm in norms) or all(norm < 1e-14 for norm in norms):
        return None  # exact-zero residual: order not applicable
    logs_h = [math.log(h) for h in hs]
    logs_n = [math.log(norm) for norm in norms]
    mean_h, mean_n = sum(logs_h) / len(logs_h), sum(logs_n) / len(logs_n)
    dev_h = [log_h - mean_h for log_h in logs_h]
    return sum(d * (log_n - mean_n) for d, log_n in zip(dev_h, logs_n)) / sum(d * d for d in dev_h)


def stencil_reach(grids: Sequence[Grid1D], dt_over_h: float) -> float:
    """The widest time offset of a study, dt_over_h * (coarsest h).

    :func:`convergence_study` samples no time outside t -+ this reach,
    and its latest sample is t + reach in exactly this float.
    """
    if len(grids) < 3:
        raise InsufficientGrids(f"need >= 3 grids, got {len(grids)}")
    # dt = 0 divides by zero, and the nan orders that follow pass `order < cli.VERIFY_MIN_ORDER`
    if not 0.0 < dt_over_h < np.inf:
        raise ValidationError(f"dt_over_h must be finite and > 0, got {dt_over_h}")
    return dt_over_h * max(grid.dx for grid in grids)


def convergence_study(
    sol_eval: Sampler,
    params: SystemParams,
    t: float,
    grids: Sequence[Grid1D],
    dt_over_h: float = 1.0,
    delta_in_h: float = DELTA_IN_H,
) -> ResidualReport:
    """Refinement study of both residuals with log-log order fits.

    Each grid contributes one data point at stencil width h = grid.dx
    and dt = dt_over_h * h; orders come from the least-squares slope
    over all levels.  The interior band is anchored at the coarsest
    level, delta = delta_in_h * max(h), and held fixed across the
    refinement so every level's sup norm ranges over the same region
    (a band shrinking with h cannot converge in the sup norm against
    the square-root edge).  Passing delta_in_h = 0 includes the support
    edge, which is expected to destroy the order (a regression handle
    on the C0 boundary behaviour).
    """
    stencil_reach(grids, dt_over_h)  # validates the level count and dt_over_h
    delta = delta_in_h * max(grid.dx for grid in grids)
    hs, mass_norms, mom_norms = [], [], []
    for grid in sorted(grids, key=lambda g: g.dx, reverse=True):
        h = grid.dx
        finest = ()  # the coarser level's residuals go before this level is sampled
        r1, r2, rho = equation_residuals(sol_eval, params, t, grid, h, dt_over_h * h)
        mask = interior_mask(grid.nodes, rho, delta)
        del rho
        if not mask.any():
            raise ValidationError(
                f"interior band of the level h={h} has no node (delta={delta})"
            )
        hs.append(h)
        mass_norms.append(float(np.max(np.abs(r1[mask]))))
        mom_norms.append(float(np.max(np.abs(r2[mask]))))
        finest = (grid.nodes, r1, r2)
        del r1, r2, mask

    return ResidualReport(
        dt=dt_over_h * hs[-1],
        interior_band=delta,
        order_estimate_mass=_fit_order(hs, mass_norms),
        order_estimate_momentum=_fit_order(hs, mom_norms),
        hs=tuple(hs),
        mass_norms=tuple(mass_norms),
        momentum_norms=tuple(mom_norms),
        finest_residuals=finest,  # the loop ends on the finest level
    )
