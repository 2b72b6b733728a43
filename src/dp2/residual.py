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
    u_xxx the 5-point third-derivative stencil.
    """
    x = grid.nodes
    rho_p, up = sol_eval(t + dt, x)
    rho_m, um = sol_eval(t - dt, x)
    rho, u = sol_eval(t, x)
    rho_r, u_r = sol_eval(t, x + h)
    rho_l, u_l = sol_eval(t, x - h)
    _, u_rr = sol_eval(t, x + 2.0 * h)
    _, u_ll = sol_eval(t, x - 2.0 * h)
    _, up_r = sol_eval(t + dt, x + h)
    _, up_l = sol_eval(t + dt, x - h)
    _, um_r = sol_eval(t - dt, x + h)
    _, um_l = sol_eval(t - dt, x - h)

    rho_t = (rho_p - rho_m) / (2.0 * dt)
    rho_x = (rho_r - rho_l) / (2.0 * h)
    u_t = (up - um) / (2.0 * dt)
    u_x = (u_r - u_l) / (2.0 * h)
    u_xx = (u_r - 2.0 * u + u_l) / h**2
    u_xxx = (u_rr - 2.0 * u_r + 2.0 * u_l - u_ll) / (2.0 * h**3)
    uxx_p = (up_r - 2.0 * up + up_l) / h**2
    uxx_m = (um_r - 2.0 * um + um_l) / h**2
    u_xxt = (uxx_p - uxx_m) / (2.0 * dt)

    r1 = rho_t + params.k2 * u * rho_x + (params.k1 + params.k2) * rho * u_x
    r2 = (
        u_t
        - u_xxt
        + 4.0 * u * u_x
        - 3.0 * u_x * u_xx
        - u * u_xxx
        + params.k3 * rho * rho_x
    )
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
    dist = np.min(np.abs(x[:, None] - edges[None, :]), axis=1)
    return supported & (dist > delta)


def _fit_order(hs: Sequence[float], norms: Sequence[float]) -> Optional[float]:
    norms = np.asarray(norms, dtype=float)
    if np.any(norms <= 0.0) or np.max(norms) < 1e-14:
        return None  # exact-zero residual: order not applicable
    logs_h = np.log(np.asarray(hs, dtype=float))
    logs_n = np.log(norms)
    slope = np.polyfit(logs_h, logs_n, 1)[0]
    return float(slope)


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
        r1, r2, rho = equation_residuals(sol_eval, params, t, grid, h, dt_over_h * h)
        mask = interior_mask(grid.nodes, rho, delta)
        if not mask.any():
            raise ValidationError(
                f"interior band of the level h={h} has no node (delta={delta})"
            )
        hs.append(h)
        mass_norms.append(float(np.max(np.abs(r1[mask]))))
        mom_norms.append(float(np.max(np.abs(r2[mask]))))

    return ResidualReport(
        dt=dt_over_h * hs[-1],
        interior_band=delta,
        order_estimate_mass=_fit_order(hs, mass_norms),
        order_estimate_momentum=_fit_order(hs, mom_norms),
        hs=tuple(hs),
        mass_norms=tuple(mass_norms),
        momentum_norms=tuple(mom_norms),
        finest_residuals=(grid.nodes, r1, r2),  # the loop ends on the finest level
    )
