"""Slope blowup criterion via a Riccati comparison ODE.

If the velocity stays bounded by M at a point while the initial slope
there is below -sqrt(3/2)*M, the slope is squeezed under the solution
of the comparison equation

    v' = -v**2 + c**2,     c = sqrt(3/2)*M,   v(0) = v0 < -c,

which escapes to -infinity at the closed-form time

    T = (1/(2c)) * ln((v0 - c)/(v0 + c)),

with the M = 0 limit T = -1/v0 (v(t) = v0/(1 + v0*t)).  The comparison
is an inequality, so T is an upper bound on the blowup time of the true
slope, not an exact time.  Positivity of a transported density along a
characteristic is exposed separately through the accumulated-divergence
factor exp(-(k1+k2) * int div u dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .selfsim import SystemParams

# Beyond this magnitude the comparison trajectory counts as escaped:
# one more RK4 step would be meaningless and the closed form governs.
ESCAPE_THRESHOLD = 1e6

# Rows of (t, v) tuples a comparison trajectory may keep, about 100 MB.
MAX_TRAJECTORY_ROWS = 10**6


class EmptyHistory(ValidationError):
    """The divergence history must contain at least one sample."""


@dataclass(frozen=True)
class BlowupCriterion:
    """Velocity bound M >= 0 at a point and the initial slope there."""

    M: float
    v0: float

    def __post_init__(self) -> None:
        if not (self.M >= 0.0 and math.isfinite(self.M)):
            raise ValidationError(f"M must be >= 0 and finite, got M={self.M}")
        if not math.isfinite(self.v0):
            raise ValidationError(f"v0 must be finite, got v0={self.v0}")

    @property
    def c(self) -> float:
        """Comparison threshold sqrt(3/2)*|M|."""
        return math.sqrt(1.5) * self.M

    @property
    def applies(self) -> bool:
        return self.v0 < -self.c


@dataclass(frozen=True)
class BlowupCheck:
    applies: bool
    t_bound: Optional[float]

    def summary(self, crit: BlowupCriterion) -> dict:
        return {
            "M": crit.M,
            "v0": crit.v0,
            "c": crit.c,
            "applies": self.applies,
            "T_bound": self.t_bound,
        }


def check(crit: BlowupCriterion) -> BlowupCheck:
    """Closed-form blowup-time bound of the comparison ODE."""
    if not crit.applies:
        return BlowupCheck(applies=False, t_bound=None)
    if crit.c == 0.0:
        return BlowupCheck(applies=True, t_bound=-1.0 / crit.v0)
    c, v0 = crit.c, crit.v0
    t_bound = math.log((v0 - c) / (v0 + c)) / (2.0 * c)
    return BlowupCheck(applies=True, t_bound=t_bound)


def _rk4_step(v: float, dt: float, c2: float) -> float:
    k1 = -v * v + c2
    v2 = v + 0.5 * dt * k1
    k2 = -v2 * v2 + c2
    v3 = v + 0.5 * dt * k2
    k3 = -v3 * v3 + c2
    v4 = v + dt * k3
    k4 = -v4 * v4 + c2
    return v + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def comparison_trajectory(
    crit: BlowupCriterion, dt: float, t_max: float = 10.0
) -> np.ndarray:
    """RK4 trajectory of v' = -v**2 + c**2 as (t, v) rows.

    Runs until |v| exceeds the escape threshold or t passes ten times
    the closed-form bound (``t_max`` when the criterion does not
    apply).  Serves as the oracle for :func:`check` and for plot data.
    Raises ValidationError when the run would take more than
    MAX_TRAJECTORY_ROWS steps: the escape near the bound, else ``t_max``.
    """
    if not (dt > 0.0):
        raise ValidationError(f"dt must be > 0, got dt={dt}")
    result = check(crit)
    rows = (result.t_bound if result.applies else t_max) / dt
    if rows > MAX_TRAJECTORY_ROWS:
        raise ValidationError(f"dt={dt} needs ~{rows:.3g} rows, over the cap {MAX_TRAJECTORY_ROWS}")
    horizon = 10.0 * result.t_bound if result.applies else t_max
    c2 = crit.c**2
    t, v = 0.0, crit.v0
    out = [(t, v)]
    while abs(v) <= ESCAPE_THRESHOLD and t < horizon:
        v = _rk4_step(v, dt, c2)
        t += dt
        out.append((t, v))
    return np.asarray(out)


def escape_time(crit: BlowupCriterion, dt: float, t_max: float = 10.0) -> Optional[float]:
    """First time |v| exceeds the escape threshold, or None.

    Reads the last row of :func:`comparison_trajectory`, which stops at
    the first escape; that time is 0.0 when |v0| already exceeds it.
    """
    t, v = comparison_trajectory(crit, dt, t_max)[-1]
    return float(t) if abs(v) > ESCAPE_THRESHOLD else None


def density_positivity_factor(
    ux_history: Sequence[tuple[float, float]], params: SystemParams
) -> float:
    """Accumulated positivity factor exp(-(k1+k2) * int div u dt).

    ``ux_history`` holds (t, div u) samples along a characteristic on a
    uniform time grid.  The factor is strictly positive for any finite
    history, which is the discrete shadow of positivity preservation of
    a transported density.
    """
    hist = np.asarray(ux_history, dtype=float)
    if hist.size == 0:
        raise EmptyHistory("ux_history is empty")
    hist = np.atleast_2d(hist)
    if hist.shape[0] == 1:
        integral = 0.0
    else:
        integral = float(np.trapezoid(hist[:, 1], hist[:, 0]))
    return math.exp(-(params.k1 + params.k2) * integral)
