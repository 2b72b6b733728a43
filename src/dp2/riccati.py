"""Slope blowup criterion via a Riccati comparison ODE.

If the velocity stays bounded by M at a point while the initial slope
there is below -sqrt(3/2)*M, the slope is squeezed under the solution
of the comparison equation

    v' = -v**2 + c**2,     c = sqrt(3/2)*M,   v(0) = v0 < -c,

which escapes to -infinity at the closed-form time

    T = atanh(c/|v0|) / c,

with the M = 0 limit T = -1/v0 (v(t) = v0/(1 + v0*t)).  :func:`check`
evaluates it as log1p(x)/x / (|v0| - c) with x = 2c/(|v0| - c), which
keeps full precision both as v0 -> -c, where the difference |v0| - c is
exact, and as c/|v0| -> 0, where log1p(x)/x -> 1 gives the M = 0 limit.
The comparison is an inequality, so T is an upper bound on the blowup
time of the true slope, not an exact time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

# Beyond this magnitude the comparison trajectory counts as escaped:
# one more RK4 step would be meaningless and the closed form governs.
ESCAPE_THRESHOLD = 1e6

# Rows of (t, v) a comparison trajectory may keep: 16 MB of float64 at the cap,
# 32 MB traced while it is built (x86_64, Python 3.11, numpy 2.4).
MAX_TRAJECTORY_ROWS = 10**6


@dataclass(frozen=True)
class BlowupCriterion:
    """Velocity bound M >= 0 at a point and the initial slope there.

    M is refused when c**2 = 3/2*M**2, which the comparison trajectory
    integrates, is not finite.
    """

    M: float
    v0: float

    def __post_init__(self) -> None:
        if not (self.M >= 0.0 and math.isfinite(self.c * self.c)):
            raise ValidationError(f"M must be >= 0 with c**2 = 3/2*M**2 finite, got M={self.M}")
        if not math.isfinite(self.v0):
            raise ValidationError(f"v0 must be finite, got v0={self.v0}")

    @property
    def c(self) -> float:
        """Comparison threshold sqrt(3/2)*|M|."""
        return math.sqrt(1.5) * self.M

    @property
    def applies(self) -> bool:
        return self.v0 < -self.c

    def summary(self) -> dict:
        return {"M": self.M, "v0": self.v0, "c": self.c, "applies": self.applies,
                "T_bound": check(self)}


def check(crit: BlowupCriterion) -> Optional[float]:
    """Closed-form blowup-time bound T of the comparison ODE, None when it does not apply."""
    if not crit.applies:
        return None
    gap = -crit.v0 - crit.c
    x = 2.0 * crit.c / gap  # (|v0| + c)/(|v0| - c) - 1; 0 at c = 0 or when it underflows
    return (math.log1p(x) / x if x > 0.0 else 1.0) / gap


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
    t_bound = check(crit)
    rows = (t_max if t_bound is None else t_bound) / dt
    if rows > MAX_TRAJECTORY_ROWS:
        raise ValidationError(f"dt={dt} needs ~{rows:.3g} rows, over the cap {MAX_TRAJECTORY_ROWS}")
    horizon = t_max if t_bound is None else 10.0 * t_bound
    c2 = crit.c**2
    t, v = 0.0, crit.v0
    ts, vs = array("d", [t]), array("d", [v])  # 16 bytes a row
    while abs(v) <= ESCAPE_THRESHOLD and t < horizon:
        v = _rk4_step(v, dt, c2)
        t += dt
        ts.append(t)
        vs.append(v)
    return np.column_stack((np.frombuffer(ts), np.frombuffer(vs)))


def escape_time(crit: BlowupCriterion, dt: float, t_max: float = 10.0) -> Optional[float]:
    """First time |v| exceeds the escape threshold, or None.

    Reads the last row of :func:`comparison_trajectory`, which stops at
    the first escape; that time is 0.0 when |v0| already exceeds it.
    """
    t, v = comparison_trajectory(crit, dt, t_max)[-1]
    return float(t) if abs(v) > ESCAPE_THRESHOLD else None

