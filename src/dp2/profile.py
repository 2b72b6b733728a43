"""Compact-support density shape in the self-similar coordinate.

The stored form is f(eta) = beta**-0.5 * sqrt(beta*alpha**2 - eta**2)
on |eta| <= sqrt(beta)*alpha and exactly 0 outside, so
f**2 = alpha**2 - eta**2/beta and every member solves the shape ODE
eta/beta + f*f' = 0.  Since u = (a'/a)*x has u_xx = 0, the momentum
equation reduces in eta to (4*xi/mu)*eta + k3*f*f' = 0 for every k1
and k2, which fixes beta = mu*k3/(4*xi).  The printed closed form
f**2 = alpha**2 - (k3/xi)*eta**2, i.e. beta = xi/k3, agrees with it
only when mu*k3**2 = 4*xi**2 (xi = k3 at mu = 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


class OutsideInterior(ValidationError):
    """A finite-difference stencil left the open support."""


@dataclass(frozen=True)
class Profile:
    """Semi-ellipse density shape with amplitude ``alpha`` and ratio ``beta``.

    alpha is refused when beta*alpha**2, the radicand of f, is not finite.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValidationError(f"beta must be > 0, got beta={self.beta}")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha * self.alpha * self.beta)):
            raise ValidationError(f"alpha must be >= 0 with beta*alpha**2 finite, got alpha={self.alpha}")

    @classmethod
    def from_params(cls, k3: float, xi: float, alpha: float, mu: float = 4.0) -> "Profile":
        """Build the shape that solves the momentum equation: beta = mu*k3/(4*xi).

        Only the sign-matched combinations (k3 > 0, xi > 0) and
        (k3 < 0, xi < 0) give beta > 0 and hence a real compact-support
        shape; anything else is rejected.
        """
        if k3 == 0.0:
            raise ValidationError("k3=0 has no fixed shape; use FreeProfile")
        if not (k3 * xi > 0.0 and mu > 0.0):
            raise ValidationError(
                f"beta = mu*k3/(4*xi) must be > 0 (xi and k3 of matching sign, mu > 0), "
                f"got k3={k3}, xi={xi}, mu={mu}"
            )
        return cls(alpha=alpha, beta=mu * k3 / (4.0 * xi))

    @property
    def half_width(self) -> float:
        """Support bound sqrt(beta)*alpha."""
        return math.sqrt(self.beta) * self.alpha

    def eval_f(self, eta):
        """Evaluate f(eta); total function, 0 outside the support."""
        eta_arr = np.asarray(eta, dtype=float)
        vals = np.square(eta_arr, out=np.empty_like(eta_arr))  # one array, formed in place
        np.subtract(self.beta * self.alpha**2, vals, out=vals)
        np.fmax(vals, 0.0, out=vals)  # 0 outside the support and for a nan eta
        vals /= self.beta
        np.sqrt(vals, out=vals)
        if np.isscalar(eta) or eta_arr.ndim == 0:
            return float(vals)
        return vals

    def mass_eta(self) -> float:
        """Shape mass: semi-ellipse area (pi/2)*sqrt(beta)*alpha**2."""
        return 0.5 * math.pi * math.sqrt(self.beta) * self.alpha**2

    def ode_residual_f(self, eta: float, h: float) -> float:
        """Central-difference residual of the shape ODE at an interior point.

        Returns eta/beta + f(eta)*(f(eta+h) - f(eta-h))/(2h).  The
        stencil must stay strictly inside the support: the shape is
        only C0 at the boundary, where f' diverges.
        """
        if h <= 0.0:
            raise ValidationError(f"h must be > 0, got h={h}")
        if abs(eta) + h >= self.half_width:
            raise OutsideInterior(
                f"stencil |eta|+h = {abs(eta) + h} reaches the support "
                f"boundary {self.half_width}"
            )
        df = (self.eval_f(eta + h) - self.eval_f(eta - h)) / (2.0 * h)
        return eta / self.beta + self.eval_f(eta) * df
