"""Assembled self-similar solutions of the two-component system.

A solution binds system constants (k1, k2, k3), a density shape and a
scale-factor trajectory a(s) into the pair

    rho(t, x) = f(eta) / a(4t)**((k1+k2)/4),   eta = x / a(4t)**(k2/4),
    u(t, x)   = (a'(4t) / a(4t)) * x,

using the similarity exponent k2/4 from the change of variables (the
two agree with the 1/4 shorthand exactly when k2 = 1).  The time map
s = 4t is applied once at the API boundary; everything internal runs
in s.  Evaluation past a touchdown is a hard error: the solution
ceases to exist when the density collapses at the origin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .emden import EmdenProblem, EmdenTrajectory, Fate, integrate
from .errors import ValidationError
from .profile import Profile


class WrongBranch(ValidationError):
    """Operation not defined for this branch of the solution family."""


class BeyondBlowup(ValidationError):
    """Requested time at or past the collapse time T = S/4."""


class HorizonExceeded(ValidationError):
    """Requested time past the integrated horizon of a global run."""


@dataclass(frozen=True)
class SystemParams:
    """Constants (k1, k2, k3) of the system; kappa = k1/2 + k2 - 1."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not (self.k2 > 0.0):
            raise ValidationError(
                f"k2 must be > 0 for the similarity exponent k2/4, got k2={self.k2}"
            )

    @property
    def kappa(self) -> float:
        return 0.5 * self.k1 + self.k2 - 1.0


@dataclass(frozen=True)
class FreeProfile:
    """Arbitrary nonnegative C1 shape for the decoupled branch k3 = 0."""

    rho0: Callable[[np.ndarray], np.ndarray]

    def eval_f(self, eta):
        vals = np.asarray(self.rho0(np.asarray(eta, dtype=float)), dtype=float)
        if np.any(vals < 0.0):
            raise ValidationError("free profile returned negative density")
        if np.isscalar(eta) or np.ndim(eta) == 0:
            return float(vals)
        return vals


class OriginFate(enum.Enum):
    DIVERGES_AT_T = "DivergesAtT"
    DECAYS_TO_ZERO = "DecaysToZero"


@dataclass(frozen=True)
class OriginDensityResult:
    fate: OriginFate
    T: Optional[float]


@dataclass(frozen=True)
class SelfSimilarSolution:
    params: SystemParams
    profile: Union[Profile, FreeProfile]
    traj: EmdenTrajectory

    def __post_init__(self) -> None:
        k3, xi = self.params.k3, self.traj.problem.xi
        if k3 == 0.0:
            if xi != 0.0:
                raise WrongBranch("k3 = 0 requires xi = 0")
            if not isinstance(self.profile, FreeProfile):
                raise WrongBranch("k3 = 0 takes a FreeProfile shape")
        else:
            if not isinstance(self.profile, Profile):
                raise WrongBranch("k3 != 0 takes the compact-support Profile")
            if k3 * xi <= 0.0:
                raise WrongBranch(f"invalid branch: k3={k3} and xi={xi} must share a sign")

    # -- time handling ----------------------------------------------------

    def _scale_at(self, t: float) -> tuple[float, float]:
        """(a, a') at s = 4t with horizon and blowup guards."""
        s = 4.0 * t
        if s < 0.0:
            raise ValidationError(f"t must be >= 0, got t={t}")
        if self.traj.fate is Fate.TOUCHDOWN and s >= self.traj.touchdown_s:
            raise BeyondBlowup(
                f"t={t} is at or past the collapse time T={self.traj.touchdown_s / 4.0}"
            )
        if s > self.traj.s_end:
            raise HorizonExceeded(
                f"t={t} exceeds the integrated horizon t_max={self.traj.s_end / 4.0}"
            )
        return self.traj.state(s)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, t: float, x):
        """Density and velocity at (t, x); x may be a scalar or array."""
        a, a_dot = self._scale_at(t)
        x_arr = np.asarray(x, dtype=float)
        # eta = x / a**(k2/4) goes unnamed, so it is freed as soon as f(eta) exists
        rho = self.profile.eval_f(x_arr / a ** (0.25 * self.params.k2))
        rho = rho / a ** (0.25 * (self.params.k1 + self.params.k2))
        u = (a_dot / a) * x_arr
        if np.isscalar(x) or x_arr.ndim == 0:
            return float(rho), float(u)
        return np.asarray(rho), u

    def support_halfwidth(self, t: float) -> float:
        """Spatial support bound sqrt(beta)*alpha*a(4t)**(k2/4)."""
        if not isinstance(self.profile, Profile):
            raise WrongBranch("support bound is defined for compact profiles only")
        a, _ = self._scale_at(t)
        return self.profile.half_width * a ** (0.25 * self.params.k2)

    def mass(self, t: float) -> float:
        """Total mass a(4t)**(-k1/4) * mass_eta; conserved exactly iff k1 = 0."""
        if not isinstance(self.profile, Profile):
            raise WrongBranch("mass is defined for compact profiles only")
        a, _ = self._scale_at(t)
        return a ** (-0.25 * self.params.k1) * self.profile.mass_eta()

    # -- diagnostics -------------------------------------------------------

    def origin_density_limit(self) -> OriginDensityResult:
        """Fate of rho(t, 0) = alpha / a(4t)**(p/4), p = k1 + k2, read from the trajectory.

        On a touchdown at s = S it diverges at T = S/4 when p > 0.  On a global
        run rho(t, 0) decays over the horizon iff p*a' >= 0 on all of it:
        a'' has the sign of xi, so a' is monotone, and its ends, a1 and the
        last sample's a', decide.  Refused: alpha = 0 or p = 0, where
        rho(t, 0) is 0 or constant; p < 0 at a touchdown, where it falls
        to 0; and a global run on which it rises somewhere.
        """
        if self.params.k3 == 0.0:
            raise WrongBranch("origin density fate needs a compact-profile branch")
        alpha, p = self.profile.alpha, self.params.k1 + self.params.k2
        if alpha == 0.0 or p == 0.0:
            raise ValidationError(f"rho(t,0) = alpha/a(4t)**((k1+k2)/4) is 0 at alpha = 0 and constant"
                                  f" at k1+k2 = 0 (alpha={alpha}, k1+k2={p}): it has no fate")
        if self.traj.fate is Fate.TOUCHDOWN:
            if p < 0.0:
                raise ValidationError(f"k1+k2={p} < 0: rho(t,0) falls to 0 at the touchdown instead of diverging")
            return OriginDensityResult(OriginFate.DIVERGES_AT_T, self.traj.touchdown_s / 4.0)
        if not all(p * a_dot >= 0.0 for a_dot in self.traj.samples[[0, -1], 2].tolist()):
            raise ValidationError("rho(t,0) does not decay over the horizon: (k1+k2)*a' < 0 at its start or end")
        return OriginDensityResult(OriginFate.DECAYS_TO_ZERO, None)

    # -- emission ----------------------------------------------------------

    def snapshot_metadata(self, t: float) -> dict:
        a, a_dot = self._scale_at(t)
        return {
            "t": t,
            "a": a,
            "a_dot": a_dot,
            "mass": self.mass(t) if isinstance(self.profile, Profile) else None,
            "support_halfwidth": (
                self.support_halfwidth(t) if isinstance(self.profile, Profile) else None
            ),
        }


def build_solution(
    params: SystemParams,
    xi: float,
    alpha: float,
    a0: float = 1.0,
    a1: float = 0.0,
    s_max: float = 10.0,
    mu: float = 4.0,
    tol: float = 1e-10,
    rho0: Optional[Callable] = None,
) -> SelfSimilarSolution:
    """Assemble a solution: shape from (k3, xi, alpha, mu), trajectory from kappa.

    Every evaluation reads (a, a') from the trajectory's ``state``: one
    DOP853 step from the last sample at or before s.

    For k3 = 0 (and xi = 0) pass ``rho0``, the arbitrary nonnegative C1
    shape of the decoupled branch.
    """
    problem = EmdenProblem(xi=xi, kappa=params.kappa, mu=mu, a0=a0, a1=a1, s_max=s_max)
    traj = integrate(problem, tol=tol)
    if params.k3 == 0.0:
        if rho0 is None:
            raise ValidationError("k3 = 0 requires an explicit rho0 shape")
        prof: Union[Profile, FreeProfile] = FreeProfile(rho0=rho0)
    else:
        prof = Profile.from_params(params.k3, xi, alpha, mu)
    return SelfSimilarSolution(params=params, profile=prof, traj=traj)
