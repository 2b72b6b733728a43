"""Self-similar solutions and blowup diagnostics for a two-component
Degasperis-Procesi shallow-water system, plus a manufactured-solution
verification lab and a periodic pseudo-spectral reference solver."""

from .emden import (
    Classification,
    EmdenProblem,
    EmdenTrajectory,
    Fate,
    classify,
    integrate,
    touchdown_time_quadrature,
)
from .errors import Dp2Error, NumericalError, ValidationError
from .grid import Grid1D
from .profile import Profile
from .residual import ResidualReport, convergence_study, interior_mask
from .riccati import BlowupCriterion, check, comparison_trajectory
from .selfsim import FreeProfile, SelfSimilarSolution, SystemParams, build_solution

__all__ = [
    "BlowupCriterion",
    "Classification",
    "Dp2Error",
    "EmdenProblem",
    "EmdenTrajectory",
    "Fate",
    "FreeProfile",
    "Grid1D",
    "NumericalError",
    "Profile",
    "ResidualReport",
    "SelfSimilarSolution",
    "SystemParams",
    "ValidationError",
    "build_solution",
    "check",
    "classify",
    "comparison_trajectory",
    "convergence_study",
    "integrate",
    "interior_mask",
    "touchdown_time_quadrature",
]
