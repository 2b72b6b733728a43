"""Refusals that no other test reaches, each pinned once with its type and message.

A command line exits 2 with its one message and makes no --out; a library call
raises the named exception with the named message.
"""

import math

import numpy as np
import pytest

from dp2.cli import main
from dp2.emden import EmdenProblem, integrate, touchdown_time_quadrature
from dp2.errors import ValidationError
from dp2.grid import Grid1D
from dp2.pdesolver import LENGTH, SolverState
from dp2.profile import Profile
from dp2.riccati import BlowupCriterion
from dp2.selfsim import FreeProfile, SelfSimilarSolution, SystemParams, WrongBranch, build_solution

PARAMS = SystemParams(k1=1.0, k2=1.0, k3=1.0)
FREE = SystemParams(k1=1.0, k2=1.0, k3=0.0)  # the decoupled branch k3 = 0, xi = 0


def bump(eta):
    return np.exp(-eta**2)


def branch(params, profile, xi):
    return SelfSimilarSolution(params=params, profile=profile,
                               traj=integrate(EmdenProblem(xi=xi, kappa=params.kappa)))


REFUSALS = {
    # command lines: (argv, message)
    "emden-s_max": (("emden", "--xi", "-1", "--s-max", "0"),
                    "s_max must be positive and finite, got s_max=0.0"),
    "riccati-dt": (("riccati", "--m", "0", "--v0", "-2", "--dt", "0"), "dt must be > 0, got dt=0.0"),
    "selfsim-times": (("selfsim", "--k3", "1", "--xi", "1", "--times=-0.1"),
                      "t must be >= 0, got t=-0.1"),
    # library calls: (call, exception type, message)
    "EmdenProblem-kappa": (lambda: EmdenProblem(xi=-1.0, kappa=math.nan), ValidationError,
                           "kappa must be finite, got kappa=nan"),
    "EmdenProblem-xi": (lambda: EmdenProblem(xi=math.nan, kappa=0.5), ValidationError,
                        "xi must be finite"),
    "EmdenTrajectory.state": (
        lambda: integrate(EmdenProblem(xi=0.0, kappa=0.5, s_max=2.0)).state(-1.0),
        ValidationError, "s=-1.0 outside trajectory domain [0, 2.0]"),
    "touchdown_time_quadrature-kappa": (
        lambda: touchdown_time_quadrature(EmdenProblem(xi=-1.0, kappa=1.5)),
        ValidationError, "quadrature oracle supports kappa in (0, 1], got 1.5"),
    "Grid1D-length": (lambda: Grid1D(n=64, length=0.0), ValidationError,
                      "length must be positive, got 0.0"),
    "SolverState.make-rho": (
        lambda: SolverState.make(0.0, np.zeros(63), np.zeros(64), PARAMS, Grid1D(n=64, length=LENGTH)),
        ValidationError, "rho length (63,) does not match grid"),
    "Profile.ode_residual_f-h": (lambda: Profile(alpha=1.0, beta=1.0).ode_residual_f(0.0, h=0.0),
                                 ValidationError, "h must be > 0, got h=0.0"),
    "BlowupCriterion-v0": (lambda: BlowupCriterion(M=0.0, v0=math.nan), ValidationError,
                           "v0 must be finite, got v0=nan"),
    "SystemParams-k1": (lambda: SystemParams(k1=math.nan, k2=1.0, k3=1.0), ValidationError,
                        "k1 must be finite"),
    "build_solution-rho0": (lambda: build_solution(FREE, xi=0.0, alpha=1.0), ValidationError,
                            "k3 = 0 requires an explicit rho0 shape"),
    "support_halfwidth-free": (
        lambda: build_solution(FREE, xi=0.0, alpha=1.0, rho0=bump).support_halfwidth(0.0),
        WrongBranch, "support bound is defined for compact profiles only"),
    "branch-profile-k3=0": (lambda: branch(FREE, Profile(alpha=1.0, beta=1.0), 0.0), WrongBranch,
                            "k3 = 0 takes a FreeProfile shape"),
    "branch-free-k3!=0": (lambda: branch(PARAMS, FreeProfile(rho0=bump), 1.0), WrongBranch,
                          "k3 != 0 takes the compact-support Profile"),
    "branch-signs": (lambda: branch(PARAMS, Profile(alpha=1.0, beta=1.0), -1.0), WrongBranch,
                     "invalid branch: k3=1.0 and xi=-1.0 must share a sign"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_reachable_refusal(tmp_path, capsys, case):
    *call, message = REFUSALS[case]
    if isinstance(call[0], tuple):
        # a fresh --out: the refused run makes no directory
        argv, out = call[0], tmp_path / "run"
        assert main([argv[0], "--out", str(out), *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    else:
        build, exc_type = call
        with pytest.raises(exc_type) as exc:
            build()
        assert type(exc.value) is exc_type
        assert str(exc.value) == message
