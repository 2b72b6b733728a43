"""Import graph: scipy.integrate loads only when the Emden ODE is integrated.

The suite's own process has imported everything already, so each check
runs in a fresh interpreter.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp2
from dp2 import emden

SRC = str(Path(dp2.__file__).resolve().parents[1])

PROBE = """
import json, sys

def integrate_loaded():
    return any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
               for name in sys.modules)

stages = {}
import dp2, dp2.cli, dp2.pdesolver, dp2.riccati
stages["import"] = integrate_loaded()
from dp2.cli import main
main(["solve", "--n", "64", "--t-max", "0.01", "--format", "json", "--out", OUT])
stages["solve"] = integrate_loaded()
main(["riccati", "--M", "0", "--v0", "-2", "--out", OUT])
stages["riccati"] = integrate_loaded()
from dp2 import emden
traj = emden.integrate(emden.EmdenProblem(xi=-1.0, kappa=0.5, a0=1.0, a1=0.0))
stages["integrate"] = integrate_loaded()
print(json.dumps({"stages": stages, "S": traj.touchdown_s}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", f"OUT = {str(out)!r}\n" + PROBE],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", ["import", "solve", "riccati"])
def test_scipy_integrate_not_loaded(probe, stage):
    assert probe["stages"][stage] is False


def test_integrate_loads_scipy_integrate(probe):
    assert probe["stages"]["integrate"] is True
    assert probe["S"] == pytest.approx(8.0 / 3.0, rel=1e-4)


def test_solve_ivp_is_a_module_level_function():
    # the benchmark tracer and tests patch emden.solve_ivp as a module attribute
    assert inspect.isfunction(vars(emden)["solve_ivp"])
    assert emden.solve_ivp.__module__ == "dp2.emden"

