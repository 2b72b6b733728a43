"""Import graph: scipy.integrate loads only when the Emden ODE is integrated.

The suite's own process has imported everything already, so each check
runs in a fresh interpreter.
"""

import importlib
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



# dp2 attributes the benchmark (perfbench/tracing.py LAYERS, perfbench/workloads.py)
# reaches by name.  The tracer skips a name it cannot find, so a rename here
# would read 0 in its per-layer metrics instead of failing.
BENCHMARK_NAMES = [
    ("dp2.pdesolver", "run_blowup_experiment"),
    ("dp2.pdesolver", "step"),
    ("dp2.pdesolver", "_tendency_arrays"),
    ("dp2.pdesolver", "trig_interp"),
    ("dp2.pdesolver", "RunSampler.__call__"),
    ("dp2.pdesolver", "RunSampler._state_at"),
    ("dp2.pdesolver", "BlowupExperimentConfig"),
    ("dp2.pdesolver", "SolverState.make"),
    ("dp2.pdesolver", "dealias"),
    ("dp2.pdesolver", "odd_gaussian_derivative"),
    ("dp2.emden", "integrate"),
    ("dp2.emden", "solve_ivp"),
    ("dp2.emden", "touchdown_time_quadrature"),
    ("dp2.emden", "QuadratureBudgetExceeded"),
    ("dp2.cli", "cmd_sweep"),
    ("dp2.cli", "cmd_verify"),
    ("dp2.cli", "write_csv"),
    ("dp2.residual", "convergence_study"),
    ("dp2.selfsim", "build_solution"),
    ("dp2.selfsim", "SelfSimilarSolution.evaluate"),
    ("dp2.profile", "Profile.eval_f"),
]


@pytest.mark.parametrize("module,path", BENCHMARK_NAMES)
def test_benchmark_names_exist(module, path):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)
