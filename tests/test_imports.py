"""Import graph: no dp2 code imports scipy.

Importing dp2's modules, every subcommand (``solve``, ``riccati``,
``emden``, ``selfsim``, ``verify``, ``sweep``), ``emden.integrate`` and the
touchdown oracle load numpy and nothing from scipy, and emit no warning.  The
suite's own process has imported everything already, so each check runs
in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp2

SRC = str(Path(dp2.__file__).resolve().parents[1])

PROBE = """
import json, sys

def loaded(package):
    return any(name == package or name.startswith(package + ".") for name in sys.modules)

def scipy_loaded():
    return {p: loaded(p) for p in ("scipy", "scipy.special", "scipy.integrate")}

stages = {}
import dp2, dp2.cli, dp2.pdesolver, dp2.riccati
stages["import"] = scipy_loaded()
from dp2.cli import main
main(["solve", "--n", "64", "--t-max", "0.01", "--out", OUT])
stages["solve"] = scipy_loaded()
main(["riccati", "--m", "0", "--v0", "-2", "--out", OUT])
stages["riccati"] = scipy_loaded()
main(["emden", "--xi", "-1", "--out", OUT])
stages["emden"] = scipy_loaded()
main(["selfsim", "--k3", "-1", "--xi", "-1", "--grid-n", "64", "--out", OUT])
stages["selfsim"] = scipy_loaded()
main(["verify", "--n-base", "64", "--levels", "3", "--out", OUT])
stages["verify"] = scipy_loaded()
main(["sweep", "--grid", "xi=-1:1:2", "kappa=0.5:1:2", "--out", OUT])
stages["sweep"] = scipy_loaded()
from dp2 import emden
problem = emden.EmdenProblem(xi=-1.0, kappa=0.5, a0=1.0, a1=0.0)
traj = emden.integrate(problem)
stages["integrate"] = scipy_loaded()
quadrature_s = emden.touchdown_time_quadrature(problem)
stages["quadrature"] = scipy_loaded()
print(json.dumps({"stages": stages, "quadrature_S": quadrature_s, "S": traj.touchdown_s}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"OUT = {str(out)!r}\n" + PROBE],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", ["import", "solve", "riccati"])
def test_solver_path_loads_no_scipy(probe, stage):
    assert probe["stages"][stage] == {"scipy": False, "scipy.special": False,
                                      "scipy.integrate": False}


@pytest.mark.parametrize("stage", ["emden", "selfsim", "verify", "sweep", "integrate"])
def test_emden_paths_load_no_scipy(probe, stage):
    # emden.integrate went through scipy.integrate.solve_ivp (~0.25 s of imports)
    assert probe["stages"][stage] == {"scipy": False, "scipy.special": False,
                                      "scipy.integrate": False}
    assert probe["S"] == pytest.approx(8.0 / 3.0, rel=1e-4)


def test_quadrature_loads_no_scipy(probe):
    # the oracle went through scipy.special's betaincc, beta and erfcx (~25 MB of RSS)
    assert probe["stages"]["quadrature"] == {"scipy": False, "scipy.special": False,
                                             "scipy.integrate": False}
    assert abs(probe["quadrature_S"] - 8.0 / 3.0) <= 1e-15 * (8.0 / 3.0)


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


def test_dp2_source_calls_no_lapack():
    # the first np.polyfit of a verify run mapped about 1 MB of BLAS/LAPACK
    # buffers to fit a line through three to five points
    for path in Path(dp2.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "polyfit" not in text and "linalg" not in text, path.name
