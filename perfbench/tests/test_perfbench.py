"""Self-tests of the benchmark: tiny smoke runs of every workload, planted
wrong answers that the correctness gate must count, span arithmetic, and
the runner's output contract.

Run from the root of the repository:

    python3 -m pytest -q -p no:cacheprovider perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dp2 import cli, emden, pdesolver, selfsim  # noqa: E402
from dp2.errors import Dp2Error  # noqa: E402


def tiny_sweep(out_dir):
    """Four xi<0 and four xi>0 cells: one oracle call per xi<0 cell."""
    argv = ["sweep", "--out", str(out_dir), "--grid", "xi=-1:1:2", "kappa=0.5:1:2", "a1=-0.5:0.5:2"]
    return [(argv, 8)]


# ---------------------------------------------------------------------------
# Smoke runs at tiny size.
# ---------------------------------------------------------------------------


def test_blowup_smoke(tmp_path):
    (config,) = workloads.build_blowup(np.random.default_rng(0), tmp_path, 1, n=1024, threshold=-100.0)
    outcome = workloads.run_blowup(config)
    assert outcome.attempted == 1 and not outcome.errors and not outcome.wrong
    assert outcome.counts["pdesolver.step"] == outcome.signature[0] > 0


def test_fate_sweep_smoke(tmp_path):
    outcome = workloads.run_fate_sweep(tiny_sweep(tmp_path), tmp_path)
    assert not outcome.errors and not outcome.wrong
    assert outcome.attempted == 8 + 4
    assert outcome.counts == {"emden.quadrature": 4, "emden.integrate": 8}


def test_fate_sweep_inputs_are_seeded_and_reach_the_corner(tmp_path):
    a = workloads.build_fate_sweep(np.random.default_rng(5), tmp_path, 3)
    b = workloads.build_fate_sweep(np.random.default_rng(5), tmp_path, 3)
    c = workloads.build_fate_sweep(np.random.default_rng(6), tmp_path, 3)
    assert a == b and a != c
    for ((broad, n_broad),) in a:
        assert n_broad == workloads.BROAD_CELLS
    ((corner, n_corner),) = workloads.WORKLOADS["fate_sweep"].pinned(tmp_path)
    assert corner[3:] == workloads.CORNER_ARGS and n_corner == workloads.CORNER_CELLS


def test_verify_selfsim_smoke(tmp_path):
    for argv in workloads.build_verify_selfsim(np.random.default_rng(0), tmp_path, 2, n_base=256, levels=3):
        outcome = workloads.run_verify_selfsim(argv, tmp_path)
        assert outcome.attempted == 1 and not outcome.errors and not outcome.wrong
        assert all(workloads.ORDER_RANGE[0] <= o <= workloads.ORDER_RANGE[1] for o in outcome.signature)


def test_verify_solver_smoke(tmp_path):
    (case,) = workloads.build_verify_solver(
        np.random.default_rng(0), tmp_path, 1, n=512, grid_ns=(128, 256, 512)
    )
    outcome = workloads.run_verify_solver(case)
    assert outcome.attempted == 1 and not outcome.errors and not outcome.wrong


def test_canonical_fingerprint():
    outcome = workloads.canonical_s()
    assert outcome.attempted == 2 and not outcome.wrong


# ---------------------------------------------------------------------------
# Planted wrong answers are counted, with their inputs listed.
# ---------------------------------------------------------------------------


def test_sampler_perturbed_at_order_h_fails_the_order_check(tmp_path, monkeypatch):
    (case,) = workloads.build_verify_solver(
        np.random.default_rng(0), tmp_path, 1, n=512, grid_ns=(128, 256, 512)
    )
    exact = pdesolver.RunSampler.__call__

    def perturbed(self, t, xs):
        rho, u = exact(self, t, xs)
        h = float(xs[1] - xs[0])
        return rho + h * np.sin(3.0 * np.asarray(xs)), u

    monkeypatch.setattr(pdesolver.RunSampler, "__call__", perturbed)
    outcome = workloads.run_verify_solver(case)
    assert len(outcome.wrong) == 1 and "orders" in outcome.wrong[0]
    assert case.label in outcome.wrong[0]


def test_falsified_touchdown_time_is_counted(tmp_path, monkeypatch):
    exact = emden.integrate

    def falsified(problem, tol=1e-10):
        traj = exact(problem, tol=tol)
        if traj.touchdown_s is None:
            return traj
        return dataclasses.replace(traj, touchdown_s=traj.touchdown_s * (1.0 + 1e-3))

    monkeypatch.setattr(emden, "integrate", falsified)
    outcome = workloads.run_fate_sweep(tiny_sweep(tmp_path), tmp_path)
    touchdowns = [s for s in outcome.signature if s is not None]
    assert touchdowns and len(outcome.wrong) == len(touchdowns)
    assert all("vs oracle" in line and "xi=-1.0" in line for line in outcome.wrong)


def test_oracle_exception_is_counted_not_dropped(tmp_path, monkeypatch):
    def gives_up(problem, rel_tol=1e-11):
        raise emden.QuadratureBudgetExceeded("planted")

    monkeypatch.setattr(emden, "touchdown_time_quadrature", gives_up)
    outcome = workloads.run_fate_sweep(tiny_sweep(tmp_path), tmp_path)
    assert outcome.attempted == 12 and len(outcome.errors) == 4 and not outcome.wrong
    assert all("QuadratureBudgetExceeded" in line and "kappa=" in line for line in outcome.errors)


def test_planted_error_makes_the_run_incorrect(tmp_path, monkeypatch):
    def raises(config):
        raise Dp2Error("planted")

    monkeypatch.setattr(pdesolver, "run_blowup_experiment", raises)
    (config,) = workloads.build_blowup(np.random.default_rng(0), tmp_path, 1, n=1024, threshold=-100.0)
    tally = run.Tally()
    tally.add(workloads.run_blowup(config))
    assert tally.failed == 1 and len(tally.errors) == 1 and not tally.correct


def test_only_the_known_oracle_failure_is_tolerated(tmp_path, monkeypatch):
    def gives_up(problem, rel_tol=1e-11):
        raise emden.QuadratureBudgetExceeded("planted")

    monkeypatch.setattr(emden, "touchdown_time_quadrature", gives_up)
    corner = workloads.WORKLOADS["fate_sweep"].pinned(tmp_path)
    tally = run.Tally()
    tally.add(workloads.run_fate_sweep(corner, tmp_path))
    assert tally.expected == ["oracle xi=-1.5 kappa=0.05 a0=2.0 a1=-3.0: QuadratureBudgetExceeded"]
    assert len(tally.errors) == 3 and tally.failed == 3 and not tally.correct
    known = run.Tally()
    known.expected = list(tally.expected)
    assert known.correct
    known.expected *= 2  # the known defect more often than the pinned run reaches it
    assert not known.correct


def test_known_defect_is_counted_apart_from_the_result(tmp_path):
    corner = workloads.WORKLOADS["fate_sweep"].pinned(tmp_path)
    outcome = workloads.run_fate_sweep(corner, tmp_path)
    tally = run.Tally()
    tally.add(outcome)
    assert not outcome.errors and not outcome.wrong
    assert tally.failed == 0 and tally.correct
    assert tally.attempted == outcome.attempted - len(outcome.expected)


def test_blowup_without_crossing_is_wrong(tmp_path, monkeypatch):
    exact = pdesolver.run_blowup_experiment
    monkeypatch.setattr(
        pdesolver, "run_blowup_experiment",
        lambda config: dataclasses.replace(exact(config), crossing_time=None),
    )
    (config,) = workloads.build_blowup(np.random.default_rng(0), tmp_path, 1, n=1024, threshold=-100.0)
    outcome = workloads.run_blowup(config)
    assert len(outcome.wrong) == 1 and "no crossing" in outcome.wrong[0]


# ---------------------------------------------------------------------------
# Spans and layer metrics.
# ---------------------------------------------------------------------------


def span(name, start, end, parent, run=0, size=0):
    s = tracing.Span(name, start, parent, run)
    s.end, s.size = end, size
    return s


def test_self_time_on_a_synthetic_tree():
    spans = [
        span("unit", 0.0, 10.0, -1),
        span("pdesolver.step", 1.0, 4.0, 0),
        span("fft", 2.0, 3.0, 1, size=64),
        span("pdesolver.step", 5.0, 9.0, 0),
        span("fft", 5.5, 6.0, 3, size=64),
        span("fft", 6.0, 7.5, 3, size=64),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    metrics = tracing.layer_metrics(spans, [0])
    assert metrics["pdesolver.steps"][0] == 2
    assert metrics["pdesolver.fft_calls"][0] == 3
    assert metrics["pdesolver.fft_per_step"][0] == 1.5
    assert metrics["pdesolver.fft_s"][0] == pytest.approx(3.0)
    assert metrics["pdesolver.fft_bytes_computed"][0] == 192
    assert metrics["pdesolver.step_self_ms_p50"][0] == pytest.approx(2000.0)
    table = dict(tracing.self_time_table(spans, [0]))
    assert sum(table.values()) == pytest.approx(10.0)


def test_tail_keeps_ten_samples_beyond():
    assert tracing.tail(list(range(100))) == (89, 90.0, 100)
    value, pct, n = tracing.tail([1.0] * 5 + [3.0] * 10)
    assert (pct, n) == (50.0, 15) and value == 3.0


def test_tracer_patches_aliases_and_restores_them(tmp_path):
    originals = (emden.integrate, selfsim.integrate, cli.build_solution, np.fft.rfft)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert selfsim.integrate is emden.integrate is not originals[0]
        assert cli.build_solution is selfsim.build_solution is not originals[2]
        assert np.fft.rfft is not originals[3]
        (config,) = workloads.build_blowup(np.random.default_rng(0), tmp_path, 1, n=1024, threshold=-100.0)
        tracer.run = 0
        root = tracer.open("unit")
        traced = workloads.run_blowup(config)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert (emden.integrate, selfsim.integrate, cli.build_solution, np.fft.rfft) == originals
    assert traced.signature == workloads.run_blowup(config).signature
    metrics = tracing.layer_metrics(tracer.spans, [0])
    assert metrics["pdesolver.steps"][0] == traced.counts["pdesolver.step"]
    assert metrics["pdesolver.fft_per_step"][0] == 42


def test_reference_runs_beside_and_stops():
    with speed.Reference() as ref:
        before = ref.read()
        time.sleep(0.3)
        after = ref.read()
        proc = ref._proc
        assert proc.is_alive()
    assert not proc.is_alive()
    assert after[0] > before[0] and 0.0 < speed.Reference.factor(before, after) < 100.0
    assert speed.Reference.factor(after, after) is None


# ---------------------------------------------------------------------------
# The runner's contract.
# ---------------------------------------------------------------------------


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_selfsim", "--seed", "3",
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_every_declared_metric(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
