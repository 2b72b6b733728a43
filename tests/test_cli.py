"""CLI: dispatch, validation exit codes, determinism, round-trip."""

import dataclasses
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dp2 import cli
from dp2.cli import SCHEMAS, main, write_csv
from dp2.emden import EmdenProblem, integrate
from dp2.pdesolver import BlowupExperimentConfig
from dp2.selfsim import SystemParams, build_solution


def run_cli(*args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_emden_touchdown_run(tmp_path, capsys):
    code = run_cli(
        "emden", "--out", str(tmp_path), "--xi", "-1", "--kappa", "0.5",
        "--a0", "1", "--a1", "0",
    )
    assert code == 0
    summary = read_json(tmp_path / "emden_summary.json")
    assert summary["fate"] == "TouchdownAt"
    assert summary["S"] == pytest.approx(8.0 / 3.0, rel=1e-4)
    header, rows = read_csv_rows(tmp_path / "emden_trajectory.csv")
    assert header == "s,a,a_dot"
    assert len(rows) == len(integrate(EmdenProblem(xi=-1.0, kappa=0.5), tol=1e-10).samples)
    assert float(rows[-1][1]) < 1e-7  # touchdown level
    assert "TouchdownAt" in capsys.readouterr().out


def test_emden_linear_run(tmp_path):
    # kappa defaults to the canonical 1/2 and is irrelevant at xi = 0
    code = run_cli(
        "emden", "--out", str(tmp_path), "--xi", "0",
        "--a0", "1", "--a1", "1", "--s-max", "2",
    )
    assert code == 0
    summary = read_json(tmp_path / "emden_summary.json")
    assert summary["fate"] == "GlobalOnHorizon"
    _, rows = read_csv_rows(tmp_path / "emden_trajectory.csv")
    assert float(rows[-1][0]) == pytest.approx(2.0)
    assert float(rows[-1][1]) == pytest.approx(3.0, abs=1e-10)


def test_emden_validation_exit_names_key(tmp_path, capsys):
    code = run_cli(
        "emden", "--out", str(tmp_path), "--xi", "-1", "--kappa", "0.5", "--a0", "-1"
    )
    assert code == 2
    assert "a0" in capsys.readouterr().err


def test_selfsim_global_branch_monotone_origin_density(tmp_path):
    code = run_cli(
        "selfsim", "--out", str(tmp_path), "--k3", "1", "--xi", "1",
        "--times", "0,0.2,0.5,1.0",
    )
    assert code == 0
    summary = read_json(tmp_path / "selfsim_summary.json")
    rho0 = []
    for idx in range(4):
        _, rows = read_csv_rows(tmp_path / f"selfsim_snapshot_{idx}.csv")
        xs = np.array([float(r[0]) for r in rows])
        rho = np.array([float(r[1]) for r in rows])
        rho0.append(rho[np.argmin(np.abs(xs))])
    assert all(b < a for a, b in zip(rho0, rho0[1:]))
    assert len(summary["snapshots"]) == 4


def test_selfsim_blowup_branch_reports_collapse_time(tmp_path, capsys):
    code = run_cli(
        "selfsim", "--out", str(tmp_path), "--k3", "-1", "--xi", "-1",
        "--times", "0,0.5,0.7",  # 0.7 is past T = (8/3)/4
    )
    assert code == 2
    assert "0.666666" in capsys.readouterr().err


def test_selfsim_time_past_collapse_leaves_out_empty(tmp_path, capsys):
    # snapshots 0 and 1 used to be written before t = 0.7 was refused
    code = run_cli(
        "selfsim", "--out", str(tmp_path), "--k3", "-1", "--xi", "-1",
        "--times", "0,0.5,0.7", "--grid-n", "32",
    )
    assert code == 2
    assert "collapse time" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("grid_n", ["-1", "0"])
def test_selfsim_rejects_bad_grid_n(tmp_path, capsys, grid_n):
    # -1 ended in a numpy ValueError traceback (exit 1); 0 wrote header-only snapshots
    code = run_cli("selfsim", "--out", str(tmp_path), "--k3", "1", "--xi", "1", "--grid-n", grid_n)
    assert code == 2
    assert "grid_n" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    # sorted() left nan at the head of the pending list and state.t >= nan is never
    # true, so not even the t = 0.05 snapshot was written
    ("solve", "--n", "256", "--t-max", "0.1", "--snapshot-times", "nan,0.05"),
    ("solve", "--n", "256", "--t-max", "0.1", "--snapshot-times", "0.05,inf"),
    ("selfsim", "--k3", "1", "--xi", "1", "--times", "0,nan"),
    ("selfsim", "--k3", "1", "--xi", "1", "--times", "inf"),
], ids=["solve-nan", "solve-inf", "selfsim-nan", "selfsim-inf"])
def test_non_finite_times_rejected(tmp_path, capsys, args):
    code = run_cli(args[0], "--out", str(tmp_path), *args[1:])
    assert code == 2
    assert "times" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_selfsim_rejects_mismatched_signs(tmp_path, capsys):
    code = run_cli(
        "selfsim", "--out", str(tmp_path), "--k3", "1", "--xi", "-1", "--times", "0"
    )
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_verify_passes_on_exact_solution(tmp_path, capsys):
    code = run_cli(
        "verify", "--out", str(tmp_path), "--n-base", "128", "--levels", "3"
    )
    assert code == 0
    report = read_json(tmp_path / "verify_report.json")
    assert 1.7 <= report["order_estimate_mass"] <= 2.3
    assert 1.7 <= report["order_estimate_momentum"] <= 2.3
    assert "order_mass" in capsys.readouterr().out
    header, rows = read_csv_rows(tmp_path / "verify_residuals.csv")
    assert header == "x,R1,R2"
    assert len(rows) == 128 * 4


def test_verify_fails_when_boundary_included(tmp_path):
    code = run_cli(
        "verify", "--out", str(tmp_path), "--n-base", "128", "--levels", "3",
        "--delta-in-h", "0",
    )
    assert code == 1


def test_riccati_prints_bound(tmp_path, capsys):
    code = run_cli("riccati", "--out", str(tmp_path), "--m", "0", "--v0", "-2")
    assert code == 0
    assert "T = 0.5" in capsys.readouterr().out
    summary = read_json(tmp_path / "riccati_summary.json")
    assert summary["applies"] is True
    assert summary["T_bound"] == pytest.approx(0.5)
    header, rows = read_csv_rows(tmp_path / "riccati_trajectory.csv")
    assert header == "t,v"
    assert float(rows[-1][1]) < -1e6


def test_riccati_inconclusive(tmp_path, capsys):
    code = run_cli("riccati", "--out", str(tmp_path), "--m", "2", "--v0", "-1")
    assert code == 0
    assert "inconclusive" in capsys.readouterr().out
    assert read_json(tmp_path / "riccati_summary.json")["T_bound"] is None


def test_riccati_refuses_an_oversized_trajectory(tmp_path, capsys):
    # 5e6 RK4 rows held as tuples: several hundred MB before the CSV is written
    code = run_cli("riccati", "--out", str(tmp_path), "--M", "0", "--v0", "-2", "--dt", "1e-7")
    assert code == 2
    assert "cap" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solve_short_run(tmp_path):
    code = run_cli(
        "solve", "--out", str(tmp_path), "--n", "256", "--t-max", "0.02",
        "--snapshot-times", "0.01",
    )
    assert code == 0
    summary = read_json(tmp_path / "solve_summary.json")
    assert summary["blowup_detected"] is False
    assert summary["bound"] == pytest.approx(0.2)
    header, _ = read_csv_rows(tmp_path / "solve_diagnostics.csv")
    assert header == "t,min_ux,max_rho"
    assert (tmp_path / "solve_snapshot_0.csv").exists()


def test_solve_rejects_zero_cfl(tmp_path, capsys):
    # cfl = 0 gives dt = 0, which used to loop forever
    code = run_cli("solve", "--out", str(tmp_path), "--cfl", "0", "--n", "256")
    assert code == 2
    assert "cfl" in capsys.readouterr().err


@pytest.mark.parametrize("args,key", [
    # order < nan is false, so the verification gate never failed
    (("verify", "--n-base", "64", "--levels", "3", "--min-order", "nan"), "min_order"),
    # ended in a raw ValueError traceback from the empty interior band
    (("verify", "--n-base", "64", "--levels", "3", "--delta-in-h", "nan"), "delta_in_h"),
    # wrote "margin": NaN, which is not JSON, into solve_summary.json
    (("solve", "--n", "256", "--margin", "nan"), "margin"),
])
def test_non_finite_float_flags_rejected(tmp_path, capsys, args, key):
    code = run_cli(args[0], "--out", str(tmp_path), *args[1:])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, config, code, message", [
    (("emden",), "xi = -1\nkappa 0.5\n", 2, ":2: expected 'key = value', got 'kappa 0.5'"),
    (("emden",), "xi = -1\nkappa = abc\n", 2,
     "config key kappa: could not convert string to float: 'abc'"),
    (("emden",), "# pulled in\n\nxi = -1  # xi < 0\n\n  # indented\nkappa = 0.5\n", 0, ""),
    (("emden",), None, 2, "missing required parameter: xi"),
    (("riccati", "--v0", "-2"), None, 2, "missing required parameter: m"),
    (("selfsim", "--k3", "-1", "--xi", "-1", "--times", "0,abc"), None, 2,
     "times: could not convert string to float: 'abc'"),
    (("selfsim", "--k3", "-1", "--xi", "-1", "--times", ","), None, 2,
     "times: need at least one sample time"),
    (("selfsim", "--k3", "0", "--xi", "0"), None, 2,
     "k3 = 0 (free-profile branch) is library-only; pass k3 != 0"),
    (("sweep", "--grid", "xi"), None, 2, "grid axis must be key=start:stop:count, got 'xi'"),
    (("sweep", "--grid", "xi=-1:-0.5"), None, 2,
     "grid axis must be key=start:stop:count, got 'xi=-1:-0.5'"),
    (("sweep", "--grid", "xi=-1:-0.5:2.5"), None, 2,
     "grid axis xi: invalid literal for int() with base 10: '2.5'"),
    (("sweep", "--grid", "xi=-1:-0.5:0"), None, 2, "grid axis xi: count must be >= 1"),
    (("sweep",), None, 2, "sweep needs at least one --grid axis"),
])
def test_validation_messages(tmp_path, capsys, args, config, code, message):
    argv = [args[0], "--out", str(tmp_path / "run"), *args[1:]]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert read_json(tmp_path / "run" / "emden_summary.json")["config"]["kappa"] == 0.5
    else:
        assert err.startswith("error: ") and err.rstrip("\n").endswith(message)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_numerical_failure_exits_3(tmp_path, capsys):
    code = run_cli("solve", "--out", str(tmp_path), "--n", "64", "--slope=-1e160", "--t-max", "0.1")
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith("numerical failure:") for line in lines)


def test_numerical_failure_is_the_only_stderr_line(tmp_path):
    # a subprocess, so numpy's RuntimeWarnings would reach stderr as in a shell
    proc = subprocess.run(
        [sys.executable, "-m", "dp2.cli", "solve", "--out", str(tmp_path),
         "--n", "64", "--slope=-1e160", "--t-max", "0.1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == "numerical failure: tendency produced non-finite entries\n"


def _fmt_reference(x):
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv_reference(path, header, rows):
    """The writer one value at a time, as write_csv formatted before blocks."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt_reference(v) for v in row) + "\n")


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300,
               0.1, 1.0 / 3.0, 2.0**53 + 1.0, 1e16, 123456789.0, 2.2250738585072014e-308]


@pytest.mark.parametrize("rows", [
    [],
    [[v, -v, 2.0 * v] for v in EDGE_FLOATS],
    [(v,) for v in EDGE_FLOATS],
    [[1.0, 2, "TouchdownAt", 2.5], [-0.0, -3, "GlobalOnHorizon", ""], [math.nan, 10**20, "", math.inf]],
    [[0.5, 1.5], [0.25], [], [1.0, 2.0, 3.0]],  # ragged rows
    [[np.float64(0.1), 7.0], [np.float64(-0.0), np.float64(5e-324)]],
    [[True, 1.0], [None, "x"]],
], ids=["empty", "edge-floats", "one-column", "mixed", "ragged", "numpy-floats", "other-types"])
def test_write_csv_matches_the_per_value_writer(tmp_path, rows):
    write_csv(tmp_path / "new.csv", "a,b", iter(rows))
    write_csv_reference(tmp_path / "ref.csv", "a,b", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_blocks_match_the_per_value_writer(tmp_path, monkeypatch):
    # several blocks, one of them mixed, plus a short last block
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 64)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**63, size=(300, 3), dtype=np.uint64) | (
        rng.integers(0, 2, size=(300, 3), dtype=np.uint64) << np.uint64(63)
    )
    rows = bits.view(np.float64).tolist() + [[1.0, "", 2]] + rng.normal(size=(130, 3)).tolist()
    write_csv(tmp_path / "new.csv", "x,y,z", zip(*zip(*rows)))
    write_csv_reference(tmp_path / "ref.csv", "x,y,z", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_solve_reports_the_crossing(tmp_path, capsys):
    code = run_cli(
        "solve", "--out", str(tmp_path), "--n", "1024", "--slope", "-5",
        "--threshold", "-100", "--t-max", "0.3",
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "steepening crossed -100 at t = 0.19475520010145303 (bound 0.20000000000000001)\n"
    )


def test_non_finite_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_base = 64\nlevels = 3\nmin_order = nan\n")
    code = run_cli("verify", "--out", str(tmp_path / "run"), "--config", str(cfg))
    assert code == 2
    assert "min_order" in capsys.readouterr().err


@pytest.mark.parametrize("dt_over_h", ["0", "-0.5"])
def test_verify_rejects_non_positive_dt_over_h(tmp_path, capsys, dt_over_h):
    # dt = 0 printed numpy warnings, wrote bare NaN into verify_report.json and exited 0
    code = run_cli(
        "verify", "--out", str(tmp_path), "--n-base", "64", "--levels", "3",
        f"--dt-over-h={dt_over_h}",
    )
    assert code == 2
    assert "dt_over_h" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_verify_rejects_empty_interior_band(tmp_path, capsys):
    # np.max of the empty band raised ValueError, which exited 1 like a failed criterion
    code = run_cli(
        "verify", "--out", str(tmp_path), "--n-base", "64", "--levels", "3",
        "--delta-in-h", "1e6",
    )
    assert code == 2
    assert "no node" in capsys.readouterr().err


def test_sweep_emits_grid_rows(tmp_path, capsys):
    code = run_cli(
        "sweep", "--out", str(tmp_path),
        "--grid", "xi=-2:-0.5:4", "kappa=0.25:1:4",
    )
    assert code == 0
    header, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert len(rows) == 16
    assert all(row[6] == "TouchdownAt" for row in rows)


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    code = run_cli("sweep", "--out", str(tmp_path), "--grid", "bogus=0:1:2")
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_sweep_rejects_repeated_axis(tmp_path, capsys):
    # the second xi axis silently replaced the first and 3 rows were written
    code = run_cli("sweep", "--out", str(tmp_path), "--grid", "xi=-1:-0.5:2", "xi=-2:-1:3")
    assert code == 2
    assert "xi" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_schema_names_match_constructor_fields():
    # the CLI passes each constructor the resolved params its signature names,
    # so a renamed field would silently fall back to its default
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert fields(EmdenProblem) == set(SCHEMAS["emden"]) - {"tol"}
    assert fields(BlowupExperimentConfig) - {"rho0"} == set(SCHEMAS["solve"]) - {"snapshot_times"}
    builder = set(inspect.signature(build_solution).parameters) - {"params", "rho0"}
    solution = fields(SystemParams) | builder
    for command in ("selfsim", "verify"):
        assert solution <= set(SCHEMAS[command])


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = -1\nkappa = 0.5\nnonsense = 3\n")
    code = run_cli("emden", "--out", str(tmp_path), "--config", str(cfg))
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("xi = -1\nkappa = 0.5\na1 = 0  # comment\n")
    out = tmp_path / "run"
    code = run_cli("emden", "--out", str(out), "--config", str(cfg), "--xi", "0")
    assert code == 0
    assert read_json(out / "emden_summary.json")["fate"] == "GlobalOnHorizon"


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(
            "emden", "--out", str(out), "--seed", "7",
            "--xi", "-1", "--kappa", "0.5",
        ) == 0
    for name in ("emden_trajectory.csv", "emden_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# One cheap run per JSON-writing subcommand: (argv, JSON summary, artifacts compared).
ROUND_TRIPS = {
    "emden": (
        ("emden", "--xi", "-1.3", "--kappa", "0.7", "--a1", "0.2", "--s-max", "12"),
        "emden_summary.json", ("emden_trajectory.csv",),
    ),
    "selfsim": (
        ("selfsim", "--k3", "-1", "--xi", "-1.3", "--alpha", "0.8", "--times", "0,0.05",
         "--grid-n", "32"),
        "selfsim_summary.json",
        ("selfsim_snapshot_1.csv", "selfsim_mass.csv", "selfsim_summary.json"),
    ),
    "verify": (
        ("verify", "--n-base", "64", "--levels", "3"),
        "verify_report.json", ("verify_norms.csv", "verify_residuals.csv", "verify_report.json"),
    ),
    "riccati": (
        ("riccati", "--M", "1", "--v0", "-3", "--dt", "1e-3"),
        "riccati_summary.json", ("riccati_trajectory.csv", "riccati_summary.json"),
    ),
    "solve": (
        ("solve", "--n", "256", "--t-max", "0.02", "--snapshot-times", "0.01"),
        "solve_summary.json",
        ("solve_diagnostics.csv", "solve_snapshot_0.csv", "solve_summary.json"),
    ),
}


@pytest.mark.parametrize("command", list(ROUND_TRIPS))
def test_round_trip_config_reproduces_run(tmp_path, command):
    argv, summary, compared = ROUND_TRIPS[command]
    out1 = tmp_path / "a"
    assert run_cli(argv[0], "--out", str(out1), *argv[1:]) == 0
    echo = read_json(out1 / summary)["config"]
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(
        "".join(
            f"{k} = {v!r}\n" for k, v in echo.items() if k not in ("command", "seed")
        ).replace("'", "")
    )
    out2 = tmp_path / "b"
    assert run_cli(command, "--out", str(out2), "--config", str(cfg)) == 0
    for name in compared:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# (argv, one CSV artifact, the JSON summary) per JSON-writing subcommand.
FORMAT_RUNS = {
    "emden": (("emden", "--xi", "-1", "--kappa", "0.5"),
              "emden_trajectory.csv", "emden_summary.json"),
    "selfsim": (("selfsim", "--k3", "1", "--xi", "1", "--times", "0,0.1", "--grid-n", "16"),
                "selfsim_snapshot_0.csv", "selfsim_summary.json"),
    "verify": (("verify", "--n-base", "64", "--levels", "3"),
               "verify_norms.csv", "verify_report.json"),
    "riccati": (("riccati", "--M", "0", "--v0", "-2", "--dt", "1e-3"),
                "riccati_trajectory.csv", "riccati_summary.json"),
    "solve": (("solve", "--n", "256", "--t-max", "0.02", "--snapshot-times", "0.01"),
              "solve_snapshot_0.csv", "solve_summary.json"),
}


@pytest.mark.parametrize("command", list(FORMAT_RUNS))
def test_format_flag_selects_artifacts(tmp_path, command):
    argv, csv_name, json_name = FORMAT_RUNS[command]
    out = tmp_path / "csv_only"
    run_cli(argv[0], "--out", str(out), "--format", "csv", *argv[1:])
    assert (out / csv_name).exists()
    assert not (out / json_name).exists()
    assert not any(out.glob("*.json"))
    out = tmp_path / "json_only"
    run_cli(argv[0], "--out", str(out), "--format", "json", *argv[1:])
    assert not (out / csv_name).exists()
    assert (out / json_name).exists()
    assert not any(out.glob("*.csv"))


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dp2.cli", "riccati", "--out", str(tmp_path),
         "--m", "0", "--v0", "-2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "T = 0.5" in proc.stdout
