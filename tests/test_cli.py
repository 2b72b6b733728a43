"""CLI: dispatch, validation exit codes, determinism, round-trip."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from dp2 import cli, emden, selfsim
from dp2.cli import SCHEMAS, main, write_csv
from dp2.emden import EmdenProblem, integrate
from dp2.errors import ValidationError
from dp2.pdesolver import STEPS_MAX, BlowupExperimentConfig
from dp2.residual import convergence_study
from dp2.riccati import comparison_trajectory
from dp2.selfsim import HorizonExceeded, SystemParams, build_solution


def run_cli(*args):
    return main(list(args))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def write_config(path, command, **settings):
    """A file laid out as a dp2 JSON summary whose config echo holds ``settings``."""
    path.write_text(json.dumps({"config": {"command": command, **settings}}))
    return str(path)


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
    # the finest level's h and norms are the last entries of the study
    assert (report["grid_h"], report["mass_eq_linf"], report["momentum_eq_linf"]) == (
        report["hs"][-1], report["mass_norms"][-1], report["momentum_norms"][-1])
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
    assert set(summary) == {"M", "v0", "c", "applies", "T_bound", "config"}
    assert summary["applies"] is True
    assert summary["T_bound"] == pytest.approx(0.5)
    header, rows = read_csv_rows(tmp_path / "riccati_trajectory.csv")
    assert header == "t,v"
    assert float(rows[-1][1]) < -1e6


def test_riccati_reports_a_bound_that_the_log_ratio_cancelled(tmp_path, capsys):
    # printed "T = 0" and wrote "T_bound": 0.0
    assert run_cli("riccati", "--out", str(tmp_path), "--m", "1e-17", "--v0", "-5") == 0
    assert "T = 0.20000000000000001" in capsys.readouterr().out
    assert read_json(tmp_path / "riccati_summary.json")["T_bound"] == 0.2


def test_riccati_inconclusive(tmp_path, capsys):
    code = run_cli("riccati", "--out", str(tmp_path), "--m", "2", "--v0", "-1")
    assert code == 0
    assert "inconclusive" in capsys.readouterr().out
    assert read_json(tmp_path / "riccati_summary.json")["T_bound"] is None


def test_riccati_refuses_an_oversized_trajectory(tmp_path, capsys):
    # 5e6 RK4 rows held as tuples: several hundred MB before the CSV is written
    code = run_cli("riccati", "--out", str(tmp_path), "--m", "0", "--v0", "-2", "--dt", "1e-7")
    assert code == 2
    assert "cap" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solve_short_run(tmp_path, capsys):
    code = run_cli(
        "solve", "--out", str(tmp_path), "--n", "256", "--t-max", "0.02",
        "--snapshot-times", "0.01",
    )
    assert code == 0
    # a resolved run prints its outcome line alone
    assert capsys.readouterr().out == "no blowup detected before t_max (bound is one-sided)\n"
    summary = read_json(tmp_path / "solve_summary.json")
    assert summary["resolved_until"] is None
    assert summary["blowup_detected"] is False
    assert summary["bound"] == pytest.approx(0.2)
    header, _ = read_csv_rows(tmp_path / "solve_diagnostics.csv")
    assert header == "t,min_ux,max_rho"
    assert (tmp_path / "solve_snapshot_0.csv").exists()


def test_solve_summary_reports_grids_and_resolution(tmp_path):
    code = run_cli(
        "solve", "--out", str(tmp_path), "--n", "2048", "--t-max", "0.2",
        "--snapshot-times", "0.05",
    )
    assert code == 0
    summary = read_json(tmp_path / "solve_summary.json")
    assert [n for _, n in summary["refinements"]] == [1024, 2048]
    assert all(type(n) is int for _, n in summary["refinements"])  # not 1024.0
    assert summary["refinements"][0][0] == 0.0
    assert 0.15 < summary["resolved_until"] < 0.2
    # taken on 1024 points, written on 2048
    _, rows = read_csv_rows(tmp_path / "solve_snapshot_0.csv")
    assert len(rows) == 2048


def test_solve_lists_the_time_of_each_snapshot_file(tmp_path):
    code = run_cli(
        "solve", "--out", str(tmp_path), "--n", "256", "--t-max", "0.02",
        "--snapshot-times", "0.01,0,0.02",
    )
    assert code == 0
    times = read_json(tmp_path / "solve_summary.json")["snapshot_times"]
    _, rows = read_csv_rows(tmp_path / "solve_diagnostics.csv")
    stepped = [float(row[0]) for row in rows]
    assert times == [0.0, min(t for t in stepped if t >= 0.01), 0.02]
    assert sorted(p.name for p in tmp_path.glob("solve_snapshot_*.csv")) == [
        f"solve_snapshot_{idx}.csv" for idx in range(3)
    ]
    # the t = 0 file holds the start state: rho = 0 and the odd start bump
    _, rows = read_csv_rows(tmp_path / "solve_snapshot_0.csv")
    assert all(float(row[1]) == 0.0 for row in rows)
    assert min(float(row[2]) for row in rows) < 0.0 < max(float(row[2]) for row in rows)


@pytest.mark.parametrize("times", ["-0.01", "0.01,0.5"])
def test_solve_refuses_snapshot_times_outside_the_run(tmp_path, capsys, times):
    # -0.01 was taken from the first stepped state; 0.5 was silently dropped
    code = run_cli(
        "solve", "--out", str(tmp_path), "--n", "256", "--t-max", "0.02",
        "--snapshot-times", times,
    )
    assert code == 2
    assert "snapshot times must lie in [0, t_max=0.02]" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [("--sigma", "0.1"), ("--margin", "0.3")])
def test_solve_has_no_width_or_margin_flag(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--out", str(tmp_path), "--n", "256", *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (("emden", "--seed", "7", "--xi", "-1"), "unrecognized arguments: --seed 7"),
    (("solve", "--n", "1.5"), "argument --n: invalid int value: '1.5'"),
    (("solve", "--format", "json"), "unrecognized arguments: --format json"),
])
def test_argparse_refusals_are_one_error_line(tmp_path, capsys, args, message):
    # each printed argparse's usage block, then "dp2 <command>: error: ..."
    with pytest.raises(SystemExit) as exc:
        run_cli(args[0], "--out", str(tmp_path / "d"), *args[1:])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_every_option_is_a_setting_the_summary_echoes():
    # an option outside SCHEMAS shapes a run that replaying its summary does not
    # reproduce, as --format did: "solve --format json" wrote the summary alone
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(SCHEMAS)
    for command, subparser in subparsers.choices.items():
        options = {opt for action in subparser._actions for opt in action.option_strings}
        settings = {"--" + key.replace("_", "-") for key in SCHEMAS[command]}
        plumbing = {"-h", "--help", "--out", "--config"} | ({"--grid"} if command == "sweep" else set())
        assert options ^ (settings | plumbing) == set(), command  # the options on one side only


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["sweep", "--help"]])
def test_help_is_argparse_help(monkeypatch, capsys, argv):
    def help_text(parser):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: dp2") and err == ""
        return out

    got = help_text(cli.build_parser())
    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    assert help_text(cli.build_parser.__wrapped__()) == got


def test_solve_refuses_a_t_max_past_the_step_cap(tmp_path, capsys):
    # still stepping when a 5 s timeout killed it: t_max/dt0 is 4.04e301 steps here
    code = run_cli("solve", "--out", str(tmp_path), "--n", "64", "--t-max", "1e300")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_max=1e+300 is 4.04e+301 steps of the start dt 0.0247 on n=64")
    assert err.endswith(f", over the cap {STEPS_MAX}\n") and len(err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


def test_solve_config_key_sigma_is_unknown(tmp_path, capsys):
    # a solve_summary.json echo from before the width and margin settings went
    cfg = write_config(tmp_path / "run.json", "solve", n=256, sigma=0.0)
    code = run_cli("solve", "--out", str(tmp_path / "run"), "--config", cfg)
    assert code == 2
    assert capsys.readouterr().err == "error: unknown config key: sigma\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args, message", [
    # each exited 1, the criterion-failed code, with a numpy _ArrayMemoryError
    # traceback under a 1.5 GB address-space limit
    (("verify", "--levels", "16"),
     "--levels must be in [3, 12] at --n-base 512, got 16"),
    (("solve", "--n", "1073741824", "--t-max", "0.01"),
     "n must be a power of two in [16, 1048576], got n=1073741824"),
    (("selfsim", "--k3", "1", "--xi", "1", "--grid-n", "3000000000"),
     "grid_n must be in [2, 1048576], got 3000000000"),
    # 16 MB of (rho, u) per snapshot at n = 2**20, with nothing to limit the count
    (("solve", "--n", "1048576", "--t-max", "0.01", "--snapshot-times", ",".join(["0"] * 17)),
     "17 snapshot times on n=1048576 would keep 17825792 nodes per field, over the cap 16777216"),
    # 4 times took 5.89 s and wrote 159 MB; 1000 would have written about 40 GB
    (("selfsim", "--k3", "1", "--xi", "1", "--grid-n", "1048576", "--times", ",".join(["0"] * 17)),
     "17 snapshot times on grid_n=1048576 would write 17825792 nodes per field, over the cap 16777216"),
], ids=["verify", "solve", "selfsim", "solve-snapshots", "selfsim-snapshots"])
def test_grids_above_the_cap_are_refused_before_allocating(tmp_path, capsys, args, message):
    code = run_cli(args[0], "--out", str(tmp_path), *args[1:])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


# (command, key): tolerances and domain lengths that no run set to anything
# but the default are constants, not settings; solve's k1, k2 and k3 never
# reached a run (it starts from rho0 = 0), verify's min_order and riccati's t_max
# were set by no caller, --M was a second spelling of riccati's --m, and every
# subcommand's seed was read by no run (nothing in dp2 is random)
CONSTANT_SETTINGS = [
    ("emden", "tol"), ("selfsim", "tol"), ("verify", "tol"), ("sweep", "tol"),
    ("verify", "length"), ("solve", "length"),
    ("solve", "k1"), ("solve", "k2"), ("solve", "k3"), ("verify", "min_order"),
    ("riccati", "t_max"), ("riccati", "M"), ("emden", "seed"),
]


@pytest.mark.parametrize("command, key", CONSTANT_SETTINGS)
def test_constant_settings_have_no_flag(tmp_path, capsys, command, key):
    flag = f"--{key.replace('_', '-')}"  # spelled as cli.build_parser spells a key
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--out", str(tmp_path), flag, "1e-10")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1e-10" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, key", CONSTANT_SETTINGS)
def test_constant_settings_are_unknown_config_keys(tmp_path, capsys, command, key):
    # a summary echo written while these were settings
    cfg = write_config(tmp_path / "run.json", command, **{key: 1e-10})
    code = run_cli(command, "--out", str(tmp_path / "run"), "--config", cfg)
    assert code == 2
    assert capsys.readouterr().err == f"error: unknown config key: {key}\n"
    assert not (tmp_path / "run").exists()


def test_sweep_has_no_tol_axis(tmp_path, capsys):
    code = run_cli("sweep", "--out", str(tmp_path), "--grid", "tol=1e-10:1e-8:2")
    assert code == 2
    assert capsys.readouterr().err == "error: unknown sweep key: tol\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    # each reported "n must be a power of two in [16, 1048576], got n=...",
    # naming an n that verify has no flag for
    (("--n-base", "100"), "--n-base must be a power of two in [16, 262144], got 100"),
    (("--n-base", "2097152", "--levels", "3"),
     "--n-base must be a power of two in [16, 262144], got 2097152"),
    (("--n-base", "262144", "--levels", "4"), "--levels must be in [3, 3] at --n-base 262144, got 4"),
    (("--levels", "1000000000"), "--levels must be in [3, 12] at --n-base 512, got 1000000000"),
    # reported "need >= 3 grids, got 2"; 524288 = N_MAX/2 leaves room for two levels only
    (("--levels", "2"), "--levels must be in [3, 12] at --n-base 512, got 2"),
    (("--n-base", "524288", "--levels", "2"),
     "--n-base must be a power of two in [16, 262144], got 524288"),
])
def test_verify_names_the_flag_of_a_refused_grid(tmp_path, capsys, args, message):
    start = time.perf_counter()
    code = run_cli("verify", "--out", str(tmp_path), *args)
    assert time.perf_counter() - start < 1.0  # no 2**(levels-1) is formed
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_verify_accepts_a_finest_level_at_the_cap(monkeypatch, tmp_path):
    # 16 * 2**16 = N_MAX: the grids are built, the study is not run
    seen = []
    monkeypatch.setattr(cli.residual, "stencil_reach", lambda grids, _: seen.extend(grids) or 1.0)
    code = run_cli("verify", "--out", str(tmp_path), "--n-base", "16", "--levels", "17")
    assert code == 2  # the faked reach of 1.0 puts t - reach below 0
    assert [grid.n for grid in seen] == [16 * 2**i for i in range(17)]
    assert {(grid.length, grid.x0) for grid in seen} == {(cli.VERIFY_LENGTH, -2.048)}


@pytest.mark.parametrize("args,key", [
    # dt_over_h = nan would have reached stencil_reach, where 0 < nan < inf is false too
    (("verify", "--n-base", "64", "--levels", "3", "--dt-over-h", "nan"), "dt_over_h"),
    # ended in a raw ValueError traceback from the empty interior band
    (("verify", "--n-base", "64", "--levels", "3", "--delta-in-h", "nan"), "delta_in_h"),
    # echoed into solve_summary.json, where NaN is not JSON
    (("solve", "--n", "256", "--threshold", "nan"), "threshold"),
])
def test_non_finite_float_flags_rejected(tmp_path, capsys, args, key):
    code = run_cli(args[0], "--out", str(tmp_path), *args[1:])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


K3_ZERO_MESSAGE = ("beta = mu*k3/(4*xi) must be > 0 (xi and k3 of matching sign, mu > 0),"
                   " got k3=0.0, xi=0.0, mu=4.0")


@pytest.mark.parametrize("args, config, code, message", [
    # the flat key = value format that --config read before it read dp2's summaries
    (("emden",), "xi = -1\nkappa = 0.5\n", 2,
     ": not a dp2 summary: JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
    (("emden",), '{"config": {"command": "emden", "xi": -1, "kappa": "abc"}}', 2,
     'config key kappa: expected float, got "abc"'),
    # a summary's results beside its config are not settings
    (("emden",), '{"fate": "TouchdownAt", "S": 2.7, "config": {"command": "emden", "xi": -1,'
                 ' "kappa": 0.5}}', 0, ""),
    (("emden",), None, 2, "missing required parameter: xi"),
    (("riccati", "--v0", "-2"), None, 2, "missing required parameter: m"),
    (("selfsim", "--k3", "-1", "--xi", "-1", "--times", "0,abc"), None, 2,
     "times: could not convert string to float: 'abc'"),
    (("selfsim", "--k3", "-1", "--xi", "-1", "--times", ","), None, 2,
     "times: need at least one sample time"),
    # selfsim, verify and build_solution refuse k3 = 0 with the profile's one message
    (("selfsim", "--k3", "0", "--xi", "0"), None, 2, K3_ZERO_MESSAGE),
    (("sweep", "--grid", "xi"), None, 2, "grid axis must be key=start:stop:count, got 'xi'"),
    (("sweep", "--grid", "xi=-1:-0.5"), None, 2,
     "grid axis must be key=start:stop:count, got 'xi=-1:-0.5'"),
    (("sweep", "--grid", "xi=-1:-0.5:2.5"), None, 2,
     "grid axis xi: invalid literal for int() with base 10: '2.5'"),
    (("sweep", "--grid", "xi=-1:-0.5:0"), None, 2, "grid axis xi: count must be >= 1"),
    (("sweep",), None, 2, "sweep needs at least one --grid axis"),
    # named rho0, a parameter that no flag sets: "k3 = 0 requires an explicit rho0 shape"
    (("verify", "--k3", "0", "--xi", "0"), None, 2, K3_ZERO_MESSAGE),
])
def test_validation_messages(tmp_path, capsys, args, config, code, message):
    argv = [args[0], "--out", str(tmp_path / "run"), *args[1:]]
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv += ["--config", str(tmp_path / "run.json")]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert read_json(tmp_path / "run" / "emden_summary.json")["config"]["kappa"] == 0.5
    else:
        assert err.startswith("error: ") and err.rstrip("\n").endswith(message)
        assert not (tmp_path / "run").exists()  # a refused run makes no --out


def test_build_solution_refuses_k3_zero_with_the_command_line_message():
    with pytest.raises(ValidationError) as info:
        build_solution(SystemParams(k1=1.0, k2=1.0, k3=0.0), xi=0.0, alpha=1.0)
    assert str(info.value) == K3_ZERO_MESSAGE


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_numerical_failure_exits_3(tmp_path, capsys):
    code = run_cli("solve", "--out", str(tmp_path), "--n", "64", "--slope=-1e160", "--t-max", "0.1")
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith("numerical failure:") for line in lines)


@pytest.mark.parametrize("args", [
    ("emden", "--xi", "-1", "--kappa", "1e308"),
    ("sweep", "--grid", "kappa=0.5:1e308:2", "xi=-1:-2:2"),
])
def test_float_range_failure_of_integrate_exits_3(tmp_path, capsys, args):
    # a**kappa's ZeroDivisionError escaped as a traceback with exit 1, "criterion failed"
    code = run_cli(args[0], "--out", str(tmp_path), *args[1:])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "kappa=1e+308" in err


def test_emden_refuses_an_energy_that_left_the_float_range(tmp_path, capsys):
    # exited 0 after four numpy RuntimeWarnings and wrote "energy_drift_max": NaN
    code = run_cli("emden", "--out", str(tmp_path), "--xi=-1e308", "--a0", "1e300", "--a1=-1e300")
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: the energy of a(s) left the float range at xi=-1e+308, kappa=0.5:"
        " energy_drift_max is not finite\n"
    )
    assert not any(tmp_path.iterdir())


def test_emden_reports_the_drift_of_an_energy_whose_potential_is_near_the_float_max(tmp_path, capsys):
    # exited 3: the potential measured from a = 0, xi*a**(1-kappa)/(mu*(1-kappa)), overflowed in xi*a
    code = run_cli("emden", "--out", str(tmp_path), "--xi", "3", "--kappa", "1e-300", "--a0", "1.7e308",
                   "--a1=-1e-8", "--s-max", "1e-8")
    assert code == 0
    assert read_json(tmp_path / "emden_summary.json")["energy_drift_max"] == 4.6875000000000004e-17


def test_emden_reports_the_drift_of_an_energy_whose_a0_power_leaves_the_float_range(tmp_path, capsys):
    # exited 3, "the energy of a(s) left the float range": a0**(1-kappa) = 1e400 overflowed,
    # though V(2*a0) = -3.75e99 does not
    code = run_cli("emden", "--out", str(tmp_path), "--xi", "1e-300", "--kappa", "-1", "--a0", "1e200",
                   "--a1", "1", "--s-max", "1")
    assert code == 0
    assert capsys.readouterr() == ("fate = GlobalOnHorizon\n", "")
    assert read_json(tmp_path / "emden_summary.json")["energy_drift_max"] == 0.0


@pytest.mark.parametrize("args, code, message", [
    # exit 3 after numpy RuntimeWarnings from odd_gaussian_derivative and pocketfft
    (("solve", "--slope=-1.7e308"), 3, "numerical failure: u contains non-finite entries at t=0.0"),
    # the smallest |slope| that warned, bisected over the float's bits: an irfft in SolverState.make
    (("solve", "--slope=-1.7555597020139428e+305"), 3,
     "numerical failure: tendency produced non-finite entries"),
    # exit 1 with an OverflowError traceback at crit.c**2 (comparison_trajectory)
    (("riccati", "--m", "1e300", "--v0=-1e300"), 2,
     "error: M must be >= 0 with c**2 = 3/2*M**2 finite, got M=1e+300"),
    (("riccati", "--m", "1e300", "--v0", "1e8"), 2,
     "error: M must be >= 0 with c**2 = 3/2*M**2 finite, got M=1e+300"),
    # exit 1 with an OverflowError traceback at self.alpha**2 (Profile.eval_f, mass_eta)
    (("verify", "--alpha", "1e300"), 2,
     "error: alpha must be >= 0 with beta*alpha**2 finite, got alpha=1e+300"),
    (("selfsim", "--k3", "1", "--xi", "1", "--alpha", "1e300"), 2,
     "error: alpha must be >= 0 with beta*alpha**2 finite, got alpha=1e+300"),
    # exit 0 with "bound": Infinity in solve_summary.json, which is not JSON, and
    # "unresolved from t = 0" since v*v underflowed at the centre
    (("solve", "--slope=-1e-320", "--n", "64", "--t-max", "0.01"), 2,
     "error: slope must be finite and negative with -1/slope finite and slope**2 > 0, got slope=-1e-320"),
])
def test_inputs_past_the_float_range_exit_with_one_message(tmp_path, capsys, args, code, message):
    # the suite turns warnings into errors, so a warning on the way fails the run here
    assert run_cli(args[0], "--out", str(tmp_path), *args[1:]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not any(tmp_path.iterdir())


def test_sweep_never_reads_an_energy_that_left_the_float_range(tmp_path, capsys):
    code = run_cli("sweep", "--out", str(tmp_path), "--grid", "xi=-1e308:-1e307:2",
                   "--a0", "1e300", "--a1=-1e300")
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert [row[-2:] for row in rows] == [["TouchdownAt", "0.99999999000000073"]] * 2


def test_step_collapse_outside_the_float_range_names_the_float_range(tmp_path, capsys):
    # said "step size fell below 10 ulp(s) at s=0.0 before touchdown or s_max"
    code = run_cli("emden", "--out", str(tmp_path), "--xi", "1", "--a0", "1e308", "--a1", "1e308")
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: a(s) left the float range at xi=1.0, kappa=0.5:"
        " the step from s=0.0 fell below 10 ulp(s) on a non-finite (a, a')\n"
    )
    assert not any(tmp_path.iterdir())


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
    # float columns over several blocks and a short last one: random bit patterns
    # (nan payloads, infinities, subnormals, both zeros) and normal draws
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**63, size=(300, 3), dtype=np.uint64) | (
        rng.integers(0, 2, size=(300, 3), dtype=np.uint64) << np.uint64(63)
    )
    table = np.concatenate([bits.view(np.float64), rng.normal(size=(130, 3))])
    write_csv(tmp_path / "new.csv", "x,y,z", columns=table.T)
    write_csv_reference(tmp_path / "ref.csv", "x,y,z", table.tolist())
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("length", [1, cli.CSV_BLOCK_ROWS - 1, cli.CSV_BLOCK_ROWS,
                                    cli.CSV_BLOCK_ROWS + 1])
def test_write_csv_columns_match_the_per_value_writer(tmp_path, length):
    values = np.array([-0.0, 5e-324, 1e308, 3.0, -7.0, 2.0**53, 0.1])  # integral floats among them
    columns = (np.resize(values, length), np.resize(values[::-1], length),
               np.arange(length, dtype=float))
    write_csv(tmp_path / "new.csv", "a,b,c", columns=columns)
    write_csv_reference(tmp_path / "ref.csv", "a,b,c", zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_takes_columns_of_one_length(tmp_path):
    write_csv(tmp_path / "empty.csv", "a,b", columns=(np.empty(0), ()))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(tmp_path / "bad.csv", "a,b", columns=(np.zeros(3), np.zeros(2)))


def test_write_csv_formats_columns_in_bounded_memory(tmp_path):
    # each column became 2**17 Python floats first: 13.6 MB traced
    columns = np.random.default_rng(3).normal(size=(3, 2**17))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", "a,b,c", columns=columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_solve_reports_the_crossing(tmp_path, capsys):
    code = run_cli(
        "solve", "--out", str(tmp_path), "--n", "1024", "--slope", "-5",
        "--threshold", "-100", "--t-max", "0.3",
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "steepening crossed -100 at t = 0.19475520010145303 (bound 0.20000000000000001)\n"
        "unresolved on n = 1024 from t = 0.13447382864147939:"
        " what follows does not test the bound\n"
    )


@pytest.mark.parametrize("n,crossing,within,resolved_until", [
    # "no blowup" and a crossing past the margin, both after the grid stopped
    # resolving the run, used to read as plain outcomes
    (1024, None, None, 0.1344738286414794),
    (2048, 0.32884260969510815, False, 0.15688613341505933),
])
def test_solve_says_when_the_run_is_unresolved(tmp_path, capsys, n, crossing, within,
                                               resolved_until):
    assert run_cli("solve", "--out", str(tmp_path), "--n", str(n)) == 0
    summary = read_json(tmp_path / "solve_summary.json")
    assert summary["crossing_time"] == crossing
    assert summary["within_margin"] is within
    assert summary["resolved_until"] == resolved_until
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1] == (f"unresolved on n = {n} from t = {resolved_until:.17g}:"
                        " what follows does not test the bound")


def test_non_finite_config_value_rejected(tmp_path, capsys):
    # json writes nan as NaN, which json reads back as nan
    cfg = write_config(tmp_path / "run.json", "verify", n_base=64, levels=3, dt_over_h=math.nan)
    code = run_cli("verify", "--out", str(tmp_path / "run"), "--config", cfg)
    assert code == 2
    assert capsys.readouterr().err == "error: dt_over_h must be finite, got nan\n"


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


@pytest.mark.parametrize("args, message", [
    # once s_max was derived from t, this named s_max=-0.144, a flag verify no longer has
    (("--t", "-0.1"), "--t -0.1 is below the stencil reach dt_over_h*h = 0.064"
                      " of the coarsest level: the study would sample t < 0"),
    # named the stencil's t - dt: "t must be >= 0, got t=-0.063"
    (("--t", "0.001"), "--t 0.001 is below the stencil reach dt_over_h*h = 0.064"
                       " of the coarsest level: the study would sample t < 0"),
    # named the stencil's t + dt: "t=0.704 is at or past the collapse time"
    (("--t", "0.64", "--xi", "-1", "--k3", "-1"),
     "--t 0.64 plus the stencil reach 0.064 is at or past the collapse time"
     " T=0.6666666641679078"),
])
def test_verify_rejects_a_t_whose_stencil_leaves_the_solution(tmp_path, capsys, args, message):
    code = run_cli("verify", "--out", str(tmp_path), "--n-base", "64", "--levels", "3", *args)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())
    if "T=" in message:  # the printed T is the oracle's S/4 (8/3 for kappa = 1/2), to 1e-8
        s_oracle = emden.touchdown_time_quadrature(EmdenProblem(xi=-1.0, kappa=0.5))
        assert float(message.rsplit("T=", 1)[1]) == pytest.approx(s_oracle / 4.0, rel=1e-8)


@pytest.mark.parametrize("args, message", [
    (("--t", "1e308"), "--t 1e+308 plus the stencil reach 0.008"),
    (("--t", "5e307", "--n-base", "64", "--levels", "3"), "--t 5e+307 plus the stencil reach 0.064"),
])
def test_verify_refuses_a_t_whose_last_sample_leaves_the_float_range(tmp_path, capsys, args,
                                                                       message):
    # named "s_max must be positive and finite, got s_max=inf", a setting verify has no flag for
    code = run_cli("verify", "--out", str(tmp_path), *args)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {message} puts the study's last sample s = 4*(t + reach) past the float range\n"
    )
    assert not any(tmp_path.iterdir())


def test_verify_at_a_t_whose_error_estimates_underflow_runs_to_the_end(tmp_path, capsys):
    # integrate's error norm divided by zero once e5 read 0 and 0.01*e3 underflowed, and verify
    # exited 3 with "a(s) left the float range ...: float division by zero" at a(s) = 2.6e222
    code = run_cli("verify", "--out", str(tmp_path), "--t", "4e307", "--n-base", "64",
                   "--levels", "3")
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "order_mass = NotApplicable, order_momentum = NotApplicable\n"
    assert err == "verification failed: order below 1.7\n"


def _record_verify_builds(monkeypatch):
    """Record every solution cmd_verify builds, and every integrate call."""
    built, integrated = [], []

    def recording_build(*args, **kwargs):
        built.append(build_solution(*args, **kwargs))
        return built[-1]

    def recording_integrate(*args, **kwargs):
        integrated.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli, "build_solution", recording_build)
    monkeypatch.setattr(selfsim, "integrate", recording_integrate)
    return built, integrated


def _seeded_verify_cases(count, seed=17):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        sign = 1.0 if i % 2 == 0 else -1.0
        cases.append({
            "k1": rng.uniform(0.5, 1.5), "k2": rng.uniform(0.75, 1.25),
            "k3": sign * rng.uniform(0.5, 1.5), "xi": sign * rng.uniform(0.5, 1.5),
            "mu": 4.0, "alpha": rng.uniform(0.5, 1.0), "t": rng.uniform(0.02, 0.15),
            "dt_over_h": rng.uniform(0.25, 1.0),
        })
    return cases


# the residual lab's shape lattice (k3, xi, mu), at its alpha = 0.5, t = 0.1 and grids
VERIFY_LATTICE = [
    {"k1": 1.0, "k2": 1.0, "k3": k3, "xi": xi, "mu": mu, "alpha": 0.5, "t": 0.1,
     "dt_over_h": 1.0}
    for k3, xi, mu in [(1.0, 1.0, 4.0), (1.0, 2.0, 4.0), (1.0, 0.5, 4.0), (-1.0, -3.0, 4.0),
                       (2.0, 0.3, 4.0), (1.0, 1.0, 1.0), (-1.0, -1.0, 1.0)]
]


@pytest.mark.parametrize("case", VERIFY_LATTICE + _seeded_verify_cases(4),
                         ids=lambda case: ",".join(f"{k}={v:.3g}" for k, v in case.items()))
def test_verify_integrates_up_to_its_last_stencil_time(tmp_path, monkeypatch, case):
    built, integrated = _record_verify_builds(monkeypatch)
    flags = [f"--{key.replace('_', '-')}={value!r}" for key, value in case.items()]
    assert run_cli("verify", "--out", str(tmp_path), "--n-base", "512", "--levels", "4",
                   *flags) == 0
    (sol,), (_,) = built, integrated  # one solution, one integration
    latest = case["t"] + case["dt_over_h"] * (4.096 / 512)  # the study's latest sample
    assert sol.traj.s_end == 4.0 * latest
    assert sol.traj.problem.s_max == 4.0 * latest
    sol.evaluate(latest, 0.0)  # the latest sample is inside the horizon...
    with pytest.raises(HorizonExceeded):  # ...which ends there
        sol.evaluate(np.nextafter(latest, np.inf), 0.0)


def test_one_process_writes_what_separate_runs_write(tmp_path):
    # the parser is built once per process, so nothing of one run may reach the next
    sweep = ("sweep", "--grid", "xi=-2:-0.5:3", "kappa=0.25:1:2")
    verify = ("verify", "--n-base", "64", "--levels", "3", "--k3", "-1", "--xi", "-2")
    names = {sweep: ("sweep.csv",),
             verify: ("verify_norms.csv", "verify_residuals.csv", "verify_report.json")}

    def artifacts(out, argv):
        return [(out / name).read_bytes() for name in names[argv]]

    together = []
    for k, argv in enumerate((sweep, verify, sweep)):
        assert run_cli(argv[0], "--out", str(tmp_path / f"together{k}"), *argv[1:]) == 0
        together.append(artifacts(tmp_path / f"together{k}", argv))
    alone = {}
    for argv in (sweep, verify):
        out = tmp_path / f"alone_{argv[0]}"
        proc = subprocess.run([sys.executable, "-m", "dp2.cli", argv[0], "--out", str(out),
                               *argv[1:]], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        alone[argv] = artifacts(out, argv)
    assert together == [alone[sweep], alone[verify], alone[sweep]]


def test_a_handler_rebound_after_the_first_run_is_the_one_dispatched(tmp_path, monkeypatch):
    assert run_cli("verify", "--out", str(tmp_path / "a"), "--n-base", "64", "--levels", "3") == 0
    assert cli.build_parser() is cli.build_parser()  # built once per process
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda run: seen.append(run.params["t"]) or 7)
    assert run_cli("verify", "--out", str(tmp_path / "b"), "--t", "0.05") == 7
    assert seen == [0.05]


def test_sweep_emits_grid_rows(tmp_path, capsys):
    code = run_cli(
        "sweep", "--out", str(tmp_path),
        "--grid", "xi=-2:-0.5:4", "kappa=0.25:1:4",
    )
    assert code == 0
    header, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert len(rows) == 16
    assert all(row[6] == "TouchdownAt" for row in rows)


# Both signs of xi and a1, kappa < 1 and kappa = 1, touchdown and global cells;
# tests/test_emden.py's PIN_LATTICE runs the same cells through integrate.
SWEEP_PIN_GRID = ("xi=-1:1:4", "kappa=0.5:1:2", "a1=-1.5:1.5:3")
# sha256 of its sweep.csv, recorded before integrate's step inlined the force law
SWEEP_PIN_SHA256 = "041834c2bb47fae130f076b5002a42a05964ad87bf18c9806a520a7991bfabec"


def _pinned_sweep(out):
    assert run_cli("sweep", "--out", str(out), "--grid", *SWEEP_PIN_GRID) == 0
    return (out / "sweep.csv").read_bytes()


# sha256 of each float CSV of the ROUND_TRIPS runs, recorded before write_csv took
# columns as arrays
CSV_PIN_SHA256 = {
    "emden_trajectory.csv": "38454cc9711e014a4c6af4534da95479b4366bce467fc62f5a5b0c435478304d",
    "selfsim_snapshot_1.csv": "5cf256230315b863e1d5566fe686f2d8218e283f827217bb4b23e347e0f2ad29",
    "selfsim_mass.csv": "aa4bd350ca073406f743289a9cfd2dd2bccc2898e0c1f55e7acfb58ea86ced9a",
    "verify_norms.csv": "5c560f8e97448f266205d7679caf0b7b93c2bc0ebd36a92b251b02c52b84e3b4",
    "verify_residuals.csv": "b5b6f03bfd9314db9e555e11f7273f4c4dac79336fc32710a36aca983923d2c5",
    "riccati_trajectory.csv": "7d0f4c7e7d22cacb78dabe3d2ddbc76912a2b3a6fb63716bd6a60d058ca54c1f",
    "solve_diagnostics.csv": "8a95b187e6953972cc1e42cdc7acbe78d3e976f908d0ac76e512a4d1a652e550",
    "solve_snapshot_0.csv": "7d287f6e80d18bab559190a1611bed91d4f3ba3a7ba8a07d67247819f6ce2f56",
}


@pytest.mark.parametrize("command", ["emden", "selfsim", "verify", "riccati", "solve"])
def test_float_csvs_are_pinned_bit_for_bit(tmp_path, capsys, command):
    argv, _, compared = ROUND_TRIPS[command]
    assert run_cli(argv[0], "--out", str(tmp_path), *argv[1:]) == 0
    for name in compared:
        if name.endswith(".csv"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == CSV_PIN_SHA256[name], name


def test_sweep_csv_is_pinned_bit_for_bit(tmp_path, capsys):
    csv = _pinned_sweep(tmp_path)
    fates = {line.split(b",")[-2] for line in csv.splitlines()[1:]}
    assert fates == {b"TouchdownAt", b"GlobalOnHorizon"}
    assert hashlib.sha256(csv).hexdigest() == SWEEP_PIN_SHA256


def _no_energy(self, a, a_dot):
    raise AssertionError("the energy was computed")


def test_sweep_computes_no_energy(tmp_path, capsys, monkeypatch):
    # every cell computed its trajectory's energy drift, which the sweep never reads
    monkeypatch.setattr(EmdenProblem, "energy", _no_energy)
    assert hashlib.sha256(_pinned_sweep(tmp_path)).hexdigest() == SWEEP_PIN_SHA256


def test_emden_reports_the_energy_drift(tmp_path, capsys):
    # recorded before the drift was computed on first read, and re-recorded (from
    # 1.3166601142700074e-10) when the potential came to be measured from a0
    assert run_cli("emden", "--out", str(tmp_path), "--xi", "-1", "--a1", "0.3") == 0
    assert read_json(tmp_path / "emden_summary.json")["energy_drift_max"] == 1.316661085715154e-10


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


@pytest.mark.parametrize("axis", ["xi=-1:nan:3", "xi=-1:inf:3", "a1=-1.7e308:1.7e308:3"])
def test_sweep_refuses_a_non_finite_axis_before_any_cell(tmp_path, capsys, monkeypatch, axis):
    # nan ran the first cell before exiting 2; inf, and a span past the float
    # range, made np.linspace warn
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(emden, "integrate", no_cell)
    assert run_cli("sweep", "--out", str(tmp_path), "--grid", axis) == 2
    key = axis.split("=")[0]
    assert capsys.readouterr().err == (
        f"error: grid axis {key}: start, stop and stop - start must be finite\n"
    )
    assert not any(tmp_path.iterdir())


def test_sweep_makes_one_integrate_call_per_cell_and_no_oracle_call(tmp_path, monkeypatch):
    # a benchmark that traces the sweep counts these calls per cell
    calls = {"integrate": [], "quadrature": 0}
    real, real_quadrature = emden.integrate, emden.touchdown_time_quadrature

    def recording_integrate(*args, **kwargs):
        calls["integrate"].append(kwargs)
        return real(*args, **kwargs)

    def counting_quadrature(problem):
        calls["quadrature"] += 1
        return real_quadrature(problem)

    monkeypatch.setattr(emden, "integrate", recording_integrate)
    monkeypatch.setattr(emden, "touchdown_time_quadrature", counting_quadrature)
    argv = ("--grid", "xi=-1.5:1:3", "kappa=0.5:1:2", "a1=-1:0.5:2")
    assert run_cli("sweep", "--out", str(tmp_path), *argv) == 0
    header, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert len(rows) == len(calls["integrate"]) == 12 and calls["quadrature"] == 0
    assert calls["integrate"] == [{"tol": cli.SWEEP_TOL}] * 12
    names = header.split(",")[:6]
    for row in rows:
        problem = EmdenProblem(**dict(zip(names, map(float, row[:6]))))
        traj = real(problem, tol=cli.SWEEP_TOL)
        assert row[6] == traj.fate.value
        assert (float(row[7]) if row[7] else None) == traj.touchdown_s


@pytest.mark.parametrize("grid, cells", [
    (("xi=-1:-0.1:65537",), 65537),
    (("xi=-2:-0.2:256", "kappa=0.2:1:257"), 65792),
    (("xi=-1:-0.1:1000000000000",), 10**12),
])
def test_sweep_refuses_a_lattice_above_the_cell_cap(tmp_path, monkeypatch, capsys, grid, cells):
    # a 10**9 count allocated 8 GB of axis values before the first cell ran
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused lattice must build nothing")

    monkeypatch.setattr(emden, "integrate", unreachable)
    monkeypatch.setattr(np, "linspace", unreachable)
    assert run_cli("sweep", "--out", str(tmp_path), "--grid", *grid) == 2
    assert capsys.readouterr().err == f"error: sweep lattice has {cells} cells, more than 65536\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_cell_cap_is_inclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SWEEP_CELLS_MAX", 4)
    assert run_cli("sweep", "--out", str(tmp_path), "--grid", "xi=-2:-1:2", "kappa=0.5:1:2") == 0
    assert len(read_csv_rows(tmp_path / "sweep.csv")[1]) == 4
    assert run_cli("sweep", "--out", str(tmp_path / "b"), "--grid", "xi=-2:-1:5") == 2
    assert capsys.readouterr().err == "error: sweep lattice has 5 cells, more than 4\n"


def test_schema_names_match_constructor_fields():
    # the CLI calls each constructor by name with its schema's keys, so a renamed
    # field fails at the call; this pins the names and defaults the two share
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert fields(EmdenProblem) == set(SCHEMAS["emden"])
    # solve starts every run from rho0 = 0, which never reads the coupling constants
    coupling = {"rho0", "k1", "k2", "k3"}
    assert fields(BlowupExperimentConfig) - coupling == set(SCHEMAS["solve"]) - {"snapshot_times"}
    # tol is library-only: every CLI run integrates to the library's default
    builder = set(inspect.signature(build_solution).parameters) - {"params", "rho0", "tol"}
    solution = fields(SystemParams) | builder
    assert solution <= set(SCHEMAS["selfsim"])
    # verify derives s_max from t and its stencil, so it has no s_max setting
    assert solution - {"s_max"} <= set(SCHEMAS["verify"])
    assert "s_max" not in SCHEMAS["verify"]

    # a default is stated in the schema and in the constructor, so they must agree
    def defaults(build):
        params = inspect.signature(build).parameters.values()
        return {p.name: p.default for p in params if p.default is not p.empty}

    feeds = [
        ("emden", EmdenProblem), ("emden", integrate), ("sweep", EmdenProblem),
        ("sweep", integrate), ("solve", BlowupExperimentConfig), ("selfsim", build_solution),
        ("verify", build_solution), ("verify", convergence_study),
        ("riccati", comparison_trajectory),
    ]
    # the sweep's own horizon; the single-run commands share the library's
    exempt = {("sweep", "s_max"): 20.0}
    shared = 0
    for command, build in feeds:
        for key, default in defaults(build).items():
            if key not in SCHEMAS[command]:
                continue
            schema_default = SCHEMAS[command][key][1]
            assert schema_default == exempt.get((command, key), default), (command, key)
            shared += 1
    assert shared == 21  # every shared default was compared, none skipped by a rename


# One cheap run per command, and for each schema key a value other than that run's.
SETTING_BASES = {
    "emden": ("--xi", "-1"),
    "selfsim": ("--k3", "1", "--xi", "1", "--times", "0,0.1", "--grid-n", "16"),
    "verify": ("--n-base", "64", "--levels", "3"),
    "riccati": ("--m", "1", "--v0", "-3", "--dt", "1e-3"),
    "solve": ("--n", "64", "--t-max", "0.01"),
    "sweep": ("--grid", "xi=-1:-1:1"),
}
SETTING_CHANGES = {
    ("emden", "xi"): "-2", ("emden", "kappa"): "0.7", ("emden", "mu"): "1",
    ("emden", "a0"): "2", ("emden", "a1"): "0.5", ("emden", "s_max"): "1",
    ("selfsim", "k1"): "1.5", ("selfsim", "k2"): "0.5", ("selfsim", "k3"): "2",
    ("selfsim", "xi"): "2", ("selfsim", "alpha"): "0.5", ("selfsim", "a0"): "2",
    ("selfsim", "a1"): "0.5", ("selfsim", "mu"): "1",
    ("selfsim", "s_max"): "0.2",  # bounds --times: t = 0.1 is s = 0.4
    ("selfsim", "times"): "0,0.05", ("selfsim", "grid_n"): "32",
    ("verify", "k1"): "1.5", ("verify", "k2"): "0.5", ("verify", "k3"): "2",
    ("verify", "xi"): "2", ("verify", "alpha"): "0.5", ("verify", "a0"): "2",
    ("verify", "a1"): "0.5", ("verify", "mu"): "1", ("verify", "t"): "0.2",
    ("verify", "n_base"): "128", ("verify", "levels"): "4", ("verify", "dt_over_h"): "0.5",
    ("verify", "delta_in_h"): "3",
    ("riccati", "m"): "0.5", ("riccati", "v0"): "-4", ("riccati", "dt"): "2e-3",
    ("solve", "n"): "128", ("solve", "slope"): "-4", ("solve", "threshold"): "-1",
    ("solve", "t_max"): "0.02", ("solve", "snapshot_times"): "0.005",
    ("sweep", "xi"): "-2", ("sweep", "kappa"): "0.7", ("sweep", "mu"): "1",
    ("sweep", "a0"): "2", ("sweep", "a1"): "0.5", ("sweep", "s_max"): "1",
}


def test_every_setting_has_a_probe():
    assert set(SETTING_CHANGES) == {(command, key) for command in SCHEMAS for key in SCHEMAS[command]}


def _setting_outcome(out, argv):
    """The exit code and every artefact, JSON summaries without their config echo;
    a run refused before its first artefact makes no --out directory."""
    code = run_cli(argv[0], "--out", str(out), *argv[1:])
    artefacts = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        if path.suffix == ".json":
            summary = read_json(path)
            summary.pop("config")
            artefacts[path.name] = summary
        else:
            artefacts[path.name] = path.read_bytes()
    return code, artefacts


@pytest.mark.parametrize("command, key", list(SETTING_CHANGES),
                         ids=[f"{command}-{key}" for command, key in SETTING_CHANGES])
def test_every_setting_reaches_its_run(tmp_path, capsys, command, key):
    # a setting whose change leaves every artefact and the exit code alone is dead
    base = SETTING_BASES[command]
    if command == "sweep" and key == "xi":  # a --grid axis overrides its key's flag
        base = ("--grid", "kappa=0.5:0.5:1")
    flag = f"--{key.replace('_', '-')}={SETTING_CHANGES[command, key]}"
    before = _setting_outcome(tmp_path / "base", (command, *base))
    after = _setting_outcome(tmp_path / "changed", (command, *base, flag))
    assert before[0] == 0
    assert after != before, f"{command} {flag} changed no artefact and not the exit code"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", "emden", xi=-1.0, kappa=0.5, nonsense=3)
    code = run_cli("emden", "--out", str(tmp_path), "--config", cfg)
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = write_config(tmp_path / "run.json", "emden", xi=-1.0, kappa=0.5, a1=0.0)
    out = tmp_path / "run"
    code = run_cli("emden", "--out", str(out), "--config", cfg, "--xi", "0")
    assert code == 0
    summary = read_json(out / "emden_summary.json")
    assert summary["fate"] == "GlobalOnHorizon"
    assert summary["config"]["xi"] == 0.0


def test_config_of_another_command_is_refused(tmp_path, capsys):
    assert run_cli("emden", "--out", str(tmp_path / "a"), "--xi", "-1") == 0
    summary = tmp_path / "a" / "emden_summary.json"
    code = run_cli("verify", "--out", str(tmp_path / "b"), "--config", str(summary))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --config {summary} holds a config of 'emden', not of 'verify'\n")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("command, settings, message", [
    # float() of an int past the float range raises OverflowError
    ("emden", {"xi": 10**400}, "config key xi: int too large to convert to float"),
    ("solve", {"n": 256.5}, "config key n: expected int, got 256.5"),
    ("selfsim", {"k3": 1, "xi": 1, "times": 0.1}, "config key times: expected str, got 0.1"),
    ("selfsim", {"k3": 1, "xi": 1, "grid_n": "16"}, 'config key grid_n: expected int, got "16"'),
    ("riccati", {"m": None, "v0": -2}, "config key m: expected float, got null"),
], ids=["huge-int-float", "float-int", "number-str", "str-int", "null-float"])
def test_config_values_of_another_type_are_refused(tmp_path, capsys, command, settings, message):
    cfg = write_config(tmp_path / "run.json", command, **settings)
    assert run_cli(command, "--out", str(tmp_path / "run"), "--config", cfg) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key", [(command, key) for command in SCHEMAS
                                          for key in SCHEMAS[command]])
def test_config_takes_no_bool(tmp_path, capsys, command, key):
    # a JSON true loads as a Python bool, which is an int: float(True) would read 1.0
    cfg = write_config(tmp_path / "run.json", command, **{key: True})
    assert run_cli(command, "--out", str(tmp_path / "run"), "--config", cfg) == 2
    typ = SCHEMAS[command][key][0].__name__
    assert capsys.readouterr().err == f"error: config key {key}: expected {typ}, got true\n"


def test_config_takes_an_int_for_a_float(tmp_path):
    cfg = write_config(tmp_path / "run.json", "emden", xi=-1, a0=2)
    assert run_cli("emden", "--out", str(tmp_path / "a"), "--config", cfg) == 0
    assert run_cli("emden", "--out", str(tmp_path / "b"), "--xi", "-1", "--a0", "2") == 0
    for name in ("emden_trajectory.csv", "emden_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Each exited 1, the criterion-failed code, with a traceback.
@pytest.mark.parametrize("argv, message", [
    (("--config", "{tmp}/nope.cfg"),
     "--config {tmp}/nope.cfg: not a dp2 summary: FileNotFoundError: [Errno 2]"
     " No such file or directory: '{tmp}/nope.cfg'"),
    (("--config", "{tmp}"),
     "--config {tmp}: not a dp2 summary: IsADirectoryError: [Errno 21]"
     " Is a directory: '{tmp}'"),
    (("--config", "{tmp}/bom.json"),
     "--config {tmp}/bom.json: not a dp2 summary: UnicodeDecodeError: 'utf-8'"
     " codec can't decode byte 0xff in position 0: invalid start byte"),
    (("--config", "{tmp}/deep.json"),
     "--config {tmp}/deep.json: not a dp2 summary: RecursionError: maximum recursion depth"
     " exceeded while decoding a JSON array from a unicode string"),
    (("--xi", "-1", "--out", "{tmp}/afile"), "--out {tmp}/afile: [Errno 17] File exists: '{tmp}/afile'"),
    (("--xi", "-1", "--out", "{tmp}/afile/sub"),
     "--out {tmp}/afile/sub: [Errno 20] Not a directory: '{tmp}/afile/sub'"),
], ids=["config-missing", "config-directory", "config-not-utf8", "config-nested-too-deep",
        "out-a-file", "out-under-a-file"])
def test_an_unreadable_config_or_unusable_out_exits_2(tmp_path, capsys, argv, message):
    (tmp_path / "afile").write_text("")
    (tmp_path / "bom.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "deep.json").write_text('{"config": ' + "[" * 10**5 + "]" * 10**5 + "}")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_cli("emden", "--out", str(tmp_path / "run"), *argv) == 2
    assert capsys.readouterr().err == "error: " + message.format(tmp=tmp_path) + "\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "bom.json", "deep.json"]


def test_a_refused_setting_wins_over_an_unusable_out(tmp_path, capsys):
    # --out is made at the run's first artefact, after its settings are checked
    (tmp_path / "afile").write_text("")
    assert run_cli("emden", "--out", str(tmp_path / "afile"), "--xi", "-1", "--s-max", "0") == 2
    assert capsys.readouterr().err == "error: s_max must be positive and finite, got s_max=0.0\n"


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(
            "emden", "--out", str(out),
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
        ("riccati", "--m", "1", "--v0", "-3", "--dt", "1e-3"),
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
    argv, summary, _ = ROUND_TRIPS[command]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(argv[0], "--out", str(out1), *argv[1:]) == 0
    # the echo holds the command and every setting, and nothing else
    assert set(read_json(out1 / summary)["config"]) == {"command", *SCHEMAS[command]}
    # the summary, as written, is the config
    assert run_cli(command, "--out", str(out2), "--config", str(out1 / summary)) == 0
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dp2.cli", "riccati", "--out", str(tmp_path),
         "--m", "0", "--v0", "-2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "T = 0.5" in proc.stdout
