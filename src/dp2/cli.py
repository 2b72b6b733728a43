"""Command-line entry point.

Subcommands: emden, selfsim, verify, riccati, solve, sweep.  Each run
resolves its parameters from defaults, then an optional flat key=value
config file, then command-line flags (flags win), validates them
against the owning module's preconditions, and emits CSV/JSON
artifacts into --out.  Reals are written with 17 significant digits
('.' decimal separator, no locale) so outputs are byte-identical across
repeated runs and round-trip safely; every JSON summary embeds the
resolved config, which can be fed back via --config to reproduce the
run.

Exit codes: 0 success, 1 verification criterion failed, 2 validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import emden, pdesolver, residual, riccati
from .errors import NumericalError, ValidationError
from .grid import Grid1D
from .selfsim import SystemParams, build_solution

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_signature = functools.cache(inspect.signature)  # uncached it costs ~30 us per sweep cell

CSV_BLOCK_ROWS = 4096  # rows formatted per write; bounds the template and its text


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, header: str, rows) -> None:
    """Rows a block at a time: one ``%`` on a repeated "%.17g,...\\n" template when
    every value of the block is a float and every row has the same width, else ``_fmt``
    per value; the bytes are the same either way."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
            values = tuple(itertools.chain.from_iterable(block))
            widths = set(map(len, block))
            if len(widths) == 1 and set(map(type, values)) == {float}:
                line = ",".join(["%.17g"] * widths.pop()) + "\n"
                fh.write(line * len(block) % values)
            else:
                fh.writelines(",".join(map(_fmt, row)) + "\n" for row in block)


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Parameter schemas and config resolution.
# ---------------------------------------------------------------------------

SCHEMAS = {
    "emden": {
        "xi": (float, None),
        "kappa": (float, 0.5),
        "mu": (float, 4.0),
        "a0": (float, 1.0),
        "a1": (float, 0.0),
        "s_max": (float, 10.0),
        "tol": (float, 1e-10),
    },
    "selfsim": {
        "k1": (float, 1.0),
        "k2": (float, 1.0),
        "k3": (float, None),
        "xi": (float, None),
        "alpha": (float, 1.0),
        "a0": (float, 1.0),
        "a1": (float, 0.0),
        "mu": (float, 4.0),
        "s_max": (float, 10.0),
        "tol": (float, 1e-10),
        "times": (str, "0,0.1,0.2"),
        "grid_n": (int, 256),
    },
    "verify": {
        "k1": (float, 1.0),
        "k2": (float, 1.0),
        "k3": (float, 1.0),
        "xi": (float, 1.0),
        "alpha": (float, 1.0),
        "a0": (float, 1.0),
        "a1": (float, 0.0),
        "mu": (float, 4.0),
        "tol": (float, 1e-10),
        "t": (float, 0.1),
        "s_max": (float, 10.0),
        "n_base": (int, 512),
        "levels": (int, 4),
        "length": (float, 4.096),
        "dt_over_h": (float, 1.0),
        "delta_in_h": (float, 5.0),
        "min_order": (float, 1.7),
    },
    "riccati": {
        "m": (float, None),
        "v0": (float, None),
        "dt": (float, 1e-4),
        "t_max": (float, 10.0),
    },
    "solve": {
        "n": (int, 2048),
        "length": (float, 2.0 * math.pi),
        "k1": (float, 1.0),
        "k2": (float, 1.0),
        "k3": (float, 1.0),
        "slope": (float, -5.0),
        "sigma": (float, 0.0),
        "cfl": (float, 0.3),
        "threshold": (float, -1e3),
        "t_max": (float, 0.5),
        "m_est": (float, 0.0),
        "margin": (float, 0.2),
        "snapshot_times": (str, ""),
    },
    "sweep": {
        "xi": (float, -1.0),
        "kappa": (float, 0.5),
        "mu": (float, 4.0),
        "a0": (float, 1.0),
        "a1": (float, 0.0),
        "s_max": (float, 20.0),
        "tol": (float, 1e-8),
    },
}


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _resolve_params(command: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, rejecting unknown config keys."""
    schema = SCHEMAS[command]
    resolved = {key: default for key, (_, default) in schema.items()}

    if args.config:
        for key, raw in _load_config_file(args.config).items():
            if key not in schema:
                raise ValidationError(f"unknown config key: {key}")
            typ = schema[key][0]
            try:
                resolved[key] = typ(raw)
            except ValueError as exc:
                raise ValidationError(f"config key {key}: {exc}") from exc

    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value

    for key, value in resolved.items():
        if value is None:
            raise ValidationError(f"missing required parameter: {key}")
        # nan slips past every ordered comparison (order < nan is false)
        if schema[key][0] is float and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value}")
    return resolved


class Run:
    """One subcommand run: its resolved params and its output directory.

    Artifacts go through :meth:`csv` and :meth:`json`, which honour --format; every
    JSON summary gets the config echo (command, seed, params) that --config can replay.
    """

    def __init__(self, args: argparse.Namespace, params: dict, out: Path):
        self.args, self.params, self.out = args, params, out

    def wants(self, kind: str) -> bool:
        return self.args.format in (None, kind)

    def csv(self, name: str, header: str, rows) -> None:
        if self.wants("csv"):
            write_csv(self.out / name, header, rows)

    def json(self, name: str, summary: dict) -> None:
        if self.wants("json"):
            echo = {"command": self.args.command, "seed": self.args.seed, **self.params}
            write_json(self.out / name, {**summary, "config": echo})


def _make(build, resolved: dict, /, **extra):
    """Call ``build`` with the resolved params its signature names, plus ``extra``."""
    names = _signature(build).parameters
    return build(**{key: value for key, value in resolved.items() if key in names}, **extra)


def _solution(params: dict):
    return _make(build_solution, params, params=_make(SystemParams, params))


def _parse_times(raw: str) -> list[float]:
    try:
        times = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"times: {exc}") from exc
    if not all(math.isfinite(t) for t in times):
        raise ValidationError(f"times must be finite, got {raw!r}")
    return times


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_emden(run: Run) -> int:
    traj = emden.integrate(_make(emden.EmdenProblem, run.params), tol=run.params["tol"])
    run.csv("emden_trajectory.csv", "s,a,a_dot", traj.samples.tolist())
    run.json("emden_summary.json", traj.summary())
    print(f"fate = {traj.fate.value}" + (f", S = {_fmt(traj.touchdown_s)}" if traj.touchdown_s else ""))
    return EXIT_OK


def cmd_selfsim(run: Run) -> int:
    params = run.params
    times = _parse_times(params["times"])
    if not times:
        raise ValidationError("times: need at least one sample time")
    if params["grid_n"] < 2:
        raise ValidationError(f"grid_n must be >= 2, got {params['grid_n']}")
    if params["k3"] == 0.0:
        raise ValidationError("k3 = 0 (free-profile branch) is library-only; pass k3 != 0")
    sol = _solution(params)
    metadata = [sol.snapshot_metadata(t) for t in times]  # validates every t before a write
    for idx, meta in enumerate(metadata):
        if run.wants("csv"):
            width = 1.2 * meta["support_halfwidth"]
            xs = np.linspace(-width, width, params["grid_n"])
            rho, u = sol.evaluate(meta["t"], xs)
            run.csv(f"selfsim_snapshot_{idx}.csv", "x,rho,u",
                    zip(xs.tolist(), rho.tolist(), u.tolist()))
    run.csv("selfsim_mass.csv", "t,mass", [(meta["t"], meta["mass"]) for meta in metadata])
    run.json("selfsim_summary.json", {"snapshots": metadata})
    return EXIT_OK


def cmd_verify(run: Run) -> int:
    params = run.params
    sol = _solution(params)
    grids = [
        Grid1D(n=params["n_base"] * 2**i, length=params["length"], x0=-0.5 * params["length"])
        for i in range(params["levels"])
    ]
    report = residual.convergence_study(
        sol.evaluate,
        sol.params,
        params["t"],
        grids,
        dt_over_h=params["dt_over_h"],
        delta_in_h=params["delta_in_h"],
    )
    run.csv("verify_norms.csv", "h,mass_eq_linf,momentum_eq_linf",
            zip(report.hs, report.mass_norms, report.momentum_norms))
    run.csv("verify_residuals.csv", "x,R1,R2",
            zip(*(column.tolist() for column in report.finest_residuals)))
    run.json("verify_report.json", report.summary())
    orders = (report.order_estimate_mass, report.order_estimate_momentum)
    mass, momentum = (_fmt(order) if order is not None else "NotApplicable" for order in orders)
    print(f"order_mass = {mass}, order_momentum = {momentum}")
    for order in orders:
        if order is None or order < params["min_order"]:
            print(f"verification failed: order below {params['min_order']}", file=sys.stderr)
            return EXIT_CRITERION
    return EXIT_OK


def cmd_riccati(run: Run) -> int:
    params = run.params
    crit = riccati.BlowupCriterion(M=params["m"], v0=params["v0"])
    result = riccati.check(crit)
    if run.wants("csv"):  # first, so a refused trajectory leaves no summary behind
        traj = riccati.comparison_trajectory(crit, params["dt"], t_max=params["t_max"])
        run.csv("riccati_trajectory.csv", "t,v", traj.tolist())
    run.json("riccati_summary.json", result.summary(crit))
    if result.applies:
        print(f"T = {_fmt(result.t_bound)}")
    else:
        print("inconclusive (criterion hypothesis fails)")
    return EXIT_OK


def cmd_solve(run: Run) -> int:
    params = run.params
    config = _make(pdesolver.BlowupExperimentConfig, params)
    snapshot_times = _parse_times(params["snapshot_times"])
    result = pdesolver.run_blowup_experiment(config, snapshot_times=snapshot_times)
    run.csv("solve_diagnostics.csv", "t,min_ux,max_rho",
            zip(result.times.tolist(), result.min_ux.tolist(), result.max_rho.tolist()))
    nodes = Grid1D(n=params["n"], length=params["length"]).nodes.tolist()
    for idx, (t, rho, u) in enumerate(result.snapshots):
        run.csv(f"solve_snapshot_{idx}.csv", "x,rho,u", zip(nodes, rho.tolist(), u.tolist()))
    run.json("solve_summary.json", {
        "blowup_detected": result.blowup_detected,
        "crossing_time": result.crossing_time,
        "bound": result.bound,
        "threshold": result.threshold,
        "within_margin": result.within_margin,
        "parity_residual_max": result.parity_residual_max,
    })
    if result.blowup_detected:
        print(f"steepening crossed {_fmt(result.threshold)} at t = {_fmt(result.crossing_time)}"
              f" (bound {_fmt(result.bound)})")
    else:
        print("no blowup detected before t_max (bound is one-sided)")
    return EXIT_OK


def _parse_grid_axes(axis_args: list[str]) -> dict:
    axes = {}
    for arg in axis_args:
        if "=" not in arg:
            raise ValidationError(f"grid axis must be key=start:stop:count, got {arg!r}")
        key, rng = arg.split("=", 1)
        key = key.strip()
        if key not in SCHEMAS["sweep"]:
            raise ValidationError(f"unknown sweep key: {key}")
        if key in axes:
            raise ValidationError(f"grid axis {key} given more than once")
        parts = rng.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid axis must be key=start:stop:count, got {arg!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"grid axis {key}: {exc}") from exc
        if count < 1:
            raise ValidationError(f"grid axis {key}: count must be >= 1")
        axes[key] = np.linspace(start, stop, count).tolist()
    return axes


def cmd_sweep(run: Run) -> int:
    axes = _parse_grid_axes(run.args.grid or [])
    if not axes:
        raise ValidationError("sweep needs at least one --grid axis")
    names = sorted(axes)
    rows = []
    header = ["xi", "kappa", "mu", "a0", "a1", "s_max"]
    for cell in itertools.product(*(axes[name] for name in names)):
        cell_params = {**run.params, **dict(zip(names, cell))}
        traj = emden.integrate(_make(emden.EmdenProblem, cell_params), tol=cell_params["tol"])
        rows.append(
            [cell_params[name] for name in header]
            + [traj.fate.value, traj.touchdown_s if traj.touchdown_s is not None else ""]
        )
    # sweep.csv is the sweep's only artifact, so --format does not gate it.
    write_csv(run.out / "sweep.csv", ",".join(header + ["fate", "S"]), rows)
    print(f"{len(rows)} rows -> {run.out / 'sweep.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _add_schema_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for key, (typ, _default) in SCHEMAS[command].items():
        flags = [f"--{key.replace('_', '-')}"]
        if key == "m":
            flags.append("--M")
        parser.add_argument(*flags, dest=key, type=typ, default=None)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--config", default=None, help="flat key=value config file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="emit only this artifact kind (default: both)")

    parser = argparse.ArgumentParser(prog="dp2")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCHEMAS:
        p = sub.add_parser(name, parents=[common])
        _add_schema_flags(p, name)
        if name == "sweep":
            p.add_argument("--grid", nargs="+", metavar="KEY=START:STOP:COUNT")
        # Looked up when the parser is built, so a handler rebound on this module runs.
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _resolve_params(args.command, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(Run(args, params, out))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
