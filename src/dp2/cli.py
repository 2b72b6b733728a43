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


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def _echo_config(command: str, params: dict, seed: int) -> dict:
    return {"command": command, "seed": seed, **params}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _want(args, kind: str) -> bool:
    return args.format in (None, kind)


def _parse_times(raw: str) -> list[float]:
    if not raw.strip():
        return []
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"times: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_emden(args) -> int:
    params = _resolve_params("emden", args)
    out = _out_dir(args)
    problem = emden.EmdenProblem(
        xi=params["xi"],
        kappa=params["kappa"],
        mu=params["mu"],
        a0=params["a0"],
        a1=params["a1"],
        s_max=params["s_max"],
    )
    traj = emden.integrate(problem, tol=params["tol"])
    if _want(args, "csv"):
        traj.to_csv(out / "emden_trajectory.csv")
    if _want(args, "json"):
        summary = traj.summary()
        summary["config"] = _echo_config("emden", params, args.seed)
        write_json(out / "emden_summary.json", summary)
    print(f"fate = {traj.fate.value}" + (f", S = {_fmt(traj.touchdown_s)}" if traj.touchdown_s else ""))
    return EXIT_OK


def cmd_selfsim(args) -> int:
    params = _resolve_params("selfsim", args)
    out = _out_dir(args)
    times = _parse_times(params["times"])
    if not times:
        raise ValidationError("times: need at least one sample time")
    if params["k3"] == 0.0:
        raise ValidationError("k3 = 0 (free-profile branch) is library-only; pass k3 != 0")
    sol = build_solution(
        SystemParams(k1=params["k1"], k2=params["k2"], k3=params["k3"]),
        xi=params["xi"],
        alpha=params["alpha"],
        a0=params["a0"],
        a1=params["a1"],
        s_max=params["s_max"],
        mu=params["mu"],
        tol=params["tol"],
    )
    metadata = []
    mass_rows = []
    for idx, t in enumerate(times):
        meta = sol.snapshot_metadata(t)
        metadata.append(meta)
        mass_rows.append((t, meta["mass"]))
        if _want(args, "csv"):
            width = 1.2 * meta["support_halfwidth"]
            xs = np.linspace(-width, width, params["grid_n"])
            rho, u = sol.evaluate(t, xs)
            write_csv(
                out / f"selfsim_snapshot_{idx}.csv",
                "x,rho,u",
                zip(xs.tolist(), rho.tolist(), u.tolist()),
            )
    if _want(args, "csv"):
        write_csv(out / "selfsim_mass.csv", "t,mass", mass_rows)
    if _want(args, "json"):
        write_json(
            out / "selfsim_summary.json",
            {
                "snapshots": metadata,
                "config": _echo_config("selfsim", params, args.seed),
            },
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _resolve_params("verify", args)
    out = _out_dir(args)
    sol = build_solution(
        SystemParams(k1=params["k1"], k2=params["k2"], k3=params["k3"]),
        xi=params["xi"],
        alpha=params["alpha"],
        a0=params["a0"],
        a1=params["a1"],
        s_max=params["s_max"],
        mu=params["mu"],
        tol=params["tol"],
    )
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
    if _want(args, "csv"):
        write_csv(
            out / "verify_norms.csv",
            "h,mass_eq_linf,momentum_eq_linf",
            zip(report.hs, report.mass_norms, report.momentum_norms),
        )
        write_csv(
            out / "verify_residuals.csv",
            "x,R1,R2",
            zip(*(column.tolist() for column in report.finest_residuals)),
        )
    if _want(args, "json"):
        payload = json.loads(report.to_json())
        payload["config"] = _echo_config("verify", params, args.seed)
        write_json(out / "verify_report.json", payload)
    orders = (report.order_estimate_mass, report.order_estimate_momentum)
    print(
        "order_mass = "
        + (_fmt(orders[0]) if orders[0] is not None else "NotApplicable")
        + ", order_momentum = "
        + (_fmt(orders[1]) if orders[1] is not None else "NotApplicable")
    )
    for order in orders:
        if order is None or order < params["min_order"]:
            print(f"verification failed: order below {params['min_order']}", file=sys.stderr)
            return EXIT_CRITERION
    return EXIT_OK


def cmd_riccati(args) -> int:
    params = _resolve_params("riccati", args)
    out = _out_dir(args)
    crit = riccati.BlowupCriterion(M=params["m"], v0=params["v0"])
    result = riccati.check(crit)
    if _want(args, "json"):
        payload = json.loads(result.to_json(crit))
        payload["config"] = _echo_config("riccati", params, args.seed)
        write_json(out / "riccati_summary.json", payload)
    if _want(args, "csv"):
        traj = riccati.comparison_trajectory(crit, params["dt"], t_max=params["t_max"])
        write_csv(out / "riccati_trajectory.csv", "t,v", traj.tolist())
    if result.applies:
        print(f"T = {_fmt(result.t_bound)}")
    else:
        print("inconclusive (criterion hypothesis fails)")
    return EXIT_OK


def cmd_solve(args) -> int:
    params = _resolve_params("solve", args)
    out = _out_dir(args)
    config = pdesolver.BlowupExperimentConfig(
        n=params["n"],
        length=params["length"],
        k1=params["k1"],
        k2=params["k2"],
        k3=params["k3"],
        slope=params["slope"],
        sigma=params["sigma"],
        cfl=params["cfl"],
        threshold=params["threshold"],
        t_max=params["t_max"],
        m_est=params["m_est"],
        margin=params["margin"],
    )
    snapshot_times = _parse_times(params["snapshot_times"])
    result = pdesolver.run_blowup_experiment(config, snapshot_times=snapshot_times)
    if _want(args, "csv"):
        write_csv(
            out / "solve_diagnostics.csv",
            "t,min_ux,max_rho",
            zip(result.times.tolist(), result.min_ux.tolist(), result.max_rho.tolist()),
        )
        grid = Grid1D(n=params["n"], length=params["length"])
        for idx, (t, rho, u) in enumerate(result.snapshots):
            write_csv(
                out / f"solve_snapshot_{idx}.csv",
                "x,rho,u",
                zip(grid.nodes.tolist(), rho.tolist(), u.tolist()),
            )
    if _want(args, "json"):
        write_json(
            out / "solve_summary.json",
            {
                "blowup_detected": result.blowup_detected,
                "crossing_time": result.crossing_time,
                "bound": result.bound,
                "threshold": result.threshold,
                "within_margin": result.within_margin,
                "parity_residual_max": result.parity_residual_max,
                "config": _echo_config("solve", params, args.seed),
            },
        )
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


def cmd_sweep(args) -> int:
    params = _resolve_params("sweep", args)
    out = _out_dir(args)
    axes = _parse_grid_axes(args.grid or [])
    if not axes:
        raise ValidationError("sweep needs at least one --grid axis")
    names = sorted(axes)
    rows = []
    header = ["xi", "kappa", "mu", "a0", "a1", "s_max"]
    mesh = np.meshgrid(*[axes[name] for name in names], indexing="ij")
    cells = np.stack([m.ravel() for m in mesh], axis=-1)
    for cell in cells:
        cell_params = dict(params)
        for name, value in zip(names, cell):
            cell_params[name] = float(value)
        problem = emden.EmdenProblem(
            xi=cell_params["xi"],
            kappa=cell_params["kappa"],
            mu=cell_params["mu"],
            a0=cell_params["a0"],
            a1=cell_params["a1"],
            s_max=cell_params["s_max"],
        )
        traj = emden.integrate(problem, tol=cell_params["tol"])
        rows.append(
            [cell_params[name] for name in header]
            + [traj.fate.value, traj.touchdown_s if traj.touchdown_s is not None else ""]
        )
    write_csv(out / "sweep.csv", ",".join(header + ["fate", "S"]), rows)
    print(f"{len(rows)} rows -> {out / 'sweep.csv'}")
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

    handlers = {
        "emden": cmd_emden,
        "selfsim": cmd_selfsim,
        "verify": cmd_verify,
        "riccati": cmd_riccati,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name, parents=[common])
        _add_schema_flags(p, name)
        if name == "sweep":
            p.add_argument("--grid", nargs="+", metavar="KEY=START:STOP:COUNT")
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
