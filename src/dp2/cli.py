"""Command-line entry point.

Subcommands: emden, selfsim, verify, riccati, solve, sweep.  Each run
resolves its parameters from defaults, then an optional --config file,
then command-line flags (flags win), validates them against the owning
module's preconditions, and emits CSV/JSON artifacts into --out.  Reals
are written with 17 significant digits ('.' decimal separator, no
locale) so outputs are byte-identical across repeated runs and
round-trip safely.  Every JSON summary embeds the resolved config: a
"config" object with the subcommand under "command" and every setting.
--config reads exactly that, so a summary of the same subcommand, passed
as written, reproduces its run byte for byte.  A config value must have
its setting's JSON type (a float setting takes an int too; no setting
takes true or false).  An unreadable --config exits 2, and so does an
--out that cannot be made a directory; it is made when the run writes
its first artefact, so a run its settings refuse leaves none behind.
No subcommand has a tol or a domain length: emden, selfsim and verify
integrate to emden.integrate's default 1e-10, each sweep cell to
SWEEP_TOL = 1e-8; verify's grids span VERIFY_LENGTH = 4.096 centred at
0, and solve's period is pdesolver.LENGTH = 2*pi.  ``verify`` has no
s_max: it integrates the scale factor up to s = 4*(t + dt_over_h*h), h
the coarsest level's spacing, which is the last time its stencils read,
and refuses a t whose stencils reach below t = 0 or to the collapse
time, or whose s is not finite; it exits 1 when an order estimate is
missing or below VERIFY_MIN_ORDER = 1.7.  ``riccati`` runs the
comparison trajectory of an inconclusive criterion to
comparison_trajectory's default t = 10.
``solve`` has no width or margin setting (the bump is L/16 wide and the
margin pdesolver.MARGIN), and no k1, k2 or k3: every run starts from
rho0 = 0, and a run from rho0 = 0 never reads them.  It refuses a
snapshot time outside [0, t_max], more snapshot nodes than
pdesolver.SNAPSHOT_POINTS_MAX, and a t_max of more than
pdesolver.STEPS_MAX steps of its start dt, and its summary lists the t
of each snapshot file; selfsim refuses more snapshot nodes (times by grid_n)
than that cap too, before it writes anything.  Every grid (solve's n,
each verify level, selfsim's grid_n) is refused above grid.N_MAX = 2**20
points before anything is allocated; verify names --n-base or --levels
when it refuses one.  ``sweep`` refuses a lattice of more than
SWEEP_CELLS_MAX = 2**16 cells, the product of its --grid counts, before
it builds any axis.

Exit codes: 0 success, 1 verification criterion failed, 2 validation
error, 3 numerical failure.  Every exit-2 refusal, argparse's own
included, is one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import emden, pdesolver, residual, riccati
from .errors import NumericalError, ValidationError
from .grid import N_MAX, Grid1D
from .selfsim import SystemParams, build_solution

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Rows formatted per write.  A block's text, values and template stay a few KB,
# far below glibc's 128 KB mmap threshold: with 4096-row blocks (about 270 KB of
# text) a process that ran dp2 verify 400 times at n_base 1024 grew by 1.0-2.7 MB
# of RSS after its first run, with 64-row blocks by 0.6 MB, at the same speed.
CSV_BLOCK_ROWS = 64
SWEEP_TOL = 1e-8  # emden.integrate's tol in each sweep cell
# Most cells dp2 sweep runs: at 0.6-0.75 ms of CPU a cell (the 16x16 xi x kappa
# touchdown lattice xi=-2:-0.2:16 kappa=0.2:1:16, its CSV included; 2-core x86_64
# Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6), a full lattice takes
# under a minute.
SWEEP_CELLS_MAX = 2**16
VERIFY_LENGTH = 4.096  # dp2 verify's grids span [-VERIFY_LENGTH/2, VERIFY_LENGTH/2)
VERIFY_MIN_ORDER = 1.7  # dp2 verify exits 1 when an order estimate is below this


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, header: str, rows=(), *, columns=None) -> None:
    """A CSV of ``columns``, float arrays of one length, or else of ``rows``.

    Columns go CSV_BLOCK_ROWS rows at a time: the block's values are copied from
    array slices into one buffer and formatted by one ``%`` on a repeated
    "%.17g,...\\n" template, so no whole column becomes Python floats.  Rows, such
    as the sweep's mix of floats, ints and strings, go through ``_fmt`` value by
    value.  A float is written as ``_fmt`` writes it either way.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        if columns is None:
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)
            return
        columns = [np.asarray(column, dtype=float) for column in columns]
        n_rows = len(columns[0])
        if any(len(column) != n_rows for column in columns):
            raise ValueError(f"{path}: columns of unequal length")
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        full_block = line * CSV_BLOCK_ROWS
        block = np.empty((min(n_rows, CSV_BLOCK_ROWS), len(columns)))
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            size = min(n_rows - start, CSV_BLOCK_ROWS)
            for j, column in enumerate(columns):
                block[:size, j] = column[start:start + size]
            template = full_block if size == CSV_BLOCK_ROWS else line * size
            fh.write(template % tuple(block[:size].ravel().tolist()))


def write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Parameter schemas and config resolution.
# ---------------------------------------------------------------------------

_EMDEN = {  # emden.EmdenProblem's fields
    "xi": (float, None),
    "kappa": (float, 0.5),
    "mu": (float, 4.0),
    "a0": (float, 1.0),
    "a1": (float, 0.0),
    "s_max": (float, 10.0),
}

_SOLUTION = {  # read by _solution into SystemParams and build_solution
    "k1": (float, 1.0),
    "k2": (float, 1.0),
    "k3": (float, None),
    "xi": (float, None),
    "alpha": (float, 1.0),
    "a0": (float, 1.0),
    "a1": (float, 0.0),
    "mu": (float, 4.0),
}

SCHEMAS = {
    "emden": _EMDEN,
    "selfsim": {
        **_SOLUTION,
        "s_max": (float, 10.0),
        "times": (str, "0,0.1,0.2"),
        "grid_n": (int, 256),
    },
    "verify": {
        **_SOLUTION,
        "k3": (float, 1.0),
        "xi": (float, 1.0),
        "t": (float, 0.1),
        "n_base": (int, 512),
        "levels": (int, 4),
        "dt_over_h": (float, 1.0),
        "delta_in_h": (float, 5.0),
    },
    "riccati": {
        "m": (float, None),
        "v0": (float, None),
        "dt": (float, 1e-4),
    },
    # pdesolver.BlowupExperimentConfig's fields but k1, k2, k3 and rho0, and
    # snapshot_times: every run starts from rho0 = 0, which never reads k1, k2 or k3
    "solve": {
        "n": (int, 2048),
        "slope": (float, -5.0),
        "threshold": (float, -1e3),
        "t_max": (float, 0.5),
        "snapshot_times": (str, ""),
    },
    "sweep": {
        **_EMDEN,
        "xi": (float, -1.0),
        "s_max": (float, 20.0),
    },
}


def _load_config(path: str, command: str) -> dict:
    """The settings in the "config" object of a dp2 JSON summary written by ``command``."""
    try:
        settings = dict(json.loads(Path(path).read_text(encoding="utf-8"))["config"])
    # ValueError: not UTF-8, or not JSON; RecursionError: JSON nested too deep to load
    except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
        raise ValidationError(f"--config {path}: not a dp2 summary: {type(exc).__name__}: {exc}") from exc
    if (written_by := settings.pop("command", None)) != command:
        raise ValidationError(f"--config {path} holds a config of {written_by!r}, not of {command!r}")
    return settings


def _resolve_params(command: str, args: argparse.Namespace) -> dict:
    """defaults <- --config <- flags, refusing unknown keys and values of another type."""
    schema = SCHEMAS[command]
    resolved = {key: default for key, (_, default) in schema.items()}

    if args.config:
        for key, value in _load_config(args.config, command).items():
            if key not in schema:
                raise ValidationError(f"unknown config key: {key}")
            typ = schema[key][0]
            # by type(), not isinstance(): a JSON true or false loads as a bool, which is an int
            if type(value) not in ((int, float) if typ is float else (typ,)):
                raise ValidationError(f"config key {key}: expected {typ.__name__}, got {json.dumps(value)}")
            try:
                resolved[key] = typ(value)
            except OverflowError as exc:  # an int past the float range
                raise ValidationError(f"config key {key}: {exc}") from exc

    # flags win; a flag not given is no attribute of args (default=argparse.SUPPRESS)
    resolved.update((key, getattr(args, key)) for key in schema if hasattr(args, key))

    for key, value in resolved.items():
        if value is None:
            raise ValidationError(f"missing required parameter: {key}")
        # nan slips past every ordered comparison (order < nan is false)
        if schema[key][0] is float and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value}")
    return resolved


class Run:
    """One subcommand run: its resolved params and its output directory.

    Artifacts go through :meth:`csv` and :meth:`json`, or :meth:`path` for
    another writer; every JSON summary gets the config echo (command and params)
    that --config replays.  The directory is made on the run's first artefact,
    so a run refused before it writes one leaves no directory behind.
    """

    def __init__(self, args: argparse.Namespace, params: dict, out: Path):
        self.args, self.params, self.out = args, params, out

    def path(self, name: str) -> Path:
        """The path of artefact ``name`` in the output directory, made if it is missing."""
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"--out {self.out}: {exc}") from exc
        return self.out / name

    def csv(self, name: str, header: str, *columns) -> None:
        write_csv(self.path(name), header, columns=columns)

    def json(self, name: str, summary: dict) -> None:
        echo = {"command": self.args.command, **self.params}
        write_json(self.path(name), {**summary, "config": echo})


def _solution(p: dict, s_max: float):
    return build_solution(SystemParams(k1=p["k1"], k2=p["k2"], k3=p["k3"]), xi=p["xi"], alpha=p["alpha"],
                          a0=p["a0"], a1=p["a1"], s_max=s_max, mu=p["mu"])


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
    traj = emden.integrate(emden.EmdenProblem(**run.params))
    summary = traj.summary()  # first, so a refused energy drift leaves no trajectory behind
    run.csv("emden_trajectory.csv", "s,a,a_dot", *traj.samples.T)
    run.json("emden_summary.json", summary)
    print(f"fate = {traj.fate.value}" + (f", S = {_fmt(traj.touchdown_s)}" if traj.touchdown_s else ""))
    return EXIT_OK


def cmd_selfsim(run: Run) -> int:
    params = run.params
    times = _parse_times(params["times"])
    if not times:
        raise ValidationError("times: need at least one sample time")
    if not 2 <= params["grid_n"] <= N_MAX:
        raise ValidationError(f"grid_n must be in [2, {N_MAX}], got {params['grid_n']}")
    if (nodes := len(times) * params["grid_n"]) > pdesolver.SNAPSHOT_POINTS_MAX:
        raise ValidationError(f"{len(times)} snapshot times on grid_n={params['grid_n']} would write"
                              f" {nodes} nodes per field, over the cap {pdesolver.SNAPSHOT_POINTS_MAX}")
    sol = _solution(params, params["s_max"])
    metadata = [sol.snapshot_metadata(t) for t in times]  # validates every t before a write
    for idx, meta in enumerate(metadata):
        width = 1.2 * meta["support_halfwidth"]
        xs = np.linspace(-width, width, params["grid_n"])
        rho, u = sol.evaluate(meta["t"], xs)
        run.csv(f"selfsim_snapshot_{idx}.csv", "x,rho,u", xs, rho, u)
    run.csv("selfsim_mass.csv", "t,mass", [meta["t"] for meta in metadata],
            [meta["mass"] for meta in metadata])
    run.json("selfsim_summary.json", {"snapshots": metadata})
    return EXIT_OK


def cmd_verify(run: Run) -> int:
    params = run.params
    t, n_base, levels = params["t"], params["n_base"], params["levels"]
    # a study takes 3 levels or more, and its finest, n_base*2**(levels-1), is at
    # most N_MAX; 2**(levels-1) itself is never formed
    if not 16 <= n_base <= N_MAX // 4 or n_base & (n_base - 1):
        raise ValidationError(f"--n-base must be a power of two in [16, {N_MAX // 4}], got {n_base}")
    max_levels = (N_MAX // n_base).bit_length()
    if not 3 <= levels <= max_levels:
        raise ValidationError(f"--levels must be in [3, {max_levels}] at --n-base {n_base}, got {levels}")
    grids = [Grid1D(n=n_base * 2**i, length=VERIFY_LENGTH, x0=-0.5 * VERIFY_LENGTH)
             for i in range(levels)]
    # The study samples t - reach .. t + reach, reach = dt_over_h * (coarsest h), and
    # a(s) is integrated up to s = 4*(t + reach), the study's latest sample, exactly.
    reach = residual.stencil_reach(grids, params["dt_over_h"])
    if t - reach < 0.0:
        raise ValidationError(f"--t {t} is below the stencil reach dt_over_h*h = {reach}"
                              " of the coarsest level: the study would sample t < 0")
    s_max = 4.0 * (t + reach)
    if not math.isfinite(s_max):
        raise ValidationError(f"--t {t} plus the stencil reach {reach} puts the study's last"
                              " sample s = 4*(t + reach) past the float range")
    sol = _solution(params, s_max)
    if sol.traj.touchdown_s is not None:
        raise ValidationError(f"--t {t} plus the stencil reach {reach} is at or past the"
                              f" collapse time T={sol.traj.touchdown_s / 4.0}")
    report = residual.convergence_study(
        sol.evaluate,
        sol.params,
        t,
        grids,
        dt_over_h=params["dt_over_h"],
        delta_in_h=params["delta_in_h"],
    )
    run.csv("verify_norms.csv", "h,mass_eq_linf,momentum_eq_linf",
            report.hs, report.mass_norms, report.momentum_norms)
    run.csv("verify_residuals.csv", "x,R1,R2", *report.finest_residuals)
    run.json("verify_report.json", report.summary())
    orders = (report.order_estimate_mass, report.order_estimate_momentum)
    mass, momentum = (_fmt(order) if order is not None else "NotApplicable" for order in orders)
    print(f"order_mass = {mass}, order_momentum = {momentum}")
    for order in orders:
        if order is None or order < VERIFY_MIN_ORDER:
            print(f"verification failed: order below {VERIFY_MIN_ORDER}", file=sys.stderr)
            return EXIT_CRITERION
    return EXIT_OK


def cmd_riccati(run: Run) -> int:
    params = run.params
    crit = riccati.BlowupCriterion(M=params["m"], v0=params["v0"])
    traj = riccati.comparison_trajectory(crit, params["dt"])  # first, so a refusal leaves no summary
    run.csv("riccati_trajectory.csv", "t,v", *traj.T)
    run.json("riccati_summary.json", crit.summary())
    t_bound = riccati.check(crit)
    print("inconclusive (criterion hypothesis fails)" if t_bound is None else f"T = {_fmt(t_bound)}")
    return EXIT_OK


def cmd_solve(run: Run) -> int:
    params = dict(run.params)  # run.params keeps snapshot_times for the summary's echo
    snapshot_times = params.pop("snapshot_times")
    config = pdesolver.BlowupExperimentConfig(**params)
    result = pdesolver.run_blowup_experiment(config, snapshot_times=_parse_times(snapshot_times))
    run.csv("solve_diagnostics.csv", "t,min_ux,max_rho",
            result.record["t"], result.record["min_ux"], result.record["max_rho"])
    nodes = Grid1D(n=params["n"], length=pdesolver.LENGTH).nodes
    for idx, (t, rho, u) in enumerate(result.snapshots):
        run.csv(f"solve_snapshot_{idx}.csv", "x,rho,u", nodes, rho, u)
    run.json("solve_summary.json", {
        "blowup_detected": result.blowup_detected,
        "crossing_time": result.crossing_time,
        "bound": result.bound,
        "threshold": config.threshold,
        "within_margin": result.within_margin,
        "parity_residual_max": result.parity_residual_max,
        "refinements": result.refinements,
        "resolved_until": result.resolved_until,
        "snapshot_times": [t for t, _, _ in result.snapshots],  # solve_snapshot_<i>.csv's t
    })
    if result.blowup_detected:
        print(f"steepening crossed {_fmt(config.threshold)} at t = {_fmt(result.crossing_time)}"
              f" (bound {_fmt(result.bound)})")
    else:
        print("no blowup detected before t_max (bound is one-sided)")
    if result.resolved_until is not None:
        print(f"unresolved on n = {config.n} from t = {_fmt(result.resolved_until)}:"
              " what follows does not test the bound")
    return EXIT_OK


def _parse_grid_axes(axis_args: list[str]) -> dict:
    """Each axis as its list of values; refuses a lattice of more than
    SWEEP_CELLS_MAX cells after reading every count and before building any axis."""
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
        if not math.isfinite(stop - start):  # also false when start or stop is not finite
            raise ValidationError(f"grid axis {key}: start, stop and stop - start must be finite")
        axes[key] = (start, stop, count)
    cells = math.prod(count for _, _, count in axes.values())
    if cells > SWEEP_CELLS_MAX:
        raise ValidationError(f"sweep lattice has {cells} cells, more than {SWEEP_CELLS_MAX}")
    return {key: np.linspace(*axis).tolist() for key, axis in axes.items()}


def cmd_sweep(run: Run) -> int:
    axes = _parse_grid_axes(run.args.grid or [])
    if not axes:
        raise ValidationError("sweep needs at least one --grid axis")
    names = sorted(axes)
    rows = []
    header = list(SCHEMAS["sweep"])
    for cell in itertools.product(*(axes[name] for name in names)):
        cell_params = {**run.params, **dict(zip(names, cell))}
        traj = emden.integrate(emden.EmdenProblem(**cell_params), tol=SWEEP_TOL)
        rows.append(
            [cell_params[name] for name in header]
            + [traj.fate.value, traj.touchdown_s if traj.touchdown_s is not None else ""]
        )
    path = run.path("sweep.csv")
    write_csv(path, ",".join(header + ["fate", "S"]), rows)
    print(f"{len(rows)} rows -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals are one ``error: ...`` line, as dp2's own are.

    argparse's own ``error`` prints the usage block first; help output is unchanged.
    """

    def error(self, message: str):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


@functools.cache  # built on the first main(), once per process (~2 ms)
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--config", default=None, help="replay a dp2 JSON summary's config")

    parser = _Parser(prog="dp2")
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, parents=[common])
        for key, (typ, _default) in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, default=argparse.SUPPRESS)
        if name == "sweep":
            p.add_argument("--grid", nargs="+", metavar="KEY=START:STOP:COUNT")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = _resolve_params(args.command, args)
        # Looked up at dispatch, so a handler rebound on this module runs.
        return globals()[f"cmd_{args.command}"](Run(args, params, Path(args.out)))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
