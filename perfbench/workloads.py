"""The four dp2 workloads: seeded inputs, one timed unit of work, its checks.

A *unit* is one checked result at the workload's fixed input size: one
blowup run, one fate lattice with its oracle cross-check, one verify case
through the CLI, or one convergence study over a solver run.  The runner
times units and reports their median; this module only builds inputs and
runs and checks a single unit.  Every unit goes through dp2's public
functions or ``dp2.cli.main``; nothing here reaches into dp2's internals.

Each unit returns an :class:`Outcome`: how many operations it attempted
(a sweep cell, an oracle call, a verify case or a blowup run) and one
line per failed operation naming its inputs.  A failure is an *error*
when the operation raised or left no output, and *wrong* when its output
is outside the pinned tolerances.  The one exception is a known defect
listed in ``KNOWN_FAILURES``: it is *expected*, listed and counted apart
from the other failures, and does not make the run incorrect.  The
outcome also carries a short fingerprint for the log, a ``signature`` of
exact result values and ``counts`` of layer calls, which a traced run of
the same inputs must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dp2 import cli, emden, pdesolver, residual
from dp2.errors import Dp2Error
from dp2.grid import Grid1D
from dp2.selfsim import SystemParams

# Pinned tolerances of the correctness gate.
ORDER_RANGE = (1.7, 2.3)
S_REL_TOL = 1e-4
PARITY_TOL = 1e-10

# Canonical scale-factor case: xi = -1, kappa = 1/2, a0 = 1, a1 = 0 gives S = 8/3.
CANONICAL_S = 8.0 / 3.0


@dataclass
class Outcome:
    attempted: int
    errors: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    expected: list = field(default_factory=list)  # failures listed in KNOWN_FAILURES
    fingerprint: str = ""
    signature: tuple = ()
    counts: dict = field(default_factory=dict)  # span name -> calls the unit makes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    size: str
    pool: int  # distinct seeded inputs built at set-up; units cycle through them
    build: Callable  # (rng, out_dir, count) -> list of inputs
    run: Callable  # (input, out_dir) -> Outcome
    # (out_dir) -> one fixed input, run and checked once per run, untimed.
    pinned: Callable | None = None


def _quiet_cli(argv: list) -> tuple[int, str]:
    """Run ``dp2.cli.main`` in-process with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue().strip()


def _r(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# blowup: the spectral stepping path.
# ---------------------------------------------------------------------------

BLOWUP_N = 8192


def build_blowup(rng, out_dir: Path, count: int, n: int = BLOWUP_N, threshold: float = -1e3):
    return [
        pdesolver.BlowupExperimentConfig(
            n=n, slope=float(rng.uniform(-6.0, -4.0)), threshold=threshold, t_max=0.5
        )
        for _ in range(count)
    ]


def run_blowup(config) -> Outcome:
    inputs = f"slope={_r(config.slope)} n={config.n}"
    try:
        result = pdesolver.run_blowup_experiment(config)
    except Dp2Error as exc:
        return Outcome(1, errors=[f"blowup {inputs}: {type(exc).__name__}: {exc}"])
    steps = len(result.times) - 1
    problems = []
    if result.crossing_time is None:
        problems.append(f"no crossing of {config.threshold} before t_max")
    elif not result.within_margin:
        problems.append(
            f"crossing {_r(result.crossing_time)} later than "
            f"bound*(1+margin) = {_r(result.bound * (1.0 + result.margin))}"
        )
    if not result.parity_residual_max < PARITY_TOL:
        problems.append(f"parity defect {_r(result.parity_residual_max)} >= {PARITY_TOL}")
    return Outcome(
        1,
        wrong=[f"blowup {inputs}: " + "; ".join(problems)] if problems else [],
        fingerprint=(
            f"{inputs} steps={steps} crossing={_r(result.crossing_time or math.nan)} "
            f"bound={_r(result.bound)} parity={result.parity_residual_max:.3g}"
        ),
        signature=(steps, result.crossing_time, result.parity_residual_max),
        counts={"pdesolver.step": steps},
    )


# ---------------------------------------------------------------------------
# fate_sweep: both emden routes, driven through ``dp2 sweep``.
# ---------------------------------------------------------------------------

# The corner where the adaptive-Simpson oracle is slow or gives up
# (small kappa, a1 < 0, a0 = 2).  It is pinned, not seeded, and runs once
# per run outside the timed units: the oracle's cost there swings from
# 0.5 s to 2.4 s with the exact inputs, and one of its calls always fails,
# so timing it would make wall_s follow four fixed inputs and a failure.
CORNER_ARGS = ["--xi", "-1.5", "--a0", "2", "--grid", "kappa=0.05:0.1:2", "a1=-3:-1.5:2"]
CORNER_CELLS = 4
BROAD_CELLS = 4 * 3 * 4 * 2  # xi x kappa x a1 x a0; even counts keep xi, a1 off zero

# Known defects: (exception name, xi, kappa, a0, a1) of oracle calls that
# fail today.  They are listed and counted apart and do not make a run
# incorrect; any other failure does.
KNOWN_FAILURES = {("QuadratureBudgetExceeded", -1.5, 0.05, 2.0, -3.0)}


def build_fate_sweep(rng, out_dir: Path, count: int):
    """One seeded broad lattice per unit.

    The broad lattice spans xi in [-3, 3], kappa in [~0.2, 1], a1 in
    [-3, 3] and a0 in [~0.5, 2]; the seed moves each axis end inward by
    at most a twelfth of its span (a0 keeps 2, kappa keeps 1).
    """
    out = str(out_dir)
    units = []
    for _ in range(count):
        u = rng.uniform(0.0, 1.0, size=6)
        broad = [
            "sweep", "--out", out, "--grid",
            f"xi={_r(-3.0 + 0.5 * u[0])}:{_r(3.0 - 0.5 * u[1])}:4",
            f"kappa={_r(0.2 + 0.05 * u[2])}:1:3",
            f"a1={_r(-3.0 + 0.5 * u[3])}:{_r(3.0 - 0.5 * u[4])}:4",
            f"a0={_r(0.5 + 0.125 * u[5])}:2:2",
        ]
        units.append(((broad, BROAD_CELLS),))
    return units


def corner_sweep(out_dir: Path):
    return ((["sweep", "--out", str(out_dir)] + CORNER_ARGS, CORNER_CELLS),)


def _read_sweep(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_cell(row: dict, outcome: Outcome) -> int:
    """Cross-check one sweep row into ``outcome``; returns oracle calls made.

    xi < 0 rows are checked against ``touchdown_time_quadrature``: a
    touchdown inside s_max must match the oracle's S to 1e-4 relative,
    and an oracle S beyond s_max must show as GlobalOnHorizon.  xi > 0
    rows with a1 >= 0 must grow globally (the classification theorem).
    """
    xi, kappa, mu, a0, a1, s_max = (float(row[k]) for k in ("xi", "kappa", "mu", "a0", "a1", "s_max"))
    fate = row["fate"]
    s_sweep = float(row["S"]) if row["S"] else None
    inputs = f"xi={_r(xi)} kappa={_r(kappa)} a0={_r(a0)} a1={_r(a1)}"
    outcome.signature += (s_sweep,)
    wrong = outcome.wrong.append
    if xi > 0.0:
        if a1 >= 0.0 and fate != emden.Fate.GLOBAL_ON_HORIZON.value:
            wrong(f"cell {inputs}: fate {fate}, expected GlobalOnHorizon")
        return 0
    problem = emden.EmdenProblem(xi=xi, kappa=kappa, mu=mu, a0=a0, a1=a1, s_max=s_max)
    try:
        s_oracle = emden.touchdown_time_quadrature(problem)
    except Dp2Error as exc:
        known = (type(exc).__name__, xi, kappa, a0, a1) in KNOWN_FAILURES
        (outcome.expected if known else outcome.errors).append(f"oracle {inputs}: {type(exc).__name__}")
        return 1
    if s_oracle > s_max:
        if fate != emden.Fate.GLOBAL_ON_HORIZON.value:
            wrong(f"cell {inputs}: fate {fate}, oracle S={_r(s_oracle)} > s_max")
    elif fate != emden.Fate.TOUCHDOWN.value or s_sweep is None:
        wrong(f"cell {inputs}: fate {fate}, oracle S={_r(s_oracle)}")
    elif abs(s_sweep - s_oracle) > S_REL_TOL * s_oracle:
        wrong(f"cell {inputs}: S={_r(s_sweep)} vs oracle {_r(s_oracle)}")
    return 1


def run_fate_sweep(unit, out_dir: Path) -> Outcome:
    outcome = Outcome(0)
    out_csv = out_dir / "sweep.csv"
    hard = 0
    for argv, cells in unit:
        outcome.attempted += cells
        out_csv.unlink(missing_ok=True)
        code, text = _quiet_cli(argv)
        rows = _read_sweep(out_csv) if code == cli.EXIT_OK else []
        if len(rows) != cells:
            outcome.errors += [
                f"sweep cell {k + 1}/{cells} of {' '.join(argv[3:])}: exit {code}, "
                f"{len(rows)} rows: {text}"
                for k in range(cells)
            ]
            continue
        for row in rows:
            calls = check_cell(row, outcome)
            outcome.attempted += calls
            outcome.counts["emden.quadrature"] = outcome.counts.get("emden.quadrature", 0) + calls
            if calls and float(row["kappa"]) < 0.3 and float(row["a1"]) < 0.0:
                hard += 1
    oracle_calls = outcome.counts.get("emden.quadrature", 0)
    outcome.counts["emden.integrate"] = len(outcome.signature)
    outcome.fingerprint = (
        f"cells={len(outcome.signature)} oracle_calls={oracle_calls} "
        f"oracle cells with kappa<0.3 and a1<0: {hard}/{oracle_calls}"
    )
    return outcome


# ---------------------------------------------------------------------------
# verify_selfsim: ``dp2 verify`` on the unit-ratio family xi = k3.
# ---------------------------------------------------------------------------

VERIFY_N_BASE, VERIFY_LEVELS = 1024, 4
VERIFY_OUTPUTS = ("verify_report.json", "verify_norms.csv", "verify_residuals.csv")


def build_verify_selfsim(rng, out_dir: Path, count: int, n_base: int = VERIFY_N_BASE,
                         levels: int = VERIFY_LEVELS):
    units = []
    for i in range(count):
        # xi = k3: the shape ODE, hence the momentum equation, holds only for beta = 1.
        k3 = (1.0 if i % 2 == 0 else -1.0) * rng.uniform(0.5, 1.5)
        k1, k2 = rng.uniform(0.5, 1.5), rng.uniform(0.75, 1.25)
        alpha, t = rng.uniform(0.5, 1.5), rng.uniform(0.02, 0.15)
        units.append([
            "verify", "--out", str(out_dir),
            "--k1", _r(k1), "--k2", _r(k2), "--k3", _r(k3), "--xi", _r(k3),
            "--alpha", _r(alpha), "--t", _r(t),
            "--n-base", str(n_base), "--levels", str(levels),
        ])
    return units


def _orders_outcome(label: str, orders: tuple) -> list:
    lo, hi = ORDER_RANGE
    bad = [o for o in orders if o is None or not lo <= o <= hi]
    return [f"{label}: orders {orders} outside [{lo}, {hi}]"] if bad else []


def run_verify_selfsim(argv, out_dir: Path) -> Outcome:
    label = "verify " + " ".join(argv[3:-4])
    outputs = [out_dir / name for name in VERIFY_OUTPUTS]
    for path in outputs:
        path.unlink(missing_ok=True)
    code, text = _quiet_cli(argv)
    missing = [path.name for path in outputs if not path.is_file() or not path.stat().st_size]
    if missing or code not in (cli.EXIT_OK, cli.EXIT_CRITERION):
        return Outcome(1, errors=[f"{label}: exit {code}, missing {missing}: {text}"])
    report = json.loads(outputs[0].read_text())
    orders = (report["order_estimate_mass"], report["order_estimate_momentum"])
    wrong = _orders_outcome(label, orders)
    if code == cli.EXIT_CRITERION and not wrong:
        wrong = [f"{label}: dp2 verify exit {code} with orders {orders}"]
    return Outcome(1, wrong=wrong, fingerprint=f"orders={orders}", signature=orders,
                   counts={"emden.integrate": 1})


# ---------------------------------------------------------------------------
# verify_solver: the residual lab reading a spectral run through RunSampler.
# ---------------------------------------------------------------------------

SOLVER_N = 1024
SOLVER_GRIDS = (128, 256, 512, 1024)


@dataclass(frozen=True)
class SolverCase:
    state0: object
    t: float
    grids: tuple
    label: str


def build_verify_solver(rng, out_dir: Path, count: int, n: int = SOLVER_N,
                        grid_ns: tuple = SOLVER_GRIDS):
    length = 2.0 * math.pi
    grid = Grid1D(n=n, length=length)
    params = SystemParams(k1=1.0, k2=1.0, k3=1.0)
    grids = tuple(Grid1D(n=m, length=length) for m in grid_ns)
    cases = []
    for _ in range(count):
        slope = float(rng.uniform(-1.5, -0.5))
        amps = rng.uniform(-0.1, 0.1, size=3)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        rho0 = 1.0 + sum(
            a * np.cos((k + 1) * grid.nodes + p) for k, (a, p) in enumerate(zip(amps, phases))
        )
        u0 = pdesolver.odd_gaussian_derivative(grid, slope, length / 16.0)
        state0 = pdesolver.SolverState.make(0.0, pdesolver.dealias(grid, rho0), u0, params, grid)
        t = float(rng.uniform(0.06, 0.1))
        cases.append(SolverCase(state0, t, grids, f"slope={_r(slope)} t={_r(t)} rho_amps={amps.round(4).tolist()}"))
    return cases


def run_verify_solver(case: SolverCase) -> Outcome:
    label = f"verify_solver {case.label}"
    sampler = pdesolver.RunSampler(case.state0)
    try:
        report = residual.convergence_study(sampler, case.state0.params, case.t, case.grids)
    except Dp2Error as exc:
        return Outcome(1, errors=[f"{label}: {type(exc).__name__}: {exc}"])
    orders = (report.order_estimate_mass, report.order_estimate_momentum)
    return Outcome(1, wrong=_orders_outcome(label, orders), fingerprint=f"orders={orders}",
                   signature=orders, counts={"residual.convergence_study": 1})


# ---------------------------------------------------------------------------
# Fingerprint shared by every workload: S on the canonical case, both routes.
# ---------------------------------------------------------------------------


def canonical_s() -> Outcome:
    problem = emden.EmdenProblem(xi=-1.0, kappa=0.5, mu=4.0, a0=1.0, a1=0.0, s_max=10.0)
    s_ode = emden.integrate(problem, tol=1e-10).touchdown_s
    s_quad = emden.touchdown_time_quadrature(problem)
    wrong = []
    if not abs(s_ode - CANONICAL_S) < S_REL_TOL * CANONICAL_S:
        wrong.append(f"canonical S (integrate) = {_r(s_ode)}, expected 8/3")
    if not abs(s_quad - CANONICAL_S) < 1e-8:
        wrong.append(f"canonical S (quadrature) = {_r(s_quad)}, expected 8/3")
    return Outcome(
        2, wrong=wrong, fingerprint=f"canonical S: integrate={_r(s_ode)} quadrature={_r(s_quad)} (8/3)"
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="blowup",
            why="RK4 spectral steepening at n=8192; FFT-bound stepping, the solver's hot path",
            stresses="pdesolver stepping: step, _tendency_arrays, FFT entry points",
            bypasses="emden, residual, selfsim, profile, trig_interp, cli",
            size="one run_blowup_experiment at n=8192, slope in [-6,-4], threshold -1e3, t_max 0.5",
            pool=64,
            build=build_blowup,
            run=lambda config, out_dir: run_blowup(config),
        ),
        Workload(
            name="fate_sweep",
            why="dp2 sweep over a fate lattice, every xi<0 cell checked by the touchdown oracle",
            stresses="emden: integrate (solve_ivp) per cell and touchdown_time_quadrature; cli sweep",
            bypasses="pdesolver, residual, selfsim, profile",
            size=f"{BROAD_CELLS} seeded cells per lattice; {CORNER_CELLS} pinned corner cells once per run, untimed",
            pool=64,
            build=build_fate_sweep,
            run=run_fate_sweep,
            pinned=corner_sweep,
        ),
        Workload(
            name="verify_selfsim",
            why="dp2 verify on xi=k3 self-similar cases; residual stencils and the CLI CSV writer",
            stresses="residual stencils, selfsim.evaluate, profile.eval_f, cli write_csv",
            bypasses="pdesolver, touchdown_time_quadrature, cli sweep",
            size=f"one dp2 verify case, n_base {VERIFY_N_BASE}, {VERIFY_LEVELS} levels, CSV and JSON",
            pool=2048,
            build=build_verify_selfsim,
            run=run_verify_selfsim,
        ),
        Workload(
            name="verify_solver",
            why="residual lab on a RunSampler over an n=1024 spectral run; trig_interp-bound reads",
            stresses="pdesolver.trig_interp, RunSampler, residual stencils",
            bypasses="FFT-bound long stepping, emden, selfsim, profile, cli",
            size=f"one convergence_study over n={SOLVER_N} run, grids {SOLVER_GRIDS[0]}..{SOLVER_GRIDS[-1]}",
            pool=32,
            build=build_verify_solver,
            run=lambda case, out_dir: run_verify_solver(case),
        ),
    )
}
