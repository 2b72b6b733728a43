"""Run one dp2 benchmark workload and print its metrics.

    python3 perfbench/run.py --workload blowup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; dp2 is imported from ``src/`` of that
checkout and nowhere else.  The run builds its inputs from ``--seed``,
then repeats the workload's unit of work (see ``workloads.py``) for
``--seconds`` seconds, at least three times, checking every result.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: process start until the inputs are built (imports of
  dp2, numpy and scipy included), median of five fresh processes;
* ``wall_s``: time of one checked unit at the stated input size, the
  median of the run's units;
* ``peak_rss_mb``: peak resident set size of the measuring process.

Both times are CPU times at a nominal machine speed, measured beside a
reference process on the same CPU (``speed.py``); for this single-threaded,
compute-bound program they stand for the wall time on a dedicated CPU.
The raw wall and CPU medians are printed beside them.

With ``--trace 1`` every unit runs twice on the same inputs, untraced and
traced, in alternating order; the traced copy records spans around dp2's
layers (``tracing.py``) and the run reports the per-layer metrics and the
tracing overhead.  A traced unit must reproduce the untraced result and
its call counts exactly.

Failed operations are counted, never dropped, and listed one per line;
a known defect is listed and counted on the ``fail_ratio`` line but not in
the result's ``attempted`` and ``failed``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread: every run is a single process on a single core,
# so its timings do not depend on how many cores happen to be free.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 5
MIN_UNITS = 3
PINNED_RUN = "pinned"  # run id of the spans of a workload's pinned input
BATCH_CHUNKS = 50  # reference chunks that set the speed of a batch of units


def import_dp2():
    """Import dp2 from this checkout's sources; exit non-zero without them."""
    if not (SRC / "dp2" / "__init__.py").is_file():
        sys.exit(f"perfbench: dp2 sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dp2

    if Path(dp2.__file__).resolve().parent != (SRC / "dp2").resolve():
        sys.exit(f"perfbench: dp2 imported from {dp2.__file__}, not from {SRC}")


def set_up(name: str, seed: int, out_dir: Path):
    """Import everything a unit needs and build the seeded inputs."""
    import_dp2()
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.build(np.random.default_rng(seed), out_dir, workload.pool)
    return workload, inputs


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe_setup_seconds(name: str, seed: int, ref) -> tuple:
    """Fresh processes that exit once their inputs are built: their wall
    times, and their CPU times at the nominal speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    wall, cpu = [], []
    for _ in range(SETUP_PROBES):
        mark, c0, t0 = ref.read(), children_cpu(), time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                sys.exit(f"perfbench: set-up probe failed with exit {proc.returncode}")
        factor = ref.factor(mark, ref.read())
        if factor is None:
            sys.exit("perfbench: the reference process did not run during a set-up probe")
        cpu.append((children_cpu() - c0) * factor)
    return wall, cpu


class Tally:
    """Attempted and failed operations over the whole run.

    The run is correct when nothing raised and nothing is wrong, except
    the known defects of ``workloads.KNOWN_FAILURES``, each at most once.
    ``attempted`` and ``failed`` count the checked operations; a known
    defect is listed and counted apart, in ``expected``, so that the
    result's counts do not depend on how many units fit in the run.
    """

    def __init__(self):
        self.attempted = 0
        self.errors: list = []
        self.wrong: list = []
        self.expected: list = []

    def add(self, outcome) -> bool:
        self.attempted += outcome.attempted - len(outcome.expected)
        self.errors += outcome.errors
        self.wrong += outcome.wrong
        self.expected += outcome.expected
        return not (outcome.errors or outcome.wrong)

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.wrong)

    @property
    def correct(self) -> bool:
        import workloads

        return not (self.errors or self.wrong) and len(self.expected) <= len(workloads.KNOWN_FAILURES)


def run_unit(workload, inp, out_dir, tracer=None, run_id=0):
    if tracer is None:
        t0 = time.perf_counter()
        outcome = workload.run(inp, out_dir)
        return time.perf_counter() - t0, outcome
    tracer.install()
    tracer.run = run_id
    try:
        root = tracer.open("unit")
        t0 = time.perf_counter()
        outcome = workload.run(inp, out_dir)
        elapsed = time.perf_counter() - t0
        tracer.close(root)
    finally:
        tracer.uninstall()
    return elapsed, outcome


def machine_stamp() -> str:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"nproc={nproc} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} {blas} machine={platform.machine()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out_dir = WORK / f"out-{os.getpid()}"
    if args.setup_probe:
        set_up(args.workload, args.seed, out_dir)
        print("ready", flush=True)
        return 0

    import_dp2()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, out_dir: Path) -> int:
    import workloads

    workload, inputs = set_up(args.workload, args.seed, out_dir)
    print(f"perfbench dp2: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {machine_stamp()}")
    print(f"why: {workload.why}")
    print(f"stresses: {workload.stresses}; bypasses: {workload.bypasses}")
    print(f"input size: {workload.size}")

    tally = Tally()
    canonical = workloads.canonical_s()
    ok = tally.add(canonical)
    print(f"check {canonical.fingerprint} [{'PASS' if ok else 'FAIL'}]")

    tracer = tracing.Tracer() if args.trace else None
    if workload.pinned:
        elapsed, outcome = run_unit(workload, workload.pinned(out_dir), out_dir, tracer, PINNED_RUN)
        ok = tally.add(outcome)
        known = f", {len(outcome.expected)} known defect" if outcome.expected else ""
        print(f"pinned (untimed): {elapsed:.4f} s {outcome.fingerprint} [{'PASS' if ok else 'FAIL'}{known}]")

    if tracer is None:
        with speed.Reference() as ref:
            print(f"reference process at nice {speed.NICE} on cpu {ref.cpu}")
            setup_wall, setup_cpu = probe_setup_seconds(args.workload, args.seed, ref)
            wall, cpu, factors = time_units(workload, inputs, out_dir, args.seconds, tally, ref)
    else:
        plain, traced, traced_ids = trace_units(workload, inputs, out_dir, args.seconds, tally, tracer)

    for line in tally.errors:
        print(f"FAIL (error) {line}")
    for line in tally.wrong:
        print(f"FAIL (wrong) {line}")
    for line in tally.expected:
        print(f"FAIL (known defect) {line}")
    known = len(tally.expected)
    ratio = (tally.failed + known) / (tally.attempted + known)
    print(f"fail_ratio = {ratio:.6g} ({tally.failed + known} failed of {tally.attempted + known} "
          f"attempted; {len(tally.errors)} errors, {len(tally.wrong)} wrong results, "
          f"{known} known defects; the result line counts the known defects in neither)")

    if tracer is None:
        med = statistics.median
        metrics = {
            "setup_s": (med(setup_cpu), "s",
                        f"median of {len(setup_cpu)} fresh processes, CPU time at nominal speed; "
                        f"raw wall median {med(setup_wall):.6g} s"),
            "wall_s": (med(cpu), "s",
                       f"median of {len(cpu)} units, CPU time at nominal speed; raw wall median "
                       f"{med(wall):.6g} s, raw wall tail {tail_text(wall)}; speed factor median "
                       f"{med(factors):.4g}, range {min(factors):.4g}-{max(factors):.4g}"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                            "ru_maxrss of the measuring process"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, traced_ids)
        t_traced, t_plain = statistics.median(traced), statistics.median(plain)
        metrics["trace.overhead_ratio"] = (
            t_traced / t_plain, "ratio",
            f"traced median unit {t_traced:.4f} s / untraced median unit {t_plain:.4f} s")
        report_self_times(tracer, traced_ids, t_traced)
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.csv"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")

    for name, (value, unit, note) in metrics.items():
        notes = [note] if note else []
        if name in tracing.MOVES:
            notes.append("should move {} on {}".format(*tracing.MOVES[name]))
        print(f"{name} = {value!r} {unit}" + (f" ({'; '.join(notes)})" if notes else ""))

    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def repeat(inputs: list, seconds: float, times: list):
    """Yield (index, input), cycling through ``inputs``: at least MIN_UNITS
    times, and then while one more unit, as long as the median of
    ``times``, still ends within ``seconds``."""
    start = time.perf_counter()
    i = 0
    while i < MIN_UNITS or time.perf_counter() - start + statistics.median(times) <= seconds:
        yield i, inputs[i % len(inputs)]
        i += 1


def time_units(workload, inputs, out_dir, seconds, tally, ref) -> tuple:
    """Untraced units: wall times, CPU times at nominal speed, speed factors.

    Units run in batches that last until the reference has done
    BATCH_CHUNKS chunks; the batch's speed factor scales its CPU times.
    """
    wall, cpu, factors, batch = [], [], [], []
    mark = ref.read()
    for i, inp in repeat(inputs, seconds, wall):
        c0 = time.process_time()
        elapsed, outcome = run_unit(workload, inp, out_dir)
        batch.append(time.process_time() - c0)
        wall.append(elapsed)
        ok = tally.add(outcome)
        print(f"unit {i}: {elapsed:.4f} s, cpu {batch[-1]:.4f} s {outcome.fingerprint} "
              f"[{'PASS' if ok else 'FAIL'}]")
        now = ref.read()
        if now[0] - mark[0] >= BATCH_CHUNKS:
            factors.append(ref.factor(mark, now))
            cpu += [t * factors[-1] for t in batch]
            mark, batch = now, []
    if batch:
        factors.append(ref.factor(mark, ref.read()) or factors[-1])
        cpu += [t * factors[-1] for t in batch]
    return wall, cpu, factors


def trace_units(workload, inputs, out_dir, seconds, tally, tracer) -> tuple:
    """Each unit untraced and traced, in alternating order: wall times of
    both, and the run ids of the traced ones."""
    plain, traced, traced_ids, pairs = [], [], [], []
    for i, inp in repeat(inputs, seconds, pairs):
        # Alternate which copy runs first so neither gets the warmer caches.
        order = (False, True) if i % 2 == 0 else (True, False)
        results = {}
        for with_trace in order:
            results[with_trace] = run_unit(workload, inp, out_dir, tracer if with_trace else None, i)
        (t_plain, o_plain), (t_traced, o_traced) = results[False], results[True]
        plain.append(t_plain)
        traced.append(t_traced)
        traced_ids.append(i)
        pairs.append(t_plain + t_traced)
        ok = tally.add(o_plain) & tally.add(o_traced)
        mismatch = trace_mismatch(tracer, i, o_plain, o_traced)
        if mismatch:
            tally.wrong.append(f"unit {i}: traced run differs from untraced: {mismatch}")
            ok = False
        print(f"unit {i}: {t_plain:.4f} s untraced, {t_traced:.4f} s traced "
              f"{o_plain.fingerprint} [{'PASS' if ok else 'FAIL'}]")
    return plain, traced, traced_ids


def tail_text(times: list) -> str:
    value, pct, n = tracing.tail(times)
    return f"{value:.6g} s (p{pct:.1f} of n={n})"


def trace_mismatch(tracer, run_id: int, plain, traced) -> str:
    """Describe how a traced unit differs from its untraced twin, if at all."""
    if plain.signature != traced.signature:
        return "result signature changed"
    calls = {}
    for span in tracer.spans:
        if span.run == run_id:
            calls[span.name] = calls.get(span.name, 0) + 1
    bad = [f"{name}: {calls.get(name, 0)} spans, {count} expected"
           for name, count in plain.counts.items() if calls.get(name, 0) != count]
    return "; ".join(bad)


def report_self_times(tracer, runs: list, wall: float) -> None:
    """Self time per layer along the unit's blocking path; the rows add up to the unit."""
    rows = tracing.self_time_table(tracer.spans, runs)
    total = sum(t for _, t in rows)
    print(f"self time per unit (median over {len(runs)} traced units):")
    for name, t in rows:
        label = "benchmark glue (unit self time)" if name == "unit" else name
        print(f"  {label:40s} {t:10.6f} s {100.0 * t / total:6.2f} %")
    print(f"  {'sum of rows':40s} {total:10.6f} s (traced wall_s {wall:.6f} s)")


if __name__ == "__main__":
    sys.exit(main())
