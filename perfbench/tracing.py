"""Spans around dp2's layers, recorded from outside the program.

:class:`Tracer` replaces functions and methods of dp2 (and the FFT entry
points of ``numpy.fft`` and ``scipy.fft``) by wrappers that record one
:class:`Span` per call: name, start, end, parent span and run id (the
unit it belongs to).  A replaced function is also replaced under every
other name it is bound to in a loaded ``dp2`` module, such as
``selfsim.integrate`` or ``cli.build_solution``, so calls through an
import alias are seen too.  Spans stay in memory; :func:`layer_metrics`
turns them into the per-layer metrics and :meth:`Tracer.write` stores
them when the run ends.

Self time is a span's duration minus the durations of its children; a
single-threaded program never runs two children of one span at once.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")

# (module, attribute path, span name).  Dotted attribute paths are methods.
LAYERS = (
    ("dp2.pdesolver", "run_blowup_experiment", "pdesolver.run_blowup_experiment"),
    ("dp2.pdesolver", "step", "pdesolver.step"),
    ("dp2.pdesolver", "_tendency_arrays", "pdesolver.tendency"),
    ("dp2.pdesolver", "trig_interp", "pdesolver.trig_interp"),
    ("dp2.pdesolver", "RunSampler.__call__", "pdesolver.sampler"),
    ("dp2.pdesolver", "RunSampler._state_at", "pdesolver.sampler_state_at"),
    ("dp2.emden", "integrate", "emden.integrate"),
    ("dp2.emden", "solve_ivp", "emden.solve_ivp"),
    ("dp2.emden", "touchdown_time_quadrature", "emden.quadrature"),
    ("dp2.cli", "cmd_sweep", "cli.sweep"),
    ("dp2.cli", "cmd_verify", "cli.verify"),
    ("dp2.cli", "write_csv", "cli.write_csv"),
    ("dp2.residual", "convergence_study", "residual.convergence_study"),
    ("dp2.residual", "mass_equation_residual", "residual.mass"),
    ("dp2.residual", "momentum_equation_residual", "residual.momentum"),
    ("dp2.selfsim", "build_solution", "selfsim.build"),
    ("dp2.selfsim", "SelfSimilarSolution.evaluate", "selfsim.evaluate"),
    ("dp2.profile", "Profile.eval_f", "profile.eval_f"),
) + tuple(("numpy.fft", f, "fft") for f in FFT_FUNCS) + tuple(
    ("scipy.fft", f, "fft") for f in FFT_FUNCS
)

SAMPLERS = ("selfsim.evaluate", "pdesolver.sampler")
STENCILS = ("residual.mass", "residual.momentum")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "size", "failed")

    def __init__(self, name, start, parent, run):
        self.name, self.start, self.end, self.parent, self.run = name, start, start, parent, run
        self.size = 0  # bytes, points or evaluations, depending on the layer
        self.failed = False


def _size_of(name: str, args, result) -> int:
    """Work count a layer reports alongside its span."""
    if name == "fft":
        return getattr(args[0], "nbytes", 0) + result.nbytes
    if name == "pdesolver.trig_interp":
        grid, _, xs = args
        return len(xs) * (grid.n // 2 + 1) * 16
    if name == "emden.solve_ivp":
        return int(result.nfev)
    if name == "cli.write_csv":
        return Path(args[0]).stat().st_size
    if name in SAMPLERS:
        return getattr(args[2], "size", 1)  # method arguments: (self, t, x)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.run))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, failed: bool = False) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()
        return span

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx).size = _size_of(name, args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None or getattr(original, "__wrapped_by_tracer__", False):
                continue
            wrapper = self._wrap(original, name)
            self._set(owner, leaf, wrapper)
            if not path:
                # Rebind import aliases of a module-level function too.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is module or not (mod_name == "dp2" or mod_name.startswith("dp2.")):
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, alias, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,run,size,failed\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                         f"{s.parent},{s.run},{s.size},{int(s.failed)}\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _has_ancestor(spans: list, s: Span, names) -> bool:
    while s.parent >= 0:
        s = spans[s.parent]
        if s.name in names:
            return True
    return False


def tail(values: list) -> tuple:
    """Highest order statistic with at least ten samples beyond it.

    Returns (value, percentile, samples).  Below 22 samples that statistic
    would not lie above the median, and the median stands in (percentile 50).
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return 0.0, 0.0, 0
    k = n - 11
    if 2 * (k + 1) <= n + 1:
        return statistics.median(vals), 50.0, n
    return vals[k], 100.0 * (k + 1) / n, n


# Which end-to-end metric each layer metric should move, and on which workload.
MOVES = {
    "pdesolver.steps": ("wall_s", "blowup"),
    "pdesolver.step_self_ms_p50": ("wall_s", "blowup"),
    "pdesolver.tendency_calls": ("wall_s", "blowup"),
    "pdesolver.tendency_self_s": ("wall_s", "blowup"),
    "pdesolver.fft_calls": ("wall_s", "blowup"),
    "pdesolver.fft_per_step": ("wall_s", "blowup"),
    "pdesolver.fft_s": ("wall_s", "blowup"),
    "pdesolver.fft_bytes_computed": ("wall_s", "blowup"),
    "pdesolver.trig_interp_calls": ("wall_s", "verify_solver"),
    "pdesolver.trig_interp_s": ("wall_s", "verify_solver"),
    "pdesolver.trig_interp_bytes_computed": ("peak_rss_mb", "verify_solver"),
    "pdesolver.sampler_steps": ("wall_s", "verify_solver"),
    "pdesolver.sampler_self_s": ("wall_s", "verify_solver"),
    "emden.integrate_calls": ("wall_s", "fate_sweep"),
    "emden.integrate_ms_p50": ("wall_s", "fate_sweep"),
    "emden.integrate_ms_tail": ("wall_s", "fate_sweep"),
    "emden.rhs_evals": ("wall_s", "fate_sweep"),
    "emden.quadrature_calls": ("wall_s", "fate_sweep"),
    "emden.quadrature_ms_p50": ("wall_s", "fate_sweep"),
    "emden.quadrature_ms_tail": ("wall_s", "fate_sweep"),
    "emden.quadrature_s": ("wall_s", "fate_sweep"),
    "emden.quadrature_failed": ("the printed fail_ratio", "fate_sweep"),
    "cli.sweep_self_s": ("wall_s", "fate_sweep"),
    "cli.write_csv_s": ("wall_s", "verify_selfsim"),
    "cli.csv_bytes": ("wall_s", "verify_selfsim"),
    "residual.mass_residual_calls": ("wall_s", "verify_selfsim"),
    "residual.momentum_residual_calls": ("wall_s", "verify_selfsim"),
    "residual.stencil_self_s": ("wall_s", "verify_selfsim"),
    "residual.sampled_points": ("wall_s", "verify_selfsim, verify_solver"),
    "selfsim.evaluate_self_s": ("wall_s", "verify_selfsim"),
    "selfsim.build_s": ("wall_s", "verify_selfsim"),
    "profile.eval_f_s": ("wall_s", "verify_selfsim"),
}


def layer_metrics(spans: list, runs: list) -> dict:
    """Per-layer metrics from the spans of the traced units ``runs``.

    Counts, sums and bytes are per unit (median over units), except
    ``emden.quadrature_failed``, which counts every span of the run, the
    pinned inputs' too; ``_p50`` and ``_tail`` pool every span of the
    layer over the units.  Returns
    name -> (value, unit, note).
    """
    selfs = self_times(spans)
    per_run = defaultdict(lambda: defaultdict(float))
    pooled = defaultdict(list)

    def add(run, key, value):
        per_run[run][key] += value

    for s, self_t in zip(spans, selfs):
        if s.run not in runs:
            continue
        dur, r, n = s.end - s.start, s.run, s.name
        add(r, n + ".calls", 1)
        add(r, n + ".total", dur)
        add(r, n + ".self", self_t)
        add(r, n + ".size", s.size)
        if n in ("pdesolver.step", "emden.integrate", "emden.quadrature"):
            pooled[n].append((self_t if n == "pdesolver.step" else dur) * 1e3)
        if n == "pdesolver.step" and _has_ancestor(spans, s, ("pdesolver.sampler",)):
            add(r, "sampler_steps", 1)
        if n == "fft" and _has_ancestor(spans, s, ("pdesolver.step",)):
            add(r, "fft_in_steps", 1)
        if n in SAMPLERS and _has_ancestor(spans, s, STENCILS):
            add(r, "stencil_points", s.size)

    def med(key):
        return statistics.median(per_run[r][key] for r in runs) if runs else 0.0

    def total(key):
        return sum(per_run[r][key] for r in runs)

    steps = total("pdesolver.step.calls")
    metrics = {
        "pdesolver.steps": (med("pdesolver.step.calls"), "count", ""),
        "pdesolver.step_self_ms_p50": (
            statistics.median(pooled["pdesolver.step"]) if pooled["pdesolver.step"] else 0.0, "ms", ""),
        "pdesolver.tendency_calls": (med("pdesolver.tendency.calls"), "count", ""),
        "pdesolver.tendency_self_s": (med("pdesolver.tendency.self"), "s", ""),
        "pdesolver.fft_calls": (med("fft.calls"), "count", ""),
        "pdesolver.fft_per_step": (total("fft_in_steps") / steps if steps else 0.0, "1/step", ""),
        "pdesolver.fft_s": (med("fft.total"), "s", ""),
        "pdesolver.fft_bytes_computed": (med("fft.size"), "B", "input+output array bytes"),
        "pdesolver.trig_interp_calls": (med("pdesolver.trig_interp.calls"), "count", ""),
        "pdesolver.trig_interp_s": (med("pdesolver.trig_interp.total"), "s", ""),
        "pdesolver.trig_interp_bytes_computed": (
            med("pdesolver.trig_interp.size"), "B", "len(xs)*(n/2+1)*16 per call"),
        "pdesolver.sampler_steps": (med("sampler_steps"), "count", ""),
        "pdesolver.sampler_self_s": (
            med("pdesolver.sampler.self") + med("pdesolver.sampler_state_at.self"), "s", ""),
        "emden.integrate_calls": (med("emden.integrate.calls"), "count", ""),
        "emden.rhs_evals": (med("emden.solve_ivp.size"), "count", "solve_ivp nfev"),
        "emden.quadrature_calls": (med("emden.quadrature.calls"), "count", ""),
        "emden.quadrature_s": (med("emden.quadrature.total"), "s", ""),
        "emden.quadrature_failed": (
            sum(s.failed for s in spans if s.name == "emden.quadrature"), "count",
            "whole run, pinned inputs included"),
        "cli.sweep_self_s": (med("cli.sweep.self"), "s", ""),
        "cli.write_csv_s": (med("cli.write_csv.total"), "s", ""),
        "cli.csv_bytes": (med("cli.write_csv.size"), "B", ""),
        "residual.mass_residual_calls": (med("residual.mass.calls"), "count", ""),
        "residual.momentum_residual_calls": (med("residual.momentum.calls"), "count", ""),
        "residual.stencil_self_s": (med("residual.mass.self") + med("residual.momentum.self"), "s", ""),
        "residual.sampled_points": (med("stencil_points"), "count", ""),
        "selfsim.evaluate_self_s": (med("selfsim.evaluate.self"), "s", ""),
        "selfsim.build_s": (med("selfsim.build.total"), "s", ""),
        "profile.eval_f_s": (med("profile.eval_f.total"), "s", ""),
    }
    for layer, key in (("emden.integrate", "emden.integrate"), ("emden.quadrature", "emden.quadrature")):
        samples = pooled[layer]
        metrics[key + "_ms_p50"] = (statistics.median(samples) if samples else 0.0, "ms", f"n={len(samples)}")
        value, pct, n = tail(samples)
        metrics[key + "_ms_tail"] = (value, "ms", f"p{pct:.1f} of n={n}")
    return metrics


def self_time_table(spans: list, runs: list) -> list:
    """(span name, median self seconds per unit) rows, largest first."""
    selfs = self_times(spans)
    per_run = defaultdict(lambda: defaultdict(float))
    for s, self_t in zip(spans, selfs):
        if s.run in runs:
            per_run[s.run][s.name] += self_t
    names = {n for r in runs for n in per_run[r]}
    rows = [(n, statistics.median(per_run[r][n] for r in runs)) for n in names]
    return sorted(rows, key=lambda row: -row[1])
