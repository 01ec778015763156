"""Span tracer that measures euler_align's layers from outside the package.

The tracer replaces public functions of the package with wrappers that
record one span per call: name, start, end, parent span and the workload
iteration it belongs to.  Spans stay in memory and are written out once, at
the end of a run.  FFT entry points of ``numpy.fft`` and ``scipy.fft`` (and
``fftconvolve`` as seen by ``fracops``) are counted rather than spanned, so
their time stays in the self time of the function that called them.

Because the wrappers are installed as module attributes, every caller that
looks a function up through a module at call time is seen, including calls
between modules of the package (``solver`` calling ``velocity_from_state``).
Work done inside pool worker processes is not recorded.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import statistics
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import numpy.fft
import scipy.fft

import euler_align
from euler_align import cli, closedform, config, diagnostics, fracops, grid, selftest, solver

_MODULES = (euler_align, grid, fracops, closedform, solver, diagnostics, selftest, config, cli)

#: Public functions wrapped with spans, by the module (layer) that owns them.
_SPANNED = {
    fracops: ("velocity_from_state", "periodic_image_correction", "apply_multiplier",
              "left_tail_anchor", "fractional_laplacian_quadrature"),
    grid: ("antiderivative", "integrate", "lp_norm"),
    solver: ("run", "step", "make_initial_state", "save_trajectory", "load_trajectory"),
    diagnostics: ("scaling_limit_experiment", "barenblatt_limit_experiment", "mollify",
                  "comparison_principle_report", "oleinik_check", "decay_fit"),
    selftest: ("run_selftest", "cross_validation_errors"),
    config: ("load_config", "parse_config"),
    cli: ("main",),
}

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


def _public_functions(module) -> tuple[str, ...]:
    return tuple(
        name for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and not name.startswith("_")
        and obj.__module__ == module.__name__
    )


def _transform_points(name: str, out: np.ndarray) -> int:
    """Transform length N of one call, taken from the output array.

    A real-to-complex transform returns m = N//2 + 1 points on its last axis;
    it is counted as 2(m - 1) samples.
    """
    if name.startswith("rfft"):
        return out.size // out.shape[-1] * 2 * (out.shape[-1] - 1)
    return out.size


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall.

    Counters only count while ``iteration`` is set to a workload iteration
    (>= 0); spans are always recorded, and ``SpanStats`` skips those outside.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, iteration]
        self.counts: Counter = Counter()
        self.iteration = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.iteration])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def _spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(idx)
            if after is not None and self.iteration >= 0:
                after(args, kwargs, result)
            return result

        return wrapper

    def _fft_counted(self, family: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self.iteration < 0:
                return out
            self.counts[f"{family}_fft_calls"] += 1
            self.counts["fft_points"] += _transform_points(name, out)
            self.counts["fft_bytes"] += np.asarray(a).nbytes + out.nbytes
            return out

        return wrapper

    def _call_counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.iteration >= 0:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every package-module name bound to ``original`` at ``wrapper``."""
        for module in _MODULES:
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self._set(module, attr, wrapper)

    def _count_quadrature_points(self, args, kwargs, result) -> None:
        self.counts["quadrature_points"] += int(np.size(result))

    def _count_bytes_written(self, args, kwargs, manifest) -> None:
        outdir = Path(args[1] if len(args) > 1 else kwargs["outdir"])
        names = [e["file"] for e in manifest["states"]] + [manifest["summary_file"], "manifest.json"]
        self.counts["bytes_written"] += sum((outdir / n).stat().st_size for n in names)

    def _count_selftest_checks(self, args, kwargs, report) -> None:
        self.counts["selftest_checks"] += len(report.records)

    def install(self) -> None:
        after = {
            "fractional_laplacian_quadrature": self._count_quadrature_points,
            "save_trajectory": self._count_bytes_written,
            "run_selftest": self._count_selftest_checks,
        }
        spanned = {**_SPANNED, closedform: _public_functions(closedform)}
        for module, names in spanned.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(module, name)
                wrapper = self._spanned(f"{layer}.{name}", original, after.get(name))
                self._replace_everywhere(original, wrapper)
        for family, module in (("numpy", numpy.fft), ("scipy", scipy.fft)):
            for name in _FFT_NAMES:
                self._set(module, name, self._fft_counted(family, name, getattr(module, name)))
        self._set(fracops, "fftconvolve", self._call_counted("fftconvolve_calls", fracops.fftconvolve))
        ws = fracops.SpectralWorkspace
        self._set(ws, "__init__", self._spanned("fracops.workspace_init", ws.__init__))
        self._set(ws, "image_kernel", self._spanned("fracops.image_kernel", ws.image_kernel))
        self._set(grid.Field, "__post_init__", self._spanned("grid.Field", grid.Field.__post_init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write all spans as gzipped JSON lines (times in seconds from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, it) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "iteration": it}) + "\n")


class SpanStats:
    """Per-name totals over the spans of workload iterations (iteration >= 0).

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the traced code is single-threaded.
    ``outer`` sums, per layer, the spans whose parent belongs to another layer,
    so a layer calling itself is not counted twice.
    """

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.outer: dict[str, float] = defaultdict(float)
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, parent, it) in enumerate(spans):
            if it < 0:
                continue
            dur = end - start
            layer = name.split(".", 1)[0]
            parent_name = spans[parent][0] if parent >= 0 else ""
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            self.calls[name] += 1
            self.durations[name].append(dur)
            self.under[(parent_name, name)] += dur
            if parent_name.split(".", 1)[0] != layer:
                self.outer[layer] += dur


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, iterations: int, jobs: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; times are seconds per workload iteration."""
    st = SpanStats(tracer.spans)
    c = tracer.counts
    steps = st.calls["solver.step"]

    def per_it(x: float) -> float:
        return x / iterations

    def per_step(x: float) -> float:
        return x / steps if steps else 0.0

    cases = st.durations["bench.case"]
    sweep_s = per_it(st.under[("bench.iteration", "diagnostics.scaling_limit_experiment")])
    fft_calls = c["numpy_fft_calls"] + c["scipy_fft_calls"]
    return {
        "fracops.velocity_per_step": per_step(st.calls["fracops.velocity_from_state"]),
        "fracops.velocity_s": per_it(st.total["fracops.velocity_from_state"]),
        "fracops.image_correction_s": per_it(st.total["fracops.periodic_image_correction"]),
        "fracops.fftconvolve_per_step": per_step(c["fftconvolve_calls"]),
        "fracops.tail_anchor_s": per_it(st.total["fracops.left_tail_anchor"]),
        "fracops.multiplier_s": per_it(st.total["fracops.apply_multiplier"]),
        "fracops.fft_calls": per_it(fft_calls),
        "fracops.fft_calls_per_step": per_step(fft_calls),
        "fracops.fft_points_per_step": per_step(c["fft_points"]),
        "fracops.fft_bytes_per_step": per_step(c["fft_bytes"]),
        "fracops.workspace_build_s": per_it(st.total["fracops.workspace_init"]
                                            + st.total["fracops.image_kernel"]),
        "fracops.quadrature_s": per_it(st.total["fracops.fractional_laplacian_quadrature"]),
        "fracops.quadrature_points": per_it(c["quadrature_points"]),
        "grid.field_new_per_step": per_step(st.calls["grid.Field"]),
        "grid.field_s": per_it(st.total["grid.Field"]),
        "grid.antiderivative_s": per_it(st.total["grid.antiderivative"]),
        "grid.norms_s": per_it(st.total["grid.integrate"] + st.total["grid.lp_norm"]),
        "solver.steps": per_it(steps),
        "solver.step_s_p50": _percentile(st.durations["solver.step"], 50),
        "solver.step_s_p99": _percentile(st.durations["solver.step"], 99),
        "solver.step_self_s": per_it(st.self_time["solver.step"]),
        "solver.init_s": per_it(st.total["solver.make_initial_state"]),
        "solver.run_self_s": per_it(st.self_time["solver.run"]),
        "solver.save_s": per_it(st.total["solver.save_trajectory"]),
        "solver.bytes_written": per_it(c["bytes_written"]),
        "solver.load_s": per_it(st.total["solver.load_trajectory"]),
        "closedform.eval_s": per_it(st.outer["closedform"]),
        "closedform.calls": per_it(sum(n for k, n in st.calls.items() if k.startswith("closedform."))),
        "diagnostics.case_s": statistics.fmean(cases) if cases else 0.0,
        "diagnostics.sweep_s": sweep_s,
        "diagnostics.parallel_eff": per_it(sum(cases)) / (jobs * sweep_s) if sweep_s else 0.0,
        "diagnostics.mollify_s": per_it(st.total["diagnostics.mollify"]),
        "selftest.run_s": per_it(st.total["selftest.run_selftest"]),
        "selftest.xval_s": per_it(st.total["selftest.cross_validation_errors"]),
        "selftest.checks": per_it(c["selftest_checks"]),
        "config.load_s": per_it(st.outer["config"]),
        "cli.self_s": per_it(st.self_time["cli.main"]),
        "trace.overhead_ratio": overhead_ratio,
    }


#: Calls made by one spectral step at the commit that defined this benchmark
#: (the ROADMAP baseline): velocity is rebuilt three times per step.
BASELINE_ONE_STEP = {"numpy_fft_calls": 22, "fftconvolve_calls": 3, "velocity_calls": 3}


def count_one_step(cfg) -> dict[str, int]:
    """FFT, fftconvolve and velocity calls made by one ``solver.step`` of cfg."""
    grid_ = cfg.make_grid()
    ws = fracops.SpectralWorkspace(grid_, cfg.alpha)
    state, _ = solver.make_initial_state(cfg.initial, grid_, cfg.alpha, ws=ws,
                                         image_correction=cfg.image_correction)
    dt = 0.5 * cfg.cfl * grid_.spacing / float(np.abs(state.u.values).max())
    tracer = Tracer()
    tracer.install()
    try:
        tracer.iteration = 0
        solver.step(state, dt, cfg, ws)
    finally:
        tracer.uninstall()
    return {
        "numpy_fft_calls": tracer.counts["numpy_fft_calls"],
        "fftconvolve_calls": tracer.counts["fftconvolve_calls"],
        "velocity_calls": SpanStats(tracer.spans).calls["fracops.velocity_from_state"],
    }
