"""Run one workload of the euler-align benchmark and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload operators --negative-control ...

Every workload is a closed loop with one client: an iteration starts only
after the previous one has finished and been checked.  The first iteration
warms caches and is checked but not timed; timed iterations follow until S
seconds (warm-up included) have passed, and at least three are timed.
Reported times are host-normalised (see CAL_REF_S).  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` it spends half of S
untraced and half traced and reports the per-layer metrics, writing the
spans to ``.perfbench_out/trace-<workload>-seed<N>.jsonl.gz``.

Metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("EULER_ALIGN_OUT", None)  # it would redirect the CLI's --out

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MIN_TIMED = 3

#: The shared host this benchmark was written on runs the same code 10-40%
#: slower for stretches of seconds to minutes.  Each timed interval is divided
#: by the host factor measured around it, the calibration kernel's mean time
#: just before and just after over CAL_REF_S, so reported times are seconds on
#: a host where the kernel takes CAL_REF_S.  Raw medians are printed beside.
CAL_REF_S = 0.012
_CAL_SIGNAL = np.cos(np.linspace(0.0, 64.0, 8192))
_CAL_FILTER = np.exp(-np.linspace(0.0, 4.0, 8192))
_CAL_FFT, _CAL_IFFT = np.fft.fft, np.fft.ifft  # bound before any tracer patches numpy.fft


def calibration_s() -> float:
    """Fastest of three runs of a fixed numpy kernel, in seconds.

    The kernel mixes n = 8192 FFTs, like a spectral step at the large size,
    with n = 1024 small-array calls, like a step at the shipped size.
    """
    best = math.inf
    small = _CAL_SIGNAL[:1024]
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(24):
            _CAL_IFFT(_CAL_FFT(_CAL_SIGNAL) * _CAL_FILTER)
        for _ in range(300):
            np.abs(np.roll(small, 1) - small).max()
        best = min(best, time.perf_counter() - t0)
    return best


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "fft_backend": {"numpy.fft": "pocketfft", "scipy.fft": "pocketfft",
                        "scipy.fft.workers": scipy.fft.get_workers()},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pool_start_method": multiprocessing.get_start_method(),
    }


class Tally:
    """Operations attempted and failed over a run, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, chk) -> None:
        self.attempted += chk.attempted
        self.failed += len(chk.failures)
        for reason in chk.failures[:5]:
            print(f"FAILED: {reason}", file=sys.stderr)


def run_loop(wl, seconds: float, tally: Tally, *, warmup: bool, min_timed: int, tracer=None):
    """Closed loop over ``wl``.

    Returns one (wall seconds, host factor, work units) sample per timed
    iteration, and the last iteration's reference error.
    """
    samples: list[tuple[float, float, int]] = []
    start = time.perf_counter()
    if warmup:
        tally.add(wl.check(wl.run_once()))
    before = calibration_s()
    while len(samples) < min_timed or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.iteration = len(samples)
            wl.trace_extra(tracer)
            with tracer.span("bench.iteration"):
                t0 = time.perf_counter()
                result = wl.run_once()
                wall = time.perf_counter() - t0
            tracer.iteration = -1
        else:
            t0 = time.perf_counter()
            result = wl.run_once()
            wall = time.perf_counter() - t0
        after = calibration_s()
        chk = wl.check(result)
        tally.add(chk)
        samples.append((wall, (before + after) / (2.0 * CAL_REF_S), chk.work))
        before = after
    return samples, chk.ref_err


def setup_times(wl) -> list[tuple[float, float]]:
    """(seconds, host factor) of each fresh-interpreter set-up probe."""
    args = [sys.executable, str(HERE / "setup_probe.py"), *wl.setup_args()]
    samples = []
    before = calibration_s()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        after = calibration_s()
        samples.append((float(out.stdout.split()[-1]), (before + after) / (2.0 * CAL_REF_S)))
        before = after
    return samples


def normalised(samples) -> list[float]:
    return [s[0] / s[1] for s in samples]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool worker, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def end_to_end(wl, seconds: float, tally: Tally) -> dict[str, tuple[float, int]]:
    samples, ref_err = run_loop(wl, seconds, tally, warmup=True, min_timed=MIN_TIMED)
    rss = peak_rss_mb()  # before the set-up probes, which are children too
    setups = setup_times(wl)
    med = statistics.median
    print(f"raw medians: wall {med(s[0] for s in samples):.6g} s, set-up {med(s[0] for s in setups):.6g} s; "
          f"host factor median {med(s[1] for s in samples + setups):.4g}")
    return {
        "wall_s": (med(normalised(samples)), len(samples)),
        "steps_per_s": (med(work * f / wall for wall, f, work in samples), len(samples)),
        "setup_s": (med(normalised(setups)), len(setups)),
        "peak_rss_mb": (rss, 1),
        "ref_err": (ref_err, len(samples)),
    }


def traced(wl, args, tally: Tally) -> dict[str, tuple[float, int]]:
    import tracing
    import workloads

    plain, _ = run_loop(wl, args.seconds / 2, tally, warmup=True, min_timed=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samples, _ = run_loop(wl, args.seconds / 2, tally, warmup=False, min_timed=1, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = statistics.median(normalised(samples)) / statistics.median(normalised(plain))
    metrics = tracing.layer_metrics(tracer, len(samples), workloads.JOBS, overhead)
    out = ROOT / ".perfbench_out" / f"trace-{wl.name}-seed{wl.seed}.jsonl.gz"
    tracer.write(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    if isinstance(wl, workloads.Spectral8192):
        counts = tracing.count_one_step(wl.cfg)
        for key, base in tracing.BASELINE_ONE_STEP.items():
            print(f"one spectral step: {key} = {counts[key]} (baseline {base})")
    return {name: (value, len(samples)) for name, value in metrics.items()}


def emit(spec: list[dict], metrics: dict[str, tuple[float, int]], tally: Tally) -> None:
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for m in spec:
        value, n = metrics[m["name"]]
        print(f"{m['name']:<30} {value:>14.6g} {m['unit']:<8} (n={n}, {m['better']} is better)")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_ratio':<30} {ratio:>14.6g} {'1':<8} ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in spec},
    }))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="operators only: inject the selftest's Hilbert sign error")
    args = parser.parse_args(argv)
    if args.negative_control and args.workload != "operators":
        parser.error("--negative-control applies to the operators workload only")
    if not (SRC / "euler_align" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no euler_align source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tally = Tally()
    try:
        cls = workloads.WORKLOADS[args.workload]
        extra = {"negative_control": True} if args.negative_control else {}
        wl = cls(ROOT, work, args.seed, **extra)
        print("environment: " + json.dumps(environment()))
        if args.trace:
            metrics = traced(wl, args, tally)
        else:
            metrics = end_to_end(wl, args.seconds, tally)
    except Exception:  # the program under test failed: report it, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(spec["per_layer" if args.trace else "end_to_end"], metrics, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
