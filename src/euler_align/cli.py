"""Command-line interface: configure runs, persist artifacts, gate on checks.

Subcommands
-----------
selftest   Run the operator-identity suite; write a JSON report.
simulate   Run one configured simulation; write state/summary CSVs.
verify     Re-check invariants (mass, comparison, max principle, decay,
           slope boundedness) on a previously saved run directory.
scaling    Run the rarefaction or self-similar scaling-limit experiment.
profiles   Tabulate the closed-form profile family for one order alpha.

Exit codes: 0 success, 1 check failure, 2 bad input, 3 runtime abort.
``main`` alone picks them, by exception class: ``ConfigError``,
``GridError``, ``DiagnosticsError``, ``OSError`` and rejected arguments give
2, ``SolverError`` gives 3.  ``main`` makes the output directory before the
command runs; if it cannot (a file is in the way) it exits 2 at once, with no
manifest, since there is nowhere to put one.  So does ``verify`` when its run
directory does not exist and no ``--out`` is given: the default output
directory, ``RUNDIR/verify``, would create it.  Otherwise it writes
``manifest.json`` there, once, on every path — on failure with the reason, and
also when an unexpected exception ends the command (that exception then
propagates) — so that partial artifacts are always identifiable.  Its
``wall_time_seconds`` times the whole command; ``simulate`` adds the keys of
``save_trajectory``'s manifest (``config_ini``, ``run_wall_time_seconds``, ...).
CSV payloads use the %.17g format and contain no timestamps: rerunning the same
config with the same code version produces byte-identical CSV files.  The
``EULER_ALIGN_OUT`` environment variable overrides ``--out``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._version import __version__
from .closedform import getoor_fraclap, getoor_profile, velocity_profile_U
from .config import ConfigError, dump_config, load_config
from .diagnostics import (
    DiagnosticsError,
    ScalingReport,
    barenblatt_limit_experiment,
    comparison_principle_report,
    decay_fit,
    oleinik_check,
    reference_decay_slope,
    scaling_limit_experiment,
)
from .fracops import FracOrder
from .grid import GridError, _write_csv
from .selftest import run_selftest
from .solver import SolverError, Trajectory, _jsonable, _write_json, load_trajectory, run, save_trajectory

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RUNTIME_ABORT = 3

# Per-run invariant gates used by `simulate` and `verify`.
MASS_DRIFT_TOL = 1e-10
MAX_PRINCIPLE_TOL = 1e-6
COMPARISON_TOL = 1e-6
NORM_MONOTONE_SLACK = 1e-9
DECAY_BOUND_SLACK = 0.05
OLEINIK_GROWTH_LIMIT = 0.5  # the t * sup(u_x)+ growth exponent must stay below it
SCALING_SLACK = 0.10

VERIFY_CHECKS = ("mass", "comparison", "maxprinciple", "decay", "oleinik")
# The `verify` checks that `_trajectory_checks` computes, by the keys it stores them under.
_SUMMARY_CHECKS = {"mass": ("mass_rho", "mass_G"), "maxprinciple": ("max_principle",), "comparison": ("comparison",)}


class _BadInput(Exception):
    """An argument or input the CLI itself rejects (exit 2)."""


def _check(value: float, tolerance: float, passed: bool | None = None) -> dict:
    ok = bool(value <= tolerance) if passed is None else bool(passed)
    return {"passed": ok, "value": _jsonable(float(value)), "tolerance": tolerance}


def _trajectory_checks(traj: Trajectory) -> dict[str, dict]:
    """Invariant gates computable from any run's summary series."""
    s = traj.summary
    checks: dict[str, dict] = {}

    m0 = s["mass_rho"][0]
    drift_rho = float(np.abs(s["mass_rho"] - m0).max() / max(abs(m0), 1e-12))
    checks["mass_rho"] = _check(drift_rho, MASS_DRIFT_TOL)
    g0 = s["mass_G"][0]
    drift_g = float(np.abs(s["mass_G"] - g0).max() / max(abs(g0), 1e-12))
    checks["mass_G"] = _check(drift_g, MASS_DRIFT_TOL)

    u0 = s["u_linf"][0]
    viol = float((s["u_linf"].max() - u0) / max(u0, 1e-12))
    checks["max_principle"] = _check(viol, MAX_PRINCIPLE_TOL)

    if len(s["rho_l2"]) >= 2:
        growth = float(np.diff(s["rho_l2"]).max() / max(s["rho_l2"][0], 1e-12))
        checks["rho_l2_monotone"] = _check(growth, NORM_MONOTONE_SLACK)

    report = comparison_principle_report(traj)
    if math.isfinite(report.a) and math.isfinite(report.b):
        worst = min(report.min_g, report.min_arho_minus_g, report.min_g_minus_brho)
        checks["comparison"] = _check(-worst, COMPARISON_TOL * report.rho0_linf)
    return checks


def _series_monotone_checks(name: str, distances) -> dict[str, dict]:
    """Module-invariant gate: non-increasing within slack, strict end-to-end drop."""
    d = np.asarray(distances, dtype=float)
    worst_ratio = float((d[1:] / np.maximum(d[:-1], 1e-300)).max()) if len(d) > 1 else 0.0
    endpoint = float(d[-1] / max(d[0], 1e-300)) if len(d) > 1 else 0.0
    return {
        f"{name}_non_increasing": _check(worst_ratio, 1.0 + SCALING_SLACK),
        f"{name}_endpoint_decrease": _check(endpoint, 1.0, passed=endpoint < 1.0),
    }


# ---------------------------------------------------------------------------
# Subcommands


def _gate(manifest: dict, checks: dict[str, dict], failure: str) -> int:
    """Record and print the checks; exit 1 with ``failure`` if any failed."""
    manifest["checks"] = checks
    for name, c in checks.items():
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {name}: value={c['value']} tolerance={c['tolerance']}")
    if all(c["passed"] for c in checks.values()):
        return EXIT_OK
    manifest["failure"] = failure
    return EXIT_CHECK_FAILED


def cmd_selftest(args: argparse.Namespace, manifest: dict) -> int:
    if args.seed < 0:
        raise _BadInput(f"--seed must be a non-negative integer, got {args.seed}")
    report = run_selftest(seed=args.seed, inject_hilbert_sign_error=args.inject_hilbert_sign_error)
    _write_json(args.out / "selftest_report.json", asdict(report))
    manifest.update(files=["selftest_report.json"], seed=args.seed)
    checks = {
        f"{r.check}" + (f"_alpha{r.alpha:g}" if r.alpha is not None else ""): _check(
            r.max_error, r.tolerance, passed=r.passed
        )
        for r in report.records
    }
    code = _gate(manifest, checks, "one or more operator identities failed")
    print(f"selftest: {'pass' if report.passed else 'FAIL'} ({len(report.records)} checks, {report.wall_time:.1f}s)")
    return code


def cmd_simulate(args: argparse.Namespace, manifest: dict) -> int:
    cfg = load_config(args.config)
    manifest["config_ini"] = dump_config(cfg)  # fails before the run if the run directory cannot store it
    traj = run(cfg)
    manifest.update(save_trajectory(traj, args.out))
    code = _gate(manifest, _trajectory_checks(traj), "a per-run invariant check failed")
    print(f"simulate: wrote {len(traj.states)} states to {args.out} ({traj.steps} steps)")
    return code


def _verify_decay(traj: Trajectory) -> dict[str, dict]:
    checks = {}
    alpha = traj.config.alpha
    times = traj.summary["t"]
    for p, column in ((2.0, "rho_l2"), (4.0, "rho_l4")):
        bound = reference_decay_slope(p, alpha) + DECAY_BOUND_SLACK
        checks[f"decay_bound_p{p:g}"] = _check(decay_fit(times, traj.summary[column]), bound)
    return checks


def cmd_verify(args: argparse.Namespace, manifest: dict) -> int:
    which = tuple(dict.fromkeys(w.strip() for w in args.which.split(",") if w.strip()))
    bad = [w for w in which if w not in VERIFY_CHECKS]
    if bad or not which:
        raise _BadInput(f"unknown checks {bad}; choose from {VERIFY_CHECKS}" if bad else "no checks requested")
    manifest.update(rundir=str(args.rundir), which=list(which))
    try:
        traj = load_trajectory(args.rundir)
    except (SolverError, OSError, KeyError, TypeError, ValueError) as exc:
        raise _BadInput(f"cannot load run directory {args.rundir}: {exc}") from exc

    base = _trajectory_checks(traj)
    checks = manifest["checks"]
    for name in which:
        if name == "decay":
            checks.update(_verify_decay(traj))
        elif name == "oleinik":
            growth = oleinik_check(traj)
            checks["oleinik_bounded"] = _check(growth, OLEINIK_GROWTH_LIMIT, passed=growth < OLEINIK_GROWTH_LIMIT)
        elif name == "comparison" and "comparison" not in base:
            raise DiagnosticsError(
                "comparison check needs a proportional-mode run with recorded sandwich constants"
            )
        else:
            checks.update((key, base[key]) for key in _SUMMARY_CHECKS[name])
    return _gate(manifest, checks, "a requested invariant check failed")


def _scaling_csv(out: Path, report: ScalingReport) -> list[str]:
    if report.mode == "rarefaction":
        columns = [
            ("u_distance", report.distances),
            ("rho_distance", report.rho_distances),
            ("g_distance", report.g_distances),
            ("u_distance_no_kink", report.distances_no_kink),
            ("rho_distance_no_kink", report.rho_distances_no_kink),
            ("g_distance_no_kink", report.g_distances_no_kink),
        ]
    else:
        columns = [("distance", report.distances)]
    header = "lambda," + ",".join(name for name, _ in columns)
    table = np.column_stack([np.asarray(report.lambdas)] + [np.asarray(v) for _, v in columns])
    _write_csv(out / "scaling.csv", header, table)
    gp = (
        "set logscale xy\n"
        'set xlabel "lambda"\n'
        'set ylabel "distance to limit profile"\n'
        'set datafile separator ","\n'
        'plot for [col=2:' + str(1 + len(columns)) + '] "scaling.csv" using 1:col with linespoints title columnheader(col)\n'
    )
    (out / "scaling.gp").write_text(gp)
    return ["scaling.csv", "scaling.gp"]


def cmd_scaling(args: argparse.Namespace, manifest: dict) -> int:
    cfg = load_config(args.config)
    manifest["config_ini"] = dump_config(cfg)
    try:
        lambdas = tuple(float(v) for v in args.lambdas.split(","))
    except ValueError as exc:
        raise _BadInput(f"--lambdas: {exc}") from exc
    if len(lambdas) < 2:
        raise _BadInput(f"--lambdas needs at least two values to compare distances, got {args.lambdas!r}")
    if args.jobs < 1:
        raise _BadInput(f"--jobs must be a positive integer, got {args.jobs}")
    if args.mode == "rarefaction":
        report = scaling_limit_experiment(
            cfg, lambdas, q=args.q, R=args.radius, t1=args.t1, t2=args.t2, jobs=args.jobs
        )
    else:
        report = barenblatt_limit_experiment(cfg, lambdas, p=args.p)
    manifest["report"] = asdict(report)
    manifest["files"] = _scaling_csv(args.out, report)
    checks = _series_monotone_checks("primary_distance", report.distances)
    if report.mode == "rarefaction":
        checks.update(_series_monotone_checks("rho_distance", report.rho_distances))
        checks.update(_series_monotone_checks("g_distance", report.g_distances))
    code = _gate(manifest, checks, "scaling distances are not monotone")
    print(f"scaling[{report.mode}]: lambdas={report.lambdas} distances={tuple(round(d, 6) for d in report.distances)}")
    return code


def cmd_profiles(args: argparse.Namespace, manifest: dict) -> int:
    try:
        alpha = float(FracOrder(float(args.alpha)))
    except ValueError as exc:
        raise _BadInput(f"--alpha: {exc}") from exc
    n = 1536
    manifest.update(alpha=alpha, n=n)
    h = 6.0 / n
    # Cell midpoints: avoids evaluating exactly on the profile edge |x| = 1.
    x = -3.0 + (np.arange(n) + 0.5) * h
    phi = getoor_profile(alpha, x)
    frac = getoor_fraclap(alpha, x)
    vel = velocity_profile_U(alpha, x)
    table = np.column_stack([x, phi, frac, vel])
    _write_csv(args.out / "profile.csv", "x,phi,fraclap,U", table)
    (args.out / "profiles.gp").write_text(
        'set datafile separator ","\n'
        'set xlabel "x"\n'
        f'set title "profile family, alpha = {alpha!r}"\n'
        'plot "profile.csv" using 1:2 with lines title "phi", \\\n'
        '     "profile.csv" using 1:3 with lines title "fractional laplacian", \\\n'
        '     "profile.csv" using 1:4 with lines title "velocity"\n'
    )
    manifest["files"] = ["profile.csv", "profiles.gp"]
    checks = {"values_finite": _check(0.0, 0.5, passed=bool(np.isfinite(table).all()))}
    code = _gate(manifest, checks, "profile tabulation produced non-finite values")
    print(f"profiles: wrote {args.out / 'profile.csv'} (alpha={alpha!r}, {n} points)")
    return code


# ---------------------------------------------------------------------------
# Parser


def _add_out(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--out", type=Path, default=Path(default), help=f"output directory (default: {default})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euler-align",
        description="Pseudospectral toolkit for a one-dimensional nonlocal alignment system.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run the operator-identity suite")
    _add_out(p, "selftest-out")
    p.add_argument("--seed", type=int, default=0, help="seed for random test fields")
    p.add_argument("--inject-hilbert-sign-error", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("simulate", help="run one configured simulation")
    p.add_argument("--config", type=Path, required=True, help="INI run configuration")
    _add_out(p, "simulate-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="re-check invariants on a saved run directory")
    p.add_argument("rundir", type=Path, help="directory written by `simulate`")
    p.add_argument(
        "--which", default="mass,comparison,maxprinciple",
        help=f"comma-separated subset of {','.join(VERIFY_CHECKS)}",
    )
    p.add_argument("--out", type=Path, help="output directory (default: RUNDIR/verify)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scaling", help="run a scaling-limit experiment")
    p.add_argument("--config", type=Path, required=True, help="INI base configuration")
    p.add_argument("--mode", choices=("rarefaction", "barenblatt"), required=True)
    p.add_argument("--lambdas", default="1,2,4,8", help="comma-separated dilation parameters")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="worker processes; each runs its share of the λ-cases in lockstep (rarefaction)")
    p.add_argument("--q", type=float, default=2.0, help="velocity distance exponent (rarefaction)")
    p.add_argument("--radius", type=float, default=1.5, help="half-width of the comparison window (rarefaction)")
    p.add_argument("--t1", type=float, default=1.0, help="start of the comparison time window (rarefaction)")
    p.add_argument("--t2", type=float, default=2.0, help="end of the comparison time window (rarefaction)")
    p.add_argument("--p", type=float, default=1.0, help="density distance exponent (barenblatt)")
    _add_out(p, "scaling-out")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("profiles", help="tabulate the closed-form profile family")
    p.add_argument("--alpha", default="0.5", help="fractional order in (0, 1)")
    _add_out(p, "profiles-out")
    p.set_defaults(func=cmd_profiles)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place that picks the exit code and writes the manifest."""
    args = _build_parser().parse_args(argv)
    out = os.environ.get("EULER_ALIGN_OUT") or args.out
    if out is None:  # `verify`'s default lies inside the run directory, which it must not create
        if not args.rundir.is_dir():
            print(f"error: no run directory at {args.rundir}", file=sys.stderr)
            return EXIT_BAD_INPUT
        out = args.rundir / "verify"
    args.out = Path(out)
    manifest = {"command": args.command, "version": __version__, "files": [], "checks": {}, "failure": None}
    start = time.perf_counter()
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make output directory {args.out}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args, manifest)
    except (ConfigError, GridError, DiagnosticsError, OSError, _BadInput) as exc:
        # Also initial data named by a config that cannot be read (missing
        # file, non-finite or off-grid samples): the input is bad, not the run.
        manifest["failure"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverError as exc:
        manifest["failure"] = str(exc)
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ABORT
    except BaseException as exc:
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["wall_time_seconds"] = round(time.perf_counter() - start, 3)
        _write_json(args.out / "manifest.json", {**manifest, "files": sorted(manifest["files"])})


if __name__ == "__main__":
    sys.exit(main())
