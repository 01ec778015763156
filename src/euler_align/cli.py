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
Every subcommand writes ``manifest.json`` into its output directory before
exiting — also on failure paths, with the failure reason — so that partial
artifacts are always identifiable.  CSV payloads use the %.17g format and
contain no timestamps: rerunning the same config with the same code version
produces byte-identical CSV files.  The ``EULER_ALIGN_OUT`` environment
variable overrides ``--out``.
"""

from __future__ import annotations

import argparse
import json
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
from .grid import GridError
from .selftest import TOLERANCE_PROFILES, run_selftest
from .solver import SolverError, Trajectory, _jsonable, load_trajectory, run, save_trajectory

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
SCALING_SLACK = 0.10

VERIFY_CHECKS = ("mass", "comparison", "maxprinciple", "decay", "oleinik")


def _write_manifest(
    outdir: Path,
    command: str,
    *,
    files: list[str],
    checks: dict[str, dict],
    failure: str | None,
    wall: float,
    extra: dict | None = None,
) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "wall_time_seconds": round(wall, 3),
        "files": sorted(files),
        "checks": _jsonable(checks),
        "failure": failure,
    }
    if extra:
        manifest.update(_jsonable(extra))
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


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

    report = traj.initial_report
    if math.isfinite(report.a) and math.isfinite(report.b):
        floor = -COMPARISON_TOL * float(s["rho_linf"][0])
        worst = min(
            float(s["min_G"].min()),
            float(s["min_arho_minus_G"].min()),
            float(-s["max_brho_minus_G"].max()),
        )
        checks["comparison"] = _check(-worst, -floor)
    return checks


def _series_monotone_checks(name: str, lambdas, distances) -> dict[str, dict]:
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


def cmd_selftest(args: argparse.Namespace) -> int:
    out = args.out
    start = time.perf_counter()
    report = run_selftest(
        seed=args.seed,
        profile=args.tolerance_profile,
        inject_hilbert_sign_error=args.inject_hilbert_sign_error,
    )
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "selftest_report.json"
    report_path.write_text(json.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n")
    checks = {
        f"{r.check}" + (f"_alpha{r.alpha:g}" if r.alpha is not None else ""): _check(
            r.max_error, r.tolerance, passed=r.passed
        )
        for r in report.records
    }
    failure = None if report.passed else "one or more operator identities failed"
    _write_manifest(
        out,
        "selftest",
        files=[report_path.name],
        checks=checks,
        failure=failure,
        wall=time.perf_counter() - start,
        extra={"seed": args.seed, "profile": args.tolerance_profile},
    )
    for r in report.records:
        tag = "pass" if r.passed else "FAIL"
        alpha = f" alpha={r.alpha:g}" if r.alpha is not None else ""
        print(f"[{tag}] {r.check}{alpha}: max_error={r.max_error:.3e} tolerance={r.tolerance:.1e}")
    print(f"selftest: {'pass' if report.passed else 'FAIL'} ({len(report.records)} checks, {report.wall_time:.1f}s)")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    out = args.out
    start = time.perf_counter()
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        _write_manifest(out, "simulate", files=[], checks={}, failure=str(exc), wall=time.perf_counter() - start)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        traj = run(cfg)
    except (OSError, GridError) as exc:
        # The initial data named by the config cannot be read (missing file,
        # non-finite or off-grid samples): the input is bad, not the run.
        _write_manifest(
            out, "simulate", files=[], checks={}, failure=str(exc),
            wall=time.perf_counter() - start, extra={"config_ini": dump_config(cfg)},
        )
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverError as exc:
        _write_manifest(
            out, "simulate", files=[], checks={}, failure=str(exc),
            wall=time.perf_counter() - start, extra={"config_ini": dump_config(cfg)},
        )
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ABORT

    solver_manifest = save_trajectory(traj, out)
    files = [entry["file"] for entry in solver_manifest["states"]]
    files.append(solver_manifest["summary_file"])
    checks = _trajectory_checks(traj)
    passed = all(c["passed"] for c in checks.values())
    _write_manifest(
        out,
        "simulate",
        files=files,
        checks=checks,
        failure=None if passed else "a per-run invariant check failed",
        wall=time.perf_counter() - start,
        extra={
            "config_ini": dump_config(cfg),
            "config": solver_manifest["config"],
            "initial_report": solver_manifest["initial_report"],
            "states": solver_manifest["states"],
            "summary_file": solver_manifest["summary_file"],
            "steps": solver_manifest["steps"],
        },
    )
    for name, c in checks.items():
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {name}: value={c['value']} tolerance={c['tolerance']}")
    print(f"simulate: wrote {len(traj.states)} states to {out} ({traj.steps} steps)")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _verify_decay(traj: Trajectory) -> dict[str, dict]:
    checks = {}
    alpha = traj.config.alpha
    times = traj.summary["t"]
    for p, column in ((2.0, "rho_l2"), (4.0, "rho_l4")):
        fit = decay_fit((times, traj.summary[column]), p, reference="viscosity_bound", alpha=alpha)
        bound = reference_decay_slope(p, "viscosity_bound", alpha) + DECAY_BOUND_SLACK
        checks[f"decay_bound_p{p:g}"] = _check(fit.fitted_slope, bound)
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    out = args.out if args.out_given else args.rundir / "verify"
    start = time.perf_counter()
    which = tuple(dict.fromkeys(w.strip() for w in args.which.split(",") if w.strip()))
    bad = [w for w in which if w not in VERIFY_CHECKS]
    if bad or not which:
        msg = f"unknown checks {bad}; choose from {VERIFY_CHECKS}" if bad else "no checks requested"
        _write_manifest(out, "verify", files=[], checks={}, failure=msg, wall=time.perf_counter() - start)
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        traj = load_trajectory(args.rundir)
    except (SolverError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        msg = f"cannot load run directory {args.rundir}: {exc}"
        _write_manifest(out, "verify", files=[], checks={}, failure=msg, wall=time.perf_counter() - start)
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_BAD_INPUT

    base = _trajectory_checks(traj)
    checks: dict[str, dict] = {}
    try:
        for name in which:
            if name == "mass":
                checks["mass_rho"] = base["mass_rho"]
                checks["mass_G"] = base["mass_G"]
            elif name == "maxprinciple":
                checks["max_principle"] = base["max_principle"]
            elif name == "comparison":
                if "comparison" not in base:
                    raise DiagnosticsError(
                        "comparison check needs a proportional-mode run with recorded sandwich constants"
                    )
                rep = comparison_principle_report(traj)
                floor = -COMPARISON_TOL * rep.rho0_linf
                worst = min(rep.min_g, rep.min_arho_minus_g, rep.min_g_minus_brho)
                checks["comparison"] = _check(-worst, -floor)
            elif name == "decay":
                checks.update(_verify_decay(traj))
            elif name == "oleinik":
                rep = oleinik_check(traj)
                checks["oleinik_bounded"] = _check(rep.fitted_growth, 0.5, passed=rep.bounded)
    except DiagnosticsError as exc:
        _write_manifest(out, "verify", files=[], checks=checks, failure=str(exc), wall=time.perf_counter() - start)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    passed = all(c["passed"] for c in checks.values())
    _write_manifest(
        out,
        "verify",
        files=[],
        checks=checks,
        failure=None if passed else "a requested invariant check failed",
        wall=time.perf_counter() - start,
        extra={"rundir": str(args.rundir), "which": list(which)},
    )
    for name, c in checks.items():
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {name}: value={c['value']} tolerance={c['tolerance']}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _scaling_csv(out: Path, report: ScalingReport) -> str:
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
    np.savetxt(out / "scaling.csv", table, fmt="%.17g", delimiter=",", header=header, comments="# ")
    gp = (
        "set logscale xy\n"
        'set xlabel "lambda"\n'
        'set ylabel "distance to limit profile"\n'
        'set datafile separator ","\n'
        'plot for [col=2:' + str(1 + len(columns)) + '] "scaling.csv" using 1:col with linespoints title columnheader(col)\n'
    )
    (out / "scaling.gp").write_text(gp)
    return "scaling.csv"


def cmd_scaling(args: argparse.Namespace) -> int:
    out = args.out
    start = time.perf_counter()
    try:
        cfg = load_config(args.config)
        lambdas = tuple(float(v) for v in args.lambdas.split(","))
    except (ConfigError, ValueError) as exc:
        _write_manifest(out, "scaling", files=[], checks={}, failure=str(exc), wall=time.perf_counter() - start)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.mode == "rarefaction":
            report = scaling_limit_experiment(
                cfg, lambdas, q=args.q, R=args.radius, t1=args.t1, t2=args.t2, jobs=args.jobs
            )
        else:
            report = barenblatt_limit_experiment(cfg, lambdas, p=args.p, jobs=args.jobs)
    except (DiagnosticsError, OSError, GridError) as exc:
        # Bad experiment parameters, or initial data that cannot be read.
        _write_manifest(out, "scaling", files=[], checks={}, failure=str(exc), wall=time.perf_counter() - start)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SolverError as exc:
        _write_manifest(out, "scaling", files=[], checks={}, failure=str(exc), wall=time.perf_counter() - start)
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ABORT

    out.mkdir(parents=True, exist_ok=True)
    csv_name = _scaling_csv(out, report)
    checks = _series_monotone_checks("primary_distance", report.lambdas, report.distances)
    if report.mode == "rarefaction":
        checks.update(_series_monotone_checks("rho_distance", report.lambdas, report.rho_distances))
        checks.update(_series_monotone_checks("g_distance", report.lambdas, report.g_distances))
    passed = all(c["passed"] for c in checks.values())
    _write_manifest(
        out,
        "scaling",
        files=[csv_name, "scaling.gp"],
        checks=checks,
        failure=None if passed else "scaling distances are not monotone",
        wall=time.perf_counter() - start,
        extra={"config_ini": dump_config(cfg), "report": asdict(report)},
    )
    for name, c in checks.items():
        print(f"[{'pass' if c['passed'] else 'FAIL'}] {name}: value={c['value']} tolerance={c['tolerance']}")
    print(f"scaling[{report.mode}]: lambdas={report.lambdas} distances={tuple(round(d, 6) for d in report.distances)}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_profiles(args: argparse.Namespace) -> int:
    out = args.out
    start = time.perf_counter()
    try:
        alpha = float(args.alpha)
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    except ValueError as exc:
        _write_manifest(out, "profiles", files=[], checks={}, failure=str(exc), wall=time.perf_counter() - start)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    n = 1536
    h = 6.0 / n
    # Cell midpoints: avoids evaluating exactly on the profile edge |x| = 1.
    x = -3.0 + (np.arange(n) + 0.5) * h
    phi = getoor_profile(alpha, x)
    frac = getoor_fraclap(alpha, x)
    vel = velocity_profile_U(alpha, x)
    out.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([x, phi, frac, vel])
    np.savetxt(out / "profile.csv", table, fmt="%.17g", delimiter=",", header="x,phi,fraclap,U", comments="# ")
    (out / "profiles.gp").write_text(
        'set datafile separator ","\n'
        'set xlabel "x"\n'
        f'set title "profile family, alpha = {alpha:g}"\n'
        'plot "profile.csv" using 1:2 with lines title "phi", \\\n'
        '     "profile.csv" using 1:3 with lines title "fractional laplacian", \\\n'
        '     "profile.csv" using 1:4 with lines title "velocity"\n'
    )
    checks = {
        "values_finite": _check(
            0.0, 0.5, passed=bool(np.isfinite(table).all())
        )
    }
    passed = checks["values_finite"]["passed"]
    _write_manifest(
        out,
        "profiles",
        files=["profile.csv", "profiles.gp"],
        checks=checks,
        failure=None if passed else "profile tabulation produced non-finite values",
        wall=time.perf_counter() - start,
        extra={"alpha": alpha, "n": n},
    )
    print(f"profiles: wrote {out / 'profile.csv'} (alpha={alpha:g}, {n} points)")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


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
    p.add_argument(
        "--tolerance-profile", choices=sorted(TOLERANCE_PROFILES), default="default",
        help="tolerance column to hold the checks to",
    )
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
    _add_out(p, "verify-out")
    p.set_defaults(func=cmd_verify, verify_default_out=True)

    p = sub.add_parser("scaling", help="run a scaling-limit experiment")
    p.add_argument("--config", type=Path, required=True, help="INI base configuration")
    p.add_argument("--mode", choices=("rarefaction", "barenblatt"), required=True)
    p.add_argument("--lambdas", default="1,2,4,8", help="comma-separated dilation parameters")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="parallel workers for the sweep")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    raw = argv if argv is not None else sys.argv[1:]
    args.out_given = any(a == "--out" or a.startswith("--out=") for a in raw)
    env_out = os.environ.get("EULER_ALIGN_OUT")
    if env_out:
        args.out = Path(env_out)
        args.out_given = True
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
