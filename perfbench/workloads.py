"""Workloads of the euler-align benchmark: seeded inputs, one iteration, output checks.

Each workload builds its inputs from the seed before timing starts.  Seed 0
uses the shipped configurations or the acceptance-suite inputs verbatim;
other seeds shift the initial density's centre by up to CENTRE_SHIFT of its
width and scale the width by up to WIDTH_SCALE, ranges that keep the support
well clear of the solver's |x| >= 3L/4 abort zone.

``run_once`` is the timed body of one iteration and calls only public
functions of the package through their modules, so that a tracer installed
on those modules sees every call.  ``check`` runs untimed on its result and
counts the operations attempted and the ones that failed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import special

from euler_align import cli, closedform, config, diagnostics, selftest, solver
from euler_align.solver import InitialDataSpec, ShapeSpec, SolverConfig

CENTRE_SHIFT = 0.05
WIDTH_SCALE = 0.01

#: Pool size of the scaling sweep: at most two workers, never more than cores.
JOBS = min(2, os.cpu_count() or 1)

MASS_DRIFT_TOL = 1e-10
#: Ceilings of the reference errors.  The first two sit 2-5x above the values
#: measured on seed-0 inputs (4.1e-4 and 0.095: the viscosity eps = h keeps the
#: getoor run off the exact inviscid profile); the last two are acceptance
#: criteria 2 and 8.
VELOCITY_REF_TOL = 2e-3
GETOOR_L1_TOL = 0.2
XVAL_TOL = 5e-2
RAREFACTION_RATIO_TOL = 0.5


@dataclass
class Check:
    """Outcome of checking one iteration."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    work: int = 0  # solver steps, or the workload's own unit of work
    ref_err: float = math.nan

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def perturbation(seed: int) -> tuple[float, float]:
    """(centre shift in widths, width factor) for a seed; seed 0 gives (0, 1)."""
    if seed == 0:
        return 0.0, 1.0
    rng = np.random.default_rng(seed)
    return (float(rng.uniform(-CENTRE_SHIFT, CENTRE_SHIFT)),
            float(1.0 + rng.uniform(-WIDTH_SCALE, WIDTH_SCALE)))


def perturb_shape(shape: ShapeSpec, seed: int) -> ShapeSpec:
    """Seeded variant of an initial shape (the identity for seed 0).

    The closed-form profile has unit half-width, so its amplitude takes the
    width's part: both set how fast the profile spreads.
    """
    shift, scale = perturbation(seed)
    if shape.kind == "getoor":
        return replace(shape, center=shape.center + shift, amplitude=shape.amplitude * scale)
    return replace(shape, center=shape.center + shift * shape.width, width=shape.width * scale)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """One benchmark workload; subclasses fill in inputs, the timed body and checks."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.reference: object = None  # first iteration's output, for determinism checks
        work.mkdir(parents=True, exist_ok=True)

    def setup_args(self) -> list[str]:
        """Arguments of setup_probe.py that reproduce this workload's set-up."""
        raise NotImplementedError

    def run_once(self):
        raise NotImplementedError

    def check(self, result) -> Check:
        raise NotImplementedError

    def trace_extra(self, tracer) -> None:
        """Untimed extra work of a traced iteration, run before ``run_once``."""

    def _same_as_first(self, chk: Check, value, what: str) -> None:
        if self.reference is None:
            self.reference = value
        chk.expect(value == self.reference, f"{what} differs from the first iteration")

    def _write_ini(self, name: str, text: str) -> Path:
        path = self.work / "inputs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path


def gaussian_velocity(x: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Closed-form real-line velocity u = d_x^{-1}(G + Lambda^alpha rho) at t = 0.

    For rho = M N(c, s^2) and G = g rho, the G part is g M Phi((x-c)/s) and the
    rho part is (M/pi) int_0^inf xi^(alpha-1) exp(-s^2 xi^2/2) sin(xi y) dxi
    with y = x - c, a Kummer function (Gradshteyn-Ryzhik 3.952.7).
    """
    shape, a, g = cfg.initial.rho0, cfg.alpha, cfg.initial.g_coef
    y = x - shape.center
    s, m = shape.width, shape.mass
    beta = 0.5 * s * s
    frac = (m / math.pi) * y * math.gamma(0.5 * (1.0 + a)) / (2.0 * beta ** (0.5 * (1.0 + a)))
    frac = frac * special.hyp1f1(0.5 * (1.0 + a), 1.5, -y * y / (2.0 * s * s))
    return g * m * special.ndtr(y / s) + frac


class Spectral8192(Workload):
    """Prefix of the acceptance decay run: n = 8192, spectral scheme, image correction on."""

    name = "spectral-8192"
    T_END = 0.1

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        rho0 = perturb_shape(ShapeSpec(kind="gaussian", mass=1.0, width=0.1), seed)
        self.cfg = SolverConfig(
            alpha=0.5, n=8192, half_width=64.0, t_end=self.T_END,
            initial=InitialDataSpec(rho0=rho0, mode="proportional", g_coef=4.0),
            flux_scheme="spectral", output_times=(0.0, self.T_END),
        )

    def setup_args(self) -> list[str]:
        return [str(self._write_ini("spectral-8192.ini", config.dump_config(self.cfg)))]

    def run_once(self):
        return solver.run(self.cfg)

    def check(self, traj) -> Check:
        chk = Check(attempted=1, work=traj.steps)
        first, last = traj.states[0], traj.states[-1]
        for col in ("mass_rho", "mass_G"):
            m = traj.summary[col]
            drift = float(np.abs(m - m[0]).max() / abs(m[0]))
            chk.expect(drift <= MASS_DRIFT_TOL, f"{col} drift {drift:.3g} > {MASS_DRIFT_TOL}")
        exact = gaussian_velocity(first.u.grid.x, self.cfg)
        chk.ref_err = float(np.abs(first.u.values - exact).max() / np.abs(exact).max())
        chk.expect(chk.ref_err <= VELOCITY_REF_TOL,
                   f"initial velocity error {chk.ref_err:.3g} > {VELOCITY_REF_TOL}")
        chk.expect(abs(last.t - self.T_END) <= 1e-12, f"run ended at t = {last.t}")
        self._same_as_first(chk, _digest(last.rho.values, last.g.values, last.u.values), "final state")
        return chk


class Configs1024(Workload):
    """`simulate` then `verify` through the CLI on each shipped configuration."""

    name = "configs-1024"

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.inputs: list[tuple[str, Path, SolverConfig]] = []
        for shipped in sorted((root / "configs").glob("*.ini")):
            cfg = config.load_config(shipped)
            if seed == 0:
                text = shipped.read_text()
            else:
                cfg = replace(cfg, initial=replace(cfg.initial, rho0=perturb_shape(cfg.initial.rho0, seed)))
                text = config.dump_config(cfg)
            self.inputs.append((shipped.stem, self._write_ini(shipped.name, text), cfg))
        if not self.inputs:
            raise FileNotFoundError(f"no shipped configurations under {root / 'configs'}")

    def setup_args(self) -> list[str]:
        return [str(path) for _, path, _ in self.inputs]

    def run_once(self):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for stem, path, _ in self.inputs:
                rundir = self.work / "runs" / stem
                shutil.rmtree(rundir, ignore_errors=True)
                sim = cli.main(["simulate", "--config", str(path), "--out", str(rundir)])
                ver = cli.main(["verify", str(rundir)])
                codes.append((stem, rundir, sim, ver))
        return codes

    def check(self, codes) -> Check:
        chk = Check()
        digests = {}
        for (stem, rundir, sim, ver), (_, _, cfg) in zip(codes, self.inputs):
            chk.attempted += 2
            chk.expect(sim == 0, f"{stem}: simulate exited with {sim}")
            chk.expect(ver == 0, f"{stem}: verify exited with {ver}")
            for which, path in (("simulate", rundir / "manifest.json"),
                                ("verify", rundir / "verify" / "manifest.json")):
                chk.expect(self._manifest_ok(path), f"{stem}: {which} manifest reports a failure")
            manifest = json.loads((rundir / "manifest.json").read_text()) if sim == 0 else {}
            chk.work += int(manifest.get("steps", 0))
            digests[stem] = sorted(
                (p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in rundir.glob("*.csv")
            )
            if cfg.initial.rho0.kind == "getoor" and sim == 0:
                chk.ref_err = self._getoor_l1(rundir, manifest, cfg)
                chk.expect(chk.ref_err <= GETOOR_L1_TOL,
                           f"{stem}: L1 error {chk.ref_err:.3g} > {GETOOR_L1_TOL}")
        self._same_as_first(chk, digests, "CSV artifacts")
        return chk

    @staticmethod
    def _manifest_ok(path: Path) -> bool:
        if not path.is_file():
            return False
        manifest = json.loads(path.read_text())
        return manifest.get("failure") is None and all(
            c.get("passed") for c in manifest.get("checks", {}).values()
        )

    @staticmethod
    def _getoor_l1(rundir: Path, manifest: dict, cfg: SolverConfig) -> float:
        """L1 distance of the final density to the exact evolved profile."""
        final = manifest["states"][-1]
        x, rho = np.loadtxt(rundir / final["file"], delimiter=",", usecols=(0, 1), unpack=True)
        shape = cfg.initial.rho0
        exact = closedform.evolved_profile_density(cfg.alpha, shape.amplitude, x - shape.center, final["t"])
        return float((x[1] - x[0]) * np.abs(rho - exact).sum())


class ScalingSweep(Workload):
    """Acceptance criterion 8's rarefaction sweep on a process pool."""

    name = "scaling-sweep"
    LAMBDAS = (1.0, 2.0, 4.0, 8.0)
    SWEEP = dict(q=2.0, R=1.5, t1=1.0, t2=2.0)

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        rho0 = perturb_shape(ShapeSpec(kind="bump", mass=1.0, width=2.0), seed)
        self.case_distances: list[float] | None = None
        self.base = SolverConfig(
            alpha=0.75, n=2048, half_width=8.0, t_end=2.0,
            initial=InitialDataSpec(rho0=rho0, mode="proportional", g_coef=1.0),
            flux_scheme="spectral",
        )

    def setup_args(self) -> list[str]:
        return [str(self._write_ini("scaling-sweep.ini", config.dump_config(self.base)))]

    def run_once(self):
        return diagnostics.scaling_limit_experiment(self.base, self.LAMBDAS, jobs=JOBS, **self.SWEEP)

    def trace_extra(self, tracer) -> None:
        """Run each lambda case alone and serially, in one span per case."""
        self.case_distances = []
        for lam in self.LAMBDAS:
            with tracer.span("bench.case"):
                report = diagnostics.scaling_limit_experiment(self.base, (lam,), jobs=1, **self.SWEEP)
            self.case_distances.append(report.distances[0])

    def check(self, report) -> Check:
        chk = Check(attempted=1, work=len(self.LAMBDAS))
        for label, seq in (("u", report.distances), ("rho", report.rho_distances),
                           ("G", report.g_distances)):
            chk.expect(all(b < a for a, b in zip(seq, seq[1:])),
                       f"{label} distances {seq} do not fall strictly with lambda")
        du = report.distances
        chk.ref_err = du[-1]
        chk.expect(du[-1] / du[0] <= RAREFACTION_RATIO_TOL,
                   f"du[-1]/du[0] = {du[-1] / du[0]:.3g} > {RAREFACTION_RATIO_TOL}")
        self._same_as_first(chk, (report.distances, report.rho_distances, report.g_distances),
                            "scaling distances")
        if self.case_distances is not None:
            chk.expect(tuple(self.case_distances) == report.distances,
                       "serial lambda cases differ from the pooled sweep")
            self.case_distances = None
        return chk


class Operators(Workload):
    """Operator-identity battery plus the acceptance cross-validation of both routes.

    The inputs do not depend on the seed: every run uses the selftest's
    default seed 0 and acceptance criterion 2's fields.  At its default
    tolerances ``run_selftest`` fails one or two records on about half of the
    seeds 1-39 (mostly gagliardo_nirenberg at alpha = 0.25), so seeding it
    would make the benchmark fail on the program's own defect.
    """

    name = "operators"
    SELFTEST_SEED = 0
    XVAL_SEED = 20240817
    XVAL_TRIALS = 20

    def __init__(self, root: Path, work: Path, seed: int, negative_control: bool = False) -> None:
        super().__init__(root, work, seed)
        self.negative_control = negative_control

    def setup_args(self) -> list[str]:
        return ["--operators"]

    def run_once(self):
        report = selftest.run_selftest(seed=self.SELFTEST_SEED,
                                       inject_hilbert_sign_error=self.negative_control)
        rng = np.random.default_rng(self.XVAL_SEED)
        xval = [selftest.cross_validation_errors(a, rng, trials=self.XVAL_TRIALS) for a in selftest.ALPHAS]
        return report, xval

    def check(self, result) -> Check:
        report, xval = result
        chk = Check(attempted=len(report.records) + len(xval))
        chk.work = chk.attempted
        for r in report.records:
            chk.expect(r.passed, f"selftest {r.check} alpha={r.alpha}: error {r.max_error:.3g} "
                                 f"> {r.tolerance:.1g}")
        worst = []
        for alpha, (coarse, fine) in zip(selftest.ALPHAS, xval):
            worst.append(float(coarse.max()))
            chk.expect(worst[-1] <= XVAL_TOL and float(fine.max()) < worst[-1],
                       f"cross-validation alpha={alpha}: coarse {worst[-1]:.3g}, fine {fine.max():.3g}")
        chk.ref_err = max(worst)
        self._same_as_first(chk, (tuple(r.max_error for r in report.records), tuple(worst)),
                            "operator errors")
        return chk


WORKLOADS = {w.name: w for w in (Spectral8192, Configs1024, ScalingSweep, Operators)}
