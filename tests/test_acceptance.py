"""End-to-end acceptance suite.

Eleven property-based criteria, each printing exactly one verdict line
(visible under pytest's -rA summary).  Tolerances are pinned in the
assertions; the slow shared runs live in module-scoped fixtures.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from euler_align import (
    Field,
    InitialDataSpec,
    RarefactionTriple,
    ShapeSpec,
    SolverConfig,
    SpectralWorkspace,
    barenblatt_limit_experiment,
    build_grid,
    cross_validation_errors,
    decay_fit,
    fractional_laplacian_quadrature,
    fractional_laplacian_spectral,
    gagliardo_nirenberg_check,
    getoor_profile,
    load_config,
    oleinik_check,
    random_bump_field,
    reference_decay_slope,
    run,
    scaling_limit_experiment,
    stroock_varopoulos_check,
)
from euler_align.solver import SUMMARY_COLUMNS
from oracles import burgers_weak_residual

ALPHAS = (0.25, 0.5, 0.75)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _verdict(num: int, label: str, passed: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{label}]: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} [{label}] failed: {detail}"


@pytest.fixture(scope="module")
def decay_run():
    """Proportional-data run sized so all three decay slopes are in regime."""
    cfg = SolverConfig(
        alpha=0.5,
        n=8192,
        half_width=64.0,
        t_end=10.0,
        initial=InitialDataSpec(
            rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.1),
            mode="proportional",
            g_coef=4.0,
        ),
        flux_scheme="spectral",
    )
    start = time.perf_counter()
    traj = run(cfg)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def example_runs():
    """All shipped example configurations, fully integrated."""
    runs = {}
    for path in sorted(CONFIG_DIR.glob("*.ini")):
        runs[path.name] = run(load_config(path))
    return runs


def test_criterion_01_profile_identity():
    start = time.perf_counter()
    details = []
    ok = True
    for alpha in ALPHAS:
        grid = build_grid(8192, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        phi = Field(grid, getoor_profile(alpha, grid.x))
        inner = np.abs(grid.x) <= 0.9
        spec = fractional_laplacian_spectral(phi, ws, image_correction=True)
        err_spec = float(np.abs(spec.values[inner] - 1.0).max())
        probes = grid.x[inner][:: inner.sum() // 48]
        quad = fractional_laplacian_quadrature(phi, alpha, probes)
        err_quad = float(np.abs(quad - 1.0).max())
        ok &= err_spec <= 2e-2 and err_quad <= 1e-2
        details.append(f"a={alpha}: spectral {err_spec:.1e}<=2e-2, quadrature {err_quad:.1e}<=1e-2")
    wall = time.perf_counter() - start
    ok &= wall < 10.0
    _verdict(1, "fractional laplacian on the profile equals 1", ok,
             "; ".join(details) + f"; wall {wall:.1f}s<10s")


def test_criterion_02_operator_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    details = []
    ok = True
    for alpha in ALPHAS:
        coarse, fine = cross_validation_errors(alpha, rng, trials=20)
        worst = float(coarse.max())
        ok &= worst <= 5e-2 and float(fine.max()) < worst
        details.append(f"a={alpha}: worst {worst:.1e}<=5e-2, refined {float(fine.max()):.1e}")
    wall = time.perf_counter() - start
    ok &= wall < 60.0
    _verdict(2, "spectral and quadrature routes agree on random bumps", ok,
             "; ".join(details) + f"; wall {wall:.0f}s<60s")


def test_criterion_03_mass_conservation():
    start = time.perf_counter()
    cfg = SolverConfig(
        alpha=0.5,
        n=4096,
        half_width=24.0,
        t_end=10.0,
        initial=InitialDataSpec(
            rho0=ShapeSpec(kind="gaussian", mass=1.0, width=1.0),
            mode="proportional",
            g_coef=1.0,
        ),
        flux_scheme="spectral",
    )
    traj = run(cfg)
    drifts = {}
    for key in ("mass_rho", "mass_G"):
        series = traj.summary[key]
        drifts[key] = float(np.abs(series - series[0]).max() / abs(series[0]))
    wall = time.perf_counter() - start
    ok = all(d <= 1e-10 for d in drifts.values()) and wall < 120.0
    _verdict(3, "mass of rho and G conserved to t=10", ok,
             f"drift rho {drifts['mass_rho']:.1e}, G {drifts['mass_G']:.1e} <= 1e-10; "
             f"wall {wall:.0f}s<120s")


def test_criterion_04_maximum_principle_on_examples(example_runs):
    details = []
    ok = True
    for name, traj in sorted(example_runs.items()):
        u = traj.summary["u_linf"]
        violation = float((u.max() - u[0]) / u[0])
        ok &= violation <= 1e-6
        details.append(f"{name}: {violation:.1e}")
    _verdict(4, "velocity sup-norm never exceeds its initial value", ok,
             "relative violations " + ", ".join(details) + " <= 1e-6")


#: SHA-256 of the shipped runs' output states (rho, G, u, each as float64
#: bytes) and summary tables, one "config state field digest" line each.
SHIPPED_RUN_DIGESTS = """
gaussian_spectral.ini 0 rho 5fb8336df52b3a1c3d5f062ccf68d2a4affa29071e2e167e890a3c88febf031a
gaussian_spectral.ini 0 G 5fb8336df52b3a1c3d5f062ccf68d2a4affa29071e2e167e890a3c88febf031a
gaussian_spectral.ini 0 u e795b826af55295514452a2724f0d68e647ec5ea9f0c9db2da4350eefec5925b
gaussian_spectral.ini 1 rho 5156c175902c3d0ace19c1eab4d2ad1b0d0e9279cbd062cb22dc7ac6d5c25170
gaussian_spectral.ini 1 G 5156c175902c3d0ace19c1eab4d2ad1b0d0e9279cbd062cb22dc7ac6d5c25170
gaussian_spectral.ini 1 u e332d64a7177153e91d3d7eb80bee1bf0877160792935f9f1d521c790a609baa
gaussian_spectral.ini 2 rho 2749d999fc3d9984d329eceebbf30e77997d3cbe4cf3d683473bb47877419b9c
gaussian_spectral.ini 2 G 2749d999fc3d9984d329eceebbf30e77997d3cbe4cf3d683473bb47877419b9c
gaussian_spectral.ini 2 u 0508071affbd245a58adbd2e4c5fd6dd6acead457c0fb64e029d24b5514a243c
gaussian_spectral.ini 3 rho ec69c8d66dd0c40be2155d825b82f673e1a8407e7dd6163f0855d0f298d1bf9f
gaussian_spectral.ini 3 G ec69c8d66dd0c40be2155d825b82f673e1a8407e7dd6163f0855d0f298d1bf9f
gaussian_spectral.ini 3 u 00ae5ab71129c472f81658c149319ebc918d1867cef7fc182a1947fe2e3a4033
gaussian_spectral.ini 4 rho 68845593d8cf74a6147f7fcf0a79b5cb94410fd6fae885ca7d1b071932cefe04
gaussian_spectral.ini 4 G 68845593d8cf74a6147f7fcf0a79b5cb94410fd6fae885ca7d1b071932cefe04
gaussian_spectral.ini 4 u 8032f67daf940fe910b1206ae81ce4c997fd7efcba3cdc8b0aa08b54f7d61b86
gaussian_spectral.ini summary 3bbebc7cab78b62741cc0df2459e4a30b28fbaced215d9426ec2c0d0a048c699
gaussian_upwind.ini 0 rho 5fb8336df52b3a1c3d5f062ccf68d2a4affa29071e2e167e890a3c88febf031a
gaussian_upwind.ini 0 G 5fb8336df52b3a1c3d5f062ccf68d2a4affa29071e2e167e890a3c88febf031a
gaussian_upwind.ini 0 u e795b826af55295514452a2724f0d68e647ec5ea9f0c9db2da4350eefec5925b
gaussian_upwind.ini 1 rho 54c2466c78f7d92e60bc7cd3cdedb273ee8b5c4a7bd0054ebb4a6ce2d74dfe65
gaussian_upwind.ini 1 G 54c2466c78f7d92e60bc7cd3cdedb273ee8b5c4a7bd0054ebb4a6ce2d74dfe65
gaussian_upwind.ini 1 u 8faf5305eba8134bbdc6537e7ef2fbbf97cd76ff084046da6a93252992a50304
gaussian_upwind.ini 2 rho c17a04cdd61bc2f7bbcac806fbeba846b41bed0d0580cbd44a9060395b00cf40
gaussian_upwind.ini 2 G c17a04cdd61bc2f7bbcac806fbeba846b41bed0d0580cbd44a9060395b00cf40
gaussian_upwind.ini 2 u 9840b52d8f86a17ffb53aca0bd37675578079fca719da03bd59c18a46adf9337
gaussian_upwind.ini 3 rho 81d0d75ea53190462f3c703b3bdf27c3582d51ed783ff7ffebb6014920d4b828
gaussian_upwind.ini 3 G 81d0d75ea53190462f3c703b3bdf27c3582d51ed783ff7ffebb6014920d4b828
gaussian_upwind.ini 3 u ba501d03f7832541f9da25f37dedef93084df345842e7a68e6da66d3149b41aa
gaussian_upwind.ini summary 3c240f15cf2980dee123e11aa2949852f842f6644515c1c326b9ee9c87098a28
gaussian_zero_g.ini 0 rho cafd3f70886b2f4493a3459cb1aaa7b2749f3c678911360e231f7bc0d163224e
gaussian_zero_g.ini 0 G 9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47
gaussian_zero_g.ini 0 u e9a2f5718418b23dac629fd28e735997b2a738ecee297dcc45f381793fd1da12
gaussian_zero_g.ini 1 rho 07781c8650bfe07e10803d0b28c68bc7e8ca8b25b0e31a37fefafc210898fb9d
gaussian_zero_g.ini 1 G 9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47
gaussian_zero_g.ini 1 u 162a4baf8baf4bb49c80afe862c3bda6458d88d3554b57c5c6e3008f97a3862a
gaussian_zero_g.ini 2 rho 5e3a4faa35063c9a5549a85fa26714be675038a615a50b5a14527bda92fb7438
gaussian_zero_g.ini 2 G 9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47
gaussian_zero_g.ini 2 u e1aa9c5ba81dd2a0529c79d8c667045713fc9a282bc4c772fc2fb487a5598b23
gaussian_zero_g.ini summary eac4e04f885bf8008678e2541b95fa527d3fbb145482be74305d810e3d817141
getoor_zero_g.ini 0 rho a942a6d36e5560a08eac8b39a6e94931e9d0d2e86c2f20c7d35dd3c2e7f14618
getoor_zero_g.ini 0 G 9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47
getoor_zero_g.ini 0 u 17647d506cd7ba0fc11bfee42d2352f8b57f5d4dcbe9e7c1c9cc1e59a0b73a4d
getoor_zero_g.ini 1 rho f1108a50505f519fa7305f74d20230feae82b9a12b2c1eaeb086b21f1f3f9296
getoor_zero_g.ini 1 G 9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47
getoor_zero_g.ini 1 u 70295c47811d1c8588b03c7fce49e294194570aac1ee0da089e014fdcda5dd94
getoor_zero_g.ini 2 rho 5b4fc83b79af162650c481565ed864fa517bd24540c1ce72583d876b76085e10
getoor_zero_g.ini 2 G 9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47
getoor_zero_g.ini 2 u 0d6543cdc60da9e2875a7fb0442234150dca36f4cb7d6f87907e3bf876efe793
getoor_zero_g.ini 3 rho f27c7ade0d3eef64bbd6edee6160178b6f276d2ddb282a1f64f0963cdc0b5275
getoor_zero_g.ini 3 G 9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47
getoor_zero_g.ini 3 u fd58f00bf5e16cbb5ad3fd54796227e137398b98c8d31aa525d907127ae82a67
getoor_zero_g.ini summary 4114065e88a683a105d49bad6b4483f0b3d3afad66e4d1c942e546bde6589109
""".strip().splitlines()


def test_shipped_runs_are_byte_identical_to_pinned_digests(example_runs):
    """Every shipped run's output arrays and summary table match the pinned digests.

    This is the byte-identity gate for changes that must not move results.
    The digests are pinned for numpy 2.4.6 and scipy 1.17.1 on an x86-64
    Linux host; other library versions or FFT backends may round
    differently, and there the digests are recorded again once the criteria
    pass.
    """
    lines = []
    for name, traj in sorted(example_runs.items()):
        for i, state in enumerate(traj.states):
            for field, arr in (("rho", state.rho), ("G", state.g), ("u", state.u)):
                lines.append(f"{name} {i} {field} {hashlib.sha256(arr.values.tobytes()).hexdigest()}")
        table = np.column_stack([traj.summary[c] for c in SUMMARY_COLUMNS])
        lines.append(f"{name} summary {hashlib.sha256(table.tobytes()).hexdigest()}")
    assert lines == SHIPPED_RUN_DIGESTS


def test_criterion_05_comparison_principle():
    details = []
    ok = True
    for c in (0.5, 1.0, 2.0):
        cfg = SolverConfig(
            alpha=0.5,
            n=2048,
            half_width=20.0,
            t_end=2.0,
            initial=InitialDataSpec(
                rho0=ShapeSpec(kind="gaussian", mass=1.0, width=1.0),
                mode="proportional",
                g_coef=c,
            ),
            flux_scheme="upwind",
        )
        traj = run(cfg)
        s = traj.summary
        floor = -1e-6 * float(s["rho_linf"][0])
        worst = min(
            float(s["min_G"].min()),
            float(s["min_arho_minus_G"].min()),
            float(-s["max_brho_minus_G"].max()),
        )
        ok &= worst >= floor
        details.append(f"c={c}: worst {worst:.1e}")
    _verdict(5, "sandwich 0 <= b*rho <= G <= a*rho propagates", ok,
             "; ".join(details) + " >= -1e-6*peak")


def test_criterion_06_decay_exponents(decay_run):
    traj, wall = decay_run
    t = traj.summary["t"]
    fits = {
        "rho_l2": (decay_fit(t, traj.summary["rho_l2"]), -0.5, 0.10),
        "rho_l4": (decay_fit(t, traj.summary["rho_l4"]), -0.75, 0.10),
        "G_linf": (decay_fit(t, traj.summary["G_linf"]), -1.0, 0.15),
    }
    details = []
    ok = wall < 300.0
    for name, (slope, target, band) in fits.items():
        hit = abs(slope - target) <= band
        ok &= hit
        details.append(f"{name} slope {slope:.3f} in {target}+-{band}")
    _verdict(6, "norm decay matches the self-similar exponents", ok,
             "; ".join(details) + f"; wall {wall:.0f}s<300s")


def test_criterion_07_viscosity_regime_bound(decay_run):
    traj, _ = decay_run
    t = traj.summary["t"]
    cases = (("rho_l2", 2.0), ("rho_l4", 4.0), ("G_linf", math.inf))
    details = []
    ok = True
    for name, p in cases:
        slope = decay_fit(t, traj.summary[name])
        bound = reference_decay_slope(p, alpha=0.5) + 0.05
        ok &= slope <= bound
        details.append(f"{name} {slope:.3f} <= {bound:.3f}")
    _verdict(7, "measured decay dominates the a-priori viscous bound", ok, "; ".join(details))


def test_criterion_08_rarefaction_scaling_limit():
    start = time.perf_counter()
    base = SolverConfig(
        alpha=0.75,
        n=2048,
        half_width=8.0,
        t_end=2.0,
        initial=InitialDataSpec(
            rho0=ShapeSpec(kind="bump", mass=1.0, width=2.0),
            mode="proportional",
            g_coef=1.0,
        ),
        flux_scheme="spectral",
    )
    report = scaling_limit_experiment(
        base, (1.0, 2.0, 4.0, 8.0), q=2.0, R=1.5, t1=1.0, t2=2.0, jobs=4
    )
    wall = time.perf_counter() - start
    du = report.distances
    ratio = du[-1] / du[0]
    strictly = lambda seq: all(b < a for a, b in zip(seq, seq[1:]))
    ok = (
        strictly(du)
        and ratio <= 0.5
        and strictly(report.rho_distances)
        and strictly(report.g_distances)
        and wall < 900.0
    )
    _verdict(8, "rescaled solutions approach the rarefaction triple", ok,
             f"u distances {[f'{d:.3f}' for d in du]} strictly decreasing, "
             f"ratio {ratio:.3f}<=0.5; rho/G mollified distances decreasing; "
             f"wall {wall:.0f}s<900s")


def test_criterion_09_self_similar_scaling_limit():
    gauss = SolverConfig(
        alpha=0.5,
        n=8192,
        half_width=16.0,
        t_end=1.0,
        initial=InitialDataSpec(
            rho0=ShapeSpec(kind="gaussian", mass=1.0, width=1.0), mode="zero_G"
        ),
        flux_scheme="spectral",
    )
    rep_g = barenblatt_limit_experiment(gauss, (1.0, 2.0, 4.0), p=1.0)
    decreasing = all(b < a for a, b in zip(rep_g.distances, rep_g.distances[1:]))

    profile = SolverConfig(
        alpha=0.5,
        n=8192,
        half_width=16.0,
        t_end=1.0,
        initial=InitialDataSpec(
            rho0=ShapeSpec(kind="getoor", amplitude=1.0), mode="zero_G"
        ),
        flux_scheme="spectral",
    )
    rep_p = barenblatt_limit_experiment(profile, (1.0, 2.0, 4.0), p=1.0)
    fixed_point = max(rep_p.distances)
    ok = decreasing and fixed_point <= 5e-2
    _verdict(9, "zero-G runs contract onto the self-similar profile", ok,
             f"gaussian distances {[f'{d:.2f}' for d in rep_g.distances]} decreasing; "
             f"profile-data worst {fixed_point:.3f} <= 5e-2")


def test_criterion_10_inequality_oracles():
    rng = np.random.default_rng(20240817)
    grid = build_grid(2048, 8.0)
    workspaces = {alpha: SpectralWorkspace(grid, alpha) for alpha in ALPHAS}
    failures = 0
    for _ in range(100):
        v = random_bump_field(grid, rng)
        for alpha in ALPHAS:
            for _, _, holds in stroock_varopoulos_check(v, (1.5, 2.0, 3.0), workspaces[alpha]):
                failures += 0 if holds else 1

    worst_gn = 0.0
    gn_grid = build_grid(4096, 16.0)
    for alpha in ALPHAS:
        ws = SpectralWorkspace(gn_grid, alpha)
        ratios = []
        for s in (1.0, 2.0, 4.0):
            v = Field(gn_grid, s * np.exp(-0.5 * (s * gn_grid.x) ** 2))
            ratios.append(gagliardo_nirenberg_check(v, r=3.0, q=2.0, ws=ws)[2])
        worst_gn = max(worst_gn, max(abs(r / ratios[0] - 1.0) for r in ratios))
    ok = failures == 0 and worst_gn <= 5e-2
    _verdict(10, "fractional integral inequalities hold numerically", ok,
             f"sandwich-power inequality failures {failures}/900; "
             f"dilation drift of the interpolation ratio {worst_gn:.3f} <= 5e-2")


def test_criterion_11_entropy_solution_checks(decade_proportional_run):
    def bump(scale: float):
        def f(s):
            z = np.asarray(s, dtype=float) / scale
            out = np.zeros_like(z)
            inside = np.abs(z) < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
            return out

        def df(s):
            z = np.asarray(s, dtype=float) / scale
            out = np.zeros_like(z)
            inside = np.abs(z) < 1.0
            zi = z[inside]
            out[inside] = (
                np.exp(1.0 - 1.0 / (1.0 - zi**2)) * (-2.0 * zi / (1.0 - zi**2) ** 2) / scale
            )
            return out

        return f, df

    worst = 0.0
    for triple in (RarefactionTriple(1.0, 1.0), RarefactionTriple(2.0, 0.5)):
        for xm, tm in ((4.0, 3.0), (6.0, 2.0), (3.0, 4.0)):
            sx, dsx = bump(xm)
            st, dst = bump(tm)
            resid = burgers_weak_residual(
                triple,
                phi=lambda x, t: sx(x) * st(t),
                phi_t=lambda x, t: sx(x) * dst(t),
                phi_x=lambda x, t: dsx(x) * st(t),
                x_max=xm,
                t_max=tm,
            )
            worst = max(worst, abs(resid))

    growth = oleinik_check(decade_proportional_run)
    ok = worst <= 1e-6 and growth < 0.5
    _verdict(11, "limit triple is the entropy solution; one-sided slope bounded", ok,
             f"worst weak residual {worst:.1e} <= 1e-6; "
             f"t*sup(u_x)+ growth exponent {growth:.2f} < 0.5")
