"""Decay fits, one-sided derivative bounds, sandwich audit, scaling limits."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from euler_align import (
    DiagnosticsError,
    InitialDataSpec,
    InitialReport,
    RarefactionTriple,
    ScalingReport,
    ShapeSpec,
    SolverConfig,
    State,
    Trajectory,
    as_field,
    attractor_density,
    barenblatt_limit_experiment,
    build_grid,
    comparison_principle_report,
    decay_fit,
    mollify,
    oleinik_check,
    rarefaction_G,
    rarefaction_density,
    rarefaction_velocity,
    reference_decay_slope,
    run,
    scaling_limit_experiment,
)
from euler_align import diagnostics
from euler_align.solver import SUMMARY_COLUMNS


class TestReferenceSlopes:
    def test_sharp_rates(self):
        assert reference_decay_slope(1.0, "sharp") == 0.0
        assert reference_decay_slope(2.0, "sharp") == -0.5
        assert reference_decay_slope(4.0, "sharp") == -0.75
        assert reference_decay_slope(math.inf, "sharp") == -1.0

    def test_viscous_rates(self):
        assert reference_decay_slope(2.0, "viscosity_bound", alpha=0.5) == pytest.approx(-0.2)
        assert reference_decay_slope(math.inf, "viscosity_bound", alpha=1.0 / 3) == pytest.approx(
            -1.0 / (2.0 + 1.0 / 3)
        )

    def test_validation(self):
        with pytest.raises(DiagnosticsError, match="requires alpha"):
            reference_decay_slope(2.0, "viscosity_bound")
        with pytest.raises(DiagnosticsError, match="unknown reference"):
            reference_decay_slope(2.0, "optimal")


class TestDecayFit:
    def test_recovers_exact_power_law(self):
        t = np.geomspace(0.1, 100.0, 40)
        fit = decay_fit((t, 3.0 * t**-0.7), p=2.0)
        assert fit.fitted_slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.reference_slope == -0.5
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-10)

    def test_accepts_leading_zero_time_row(self):
        t = np.concatenate([[0.0], np.geomspace(0.05, 20.0, 30)])
        n = np.concatenate([[123.0], 2.0 * np.geomspace(0.05, 20.0, 30) ** -0.4])
        fit = decay_fit((t, n), p=1.0)
        assert fit.fitted_slope == pytest.approx(-0.4, abs=1e-12)
        assert fit.times[0] > 0.0

    def test_infinite_p_pair_form(self):
        t = np.geomspace(1.0, 50.0, 25)
        fit = decay_fit((t, t**-1.0), p=math.inf)
        assert fit.fitted_slope == pytest.approx(-1.0, abs=1e-12)

    def test_fit_uses_only_last_decade(self):
        # Early transient with a different slope must not contaminate the fit.
        t = np.geomspace(0.01, 100.0, 80)
        n = np.where(t < 5.0, t**-0.1, t**-0.9 * 5.0**0.8)
        fit = decay_fit((t, n), p=2.0)
        assert fit.fitted_slope == pytest.approx(-0.9, abs=0.02)

    def test_validation(self):
        good_t = np.geomspace(0.1, 10.0, 20)
        with pytest.raises(DiagnosticsError, match=">= 10 positive-time samples"):
            decay_fit((good_t[:5], good_t[:5]), p=2.0)
        with pytest.raises(DiagnosticsError, match="need a decade"):
            decay_fit((np.linspace(1.0, 5.0, 20), np.ones(20)), p=2.0)
        with pytest.raises(DiagnosticsError, match="strictly increasing"):
            decay_fit((good_t[::-1], good_t), p=2.0)
        with pytest.raises(DiagnosticsError, match="positive"):
            decay_fit((good_t, np.zeros(20)), p=2.0)
        with pytest.raises(DiagnosticsError, match="different lengths"):
            decay_fit((good_t, good_t[:-1]), p=2.0)


class TestMollify:
    def test_preserves_interior_mass(self):
        h = 0.05
        x = np.arange(-200, 201) * h
        vals = np.exp(-((x / 1.5) ** 2))
        out = mollify(vals, h, width=0.4)
        assert out.sum() * h == pytest.approx(vals.sum() * h, rel=1e-12)
        assert out.max() < vals.max()

    def test_narrow_width_is_identity(self):
        vals = np.random.default_rng(1).normal(size=64)
        npt.assert_array_equal(mollify(vals, spacing=0.1, width=0.05), vals)


def _synthetic_trajectory(grid, times, u_of_t, rho_of_t=None, report=None) -> Trajectory:
    """Assemble a Trajectory from prescribed analytic snapshots."""
    states = []
    rows = []
    for t in times:
        u = np.asarray(u_of_t(grid.x, t), dtype=float)
        rho = (
            np.asarray(rho_of_t(grid.x, t), dtype=float)
            if rho_of_t is not None
            else np.zeros(grid.n)
        )
        f_rho = as_field(grid, rho)
        f_u = as_field(grid, u)
        states.append(State(rho=f_rho, g=f_rho, t=float(t), u=f_u))
        rows.append([float(t)] + [0.0] * (len(SUMMARY_COLUMNS) - 1))
    table = np.asarray(rows)
    summary = {name: table[:, i] for i, name in enumerate(SUMMARY_COLUMNS)}
    if report is None:
        report = InitialReport(
            sandwich_holds=True, b=1.0, a=1.0, mass_rho=1.0, mass_g=1.0, min_rho=0.0
        )
    cfg = SolverConfig(
        alpha=0.5,
        n=grid.n,
        half_width=grid.half_width,
        t_end=float(times[-1]),
        initial=InitialDataSpec(ShapeSpec("gaussian")),
    )
    return Trajectory(
        config=cfg,
        states=tuple(states),
        output_times=tuple(float(t) for t in times),
        summary=summary,
        initial_report=report,
        steps=len(times),
        wall_time=0.0,
    )


class TestOleinik:
    def test_exact_fan_has_bounded_series(self):
        grid = build_grid(2048, 40.0)
        triple = RarefactionTriple(M_rho=1.0, M_G=1.0)
        times = np.linspace(1.0, 8.0, 12)
        traj = _synthetic_trajectory(
            grid, times, lambda x, t: rarefaction_velocity(triple, x, t)
        )
        report = oleinik_check(traj)
        # For the exact fan, t * sup u_x is identically 1.
        npt.assert_allclose(report.values, 1.0, rtol=1e-10)
        assert abs(report.fitted_growth) < 0.05
        assert report.bounded

    def test_frozen_velocity_is_flagged_unbounded(self):
        grid = build_grid(2048, 40.0)
        triple = RarefactionTriple(M_rho=1.0, M_G=1.0)
        times = np.linspace(1.0, 8.0, 12)
        traj = _synthetic_trajectory(
            grid, times, lambda x, t: rarefaction_velocity(triple, x, 1.0)
        )
        report = oleinik_check(traj)
        assert report.fitted_growth == pytest.approx(1.0, abs=1e-6)
        assert not report.bounded

    def test_requires_positive_time_state(self):
        grid = build_grid(256, 8.0)
        traj = _synthetic_trajectory(grid, [0.0], lambda x, t: np.zeros_like(x))
        with pytest.raises(DiagnosticsError, match="t > 0"):
            oleinik_check(traj)


class TestComparisonReport:
    def test_real_run_respects_sandwich(self, small_proportional_run):
        report = comparison_principle_report(small_proportional_run)
        floor = -1e-10 * report.rho0_linf
        assert report.min_g >= floor
        assert report.min_arho_minus_g >= floor
        assert report.min_g_minus_brho >= floor
        assert report.a == report.b == 1.0

    def test_synthetic_violation_is_surfaced(self):
        grid = build_grid(256, 8.0)
        traj = _synthetic_trajectory(grid, [0.5, 1.0], lambda x, t: np.zeros_like(x))
        summary = {k: v.copy() for k, v in traj.summary.items()}
        summary["min_G"][-1] = -0.125
        traj = Trajectory(
            config=traj.config,
            states=traj.states,
            output_times=traj.output_times,
            summary=summary,
            initial_report=traj.initial_report,
            steps=traj.steps,
            wall_time=0.0,
        )
        assert comparison_principle_report(traj).min_g == -0.125


class TestScalingReportValidation:
    def test_lambdas_must_increase(self):
        with pytest.raises(DiagnosticsError, match="increasing"):
            ScalingReport(
                mode="rarefaction", lambdas=(2.0, 1.0), distances=(0.1, 0.2),
                q=2.0, R=1.0, t1=1.0, t2=2.0,
            )

    def test_distances_must_be_finite(self):
        with pytest.raises(DiagnosticsError, match="finite"):
            ScalingReport(
                mode="rarefaction", lambdas=(1.0, 2.0), distances=(0.1, math.nan),
                q=2.0, R=1.0, t1=1.0, t2=2.0,
            )


def _rarefaction_base(**overrides) -> SolverConfig:
    base = dict(
        alpha=0.5,
        n=512,
        half_width=8.0,
        t_end=1.0,
        initial=InitialDataSpec(
            rho0=ShapeSpec(kind="bump", mass=1.0, width=2.0),
            mode="proportional",
            g_coef=1.0,
        ),
        flux_scheme="spectral",
    )
    base.update(overrides)
    return SolverConfig(**base)


class TestScalingExperiments:
    def test_rarefaction_validation(self):
        cfg = _rarefaction_base()
        with pytest.raises(DiagnosticsError, match="lambdas"):
            scaling_limit_experiment(cfg, (2.0, 1.0), q=2.0, R=1.5, t1=1.0, t2=2.0)
        with pytest.raises(DiagnosticsError, match="proportional"):
            zero = _rarefaction_base(
                initial=InitialDataSpec(rho0=ShapeSpec(kind="bump", width=2.0), mode="zero_G")
            )
            scaling_limit_experiment(zero, (1.0, 2.0), q=2.0, R=1.5, t1=1.0, t2=2.0)
        with pytest.raises(DiagnosticsError, match="M_G"):
            tiny = _rarefaction_base(
                initial=InitialDataSpec(
                    rho0=ShapeSpec(kind="bump", width=2.0), mode="proportional", g_coef=0.0
                )
            )
            scaling_limit_experiment(tiny, (1.0, 2.0), q=2.0, R=1.5, t1=1.0, t2=2.0)
        with pytest.raises(DiagnosticsError, match="0 < t1 < t2"):
            scaling_limit_experiment(cfg, (1.0, 2.0), q=2.0, R=1.5, t1=2.0, t2=1.0)
        with pytest.raises(DiagnosticsError, match="inside the base domain"):
            scaling_limit_experiment(cfg, (1.0, 2.0), q=2.0, R=7.9, t1=1.0, t2=2.0)

    def test_barenblatt_validation(self):
        cfg = _rarefaction_base()
        with pytest.raises(DiagnosticsError, match="zero_G"):
            barenblatt_limit_experiment(cfg, (1.0, 2.0))
        zero = _rarefaction_base(
            initial=InitialDataSpec(rho0=ShapeSpec(kind="bump", width=2.0), mode="zero_G")
        )
        with pytest.raises(DiagnosticsError, match="lambdas"):
            barenblatt_limit_experiment(zero, (0.5, 1.0))

    def test_rarefaction_smoke(self):
        report = scaling_limit_experiment(
            _rarefaction_base(), (1.0, 2.0), q=2.0, R=1.5, t1=1.0, t2=2.0, n_samples=3
        )
        assert report.mode == "rarefaction"
        assert report.lambdas == (1.0, 2.0)
        assert len(report.distances) == 2
        assert all(math.isfinite(d) and d >= 0 for d in report.distances)
        for series in (
            report.rho_distances,
            report.g_distances,
            report.distances_no_kink,
            report.rho_distances_no_kink,
            report.g_distances_no_kink,
        ):
            assert len(series) == 2

    def test_barenblatt_profile_data_is_near_fixed_point(self):
        cfg = SolverConfig(
            alpha=0.5,
            n=1024,
            half_width=16.0,
            t_end=1.0,
            initial=InitialDataSpec(rho0=ShapeSpec(kind="getoor", amplitude=1.0), mode="zero_G"),
            flux_scheme="spectral",
        )
        report = barenblatt_limit_experiment(cfg, (1.0, 2.0), p=1.0)
        assert report.mode == "barenblatt"
        assert all(d < 0.25 for d in report.distances), report.distances


class TestPoolSizing:
    @pytest.fixture
    def pool_sizes(self, monkeypatch) -> list[int]:
        """Pool sizes requested, with ProcessPoolExecutor replaced by an in-process stand-in."""
        sizes: list[int] = []

        class RecordingPool:
            def __init__(self, max_workers: int) -> None:
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc) -> None:
                return None

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(diagnostics, "_rarefaction_case", lambda cfg, lam, *rest: (lam,) * 6)
        return sizes

    @pytest.mark.parametrize(
        "lambdas, jobs, sizes",
        [((1.0, 2.0), 8, [2]), ((1.0, 2.0, 4.0, 8.0), 2, [2]), ((1.0,), 8, []), ((1.0, 2.0), 1, [])],
    )
    def test_rarefaction_pool_is_capped_by_lambda_count(self, pool_sizes, lambdas, jobs, sizes):
        report = scaling_limit_experiment(
            _rarefaction_base(), lambdas, q=2.0, R=1.5, t1=1.0, t2=2.0, jobs=jobs
        )
        assert pool_sizes == sizes
        assert report.distances == lambdas
        assert report.g_distances_no_kink == lambdas


def test_barenblatt_sweep_is_one_run_matching_per_lambda_runs(monkeypatch):
    """One in-process run to the largest T records the state each lambda needs.

    Reference runs that stop at each T with the earlier T as output times take
    the same steps, so they agree bit for bit.  Runs with T as their only
    output time also match bit for bit at lambda = 1; past it they cut no
    step at the earlier T, and their dt sequences part by O(dt^2): at n =
    1024 the distances differ by up to 2.2e-8 at cfl 0.4 and 3.6e-10 at the
    cfl 0.1 used here.
    """
    calls = []

    def recording_run(cfg):
        calls.append(cfg)
        return run(cfg)

    class NoPool:
        def __init__(self, *args, **kwargs) -> None:
            raise AssertionError("the Barenblatt sweep must not start a process pool")

    monkeypatch.setattr(diagnostics, "run", recording_run)
    monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", NoPool)
    zero = SolverConfig(
        alpha=0.5,
        n=1024,
        half_width=16.0,
        t_end=1.0,
        cfl=0.1,
        initial=InitialDataSpec(rho0=ShapeSpec(kind="gaussian", mass=1.0, width=1.0), mode="zero_G"),
    )
    lams = (1.0, 2.0, 4.0)
    report = barenblatt_limit_experiment(zero, lams, p=1.0)

    times = tuple(lam**1.5 for lam in lams)
    assert len(calls) == 1
    assert calls[0].output_times == times and calls[0].t_end == times[-1]
    grid = zero.make_grid()
    everywhere = np.ones(grid.n, dtype=bool)

    def distance(lam, state):
        target = np.asarray(attractor_density(0.5, 1.0, grid.x / lam, 1.0))
        return diagnostics._window_lq(lam * state.rho.values - target, everywhere, grid.spacing / lam, 1.0)

    prefix = [distance(lam, run(replace(calls[0], t_end=T, output_times=times[: i + 1])).states[-1])
              for i, (lam, T) in enumerate(zip(lams, times))]
    alone = [distance(lam, run(replace(calls[0], t_end=T, output_times=(T,))).states[-1])
             for lam, T in zip(lams, times)]
    assert report.distances == tuple(prefix)
    assert report.distances[0] == alone[0]
    npt.assert_allclose(report.distances[1:], alone[1:], rtol=0, atol=1e-9)
