"""Initial data construction, stepping, conservation, and persistence."""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
import json
import math
from pathlib import Path
import pickle
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.fft

from euler_align import fracops
from euler_align import (
    FracOrderError,
    InitialDataSpec,
    ShapeSpec,
    SolverConfig,
    SolverError,
    SpectralWorkspace,
    State,
    build_grid,
    evaluate_shape,
    evolved_profile_density,
    integrate,
    load_trajectory,
    lp_norm,
    make_initial_state,
    run,
    save_trajectory,
    step,
    velocity_from_state,
    write_field_csv,
)
from euler_align.solver import _run_lockstep
from euler_align import cli, solver
from euler_align.grid import Field
from euler_align.solver import SUMMARY_COLUMNS


def _gaussian_proportional(**overrides) -> SolverConfig:
    base = dict(
        alpha=0.5,
        n=512,
        half_width=10.0,
        t_end=0.5,
        initial=InitialDataSpec(
            rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.6),
            mode="proportional",
            g_coef=1.0,
        ),
        flux_scheme="spectral",
    )
    base.update(overrides)
    return SolverConfig(**base)


def _rolled_upwind_rhs(rho, g, ws, cfg, eps, g_coef=None):
    """Upwind right-hand side with np.roll neighbours and its own stage velocity.

    With g_coef given, the velocity takes G = g_coef * rho in coefficient form.
    """
    h = ws.grid.spacing
    g_arg = Field(ws.grid, g) if g_coef is None else g_coef
    u = velocity_from_state(Field(ws.grid, rho), g_arg, ws, cfg.image_correction).values
    u_face = 0.5 * (u + np.roll(u, -1))
    u_plus = np.maximum(u_face, 0.0)
    u_minus = np.minimum(u_face, 0.0)

    def tendency(v):
        flux = u_plus * v + u_minus * np.roll(v, -1)
        adv = -(flux - np.roll(flux, 1)) / h
        diff = eps * (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / h**2
        return adv + diff

    return tendency(rho), tendency(g)


def _rolled_upwind_step(rho, g, dt, ws, cfg, eps, g_coef=None):
    """Heun step on separate rho and G arrays that rebuilds its stage-1 velocity: the stepper's reference.

    With g_coef given, G is not evolved but set to g_coef * rho at each stage,
    and the velocity takes it in coefficient form.
    """
    d1r, d1g = _rolled_upwind_rhs(rho, g, ws, cfg, eps, g_coef)
    r1, g1 = rho + dt * d1r, g + dt * d1g
    if g_coef is not None:
        g1 = g_coef * r1
    d2r, d2g = _rolled_upwind_rhs(r1, g1, ws, cfg, eps, g_coef)
    rho_new, g_new = 0.5 * (rho + r1 + dt * d2r), 0.5 * (g + g1 + dt * d2g)
    if g_coef is not None:
        g_new = g_coef * rho_new
    return rho_new, g_new


def _reference_strang_step(rho, g, dt, ws, cfg, eps):
    """Strang split step: exact diffusion half-step, SSP-RK2 transport, half-step.

    The spectral scheme's former step, kept as a second-order reference that
    evaluates its first stage at the diffused state.
    """
    n = ws.grid.n
    xi_sq, ik = ws.transport_multipliers()
    half = np.exp(-eps * xi_sq * (0.5 * dt))

    def diffuse(y):
        return scipy.fft.irfft(half * scipy.fft.rfft(y), n)

    def transport_rhs(y):
        u = velocity_from_state(Field(ws.grid, y[0]), Field(ws.grid, y[1]), ws, cfg.image_correction).values
        return -scipy.fft.irfft(ik * scipy.fft.rfft(y * u), n)

    y = diffuse(np.stack((rho, g)))
    d1 = transport_rhs(y)
    d2 = transport_rhs(y + dt * d1)
    y = diffuse(y + 0.5 * dt * (d1 + d2))
    return y[0], y[1]


class TestShapes:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SolverError, match="unknown shape kind"):
            ShapeSpec(kind="triangle")

    def test_parameter_validation(self):
        with pytest.raises(SolverError):
            ShapeSpec(kind="gaussian", mass=-1.0)
        with pytest.raises(SolverError):
            ShapeSpec(kind="bump", width=0.0)
        with pytest.raises(SolverError):
            ShapeSpec(kind="getoor", amplitude=0.0)
        for path in (None, ""):
            with pytest.raises(SolverError, match="csv shape requires a path"):
                ShapeSpec(kind="csv", path=path)

    def test_gaussian_mass_and_center(self):
        grid = build_grid(1024, 12.0)
        vals = evaluate_shape(ShapeSpec(kind="gaussian", mass=2.5, width=0.7, center=1.0), grid, 0.5)
        assert integrate(Field(grid, vals)) == pytest.approx(2.5, rel=1e-10)
        assert grid.x[int(np.argmax(vals))] == pytest.approx(1.0, abs=grid.spacing)

    def test_bump_is_normalized_on_grid(self):
        grid = build_grid(512, 8.0)
        vals = evaluate_shape(ShapeSpec(kind="bump", mass=3.0, width=1.5), grid, 0.5)
        assert integrate(Field(grid, vals)) == pytest.approx(3.0, rel=1e-13)
        assert np.all(vals[np.abs(grid.x) >= 1.5] == 0.0)

    def test_getoor_shape_scales_amplitude(self):
        from euler_align import getoor_profile

        grid = build_grid(256, 4.0)
        vals = evaluate_shape(ShapeSpec(kind="getoor", amplitude=2.0), grid, 0.25)
        npt.assert_allclose(vals, 2.0 * getoor_profile(0.25, grid.x), atol=0)

    def test_csv_shape_round_trips(self, tmp_path):
        grid = build_grid(128, 5.0)
        ref = np.exp(-grid.x**2)
        path = tmp_path / "field.csv"
        write_field_csv(path, Field(grid, ref))
        vals = evaluate_shape(ShapeSpec(kind="csv", path=str(path)), grid, 0.5)
        npt.assert_array_equal(vals, ref)


class TestInitialData:
    def test_mode_validation(self):
        rho = ShapeSpec(kind="gaussian")
        with pytest.raises(SolverError, match="unknown initial mode"):
            InitialDataSpec(rho0=rho, mode="sideways")
        with pytest.raises(SolverError, match="g_coef"):
            InitialDataSpec(rho0=rho, mode="proportional", g_coef=-1.0)
        with pytest.raises(SolverError, match="b_coef <= g_coef <= a_coef"):
            InitialDataSpec(rho0=rho, mode="proportional", g_coef=1.0, b_coef=2.0)
        with pytest.raises(SolverError, match="requires a g0 shape"):
            InitialDataSpec(rho0=rho, mode="independent")
        with pytest.raises(SolverError, match="independent mode only"):
            InitialDataSpec(rho0=rho, mode="proportional", g0=rho)
        with pytest.raises(SolverError, match="proportional mode only"):
            InitialDataSpec(rho0=rho, mode="independent", g0=rho, a_coef=3.0)
        with pytest.raises(SolverError, match="proportional mode only"):
            InitialDataSpec(rho0=rho, mode="zero_G", b_coef=1.0)
        with pytest.raises(SolverError, match="proportional mode only"):
            InitialDataSpec(rho0=rho, mode="zero_G", g_coef=5.0)
        assert InitialDataSpec(rho0=rho).g_coef == 1.0

    def test_proportional_report(self):
        grid = build_grid(512, 10.0)
        spec = InitialDataSpec(
            rho0=ShapeSpec(kind="gaussian", mass=1.5, width=0.6), mode="proportional", g_coef=0.7
        )
        state, report = make_initial_state(spec, grid, 0.5)
        assert math.isfinite(report.b) and report.b == 0.7 and report.a == 0.7
        npt.assert_allclose(state.g.values, 0.7 * state.rho.values, atol=0)
        assert state.t == 0.0
        # A run's summary row 0 holds the initial masses, as the grid integrals of the initial state.
        summary = run(_gaussian_proportional(t_end=0.0, initial=spec)).summary
        assert summary["mass_rho"][0] == integrate(state.rho) == pytest.approx(1.5, rel=1e-10)
        assert summary["mass_G"][0] == integrate(state.g) == pytest.approx(0.7 * 1.5, rel=1e-10)

    def test_widened_sandwich_coefficients(self):
        grid = build_grid(512, 10.0)
        spec = InitialDataSpec(
            rho0=ShapeSpec(kind="gaussian", width=0.6),
            mode="proportional",
            g_coef=1.0,
            b_coef=0.25,
            a_coef=4.0,
        )
        _, report = make_initial_state(spec, grid, 0.5)
        assert (report.b, report.a) == (0.25, 4.0)

    def test_zero_g_mode(self):
        grid = build_grid(512, 8.0)
        spec = InitialDataSpec(rho0=ShapeSpec(kind="getoor"), mode="zero_G")
        state, report = make_initial_state(spec, grid, 0.5)
        assert np.all(state.g.values == 0.0)
        assert (report.b, report.a) == (0.0, 0.0)

    def test_independent_mode_measures_sandwich(self):
        grid = build_grid(1024, 10.0)
        spec = InitialDataSpec(
            rho0=ShapeSpec(kind="bump", mass=1.0, width=2.0),
            mode="independent",
            g0=ShapeSpec(kind="bump", mass=0.7, width=2.0),
        )
        state, report = make_initial_state(spec, grid, 0.5)
        assert report.b == pytest.approx(0.7, rel=1e-12)
        assert report.a == pytest.approx(0.7, rel=1e-12)

    def test_independent_mode_detects_unsandwichable_g(self):
        grid = build_grid(1024, 10.0)
        spec = InitialDataSpec(
            rho0=ShapeSpec(kind="bump", mass=1.0, width=0.8),
            mode="independent",
            g0=ShapeSpec(kind="bump", mass=1.0, width=0.8, center=3.0),
        )
        _, report = make_initial_state(spec, grid, 0.5)
        assert math.isnan(report.b) and math.isnan(report.a)

    def test_rejects_negative_density(self, tmp_path):
        grid = build_grid(128, 6.0)
        vals = np.exp(-grid.x**2)
        vals[10] = -0.05
        path = tmp_path / "neg.csv"
        write_field_csv(path, Field(grid, vals))
        spec = InitialDataSpec(rho0=ShapeSpec(kind="csv", path=str(path)), mode="zero_G")
        with pytest.raises(SolverError, match="negative"):
            make_initial_state(spec, grid, 0.5)

    def test_rejects_support_violation(self):
        grid = build_grid(256, 3.0)
        spec = InitialDataSpec(rho0=ShapeSpec(kind="gaussian", width=0.6), mode="zero_G")
        with pytest.raises(SolverError, match="support extends"):
            make_initial_state(spec, grid, 0.5)

    def test_rejects_trivial_proportional_density(self, tmp_path):
        grid = build_grid(128, 6.0)
        path = tmp_path / "zero.csv"
        write_field_csv(path, Field(grid, np.zeros(grid.n)))
        spec = InitialDataSpec(rho0=ShapeSpec(kind="csv", path=str(path)), mode="proportional")
        with pytest.raises(SolverError, match="nontrivial"):
            make_initial_state(spec, grid, 0.5)


class TestConfig:
    def test_validation(self):
        initial = InitialDataSpec(rho0=ShapeSpec(kind="gaussian"))
        with pytest.raises(SolverError, match="t_end"):
            _gaussian_proportional(t_end=-1.0)
        with pytest.raises(SolverError, match="cfl"):
            _gaussian_proportional(cfl=0.0)
        with pytest.raises(SolverError, match="cfl"):
            _gaussian_proportional(cfl=1.5)
        with pytest.raises(SolverError, match="flux_scheme"):
            _gaussian_proportional(flux_scheme="weno")
        with pytest.raises(SolverError, match="epsilon"):
            _gaussian_proportional(epsilon=-0.1)
        with pytest.raises(SolverError, match="strictly increasing"):
            _gaussian_proportional(output_times=(0.0, 0.4, 0.2))
        with pytest.raises(SolverError, match="inside"):
            _gaussian_proportional(output_times=(0.0, 0.9))
        with pytest.raises(SolverError, match="at least one time"):
            _gaussian_proportional(output_times=())
        with pytest.raises(FracOrderError):
            SolverConfig(alpha=1.5, n=256, half_width=8.0, t_end=1.0, initial=initial)

    def test_effective_epsilon(self):
        cfg = _gaussian_proportional()
        assert cfg.effective_epsilon(0.03) == 0.03
        cfg2 = _gaussian_proportional(epsilon=1e-3)
        assert cfg2.effective_epsilon(0.03) == 1e-3


def _initial_of_mode(mode: str, g_coef: float = 1.0) -> InitialDataSpec:
    """Gaussian data of one of the three modes; independent G is its own, shifted Gaussian.

    g_coef is passed in proportional mode only, the one mode that reads it.
    """
    g0 = ShapeSpec(kind="gaussian", mass=0.8, width=0.45, center=0.2) if mode == "independent" else None
    coef = g_coef if mode == "proportional" else None
    return InitialDataSpec(rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.6), mode=mode, g_coef=coef, g0=g0)


def _stepped_reference(cfg: SolverConfig):
    """run()'s outputs rebuilt from a loop of public step() calls.

    Returns the recorded states, the summary table (each value from
    ``integrate``/``lp_norm`` on the fields), and how many steps an output
    time cut short and how many recorded t its snap moved.
    """
    grid = cfg.make_grid()
    h = grid.spacing
    ws = SpectralWorkspace(grid, cfg.alpha)
    state, report = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
    eps = cfg.effective_epsilon(h)

    def row(s):
        rho, g = s.rho, s.g
        norms = [lp_norm(f, p) for f in (rho, g) for p in (1, 2, 4, math.inf)]
        return [s.t, integrate(rho), integrate(g), *norms, lp_norm(s.u, math.inf),
                g.values.min(), (report.a * rho.values - g.values).min(),
                (report.b * rho.values - g.values).max()]

    rows, states, pending, shortened, moved = [row(state)], [], list(cfg.output_times), 0, 0
    t_clock = 0.0
    while t_clock < cfg.t_end - 1e-9:
        dt_cap = solver._stable_dt(cfg, eps, h, float(np.abs(state.u.values).max()))
        dt = min(dt_cap, pending[0] - t_clock)
        shortened += dt < dt_cap
        state = step(state, dt, cfg, ws)
        t_clock = state.t
        rows.append(row(state))
        if t_clock >= pending[0] - 1e-9:
            state = replace(state, t=pending.pop(0))
            moved += state.t != t_clock
            states.append(state)
    assert not pending
    return states, np.array(rows), shortened, moved


def _assert_run_matches(traj, states, table) -> None:
    """States and summary equal bit for bit; int64 views tell -0.0 from +0.0."""
    assert traj.steps == len(table) - 1
    assert tuple(s.t for s in traj.states) == tuple(s.t for s in states)
    for ours, ref in zip(traj.states, states):
        for name in ("rho", "g", "u"):
            assert np.array_equal(getattr(ours, name).values.view(np.int64),
                                  getattr(ref, name).values.view(np.int64))
    ours = np.column_stack([traj.summary[c] for c in SUMMARY_COLUMNS])
    assert np.array_equal(ours.view(np.int64), table.view(np.int64))


class TestStep:
    def test_dt_validation(self):
        cfg = _gaussian_proportional()
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        with pytest.raises(SolverError, match="dt"):
            step(state, 0.0, cfg, ws)
        with pytest.raises(SolverError, match="dt"):
            step(state, math.inf, cfg, ws)

    def test_grid_mismatch(self):
        cfg = _gaussian_proportional()
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        other = SpectralWorkspace(build_grid(256, 10.0), cfg.alpha)
        with pytest.raises(SolverError, match="grids differ"):
            step(state, 1e-4, cfg, other)

    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_cfl_violation_raises(self, scheme):
        cfg = _gaussian_proportional(flux_scheme=scheme)
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        with pytest.raises(SolverError, match="CFL violation"):
            step(state, 10.0, cfg, ws)

    def test_spectral_step_transform_count(self, monkeypatch):
        """One spectral step: 2 velocities, each one fftconvolve (an rfft and an irfft), + 1 stacked (state, flux) rfft
        + 1 flux rfft + 2 stage irffts, all on numpy.fft."""
        cfg = _gaussian_proportional(n=256)
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        counts = {"scipy": 0, "numpy": 0, "fftconvolve": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key, module in (("scipy", scipy.fft), ("numpy", np.fft)):
            for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn",
                         "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft"):
                monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        monkeypatch.setattr(fracops, "fftconvolve", counted("fftconvolve", fracops.fftconvolve))
        dt = 0.5 * cfg.cfl * grid.spacing / float(np.abs(state.u.values).max())
        step(state, dt, cfg, ws)
        assert counts == {"scipy": 0, "numpy": 8, "fftconvolve": 2}

    def test_overflow_of_formed_g_aborts_the_step(self, monkeypatch):
        """Finite rho whose G = g_coef*rho overflows is rejected as a non-finite G row would be."""
        cfg = _gaussian_proportional(n=256, initial=_initial_of_mode("proportional", 4.0))
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)

        def overflowing(y, u, dt, runs, out):
            out[...] = y
            out[0, 0, grid.n // 2] = 1e308

        monkeypatch.setattr(solver, "_spectral_step", overflowing)
        with pytest.raises(SolverError, match="non-finite values"):
            step(state, 1e-4, cfg, ws)

    def test_used_workspace_survives_pickle(self):
        """The per-thread work arrays live outside the workspace, so it pickles."""
        cfg = _gaussian_proportional(n=256)
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        dt = 0.5 * cfg.cfl * grid.spacing / float(np.abs(state.u.values).max())
        state = step(state, dt, cfg, ws)
        loaded = pickle.loads(pickle.dumps(ws))
        used = (True, cfg.initial.g_coef)
        assert np.array_equal(loaded.velocity_kernel_spectrum(*used), ws.velocity_kernel_spectrum(*used))
        ours, theirs = step(state, dt, cfg, ws), step(state, dt, cfg, loaded)
        assert np.array_equal(ours.rho.values, theirs.rho.values)
        assert np.array_equal(ours.u.values, theirs.u.values)

    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_threads_sharing_a_workspace_match_serial_stepping(self, scheme):
        """Each thread has its own work arrays, so concurrent steps do not mix."""
        cfg = _gaussian_proportional(n=1024, flux_scheme=scheme)
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        initial = [
            make_initial_state(replace(cfg.initial, rho0=ShapeSpec("gaussian", width=w)),
                               grid, cfg.alpha, ws=ws)[0]
            for w in (0.4, 0.45, 0.5, 0.55)
        ]
        dt = 0.25 * cfg.cfl * grid.spacing / max(float(np.abs(s.u.values).max()) for s in initial)

        def advance(state: State) -> State:
            for _ in range(20):
                state = step(state, dt, cfg, ws)
            return state

        serial = [advance(s) for s in initial]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(initial)) as pool:
                futures = [pool.submit(advance, s) for s in initial]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.rho.values, b.rho.values)
            assert np.array_equal(a.g.values, b.g.values)
            assert np.array_equal(a.u.values, b.u.values)

    @pytest.mark.parametrize("scheme, calls", [("upwind", 2), ("spectral", 2)])
    def test_velocities_per_step(self, monkeypatch, scheme, calls):
        """Both schemes reuse state.u for their first stage: stage 2 and the new State."""
        cfg = _gaussian_proportional(n=256, flux_scheme=scheme)
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        count = Counter()

        def counter(name, core):
            def counted(*args, **kwargs):
                count[name] += 1
                return core(*args, **kwargs)
            return counted

        # Every reconstruction, one row or stacked, enters through one of these
        # names; the one-row entry calls the stacked core by its fracops name,
        # so no call is counted twice.
        monkeypatch.setattr(fracops, "velocity_from_state", counter("row", fracops.velocity_from_state))
        monkeypatch.setattr(solver, "velocity_from_state", counter("row", solver.velocity_from_state))
        monkeypatch.setattr(solver, "_velocity_rows", counter("rows", solver._velocity_rows))
        eps = cfg.effective_epsilon(grid.spacing)
        u_inf = float(np.abs(state.u.values).max())
        step(state, 0.5 * solver._stable_dt(cfg, eps, grid.spacing, u_inf), cfg, ws)
        assert sum(count.values()) == calls
        assert count == Counter(rows=calls)  # the stepping's stacked core makes them all

    @pytest.mark.parametrize("image_correction", [True, False])
    @pytest.mark.parametrize("n", [256, 1000])
    def test_upwind_step_bit_identical_to_rolled_reference(self, n, image_correction):
        """Independent mode evolves (rho, G) as two rows; proportional mode evolves rho and forms G."""
        rho0 = ShapeSpec(kind="gaussian", mass=1.0, width=0.6)
        cases = (
            (InitialDataSpec(rho0=rho0, mode="independent",
                             g0=ShapeSpec(kind="gaussian", mass=0.8, width=0.45, center=0.2)), None),
            (InitialDataSpec(rho0=rho0, mode="proportional", g_coef=0.8, b_coef=0.5, a_coef=2.0), 0.8),
        )
        for initial, g_coef in cases:
            cfg = _gaussian_proportional(
                n=n, flux_scheme="upwind", image_correction=image_correction, initial=initial
            )
            grid = cfg.make_grid()
            ws = SpectralWorkspace(grid, cfg.alpha)
            state, _ = make_initial_state(
                cfg.initial, grid, cfg.alpha, ws=ws, image_correction=image_correction
            )
            eps = cfg.effective_epsilon(grid.spacing)
            dt = 0.5 * solver._stable_dt(cfg, eps, grid.spacing, float(np.abs(state.u.values).max()))
            rho, g = state.rho.values, state.g.values
            for _ in range(5):
                state = step(state, dt, cfg, ws)
                rho, g = _rolled_upwind_step(rho, g, dt, ws, cfg, eps, g_coef)
            assert np.array_equal(state.rho.values, rho)
            assert np.array_equal(state.g.values, g)

    def test_upwind_step_peak_memory_under_768_kib(self):
        """Warm upwind steps at n = 8192 keep their temporaries in work arrays.

        Left per step: the new (rho, G), the stage and final velocities and
        the new State's 3 Fields, 64 KiB each.
        """
        cfg = _gaussian_proportional(n=8192, flux_scheme="upwind")
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        eps = cfg.effective_epsilon(grid.spacing)
        dt = 0.5 * solver._stable_dt(cfg, eps, grid.spacing, float(np.abs(state.u.values).max()))
        state = step(state, dt, cfg, ws)
        tracemalloc.start()
        try:
            for _ in range(5):
                state = step(state, dt, cfg, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 768 << 10

    @pytest.mark.parametrize("image_correction", [True, False])
    def test_spectral_step_agrees_with_strang_reference_to_third_order(self, image_correction):
        """Both steps are second order, so their one-step difference is O(dt^3)."""
        cfg = _gaussian_proportional(
            image_correction=image_correction,
            epsilon=0.05,
            initial=InitialDataSpec(
                rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.6),
                mode="proportional",
                g_coef=0.8,
                b_coef=0.5,
                a_coef=2.0,
            ),
        )
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(
            cfg.initial, grid, cfg.alpha, ws=ws, image_correction=image_correction
        )
        eps = cfg.effective_epsilon(grid.spacing)
        dt0 = solver._stable_dt(cfg, eps, grid.spacing, float(np.abs(state.u.values).max()))
        diffs = []
        for dt in (dt0, dt0 / 2, dt0 / 4):
            new = step(state, dt, cfg, ws)
            rho, g = _reference_strang_step(state.rho.values, state.g.values, dt, ws, cfg, eps)
            diffs.append(max(float(np.abs(new.rho.values - rho).max()),
                             float(np.abs(new.g.values - g).max())))
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        assert min(ratios) >= 6.0, f"one-step differences {diffs}, ratios {ratios}"

    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_time_stepping_is_second_order(self, scheme):
        cfg = _gaussian_proportional(
            n=1024, half_width=14.0, initial=InitialDataSpec(
                rho0=ShapeSpec(kind="gaussian", mass=1.0, width=1.0),
                mode="proportional",
                g_coef=1.0,
            ),
            flux_scheme=scheme,
            epsilon=0.01,
        )
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state0, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        horizon = 0.004

        def advance(nsteps: int) -> np.ndarray:
            s = state0
            for _ in range(nsteps):
                s = step(s, horizon / nsteps, cfg, ws)
            return s.rho.values

        ref = advance(16)
        errs = [float(np.abs(advance(k) - ref).max()) for k in (1, 2, 4)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, f"{scheme} observed orders {orders}"


class TestRun:
    def test_second_run_builds_no_image_kernel_and_is_bit_identical(self, monkeypatch, fresh_workspaces):
        """Runs of one grid and alpha share the process's workspace: only the first builds its kernels."""
        cfg = _gaussian_proportional(n=256, t_end=0.1, output_times=(0.0, 0.05, 0.1))
        builds = []
        image_kernel = SpectralWorkspace.image_kernel

        def counted(ws):
            builds.append(ws)
            return image_kernel(ws)

        monkeypatch.setattr(SpectralWorkspace, "image_kernel", counted)
        first = run(cfg)
        assert len(builds) == 1
        second = run(cfg)
        assert len(builds) == 1
        assert second.steps == first.steps and second.initial_report == first.initial_report
        _assert_run_matches(second, first.states, np.column_stack([first.summary[c] for c in SUMMARY_COLUMNS]))

    def test_zero_horizon_returns_initial_state(self):
        traj = run(_gaussian_proportional(t_end=0.0))
        assert traj.steps == 0
        assert len(traj.states) == 1 and traj.states[0].t == 0.0
        assert traj.summary["t"].shape == (1,)

    @pytest.mark.parametrize("change", [dict(half_width=8.0), dict(alpha=0.3), dict(n=128)])
    def test_workspace_of_another_grid_or_alpha_is_rejected(self, change):
        """A workspace built for another domain or order used to step with its kernels without a word."""
        cfg = _gaussian_proportional(n=256, t_end=0.05)
        other = replace(cfg, **change)
        ws = SpectralWorkspace(other.make_grid(), other.alpha)
        with pytest.raises(SolverError, match="workspace .* does not match the run"):
            make_initial_state(cfg.initial, cfg.make_grid(), cfg.alpha, ws=ws)
        # step: the state and its own workspace under a cfg that names another grid or alpha,
        # then the state under its cfg with the other workspace.
        own = SpectralWorkspace(cfg.make_grid(), cfg.alpha)
        state, _ = make_initial_state(cfg.initial, own.grid, cfg.alpha, ws=own)
        with pytest.raises(SolverError, match="workspace .* does not match the run"):
            step(state, 1e-4, other, own)
        if ws.grid == own.grid:  # a workspace for another alpha
            with pytest.raises(SolverError, match="workspace .* does not match the run"):
                step(state, 1e-4, cfg, ws)
        else:  # the state's own check comes first
            with pytest.raises(SolverError, match="state and workspace grids differ"):
                step(state, 1e-4, cfg, ws)

    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_mass_conservation(self, scheme):
        traj = run(_gaussian_proportional(flux_scheme=scheme, t_end=0.5))
        for key in ("mass_rho", "mass_G"):
            series = traj.summary[key]
            drift = np.abs(series - series[0]).max() / abs(series[0])
            assert drift <= 1e-12, f"{scheme} {key} drift {drift:.2e}"

    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_proportional_structure_is_preserved(self, scheme):
        """G0 = c*rho0 keeps G = c*rho bit for bit, so with b = a = c both sandwich columns read +0.0."""
        for c in (0.7, 4.0):
            cfg = _gaussian_proportional(
                flux_scheme=scheme,
                t_end=0.5,
                output_times=(0.0, 0.1, 0.25, 0.5),
                initial=InitialDataSpec(
                    rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.6),
                    mode="proportional",
                    g_coef=c,
                ),
            )
            traj = run(cfg)
            assert traj.initial_report.b == traj.initial_report.a == c
            for state in traj.states:
                assert np.array_equal(state.g.values, c * state.rho.values)
            for column in ("min_arho_minus_G", "max_brho_minus_G"):
                assert not traj.summary[column].any()
                assert not np.signbit(traj.summary[column]).any()

    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_zero_g_stays_positive_zero(self, scheme):
        """G0 = 0 keeps G all +0.0, also where the spectral scheme's ringing makes rho < 0."""
        cfg = _gaussian_proportional(
            flux_scheme=scheme,
            output_times=(0.1, 0.3, 0.5),
            initial=InitialDataSpec(rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.6), mode="zero_G"),
        )
        traj = run(cfg)
        for state in traj.states:
            assert not state.g.values.any()
            assert not np.signbit(state.g.values).any()
        assert not traj.summary["mass_G"].any()
        if scheme == "spectral":
            assert (traj.states[-1].rho.values < 0).any()

    @pytest.mark.parametrize("mode, rows", [("proportional", 1), ("zero_G", 1), ("independent", 2)])
    def test_spectral_run_step_transforms(self, monkeypatch, mode, rows):
        """Each run() step: 4 transforms stacked over the evolved rows, 4 velocity transforms of length 2n.

        A run is a stack of one run: the first stage transforms the rows and
        their fluxes as one (1, 2k, n) rfft, and each velocity one (1, n) row.

        Only an evolved G row is integrated, once per velocity; one-row data
        take no antiderivative.
        """
        n = 256
        rho0 = ShapeSpec(kind="gaussian", mass=1.0, width=0.6)
        g0 = ShapeSpec(kind="gaussian", mass=0.8, width=0.45, center=0.2) if mode == "independent" else None
        cfg = _gaussian_proportional(n=n, t_end=0.2, initial=InitialDataSpec(rho0=rho0, mode=mode, g0=g0))
        per_step: list[Counter] = []
        active = [False]

        def counted(name, fn):
            def wrapper(a, length=None, *args, **kwargs):
                if active[0]:
                    size = length if length is not None else a.shape[-1]
                    per_step[-1][(name, a.shape[:-1], size)] += 1
                return fn(a, length, *args, **kwargs)
            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        trapezoid = fracops.cumulative_trapezoid

        def counted_trapezoid(*args, **kwargs):
            if active[0]:
                per_step[-1]["cumulative_trapezoid"] += 1
            return trapezoid(*args, **kwargs)

        monkeypatch.setattr(fracops, "cumulative_trapezoid", counted_trapezoid)
        advance = solver._advance

        def spanned(*args, **kwargs):
            per_step.append(Counter())
            active[0] = True
            try:
                return advance(*args, **kwargs)
            finally:
                active[0] = False

        monkeypatch.setattr(solver, "_advance", spanned)
        traj = run(cfg)
        expected = Counter({
            ("rfft", (1, 2 * rows), n): 1, ("rfft", (1, rows), n): 1, ("irfft", (1, rows), n): 2,
            ("rfft", (1,), 2 * n): 2, ("irfft", (1,), 2 * n): 2,
            "cumulative_trapezoid": 2 * (rows - 1),
        })
        assert traj.steps >= 2
        assert per_step == [expected] * traj.steps

    @pytest.mark.parametrize("n, per_row_peak_kib", [(1024, 127), (2048, 249), (8192, 987)])
    def test_warm_run_peak_memory(self, monkeypatch, n, per_row_peak_kib):
        """A warm short run() keeps its peak near that of one summary row per step.

        per_row_peak_kib is the peak of the same run when run() formed one
        summary row per step (numpy 2.4).  A block's new rows take at most
        128 KiB.  At n <= 2048 the peak may grow by twice the block, slot 0
        included: the block itself and the summary's |y| of it.  At n = 8192
        a block is one step, and the peak stays at or below the per-row one.
        """
        cfg = _gaussian_proportional(
            n=n, flux_scheme="upwind", t_end=0.02, initial=_initial_of_mode("independent")
        )
        run(cfg)  # builds the shared workspace the warm run takes
        blocks = []
        summary_rows = solver._summary_rows

        def recorded(tu, y, *args):
            blocks.append(y.nbytes)
            return summary_rows(tu, y, *args)

        monkeypatch.setattr(solver, "_summary_rows", recorded)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(blocks) == 128 << 10
        if n == 8192:
            assert peak <= per_row_peak_kib << 10
        else:
            assert peak <= (per_row_peak_kib << 10) + 2 * (max(blocks) + 2 * n * 8)

    @pytest.mark.parametrize("g_coef", [0.0, 0.7])
    def test_form_g_of_a_block_allocates_under_4_kib(self, g_coef):
        """_form_g writes a block's G rows pair by pair: a ufunc on the strided
        views y[:, 0] and y[:, 1] of an (8, 2, 1024) block would copy its
        input, about 130 KiB."""
        cfg = _gaussian_proportional(n=1024, initial=_initial_of_mode("proportional", g_coef))
        y = np.random.default_rng(3).standard_normal((8, 2, 1024))
        expected = g_coef * y[:, 0] + 0.0  # +0.0: no -0.0 where rho < 0 and g_coef = 0
        solver._form_g(y, cfg)  # warm
        tracemalloc.start()
        try:
            solver._form_g(y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 10
        assert np.array_equal(y[:, 1], expected)
        assert not np.signbit(y[:, 1][expected == 0.0]).any()

    def test_upwind_positivity_and_max_principle(self):
        cfg = _gaussian_proportional(flux_scheme="upwind", t_end=1.0)
        traj = run(cfg)
        peak0 = float(traj.summary["rho_linf"][0])
        for state in traj.states:
            assert float(state.rho.values.min()) >= -1e-13 * peak0
        u = traj.summary["u_linf"]
        assert u.max() <= u[0] * (1.0 + 1e-9)

    def test_output_times_snapshots(self):
        times = (0.0, 0.1, 0.25, 0.4)
        traj = run(_gaussian_proportional(t_end=0.4, output_times=times))
        assert traj.output_times == times
        assert tuple(s.t for s in traj.states) == times
        # The t=0 snapshot is the initial data itself.
        first = traj.states[0]
        grid = first.rho.grid
        expected = evaluate_shape(ShapeSpec(kind="gaussian", mass=1.0, width=0.6), grid, 0.5)
        npt.assert_array_equal(first.rho.values, expected)

    def test_output_time_within_tolerance_of_zero_is_recorded_at_that_time(self, tmp_path):
        """The initial state is recorded at the output time that selects it, as later states are."""
        times = (1e-10, 0.05)
        traj = run(_gaussian_proportional(t_end=0.05, output_times=times))
        assert tuple(s.t for s in traj.states) == times
        assert traj.output_times == times
        save_trajectory(traj, tmp_path / "run")
        assert load_trajectory(tmp_path / "run").output_times == times

    def test_summary_matches_columns_and_steps(self):
        traj = run(_gaussian_proportional(t_end=0.2))
        assert set(traj.summary) == set(SUMMARY_COLUMNS)
        for series in traj.summary.values():
            assert series.shape == (traj.steps + 1,)
        assert traj.summary["t"][0] == 0.0
        assert traj.summary["t"][-1] == pytest.approx(0.2, abs=1e-9)
        assert np.all(np.diff(traj.summary["t"]) > 0)

    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_run_equals_repeated_step(self, scheme):
        """run()'s raw-array loop and a loop of public step() calls agree bit for bit, in every mode.

        Every output time cuts a step short.  0.0003 + (0.0008 - 0.0003) is not
        0.0008, so the snap of a recorded state's t to its output time moves it;
        the next step starts from the snapped t and takes its dt, cut short by
        0.0016, from the unsnapped one.
        """
        times = (0.0003, 0.0008, 0.0016, 0.05, 0.1)
        for mode in ("proportional", "zero_G", "independent"):
            cfg = _gaussian_proportional(
                flux_scheme=scheme, t_end=0.1, output_times=times, initial=_initial_of_mode(mode)
            )
            traj = run(cfg)
            states, table, shortened, moved = _stepped_reference(cfg)
            assert shortened == len(times) and moved >= 1
            _assert_run_matches(traj, states, table)

    @pytest.mark.parametrize("mode, g_coef", [
        ("proportional", 1.0), ("proportional", 0.0), ("zero_G", 0.0), ("independent", 1.0),
    ])
    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_blocked_run_equals_repeated_step(self, monkeypatch, scheme, mode, g_coef):
        """Across blocks of steps, run() and a loop of step() calls agree bit for bit.

        At n = 512 a block holds 16 steps.  The output times sit on the clock
        of the free run's 5th, 21st and 30th steps and at t_end, so blocks
        close at an output time mid-block (5, 9 steps), at an output time on
        their last step (16 steps), and when full.  With g_coef = 0, b = a = 0
        and the spectral scheme's rho < 0 gives sandwich columns of -0.0.
        """
        cfg = _gaussian_proportional(flux_scheme=scheme, t_end=2.5, initial=_initial_of_mode(mode, g_coef))
        clock = run(cfg).summary["t"]
        assert len(clock) > 48
        times = (float(clock[5]), float(clock[21]), float(clock[30]), cfg.t_end)
        cfg = replace(cfg, output_times=times)
        blocks = []
        summary_rows = solver._summary_rows

        def recorded(tu, y, *args):
            blocks.append((len(y), float(tu[-1, 0])))
            return summary_rows(tu, y, *args)

        monkeypatch.setattr(solver, "_summary_rows", recorded)
        traj = run(cfg)
        assert blocks[:5] == [(1, 0.0), (5, pytest.approx(times[0], abs=1e-12)),
                              (16, pytest.approx(times[1], abs=1e-12)),
                              (9, pytest.approx(times[2], abs=1e-12)), (16, blocks[4][1])]
        assert sum(size for size, _ in blocks) == traj.steps + 1
        states, table, _, _ = _stepped_reference(cfg)
        _assert_run_matches(traj, states, table)

    def test_run_builds_fields_only_at_output_times(self, monkeypatch):
        """3 Fields per recorded state plus the initial state's, however many steps."""
        calls = [0]
        original = Field.__post_init__

        def counted(self):
            calls[0] += 1
            original(self)

        monkeypatch.setattr(Field, "__post_init__", counted)
        extra = set()
        for times in ((0.3,), (0.1, 0.2, 0.3), (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)):
            calls[0] = 0
            traj = run(_gaussian_proportional(t_end=0.3, output_times=times))
            assert traj.steps > calls[0]
            extra.add(calls[0] - 3 * len(traj.states))
        assert extra == {3}

    @staticmethod
    def _box_config(tmp_path: Path, flux_scheme: str) -> SolverConfig:
        """rho0 = 0.5 on |x| < 1 as csv data: bounded, integrable, discontinuous and at vacuum."""
        grid = build_grid(1024, 16.0)
        path = tmp_path / "box.csv"
        write_field_csv(path, Field(grid, np.where(np.abs(grid.x) < 1.0, 0.5, 0.0)))
        return SolverConfig(
            alpha=0.5,
            n=1024,
            half_width=16.0,
            t_end=2.0,
            output_times=(0.0, 0.5, 1.0, 1.5, 2.0),
            flux_scheme=flux_scheme,
            initial=InitialDataSpec(
                rho0=ShapeSpec(kind="csv", path=str(path)), mode="proportional", b_coef=0.5, a_coef=2.0
            ),
        )

    def test_upwind_box_data_keeps_the_invariants(self, tmp_path):
        """The upwind scheme keeps rho >= 0, the maximum principle, the sandwich and mass on a jump."""
        traj = run(self._box_config(tmp_path, "upwind"))
        s = traj.summary
        assert s["t"][-1] == 2.0 and [state.t for state in traj.states] == [0.0, 0.5, 1.0, 1.5, 2.0]
        # G = rho here (g_coef 1), so min_G is the smallest rho of every step.
        assert s["min_G"].min() >= 0.0
        assert all(state.rho.values.min() >= 0.0 for state in traj.states)
        assert s["rho_linf"][0] == 0.5 and s["rho_linf"].max() <= 0.5
        assert s["min_arho_minus_G"].min() >= 0.0 and s["max_brho_minus_G"].max() <= 0.0
        for key in ("mass_rho", "mass_G"):
            assert np.abs(s[key] - s[key][0]).max() <= 1e-10 * s[key][0]

    def test_spectral_box_data_abort_names_the_ringing(self, tmp_path):
        """Spectral ringing on the jump reaches the margin; the message names the upwind scheme."""
        with pytest.raises(SolverError, match="boundary margin") as excinfo:
            run(self._box_config(tmp_path, "spectral"))
        assert "flux_scheme = upwind" in str(excinfo.value)

    def test_margin_abort_when_support_reaches_boundary(self):
        """At g_coef = 4, G = 4*rho is the first to pass the threshold in the margin."""
        self._check_margin_abort(4.0)

    def test_margin_abort_by_density_below_unit_coefficient(self):
        """At g_coef = 0.5, rho is the first to pass the threshold in the margin."""
        self._check_margin_abort(0.5)

    @staticmethod
    def _check_margin_abort(g_coef: float) -> None:
        """The run aborts at the first step whose max(|rho|, |G|) in the margin passes
        the threshold, at the t a loop of step() calls finds."""
        cfg = SolverConfig(
            alpha=0.5,
            n=256,
            half_width=3.0,
            t_end=10.0,
            initial=InitialDataSpec(
                rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.2),
                mode="proportional",
                g_coef=g_coef,
            ),
            flux_scheme="upwind",
        )
        with pytest.raises(SolverError, match="boundary margin") as excinfo:
            run(cfg)
        grid = cfg.make_grid()
        ws = SpectralWorkspace(grid, cfg.alpha)
        state, _ = make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws)
        eps = cfg.effective_epsilon(grid.spacing)
        margin = np.abs(grid.x) >= 0.75 * grid.half_width
        threshold = solver.MARGIN_ABORT_LEVEL * float(np.abs(state.rho.values).max())

        def margin_peak(s):
            return max(np.abs(s.rho.values[margin]).max(), np.abs(s.g.values[margin]).max())

        while margin_peak(state) <= threshold:
            u_inf = float(np.abs(state.u.values).max())
            state = step(state, solver._stable_dt(cfg, eps, grid.spacing, u_inf), cfg, ws)
        assert state.t < cfg.t_end
        assert f"at t = {state.t:.6g};" in str(excinfo.value)

    def test_zero_g_evolution_tracks_exact_solution(self):
        errors = {}
        for n in (512, 1024):
            cfg = SolverConfig(
                alpha=0.5,
                n=n,
                half_width=8.0,
                t_end=1.0,
                initial=InitialDataSpec(rho0=ShapeSpec(kind="getoor", amplitude=1.0), mode="zero_G"),
                epsilon=0.0,
                flux_scheme="upwind",
            )
            final = run(cfg).states[-1]
            grid = final.rho.grid
            exact = evolved_profile_density(0.5, 1.0, grid.x, final.t)
            errors[n] = float(grid.spacing * np.abs(final.rho.values - exact).sum())
        assert errors[1024] <= 0.08
        assert errors[1024] < errors[512]


def _round_trip_initial(case: str, tmp_path: Path) -> InitialDataSpec:
    """Proportional Gaussian data, or the two cases below."""
    if case == "independent_nan":
        # G0 > 0 where rho0 = 0: no finite sandwich constants exist.
        return InitialDataSpec(
            rho0=ShapeSpec(kind="bump", mass=1.0, width=0.8),
            mode="independent",
            g0=ShapeSpec(kind="bump", mass=1.0, width=0.8, center=2.0),
        )
    if case == "csv_rho0":
        grid = build_grid(512, 10.0)
        path = tmp_path / "rho0.csv"
        write_field_csv(path, Field(grid, np.exp(-grid.x**2 / 0.72)))
        return InitialDataSpec(rho0=ShapeSpec(kind="csv", path=str(path)), mode="zero_G")
    return _initial_of_mode("proportional")


class TestLockstep:
    """_run_lockstep advances several runs as stacked rows; each is the run it would be alone."""

    @pytest.mark.parametrize("mode", ["proportional", "independent"])
    @pytest.mark.parametrize("scheme", ["spectral", "upwind"])
    def test_each_run_is_bit_identical_to_its_own_run(self, monkeypatch, scheme, mode):
        """Runs that differ in half_width, t_end, output_times, viscosity and alpha; one finishes first.

        The run with t_end = 0 takes no step.  The stack is built once for the
        other three and compacted as each of the first two drops out.
        """
        base = _gaussian_proportional(n=256, flux_scheme=scheme, initial=_initial_of_mode(mode))
        cfgs = (
            replace(base, t_end=0.3, output_times=(0.1, 0.3)),
            replace(base, half_width=8.0, t_end=0.1),
            replace(base, half_width=12.0, t_end=0.4, output_times=(0.0, 0.15, 0.35), epsilon=0.02, alpha=0.3),
            replace(base, t_end=0.0),
        )
        stacks = []
        runs = solver._Runs

        def counted(cfgs, *rest):
            stacks.append(len(cfgs))
            return runs(cfgs, *rest)

        monkeypatch.setattr(solver, "_Runs", counted)
        trajs = _run_lockstep(cfgs)
        assert stacks == [3, 2, 1]
        monkeypatch.undo()
        assert trajs[3].steps == 0 < trajs[1].steps < min(trajs[0].steps, trajs[2].steps)
        for traj, cfg in zip(trajs, cfgs):
            alone = run(cfg)
            assert traj.config == cfg
            assert traj.initial_report == alone.initial_report
            _assert_run_matches(traj, alone.states, np.column_stack([alone.summary[c] for c in SUMMARY_COLUMNS]))

    @pytest.mark.parametrize("change", [
        dict(n=512), dict(flux_scheme="upwind"), dict(initial=_initial_of_mode("independent")),
    ])
    def test_runs_must_share_n_scheme_and_evolved_rows(self, change):
        base = _gaussian_proportional(n=256)
        with pytest.raises(SolverError, match="must share n, flux_scheme and the evolved rows"):
            _run_lockstep((base, replace(base, **change)))


class TestPersistence:
    @pytest.mark.parametrize("case", ["spectral", "upwind", "independent_nan", "csv_rho0"])
    def test_save_load_round_trip_is_exact(self, tmp_path, case):
        cfg = _gaussian_proportional(
            flux_scheme="upwind" if case == "upwind" else "spectral",
            initial=_round_trip_initial(case, tmp_path),
            t_end=0.3,
            output_times=(0.0, 0.15, 0.3),
        )
        traj = run(cfg)
        outdir = tmp_path / case
        manifest = save_trajectory(traj, outdir)
        assert (outdir / "manifest.json").exists()
        names = {p.name for p in outdir.iterdir()}
        assert {entry["file"] for entry in manifest["states"]} <= names
        assert manifest["summary_file"] in names

        loaded = load_trajectory(outdir)
        assert loaded.config == traj.config
        assert loaded.output_times == traj.output_times
        assert loaded.steps == traj.steps
        assert loaded.wall_time == manifest["run_wall_time_seconds"]
        assert sorted(manifest["initial_report"]) == ["a", "b"]
        if case == "independent_nan":
            assert math.isnan(traj.initial_report.b)
            assert math.isnan(loaded.initial_report.b) and math.isnan(loaded.initial_report.a)
        else:
            assert loaded.initial_report == traj.initial_report
        for a, b in zip(loaded.states, traj.states):
            assert a.t == b.t
            npt.assert_array_equal(a.rho.values, b.rho.values)
            npt.assert_array_equal(a.g.values, b.g.values)
            npt.assert_array_equal(a.u.values, b.u.values)
        for key in SUMMARY_COLUMNS:
            npt.assert_array_equal(loaded.summary[key], traj.summary[key])

    @pytest.mark.parametrize("shape", ["special", "one_row", "one_column", "random"])
    def test_csv_writer_matches_savetxt_bytes(self, tmp_path, shape):
        special = np.array([
            [math.nan, math.inf, -math.inf, -0.0],
            [5e-324, 1.5e-310, -2.2250738585072014e-308, 0.1],
            [1.0 / 3.0, -1e300, 0.0, 123456789.0],
        ])
        table = {
            "special": special,
            "one_row": special[:1],
            "one_column": special[:, :1],
            "random": np.random.default_rng(0).standard_normal((257, 15)),
        }[shape]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        solver._write_csv(ours, "x,rho,G,u", table)
        np.savetxt(ref, table, fmt="%.17g", delimiter=",", header="x,rho,G,u", comments="# ")
        assert ours.read_bytes() == ref.read_bytes()

    def test_load_reads_only_the_sandwich_pair_of_the_initial_report(self, tmp_path):
        """A manifest whose initial report also holds the fields it once had still loads."""
        traj = run(_gaussian_proportional(t_end=0.05, output_times=(0.0, 0.05)))
        save_trajectory(traj, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["initial_report"].update(sandwich_holds=True, mass_rho=1.0, mass_g=1.0, min_rho=0.0)
        path.write_text(json.dumps(manifest))
        assert load_trajectory(tmp_path).initial_report == traj.initial_report

    def test_load_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(SolverError):
            load_trajectory(tmp_path)

    def test_json_encoder_handles_numpy_nonfinite_and_paths(self):
        data = {
            "nan": math.nan,
            "inf": math.inf,
            "ninf": -math.inf,
            "f64": np.float64(0.25),
            "f64_nan": np.float64(np.nan),
            "i64": np.int64(7),
            "array": np.array([1.5, -np.inf]),
            "path": Path("runs") / "a",
            "nested": (np.int64(-3), [np.float64(np.inf)]),
        }
        out = solver._jsonable(data)
        assert out == {
            "nan": "nan",
            "inf": "inf",
            "ninf": "-inf",
            "f64": 0.25,
            "f64_nan": "nan",
            "i64": 7,
            "array": [1.5, "-inf"],
            "path": str(Path("runs") / "a"),
            "nested": [-3, ["inf"]],
        }
        assert type(out["f64"]) is float and type(out["i64"]) is int
        json.dumps(out, allow_nan=False)
        assert cli._jsonable is solver._jsonable
