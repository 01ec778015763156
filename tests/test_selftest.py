"""The built-in identity-check battery and its negative control."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from euler_align import (
    TOLERANCES,
    Field,
    SpectralWorkspace,
    build_grid,
    cross_validation_errors,
    fractional_laplacian_quadrature,
    fractional_laplacian_spectral,
    random_bump_field,
    run_selftest,
)
from euler_align import fracops, selftest

# Tighter bounds, about twice the measured headroom of the current operators:
# a regression in accuracy fails these before it reaches the run's tolerances.
STRICT = {
    "kernel_constant": 1e-12,
    "getoor_spectral": 3e-3,
    "getoor_quadrature": 5e-3,
    "cross_validation": 1e-3,
    "hilbert_sine": 1e-13,
    "hilbert_involution": 1e-13,
    "fraclap_semigroup": 1e-12,
    "riesz_inverse": 1e-12,
    "antiderivative_consistency": 1e-12,
    "closedform_velocity": 1e-12,
    "stroock_varopoulos": 1e-8,
    "gagliardo_nirenberg": 5e-2,
}


def _reference_cross_validation(alpha, rng, trials):
    """``cross_validation_errors`` as a per-trial loop: one oracle call per trial and resolution."""
    half_width = 8.0
    coarse = np.empty(trials)
    fine = np.empty(trials)
    levels = []
    for out, n in ((coarse, 1024), (fine, 2048)):
        grid = build_grid(n, half_width)
        probes = grid.x[np.abs(grid.x) <= 0.75 * half_width][:: n // 64]
        levels.append((out, grid, SpectralWorkspace(grid, alpha), probes))
    for trial in range(trials):
        params = selftest._bump_params(rng, half_width)
        for out, grid, ws, probes in levels:
            f = Field(grid, selftest._bump_values(grid.x, params))
            spec = fractional_laplacian_spectral(f, ws, image_correction=True)
            quad = fractional_laplacian_quadrature(f, alpha, probes)
            spec_at = np.interp(probes, grid.x, spec.values)
            out[trial] = np.abs(spec_at - quad).max() / np.abs(f.values).max()
    return coarse, fine


def _per_grid_cross_validation(alpha, rng, trials):
    """``cross_validation_errors`` evaluating each resolution's stack on its own grid, one set at a time."""
    half_width = 8.0
    params = [selftest._bump_params(rng, half_width) for _ in range(trials)]
    errors = []
    for n in (1024, 2048):
        grid = build_grid(n, half_width)
        probes = np.flatnonzero(np.abs(grid.x) <= 0.75 * half_width)[:: n // 64]
        values = np.stack([selftest._bump_values(grid.x, p) for p in params])
        fields = [Field(grid, row) for row in values]
        quads = fractional_laplacian_quadrature(fields, alpha, grid.x[probes])
        specs = fractional_laplacian_spectral(fields, fracops.workspace(grid, alpha), image_correction=True)
        errors.append(np.abs(specs[:, probes] - quads).max(axis=1) / np.abs(values).max(axis=1))
    return tuple(errors)


def _traced_peak(call):
    """Peak bytes ``tracemalloc`` sees during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunSelftest:
    def test_default_profile_passes(self):
        report = run_selftest(seed=0)
        assert report.passed, [r for r in report.records if not r.passed]
        assert len(report.records) == len({(r.check, r.alpha) for r in report.records})
        checks = {r.check for r in report.records}
        assert {"kernel_constant", "getoor_spectral", "hilbert_sine", "cross_validation"} <= checks

    def test_strict_profile_passes(self):
        report = run_selftest(seed=0)
        over = [r for r in report.records if not r.max_error <= STRICT[r.check]]
        assert not over, over

    def test_records_carry_measurements(self):
        report = run_selftest(seed=3)
        for record in report.records:
            assert record.max_error >= 0.0
            assert record.tolerance > 0.0
            assert record.passed == (record.max_error <= record.tolerance)

    def test_jsonable_round_trip(self, tmp_path):
        import json

        from euler_align.cli import main

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        assert main(["selftest", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "selftest_report.json").read_text(), parse_constant=reject)
        manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=reject)
        assert payload["passed"] is True
        assert len(payload["records"]) == len(manifest["checks"]) > 0

    def test_each_record_names_the_grid_its_check_built(self, monkeypatch):
        built, sizes = [], []
        record = selftest._record

        def spy_grid(n, half_width):
            built.append(n)
            return build_grid(n, half_width)

        def spy_record(check, alpha, n, result):
            sizes.append((check, n, min(built, default=0)))
            built.clear()
            return record(check, alpha, n, result)

        monkeypatch.setattr(selftest, "build_grid", spy_grid)
        monkeypatch.setattr(selftest, "_record", spy_record)
        assert len(run_selftest(seed=0).records) == len(sizes) > 0
        assert [(check, n) for check, n, _ in sizes] == [(check, n) for check, _, n in sizes]

    def test_negative_control_fails_exactly_one_check(self):
        report = run_selftest(seed=0, inject_hilbert_sign_error=True)
        assert not report.passed
        failing = {r.check for r in report.records if not r.passed}
        assert failing == {"hilbert_sine"}

    def test_profiles_table_is_consistent(self):
        assert set(TOLERANCES) == set(STRICT)
        assert all(STRICT[k] <= TOLERANCES[k] for k in TOLERANCES)


class TestRandomFields:
    def test_bump_field_is_reproducible_and_supported(self):
        grid = build_grid(512, 8.0)
        a = random_bump_field(grid, np.random.default_rng(7)).values
        b = random_bump_field(grid, np.random.default_rng(7)).values
        np.testing.assert_array_equal(a, b)
        # Centers are confined to |x| <= L/4 with width <= 1, so the Gaussian
        # tails near the boundary are negligible.
        assert np.abs(a[np.abs(grid.x) > 7.0]).max() < 1e-8 * np.abs(a).max()

    def test_cross_validation_errors_improve_with_resolution(self):
        rng = np.random.default_rng(11)
        coarse, fine = cross_validation_errors(0.5, rng, trials=4)
        assert coarse.shape == fine.shape == (4,)
        assert fine.max() < coarse.max()
        assert coarse.max() < 5e-2

    @pytest.mark.parametrize("alpha, trials, seed", [(0.25, 3, 29), (0.75, 5, 29), (0.25, 20, 20240817),
                                                     (0.5, 20, 20240817), (0.75, 20, 20240817)])
    def test_cross_validation_errors_match_the_per_trial_loop(self, alpha, trials, seed):
        """One stacked oracle call and one stacked spectral call per resolution, on fields
        evaluated once on the fine grid, give the errors of evaluating and checking every trial
        on each grid separately, bit for bit, and the rng ends in the loop's state."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        coarse, fine = cross_validation_errors(alpha, rng, trials)
        ref_coarse, ref_fine = _reference_cross_validation(alpha, ref_rng, trials)
        assert coarse.shape == fine.shape == (trials,)
        assert coarse.tobytes() == ref_coarse.tobytes()
        assert fine.tobytes() == ref_fine.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_cross_validation_stack_peaks_no_higher_than_per_grid_stacks(self):
        """The trials are evaluated in place, once, on the fine grid: a warm 20-trial call peaks no
        higher under ``tracemalloc`` than evaluating each resolution's stack on its own grid."""
        rng = np.random.default_rng(20240817)
        cross_validation_errors(0.5, rng, 20)
        _per_grid_cross_validation(0.5, rng, 20)
        peak = _traced_peak(lambda: cross_validation_errors(0.5, np.random.default_rng(3), 20))
        reference = _traced_peak(lambda: _per_grid_cross_validation(0.5, np.random.default_rng(3), 20))
        assert peak <= reference

    @pytest.mark.parametrize("trials", [-1, 0])
    def test_cross_validation_needs_at_least_one_trial(self, trials):
        """Below one trial there is no error to report: -1 used to fail inside numpy, 0 to give
        empty arrays that the self-test's maximum could not reduce."""
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"trials >= 1, got {trials}"):
            cross_validation_errors(0.5, rng, trials)
        assert rng.bit_generator.state == state

    def test_cross_validation_builds_one_workspace_per_resolution(self, monkeypatch, fresh_workspaces):
        """The workspaces come from the shared cache (``fracops.workspace``): one build per
        resolution on the first call, none on the next, with the same errors."""
        built = []

        def counting_workspace(*args, **kwargs):
            built.append(SpectralWorkspace(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(fracops, "SpectralWorkspace", counting_workspace)
        expected = cross_validation_errors(0.5, np.random.default_rng(11), trials=4)
        assert [(ws.grid.n, ws.alpha) for ws in built] == [(1024, 0.5), (2048, 0.5)]
        coarse, fine = cross_validation_errors(0.5, np.random.default_rng(11), trials=4)
        assert len(built) == 2
        assert np.array_equal(coarse, expected[0])
        assert np.array_equal(fine, expected[1])


class TestBumpStacks:
    """The seeded bump fields come in stacks whose rows are the one-set evaluation's bytes."""

    @pytest.mark.parametrize("seed, half_width", [(0, 8.0), (7, 16.0), (20240817, 3.3)])
    def test_one_vector_draw_equals_nine_scalar_draws(self, seed, half_width):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        params = selftest._bump_params(rng, half_width)
        quarter = half_width / 4.0
        ref = [[ref_rng.uniform(0.5, 2.0), ref_rng.uniform(-quarter, quarter), ref_rng.uniform(0.3, 1.0)]
               for _ in range(3)]
        assert params.shape == (3, 3)
        assert params.tobytes() == np.array(ref).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("dilation", [1.0, 2.0, 4.0])
    def test_one_set_is_the_sum_of_its_bumps(self, dilation):
        x = build_grid(2048, 16.0).x
        params = selftest._bump_params(np.random.default_rng(5), 16.0)
        ref = np.zeros_like(x)
        for amp, center, width in params.tolist():
            ref += dilation * amp * np.exp(-0.5 * ((dilation * x - center) / width) ** 2)
        assert selftest._bump_values(x, params, dilation).tobytes() == ref.tobytes()

    def test_stacked_sets_match_one_set_rows(self):
        rng = np.random.default_rng(13)
        x = build_grid(2048, 8.0).x
        params = [selftest._bump_params(rng, 8.0) for _ in range(5)]
        values = selftest._bump_values(x, params)
        assert values.shape == (5, 2048)
        for row, p in zip(values, params):
            assert row.tobytes() == selftest._bump_values(x, p).tobytes()

    def test_dilation_stack_matches_one_set_rows(self):
        x = build_grid(4096, 16.0).x
        params = selftest._bump_params(np.random.default_rng(17), 16.0)
        values = selftest._bump_values(x, params, dilation=(1.0, 2.0, 4.0))
        assert values.shape == (3, 4096)
        for row, s in zip(values, (1.0, 2.0, 4.0)):
            assert row.tobytes() == selftest._bump_values(x, params, dilation=s).tobytes()

    def test_stack_is_evaluated_in_place(self):
        """A stack costs its (B, n) result, one (B, n) scratch array and numpy's broadcasting
        buffers (at most two of 8192 values), not a (B, n) temporary per operation."""
        rng = np.random.default_rng(19)
        x = build_grid(2048, 8.0).x
        params = [selftest._bump_params(rng, 8.0) for _ in range(20)]
        selftest._bump_values(x, params)
        assert _traced_peak(lambda: selftest._bump_values(x, params)) <= (2 * 20 * 2048 + 2 * 8192) * 8 + 4096

    @pytest.mark.parametrize("n, half_width", [(1024, 8.0), (8, 1.0), (64, 3.3), (512, 16.0), (2048, 0.1),
                                               (1000, 7.7)])
    def test_coarse_grid_is_every_other_fine_node(self, n, half_width):
        """h_n = 2 h_2n exactly, so x_j = -L + h_n j is the fine grid's node 2j bit for bit."""
        coarse, fine = build_grid(n, half_width), build_grid(2 * n, half_width)
        assert coarse.x.tobytes() == fine.x[::2].tobytes()
