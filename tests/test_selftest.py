"""The built-in identity-check battery and its negative control."""

from __future__ import annotations

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

    @pytest.mark.parametrize("alpha, trials", [(0.25, 3), (0.75, 5)])
    def test_cross_validation_errors_match_the_per_trial_loop(self, alpha, trials):
        """One stacked oracle call and one stacked spectral call per resolution give the loop's
        errors bit for bit, and the rng ends in the loop's state."""
        rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
        coarse, fine = cross_validation_errors(alpha, rng, trials)
        ref_coarse, ref_fine = _reference_cross_validation(alpha, ref_rng, trials)
        assert coarse.shape == fine.shape == (trials,)
        assert coarse.tobytes() == ref_coarse.tobytes()
        assert fine.tobytes() == ref_fine.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

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
