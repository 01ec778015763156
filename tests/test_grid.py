"""Grid, field container, norms, and CSV persistence."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from euler_align import (
    Field,
    GridError,
    antiderivative,
    build_grid,
    integrate,
    lp_norm,
    read_field_csv,
    write_field_csv,
)


class TestGrid:
    def test_layout(self):
        grid = build_grid(64, 4.0)
        assert grid.n == 64
        assert grid.spacing == pytest.approx(8.0 / 64)
        assert grid.x[0] == -4.0
        assert grid.x[-1] == pytest.approx(4.0 - grid.spacing)
        npt.assert_allclose(np.diff(grid.x), grid.spacing)

    def test_wavenumbers_match_fft_layout(self):
        """The rfft half spectrum: xi_k = pi*k/L for k = 0 .. n/2, none negative."""
        grid = build_grid(32, 2.0)
        assert grid.wavenumbers.shape == (17,)
        assert np.array_equal(grid.wavenumbers, 2.0 * np.pi * np.fft.rfftfreq(32, d=grid.spacing))
        npt.assert_allclose(grid.wavenumbers, np.pi * np.arange(17) / 2.0, rtol=1e-15)
        assert grid.wavenumbers.min() == 0.0

    @pytest.mark.parametrize("n", [0, -4, 7, 9])
    def test_rejects_bad_n(self, n):
        with pytest.raises(GridError):
            build_grid(n, 1.0)

    @pytest.mark.parametrize("half_width", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_half_width(self, half_width):
        with pytest.raises(GridError):
            build_grid(16, half_width)

    def test_equality_and_hash_follow_size_and_width(self):
        a, b = build_grid(64, 4.0), build_grid(64, 4.0)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != build_grid(32, 4.0) and a != build_grid(64, 2.0)
        assert {a: "first", b: "second"} == {build_grid(64, 4.0): "second"}


class TestField:
    def test_length_mismatch_rejected(self):
        grid = build_grid(16, 1.0)
        with pytest.raises(GridError):
            Field(grid, np.zeros(17))

    def test_non_finite_rejected(self):
        grid = build_grid(16, 1.0)
        values = np.zeros(16)
        values[3] = np.nan
        with pytest.raises(GridError):
            Field(grid, values)

    def test_equality_and_hash_are_identity(self):
        grid = build_grid(16, 1.0)
        f, g = Field(grid, np.ones(16)), Field(grid, np.ones(16))
        assert f == f and f != g and not (f == g)
        assert hash(f) == hash(f)
        assert {f: "f", g: "g"}[g] == "g"



class TestNorms:
    def test_constant_field_exact(self):
        grid = build_grid(128, 3.0)
        f = Field(grid, np.ones(128))
        assert integrate(f) == pytest.approx(6.0, rel=1e-14)
        assert lp_norm(f, 1) == pytest.approx(6.0, rel=1e-14)
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(6.0), rel=1e-14)
        assert lp_norm(f, np.inf) == 1.0

    def test_periodic_mode_l2(self):
        grid = build_grid(256, np.pi)
        f = Field(grid, np.sin(grid.x))
        # ||sin||_2^2 over one period = pi
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_antiderivative_of_cosine(self):
        grid = build_grid(512, np.pi)
        f = Field(grid, np.cos(grid.x))
        F = antiderivative(f)
        target = np.sin(grid.x) - np.sin(grid.x[0])
        npt.assert_allclose(F.values, target, atol=5e-5)
        assert F.values[0] == 0.0


class TestCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        grid = build_grid(128, 4.0)
        f = Field(grid, rng.normal(size=128))
        path = tmp_path / "field.csv"
        write_field_csv(path, f)
        back = read_field_csv(path, grid)
        npt.assert_array_equal(back.values, f.values)

    def test_grid_mismatch_rejected(self, tmp_path):
        grid = build_grid(128, 4.0)
        write_field_csv(tmp_path / "f.csv", Field(grid, np.ones(128)))
        with pytest.raises(GridError):
            read_field_csv(tmp_path / "f.csv", build_grid(128, 5.0))
