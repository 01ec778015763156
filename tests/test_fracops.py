"""Fractional operators: both routes, transforms, inequalities, velocity."""

from __future__ import annotations

import re
import threading
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import numpy.testing as npt
import pytest

from euler_align import (
    Field,
    FracOrder,
    FracOrderError,
    GridError,
    SpectralWorkspace,
    build_grid,
    cross_validation_errors,
    fractional_laplacian_quadrature,
    fractional_laplacian_spectral,
    gagliardo_nirenberg_check,
    getoor_constant,
    getoor_fraclap_tail,
    getoor_profile,
    hilbert_transform,
    left_tail_anchor,
    periodic_image_correction,
    random_bump_field,
    riesz_potential,
    run_selftest,
    singular_kernel_constant,
    stroock_varopoulos_check,
    velocity_from_state,
    velocity_profile_U,
)
from euler_align import closedform, fracops
from euler_align.fracops import N_IMAGES, apply_multiplier, derivative, fftconvolve, workspace
from euler_align.grid import antiderivative, integrate
from oracles import getoor_tail_hyp2f1, velocity_profile_U_hyp2f1

ALPHAS = (0.25, 0.5, 0.75)


class TestFracOrder:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, np.nan])
    def test_rejects_outside_open_interval(self, alpha):
        with pytest.raises(FracOrderError):
            FracOrder(alpha)

    @pytest.mark.parametrize("alpha", [1e-6, 0.5, 1.0 - 1e-9])
    def test_accepts_interior(self, alpha):
        assert float(FracOrder(alpha)) == alpha


class TestKernelConstant:
    def test_exact_half_order_value(self):
        # Gamma(-1/4) = -4 Gamma(3/4) collapses the constant to 1/(2 sqrt(2 pi)).
        assert singular_kernel_constant(0.5) == pytest.approx(
            1.0 / (2.0 * np.sqrt(2.0 * np.pi)), rel=1e-14
        )

    def test_order_one_limit_is_hilbert_constant(self):
        assert singular_kernel_constant(1.0 - 1e-12) == pytest.approx(1.0 / np.pi, rel=1e-9)


class TestSpectralOperator:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cosine_mode_is_eigenfunction(self, alpha):
        grid = build_grid(512, 4.0)
        ws = SpectralWorkspace(grid, alpha)
        xi0 = 3.0 * np.pi / 4.0  # third Fourier mode of the torus
        f = Field(grid, np.cos(xi0 * grid.x))
        out = fractional_laplacian_spectral(f, ws)
        npt.assert_allclose(out.values, xi0**alpha * f.values, atol=1e-12)

    def test_annihilates_constants(self):
        grid = build_grid(128, 4.0)
        ws = SpectralWorkspace(grid, 0.5)
        out = fractional_laplacian_spectral(Field(grid, np.full(128, 3.7)), ws)
        npt.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_semigroup_property(self, rng):
        grid = build_grid(1024, 8.0)
        f = random_bump_field(grid, rng)
        one = fractional_laplacian_spectral(
            fractional_laplacian_spectral(f, SpectralWorkspace(grid, 0.3)),
            SpectralWorkspace(grid, 0.45),
        )
        two = fractional_laplacian_spectral(f, SpectralWorkspace(grid, 0.75))
        npt.assert_allclose(one.values, two.values, atol=1e-11)

    def test_workspace_grid_mismatch_rejected(self):
        ws = SpectralWorkspace(build_grid(64, 4.0), 0.5)
        f = Field(build_grid(64, 5.0), np.zeros(64))
        with pytest.raises(Exception):
            fractional_laplacian_spectral(f, ws)

    @pytest.mark.parametrize("image_correction", [False, True])
    @pytest.mark.parametrize("n, alpha", [(1000, 0.25), (2048, 0.75)])
    def test_stack_is_the_per_field_call_row_for_row(self, n, alpha, image_correction):
        """Each row of a stacked call is the one-field call's bytes, and those are the bytes of
        the multiplier and the image correction applied apart and added."""
        grid = build_grid(n, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        fields = [random_bump_field(grid, np.random.default_rng(seed)) for seed in range(4)]
        stacked = fractional_laplacian_spectral(fields, ws, image_correction=image_correction)
        assert stacked.shape == (4, n)
        for f, row in zip(fields, stacked):
            one = fractional_laplacian_spectral(f, ws, image_correction=image_correction)
            assert isinstance(one, Field) and row.tobytes() == one.values.tobytes()
            ref = apply_multiplier(f, ws.abs_power_multiplier(alpha)).values
            if image_correction:
                ref = ref + periodic_image_correction(f, ws).values
            assert row.tobytes() == ref.tobytes()

    def test_stack_must_lie_on_the_workspace_grid(self):
        ws = SpectralWorkspace(build_grid(64, 4.0), 0.5)
        fields = [Field(ws.grid, np.zeros(64)), Field(build_grid(64, 5.0), np.zeros(64))]
        with pytest.raises(GridError, match="different grids"):
            fractional_laplacian_spectral(fields, ws)
        with pytest.raises(ValueError, match="at least one field"):
            fractional_laplacian_spectral([], ws)

    @pytest.mark.parametrize("n, alpha", [(1000, 0.25), (2048, 0.75)])
    def test_stacked_multiplier_and_correction_are_the_per_field_calls_row_for_row(self, n, alpha):
        grid = build_grid(n, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        fields = _three_rows(grid, alpha, random_bump_field(grid, np.random.default_rng(n)))
        multipliers = (ws.abs_power_multiplier(alpha), ws.abs_power_multiplier(-alpha),
                       -1j * ws.abs_power_multiplier(alpha - 1.0), 1j * grid.wavenumbers)
        for op in [lambda f, m=m: apply_multiplier(f, m) for m in multipliers] + [
                lambda f: periodic_image_correction(f, ws)]:
            stacked = op(fields)
            assert stacked.shape == (3, n)
            for f, row in zip(fields, stacked):
                one = op(f)
                assert isinstance(one, Field) and row.tobytes() == one.values.tobytes()

    @pytest.mark.parametrize("b", [2, 5])
    def test_a_corrected_stack_is_four_transforms_and_one_convolution(self, b, monkeypatch):
        """The multiplier and the correction each transform the whole stack once, up to one block of rows."""
        grid = build_grid(256, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        ws.image_kernel_spectrum()  # built apart: its own rfft is not the operator's
        fields = [random_bump_field(grid, np.random.default_rng(seed)) for seed in range(b)]
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        monkeypatch.setattr(fracops, "fftconvolve", counted("fftconvolve", fracops.fftconvolve))
        fractional_laplacian_spectral(fields, ws, image_correction=True)
        assert sorted(calls) == ["fftconvolve", "irfft", "irfft", "rfft", "rfft"]

    def test_multiplier_must_be_the_half_spectrum(self):
        grid = build_grid(64, 4.0)
        f = Field(grid, np.zeros(64))
        for shape in [(64,), (2, 33), (32,)]:
            with pytest.raises(ValueError, match=re.escape(f"multiplier shape {shape} is not the half spectrum's (33,)")):
                apply_multiplier([f, f], np.ones(shape))
        with pytest.raises(GridError, match="share one grid"):
            apply_multiplier([f, Field(build_grid(64, 5.0), np.zeros(64))], np.ones(33))
        with pytest.raises(ValueError, match="at least one field"):
            apply_multiplier([], np.ones(33))


class TestSharedWorkspace:
    """``fracops.workspace``: one workspace per (n, L, alpha) per process, within a byte budget."""

    def test_equal_grid_and_alpha_give_the_same_workspace(self, fresh_workspaces):
        ws = workspace(build_grid(256, 8.0), 0.5)
        assert (ws.grid, ws.alpha) == (build_grid(256, 8.0), 0.5)
        assert workspace(build_grid(256, 8.0), 0.5) is ws  # a grid built apart
        assert workspace(build_grid(256, 8), 0.5) is ws  # an int half-width of the same value
        assert workspace(ws.grid, 0.5) is ws

    @pytest.mark.parametrize("n, half_width, alpha", [(256, 8.0, 0.3), (256, 10.0, 0.5), (512, 8.0, 0.5)])
    def test_another_alpha_or_grid_gives_another_workspace(self, fresh_workspaces, n, half_width, alpha):
        ws = workspace(build_grid(256, 8.0), 0.5)
        other = workspace(build_grid(n, half_width), alpha)
        assert other is not ws
        assert (other.grid, other.alpha) == (build_grid(n, half_width), alpha)
        assert workspace(build_grid(256, 8.0), 0.5) is ws
        assert workspace(build_grid(n, half_width), alpha) is other

    def test_budget_evicts_the_least_recently_used_and_keeps_the_newest(self, fresh_workspaces, monkeypatch):
        grid = build_grid(256, 8.0)
        a, b = workspace(grid, 0.3), workspace(grid, 0.5)
        assert a.nbytes == b.nbytes == grid.x.nbytes + grid.wavenumbers.nbytes
        monkeypatch.setattr(fracops, "WORKSPACE_BUDGET", 2 * a.nbytes)
        assert workspace(grid, 0.3) is a  # now b is the least recently used
        c = workspace(grid, 0.7)
        assert list(fresh_workspaces.values()) == [a, c]
        # An array built later counts: a's image kernel takes it past the budget.
        a.image_kernel()
        assert a.nbytes > 2 * c.nbytes
        assert workspace(grid, 0.7) is c
        assert list(fresh_workspaces.values()) == [c]
        # The newest stays even when it alone exceeds the budget.
        c.image_kernel()
        assert workspace(grid, 0.7) is c
        assert list(fresh_workspaces.values()) == [c]
        assert workspace(grid, 0.3) is not a

    def test_selftest_and_cross_validation_build_one_workspace_per_grid_and_alpha(self, fresh_workspaces, monkeypatch):
        """A cold self-test plus the benchmark's three cross-validations used to build 32 workspaces."""
        built = []
        init = SpectralWorkspace.__init__

        def counted(ws, grid, alpha):
            built.append((grid.n, grid.half_width, alpha))
            init(ws, grid, alpha)

        monkeypatch.setattr(SpectralWorkspace, "__init__", counted)
        run_selftest(seed=0)
        rng = np.random.default_rng(20240817)
        for alpha in (0.25, 0.5, 0.75):
            cross_validation_errors(alpha, rng, trials=2)
        assert len(built) == len(set(built)) == 15


class TestQuadratureKeepsNothing:
    """The oracle builds its weights per call: no state survives it, so a cold call is a warm one."""

    @pytest.mark.parametrize("n", [1000, 2048])
    def test_calls_at_three_orders_leave_the_shared_cache_empty(self, fresh_workspaces, n):
        grid = build_grid(n, 8.0)
        probes = grid.x[np.abs(grid.x) <= 6.0][:: n // 64]
        fields = _three_rows(grid, 0.5, random_bump_field(grid, np.random.default_rng(n)))
        cold = fractional_laplacian_quadrature(fields, 0.5, probes)
        for alpha in (0.25, 0.75):
            fractional_laplacian_quadrature(fields, alpha, probes)
        repeated = fractional_laplacian_quadrature(fields, 0.5, probes)
        assert fresh_workspaces == {}
        assert repeated.tobytes() == cold.tobytes()

    def test_a_second_selftest_gives_equal_records(self, fresh_workspaces):
        first = run_selftest(seed=0)
        assert run_selftest(seed=0).records == first.records


def _abs_power(xi, p):
    """|xi|^p with the zero mode 0, on any layout."""
    with np.errstate(divide="ignore"):
        return np.where(xi == 0.0, 0.0, np.abs(xi) ** p)


# name: (the operator, its symbol m(xi, alpha) on the full FFT layout, whether it is odd)
_OPERATORS = {
    "fractional_laplacian": (fractional_laplacian_spectral, lambda xi, a: _abs_power(xi, a), False),
    "hilbert": (hilbert_transform, lambda xi, a: -1j * np.sign(xi), True),
    "riesz": (lambda f, ws: riesz_potential(f, ws.alpha, ws), lambda xi, a: _abs_power(xi, -a), False),
    "derivative": (lambda f, ws: derivative(f), lambda xi, a: 1j * xi, True),
    "velocity_primitive": (
        lambda f, ws: apply_multiplier(f, -1j * ws.abs_power_multiplier(ws.alpha - 1.0)),
        lambda xi, a: -1j * np.sign(xi) * _abs_power(xi, a - 1.0),
        True,
    ),
}


class TestHalfSpectrumLayout:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("name", sorted(_OPERATORS))
    def test_operator_matches_full_spectrum_reference(self, name, alpha, rng):
        """Each operator, applied on the rfft half spectrum, equals ifft(m * fft(f)).real
        with its symbol m on the full FFT layout; an odd one gives 0 on the Nyquist mode."""
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        op, symbol, odd = _OPERATORS[name]
        nyquist = np.cos(np.pi * grid.x / grid.spacing)
        f = Field(grid, random_bump_field(grid, rng).values + 0.25 * nyquist)
        xi_full = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
        ref = np.fft.ifft(symbol(xi_full, alpha) * np.fft.fft(f.values)).real
        out = op(f, ws).values
        npt.assert_allclose(out, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
        if odd:
            assert np.abs(op(Field(grid, nyquist), ws).values).max() <= 1e-14


_PROPERTY_GRID = build_grid(256, 12.0)
_property_settings = settings(max_examples=30, deadline=None, derandomize=True, database=None)
_orders = st.floats(0.05, 0.95)


@st.composite
def _smooth_fields(draw):
    """Sums of one to three Gaussian bumps of either sign, centred in the middle quarter of the domain.

    Each bump is below 1e-17 of its peak at the domain edges, so the fields are smooth as periodic fields.
    """
    grid = _PROPERTY_GRID
    bumps = draw(st.lists(
        st.tuples(st.floats(-0.25, 0.25), st.floats(0.3, 1.0), st.floats(-2.0, 2.0)),
        min_size=1, max_size=3,
    ))
    values = sum(a * np.exp(-0.5 * ((grid.x - c * grid.half_width) / w) ** 2) for c, w, a in bumps)
    return Field(grid, values)


class TestOperatorIdentityProperties:
    """Fourier-multiplier identities on random smooth fields, to round-off."""

    @_property_settings
    @given(f=_smooth_fields(), s=_orders, t=_orders)
    def test_semigroup(self, f, s, t):
        ws = SpectralWorkspace(f.grid, 0.5)
        one = apply_multiplier(apply_multiplier(f, ws.abs_power_multiplier(s)), ws.abs_power_multiplier(t))
        two = apply_multiplier(f, ws.abs_power_multiplier(s + t))
        npt.assert_allclose(one.values, two.values, rtol=0, atol=1e-12 * max(1.0, np.abs(two.values).max()))

    @_property_settings
    @given(f=_smooth_fields(), s=_orders)
    def test_riesz_potential_inverts_the_fractional_laplacian(self, f, s):
        ws = SpectralWorkspace(f.grid, s)
        back = fractional_laplacian_spectral(riesz_potential(f, s, ws), ws)
        npt.assert_allclose(back.values, f.values - f.values.mean(), rtol=0,
                            atol=1e-12 * max(1.0, np.abs(f.values).max()))

    @_property_settings
    @given(f=_smooth_fields())
    def test_hilbert_squares_to_minus_identity_on_mean_zero_fields(self, f):
        ws = SpectralWorkspace(f.grid, 0.5)
        f = Field(f.grid, f.values - f.values.mean())
        twice = hilbert_transform(hilbert_transform(f, ws), ws)
        npt.assert_allclose(twice.values, -f.values, rtol=0, atol=1e-13 * max(1.0, np.abs(f.values).max()))

    @_property_settings
    @given(f=_smooth_fields(), alpha=_orders)
    def test_periodic_fractional_laplacian_has_zero_mean(self, f, alpha):
        out = fractional_laplacian_spectral(f, SpectralWorkspace(f.grid, alpha))
        assert abs(float(out.values.mean())) <= 1e-15 * max(1.0, float(np.abs(out.values).max()))


def _reference_image_kernel(ws):
    """The image kernel evaluated on the whole lattice k = 0 .. 2n-2, without mirroring."""
    n, L, a, h = ws.grid.n, ws.grid.half_width, ws.alpha, ws.grid.spacing
    z = (np.arange(2 * n - 1) - (n - 1)) * h
    m = 2.0 * L * np.arange(1, N_IMAGES + 1)[:, None]
    q = (np.abs(z[None, :] - m) ** (-1.0 - a)).sum(axis=0)
    q += (np.abs(z[None, :] + m) ** (-1.0 - a)).sum(axis=0)
    q += 2.0 * (2.0 * L) ** (-1.0 - a) * (N_IMAGES + 0.5) ** (-a) / a
    return q * singular_kernel_constant(a)


class TestImageKernel:
    @pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75, 0.9))
    @pytest.mark.parametrize("n", (256, 1000, 1024, 2048, 8192))
    def test_mirrored_half_equals_full_lattice(self, n, alpha):
        ws = SpectralWorkspace(build_grid(n, 8.0), alpha)
        q = ws.image_kernel()
        assert q.shape == (2 * n - 1,) and not q.flags.writeable
        assert np.array_equal(q, _reference_image_kernel(ws))


def test_image_kernel_build_peak_memory_under_one_mib():
    """The image sum streams over the images: no (N_IMAGES, n) temporaries at n = 8192."""
    ws = SpectralWorkspace(build_grid(8192, 24.0), 0.5)
    tracemalloc.start()
    try:
        ws.image_kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def _reference_quadrature(f, alpha, x, nodes_per_shell=48):
    """The oracle as a point-by-point, shell-by-shell loop with ``np.interp``; the oracle must match it to ``LOOP_RTOL``."""
    a = float(FracOrder(alpha))
    c_a = singular_kernel_constant(a)
    grid = f.grid
    h, L = grid.spacing, grid.half_width
    xs = np.atleast_1d(np.asarray(x, dtype=float))

    def sample(pts):
        return np.interp(pts, grid.x, f.values, left=0.0, right=0.0)

    out = np.empty_like(xs)
    z_min = h / 2.0
    for i, xv in enumerate(xs):
        fx = sample(np.array([xv]))[0]
        big_r = L + abs(xv)
        n_shells = int(np.ceil(np.log2(big_r / z_min)))
        total = 0.0
        for m in range(n_shells):
            lo = z_min * 2.0**m
            hi = min(z_min * 2.0 ** (m + 1), big_r)
            if lo >= hi:
                break
            w = (hi - lo) / nodes_per_shell
            z = lo + (np.arange(nodes_per_shell) + 0.5) * w
            total += w * ((2.0 * fx - sample(xv + z) - sample(xv - z)) / z ** (1.0 + a)).sum()
        total += 2.0 * fx * big_r ** (-a) / a
        out[i] = c_a * total
    return out


def _three_rows(grid, alpha, bumps):
    """The Getoor profile, a bump field and a compactly supported field whose zeros are all -0.0."""
    signed = np.where(np.abs(grid.x) < 0.25 * grid.half_width, -bumps.values, -0.0)
    return [Field(grid, getoor_profile(alpha, grid.x)), bumps, Field(grid, signed)]


# The oracle sums the same terms as the loop in another order: as weights on the grid values, where the
# weight of f(x), 2 sum c, cancels against its neighbours'.  Measured at most 1.34e-13 * max(1, |loop|)
# on the probes below (n <= 4096, alpha <= 0.75); the round-off grows with n and alpha, and the bound
# leaves room for another BLAS's summation order in the matrix-vector products.
LOOP_RTOL = 4e-13


def _assert_stack_matches_the_loop(fields, alpha, x):
    """Each row of the stacked call is the one-field call's bytes, and that call is the loop's values to round-off."""
    stacked = fractional_laplacian_quadrature(fields, alpha, x)
    assert stacked.shape == (len(fields), np.size(x))
    for f, row in zip(fields, stacked):
        one = fractional_laplacian_quadrature(f, alpha, x)
        assert one.shape == (np.size(x),)
        assert row.tobytes() == one.tobytes()
        ref = _reference_quadrature(f, alpha, x)
        assert np.all(np.abs(one - ref) <= LOOP_RTOL * np.maximum(1.0, np.abs(ref)))


def test_stacked_quadrature_peak_memory():
    """20 rows at n = 2048 (a cross-validation level) hold no (rows, block) temporaries:
    measured 443,478 bytes (numpy 2.4) on a first call, against 432,672 for one row."""
    grid = build_grid(2048, 8.0)
    probes = grid.x[np.abs(grid.x) <= 6.0][::32]
    fields = [random_bump_field(grid, np.random.default_rng(seed)) for seed in range(20)]
    tracemalloc.start()
    try:
        fractional_laplacian_quadrature(fields, 0.5, probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600 << 10


class TestQuadratureOracle:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_agrees_with_spectral_on_bump(self, alpha, rng):
        grid = build_grid(2048, 8.0)
        f = random_bump_field(grid, rng)
        ws = SpectralWorkspace(grid, alpha)
        spec = fractional_laplacian_spectral(f, ws, image_correction=True)
        probes = grid.x[np.abs(grid.x) <= 6.0][::128]
        quad = fractional_laplacian_quadrature(f, alpha, probes)
        spec_at = np.interp(probes, grid.x, spec.values)
        assert np.abs(spec_at - quad).max() <= 1e-3 * np.abs(f.values).max()

    def test_error_shrinks_under_refinement(self, rng):
        state = rng.bit_generator.state
        errs = {}
        for n in (1024, 2048):
            rng.bit_generator.state = state
            grid = build_grid(n, 8.0)
            f = random_bump_field(grid, rng)
            ws = SpectralWorkspace(grid, 0.5)
            spec = fractional_laplacian_spectral(f, ws, image_correction=True)
            probes = grid.x[np.abs(grid.x) <= 6.0][:: n // 64]
            quad = fractional_laplacian_quadrature(f, 0.5, probes)
            errs[n] = np.abs(np.interp(probes, grid.x, spec.values) - quad).max()
        assert errs[2048] < errs[1024]

    # With n a power of two only x = 0 has fewer shells, and its extra shell
    # has zero width; n = 1000 splits the probes into 10- and 11-shell points,
    # so there the shell mask decides the result.
    @pytest.mark.parametrize("n", [1000, 1024, 2048, 4096])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_the_point_by_point_loop(self, alpha, n):
        grid = build_grid(n, 8.0)
        L, step = grid.half_width, n // 128
        near_zero = grid.x[np.abs(grid.x) <= 0.9][::step]
        near_edges = grid.x[np.abs(np.abs(grid.x) - 0.9 * L) <= 0.05 * L][::step]
        probes = np.concatenate([near_zero, near_edges, [0.0, 0.9 * L, -0.9 * L]])
        shells = np.ceil(np.log2((L + np.abs(probes)) / (grid.spacing / 2.0)))
        assert len(np.unique(shells)) > 1  # points with different shell counts share one call
        bumps = random_bump_field(grid, np.random.default_rng(n + int(100 * alpha)))
        _assert_stack_matches_the_loop(_three_rows(grid, alpha, bumps), alpha, probes)
        _assert_stack_matches_the_loop(_three_rows(grid, alpha, bumps), alpha, 0.3)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_blocks_of_points_match_the_loop(self, alpha):
        """Probes whose nodes fill several blocks of ``BLOCK_FLOATS`` still match the loop."""
        grid = build_grid(1000, 8.0)
        probes = grid.x[np.abs(grid.x) <= 0.95 * grid.half_width][::5]
        shells = np.ceil(np.log2((grid.half_width + np.abs(probes)) / (grid.spacing / 2.0))).max()
        assert probes.size * shells * fracops.NODES_PER_SHELL > 4 * fracops.BLOCK_FLOATS
        f = random_bump_field(grid, np.random.default_rng(7))
        _assert_stack_matches_the_loop(_three_rows(grid, alpha, f), alpha, probes)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_a_field_nonzero_at_both_ends_matches_the_loop(self, alpha):
        """The zero extension's two branches: nodes left of x_0 and in (x_{n-1}, L) sample 0, not the end values.

        The last probe lies in (x_{n-1}, L) itself, and its first shell's nodes x + z, z in [h/2, h],
        straddle L; every probe's far nodes x - z reach below x_0 = -L.
        """
        grid = build_grid(1000, 8.0)
        x, L, h = grid.x, grid.half_width, grid.spacing
        fields = [Field(grid, 1.0 + 0.5 * np.sin(x) + x / L), Field(grid, np.exp(-x))]
        assert all(g.values[0] != 0.0 and g.values[-1] != 0.0 for g in fields)
        probes = np.array([-L + 0.3 * h, x[1], -0.5 * L, 0.0, 0.7 * L, x[-2], x[-1], L - 0.6 * h])
        _assert_stack_matches_the_loop(fields, alpha, probes)

    def test_points_must_be_a_scalar_or_one_dimensional(self):
        grid = build_grid(256, 8.0)
        f = Field(grid, getoor_profile(0.5, grid.x))
        with pytest.raises(ValueError, match=r"points must be a scalar or 1-D, got shape \(1, 2\)"):
            fractional_laplacian_quadrature(f, 0.5, np.array([[0.0, 0.5]]))

    def test_a_stack_must_share_one_grid(self):
        fields = [random_bump_field(build_grid(n, 8.0), np.random.default_rng(n)) for n in (256, 512)]
        with pytest.raises(GridError, match="share one grid"):
            fractional_laplacian_quadrature(fields, 0.5, np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match="at least one field"):
            fractional_laplacian_quadrature([], 0.5, 0.0)

    def test_empty_points_give_empty_array(self):
        grid = build_grid(256, 8.0)
        f = Field(grid, getoor_profile(0.5, grid.x))
        out = fractional_laplacian_quadrature(f, 0.5, np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 8.0])
    def test_points_outside_open_domain_rejected(self, bad):
        grid = build_grid(256, 8.0)
        f = Field(grid, getoor_profile(0.5, grid.x))
        with pytest.raises(ValueError, match=r"inside \(-L, L\)"):
            fractional_laplacian_quadrature(f, 0.5, np.array([0.0, bad]))


class TestGetoorIdentity:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_corrected_spectral_operator(self, alpha):
        grid = build_grid(8192, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        phi = Field(grid, getoor_profile(alpha, grid.x))
        lam = fractional_laplacian_spectral(phi, ws, image_correction=True)
        inner = np.abs(grid.x) <= 0.9
        assert np.abs(lam.values[inner] - 1.0).max() <= 2e-2

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bare_multiplier_carries_image_bias(self, alpha):
        # Without the periodic-image term the identity drifts by an O(L^-alpha)
        # constant; the correction must remove most of it.
        grid = build_grid(8192, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        phi = Field(grid, getoor_profile(alpha, grid.x))
        inner = np.abs(grid.x) <= 0.9
        bare = fractional_laplacian_spectral(phi, ws, image_correction=False)
        corrected = fractional_laplacian_spectral(phi, ws, image_correction=True)
        bare_err = np.abs(bare.values[inner] - 1.0).max()
        corr_err = np.abs(corrected.values[inner] - 1.0).max()
        assert 5e-3 <= bare_err <= 1e-1
        assert corr_err < 0.25 * bare_err


class TestHilbertAndRiesz:
    def test_hilbert_of_sine_is_minus_cosine(self):
        grid = build_grid(256, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        xi0 = 5.0 * np.pi / 8.0
        out = hilbert_transform(Field(grid, np.sin(xi0 * grid.x)), ws)
        npt.assert_allclose(out.values, -np.cos(xi0 * grid.x), atol=1e-12)

    def test_involution_on_mean_free_field(self, rng):
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        f = random_bump_field(grid, rng)
        f = Field(grid, f.values - f.values.mean())
        twice = hilbert_transform(hilbert_transform(f, ws), ws)
        npt.assert_allclose(twice.values, -f.values, atol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_riesz_inverts_fractional_laplacian(self, alpha, rng):
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        f = random_bump_field(grid, rng)
        back = fractional_laplacian_spectral(riesz_potential(f, alpha, ws), ws)
        npt.assert_allclose(back.values, f.values - f.values.mean(), atol=1e-11)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.2])
    def test_riesz_order_validation(self, s):
        grid = build_grid(64, 4.0)
        ws = SpectralWorkspace(grid, 0.5)
        with pytest.raises(ValueError):
            riesz_potential(Field(grid, np.ones(64)), s, ws)


class TestVelocity:
    def test_derivative_inverts_antiderivative(self, rng):
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        f = random_bump_field(grid, rng)
        u = velocity_from_state(f, Field(grid, np.zeros(grid.n)), ws, image_correction=False)
        rebuilt = derivative(u)
        direct = fractional_laplacian_spectral(f, ws)
        npt.assert_allclose(rebuilt.values, direct.values, atol=1e-11)

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("image_correction", [False, True])
    def test_matches_reference_composition(self, n, image_correction, rng):
        """The pre-integrated kernel convolution equals the operator-by-operator route."""
        grid = build_grid(n, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        rho = random_bump_field(grid, rng)
        g = Field(grid, 0.5 * rho.values + random_bump_field(grid, rng).values)
        w = apply_multiplier(rho, -1j * ws.abs_power_multiplier(ws.alpha - 1.0)).values
        ref = antiderivative(g).values + (w - w[0])
        if image_correction:
            ref = ref + antiderivative(periodic_image_correction(rho, ws)).values
        ref = ref + left_tail_anchor(rho, ws.alpha)
        u = velocity_from_state(rho, g, ws, image_correction=image_correction)
        npt.assert_allclose(u.values, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_coefficient_form_matches_g_row(self, n, alpha, rng):
        """G = c*rho passed as its coefficient gives the velocity of the formed G row."""
        grid = build_grid(n, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        rho = random_bump_field(grid, rng)
        for c in (0.0, 0.7, 4.0):
            g = Field(grid, c * rho.values)
            for image_correction in (False, True):
                ref = velocity_from_state(rho, g, ws, image_correction=image_correction).values
                u = velocity_from_state(rho, c, ws, image_correction=image_correction).values
                if c == 0.0:
                    assert np.array_equal(u, ref)
                else:
                    npt.assert_allclose(u, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    def test_real_line_gauge_is_odd_for_even_zero_g_data(self):
        grid = build_grid(2048, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        rho = Field(grid, np.exp(-grid.x**2))
        g = Field(grid, np.zeros(grid.n))
        u = velocity_from_state(rho, g, ws, image_correction=True)
        # x -> -x maps index j -> (n - j) mod n; index 0 (the seam x = -L) pairs
        # with itself rather than with +L and is excluded.
        mirrored = np.roll(u.values[::-1], 1)
        resid = (u.values + mirrored)[1:]
        npt.assert_allclose(resid, 0.0, atol=1e-6 * np.abs(u.values).max())

    def test_non_finite_coefficient_kernel_is_rejected_before_it_is_cached(self, fresh_workspaces, rng):
        """A NaN, infinite or overflowing G coefficient names itself, and the shared workspace does not grow."""
        ws = workspace(build_grid(256, 8.0), 0.5)
        rho = random_bump_field(ws.grid, rng)
        velocity_from_state(rho, 0.5, ws, image_correction=True)
        cached, nbytes = dict(ws._cache), ws.nbytes
        for c in (np.nan, np.inf, -np.inf, 1e308, np.nan):
            with pytest.raises(GridError, match=re.escape(f"g_coef = {c!r}")):
                velocity_from_state(rho, c, ws, image_correction=True)
        assert ws._cache == cached and ws.nbytes == nbytes

    def test_left_tail_anchor_sign_and_linearity(self, rng):
        grid = build_grid(512, 8.0)
        f = random_bump_field(grid, rng)
        a1 = left_tail_anchor(f, 0.5)
        a2 = left_tail_anchor(Field(grid, 2.0 * f.values), 0.5)
        assert a1 < 0.0
        assert a2 == pytest.approx(2.0 * a1, rel=1e-12)


class TestInequalities:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_stroock_varopoulos_holds_on_bumps(self, alpha, p, rng):
        grid = build_grid(1024, 16.0)
        ws = SpectralWorkspace(grid, alpha)
        for _ in range(3):
            v = random_bump_field(grid, rng)
            [(lhs, rhs, holds)] = stroock_varopoulos_check(v, (p,), ws)
            assert holds
            assert lhs >= rhs * (1.0 - 1e-6)

    def test_stroock_varopoulos_validates_input(self, rng):
        grid = build_grid(256, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        v = random_bump_field(grid, rng)
        with pytest.raises(ValueError):
            stroock_varopoulos_check(v, (0.5,), ws)
        with pytest.raises(ValueError):
            stroock_varopoulos_check(Field(grid, -v.values), (2.0,), ws)

    @pytest.mark.parametrize("exponents, named", [
        ((), "none"), ((2.0, np.inf), "[inf]"), ((np.nan,), "[nan]"), ((-np.inf, 2.0, 0.5), "[-inf, 0.5]"),
        ((1.5, 0.99), "[0.99]")])
    def test_stroock_varopoulos_rejects_empty_or_bad_exponents(self, exponents, named, rng):
        """Each exponent that is not finite and >= 1 is named; inf and NaN once surfaced as a non-finite field."""
        grid = build_grid(256, 8.0)
        v = random_bump_field(grid, rng)
        with pytest.raises(ValueError, match=re.escape(f"finite exponents p >= 1, got {named}")):
            stroock_varopoulos_check(v, exponents, SpectralWorkspace(grid, 0.5))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_stroock_varopoulos_is_the_per_exponent_expression(self, alpha, rng, monkeypatch):
        """Each (lhs, rhs, holds) is the bytes of the one-exponent expression below, and all exponents
        together take two multiplier calls: Lambda^alpha v once and one stack of the powers."""
        grid = build_grid(2048, 16.0)
        ws = SpectralWorkspace(grid, alpha)
        exponents = (1.0, 1.5, 2.0, 3.0)

        def one_exponent(v, p, tol=1e-6):
            vals = np.clip(v.values, 0.0, None)
            lam_v = apply_multiplier(v, ws.abs_power_multiplier(ws.alpha)).values
            lhs = float(integrate(Field(v.grid, vals**p * lam_v)))
            w = Field(v.grid, vals ** ((p + 1.0) / 2.0))
            half = apply_multiplier(w, ws.abs_power_multiplier(ws.alpha / 2.0)).values
            rhs = float(4.0 * p / (p + 1.0) ** 2 * integrate(Field(v.grid, half**2)))
            return lhs, rhs, lhs >= rhs - tol * abs(rhs) - 1e-14

        for v in (random_bump_field(grid, rng), Field(grid, getoor_profile(alpha, grid.x))):
            for tol in (1e-6, 0.0):
                ref = [one_exponent(v, p, tol) for p in exponents]
                got = stroock_varopoulos_check(v, exponents, ws, tol)
                assert [(lhs.hex(), rhs.hex(), holds) for lhs, rhs, holds in got] == [
                    (lhs.hex(), rhs.hex(), holds) for lhs, rhs, holds in ref]
        calls = []
        multiply = fracops.apply_multiplier
        monkeypatch.setattr(fracops, "apply_multiplier", lambda f, m: calls.append(m) or multiply(f, m))
        stroock_varopoulos_check(v, (1.5, 2.0, 3.0), ws)
        assert len(calls) == 2

    def test_gagliardo_nirenberg_ratio_dilation_invariant(self):
        grid = build_grid(4096, 16.0)
        ws = SpectralWorkspace(grid, 0.5)
        ratios = []
        for s in (1.0, 2.0, 4.0):
            v = Field(grid, s * np.exp(-0.5 * (s * grid.x) ** 2))
            ratios.append(gagliardo_nirenberg_check(v, r=3.0, q=2.0, ws=ws)[2])
        npt.assert_allclose(ratios, ratios[0], rtol=5e-2)

    def test_gagliardo_nirenberg_validates_exponents(self, rng):
        grid = build_grid(256, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        v = random_bump_field(grid, rng)
        with pytest.raises(ValueError):
            gagliardo_nirenberg_check(v, r=2.0, q=1.5, ws=ws)  # needs r > 2
        with pytest.raises(ValueError):
            gagliardo_nirenberg_check(v, r=5.0, q=2.0, ws=ws)  # needs r < 2q


def test_work_array_buffer_grows_and_is_reused_across_shapes(monkeypatch):
    """Calls that alternate between shapes share one buffer; only a larger one reallocates it."""
    monkeypatch.setattr(fracops, "_work", threading.local())
    big = fracops._work_array("buffer", (3, 4))
    small = fracops._work_array("buffer", (5,), float)
    assert small.shape == (5,) and np.shares_memory(small, big)
    bigger = fracops._work_array("buffer", (4, 4))
    assert bigger.shape == (4, 4) and not np.shares_memory(bigger, big)
    assert np.shares_memory(fracops._work_array("buffer", (3, 4)), bigger)


def test_a_stack_of_several_blocks_is_the_one_field_calls_row_for_row():
    """Nine fields at n = 2048 are transformed in blocks of 4, 4 and 1 rows, with the floats of one row each."""
    n = 2048
    grid = build_grid(n, 8.0)
    ws = SpectralWorkspace(grid, 0.5)
    fields = [random_bump_field(grid, np.random.default_rng(seed)) for seed in range(9)]
    ops = (
        lambda f: apply_multiplier(f, ws.abs_power_multiplier(0.5)),
        lambda f: periodic_image_correction(f, ws),
        lambda f: fractional_laplacian_spectral(f, ws, image_correction=True),
    )
    for op in ops:
        stacked = op(fields)
        assert stacked.shape == (9, n)
        for f, row in zip(fields, stacked):
            assert row.tobytes() == op(f).values.tobytes()
    # The velocity rows, each with its own workspace's kernel spectrum and G row.
    spaces = [SpectralWorkspace(grid, alpha) for alpha in np.linspace(0.2, 0.8, 9)]
    rho = np.stack([f.values for f in fields])
    spectra = np.stack([w.velocity_kernel_spectrum(True) for w in spaces])
    weights = tuple(w.tail_anchor_weights() for w in spaces)
    spacings = (grid.spacing,) * 9
    for g in (None, 0.5 * rho[::-1]):
        stacked = fracops._velocity_rows(rho, g, spectra, weights, spacings)
        for b in range(9):
            one = fracops._velocity_rows(rho[b : b + 1], None if g is None else g[b : b + 1], spectra[b : b + 1],
                                         weights[b : b + 1], spacings[b : b + 1])
            assert stacked[b].tobytes() == one[0].tobytes()


def test_the_battery_leaves_work_arrays_of_one_block():
    """After the self-test battery and a 20-trial cross-validation, this thread's work arrays total at most 1 MiB.

    The arrays are per thread, so a fresh thread starts with none: its total is what the battery left,
    measured 327,936 bytes (numpy 2.4), against 2,158,208 when each stack was transformed whole.
    """
    totals = []

    def battery():
        run_selftest(seed=0)
        cross_validation_errors(0.5, np.random.default_rng(20240817), 20)
        totals.append(sum(buf.nbytes for buf, _ in vars(fracops._work).values()))

    thread = threading.Thread(target=battery)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive() and len(totals) == 1
    assert totals[0] <= 1 << 20


class TestLocalConvolution:
    """The package's windowed fftconvolve and closed-form quadrature, against SciPy routines."""

    @pytest.mark.parametrize("n", [8, 256, 8192])
    def test_fftconvolve_is_the_window_of_the_linear_convolution(self, n, rng):
        """Samples n-1 .. 2n-2 of values conv kernel, given the kernel's length-2n rfft."""
        from scipy import signal

        values, kernel = rng.standard_normal(n), rng.standard_normal(2 * n - 1)
        ref = signal.fftconvolve(values, kernel)[n - 1 : 2 * n - 1]
        got = fftconvolve(values[None], np.fft.rfft(kernel, 2 * n))  # a stack of one row
        assert got.shape == (1, n)
        assert np.abs(got[0] - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("alpha", (0.1, 0.25, 0.5, 0.75, 0.9))
    def test_velocity_profile_U_far_tail_matches_tight_quad(self, alpha):
        """U and H off the support against the hyp2f1 forms and a tight quad, to 1e-10 relative."""
        from scipy.integrate import quad

        def moment(y: float, power: float) -> float:
            # int (1-x^2)^(a/2) (y-x)^(-power) dx: [-1, 0] in x and [0, 1] in e = 1 - x, with
            # each endpoint factor in the quadrature weight; beyond e = y - 1, dyadic pieces.
            a, d = alpha, y - 1.0
            tight = dict(epsabs=0.0, epsrel=1e-13, limit=200)
            left = quad(lambda x: (1.0 - x) ** (a / 2.0) * (y - x) ** -power, -1.0, 0.0,
                        weight="alg", wvar=(a / 2.0, 0.0), **tight)[0]
            f = lambda e: (2.0 - e) ** (a / 2.0) * (d + e) ** -power
            cuts = [c for c in d * 2.0 ** np.arange(64) if c < 1.0] + [1.0]
            right = quad(f, 0.0, cuts[0], weight="alg", wvar=(a / 2.0, 0.0), **tight)[0]
            right += sum(quad(lambda e: e ** (a / 2.0) * f(e), lo, hi, **tight)[0] for lo, hi in zip(cuts, cuts[1:]))
            return left + right

        ys = np.array([1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.1, 1.5, 2.0, 8.0, 100.0, 1000.0])
        u, h = velocity_profile_U(alpha, ys), getoor_fraclap_tail(alpha, ys)
        ck = singular_kernel_constant(alpha) * getoor_constant(alpha)
        npt.assert_allclose(u, velocity_profile_U_hyp2f1(alpha, ys), rtol=1e-10, atol=0.0)
        npt.assert_allclose(h, getoor_tail_hyp2f1(alpha, ys), rtol=1e-10, atol=0.0)
        npt.assert_allclose(u, [ck / alpha * moment(y, alpha) for y in ys], rtol=1e-10, atol=0.0)
        npt.assert_allclose(h, [-ck * moment(y, 1.0 + alpha) for y in ys], rtol=1e-10, atol=0.0)
        # The rule itself at the edge s = 1, where U(1) = 1.
        assert ck / alpha * closedform._moments(alpha, np.array([1.0]), alpha)[0] == pytest.approx(1.0, abs=1e-12)
