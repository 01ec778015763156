"""Fractional operators: both routes, transforms, inequalities, velocity."""

from __future__ import annotations

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import numpy.testing as npt
import pytest

from euler_align import (
    FracOrder,
    FracOrderError,
    SpectralWorkspace,
    as_field,
    build_grid,
    fractional_laplacian_quadrature,
    fractional_laplacian_spectral,
    gagliardo_nirenberg_check,
    getoor_profile,
    hilbert_transform,
    left_tail_anchor,
    periodic_image_correction,
    random_bump_field,
    riesz_potential,
    singular_kernel_constant,
    stroock_varopoulos_check,
    velocity_from_state,
    velocity_profile_U,
)
from euler_align import closedform, fracops
from euler_align.fracops import N_IMAGES, apply_multiplier, derivative, fftconvolve
from euler_align.grid import antiderivative

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
        f = as_field(grid, np.cos(xi0 * grid.x))
        out = fractional_laplacian_spectral(f, ws)
        npt.assert_allclose(out.values, xi0**alpha * f.values, atol=1e-12)

    def test_annihilates_constants(self):
        grid = build_grid(128, 4.0)
        ws = SpectralWorkspace(grid, 0.5)
        out = fractional_laplacian_spectral(as_field(grid, np.full(128, 3.7)), ws)
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
        f = as_field(build_grid(64, 5.0), np.zeros(64))
        with pytest.raises(Exception):
            fractional_laplacian_spectral(f, ws)


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
    return as_field(grid, values)


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
        f = as_field(f.grid, f.values - f.values.mean())
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
    """The oracle as a point-by-point, shell-by-shell loop; the vectorized one must match it bit for bit."""
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
    def test_bit_identical_to_point_by_point_loop(self, alpha, n):
        grid = build_grid(n, 8.0)
        L, step = grid.half_width, n // 128
        near_zero = grid.x[np.abs(grid.x) <= 0.9][::step]
        near_edges = grid.x[np.abs(np.abs(grid.x) - 0.9 * L) <= 0.05 * L][::step]
        probes = np.concatenate([near_zero, near_edges, [0.0, 0.9 * L, -0.9 * L]])
        shells = np.ceil(np.log2((L + np.abs(probes)) / (grid.spacing / 2.0)))
        assert len(np.unique(shells)) > 1  # points with different shell counts share one call
        bumps = random_bump_field(grid, np.random.default_rng(n + int(100 * alpha)))
        for f in (as_field(grid, getoor_profile(alpha, grid.x)), bumps):
            assert np.array_equal(
                fractional_laplacian_quadrature(f, alpha, probes), _reference_quadrature(f, alpha, probes)
            )
            assert np.array_equal(
                fractional_laplacian_quadrature(f, alpha, 0.3), _reference_quadrature(f, alpha, 0.3)
            )

    def test_empty_points_give_empty_array(self):
        grid = build_grid(256, 8.0)
        f = as_field(grid, getoor_profile(0.5, grid.x))
        out = fractional_laplacian_quadrature(f, 0.5, np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 8.0])
    def test_points_outside_open_domain_rejected(self, bad):
        grid = build_grid(256, 8.0)
        f = as_field(grid, getoor_profile(0.5, grid.x))
        with pytest.raises(ValueError, match=r"inside \(-L, L\)"):
            fractional_laplacian_quadrature(f, 0.5, np.array([0.0, bad]))


class TestGetoorIdentity:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_corrected_spectral_operator(self, alpha):
        grid = build_grid(8192, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        phi = as_field(grid, getoor_profile(alpha, grid.x))
        lam = fractional_laplacian_spectral(phi, ws, image_correction=True)
        inner = np.abs(grid.x) <= 0.9
        assert np.abs(lam.values[inner] - 1.0).max() <= 2e-2

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bare_multiplier_carries_image_bias(self, alpha):
        # Without the periodic-image term the identity drifts by an O(L^-alpha)
        # constant; the correction must remove most of it.
        grid = build_grid(8192, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        phi = as_field(grid, getoor_profile(alpha, grid.x))
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
        out = hilbert_transform(as_field(grid, np.sin(xi0 * grid.x)), ws)
        npt.assert_allclose(out.values, -np.cos(xi0 * grid.x), atol=1e-12)

    def test_involution_on_mean_free_field(self, rng):
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        f = random_bump_field(grid, rng)
        f = as_field(grid, f.values - f.values.mean())
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
            riesz_potential(as_field(grid, np.ones(64)), s, ws)


class TestVelocity:
    def test_derivative_inverts_antiderivative(self, rng):
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        f = random_bump_field(grid, rng)
        u = velocity_from_state(f, as_field(grid, np.zeros(grid.n)), ws, image_correction=False, gauge="left_zero")
        rebuilt = derivative(u)
        direct = fractional_laplacian_spectral(f, ws)
        npt.assert_allclose(rebuilt.values, direct.values, atol=1e-11)

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("image_correction", [False, True])
    @pytest.mark.parametrize("gauge", ["left_zero", "real_line"])
    def test_matches_reference_composition(self, n, image_correction, gauge, rng):
        """The pre-integrated kernel convolution equals the operator-by-operator route."""
        grid = build_grid(n, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        rho = random_bump_field(grid, rng)
        g = as_field(grid, 0.5 * rho.values + random_bump_field(grid, rng).values)
        w = apply_multiplier(rho, ws.pdinv_multiplier).values
        ref = antiderivative(g).values + (w - w[0])
        if image_correction:
            ref = ref + antiderivative(periodic_image_correction(rho, ws)).values
        if gauge == "real_line":
            ref = ref + left_tail_anchor(rho, ws.alpha)
        u = velocity_from_state(rho, g, ws, image_correction=image_correction, gauge=gauge)
        npt.assert_allclose(u.values, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_coefficient_form_matches_g_row(self, n, alpha, rng):
        """G = c*rho passed as its coefficient gives the velocity of the formed G row."""
        grid = build_grid(n, 8.0)
        ws = SpectralWorkspace(grid, alpha)
        rho = random_bump_field(grid, rng)
        for c in (0.0, 0.7, 4.0):
            g = as_field(grid, c * rho.values)
            for image_correction in (False, True):
                for gauge in ("left_zero", "real_line"):
                    ref = velocity_from_state(rho, g, ws, image_correction=image_correction, gauge=gauge).values
                    u = fracops._velocity_values(rho.values, c, ws, image_correction, gauge)
                    if c == 0.0:
                        assert np.array_equal(u, ref)
                    else:
                        npt.assert_allclose(u, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    def test_left_zero_gauge_pins_left_edge(self, rng):
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        rho = random_bump_field(grid, rng)
        g = as_field(grid, 0.5 * rho.values)
        u = velocity_from_state(rho, g, ws, gauge="left_zero")
        assert abs(u.values[0]) <= 1e-12 * max(1.0, np.abs(u.values).max())

    def test_gauges_differ_by_a_constant(self, rng):
        grid = build_grid(1024, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        rho = random_bump_field(grid, rng)
        g = as_field(grid, 0.5 * rho.values)
        u0 = velocity_from_state(rho, g, ws, gauge="left_zero")
        u1 = velocity_from_state(rho, g, ws, gauge="real_line")
        diff = u1.values - u0.values
        assert diff.max() - diff.min() <= 1e-12 * max(1.0, np.abs(u1.values).max())

    def test_real_line_gauge_is_odd_for_even_zero_g_data(self):
        grid = build_grid(2048, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        rho = as_field(grid, np.exp(-grid.x**2))
        g = as_field(grid, np.zeros(grid.n))
        u = velocity_from_state(rho, g, ws, image_correction=True, gauge="real_line")
        # x -> -x maps index j -> (n - j) mod n; index 0 (the seam x = -L) pairs
        # with itself rather than with +L and is excluded.
        mirrored = np.roll(u.values[::-1], 1)
        resid = (u.values + mirrored)[1:]
        npt.assert_allclose(resid, 0.0, atol=1e-6 * np.abs(u.values).max())

    def test_unknown_gauge_rejected(self, rng):
        grid = build_grid(256, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        rho = random_bump_field(grid, rng)
        with pytest.raises(ValueError):
            velocity_from_state(rho, rho, ws, gauge="bogus")

    def test_left_tail_anchor_sign_and_linearity(self, rng):
        grid = build_grid(512, 8.0)
        f = random_bump_field(grid, rng)
        a1 = left_tail_anchor(f, 0.5)
        a2 = left_tail_anchor(as_field(grid, 2.0 * f.values), 0.5)
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
            lhs, rhs, holds = stroock_varopoulos_check(v, p, ws)
            assert holds
            assert lhs >= rhs * (1.0 - 1e-6)

    def test_stroock_varopoulos_validates_input(self, rng):
        grid = build_grid(256, 8.0)
        ws = SpectralWorkspace(grid, 0.5)
        v = random_bump_field(grid, rng)
        with pytest.raises(ValueError):
            stroock_varopoulos_check(v, 0.5, ws)
        with pytest.raises(ValueError):
            stroock_varopoulos_check(as_field(grid, -v.values), 2.0, ws)

    def test_gagliardo_nirenberg_ratio_dilation_invariant(self):
        grid = build_grid(4096, 16.0)
        ws = SpectralWorkspace(grid, 0.5)
        ratios = []
        for s in (1.0, 2.0, 4.0):
            v = as_field(grid, s * np.exp(-0.5 * (s * grid.x) ** 2))
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


class TestLocalConvolution:
    """The package's own fftconvolve and U-table far-tail rule, against the SciPy routines they replace."""

    @pytest.mark.parametrize(
        "la, lb", [(1, 1), (7, 13), (256, 511), (1000, 1999), (8192, 16383)]
    )
    def test_fftconvolve_bit_identical_to_scipy_signal(self, la, lb, rng):
        from scipy import signal

        a, b = rng.standard_normal(la), rng.standard_normal(lb)
        assert np.array_equal(fftconvolve(a, b), signal.fftconvolve(a, b))

    def test_next_fast_len_matches_scipy(self):
        import scipy.fft

        got = [fracops._next_fast_len(m) for m in range(1, 20001)]
        assert got == [scipy.fft.next_fast_len(m, True) for m in range(1, 20001)]

    @pytest.mark.parametrize("alpha", (0.1, 0.25, 0.5, 0.75, 0.9))
    def test_velocity_profile_U_far_tail_matches_tight_quad(self, alpha, monkeypatch):
        from scipy.integrate import quad

        ref = quad(
            lambda s: -closedform.getoor_fraclap_tail(alpha, s),
            closedform._U_YMAX, np.inf, epsabs=0.0, epsrel=1e-13, limit=1000,
        )[0]
        monkeypatch.setattr(closedform, "_U_CACHE", {})
        t_far = closedform._u_cache(alpha)[2]
        assert abs(t_far / ref - 1.0) <= 1e-13
        beyond = velocity_profile_U(alpha, 2.0 * closedform._U_YMAX)
        assert beyond == pytest.approx(t_far * 2.0 ** (-alpha), rel=1e-14)
