"""Closed-form profile family, tails, self-similar solutions, residuals.

Frozen expected values below were produced by independent adaptive-quadrature
oracles (endpoint-weighted where the integrand is singular) and cross-checked
against the closed Beta-function forms; both routes agreed to <= 4e-9 before
the values were frozen.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, special

from euler_align import (
    RarefactionTriple,
    attractor_density,
    evolved_profile_density,
    getoor_constant,
    getoor_fraclap,
    getoor_fraclap_tail,
    getoor_profile,
    profile_mass,
    rarefaction_G,
    rarefaction_density,
    rarefaction_velocity,
    singular_kernel_constant,
    velocity_profile_U,
)
from oracles import burgers_weak_residual, continuity_weak_residual

ALPHAS = (0.25, 0.5, 0.75)

# (alpha -> value) tables, frozen from the quadrature oracles.
PROFILE_AMPLITUDE = {0.25: 1.10326265132084, 0.5: 1.12837916709551, 0.75: 1.08806525213102}
PROFILE_MASS = {0.25: 2.0539971602872, 0.5: 1.97245007945909, 0.75: 1.79801535957746}
FARFIELD_COEF = {0.25: -0.226783111945216, 0.5: -0.393446866338699, 0.75: -0.485963811311178}
U_AT_2 = {0.25: 0.7728921515, 0.5: 0.5730473878, 0.75: 0.4043539980}
U_AT_8 = {0.25: 0.5397915879, 0.5: 0.2786776163, 0.75: 0.1365901709}
U_AT_100 = {0.25: 0.2868618466, 0.5: 0.0786902164, 0.75: 0.0204903920}


class TestProfile:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_amplitude_frozen(self, alpha):
        assert getoor_constant(alpha) == pytest.approx(PROFILE_AMPLITUDE[alpha], rel=1e-12)

    def test_amplitude_special_value_at_half(self):
        # K(1/2) = 2/sqrt(pi) exactly.
        assert getoor_constant(0.5) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mass_frozen_and_beta_closed_form(self, alpha):
        m = profile_mass(alpha)
        assert m == pytest.approx(PROFILE_MASS[alpha], rel=1e-12)
        beta_form = getoor_constant(alpha) * special.beta(0.5, 1.0 + alpha / 2.0)
        assert m == pytest.approx(beta_form, rel=1e-13)

    def test_shape_support_and_symmetry(self):
        x = np.linspace(-2.0, 2.0, 401)
        vals = getoor_profile(0.5, x)
        assert np.all(vals[np.abs(x) >= 1.0] == 0.0)
        assert np.all(vals[np.abs(x) < 1.0] > 0.0)
        npt.assert_allclose(vals, vals[::-1], atol=0)
        assert getoor_profile(0.5, 0.0) == pytest.approx(getoor_constant(0.5))


class TestTail:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_farfield_coefficient_identities(self, alpha):
        # C_H = Gamma(1/2) / (Gamma(-alpha/2) Gamma((3+alpha)/2)), the module docstring's closed form.
        c = special.gamma(0.5) / (special.gamma(-alpha / 2) * special.gamma((3 + alpha) / 2))
        assert c == pytest.approx(FARFIELD_COEF[alpha], rel=1e-12)
        assert c == pytest.approx(-singular_kernel_constant(alpha) * profile_mass(alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_tail_is_negative_and_decays_like_power(self, alpha):
        s = np.array([1.5, 2.0, 4.0, 16.0, 64.0])
        h = getoor_fraclap_tail(alpha, s)
        assert np.all(h < 0.0)
        ratio = getoor_fraclap_tail(alpha, 1e6) * (1e6) ** (1.0 + alpha)
        assert ratio == pytest.approx(FARFIELD_COEF[alpha], rel=1e-4)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_tail_integral_is_minus_one(self, alpha):
        # Independent spelling: |H|(s) = A (s-1)^(-a/2) g(s) with g smooth; the
        # endpoint singularity goes into the quadrature weight.
        a = alpha
        A = 2 ** (1 + a) * special.gamma(1 + a / 2) / (special.gamma(2 + a) * abs(special.gamma(-a / 2)))
        smooth = lambda s: A * (s + 1.0) ** (-1 - a / 2) * special.hyp2f1(1.0, 1.0 + a / 2, 2.0 + a, 2.0 / (1.0 + s))
        body, _ = integrate.quad(smooth, 1.0, 500.0, weight="alg", wvar=(-a / 2, 0.0), limit=500)
        far, _ = integrate.quad(lambda s: abs(getoor_fraclap_tail(a, s)), 500.0, np.inf, limit=200)
        assert body + far == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_connection_formula_identity(self, alpha):
        # The tail admits a second hypergeometric spelling with the constant
        # split off: H(s) = 1 - B (s-1)^(-a/2) (s+1)^(-1-a/2) F(1, 1+a/2; 1-a/2; (s-1)/(s+1)).
        a = alpha
        B = 2 ** (1 + a) * special.gamma(a / 2) / (abs(special.gamma(-a / 2)) * special.gamma(1 + a))
        s = np.geomspace(1.0 + 1e-6, 90.0, 200)
        alt = 1.0 - B * (s - 1.0) ** (-a / 2) * (s + 1.0) ** (-1 - a / 2) * special.hyp2f1(
            1.0, 1.0 + a / 2, 1.0 - a / 2, (s - 1.0) / (s + 1.0)
        )
        npt.assert_allclose(alt, getoor_fraclap_tail(a, s), atol=1e-10)

    def test_rejects_interior_points(self):
        with pytest.raises(ValueError):
            getoor_fraclap_tail(0.5, 0.5)

    def test_combined_fraclap_branches(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        vals = getoor_fraclap(0.5, x)
        npt.assert_array_equal(vals[1:4], 1.0)
        assert vals[0] < 0.0 and vals[4] < 0.0
        assert np.isnan(getoor_fraclap(0.5, 1.0))


class TestVelocityProfile:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_interior_identity(self, alpha):
        y = np.linspace(-1.0, 1.0, 21)
        npt.assert_array_equal(velocity_profile_U(alpha, y), y)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_frozen_tail_values(self, alpha):
        assert velocity_profile_U(alpha, 2.0) == pytest.approx(U_AT_2[alpha], abs=1e-7)
        assert velocity_profile_U(alpha, 8.0) == pytest.approx(U_AT_8[alpha], abs=1e-7)
        assert velocity_profile_U(alpha, 100.0) == pytest.approx(U_AT_100[alpha], abs=1e-7)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_seam_continuity_and_monotone_decay(self, alpha):
        assert velocity_profile_U(alpha, 1.0 + 1e-12) == pytest.approx(1.0, abs=1e-6)
        tail = velocity_profile_U(alpha, np.array([1.5, 2.0, 5.0, 20.0, 100.0, 400.0]))
        assert np.all(np.diff(tail) < 0.0)
        assert tail[-1] > 0.0

    def test_oddness_and_scalar_handling(self):
        ys = np.array([0.3, 1.7, 42.0])
        npt.assert_allclose(velocity_profile_U(0.5, -ys), -velocity_profile_U(0.5, ys), atol=0)
        out = velocity_profile_U(0.5, 2.0)
        assert isinstance(out, float)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_far_tail_power_law(self, alpha):
        # |y|^alpha U(y) tends to c_alpha * profile_mass(alpha) / alpha, the far-field coefficient over alpha.
        y = 1e6
        limit = singular_kernel_constant(alpha) * profile_mass(alpha) / alpha
        assert velocity_profile_U(alpha, y) * y**alpha == pytest.approx(limit, rel=1e-10)


def _space_bump(xm: float):
    def phi(x):
        s = np.asarray(x, dtype=float) / xm
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return out

    def dphi(x):
        s = np.asarray(x, dtype=float) / xm
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - si**2)) * (-2.0 * si / (1.0 - si**2) ** 2) / xm
        return out

    return phi, dphi


class TestSelfSimilarFamily:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_selfsimilar_scale_invariance(self, alpha):
        # The attractor is invariant under rho -> lam * rho(lam x, lam^(1+alpha) t).
        lam = 3.0
        x = np.linspace(-2.0, 2.0, 101)
        lhs = lam * attractor_density(alpha, 1.3, lam * x, lam ** (1.0 + alpha) * 1.7)
        rhs = attractor_density(alpha, 1.3, x, 1.7)
        npt.assert_allclose(lhs, rhs, atol=1e-14)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_attractor_mass_is_constant(self, alpha):
        # Adaptive quadrature; the edge cusp (1-x^2)^(alpha/2) defeats fixed
        # trapezoid grids.
        for t in (0.3, 1.0, 4.0):
            mass, _ = integrate.quad(
                lambda xx: attractor_density(alpha, 1.7, xx, t), -40.0, 40.0, limit=400
            )
            assert mass == pytest.approx(1.7, rel=1e-7)

    def test_attractor_solves_continuity_weakly(self):
        phi_x_fn, dphi_x_fn = _space_bump(6.0)
        phi = lambda x, t: phi_x_fn(x) * (1.0 + 0.3 * np.sin(t))
        phi_t = lambda x, t: phi_x_fn(x) * 0.3 * np.cos(t)
        phi_x = lambda x, t: dphi_x_fn(x) * (1.0 + 0.3 * np.sin(t))
        resid = continuity_weak_residual(0.5, 1.0, phi, phi_t, phi_x, (0.5, 2.0))
        assert abs(resid) <= 1e-6

    def test_evolved_profile_starts_at_data_and_preserves_mass(self):
        x = np.linspace(-30.0, 30.0, 120001)
        npt.assert_allclose(
            evolved_profile_density(0.5, 2.0, x, 0.0),
            2.0 * getoor_profile(0.5, x),
            atol=1e-14,
        )
        m0 = 2.0 * profile_mass(0.5)
        for t in (0.5, 3.0):
            mass, _ = integrate.quad(
                lambda xx: evolved_profile_density(0.5, 2.0, xx, t), -30.0, 30.0, limit=400
            )
            assert mass == pytest.approx(m0, rel=1e-7)

    def test_evolved_profile_velocity_matches_edge_speed(self):
        # The support edge x_e(t) = 1/b(t) must move with the local velocity:
        # dx_e/dt = amplitude * b^alpha * U(1).  b is read off the density at 0.
        alpha, amp = 0.5, 1.3
        t, dt = 1.0, 1e-6
        b = lambda s: evolved_profile_density(alpha, amp, 0.0, s) / (amp * getoor_constant(alpha))
        edge_speed = (1.0 / b(t + dt) - 1.0 / b(t - dt)) / (2.0 * dt)
        u_edge = amp * b(t) ** alpha * velocity_profile_U(alpha, 1.0)
        assert edge_speed == pytest.approx(u_edge, rel=1e-5)

    def test_time_validation(self):
        with pytest.raises(ValueError):
            attractor_density(0.5, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            attractor_density(0.5, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            evolved_profile_density(0.5, 1.0, 0.0, -0.1)


class TestRarefaction:
    def test_triple_shapes(self):
        rt = RarefactionTriple(M_rho=2.0, M_G=3.0)
        t = 2.0
        x = np.array([-1.0, 0.0, 1.0, 5.9, 6.1, 10.0])
        u = rarefaction_velocity(rt, x, t)
        npt.assert_allclose(u, [0.0, 0.0, 0.5, 2.95, 3.0, 3.0], atol=1e-14)
        rho = rarefaction_density(rt, x, t)
        fan = (x > 0) & (x < rt.M_G * t)
        npt.assert_allclose(rho[fan], rt.M_rho / (rt.M_G * t), atol=1e-14)
        assert np.all(rho[~fan] == 0.0)
        npt.assert_allclose(rarefaction_G(rt, x, t), rho * rt.M_G / rt.M_rho, atol=1e-14)

    def test_scale_invariance(self):
        rt = RarefactionTriple(M_rho=1.0, M_G=2.0)
        lam, t = 4.0, 1.3
        x = np.linspace(-3.0, 9.0, 301)
        npt.assert_allclose(
            rarefaction_velocity(rt, lam * x, lam * t), rarefaction_velocity(rt, x, t), atol=1e-14
        )
        npt.assert_allclose(
            lam * rarefaction_density(rt, lam * x, lam * t), rarefaction_density(rt, x, t), atol=1e-14
        )

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
    def test_lp_norm_closed_form(self, p):
        rt = RarefactionTriple(M_rho=2.0, M_G=0.5)
        t = 3.0
        x = np.linspace(-1.0, 4.0, 2_000_001)
        rho = rarefaction_density(rt, x, t)
        if p == np.inf:
            sampled, exact = rho.max(), rt.M_rho / rt.M_G / t
        else:
            sampled = (np.trapezoid(rho**p, x)) ** (1.0 / p)
            exact = rt.M_rho * rt.M_G ** (1.0 / p - 1.0) * t ** (-1.0 + 1.0 / p)
        assert sampled == pytest.approx(exact, rel=1e-5)

    def test_mass_identities(self):
        rt = RarefactionTriple(M_rho=1.5, M_G=2.5)
        x = np.linspace(-1.0, 30.0, 3_000_001)
        t = 4.0
        assert np.trapezoid(rarefaction_density(rt, x, t), x) == pytest.approx(rt.M_rho, rel=1e-6)
        assert np.trapezoid(rarefaction_G(rt, x, t), x) == pytest.approx(rt.M_G, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RarefactionTriple(M_rho=0.0, M_G=1.0)
        with pytest.raises(ValueError):
            RarefactionTriple(M_rho=1.0, M_G=-2.0)


class TestWeakResiduals:
    @pytest.mark.parametrize("xm,tm", [(4.0, 3.0), (6.0, 2.0)])
    def test_burgers_residual_vanishes_for_entropy_solution(self, xm, tm):
        rt = RarefactionTriple(M_rho=1.0, M_G=1.0)
        space, dspace = _space_bump(xm)
        tbump, dtbump = _space_bump(tm)
        phi = lambda x, t: space(x) * tbump(t)
        phi_t = lambda x, t: space(x) * dtbump(t)
        phi_x = lambda x, t: dspace(x) * tbump(t)
        resid = burgers_weak_residual(rt, phi, phi_t, phi_x, x_max=xm, t_max=tm)
        assert abs(resid) <= 1e-6

    def test_burgers_residual_detects_wrong_speed(self):
        # Negative control: a rescaled fan u(x, t/2) is not a Burgers solution.
        rt = RarefactionTriple(M_rho=1.0, M_G=1.0)
        space, dspace = _space_bump(4.0)
        tbump, dtbump = _space_bump(3.0)
        phi = lambda x, t: space(x) * tbump(t)
        phi_t = lambda x, t: space(x) * dtbump(t)
        phi_x = lambda x, t: dspace(x) * tbump(t)
        slow = RarefactionTriple(M_rho=1.0, M_G=2.0)

        # Feed mismatched pieces: velocity of `slow` against the initial mass
        # of `rt` by rescaling the test function in time only for one term.
        resid_good = burgers_weak_residual(rt, phi, phi_t, phi_x, x_max=4.0, t_max=3.0)
        resid_bad = burgers_weak_residual(slow, phi, phi_t, phi_x, x_max=4.0, t_max=3.0)
        # Both triples are entropy solutions of Burgers; use a genuinely wrong
        # field instead: scale phi_t to break the time derivative pairing.
        resid_broken = burgers_weak_residual(
            rt, phi, lambda x, t: 2.0 * phi_t(x, t), phi_x, x_max=4.0, t_max=3.0
        )
        assert abs(resid_good) <= 1e-6 and abs(resid_bad) <= 1e-6
        assert abs(resid_broken) > 1e-3
