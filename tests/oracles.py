"""Reference oracles: closed hypergeometric forms and weak-form residuals.

``getoor_tail_hyp2f1`` and ``velocity_profile_U_hyp2f1`` spell the profile's
tail H = Lambda^alpha Phi_alpha and its primitive U outside the support in
closed hypergeometric form, independently of the package's quadrature rule.
For |y| > 1:

    H(y) = -A(alpha) (|y|-1)^(-alpha/2) (|y|+1)^(-1-alpha/2)
                 * 2F1(1, 1+alpha/2; 2+alpha; 2/(1+|y|)),
    A(alpha) = 2^(1+alpha) Gamma(1+alpha/2) / (Gamma(2+alpha) |Gamma(-alpha/2)|),

which integrates to exactly -1 over (1, inf) and behaves like C_H |y|^(-1-alpha)
with C_H = Gamma(1/2) / (Gamma(-alpha/2) Gamma((3+alpha)/2)) < 0 at infinity;
and, by Euler's integral for 2F1 applied to the profile integral,

    U(y) = sign(y) (c_alpha K(alpha) / alpha) 2^(1+alpha) B(1+alpha/2, 1+alpha/2)
                 * (|y|+1)^(-alpha) 2F1(alpha, 1+alpha/2; 2+alpha; 2/(1+|y|)).

``burgers_weak_residual`` checks the rarefaction velocity against the inviscid
Burgers equation (acceptance criterion 11), and ``continuity_weak_residual``
checks the self-similar attractor against the continuity equation.  Both
integrate with fixed Gauss rules from ``scipy.special``, placed so that the
fan kinks and the density's support edge fall on panel ends or into the
quadrature weight.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta, hyp2f1

from euler_align import (
    FracOrder,
    RarefactionTriple,
    getoor_constant,
    profile_mass,
    rarefaction_velocity,
    singular_kernel_constant,
)


def getoor_tail_hyp2f1(alpha: float, y) -> np.ndarray:
    """H(y) for |y| > 1 by the closed hypergeometric form in the module docstring."""
    a = float(alpha)
    s = np.abs(np.asarray(y, dtype=float))
    amp = 2.0 ** (1.0 + a) * math.gamma(1.0 + a / 2.0) / (math.gamma(2.0 + a) * abs(math.gamma(-a / 2.0)))
    return -amp * (s - 1.0) ** (-a / 2.0) * (s + 1.0) ** (-1.0 - a / 2.0) * hyp2f1(
        1.0, 1.0 + a / 2.0, 2.0 + a, 2.0 / (1.0 + s)
    )


def velocity_profile_U_hyp2f1(alpha: float, y) -> np.ndarray:
    """U(y) for |y| > 1 by the closed hypergeometric form in the module docstring."""
    a = float(alpha)
    ys = np.asarray(y, dtype=float)
    s = np.abs(ys)
    amp = singular_kernel_constant(a) * getoor_constant(a) / a * 2.0 ** (1.0 + a) * beta(1.0 + a / 2.0, 1.0 + a / 2.0)
    return np.sign(ys) * amp * (s + 1.0) ** (-a) * hyp2f1(a, 1.0 + a / 2.0, 2.0 + a, 2.0 / (1.0 + s))


def burgers_weak_residual(
    rt: RarefactionTriple,
    phi,
    phi_t,
    phi_x,
    x_max: float,
    t_max: float,
    n_space: int = 48,
    n_time: int = 200,
) -> float:
    """Weak residual of the rarefaction velocity as a Burgers solution.

    Evaluates  integral_0^T integral [u phi_t + (u^2/2) phi_x] dx dt
             + integral u(x, 0+) phi(x, 0) dx
    for a test function phi(x, t) that vanishes for |x| >= x_max and t >= t_max
    (caller's responsibility).  Space integrals are done piecewise-Gauss with
    the fan kinks as panel boundaries, so the result is quadrature-exact and
    the residual measures only the weak-solution property (zero for the
    entropy solution).
    """
    from scipy.special import roots_legendre

    gl_x, gw_x = roots_legendre(n_space)
    gl_t, gw_t = roots_legendre(n_time)

    def space_integral(t: float) -> float:
        total = 0.0
        breaks = [-x_max, 0.0, min(rt.M_G * t, x_max), x_max]
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            if hi <= lo:
                continue
            xq = 0.5 * (hi - lo) * gl_x + 0.5 * (hi + lo)
            u = rarefaction_velocity(rt, xq, t)
            vals = u * phi_t(xq, t) + 0.5 * u**2 * phi_x(xq, t)
            total += 0.5 * (hi - lo) * float(np.dot(gw_x, vals))
        return total

    tq = 0.5 * t_max * gl_t + 0.5 * t_max
    slab = 0.5 * t_max * float(np.dot(gw_t, [space_integral(t) for t in tq]))

    xq = 0.5 * x_max * gl_x + 0.5 * x_max  # u(x, 0+) = M_G for x > 0
    initial = 0.5 * x_max * rt.M_G * float(np.dot(gw_x, phi(xq, 0.0)))
    return slab + initial


def continuity_weak_residual(
    alpha: float,
    mass: float,
    phi,
    phi_t,
    phi_x,
    t_span: tuple[float, float],
    n_space: int = 48,
    n_time: int = 120,
) -> float:
    """Weak residual of the attractor pair under the continuity equation.

    Evaluates  integral_{t0}^{t1} integral [rho phi_t + rho u phi_x] dx dt
             - [ integral rho phi dx ]_{t0}^{t1}
    which vanishes for any weak solution and any smooth phi.  The density is
    supported in |b(t) x| <= 1, so the space integral reduces to one
    Gauss-Jacobi panel with weight (1-y^2)^(alpha/2) absorbing the edge
    behavior exactly.
    """
    from scipy.special import roots_jacobi, roots_legendre

    a = float(FracOrder(alpha))
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (0 < t0 < t1):
        raise ValueError("t_span must satisfy 0 < t0 < t1")
    c = mass / profile_mass(a)
    k = getoor_constant(a)
    yj, wj = roots_jacobi(n_space, a / 2.0, a / 2.0)
    gl_t, gw_t = roots_legendre(n_time)

    def b_of(t: float) -> float:
        return ((1.0 + a) * c * t) ** (-1.0 / (1.0 + a))

    def space_integral(t: float) -> float:
        b = b_of(t)
        xq = yj / b
        # rho = c b K w(y),  u = c b^alpha y  on the support (w = Jacobi weight)
        rho_fac = c * b * k
        u = c * b**a * yj
        vals = rho_fac * (phi_t(xq, t) + u * phi_x(xq, t))
        return float(np.dot(wj, vals)) / b

    def mass_term(t: float) -> float:
        b = b_of(t)
        return c * b * k * float(np.dot(wj, phi(yj / b, t))) / b

    tq = 0.5 * (t1 - t0) * gl_t + 0.5 * (t1 + t0)
    slab = 0.5 * (t1 - t0) * float(np.dot(gw_t, [space_integral(t) for t in tq]))
    return slab - (mass_term(t1) - mass_term(t0))
