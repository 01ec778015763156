"""Exact solutions and profiles used as oracles throughout the package.

* The compact profile Phi_alpha(x) = K(alpha) (1-x^2)_+^(alpha/2), normalized so
  that Lambda^alpha Phi_alpha = 1 on (-1, 1).  Outside the support the operator
  takes the negative value H(x) given in closed hypergeometric form below.
* The odd primitive U(y) = int_{-inf}^y Lambda^alpha Phi_alpha, which equals y
  on [-1, 1] and decays like |y|^{-alpha} far out.
* The exact self-similar family of the zero-G dynamics (density transported by
  u = d_x^{-1} Lambda^alpha rho): from data c*Phi_alpha the solution is
  c*b(t)*Phi_alpha(b(t)x) with b' = -c b^(2+alpha), and every nonnegative
  mass-M solution approaches the corresponding attractor.
* The rarefaction triple (rho_bar, G_bar, u_bar) with u_bar the entropy
  solution of the inviscid Burgers equation.

Closed-form tail note: for |x| > 1 the fractional Laplacian of Phi_alpha is

    H(x) = -A(alpha) (|x|-1)^(-alpha/2) (|x|+1)^(-1-alpha/2)
                 * 2F1(1, 1+alpha/2; 2+alpha; 2/(1+|x|)),
    A(alpha) = 2^(1+alpha) Gamma(1+alpha/2) / (Gamma(2+alpha) |Gamma(-alpha/2)|).

This expression is validated in the test suite against direct adaptive
quadrature of the singular integral; it integrates to exactly -1 over (1, inf)
(so U is continuous at the support edge) and behaves like C_H |x|^(-1-alpha)
with C_H = Gamma(1/2) / (Gamma(-alpha/2) Gamma((3+alpha)/2)) < 0 at infinity.

``scipy.special.hyp2f1`` is imported inside the functions that call it, so
importing the package loads no scipy module.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fracops import FracOrder
from .grid import cumulative_trapezoid

_BETA = lambda a: 1.0 / (1.0 + a)  # noqa: E731  similarity exponent 1/(1+alpha)


def _gamma(z: float) -> float:
    """Gamma function; negative non-integer arguments via the reflection formula."""
    if z > 0:
        return math.gamma(z)
    return math.pi / (math.sin(math.pi * z) * math.gamma(1.0 - z))


def getoor_constant(alpha: float) -> float:
    """Normalizing constant K(alpha) = Gamma(1/2) / (2^alpha Gamma(1+alpha/2) Gamma((1+alpha)/2)).

    With this constant, Lambda^alpha of K(alpha)(1-x^2)_+^(alpha/2) equals 1 on
    the open support.  The limit alpha -> 1 gives exactly 1.
    """
    a = float(FracOrder(alpha))
    return math.gamma(0.5) / (2.0**a * math.gamma(1.0 + a / 2.0) * math.gamma((1.0 + a) / 2.0))


def getoor_profile(alpha: float, x) -> np.ndarray | float:
    """Compact profile K(alpha) (1 - x^2)_+^(alpha/2); even, supported on [-1, 1]."""
    a = float(FracOrder(alpha))
    k = getoor_constant(a)
    xs = np.asarray(x, dtype=float)
    out = k * np.clip(1.0 - xs**2, 0.0, None) ** (a / 2.0)
    return out if out.ndim else float(out)


def profile_mass(alpha: float) -> float:
    """Total mass of the profile: pi / (2^alpha Gamma((1+alpha)/2) Gamma((3+alpha)/2)).

    This is greater than 1 for every alpha in (0, 1) (e.g. 1.97245... at
    alpha = 1/2); unit-mass variants must be rescaled explicitly.
    """
    a = float(FracOrder(alpha))
    return math.pi / (2.0**a * math.gamma((1.0 + a) / 2.0) * math.gamma((3.0 + a) / 2.0))


def _tail_amplitude(alpha: float) -> float:
    a = alpha
    return 2.0 ** (1.0 + a) * math.gamma(1.0 + a / 2.0) / (math.gamma(2.0 + a) * abs(_gamma(-a / 2.0)))


def getoor_fraclap_tail(alpha: float, x) -> np.ndarray | float:
    """Fractional Laplacian of the profile outside its support (negative there).

    Evaluates the closed hypergeometric form quoted in the module docstring.
    Diverges like -(|x|-1)^(-alpha/2) at the support edge and decays like
    C_H |x|^(-1-alpha); its integral over (1, inf) is exactly -1.
    """
    from scipy.special import hyp2f1

    a = float(FracOrder(alpha))
    xs = np.asarray(x, dtype=float)
    s = np.abs(xs)
    if np.any(s <= 1.0):
        raise ValueError("tail formula is defined for |x| > 1 only")
    amp = _tail_amplitude(a)
    out = -amp * (s - 1.0) ** (-a / 2.0) * (s + 1.0) ** (-1.0 - a / 2.0) * hyp2f1(
        1.0, 1.0 + a / 2.0, 2.0 + a, 2.0 / (1.0 + s)
    )
    return out if out.ndim else float(out)


def getoor_fraclap(alpha: float, x) -> np.ndarray | float:
    """Lambda^alpha Phi_alpha: 1 inside (-1,1), tail formula outside, nan at |x|=1."""
    a = float(FracOrder(alpha))
    xs = np.asarray(x, dtype=float)
    s = np.abs(xs)
    out = np.full(s.shape, np.nan)
    out[s < 1.0] = 1.0
    outside = s > 1.0
    if np.any(outside):
        out[outside] = getoor_fraclap_tail(a, s[outside])
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# The odd primitive U(y) = int_{-inf}^y Lambda^alpha Phi_alpha.
# ---------------------------------------------------------------------------

_U_CACHE: dict[float, tuple[np.ndarray, np.ndarray, float, float]] = {}
_U_YMAX = 100.0
_U_MESH = 1 << 16
_U_FAR_NODES = 64


def _edge_coefficient(alpha: float) -> float:
    """B(alpha) in the edge-side split H(y) = 1 - B (y-1)^(-a/2) (y+1)^(-1-a/2) F.

    Here F = 2F1(1, 1+a/2; 1-a/2; (y-1)/(y+1)).  This is the hypergeometric
    connection formula applied to getoor_fraclap_tail; the constant term comes
    out to exactly 1, matching the interior value of the operator, and the
    remaining factor is smooth up to the edge once the (y-1)^(-a/2) prefactor
    is pulled out.
    """
    a = float(alpha)
    # The Gamma ratio first: each factor alone overflows as alpha -> 0.
    return 2.0 ** (1.0 + a) * (math.gamma(a / 2.0) / abs(_gamma(-a / 2.0))) / math.gamma(1.0 + a)


def _u_cache(alpha: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Cached table of T(y) = -int_y^inf H on a singularity-absorbing mesh.

    -H(y) = B (y-1)^(-a/2) (y+1)^(-1-a/2) 2F1(1, 1+a/2; 1-a/2; (y-1)/(y+1)) - 1
    splits the integrand into an algebraically singular part with a smooth
    cofactor plus an exact constant.  Substituting y = 1 + v^q with
    q = 2/(2-alpha) turns (y-1)^(-alpha/2) dy into q dv exactly, so the
    tabulated part is smooth in v; the constant integrates to -(ymax - y).
    T is accumulated by the trapezoid rule from the far end, anchored at
    T(ymax) from ``_far_tail``, and extended beyond ymax by the |y|^(-alpha)
    power law.  U(1) = T(1) = 1 then holds to ~1e-9.
    """
    key = float(alpha)
    cached = _U_CACHE.get(key)
    if cached is not None:
        return cached
    from scipy.special import hyp2f1

    a = key
    q = 2.0 / (2.0 - a)
    t_far = _far_tail(a)
    v = np.linspace(0.0, (_U_YMAX - 1.0) ** (1.0 / q), _U_MESH)
    s = 1.0 + v**q
    w = _edge_coefficient(a) * (s + 1.0) ** (-1.0 - a / 2.0) * hyp2f1(
        1.0, 1.0 + a / 2.0, 1.0 - a / 2.0, (s - 1.0) / (s + 1.0)
    )
    c = cumulative_trapezoid(w, v[1] - v[0])
    t = t_far + q * (c[-1] - c) - (_U_YMAX - s)
    v.setflags(write=False)
    t.setflags(write=False)
    entry = (v, t, t_far, q)
    _U_CACHE[key] = entry
    return entry


def _far_tail(alpha: float) -> float:
    """T(ymax) = -int_ymax^inf H by a fixed Gauss-Legendre rule.

    With Y = ymax, the substitution s = Y w^(-4/alpha) maps (Y, inf) onto
    (0, 1] and gives T(Y) = (Y^-alpha / alpha) int_0^1 4 w^3 g dw, where
    g = -H(s) s^(1+alpha) tends to -C_H as s -> inf.  In r = 1/s,
    g = A (1-r)^(-a/2) (1+r)^(-1-a/2) 2F1(1, 1+a/2; 2+a; 2r/(1+r)) is the
    tail formula with s^(1+alpha) divided out, so no sample overflows even
    where w^(-4/alpha) does.  The integrand is smooth on [0, 1]: 64 nodes
    reach ~1e-14 relative accuracy.
    """
    from scipy.special import hyp2f1

    a = alpha
    x, weights = leggauss(_U_FAR_NODES)
    w = 0.5 * (x + 1.0)
    r = w ** (4.0 / a) / _U_YMAX
    g = _tail_amplitude(a) * (1.0 - r) ** (-a / 2.0) * (1.0 + r) ** (-1.0 - a / 2.0) * hyp2f1(
        1.0, 1.0 + a / 2.0, 2.0 + a, 2.0 * r / (1.0 + r)
    )
    return _U_YMAX ** (-a) / a * float(np.dot(0.5 * weights, 4.0 * w**3 * g))


def velocity_profile_U(alpha: float, y) -> np.ndarray | float:
    """U(y): equals y on [-1, 1], odd, positive and decaying like |y|^(-alpha) outside.

    U(+-1) = +-1 (the tail integrates to exactly -1), so U is continuous and
    its maximum over the line is U(1) = 1.
    """
    a = float(FracOrder(alpha))
    v_mesh, t_mesh, t_far, q = _u_cache(a)
    ys = np.asarray(y, dtype=float)
    scalar = ys.ndim == 0
    ys = np.atleast_1d(ys)
    s = np.abs(ys)
    out = np.where(s <= 1.0, ys, 0.0)
    mid = (s > 1.0) & (s <= _U_YMAX)
    if np.any(mid):
        out[mid] = np.sign(ys[mid]) * np.interp((s[mid] - 1.0) ** (1.0 / q), v_mesh, t_mesh)
    far = s > _U_YMAX
    if np.any(far):
        out[far] = np.sign(ys[far]) * t_far * (s[far] / _U_YMAX) ** (-a)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Self-similar attractor and the exact evolution of profile data.
# ---------------------------------------------------------------------------


def _check_time(t: float) -> float:
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"time must be positive, got {t}")
    return t


def attractor_density(alpha: float, mass: float, x, t: float) -> np.ndarray | float:
    """Exact self-similar attractor of the zero-G dynamics with total mass `mass`.

    rho(x,t) = c b(t) Phi_alpha(b(t) x) with c = mass / profile_mass(alpha) and
    b(t) = ((1+alpha) c t)^(-1/(1+alpha)); together with the velocity
    c b(t)^alpha U(b(t) x) it is an exact weak solution of rho_t + (rho u)_x = 0,
    u = d_x^{-1} Lambda^alpha rho.
    """
    a = float(FracOrder(alpha))
    if not (mass > 0):
        raise ValueError(f"mass must be positive, got {mass}")
    c = mass / profile_mass(a)
    b = ((1.0 + a) * c * _check_time(t)) ** (-_BETA(a))
    return c * b * getoor_profile(a, np.asarray(x, dtype=float) * b)


def evolved_profile_density(alpha: float, amplitude: float, x, t: float) -> np.ndarray | float:
    """Exact evolution of initial data amplitude * Phi_alpha under the zero-G dynamics.

    rho(x,t) = amplitude * b(t) Phi_alpha(b(t) x), b(t) = (1 + (1+alpha) amplitude t)^(-1/(1+alpha)),
    valid for t >= 0 (b(0) = 1 recovers the data).
    """
    a = float(FracOrder(alpha))
    if not (amplitude > 0):
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    t = float(t)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    b = (1.0 + (1.0 + a) * amplitude * t) ** (-_BETA(a))
    return amplitude * b * getoor_profile(a, np.asarray(x, dtype=float) * b)


# ---------------------------------------------------------------------------
# Rarefaction triple.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RarefactionTriple:
    """Long-time limit triple parametrized by the two conserved masses."""

    M_rho: float
    M_G: float

    def __post_init__(self) -> None:
        if not (self.M_rho > 0 and math.isfinite(self.M_rho)):
            raise ValueError(f"M_rho must be positive, got {self.M_rho}")
        if not (self.M_G > 0 and math.isfinite(self.M_G)):
            raise ValueError(f"M_G must be positive, got {self.M_G}")


def rarefaction_velocity(rt: RarefactionTriple, x, t: float) -> np.ndarray | float:
    """Entropy solution of Burgers: 0 for x <= 0, x/t on the fan, M_G beyond it."""
    t = _check_time(t)
    xs = np.asarray(x, dtype=float)
    out = np.clip(xs / t, 0.0, rt.M_G)
    return out if out.ndim else float(out)


def rarefaction_density(rt: RarefactionTriple, x, t: float) -> np.ndarray | float:
    """(M_rho/M_G)/t on (0, M_G t], zero elsewhere; total mass M_rho for every t."""
    t = _check_time(t)
    xs = np.asarray(x, dtype=float)
    on_fan = (xs > 0.0) & (xs <= rt.M_G * t)
    out = np.where(on_fan, rt.M_rho / rt.M_G / t, 0.0)
    return out if out.ndim else float(out)


def rarefaction_G(rt: RarefactionTriple, x, t: float) -> np.ndarray | float:
    """1/t on (0, M_G t], zero elsewhere; the a.e. x-derivative of the velocity."""
    t = _check_time(t)
    xs = np.asarray(x, dtype=float)
    on_fan = (xs > 0.0) & (xs <= rt.M_G * t)
    out = np.where(on_fan, 1.0 / t, 0.0)
    return out if out.ndim else float(out)
