"""Exact solutions and profiles used as oracles throughout the package.

* The compact profile Phi_alpha(x) = K(alpha) (1-x^2)_+^(alpha/2), normalized so
  that Lambda^alpha Phi_alpha = 1 on (-1, 1).  Outside the support the operator
  takes a negative value H(x).
* The odd primitive U(y) = int_{-inf}^y Lambda^alpha Phi_alpha, which equals y
  on [-1, 1] and decays like |y|^{-alpha} far out.
* The exact self-similar family of the zero-G dynamics (density transported by
  u = d_x^{-1} Lambda^alpha rho): from data c*Phi_alpha the solution is
  c*b(t)*Phi_alpha(b(t)x) with b' = -c b^(2+alpha), and every nonnegative
  mass-M solution approaches the corresponding attractor.
* The rarefaction triple (rho_bar, G_bar, u_bar) with u_bar the entropy
  solution of the inviscid Burgers equation.

For |y| > 1 both H and U are integrals over the profile (Getoor, Trans. AMS
101, 1961), with c_alpha the singular-kernel constant:

    H(y) = -c_alpha K(alpha) int_{-1}^{1} (1-x^2)^(alpha/2) (|y|-x)^(-1-alpha) dx,
    U(y) = sign(y) (c_alpha K(alpha) / alpha) int_{-1}^{1} (1-x^2)^(alpha/2) (|y|-x)^(-alpha) dx.

One Gauss-Legendre rule on (-1, 1) evaluates both to round-off (``_moments``).
H integrates to exactly -1 over (1, inf), so U is continuous at the support
edge, and |y|^alpha U(y) tends to c_alpha profile_mass(alpha) / alpha.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fracops import FracOrder, singular_kernel_constant

_BETA = lambda a: 1.0 / (1.0 + a)  # noqa: E731  similarity exponent 1/(1+alpha)
_NODES = 48  # Gauss-Legendre nodes per panel of the profile-moment rule
_SHELLS = 41  # panels toward each end of the support: 40 dyadic shells and [0, 2^-40]
_BLOCK = 64  # points per block: the temporaries stay near 2 MB


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


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``_NODES``-node Gauss-Legendre rule on (0, 1), built on first use.

    Not at import: ``leggauss`` calls LAPACK, whose first call costs every
    process about a megabyte of resident memory.
    """
    t, w = leggauss(_NODES)
    u, wu = 0.5 * (t + 1.0), 0.5 * w
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def _shell_rule(m: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0, 1]: ``_NODES`` Gauss-Legendre nodes per dyadic shell.

    The shells are [2^-k-1, 2^-k] for k < ``_SHELLS`` - 1, and below them
    [0, eps], eps = 2^(1-_SHELLS), mapped by z = eps u^m.  With m = 1/(1+beta)
    that map turns z^beta dz into a constant times du, so an integrand
    z^beta g(z) with g smooth near 0 loses nothing on the innermost panel.
    """
    u, wu = _gauss_legendre()
    lo = 2.0 ** -np.arange(1, _SHELLS)
    eps = lo[-1]
    z = np.concatenate([(lo[:, None] * (1.0 + u)).ravel(), eps * u**m])
    w = np.concatenate([(lo[:, None] * wu).ravel(), eps * m * u ** (m - 1.0) * wu])
    return z, w


def _moments(alpha: float, s: np.ndarray, power: float) -> np.ndarray:
    """int_{-1}^{1} (1-x^2)^(alpha/2) (s-x)^(-power) dx at each s > 1 (s = 1 too if power < 1).

    One Gauss-Legendre rule (``_shell_rule``) on each half of the support,
    with 1 + x = z on [-1, 0] and 1 - x = z^q, q = 2/(2-alpha), on [0, 1].
    There the weight and the Jacobian are q z^(q alpha) (2 - z^q)^(alpha/2),
    so at s = 1 and power = alpha the integrand is smooth.  s - x is formed
    as (s - 1) + (1 - x), so nothing cancels near the edge, and the shells
    resolve the (s - x)^(-power) peak down to s - 1 ~ 1e-12.  Points are
    summed in blocks of ``_BLOCK`` to bound the temporaries.
    """
    a = alpha
    q = 2.0 / (2.0 - a)
    z, w = _shell_rule(1.0 / (1.0 + a / 2.0))
    left_gap, left_weight = 2.0 - z, w * (z * (2.0 - z)) ** (a / 2.0)
    z, w = _shell_rule(1.0 / (1.0 + q * a))
    zq = z**q
    one_minus_x = np.concatenate([left_gap, zq])
    weight = np.concatenate([left_weight, w * q * z ** (q - 1.0) * (zq * (2.0 - zq)) ** (a / 2.0)])
    d = s - 1.0
    out = np.empty_like(d)
    for i in range(0, d.size, _BLOCK):
        out[i : i + _BLOCK] = (d[i : i + _BLOCK, None] + one_minus_x) ** -power @ weight
    return out


def getoor_fraclap_tail(alpha: float, x) -> np.ndarray | float:
    """Fractional Laplacian of the profile outside its support (negative there).

    H(x) = -c_alpha K(alpha) int_{-1}^{1} (1-y^2)^(alpha/2) (|x|-y)^(-1-alpha) dy,
    the singular integral at a point off the support.  Diverges like
    -(|x|-1)^(-alpha/2) at the support edge and decays like
    -c_alpha profile_mass(alpha) |x|^(-1-alpha); its integral over (1, inf)
    is exactly -1.
    """
    a = float(FracOrder(alpha))
    xs = np.asarray(x, dtype=float)
    s = np.abs(xs)
    if np.any(s <= 1.0):
        raise ValueError("tail formula is defined for |x| > 1 only")
    out = -singular_kernel_constant(a) * getoor_constant(a) * _moments(a, s.ravel(), 1.0 + a).reshape(s.shape)
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


def velocity_profile_U(alpha: float, y) -> np.ndarray | float:
    """U(y): equals y on [-1, 1], odd, positive and decaying like |y|^(-alpha) outside.

    Outside the support it is minus the integral of the tail H from |y| to
    infinity, times sign(y) (the module docstring's integral).  U(+-1) = +-1
    (the tail integrates to exactly -1), so U is continuous and its maximum
    over the line is U(1) = 1.
    """
    a = float(FracOrder(alpha))
    ys = np.asarray(y, dtype=float)
    s = np.abs(ys)
    out = np.where(s <= 1.0, ys, 0.0)
    outside = s > 1.0
    if np.any(outside):
        amp = singular_kernel_constant(a) * getoor_constant(a) / a
        out[outside] = np.sign(ys[outside]) * amp * _moments(a, s[outside], a)
    return out if out.ndim else float(out)


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
