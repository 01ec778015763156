"""Fractional-order nonlocal operators on periodic grids.

Two independent routes to the fractional Laplacian of order alpha in (0,1):

* a Fourier multiplier |xi|^alpha on the periodic grid (fast path), optionally
  augmented with an analytic periodic-image correction that recovers the
  real-line operator for fields compactly supported inside the domain;
* a direct quadrature of the symmetrized singular integral

      c_alpha * int_0^inf (2 f(x) - f(x+z) - f(x-z)) / z^(1+alpha) dz

  with zero extension of f outside the grid, by a fixed dyadic-shell midpoint
  rule vectorized over points and shells (the oracle path).

Both realize the operator with Fourier symbol |xi|^alpha; the singular-integral
form therefore carries the normalization constant

    c_alpha = 2^alpha * Gamma((1+alpha)/2) / (sqrt(pi) * |Gamma(-alpha/2)|).

Also provided: Hilbert transform, Riesz potentials, the velocity primitive
d_x^{-1} Lambda^alpha, the velocity reconstruction u = d_x^{-1}(G + Lambda^alpha rho),
and numerical checks of the Stroock-Varopoulos and fractional
Gagliardo-Nirenberg inequalities.

The velocity reconstruction is the solver's hot path.  Its whole rho part --
the periodic primitive, the cumulative integral of the periodic-image
correction and, through the offset c - c[0], the left-edge pinning -- is one
linear convolution of rho with a pre-integrated kernel that the workspace
builds once and keeps (see ``SpectralWorkspace.velocity_kernel_spectrum``),
evaluated as a single real-FFT product of length 2n.  When G = g_coef * rho
(the solver's proportional and zero-G data) the kernel carries G's integral
too, so the whole velocity is that one product.  The separate
``periodic_image_correction`` (an ``fftconvolve`` with the raw image kernel)
stays as the independent reference route the tests check that kernel
against, and as the correction used by ``fractional_laplacian_spectral``.

Every transform runs on ``numpy.fft``, not ``scipy.fft``.  Both wrap the
same pocketfft C++ code and give the same floats, but importing
``scipy.fft`` (which also loads ``scipy.special``) would be most of the
package's start-up time, and only ``numpy.fft`` (numpy >= 2.0) takes an
``out=`` array.  The velocity and the solver's spectral step write their
transforms and elementwise intermediates into per-thread work arrays (see
``_work_array``) that persist between calls: at n >= 8192 each is >= 128 KiB,
and fresh ones would make the allocator trim and re-fault the heap top on
every step.  Call sites name ``np.fft.rfft`` through the module attribute,
so call counters can patch it.

``fftconvolve`` is the module's own full linear convolution: the transforms
``scipy.signal.fftconvolve`` runs for real 1-D input, at the same 5-smooth
length, so results are bit-identical without importing ``scipy.signal``.  It
stays a module-level name so that call counters can patch it.
"""
from __future__ import annotations

from dataclasses import dataclass
import math
import sys
import threading

import numpy as np

from .grid import (
    Field,
    Grid1D,
    GridError,
    cumulative_trapezoid,
    integrate,
    lp_norm,
)

N_IMAGES = 64  # image pairs SpectralWorkspace.image_kernel sums before its analytic tail


def _next_fast_len(m: int) -> int:
    """Smallest 5-smooth integer >= m, as ``scipy.fft.next_fast_len(m, True)``."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-m // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D arrays, as ``scipy.signal.fftconvolve``."""
    m = len(a) + len(b) - 1
    size = _next_fast_len(m)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:m]


_work = threading.local()


def _work_array(name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """This thread's work array ``name``, allocated anew only when its shape changes.

    The contents are scratch: every caller overwrites the array before it
    reads it, and no caller returns it.  Keeping the arrays per thread, and
    out of ``SpectralWorkspace``, lets threads share one workspace, which
    stays immutable and picklable.
    """
    arr = getattr(_work, name, None)
    if arr is None or arr.shape != shape:
        arr = np.empty(shape, dtype)
        setattr(_work, name, arr)
    return arr


class FracOrderError(ValueError):
    """Fractional order outside the open interval (0, 1), or subnormal."""


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha with strict validation 0 < alpha < 1.

    The endpoint alpha = 1 is rejected: the operator identities used here
    (kernel normalization, tail formulas) degenerate there.  So are subnormal
    orders (below ``sys.float_info.min``): there Gamma(-alpha/2) and 1/alpha
    overflow or divide by zero.
    """

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (sys.float_info.min <= v < 1.0):
            raise FracOrderError(
                f"fractional order must be a normal float with 0 < alpha < 1, got {self.value!r}"
            )
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def singular_kernel_constant(alpha: float) -> float:
    """Constant c_alpha linking the singular integral to the |xi|^alpha symbol."""
    a = float(FracOrder(alpha))
    return 2.0**a * math.gamma((1.0 + a) / 2.0) / (math.sqrt(math.pi) * abs(math.gamma(-a / 2.0)))


class SpectralWorkspace:
    """Cached Fourier multipliers for a (grid, alpha) pair.

    Caches the three core multiplier arrays (length n, FFT layout):

    * ``abs_xi_alpha``      : |xi|^alpha                    (fractional Laplacian)
    * ``hilbert_multiplier``: -i * sgn(xi)                  (Hilbert transform)
    * ``pdinv_multiplier``  : -i * sgn(xi) * |xi|^(alpha-1) (d_x^{-1} Lambda^alpha)

    All three vanish at xi = 0; the two odd (imaginary) multipliers also vanish
    at the Nyquist mode, which has no conjugate partner.

    The image kernel, the velocity kernels, the tail-anchor weights and the
    transport multipliers are built on first use, so a workspace that never
    reconstructs a velocity never pays for them.  Every cached array is
    frozen, and building one twice gives the same values, so a workspace may
    be shared across threads and pickled.  The scratch arrays that the
    velocity and the spectral step write into are not part of it: they are
    per thread, one set per grid size (``_work_array``).
    """

    def __init__(self, grid: Grid1D, alpha: float):
        self.grid = grid
        self.alpha = float(FracOrder(alpha))
        xi = grid.wavenumbers
        nyq = grid.n // 2

        self.abs_xi_alpha = np.abs(xi) ** self.alpha
        sgn = np.sign(xi)
        hil = -1j * sgn
        hil[nyq] = 0.0
        self.hilbert_multiplier = hil
        with np.errstate(divide="ignore"):
            mag = np.abs(xi) ** (self.alpha - 1.0)
        mag[0] = 0.0
        pdi = -1j * sgn * mag
        pdi[nyq] = 0.0
        self.pdinv_multiplier = pdi

        for arr in (self.abs_xi_alpha, self.hilbert_multiplier, self.pdinv_multiplier):
            arr.setflags(write=False)

        self._abs_power_cache: dict[float, np.ndarray] = {self.alpha: self.abs_xi_alpha}
        self._image_kernel: np.ndarray | None = None
        self._velocity_kernels: dict[tuple[bool, float], np.ndarray] = {}
        self._tail_anchor_weights: np.ndarray | None = None
        self._transport_multipliers: tuple[np.ndarray, np.ndarray] | None = None

    def abs_power_multiplier(self, power: float) -> np.ndarray:
        """|xi|^power with the zero mode set to 0 (also for negative powers)."""
        key = float(power)
        mult = self._abs_power_cache.get(key)
        if mult is None:
            xi = self.grid.wavenumbers
            with np.errstate(divide="ignore"):
                mult = np.abs(xi) ** key
            mult[0] = 0.0
            mult.setflags(write=False)
            self._abs_power_cache[key] = mult
        return mult

    def image_kernel(self) -> np.ndarray:
        """Periodic-image kernel Q(z) = c_alpha * sum_{m != 0} |z - 2Lm|^(-1-alpha).

        Sampled on the linear-convolution lattice z_k = (k - (n-1)) h,
        k = 0 .. 2n-2.  The first ``N_IMAGES`` image pairs are summed directly;
        the remainder is added as its analytic integral tail (z-dependence of
        far images is negligible at that distance).  Only k < n is computed:
        z[2n-2-k] = -z[k] exactly and the two image sums swap there.  The
        pairs are accumulated one image at a time, m = 1, 2, ..., on the
        stacked offsets (z, -z) (|-z - 2Lm| = |z + 2Lm|), so the build holds
        a few length-2n arrays, about 0.6 MiB at n = 8192, whatever
        ``N_IMAGES`` is.
        """
        if self._image_kernel is None:
            n, L, a = self.grid.n, self.grid.half_width, self.alpha
            h = self.grid.spacing
            z = (np.arange(n) - (n - 1)) * h
            zz = np.stack((z, -z))
            sums = np.zeros_like(zz)
            term = np.empty_like(zz)
            for m in range(1, N_IMAGES + 1):
                np.subtract(zz, 2.0 * L * m, out=term)
                np.abs(term, out=term)
                np.power(term, -1.0 - a, out=term)
                sums += term
            q = sums[0] + sums[1]
            q += 2.0 * (2.0 * L) ** (-1.0 - a) * (N_IMAGES + 0.5) ** (-a) / a
            q *= singular_kernel_constant(a)
            q = np.concatenate((q, q[-2::-1]))
            q.setflags(write=False)
            self._image_kernel = q
        return self._image_kernel

    def velocity_kernel_spectrum(self, image_correction: bool, g_coef: float = 0.0) -> np.ndarray:
        """Length-2n rfft of the pre-integrated velocity kernel K_c, c = ``g_coef``.

        On the offsets d = -(n-1) .. n-1 (array index d + n - 1),

            K_c[d] = p[d mod n] + h * (S[d] - h * Q[d] / 2) + c * T[d],

        with p = ifft(pdinv_multiplier) the impulse response of the periodic
        primitive, Q = image_kernel() and S = cumsum(h * Q) its cumulative sum
        from the left, and T[d] = h for d >= 1, h/2 at d = 0, 0 for d < 0; the
        image part is left out when ``image_correction`` is false.  For
        c[j] = sum_k rho_k K_c[j - k] the difference c - c[0] is the periodic
        primitive pinned to 0 at the left edge plus the cumulative trapezoid
        integrals of ``periodic_image_correction(rho)`` and of G = c * rho:
        the trapezoid sum of h * Q[i - k] over i = 0 .. j equals F[j-k] - F[-k]
        with F = S - h * Q / 2, and (rho * T)[j] - (rho * T)[0] is the
        trapezoid integral of rho.  Zero padding to 2n keeps the wrap-around of
        the circular product out of the n samples that are used.
        """
        key = (bool(image_correction), float(g_coef))
        spectrum = self._velocity_kernels.get(key)
        if spectrum is None:
            n, h = self.grid.n, self.grid.spacing
            p = np.fft.irfft(self.pdinv_multiplier[: n // 2 + 1], n)
            kernel = p[np.arange(-(n - 1), n) % n]
            if image_correction:
                q = self.image_kernel()
                kernel += h * (np.cumsum(h * q) - 0.5 * h * q)
            if g_coef:
                kernel[n - 1] += g_coef * (0.5 * h)
                kernel[n:] += g_coef * h
            spectrum = np.fft.rfft(kernel, 2 * n)
            spectrum.setflags(write=False)
            self._velocity_kernels[key] = spectrum
        return spectrum

    def tail_anchor_weights(self) -> np.ndarray:
        """Weights w with w @ f == left_tail_anchor(f, alpha) (w[0] = 0)."""
        if self._tail_anchor_weights is None:
            grid, a = self.grid, self.alpha
            w = np.zeros(grid.n)
            w[1:] = (grid.x[1:] + grid.half_width) ** (-a)
            w *= -singular_kernel_constant(a) / a * grid.spacing
            w.setflags(write=False)
            self._tail_anchor_weights = w
        return self._tail_anchor_weights

    def transport_multipliers(self) -> tuple[np.ndarray, np.ndarray]:
        """Half-spectrum (rfft layout) xi^2 and the dealiased derivative i*xi.

        The derivative multiplier keeps the modes with |xi| <= (2/3) max|xi|
        (the 2/3 rule; the Nyquist mode is always dropped).  Used by the
        spectral transport for its diffusion factor and flux derivatives.
        """
        if self._transport_multipliers is None:
            xi = np.abs(self.grid.wavenumbers[: self.grid.n // 2 + 1])
            xi_sq = xi**2
            ik = 1j * xi * (xi <= (2.0 / 3.0) * xi.max())
            for arr in (xi_sq, ik):
                arr.setflags(write=False)
            self._transport_multipliers = (xi_sq, ik)
        return self._transport_multipliers


def apply_multiplier(f: Field, multiplier: np.ndarray) -> Field:
    """Apply a Fourier multiplier (FFT layout) to a real field."""
    out = np.fft.ifft(multiplier * np.fft.fft(f.values)).real
    return Field(f.grid, out)


def _check_ws(f: Field, ws: SpectralWorkspace) -> None:
    if f.grid != ws.grid:
        raise GridError("field and workspace live on different grids")


def periodic_image_correction(f: Field, ws: SpectralWorkspace) -> Field:
    """Correction (f conv Q) turning the periodic multiplier into the real-line operator.

    For f supported inside the domain, Lambda^alpha_{R} f = Lambda^alpha_{per} f
    + (f conv Q) pointwise on the grid, where Q collects the kernel's periodic
    images.  Computed as a linear (zero-padded) convolution by the module-level
    ``fftconvolve`` (see the module docstring for why it is local).
    """
    _check_ws(f, ws)
    n = f.grid.n
    corr = f.grid.spacing * fftconvolve(f.values, ws.image_kernel())[n - 1 : 2 * n - 1]
    return Field(f.grid, corr)


def fractional_laplacian_spectral(
    f: Field, ws: SpectralWorkspace, image_correction: bool = False
) -> Field:
    """Fractional Laplacian via the |xi|^alpha multiplier.

    With ``image_correction=False`` (default) this is exactly the field whose
    Fourier coefficients are |xi_k|^alpha f_hat_k; its mean vanishes to machine
    precision.  With ``image_correction=True`` the periodic-image term is added,
    which approximates the real-line operator on the grid window for fields
    supported away from the boundary (the corrected output has the positive
    interior mean the real-line operator actually produces there).
    """
    _check_ws(f, ws)
    out = apply_multiplier(f, ws.abs_xi_alpha)
    if image_correction:
        out = out + periodic_image_correction(f, ws)
    return out


def fractional_laplacian_quadrature(
    f: Field, alpha: float, x, nodes_per_shell: int = 48
) -> np.ndarray:
    """Singular-integral oracle for the fractional Laplacian at points x.

    Uses the symmetrized form on the fixed dyadic shells [z, 2z] from
    z_min = h/2 out to R = L + |x|, each with a ``nodes_per_shell``-node
    midpoint rule, the zero extension of f off the grid (linear interpolation
    on it), and the closed-form far tail 2 f(x) R^(-alpha) / alpha.  The
    discarded core |z| < h/2 contributes O(h^(2-alpha) * max|f''|), below the
    tolerance of every consumer.

    Vectorized over points and shells: all nodes form one array of shape
    (points, shells, nodes_per_shell), so the working memory is that many
    floats (times a few temporaries).  A point's shells beyond its own R are
    masked out, and the shell sums are added to each point's total in shell
    order, so every value is the same float the point-by-point loop gives.

    Deliberately independent of the FFT route: no periodicity, no multipliers.
    Returns a plain array of values at ``x`` (scalar x gives a length-1 array).
    """
    a = float(FracOrder(alpha))
    c_a = singular_kernel_constant(a)
    grid = f.grid
    h, L = grid.spacing, grid.half_width
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(xs) < L):
        raise ValueError("quadrature oracle requires evaluation points inside (-L, L)")

    def sample(pts: np.ndarray) -> np.ndarray:
        return np.interp(pts, grid.x, f.values, left=0.0, right=0.0)

    z_min = h / 2.0
    fx = sample(xs)
    big_r = L + np.abs(xs)
    n_shells = np.ceil(np.log2(big_r / z_min)).astype(int)
    m = np.arange(n_shells.max(initial=0))
    lo = np.ldexp(z_min, m)
    hi = np.minimum(np.ldexp(z_min, m + 1), big_r[:, None])
    active = (m < n_shells[:, None]) & (lo < hi)
    w = (hi - lo) / nodes_per_shell
    z = lo[:, None] + (np.arange(nodes_per_shell) + 0.5) * w[..., None]
    xv = xs[:, None, None]
    shell_sums = ((2.0 * fx[:, None, None] - sample(xv + z) - sample(xv - z)) / z ** (1.0 + a)).sum(axis=-1)
    terms = np.where(active, w * shell_sums, 0.0)
    total = np.zeros_like(xs)
    for shell in terms.T:
        total += shell
    # Scalar powers: numpy's vectorized pow may differ from the scalar one by an ulp.
    total += 2.0 * fx * np.array([r ** -a for r in big_r.tolist()]) / a
    return c_a * total


def hilbert_transform(f: Field, ws: SpectralWorkspace) -> Field:
    """Hilbert transform via the -i*sgn(xi) multiplier (mean is annihilated)."""
    _check_ws(f, ws)
    return apply_multiplier(f, ws.hilbert_multiplier)


def riesz_potential(f: Field, s: float, ws: SpectralWorkspace) -> Field:
    """Riesz potential Lambda^{-s}, 0 < s < 1: multiplier |xi|^(-s), zero mode -> 0."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"riesz_potential requires 0 < s < 1, got {s}")
    _check_ws(f, ws)
    return apply_multiplier(f, ws.abs_power_multiplier(-float(s)))


def left_tail_anchor(f: Field, alpha: float) -> float:
    """Exact cumulative integral of Lambda^alpha f from -inf to the left grid edge.

    For f extended by zero outside [-L, L), Fubini gives

        int_{-inf}^{-L} Lambda^alpha f = -(c_alpha/alpha) * int f(z) (z+L)^(-alpha) dz,

    evaluated here with the grid rule.  The j = 0 node sits exactly on the
    singularity of the weight and is skipped; fields honoring the support
    margin contract vanish there.
    """
    a = float(FracOrder(alpha))
    grid = f.grid
    w = (grid.x[1:] + grid.half_width) ** (-a)
    acc = float(grid.spacing * (f.values[1:] * w).sum())
    return -singular_kernel_constant(a) / a * acc


def velocity_from_state(
    rho: Field,
    g: Field,
    ws: SpectralWorkspace,
    image_correction: bool = False,
    gauge: str = "left_zero",
) -> Field:
    """Velocity u = d_x^{-1}(G + Lambda^alpha rho).

    The G part is the cumulative trapezoid integral (so u at the right edge
    approaches integrate(G)).  The rho part is one linear convolution,
    c = rho * K, with the workspace's pre-integrated kernel (see
    ``SpectralWorkspace.velocity_kernel_spectrum``), computed as one real-FFT
    product of length 2n; c - c[0] is the spectral primitive of
    Lambda^alpha rho pinned to 0 at the left edge.  ``image_correction=True``
    selects the kernel that also carries the cumulative periodic-image term,
    so interior velocities match the real-line operator.  The result equals
    the composition of ``apply_multiplier(rho, pdinv_multiplier)``,
    ``antiderivative(periodic_image_correction(rho))`` and
    ``left_tail_anchor`` to round-off; that composition is kept as the
    reference the tests compare against.

    gauge:
      * ``"left_zero"``: u(left edge) = 0 exactly.
      * ``"real_line"``: u(left edge) = left_tail_anchor(rho, alpha), the
        cumulative integral of Lambda^alpha rho over (-inf, -L) for the
        zero-extended density.  For compactly supported states this is the
        physical antiderivative that vanishes at -inf, the gauge in which the
        velocity is odd for even rho and transports profiles without drift.
    """
    _check_ws(rho, ws)
    _check_ws(g, ws)
    return Field(rho.grid, _velocity_values(rho.values, g.values, ws, image_correction, gauge))


def _velocity_values(
    rho: np.ndarray, g: np.ndarray | float, ws: SpectralWorkspace, image_correction: bool, gauge: str
) -> np.ndarray:
    """Raw-array core of ``velocity_from_state``; the caller has checked the grids.

    g is the G row, or the coefficient c of G = c * rho: that selects the
    kernel K_c, which carries G's cumulative trapezoid, so G is never formed.
    """
    if gauge not in ("left_zero", "real_line"):
        raise ValueError(f"gauge must be 'left_zero' or 'real_line', got {gauge!r}")
    n = ws.grid.n
    row = isinstance(g, np.ndarray)
    spectrum = np.fft.rfft(rho, 2 * n, out=_work_array("velocity_hat", (n + 1,), complex))
    spectrum *= ws.velocity_kernel_spectrum(image_correction, 0.0 if row else g)
    c = np.fft.irfft(spectrum, 2 * n, out=_work_array("velocity_conv", (2 * n,)))[n - 1 : 2 * n - 1]
    u = c - c[0]
    if row:
        u += cumulative_trapezoid(g, ws.grid.spacing)
    if gauge == "real_line":
        u += ws.tail_anchor_weights() @ rho
    return u


def stroock_varopoulos_check(
    v: Field, p: float, ws: SpectralWorkspace, tol: float = 1e-6
) -> tuple[float, float, bool]:
    """Check int v^p Lambda^alpha v >= (4p/(p+1)^2) int (Lambda^{alpha/2} v^{(p+1)/2})^2.

    Requires v >= 0 and p >= 1.  Returns (lhs, rhs, holds) where ``holds``
    allows a relative slack of ``tol`` for discretization noise.
    """
    if p < 1.0:
        raise ValueError(f"stroock_varopoulos_check requires p >= 1, got {p}")
    if float(v.values.min()) < -1e-13 * max(1.0, float(np.abs(v.values).max())):
        raise ValueError("stroock_varopoulos_check requires a nonnegative field")
    _check_ws(v, ws)
    vals = np.clip(v.values, 0.0, None)
    lam_v = apply_multiplier(v, ws.abs_xi_alpha).values
    lhs = float(integrate(Field(v.grid, vals**p * lam_v)))
    w = Field(v.grid, vals ** ((p + 1.0) / 2.0))
    half = apply_multiplier(w, ws.abs_power_multiplier(ws.alpha / 2.0)).values
    rhs = float(4.0 * p / (p + 1.0) ** 2 * integrate(Field(v.grid, half**2)))
    holds = lhs >= rhs - tol * abs(rhs) - 1e-14
    return lhs, rhs, holds


def gagliardo_nirenberg_check(
    v: Field, r: float, q: float, ws: SpectralWorkspace
) -> tuple[float, float, float]:
    """Evaluate both sides of the fractional Gagliardo-Nirenberg inequality.

    For r > 2, q > 1 with q < r < 2q and theta1 = q(r-1+alpha)/(q-1),
    theta2 = theta1 - r:

        ||v||_q^theta1  <=  C * ||Lambda^{alpha/2} |v|^{r/2}||_2^2 * ||v||_1^theta2.

    Returns (lhs, rhs_without_constant, ratio); the ratio is invariant under
    the mass-preserving dilation v -> s*v(s*x), which is what the self-test
    exercises (the constant C itself is not quantified).
    """
    if not (r > 2.0 and q > 1.0 and q < r < 2.0 * q):
        raise ValueError(f"gagliardo_nirenberg_check requires r > 2, q > 1, q < r < 2q; got r={r}, q={q}")
    _check_ws(v, ws)
    a = ws.alpha
    theta1 = q * (r - 1.0 + a) / (q - 1.0)
    theta2 = theta1 - r
    lhs = lp_norm(v, q) ** theta1
    w = Field(v.grid, np.abs(v.values) ** (r / 2.0))
    half = apply_multiplier(w, ws.abs_power_multiplier(a / 2.0)).values
    rhs = float(integrate(Field(v.grid, half**2))) * lp_norm(v, 1) ** theta2
    ratio = lhs / rhs if rhs > 0 else 0.0
    return lhs, rhs, ratio


def derivative(f: Field) -> Field:
    """Spectral derivative (i*xi multiplier, Nyquist zeroed)."""
    xi = f.grid.wavenumbers
    mult = 1j * xi.copy()
    mult[f.grid.n // 2] = 0.0
    return apply_multiplier(f, mult)
