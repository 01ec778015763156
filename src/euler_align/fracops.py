"""Fractional-order nonlocal operators on periodic grids.

Two independent routes to the fractional Laplacian of order alpha in (0,1):

* a Fourier multiplier |xi|^alpha on the periodic grid (fast path), optionally
  augmented with an analytic periodic-image correction that recovers the
  real-line operator for fields compactly supported inside the domain;
* a direct quadrature of the symmetrized singular integral

      c_alpha * int_0^inf (2 f(x) - f(x+z) - f(x-z)) / z^(1+alpha) dz

  with zero extension of f outside the grid, by a fixed dyadic-shell midpoint
  rule (the oracle path), on one field or a stack of fields on one grid, as
  one matrix of weights on the grid values per block of points (see
  ``fractional_laplacian_quadrature``).

Both realize the operator with Fourier symbol |xi|^alpha; the singular-integral
form therefore carries the normalization constant

    c_alpha = 2^alpha * Gamma((1+alpha)/2) / (sqrt(pi) * |Gamma(-alpha/2)|).

Also provided: Hilbert transform, Riesz potentials, the velocity primitive
d_x^{-1} Lambda^alpha, the velocity reconstruction u = d_x^{-1}(G + Lambda^alpha rho),
and numerical checks of the Stroock-Varopoulos and fractional
Gagliardo-Nirenberg inequalities.

Every field is real, so every multiplier lives on the rfft half spectrum xi =
``Grid1D.wavenumbers`` >= 0 (n/2 + 1 entries), applied by one routine,
``apply_multiplier``: irfft(m * rfft(f), n).  The operators are built from |xi|^p
(``SpectralWorkspace.abs_power_multiplier``): Lambda^alpha is |xi|^alpha, the
Hilbert transform -i |xi|^0, d_x^{-1} Lambda^alpha is -i |xi|^(alpha-1) and the
derivative i xi.  The odd multipliers need no zeroed Nyquist entry: irfft
discards the imaginary part of the zero and Nyquist bins.

The velocity reconstruction is the solver's hot path, and ``_velocity_rows``
is its one routine: the steps call it on their stacked rows and
``velocity_from_state`` on a stack of one.  Its one gauge is the real line's:
u is the antiderivative that vanishes at -inf.  Its whole rho part -- the
periodic primitive, the cumulative integral of the periodic-image correction
and, through the offset c - c[0], the left-edge pinning -- is one linear
convolution of rho with a pre-integrated kernel that the workspace builds
once and keeps (see ``SpectralWorkspace.velocity_kernel_spectrum``); the tail
anchor then moves the left-edge value from 0 to the integral over (-inf, -L).
G = g_coef * rho (the solver's proportional and zero-G data) is passed as
g_coef, and the kernel carries its integral too.  ``periodic_image_correction``
(the independent reference the tests check that kernel against, and the
correction ``fractional_laplacian_spectral`` adds) is the same operation with
the raw image kernel: the n-point window of a linear convolution with a
kernel on the offsets -(n-1) .. n-1.  ``fftconvolve`` is that one routine, on
stacked rows, a length-2n real-FFT product with the kernel's cached
spectrum; it is a module-level name so that call counters see every product.

Every transform runs on ``numpy.fft``, not ``scipy.fft``.  Both wrap the
same pocketfft C++ code and give the same floats, but importing
``scipy.fft`` (which also loads ``scipy.special``) would be most of the
package's start-up time, and only ``numpy.fft`` (numpy >= 2.0) takes an
``out=`` array.  ``fftconvolve`` and the solver's spectral step write their
transforms and elementwise intermediates into per-thread work arrays (see
``_work_array``) that persist between calls: at n >= 8192 each is >= 128 KiB,
and fresh ones would make the allocator trim and re-fault the heap top on
every step.  ``apply_multiplier`` keeps its spectra in such an array too,
for the same reason.  Each is a view of a per-thread buffer that only
grows, so calls that alternate between stack heights and grid sizes reuse
one buffer.
``apply_multiplier`` and ``periodic_image_correction`` transform a stack in
blocks of ``_block_rows(n)`` rows, ``BLOCK_FLOATS`` values, the rule the
solver's step blocks follow, so their buffers hold one block, not the
tallest stack.  Call sites name ``np.fft.rfft`` through the module
attribute, so call counters can patch it.
"""
from __future__ import annotations

from collections.abc import Sequence
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
WORKSPACE_BUDGET = 32 << 20  # bytes the shared workspaces (``workspace``) may hold, lazily built arrays included
NODES_PER_SHELL = 48  # midpoint nodes per dyadic shell in fractional_laplacian_quadrature
BLOCK_FLOATS = 1 << 13  # values per block of scratch rows, steps or oracle weights: 64 KiB, half glibc's mmap and trim thresholds


_work = threading.local()


def _work_array(name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """This thread's work array ``name``, of ``shape``: a view of a flat buffer that only grows.

    The buffer is allocated anew only when ``shape`` needs more entries than
    it holds, so calls that alternate between stack heights or grid sizes
    reuse it, and it keeps the largest size asked for.  ``apply_multiplier``
    and ``periodic_image_correction`` ask for one block of rows
    (``_block_rows``), about 128 KiB an array whatever the stack's height;
    the solver's arrays are as high as its lockstep runs.  A call with the
    shape of the previous one returns the same view, as cheaply as a lookup:
    the solver calls this about 15 times per step.  The contents are
    scratch: every caller overwrites the array before it reads it
    (``fftconvolve`` returns a view that its callers use at once), and a
    later call under the same name overwrites it.  Keeping the arrays per
    thread, and out of ``SpectralWorkspace``, lets threads share one
    workspace, which stays immutable and picklable.
    """
    entry = getattr(_work, name, None)  # (the buffer, the view last returned)
    if entry is None or entry[1].shape != shape:
        size = math.prod(shape)
        buf = entry[0] if entry is not None and entry[0].size >= size else np.empty(size, dtype)
        entry = (buf, buf[:size].reshape(shape))
        setattr(_work, name, entry)
    return entry[1]


def _block_rows(n: int) -> int:
    """Rows of n values in one block of ``BLOCK_FLOATS``: max(1, BLOCK_FLOATS // n)."""
    return max(1, BLOCK_FLOATS // n)


def fftconvolve(values: np.ndarray, kernel_spectrum: np.ndarray) -> np.ndarray:
    """Samples n-1 .. 2n-2 of the linear convolution of each row of ``values``, (B, n), with a kernel K.

    K lives on the offsets -(n-1) .. n-1 (index d + n - 1) and ``kernel_spectrum``
    is its length-2n rfft, one per row, shape (B, n + 1), or one shared by all
    rows, shape (n + 1,); the zero padding keeps the circular wrap-around out
    of the window.  The transforms run row by row, so each row gets the
    floats of a stack of one.  A run's initial velocity, its steps and the
    image correction (one block of rows at a time) share one set of work
    arrays.  Returns a (B, n) view of this thread's work array (``_work_array``).
    """
    b, n = values.shape
    spectrum = np.fft.rfft(values, 2 * n, out=_work_array("conv_hat", (b, n + 1), complex))
    spectrum *= kernel_spectrum
    return np.fft.irfft(spectrum, 2 * n, out=_work_array("conv", (b, 2 * n)))[:, n - 1 : 2 * n - 1]


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
    """Cached Fourier multipliers for a (grid, alpha) pair, all on the rfft half spectrum.

    ``abs_power_multiplier(p)`` caches |xi|^p, zero mode 0, for each power
    asked for; the operators are built from it (see the module docstring).
    It, the image kernel, the velocity kernels, the tail-anchor weights and
    the transport multipliers are all built on first use, so a workspace that
    never reconstructs a velocity never pays for the velocity's arrays.
    Every cached array is frozen, and building one twice gives the same
    values, so a workspace is shared per process via ``workspace(grid,
    alpha)``, one per (n, L, alpha) within ``WORKSPACE_BUDGET`` bytes, and
    across threads, and it pickles.  ``nbytes`` counts the arrays it holds,
    its grid's included.  The scratch arrays that the velocity and the
    spectral step write into are not part of it: they are per thread, one
    buffer per name, grown to the largest size asked for (``_work_array``).
    """

    def __init__(self, grid: Grid1D, alpha: float):
        self.grid = grid
        self.alpha = float(FracOrder(alpha))
        self._cache: dict[tuple, np.ndarray | tuple[np.ndarray, ...]] = {}
        self.nbytes = grid.x.nbytes + grid.wavenumbers.nbytes

    def _cached(self, key: tuple, build):
        """The value stored under key; on first use ``build()`` makes it and its arrays are frozen."""
        value = self._cache.get(key)
        if value is None:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.setflags(write=False)
                self.nbytes += arr.nbytes
            self._cache[key] = value
        return value

    def abs_power_multiplier(self, power: float) -> np.ndarray:
        """|xi|^power with the zero mode set to 0 (also for negative powers)."""
        key = float(power)

        def build():
            with np.errstate(divide="ignore"):
                mult = self.grid.wavenumbers ** key
            mult[0] = 0.0
            return mult

        return self._cached(("abs_power", key), build)

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

        def build():
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
            return np.concatenate((q, q[-2::-1]))

        return self._cached(("image_kernel",), build)

    def image_kernel_spectrum(self) -> np.ndarray:
        """Length-2n rfft of ``image_kernel()``, the kernel ``periodic_image_correction`` applies."""
        n = self.grid.n
        return self._cached(("image_kernel_spectrum",), lambda: np.fft.rfft(self.image_kernel(), 2 * n))

    def velocity_kernel_spectrum(self, image_correction: bool, g_coef: float = 0.0) -> np.ndarray:
        """Length-2n rfft of the pre-integrated velocity kernel K_c, c = ``g_coef``.

        On the offsets d = -(n-1) .. n-1 (array index d + n - 1),

            K_c[d] = p[d mod n] + h * (S[d] - h * Q[d] / 2) + c * T[d],

        with p = irfft(-i |xi|^(alpha-1)) the impulse response of the periodic
        primitive d_x^{-1} Lambda^alpha, Q = image_kernel() and S = cumsum(h * Q)
        its cumulative sum from the left, and T[d] = h for d >= 1, h/2 at d = 0, 0 for d < 0; the
        image part is left out when ``image_correction`` is false.  For
        c[j] = sum_k rho_k K_c[j - k] the difference c - c[0] is the periodic
        primitive pinned to 0 at the left edge plus the cumulative trapezoid
        integrals of ``periodic_image_correction(rho)`` and of G = c * rho:
        the trapezoid sum of h * Q[i - k] over i = 0 .. j equals F[j-k] - F[-k]
        with F = S - h * Q / 2, and (rho * T)[j] - (rho * T)[0] is the
        trapezoid integral of rho.  ``fftconvolve`` forms c.
        """

        def build():
            n, h = self.grid.n, self.grid.spacing
            p = np.fft.irfft(-1j * self.abs_power_multiplier(self.alpha - 1.0), n)
            kernel = p[np.arange(-(n - 1), n) % n]
            if image_correction:
                q = self.image_kernel()
                kernel += h * (np.cumsum(h * q) - 0.5 * h * q)
            if g_coef:
                kernel[n - 1] += g_coef * (0.5 * h)
                kernel[n:] += g_coef * h
            with np.errstate(over="ignore", invalid="ignore"):
                spectrum = np.fft.rfft(kernel, 2 * n)
            if not np.isfinite(spectrum).all():  # rejected before it is cached: a NaN key is never found again
                raise GridError(f"g_coef = {g_coef!r} gives a non-finite velocity kernel")
            return spectrum

        return self._cached(("velocity_kernel", bool(image_correction), float(g_coef)), build)

    def tail_anchor_weights(self) -> np.ndarray:
        """Weights w with w @ f == left_tail_anchor(f, alpha) (w[0] = 0)."""

        def build():
            grid, a = self.grid, self.alpha
            w = np.zeros(grid.n)
            w[1:] = (grid.x[1:] + grid.half_width) ** (-a)
            w *= -singular_kernel_constant(a) / a * grid.spacing
            return w

        return self._cached(("tail_anchor",), build)

    def transport_multipliers(self) -> tuple[np.ndarray, np.ndarray]:
        """xi^2 and the dealiased derivative i*xi.

        The derivative multiplier keeps the modes with |xi| <= (2/3) max|xi|
        (the 2/3 rule; the Nyquist mode is always dropped).  Used by the
        spectral transport for its diffusion factor and flux derivatives.
        """

        def build():
            xi = self.grid.wavenumbers
            return xi**2, 1j * xi * (xi <= (2.0 / 3.0) * xi.max())

        return self._cached(("transport",), build)


_SHARED: dict[tuple, SpectralWorkspace] = {}  # least recently used first


def workspace(grid: Grid1D, alpha: float) -> SpectralWorkspace:
    """The process's shared SpectralWorkspace for (grid.n, grid.half_width, alpha), built on first use.

    Equal grids share it, also when built apart.  Each call keeps the most
    recently used workspaces while their ``nbytes``, lazily built arrays
    included, fit in ``WORKSPACE_BUDGET``, and always the one it returns.  No
    lock is held while building, so a racing thread or a fork costs at most a
    duplicate build.  ``SpectralWorkspace(grid, alpha)`` gives a private one.
    """
    key = (grid.n, float(grid.half_width), float(FracOrder(alpha)))
    ws = _SHARED.pop(key, None) or SpectralWorkspace(grid, alpha)
    _SHARED[key] = ws  # reinserted last, as the most recently used
    while len(_SHARED) > 1 and sum(v.nbytes for v in list(_SHARED.values())) > WORKSPACE_BUDGET:
        _SHARED.pop(list(_SHARED)[0], None)  # the least recently used
    return ws


def apply_multiplier(f: Field | Sequence[Field], multiplier: np.ndarray) -> Field | np.ndarray:
    """irfft(multiplier * rfft(f), n), the one routine that applies a half-spectrum multiplier, shape (n//2 + 1,).

    f is one Field, giving a Field, or a sequence of B Fields on one grid, giving a new (B, n) array whose
    rows are the one-field calls' bytes.  The rows are transformed in blocks of ``_block_rows(n)``, whose
    spectra go in a per-thread work array (``_work_array``) one block high.
    """
    single, fields = _field_stack(f, "apply_multiplier")
    grid, m = fields[0].grid, fields[0].grid.n // 2 + 1
    if np.shape(multiplier) != (m,):
        raise ValueError(f"multiplier shape {np.shape(multiplier)} is not the half spectrum's {(m,)}")
    # The output array holds the stack first: each block's rfft reads it before its irfft writes it.
    out = np.stack([g.values for g in fields])
    rows = _block_rows(grid.n)
    for i in range(0, len(out), rows):
        block = out[i : i + rows]
        hat = np.fft.rfft(block, out=_work_array("multiplier_hat", (len(block), m), complex))
        np.multiply(multiplier, hat, out=hat)
        np.fft.irfft(hat, grid.n, out=block)
    return Field(grid, out[0]) if single else out


def _check_ws(f: Field, ws: SpectralWorkspace) -> None:
    if f.grid != ws.grid:
        raise GridError("field and workspace live on different grids")


def periodic_image_correction(f: Field | Sequence[Field], ws: SpectralWorkspace) -> Field | np.ndarray:
    """Correction (f conv Q) turning the periodic multiplier into the real-line operator.

    For f supported inside the domain, Lambda^alpha_{R} f = Lambda^alpha_{per} f
    + (f conv Q) pointwise on the grid, where Q collects the kernel's periodic
    images.  One ``fftconvolve`` with the workspace's cached spectrum of Q
    (``SpectralWorkspace.image_kernel_spectrum``) per block of ``_block_rows(n)`` rows, on a Field
    or a stack, as ``apply_multiplier``; each block's samples are written over its stacked values.
    """
    single, fields = _field_stack(f, "periodic_image_correction")
    _check_ws(fields[0], ws)
    out = np.stack([g.values for g in fields])
    spectrum, rows = ws.image_kernel_spectrum(), _block_rows(ws.grid.n)
    for i in range(0, len(out), rows):
        block = out[i : i + rows]
        np.multiply(ws.grid.spacing, fftconvolve(block, spectrum), out=block)
    return Field(ws.grid, out[0]) if single else out


def _field_stack(f: Field | Sequence[Field], what: str) -> tuple[bool, list[Field]]:
    """Whether f is one Field, and its fields as a list on one grid: a single field is a stack of one."""
    single = isinstance(f, Field)
    fields = [f] if single else list(f)
    if not fields:
        raise ValueError(f"{what} needs at least one field")
    if any(g.grid != fields[0].grid for g in fields):
        raise GridError(f"the fields of one {what} stack lie on different grids; they must share one grid")
    return single, fields


def fractional_laplacian_spectral(
    f: Field | Sequence[Field], ws: SpectralWorkspace, image_correction: bool = False
) -> Field | np.ndarray:
    """Fractional Laplacian via the |xi|^alpha multiplier.

    With ``image_correction=False`` (default) this is exactly the field whose
    Fourier coefficients are |xi_k|^alpha f_hat_k; its mean vanishes to machine
    precision.  With ``image_correction=True`` the periodic-image term
    (``periodic_image_correction``) is added, which approximates the
    real-line operator on the grid window for fields supported away from the
    boundary (the corrected output has the positive interior mean the
    real-line operator actually produces there).

    f is one Field, giving a Field, or a sequence of B Fields on the
    workspace's grid, giving their values as one (B, n) array; a single
    field is a stack of one.  It is one ``apply_multiplier`` call on the
    stack plus, with the correction, one ``periodic_image_correction`` call,
    so every row is the one-field call's bytes.  Raises ``GridError`` for a
    field on another grid than ``ws`` and ``ValueError`` for an empty sequence.
    """
    single, fields = _field_stack(f, "fractional_laplacian_spectral")
    _check_ws(fields[0], ws)
    out = apply_multiplier(fields, ws.abs_power_multiplier(ws.alpha))
    if image_correction:
        out += periodic_image_correction(fields, ws)
    return Field(ws.grid, out[0]) if single else out


def _quadrature_weights(grid: Grid1D, xs: np.ndarray, big_r: np.ndarray, lo: np.ndarray, w: np.ndarray,
                        a: float) -> np.ndarray:
    """The (points, n) weights W with W @ f the oracle's bracket at the points xs, before c_alpha.

    Node k of a point has z = lo + (k + 1/2) w per shell (w = 0 on inactive
    shells) and c = w / z^(1+alpha); it samples f at x + z and x - z with
    weight -c each, and the point itself at x with 2 (sum c + R^(-alpha) / alpha).
    A position p in [x_0, x_{n-1}] lies in cell j = floor((p - x_0) / h)
    (the last cell for p = x_{n-1}) at fraction t, and gives weight (1 - t)
    to node j and t to node j + 1, as ``np.interp`` interpolates; one
    off [x_0, x_{n-1}] gives none, the zero extension.
    """
    n, points = grid.n, len(xs)
    z = lo[:, None] + (np.arange(NODES_PER_SHELL) + 0.5) * w[:, :, None]
    c = (w[:, :, None] / z ** (1.0 + a)).reshape(points, -1)
    z = z.reshape(points, -1)
    x = xs[:, None]
    u = np.concatenate((x + z, x - z, x), axis=1)  # the positions
    coef = np.concatenate((-c, -c, 2.0 * (c.sum(axis=1, keepdims=True) + big_r[:, None] ** -a / a)), axis=1)
    coef[(u < grid.x[0]) | (u > grid.x[-1])] = 0.0
    u -= grid.x[0]
    u /= grid.spacing
    j = np.clip(u.astype(np.intp), 0, n - 2)
    t = np.subtract(u, j, out=u)
    j += np.arange(0, points * n, n)[:, None]  # the cell's flat index in the (points, n) block
    weights = np.bincount(j.ravel(), ((1.0 - t) * coef).ravel(), minlength=points * n)
    weights += np.bincount(j.ravel() + 1, (t * coef).ravel(), minlength=points * n)
    return weights.reshape(points, n)


def fractional_laplacian_quadrature(f: Field | Sequence[Field], alpha: float, x) -> np.ndarray:
    """Singular-integral oracle for the fractional Laplacian at points x.

    Uses the symmetrized form on the fixed dyadic shells [z, 2z] from
    z_min = h/2 out to R = L + |x|, each with a ``NODES_PER_SHELL``-node
    midpoint rule, the zero extension of f off the grid (linear interpolation
    on it), and the closed-form far tail 2 f(x) R^(-alpha) / alpha.  The
    discarded core |z| < h/2 contributes O(h^(2-alpha) * max|f''|), below the
    tolerance of every consumer.

    f is one Field, giving values of shape (P,) at the P points x (a scalar
    x gives P = 1), or a sequence of B Fields on one grid, giving (B, P); a
    single field is a stack of one.  Interpolation followed by the midpoint
    rule is linear in f, so for each block of points the call builds the
    matrix of weights that the rule puts on the grid values
    (``_quadrature_weights``, scattered by ``np.bincount``) and applies it
    to each row with its own matrix-vector product, so every row is the
    one-field call's bytes.  A block holds ``_block_rows(max(n, 2 *
    NODES_PER_SHELL * shells))`` points, so its weights and its node
    positions each stay within about ``BLOCK_FLOATS`` values, and no array
    grows with B but the (B, P) result.  Nothing is kept between calls.

    The values agree with the point-by-point, shell-by-shell loop with
    ``np.interp`` to round-off, not bit for bit: the weight of f(x), 2 sum c,
    cancels against the node weights near x, and sum c grows like
    z_min^(-alpha) / alpha, so the round-off grows with alpha and with n
    (at most 1.4e-13 relative at n = 4096, L = 8 and alpha = 0.75, and
    7.2e-13 at n = 4096, L = 3.3 and alpha = 0.9).

    Deliberately independent of the FFT route: no periodicity, no multipliers.
    Raises ``GridError`` for fields on different grids and ``ValueError``
    for an empty sequence, or for points that are not a scalar or 1-D or not
    inside (-L, L).
    """
    single, fields = _field_stack(f, "quadrature")
    grid = fields[0].grid
    a = float(FracOrder(alpha))
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"quadrature points must be a scalar or 1-D, got shape {xs.shape}")
    xs = np.atleast_1d(xs)
    if not np.all(np.abs(xs) < grid.half_width):
        raise ValueError("quadrature oracle requires evaluation points inside (-L, L)")

    z_min = grid.spacing / 2.0
    big_r = grid.half_width + np.abs(xs)
    n_shells = np.ceil(np.log2(big_r / z_min)).astype(int)
    m = np.arange(n_shells.max(initial=0))
    lo = np.ldexp(z_min, m)
    hi = np.minimum(np.ldexp(z_min, m + 1), big_r[:, None])
    w = np.where((m < n_shells[:, None]) & (lo < hi), (hi - lo) / NODES_PER_SHELL, 0.0)
    out = np.empty((len(fields), xs.size))
    step = _block_rows(max(grid.n, 2 * NODES_PER_SHELL * m.size))  # points per block
    for i in range(0, xs.size, step):
        block = slice(i, i + step)
        weights = _quadrature_weights(grid, xs[block], big_r[block], lo, w[block], a)
        for row, g in zip(out, fields):
            row[block] = weights @ g.values
    out *= singular_kernel_constant(a)
    return out[0] if single else out


def hilbert_transform(f: Field, ws: SpectralWorkspace) -> Field:
    """Hilbert transform via the -i*sgn(xi) multiplier, -i |xi|^0 on xi >= 0 (mean is annihilated)."""
    _check_ws(f, ws)
    return apply_multiplier(f, -1j * ws.abs_power_multiplier(0.0))


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
    g: Field | float,
    ws: SpectralWorkspace,
    image_correction: bool = False,
) -> Field:
    """Velocity u = d_x^{-1}(G + Lambda^alpha rho), the antiderivative that vanishes at -inf.

    g is the G field, whose part is its cumulative trapezoid integral (so u
    at the right edge approaches integrate(G)), or the coefficient c of
    G = c * rho, whose kernel K_c carries that integral.  The rho part is one
    ``fftconvolve``, c = rho * K, with the workspace's pre-integrated kernel
    (``SpectralWorkspace.velocity_kernel_spectrum``; with ``image_correction``
    it carries the cumulative periodic-image term, so interior velocities
    match the real-line operator); c - c[0] is the spectral primitive of
    Lambda^alpha rho pinned to 0 at the left edge.  The tail anchor
    ``left_tail_anchor(rho, alpha)``, the integral of Lambda^alpha rho over
    (-inf, -L) for the zero-extended density, is then added: for compactly
    supported states this is the real-line gauge, in which the velocity is
    odd for even rho and transports profiles without drift.  The result
    equals the composition of the -i |xi|^(alpha-1) multiplier,
    ``antiderivative(periodic_image_correction(rho))`` and
    ``left_tail_anchor`` to round-off (the tests' reference).
    """
    _check_ws(rho, ws)
    row = isinstance(g, Field)
    if row:
        _check_ws(g, ws)
    spectrum = ws.velocity_kernel_spectrum(image_correction, 0.0 if row else g)
    u = _velocity_rows(rho.values[None], g.values[None] if row else None, spectrum[None],
                       (ws.tail_anchor_weights(),), (ws.grid.spacing,))
    return Field(rho.grid, u[0])


def _velocity_rows(
    rho: np.ndarray, g: np.ndarray | None, spectra: np.ndarray,
    weights: tuple[np.ndarray, ...], spacings: tuple[float, ...],
) -> np.ndarray:
    """Velocities of B stacked density rows rho, shape (B, n), each on its own grid.

    Row b convolves with ``spectra[b]`` (a ``velocity_kernel_spectrum`` of its
    workspace) and adds its tail anchor ``weights[b] @ rho[b]``; g holds the
    G rows, integrated with the spacings, or is None when each spectrum
    carries its G = c * rho.  The convolution is one ``fftconvolve`` over all
    rows and the anchor a per-row dot, so every row gets the floats of a
    one-row call.
    """
    c = fftconvolve(rho, spectra)
    u = np.subtract(c, c[:, :1])
    # In place on row views: ``u[b] += ...`` would also copy the row back into u.
    if g is not None:
        for row, g_row, h in zip(u, g, spacings):
            row += cumulative_trapezoid(g_row, h)
    for row, rho_row, w in zip(u, rho, weights):
        row += w @ rho_row
    return u


def stroock_varopoulos_check(
    v: Field, exponents: Sequence[float], ws: SpectralWorkspace, tol: float = 1e-6
) -> list[tuple[float, float, bool]]:
    """Check int v^p Lambda^alpha v >= (4p/(p+1)^2) int (Lambda^{alpha/2} v^{(p+1)/2})^2 for each exponent p.

    Requires v >= 0 and finite exponents p >= 1.  Returns one (lhs, rhs, holds) per exponent, where ``holds``
    allows a relative slack of ``tol`` for discretization noise.  Lambda^alpha v is one ``apply_multiplier``
    call, the Lambda^{alpha/2} of the powers one stacked call, and the integrals are h * sum.
    """
    bad = [p for p in exponents if not (math.isfinite(p) and p >= 1.0)]
    if bad or len(exponents) == 0:
        raise ValueError(f"stroock_varopoulos_check requires finite exponents p >= 1, got {bad or 'none'}")
    if float(v.values.min()) < -1e-13 * max(1.0, float(np.abs(v.values).max())):
        raise ValueError("stroock_varopoulos_check requires a nonnegative field")
    _check_ws(v, ws)
    h, vals = v.grid.spacing, np.clip(v.values, 0.0, None)
    lam_v = apply_multiplier(v, ws.abs_power_multiplier(ws.alpha)).values
    powers = [Field(v.grid, vals ** ((p + 1.0) / 2.0)) for p in exponents]
    halves = apply_multiplier(powers, ws.abs_power_multiplier(ws.alpha / 2.0))
    lhs = [float(h * (vals**p * lam_v).sum()) for p in exponents]
    rhs = [float(4.0 * p / (p + 1.0) ** 2 * float(h * (half**2).sum())) for p, half in zip(exponents, halves)]
    return [(left, right, left >= right - tol * abs(right) - 1e-14) for left, right in zip(lhs, rhs)]


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
    """Spectral derivative (i*xi multiplier; irfft drops the Nyquist mode)."""
    return apply_multiplier(f, 1j * f.grid.wavenumbers)
