"""Operator-identity self-test suite.

Every check here validates a mathematical identity that the discrete
operators must satisfy, against either an exact closed form (Fourier modes,
the Getoor profile) or an independent numerical route (the singular-integral
oracle, a fixed dyadic-shell midpoint rule).  Each check returns its maximum
error, or that error and an extra pass condition; :func:`run_selftest` names
each check with its alpha and grid size, holds it to its entry in
:data:`TOLERANCES` as a :class:`CheckRecord`, and bundles the records into a
JSON-serializable :class:`SelfTestReport`.

The suite is the backing for the ``selftest`` CLI subcommand and doubles as
the source of seeded random test fields for the acceptance tests
(:func:`random_bump_field`).

The ``inject_hilbert_sign_error`` knob deliberately corrupts the Hilbert
transform's sign before comparison.  It exists purely as a negative control:
a healthy suite must *fail* when the sign convention is wrong, proving the
checks are direction-sensitive rather than magnitude-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .closedform import _moments, getoor_constant, getoor_profile, velocity_profile_U
from .fracops import (
    derivative,
    fractional_laplacian_quadrature,
    fractional_laplacian_spectral,
    gagliardo_nirenberg_check,
    hilbert_transform,
    riesz_potential,
    singular_kernel_constant,
    stroock_varopoulos_check,
    velocity_from_state,
    workspace,
)
from .grid import Field, Grid1D, build_grid

__all__ = [
    "CheckRecord",
    "SelfTestReport",
    "TOLERANCES",
    "cross_validation_errors",
    "random_bump_field",
    "run_selftest",
]

ALPHAS = (0.25, 0.5, 0.75)

# Tolerances per check; they mirror the acceptance gates.
TOLERANCES: dict[str, float] = {
    "kernel_constant": 1e-12,
    "getoor_spectral": 2e-2,
    "getoor_quadrature": 1e-2,
    "cross_validation": 5e-2,
    "hilbert_sine": 1e-12,
    "hilbert_involution": 1e-12,
    "fraclap_semigroup": 1e-11,
    "riesz_inverse": 1e-11,
    "antiderivative_consistency": 1e-11,
    "closedform_velocity": 1e-6,
    "stroock_varopoulos": 1e-6,
    "gagliardo_nirenberg": 5e-2,
}


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of a single identity check."""

    check: str
    alpha: float | None
    n: int
    max_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SelfTestReport:
    """Aggregated result of :func:`run_selftest`."""

    passed: bool
    seed: int
    records: tuple[CheckRecord, ...]
    wall_time: float


# ---------------------------------------------------------------------------
# Seeded field generators


def _bump_params(rng: np.random.Generator, half_width: float) -> np.ndarray:
    """Draw one sum-of-Gaussians field's parameters: a (3, 3) array of (amplitude, center, width) rows.

    The nine uniforms come from one ``rng.uniform`` call, row by row, which gives the values and
    leaves the generator state of nine scalar draws in that order: amplitudes in [0.5, 2), centers
    within the middle half of [-half_width, half_width), widths in [0.3, 1).
    """
    quarter = half_width / 4.0
    return rng.uniform((0.5, -quarter, 0.3), (2.0, quarter, 1.0), size=(3, 3))


def _bump_values(
    x: np.ndarray, params: np.ndarray | list[np.ndarray], dilation: float | tuple[float, ...] = 1.0
) -> np.ndarray:
    """Evaluate bump sums under the mass-preserving dilation v -> s*v(s*x).

    ``params`` is one (3, 3) set from :func:`_bump_params` or a (B, 3, 3) stack of them, and
    ``dilation`` a scalar or a (B,) stack; they broadcast against each other.  One set under one
    dilation gives the (n,) samples, anything else a (B, n) stack whose rows are, byte for byte,
    the one-set evaluations: the stack is summed bump by bump, each bump formed in place on one
    scratch array as (s * amp) * exp(-0.5 * ((s * x - center) / width)**2), in that order.
    """
    params, s = np.asarray(params, dtype=float), np.asarray(dilation, dtype=float)
    shape = np.broadcast_shapes(params.shape[:-2], s.shape)
    params = np.broadcast_to(params, shape + (3, 3)).reshape(-1, 3, 3)
    s = np.broadcast_to(s, shape).reshape(-1, 1)
    vals = np.zeros((len(params), len(x)))
    scratch = np.empty_like(vals)
    for amp, center, width in params.transpose(1, 2, 0)[..., None]:  # each (B, 1), bump by bump
        np.multiply(s, x, out=scratch)
        scratch -= center
        scratch /= width
        np.square(scratch, out=scratch)
        scratch *= -0.5
        np.exp(scratch, out=scratch)
        scratch *= s * amp
        vals += scratch
    return vals.reshape(shape + (len(x),))


def random_bump_field(grid: Grid1D, rng: np.random.Generator) -> Field:
    """Seeded nonnegative smooth test field: a sum of three Gaussian bumps.

    Centers stay within the middle half of the domain and widths within
    [0.3, 1], so the field is both well resolved and comfortably inside the
    support margin at the default geometries.
    """
    return Field(grid, _bump_values(grid.x, _bump_params(rng, grid.half_width)))


# ---------------------------------------------------------------------------
# Individual checks: each returns its maximum error, or (error, extra pass condition)


def _record(check: str, alpha: float | None, n: int, result: float | tuple[float, bool]) -> CheckRecord:
    """The record of one check, held to its entry in :data:`TOLERANCES`."""
    err, extra = result if isinstance(result, tuple) else (result, True)
    tol = TOLERANCES[check]
    return CheckRecord(check, alpha, n, float(err), tol, bool(err <= tol and extra))


def _check_kernel_constant() -> float:
    # Exact special value at alpha = 1/2: Gamma(-1/4) = -4*Gamma(3/4) collapses
    # the constant to 1/(2*sqrt(2*pi)).  Near alpha = 1 the constant approaches
    # 1/pi, the classical Hilbert-derivative normalization.
    err = abs(singular_kernel_constant(0.5) - 1.0 / (2.0 * np.sqrt(2.0 * np.pi)))
    return max(err, abs(singular_kernel_constant(1.0 - 1e-12) - 1.0 / np.pi))


def _check_getoor_spectral(alpha: float) -> float:
    grid = build_grid(8192, 8.0)
    ws = workspace(grid, alpha)
    phi = Field(grid, getoor_profile(alpha, grid.x))
    lam = fractional_laplacian_spectral(phi, ws, image_correction=True)
    inner = np.abs(grid.x) <= 0.9
    return float(np.abs(lam.values[inner] - 1.0).max())


def _check_getoor_quadrature(alpha: float) -> float:
    grid = build_grid(4096, 8.0)
    phi = Field(grid, getoor_profile(alpha, grid.x))
    probes = grid.x[np.abs(grid.x) <= 0.9][:: grid.n // 256]
    vals = fractional_laplacian_quadrature(phi, alpha, probes)
    return float(np.abs(vals - 1.0).max())


def cross_validation_errors(alpha: float, rng: np.random.Generator, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral-vs-quadrature disagreement on seeded bumps at n = 1024 and 2048.

    Returns two arrays of per-trial sup errors at the probe points
    x = -6, -5.75, ..., 6 of the grids on [-8, 8), normalized by the field's
    sup norm.  The two routes share nothing but the field samples:
    one is a corrected Fourier multiplier, the other a fixed dyadic-shell
    midpoint rule (``fracops.NODES_PER_SHELL`` nodes per shell) for the
    singular integral of the difference kernel, so agreement validates both.
    Every trial's bump parameters are drawn first, in trial order (the rng
    sequence of drawing them trial by trial), and all trials are evaluated
    once, as one stack, on the n = 2048 grid; the n = 1024 samples are its
    every other column, since ``build_grid(1024, L).x`` is
    ``build_grid(2048, L).x[::2]`` bit for bit (the spacings differ by
    exactly a factor 2).  Each resolution then passes all trials' fields as
    one stack to both routes: one oracle call and one
    ``fractional_laplacian_spectral`` call with the process's shared
    workspace (``fracops.workspace``).  The probes are grid nodes, and all
    trials reduce as one array.  Raises ``ValueError`` for fewer than one
    trial, before drawing anything.
    """
    if trials < 1:
        raise ValueError(f"cross_validation_errors needs trials >= 1, got {trials}")
    half_width = 8.0
    fine = _bump_values(build_grid(2048, half_width).x, [_bump_params(rng, half_width) for _ in range(trials)])
    errors = []
    for n in (1024, 2048):
        grid = build_grid(n, half_width)
        values = fine[:, :: 2048 // n]
        probes = np.flatnonzero(np.abs(grid.x) <= 0.75 * half_width)[:: n // 64]
        fields = [Field(grid, row) for row in values]
        quads = fractional_laplacian_quadrature(fields, alpha, grid.x[probes])
        specs = fractional_laplacian_spectral(fields, workspace(grid, alpha), image_correction=True)
        errors.append(np.abs(specs[:, probes] - quads).max(axis=1) / np.abs(values).max(axis=1))
    return tuple(errors)


def _check_cross_validation(alpha: float, rng: np.random.Generator) -> tuple[float, bool]:
    coarse, fine = cross_validation_errors(alpha, rng, trials=6)
    return float(max(coarse.max(), fine.max())), bool(fine.max() < coarse.max())


def _check_hilbert_sine(inject_sign_error: bool) -> float:
    grid = build_grid(2048, 8.0)
    ws = workspace(grid, 0.5)
    err = 0.0
    for k in (1, 5, 17):
        xi = np.pi * k / grid.half_width
        f = Field(grid, np.sin(xi * grid.x))
        h = hilbert_transform(f, ws).values
        if inject_sign_error:
            h = -h
        err = max(err, float(np.abs(h - (-np.cos(xi * grid.x))).max()))
    return err


def _check_hilbert_involution(rng: np.random.Generator) -> float:
    grid = build_grid(2048, 8.0)
    ws = workspace(grid, 0.5)
    f = random_bump_field(grid, rng)
    mean_free = Field(grid, f.values - f.values.mean())
    twice = hilbert_transform(hilbert_transform(mean_free, ws), ws)
    return np.abs(twice.values + mean_free.values).max() / np.abs(mean_free.values).max()


def _check_fraclap_semigroup(rng: np.random.Generator) -> float:
    grid = build_grid(2048, 8.0)
    f = random_bump_field(grid, rng)
    ws_a = workspace(grid, 0.25)
    ws_b = workspace(grid, 0.5)
    ws_ab = workspace(grid, 0.75)
    composed = fractional_laplacian_spectral(
        fractional_laplacian_spectral(f, ws_a), ws_b
    ).values
    direct = fractional_laplacian_spectral(f, ws_ab).values
    return np.abs(composed - direct).max() / np.abs(direct).max()


def _check_riesz_inverse(alpha: float, rng: np.random.Generator) -> float:
    grid = build_grid(2048, 8.0)
    ws = workspace(grid, alpha)
    f = random_bump_field(grid, rng)
    back = fractional_laplacian_spectral(riesz_potential(f, alpha, ws), ws).values
    target = f.values - f.values.mean()
    return np.abs(back - target).max() / np.abs(target).max()


def _check_antiderivative_consistency(alpha: float, rng: np.random.Generator) -> float:
    ws = workspace(build_grid(2048, 8.0), alpha)
    f = random_bump_field(ws.grid, rng)
    # The real-line velocity; the spectral derivative removes its constant tail anchor.
    u = velocity_from_state(f, 0.0, ws)  # G = 0 * rho
    rebuilt = derivative(u).values
    direct = fractional_laplacian_spectral(f, ws).values
    return np.abs(rebuilt - direct).max() / np.abs(direct).max()


def _check_closedform_velocity(alpha: float) -> tuple[float, bool]:
    interior = np.array([-0.9, -0.5, 0.0, 0.3, 0.9])
    err = float(np.abs(velocity_profile_U(alpha, interior) - interior).max())
    # Continuity at the support edge: the tail rule at s = 1 must give U(1) = 1.
    amp = singular_kernel_constant(alpha) * getoor_constant(alpha) / alpha
    err = max(err, abs(amp * float(_moments(alpha, np.array([1.0]), alpha)[0]) - 1.0))
    tail = velocity_profile_U(alpha, np.array([1.0, 2.0, 8.0, 100.0]))
    return err, bool(np.all(np.diff(tail) < 0.0) and tail[-1] > 0.0)


def _check_stroock_varopoulos(alpha: float, rng: np.random.Generator) -> tuple[float, bool]:
    ws = workspace(build_grid(2048, 16.0), alpha)
    tol = TOLERANCES["stroock_varopoulos"]
    values = _bump_values(ws.grid.x, [_bump_params(rng, ws.grid.half_width) for _ in range(5)])
    checks = [c for row in values for c in stroock_varopoulos_check(Field(ws.grid, row), (1.5, 2.0, 3.0), ws, tol)]
    return max([0.0] + [(rhs - lhs) / abs(rhs) for lhs, rhs, _ in checks]), all(holds for _, _, holds in checks)


def _check_gagliardo_nirenberg(alpha: float, rng: np.random.Generator) -> float:
    grid = build_grid(4096, 16.0)
    ws = workspace(grid, alpha)
    values = _bump_values(grid.x, _bump_params(rng, grid.half_width), dilation=(1.0, 2.0, 4.0))
    ratios = [gagliardo_nirenberg_check(Field(grid, row), r=3.0, q=2.0, ws=ws)[2] for row in values]
    return float(np.abs(np.asarray(ratios) / ratios[0] - 1.0).max())


# ---------------------------------------------------------------------------
# Suite driver


def run_selftest(
    *,
    seed: int = 0,
    inject_hilbert_sign_error: bool = False,
) -> SelfTestReport:
    """Run every identity check and return the aggregated report.

    Each check is held to its entry in :data:`TOLERANCES`.
    ``inject_hilbert_sign_error`` flips the sign of the computed Hilbert
    transform inside the sine check (negative control; see module docstring).
    """
    rng = np.random.default_rng(seed)
    start = time.perf_counter()

    # Each record: check name, alpha, the grid size it ran at (0: no grid) and its result.
    records = [_record("kernel_constant", 0.5, 0, _check_kernel_constant())]
    for alpha in ALPHAS:
        records.append(_record("getoor_spectral", alpha, 8192, _check_getoor_spectral(alpha)))
        records.append(_record("getoor_quadrature", alpha, 4096, _check_getoor_quadrature(alpha)))
        records.append(_record("closedform_velocity", alpha, 0, _check_closedform_velocity(alpha)))
    records.append(_record("hilbert_sine", None, 2048, _check_hilbert_sine(inject_hilbert_sign_error)))
    records.append(_record("hilbert_involution", None, 2048, _check_hilbert_involution(rng)))
    records.append(_record("fraclap_semigroup", 0.75, 2048, _check_fraclap_semigroup(rng)))
    for alpha in ALPHAS:
        records.append(_record("riesz_inverse", alpha, 2048, _check_riesz_inverse(alpha, rng)))
        records.append(_record("antiderivative_consistency", alpha, 2048, _check_antiderivative_consistency(alpha, rng)))
        records.append(_record("cross_validation", alpha, 1024, _check_cross_validation(alpha, rng)))
        records.append(_record("stroock_varopoulos", alpha, 2048, _check_stroock_varopoulos(alpha, rng)))
        records.append(_record("gagliardo_nirenberg", alpha, 4096, _check_gagliardo_nirenberg(alpha, rng)))

    wall = time.perf_counter() - start
    return SelfTestReport(
        passed=all(r.passed for r in records),
        seed=seed,
        records=tuple(records),
        wall_time=wall,
    )
