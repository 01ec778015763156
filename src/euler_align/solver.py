"""Time integration of the regularized alignment system.

The evolved system is

    rho_t + (rho u)_x = eps rho_xx,
    G_t   + (G u)_x   = eps G_xx,
    u = d_x^{-1}(G + Lambda^alpha rho),

on the truncated periodic grid, with the velocity reconstructed in the
real-line gauge at every stage.  Two transport discretizations are provided:

* ``spectral``: conservative spectral flux — the product rho*u is formed
  pointwise, differentiated via the i*xi multiplier with 2/3-rule dealiasing,
  and advanced by SSP-RK2 in integrating-factor form (Lawson): the exact
  diffusion factor exp(-eps xi^2 dt) is folded into the stage combination,
  so the first stage is evaluated at the state itself.  High accuracy on
  smooth data, mild Gibbs oscillation near steep gradients.
* ``upwind``: first-order finite-volume upwind flux with face-centered
  velocities and an explicit second-difference diffusion, advanced by SSP-RK2.
  Every Euler substage is a convex combination of neighboring cell values
  under the time-step cap dt <= cfl / (||u||_inf/h + 2*eps/h^2), so
  nonnegativity and the pointwise sandwich b*rho <= G <= a*rho are inherited
  exactly (to roundoff) rather than approximately.

Mass of rho and of G is conserved to roundoff by both schemes: the fluxes
telescope (upwind) or have an exactly zero mean mode (spectral), and the
diffusion operators are periodic.

Both schemes run through one raw-array core, ``_advance``, that
``_run_lockstep`` loops on and ``step`` wraps; ``Field``s are built only at
those API boundaries, for each ``step`` result and each state a run records.
The core advances B runs at once as stacked rows (B, k, n), each run on its
own grid with its own dt and constants, and gives each run the floats of its
own step; ``run`` is the loop with one run.  Runs step with the process's
shared workspaces (``fracops.workspace``); ``_workspace`` checks one passed in.

G solves rho's equation with the same u and eps, so G/rho is carried by the
flow.  Only ``independent`` initial data evolve G, as a second row stacked
under rho.  With G0 = g_coef*rho0 (``proportional``) or G0 = 0 (``zero_G``)
the core evolves rho alone and its velocity takes g_coef in place of a G row
(the cached velocity kernel carries G's integral).  The run loop forms
G = g_coef*rho (or +0.0) with ``_form_g`` once per block of steps; its margin
and finiteness checks read rho alone, scaled by ``_peak_scale``.
"""
from __future__ import annotations

import json
import math
import time as _time
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from ._version import __version__
from .closedform import getoor_profile
from .fracops import (
    FracOrder, SpectralWorkspace, _block_rows, _velocity_rows, _work_array, velocity_from_state, workspace,
)
from .grid import (
    Field,
    Grid1D,
    build_grid,
    read_field_csv,
    _write_csv,
)

__all__ = [
    "SolverError",
    "ShapeSpec",
    "InitialDataSpec",
    "InitialReport",
    "State",
    "SolverConfig",
    "Trajectory",
    "SUMMARY_COLUMNS",
    "evaluate_shape",
    "make_initial_state",
    "step",
    "run",
    "save_trajectory",
]


class SolverError(RuntimeError):
    """Invalid solver configuration, violated precondition, or aborted run."""


#: Fraction of the peak below which initial samples count as "outside the
#: support" when checking the support-inside-[-L/2, L/2] precondition.
SUPPORT_LEVEL = 1e-8

#: Relative level at which density/G in the outer quarter of the domain
#: aborts a run.  Spectral transport of data with edge cusps emits a startup
#: ringing transient (measured up to ~2e-5 of the peak for n = 2048 before
#: the grid viscosity damps it), so the abort threshold sits above that
#: floor while remaining four orders of magnitude below any physical peak.
MARGIN_ABORT_LEVEL = 1e-4

#: The ShapeSpec fields each kind reads, besides ``kind``.
_SHAPE_READS = {"gaussian": ("mass", "width", "center"), "bump": ("mass", "width", "center"),
                "getoor": ("center", "amplitude"), "csv": ("path",)}
_MODES = ("proportional", "independent", "zero_G")
_SCHEMES = ("spectral", "upwind")

#: Column names of the per-step summary series, in order.
SUMMARY_COLUMNS = (
    "t",
    "mass_rho",
    "mass_G",
    "rho_l1",
    "rho_l2",
    "rho_l4",
    "rho_linf",
    "G_l1",
    "G_l2",
    "G_l4",
    "G_linf",
    "u_linf",
    "min_G",
    "min_arho_minus_G",
    "max_brho_minus_G",
)


# ---------------------------------------------------------------------------
# Initial data.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeSpec:
    """Named analytic bump family (or CSV file) for one scalar profile.

    kinds (a field its kind does not read must keep its default, else SolverError):
      * ``gaussian``: mass / (width*sqrt(2*pi)) * exp(-(x-center)^2/(2*width^2))
      * ``bump``: compactly supported C^inf bump on |x-center| < width,
        exp(1 - 1/(1 - y^2)) normalized on the grid to the requested mass
      * ``getoor``: amplitude * K(alpha) * (1 - (x-center)^2)_+^(alpha/2)
      * ``csv``: samples read from a two-column file on the same grid
    """

    kind: str
    mass: float = 1.0
    width: float = 1.0
    center: float = 0.0
    amplitude: float = 1.0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SHAPE_READS:
            raise SolverError(f"unknown shape kind {self.kind!r}; expected one of {tuple(_SHAPE_READS)}")
        for name in ("mass", "width", "center", "amplitude"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise SolverError(f"shape parameter {name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.kind in ("gaussian", "bump"):
            if self.mass <= 0 or self.width <= 0:
                raise SolverError(f"{self.kind} shape requires mass > 0 and width > 0")
        if self.kind == "getoor" and self.amplitude <= 0:
            raise SolverError("getoor shape requires amplitude > 0")
        if self.path == "":  # as the INI key ``rho0_path = `` parses back
            object.__setattr__(self, "path", None)
        unread = [f.name for f in fields(self)
                  if f.name not in ("kind", *_SHAPE_READS[self.kind]) and getattr(self, f.name) != f.default]
        if unread:
            raise SolverError(f"a {self.kind} shape does not read {', '.join(unread)}; leave it out or at its default")
        if self.kind == "csv" and not self.path:
            raise SolverError("csv shape requires a path")


def evaluate_shape(shape: ShapeSpec, grid: Grid1D, alpha: float) -> np.ndarray:
    """Sample a ShapeSpec on the grid (alpha enters only the getoor kind)."""
    x = grid.x
    if shape.kind == "gaussian":
        z = (x - shape.center) / shape.width
        return shape.mass / (shape.width * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    if shape.kind == "bump":
        y = (x - shape.center) / shape.width
        vals = np.zeros_like(x)
        inside = np.abs(y) < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
        total = float(grid.spacing * vals.sum())
        return vals * (shape.mass / total)
    if shape.kind == "getoor":
        return shape.amplitude * np.asarray(getoor_profile(alpha, x - shape.center))
    return np.array(read_field_csv(shape.path, grid).values)


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial pair (rho0, G0).

    modes:
      * ``proportional``: G0 = g_coef * rho0 (g_coef defaults to 1); the
        sandwich constants default to (b, a) = (g_coef, g_coef) and can be
        widened via b_coef/a_coef.
      * ``independent``: G0 sampled from its own ShapeSpec; sandwich constants
        measured empirically on the support of rho0.
      * ``zero_G``: G0 = 0 (the nonlocal porous-medium regime).

    g0 is rejected outside ``independent`` mode and g_coef/b_coef/a_coef
    outside ``proportional`` mode, since no other mode reads them.
    """

    rho0: ShapeSpec
    mode: str = "proportional"
    g_coef: float | None = None
    b_coef: float | None = None
    a_coef: float | None = None
    g0: ShapeSpec | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise SolverError(f"unknown initial mode {self.mode!r}; expected one of {_MODES}")
        if self.mode == "proportional":
            c = 1.0 if self.g_coef is None else float(self.g_coef)
            if not (math.isfinite(c) and c >= 0):
                raise SolverError(f"proportional mode requires g_coef >= 0, got {c}")
            b = c if self.b_coef is None else float(self.b_coef)
            a = c if self.a_coef is None else float(self.a_coef)
            if not (0 <= b <= c <= a):
                raise SolverError(
                    f"proportional mode requires 0 <= b_coef <= g_coef <= a_coef, got ({b}, {c}, {a})"
                )
            object.__setattr__(self, "g_coef", c)
            object.__setattr__(self, "b_coef", b)
            object.__setattr__(self, "a_coef", a)
        elif (self.g_coef, self.b_coef, self.a_coef) != (None, None, None):
            raise SolverError(f"g_coef, b_coef and a_coef apply to proportional mode only, not {self.mode!r}")
        if self.mode == "independent" and self.g0 is None:
            raise SolverError("independent mode requires a g0 shape")
        if self.mode != "independent" and self.g0 is not None:
            raise SolverError(f"a g0 shape applies to independent mode only, not {self.mode!r}")


@dataclass(frozen=True)
class InitialReport:
    """The sandwich constants of make_initial_state: 0 <= b*rho0 <= G0 <= a*rho0.

    Both are nan if no finite pair exists (e.g. G0 positive where rho0
    vanishes), so the sandwich holds exactly when b is finite.
    """

    b: float
    a: float


@dataclass(frozen=True)
class State:
    """Solution snapshot (rho, G, u) at time t.

    u is the real-line-gauge velocity of (rho, G) with the run's
    ``image_correction``, as ``make_initial_state``, ``step`` and
    ``load_trajectory`` produce it; both schemes of ``step`` use it as their
    first-stage velocity.
    """

    rho: Field
    g: Field
    t: float
    u: Field


def _sandwich_constants(rho0: np.ndarray, g0: np.ndarray) -> tuple[float, float]:
    """Empirical (b, a) with b*rho0 <= G0 <= a*rho0, or (nan, nan)."""
    peak = float(np.abs(rho0).max())
    gpeak = float(np.abs(g0).max())
    if gpeak == 0.0:
        return 0.0, 0.0
    if peak == 0.0:
        return math.nan, math.nan
    support = rho0 > 1e-13 * peak
    if float(np.abs(g0[~support]).max(initial=0.0)) > 1e-13 * gpeak:
        return math.nan, math.nan
    ratio = g0[support] / rho0[support]
    b = float(ratio.min())
    if b < 0:
        return math.nan, math.nan
    return b, float(ratio.max())


def make_initial_state(
    spec: InitialDataSpec,
    grid: Grid1D,
    alpha: float,
    *,
    ws: SpectralWorkspace | None = None,
    image_correction: bool = True,
) -> tuple[State, InitialReport]:
    """Build the t=0 State and a report on the (b, a) sandwich.

    Preconditions: rho0 >= 0 with support inside [-L/2, L/2] (samples beyond
    are compared against SUPPORT_LEVEL times the peak).  The velocity is
    reconstructed as the steps do it (real-line gauge, same image option, G
    as its coefficient unless evolved), so the cached u is the one the
    stepping computes and its velocity kernel is built before the first step.
    ws defaults to the shared workspace for (grid, alpha) (``fracops.workspace``);
    one built for another grid or another alpha raises SolverError.
    """
    a = float(FracOrder(alpha))
    ws = _workspace(grid, a, ws)
    rho0 = evaluate_shape(spec.rho0, grid, a)
    peak = float(np.abs(rho0).max())
    if float(rho0.min()) < -1e-13 * max(peak, 1.0):
        raise SolverError("initial density has negative samples")
    rho0 = np.clip(rho0, 0.0, None)
    outside = np.abs(grid.x) > grid.half_width / 2.0
    if peak > 0 and float(rho0[outside].max(initial=0.0)) > SUPPORT_LEVEL * peak:
        raise SolverError(
            "initial density support extends beyond [-L/2, L/2]; enlarge the domain"
        )
    if spec.mode == "proportional":
        if peak == 0.0:
            raise SolverError("proportional mode requires a nontrivial density")
        g0 = spec.g_coef * rho0
        b, a_c = float(spec.b_coef), float(spec.a_coef)
    elif spec.mode == "zero_G":
        g0 = np.zeros_like(rho0)
        b, a_c = 0.0, 0.0
    else:
        g0 = evaluate_shape(spec.g0, grid, a)
        if peak > 0 and float(np.abs(g0[outside]).max(initial=0.0)) > SUPPORT_LEVEL * max(
            float(np.abs(g0).max()), 1e-300
        ):
            raise SolverError("initial G support extends beyond [-L/2, L/2]")
        b, a_c = _sandwich_constants(rho0, g0)
    rho_f, g_f = Field(grid, rho0), Field(grid, g0)
    u_f = velocity_from_state(rho_f, g_f if spec.mode == "independent" else _g_coef(spec), ws, image_correction)
    return State(rho=rho_f, g=g_f, t=0.0, u=u_f), InitialReport(b=b, a=a_c)


def _workspace(grid: Grid1D, alpha: float, ws: SpectralWorkspace | None) -> SpectralWorkspace:
    """ws, or the shared workspace for (grid, alpha) when it is None; SolverError if ws is for another pair."""
    if ws is None:
        return workspace(grid, alpha)
    if ws.grid != grid or ws.alpha != alpha:
        raise SolverError(
            f"workspace (n = {ws.grid.n}, L = {ws.grid.half_width:g}, alpha = {ws.alpha:g}) does not match "
            f"the run (n = {grid.n}, L = {grid.half_width:g}, alpha = {alpha:g})"
        )
    return ws


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Full description of one run.

    epsilon = None selects the resolution-tied default eps = h (one
    grid-viscosity unit).  output_times = None records the final state only;
    an empty tuple is rejected, since it would record no state at all.
    image_correction toggles the periodic-image term inside the velocity
    reconstruction used by the stepping (the truncated-domain runs here are
    meant to approximate the real-line dynamics, so it defaults on).
    """

    alpha: float
    n: int
    half_width: float
    t_end: float
    initial: InitialDataSpec
    epsilon: float | None = None
    cfl: float = 0.4
    flux_scheme: str = "spectral"
    output_times: tuple[float, ...] | None = None
    image_correction: bool = True

    def __post_init__(self) -> None:
        FracOrder(self.alpha)
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise SolverError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.epsilon is not None and not (
            math.isfinite(self.epsilon) and self.epsilon >= 0
        ):
            raise SolverError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (0 < self.cfl <= 1):
            raise SolverError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.flux_scheme not in _SCHEMES:
            raise SolverError(
                f"unknown flux_scheme {self.flux_scheme!r}; expected one of {_SCHEMES}"
            )
        if self.output_times is not None:
            times = tuple(float(t) for t in self.output_times)
            if not times:
                raise SolverError("output_times must name at least one time; use None for the final state only")
            if any(not math.isfinite(t) for t in times):
                raise SolverError("output_times must be finite")
            if sorted(times) != list(times) or len(set(times)) != len(times):
                raise SolverError("output_times must be strictly increasing")
            if times and (times[0] < 0 or times[-1] > self.t_end):
                raise SolverError("output_times must lie inside [0, t_end]")
            object.__setattr__(self, "output_times", times)

    def effective_epsilon(self, spacing: float) -> float:
        """Viscosity actually used: the explicit value, or h when auto."""
        return float(self.epsilon) if self.epsilon is not None else float(spacing)

    def make_grid(self) -> Grid1D:
        return build_grid(self.n, self.half_width)


def _stable_dt(cfg: SolverConfig, eps: float, h: float, u_inf: float) -> float:
    """Largest admissible dt for the configured scheme.

    spectral: advective CFL only (diffusion is integrated exactly).
    upwind: the convex-combination cap covering advection and the explicit
    second-difference diffusion together.
    """
    speed = max(u_inf, 1e-12)
    if cfg.flux_scheme == "upwind":
        return cfg.cfl / (speed / h + 2.0 * eps / h**2)
    return cfg.cfl * h / speed


# ---------------------------------------------------------------------------
# Stepping.
# ---------------------------------------------------------------------------


def _evolved_rows(cfg: SolverConfig) -> int:
    """Rows the time loop advances: (rho, G) in independent mode, (rho,) otherwise."""
    return 2 if cfg.initial.mode == "independent" else 1


def _g_coef(spec: InitialDataSpec) -> float:
    """c of G = c*rho for one-row data: g_coef in proportional mode, 0 in zero_G mode."""
    return spec.g_coef if spec.mode == "proportional" else 0.0


def _peak_scale(cfg: SolverConfig) -> float:
    """s with max|(rho, G)| = s*max|rho| anywhere: G = c*rho (c >= 0) of one-row
    data rounds monotonically, so max|c*rho| = c*max|rho|; an evolved G is read."""
    return 1.0 if _evolved_rows(cfg) == 2 else max(1.0, _g_coef(cfg.initial))


def _form_g(y: np.ndarray, cfg: SolverConfig) -> None:
    """Form the G rows y[..., 1, :] of one-row data in place: g_coef*rho, or +0.0
    throughout when the coefficient is 0 (0*rho would give -0.0 where rho < 0).
    Pair by pair, since a ufunc on the strided y[..., 1, :] would buffer its input."""
    if _evolved_rows(cfg) == 2:
        return
    c = _g_coef(cfg.initial)
    for rho, g in y.reshape(-1, 2, y.shape[-1]):
        if c == 0.0:
            g.fill(0.0)
        else:
            np.multiply(c, rho, out=g)


def _stack(arrays) -> np.ndarray:
    """The arrays stacked along a new first axis; a single one is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _column(values) -> np.ndarray | float:
    """One float per run, shaped (B, 1, 1) to broadcast over each run's rows; one run's float stays a float."""
    return values[0] if len(values) == 1 else np.array(values)[:, None, None]


class _Runs:
    """The constants of B runs that advance in lockstep, stacked once.

    The runs share n, the flux scheme and the number k of evolved rows; each
    brings its own workspace, spacing h, viscosity eps and ``_peak_scale``,
    so its own transport multipliers, velocity-kernel spectrum and
    tail-anchor weights.  The per-run scalars are the Python floats a run
    alone computes, held as columns that broadcast over the run's rows, so
    every elementwise op gives each run the floats of its own step.
    """

    def __init__(self, cfgs: tuple[SolverConfig, ...], workspaces: tuple[SpectralWorkspace, ...],
                 spacings: tuple[float, ...], eps: tuple[float, ...], scales: tuple[float, ...]):
        self.scheme, self.k = cfgs[0].flux_scheme, _evolved_rows(cfgs[0])
        self.spacings, self.scales = spacings, scales
        self.peak_scale = max(scales)
        self.spectra = _stack([
            ws.velocity_kernel_spectrum(cfg.image_correction, 0.0 if self.k == 2 else _g_coef(cfg.initial))
            for cfg, ws in zip(cfgs, workspaces)
        ])
        self.weights = tuple(ws.tail_anchor_weights() for ws in workspaces)
        if self.scheme == "spectral":
            xi_sq, ik = zip(*(ws.transport_multipliers() for ws in workspaces))
            self.decay_rate = np.multiply(_column([-e for e in eps]), _stack(xi_sq)[:, None])  # -eps xi^2
            self.ik = _stack(ik)[:, None]
        else:
            self.eps, self.h = _column(eps), _column(spacings)
            self.h_sq = _column([h**2 for h in spacings])

    def velocity(self, y: np.ndarray) -> np.ndarray:
        """The velocities (B, n) of the stacked evolved rows y, (B, k, n): G is the row y[:, 1] or a coefficient."""
        return _velocity_rows(y[:, 0], y[:, 1] if self.k == 2 else None, self.spectra, self.weights, self.spacings)


def _spectral_step(y0: np.ndarray, u: np.ndarray, dt: np.ndarray, runs: _Runs, out: np.ndarray) -> np.ndarray:
    """Integrating-factor SSP-RK2 (Lawson-Heun) on the stacked evolved rows y0, (B, k, n), into out.

    With E = exp(-eps xi^2 dt) and the flux F(Y) = i xi (Y u(Y))^, per run:
    S1 = E (Y^ - dt F(Y)), Y1 = irfft(S1), Y_new = irfft((E Y^ + S1 - dt F(Y1)) / 2).
    u is the velocity of y0 and dt the column of the runs' steps; only the
    second stage reconstructs a velocity.
    """
    b, k, n = y0.shape
    m = n // 2 + 1
    # Work arrays in place of temporaries, with the operations in the same
    # order, so the floats are those of the plain expressions in the docstring.
    decay = np.multiply(runs.decay_rate, dt, out=_work_array("step_decay", (b, 1, m)))
    np.exp(decay, out=decay)
    dt_ik = np.multiply(dt, runs.ik, out=_work_array("step_dt_ik", (b, 1, m), complex))
    # Y over Y u, so one stacked rfft gives Y^ and (Y u)^: the floats of two rffts.
    y = _work_array("step_y", (b, 2 * k, n))
    y[:, :k] = y0
    np.multiply(y0, u[:, None], out=y[:, k:])
    hats = np.fft.rfft(y, out=_work_array("step_hats", (b, 2 * k, m), complex))
    y_hat, s1 = hats[:, :k], hats[:, k:]
    np.multiply(dt_ik, s1, out=s1)
    np.subtract(y_hat, s1, out=s1)
    np.multiply(decay, s1, out=s1)
    y1 = np.fft.irfft(s1, n, out=y[:, :k])
    y1 *= runs.velocity(y1)[:, None]
    f2 = np.fft.rfft(y1, out=_work_array("step_f2", (b, k, m), complex))
    np.multiply(runs.ik, f2, out=f2)
    y_hat *= decay
    y_hat += s1
    f2 *= dt
    y_hat -= f2
    y_hat *= 0.5
    return np.fft.irfft(y_hat, n, out=out)


def _upwind_tendency(y: np.ndarray, u: np.ndarray, runs: _Runs, out: np.ndarray) -> np.ndarray:
    """-(F_j - F_{j-1}) / h + eps (y_{j+1} - 2 y_j + y_{j-1}) / h^2 of the stacked y, (B, k, n), into out.

    F_j = max(w_j, 0) y_j + min(w_j, 0) y_{j+1} with w_j = 0.5 (u_j + u_{j+1}), periodic in j,
    evaluated in that order on work arrays, so the floats are those of the plain expressions.
    """
    u_minus = _work_array("upwind_u_minus", u.shape)
    np.add(u[:, :-1], u[:, 1:], out=u_minus[:, :-1])
    np.add(u[:, -1:], u[:, :1], out=u_minus[:, -1:])
    u_minus *= 0.5
    u_plus = np.maximum(u_minus, 0.0, out=_work_array("upwind_u_plus", u.shape))
    np.minimum(u_minus, 0.0, out=u_minus)
    u_plus, u_minus = u_plus[:, None], u_minus[:, None]  # over the rows
    y_next = np.concatenate((y[..., 1:], y[..., :1]), axis=-1, out=_work_array("upwind_y_next", y.shape))
    flux = np.multiply(u_plus, y, out=_work_array("upwind_flux", y.shape))
    flux += np.multiply(u_minus, y_next, out=out)
    np.subtract(flux[..., 1:], flux[..., :-1], out=out[..., 1:])
    np.subtract(flux[..., :1], flux[..., -1:], out=out[..., :1])
    np.negative(out, out=out)
    out /= runs.h
    diff = np.multiply(2.0, y, out=flux)
    np.subtract(y_next, diff, out=diff)
    diff[..., 1:] += y[..., :-1]
    diff[..., :1] += y[..., -1:]
    diff *= runs.eps
    diff /= runs.h_sq
    out += diff
    return out


def _upwind_step(y: np.ndarray, u: np.ndarray, dt: np.ndarray, runs: _Runs, out: np.ndarray) -> np.ndarray:
    """SSP-RK2 (Heun): y1 = y + dt D(y, u), y_new = (y + y1 + dt D(y1, u(y1))) / 2, into out.

    D is ``_upwind_tendency`` on the stacked evolved rows y, (B, k, n), and dt
    the column of the runs' steps.  u is the velocity of y, so only the second
    substep reconstructs one.
    """
    dy = _upwind_tendency(y, u, runs, _work_array("upwind_dy", y.shape))
    dy *= dt
    y1 = np.add(y, dy, out=_work_array("upwind_y1", y.shape))
    _upwind_tendency(y1, runs.velocity(y1), runs, dy)
    dy *= dt
    y1 += y
    y1 += dy
    return np.multiply(0.5, y1, out=out)


def _advance(
    y: np.ndarray, u: np.ndarray, t: list[float], dt: list[float], runs: _Runs, out: np.ndarray,
) -> np.ndarray:
    """The raw-array step ``step`` and ``_run_lockstep`` share, for B runs at once.

    y stacks each run's ``_evolved_rows``, (B, k, n), run b at time t[b], and
    u their velocities, (B, n); run b steps by dt[b].  Writes the evolved rows
    at t + dt into out, of y's shape, and returns their u; a G row that is not
    evolved is the caller's to form (``_form_g``).  Raises SolverError on
    non-finite values, in that G row too; the caller has checked dt.
    """
    scheme = _upwind_step if runs.scheme == "upwind" else _spectral_step
    scheme(y, u, _column(dt), runs, out)
    if not math.isfinite(float(np.abs(out).max()) * runs.peak_scale):  # else read the runs one by one
        for i, (peak, scale) in enumerate(zip(np.abs(out).max(axis=(1, 2)).tolist(), runs.scales)):
            if not math.isfinite(peak * scale):
                raise SolverError(f"non-finite values produced at t = {t[i] + dt[i]:.6g}; aborting")
    return runs.velocity(out)


def _state(grid: Grid1D, y: np.ndarray, t: float, u: np.ndarray) -> State:
    return State(rho=Field(grid, y[0]), g=Field(grid, y[1]), t=t, u=Field(grid, u))


def step(state: State, dt: float, cfg: SolverConfig, ws: SpectralWorkspace) -> State:
    """Advance one time step of size dt; mass-conservative, u recomputed.

    state.u must be the velocity State describes; both schemes use it as
    their first-stage velocity.  Raises SolverError if ws is not for the
    state's grid or for cfg's grid and alpha (``_workspace``), on a CFL
    violation (dt beyond the scheme's stability cap) or if the update
    produces non-finite values.  It wraps the raw-array core ``_run_lockstep``
    loops on, for one run, adding these checks and the new State's 3 ``Field``s.  In
    proportional and zero_G modes state.g is not read: the new G is formed
    from the new rho.
    """
    if dt <= 0 or not math.isfinite(dt):
        raise SolverError(f"dt must be positive and finite, got {dt}")
    grid = ws.grid
    if state.rho.grid != grid:
        raise SolverError("state and workspace grids differ")
    _workspace(cfg.make_grid(), cfg.alpha, ws)
    h = grid.spacing
    eps = cfg.effective_epsilon(h)
    u_inf = float(np.abs(state.u.values).max())
    dt_cap = _stable_dt(cfg, eps, h, u_inf)
    if dt > dt_cap * (1.0 + 1e-9):
        raise SolverError(
            f"CFL violation: dt = {dt:.6g} exceeds the {cfg.flux_scheme} cap {dt_cap:.6g} "
            f"(||u||_inf = {u_inf:.6g}, h = {h:.6g}, eps = {eps:.6g})"
        )
    k = _evolved_rows(cfg)
    new = np.empty((1, 2, grid.n))
    y = np.stack((state.rho.values, state.g.values)[:k])[None]
    runs = _Runs((cfg,), (ws,), (h,), (eps,), (_peak_scale(cfg),))
    u = _advance(y, state.u.values[None], [state.t], [dt], runs, new[:, :k])
    _form_g(new, cfg)
    return _state(grid, new[0], state.t + dt, u[0])


# ---------------------------------------------------------------------------
# Full runs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """States at the requested output times plus the per-step summary series.

    summary maps each SUMMARY_COLUMNS name to a 1-d array with one row per
    accepted step (the initial state included).
    """

    config: SolverConfig
    states: tuple[State, ...]
    summary: dict[str, np.ndarray]
    initial_report: InitialReport
    steps: int
    wall_time: float

    @property
    def output_times(self) -> tuple[float, ...]:
        """The times of the recorded states."""
        return tuple(s.t for s in self.states)


def _summary_rows(tu: np.ndarray, y: np.ndarray, h: float, sandwich: tuple[float, float] | None) -> np.ndarray:
    """SUMMARY_COLUMNS rows of m stacked (rho, G) pairs y, shape (m, 2, n), in one vectorised pass.

    tu holds the m pairs (t, u_inf); sandwich is the report's (b, a), or None
    where G is the multiply a*rho itself, which makes both sandwich columns
    +0.0.  Each value is the float ``integrate``/``lp_norm`` give on the
    fields; both take |f|^4 as (f*f)^2 from the squares of the L^2 column.
    """
    rows = np.zeros((len(y), len(SUMMARY_COLUMNS)))
    rows[:, [0, 11]] = tu  # the t and u_linf columns
    rows[:, 1:3] = h * y.sum(axis=2)
    norms = rows[:, 3:11].reshape(len(y), 2, 4)  # a view: (L1, L2, L4, Linf) of rho, then of G
    ay = np.abs(y)
    norms[..., 0] = h * ay.sum(axis=2)
    norms[..., 3] = ay.max(axis=2)
    sq = np.square(ay, out=ay)
    l2 = h * sq.sum(axis=2)
    l4 = h * np.square(sq, out=sq).sum(axis=2)
    # Scalar roots: numpy's vectorized pow may differ from the scalar one by an ulp.
    norms[..., 1].flat = [v ** 0.5 for v in l2.flat]
    norms[..., 2].flat = [v ** 0.25 for v in l4.flat]
    rows[:, 12] = y[:, 1].min(axis=1)
    if sandwich is not None:  # NaN constants give NaN columns
        # The squares are summed, so their storage takes a*rho - G, then b*rho - G,
        # pair by pair: a ufunc on the strided views y[:, 0] and y[:, 1] would buffer.
        d = sq.reshape(-1, y.shape[2])[: len(y)]
        for col, coef, reduce in ((13, sandwich[1], np.min), (14, sandwich[0], np.max)):
            for (rho, g), di in zip(y, d):
                np.multiply(coef, rho, out=di)
                di -= g
            rows[:, col] = reduce(d, axis=1)
    return rows


class _RunLog:
    """One run's bookkeeping in ``_run_lockstep``: its clock, dt, margin check and records.

    Made at t = 0 with the initial state, its summary row and the states of
    the output times it already reaches; ``trajectory`` closes it.
    """

    def __init__(self, cfg: SolverConfig):
        self.cfg = cfg
        self.grid = grid = cfg.make_grid()
        self.ws = workspace(grid, cfg.alpha)
        self.h, self.scale = grid.spacing, _peak_scale(cfg)
        self.eps = cfg.effective_epsilon(self.h)
        self.initial, self.report = state, report = make_initial_state(
            cfg.initial, grid, cfg.alpha, ws=self.ws, image_correction=cfg.image_correction
        )
        spec = cfg.initial
        # G = g_coef*rho is the multiply a*rho itself when b = a = g_coef != 0.
        exact = spec.mode == "proportional" and 0.0 != spec.b_coef == spec.a_coef
        self.sandwich = None if exact else (report.b, report.a)
        self.peak0 = float(np.abs(state.rho.values).max())
        # The margin zone |x| >= 3L/4 is a prefix and a suffix of the grid.
        inner = np.flatnonzero(np.abs(grid.x) < 0.75 * grid.half_width)
        self.lo, self.hi = int(inner[0]), int(inner[-1]) + 1
        self.outputs = cfg.output_times if cfg.output_times is not None else (cfg.t_end,)
        self.time_tol = 1e-9 * max(1.0, cfg.t_end)
        self.u_inf = float(np.abs(state.u.values).max())
        y0 = np.stack((state.rho.values, state.g.values))[None]
        self.rows = [_summary_rows(np.array([[0.0, self.u_inf]]), y0, self.h, self.sandwich)]
        self.states: list[State] = []
        self.next_idx = 0
        self.t = self.t_clock = 0.0  # t snaps to each output time it reaches; t_clock, which sets dt, does not
        self.record(partial(replace, state))

    @property
    def done(self) -> bool:
        return self.t_clock >= self.cfg.t_end - self.time_tol

    def dt(self) -> float:
        """The next step: the scheme's cap, cut short at the next output time (or t_end)."""
        dt = min(_stable_dt(self.cfg, self.eps, self.h, self.u_inf), self.next_time - self.t_clock)
        if dt < 1e-13 * max(1.0, self.cfg.t_end):
            raise SolverError(f"time step collapsed to {dt:.3g} at t = {self.t_clock:.6g}")
        return dt

    def stepped(self, dt: float, u_inf: float, y: np.ndarray) -> bool:
        """Take the step dt to evolved rows y with velocity bound u_inf; abort at the margin.

        Returns whether the run has reached its next output time or its end.
        """
        self.t = self.t_clock = self.t + dt
        self.u_inf = u_inf
        if self.peak0 > 0:
            margin_peak = max(float(np.abs(y[:, : self.lo]).max()), float(np.abs(y[:, self.hi :]).max())) * self.scale
            if margin_peak > MARGIN_ABORT_LEVEL * self.peak0:
                ringing = (", or, if the data has jumps, the spectral scheme's ringing may have put it"
                           " there: use flux_scheme = upwind") if self.cfg.flux_scheme == "spectral" else ""
                raise SolverError(
                    f"support reached the boundary margin |x| >= {0.75 * self.grid.half_width:.6g} "
                    f"at t = {self.t:.6g}; enlarge the domain{ringing}"
                )
        return self.t_clock >= self.next_time - self.time_tol

    def flush(self, tu: np.ndarray, blk: np.ndarray, u: np.ndarray) -> bool:
        """Close a block of steps, (m, 2) and (m, 2, n), whose last has velocity u; return ``done``.

        Forms the block's G rows and summary rows and records the last
        step's state at each output time the clock has reached.
        """
        _form_g(blk, self.cfg)
        self.rows.append(_summary_rows(tu, blk, self.h, self.sandwich))
        self.record(partial(_state, self.grid, blk[-1], u=u))
        return self.done

    def record(self, state_at) -> None:
        """Record the State ``state_at(t=t)`` at each output time t the clock has reached.

        The next output time follows, or t_end after the last: the output
        times lie in [0, t_end], so the dt cap and the end of a block read it alone.
        """
        outputs = self.outputs
        while self.next_idx < len(outputs) and self.t_clock >= outputs[self.next_idx] - self.time_tol:
            self.t = float(outputs[self.next_idx])
            self.states.append(state_at(t=self.t))
            self.next_idx += 1
        self.next_time = outputs[self.next_idx] if self.next_idx < len(outputs) else self.cfg.t_end

    def trajectory(self, t_start: float) -> Trajectory:
        table = np.concatenate(self.rows)
        summary = {name: table[:, i].copy() for i, name in enumerate(SUMMARY_COLUMNS)}
        for arr in summary.values():
            arr.setflags(write=False)
        return Trajectory(
            config=self.cfg,
            states=tuple(self.states),
            summary=summary,
            initial_report=self.report,
            steps=len(table) - 1,
            wall_time=_time.perf_counter() - t_start,
        )


def _run_lockstep(cfgs) -> tuple[Trajectory, ...]:
    """Integrate B runs at once, each exactly as ``run`` does it alone.

    The runs must share n, flux_scheme and the number of evolved rows
    (independent mode or not), else SolverError; everything else, domain,
    horizon, output times, data and viscosity included, is per run.  Each
    step advances all unfinished runs as stacked rows (``_advance``), every
    transform and elementwise op one call over them, while the dt, the
    margin abort, the summary rows and the recorded states stay per run.  A
    run that reaches its t_end drops out of the stack.  Each run's
    Trajectory is bit for bit the one ``run`` gives it alone; its wall time
    runs from the start of the lockstep run to that run's end.  A run that
    aborts (SolverError) aborts them all.
    """
    t_start = _time.perf_counter()
    cfgs = tuple(cfgs)
    if not cfgs:
        raise SolverError("a lockstep run needs at least one config")
    if len({(cfg.n, cfg.flux_scheme, _evolved_rows(cfg)) for cfg in cfgs}) > 1:
        raise SolverError("runs in lockstep must share n, flux_scheme and the evolved rows (independent mode or not)")
    n, k = cfgs[0].n, _evolved_rows(cfgs[0])
    logs = [_RunLog(cfg) for cfg in cfgs]
    # Slot 0 holds the evolved rows a block starts from; slots 1..block_steps of blk and tu its steps.
    # Made after the initial states, whose temporaries are freed by then.
    block_steps = _block_rows(n)
    blk = np.empty((block_steps + 1, len(cfgs), 2, n))
    tu = np.empty((block_steps + 1, len(cfgs), 2))  # (t, u_inf)
    u = np.empty((len(cfgs), n))
    for y0, u0, log in zip(blk[0], u, logs):
        y0[0], y0[1], u0[...] = log.initial.rho.values, log.initial.g.values, log.initial.u.values
    trajectories: list[Trajectory | None] = [None] * len(logs)
    live = list(range(len(logs)))  # the unfinished runs, in stack order
    restack = True
    j = 0
    while True:
        if restack:
            # Close the finished runs and compact the others to the front of the
            # stack: at the start of a block, at most B - 1 times after the first.
            keep = [b for b, i in enumerate(live) if not logs[i].done]
            for i in live:
                if logs[i].done:
                    trajectories[i], logs[i] = logs[i].trajectory(t_start), None
            live = [live[b] for b in keep]
            if not live:
                return tuple(trajectories)
            if len(live) < blk.shape[1]:
                blk[0, : len(live)] = blk[0, keep]
                blk, tu, u = blk[:, : len(live)], tu[:, : len(live)], u[keep]
            active = [logs[i] for i in live]
            runs = _Runs(*zip(*((log.cfg, log.ws, log.h, log.eps, log.scale) for log in active)))
            restack = False
        dts = [log.dt() for log in active]
        u = _advance(blk[j, :, :k], u, [log.t for log in active], dts, runs, blk[j + 1, :, :k])
        j += 1
        close = j == block_steps
        for b, (log, dt, u_inf) in enumerate(zip(active, dts, np.abs(u).max(axis=1).tolist())):
            close |= log.stepped(dt, u_inf, blk[j, b, :k])
            tu[j, b] = log.t, u_inf
        if close:
            for b, log in enumerate(active):
                restack |= log.flush(tu[1 : j + 1, b], blk[1 : j + 1, b], u[b])
            blk[0, :, :k] = blk[j, :, :k]
            j = 0


def run(cfg: SolverConfig) -> Trajectory:
    """Integrate from t = 0 to t_end, recording states at the output times.

    The one-run case of ``_run_lockstep``: the loop advances raw arrays through
    the core ``step`` wraps and builds ``Field``s only for recorded states,
    whose t is the output time itself.  Steps fill blocks of ``fracops._block_rows(n)``
    steps (128 KiB of new rows per run), whose G and summary rows are formed
    in one pass when full and at output times.  The run aborts with
    SolverError if the state develops non-finite values or if the density/G
    support reaches the outer quarter of the domain (|x| >= 3L/4), where the
    periodic truncation stops being meaningful.  A run steps with the
    process's shared workspace (``fracops.workspace``), so a second run of the
    same grid and alpha builds no kernel.
    """
    return _run_lockstep((cfg,))[0]


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """JSON-ready copy: containers and arrays to lists, numpy scalars to Python,
    non-finite floats to 'nan'/'inf'/'-inf' strings, paths to strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(float(v)) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    """Write ``_jsonable(obj)`` as indented JSON with sorted keys."""
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def load_trajectory(directory: str | Path) -> Trajectory:
    """Reload a run directory written by ``save_trajectory`` into a Trajectory.

    The config is parsed from the manifest's ``config_ini`` (a manifest without
    it raises SolverError) and the wall time is its ``run_wall_time_seconds``.
    The %.17g CSV format round-trips float64 exactly, so the reloaded states
    (including the cached velocity) are bit-identical to the saved ones.
    An x column off the config's grid by over 1e-12 * max(1, L) anywhere
    raises SolverError, as in ``read_field_csv``.
    """
    from .config import parse_config

    d = Path(directory)
    manifest_path = d / "manifest.json"
    if not manifest_path.is_file():
        raise SolverError(f"{d} does not contain a run manifest (manifest.json)")
    manifest = json.loads(manifest_path.read_text())
    for key in ("config_ini", "initial_report", "states", "summary_file"):
        if key not in manifest:
            raise SolverError(f"run manifest {manifest_path} lacks the {key!r} entry")
    cfg = parse_config(manifest["config_ini"])
    grid = cfg.make_grid()
    states = []
    for entry in manifest["states"]:
        arr = np.loadtxt(d / entry["file"], delimiter=",", ndmin=2)
        if arr.shape != (grid.n, 4):
            raise SolverError(
                f"state file {entry['file']} has shape {arr.shape}, expected ({grid.n}, 4)"
            )
        x, rho, g, u = arr.T
        if not np.allclose(x, grid.x, rtol=0, atol=1e-12 * max(1.0, grid.half_width)):
            raise SolverError(f"state file {entry['file']} grid does not match the manifest config")
        states.append(State(Field(grid, rho), Field(grid, g), float(entry["t"]), Field(grid, u)))
    table = np.loadtxt(d / manifest["summary_file"], delimiter=",", ndmin=2)
    if table.shape[1] != len(SUMMARY_COLUMNS):
        raise SolverError(
            f"summary file has {table.shape[1]} columns, expected {len(SUMMARY_COLUMNS)}"
        )
    summary = {name: table[:, j] for j, name in enumerate(SUMMARY_COLUMNS)}
    rep = manifest["initial_report"]
    return Trajectory(
        config=cfg,
        states=tuple(states),
        summary=summary,
        initial_report=InitialReport(b=float(rep["b"]), a=float(rep["a"])),
        steps=int(manifest["steps"]),
        wall_time=float(manifest["run_wall_time_seconds"]),
    )


def save_trajectory(traj: Trajectory, outdir: str | Path) -> dict:
    """Write one CSV per output state, the summary series, and a manifest.

    Returns the manifest dictionary (also written to manifest.json); it holds
    the config once, as ``dump_config`` text under ``config_ini``.  State
    files carry columns x, rho, G, u; all values use the %.17g format so
    repeated runs produce byte-identical artifacts.
    """
    from .config import dump_config

    config_ini = dump_config(traj.config)  # raises before any file is written
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    state_files = []
    for i, state in enumerate(traj.states):
        name = f"state_{i:03d}.csv"
        data = np.column_stack(
            [state.rho.grid.x, state.rho.values, state.g.values, state.u.values]
        )
        _write_csv(outdir / name, "x,rho,G,u", data)
        state_files.append({"file": name, "t": state.t})
    table = np.column_stack([traj.summary[name] for name in SUMMARY_COLUMNS])
    _write_csv(outdir / "summary.csv", ",".join(SUMMARY_COLUMNS), table)
    manifest = {
        "version": __version__,
        "config_ini": config_ini,
        "initial_report": asdict(traj.initial_report),
        "states": state_files,
        "summary_file": "summary.csv",
        "files": [entry["file"] for entry in state_files] + ["summary.csv"],
        "steps": traj.steps,
        "run_wall_time_seconds": round(traj.wall_time, 3),
    }
    _write_json(outdir / "manifest.json", manifest)
    return manifest
