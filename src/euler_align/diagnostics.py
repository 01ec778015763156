"""Trajectory post-processing: quantitative asymptotic-property checks.

Turns solver output into quantitative statements: least-squares decay
exponents of L^p norms, the growth exponent of the Oleinik-type series
t * sup(u_x)+, worst-case comparison-principle values, and the two long-time
rescaling experiments — convergence of proportional data to the rarefaction
triple and of zero-G data to the self-similar profile family.  Each returns
the numbers a check compares; the thresholds belong to the caller.

Weak convergence of the rescaled rho and G is proxied by strong L^q
distances of mollified fields (a fixed smooth bump of width 0.05*R), and the
rarefaction distances are also reported with 0.02*R neighborhoods of the two
fan kinks excluded, since pointwise convergence fails at discontinuities.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .closedform import (
    RarefactionTriple,
    attractor_density,
    evolved_profile_density,
    rarefaction_G,
    rarefaction_density,
    rarefaction_velocity,
)
from .solver import (
    InitialDataSpec,
    SolverConfig,
    Trajectory,
    evaluate_shape,
    run,
    _run_lockstep,
)

__all__ = [
    "DiagnosticsError",
    "ComparisonReport",
    "ScalingReport",
    "decay_fit",
    "oleinik_check",
    "comparison_principle_report",
    "mollify",
    "scaling_limit_experiment",
    "barenblatt_limit_experiment",
]


class DiagnosticsError(ValueError):
    """Invalid input to a diagnostic computation."""


# ---------------------------------------------------------------------------
# Decay-exponent fits.
# ---------------------------------------------------------------------------


def reference_decay_slope(p: float, alpha: float) -> float:
    """The viscosity bound (-1 + 1/p)/(2 + alpha) on the decay exponent of ||rho||_p.

    It is the rate guaranteed for the regularized system; the sharp
    self-similar rate is -1 + 1/p.
    """
    return (-1.0 + (0.0 if math.isinf(p) else 1.0 / p)) / (2.0 + float(alpha))


def decay_fit(times, norms) -> float:
    """Least-squares slope of log norms against log times over the last decade.

    Requires at least 10 positive-time samples spanning at least one decade;
    the fit discards the transient t < t_max / 10 and runs on log-log axes.
    """
    times, norms = np.asarray(times, dtype=float), np.asarray(norms, dtype=float)
    if times.size != norms.size:
        raise DiagnosticsError("times and norms have different lengths")
    if np.any(np.diff(times) <= 0):
        raise DiagnosticsError("times must be strictly increasing")
    # A leading t = 0 row (e.g. from a run summary) carries no log-log
    # information and is dropped before the span checks.
    positive = times > 0
    times, norms = times[positive], norms[positive]
    if times.size < 10:
        raise DiagnosticsError(f"insufficient span: need >= 10 positive-time samples, got {times.size}")
    if times[-1] < 10.0 * times[0] * (1.0 - 1e-12):
        raise DiagnosticsError(
            f"insufficient span: times cover [{times[0]:.3g}, {times[-1]:.3g}], need a decade"
        )
    window = times >= times[-1] / 10.0
    tw, nw = times[window], norms[window]
    if tw.size < 3:
        raise DiagnosticsError("insufficient samples in the last decade")
    if np.any(nw <= 0):
        raise DiagnosticsError("norms must be positive for a log-log fit")
    logt = np.log(tw)
    design = np.column_stack([logt, np.ones_like(logt)])
    return float(np.linalg.lstsq(design, np.log(nw), rcond=None)[0][0])


# ---------------------------------------------------------------------------
# Oleinik-type one-sided bound.
# ---------------------------------------------------------------------------


def oleinik_check(traj: Trajectory) -> float:
    """Growth exponent of the series t * max(u_x, 0) over the stored states.

    It is the log-log slope of the series over the upper half of the time
    range: a bounded series has slope near 0 (the exact rarefaction gives
    identically 1), while t * sup u_x for a frozen velocity grows with slope 1.
    Fewer than two positive values in the upper half leave no slope to fit,
    and that raises DiagnosticsError rather than reading as bounded.
    The derivative uses the centered difference, which cannot overshoot on
    monotone data — the spectral derivative would manufacture Gibbs
    oscillation at the fan kinks of a rarefaction-like profile.
    """
    times, values = [], []
    for state in traj.states:
        if state.t <= 0:
            continue
        u = state.u.values
        h = state.u.grid.spacing
        ux = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)
        values.append(state.t * float(np.maximum(ux, 0.0).max()))
        times.append(state.t)
    if not times:
        raise DiagnosticsError("oleinik_check needs at least one state with t > 0")
    t_arr = np.asarray(times)
    v_arr = np.asarray(values)
    upper = t_arr >= t_arr[-1] / 2.0
    tu, vu = t_arr[upper], v_arr[upper]
    positive = vu > 0
    if positive.sum() < 2:
        raise DiagnosticsError(
            "oleinik_check needs two states with a positive t * max(u_x, 0) in the upper half of the time range"
        )
    return float(np.polyfit(np.log(tu[positive]), np.log(vu[positive]), 1)[0])


# ---------------------------------------------------------------------------
# Comparison-principle audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Worst-case values of the three sandwich quantities over a whole run."""

    min_g: float
    min_arho_minus_g: float
    min_g_minus_brho: float
    a: float
    b: float
    rho0_linf: float


def comparison_principle_report(traj: Trajectory) -> ComparisonReport:
    """Space-time minima of G, a*rho - G, and G - b*rho from the summary series.

    The (a, b) constants are the ones recorded by make_initial_state.  All
    three minima are >= 0 for the exact dynamics with sandwiched data; the
    report is pure bookkeeping, thresholds belong to the caller.
    """
    s = traj.summary
    return ComparisonReport(
        min_g=float(s["min_G"].min()),
        min_arho_minus_g=float(s["min_arho_minus_G"].min()),
        min_g_minus_brho=float(-s["max_brho_minus_G"].max()),
        a=traj.initial_report.a,
        b=traj.initial_report.b,
        rho0_linf=float(s["rho_linf"][0]),
    )


# ---------------------------------------------------------------------------
# Rescaling experiments.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    """Distances between rescaled solutions and the limit profile.

    ``distances`` is the primary series (velocity for rarefaction mode,
    density for barenblatt mode).  Rarefaction mode also carries the
    mollified rho/G distances and the kink-excluded variants of all three.
    """

    mode: str
    lambdas: tuple[float, ...]
    distances: tuple[float, ...]
    q: float
    R: float
    t1: float
    t2: float
    rho_distances: tuple[float, ...] = ()
    g_distances: tuple[float, ...] = ()
    distances_no_kink: tuple[float, ...] = ()
    rho_distances_no_kink: tuple[float, ...] = ()
    g_distances_no_kink: tuple[float, ...] = ()


def mollify(values: np.ndarray, spacing: float, width: float) -> np.ndarray:
    """Convolve samples with a unit-mass smooth bump of the given half-width.

    The kernel is exp(1 - 1/(1 - (z/width)^2)) on |z| < width, sampled on the
    grid and normalized to unit discrete mass; a width below the spacing
    degenerates to the identity.
    """
    values = np.asarray(values, dtype=float)
    m = int(math.ceil(width / spacing))
    if m < 1:
        return values.copy()
    z = np.arange(-m, m + 1) * (spacing / width)
    kernel = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    kernel[inside] = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
    kernel /= kernel.sum()
    return np.convolve(values, kernel, mode="same")


def _window_lq(diff: np.ndarray, mask: np.ndarray, spacing: float, q: float) -> float:
    """L^q norm of diff restricted to mask, with the grid quadrature weight."""
    vals = np.abs(diff[mask])
    if math.isinf(q):
        return float(vals.max(initial=0.0))
    return float((spacing * (vals**q).sum()) ** (1.0 / q))


def _rarefaction_group(
    base_cfg: SolverConfig,
    lams: tuple[float, ...],
    q: float,
    R: float,
    sample_times: tuple[float, ...],
    epsilon: float,
) -> list[tuple[float, float, float, float, float, float]]:
    """Distances for a group of rescaling factors lambda, run in lockstep.

    Runs the base configuration on each lambda-dilated domain to time
    lambda * t2 with the viscosity frozen at the base value (so the rescaled
    fields solve the same system with viscosity epsilon/lambda — the
    vanishing-viscosity limit is taken jointly with the dilation), all in one
    ``_run_lockstep``, then measures rescaled fields against the rarefaction
    triple on [-R, R].  Each run is the one it would be alone, so the
    distances do not depend on how the lambdas are grouped.
    """
    cfgs = [
        replace(
            base_cfg,
            half_width=lam * base_cfg.half_width,
            t_end=lam * sample_times[-1],
            output_times=tuple(lam * s for s in sample_times),
            epsilon=epsilon,
        )
        for lam in lams
    ]
    return [_rarefaction_distances(traj, lam, q, R, sample_times) for traj, lam in zip(_run_lockstep(cfgs), lams)]


def _rarefaction_distances(
    traj: Trajectory, lam: float, q: float, R: float, sample_times: tuple[float, ...]
) -> tuple[float, float, float, float, float, float]:
    """The six distances of one lambda-dilated run to the rarefaction triple."""
    triple = RarefactionTriple(M_rho=float(traj.summary["mass_rho"][0]), M_G=float(traj.summary["mass_G"][0]))
    grid = traj.states[0].rho.grid
    y = grid.x / lam
    h_y = grid.spacing / lam
    window = np.abs(y) <= R
    width = 0.05 * R
    du = dr = dg = 0.0
    du_x = dr_x = dg_x = 0.0
    for state, s in zip(traj.states, sample_times):
        ubar = np.asarray(rarefaction_velocity(triple, y, s))
        rbar = np.asarray(rarefaction_density(triple, y, s))
        gbar = np.asarray(rarefaction_G(triple, y, s))
        u_diff = state.u.values - ubar
        r_diff = mollify(lam * state.rho.values, h_y, width) - mollify(rbar, h_y, width)
        g_diff = mollify(lam * state.g.values, h_y, width) - mollify(gbar, h_y, width)
        no_kink = window & (np.abs(y) > 0.02 * R) & (np.abs(y - triple.M_G * s) > 0.02 * R)
        du = max(du, _window_lq(u_diff, window, h_y, q))
        du_x = max(du_x, _window_lq(u_diff, no_kink, h_y, q))
        dr += _window_lq(r_diff, window, h_y, q)
        dr_x += _window_lq(r_diff, no_kink, h_y, q)
        dg += _window_lq(g_diff, window, h_y, q)
        dg_x += _window_lq(g_diff, no_kink, h_y, q)
    n_s = len(sample_times)
    return du, dr / n_s, dg / n_s, du_x, dr_x / n_s, dg_x / n_s


def _scale_factors(lambdas) -> tuple[float, ...]:
    """The lambdas as floats; they must be finite, distinct, increasing and >= 1."""
    lams = tuple(float(v) for v in lambdas)
    if not lams or not all(1 <= v < math.inf for v in lams) or list(lams) != sorted(set(lams)):
        raise DiagnosticsError("lambdas must be finite, distinct, increasing, and >= 1")
    return lams


def _check_distance_exponent(name: str, value: float) -> None:
    """Like ``grid.lp_norm``, an L^p distance needs p >= 1 or p = inf."""
    if not value >= 1:
        raise DiagnosticsError(f"distance exponent {name} must be >= 1 or inf, got {value}")


def scaling_limit_experiment(
    base_cfg: SolverConfig,
    lambdas,
    q: float,
    R: float,
    t1: float,
    t2: float,
    *,
    n_samples: int = 9,
    jobs: int = 1,
) -> ScalingReport:
    """Rarefaction-limit experiment: distances of rescaled runs to the triple.

    For each lambda the solver runs on the dilated domain [-lambda*L,
    lambda*L] (same n, same viscosity) to time lambda*t2, and the rescaled
    fields rho^lam(y,s) = lam*rho(lam*y, lam*s), u^lam(y,s) = u(lam*y, lam*s)
    are compared with the rarefaction triple of the initial masses:
    sup over sampled s in [t1, t2] of the L^q([-R, R]) velocity distance,
    plus time-averaged L^q distances of the mollified density and G.

    The lambda cases are independent runs of about equal cost (dt and the
    horizon both grow like lambda).  They are dealt into min(jobs,
    len(lambdas)) contiguous groups, and each group runs in lockstep
    (``_run_lockstep``): in this process when there is one group, else one
    group per worker process.  Every run is the one it would be alone, so
    the distances do not depend on jobs.  jobs < 1 raises DiagnosticsError.
    """
    if jobs < 1:
        raise DiagnosticsError(f"jobs must be a positive integer, got {jobs}")
    lams = _scale_factors(lambdas)
    _check_distance_exponent("q", q)
    if base_cfg.initial.mode != "proportional":
        raise DiagnosticsError("rarefaction experiment requires proportional initial data")
    if base_cfg.initial.g_coef <= 1e-12:
        raise DiagnosticsError("rarefaction limit undefined for M_G = 0 (g_coef too small)")
    if not (0 < t1 < t2):
        raise DiagnosticsError(f"need 0 < t1 < t2, got ({t1}, {t2})")
    if not (0 < R < 0.9 * base_cfg.half_width):
        raise DiagnosticsError("R must be positive and well inside the base domain")
    samples = tuple(np.linspace(t1, t2, n_samples))
    eps = base_cfg.effective_epsilon(base_cfg.make_grid().spacing)
    workers = min(jobs, len(lams))
    cuts = [len(lams) * w // workers for w in range(workers + 1)]
    args = [(base_cfg, lams[lo:hi], q, R, samples, eps) for lo, hi in zip(cuts, cuts[1:])]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_rarefaction_group, *zip(*args)))
    else:
        groups = [_rarefaction_group(*args[0])]
    results = [r for group in groups for r in group]
    du, dr, dg, du_x, dr_x, dg_x = (tuple(r[i] for r in results) for i in range(6))
    return ScalingReport(
        mode="rarefaction",
        lambdas=lams,
        distances=du,
        q=float(q),
        R=float(R),
        t1=float(t1),
        t2=float(t2),
        rho_distances=dr,
        g_distances=dg,
        distances_no_kink=du_x,
        rho_distances_no_kink=dr_x,
        g_distances_no_kink=dg_x,
    )


def _unit_mass_initial(initial: InitialDataSpec, grid, alpha: float) -> InitialDataSpec:
    """Rescale the density shape so its grid mass is exactly 1."""
    rho0 = evaluate_shape(initial.rho0, grid, alpha)
    mass = float(grid.spacing * rho0.sum())
    if mass <= 0:
        raise DiagnosticsError("initial density has nonpositive mass")
    if abs(mass - 1.0) <= 1e-12:
        return initial
    shape = initial.rho0
    if shape.kind in ("gaussian", "bump"):
        shape = replace(shape, mass=shape.mass / mass)
    elif shape.kind == "getoor":
        shape = replace(shape, amplitude=shape.amplitude / mass)
    else:
        raise DiagnosticsError(
            f"csv initial data must carry unit mass (got {mass:.6g}); rescale the file"
        )
    return replace(initial, rho0=shape)


def barenblatt_limit_experiment(base_cfg: SolverConfig, lambdas, p: float = 1.0) -> ScalingReport:
    """Self-similar-limit experiment for zero-G data.

    Requires G0 = 0; the density is normalized to unit grid mass before
    running.  Every lambda shares the grid, the data and the dt rule, so one
    run to the largest T records the state at each T = lambda^(1+alpha).
    distances[i] = || lam*rho(lam*y, T) - target(y) ||_{L^p} on the rescaled
    mesh y = x/lam, where the target is the unit-mass attractor profile at
    t = 1 — except for data on the profile family itself (getoor kind), where
    the exact evolved member is the honest fixed-point target: the rescaled
    exact solution is the same profile with a time origin shifted by
    O(lambda^-(1+alpha)), which the attractor only matches as lambda grows.
    """
    lams = _scale_factors(lambdas)
    _check_distance_exponent("p", p)
    if base_cfg.initial.mode != "zero_G":
        raise DiagnosticsError("barenblatt experiment requires zero_G initial data")
    alpha = base_cfg.alpha
    grid = base_cfg.make_grid()
    initial = _unit_mass_initial(base_cfg.initial, grid, alpha)
    times = tuple(lam ** (1.0 + alpha) for lam in lams)
    traj = run(replace(base_cfg, initial=initial, t_end=times[-1], output_times=times))
    shape = initial.rho0
    everywhere = np.ones(grid.n, dtype=bool)
    dists = []
    for lam, T, state in zip(lams, times, traj.states):
        if shape.kind == "getoor":
            target = lam * np.asarray(evolved_profile_density(alpha, shape.amplitude, grid.x - shape.center, T))
        else:
            target = np.asarray(attractor_density(alpha, 1.0, grid.x / lam, 1.0))
        dists.append(_window_lq(lam * state.rho.values - target, everywhere, grid.spacing / lam, p))
    return ScalingReport(
        mode="barenblatt",
        lambdas=lams,
        distances=tuple(dists),
        q=float(p),
        R=float(base_cfg.half_width),
        t1=1.0,
        t2=1.0,
    )
