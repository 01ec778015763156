"""Pseudospectral laboratory for a 1D nonlocal transport system.

Simulates the viscous regularization of the pressureless alignment dynamics

    rho_t + (rho u)_x = eps rho_xx,
    G_t   + (G u)_x   = eps G_xx,
    u = d_x^{-1} (G + Lambda^alpha rho),      0 < alpha < 1,

on a truncated periodic domain, provides its fractional operators via two
independent routes (Fourier multipliers and direct singular-integral
quadrature), carries the closed-form profile/rarefaction solutions as oracles,
and turns trajectories into quantitative checks of conservation, comparison
and maximum principles, L^p decay rates, and the two long-time scaling limits.
"""

from ._version import __version__

from .grid import (
    Field,
    Grid1D,
    GridError,
    antiderivative,
    build_grid,
    integrate,
    lp_norm,
    read_field_csv,
    write_field_csv,
)

from .fracops import (
    FracOrder,
    FracOrderError,
    SpectralWorkspace,
    fractional_laplacian_quadrature,
    fractional_laplacian_spectral,
    gagliardo_nirenberg_check,
    hilbert_transform,
    left_tail_anchor,
    periodic_image_correction,
    riesz_potential,
    singular_kernel_constant,
    stroock_varopoulos_check,
    velocity_from_state,
)

from .solver import (
    SUMMARY_COLUMNS,
    InitialDataSpec,
    InitialReport,
    ShapeSpec,
    SolverConfig,
    SolverError,
    State,
    Trajectory,
    evaluate_shape,
    load_trajectory,
    make_initial_state,
    run,
    save_trajectory,
    step,
)

from .closedform import (
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
    velocity_profile_U,
)

from .diagnostics import (
    ComparisonReport,
    DiagnosticsError,
    ScalingReport,
    barenblatt_limit_experiment,
    comparison_principle_report,
    decay_fit,
    mollify,
    oleinik_check,
    reference_decay_slope,
    scaling_limit_experiment,
)

from .config import ConfigError, dump_config, load_config, parse_config

from .selftest import (
    CheckRecord,
    SelfTestReport,
    TOLERANCES,
    cross_validation_errors,
    random_bump_field,
    run_selftest,
)

__all__ = [name for name in dir() if not name.startswith("_")]
