"""The benchmark's span tracer (perfbench/tracing.py) still finds every name it measures.

The tracer wraps package functions by name from outside the package, so a
renamed or removed function would otherwise surface only in a traced
benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import euler_align
from euler_align import closedform, diagnostics, fracops, grid
from euler_align.config import parse_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_spanned_name_and_restores_it(tracing):
    spanned = {**tracing._SPANNED, closedform: tracing._public_functions(closedform)}
    # Fails with AttributeError if a spanned function was renamed or removed.
    originals = {(module, name): getattr(module, name) for module, names in spanned.items() for name in names}
    patched = [(fracops.SpectralWorkspace, "__init__"), (fracops.SpectralWorkspace, "image_kernel"),
               (grid.Field, "__post_init__"), (fracops, "fftconvolve")]
    originals.update({(owner, name): getattr(owner, name) for owner, name in patched})
    exported = {name: getattr(euler_align, name) for (_, name), fn in originals.items()
                if getattr(euler_align, name, None) is fn}
    assert "decay_fit" in exported and "oleinik_check" in exported

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, name), original in originals.items():
            assert getattr(owner, name).__wrapped__ is original, f"{owner.__name__}.{name} is not wrapped"
        for name, original in exported.items():
            assert getattr(euler_align, name).__wrapped__ is original, f"euler_align.{name} is not wrapped"
        t = np.geomspace(1.0, 10.0, 12)
        diagnostics.decay_fit(t, t**-0.5)
        assert [span[0] for span in tracer.spans] == ["diagnostics.decay_fit"]
    finally:
        tracer.uninstall()

    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, f"{owner.__name__}.{name} was not restored"
    for name, original in exported.items():
        assert getattr(euler_align, name) is original, f"euler_align.{name} was not restored"


SMALL_SPECTRAL_INI = """
[model]
alpha = 0.5
[grid]
n = 256
half_width = 10.0
[time]
t_end = 0.5
[scheme]
flux_scheme = spectral
image_correction = true
[initial]
mode = proportional
g_coef = 1.0
rho0_kind = gaussian
rho0_width = 0.6
"""


def test_one_step_count_sees_both_velocity_convolutions(tracing):
    """Both stage velocities of a spectral step go through the counted ``fracops.fftconvolve``."""
    counts = tracing.count_one_step(parse_config(SMALL_SPECTRAL_INI))
    assert counts["numpy_fft_calls"] == 8
    assert counts["fftconvolve_calls"] == 2
