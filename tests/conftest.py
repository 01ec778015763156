"""Shared fixtures: seeded randomness and a small reference run."""

from __future__ import annotations

import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import euler_align
from euler_align import fracops
from euler_align import (
    InitialDataSpec,
    ShapeSpec,
    SolverConfig,
    Trajectory,
    run,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def fresh_workspaces(monkeypatch):
    """An empty cache of shared workspaces (``fracops.workspace``) for one test; the process's cache returns after.

    Tests that count workspace or kernel builds use it, so that their counts
    do not depend on what earlier tests left in the cache.
    """
    monkeypatch.setattr(fracops, "_SHARED", {})
    return fracops._SHARED


@pytest.fixture
def fresh_python():
    """Run Python code in a new interpreter that imports this checkout's package; return stdout."""
    src = str(Path(euler_align.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_code(code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run_code


@pytest.fixture(scope="session")
def small_proportional_run() -> Trajectory:
    """Short proportional-data run shared by solver/diagnostics/CLI tests."""
    cfg = SolverConfig(
        alpha=0.5,
        n=512,
        half_width=8.0,
        t_end=0.5,
        initial=InitialDataSpec(ShapeSpec("gaussian", width=0.5)),
        output_times=(0.0, 0.25, 0.5),
    )
    return run(cfg)


@pytest.fixture(scope="session")
def decade_proportional_run() -> Trajectory:
    """Run to t = 10 with enough outputs for decay and slope-series checks."""
    cfg = SolverConfig(
        alpha=0.5,
        n=1024,
        half_width=24.0,
        t_end=10.0,
        initial=InitialDataSpec(ShapeSpec("gaussian", width=1.0)),
        output_times=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0),
    )
    return run(cfg)
