"""Tests of the benchmark harness itself.

Run from the repository root with:  python3 -m pytest perfbench/test_harness.py
The metric test runs every workload at its minimum length and takes a few
minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from euler_align import config, solver  # noqa: E402
from euler_align.solver import InitialDataSpec, ShapeSpec, SolverConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def result_of(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run_bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace))
    result = result_of(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line
                   for line in out.stdout.splitlines()), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_negative_control_makes_failed_ratio_nonzero():
    result = result_of(run_bench("--workload", "operators", "--seconds", "0", "--negative-control"))
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_seed_zero_uses_shipped_and_acceptance_inputs_verbatim(tmp_path):
    configs = workloads.Configs1024(ROOT, tmp_path / "c", 0)
    assert len(configs.inputs) == 4
    for stem, path, _ in configs.inputs:
        assert path.read_bytes() == (ROOT / "configs" / f"{stem}.ini").read_bytes()

    decay_run = SolverConfig(
        alpha=0.5, n=8192, half_width=64.0, t_end=10.0,
        initial=InitialDataSpec(rho0=ShapeSpec(kind="gaussian", mass=1.0, width=0.1),
                                mode="proportional", g_coef=4.0),
        flux_scheme="spectral",
    )
    spectral = workloads.Spectral8192(ROOT, tmp_path / "s", 0)
    assert replace(spectral.cfg, t_end=10.0, output_times=None) == decay_run

    criterion_8 = SolverConfig(
        alpha=0.75, n=2048, half_width=8.0, t_end=2.0,
        initial=InitialDataSpec(rho0=ShapeSpec(kind="bump", mass=1.0, width=2.0),
                                mode="proportional", g_coef=1.0),
        flux_scheme="spectral",
    )
    assert workloads.ScalingSweep(ROOT, tmp_path / "r", 0).base == criterion_8
    assert (workloads.Operators.SELFTEST_SEED, workloads.Operators.XVAL_SEED) == (0, 20240817)


@pytest.mark.parametrize("seed", [1, 2, 7, 123])
def test_other_seeds_change_inputs_and_keep_the_support_inside(tmp_path, seed):
    base = workloads.Configs1024(ROOT, tmp_path / "zero", 0)
    seeded = workloads.Configs1024(ROOT, tmp_path / "seeded", seed)
    again = workloads.Configs1024(ROOT, tmp_path / "again", seed)
    shift, scale = workloads.perturbation(seed)
    assert 0 < abs(shift) <= workloads.CENTRE_SHIFT
    assert 0 < abs(scale - 1.0) <= workloads.WIDTH_SCALE
    for (_, p0, _), (_, p1, cfg), (_, p2, _) in zip(base.inputs, seeded.inputs, again.inputs):
        assert p1.read_text() != p0.read_text()
        assert p1.read_text() == p2.read_text()
        assert config.load_config(p1) == cfg
        solver.make_initial_state(cfg.initial, cfg.make_grid(), cfg.alpha)  # support check
    pairs = (
        (workloads.Spectral8192(ROOT, tmp_path / "s0", 0).cfg, workloads.Spectral8192(ROOT, tmp_path / "s", seed).cfg),
        (workloads.ScalingSweep(ROOT, tmp_path / "r0", 0).base, workloads.ScalingSweep(ROOT, tmp_path / "r", seed).base),
    )
    for cfg0, cfg in pairs:
        assert cfg.initial.rho0 != cfg0.initial.rho0
        assert replace(cfg, initial=cfg0.initial) == cfg0
        solver.make_initial_state(cfg.initial, cfg.make_grid(), cfg.alpha)


def test_spectral_step_counts_match_the_baseline(tmp_path):
    cfg = workloads.Spectral8192(ROOT, tmp_path, 0).cfg
    assert tracing.count_one_step(cfg) == tracing.BASELINE_ONE_STEP


def test_uninstall_restores_every_patched_name():
    def snapshot():
        return {(id(obj), name): value for obj in (*tracing._MODULES, tracing.numpy.fft, tracing.scipy.fft)
                for name, value in vars(obj).items()}

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.uninstall()
    assert snapshot() == before


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["solver.run", 0.0, 10.0, -1, 0],
        ["solver.step", 1.0, 5.0, 0, 0],
        ["fracops.velocity_from_state", 2.0, 3.0, 1, 0],
        ["solver.step", 6.0, 7.0, 0, 0],
        ["solver.step", 20.0, 30.0, -1, -1],  # outside any iteration: ignored
    ]
    stats = tracing.SpanStats(spans)
    assert stats.self_time["solver.run"] == 5.0
    assert stats.self_time["solver.step"] == 4.0
    assert stats.total["solver.step"] == 5.0
    assert stats.calls["solver.step"] == 2
    assert stats.outer["solver"] == 10.0
    assert stats.outer["fracops"] == 1.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                    root=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
