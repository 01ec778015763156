"""Command-line interface: exit codes, manifests, artifacts, determinism."""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euler_align import load_trajectory
from euler_align.cli import VERIFY_CHECKS, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SMALL_RUN = """
[model]
alpha = 0.5

[grid]
n = 256
half_width = 8.0

[time]
t_end = 0.25
output_times = 0.0, 0.25

[initial]
mode = proportional
rho0_kind = gaussian
rho0_width = 0.5
"""

DECAY_RUN = """
[model]
alpha = 0.5

[grid]
n = 1024
half_width = 24.0

[time]
t_end = 10.0
output_times = 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0

[initial]
mode = proportional
rho0_kind = gaussian
rho0_width = 1.0
"""

SCALING_BASE = """
[model]
alpha = 0.5

[grid]
n = 512
half_width = 8.0

[time]
t_end = 1.0

[initial]
mode = proportional
rho0_kind = bump
rho0_width = 2.0
"""

BARENBLATT_BASE = SCALING_BASE.replace("mode = proportional", "mode = zero_G").replace(
    "rho0_kind = bump", "rho0_kind = gaussian"
).replace("rho0_width = 2.0", "rho0_width = 0.5").replace("half_width = 8.0", "half_width = 12.0")


def _manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSelftestCommand:
    def test_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "st"
        assert main(["selftest", "--out", str(out)]) == 0
        manifest = _manifest(out)
        assert manifest["command"] == "selftest"
        assert manifest["failure"] is None
        report = json.loads((out / "selftest_report.json").read_text())
        assert report["passed"] is True

    def test_negative_control_exits_one(self, tmp_path):
        out = tmp_path / "st_bad"
        assert main(["selftest", "--out", str(out), "--inject-hilbert-sign-error"]) == 1
        assert _manifest(out)["failure"] is not None

    def test_negative_seed_exits_two_with_manifest(self, tmp_path):
        out = tmp_path / "st_seed"
        assert main(["selftest", "--seed", "-1", "--out", str(out)]) == 2
        assert "non-negative" in _manifest(out)["failure"]


class TestSimulateCommand:
    def test_small_run_exits_zero(self, tmp_path):
        cfg = _write(tmp_path, "run.ini", SMALL_RUN)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = _manifest(out)
        assert manifest["failure"] is None
        assert all(c["passed"] for c in manifest["checks"].values())
        names = {p.name for p in out.iterdir()}
        assert {"summary.csv", "state_000.csv", "state_001.csv"} <= names

    def test_manifest_keeps_the_run_wall_time(self, tmp_path):
        out = tmp_path / "gauss"
        assert main(["simulate", "--config", str(CONFIG_DIR / "gaussian_spectral.ini"), "--out", str(out)]) == 0
        manifest = _manifest(out)
        assert load_trajectory(out).wall_time == manifest["run_wall_time_seconds"] < manifest["wall_time_seconds"]

    def test_zero_horizon_writes_single_state(self, tmp_path):
        cfg = _write(tmp_path, "zero.ini", SMALL_RUN.replace(
            "t_end = 0.25", "t_end = 0.0").replace("output_times = 0.0, 0.25", ""))
        out = tmp_path / "zero"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        states = [e["file"] for e in _manifest(out)["states"]]
        assert states == ["state_000.csv"]

    def test_bad_config_exits_two_with_manifest(self, tmp_path):
        cfg = _write(tmp_path, "bad.ini", SMALL_RUN.replace("alpha = 0.5", "alpha = 1.5"))
        out = tmp_path / "bad"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert _manifest(out)["failure"] is not None

    def test_key_the_mode_ignores_exits_two_with_manifest(self, tmp_path):
        cfg = _write(tmp_path, "ignored.ini", SMALL_RUN.replace("mode = proportional", "mode = zero_G\nb_coef = 1"))
        out = tmp_path / "ignored"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "proportional mode only" in _manifest(out)["failure"]

    def test_g_coef_outside_proportional_mode_exits_two(self, tmp_path):
        text = SMALL_RUN.replace("mode = proportional", "mode = zero_G\ng_coef = 5.0")
        out = tmp_path / "zero_g_coef"
        assert main(["simulate", "--config", str(_write(tmp_path, "g.ini", text)), "--out", str(out)]) == 2
        assert "proportional mode only" in _manifest(out)["failure"]

    def test_g_coef_whose_velocity_kernel_overflows_exits_two_naming_it(self, tmp_path, capsys):
        """A finite g_coef can still overflow the velocity kernel; the error names the coefficient."""
        text = SMALL_RUN.replace("mode = proportional", "mode = proportional\ng_coef = 1e308")
        out = tmp_path / "huge_g_coef"
        assert main(["simulate", "--config", str(_write(tmp_path, "g.ini", text)), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: g_coef = 1e+308 gives a non-finite velocity kernel"]
        assert "g_coef = 1e+308" in _manifest(out)["failure"]

    def test_shape_key_the_kind_ignores_exits_two_with_manifest(self, tmp_path):
        cfg = _write(tmp_path, "ignored.ini", SMALL_RUN.replace("rho0_kind = gaussian", "rho0_kind = getoor"))
        out = tmp_path / "ignored"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "a getoor shape does not read width" in _manifest(out)["failure"]

    @pytest.mark.parametrize(
        "old, new, cause",
        [
            ("n = 256", "n = 1e20", "cannot allocate a grid of n = 100000000000000000000 points"),
            ("n = 256", f"n = {1 << 62}", f"cannot allocate a grid of n = {1 << 62} points"),
            ("half_width = 8.0", "half_width = 1e308", "grid spacing h = 2L/n = inf"),
        ],
        ids=["n_beyond_intp", "n_beyond_bytes", "infinite_spacing"],
    )
    def test_grid_that_cannot_be_built_exits_two_with_one_error_line(self, tmp_path, capsys, old, new, cause):
        """numpy refuses these sizes before it allocates anything; the spacing overflows to inf."""
        cfg = _write(tmp_path, "grid.ini", SMALL_RUN.replace(old, new))
        out = tmp_path / "grid"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {cause}")
        assert cause in _manifest(out)["failure"]

    def test_infinite_grid_size_exits_two_with_manifest(self, tmp_path):
        cfg = _write(tmp_path, "inf.ini", SMALL_RUN.replace("n = 256", "n = inf"))
        out = tmp_path / "inf"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "not a valid int" in _manifest(out)["failure"]

    def test_runtime_abort_exits_three_with_manifest(self, tmp_path):
        boundary = SMALL_RUN.replace("half_width = 8.0", "half_width = 3.0").replace(
            "rho0_width = 0.5", "rho0_width = 0.2\ng_coef = 4.0"
        ).replace("t_end = 0.25", "t_end = 10.0").replace("output_times = 0.0, 0.25", "")
        cfg = _write(tmp_path, "abort.ini", boundary)
        out = tmp_path / "abort"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        manifest = _manifest(out)
        assert "boundary margin" in manifest["failure"]

    @pytest.mark.parametrize(
        "bad_sample, reason",
        [(None, "rho0.csv not found"), ("nan", "non-finite"), ("abc", "could not convert")],
        ids=["missing", "non_finite", "unparsable"],
    )
    def test_unreadable_initial_csv_exits_two_with_manifest(self, tmp_path, bad_sample, reason):
        if bad_sample is not None:
            x = -8.0 + np.arange(256) * (16.0 / 256)
            values = [f"{v:.17g}" for v in np.exp(-x**2)]
            values[100] = bad_sample
            rows = "".join(f"{xv:.17g},{v}\n" for xv, v in zip(x, values))
            (tmp_path / "rho0.csv").write_text("# x,value\n" + rows)
        cfg = _write(tmp_path, "csv.ini", SMALL_RUN.replace(  # a csv shape reads no width
            "rho0_kind = gaussian\nrho0_width = 0.5", "rho0_kind = csv\nrho0_path = rho0.csv"))
        out = tmp_path / "csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = _manifest(out)
        assert reason in manifest["failure"] and manifest["files"] == []

    def test_csv_path_that_cannot_be_stored_exits_two_before_the_run(self, tmp_path):
        # The config's directory name carries an INI inline comment, and the csv
        # path is resolved against it; the CSV itself is never read.
        folder = tmp_path / "runs #1"
        folder.mkdir()
        cfg = _write(folder, "csv.ini", SMALL_RUN.replace(  # a csv shape reads no width
            "rho0_kind = gaussian\nrho0_width = 0.5", "rho0_kind = csv\nrho0_path = rho0.csv"))
        out = tmp_path / "csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = _manifest(out)
        assert "does not survive the INI round trip" in manifest["failure"] and manifest["files"] == []

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, "det.ini", SMALL_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("summary.csv", "state_000.csv", "state_001.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unexpected_error_writes_manifest_and_propagates(self, tmp_path, monkeypatch):
        def crash(cfg):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr("euler_align.cli.run", crash)
        cfg = _write(tmp_path, "crash.ini", SMALL_RUN)
        out = tmp_path / "crash"
        with pytest.raises(ZeroDivisionError):
            main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert "ZeroDivisionError" in _manifest(out)["failure"]

    def test_environment_variable_overrides_out(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, "env.ini", SMALL_RUN)
        target = tmp_path / "env_out"
        monkeypatch.setenv("EULER_ALIGN_OUT", str(target))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (target / "manifest.json").exists()


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify_runs")
    cfg = _write(tmp, "run.ini", SMALL_RUN)
    out = tmp / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestVerifyCommand:
    def test_default_checks_pass(self, rundir):
        assert main(["verify", str(rundir)]) == 0
        manifest = _manifest(rundir / "verify")
        assert {"mass_rho", "mass_G", "max_principle", "comparison"} <= set(manifest["checks"])
        assert manifest["failure"] is None
        assert manifest["checks"]["comparison"] == _manifest(rundir)["checks"]["comparison"]

    def test_explicit_out_and_subset(self, rundir, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", str(rundir), "--which", "mass", "--out", str(out)]) == 0
        assert set(_manifest(out)["checks"]) == {"mass_rho", "mass_G"}

    def test_unknown_check_exits_two(self, rundir, tmp_path):
        out = tmp_path / "vbad"
        assert main(["verify", str(rundir), "--which", "entropy", "--out", str(out)]) == 2
        assert "unknown checks" in _manifest(out)["failure"]

    def test_missing_rundir_exits_two(self, tmp_path):
        out = tmp_path / "vmissing"
        assert main(["verify", str(tmp_path / "nope"), "--out", str(out)]) == 2
        assert "cannot load run directory" in _manifest(out)["failure"]

    def test_missing_rundir_with_default_out_creates_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EULER_ALIGN_OUT", raising=False)
        missing = tmp_path / "nope"
        assert main(["verify", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(missing) in err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_run_manifest_exits_two(self, rundir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(rundir, broken)
        manifest = _manifest(broken)
        manifest["config_ini"] += "rho0_bogus = 1.0\n"
        (broken / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "vbroken"
        assert main(["verify", str(broken), "--out", str(out)]) == 2
        assert "cannot load run directory" in _manifest(out)["failure"]

    def test_manifest_without_config_ini_exits_two(self, rundir, tmp_path):
        old = tmp_path / "old"
        shutil.copytree(rundir, old)
        manifest = _manifest(old)
        del manifest["config_ini"]
        (old / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "vold"
        assert main(["verify", str(old), "--out", str(out)]) == 2
        failure = _manifest(out)["failure"]
        assert "cannot load run directory" in failure and "'config_ini'" in failure

    def test_state_file_with_a_wrong_interior_x_exits_two(self, rundir, tmp_path):
        """Only x[0] of a state file used to be compared with the grid, so this run loaded without a word."""
        shifted = tmp_path / "shifted"
        shutil.copytree(rundir, shifted)
        name = _manifest(shifted)["states"][-1]["file"]
        lines = (shifted / name).read_text().splitlines(keepends=True)
        row = len(lines) // 2
        x, rest = lines[row].split(",", 1)
        lines[row] = f"{float(x) + 1e-3!r},{rest}"
        (shifted / name).write_text("".join(lines))
        out = tmp_path / "vshifted"
        assert main(["verify", str(shifted), "--out", str(out)]) == 2
        failure = _manifest(out)["failure"]
        assert "cannot load run directory" in failure and f"state file {name} grid does not match" in failure

    def test_oleinik_on_too_few_states_exits_two(self, rundir, tmp_path):
        """The run stores t = 0 and t = 0.25 only: no growth exponent, so no pass."""
        out = tmp_path / "voleinik"
        assert main(["verify", str(rundir), "--which", "oleinik", "--out", str(out)]) == 2
        manifest = _manifest(out)
        assert "upper half" in manifest["failure"] and "oleinik_bounded" not in manifest["checks"]

    def test_decay_and_oleinik_on_long_run(self, tmp_path):
        cfg = _write(tmp_path, "decay.ini", DECAY_RUN)
        rundir = tmp_path / "decay"
        assert main(["simulate", "--config", str(cfg), "--out", str(rundir)]) == 0
        out = tmp_path / "vdecay"
        code = main(["verify", str(rundir), "--which", "decay,oleinik", "--out", str(out)])
        assert code == 0
        checks = _manifest(out)["checks"]
        assert checks["oleinik_bounded"]["passed"]
        assert {"decay_bound_p2", "decay_bound_p4"} <= set(checks)


class TestScalingCommand:
    def test_rarefaction_smoke(self, tmp_path):
        cfg = _write(tmp_path, "base.ini", SCALING_BASE)
        out = tmp_path / "sc"
        code = main([
            "scaling", "--config", str(cfg), "--mode", "rarefaction",
            "--lambdas", "1,2", "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        manifest = _manifest(out)
        assert manifest["report"]["mode"] == "rarefaction"
        table = np.loadtxt(out / "scaling.csv", delimiter=",", ndmin=2)
        assert table.shape == (2, 7)
        assert (out / "scaling.gp").exists()

    def test_barenblatt_smoke(self, tmp_path):
        base = SCALING_BASE.replace("mode = proportional", "mode = zero_G").replace(
            "rho0_kind = bump", "rho0_kind = gaussian"
        ).replace("rho0_width = 2.0", "rho0_width = 0.5").replace(
            "half_width = 8.0", "half_width = 12.0"
        )
        cfg = _write(tmp_path, "bb.ini", base)
        out = tmp_path / "bb"
        code = main([
            "scaling", "--config", str(cfg), "--mode", "barenblatt",
            "--lambdas", "1,2", "--jobs", "1", "--out", str(out),
        ])
        assert code == 0
        table = np.loadtxt(out / "scaling.csv", delimiter=",", ndmin=2)
        assert table.shape == (2, 2)

    def test_bad_lambdas_exit_two(self, tmp_path):
        cfg = _write(tmp_path, "base.ini", SCALING_BASE)
        out = tmp_path / "scbad"
        code = main([
            "scaling", "--config", str(cfg), "--mode", "rarefaction",
            "--lambdas", "4,2", "--out", str(out),
        ])
        assert code == 2
        assert _manifest(out)["failure"] is not None

    @pytest.mark.parametrize("mode, lambdas", [("barenblatt", "1"), ("rarefaction", "2")])
    def test_single_lambda_exits_two_before_any_run(self, tmp_path, monkeypatch, mode, lambdas):
        """One lambda has no distance to compare, so every monotonicity check would pass vacuously."""
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("euler_align.cli.scaling_limit_experiment", no_run)
        monkeypatch.setattr("euler_align.cli.barenblatt_limit_experiment", no_run)
        cfg = _write(tmp_path, "base.ini", SCALING_BASE if mode == "rarefaction" else BARENBLATT_BASE)
        out = tmp_path / "scone"
        code = main([
            "scaling", "--config", str(cfg), "--mode", mode,
            "--lambdas", lambdas, "--jobs", "1", "--out", str(out),
        ])
        assert code == 2
        assert "--lambdas needs at least two values" in _manifest(out)["failure"]

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_two(self, tmp_path, jobs):
        cfg = _write(tmp_path, "base.ini", SCALING_BASE)
        out = tmp_path / "scjobs"
        code = main([
            "scaling", "--config", str(cfg), "--mode", "rarefaction",
            "--lambdas", "1,2", f"--jobs={jobs}", "--out", str(out),
        ])
        assert code == 2
        assert "--jobs must be a positive integer" in _manifest(out)["failure"]

    @pytest.mark.parametrize("mode", ["barenblatt", "rarefaction"])
    @pytest.mark.parametrize("lambdas", ["1,nan", "1,inf"])
    def test_non_finite_lambdas_exit_two_with_manifest(self, tmp_path, mode, lambdas):
        cfg = _write(tmp_path, "base.ini", SCALING_BASE)
        out = tmp_path / "scnan"
        code = main([
            "scaling", "--config", str(cfg), "--mode", mode,
            "--lambdas", lambdas, "--jobs", "1", "--out", str(out),
        ])
        assert code == 2
        assert "lambdas must be finite" in _manifest(out)["failure"]

    @pytest.mark.parametrize(
        "mode, option", [("rarefaction", "--q=0"), ("rarefaction", "--q=nan"), ("barenblatt", "--p=0")]
    )
    def test_distance_exponent_below_one_exits_two_with_manifest(self, tmp_path, mode, option):
        base = SCALING_BASE if mode == "rarefaction" else BARENBLATT_BASE
        cfg = _write(tmp_path, "base.ini", base)
        out = tmp_path / "scexp"
        code = main([
            "scaling", "--config", str(cfg), "--mode", mode,
            "--lambdas", "1,2", "--jobs", "1", option, "--out", str(out),
        ])
        assert code == 2
        assert f"distance exponent {option[2]}" in _manifest(out)["failure"]

    @pytest.mark.parametrize(
        "mode, initial",
        [("barenblatt", "mode = zero_G"), ("rarefaction", "mode = proportional")],
        ids=["barenblatt", "rarefaction"],
    )
    def test_missing_initial_csv_exits_two_with_manifest(self, tmp_path, mode, initial):
        base = SCALING_BASE.replace("mode = proportional", initial).replace(
            "rho0_kind = bump\nrho0_width = 2.0", "rho0_kind = csv\nrho0_path = rho0.csv"  # a csv shape reads no width
        )
        cfg = _write(tmp_path, "csv.ini", base)
        out = tmp_path / "sccsv"
        code = main([
            "scaling", "--config", str(cfg), "--mode", mode,
            "--lambdas", "1,2", "--jobs", "1", "--out", str(out),
        ])
        assert code == 2
        manifest = _manifest(out)
        assert "rho0.csv" in manifest["failure"] and manifest["files"] == []


class TestProfilesCommand:
    def test_writes_profile_table(self, tmp_path):
        out = tmp_path / "prof"
        assert main(["profiles", "--alpha", "0.5", "--out", str(out)]) == 0
        table = np.loadtxt(out / "profile.csv", delimiter=",", ndmin=2)
        assert table.shape[1] == 4
        assert np.isfinite(table).all()
        assert (out / "profiles.gp").exists()

    def test_alpha_out_of_range_exits_two(self, tmp_path):
        out = tmp_path / "profbad"
        assert main(["profiles", "--alpha", "1.2", "--out", str(out)]) == 2

    def test_subnormal_alpha_exits_two_with_manifest(self, tmp_path):
        out = tmp_path / "profsub"
        assert main(["profiles", "--alpha=5e-324", "--out", str(out)]) == 2
        assert "normal float" in _manifest(out)["failure"]

    def test_alpha_just_below_one_is_printed_exactly(self, tmp_path, capsys):
        """An order that ``:g`` would round to 1, outside (0, 1), is reported as parsed."""
        out = tmp_path / "profnear1"
        assert main(["profiles", "--alpha", "0.9999999999999999", "--out", str(out)]) == 0
        assert "(alpha=0.9999999999999999, 1536 points)" in capsys.readouterr().out
        assert 'set title "profile family, alpha = 0.9999999999999999"' in (out / "profiles.gp").read_text()
        assert _manifest(out)["alpha"] == 0.9999999999999999

    def test_smallest_normal_alpha_tabulates_finite_values(self, tmp_path):
        out = tmp_path / "profmin"
        assert main(["profiles", f"--alpha={sys.float_info.min!r}", "--out", str(out)]) == 0
        assert np.isfinite(np.loadtxt(out / "profile.csv", delimiter=",")).all()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["profiles"], ["selftest"]], ids=["profiles", "selftest"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_blocked_by_a_file_exits_two(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "sub" if below else blocker
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert blocker.read_text() == "keep\n"


@pytest.fixture(scope="module")
def scaling_config(tmp_path_factory):
    return _write(tmp_path_factory.mktemp("fuzz_config"), "base.ini", SCALING_BASE)


def _rejected_exponent():
    return st.one_of(st.floats(max_value=1.0, exclude_max=True), st.just(math.nan))


def _rejected_lambdas():
    """Dilation lists that fail parsing or validation, so no solver run starts."""
    bad_values = st.lists(st.floats(), min_size=1).filter(lambda v: not all(1 <= x < math.inf for x in v))
    no_digits = st.text().filter(lambda t: not any(c.isdigit() for c in t))
    return st.one_of(bad_values.map(lambda v: ",".join(map(repr, v))), no_digits)


_SUBNORMAL_ALPHA = st.floats(min_value=0.0, max_value=sys.float_info.min, exclude_max=True).map(repr)

_CLI_FUZZ_ARGS = st.one_of(
    st.tuples(st.just("profiles"), st.one_of(st.text(), _SUBNORMAL_ALPHA)),
    st.tuples(st.just("verify"), st.one_of(st.text(), st.lists(st.sampled_from(VERIFY_CHECKS + ("", " x"))).map(",".join))),
    st.tuples(st.just("scaling-lambdas"), _rejected_lambdas()),
    st.tuples(st.just("scaling-q"), _rejected_exponent().map(repr)),
    st.tuples(st.just("scaling-p"), _rejected_exponent().map(repr)),
)


# A passing upwind run of two steps on 64 nodes.  The edits below keep it that
# small: no token or inserted line holds a number that could enlarge the grid,
# the horizon or the step count.
TINY_RUN = SMALL_RUN.replace("n = 256", "n = 64").replace("t_end = 0.25", "t_end = 0.05").replace(
    "output_times = 0.0, 0.25", "output_times = 0.0, 0.05"
).replace("[initial]", "[scheme]\nflux_scheme = upwind\n\n[initial]")

_CONFIG_TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "0.5", "2", "1e999", "1e-320", "auto",
                     "yes", "maybe", "spectral", "zero_G", "independent", "csv", "bump", "getoor",
                     "missing.csv", ".", "0.05, 0.0", "0.0, 0.05, 0.05", "%(alpha)s"]),
    st.text().filter(lambda t: not any(c.isdigit() for c in t)),
)
_CONFIG_LINES = st.one_of(
    st.sampled_from(["[model]", "[grid]", "[DEFAULT]", "[nosuch]", "[grid", "alpha", "= 0.5",
                     "n = 64", "  continued", "epsilon = auto", "cfl = 0.5", "flux_scheme = upwind",
                     "image_correction = no", "mode = zero_G", "rho0_kind = csv", "g0_kind = bump",
                     "rho0_path = missing.csv", "# comment", "; comment"]),
    st.text().filter(lambda t: not any(c.isdigit() for c in t)),
)
_CONFIG_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), st.integers(0, 40), st.just("")),
        st.tuples(st.just("value"), st.integers(0, 40), _CONFIG_TOKENS),
        st.tuples(st.just("insert"), st.integers(0, 40), _CONFIG_LINES),
    ),
    min_size=1,
    max_size=3,
)


class TestContractFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=_CLI_FUZZ_ARGS)
    def test_exit_code_and_manifest(self, case, rundir, scaling_config, tmp_path_factory):
        """Any argument text exits 0, 1 or 2 with a manifest whose failure is set iff the exit is nonzero."""
        kind, text = case
        out = tmp_path_factory.mktemp("fuzz")
        scaling = ["scaling", "--config", str(scaling_config), "--jobs", "1", "--out", str(out)]
        argv = {
            "profiles": ["profiles", f"--alpha={text}", "--out", str(out)],
            "verify": ["verify", str(rundir), f"--which={text}", "--out", str(out)],
            "scaling-lambdas": scaling + ["--mode", "rarefaction", f"--lambdas={text}"],
            "scaling-q": scaling + ["--mode", "rarefaction", "--lambdas", "1,2", f"--q={text}"],
            "scaling-p": scaling + ["--mode", "barenblatt", "--lambdas", "1,2", f"--p={text}"],
        }[kind]
        code = main(argv)
        assert code in (0, 1, 2)
        assert (_manifest(out)["failure"] is None) == (code == 0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(edits=_CONFIG_EDITS)
    def test_malformed_config_exit_code_and_manifest(self, edits, tmp_path_factory):
        """A damaged INI file makes `simulate` exit 0-3 and always leaves a manifest."""
        tmp = tmp_path_factory.mktemp("inifuzz")
        lines = TINY_RUN.strip().splitlines()
        for op, index, text in edits:
            i = index % (len(lines) + 1)
            if op == "insert":
                lines.insert(i, text)
            elif i == len(lines):
                continue
            elif op == "drop":
                del lines[i]
            else:
                key, sep, _ = lines[i].partition("=")
                lines[i] = f"{key}= {text}" if sep else text
        cfg = _write(tmp, "fuzz.ini", "\n".join(lines) + "\n")
        out = tmp / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert (_manifest(out)["failure"] is None) == (code == 0)
