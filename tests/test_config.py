"""INI run-configuration parsing, validation, and round-tripping."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from euler_align import (
    ConfigError,
    Field,
    InitialDataSpec,
    ShapeSpec,
    SolverConfig,
    SolverError,
    build_grid,
    dump_config,
    load_config,
    parse_config,
    write_field_csv,
)
from euler_align.config import _SECTION_KEYS

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """
[model]
alpha = 0.5

[grid]
n = 256
half_width = 8.0

[time]
t_end = 1.0

[initial]
mode = proportional
rho0_kind = gaussian
"""

FULL_FEATURED_INI = """\
[model]
alpha = 0.75
epsilon = 0.001

[grid]
n = 512
half_width = 12.5

[time]
t_end = 2.0
cfl = 0.3
output_times = 0.0, 0.5, 2.0

[scheme]
flux_scheme = upwind
image_correction = false

[initial]
mode = independent
rho0_kind = bump
rho0_mass = 2.0
rho0_width = 1.5
rho0_center = -0.5
rho0_amplitude = 1.0
g0_kind = gaussian
g0_mass = 0.5
g0_width = 0.8
g0_center = 0.0
g0_amplitude = 1.0
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.alpha == 0.5 and cfg.n == 256 and cfg.half_width == 8.0
        assert cfg.epsilon is None
        assert cfg.cfl == 0.4
        assert cfg.flux_scheme == "spectral"
        assert cfg.image_correction is True
        assert cfg.output_times is None
        assert cfg.initial.mode == "proportional" and cfg.initial.g_coef == 1.0
        assert cfg.initial.rho0.kind == "gaussian"

    def test_epsilon_auto_and_explicit(self):
        assert parse_config(MINIMAL.replace("alpha = 0.5", "alpha = 0.5\nepsilon = auto")).epsilon is None
        cfg = parse_config(MINIMAL.replace("alpha = 0.5", "alpha = 0.5\nepsilon = 0.01"))
        assert cfg.epsilon == 0.01

    def test_output_times_list(self):
        text = MINIMAL.replace("t_end = 1.0", "t_end = 1.0\noutput_times = 0.0, 0.5, 1.0")
        assert parse_config(text).output_times == (0.0, 0.5, 1.0)

    def test_comments_and_booleans(self):
        text = MINIMAL + "\n[scheme]\nimage_correction = off  # keep periodic images\n"
        assert parse_config(text).image_correction is False

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.ini")):
            cfg = load_config(path)
            assert isinstance(cfg, SolverConfig)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (("[grid]", "[grd]"), "unknown section"),
            (("n = 256", "n = 256\nspacing = 0.1"), "unknown key"),
            (("alpha = 0.5", "alpha = fast"), "not a valid float"),
            (("n = 256", "n = 256.5"), "not a valid int"),
            (("t_end = 1.0", "t_end = 1.0\ncfl = 2.0"), "cfl"),
            (("rho0_kind = gaussian", "rho0_width = 1.0"), "rho0_kind"),
            (("mode = proportional", "mode = proportional\ng0_mass = 1.0"), "g0_kind"),
            (("n = 256", "n = inf"), "not a valid int"),
            (("n = 256", "n = -inf"), "not a valid int"),
            (("n = 256", "n = 1e400"), "not a valid int"),
            (("[initial]", "[scheme]\nimage_correction = maybe\n\n[initial]"), "not a valid boolean"),
            # Several faults: structure, then required keys, then values; a shape before a coefficient.
            (("t_end = 1.0", "cfl = x\nspacing = 1"), "unknown key"),
            (("t_end = 1.0", "cfl = x"), "missing required key 't_end'"),
            (("mode = proportional", "mode = proportional\ng_coef = abc\ng0_mass = 1.0"), "g0_kind"),
        ],
    )
    def test_rejects_malformed_input(self, mutation, message):
        old, new = mutation
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL.replace(old, new))

    @pytest.mark.parametrize(
        "mode, extra, message",
        [
            ("proportional", "g0_kind = bump", "g0 shape applies to independent mode only"),
            ("independent", "g0_kind = bump\nb_coef = 0.5\na_coef = 3.0", "proportional mode only"),
            ("zero_G", "b_coef = 1", "proportional mode only"),
            ("zero_G", "a_coef = 2.0", "proportional mode only"),
            ("zero_G", "g0_kind = gaussian", "g0 shape applies to independent mode only"),
            ("zero_G", "g_coef = 5.0", "proportional mode only"),
            ("independent", "g0_kind = bump\ng_coef = 1.0", "proportional mode only"),
        ],
        ids=["g0-proportional", "coefs-independent", "b-zero_G", "a-zero_G", "g0-zero_G", "g-zero_G", "g-independent"],
    )
    def test_rejects_keys_the_mode_ignores(self, mode, extra, message):
        """A key the initial mode would not read is an error, not silently dropped."""
        text = MINIMAL.replace("mode = proportional", f"mode = {mode}\n{extra}")
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("gaussian", "amplitude", "9.0"),
            ("gaussian", "path", "data.csv"),
            ("bump", "amplitude", "9.0"),
            ("bump", "path", "data.csv"),
            ("getoor", "mass", "7.0"),
            ("getoor", "width", "5.0"),
            ("getoor", "path", "data.csv"),
            ("csv", "mass", "2.0"),
            ("csv", "width", "2.0"),
            ("csv", "amplitude", "2.0"),
            ("csv", "center", "0.5"),
        ],
    )
    def test_rejects_shape_keys_the_kind_does_not_read(self, kind, key, value):
        """A shape key the kind would not read is an error, not silently dropped; its default is accepted."""
        shape = f"rho0_kind = {kind}" + ("\nrho0_path = data.csv" if kind == "csv" else "")
        text = MINIMAL.replace("rho0_kind = gaussian", shape).replace("mode = proportional", "mode = zero_G")
        default = {"mass": "1.0", "width": "1.0", "center": "0.0", "amplitude": "1.0", "path": ""}[key]
        assert parse_config(text + f"rho0_{key} = {default}\n") == parse_config(text)
        with pytest.raises(ConfigError, match=f"invalid rho0 shape: a {kind} shape does not read {key}"):
            parse_config(text + f"rho0_{key} = {value}\n")

    def test_missing_required_key(self):
        text = MINIMAL.replace("t_end = 1.0", "cfl = 0.4")
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(text)

    def test_rejects_default_section(self):
        with pytest.raises(ConfigError, match="DEFAULT"):
            parse_config("[DEFAULT]\nalpha = 0.5\n" + MINIMAL)

    def test_relative_csv_path_resolves_against_base_dir(self, tmp_path):
        grid = build_grid(128, 6.0)
        write_field_csv(tmp_path / "data.csv", Field(grid, np.exp(-grid.x**2)))
        text = MINIMAL.replace(
            "rho0_kind = gaussian", "rho0_kind = csv\nrho0_path = data.csv"
        ).replace("mode = proportional", "mode = zero_G")
        cfg = parse_config(text, base_dir=tmp_path)
        assert Path(cfg.initial.rho0.path) == tmp_path / "data.csv"

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")


class TestDump:
    def _round_trip(self, cfg: SolverConfig) -> SolverConfig:
        return parse_config(dump_config(cfg))

    def test_round_trip_minimal(self):
        cfg = parse_config(MINIMAL)
        assert self._round_trip(cfg) == cfg

    def test_round_trip_shipped_configs(self):
        for path in sorted(CONFIG_DIR.glob("*.ini")):
            cfg = load_config(path)
            assert self._round_trip(cfg) == cfg

    @staticmethod
    def _full_featured() -> SolverConfig:
        return SolverConfig(
            alpha=0.75,
            n=512,
            half_width=12.5,
            t_end=2.0,
            epsilon=1e-3,
            cfl=0.3,
            flux_scheme="upwind",
            output_times=(0.0, 0.5, 2.0),
            image_correction=False,
            initial=InitialDataSpec(
                rho0=ShapeSpec(kind="bump", mass=2.0, width=1.5, center=-0.5),
                mode="independent",
                # An empty path is no path: it dumps as ``g0_path = `` and parses back as None.
                g0=ShapeSpec(kind="gaussian", mass=0.5, width=0.8, path=""),
            ),
        )

    def test_round_trip_full_featured(self):
        cfg = self._full_featured()
        assert self._round_trip(cfg) == cfg

    def test_dump_text_full_featured(self):
        """The exact text a run manifest stores as ``config_ini``."""
        assert dump_config(self._full_featured()) == FULL_FEATURED_INI

    def test_every_field_has_exactly_one_ini_key(self):
        keys = [key for section_keys in _SECTION_KEYS.values() for key in section_keys]
        names = [f.name for f in fields(SolverConfig) if f.name != "initial"]
        names += [f.name for f in fields(InitialDataSpec) if f.name not in ("rho0", "g0")]
        names += [f"{prefix}_{f.name}" for prefix in ("rho0", "g0") for f in fields(ShapeSpec)]
        assert sorted(keys) == sorted(names)

    def test_round_trip_zero_g_getoor(self):
        cfg = SolverConfig(
            alpha=0.25,
            n=256,
            half_width=8.0,
            t_end=1.0,
            initial=InitialDataSpec(
                rho0=ShapeSpec(kind="getoor", amplitude=2.0), mode="zero_G"
            ),
        )
        assert self._round_trip(cfg) == cfg
        # zero_G reads no g_coef, so the dump writes none (parse_config would reject it).
        assert "g_coef" not in dump_config(cfg)

    @staticmethod
    def _csv_config(path: str) -> SolverConfig:
        initial = InitialDataSpec(rho0=ShapeSpec(kind="csv", path=path), mode="zero_G")
        return SolverConfig(alpha=0.5, n=256, half_width=8.0, t_end=1.0, initial=initial)

    @pytest.mark.parametrize("path", ["/tmp/run ;1/rho #2.csv", " /tmp/rho.csv", "/tmp/a.csv\n[grid]\nn = 64"])
    def test_rejects_csv_path_that_does_not_round_trip(self, path):
        with pytest.raises(ConfigError, match="rho0_path") as exc:
            dump_config(self._csv_config(path))
        assert repr(path) in str(exc.value)

    def test_round_trip_csv_path_with_inline_comment_characters(self):
        # The path is kept as written: no slash is merged, dropped or added.
        for path in ("/tmp/run;1/rho#2.csv", "/tmp//a.csv", "./a.csv", "/tmp/a.csv/"):
            cfg = self._csv_config(path)
            assert self._round_trip(cfg) == cfg

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        """Every valid config dumps and parses back to an equal one; ``output_times=()`` is invalid."""
        kwargs = data.draw(_config_kwargs())
        if kwargs["output_times"] == ():
            with pytest.raises(SolverError, match="at least one time"):
                SolverConfig(**kwargs)
            return
        cfg = SolverConfig(**kwargs)
        assert self._round_trip(cfg) == cfg


_POSITIVE = st.floats(min_value=5e-324, max_value=1e300)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)

# Each kind draws only the fields it reads: ShapeSpec rejects any other at a non-default value.
_SHAPES = st.one_of(
    st.builds(ShapeSpec, kind=st.sampled_from(("gaussian", "bump")), mass=_POSITIVE, width=_POSITIVE, center=_FINITE),
    st.builds(ShapeSpec, kind=st.just("getoor"), center=_FINITE, amplitude=_POSITIVE),
    st.builds(ShapeSpec, kind=st.just("csv"),
              path=st.from_regex(r"(\.?/)?[a-z0-9_]{1,8}(//?[a-z0-9_]{1,8})?\.csv/?", fullmatch=True)),
)


@st.composite
def _initial_specs(draw) -> InitialDataSpec:
    mode = draw(st.sampled_from(("proportional", "independent", "zero_G")))
    rho0 = draw(_SHAPES)
    if mode == "proportional":
        b, c, a = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=3, max_size=3)))
        return InitialDataSpec(rho0, mode, g_coef=c, b_coef=draw(st.none() | st.just(b)),
                               a_coef=draw(st.none() | st.just(a)))
    # Only independent mode reads g0, and only proportional mode reads g_coef/b_coef/a_coef.
    g0 = draw(_SHAPES) if mode == "independent" else None
    return InitialDataSpec(rho0, mode, g0=g0)


@st.composite
def _config_kwargs(draw) -> dict:
    t_end = draw(st.floats(0.0, 1e6))
    times = st.lists(st.floats(0.0, t_end), max_size=4, unique=True).map(lambda ts: tuple(sorted(ts)))
    return dict(
        alpha=draw(st.floats(sys.float_info.min, 1.0, exclude_max=True)),
        n=2 * draw(st.integers(4, 1 << 16)),
        half_width=draw(st.floats(1e-6, 1e6)),
        t_end=t_end,
        initial=draw(_initial_specs()),
        epsilon=draw(st.none() | st.floats(0.0, 1e3)),
        cfl=draw(st.floats(0.0, 1.0, exclude_min=True)),
        flux_scheme=draw(st.sampled_from(("spectral", "upwind"))),
        output_times=draw(st.none() | times),
        image_correction=draw(st.booleans()),
    )
