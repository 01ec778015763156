"""Flat INI configuration for solver runs.

The file format mirrors :class:`~euler_align.solver.SolverConfig` field for
field, grouped into five sections::

    [model]    alpha, epsilon ("auto" ties viscosity to the grid spacing)
    [grid]     n, half_width
    [time]     t_end, cfl, output_times (comma-separated, optional)
    [scheme]   flux_scheme (spectral | upwind), image_correction (bool)
    [initial]  mode, g_coef, b_coef, a_coef, rho0_* and g0_* shape keys

Unknown sections or keys are hard errors, not warnings: a silently ignored
typo in ``alpha`` or ``epsilon`` would invalidate an experiment while still
producing plausible-looking output.  ``dump_config`` emits a complete file
that round-trips through ``parse_config`` to an equal configuration.
"""

from __future__ import annotations

import configparser
import re
from pathlib import Path

from .fracops import FracOrderError
from .solver import InitialDataSpec, ShapeSpec, SolverConfig, SolverError

__all__ = ["ConfigError", "dump_config", "load_config", "parse_config"]

# parse_config strips a value, ends it at a "#" or ";" after whitespace (the
# " = " before the value counts) and at a line break (a file read in text mode
# turns "\r" into one), so such a path would come back changed.
_UNSAFE_PATH = re.compile(r"\A\s|\s\Z|(\A|\s)[#;]|[\r\n]")
_SHAPE_KEYS = ("kind", "mass", "width", "center", "amplitude", "path")
_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "model": ("alpha", "epsilon"),
    "grid": ("n", "half_width"),
    "time": ("t_end", "cfl", "output_times"),
    "scheme": ("flux_scheme", "image_correction"),
    "initial": (
        "mode", "g_coef", "b_coef", "a_coef",
        *(f"rho0_{k}" for k in _SHAPE_KEYS),
        *(f"g0_{k}" for k in _SHAPE_KEYS),
    ),
}
_REQUIRED: tuple[tuple[str, str], ...] = (
    ("model", "alpha"),
    ("grid", "n"),
    ("grid", "half_width"),
    ("time", "t_end"),
    ("initial", "rho0_kind"),
)


class ConfigError(ValueError):
    """Raised for unreadable, malformed, or invalid run configurations."""


def _get(parser: configparser.ConfigParser, section: str, key: str) -> str | None:
    if parser.has_option(section, key):
        value = parser.get(section, key).strip()
        return value if value else None
    return None


def _convert(section: str, key: str, raw: str, kind: type) -> float | int:
    try:
        if kind is int:
            as_float = float(raw)
            if as_float != int(as_float):
                raise ValueError
            return int(as_float)
        return float(raw)
    except (ValueError, OverflowError):
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from None


def _convert_bool(section: str, key: str, raw: str) -> bool:
    state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
    if state is None:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid boolean")
    return state


def _shape_from(
    parser: configparser.ConfigParser, prefix: str, base_dir: Path | None
) -> ShapeSpec | None:
    section = "initial"
    raw = {k: _get(parser, section, f"{prefix}_{k}") for k in _SHAPE_KEYS}
    if raw["kind"] is None:
        if any(v is not None for v in raw.values()):
            given = [f"{prefix}_{k}" for k, v in raw.items() if v is not None]
            raise ConfigError(f"{given} given without {prefix}_kind")
        return None
    kwargs: dict[str, object] = {"kind": raw["kind"]}
    for k in ("mass", "width", "center", "amplitude"):
        if raw[k] is not None:
            kwargs[k] = _convert(section, f"{prefix}_{k}", raw[k], float)
    if raw["path"] is not None:
        path = Path(raw["path"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        kwargs["path"] = str(path)
    try:
        return ShapeSpec(**kwargs)  # type: ignore[arg-type]
    except SolverError as exc:
        raise ConfigError(f"invalid {prefix} shape: {exc}") from exc


def parse_config(text: str, base_dir: Path | None = None) -> SolverConfig:
    """Parse INI text into a validated :class:`SolverConfig`.

    Relative CSV shape paths are resolved against ``base_dir`` (normally the
    directory containing the config file) so shipped configs stay portable.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported; use the named sections")
    for section in parser.sections():
        allowed = _SECTION_KEYS.get(section)
        if allowed is None:
            raise ConfigError(f"unknown section [{section}]; expected one of {sorted(_SECTION_KEYS)}")
        for key in parser.options(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]; allowed: {sorted(allowed)}")
    for section, key in _REQUIRED:
        if _get(parser, section, key) is None:
            raise ConfigError(f"missing required key {key!r} in [{section}]")

    alpha = _convert("model", "alpha", _get(parser, "model", "alpha"), float)  # type: ignore[arg-type]
    eps_raw = _get(parser, "model", "epsilon")
    epsilon = None if eps_raw in (None, "auto") else _convert("model", "epsilon", eps_raw, float)

    n = _convert("grid", "n", _get(parser, "grid", "n"), int)  # type: ignore[arg-type]
    half_width = _convert("grid", "half_width", _get(parser, "grid", "half_width"), float)  # type: ignore[arg-type]

    t_end = _convert("time", "t_end", _get(parser, "time", "t_end"), float)  # type: ignore[arg-type]
    cfl_raw = _get(parser, "time", "cfl")
    cfl = 0.4 if cfl_raw is None else _convert("time", "cfl", cfl_raw, float)
    times_raw = _get(parser, "time", "output_times")
    output_times = None
    if times_raw is not None:
        output_times = tuple(
            _convert("time", "output_times", piece.strip(), float)
            for piece in times_raw.split(",")
            if piece.strip()
        )
        if not output_times:
            output_times = None

    scheme_raw = _get(parser, "scheme", "flux_scheme")
    flux_scheme = "spectral" if scheme_raw is None else scheme_raw
    image_raw = _get(parser, "scheme", "image_correction")
    image_correction = True if image_raw is None else _convert_bool("scheme", "image_correction", image_raw)

    mode = _get(parser, "initial", "mode") or "proportional"
    rho0 = _shape_from(parser, "rho0", base_dir)
    g0 = _shape_from(parser, "g0", base_dir)
    init_kwargs: dict[str, object] = {"rho0": rho0, "mode": mode}
    for key in ("g_coef", "b_coef", "a_coef"):
        raw = _get(parser, "initial", key)
        if raw is not None:
            init_kwargs[key] = _convert("initial", key, raw, float)
    if g0 is not None:
        init_kwargs["g0"] = g0

    try:
        initial = InitialDataSpec(**init_kwargs)  # type: ignore[arg-type]
        return SolverConfig(
            alpha=alpha,
            n=n,
            half_width=half_width,
            t_end=t_end,
            initial=initial,
            epsilon=epsilon,
            cfl=cfl,
            flux_scheme=flux_scheme,
            output_times=output_times,
            image_correction=image_correction,
        )
    except (SolverError, FracOrderError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> SolverConfig:
    """Read and parse a config file; all failures raise :class:`ConfigError`."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, base_dir=p.parent)


def _shape_lines(prefix: str, shape: ShapeSpec) -> list[str]:
    # Every field, also those the kind does not read, so that the dump
    # parses back to an equal ShapeSpec.
    lines = [f"{prefix}_kind = {shape.kind}"]
    lines += [f"{prefix}_{k} = {getattr(shape, k)!r}" for k in ("mass", "width", "center", "amplitude")]
    if shape.path is not None:
        if _UNSAFE_PATH.search(shape.path):
            raise ConfigError(f"{prefix}_path {shape.path!r} does not survive the INI round trip "
                              "(whitespace at an end, '#' or ';' after whitespace, or a line break)")
        lines.append(f"{prefix}_path = {shape.path}")
    return lines


def dump_config(cfg: SolverConfig) -> str:
    """Render a config as INI text; ``parse_config`` recovers an equal config."""
    eps = "auto" if cfg.epsilon is None else repr(cfg.epsilon)
    lines = [
        "[model]",
        f"alpha = {cfg.alpha!r}",
        f"epsilon = {eps}",
        "",
        "[grid]",
        f"n = {cfg.n}",
        f"half_width = {cfg.half_width!r}",
        "",
        "[time]",
        f"t_end = {cfg.t_end!r}",
        f"cfl = {cfg.cfl!r}",
    ]
    if cfg.output_times is not None:
        lines.append("output_times = " + ", ".join(repr(t) for t in cfg.output_times))
    lines += [
        "",
        "[scheme]",
        f"flux_scheme = {cfg.flux_scheme}",
        f"image_correction = {str(cfg.image_correction).lower()}",
        "",
        "[initial]",
        f"mode = {cfg.initial.mode}",
    ]
    lines.append(f"g_coef = {cfg.initial.g_coef!r}")
    for key in ("b_coef", "a_coef"):
        value = getattr(cfg.initial, key)
        if value is not None:
            lines.append(f"{key} = {value!r}")
    lines += _shape_lines("rho0", cfg.initial.rho0)
    if cfg.initial.g0 is not None:
        lines += _shape_lines("g0", cfg.initial.g0)
    return "\n".join(lines) + "\n"
