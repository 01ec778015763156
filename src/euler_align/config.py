"""Flat INI configuration for solver runs.

The file format mirrors :class:`~euler_align.solver.SolverConfig` field for
field, grouped into five sections::

    [model]    alpha, epsilon ("auto" ties viscosity to the grid spacing)
    [grid]     n, half_width
    [time]     t_end, cfl, output_times (comma-separated, optional)
    [scheme]   flux_scheme (spectral | upwind), image_correction (bool)
    [initial]  mode, g_coef, b_coef, a_coef, rho0_* and g0_* shape keys

``_SECTION_KEYS`` is the one list of keys, and the dataclasses hold the one
copy of each default: an absent or empty key takes its field's default.
Unknown sections or keys are hard errors, not warnings: a silently ignored
typo in ``alpha`` or ``epsilon`` would invalidate an experiment while still
producing plausible-looking output.  ``dump_config`` emits a complete file
that round-trips through ``parse_config`` to an equal configuration.
"""

from __future__ import annotations

import configparser
from dataclasses import fields
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
_SHAPE_PREFIXES = ("rho0", "g0")
_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "model": ("alpha", "epsilon"),
    "grid": ("n", "half_width"),
    "time": ("t_end", "cfl", "output_times"),
    "scheme": ("flux_scheme", "image_correction"),
    "initial": (
        "mode", "g_coef", "b_coef", "a_coef",
        *(f"{prefix}_{k}" for prefix in _SHAPE_PREFIXES for k in _SHAPE_KEYS),
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


def _is_text(key: str) -> bool:
    return key in ("flux_scheme", "mode") or key.endswith(("_kind", "_path"))


def _convert(section: str, key: str, raw: str, kind: type) -> float | int:
    try:
        value = float(raw)
        if kind is int and value != int(value):
            raise ValueError
        return kind(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}") from None


def _value(section: str, key: str, raw: str, base_dir: Path | None) -> object:
    """One stripped, non-empty INI value converted by the kind of its key."""
    if key == "n":
        return _convert(section, key, raw, int)
    if key == "image_correction":
        state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
        if state is None:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid boolean")
        return state
    if key == "output_times":
        pieces = (piece.strip() for piece in raw.split(","))
        return tuple(_convert(section, key, piece, float) for piece in pieces if piece) or None
    if key == "epsilon" and raw == "auto":
        return None
    if key.endswith("_path") and base_dir is not None and not Path(raw).is_absolute():
        return str(base_dir / raw)
    return raw if _is_text(key) else _convert(section, key, raw, float)


def parse_config(text: str, base_dir: Path | None = None) -> SolverConfig:
    """Parse INI text into a validated :class:`SolverConfig`.

    Relative CSV shape paths are resolved against ``base_dir`` (normally the
    directory containing the config file) so shipped configs stay portable;
    any other path is kept as written.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported; use the named sections")
    entries: dict[str, tuple[str, str]] = {}
    for section in parser.sections():
        allowed = _SECTION_KEYS.get(section)
        if allowed is None:
            raise ConfigError(f"unknown section [{section}]; expected one of {sorted(_SECTION_KEYS)}")
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]; allowed: {sorted(allowed)}")
            entries[key] = (section, raw.strip())
    present = {key: entries[key] for keys in _SECTION_KEYS.values() for key in keys if entries.get(key, ("", ""))[1]}
    for section, key in _REQUIRED:
        if key not in present:
            raise ConfigError(f"missing required key {key!r} in [{section}]")

    # Values in table order, except that each shape is converted and built
    # before the other [initial] keys, so a bad shape is reported first.
    values = {key: _value(section, key, raw, base_dir)
              for key, (section, raw) in present.items() if section != "initial"}
    initial = {key: raw for key, (section, raw) in present.items() if section == "initial"}
    shapes: dict[str, ShapeSpec] = {}
    for prefix in _SHAPE_PREFIXES:
        given = [key for key in initial if key.startswith(f"{prefix}_")]
        if given and f"{prefix}_kind" not in initial:
            raise ConfigError(f"{given} given without {prefix}_kind")
        if given:
            shape = {key.removeprefix(f"{prefix}_"): _value("initial", key, initial.pop(key), base_dir)
                     for key in given}
            try:
                shapes[prefix] = ShapeSpec(**shape)  # type: ignore[arg-type]
            except SolverError as exc:
                raise ConfigError(f"invalid {prefix} shape: {exc}") from exc
    initial = {key: _value("initial", key, raw, base_dir) for key, raw in initial.items()}
    try:
        return SolverConfig(initial=InitialDataSpec(**initial, **shapes), **values)  # type: ignore[arg-type]
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


def _fields(obj: object, prefix: str = "") -> dict[str, object]:
    return {} if obj is None else {prefix + f.name: getattr(obj, f.name) for f in fields(obj)}  # type: ignore[arg-type]


def _text(key: str, value: object) -> str:
    if value is None:
        return "auto"  # epsilon; other None fields are left out
    if key == "output_times":
        return ", ".join(map(repr, value))  # type: ignore[call-overload]
    if key == "image_correction":
        return str(value).lower()
    if key.endswith("_path") and _UNSAFE_PATH.search(value):  # type: ignore[arg-type]
        raise ConfigError(f"{key} {value!r} does not survive the INI round trip "
                          "(whitespace at an end, '#' or ';' after whitespace, or a line break)")
    return str(value) if key == "n" or _is_text(key) else repr(value)


def dump_config(cfg: SolverConfig) -> str:
    """Render a config as INI text; ``parse_config`` recovers an equal config.

    Every field is written, also the shape fields the kind does not read, so
    that the dump parses back to an equal config.  A field that is None is
    left out, except ``epsilon``, which is written as ``auto``.
    """
    values = _fields(cfg) | _fields(cfg.initial)
    for prefix in _SHAPE_PREFIXES:
        values |= _fields(values[prefix], f"{prefix}_")
    sections = [[f"[{section}]"] + [f"{key} = {_text(key, values.get(key))}" for key in keys
                                     if values.get(key) is not None or key == "epsilon"]
                for section, keys in _SECTION_KEYS.items()]
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"
