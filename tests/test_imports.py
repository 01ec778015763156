"""Import graph: the package starts on numpy alone, and runs its oracles without heavy scipy.

Importing the package, loading a config, building a workspace and making the
initial state load no scipy module: every transform runs on ``numpy.fft``.
``scipy.special`` is loaded on the first closed-form call that needs it.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "euler_align"

# Heavy SciPy subpackages the package must not load at import time, nor in
# `selftest` or `profiles`; each costs from a tenth of a second to a second of
# start-up.
HEAVY = (
    "scipy.signal",
    "scipy.integrate",
    "scipy.stats",
    "scipy.interpolate",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse",
)


def test_package_import_leaves_heavy_scipy_unloaded(fresh_python):
    loaded = json.loads(
        fresh_python(
            "import json, sys\n"
            "import euler_align, euler_align.cli\n"
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
        )
    )
    assert loaded == []


def test_set_up_of_shipped_configs_loads_no_scipy(fresh_python):
    paths = sorted(str(p) for p in CONFIG_DIR.glob("*.ini"))
    assert paths
    loaded = json.loads(
        fresh_python(
            "import json, sys\n"
            "import euler_align, euler_align.cli\n"
            "from euler_align import SpectralWorkspace, load_config, make_initial_state\n"
            f"for path in {paths!r}:\n"
            "    cfg = load_config(path)\n"
            "    grid = cfg.make_grid()\n"
            "    ws = SpectralWorkspace(grid, cfg.alpha)\n"
            "    make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws,\n"
            "                       image_correction=cfg.image_correction)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
    )
    assert loaded == []


def test_selftest_and_profiles_leave_heavy_scipy_unloaded(fresh_python, tmp_path):
    """The closed-form U table and the whole self-test need no heavy subpackage."""
    loaded = json.loads(
        fresh_python(
            "import contextlib, io, json, sys\n"
            "from euler_align import velocity_profile_U\n"
            "from euler_align.cli import main\n"
            "from euler_align.selftest import ALPHAS, run_selftest\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert run_selftest().passed\n"
            "    for a in ALPHAS:\n"
            "        velocity_profile_U(a, [-150.0, 0.5, 1.5, 50.0])\n"
            f"    assert main(['profiles', '--alpha', '0.3', '--out', {str(tmp_path)!r}]) == 0\n"
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
        )
    )
    assert loaded == []


def full_spectrum_transforms(source: str) -> list[int]:
    """Lines that call ``<...>.fft.fft``/``<...>.fft.ifft`` or import ``fft``/``ifft`` from ``numpy.fft``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("fft", "ifft")
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "fft"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy.fft"
            and any(alias.name in ("fft", "ifft") for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_uses_only_the_rfft_half_spectrum():
    """Every field is real, so no module transforms on the full complex spectrum."""
    assert full_spectrum_transforms("np.fft.ifft(m * np.fft.fft(f))\nfrom numpy.fft import fft\n") == [1, 1, 2]
    modules = sorted(SRC_DIR.glob("*.py"))
    assert modules
    found = {p.name: full_spectrum_transforms(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
