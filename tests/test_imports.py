"""Import graph: the package runs on numpy alone, and scipy is a test dependency only.

Importing the package, loading a config, building a workspace, making the
initial state, the self-test and the ``profiles`` command load no scipy
module: every transform runs on ``numpy.fft``, and the closed forms on one
numpy Gauss-Legendre rule.  No module of the package imports scipy.  The
benchmark's set-up probe (``perfbench/setup_probe.py``) runs as it is, in a
fresh interpreter, on the shipped configs and on the operator grid.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
import subprocess
import sys

import pytest

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


# The rarefaction sweep's process pool and what it loads: 8-12 ms of start-up
# (``-X importtime``) that no command needs until a sweep starts a pool.
POOL_MODULES = ("concurrent.futures.process", "multiprocessing", "socket", "subprocess", "logging")


def test_package_import_leaves_the_process_pool_unloaded(fresh_python):
    """``scaling_limit_experiment`` imports ``ProcessPoolExecutor`` only when it starts a pool."""
    loaded = json.loads(
        fresh_python(
            "import json, sys\n"
            "import euler_align, euler_align.cli\n"
            f"print(json.dumps([m for m in {POOL_MODULES!r} if m in sys.modules]))\n"
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


@pytest.mark.parametrize("operators", [False, True], ids=["shipped_configs", "operators"])
def test_benchmark_setup_probe_runs(operators):
    """The benchmark's ``setup_s`` is what ``perfbench/setup_probe.py`` prints: run the script itself, not a copy."""
    args = ["--operators"] if operators else sorted(str(p) for p in CONFIG_DIR.glob("*.ini"))
    assert args
    probe = SRC_DIR.parents[1] / "perfbench" / "setup_probe.py"
    proc = subprocess.run([sys.executable, str(probe), *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) > 0


def test_selftest_and_profiles_leave_heavy_scipy_unloaded(fresh_python, tmp_path):
    """The closed-form U and the whole self-test need no heavy subpackage, nor any scipy module."""
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
            f"print(json.dumps([[m for m in {HEAVY!r} if m in sys.modules],\n"
            "                  sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )
    )
    assert loaded == [[], []]


def scipy_imports(source: str) -> list[int]:
    """Lines that import ``scipy`` or one of its submodules, at any depth of ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_imports_no_scipy():
    """scipy is a test dependency only: no module of the package imports it, not even lazily."""
    sample = "import scipy\nfrom scipy.special import gamma\ndef f():\n    import scipy.fft as sf\nimport scipyx\nfrom .scipy import a\n"
    assert scipy_imports(sample) == [1, 2, 4]
    modules = sorted(SRC_DIR.glob("*.py"))
    assert modules
    found = {p.name: scipy_imports(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


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


# The routines that may call ``<...>.fft.rfft``/``<...>.fft.irfft``: the multiplier, the
# windowed convolution, the solver's stacked step and the workspace's kernel builders.
TRANSFORM_ROUTINES = {
    "fracops.apply_multiplier",
    "fracops.fftconvolve",
    "fracops.SpectralWorkspace.image_kernel_spectrum",
    "fracops.SpectralWorkspace.velocity_kernel_spectrum",
    "solver._spectral_step",
}


def transform_sites(source: str) -> list[tuple[str, int]]:
    """(routine, line) of each ``<...>.fft.rfft``/``<...>.fft.irfft`` call in ``source``.

    The routine is the module-level def, or the method of a module-level class,
    that holds the call, its nested functions and lambdas included; a call in
    a class body is the class's, and one outside any def or class "<module>".
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    units = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            units += [(f"{top.name}.{m.name}" if isinstance(m, defs) else top.name, m) for m in top.body]
        else:
            units.append((top.name if isinstance(top, defs) else "<module>", top))
    return [
        (routine, node.lineno)
        for routine, unit in units
        for node in ast.walk(unit)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("rfft", "irfft")
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "fft"
    ]


def test_transforms_run_only_in_the_listed_routines():
    """A second copy of irfft(m * rfft(f)) outside ``apply_multiplier`` cannot come back unseen."""
    sample = (
        "x = np.fft.rfft(a)\ndef f():\n    def g():\n        return np.fft.irfft(b)\n"
        "class C:\n    def m(self):\n        return (lambda: numpy.fft.rfft(c))()\n"
        "def h():\n    return np.fft.rfftfreq(8) + np.fft.fft(d)\n"
    )
    assert transform_sites(sample) == [("<module>", 1), ("f", 4), ("C.m", 7)]
    modules = sorted(SRC_DIR.glob("*.py"))
    assert modules
    found = {f"{p.stem}.{routine}" for p in modules for routine, _ in transform_sites(p.read_text())}
    assert sorted(found - TRANSFORM_ROUTINES) == []
    assert found == TRANSFORM_ROUTINES  # every listed routine still transforms


PERFBENCH_DIR = SRC_DIR.parents[1] / "perfbench"

# Public names kept with no caller in the package or the benchmark, and why.
UNREFERENCED_BY_DESIGN = {
    # The writer half of the field CSV format that `read_field_csv` reads (the
    # `csv` initial-data shape); tests use it to make such files.
    "write_field_csv",
}


def public_definitions(source: str) -> set[str]:
    """Names of the public module-level ``def``s and ``class``es in ``source``."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def referenced_names(source: str) -> set[str]:
    """Every name, attribute and string constant in ``source``, outside ``__all__`` lists."""
    tree = ast.parse(source)
    exports = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt)
    }
    names = set()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_definition_has_a_caller():
    """A public def or class that nothing in the package or the benchmark uses is dead API."""
    assert public_definitions("def a(): pass\nclass B: pass\ndef _c(): pass\nx = 1\n") == {"a", "B"}
    assert referenced_names("__all__ = ['a']\nf(b.c, 'd')\n") == {"f", "b", "c", "d"}
    modules = sorted(p for p in SRC_DIR.glob("*.py") if p.name != "__init__.py")
    users = modules + sorted(PERFBENCH_DIR.glob("*.py"))
    assert modules and len(users) > len(modules)
    used = set().union(*(referenced_names(p.read_text()) for p in users))
    defined = set().union(*(public_definitions(p.read_text()) for p in modules))
    assert sorted(defined - used - UNREFERENCED_BY_DESIGN) == []
    assert UNREFERENCED_BY_DESIGN <= defined - used


# Defaulted parameters that no call in the package or the benchmark passes, and why.
# (module, callee, parameter) of defaults kept although no call overrides them, each with its reason.
UNPASSED_BY_DESIGN: set[tuple[str, str, str]] = set()


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position in a call or None) of each defaulted parameter.

    A method's position leaves out ``self``/``cls``; a class's ``__init__`` is
    called by the class name.
    """
    found = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                offset = 1 if cls is not None and not static else 0
                name = cls if cls is not None and child.name == "__init__" else child.name
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                found.extend((name, arg.arg, i - offset) for i, arg in enumerate(positional) if i >= first)
                found.extend((name, arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(source), None)
    return found


def literal_dict_keys(tree: ast.AST) -> dict[str, set[str] | None]:
    """Per name assigned in ``tree`` (a plain name or an attribute's name): the keys of the literal
    ``dict(k=...)`` or ``{"k": ...}`` it is assigned, or None if some assignment to it is not such a
    dict, or the assignments disagree."""
    found: dict[str, set[str] | None] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str) for k in value.keys
        ):
            keys = {k.value for k in value.keys}
        elif (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "dict"
            and not value.args
            and all(k.arg is not None for k in value.keywords)
        ):
            keys = {k.arg for k in value.keywords}
        else:
            keys = None
        for target in node.targets:
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name is not None:
                found[name] = keys if found.get(name, keys) == keys else None
    return found


def passed_parameters(source: str) -> dict[str, set]:
    """Per callee name: the keywords and positions its calls pass.

    A ``**NAME`` or ``**self.NAME`` argument passes the keys of the literal
    dict assigned to NAME in ``source`` (``literal_dict_keys``); any other
    ``*``/``**`` argument adds "*", which stands for every parameter.
    """
    tree = ast.parse(source)
    dicts = literal_dict_keys(tree)
    passed: dict[str, set] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name is None:
            continue
        entry = passed.setdefault(name, set())
        if any(isinstance(a, ast.Starred) for a in node.args):
            entry.add("*")
        for k in node.keywords:
            if k.arg is not None:
                entry.add(k.arg)
                continue
            v = k.value
            on_self = isinstance(v, ast.Attribute) and getattr(v.value, "id", None) == "self"
            keys = dicts.get(v.id if isinstance(v, ast.Name) else v.attr if on_self else None)
            entry.update({"*"} if keys is None else keys)
        entry.update(range(len(node.args)))
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no call overrides is a constant in disguise."""
    sample = "class C:\n    def __init__(self, a, b=1): pass\n    def m(self, c=2, *, d=3): pass\ndef f(e=4): pass\n"
    assert defaulted_parameters(sample) == [("C", "b", 1), ("m", "c", 0), ("m", "d", None), ("f", "e", 0)]
    assert passed_parameters("C(1, b=2)\nx.m(*a)\n") == {"C": {0, "b"}, "m": {0, "*"}}
    mappings = (
        "S = dict(q=1)\nT = {'t': 2, **S}\nclass W:\n    U = {'u': 3}\n    def go(self):\n"
        "        f(1, **S)\n        g(**self.U)\n        h(**T)\n        k(**self.S, **other.U)\n"
    )
    assert passed_parameters(mappings) == {
        "dict": {"q"}, "f": {0, "q"}, "g": {"u"}, "h": {"*"}, "k": {"q", "*"}
    }
    modules = sorted(SRC_DIR.glob("*.py"))
    users = modules + sorted(PERFBENCH_DIR.glob("*.py"))
    passed: dict[str, set] = {}
    for path in users:
        for name, keys in passed_parameters(path.read_text()).items():
            passed.setdefault(name, set()).update(keys)
    unpassed = {
        (path.name, name, arg)
        for path in modules
        for name, arg, position in defaulted_parameters(path.read_text())
        if not {"*", arg, position} & passed.get(name, set())
    }
    assert sorted(unpassed - UNPASSED_BY_DESIGN) == []
    assert UNPASSED_BY_DESIGN <= unpassed
