"""Import graph: the package starts on numpy, scipy.fft and scipy.special alone."""

from __future__ import annotations

import json

# Heavy SciPy subpackages the package must not load at import time; each
# costs from a tenth of a second to a second of start-up.
HEAVY = ("scipy.signal", "scipy.integrate", "scipy.stats", "scipy.interpolate", "scipy.optimize")


def test_package_import_leaves_heavy_scipy_unloaded(fresh_python):
    loaded = json.loads(
        fresh_python(
            "import json, sys\n"
            "import euler_align, euler_align.cli\n"
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
        )
    )
    assert loaded == []
