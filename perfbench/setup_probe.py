"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is everything before the first time step: importing euler_align,
loading each run configuration, building its SpectralWorkspace and making
its initial state.  ``--operators`` instead builds the workspaces (with
their image kernels) of the operator battery's first cross-validation grid.

Usage: python3 perfbench/setup_probe.py CONFIG.ini [CONFIG.ini ...]
       python3 perfbench/setup_probe.py --operators
"""
import sys
import time

START = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    from euler_align import build_grid, config, fracops, selftest, solver

    if argv == ["--operators"]:
        for alpha in selftest.ALPHAS:
            fracops.SpectralWorkspace(build_grid(1024, 8.0), alpha).image_kernel()
    else:
        for path in argv:
            cfg = config.load_config(path)
            grid = cfg.make_grid()
            ws = fracops.SpectralWorkspace(grid, cfg.alpha)
            solver.make_initial_state(cfg.initial, grid, cfg.alpha, ws=ws,
                                      image_correction=cfg.image_correction)
    print(repr(time.perf_counter() - START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
