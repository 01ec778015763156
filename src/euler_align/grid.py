"""Uniform periodic grids, sampled fields, and quadrature primitives.

Everything downstream works on a uniform grid over [-L, L) with the left
endpoint included and the right endpoint identified with the left.  Fields
carry a reference to their grid so that operations can check compatibility,
and their value arrays are frozen after construction: every operation returns
a new Field.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math
from pathlib import Path

import numpy as np


class GridError(ValueError):
    """Invalid grid construction or incompatible grid/field combination."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [-half_width, half_width).

    Parameters
    ----------
    n : int
        Number of points; must be even and at least 8 so that spectral
        multipliers have a well-defined Nyquist mode.
    half_width : float
        Half the domain length L; points are x_j = -L + j * (2L/n).
    """

    n: int
    half_width: float
    x: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 8 or self.n % 2 != 0:
            raise GridError(f"grid size must be an even integer >= 8, got {self.n}")
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise GridError(f"half_width must be positive and finite, got {self.half_width}")
        h = self.spacing
        if not (h > 0 and math.isfinite(h) and math.isfinite(math.pi / h)):
            raise GridError(f"grid spacing h = 2L/n = {h:g} (L = {self.half_width:g}, n = {self.n}) "
                            "must be positive and finite, and so must pi/h")
        try:
            x = -self.half_width + h * np.arange(self.n)
            # Angular frequencies pi*k/L for k = 0 .. n/2, in rfft (half-spectrum) layout.
            xi = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=h)
        except (ValueError, MemoryError) as exc:  # numpy refuses or fails the allocation
            raise GridError(f"cannot allocate a grid of n = {self.n} points: {exc}") from exc
        x.setflags(write=False)
        xi.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wavenumbers", xi)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n


def build_grid(n: int, half_width: float) -> Grid1D:
    """Construct a uniform periodic grid on [-half_width, half_width)."""
    return Grid1D(n=n, half_width=half_width)


@dataclass(frozen=True, eq=False)
class Field:
    """Real-valued samples on a Grid1D.  Immutable after construction.

    Fields compare and hash by identity (``eq=False``): a generated ``__eq__``
    would compare the value arrays inside a tuple, which raises for n > 1.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise GridError(
                f"field length {values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise GridError(f"non-finite field value at index {bad} (x={self.grid.x[bad]:g})")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def integrate(f: Field) -> float:
    """Domain integral by the periodic trapezoid (= rectangle) rule, h * sum."""
    return float(f.grid.spacing * f.values.sum())


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p norm over the domain; p = inf gives max |f|.

    p = 4 takes |f|^4 as (f*f)^2, two multiplies in place of pow, as the
    solver's summary row does.
    """
    if p == np.inf or p == math.inf:
        return float(np.abs(f.values).max())
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    h = f.grid.spacing
    a = np.abs(f.values)
    terms = (a**2) ** 2 if p == 4 else a**p
    return float((h * terms.sum()) ** (1.0 / p))


def antiderivative(f: Field) -> Field:
    """Cumulative trapezoid integral g with g(x_0) = 0.

    Satisfies g(x_{j+1}) - g(x_j) = h * (f_j + f_{j+1}) / 2.  For a field with
    mean m the result contains a non-periodic ramp m * (x + L); callers that
    need a periodic result must remove the mean first.
    """
    return Field(f.grid, cumulative_trapezoid(f.values, f.grid.spacing))


def cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Array form of ``antiderivative``: cumulative trapezoid sums, starting at 0."""
    g = np.empty(len(values))
    g[0] = 0.0
    # 0.5 * h * (values[:-1] + values[1:]), summed in place in g's own storage.
    tail = np.add(values[:-1], values[1:], out=g[1:])
    tail *= 0.5 * h
    np.cumsum(tail, out=tail)
    return g


def _write_csv(path, header: str, table: np.ndarray) -> None:
    """The bytes of ``np.savetxt(path, table, fmt="%.17g", delimiter=",",
    header=header, comments="# ")`` for a 2-d table, formatted in one call."""
    rows, cols = table.shape
    row_fmt = ",".join(["%.17g"] * cols) + "\n"
    Path(path).write_text(f"# {header}\n" + (row_fmt * rows) % tuple(table.ravel().tolist()))


def write_field_csv(path, f: Field) -> None:
    """Serialize a field as two-column CSV with header '# x,value'."""
    _write_csv(path, "x,value", np.column_stack([f.grid.x, f.values]))


def read_field_csv(path, grid: Grid1D) -> Field:
    """Read a two-column CSV written by write_field_csv; its x-column must match grid's points to 1e-12."""
    try:
        data = np.loadtxt(path, delimiter=",", comments="#")
    except ValueError as exc:  # unparsable text; a missing file stays an OSError
        raise GridError(f"{path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise GridError(f"{path}: expected two columns 'x,value'")
    x, v = data[:, 0], data[:, 1]
    if not np.allclose(x, grid.x, rtol=0, atol=1e-12 * max(1.0, grid.half_width)):
        raise GridError(f"{path}: x column does not match the target grid")
    return Field(grid, v)
