"""Sampled 2-D functions on centered square grids, plus CSV I/O."""

from __future__ import annotations

import io
import itertools
import re
from dataclasses import dataclass
from typing import TextIO

import numpy as np

# largest deviation of a CSV axis from a uniform, shared axis, as a fraction of h
AXIS_TOL = 1e-9
# CSV rows formatted per block: only one block's values exist as Python floats at a time
CSV_BLOCK_ROWS = 2**12


@dataclass(frozen=True)
class GridFunction2D:
    """n x n samples of f on a square grid centered at the origin.

    values[i, j] = f(x_i, y_j) with x_i = (i - (n-1)/2) * h, held as a
    read-only C-contiguous array (a strided view is copied).
    """

    values: np.ndarray
    h: float
    warnings: tuple = ()

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("grid values must be a square matrix")
        if v.shape[0] < 16:
            raise ValueError("grid must be at least 16x16")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid samples must be finite")
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def half_extent(self) -> float:
        return (self.n - 1) / 2.0 * self.h

    @property
    def half_diagonal(self) -> float:
        return self.half_extent * np.sqrt(2.0)

    def axis(self) -> np.ndarray:
        n = self.n
        return (np.arange(n) - (n - 1) / 2.0) * self.h

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")

    def integral(self) -> float:
        return float(self.values.sum()) * self.h**2

    def boundary_leakage(self) -> float:
        """Largest boundary-ring magnitude relative to the grid max."""
        v = self.values
        peak = float(np.abs(v).max())
        if peak == 0.0:
            return 0.0
        ring = max(
            float(np.abs(v[0, :]).max()),
            float(np.abs(v[-1, :]).max()),
            float(np.abs(v[:, 0]).max()),
            float(np.abs(v[:, -1]).max()),
        )
        return ring / peak

    def to_csv(self) -> str:
        return write_table_csv("x,y,value", self.axis(), self.axis(), self.values)

    @staticmethod
    def from_csv(source: str | TextIO) -> "GridFunction2D":
        xs, ys, values = read_table_csv(source, "x,y,value")
        h = uniform_step(xs, "grid CSV x axis")
        if ys.size != xs.size or np.abs(ys - xs).max() > AXIS_TOL * h:
            raise ValueError("grid CSV y axis differs from its x axis")
        return GridFunction2D(values, h)


def uniform_step(axis: np.ndarray, what: str) -> float:
    """The step of a sorted CSV axis of at least 2 points whose steps all agree to AXIS_TOL of the first.

    Any other axis raises a one-line ValueError that names it as ``what``.
    """
    if axis.size < 2:
        raise ValueError(f"{what} needs at least 2 points, got {axis.size}")
    h = float(axis[1] - axis[0])
    if np.abs(np.diff(axis) - h).max() > AXIS_TOL * h:
        raise ValueError(f"{what} is not uniformly spaced")
    return h


def read_csv(source: str | TextIO, header: str, label: str | None = None) -> np.ndarray:
    """Rows of a numeric CSV (text or text stream) whose lower-cased first line matches the regex ``header``.

    A stream is parsed line by line, never read whole; lines of only
    whitespace are skipped.  A bad header (shown as ``label``, default
    ``header``), a row whose column count differs from the header's, an empty
    body or a non-finite value raises a one-line ValueError.
    """
    lines = itertools.filterfalse(str.isspace, io.StringIO(source) if isinstance(source, str) else source)
    first = next(lines, "").strip().lower()
    if not re.fullmatch(header, first):
        raise ValueError(f"CSV must start with header '{label or header}'")
    row = next(lines, None)
    if row is None:
        raise ValueError("CSV has no data rows")
    ncols = first.count(",") + 1
    try:
        data = np.loadtxt(itertools.chain([row], lines), delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"CSV body is not {ncols} numeric columns: {exc}") from None
    if data.shape[1] != ncols:
        raise ValueError(f"CSV rows have {data.shape[1]} columns, the header has {ncols}")
    if not np.all(np.isfinite(data)):
        raise ValueError("CSV values must be finite")
    return data


def read_table_csv(source: str | TextIO, header: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 3-column CSV (a, b, value) as sorted unique a, sorted unique b and the value matrix.

    Rows may come in any order; every (a, b) cell must appear exactly once.
    """
    data = read_csv(source, header)
    a, b = np.unique(data[:, 0]), np.unique(data[:, 1])
    if a.size * b.size != data.shape[0]:
        raise ValueError("CSV is not a full grid: the row count is not the product of the axis sizes")
    values = np.full((a.size, b.size), np.nan)
    values[np.searchsorted(a, data[:, 0]), np.searchsorted(b, data[:, 1])] = data[:, 2]
    if np.isnan(values).any():
        raise ValueError("CSV has a duplicated cell")
    return a, b, values


def write_table_csv(header: str, a: np.ndarray, b: np.ndarray, values: np.ndarray) -> str:
    """The CSV read_table_csv reads: one (a, b, value) row per cell, b varying fastest, as %.17g."""
    v = values.ravel()
    parts = [f"{header}\n"]
    for r0 in range(0, v.size, CSV_BLOCK_ROWS):
        cells = np.arange(r0, min(r0 + CSV_BLOCK_ROWS, v.size))
        i, j = np.divmod(cells, b.size)
        rows = np.column_stack([a[i], b[j], v[cells]])
        parts.append(("%.17g,%.17g,%.17g\n" * cells.size) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def sample_grid(func, n: int, half_extent: float) -> GridFunction2D:
    """Sample a callable f(x, y) (vectorized) on an n x n centered grid."""
    h = 2.0 * half_extent / n
    ax = (np.arange(n) - (n - 1) / 2.0) * h
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return GridFunction2D(np.asarray(func(X, Y), dtype=float), h)
