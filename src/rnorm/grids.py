"""Sampled 2-D functions on centered square grids, plus CSV I/O."""

from __future__ import annotations

import io
import re
from dataclasses import dataclass

import numpy as np

# largest deviation of a CSV axis from a uniform, shared axis, as a fraction of h
AXIS_TOL = 1e-9


@dataclass(frozen=True)
class GridFunction2D:
    """n x n samples of f on a square grid centered at the origin.

    values[i, j] = f(x_i, y_j) with x_i = (i - (n-1)/2) * h.
    """

    values: np.ndarray
    h: float
    warnings: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
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

    def with_warnings(self, *names: str) -> "GridFunction2D":
        return GridFunction2D(self.values, self.h, self.warnings + names)

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
    def from_csv(text: str) -> "GridFunction2D":
        xs, ys, values = read_table_csv(text, "x,y,value")
        n = xs.size
        h = float(xs[1] - xs[0]) if n > 1 else 1.0
        tol = AXIS_TOL * h
        if np.abs(np.diff(xs) - h).max(initial=0.0) > tol:
            raise ValueError("grid CSV x axis is not uniformly spaced")
        if ys.size != n or np.abs(ys - xs).max() > tol:
            raise ValueError("grid CSV y axis differs from its x axis")
        return GridFunction2D(values, h)


def read_csv(text: str, header: str, label: str | None = None) -> np.ndarray:
    """Rows of a numeric CSV whose lower-cased first line matches the regex ``header``.

    A bad header (shown as ``label``, default ``header``), a row whose column
    count differs from the header's, an empty body or a non-finite value
    raises a one-line ValueError.
    """
    first, _, body = text.strip().partition("\n")
    first = first.strip().lower()
    if not re.fullmatch(header, first):
        raise ValueError(f"CSV must start with header '{label or header}'")
    if not body.strip():
        raise ValueError("CSV has no data rows")
    ncols = first.count(",") + 1
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"CSV body is not {ncols} numeric columns: {exc}") from None
    if data.shape[1] != ncols:
        raise ValueError(f"CSV rows have {data.shape[1]} columns, the header has {ncols}")
    if not np.all(np.isfinite(data)):
        raise ValueError("CSV values must be finite")
    return data


def read_table_csv(text: str, header: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 3-column CSV (a, b, value) as sorted unique a, sorted unique b and the value matrix.

    Rows may come in any order; every (a, b) cell must appear exactly once.
    """
    data = read_csv(text, header)
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
    rows = np.column_stack([np.repeat(a, b.size), np.tile(b, a.size), values.ravel()])
    return f"{header}\n" + ("%.17g,%.17g,%.17g\n" * rows.shape[0]) % tuple(rows.ravel().tolist())


def sample_grid(func, n: int, half_extent: float) -> GridFunction2D:
    """Sample a callable f(x, y) (vectorized) on an n x n centered grid."""
    h = 2.0 * half_extent / n
    ax = (np.arange(n) - (n - 1) / 2.0) * h
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return GridFunction2D(np.asarray(func(X, Y), dtype=float), h)
