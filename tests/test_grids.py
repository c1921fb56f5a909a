import io
import math

import numpy as np
import pytest

from rnorm import GridFunction2D, sample_grid
from rnorm.grids import read_csv


def test_sample_grid_shape_and_axis():
    f = sample_grid(lambda X, Y: X + 2 * Y, 32, 4.0)
    assert f.n == 32
    assert f.h == pytest.approx(8.0 / 32)
    ax = f.axis()
    assert ax.size == 32
    assert ax[0] == pytest.approx(-ax[-1])
    X, Y = f.meshgrid()
    assert np.allclose(f.values, X + 2 * Y)


def test_gaussian_integral():
    f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 256, 8.0)
    assert f.integral() == pytest.approx(2.0 * math.pi, rel=1e-6)


def test_half_extent_and_diagonal():
    f = sample_grid(lambda X, Y: 0 * X, 16, 1.0)
    assert f.half_extent == pytest.approx((16 - 1) / 2.0 * f.h)
    assert f.half_diagonal == pytest.approx(f.half_extent * math.sqrt(2.0))


def test_csv_round_trip_exact():
    f = sample_grid(lambda X, Y: np.sin(X) * np.cos(Y), 16, 2.0)
    g = GridFunction2D.from_csv(f.to_csv())
    assert g.h == pytest.approx(f.h, rel=1e-15)
    assert np.array_equal(g.values, f.values)


def test_csv_rows_in_any_order():
    f = sample_grid(lambda X, Y: np.sin(X) * np.cos(2 * Y), 16, 2.0)
    header, *rows = f.to_csv().splitlines()
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    g = GridFunction2D.from_csv("\n".join([header] + shuffled))
    assert np.array_equal(g.values, f.values)


def test_csv_stream_skips_lines_of_only_whitespace():
    f = sample_grid(lambda X, Y: np.sin(X) * np.cos(2 * Y), 16, 2.0)
    header, *rows = f.to_csv().splitlines()
    text = "\n".join([" \t", header] + rows[:100] + ["  ", ""] + rows[100:] + ["\t \f"])
    g = GridFunction2D.from_csv(io.StringIO(text))
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(read_csv(io.StringIO(text), "x,y,value"), read_csv(f.to_csv(), "x,y,value"))


def test_csv_writer_matches_per_element_format():
    f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2)) - 0.5 * X, 16, 2.0)
    lines = ["x,y,value"]
    ax = f.axis()
    for i, x in enumerate(ax):
        for j, y in enumerate(ax):
            lines.append(f"{x:.17g},{y:.17g},{f.values[i, j]:.17g}")
    assert f.to_csv() == "\n".join(lines) + "\n"


def _grid_rows(n=16):
    f = sample_grid(lambda X, Y: X * Y, n, 1.0)
    return f.to_csv().splitlines()


def _with_axis(rows, col, transform):
    out = [rows[0]]
    for r in rows[1:]:
        cells = r.split(",")
        cells[col] = repr(transform(float(cells[col])))
        out.append(",".join(cells))
    return "\n".join(out)


def test_csv_rejects_bad_header_and_partial_grid():
    with pytest.raises(ValueError):
        GridFunction2D.from_csv("a,b,c\n0,0,1\n")
    truncated = "\n".join(_grid_rows()[:-5])
    with pytest.raises(ValueError):
        GridFunction2D.from_csv(truncated)


def test_csv_rejects_duplicated_cell():
    rows = _grid_rows()
    # the row count still matches 16^2, but one cell appears twice and one never
    rows[2] = rows[1]
    with pytest.raises(ValueError, match="duplicated"):
        GridFunction2D.from_csv("\n".join(rows))


def test_csv_rejects_nonuniform_x_axis():
    # stretch the positive half of the axis by 1%
    text = _with_axis(_grid_rows(), 0, lambda x: x * 1.01 if x > 0 else x)
    with pytest.raises(ValueError, match="uniformly"):
        GridFunction2D.from_csv(text)


def test_csv_rejects_y_axis_unlike_x_axis():
    text = _with_axis(_grid_rows(), 1, lambda y: y + 1e-3)
    with pytest.raises(ValueError, match="y axis"):
        GridFunction2D.from_csv(text)
    # a shift far below 1e-9 h is rounding, not a different axis
    h = 1.0 / 16
    g = GridFunction2D.from_csv(_with_axis(_grid_rows(), 1, lambda y: y + 1e-12 * h))
    assert g.n == 16


@pytest.mark.parametrize(
    "text,message",
    [
        ("x,y,value\n", "no data rows"),
        ("x,y,value\n0,0\n", "columns"),
        ("x,y,value\n0,0,1\n0,1\n", "columns"),
        ("x,y,value\n0,0,abc\n", "numeric"),
        ("x,y,value\n0,0,nan\n", "finite"),
        ("x,y,value\n0,0,inf\n", "finite"),
        ("theta,b,value\n0,0,1\n", "header"),
    ],
)
def test_read_csv_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message) as info:
        read_csv(text, "x,y,value")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "values,h",
    [
        (np.zeros((8, 8)), 1.0),  # too small
        (np.zeros((16, 17)), 1.0),  # not square
        (np.full((16, 16), np.nan), 1.0),  # non-finite
        (np.zeros((16, 16)), 0.0),  # bad spacing
    ],
)
def test_validation_errors(values, h):
    with pytest.raises(ValueError):
        GridFunction2D(values, h)


def test_boundary_leakage():
    compact = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2)), 64, 8.0)
    assert compact.boundary_leakage() < 1e-10
    flat = GridFunction2D(np.ones((16, 16)), 1.0)
    assert flat.boundary_leakage() == pytest.approx(1.0)
    zero = GridFunction2D(np.zeros((16, 16)), 1.0)
    assert zero.boundary_leakage() == 0.0


def test_values_are_read_only():
    f = sample_grid(lambda X, Y: X, 16, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 5.0

