import io
import math

import numpy as np
import pytest

from rnorm import (
    AtomicMeasure, FiniteReluNet, FitProblem, GridFunction2D, PiecewisePolynomial, PwlCurvatureMeasure2D,
    RayDecaySample, RNormReport, Sinogram, sample_grid,
)
import rnorm.grids
from rnorm.cli import _read
from rnorm.grids import read_csv

from oracles import grid_axis, grid_integral, grid_meshgrid, grid_to_csv


def test_sample_grid_shape_and_axis():
    f = sample_grid(lambda X, Y: X + 2 * Y, 32, 4.0)
    assert f.n == 32
    assert f.h == pytest.approx(8.0 / 32)
    ax = grid_axis(f)
    assert ax.size == 32
    assert ax[0] == pytest.approx(-ax[-1])
    X, Y = grid_meshgrid(f)
    assert np.allclose(f.values, X + 2 * Y)


def test_gaussian_integral():
    f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 256, 8.0)
    assert grid_integral(f) == pytest.approx(2.0 * math.pi, rel=1e-6)


def test_half_extent_and_diagonal():
    f = sample_grid(lambda X, Y: 0 * X, 16, 1.0)
    assert f.half_extent == pytest.approx((16 - 1) / 2.0 * f.h)
    assert f.half_diagonal == pytest.approx(f.half_extent * math.sqrt(2.0))


def test_csv_round_trip_exact():
    f = sample_grid(lambda X, Y: np.sin(X) * np.cos(Y), 16, 2.0)
    g = GridFunction2D.from_csv(grid_to_csv(f))
    assert g.h == pytest.approx(f.h, rel=1e-15)
    assert np.array_equal(g.values, f.values)


def test_csv_rows_in_any_order():
    f = sample_grid(lambda X, Y: np.sin(X) * np.cos(2 * Y), 16, 2.0)
    header, *rows = grid_to_csv(f).splitlines()
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    g = GridFunction2D.from_csv("\n".join([header] + shuffled))
    assert np.array_equal(g.values, f.values)


def _with_blank_lines(f):
    header, *rows = grid_to_csv(f).splitlines()
    return "\n".join([" \t", header] + rows[:100] + ["  ", ""] + rows[100:] + ["\t \f"])


def test_csv_stream_skips_lines_of_only_whitespace():
    f = sample_grid(lambda X, Y: np.sin(X) * np.cos(2 * Y), 16, 2.0)
    text = _with_blank_lines(f)
    g = GridFunction2D.from_csv(io.StringIO(text))
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(read_csv(io.StringIO(text), "x,y,value"), read_csv(grid_to_csv(f), "x,y,value"))


@pytest.mark.parametrize("chars", [1, 7, 64])
def test_csv_blocks_of_any_size_parse_alike(monkeypatch, tmp_path, chars):
    # a block ends mid-line, on a line end or past a blank line; CRLF comes through a text stream
    f = sample_grid(lambda X, Y: np.sin(X) * np.cos(2 * Y), 16, 2.0)
    text = grid_to_csv(f)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    rows = text.splitlines()
    bad_value, bad_width = rows.copy(), rows.copy()
    bad_value[200] = bad_value[200].rsplit(",", 1)[0] + ",0x1"
    bad_width[200] = bad_width[200].rsplit(",", 1)[0]

    def parse_all():
        parsed = [read_csv(src, "x,y,value") for src in (io.StringIO(_with_blank_lines(f)), text.rstrip("\n"))]
        parsed.append(_read(str(crlf), lambda fh: read_csv(fh, "x,y,value")))
        messages = []
        for bad in (bad_value, bad_width):
            with pytest.raises(ValueError) as info:
                read_csv(io.StringIO("\n".join(bad)), "x,y,value")
            messages.append(str(info.value))
        return parsed, messages

    expected, messages = parse_all()
    assert all(np.array_equal(a, read_csv(text, "x,y,value")) for a in expected)
    assert "row 199" in messages[0]  # loadtxt counts body rows from 0
    monkeypatch.setattr(rnorm.grids, "CSV_BLOCK_CHARS", chars)
    parsed, small_messages = parse_all()
    assert all(np.array_equal(a, b) for a, b in zip(parsed, expected))
    assert small_messages == messages


def test_csv_writer_matches_per_element_format():
    f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2)) - 0.5 * X, 16, 2.0)
    lines = ["x,y,value"]
    ax = grid_axis(f)
    for i, x in enumerate(ax):
        for j, y in enumerate(ax):
            lines.append(f"{x:.17g},{y:.17g},{f.values[i, j]:.17g}")
    assert grid_to_csv(f) == "\n".join(lines) + "\n"


def _grid_rows(n=16):
    f = sample_grid(lambda X, Y: X * Y, n, 1.0)
    return grid_to_csv(f).splitlines()


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


def _value_types():
    """Per value type: valid float inputs keyed by the name its errors give them, a constructor
    that passes them as a caller would, and the arrays the built object stores."""
    rng = np.random.default_rng(0)
    th = rng.uniform(0.0, 2.0 * math.pi, 3)
    W = np.stack([np.cos(th), np.sin(th)], axis=1)
    return {
        "GridFunction2D": (
            {"values": rng.standard_normal((16, 16))},
            lambda values: GridFunction2D(values, 0.5),
            lambda f: [f.values],
        ),
        "Sinogram": (
            {"angles": np.arange(32) * math.pi / 32, "offsets": np.linspace(-1.0, 1.0, 65),
             "values": rng.standard_normal((32, 65))},
            lambda angles, offsets, values: Sinogram(angles, offsets, values),
            lambda s: [s.angles, s.offsets, s.values],
        ),
        "FitProblem": (
            {"X": rng.uniform(-1.0, 1.0, (5, 2)), "y": rng.standard_normal(5)},
            lambda X, y: FitProblem(X, y, K=8, J=9),
            lambda p: [p.X, p.y],
        ),
        "FiniteReluNet": (
            {"a": rng.standard_normal(3), "W": W, "b": rng.standard_normal(3), "v": rng.standard_normal(2)},
            lambda a, W, b, v: FiniteReluNet(2, tuple(zip(a, W, b)), v=v, c=0.5),
            lambda net: [net.a, net.W, net.b, net.v],
        ),
        "RayDecaySample": (
            {"direction": W[0], "sigmas": np.geomspace(1.0, 10.0, 7), "magnitudes": rng.uniform(0.0, 1.0, 7)},
            lambda direction, sigmas, magnitudes: RayDecaySample(direction, sigmas, magnitudes),
            lambda r: [r.direction, r.sigmas, r.magnitudes],
        ),
        "PwlCurvatureMeasure2D": (
            {"p0": np.array([0.0, 0.0]), "p1": np.array([1.0, 0.5])},
            lambda p0, p1: PwlCurvatureMeasure2D(((p0, p1, 2.0),)),
            lambda mu: [mu.segments[0][0], mu.segments[0][1]],
        ),
        "AtomicMeasure": (
            {"directions": W, "offsets": rng.standard_normal(3), "weights": rng.standard_normal(3)},
            lambda directions, offsets, weights: AtomicMeasure(tuple(zip(directions, offsets, weights))),
            lambda m: [w for w, _, _ in m.atoms],
        ),
    }


@pytest.mark.parametrize("name", list(_value_types()))
def test_value_types_copy_their_inputs_and_reject_non_finite_ones(name):
    inputs, build, stored = _value_types()[name]
    before = {k: v.copy() for k, v in inputs.items()}
    obj = build(**inputs)
    for k, v in inputs.items():
        assert v.flags.writeable and np.array_equal(v, before[k]), k
    for arr in stored(obj):
        assert arr.dtype == np.float64 and not arr.flags.writeable
        assert not any(np.shares_memory(arr, v) for v in inputs.values())
    for field in inputs:
        for bad in (math.nan, math.inf):
            corrupt = dict(before, **{field: before[field].copy()})
            corrupt[field].flat[-1] = bad
            with pytest.raises(ValueError, match=rf"\b{field}\b.* finite") as info:
                build(**corrupt)
            assert "\n" not in str(info.value), (field, bad)


def test_non_finite_scalars_are_rejected():
    X = np.array([[0.0, 0.0], [0.5, 0.5]])
    cases = [
        lambda: GridFunction2D(np.zeros((16, 16)), math.nan),
        lambda: GridFunction2D(np.zeros((16, 16)), math.inf),
        lambda: FitProblem(X, np.zeros(2), K=8, J=9, offset_range=math.nan),
        lambda: FitProblem(X, np.zeros(2), K=8, J=9, offset_range=math.inf),
        lambda: PiecewisePolynomial((0, 1), ((1.0, 0.0, math.nan),)),
        lambda: PiecewisePolynomial((0, math.inf), ((1.0,),)),
        lambda: RNormReport(math.nan, "x"),
    ]
    for make in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert "\n" not in str(info.value)
