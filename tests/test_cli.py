import json
import math

import numpy as np
import pytest

from rnorm import Sinogram, constants, sample_grid
from rnorm.cli import EXIT_DIMENSION, EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def test_radial_exact_value(capsys):
    code, report = _run(capsys, "radial", "--d", "3", "--profile", "poly:k=2")
    assert code == EXIT_OK
    expected = 32.0 + 32.0 / math.sqrt(5.0)
    assert report["result"]["value"] == pytest.approx(expected, rel=1e-9)
    assert report["constants"]["d"] == 3
    assert "version" in report


def test_radial_dilation_scales_value(capsys):
    _, base = _run(capsys, "radial", "--d", "3", "--profile", "poly:k=2")
    code, dil = _run(capsys, "radial", "--d", "3", "--profile", "poly:k=2", "--epsilon", "2.0")
    assert code == EXIT_OK
    assert dil["result"]["value"] == pytest.approx(base["result"]["value"] / 2.0, rel=1e-12)


def test_radial_infinite_value_reported(capsys):
    code, report = _run(capsys, "radial", "--d", "5", "--profile", "poly:k=1")
    assert code == EXIT_OK
    assert report["result"]["value"] == "infinite"


def test_radial_even_dimension_exits_3(capsys):
    code, _ = _run(capsys, "radial", "--d", "4", "--profile", "poly:k=2")
    assert code == EXIT_DIMENSION


def test_radial_bad_profile_exits_2(capsys):
    code, _ = _run(capsys, "radial", "--d", "3", "--profile", "poly:k=zero")
    assert code == EXIT_USAGE
    code, _ = _run(capsys, "radial", "--d", "3", "--profile", "poly:k=2", "--epsilon", "-1")
    assert code == EXIT_USAGE


def test_grid_zero_function(tmp_path, capsys):
    f = sample_grid(lambda X, Y: 0.0 * X, 32, 2.0)
    path = tmp_path / "zeros.csv"
    path.write_text(f.to_csv())
    out = tmp_path / "out"
    code, report = _run(capsys, "grid", "--input", str(path), "--K", "32", "--J", "65", "--out", str(out))
    assert code == EXIT_OK
    assert report["result"]["value"] == pytest.approx(0.0, abs=1e-12)
    assert (out / "report.json").exists()
    assert (out / "sinogram.csv").exists()


def test_grid_sinogram_csv_sums_to_the_reported_value(tmp_path, capsys):
    f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 32, 6.0)
    path = tmp_path / "gauss.csv"
    path.write_text(f.to_csv())
    out = tmp_path / "out"
    code, report = _run(capsys, "grid", "--input", str(path), "--K", "32", "--J", "65", "--out", str(out))
    assert code == EXIT_OK
    sino = Sinogram.from_csv((out / "sinogram.csv").read_text())
    assert sino.values.shape == (32, 65)
    value = report["result"]["value"]
    assert value > 0
    assert constants(2).gamma_d * sino.l1() == pytest.approx(value, rel=1e-12)


def _run_failing(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return code


@pytest.mark.parametrize("flags", [("--K", "16"), ("--K", "31"), ("--J", "63")])
def test_grid_too_small_sinogram_exits_2_before_reading(flags, capsys):
    # the input does not exist: the size check comes first
    assert _run_failing(capsys, "grid", "--input", "/nonexistent/grid.csv", *flags) == EXIT_USAGE


def test_grid_missing_file_exits_4(capsys):
    code, _ = _run(capsys, "grid", "--input", "/nonexistent/grid.csv")
    assert code == EXIT_IO


def _write_samples(path, X, y):
    lines = ["x1,x2,y"] + [f"{a:.17g},{b:.17g},{t:.17g}" for (a, b), t in zip(X, y)]
    path.write_text("\n".join(lines) + "\n")


def test_fit_linear_target_converges(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(40, 2))
    y = X @ np.array([1.0, -2.0]) + 0.25
    path = tmp_path / "samples.csv"
    _write_samples(path, X, y)
    out = tmp_path / "fit"
    code, report = _run(capsys, "fit", "--samples", str(path), "--K", "16", "--J", "17", "--out", str(out))
    assert code == EXIT_OK
    assert report["result"]["objective"] <= 1e-6
    assert report["result"]["converged"] is True
    assert (out / "report.json").exists()


def test_fit_writes_refinement_table(tmp_path, capsys):
    rng = np.random.default_rng(1)
    X = rng.uniform(-1.0, 1.0, size=(20, 2))
    y = X @ np.array([0.5, 0.5])
    path = tmp_path / "samples.csv"
    _write_samples(path, X, y)
    out = tmp_path / "fit"
    code, _ = _run(
        capsys, "fit", "--samples", str(path), "--K", "8", "--J", "9", "--levels", "2", "--out", str(out)
    )
    assert code == EXIT_OK
    table = (out / "refinement.csv").read_text().splitlines()
    assert table[0] == "K,J,norm,gap"
    assert len(table) == 3


def test_fit_unreachable_tolerance_exits_5(tmp_path, capsys):
    # 60 noise targets exceed the 8x9 dictionary capacity at tol 0: the
    # solver cannot converge, but the report is still produced.
    rng = np.random.default_rng(2)
    X = rng.uniform(-1.0, 1.0, size=(60, 2))
    y = rng.standard_normal(60)
    path = tmp_path / "samples.csv"
    _write_samples(path, X, y)
    out = tmp_path / "fit"
    code, report = _run(
        capsys, "fit", "--samples", str(path), "--K", "8", "--J", "9", "--tol", "0", "--out", str(out)
    )
    assert code == EXIT_SOLVER
    assert report["result"]["converged"] is False
    assert (out / "report.json").exists()


def test_fit_bad_header_exits_4(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    code, _ = _run(capsys, "fit", "--samples", str(path))
    assert code == EXIT_IO


@pytest.mark.parametrize(
    "text",
    [
        "x1,x2,y\n",  # header only
        "",  # empty file
        "x1,x2,y\n0.1,0.2,nan\n0.3,0.4,1.0\n",  # non-finite target
        "x1,x2,y\n0.1,0.2\n",  # missing column
    ],
)
def test_fit_malformed_samples_exit_4(tmp_path, capsys, text):
    path = tmp_path / "samples.csv"
    path.write_text(text)
    assert _run_failing(capsys, "fit", "--samples", str(path)) == EXIT_IO


def test_diagnose_pyramid_geometry(tmp_path, capsys):
    doc = {
        "segments": [
            [[0.0, 0.0], [1.0, 0.0], 2.0],
            [[0.0, 0.0], [0.0, 1.0], 2.0],
            [[0.0, 0.0], [-1.0, 0.0], 2.0],
            [[0.0, 0.0], [0.0, -1.0], 2.0],
            [[1.0, 0.0], [0.0, 1.0], -math.sqrt(2.0)],
            [[0.0, 1.0], [-1.0, 0.0], -math.sqrt(2.0)],
            [[-1.0, 0.0], [0.0, -1.0], -math.sqrt(2.0)],
            [[0.0, -1.0], [1.0, 0.0], -math.sqrt(2.0)],
        ],
        "normals": [[1.0, 0.0], [0.7071067811865476, 0.7071067811865476]],
    }
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "diag"
    code, report = _run(capsys, "diagnose", "--geometry", str(path), "--out", str(out))
    assert code == EXIT_OK
    assert report["result"]["infinite"] is True
    classes = [e["classification"] for e in report["result"]["entries"]]
    assert classes == ["CONSTANT", "DECAYING"]
    assert (out / "decay_0.csv").exists()
    assert (out / "decay_1.csv").exists()


def test_diagnose_bad_geometry_exits_4(tmp_path, capsys):
    path = tmp_path / "geometry.json"
    path.write_text("{not json")
    code, _ = _run(capsys, "diagnose", "--geometry", str(path))
    assert code == EXIT_IO


def test_demo_parallelogram(capsys):
    code, report = _run(capsys, "demo", "parallelogram")
    assert code == EXIT_OK
    assert report["result"]["violation"] is True
    assert report["result"]["norms"] == pytest.approx([1.0, 1.0, 2.0, 2.0])


def test_demo_sweep(capsys):
    code, report = _run(capsys, "demo", "sweep")
    assert code == EXIT_OK
    assert all(row["threshold_ok"] for row in report["result"]["rows"])


def test_reports_are_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(20, 2))
    y = np.abs(X[:, 0])
    path = tmp_path / "samples.csv"
    _write_samples(path, X, y)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        _run(capsys, "fit", "--samples", str(path), "--K", "8", "--J", "9", "--tol", "0.01", "--out", str(out))
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
