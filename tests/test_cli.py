import argparse
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rnorm
from rnorm import RadialFunction, Sinogram, bump_poly, constants, fitting, rnorm_radial_odd, sample_grid
from rnorm.cli import EXIT_DIMENSION, EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, build_parser, main


def _reject_constant(name):
    raise ValueError(f"report carries {name}, which is not JSON")


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out, parse_constant=_reject_constant) if out.strip() else None
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


@pytest.mark.parametrize("d,k,eps", [(3, 2, 2.0), (5, 2, 1.5), (3, 1, 1.5)])
def test_radial_epsilon_reports_the_dilated_profile(d, k, eps, capsys):
    code, report = _run(capsys, "radial", "--d", str(d), "--profile", f"poly:k={k}", "--epsilon", str(eps))
    assert code == EXIT_OK
    exact = rnorm_radial_odd(RadialFunction(d, bump_poly(k, dilation=Fraction(eps)))).to_dict()
    got = report["result"]
    if exact["value"] == "infinite":
        assert got["value"] == "infinite"
    else:
        assert got["value"] == pytest.approx(exact["value"], rel=1e-12)
    atoms = exact["diagnostics"]["atoms"]
    assert len(got["diagnostics"]["atoms"]) == len(atoms) > 0
    for mine, theirs in zip(got["diagnostics"]["atoms"], atoms):
        assert mine == pytest.approx(theirs, rel=1e-12)


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


@pytest.mark.parametrize(
    "flags", [("--K", "16"), ("--K", "31"), ("--J", "63"), ("--K", "3000000", "--J", "3000000"), ("--J", "131073")]
)
def test_grid_too_small_sinogram_exits_2_before_reading(flags, capsys):
    # the input does not exist: the size check comes first; K*J above 2**25 is too large
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


def test_fit_exit_0_means_residual_within_tol(tmp_path, capsys):
    # a converged fit with a residual in (tol, tol (1 + 1e-3) + 1e-9] would sit
    # below the LP optimum; this fit lands there unless the loop iterates in
    # the tube narrowed by the stopping rule's slack
    from rnorm.fitting import disc_samples

    X = disc_samples(11, 1.0, 34)
    y = np.maximum(X @ np.array([0.6, 0.8]) - 0.2, 0.0)
    path = tmp_path / "samples.csv"
    _write_samples(path, X, y)
    code, report = _run(capsys, "fit", "--samples", str(path), "--K", "8", "--J", "9", "--tol", "0.1")
    assert code == EXIT_OK
    assert report["result"]["residual_max"] <= 0.1


def test_fit_writes_refinement_table(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(1)
    X = rng.uniform(-1.0, 1.0, size=(20, 2))
    y = X @ np.array([0.5, 0.5])
    path = tmp_path / "samples.csv"
    _write_samples(path, X, y)
    out = tmp_path / "fit"
    argv = ("fit", "--samples", str(path), "--K", "8", "--J", "9", "--levels", "2", "--out", str(out))
    code, _ = _run(capsys, *argv)
    assert code == EXIT_OK
    table = (out / "refinement.csv").read_text().splitlines()
    assert table[0] == "K,J,norm,gap,converged"
    assert len(table) == 3
    assert all(row.endswith(",true") for row in table[1:])

    # one unconverged level fails the command, although the final fit converged
    def last_level_unconverged(q, **kwargs):
        fit = fitting.min_norm_fit(q, **kwargs)
        return dataclasses.replace(fit, converged=fit.converged and q.K != 16)

    monkeypatch.setattr(rnorm.cli, "min_norm_fit", last_level_unconverged)
    code, report = _run(capsys, *argv)
    assert code == EXIT_SOLVER and report["result"]["converged"]
    assert (out / "refinement.csv").read_text().splitlines()[-1].endswith(",false")


def test_fit_builds_every_level_before_the_first_solve(tmp_path, capsys, monkeypatch):
    # --levels 40 overflows the dictionary budget at its eighth level, before any solve
    def solve(*args, **kwargs):
        raise AssertionError("a level was solved before every level was built")

    monkeypatch.setattr(rnorm.cli, "min_norm_fit", solve)
    assert _run_failing(capsys, *_fit_argv(tmp_path, "--levels", "40")) == EXIT_USAGE


def test_fit_levels_report_unconverged_levels(tmp_path, capsys):
    # every level stops at the iteration cap, its gap negative at the first two;
    # the LP optimum of level 0 is 4.4540, 13% above the first norm
    X = fitting.disc_samples(40, 1.0, 3)
    y = np.maximum(X @ np.array([0.6, 0.8]) - 0.2, 0.0) + np.abs(X[:, 1])
    path = tmp_path / "samples.csv"
    _write_samples(path, X, y)
    out = tmp_path / "fit"
    code, _ = _run(
        capsys, "fit", "--samples", str(path), "--K", "16", "--J", "17", "--levels", "3", "--out", str(out)
    )
    assert code == EXIT_SOLVER
    rows = [row.split(",") for row in (out / "refinement.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1], r[4]) for r in rows] == [("16", "17", "false"), ("32", "33", "false"), ("64", "65", "false")]
    assert [float(r[2]) for r in rows] == pytest.approx([3.8747, 2.9947, 2.9926], abs=1e-4)


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


def test_grid_csv_is_parsed_from_the_stream(tmp_path):
    import tracemalloc

    from rnorm.cli import _read
    from rnorm.grids import GridFunction2D

    f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 256, 8.0)
    path = tmp_path / "grid.csv"
    path.write_text(f.to_csv())
    size = path.stat().st_size
    # the stream's len() is the file size, as the len() of its text was
    assert _read(str(path), len) == size
    _read(str(path), GridFunction2D.from_csv)  # numpy's lazy imports happen before the trace
    tracemalloc.start()
    try:
        g = _read(str(path), GridFunction2D.from_csv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.values, f.values)
    # the text is never held whole: the parse peaks below twice the file size
    assert peak <= 2 * size, (peak, size)


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


def test_fit_three_dimensional_samples_exit_3(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("x1,x2,x3,y\n0.1,0.2,0.3,1.0\n-0.4,0.5,0.6,2.0\n")
    code = main(["fit", "--samples", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_DIMENSION
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


_SEGMENT = [[0.0, 0.0], [1.0, 0.0], 2.0]


def _fit_argv(tmp_path, *flags):
    path = tmp_path / "samples.csv"
    _write_samples(path, [(0.1, 0.2), (-0.3, 0.4), (0.5, -0.5)], [1.0, 2.0, 0.0])
    return ["fit", "--samples", str(path), *flags]


def _diagnose_argv(tmp_path, doc):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(doc))
    return ["diagnose", "--geometry", str(path)]


@pytest.mark.parametrize(
    "make_argv, expected",
    [
        (lambda t: _fit_argv(t, "--tol", "-1"), EXIT_USAGE),
        (lambda t: _fit_argv(t, "--tol", "nan"), EXIT_USAGE),
        (lambda t: _fit_argv(t, "--levels", "1"), EXIT_USAGE),
        (lambda t: _fit_argv(t, "--levels", "-1"), EXIT_USAGE),
        (lambda t: _fit_argv(t, "--K", "0"), EXIT_USAGE),
        (lambda t: _fit_argv(t, "--K", "15"), EXIT_USAGE),
        (lambda t: _fit_argv(t, "--levels", "40"), EXIT_USAGE),
        (lambda t: _fit_argv(t, "--K", "100000", "--J", "100000"), EXIT_USAGE),
        (lambda t: ["radial", "--d", "3", "--profile", "poly:k=2", "--epsilon", "nan"], EXIT_USAGE),
        (lambda t: ["radial", "--d", "3", "--profile", "poly:k=2", "--epsilon", "inf"], EXIT_USAGE),
        # value/epsilon, the dilated value, overflows to inf
        (lambda t: ["radial", "--d", "3", "--profile", "poly:k=2", "--epsilon", "1e-320"], EXIT_USAGE),
        (lambda t: ["radial", "--d", "3", "--profile", "exp-bump", "--epsilon", "1e-320"], EXIT_USAGE),
        # the value is infinite, and an atom's dilated mass, 60/epsilon, overflows
        (lambda t: ["radial", "--d", "5", "--profile", "poly:k=1", "--epsilon", "1e-307"], EXIT_USAGE),
        (lambda t: _diagnose_argv(t, [1, 2]), EXIT_IO),
        (lambda t: _diagnose_argv(t, {"segments": 5, "normals": [[1.0, 0.0]]}), EXIT_IO),
        (lambda t: _diagnose_argv(t, {"segments": [_SEGMENT], "normals": [[1.0, 0.0, 0.0]]}), EXIT_IO),
        (lambda t: _diagnose_argv(t, {"segments": [_SEGMENT], "normals": [[0.0, 0.0]]}), EXIT_IO),
        # --out names a path below a regular file
        (lambda t: ["radial", "--d", "3", "--profile", "poly:k=2", "--out", os.path.join(__file__, "out")], EXIT_IO),
    ],
    ids=[
        "fit-tol-negative", "fit-tol-nan", "fit-levels-1", "fit-levels-negative", "fit-K-0", "fit-K-odd",
        "fit-levels-40", "fit-dictionary-too-large",
        "radial-epsilon-nan", "radial-epsilon-inf", "radial-epsilon-overflow", "radial-exp-bump-epsilon-overflow",
        "radial-infinite-atom-overflow",
        "diagnose-list", "diagnose-segments-int",
        "diagnose-3d-normal", "diagnose-zero-normal", "out-below-a-file",
    ],
)
def test_bad_input_gives_one_error_line_and_its_exit_code(tmp_path, capsys, make_argv, expected):
    assert _run_failing(capsys, *make_argv(tmp_path)) == expected


def _run_isolated(argv):
    """main(argv) with its own stdout and stderr, for hypothesis tests (no capsys)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_rejected(command, flag, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = _run_isolated([command, flag, path])
    assert code in (EXIT_USAGE, EXIT_DIMENSION, EXIT_IO), (code, err)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)
_GRID_ROWS = [
    [float(v) for v in line.split(",")]
    for line in sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2)), 16, 2.0).to_csv().splitlines()[1:]
]


@st.composite
def _corrupted_lines(draw, rows):
    """CSV lines of rows, one of them with a non-finite or non-numeric cell, or a
    wrong column count."""
    lines = [[f"{v:.17g}" for v in row] for row in rows]
    line = lines[draw(st.integers(0, len(lines) - 1))]
    kind = draw(st.sampled_from(["cell", "short", "long"]))
    if kind == "cell":
        bad = ["nan", "inf", "-inf", "1e999", "", "abc", "1,2", "0x1"]
        line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(bad))
    elif kind == "short":
        line.pop()
    else:
        line.append("0")
    return [",".join(cells) for cells in lines]


@given(data=st.data(), text=_TEXT, corrupt=st.booleans())
@settings(max_examples=30, deadline=None)
def test_grid_rejects_malformed_csv(data, text, corrupt):
    # a text body has fewer than the 256 rows of the smallest (16 x 16) grid
    body = "\n".join(data.draw(_corrupted_lines(_GRID_ROWS))) if corrupt else text
    _assert_rejected("grid", "--input", "x,y,value\n" + body + "\n")


@given(data=st.data(), text=_TEXT, d=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_fit_rejects_malformed_csv(data, text, d):
    rows = data.draw(st.lists(st.lists(st.floats(-1, 1), min_size=d + 1, max_size=d + 1), min_size=1, max_size=5))
    header = ",".join(f"x{i + 1}" for i in range(d)) + ",y"
    body = "\n".join([text] + data.draw(_corrupted_lines(rows)))
    _assert_rejected("fit", "--samples", header + "\n" + body + "\n")


_NON_NUMBERS = st.sampled_from([None, "a", [1.0], {}, math.nan, math.inf, -math.inf])
_NOT_A_POINT = st.one_of(
    st.none(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.floats(-1, 1), max_size=4).filter(lambda v: len(v) != 2),
    st.tuples(st.floats(-1, 1), _NON_NUMBERS).map(list),
)
_NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def _malformed_geometry(draw):
    """A geometry JSON document with exactly one part of the wrong shape or value."""
    doc = {"segments": [[[0.0, 0.0], [1.0, 0.0], 2.0], [[0.0, 0.0], [0.0, 1.0], -1.0]], "normals": [[1.0, 0.0]]}
    seg = doc["segments"][draw(st.integers(0, 1))]
    part = draw(st.sampled_from(["text", "document", "key", "list", "segment", "point", "coeff", "normal"]))
    if part == "text":
        return draw(_TEXT.filter(lambda t: "segments" not in t))
    if part == "document":
        return json.dumps(draw(_NOT_A_LIST.filter(lambda v: not isinstance(v, dict)) | st.lists(st.integers(), max_size=2)))
    if part == "key":
        del doc[draw(st.sampled_from(["segments", "normals"]))]
    elif part == "list":
        doc[draw(st.sampled_from(["segments", "normals"]))] = draw(_NOT_A_LIST)
    elif part == "segment":
        doc["segments"][0] = draw(_NOT_A_LIST | st.lists(st.just([0.0, 0.0]), max_size=4).filter(lambda v: len(v) != 3))
    elif part == "point":
        seg[draw(st.integers(0, 1))] = draw(_NOT_A_POINT)
    elif part == "coeff":
        seg[2] = draw(st.sampled_from([0, 0.0, "a", None, [1.0], {}, math.nan, math.inf, -math.inf]))
    else:
        doc["normals"].append(draw(st.one_of(_NOT_A_POINT, st.sampled_from([[0.0, 0.0], [-0.0, 0.0]]))))
    return json.dumps(doc)


@given(text=_malformed_geometry())
@settings(max_examples=40, deadline=None)
def test_diagnose_rejects_malformed_geometry(text):
    _assert_rejected("diagnose", "--geometry", text)


def test_process_exit_code_and_no_traceback(tmp_path):
    argv = _fit_argv(tmp_path, "--tol", "nan")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(rnorm.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "rnorm.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


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


def test_removed_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "1", "radial", "--d", "3", "--profile", "poly:k=2"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_config_echoes_each_commands_flags(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text(sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2)), 32, 3.0).to_csv())
    cases = [
        (["radial", "--d", "3", "--profile", "poly:k=2", "--epsilon", "1.5"],
         {"command": "radial", "d": 3, "profile": "poly:k=2", "epsilon": 1.5}),
        (["grid", "--input", str(grid), "--K", "32", "--J", "65"],
         {"command": "grid", "input": str(grid), "K": 32, "J": 65}),
        (_fit_argv(tmp_path, "--K", "8", "--J", "9", "--no-linear-unit"),
         {"command": "fit", "samples": str(tmp_path / "samples.csv"), "K": 8, "J": 9, "tol": 1e-3,
          "use_linear_unit": False, "levels": 0}),
        (_diagnose_argv(tmp_path, {"segments": [_SEGMENT], "normals": [[1.0, 0.0]]}),
         {"command": "diagnose", "geometry": str(tmp_path / "geometry.json")}),
        (["demo", "parallelogram"], {"command": "demo", "name": "parallelogram", "seed": 0}),
    ]
    for argv, config in cases:
        _, report = _run(capsys, *argv)
        assert report["config"] == config, argv[0]


def test_every_option_is_read_by_its_command():
    parser = build_parser()
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.dest for a in parser._actions if a not in subparsers] == ["help"]
    for name, sub in subparsers[0].choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (name, action.dest)
