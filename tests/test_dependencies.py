"""The package's third-party imports: what it declares, and what each route loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_ROUTES_WITHOUT_SCIPY = """
import contextlib
import io
import os
import sys
import tempfile
import threading
import numpy as np
import rnorm, rnorm.cli
from rnorm import (
    FiniteReluNet, RadialFunction, bump_finiteness_sweep, bump_poly, laplacian_lower_bound,
    rnorm_finite_net, rnorm_radial_odd, sample_grid,
)

# every caller of the exact sign-change routine: abs_integral, both laplacian_lower_bound
# branches and the exp bump's value
bump = RadialFunction(3, kind="exp-bump")
rnorm_radial_odd(bump)
laplacian_lower_bound(bump)
rnorm_radial_odd(RadialFunction(5, bump_poly(3)))
laplacian_lower_bound(RadialFunction(5, bump_poly(4)))
bump_finiteness_sweep([3], [2, 4])
rnorm_finite_net(FiniteReluNet(2, ((1.0, np.array([1.0, 0.0]), 0.5),)))
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy"))
assert not loaded, loaded
assert "concurrent.futures" not in sys.modules

grid = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2)), 16, 1.0)
rnorm.radon.grid_radon_2d(grid, 32, 64)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "grid.csv")
    ax = (np.arange(grid.n) - (grid.n - 1) / 2.0) * grid.h
    with open(path, "w") as fh:
        fh.write(rnorm.grids.write_table_csv("x,y,value", ax, ax, grid.values))
    with contextlib.redirect_stdout(io.StringIO()):
        code = rnorm.cli.main(["grid", "--input", path, "--K", "32", "--J", "64", "--out", os.path.join(tmp, "out")])
    assert code == 0, code
    # `rnorm fit` with refinement levels: the whole fit route, solver included
    path = os.path.join(tmp, "samples.csv")
    X = rnorm.fitting.disc_samples(12, 1.0, 0)
    np.savetxt(path, np.column_stack([X, np.abs(X[:, 0])]), delimiter=",", header="x1,x2,y", comments="")
    with contextlib.redirect_stdout(io.StringIO()):
        code = rnorm.cli.main(["fit", "--samples", path, "--K", "8", "--J", "9", "--levels", "2"])
    assert code in (0, 5), code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
# the sinogram's thread pool is shut down on return: no idle workers stay behind
assert threading.active_count() == 1, threading.enumerate()
"""


def test_import_and_exact_routes_load_no_scipy():
    # the exact routes load neither scipy nor sympy; a grid sinogram, `rnorm grid` and `rnorm fit` load no scipy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _ROUTES_WITHOUT_SCIPY], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_third_party_imports_are_the_declared_dependencies():
    imported = set()
    for path in (ROOT / "src" / "rnorm").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    block = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))
    assert third_party == declared == {"numpy", "scipy"}


def test_every_export_is_used_by_the_package_or_a_criterion():
    # a public name earns its place when a module of the package or an acceptance criterion uses it
    paths = [p for p in (ROOT / "src" / "rnorm").glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in paths + [ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    import rnorm

    assert sorted(set(rnorm.__all__) - used) == []


def test_arrays_are_frozen_only_by_the_value_type_helper():
    # grids.finite_copy is the one place that makes an array read-only: no value type aliases or
    # freezes a caller's array on its own
    freezing = set()
    for path in (ROOT / "src" / "rnorm").glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        helper = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "finite_copy"
                  for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("setflags", "writeable"):
                freezing.add((path.name, id(node) in helper))
    assert freezing == {("grids.py", True)}


def test_cli_exit_codes_come_from_the_report_writer():
    # cli._emit is the one place that turns a report into EXIT_OK or EXIT_SOLVER: every command
    # returns what it returns
    tree = ast.parse((ROOT / "src" / "rnorm" / "cli.py").read_text())
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 5
    for f in commands:
        returns = [n for n in ast.walk(f) if isinstance(n, ast.Return)]
        assert returns and all(
            isinstance(r.value, ast.Call) and isinstance(r.value.func, ast.Name) and r.value.func.id == "_emit"
            for r in returns
        ), f.name
    readers = {
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, ast.Name) and n.id in ("EXIT_OK", "EXIT_SOLVER")
    }
    assert readers == {"_emit"}
