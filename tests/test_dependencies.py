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
    FiniteReluNet, RadialFunction, bump_poly, laplacian_lower_bound, rnorm_finite_net,
    rnorm_radial_odd, sample_grid,
)

bump = RadialFunction(3, kind="exp-bump")
rnorm_radial_odd(bump)
laplacian_lower_bound(bump)
rnorm_radial_odd(RadialFunction(5, bump_poly(3)))
rnorm_finite_net(FiniteReluNet(2, ((1.0, np.array([1.0, 0.0]), 0.5),)))
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "sympy"))
assert not loaded, loaded
assert "concurrent.futures" not in sys.modules

grid = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2)), 16, 1.0)
rnorm.radon.grid_radon_2d(grid, 32, 64)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "grid.csv")
    with open(path, "w") as fh:
        fh.write(grid.to_csv())
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
