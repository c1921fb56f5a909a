"""The three workloads: seeded input generators, the timed op, and its check.

Every op gets fresh inputs drawn from ``op_seed``; the program receives only
those inputs (files written here with numpy, or arguments of a library
call).  ``run`` is the timed part.  ``check`` compares the op's output with
a reference that does not use the code path under test, and runs after the
timed loop, so that its memory does not reach ``peak_rss_mb``.

Op sizes are fixed per workload and kept to a few seconds or less, so that
a run holds many ops and their median is a steady figure on a shared host: grid512 samples a 64 x 97 sinogram (default 256 x 513), fit solves
100 samples on a 16 x 17 atom grid (criterion 9: 200 on 64 x 65), and exact
takes the Laplacian lower bound in d = 3 and 5 only and a 200-unit net.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from fractions import Fraction

import numpy as np

import rnorm
import rnorm.cli

# grid512: unit Gaussian on a 512^2 grid of half-extent 8
GRID_N = 512
GRID_HALF = 8.0
GRID_K = 64
GRID_J = 97
GRID_TOL = 0.02
GAUSSIAN_ORACLE = 4.768559  # criterion 6's 1-D semi-analytic value, 7 digits

# fit: criterion 9's planted 3-unit net, on a 16 x 17 atom grid; every op
# still hits the solver's 50 000-iteration cap
FIT_N = 100
FIT_RADIUS = 3.0
FIT_K = 16
FIT_J = 17
FIT_TOL = 1e-3
FIT_OBJ_TOL = 0.005
# (weight, angle index, offset index) on the K x J grid; criterion 9's units
# at (4, 36), (20, 28), (50, 40) of its 64 x 65 grid, quartered and rounded
FIT_UNITS = ((2.0, 1, 9), (-1.0, 5, 7), (0.5, 12, 10))

# exact: bracket bumps (1 - r^2/eps^2)^((d+5)/2); the exact norm takes
# milliseconds in every d, the Laplacian lower bound most of a second
EXACT_DIMS = (3, 5, 7, 9)
LOWER_BOUND_DIMS = (3, 5)
EXACT_NET_UNITS = 200
EXACT_REL_TOL = 1e-9
EXP_BUMP_REL_TOL = 1e-4


def gaussian_oracle() -> float:
    """d=2 R-norm of exp(-r^2/2) from its 1-D Radon profile (criterion 6)."""
    n, half = 2**16, 40.0
    h = 2 * half / n
    b = (np.arange(n) - n / 2) * h
    prof = math.sqrt(2.0 * math.pi) * np.exp(-(b**2) / 2.0)
    xi = 2.0 * math.pi * np.fft.fftfreq(n, h)
    filt = np.fft.ifft(np.fft.fft(prof) * np.abs(xi) ** 3).real
    return (1.0 / (4.0 * math.pi)) * 2.0 * math.pi * float(np.abs(filt).sum()) * h


def exp_bump_reference() -> float:
    """2 * int_0^1 |(b g(b))'''| db for g = exp(-1/(1-b^2)), by finite differences.

    For d=3 the fourth derivative of the Radon profile is -(b g)''', so this
    is the exp-bump R-norm without sympy or quadrature.
    """
    # 32001 points: finer steps lose more to rounding in the third difference
    # than they gain; the value here is within 4e-6 of the converged one
    b = np.linspace(0.0, 1.0, 32_001)
    inside = b < 1.0
    g = np.zeros_like(b)
    g[inside] = np.exp(-1.0 / (1.0 - b[inside] ** 2))
    d3 = b * g
    for _ in range(3):
        d3 = np.gradient(d3, b, edge_order=2)
    return 2.0 * float(np.trapezoid(np.abs(d3), b))


def line_samples(n: int, h: float, K: int, J: int) -> int:
    """Bilinear samples one grid_radon_2d call takes: K * J * (2 nt + 1).

    nt is the half-length, in steps of h/2, of a line across 1.01 times the
    grid's half-diagonal (computed, not counted by the program).
    """
    half_diagonal = (n - 1) / 2.0 * h * math.sqrt(2.0)
    nt = int(math.ceil(half_diagonal * 1.01 / (h / 2.0)))
    return K * J * (2 * nt + 1)


def _write_csv(path: str, header: str, columns) -> None:
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write((row * data.shape[0]) % tuple(data.ravel()))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = rnorm.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Grid512:
    """`rnorm grid` on a 512^2 CSV of a shifted unit Gaussian."""

    name = "grid512"

    def __init__(self, workdir: str):
        self.workdir = workdir
        oracle = gaussian_oracle()
        if _rel(oracle, GAUSSIAN_ORACLE) > 1e-6:
            raise RuntimeError(f"Gaussian oracle drifted: {oracle}")
        self.oracle = oracle

    def generate(self, op_seed: int) -> dict:
        rng = np.random.default_rng(op_seed)
        dx, dy = rng.uniform(-0.5, 0.5, 2)
        h = 2.0 * GRID_HALF / GRID_N
        ax = (np.arange(GRID_N) - (GRID_N - 1) / 2.0) * h
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        V = np.exp(-((X - dx) ** 2 + (Y - dy) ** 2) / 2.0)
        path = os.path.join(self.workdir, f"grid-{op_seed}.csv")
        _write_csv(path, "x,y,value", (X.ravel(), Y.ravel(), V.ravel()))
        out = os.path.join(self.workdir, f"grid-{op_seed}-out")
        return {"path": path, "out": out, "shift": [float(dx), float(dy)]}

    def run(self, inp: dict) -> dict:
        code, text = _run_cli(
            ["grid", "--input", inp["path"], "--out", inp["out"], "--K", str(GRID_K), "--J", str(GRID_J)]
        )
        return {"exit_code": code, "stdout": text}

    def collect(self, inp: dict, out: dict) -> dict:
        """Untimed bookkeeping right after the op: artifact sizes, input clean-up."""
        size = len(out["stdout"].encode())
        if os.path.isdir(inp["out"]):
            size += sum(e.stat().st_size for e in os.scandir(inp["out"]))
        shutil.rmtree(inp["out"], ignore_errors=True)
        os.remove(inp["path"])
        return {"artifact_mb": size / 1e6, "sinogram_written": size > len(out["stdout"].encode())}

    def check(self, inp: dict, out: dict, info: dict) -> tuple[bool, dict]:
        value = json.loads(out["stdout"])["result"]["value"]
        relerr = _rel(value, self.oracle)
        ok = out["exit_code"] == 0 and info["sinogram_written"] and relerr <= GRID_TOL
        return ok, {"value": value, "grid_relerr": relerr}


class Fit:
    """`rnorm fit` on samples of a planted 3-unit net at seeded points."""

    name = "fit"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def generate(self, op_seed: int) -> dict:
        rng = np.random.default_rng(op_seed)
        rr = FIT_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, FIT_N))
        th = rng.uniform(0.0, 2.0 * math.pi, FIT_N)
        X = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
        # the CLI's default offset range, so the planted units sit on its grid
        B = 1.05 * float(np.linalg.norm(X, axis=1).max())
        angles = np.arange(FIT_K) * 2.0 * math.pi / FIT_K
        offsets = np.linspace(-B, B, FIT_J)
        y = np.zeros(FIT_N)
        for a, k, j in FIT_UNITS:
            w = np.array([math.cos(angles[k]), math.sin(angles[k])])
            y += a * np.maximum(X @ w - offsets[j], 0.0)
        path = os.path.join(self.workdir, f"fit-{op_seed}.csv")
        _write_csv(path, "x1,x2,y", (X[:, 0], X[:, 1], y))
        return {"path": path, "X": X, "y": y}

    def run(self, inp: dict) -> dict:
        code, text = _run_cli(["fit", "--samples", inp["path"], "--K", str(FIT_K), "--J", str(FIT_J)])
        return {"exit_code": code, "stdout": text}

    def collect(self, inp: dict, out: dict) -> dict:
        os.remove(inp["path"])
        return {"artifact_mb": len(out["stdout"].encode()) / 1e6}

    def check(self, inp: dict, out: dict, info: dict) -> tuple[bool, dict]:
        res = json.loads(out["stdout"])["result"]
        p = rnorm.FitProblem(inp["X"], inp["y"], K=FIT_K, J=FIT_J, tol=FIT_TOL)
        exact = rnorm.lp_oracle(p)
        relerr = _rel(res["objective"], exact)
        ok = (
            out["exit_code"] == 0
            and res["residual_max"] <= FIT_TOL
            and relerr <= FIT_OBJ_TOL
        )
        return ok, {
            "objective": res["objective"], "lp_objective": exact, "obj_relerr_lp": relerr,
            "residual_max": res["residual_max"], "converged": res["converged"],
        }


class Exact:
    """Exact radial and finite-net norms for a seeded rational dilation."""

    name = "exact"

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.exp_bump = exp_bump_reference()

    def generate(self, op_seed: int) -> dict:
        rng = np.random.default_rng(op_seed)
        eps = Fraction(int(rng.integers(3, 13)), int(rng.integers(3, 13)))
        a = rng.uniform(0.1, 2.0, EXACT_NET_UNITS) * rng.choice([-1.0, 1.0], EXACT_NET_UNITS)
        th = rng.uniform(0.0, 2.0 * math.pi, EXACT_NET_UNITS)
        b = rng.uniform(-1.0, 1.0, EXACT_NET_UNITS)
        units = tuple(
            (float(a[i]), np.array([math.cos(th[i]), math.sin(th[i])]), float(b[i]))
            for i in range(EXACT_NET_UNITS)
        )
        return {"eps": eps, "net": rnorm.FiniteReluNet(2, units), "abs_weights": float(np.abs(a).sum())}

    def run(self, inp: dict) -> dict:
        eps = inp["eps"]
        out = {"bracket": {}, "lower": {}}
        for d in EXACT_DIMS:
            f = rnorm.RadialFunction(d, rnorm.bump_poly((d + 5) // 2, dilation=eps))
            out["bracket"][d] = rnorm.rnorm_radial_odd(f).value
            if d in LOWER_BOUND_DIMS:
                out["lower"][d] = rnorm.laplacian_lower_bound(f)
        out["quartic"] = rnorm.rnorm_radial_odd(rnorm.RadialFunction(3, rnorm.bump_poly(2, dilation=eps))).value
        out["sweep"] = rnorm.bump_finiteness_sweep([3, 5, 7], [1, 2, 3, 4, 5, 6])
        out["exp_bump"] = rnorm.rnorm_radial_odd(rnorm.RadialFunction(3, kind="exp-bump")).value
        out["net"] = rnorm.rnorm_finite_net(inp["net"]).value
        return out

    def collect(self, inp: dict, out: dict) -> dict:
        return {"artifact_mb": 0.0}

    def check(self, inp: dict, out: dict, info: dict) -> tuple[bool, dict]:
        e = float(inp["eps"])
        fails = []
        for d in EXACT_DIMS:
            if not (d + 5) * d / e <= out["bracket"][d] <= 2.0 * d * (d + 5) / e:
                fails.append(f"bracket d={d}")
            if d in LOWER_BOUND_DIMS and _rel(out["lower"][d], d * (d + 5) / e**2) > EXACT_REL_TOL:
                fails.append(f"lower bound d={d}")
        if _rel(out["quartic"], (32.0 + 32.0 / math.sqrt(5.0)) / e) > EXACT_REL_TOL:
            fails.append("quartic")
        if not all(r["threshold_ok"] and r.get("bracket_ok", True) for r in out["sweep"]):
            fails.append("sweep")
        if _rel(out["exp_bump"], self.exp_bump) > EXP_BUMP_REL_TOL:
            fails.append("exp-bump")
        if _rel(out["net"], inp["abs_weights"]) > EXACT_REL_TOL:
            fails.append("net")
        return not fails, {"eps": str(inp["eps"]), "failed_checks": fails}


WORKLOADS = {w.name: w for w in (Grid512, Fit, Exact)}
