"""Command-line interface: radial/grid/fit/diagnose/demo pipelines with JSON reports.

Exit codes: 0 success, 2 invalid flags, 3 unsupported dimension, 4 I/O
failure, 5 solver non-convergence (the report is still written).  Commands
raise; ``main`` turns each exception into one ``error:`` line and its code.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import replace
from importlib.metadata import PackageNotFoundError, version as pkg_version
from typing import TextIO

import numpy as np

from .analysis import (
    bump_finiteness_sweep,
    parallelogram_check,
    pwl_infinite_certificate,
    pyramid_geometry,
    pyramid_threelayer,
    rbar_gap_demo,
)
from .constants import constants
from .engine import rnorm_grid_2d, rnorm_radial_odd
from .fitting import FitProblem, min_norm_fit, refinement_levels
from .grids import GridFunction2D, read_csv
# grid_radon_2d is unused here; it stays importable from rnorm.cli
from .radon import RadialFunction, UnsupportedDimensionError, bump_poly, check_sinogram_size, grid_radon_2d
from .spectral import PwlCurvatureMeasure2D

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIMENSION = 3
EXIT_IO = 4
EXIT_SOLVER = 5


class InputError(ValueError):
    """A file named on the command line does not parse as its flag's format."""


# the first matching type gives the code: InputError and
# UnsupportedDimensionError are ValueErrors
EXIT_CODES = {
    UnsupportedDimensionError: EXIT_DIMENSION,
    InputError: EXIT_IO,
    OSError: EXIT_IO,
    ValueError: EXIT_USAGE,
}


def _version() -> str:
    try:
        return pkg_version("rnorm")
    except PackageNotFoundError:
        return "0.0.0+local"


def _emit(out_dir: str | None, args, payload: dict, extras: dict | None = None, converged: bool = True) -> int:
    """Write the command's report, whose config echoes its flags, to stdout and,
    with the extra files, to out_dir; return its exit code, EXIT_SOLVER when a
    solve behind the report did not converge."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    report = {
        "version": _version(),
        "config": config,
        "constants": constants(getattr(args, "d", 2)).as_dict(),
        "result": payload,
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in {"report.json": text, **(extras or {})}.items():
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(content)
    sys.stdout.write(text)
    return EXIT_OK if converged else EXIT_SOLVER


def _decay_csvs(cert) -> dict:
    """One decay_<i>.csv artifact per entry of an infinite-norm certificate."""
    return {f"decay_{i}.csv": e.sample.to_csv() for i, e in enumerate(cert.entries)}


class _TextFile(io.TextIOWrapper):
    """A file read as text whose len() is its size in bytes, as the len() of its text was (ASCII)."""

    def __len__(self) -> int:
        return os.fstat(self.fileno()).st_size


def _read(path: str, parse):
    """parse(the file at path, as a text stream); a parse failure becomes an InputError."""
    try:
        with _TextFile(open(path, "rb")) as fh:
            return parse(fh)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_profile(spec: str, d: int) -> RadialFunction:
    if spec == "exp-bump":
        return RadialFunction(d, kind="exp-bump")
    k = spec[len("poly:k="):]
    if spec.startswith("poly:k=") and k.isdecimal() and int(k) >= 1:
        return RadialFunction(d, bump_poly(int(k)))
    raise ValueError(f"profile must be 'poly:k=N' with N >= 1, or 'exp-bump', got {spec!r}")


def cmd_radial(args) -> int:
    f = _parse_profile(args.profile, args.d)
    eps = args.epsilon
    if not 0 < eps < math.inf:
        raise ValueError("--epsilon must be positive and finite")
    rep = rnorm_radial_odd(f)
    # f(x/eps) has the Radon profile eps^(d-1) rho(b/eps): its value, error and atom
    # masses are rep's divided by eps, and its atoms lie eps times as far out
    diag = dict(rep.diagnostics)
    if "atoms" in diag:
        diag["atoms"] = [[loc * eps, m / eps] for loc, m in diag["atoms"]]
    value = rep.value / eps
    overflow = math.isinf(value) and not rep.is_infinite
    if overflow or not all(math.isfinite(m) for _, m in diag.get("atoms", ())):
        raise ValueError(f"--epsilon {eps} overflows the dilated report")
    error = None if rep.error_estimate is None else rep.error_estimate / eps
    return _emit(args.out, args, replace(rep, value=value, error_estimate=error, diagnostics=diag).to_dict())


def cmd_grid(args) -> int:
    check_sinogram_size(args.K, args.J)
    f = _read(args.input, GridFunction2D.from_csv)
    rep = rnorm_grid_2d(f, K=args.K, J=args.J)
    return _emit(args.out, args, rep.to_dict(), {"sinogram.csv": rep.sinogram.to_csv()})


def _parse_samples(source: TextIO) -> tuple[np.ndarray, np.ndarray]:
    data = read_csv(source, "x[^,]*(,x[^,]*)*,y", label="x1,...,xd,y")
    return data[:, :-1], data[:, -1]


def cmd_fit(args) -> int:
    X, y = _read(args.samples, _parse_samples)
    p = FitProblem(X, y, K=args.K, J=args.J, tol=args.tol, use_linear_unit=args.use_linear_unit)
    extras, levels_converged = {}, True
    if args.levels:
        lines = ["K,J,norm,gap,converged"]
        # every level is built, so that a bad --levels fails, before the first solve
        for q in refinement_levels(p, args.levels):
            lf = min_norm_fit(q, max_iter=20_000, gap_rel=1e-4)
            lines.append(f"{q.K},{q.J},{lf.objective:.17g},{lf.duality_gap:.17g},{str(lf.converged).lower()}")
            levels_converged = levels_converged and lf.converged
        extras["refinement.csv"] = "\n".join(lines) + "\n"
    fit = min_norm_fit(p)
    return _emit(args.out, args, fit.to_dict(), extras, fit.converged and levels_converged)


def _parse_geometry(source: TextIO) -> tuple[PwlCurvatureMeasure2D, list]:
    doc = json.load(source)
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k), list) for k in ("segments", "normals"))):
        raise ValueError("geometry must be a JSON object with 'segments' and 'normals' lists")
    if not all(isinstance(s, list) and len(s) == 3 for s in doc["segments"]):
        raise ValueError("each geometry segment must be [p0, p1, coeff]")
    normals = [np.array(w, dtype=float) for w in doc["normals"]]
    if not all(w.shape == (2,) and np.all(np.isfinite(w)) and np.any(w) for w in normals):
        raise ValueError("geometry normals must be nonzero finite 2-vectors")
    return PwlCurvatureMeasure2D(tuple(doc["segments"])), normals


def cmd_diagnose(args) -> int:
    mu, normals = _read(args.geometry, _parse_geometry)
    cert = pwl_infinite_certificate(mu, normals)
    return _emit(args.out, args, cert.to_dict(), _decay_csvs(cert))


def cmd_demo(args) -> int:
    extras: dict[str, str] = {}
    converged = True
    if args.name == "parallelogram":
        payload = parallelogram_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    elif args.name == "pyramid":
        eq_report = pyramid_threelayer()
        cert = pwl_infinite_certificate(pyramid_geometry(), [np.array([1.0, 0.0])])
        payload = {"threelayer": eq_report, "certificate": cert.to_dict()}
        extras = _decay_csvs(cert)
    elif args.name == "gap":
        payload = rbar_gap_demo(seed=args.seed)
        converged = all(fit["converged"] for fit in payload["fits"].values())
    else:  # "sweep"; argparse choices admit no other name
        payload = {"rows": bump_finiteness_sweep([3, 5, 7], [1, 2, 3, 4, 5, 6])}
    return _emit(args.out, args, payload, extras, converged)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rnorm",
        description="Representational cost of functions as infinite-width two-layer ReLU networks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radial", help="exact R-norm of a radial function (odd d >= 3)")
    p.add_argument("--d", type=int, required=True, help="ambient dimension (odd, >= 3)")
    p.add_argument("--profile", required=True, help="radial profile: poly:k=N for (1-r^2)^k, or exp-bump")
    p.add_argument("--epsilon", type=float, default=1.0, help="dilation: profile argument r/epsilon")
    p.add_argument("--out", help="directory for report.json")
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("grid", help="numerical d=2 R-norm of a sampled grid function")
    p.add_argument("--input", required=True, help="grid CSV (x,y,value)")
    p.add_argument("--K", type=int, default=256, help="number of sinogram angles")
    p.add_argument("--J", type=int, default=513, help="number of sinogram offsets")
    p.add_argument("--out", help="directory for report.json + sinogram.csv of R{(-Delta)^(3/2) f}")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("fit", help="minimum-norm measure fit to sampled values")
    p.add_argument("--samples", required=True, help="samples CSV (x1,x2,...,y)")
    p.add_argument("--K", type=int, default=64, help="even angle count over the full circle: K/2 directions")
    p.add_argument("--J", type=int, default=65, help="dictionary offset count")
    p.add_argument("--tol", type=float, default=1e-3, help="sup-norm fitting tolerance")
    p.add_argument(
        "--no-linear-unit", dest="use_linear_unit", action="store_false", help="disable the free linear unit"
    )
    p.add_argument("--levels", type=int, default=0, help="refinement levels (writes refinement.csv)")
    p.add_argument("--out", help="directory for report.json + refinement.csv")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="infinite-norm certificate for a piecewise-linear geometry")
    p.add_argument("--geometry", required=True, help="geometry JSON with segments + normals")
    p.add_argument("--out", help="directory for report.json + decay curves")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("name", choices=["parallelogram", "pyramid", "gap", "sweep"])
    p.add_argument("--seed", type=int, default=0, help="seed for demo sample generation")
    p.add_argument("--out", help="directory for report.json")
    p.set_defaults(func=cmd_demo)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
