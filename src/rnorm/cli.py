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
from .fitting import FitProblem, min_norm_fit, refinement_study
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


def _report(config: dict, payload: dict, d: int = 2) -> dict:
    return {
        "version": _version(),
        "config": config,
        "constants": constants(d).as_dict(),
        "result": payload,
    }


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(report: dict, out_dir: str | None, extras: dict | None = None) -> None:
    text = _dump(report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text)
        for name, content in (extras or {}).items():
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(content)
    sys.stdout.write(text)


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
    config = {
        "command": "radial", "d": args.d, "profile": args.profile, "epsilon": args.epsilon,
    }
    f = _parse_profile(args.profile, args.d)
    if not 0 < args.epsilon < math.inf:
        raise ValueError("--epsilon must be positive and finite")
    rep = rnorm_radial_odd(f)
    # dilation by epsilon scales the value by 1/epsilon (no resampling needed)
    payload = rep.to_dict()
    if not rep.is_infinite and args.epsilon != 1.0:
        payload["value"] = rep.value / args.epsilon
        if not math.isfinite(payload["value"]):
            raise ValueError(f"--epsilon {args.epsilon} overflows the dilated value")
        if rep.error_estimate is not None:
            payload["error_estimate"] = rep.error_estimate / args.epsilon
    _emit(_report(config, payload, d=args.d), args.out)
    return EXIT_OK


def cmd_grid(args) -> int:
    config = {"command": "grid", "input": args.input, "K": args.K, "J": args.J}
    check_sinogram_size(args.K, args.J)
    f = _read(args.input, GridFunction2D.from_csv)
    rep = rnorm_grid_2d(f, K=args.K, J=args.J)
    _emit(_report(config, rep.to_dict()), args.out, {"sinogram.csv": rep.sinogram.to_csv()})
    return EXIT_OK


def _parse_samples(source: TextIO) -> tuple[np.ndarray, np.ndarray]:
    data = read_csv(source, "x[^,]*(,x[^,]*)*,y", label="x1,...,xd,y")
    return data[:, :-1], data[:, -1]


def cmd_fit(args) -> int:
    config = {
        "command": "fit", "samples": args.samples, "K": args.K, "J": args.J,
        "tol": args.tol, "use_linear_unit": not args.no_linear_unit,
        "levels": args.levels,
    }
    X, y = _read(args.samples, _parse_samples)
    p = FitProblem(X, y, K=args.K, J=args.J, tol=args.tol, use_linear_unit=not args.no_linear_unit)
    extras = {}
    if args.levels:
        # before the fit, so that a bad --levels fails before the long solve
        rows = refinement_study(p, args.levels)
        lines = ["K,J,norm,gap"] + [
            f"{r['K']},{r['J']},{r['norm']:.17g},{r['gap']:.17g}" for r in rows
        ]
        extras["refinement.csv"] = "\n".join(lines) + "\n"
    fit = min_norm_fit(p)
    _emit(_report(config, fit.to_dict()), args.out, extras)
    return EXIT_OK if fit.converged else EXIT_SOLVER


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
    config = {"command": "diagnose", "geometry": args.geometry}
    mu, normals = _read(args.geometry, _parse_geometry)
    cert = pwl_infinite_certificate(mu, normals)
    extras = {
        f"decay_{i}.csv": e.sample.to_csv() for i, e in enumerate(cert.entries)
    }
    _emit(_report(config, cert.to_dict()), args.out, extras)
    return EXIT_OK


def cmd_demo(args) -> int:
    config = {"command": "demo", "name": args.name, "seed": args.seed}
    extras: dict[str, str] = {}
    if args.name == "parallelogram":
        payload = parallelogram_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    elif args.name == "pyramid":
        _, eq_report = pyramid_threelayer()
        cert = pwl_infinite_certificate(pyramid_geometry(), [np.array([1.0, 0.0])])
        payload = {"threelayer": eq_report, "certificate": cert.to_dict()}
        extras = {f"decay_{i}.csv": e.sample.to_csv() for i, e in enumerate(cert.entries)}
    elif args.name == "gap":
        payload = rbar_gap_demo(seed=args.seed)
    else:  # "sweep"; argparse choices admit no other name
        payload = {"rows": bump_finiteness_sweep([3, 5, 7], [1, 2, 3, 4, 5, 6])}
    _emit(_report(config, payload), args.out, extras)
    return EXIT_OK


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
    p.add_argument("--no-linear-unit", action="store_true", help="disable the free linear unit")
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
