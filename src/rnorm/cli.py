"""Command-line interface: radial/grid/fit/diagnose/demo pipelines with JSON reports.

Exit codes: 0 success, 2 invalid flags, 3 unsupported dimension, 4 I/O
failure, 5 solver non-convergence (the report is still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib.metadata import PackageNotFoundError, version as pkg_version

import numpy as np

from .analysis import (
    bump_finiteness_sweep,
    parallelogram_check,
    pwl_infinite_certificate,
    pyramid_geometry,
    pyramid_pwl,
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


def _version() -> str:
    try:
        return pkg_version("rnorm")
    except PackageNotFoundError:
        return "0.0.0+local"


def _report(config: dict, payload: dict, d: int = 2) -> dict:
    cst = constants(d)
    return {
        "version": _version(),
        "config": config,
        "constants": {"d": cst.d, "gamma_d": cst.gamma_d, "c_d": cst.c_d},
        "result": payload,
    }


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report: dict, out_dir: str | None, extras: dict | None = None) -> None:
    text = _dump(report)
    sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text)
        for name, content in (extras or {}).items():
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(content)


def _parse_profile(spec: str, d: int, epsilon: float) -> RadialFunction:
    if spec == "exp-bump":
        return RadialFunction(d, kind="exp-bump")
    if spec.startswith("poly:k="):
        try:
            k = int(spec[len("poly:k="):])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad profile {spec!r}")
        if k < 1:
            raise argparse.ArgumentTypeError("profile exponent must be >= 1")
        return RadialFunction(d, bump_poly(k))
    raise argparse.ArgumentTypeError(
        f"profile must be 'poly:k=N' or 'exp-bump', got {spec!r}"
    )


def cmd_radial(args) -> int:
    config = {
        "command": "radial", "d": args.d, "profile": args.profile, "epsilon": args.epsilon,
    }
    try:
        f = _parse_profile(args.profile, args.d, args.epsilon)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.epsilon <= 0:
        print("error: --epsilon must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        rep = rnorm_radial_odd(f)
    except UnsupportedDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    # dilation by epsilon scales the value by 1/epsilon (no resampling needed)
    payload = rep.to_dict()
    if not rep.is_infinite and args.epsilon != 1.0:
        payload["value"] = rep.value / args.epsilon
        if rep.error_estimate is not None:
            payload["error_estimate"] = rep.error_estimate / args.epsilon
    _emit(_report(config, payload, d=args.d), args.out)
    return EXIT_OK


def cmd_grid(args) -> int:
    config = {"command": "grid", "input": args.input, "K": args.K, "J": args.J}
    try:
        check_sinogram_size(args.K, args.J)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.input) as fh:
            f = GridFunction2D.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    rep = rnorm_grid_2d(f, K=args.K, J=args.J)
    _emit(_report(config, rep.to_dict()), args.out, {"sinogram.csv": rep.sinogram.to_csv()})
    return EXIT_OK


def _load_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path) as fh:
        data = read_csv(fh.read(), "x[^,]*(,x[^,]*)*,y", label="x1,...,xd,y")
    return data[:, :-1], data[:, -1]


def cmd_fit(args) -> int:
    config = {
        "command": "fit", "samples": args.samples, "K": args.K, "J": args.J,
        "tol": args.tol, "use_linear_unit": not args.no_linear_unit,
        "levels": args.levels,
    }
    try:
        X, y = _load_samples(args.samples)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    p = FitProblem(X, y, K=args.K, J=args.J, tol=args.tol, use_linear_unit=not args.no_linear_unit)
    fit = min_norm_fit(p)
    extras = {}
    if args.levels:
        rows = refinement_study(p, args.levels)
        lines = ["K,J,norm,gap"] + [
            f"{r['K']},{r['J']},{r['norm']:.17g},{r['gap']:.17g}" for r in rows
        ]
        extras["refinement.csv"] = "\n".join(lines) + "\n"
    _emit(_report(config, fit.to_dict()), args.out, extras)
    return EXIT_OK if fit.converged else EXIT_SOLVER


def _load_geometry(path: str) -> tuple[PwlCurvatureMeasure2D, list]:
    with open(path) as fh:
        doc = json.load(fh)
    segs = tuple((np.array(p0, dtype=float), np.array(p1, dtype=float), float(c)) for p0, p1, c in doc["segments"])
    return PwlCurvatureMeasure2D(segs), [np.array(w, dtype=float) for w in doc["normals"]]


def cmd_diagnose(args) -> int:
    config = {"command": "diagnose", "geometry": args.geometry}
    try:
        mu, normals = _load_geometry(args.geometry)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
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
    elif args.name == "sweep":
        payload = {"rows": bump_finiteness_sweep([3, 5, 7], [1, 2, 3, 4, 5, 6])}
    else:
        print(f"error: unknown demo {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    _emit(_report(config, payload), args.out, extras)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rnorm",
        description="Representational cost of functions as infinite-width two-layer ReLU networks.",
    )
    ap.add_argument("--threads", type=int, default=1, help="worker count hint; results are identical across counts")
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
    p.add_argument("--K", type=int, default=64, help="dictionary angle count")
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
    except UnsupportedDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
