#!/usr/bin/env python3
"""rnorm benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload grid512 --seed 0 --seconds 30 --trace 0

Workloads are grid512, fit and exact (BENCHMARK.json says why each is
there).  A run is a closed loop with one client in this fresh process: one
untimed warm-up op, then timed ops back to back, each on fresh inputs drawn
from the seed, until --seconds have passed.  Outputs are checked after the
loop.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced ops and reports the per-layer metrics.

op_s is the median wall time of the run's timed ops; the fastest op is
printed beside it.  Ops are kept to a few seconds, so that a run
holds many of them and its median does not hang on one slow spell of a
shared host.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it give every metric with
its unit and sample count, the error rate and the environment.  A record
of the run (environment, every op, the spans) is written to
.perfbench_runs/ at the repository root.  The program is imported from
src/ of the same checkout; the run fails with exit code 2 when it is not
there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("grid512", "fit", "exact")
SETUP_CHILDREN = 4  # fresh interpreters that time `import rnorm`, besides this one
CHILD_TIMEOUT_S = 120
WARMUP_INDEX = 999  # op seed = seed * 1000 + index; timed ops use 0, 1, ...

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rnorm; print(time.perf_counter() - t); print(rnorm.__file__)"
)


class SetupError(RuntimeError):
    """The program cannot be imported from this checkout."""


def _check_origin(module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"rnorm was imported from {module_file}, not from {SRC}")


def import_rnorm() -> float:
    """Import rnorm from src/ of this checkout; return the import's wall seconds."""
    if not (SRC / "rnorm" / "__init__.py").is_file():
        raise SetupError(f"no rnorm package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import rnorm

    seconds = time.perf_counter() - t0
    _check_origin(rnorm.__file__)
    return seconds


def child_import_seconds() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"import rnorm failed in a fresh interpreter: {proc.stderr.strip()}")
    seconds, module_file = proc.stdout.split("\n")[:2]
    _check_origin(module_file)
    return float(seconds)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _openblas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, asked through its own API."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(load_start) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return "missing"

    return {
        "python": sys.version.split()[0],
        "numpy": ver("numpy"), "scipy": ver("scipy"), "sympy": ver("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "load_start": list(load_start),
        "load_end": list(os.getloadavg()),
    }


def run_ops(workload, seed: int, seconds: float, trace: bool, after_op):
    """Warm-up, then timed ops until ``seconds`` pass; ``after_op()`` runs after each.

    Returns the warm-up seconds, the ops with their inputs and outputs (for
    the checks), the tracer and the names of traced targets not found.
    """
    from bench_layers import ROOT_LAYER, ROOT_SPAN, TARGETS
    from bench_stats import OpResult
    from bench_trace import Tracer, install

    inp = workload.generate(seed * 1000 + WARMUP_INDEX)
    t0 = time.perf_counter()
    out = workload.run(inp)
    warmup_s = time.perf_counter() - t0
    workload.collect(inp, out)

    tracer = Tracer() if trace else None
    missing = []
    pending = []  # (result, input, output, collected) for the checks after the loop
    t_end = time.perf_counter() + seconds
    index = 0
    while True:
        op_seed = seed * 1000 + index
        inp = workload.generate(op_seed)
        traced = trace and index % 2 == 1
        if traced:
            installed = install(tracer, TARGETS)
            missing = installed.missing
            tracer.op = index
            root = tracer.open(ROOT_SPAN, ROOT_LAYER)
        c0, t0 = time.process_time(), time.perf_counter()
        out, error = None, None
        try:
            out = workload.run(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.close(root)
            installed.remove()
            wall = tracer.spans[root].duration
        result = OpResult(index, op_seed, wall, cpu, traced=traced, error=error)
        info = None
        if out is not None:
            result.exit_code = out.get("exit_code")
            info = workload.collect(inp, out)
            result.detail["artifact_mb"] = info["artifact_mb"]
        pending.append((result, inp, out, info))
        after_op()
        index += 1
        done_kinds = {r.traced for r, *_ in pending}
        if time.perf_counter() >= t_end and (not trace or len(done_kinds) == 2):
            break
    return warmup_s, pending, tracer, missing


def check_all(workload, pending) -> list:
    results = []
    for result, inp, out, info in pending:
        if out is not None:
            try:
                ok, detail = workload.check(inp, out, info)
            except Exception as exc:  # an unreadable output fails its check
                ok, detail = False, {"check_error": f"{type(exc).__name__}: {exc}"}
            result.check_ok = ok
            result.detail.update(detail)
        results.append(result)
    return results


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    load_start = os.getloadavg()
    try:
        setup = [import_rnorm(), child_import_seconds()]
    except (SetupError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def sample_setup():
        # spread over the run, so that one slow spell of the host does not
        # set every sample
        if len(setup) < 1 + SETUP_CHILDREN:
            setup.append(child_import_seconds())

    from bench_layers import METRICS, layer_metrics, self_time_sum
    from bench_stats import error_rate, outputs_correct, summary
    from bench_workloads import WORKLOADS

    workdir = RUNS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](str(workdir))
        warmup_s, pending, tracer, missing = run_ops(
            workload, args.seed, args.seconds, bool(args.trace), sample_setup
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        while len(setup) < 1 + SETUP_CHILDREN:
            sample_setup()
        results = check_all(workload, pending)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(load_start)
    name = args.workload
    for key, value in env.items():
        print(f"# env {key}: {value}")
    failed = sum(r.failed for r in results)
    print(f"{name} error_rate {error_rate(results):.4g} ({failed} of {len(results)} ops failed)")

    untraced = [r for r in results if not r.traced]
    if args.trace:
        traced = [r for r in results if r.traced]
        values = layer_metrics(tracer, traced, untraced, warmup_s)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in METRICS}
        counts = {m: len(traced) for m, _, _ in METRICS}
    else:
        op = summary(r.seconds for r in untraced)
        st = summary(setup)
        metrics = {
            "op_s": {"value": op["median"], "unit": "s"},
            "setup_s": {"value": st["median"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        counts = {"op_s": op["n"], "setup_s": st["n"], "peak_rss_mb": 1}
        print(f"{name} op_min_s {_fmt(op['min'])} s (n={op['n']}, not gated)")
    for m, entry in metrics.items():
        print(f"{name} {m} {_fmt(entry['value'])} {entry['unit']} (n={counts[m]})")
    if args.trace:
        print(f"{name} self times sum to {_fmt(self_time_sum(values))} s per traced op "
              f"of {_fmt(values['trace.op_s'])} s; tracing overhead {values['trace.overhead_frac']:+.1%}")

    report = {
        "correct": outputs_correct(results),
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_s": setup, "warmup_op_s": warmup_s,
        "sample_counts": counts, "peak_rss_mb": peak_rss_mb,
        "ops": [vars(r) for r in results],
        "targets_not_found": missing,
        "spans": tracer.to_records() if tracer else [],
        "result": report,
    }
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
