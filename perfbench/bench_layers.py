"""Per-layer metrics: which rnorm functions are traced, and how spans become metrics.

Layers are the modules of ``src/rnorm``.  Every metric is a per-op value
averaged over the traced ops of a run (``proc.cpu_s`` over the untraced
ones); a layer the workload never calls reads 0.
"""

from __future__ import annotations

import math

import numpy as np

from bench_trace import Target, Tracer, self_times
from bench_workloads import line_samples

LAYERS = ("grids", "spectral", "radon", "engine", "piecewise", "fitting", "analysis", "cli")
ROOT_SPAN = "op"
ROOT_LAYER = "bench"


def _radon_hook(span, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    span.counts["line_samples"] = line_samples(f.n, f.h, result.K, result.J)


def _from_csv_hook(span, args, kwargs, result):
    span.counts["csv_mb"] = len(args[0]) / 1e6


def _eval_hook(span, args, kwargs, result):
    span.counts["points"] = int(np.size(args[1]))


def _fit_hook(span, args, kwargs, result):
    span.counts.update(
        iterations=result.iterations, converged=float(result.converged),
        gap=result.duality_gap, atoms=len(result.measure),
    )


TARGETS = (
    Target("grids.from_csv", "rnorm.grids", "from_csv", cls="GridFunction2D", hook=_from_csv_hook),
    Target("spectral.frac_laplacian_2d", "rnorm.spectral", "frac_laplacian_2d"),
    Target("radon.grid_radon_2d", "rnorm.radon", "grid_radon_2d", hook=_radon_hook),
    Target("radon.sinogram_to_csv", "rnorm.radon", "to_csv", cls="Sinogram"),
    Target("radon.radial_radon_profile", "rnorm.radon", "radial_radon_profile"),
    Target("engine.rnorm_grid_2d", "rnorm.engine", "rnorm_grid_2d"),
    Target("engine.rnorm_radial_odd", "rnorm.engine", "rnorm_radial_odd"),
    Target("engine.laplacian_lower_bound", "rnorm.engine", "laplacian_lower_bound"),
    Target("engine.rnorm_finite_net", "rnorm.engine", "rnorm_finite_net"),
    Target("piecewise.eval", "rnorm.piecewise", "__call__", cls="PiecewisePolynomial", hook=_eval_hook),
    Target("piecewise.profile_derivative", "rnorm.piecewise", "profile_derivative"),
    Target("piecewise.profile_l1", "rnorm.piecewise", "profile_l1"),
    Target("fitting.min_norm_fit", "rnorm.fitting", "min_norm_fit", hook=_fit_hook),
    Target("analysis.bump_finiteness_sweep", "rnorm.analysis", "bump_finiteness_sweep"),
    Target("cli.main", "rnorm.cli", "main"),
)

# (metric, unit, better); the order is the order printed
METRICS = (
    ("radon.grid_radon_s", "s", "lower"),
    ("radon.grid_radon_calls", "count", "lower"),
    ("radon.line_samples", "count", "lower"),
    ("radon.sinogram_to_csv_s", "s", "lower"),
    ("radon.self_s", "s", "lower"),
    ("grids.from_csv_s", "s", "lower"),
    ("grids.csv_mb", "MB", "lower"),
    ("grids.self_s", "s", "lower"),
    ("spectral.frac_laplacian_s", "s", "lower"),
    ("spectral.frac_laplacian_calls", "count", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("engine.rnorm_grid_2d_s", "s", "lower"),
    ("engine.grid_relerr", "ratio", "lower"),
    ("engine.rnorm_radial_odd_s", "s", "lower"),
    ("engine.laplacian_lower_bound_s", "s", "lower"),
    ("engine.rnorm_finite_net_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("piecewise.eval_s", "s", "lower"),
    ("piecewise.eval_points", "count", "lower"),
    ("piecewise.profile_s", "s", "lower"),
    ("piecewise.self_s", "s", "lower"),
    ("fitting.min_norm_fit_s", "s", "lower"),
    ("fitting.iterations", "count", "lower"),
    ("fitting.converged_frac", "ratio", "higher"),
    ("fitting.duality_gap", "1", "lower"),
    ("fitting.atoms", "count", "lower"),
    ("fitting.obj_relerr_lp", "ratio", "lower"),
    ("fitting.self_s", "s", "lower"),
    ("analysis.bump_finiteness_sweep_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_mb", "MB", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.warmup_op_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# inclusive span time per op, by metric
_INCLUSIVE = {
    "radon.grid_radon_s": ("radon.grid_radon_2d",),
    "radon.sinogram_to_csv_s": ("radon.sinogram_to_csv",),
    "grids.from_csv_s": ("grids.from_csv",),
    "spectral.frac_laplacian_s": ("spectral.frac_laplacian_2d",),
    "engine.rnorm_grid_2d_s": ("engine.rnorm_grid_2d",),
    "engine.rnorm_radial_odd_s": ("engine.rnorm_radial_odd",),
    "engine.laplacian_lower_bound_s": ("engine.laplacian_lower_bound",),
    "engine.rnorm_finite_net_s": ("engine.rnorm_finite_net",),
    "piecewise.eval_s": ("piecewise.eval",),
    "piecewise.profile_s": (
        "radon.radial_radon_profile", "piecewise.profile_derivative", "piecewise.profile_l1",
    ),
    "fitting.min_norm_fit_s": ("fitting.min_norm_fit",),
    "analysis.bump_finiteness_sweep_s": ("analysis.bump_finiteness_sweep",),
}


def op_profile(tracer: Tracer, op: int, selfs: list[float]) -> dict:
    """Span totals of one traced op: inclusive time and calls by name, self time by layer, counters."""
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    counts: dict[str, list] = {}
    wall = math.nan
    for i, s in enumerate(tracer.spans):
        if s.op != op:
            continue
        if s.name == ROOT_SPAN:
            wall = s.duration
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[i]
        for key, value in s.counts.items():
            counts.setdefault(f"{s.name}.{key}", []).append(value)
    return {"wall": wall, "incl": incl, "calls": calls, "layer_self": layer_self,
            "counts": counts}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, traced: list, untraced: list, warmup_s: float) -> dict:
    """Per-layer metric values from the traced ops and the untraced ops of one run.

    ``traced`` and ``untraced`` are ``OpResult`` lists; a traced op's index
    is its span op id.
    """
    selfs = self_times(tracer.spans)
    profiles = [op_profile(tracer, r.index, selfs) for r in traced]

    def per_op(fn) -> float:
        return _mean(fn(p) for p in profiles)

    def count_sum(key):
        return lambda p: float(sum(p["counts"].get(key, ())))

    def count_mean(key):
        return lambda p: _mean(p["counts"].get(key, ()))

    m = {name: per_op(lambda p, names=names: sum(p["incl"].get(n, 0.0) for n in names))
         for name, names in _INCLUSIVE.items()}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(lambda p, layer=layer: p["layer_self"].get(layer, 0.0))
    m["radon.grid_radon_calls"] = per_op(lambda p: p["calls"].get("radon.grid_radon_2d", 0))
    m["radon.line_samples"] = per_op(count_sum("radon.grid_radon_2d.line_samples"))
    m["grids.csv_mb"] = per_op(count_sum("grids.from_csv.csv_mb"))
    m["spectral.frac_laplacian_calls"] = per_op(lambda p: p["calls"].get("spectral.frac_laplacian_2d", 0))
    m["piecewise.eval_points"] = per_op(count_sum("piecewise.eval.points"))
    m["fitting.iterations"] = per_op(count_mean("fitting.min_norm_fit.iterations"))
    m["fitting.converged_frac"] = per_op(count_mean("fitting.min_norm_fit.converged"))
    m["fitting.duality_gap"] = per_op(count_mean("fitting.min_norm_fit.gap"))
    m["fitting.atoms"] = per_op(count_mean("fitting.min_norm_fit.atoms"))
    m["trace.unattributed_s"] = per_op(lambda p: p["layer_self"].get(ROOT_LAYER, 0.0))

    everything = traced + untraced
    m["engine.grid_relerr"] = _mean(r.detail.get("grid_relerr", 0.0) for r in everything)
    m["fitting.obj_relerr_lp"] = _mean(r.detail.get("obj_relerr_lp", 0.0) for r in everything)
    m["cli.artifact_mb"] = _mean(r.detail.get("artifact_mb", 0.0) for r in everything)
    m["proc.cpu_s"] = _mean(r.cpu_s for r in untraced)
    m["proc.warmup_op_s"] = warmup_s
    m["trace.op_s"] = per_op(lambda p: p["wall"])
    m["trace.overhead_frac"] = m["trace.op_s"] / _mean(r.seconds for r in untraced) - 1.0
    return m


def self_time_sum(m: dict) -> float:
    """Layer self times plus the op time outside any traced call; equals trace.op_s."""
    return sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
