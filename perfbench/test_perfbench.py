"""Tests for the benchmark's own arithmetic: summaries, failures, self time, computed sizes."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rnorm  # noqa: E402
import rnorm.radon  # noqa: E402
from bench_layers import TARGETS, op_profile  # noqa: E402
from bench_stats import OpResult, error_rate, outputs_correct, summary  # noqa: E402
from bench_trace import Span, Target, Tracer, covered_length, install, self_times  # noqa: E402
from bench_workloads import line_samples  # noqa: E402


def test_summary_is_fastest_median_and_sample_count():
    assert summary([3.0, 1.0, 2.0]) == {"min": 1.0, "median": 2.0, "n": 3}
    assert summary([4.0, 1.5, 3.0, 2.0]) == {"min": 1.5, "median": 2.5, "n": 4}
    with pytest.raises(ValueError):
        summary([])


def test_error_rate_counts_exit_5_and_failed_checks():
    ok = OpResult(0, 0, 1.0, 1.0, exit_code=0, check_ok=True)
    not_converged = OpResult(1, 1, 1.0, 1.0, exit_code=5, check_ok=False)
    out_of_tolerance = OpResult(2, 2, 1.0, 1.0, exit_code=0, check_ok=False)
    raised = OpResult(3, 3, 1.0, 1.0, error="RuntimeError: LP failed")
    library_call = OpResult(4, 4, 1.0, 1.0, check_ok=True)
    results = [ok, not_converged, out_of_tolerance, raised, library_call]
    assert [r.failed for r in results] == [False, True, True, True, False]
    assert error_rate(results) == pytest.approx(3 / 5)
    with pytest.raises(ValueError):
        error_rate([])


def test_outputs_correct_only_blames_claimed_successes():
    not_converged = OpResult(0, 0, 1.0, 1.0, exit_code=5, check_ok=False)
    raised = OpResult(1, 1, 1.0, 1.0, error="ValueError: bad")
    assert outputs_correct([not_converged, raised])
    wrong = OpResult(2, 2, 1.0, 1.0, exit_code=0, check_ok=False)
    assert not outputs_correct([not_converged, wrong])


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert covered_length([(5.0, 6.0), (0.0, 1.0), (0.5, 0.75)]) == pytest.approx(2.0)


def test_self_time_subtracts_direct_children_and_sums_to_root():
    spans = [
        Span("op", "bench", 0.0, 10.0, parent=None, op=7),
        Span("a", "engine", 1.0, 4.0, parent=0, op=7),
        Span("a.inner", "radon", 2.0, 3.0, parent=1, op=7),
        Span("b", "fitting", 5.0, 9.0, parent=0, op=7),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(selfs) == pytest.approx(spans[0].duration)
    tracer = Tracer()
    tracer.spans = spans
    prof = op_profile(tracer, 7, selfs)
    assert prof["wall"] == pytest.approx(10.0)
    assert prof["layer_self"] == pytest.approx({"bench": 3.0, "engine": 2.0, "radon": 1.0, "fitting": 4.0})


def test_line_samples_matches_the_samples_grid_radon_takes(monkeypatch):
    taken = []
    original = rnorm.radon.map_coordinates

    def counting(values, coords, **kwargs):
        taken.append(coords[0].size)
        return original(values, coords, **kwargs)

    monkeypatch.setattr(rnorm.radon, "map_coordinates", counting)
    f = rnorm.sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 40, 4.0)
    rnorm.radon.grid_radon_2d(f, 32, 65)
    assert sum(taken) == line_samples(f.n, f.h, 32, 65)


def test_line_samples_at_the_default_512_grid_op():
    # rnorm grid on 512^2, half-extent 8: fine K=256 J=513, coarse 128 x 257,
    # and the CLI's third call for sinogram.csv
    h = 16.0 / 512
    total = 2 * line_samples(512, h, 256, 513) + line_samples(512, h, 128, 257)
    assert total == 431_801_472


def test_wrappers_cover_every_binding_and_are_removed():
    original = rnorm.radon.grid_radon_2d
    tracer = Tracer()
    inst = install(tracer, TARGETS)
    try:
        wrapped = rnorm.radon.grid_radon_2d
        assert wrapped is not original
        for mod in (rnorm, rnorm.engine, rnorm.cli):
            assert mod.grid_radon_2d is wrapped
        f = rnorm.sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 32, 4.0)
        tracer.op = 1
        root = tracer.open("op", "bench")
        rnorm.engine.rnorm_grid_2d(f, K=32, J=65)
        tracer.close(root)
    finally:
        inst.remove()
    assert inst.missing == []
    for mod in (rnorm, rnorm.radon, rnorm.engine, rnorm.cli):
        assert mod.grid_radon_2d is original
    prof = op_profile(tracer, 1, self_times(tracer.spans))
    assert prof["calls"]["radon.grid_radon_2d"] == 2
    assert prof["calls"]["spectral.frac_laplacian_2d"] == 2
    assert sum(prof["layer_self"].values()) == pytest.approx(prof["wall"])


def test_reentrant_method_is_one_span_and_missing_targets_record_nothing():
    g = rnorm.bump_poly(2)
    targets = TARGETS + (Target("gone.fn", "rnorm.engine", "no_such_function"),)
    tracer = Tracer()
    inst = install(tracer, targets)
    try:
        g(np.linspace(0.0, 1.0, 5))
    finally:
        inst.remove()
    assert inst.missing == ["gone.fn"]
    assert [s.name for s in tracer.spans] == ["piecewise.eval"]
    assert tracer.spans[0].counts == {"points": 5}
    assert not math.isnan(tracer.spans[0].end)
    assert type(g).__call__ is rnorm.PiecewisePolynomial.__dict__["__call__"]


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    import json

    from bench_layers import METRICS
    from bench_workloads import WORKLOADS
    from run import WORKLOAD_NAMES

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)
