import math

import numpy as np
import pytest

from rnorm import (
    bump_finiteness_sweep,
    parallelogram_check,
    pwl_infinite_certificate,
    pyramid_geometry,
    pyramid_pwl,
    pyramid_threelayer,
)


class TestPyramid:
    def test_values(self):
        assert pyramid_pwl(0.0, 0.0) == 1.0
        assert pyramid_pwl(0.5, 0.25) == pytest.approx(0.25)
        assert pyramid_pwl(2.0, 0.0) == 0.0
        assert np.allclose(pyramid_pwl([0.0, 1.0], [0.0, 1.0]), [1.0, 0.0])

    def test_threelayer_exact_equality(self):
        report = pyramid_threelayer()
        assert report["exact"] is True
        assert report["max_abs_deviation"] == 0.0
        assert report["first_layer_units"] == 4

    def test_geometry_total_curvature(self):
        mu = pyramid_geometry()
        assert len(mu.segments) == 8
        inner = sum(abs(c) * np.linalg.norm(p1 - p0) for p0, p1, c in mu.segments if c > 0)
        outer = sum(abs(c) * np.linalg.norm(p1 - p0) for p0, p1, c in mu.segments if c < 0)
        assert inner == pytest.approx(8.0, rel=1e-12)
        assert outer == pytest.approx(8.0, rel=1e-12)


class TestCertificate:
    def test_axis_normal_is_constant(self):
        cert = pwl_infinite_certificate(pyramid_geometry(), [np.array([1.0, 0.0])])
        entry = cert.entries[0]
        assert entry.classification == "CONSTANT"
        assert abs(entry.ratio - 1.0) <= 0.10
        assert cert.infinite

    def test_diagonal_normal_decays(self):
        w = np.array([1.0, 1.0]) / math.sqrt(2.0)
        cert = pwl_infinite_certificate(pyramid_geometry(), [w])
        assert cert.entries[0].classification == "DECAYING"
        assert not cert.infinite

    def test_report_serializes(self):
        cert = pwl_infinite_certificate(pyramid_geometry(), [np.array([1.0, 0.0])])
        doc = cert.to_dict()
        assert doc["infinite"] is True
        assert doc["entries"][0]["classification"] == "CONSTANT"


class TestParallelogram:
    def test_axis_pair(self):
        out = parallelogram_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert out["norms"] == pytest.approx([1.0, 1.0, 2.0, 2.0], rel=1e-15)
        assert out["lhs"] == pytest.approx(4.0)
        assert out["rhs"] == pytest.approx(8.0)
        assert out["violation"] is True

    def test_coincident_directions_rejected(self):
        w = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            parallelogram_check(w, w)
        with pytest.raises(ValueError):
            parallelogram_check(w, -w)


class TestFinitenessSweep:
    def test_threshold_d3(self):
        rows = bump_finiteness_sweep([3], [1, 2, 3, 4])
        for row in rows:
            assert row["threshold_ok"]
            assert row["finite"] == (row["k"] >= 2)

    def test_bracket_row(self):
        rows = bump_finiteness_sweep([3], [4])
        row = rows[0]
        assert row["bracket"] == [24, 48]
        assert row["bracket_ok"]
