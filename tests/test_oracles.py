"""The test-only references graded against known values, so a grade against them means something."""

import numpy as np
import pytest

from oracles import radial_rnorm_2d


def _exp_bump(R: float):
    """exp(-1/(1-r^2/R^2)), 0 from r = R on (the clamp keeps the edge free of a 1/0)."""
    return lambda r: np.exp(-1.0 / np.maximum(1.0 - (r / R) ** 2, 1e-300))


def test_radial_d2_oracle_gives_the_gaussian_value():
    # criterion 6's inline oracle reads 4.7686 for exp(-r^2/2); past r = 12 the profile is below 1e-31
    assert radial_rnorm_2d(lambda r: np.exp(-r * r / 2.0), 12.0, 40.0) == pytest.approx(4.7686, abs=1e-4)


def test_radial_d2_oracle_obeys_the_dilation_law():
    # R(f(./R)) = R(f)/R in d=2: at a fixed L/R, R times the value is one number
    scaled = [R * radial_rnorm_2d(_exp_bump(R), R, 4.0 * R) for R in (2.0, 4.0, 6.0, 7.5)]
    assert scaled[0] == pytest.approx(13.2753, abs=2e-4)
    assert scaled == pytest.approx([scaled[0]] * 4, rel=1e-6)
