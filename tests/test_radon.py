import math
from fractions import Fraction

import numpy as np
import pytest

from rnorm import (
    GridFunction2D,
    RadialFunction,
    Sinogram,
    bump_poly,
    dual_radon_2d,
    fbp_inverse_2d,
    grid_radon_2d,
    radial_radon_profile,
    sample_grid,
)
from rnorm.radon import OffsetRangeError, UnsupportedDimensionError


@pytest.fixture(scope="module")
def gauss():
    return sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 256, 8.0)


@pytest.fixture(scope="module")
def gauss_sino(gauss):
    return grid_radon_2d(gauss, 64, 129)


class TestRadialProfile:
    def test_d3_quartic_bump_profile_exact(self):
        # d=3: rho(b) = int_b^1 (1-t^2)^2 t dt = (1-b^2)^3 / 6
        rho = radial_radon_profile(RadialFunction(3, bump_poly(2)))
        assert rho.eval_exact(Fraction(1, 2)) == Fraction(27, 64) / 6
        assert rho.eval_exact(Fraction(0)) == Fraction(1, 6)
        assert rho(1.0) == pytest.approx(0.0, abs=1e-15)
        assert rho(2.0) == 0.0

    def test_profile_is_even(self):
        rho = radial_radon_profile(RadialFunction(5, bump_poly(3)))
        bs = np.linspace(-0.95, 0.95, 41)
        assert np.allclose(rho(bs), rho(-bs), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 4, 1])
    def test_even_or_low_dimension_rejected(self, d):
        with pytest.raises(UnsupportedDimensionError):
            radial_radon_profile(RadialFunction(d, bump_poly(1)))

    def test_bump_poly_dilation(self):
        g = bump_poly(1, dilation=2)
        assert float(g.breakpoints[-1]) == 2.0
        assert g.eval_exact(Fraction(1)) == Fraction(3, 4)


class TestGridRadon:
    def test_gaussian_row_matches_closed_form(self, gauss_sino):
        b = gauss_sino.offsets
        expected = math.sqrt(2.0 * math.pi) * np.exp(-(b**2) / 2.0)
        peak = expected.max()
        for k in (0, 17, 40):
            err = np.abs(gauss_sino.values[k] - expected).max()
            assert err <= 0.01 * peak

    def test_rotation_covariance(self):
        # Rotating the function by two angle steps shifts the sinogram rows.
        K, J = 64, 129
        alpha = 2.0 * math.pi / K

        def aniso(X, Y, a=0.0):
            c, s = math.cos(a), math.sin(a)
            U, V = c * X + s * Y, -s * X + c * Y
            return np.exp(-(U**2 / 2.0 + V**2 / 8.0))

        s0 = grid_radon_2d(sample_grid(lambda X, Y: aniso(X, Y, 0.0), 256, 8.0), K, J)
        s1 = grid_radon_2d(sample_grid(lambda X, Y: aniso(X, Y, alpha), 256, 8.0), K, J)
        peak = np.abs(s0.values).max()
        # rotated function at angle theta equals the original at theta - alpha
        err = np.abs(s1.values[2:] - s0.values[:-2]).max()
        assert err <= 0.02 * peak

    def test_odd_function_gives_odd_sinogram(self):
        f = sample_grid(lambda X, Y: X * np.exp(-(X**2 + Y**2)), 256, 8.0)
        s = grid_radon_2d(f, 32, 65)
        peak = max(np.abs(s.values).max(), 1e-30)
        assert np.abs(s.values + s.values[:, ::-1]).max() <= 1e-8 * peak

    def test_mass_conservation_per_angle(self, gauss, gauss_sino):
        mass = gauss.integral()
        row_masses = gauss_sino.values.sum(axis=1) * gauss_sino.db
        assert np.allclose(row_masses, mass, rtol=0.01)

    def test_linearity(self, gauss):
        f2 = sample_grid(lambda X, Y: np.exp(-((X - 1) ** 2 + Y**2)), 256, 8.0)
        combo = GridFunction2D(2.0 * gauss.values - 3.0 * f2.values, gauss.h)
        B = 1.05 * gauss.half_diagonal
        sa = grid_radon_2d(gauss, 32, 65, offset_range=B)
        sb = grid_radon_2d(f2, 32, 65, offset_range=B)
        sc = grid_radon_2d(combo, 32, 65, offset_range=B)
        assert np.allclose(sc.values, 2.0 * sa.values - 3.0 * sb.values, atol=1e-12)

    def test_fourier_slice(self, gauss, gauss_sino):
        # 1-D transform of a sinogram row equals the 2-D transform on the ray.
        from rnorm import grid_fourier_ray

        k = 10
        th = gauss_sino.angles[k]
        w = np.array([math.cos(th), math.sin(th)])
        sigmas = np.array([0.05, 0.1, 0.2])
        ray = grid_fourier_ray(gauss, w, sigmas)
        b = gauss_sino.offsets
        row = gauss_sino.values[k]
        for s, mag2d in zip(sigmas, ray.magnitudes):
            mag1d = abs(np.sum(row * np.exp(-1j * 2.0 * math.pi * s * b)) * gauss_sino.db)
            assert mag1d == pytest.approx(mag2d, rel=0.02)

    def test_resolution_floor_enforced(self, gauss):
        with pytest.raises(ValueError):
            grid_radon_2d(gauss, 16, 129)
        with pytest.raises(ValueError):
            grid_radon_2d(gauss, 32, 32)

    def test_offset_range_must_cover_support(self, gauss):
        with pytest.raises(OffsetRangeError):
            grid_radon_2d(gauss, 32, 65, offset_range=1.0)


class TestDualAndInverse:
    def test_dual_of_constant_is_two_pi(self):
        angles = np.arange(32) * math.pi / 32
        offsets = np.linspace(-10.0, 10.0, 65)
        s = Sinogram(angles, offsets, np.ones((32, 65)))
        g = dual_radon_2d(s, 16, 0.1)
        assert np.allclose(g.values, 2.0 * math.pi, rtol=0, atol=1e-12)
        assert g.warnings == ()

    def test_dual_flags_out_of_range_offsets(self):
        angles = np.arange(32) * math.pi / 32
        offsets = np.linspace(-1.0, 1.0, 65)
        s = Sinogram(angles, offsets, np.ones((32, 65)))
        g = dual_radon_2d(s, 16, 1.0)
        assert "offset-clamped-to-zero" in g.warnings

    def test_fbp_of_zero_sinogram_is_zero(self):
        angles = np.arange(32) * math.pi / 32
        offsets = np.linspace(-5.0, 5.0, 65)
        s = Sinogram(angles, offsets, np.zeros((32, 65)))
        g = fbp_inverse_2d(s, n=32, h=0.2)
        assert np.abs(g.values).max() == 0.0

    def test_fbp_round_trip_gaussian(self, gauss):
        s = grid_radon_2d(gauss, 128, 257)
        rec = fbp_inverse_2d(s, n=gauss.n, h=gauss.h)
        rel = np.linalg.norm(rec.values - gauss.values) / np.linalg.norm(gauss.values)
        assert rel <= 0.02

    def test_sinogram_csv_round_trip(self, gauss_sino):
        s = Sinogram.from_csv(gauss_sino.to_csv())
        assert np.allclose(s.values, gauss_sino.values, rtol=1e-12, atol=1e-15)
        assert np.allclose(s.offsets, gauss_sino.offsets)

    def test_sinogram_csv_rows_in_any_order(self):
        rng = np.random.default_rng(0)
        s = Sinogram(np.arange(32) * math.pi / 32, np.linspace(-2.0, 2.0, 65), rng.standard_normal((32, 65)))
        header, *rows = s.to_csv().splitlines()
        for order in (rows[::-1], [rows[i] for i in rng.permutation(len(rows))]):
            back = Sinogram.from_csv("\n".join([header] + order))
            assert np.array_equal(back.angles, s.angles)
            assert np.array_equal(back.offsets, s.offsets)
            assert np.array_equal(back.values, s.values)

    def test_sinogram_csv_writer_matches_per_element_format(self):
        s = Sinogram(np.arange(4) * math.pi / 4, np.linspace(-1.0, 1.0, 5), np.arange(20.0).reshape(4, 5) / 7 - 1)
        lines = ["theta,b,value"]
        for k, th in enumerate(s.angles):
            for j, b in enumerate(s.offsets):
                lines.append(f"{th:.17g},{b:.17g},{s.values[k, j]:.17g}")
        assert s.to_csv() == "\n".join(lines) + "\n"

    def test_sinogram_l1_of_ones(self):
        angles = np.arange(32) * math.pi / 32
        offsets = np.linspace(-1.0, 1.0, 65)
        s = Sinogram(angles, offsets, np.ones((32, 65)))
        # 2 * sum * (pi/K) * db = 2 * 32*65 * (pi/32) * (2/64)
        assert s.l1() == pytest.approx(2.0 * 32 * 65 * (math.pi / 32) * (2.0 / 64), rel=1e-12)
