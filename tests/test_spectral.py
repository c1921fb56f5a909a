import math

import numpy as np
import pytest

from rnorm import (
    PwlCurvatureMeasure2D,
    RayDecaySample,
    frac_laplacian_2d,
    grid_radon_2d,
    offset_power_derivative,
    pwl_fourier_ray,
    sample_grid,
)

from oracles import grid_fourier_ray, grid_meshgrid


@pytest.fixture(scope="module")
def gauss():
    return sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 256, 8.0)


def _frac_laplacian_complex_fft(f, s):
    """Oracle: the same multiplier applied through a full complex FFT of the zero-padded grid."""
    n = f.n
    padded = np.zeros((2 * n, 2 * n))
    padded[:n, :n] = f.values
    xi = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=f.h)
    XI, ETA = np.meshgrid(xi, xi, indexing="ij")
    mult = (XI**2 + ETA**2) ** (s / 2.0)
    mult[0, 0] = 0.0
    return np.fft.ifft2(np.fft.fft2(padded) * mult).real[:n, :n]


def _offset_power_complex_fft(sin, order):
    """Oracle: the offset multiplier |xi|^order through a full complex FFT of each row."""
    pad = 2 * sin.J
    mult = np.abs(2.0 * math.pi * np.fft.fftfreq(pad, d=sin.db)) ** order
    mult[0] = 0.0
    return np.fft.ifft(np.fft.fft(sin.values, n=pad, axis=1) * mult, axis=1).real[:, : sin.J]


class TestFracLaplacian:
    def test_order_two_matches_negative_laplacian(self, gauss):
        # -Delta e^{-r^2/2} = (2 - r^2) e^{-r^2/2}
        out = frac_laplacian_2d(gauss, 2.0)
        X, Y = grid_meshgrid(gauss)
        r2 = X**2 + Y**2
        expected = (2.0 - r2) * np.exp(-r2 / 2.0)
        inner = r2 < 25.0
        err = np.abs(out.values - expected)[inner].max()
        assert err <= 0.01 * np.abs(expected).max()

    def test_leakage_warning_on_nondecaying_input(self):
        from rnorm import GridFunction2D

        f = GridFunction2D(np.ones((32, 32)), 0.5)
        out = frac_laplacian_2d(f, 2.0)
        assert "boundary-leakage" in out.warnings

    def test_power_must_be_positive(self, gauss):
        with pytest.raises(ValueError):
            frac_laplacian_2d(gauss, 0.0)

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    def test_real_fft_matches_complex_fft(self, s):
        f = sample_grid(lambda X, Y: np.exp(-((X - 0.4) ** 2 + (Y + 0.9) ** 2) / 2.0), 128, 6.0)
        out = frac_laplacian_2d(f, s).values
        expected = _frac_laplacian_complex_fft(f, s)
        assert np.abs(out - expected).max() <= 1e-11 * np.abs(out).max()

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    def test_pruned_transforms_match_the_padded_real_fft(self, s):
        f = sample_grid(lambda X, Y: np.exp(-((X - 0.4) ** 2 + (Y + 0.9) ** 2) / 2.0), 128, 6.0)
        n = f.n
        xi = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=f.h)
        eta = 2.0 * math.pi * np.fft.rfftfreq(2 * n, d=f.h)
        mult = (xi[:, None] ** 2 + eta[None, :] ** 2) ** (s / 2.0)
        mult[0, 0] = 0.0
        expected = np.fft.irfft2(np.fft.rfft2(f.values, s=(2 * n, 2 * n)) * mult, s=(2 * n, 2 * n))[:n, :n]
        out = frac_laplacian_2d(f, s).values
        assert np.array_equal(out, expected)
        # its own n x n array, not a view that keeps the padded inverse alive
        assert out.flags.c_contiguous and out.base is None

    def test_half_powers_compose(self, gauss):
        once = frac_laplacian_2d(frac_laplacian_2d(gauss, 1.0), 1.0)
        direct = frac_laplacian_2d(gauss, 2.0)
        X, Y = grid_meshgrid(gauss)
        inner = X**2 + Y**2 < 16.0
        scale = np.abs(direct.values).max()
        assert np.abs(once.values - direct.values)[inner].max() <= 0.01 * scale


class TestOffsetPowerDerivative:
    def test_order_two_on_gaussian_row(self, gauss):
        s = grid_radon_2d(gauss, 32, 65)
        out = offset_power_derivative(s, 2)
        b = s.offsets
        # -d^2/db^2 [sqrt(2 pi) e^{-b^2/2}] = sqrt(2 pi) (1 - b^2) e^{-b^2/2}
        expected = math.sqrt(2.0 * math.pi) * (1.0 - b**2) * np.exp(-(b**2) / 2.0)
        peak = np.abs(expected).max()
        assert np.abs(out.values[0] - expected).max() <= 0.01 * peak

    def test_even_orders_compose(self, gauss):
        # even orders are local operators, so their outputs stay inside the
        # offset window and the chained application matches the direct one
        s = grid_radon_2d(gauss, 32, 65)
        chained = offset_power_derivative(offset_power_derivative(s, 2), 2)
        direct = offset_power_derivative(s, 4)
        scale = np.abs(direct.values).max()
        assert np.abs(chained.values - direct.values).max() <= 1e-4 * scale

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_real_fft_matches_complex_fft(self, gauss, order):
        sino = grid_radon_2d(gauss, 32, 65)
        out = offset_power_derivative(sino, order).values
        expected = _offset_power_complex_fft(sino, order)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(out).max()

    def test_order_must_be_positive(self, gauss):
        s = grid_radon_2d(gauss, 32, 65)
        with pytest.raises(ValueError):
            offset_power_derivative(s, 0)


class TestRayProbes:
    def test_single_segment_constant_direction(self):
        # Segment on the x-axis probed along its normal: |F| = coeff * length.
        mu = PwlCurvatureMeasure2D((((-1.0, 0.0), (1.0, 0.0), 1.5),))
        sig = np.geomspace(1.0, 100.0, 9)
        sample = pwl_fourier_ray(mu, np.array([0.0, 1.0]), sig)
        assert np.allclose(sample.magnitudes, 3.0, rtol=1e-12)

    def test_single_segment_decaying_direction(self):
        mu = PwlCurvatureMeasure2D((((-1.0, 0.0), (1.0, 0.0), 1.0),))
        sig = np.array([0.25, 0.5, 1.25])
        sample = pwl_fourier_ray(mu, np.array([1.0, 0.0]), sig)
        expected = np.abs(2.0 * np.sin(2.0 * math.pi * sig) / (2.0 * math.pi * sig))
        assert np.allclose(sample.magnitudes, expected, rtol=1e-12)

    def test_grid_fourier_gaussian_shape(self, gauss):
        # e^{-r^2/2} has ordinary-frequency transform 2 pi e^{-(2 pi s)^2 / 2}.
        sig = np.array([0.05, 0.1, 0.2])
        sample = grid_fourier_ray(gauss, np.array([1.0, 0.0]), sig)
        expected = 2.0 * math.pi * np.exp(-((2.0 * math.pi * sig) ** 2) / 2.0)
        assert np.allclose(sample.magnitudes, expected, rtol=0.02)

    def test_smooth_bump_decays_fast(self):
        f = sample_grid(
            lambda X, Y: np.where(X**2 + Y**2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - X**2 - Y**2, 1e-12)), 0.0),
            256,
            2.0,
        )
        sig = np.array([0.25, 3.0, 3.5, 4.0])
        sample = grid_fourier_ray(f, np.array([1.0, 0.0]), sig)
        # smooth compactly supported input: the high-frequency tail sits far
        # below the low-frequency magnitude (no constant-ratio plateau)
        assert np.all(sample.magnitudes[1:] <= 0.01 * sample.magnitudes[0])

    def test_ray_sample_validation_and_csv(self):
        for sigmas, magnitudes in (([2.0, 1.0], [1.0, 1.0]), ([], []), ([1.0, 2.0], [1.0])):
            with pytest.raises(ValueError, match="sigmas"):
                RayDecaySample(np.array([1.0, 0.0]), np.array(sigmas), np.array(magnitudes))
        s = RayDecaySample(np.array([1.0, 0.0]), np.array([1.0, 2.0]), np.array([4.0, 1.0]))
        assert s.to_csv().splitlines()[0] == "sigma,magnitude"

    def test_degenerate_segments_rejected(self):
        with pytest.raises(ValueError):
            PwlCurvatureMeasure2D((((0.0, 0.0), (0.0, 0.0), 1.0),))
        with pytest.raises(ValueError):
            PwlCurvatureMeasure2D((((0.0, 0.0), (1.0, 0.0), 0.0),))
        for seg in [
            ((0.0, 0.0, 0.0), (1.0, 0.0), 1.0),
            ((0.0,), (1.0, 0.0), 1.0),
            ((0.0, float("nan")), (1.0, 0.0), 1.0),
            ((0.0, 0.0), (float("inf"), 0.0), 1.0),
            ((0.0, 0.0), (1.0, 0.0), float("nan")),
        ]:
            with pytest.raises(ValueError):
                PwlCurvatureMeasure2D((seg,))
