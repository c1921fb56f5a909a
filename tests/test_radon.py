import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from rnorm import (
    GridFunction2D,
    PiecewisePolynomial,
    RadialFunction,
    Sinogram,
    bump_poly,
    dual_radon_2d,
    fbp_inverse_2d,
    grid_radon_2d,
    radial_radon_profile,
    sample_grid,
)
import rnorm.radon
from rnorm.grids import write_table_csv
from rnorm.radon import OFFSET_MARGIN, UnsupportedDimensionError, _line_integral_batch

from oracles import eval_exact, grid_fourier_ray, grid_integral, sinogram_from_csv


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
        assert eval_exact(rho, Fraction(1, 2)) == Fraction(27, 64) / 6
        assert eval_exact(rho, Fraction(0)) == Fraction(1, 6)
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

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_shell_profile_matches_quadrature(self, d):
        # support [1/3, 3/2]: below 1/3 every piece of g integrates in full
        g = PiecewisePolynomial((1 / 3, 2 / 3, 3 / 2), ((1, 2, 0, -1), (5 / 7,)))
        rho = radial_radon_profile(RadialFunction(d, g))
        x, w = np.polynomial.legendre.leggauss(16)
        for b in (0.0, 0.2, 1 / 3, 0.5, 2 / 3, 1.1, 1.5, 1.7):
            expected = 0.0
            for lo, hi in ((1 / 3, 2 / 3), (2 / 3, 3 / 2)):
                lo = max(lo, b)
                if lo < hi:
                    t = lo + (hi - lo) * (x + 1.0) / 2.0
                    expected += (hi - lo) / 2.0 * w @ (g(t) * (t * t - b * b) ** ((d - 3) // 2) * t)
            assert rho(b) == pytest.approx(expected, rel=0, abs=1e-12)
            assert rho(-b) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_bump_poly_dilation(self):
        g = bump_poly(1, dilation=2)
        assert float(g.breakpoints[-1]) == 2.0
        assert eval_exact(g, Fraction(1)) == Fraction(3, 4)
        # a float dilation is read as its shortest decimal, as every piecewise number is
        assert bump_poly(3, dilation=1.4) == bump_poly(3, dilation=Fraction(7, 5))
        assert bump_poly(0) == PiecewisePolynomial((0, 1), ((1,),))

    @pytest.mark.parametrize(
        "k, dilation", [(-1, 1), (2, 0), (2, -1), (2, -0.5), (2, math.inf), (2, math.nan), (2, Fraction(-1, 3))]
    )
    def test_bump_poly_rejects_arguments_out_of_range(self, k, dilation):
        with pytest.raises(ValueError) as err:
            bump_poly(k, dilation=dilation)
        assert "\n" not in str(err.value)


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
        mass = grid_integral(gauss)
        row_masses = gauss_sino.values.sum(axis=1) * gauss_sino.db
        assert np.allclose(row_masses, mass, rtol=0.01)

    def test_linearity(self, gauss):
        f2 = sample_grid(lambda X, Y: np.exp(-((X - 1) ** 2 + Y**2)), 256, 8.0)
        combo = GridFunction2D(2.0 * gauss.values - 3.0 * f2.values, gauss.h)
        sa = grid_radon_2d(gauss, 32, 65)
        sb = grid_radon_2d(f2, 32, 65)
        sc = grid_radon_2d(combo, 32, 65)
        assert np.allclose(sc.values, 2.0 * sa.values - 3.0 * sb.values, atol=1e-12)

    def test_fourier_slice(self, gauss, gauss_sino):
        # 1-D transform of a sinogram row equals the 2-D transform on the ray.
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


def _serial_loop(f, K, J):
    """The oracle for grid_radon_2d: one _line_integral_batch call per angle over all J offsets.

    Returns the K x J rows and the samples per line, 2nt + 1.
    """
    B = OFFSET_MARGIN * f.half_diagonal
    offsets = np.linspace(-B, B, J)
    step = f.h / 2.0
    nt = int(math.ceil(f.half_diagonal * 1.01 / step))
    t = np.arange(-nt, nt + 1) * step
    buf = np.empty((3, J, t.size))
    rows = [_line_integral_batch(f, th, offsets, t, step, buf) for th in np.arange(K) * math.pi / K]
    return np.array(rows), t.size


class TestBilinearSampler:
    """rnorm.radon.map_coordinates against scipy.ndimage.map_coordinates(order=1, mode="constant")."""

    def test_matches_scipy(self):
        from scipy.ndimage import map_coordinates as scipy_map_coordinates

        rng = np.random.default_rng(7)
        n0, n1 = 37, 29
        values = rng.standard_normal((n0, n1))
        values[5:9, 3:6] = 0.0
        x = rng.uniform(-2.0, n0 + 1.0, 5000)
        y = rng.uniform(-2.0, n1 + 1.0, 5000)
        eps = 1e-12
        edges_x = [0.0, n0 - 1.0, -eps, n0 - 1 + eps, eps, n0 - 1 - eps, 0.0, n0 - 1.0, 3.5, 6.0]
        edges_y = [0.0, n1 - 1.0, 3.5, 4.0, -eps, n1 - 1 + eps, n1 - 1.0, 0.0, n1 - 1 - eps, eps]
        # every grid node, and points inside the zeroed patch
        ix, iy = np.meshgrid(np.arange(n0, dtype=float), np.arange(n1, dtype=float), indexing="ij")
        coords = np.array([
            np.concatenate([x, edges_x, ix.ravel(), rng.uniform(5, 8, 50)]),
            np.concatenate([y, edges_y, iy.ravel(), rng.uniform(3, 5, 50)]),
        ])
        expected = scipy_map_coordinates(values, coords, order=1, mode="constant")
        out = np.full(coords.shape[1], np.nan)
        rnorm.radon.map_coordinates(values, coords, output=out)
        assert np.abs(out - expected).max() <= 2e-15 * np.abs(values).max()
        assert np.array_equal(out == 0.0, expected == 0.0)
        # the exact edges are inside the box, the points 1e-12 beyond them outside it
        m = x.size
        assert np.all(out[m:m + 2] != 0.0) and np.all(out[m + 2:m + 4] == 0.0)
        assert np.all(out[m + 4:m + 6] == 0.0)


class TestBlockedGridRadon:
    """Each map_coordinates call takes at most BLOCK_SAMPLES samples (whole offset rows)."""

    K = 32

    def _recorded(self, monkeypatch, f, J):
        sizes = []
        original = rnorm.radon.map_coordinates

        def recording(values, coords, **kwargs):
            sizes.append(coords[0].size)
            return original(values, coords, **kwargs)

        monkeypatch.setattr(rnorm.radon, "map_coordinates", recording)
        return grid_radon_2d(f, self.K, J).values, sizes

    def test_default_block_bounds_every_call(self, monkeypatch, gauss):
        J = 129
        serial, T = _serial_loop(gauss, self.K, J)
        assert J * T > rnorm.radon.BLOCK_SAMPLES  # one angle takes more than one block
        values, sizes = self._recorded(monkeypatch, gauss, J)
        assert max(sizes) <= rnorm.radon.BLOCK_SAMPLES
        assert sum(sizes) == self.K * J * T
        assert np.array_equal(values, serial)

    @pytest.mark.parametrize("rows", [7, 1])
    def test_forced_block_matches_serial_loop(self, monkeypatch, gauss, rows):
        # 7 rows per block leave a 3-row block at J = 129; 1 row is the smallest block
        J = 129
        serial, T = _serial_loop(gauss, self.K, J)
        monkeypatch.setattr(rnorm.radon, "BLOCK_SAMPLES", rows * T + T // 2 if rows > 1 else 1)
        values, sizes = self._recorded(monkeypatch, gauss, J)
        assert max(sizes) == rows * T
        assert sum(sizes) == self.K * J * T
        assert np.array_equal(values, serial)


class TestThreadedGridRadon:
    """The angles run on a thread pool; the rows must be those of a serial loop, bit for bit."""

    K, J = 32, 65

    @pytest.fixture(scope="class")
    def shifted(self):
        return sample_grid(lambda X, Y: np.exp(-((X - 0.3) ** 2 + (Y + 0.7) ** 2) / 2.0), 128, 6.0)

    @pytest.fixture(scope="class")
    def serial(self, shifted):
        return _serial_loop(shifted, self.K, self.J)[0]

    def _run_recording_threads(self, monkeypatch, f):
        threads = set()
        original = rnorm.radon.map_coordinates

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(rnorm.radon, "map_coordinates", recording)
        return grid_radon_2d(f, self.K, self.J), threads

    def test_default_worker_count_matches_serial_loop(self, monkeypatch, shifted, serial):
        sino, threads = self._run_recording_threads(monkeypatch, shifted)
        assert np.array_equal(sino.values, serial)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert 1 <= len(threads) <= cpus
        assert threading.get_ident() not in threads
        assert threading.active_count() == 1

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_forced_worker_count_matches_serial_loop(self, monkeypatch, shifted, serial, cpus):
        # 8 workers outnumber the cores; a short switch interval interleaves them more often
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sino, threads = self._run_recording_threads(monkeypatch, shifted)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(sino.values, serial)
        assert 1 <= len(threads) <= cpus


MALFORMED_AXES = [
    (np.arange(32) * math.pi / 32, np.linspace(-1.0, 1.0, 65) ** 3, "offsets is not uniformly spaced"),
    (np.arange(32) * math.pi / 40, np.linspace(-1.0, 1.0, 65), "angles are not k\\*pi/K"),
    (np.arange(32) * math.pi / 32, np.array([0.5]), "at least 2 points"),
]


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
        s = sinogram_from_csv(gauss_sino.to_csv())
        assert np.allclose(s.values, gauss_sino.values, rtol=1e-12, atol=1e-15)
        assert np.allclose(s.offsets, gauss_sino.offsets)

    def test_sinogram_csv_rows_in_any_order(self):
        rng = np.random.default_rng(0)
        s = Sinogram(np.arange(32) * math.pi / 32, np.linspace(-2.0, 2.0, 65), rng.standard_normal((32, 65)))
        header, *rows = s.to_csv().splitlines()
        for order in (rows[::-1], [rows[i] for i in rng.permutation(len(rows))]):
            back = sinogram_from_csv("\n".join([header] + order))
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

    @pytest.mark.parametrize("angles,offsets,message", MALFORMED_AXES)
    def test_sinogram_csv_rejects_malformed_axes(self, angles, offsets, message):
        text = write_table_csv("theta,b,value", angles, offsets, np.ones((angles.size, offsets.size)))
        with pytest.raises(ValueError, match=message) as info:
            sinogram_from_csv(text)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("angles,offsets,message", MALFORMED_AXES)
    def test_sinogram_rejects_malformed_axes(self, angles, offsets, message):
        with pytest.raises(ValueError, match=message) as info:
            Sinogram(angles, offsets, np.ones((angles.size, offsets.size)))
        assert "\n" not in str(info.value)

    def test_sinogram_rejects_non_finite_data(self):
        angles, offsets = np.arange(32) * math.pi / 32, np.linspace(-1.0, 1.0, 65)
        for bad in (math.nan, math.inf):
            values = np.ones((32, 65))
            values[3, 7] = bad
            with pytest.raises(ValueError, match="finite"):
                Sinogram(angles, offsets, values)
        with pytest.raises(ValueError, match="finite"):
            Sinogram(np.where(angles == angles[5], math.nan, angles), offsets, np.ones((32, 65)))

    def test_sinogram_csv_text_peaks_below_two_and_a_half_times_its_size(self):
        import tracemalloc

        rng = np.random.default_rng(0)
        angles, offsets = np.arange(256) * math.pi / 256, np.linspace(-11.4, 11.4, 513)
        s = Sinogram(angles, offsets, rng.standard_normal((256, 513)))
        s.to_csv()  # numpy's lazy imports happen before the trace
        tracemalloc.start()
        try:
            text = s.to_csv()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text), (peak, len(text))
        # 131,328 rows: whole blocks of 2^12 and a partial last one, each row as %.17g
        rows = "".join(
            f"{th:.17g},{b:.17g},{v:.17g}\n" for th, row in zip(angles, s.values) for b, v in zip(offsets, row)
        )
        assert text == "theta,b,value\n" + rows

    def test_sinogram_l1_of_ones(self):
        angles = np.arange(32) * math.pi / 32
        offsets = np.linspace(-1.0, 1.0, 65)
        s = Sinogram(angles, offsets, np.ones((32, 65)))
        # 2 * sum * (pi/K) * db = 2 * 32*65 * (pi/32) * (2/64)
        assert s.l1() == pytest.approx(2.0 * 32 * 65 * (math.pi / 32) * (2.0 / 64), rel=1e-12)
