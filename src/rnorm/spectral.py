"""The fractional-Laplacian Fourier multiplier and Fourier ray-decay probes.

The multiplier acts in angular frequency, so |xi|^2 reproduces -Delta
exactly.  The ray probe evaluates f-hat in the ordinary-frequency convention
f^(xi) = int f(x) exp(-i 2 pi xi.x) dx, matching the segment closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction2D

LEAKAGE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PwlCurvatureMeasure2D:
    """Curvature measure of a piecewise-linear function: weighted boundary segments.

    Each entry is (p0, p1, coeff) where coeff = +/- ||g_p - g_q|| for the
    gradients of the two adjacent pieces (positive where the function is
    locally concave across the boundary).
    """

    segments: tuple

    def __post_init__(self):
        segs = []
        for p0, p1, c in self.segments:
            p0 = np.asarray(p0, dtype=float)
            p1 = np.asarray(p1, dtype=float)
            c = float(c)
            if not all(p.shape == (2,) and np.all(np.isfinite(p)) for p in (p0, p1)):
                raise ValueError("segment endpoints must be finite 2-vectors")
            if np.allclose(p0, p1):
                raise ValueError("degenerate boundary segment")
            if not math.isfinite(c) or c == 0:
                raise ValueError("curvature coefficients must be finite and nonzero")
            p0.setflags(write=False)
            p1.setflags(write=False)
            segs.append((p0, p1, c))
        object.__setattr__(self, "segments", tuple(segs))


@dataclass(frozen=True)
class RayDecaySample:
    """|F{.}(sigma w)| sampled along a fixed direction w at increasing sigma."""

    direction: np.ndarray
    sigmas: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.direction, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        m = np.asarray(self.magnitudes, dtype=float)
        if not np.all(np.diff(s) > 0) or s[0] <= 0:
            raise ValueError("sigmas must be positive and increasing")
        for arr in (w, s, m):
            arr.setflags(write=False)
        object.__setattr__(self, "direction", w)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "magnitudes", m)

    def to_csv(self) -> str:
        lines = ["sigma,magnitude"]
        lines += [f"{s:.17g},{m:.17g}" for s, m in zip(self.sigmas, self.magnitudes)]
        return "\n".join(lines) + "\n"


def frac_laplacian_2d(f: GridFunction2D, s: float) -> GridFunction2D:
    """Fractional Laplacian (-Delta)^(s/2) via the ||xi||^s Fourier multiplier.

    Zero-pads to 2n to suppress circular wrap-around and works on the
    real-input half spectrum; the DC multiplier is zero.  Transforms skip the
    padding rows: the forward one has only n nonzero rows, and only n rows of
    the inverse are kept.  Inputs that fail to decay at the grid boundary get
    a boundary-leakage warning on the output.
    """
    if s <= 0:
        raise ValueError(f"fractional power must be positive, got {s}")
    n = f.n
    warn = ()
    if f.boundary_leakage() > LEAKAGE_THRESHOLD:
        warn = ("boundary-leakage",)
    xi = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=f.h)
    eta = 2.0 * math.pi * np.fft.rfftfreq(2 * n, d=f.h)
    mult = (xi[:, None] ** 2 + eta[None, :] ** 2) ** (s / 2.0)
    mult[0, 0] = 0.0
    spectrum = np.fft.fft(np.fft.rfft(f.values, n=2 * n, axis=1), n=2 * n, axis=0) * mult
    rows = np.fft.ifft(spectrum, axis=0)[:n]
    # GridFunction2D copies this view into its own n x n array, so the n x 2n inverse is freed
    out = np.fft.irfft(rows, n=2 * n, axis=1)[:, :n]
    return GridFunction2D(out, f.h, f.warnings + warn)


def _sinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z with a series fallback near zero to avoid cancellation."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    out[small] = 1.0 - zs**2 / 6.0 + zs**4 / 120.0
    out[~small] = np.sin(z[~small]) / z[~small]
    return out


def pwl_fourier_ray(mu: PwlCurvatureMeasure2D, w, sigmas) -> RayDecaySample:
    """Closed-form |F{Delta f}(sigma w)| for a piecewise-linear curvature measure.

    Each segment contributes c * L * exp(-i 2 pi sigma w.m) * sinc(2 pi sigma w.u)
    with midpoint m, half-chord u and length L.
    """
    w = np.asarray(w, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    total = np.zeros(sig.size, dtype=complex)
    for p0, p1, c in mu.segments:
        mid = (p0 + p1) / 2.0
        u = (p1 - p0) / 2.0
        L = float(np.linalg.norm(p1 - p0))
        phase = np.exp(-1j * 2.0 * math.pi * sig * float(w @ mid))
        total += c * L * phase * _sinc(2.0 * math.pi * sig * float(w @ u))
    return RayDecaySample(w, sig, np.abs(total))
