"""Radon transform: analytic radial profiles, 2-D grid sinograms, the offset multiplier, dual transform, FBP."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

import numpy as np

from .constants import constants
from .grids import AXIS_TOL, GridFunction2D, read_table_csv, uniform_step, write_table_csv
from .piecewise import (
    PiecewisePolynomial,
    poly_antiderivative,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_add,
    poly_trim,
)


class UnsupportedDimensionError(ValueError):
    """Raised when an analytic pipeline is asked for a dimension it excludes."""


OFFSET_MARGIN = 1.05


@dataclass(frozen=True)
class Sinogram:
    """Sampled Radon transform on a half-circle of angles times uniform offsets.

    Angles are theta_k = k*pi/K; the other half circle is implied by the
    evenness identification psi(-w, -b) = psi(w, b).  Construction rejects
    fewer than 2 offsets, non-uniform offsets and angles other than k*pi/K.
    """

    angles: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (a.size, b.size):
            raise ValueError("sinogram values must be angles x offsets")
        uniform_step(b, "sinogram offsets")
        if a.size == 0 or np.abs(a * a.size / math.pi - np.arange(a.size)).max() > AXIS_TOL:
            raise ValueError(f"sinogram angles are not k*pi/K for K={a.size}")
        for arr in (a, b, v):
            arr.setflags(write=False)
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "values", v)

    @property
    def K(self) -> int:
        return self.angles.size

    @property
    def J(self) -> int:
        return self.offsets.size

    @property
    def db(self) -> float:
        return float(self.offsets[1] - self.offsets[0])

    def l1(self) -> float:
        """L1 norm over the full sphere S^1 x R (half-circle sum doubled)."""
        return 2.0 * float(np.abs(self.values).sum()) * (math.pi / self.K) * self.db

    def to_csv(self) -> str:
        return write_table_csv("theta,b,value", self.angles, self.offsets, self.values)

    @staticmethod
    def from_csv(source: str | TextIO) -> "Sinogram":
        """The sinogram to_csv writes; malformed axes raise as in the constructor."""
        return Sinogram(*read_table_csv(source, "theta,b,value"))


@dataclass(frozen=True)
class RadialFunction:
    """Radially symmetric function f(x) = g(||x||) in dimension d.

    The profile is either a compactly supported piecewise polynomial on
    [0, R], or the designated smooth bump exp(-1/(1-r^2)) on [0, 1]
    (kind="exp-bump").
    """

    d: int
    g: PiecewisePolynomial | None = None
    kind: str = "polynomial"

    def __post_init__(self):
        if self.kind not in ("polynomial", "exp-bump"):
            raise ValueError(f"unknown radial profile kind {self.kind!r}")
        if self.kind == "polynomial":
            if self.g is None:
                raise ValueError("a polynomial radial profile needs its piecewise polynomial g")
            if self.g.breakpoints and float(self.g.breakpoints[0]) < 0:
                raise ValueError("radial profile domain starts at r >= 0")

    @property
    def support_radius(self) -> float:
        if self.kind == "exp-bump":
            return 1.0
        return float(self.g.breakpoints[-1]) if self.g.breakpoints else 0.0

    def profile_values(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "exp-bump":
            out = np.zeros_like(r)
            inside = np.abs(r) < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
            return out
        return self.g(np.abs(r))

    def __call__(self, *coords):
        r = np.sqrt(sum(np.asarray(c, dtype=float) ** 2 for c in coords))
        return self.profile_values(r)


def bump_poly(k: int, dilation=1) -> PiecewisePolynomial:
    """The radial profile (1 - (r/eps)^2)^k on [0, eps], exact coefficients."""
    eps = Fraction(dilation)
    base = poly_trim((1, 0, -1 / (eps * eps)))
    out = (Fraction(1),)
    for _ in range(k):
        out = poly_mul(out, base)
    return PiecewisePolynomial((Fraction(0), eps), (out,))


def radial_radon_profile(f: RadialFunction) -> PiecewisePolynomial:
    """Exact Radon profile rho(b) = int_b^inf g(t) (t^2-b^2)^((d-3)/2) t dt for odd d >= 3.

    The sphere-area prefactor c_{d-1} is deliberately omitted; the radial
    norm formula absorbs it into the 2/(d-2)! constant.
    """
    if f.d % 2 == 0 or f.d < 3:
        raise UnsupportedDimensionError(f"analytic radial profile needs odd d >= 3, got d={f.d}")
    if f.kind != "polynomial":
        raise ValueError("exact radial profile requires a piecewise-polynomial g")
    g = f.g
    if g.is_zero or not g.pieces:
        return PiecewisePolynomial.zero()
    m = (f.d - 3) // 2
    bps, pieces = list(g.breakpoints), list(g.pieces)
    if bps[0] > 0:
        # the hole below the support is a zero piece, over which rho sums every g-piece in full
        bps.insert(0, Fraction(0))
        pieces.insert(0, ())
    npieces = len(pieces)
    # antiderivatives A_ij of g_i(t) * t^(2j+1), and their full-piece integrals
    anti = [
        [poly_antiderivative(poly_mul(pieces[i], ((0,) * (2 * j + 1)) + (1,))) for j in range(m + 1)]
        for i in range(npieces)
    ]
    tail = [
        [poly_eval(anti[i][j], bps[i + 1]) - poly_eval(anti[i][j], bps[i]) for j in range(m + 1)]
        for i in range(npieces)
    ]
    coef = [Fraction(math.comb(m, j) * (-1) ** (m - j)) for j in range(m + 1)]

    pos_bps = []
    pos_pieces = []
    for k in range(npieces):
        poly = ()
        for j in range(m + 1):
            upper = poly_eval(anti[k][j], bps[k + 1])
            suffix = sum((tail[i][j] for i in range(k + 1, npieces)), Fraction(0))
            mono = ((0,) * (2 * (m - j))) + (1,)
            # b^(2(m-j)) * (A_kj(r_{k+1}) + suffix - A_kj(b))
            poly = poly_add(poly, poly_scale(mono, coef[j] * (upper + suffix)))
            poly = poly_add(poly, poly_scale(poly_mul(mono, anti[k][j]), -coef[j]))
        pos_bps.append(bps[k])
        pos_pieces.append(poly_trim(poly))
    pos_bps.append(bps[-1])

    # even extension to negative b; pos_bps[0] == 0
    neg_bps = [-b for b in reversed(pos_bps[1:])]
    neg_pieces = [
        poly_trim(tuple(c * (-1) ** i for i, c in enumerate(p))) for p in reversed(pos_pieces)
    ]
    return PiecewisePolynomial(tuple(neg_bps + pos_bps), tuple(neg_pieces + pos_pieces))


# samples per map_coordinates call, in whole offset rows: a thread's buffers and the
# sampler's temporaries stay near a few MB whatever K, J and the grid size are
BLOCK_SAMPLES = 2**16


def map_coordinates(values: np.ndarray, coords: np.ndarray, output: np.ndarray) -> np.ndarray:
    """Bilinear samples of values at the fractional indices coords (2 x m), written into output (m,).

    The semantics of scipy.ndimage.map_coordinates(order=1, mode="constant"):
    a point outside the index box [0, n0-1] x [0, n1-1] samples 0, and only
    the points inside it are interpolated.
    """
    x, y = coords
    n0, n1 = values.shape
    inside = np.flatnonzero((x >= 0) & (x <= n0 - 1) & (y >= 0) & (y <= n1 - 1))
    fx, fy = x.take(inside), y.take(inside)
    # the lower corner; a point on the last row or column uses the cell below it with weight 1
    i = np.minimum(fx.astype(np.intp), n0 - 2)
    j = np.minimum(fy.astype(np.intp), n1 - 2)
    fx -= i
    fy -= j
    gx, gy = 1.0 - fx, 1.0 - fy
    i *= n1
    i += j
    v = values.ravel()
    low = v.take(i) * gx
    low += v[n1:].take(i) * fx
    low *= gy
    high = v[1:].take(i) * gx
    high += v[n1 + 1:].take(i) * fx
    high *= fy
    low += high
    output.fill(0.0)
    output.put(inside, low)
    return output


def _line_integral_batch(f: GridFunction2D, theta: float, offsets: np.ndarray, t: np.ndarray, step: float,
                         buf: np.ndarray) -> np.ndarray:
    """Line integrals of f along w(theta).x = b for each offset b; buf (3 x offsets x t) holds the samples."""
    w = (math.cos(theta), math.sin(theta))
    u = (-math.sin(theta), math.cos(theta))
    for a in range(2):
        np.add.outer(offsets * w[a], t * u[a], out=buf[a])
    buf[:2] /= f.h
    buf[:2] += (f.n - 1) / 2.0
    map_coordinates(f.values, buf[:2].reshape(2, -1), output=buf[2].reshape(-1))
    return buf[2].sum(axis=1) * step


def check_sinogram_size(K: int, J: int) -> None:
    """Raise ValueError unless a grid sinogram has at least 32 angles and 64 offsets."""
    if K < 32:
        raise ValueError(f"need at least 32 angles, got {K}")
    if J < 64:
        raise ValueError(f"need at least 64 offsets, got {J}")


def grid_radon_2d(f: GridFunction2D, K: int, J: int) -> Sinogram:
    """Sampled Radon transform of a 2-D grid function (bilinear, step h/2), one thread per usable CPU.

    Each thread sweeps a contiguous block of angles, BLOCK_SAMPLES line samples at a time.
    """
    from concurrent.futures import ThreadPoolExecutor

    check_sinogram_size(K, J)
    B = OFFSET_MARGIN * f.half_diagonal
    angles = np.arange(K) * math.pi / K
    offsets = np.linspace(-B, B, J)
    step = f.h / 2.0
    nt = int(math.ceil(f.half_diagonal * 1.01 / step))
    t = np.arange(-nt, nt + 1) * step
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(K, cpus)
    rows = min(J, max(1, BLOCK_SAMPLES // t.size))
    values = np.empty((K, J))
    # allocated in this thread: freed by a worker, a buffer would stay resident in that thread's malloc arena
    buffers = [np.empty((3, rows, t.size)) for _ in range(workers)]

    def sweep(ths, out, buf):
        for th, row in zip(ths, out):
            for r0 in range(0, J, rows):
                r1 = min(r0 + rows, J)
                row[r0:r1] = _line_integral_batch(f, th, offsets[r0:r1], t, step, buf[:, :r1 - r0])

    with ThreadPoolExecutor(workers) as pool:
        # list() reads every result, so a worker's exception is raised here
        list(pool.map(sweep, np.array_split(angles, workers), np.array_split(values, workers), buffers))
    return Sinogram(angles, offsets, values)


def offset_power_derivative(sin: Sinogram, order: int) -> Sinogram:
    """Apply the |xi|^order multiplier (angular frequency) per angle in the offset variable.

    Even orders reproduce (-d^2/db^2)^(order/2); odd orders are the Hilbert
    transform composition, all through the single |xi|^order formula.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    J = sin.J
    pad = 2 * J
    mult = (2.0 * math.pi * np.fft.rfftfreq(pad, d=sin.db)) ** order
    mult[0] = 0.0
    out = np.fft.irfft(np.fft.rfft(sin.values, n=pad, axis=1) * mult, n=pad, axis=1)[:, :J]
    return Sinogram(sin.angles, sin.offsets, out)


def dual_radon_2d(s: Sinogram, n: int, h: float) -> GridFunction2D:
    """Dual Radon transform onto an n x n centered grid with spacing h.

    Approximates the full-circle integral by the half-circle sum times
    2*pi/K, using the evenness identification; offsets falling outside the
    sinogram range contribute zero (flagged).
    """
    ax = (np.arange(n) - (n - 1) / 2.0) * h
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    out = np.zeros((n, n))
    clamped = False
    bmax = float(s.offsets[-1])
    for k, th in enumerate(s.angles):
        b = math.cos(th) * X + math.sin(th) * Y
        if not clamped and (b.max() > bmax or b.min() < float(s.offsets[0])):
            clamped = True
        out += np.interp(b.ravel(), s.offsets, s.values[k], left=0.0, right=0.0).reshape(n, n)
    out *= 2.0 * math.pi / s.K
    return GridFunction2D(out, h, ("offset-clamped-to-zero",) if clamped else ())


def fbp_inverse_2d(s: Sinogram, n: int, h: float) -> GridFunction2D:
    """Filtered backprojection (d=2) onto an n x n grid of spacing h: |sigma| filter, dual, gamma_2 scale."""
    filtered = offset_power_derivative(s, 1)
    grid = dual_radon_2d(filtered, n, h)
    gamma_2 = constants(2).gamma_d
    return GridFunction2D(grid.values * gamma_2, h, grid.warnings)
