"""Radon transform: analytic radial profiles, 2-D grid sinograms, dual transform, FBP."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.ndimage import map_coordinates

from .constants import constants
from .grids import GridFunction2D, read_table_csv, write_table_csv
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


class OffsetRangeError(ValueError):
    """Raised when the sinogram offset range fails to cover the function support."""


OFFSET_MARGIN = 1.05


@dataclass(frozen=True)
class Sinogram:
    """Sampled Radon transform on a half-circle of angles times uniform offsets.

    Angles are theta_k = k*pi/K; the other half circle is implied by the
    evenness identification psi(-w, -b) = psi(w, b).
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
    def from_csv(text: str) -> "Sinogram":
        return Sinogram(*read_table_csv(text, "theta,b,value"))


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
            if self.g is None or not self.g.compact:
                raise ValueError("polynomial radial profiles must be compactly supported")
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
    bps = list(g.breakpoints)
    npieces = len(g.pieces)
    # antiderivatives A_ij of g_i(t) * t^(2j+1), and their full-piece integrals
    anti = [
        [poly_antiderivative(poly_mul(g.pieces[i], ((0,) * (2 * j + 1)) + (1,))) for j in range(m + 1)]
        for i in range(npieces)
    ]
    tail = [
        [poly_eval(anti[i][j], bps[i + 1]) - poly_eval(anti[i][j], bps[i]) for j in range(m + 1)]
        for i in range(npieces)
    ]
    coef = [Fraction(math.comb(m, j) * (-1) ** (m - j)) for j in range(m + 1)]

    pos_bps = []
    pos_pieces = []
    if bps[0] > 0:
        # pure-b piece below the profile support: every g-piece integrates fully
        poly = ()
        for j in range(m + 1):
            total = sum(tail[i][j] for i in range(npieces))
            mono = ((0,) * (2 * (m - j))) + (1,)
            poly = poly_add(poly, poly_scale(mono, coef[j] * total))
        pos_bps.append(Fraction(0))
        pos_pieces.append(poly)
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

    # even extension to negative b
    if pos_bps[0] == 0:
        neg_bps = [-b for b in reversed(pos_bps[1:])]
        neg_pieces = [
            poly_trim(tuple(c * (-1) ** i for i, c in enumerate(p))) for p in reversed(pos_pieces)
        ]
        all_bps = neg_bps + pos_bps
        all_pieces = neg_pieces + pos_pieces
    else:
        raise AssertionError("positive-b breakpoints must start at 0")
    return PiecewisePolynomial(tuple(all_bps), tuple(all_pieces))


def _line_integral_batch(f: GridFunction2D, theta: float, offsets: np.ndarray, step: float) -> np.ndarray:
    """Line integrals of f along w(theta).x = b for each offset b."""
    n = f.n
    w = np.array([math.cos(theta), math.sin(theta)])
    u = np.array([-math.sin(theta), math.cos(theta)])
    half = f.half_diagonal * 1.01
    nt = int(math.ceil(half / step))
    t = np.arange(-nt, nt + 1) * step
    x = offsets[:, None] * w[0] + t[None, :] * u[0]
    y = offsets[:, None] * w[1] + t[None, :] * u[1]
    ci = x / f.h + (n - 1) / 2.0
    cj = y / f.h + (n - 1) / 2.0
    samples = map_coordinates(f.values, [ci.ravel(), cj.ravel()], order=1, cval=0.0, mode="constant")
    return samples.reshape(offsets.size, t.size).sum(axis=1) * step


def check_sinogram_size(K: int, J: int) -> None:
    """Raise ValueError unless a grid sinogram has at least 32 angles and 64 offsets."""
    if K < 32:
        raise ValueError(f"need at least 32 angles, got {K}")
    if J < 64:
        raise ValueError(f"need at least 64 offsets, got {J}")


def grid_radon_2d(f: GridFunction2D, K: int, J: int, offset_range: float | None = None) -> Sinogram:
    """Sampled Radon transform of a 2-D grid function (bilinear, step h/2)."""
    check_sinogram_size(K, J)
    B = OFFSET_MARGIN * f.half_diagonal if offset_range is None else float(offset_range)
    if offset_range is not None and B < f.half_diagonal:
        ax = f.axis()
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        if np.any((np.abs(f.values) > 0) & (np.sqrt(X**2 + Y**2) > B)):
            raise OffsetRangeError("function support exceeds the sinogram offset range")
    angles = np.arange(K) * math.pi / K
    offsets = np.linspace(-B, B, J)
    step = f.h / 2.0
    values = np.empty((K, J))
    for k, th in enumerate(angles):
        values[k] = _line_integral_batch(f, th, offsets, step)
    return Sinogram(angles, offsets, values)


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
    grid = GridFunction2D(out, h)
    if clamped:
        grid = grid.with_warnings("offset-clamped-to-zero")
    return grid


def fbp_inverse_2d(s: Sinogram, n: int | None = None, h: float | None = None) -> GridFunction2D:
    """Filtered backprojection: |sigma|^(d-1) filter, dual transform, gamma_d scale (d=2)."""
    from .spectral import offset_power_derivative

    if n is None or h is None:
        # default grid: inscribed square of the offset range, offset-matched spacing
        half = float(s.offsets[-1]) / (OFFSET_MARGIN * math.sqrt(2.0))
        if h is None:
            h = s.db
        if n is None:
            n = max(16, int(round(2 * half / h)))
    filtered = offset_power_derivative(s, 1)
    grid = dual_radon_2d(filtered, n, h)
    gamma_2 = constants(2).gamma_d
    return GridFunction2D(grid.values * gamma_2, h, grid.warnings)
