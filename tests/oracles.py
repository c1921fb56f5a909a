"""Reference computations that only tests use: slow, direct forms of what the package computes."""

import math
from fractions import Fraction

import numpy as np

from rnorm import GridFunction2D, PiecewisePolynomial, RayDecaySample


def grid_meshgrid(f: GridFunction2D) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate arrays (X, Y) of f's samples, indexed like f.values."""
    ax = f.axis()
    return np.meshgrid(ax, ax, indexing="ij")


def grid_integral(f: GridFunction2D) -> float:
    """The Riemann sum of f: the sample sum times the cell area h^2."""
    return float(f.values.sum()) * f.h**2


def horner(coeffs, x):
    """sum c_i x^i by Horner's rule, one Python operation per step: a Fraction step at each
    rational x, the reference that rnorm.piecewise.poly_eval's integer evaluation must equal."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eval_exact(p: PiecewisePolynomial, b):
    """p(b) in exact arithmetic when b and p's coefficients are rational; Fraction(0) outside the support."""
    i = int(p._piece_index(float(b)))
    return horner(p.pieces[i], b) if i >= 0 else Fraction(0)


def grid_fourier_ray(f: GridFunction2D, w, sigmas) -> RayDecaySample:
    """|f-hat(sigma w)| by direct nonuniform summation over the grid samples."""
    w = np.asarray(w, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    X, Y = grid_meshgrid(f)
    t = (w[0] * X + w[1] * Y).ravel()
    v = f.values.ravel()
    mags = np.empty(sig.size)
    for i, s in enumerate(sig):
        mags[i] = abs(np.sum(v * np.exp(-1j * 2.0 * math.pi * s * t))) * f.h**2
    return RayDecaySample(w, sig, mags)


def exp_bump_laplacian(r, d: int):
    """Delta f at radius r in (0, 1) for f(x) = exp(-1/(1-|x|^2)) in dimension d, in closed form:
    g'' + (d-1) g'/r = g (4r^2/u^4 - 8r^2/u^3 - 2d/u^2) with u = 1 - r^2."""
    r = np.asarray(r, dtype=float)
    u = 1.0 - r * r
    return np.exp(-1.0 / u) * (4.0 * r * r / u**4 - 8.0 * r * r / u**3 - 2.0 * d / u**2)


def exp_bump_laplacian_max(d: int) -> float:
    """max |Delta f| over [0, 1) for the exp bump: a 1000-cell scan, then a bounded scalar
    maximization on the two cells around the best scan point."""
    from scipy.optimize import minimize_scalar

    rs = np.linspace(0.0, 1.0, 1001)[:-1]
    i = int(np.argmax(np.abs(exp_bump_laplacian(rs, d))))
    res = minimize_scalar(
        lambda r: -abs(float(exp_bump_laplacian(r, d))),
        bounds=(rs[max(i - 1, 0)], rs[min(i + 1, rs.size - 1)]),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return max(-float(res.fun), float(abs(exp_bump_laplacian(rs[i], d))))
