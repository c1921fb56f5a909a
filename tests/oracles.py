"""Reference computations that only tests use: slow, direct forms of what the package computes."""

import math
from fractions import Fraction

import numpy as np

from rnorm import FiniteReluNet, GridFunction2D, PiecewisePolynomial, RayDecaySample, Sinogram, constants
from rnorm.fitting import FitResult
from rnorm.grids import read_table_csv, write_table_csv


def grid_axis(f: GridFunction2D) -> np.ndarray:
    """The coordinates x_i = (i - (n-1)/2) h of f's samples along either axis."""
    return (np.arange(f.n) - (f.n - 1) / 2.0) * f.h


def grid_meshgrid(f: GridFunction2D) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate arrays (X, Y) of f's samples, indexed like f.values."""
    ax = grid_axis(f)
    return np.meshgrid(ax, ax, indexing="ij")


def grid_to_csv(f: GridFunction2D) -> str:
    """The x,y,value CSV that GridFunction2D.from_csv reads back to f."""
    ax = grid_axis(f)
    return write_table_csv("x,y,value", ax, ax, f.values)


def sinogram_from_csv(source) -> Sinogram:
    """The sinogram that Sinogram.to_csv wrote; malformed axes raise as in the constructor."""
    return Sinogram(*read_table_csv(source, "theta,b,value"))


def fit_as_net(fit: FitResult) -> FiniteReluNet:
    """The d=2 finite net of a fit; the -[-b]_+ dictionary offsets fold into the bias."""
    units = tuple((wt, w, b) for w, b, wt in fit.measure.atoms)
    shift = sum(wt * max(-b, 0.0) for _, b, wt in fit.measure.atoms)
    return FiniteReluNet(d=2, units=units, v=fit.v, c=fit.c - shift)


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


def deflate_two_pass(N, root):
    """The integer polynomial N divided by b x - a while an exact evaluation at root = a/b reads 0, then
    one synthetic division per factor: the reference for rnorm.piecewise._deflate."""
    a, b = root.numerator, root.denominator
    while len(N) > 1 and horner(N, Fraction(root)) == 0:
        q = [0]
        for n in reversed(N[1:]):
            q.append((n + a * q[-1]) // b)
        N = q[:0:-1]
    return N


def eval_exact(p: PiecewisePolynomial, b):
    """p(b) in exact arithmetic when b and p's coefficients are rational; Fraction(0) outside the support."""
    i = int(p._piece_index(float(b)))
    return horner(p.pieces[i], b) if i >= 0 else Fraction(0)


def bump_poly_d3_rnorm(k: int, n: int = 2_000_000) -> float:
    """R(f) for f(x) = (1-|x|^2)^k in d=3: 2 int_0^1 |(b g)'''| db = 2 int_0^1 |3 g'' + b g'''| db
    with g(b) = (1-b^2)^k, by the trapezoid rule on n cells of closed forms that do not cancel."""
    b = np.linspace(0.0, 1.0, n + 1)
    u = 1.0 - b * b
    g2 = -2.0 * k * u ** (k - 1) + 4.0 * k * (k - 1) * b * b * u ** (k - 2)
    g3 = 12.0 * k * (k - 1) * b * u ** (k - 2) - 8.0 * k * (k - 1) * (k - 2) * b**3 * u ** (k - 3)
    return 2.0 * float(np.trapezoid(np.abs(3.0 * g2 + b * g3), b))


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


def radial_rnorm_2d(g, R: float, L: float, n: int = 2**16) -> float:
    """R(f) for a radial f = g(|x|) in d=2 that vanishes beyond |x| = R, by criterion 6's formula
    gamma_2 2 pi || |sigma|^3 rho ||_1 on n FFT offsets over [-L, L) (L >= 4R keeps the
    periodic images apart), with the Abel transform rho(b) = 2 int_0^sqrt(R^2-b^2) g(sqrt(b^2+s^2)) ds
    by 200-node Gauss-Legendre in s."""
    h = 2.0 * L / n
    b = (np.arange(n) - n / 2) * h
    inside = np.abs(b) < R
    bi = b[inside]
    half = np.sqrt(R * R - bi * bi) / 2.0
    nodes, weights = np.polynomial.legendre.leggauss(200)
    rho = np.zeros(n)
    for x, w in zip(nodes, weights):
        s = half * (1.0 + x)
        rho[inside] += w * g(np.sqrt(bi * bi + s * s))
    rho[inside] *= 2.0 * half
    xi = 2.0 * math.pi * np.fft.fftfreq(n, h)
    filt = np.fft.ifft(np.fft.fft(rho) * np.abs(xi) ** 3).real
    return constants(2).gamma_d * 2.0 * math.pi * float(np.abs(filt).sum()) * h


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
