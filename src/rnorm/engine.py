"""R-norm calculators and bounds: finite nets, radial odd-d, 2-D grids, Theorem-2 sandwich."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constants import constants
from .grids import GridFunction2D, finite_copy
from .piecewise import (
    DistributionalProfile, _deflate, _poly_real_roots, poly_add, poly_derivative, poly_eval, poly_mul,
    poly_scale, profile_derivative, profile_l1,
)
from .radon import (
    RadialFunction,
    Sinogram,
    UnsupportedDimensionError,
    grid_radon_2d,
    radial_radon_profile,
)
from .spectral import frac_laplacian_2d

UNIT_NORM_TOL = 1e-12


class FiniteReluNet:
    """Explicit two-layer ReLU net: sum a_i [w_i.x - b_i]_+ + v.x + c.

    The n units are kept as read-only arrays, weights a (n,), unit directions
    W (n, d) and offsets b (n,), not as n Python objects per field.
    """

    def __init__(self, d: int, units=(), v=None, c: float = 0.0):
        units = tuple(units)
        if any(np.shape(w) != (d,) for _, w, _ in units):
            raise ValueError("unit direction has wrong dimension")
        self.d, self.c = d, c
        self.a = finite_copy([a for a, _, _ in units], "net weights a")
        self.W = finite_copy([w for _, w, _ in units], "net directions W").reshape(len(units), d)
        self.b = finite_copy([b for _, _, b in units], "net offsets b")
        self.v = finite_copy(np.zeros(d) if v is None else v, "net linear part v")
        if self.v.shape != (d,):
            raise ValueError(f"net linear part v must have shape ({d},), got {self.v.shape}")
        if not abs(c) < math.inf:
            raise ValueError(f"net constant c must be finite, got {c}")
        if np.any(np.abs(np.linalg.norm(self.W, axis=1) - 1.0) > UNIT_NORM_TOL):
            raise ValueError("unit directions must have norm 1 (to 1e-12)")

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.maximum(X @ self.W.T - self.b, 0.0) @ self.a + X @ self.v + self.c


@dataclass(frozen=True)
class RNormReport:
    """Outcome of an R-norm computation: value (or inf), method tag, diagnostics."""

    value: float
    method: str
    error_estimate: float | None = None
    diagnostics: dict = field(default_factory=dict)
    # the sinogram a grid value was summed from; not part of the report's data
    sinogram: Sinogram | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.value >= 0:
            raise ValueError(f"R-norm values are nonnegative, got {self.value}")
        if math.isinf(self.value) and self.error_estimate is not None:
            raise ValueError("an infinite value carries no error estimate")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    def to_dict(self) -> dict:
        return {
            "value": "infinite" if self.is_infinite else self.value,
            "method": self.method,
            "error_estimate": self.error_estimate,
            "diagnostics": self.diagnostics,
        }


def rbar_bounds(rnorm: float, grad_inf) -> tuple[float, float]:
    """Theorem-2 sandwich (lower, upper) for the no-linear-unit representational cost:
    max(R, 2|g|) <= Rbar <= R + 2|g| for R-norm R and gradient at infinity g."""
    if math.isinf(rnorm):
        raise ValueError("bounds require a finite R-norm")
    g = np.asarray(grad_inf, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient at infinity must be finite")
    twice_grad = 2.0 * float(np.linalg.norm(g))
    return max(float(rnorm), twice_grad), float(rnorm) + twice_grad


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite signed combination of Diracs on S^(d-1) x R.

    Atoms with equal (w, b) merge at the first of them given (floats compare as the
    numbers they are, with no tolerance); their weights add in input order, and atoms
    whose weight sums to zero are dropped.
    """

    atoms: tuple  # of (w: unit vector, b: float, weight: float)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if atoms:
            W = finite_copy([w for w, _, _ in atoms], "atom directions")
            b = finite_copy([offset for _, offset, _ in atoms], "atom offsets")
            _, first, inverse = np.unique(np.column_stack([W, b]), axis=0, return_index=True, return_inverse=True)
            weights = np.bincount(inverse.ravel(), finite_copy([wt for _, _, wt in atoms], "atom weights"))
            order = np.argsort(first)
            atoms = tuple(
                (W[first[g]], float(b[first[g]]), float(weights[g])) for g in order if weights[g] != 0
            )
        object.__setattr__(self, "atoms", atoms)

    @property
    def total_variation(self) -> float:
        return sum(abs(wt) for _, _, wt in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)


def even_part(atoms) -> AtomicMeasure:
    """Even measure: mass weight/2 at both (w, b) and (-w, -b) for each
    (w, b, weight) in `atoms`, an AtomicMeasure or any iterable of atoms."""
    return AtomicMeasure(
        tuple(half for w, b, wt in atoms for half in ((w, b, wt / 2.0), (-w, -b, wt / 2.0)))
    )


def rnorm_finite_net(net: FiniteReluNet) -> RNormReport:
    """Exact R-norm of a finite net: total variation of its even measure."""
    measure = even_part(zip(net.W, net.b, net.a))
    return RNormReport(
        value=measure.total_variation,
        method="finite-net",
        error_estimate=0.0,
        diagnostics={"atoms": [[list(w), b, m] for w, b, m in measure.atoms]},
    )


def _exp_bump_factors(n: int) -> list:
    """Integer polynomials Q_0..Q_n with g^(k) = g Q_k / (1-r^2)^(2k) for the
    bump g = exp(-1/(1-r^2)): Q_0 = 1, Q_(k+1) = (1-r^2)^2 Q_k' + (4k r(1-r^2) - 2r) Q_k."""
    Q = [(1,)]
    for k in range(n):
        dQ = poly_mul((1, 0, -2, 0, 1), poly_derivative(Q[k]))
        Q.append(poly_add(dQ, poly_mul((0, 4 * k - 2, 0, -4 * k), Q[k])))
    return Q


def _exp_bump_term(poly, power: int):
    """r -> g(r) poly(r) / (1-r^2)^power for the exp bump g, at |r| < 1."""
    return lambda r: np.exp(-1.0 / (1.0 - r * r)) * poly_eval(poly, r) / (1.0 - r * r) ** power


def rnorm_radial_odd(f: RadialFunction) -> RNormReport:
    """Exact R-norm of a radial function in odd dimension d >= 3.

    The value is the full-line total variation of rho^(d+1), the (d+1)-th distributional
    derivative of the Radon profile rho, over (d-2)!: the total variation of the measure
    rho^(d+1)(b) db / (kappa_d |S^(d-2)|) on S^(d-1) x R that represents f, where
    kappa_d = (-1)^((d-1)/2) (d-2)! |S^(d-1)|/|S^(d-2)|.  diagnostics.atoms are the Dirac
    atoms (location, mass) of rho^(d+1), not the measure's masses.
    """
    d = f.d
    if d % 2 == 0 or d < 3:
        raise UnsupportedDimensionError(f"radial engine needs odd d >= 3, got d={d}")
    if f.kind == "exp-bump":
        if d != 3:
            raise UnsupportedDimensionError("the smooth-bump radial path is implemented for d=3")
        _, _, q2, q3 = _exp_bump_factors(3)
        # (b g)''' = 3 g'' + b g''' = g P / (1-b^2)^6: Gauss-Legendre between the roots of P
        P = poly_add(poly_mul((3, 0, -6, 0, 3), q2), poly_mul((0, 1), q3))
        cuts = np.array([0.0] + _poly_real_roots(P, 0.0, 1.0) + [1.0])
        lo, half = cuts[:-1, None], np.diff(cuts)[:, None] / 2.0
        value, coarse = (
            2.0 * float(np.abs(_exp_bump_term(P, 6)(lo + half * (x + 1.0)) @ w * half[:, 0]).sum())
            for x, w in map(np.polynomial.legendre.leggauss, (64, 32))
        )
        return RNormReport(value, "radial-odd", abs(value - coarse), diagnostics={"profile": "exp-bump"})

    rho = radial_radon_profile(f)
    profile = DistributionalProfile(rho)
    for _ in range(d + 1):
        profile = profile_derivative(profile)
    tv = profile_l1(profile)
    diag = {
        "atoms": [[float(loc), float(m)] for loc, m in profile.atoms],
        "atom_derivative_order": profile.atom_derivative_order,
    }
    if math.isinf(tv):
        return RNormReport(math.inf, "radial-odd", diagnostics=diag)
    value = tv / math.factorial(d - 2)
    return RNormReport(value, "radial-odd", error_estimate=0.0, diagnostics=diag)


def rnorm_grid_2d(f: GridFunction2D, K: int = 256, J: int = 513) -> RNormReport:
    """Numerical d=2 R-norm: gamma_2 ||R{(-Delta)^(3/2) f}||_1 on the sinogram grid.

    The error estimate is the change at half the sinogram resolution, floored at
    32 x 65; the warning error-estimate-partial marks a K or J the floor keeps.
    The report carries the full-resolution sinogram. Each resolution computes
    its own (-Delta)^(3/2) f: the per-layer benchmark's own test counts two
    fractional-Laplacian calls per grid op. No SciPy is loaded; the sinogram's
    memory is bounded per thread, whatever K and J.
    """
    gamma_2 = constants(2).gamma_d

    def sinogram(Kc, Jc):
        g = frac_laplacian_2d(f, 3.0)
        return grid_radon_2d(g, Kc, Jc), g.warnings

    sino, warns = sinogram(K, J)
    value = gamma_2 * sino.l1()
    Kc, Jc = max(32, K // 2), max(65, (J - 1) // 2 + 1)
    if Kc >= K or Jc >= J:
        warns += ("error-estimate-partial",)
    coarse = gamma_2 * sinogram(Kc, Jc)[0].l1()
    return RNormReport(
        value=value,
        method="grid-2d",
        error_estimate=abs(value - coarse),
        diagnostics={"warnings": list(warns), "K": K, "J": J},
        sinogram=sino,
    )


def sobolev_upper_bound_2d(f: GridFunction2D) -> float:
    """Upper bound c_d gamma_d ||(-Delta)^((d+1)/2) f||_1 at d=2 (trapezoid L1)."""
    cst = constants(2)
    g = frac_laplacian_2d(f, 3.0)
    return cst.c_d * cst.gamma_d * float(np.abs(g.values).sum()) * f.h**2


def laplacian_lower_bound(f: RadialFunction | GridFunction2D) -> float:
    """The diagnostic ||Delta f||_inf: the grid s=2 multiplier's max, or a radial f's exact max.

    Despite the name it is no lower bound on R(f): dilating f by eps scales R(f) by
    1/eps but ||Delta f||_inf by 1/eps^2.  For d=3 and (1-r^2)^4 at eps = 1, 1/2, 1/4,
    R reads 27.02 / 54.03 / 108.06 while ||Delta f||_inf reads 24 / 96 / 384.

    On a profile piece [lo, hi], Delta f = N/r with N = r g'' + (d-1) g' is extreme at lo, hi
    and the roots of r N' - N; at r = 0 it is N'(0) = d g''(0), and a cone (g'(0) != 0) is inf.
    The exp bump's Delta f = g P/(1-r^2)^4 is extreme at 0 and at the roots of D in (0, 1)."""
    if isinstance(f, GridFunction2D):
        return float(np.abs(frac_laplacian_2d(f, 2.0).values).max())
    d = f.d
    if f.kind == "exp-bump":
        _, q1, q2 = _exp_bump_factors(2)
        u2 = (1, 0, -2, 0, 1)  # (1-r^2)^2
        P = poly_add(q2, poly_scale(u2, -2 * (d - 1)))
        # (g P/(1-r^2)^4)' = g D/(1-r^2)^6
        D = poly_add(poly_mul(poly_add(q1, (0, 8, 0, -8)), P), poly_mul(u2, poly_derivative(P)))
        term = _exp_bump_term(P, 4)
        return max(abs(float(term(r))) for r in [0.0] + _poly_real_roots(D, 0.0, 1.0))
    best = 0
    for lo, hi, piece in zip(f.g.breakpoints, f.g.breakpoints[1:], f.g.pieces):
        g1 = poly_derivative(piece)
        N = poly_add(poly_mul((0, 1), poly_derivative(g1)), poly_scale(g1, d - 1))
        if lo == 0 and poly_eval(N, 0) != 0:
            return math.inf  # (d-1) g'(r)/r is unbounded as r -> 0
        # as in abs_integral, divide the exact roots at +-breakpoints out: (1-r^2)^k overflows floats
        crit = tuple((j - 1) * c for j, c in enumerate(N))
        for bp in f.g.breakpoints:
            crit = _deflate(_deflate(crit, bp), -bp)
        roots = _poly_real_roots(crit, float(lo), float(hi))
        # exact at each float root, as in abs_integral: a float Horner sum of N cancels near degree 100
        for r in [lo, hi] + [Fraction(x) for x in roots]:
            best = max(best, abs(poly_eval(N, r) / r if r else poly_eval(N[1:], 0)))
    return float(best)


def grad_at_infinity(net: FiniteReluNet) -> np.ndarray:
    """Sphere-averaged gradient at infinite radius: (1/2) sum a_i w_i + v."""
    return net.v + 0.5 * (net.a @ net.W)
