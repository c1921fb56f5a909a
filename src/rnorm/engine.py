"""R-norm calculators and bounds: finite nets, radial odd-d, 2-D grids, Theorem-2 sandwich."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import constants
from .grids import GridFunction2D, finite_copy
from .piecewise import (
    DistributionalProfile, _at, _sign_changes, poly_add, poly_derivative, poly_eval, poly_mul,
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
# a grid value this many times its half-resolution one grows at least like the square root of
# the resolution: on a log scale, halfway between converged (1) and doubling like a kink's (2)
GROWTH_RATIO = math.sqrt(2.0)


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
    atoms (location, mass) of rho^(d+1), not the measure's masses.  The integral of |rho^(d+1)| is
    cut at certified sign changes, within 2^-40 of a piece's length of their roots, so no float
    tolerance enters it (PiecewisePolynomial.abs_integral); the error estimate is profile_l1's
    bound on the cuts' displacement and the float sum's rounding, over (d-2)!, plus one ulp for
    that division.  The exp bump's quadrature panels end at the certified sign changes of P, and
    its error estimate is the change from 32 to 64 Gauss-Legendre nodes.
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
        cuts = np.array([0.0, *map(float, _sign_changes(P, 0, 1)), 1.0])
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
    tv, error = profile_l1(profile)
    diag = {
        "atoms": [[float(loc), float(m)] for loc, m in profile.atoms],
        "atom_derivative_order": profile.atom_derivative_order,
    }
    if math.isinf(tv):
        return RNormReport(math.inf, "radial-odd", diagnostics=diag)
    value = tv / math.factorial(d - 2)
    return RNormReport(value, "radial-odd", error / math.factorial(d - 2) + math.ulp(value), diagnostics=diag)


def rnorm_grid_2d(f: GridFunction2D, K: int = 256, J: int = 513) -> RNormReport:
    """Numerical d=2 R-norm: gamma_2 ||R{(-Delta)^(3/2) f}||_1 on the sinogram grid.

    The error estimate is the change at half the resolution: f decimated to every
    second sample at spacing 2h (for even n a half-sample shift, which leaves R
    unchanged), with its own (-Delta)^(3/2), on a sinogram of half the K and J,
    floored at 32 x 65. error-estimate-partial marks a K or J the floor keeps, or a
    grid under 32 x 32, whose coarse level keeps the full grid. value-grows-with-resolution
    marks a value at least GROWTH_RATIO times the coarse one. The report carries the
    full-resolution sinogram. No SciPy is loaded; the sinogram's
    memory is bounded per thread, whatever K and J.
    """
    gamma_2 = constants(2).gamma_d
    g = frac_laplacian_2d(f, 3.0)
    sino, warns = grid_radon_2d(g, K, J), g.warnings
    value = gamma_2 * sino.l1()
    Kc, Jc = max(32, K // 2), max(65, (J - 1) // 2 + 1)
    if Kc >= K or Jc >= J or f.n < 32:
        warns += ("error-estimate-partial",)
    half = f if f.n < 32 else GridFunction2D(f.values[::2, ::2], 2.0 * f.h)
    coarse = gamma_2 * grid_radon_2d(frac_laplacian_2d(half, 3.0), Kc, Jc).l1()
    if value > 0 and value >= GROWTH_RATIO * coarse:
        warns += ("value-grows-with-resolution",)
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
    and the sign changes of r N' - N; at r = 0 it is N'(0) = d g''(0), and a cone (g'(0) != 0) is inf.
    The exp bump's Delta f = g P/(1-r^2)^4 is extreme at 0 and at the sign changes of D in (0, 1).
    Each sign change is certified within 2^-40 of its piece's length, with no float tolerance, and
    N/r is exact there."""
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
        return max(abs(float(term(r))) for r in [0.0, *map(float, _sign_changes(D, 0, 1))])
    bps, best = f.g.breakpoints, (0, 1)  # the largest |N(r)/r| so far, a numerator over a denominator
    for lo, hi, (P, den) in zip(bps, bps[1:], f.g._pieces):
        # N = r g'' + (d-1) g' has the coefficient (i+1)(i+d-1) P_(i+1)/den at r^i
        N = [(i + 1) * (i + d - 1) * c for i, c in enumerate(P[1:])]
        if lo == 0 and N and N[0]:
            return math.inf  # (d-1) g'(r)/r is unbounded as r -> 0
        crit = [(j - 1) * c for j, c in enumerate(N)]
        for r in [lo, hi, *_sign_changes(crit, lo, hi, [x for bp in bps for x in (bp, -bp)])]:
            if r:
                num, q = _at(N, den, r.numerator, r.denominator)
                num, q = abs(num * r.denominator), abs(q * r.numerator)
            else:
                num, q = abs(N[1]) if len(N) > 1 else 0, den
            if num * best[1] > best[0] * q:
                best = num, q
    return best[0] / best[1]


def grad_at_infinity(net: FiniteReluNet) -> np.ndarray:
    """Sphere-averaged gradient at infinite radius: (1/2) sum a_i w_i + v."""
    return net.v + 0.5 * (net.a @ net.W)
