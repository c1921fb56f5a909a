"""R-norm calculators and bounds: finite nets, radial odd-d, 2-D grids, Theorem-2 sandwich."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import constants
from .grids import GridFunction2D
from .piecewise import (
    DistributionalProfile, _poly_real_roots, poly_add, poly_derivative, poly_eval, poly_mul,
    profile_derivative, profile_l1,
)
from .radon import (
    RadialFunction,
    Sinogram,
    UnsupportedDimensionError,
    grid_radon_2d,
    radial_radon_profile,
)
from .spectral import frac_laplacian_2d

ATOM_MERGE_TOL = 1e-9
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
        W = np.array([w for _, w, _ in units], dtype=float).reshape(len(units), d)
        if np.any(np.abs(np.linalg.norm(W, axis=1) - 1.0) > UNIT_NORM_TOL):
            raise ValueError("unit directions must have norm 1 (to 1e-12)")
        self.d, self.c, self.W = d, c, W
        self.a = np.array([a for a, _, _ in units], dtype=float)
        self.b = np.array([b for _, _, b in units], dtype=float)
        self.v = np.zeros(d) if v is None else np.array(v, dtype=float)
        for arr in (self.a, self.W, self.b, self.v):
            arr.setflags(write=False)

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
        if self.value < 0:
            raise ValueError("R-norm values are nonnegative")
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


def _merge_labels(keys: np.ndarray) -> np.ndarray:
    """Per-column cluster labels: a column's clusters break only where its sorted
    values jump by more than ATOM_MERGE_TOL, so values within the tolerance share
    a label (rounding to a 1e-9 grid would split a pair across a cell edge)."""
    labels = np.empty(keys.shape, dtype=np.intp)
    for col in range(keys.shape[1]):
        order = np.argsort(keys[:, col], kind="stable")
        labels[order, col] = np.concatenate(([0], np.cumsum(np.diff(keys[order, col]) > ATOM_MERGE_TOL)))
    return labels


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite signed combination of Diracs on S^(d-1) x R.

    Atoms whose (w, b) share a cluster in every coordinate (_merge_labels) merge
    at the first of them given; their weights add in input order, and atoms
    whose weight sums to zero are dropped.
    """

    atoms: tuple  # of (w: unit vector, b: float, weight: float)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if atoms:
            W = np.array([w for w, _, _ in atoms], dtype=float)
            b = np.array([offset for _, offset, _ in atoms], dtype=float)
            keys = _merge_labels(np.column_stack([W, b]))
            _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
            weights = np.bincount(inverse.ravel(), weights=[wt for _, _, wt in atoms])
            W.setflags(write=False)
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

    Value is 2/(d-2)! times the half-line total variation of the (d+1)-th
    distributional derivative of the Radon profile; by evenness this equals
    the full-line total variation divided by (d-2)!, which counts each
    boundary atom once and halves any atom sitting exactly at b = 0.
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
    """Lower bound ||Delta f||_inf; radial closed form or grid s=2 multiplier.
    A radial cone at the origin (g'(0) != 0) gives inf, the zero profile 0."""
    if isinstance(f, GridFunction2D):
        return float(np.abs(frac_laplacian_2d(f, 2.0).values).max())
    d = f.d
    if f.kind == "exp-bump":
        _, q1, q2 = _exp_bump_factors(2)
        g1, g2 = _exp_bump_term(q1, 2), _exp_bump_term(q2, 4)
        rs = np.linspace(1e-6, 1.0 - 1e-9, 20001)
    else:
        if f.g.is_zero:
            return 0.0
        g1 = f.g.derivative_pieces()
        if f.g.breakpoints[0] == 0 and g1.eval_exact(0) != 0:
            return math.inf  # (d-1) g'(r)/r is unbounded as r -> 0
        g2 = g1.derivative_pieces()
        rs = np.linspace(f.support_radius * 1e-9, f.support_radius, 20001)[1:]
    vals = np.abs(g2(rs) + (d - 1) * g1(rs) / rs)
    return float(max(float(vals.max()), abs(d * g2(0.0))))


def grad_at_infinity(net: FiniteReluNet) -> np.ndarray:
    """Sphere-averaged gradient at infinite radius: (1/2) sum a_i w_i + v."""
    return net.v + 0.5 * (net.a @ net.W)
