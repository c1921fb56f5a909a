"""R-norm calculators and bounds: finite nets, radial odd-d, 2-D grids, Theorem-2 sandwich."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import constants
from .grids import GridFunction2D
from .piecewise import DistributionalProfile, profile_derivative, profile_l1, pw_derivative
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


@dataclass(frozen=True)
class FiniteReluNet:
    """Explicit two-layer ReLU net: sum a_i [w_i.x - b_i]_+ + v.x + c."""

    d: int
    units: tuple  # of (a, w, b)
    v: np.ndarray | None = None
    c: float = 0.0

    def __post_init__(self):
        units = []
        for a, w, b in self.units:
            w = np.asarray(w, dtype=float)
            if w.shape != (self.d,):
                raise ValueError("unit direction has wrong dimension")
            if abs(np.linalg.norm(w) - 1.0) > UNIT_NORM_TOL:
                raise ValueError("unit directions must have norm 1 (to 1e-12)")
            w.setflags(write=False)
            units.append((float(a), w, float(b)))
        v = np.zeros(self.d) if self.v is None else np.asarray(self.v, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "units", tuple(units))
        object.__setattr__(self, "v", v)

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = X @ self.v + self.c
        for a, w, b in self.units:
            out = out + a * np.maximum(X @ w - b, 0.0)
        return out


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class RbarBounds:
    """Theorem-2 sandwich for the no-linear-unit representational cost."""

    rnorm: float
    grad_inf: np.ndarray
    lower: float = 0.0
    upper: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.grad_inf, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("gradient at infinity must be finite")
        g.setflags(write=False)
        gn = float(np.linalg.norm(g))
        object.__setattr__(self, "grad_inf", g)
        object.__setattr__(self, "lower", max(self.rnorm, 2.0 * gn))
        object.__setattr__(self, "upper", self.rnorm + 2.0 * gn)

    @property
    def is_tight(self) -> bool:
        return float(np.linalg.norm(self.grad_inf)) == 0.0


def rbar_bounds(rnorm: float, grad_inf) -> RbarBounds:
    if math.isinf(rnorm):
        raise ValueError("bounds require a finite R-norm")
    return RbarBounds(rnorm=float(rnorm), grad_inf=np.asarray(grad_inf, dtype=float))


def _even_measure_atoms(net: FiniteReluNet) -> list[tuple[np.ndarray, float, float]]:
    """Unique even measure of a net: mass a_i/2 at (w_i, b_i) and (-w_i, -b_i), merged."""
    atoms: list[list] = []  # [w, b, mass]

    def add(w, b, mass):
        for atom in atoms:
            if np.linalg.norm(atom[0] - w) + abs(atom[1] - b) <= ATOM_MERGE_TOL:
                atom[2] += mass
                return
        atoms.append([np.array(w), float(b), float(mass)])

    for a, w, b in net.units:
        add(w, b, a / 2.0)
        add(-w, -b, a / 2.0)
    return [(w, b, m) for w, b, m in atoms if abs(m) > 1e-15]


def rnorm_finite_net(net: FiniteReluNet) -> RNormReport:
    """Exact R-norm of a finite net: total variation of its even measure."""
    atoms = _even_measure_atoms(net)
    value = sum(abs(m) for _, _, m in atoms)
    return RNormReport(
        value=value,
        method="finite-net",
        error_estimate=0.0,
        diagnostics={"atoms": [[list(w), b, m] for w, b, m in atoms]},
    )


def _bump_derivative_funcs():
    """Second and third derivatives of exp(-1/(1-r^2)), lambdified once."""
    import sympy as sp

    r = sp.symbols("r")
    g = sp.exp(-1 / (1 - r**2))
    g2 = sp.lambdify(r, sp.diff(g, r, 2), "numpy")
    g3 = sp.lambdify(r, sp.diff(g, r, 3), "numpy")
    return g2, g3


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
        from scipy.integrate import quad

        g2, g3 = _bump_derivative_funcs()
        integrand = lambda b: abs(3.0 * g2(b) + b * g3(b))
        val, err = quad(integrand, 0.0, 1.0 - 1e-12, limit=200)
        return RNormReport(2.0 * val, "radial-odd", error_estimate=2.0 * err, diagnostics={"profile": "exp-bump"})

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

    The error estimate is the change at half the sinogram resolution; the
    report carries the full-resolution sinogram. Each resolution computes its
    own (-Delta)^(3/2) f (0.09 s at 512^2): the per-layer benchmark's own test
    still counts two fractional-Laplacian calls per grid op.
    """
    gamma_2 = constants(2).gamma_d

    def sinogram(Kc, Jc):
        g = frac_laplacian_2d(f, 3.0)
        return grid_radon_2d(g, Kc, Jc), g.warnings

    sino, warns = sinogram(K, J)
    value = gamma_2 * sino.l1()
    coarse = gamma_2 * sinogram(max(32, K // 2), max(65, (J - 1) // 2 + 1))[0].l1()
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
    """Lower bound ||Delta f||_inf; radial closed form or grid s=2 multiplier."""
    if isinstance(f, GridFunction2D):
        return float(np.abs(frac_laplacian_2d(f, 2.0).values).max())
    d = f.d
    if f.kind == "exp-bump":
        g2, g3 = _bump_derivative_funcs()
        import sympy as sp

        r = sp.symbols("r")
        g1 = sp.lambdify(r, sp.diff(sp.exp(-1 / (1 - r**2)), r), "numpy")
        rs = np.linspace(1e-6, 1.0 - 1e-9, 20001)
        vals = np.abs(g2(rs) + (d - 1) * g1(rs) / rs)
        origin = abs(d * g2(1e-8))
        return float(max(vals.max(), origin))
    g = f.g
    g1 = g.derivative_pieces()
    g2 = g1.derivative_pieces()
    R = f.support_radius
    rs = np.linspace(R * 1e-9, R, 20001)[1:]
    vals = np.abs(g2(rs) + (d - 1) * g1(rs) / rs)
    origin = abs(d * g2(0.0))
    return float(max(float(vals.max()), origin))


def grad_at_infinity(net: FiniteReluNet) -> np.ndarray:
    """Sphere-averaged gradient at infinite radius: (1/2) sum a_i w_i + v."""
    total = np.array(net.v, dtype=float)
    for a, w, b in net.units:
        total = total + 0.5 * a * w
    return total


def grad_at_infinity_estimate(
    func, d: int = 2, radii=(10.0, 20.0, 40.0), n_points: int = 720
) -> tuple[np.ndarray, bool]:
    """Sampled-sphere estimator of the gradient at infinity for callable inputs (d=2).

    Averages a central-difference gradient over n_points circle points at
    each radius and Richardson-extrapolates linearly in 1/r.  Returns
    (estimate, converged); converged is False when the per-radius averages
    vary by more than 5%.
    """
    if d != 2:
        raise UnsupportedDimensionError("the sampled-sphere estimator is implemented for d=2")
    thetas = np.arange(n_points) * 2.0 * math.pi / n_points
    per_radius = []
    for r in radii:
        eps = 1e-5 * r
        pts = r * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        grad = np.zeros((n_points, 2))
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            grad[:, axis] = (func(pts + shift) - func(pts - shift)) / (2.0 * eps)
        per_radius.append(grad.mean(axis=0))
    per_radius = np.array(per_radius)
    # linear fit in 1/r, intercept = limit
    A = np.stack([np.ones(len(radii)), 1.0 / np.asarray(radii)], axis=1)
    coef, *_ = np.linalg.lstsq(A, per_radius, rcond=None)
    estimate = coef[0]
    scale = max(float(np.linalg.norm(estimate)), 1e-12)
    converged = bool(np.max(np.linalg.norm(per_radius - estimate, axis=1)) <= 0.05 * scale + 1e-9)
    return estimate, converged
