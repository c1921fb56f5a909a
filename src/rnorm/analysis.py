"""Demonstration pipelines built on the engines: infinite-norm certificates for
piecewise-linear functions, the three-layer pyramid identity, the parallelogram-law
failure, the radial bump finiteness sweep, and the linear-unit gap demo."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import FiniteReluNet, grad_at_infinity, rbar_bounds, rnorm_finite_net, rnorm_radial_odd
from .fitting import FitProblem, disc_samples, min_norm_fit
from .radon import RadialFunction, bump_poly
from .spectral import PwlCurvatureMeasure2D, RayDecaySample, pwl_fourier_ray

CONSTANT_RATIO_TOL = 0.10
ZERO_MAGNITUDE = 1e-12
# frequencies of each probed direction's decay curve
CURVE_SIGMAS = np.geomspace(10.0, 200.0, 33)


@dataclass(frozen=True)
class CertificateEntry:
    """Decay classification of one probed boundary normal."""

    direction: np.ndarray
    classification: str  # "CONSTANT" or "DECAYING"
    ratio: float
    sample: RayDecaySample


@dataclass(frozen=True)
class CertificateReport:
    entries: tuple
    infinite: bool

    def to_dict(self) -> dict:
        return {
            "infinite": self.infinite,
            "entries": [
                {
                    "direction": list(map(float, e.direction)),
                    "classification": e.classification,
                    "ratio": e.ratio,
                }
                for e in self.entries
            ],
        }


def pwl_infinite_certificate(mu: PwlCurvatureMeasure2D, normals) -> CertificateReport:
    """Probe the curvature measure's Fourier transform along candidate normals.

    A direction is CONSTANT when |F(100)|/|F(50)| is within 10% of 1 and the
    magnitude is bounded away from zero; any CONSTANT direction certifies an
    infinite two-layer norm, since the transform of a finite-cost function
    must decay along every ray.
    """
    entries = []
    for w in normals:
        w = np.asarray(w, dtype=float)
        w = w / np.linalg.norm(w)
        sample = pwl_fourier_ray(mu, w, CURVE_SIGMAS)
        probe = pwl_fourier_ray(mu, w, np.array([50.0, 100.0]))
        lo, hi = probe.magnitudes
        if lo < ZERO_MAGNITUDE:
            ratio = 0.0
            cls = "DECAYING"
        else:
            ratio = float(hi / lo)
            cls = "CONSTANT" if abs(ratio - 1.0) <= CONSTANT_RATIO_TOL else "DECAYING"
        entries.append(CertificateEntry(w, cls, ratio, sample))
    infinite = any(e.classification == "CONSTANT" for e in entries)
    return CertificateReport(tuple(entries), infinite)


def pyramid_pwl(x, y):
    """The pyramid [1 - |x| - |y|]_+, vectorized."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.maximum(1.0 - np.abs(x) - np.abs(y), 0.0)


def pyramid_geometry() -> PwlCurvatureMeasure2D:
    """Curvature measure of the pyramid: 4 inner segments (coefficient 2, the
    gradient jump across each axis crease) and 4 outer diamond edges
    (coefficient -sqrt(2), the jump to the zero region)."""
    o = np.zeros(2)
    vx = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    segs = [(o, v, 2.0) for v in vx]
    for i in range(4):
        segs.append((vx[i], vx[(i + 1) % 4], -math.sqrt(2.0)))
    return PwlCurvatureMeasure2D(tuple(segs))


def pyramid_threelayer() -> dict:
    """Exact-equality report of the pyramid against its depth-three net.

    Layer one computes [x]_+, [-x]_+, [y]_+, [-y]_+; layer two applies
    [1 - sum]_+.  The identity [t]_+ + [-t]_+ = |t| is exact in floating
    point, so the two forms agree bit-for-bit.
    """
    x, y = np.random.default_rng(0).uniform(-2.0, 2.0, size=(10_000, 2)).T
    z = np.maximum(x, 0.0) + np.maximum(-x, 0.0) + np.maximum(y, 0.0) + np.maximum(-y, 0.0)
    dev = float(np.abs(np.maximum(1.0 - z, 0.0) - pyramid_pwl(x, y)).max())
    return {
        "first_layer_units": 4,
        "second_layer_units": 1,
        "n_points": 10_000,
        "max_abs_deviation": dev,
        "exact": dev == 0.0,
    }


def parallelogram_check(w1, w2) -> dict:
    """Norms of [w1.x]_+, [w2.x]_+, their sum and difference, and the
    parallelogram-law test 2(n1^2 + n2^2) = n+^2 + n-^2 (it fails)."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if np.linalg.norm(w1 - w2) <= 1e-12 or np.linalg.norm(w1 + w2) <= 1e-12:
        raise ValueError("directions must be distinct and non-antipodal")
    d = w1.size
    f1 = FiniteReluNet(d, ((1.0, w1, 0.0),))
    f2 = FiniteReluNet(d, ((1.0, w2, 0.0),))
    fsum = FiniteReluNet(d, ((1.0, w1, 0.0), (1.0, w2, 0.0)))
    fdiff = FiniteReluNet(d, ((1.0, w1, 0.0), (-1.0, w2, 0.0)))
    n1, n2, np_, nm = (
        rnorm_finite_net(f).value for f in (f1, f2, fsum, fdiff)
    )
    lhs = 2.0 * (n1**2 + n2**2)
    rhs = np_**2 + nm**2
    return {
        "norms": [n1, n2, np_, nm],
        "lhs": lhs,
        "rhs": rhs,
        "violation": abs(lhs - rhs) > 1e-9,
    }


def bump_finiteness_sweep(d_list, k_list) -> list[dict]:
    """rnorm_radial_odd over (d, k) for g=(1-r^2)^k, with threshold and bracket checks."""
    rows = []
    for d in d_list:
        for k in k_list:
            rep = rnorm_radial_odd(RadialFunction(d, bump_poly(k)))
            expected_finite = k >= (d + 1) / 2
            row = {
                "d": d,
                "k": k,
                "finite": not rep.is_infinite,
                "value": None if rep.is_infinite else rep.value,
                "threshold_ok": (not rep.is_infinite) == expected_finite,
            }
            if 2 * k == d + 5:
                lo, hi = (d + 5) * d, 2.0 * d * (d + 5)
                row["bracket"] = [lo, hi]
                row["bracket_ok"] = bool(lo <= rep.value <= hi)
            rows.append(row)
    return rows


def rbar_gap_demo(seed: int = 0) -> dict:
    """The linear-unit gap on f(x,y) = |x| + y.

    The exact norm without the linear unit exceeds the norm with it by twice
    the gradient at infinity: bracket [2, 4], both ends attained by fits of
    200 seeded samples in the disc of radius 2 on 128 angles (64 directions)
    x 65 offsets, at tolerance 1e-3 and at most 15 000 iterations each.
    """
    net = FiniteReluNet(
        2,
        ((1.0, np.array([1.0, 0.0]), 0.0), (1.0, np.array([-1.0, 0.0]), 0.0)),
        v=np.array([0.0, 1.0]),
    )
    rnorm = rnorm_finite_net(net).value
    g = grad_at_infinity(net)

    X = disc_samples(200, 2.0, seed)
    y = np.abs(X[:, 0]) + X[:, 1]

    fits = {}
    for label, use_lin in (("with_linear_unit", True), ("without_linear_unit", False)):
        p = FitProblem(X, y, K=128, J=65, tol=1e-3, use_linear_unit=use_lin)
        fits[label] = min_norm_fit(p, max_iter=15_000)

    return {
        "rnorm": rnorm,
        "grad_at_infinity": list(map(float, g)),
        "bracket": list(rbar_bounds(rnorm, g)),
        "fit_with_linear_unit": fits["with_linear_unit"].objective,
        "fit_without_linear_unit": fits["without_linear_unit"].objective,
        "fits": {k: v.to_dict() for k, v in fits.items()},
    }
