"""Exact piecewise-polynomial calculus with distributional (Dirac) bookkeeping.

Polynomials are coefficient lists in ascending powers.  Coefficients are kept
as exact `Fraction`s whenever the inputs are rational, so repeated
differentiation and the |polynomial| integrals stay exact up to the float
conversion at the very end.  Evaluation at a rational point runs on integers:
Horner's rule on the numerators over one common denominator, with a single
`Fraction` built for the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

BREAKPOINT_TOL = 1e-12

Coeffs = tuple
_RATIONAL = (int, Fraction)


def _as_exact(x):
    """Promote ints/Fractions untouched, leave floats as floats; a NaN or inf raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"piecewise-polynomial breakpoints and coefficients must be finite, got {x}")
    return x


def poly_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_eval(coeffs, x):
    """p(x) by Horner's rule: exact at rational x and coefficients, float or array otherwise."""
    if type(x) in _RATIONAL and coeffs and all(type(c) in _RATIONAL for c in coeffs):
        if type(x) is Fraction or any(type(c) is Fraction for c in coeffs):
            return _eval_rational(coeffs, x)
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_rational(coeffs, x) -> Fraction:
    """p(a/b) = sum n_i a^i b^(deg-i) / (D b^deg), where n_i = c_i D over the common denominator D."""
    a, b = x.numerator, x.denominator
    D = math.lcm(*(c.denominator for c in coeffs))
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c.numerator * (D // c.denominator) * scale
        scale *= b
    return Fraction(acc, D * b ** (len(coeffs) - 1))


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))


def poly_scale(a, s):
    return poly_trim(tuple(c * s for c in a))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(tuple(out))


def poly_derivative(coeffs):
    return poly_trim(tuple(coeffs[i] * i for i in range(1, len(coeffs))))


def poly_antiderivative(coeffs):
    out = [0]
    for i, c in enumerate(coeffs):
        if isinstance(c, Rational):
            out.append(Fraction(c, i + 1))
        else:
            out.append(c / (i + 1))
    return poly_trim(tuple(out))


def _poly_real_roots(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots of the polynomial strictly inside (lo, hi).

    Companion-matrix roots followed by a few Newton polish steps; tolerance
    matches the 1e-12 breakpoint convention of the symbolic pipelines.
    """
    cf = [float(c) for c in coeffs]
    cf = list(poly_trim(tuple(cf)))
    if len(cf) <= 1:
        return []
    rts = np.roots(cf[::-1])
    dcf = [float(c) for c in poly_derivative(cf)]
    out = []
    span = max(hi - lo, 1.0)
    for r in rts:
        if abs(r.imag) > 1e-7 * (1.0 + abs(r.real)):
            continue
        x = float(r.real)
        for _ in range(4):
            d = poly_eval(dcf, x)
            if d == 0:
                break
            x -= poly_eval(cf, x) / d
        if lo + 1e-14 * span < x < hi - 1e-14 * span:
            out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or x - dedup[-1] > 1e-12 * span:
            dedup.append(x)
    return dedup


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial on consecutive intervals between sorted breakpoints,
    identically zero outside [breakpoints[0], breakpoints[-1]].
    """

    breakpoints: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        bps = [_as_exact(b) for b in self.breakpoints]
        for a, b in zip(bps, bps[1:]):
            if not float(b) - float(a) > BREAKPOINT_TOL:
                raise ValueError("breakpoints must be strictly increasing")
        if self.breakpoints and len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need exactly one piece per breakpoint interval")
        object.__setattr__(self, "breakpoints", tuple(bps))
        object.__setattr__(
            self, "pieces", tuple(poly_trim(tuple(_as_exact(c) for c in p)) for p in self.pieces)
        )

    @staticmethod
    def zero() -> "PiecewisePolynomial":
        return PiecewisePolynomial((), ())

    @property
    def is_zero(self) -> bool:
        return all(not p for p in self.pieces)

    def _piece_index(self, b) -> np.ndarray:
        """Index of the piece holding each b (right-open intervals, the last one
        closed); -1 outside the support, where the function is zero."""
        n = len(self.pieces)
        bps = np.array(self.breakpoints, dtype=float)
        i = np.searchsorted(bps, b, side="right") - 1
        inside = (i >= 0) & (np.searchsorted(bps, b, side="left") <= n)
        return np.where(inside, np.minimum(i, n - 1), -1)

    def __call__(self, b):
        x = np.asarray(b, dtype=float)
        index = self._piece_index(x)
        out = np.zeros(x.shape)
        for i, coeffs in enumerate(self.pieces):
            at = index == i
            out[at] = np.polyval([float(c) for c in reversed(coeffs)], x[at])
        return float(out) if out.ndim == 0 else out

    def boundary_jumps(self) -> list[tuple]:
        """(location, jump) at each breakpoint; jump = right limit - left limit."""
        out = []
        n = len(self.pieces)
        for idx, bp in enumerate(self.breakpoints):
            left = poly_eval(self.pieces[idx - 1], bp) if idx > 0 else 0
            right = poly_eval(self.pieces[idx], bp) if idx < n else 0
            jump = right - left
            if jump != 0 and abs(float(jump)) > 1e-14 * (1.0 + abs(float(left)) + abs(float(right))):
                out.append((bp, jump))
        return out

    def derivative_pieces(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(self.breakpoints, tuple(poly_derivative(p) for p in self.pieces))

    def abs_integral(self) -> float:
        """Exact integral of |p| over its support."""
        if not self.pieces or self.is_zero:
            return 0.0
        total = 0.0
        for i, coeffs in enumerate(self.pieces):
            if not coeffs:
                continue
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            anti = poly_antiderivative(coeffs)
            # the float roots are evaluated exactly too: near degree 100 a float Horner sum cancels to noise
            cuts = [lo] + [Fraction(r) for r in _poly_real_roots(coeffs, float(lo), float(hi))] + [hi]
            values = [poly_eval(anti, x) for x in cuts]
            for a, b in zip(values, values[1:]):
                total += abs(float(b - a))
        return total


@dataclass(frozen=True)
class DistributionalProfile:
    """Absolutely continuous piecewise polynomial plus Dirac atoms.

    atom_derivative_order > 0 records that a delta has itself been
    differentiated, at which point the total variation is infinite.
    """

    ac: PiecewisePolynomial
    atoms: tuple = ()
    atom_derivative_order: int = 0

    def __post_init__(self):
        cleaned = tuple((loc, m) for loc, m in self.atoms if m != 0 and abs(float(m)) > 1e-300)
        object.__setattr__(self, "atoms", cleaned)


def pw_derivative(p: PiecewisePolynomial) -> DistributionalProfile:
    """Distributional derivative: piecewise derivative plus one jump atom per breakpoint.

    The atoms come sorted and distinct, as the breakpoints are, and zero jumps are dropped.
    """
    return DistributionalProfile(ac=p.derivative_pieces(), atoms=tuple(p.boundary_jumps()))


def profile_derivative(q: DistributionalProfile) -> DistributionalProfile:
    """Differentiate a profile once more; any pre-existing atom becomes a delta derivative."""
    base = pw_derivative(q.ac)
    order = q.atom_derivative_order
    if q.atoms or order > 0:
        order += 1
    return DistributionalProfile(ac=base.ac, atoms=base.atoms, atom_derivative_order=order)


def profile_l1(q: DistributionalProfile) -> float:
    """Total variation: integral of |ac| plus summed |atom masses|; inf past order 0."""
    if q.atom_derivative_order >= 1:
        return math.inf
    return q.ac.abs_integral() + sum(abs(float(m)) for _, m in q.atoms)
