"""Exact piecewise-polynomial calculus with distributional (Dirac) bookkeeping.

Polynomials are coefficient lists in ascending powers.  A `PiecewisePolynomial`
holds `Fraction`s only, a float read as the shortest decimal that rounds to it,
so derivatives, jumps and antiderivatives are exact and compared exactly.
Evaluation at a rational point runs on integers: Horner's rule on the numerators
over one common denominator, with a single `Fraction` built for the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from numbers import Rational

import numpy as np

_RATIONAL = (int, Fraction)


def _as_exact(x) -> Fraction:
    """x as a Fraction of Python ints: an integer or Fraction keeps its value, a float becomes the
    shortest decimal that rounds to it (0.1 is 1/10); a NaN or inf raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"exact calculus needs finite numbers, got {x}")
    return Fraction(repr(x))


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
    D = math.lcm(*(c.denominator for c in coeffs if c))
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + (c.numerator * (D // c.denominator) * scale if c else 0)
        scale *= b
    return Fraction(acc, D * b ** (len(coeffs) - 1))


def poly_add(a, b):
    return poly_trim(tuple((x + y if x else y) if y else x for x, y in zip_longest(a, b, fillvalue=0)))


def poly_scale(a, s):
    return poly_trim(tuple(c * s if c else c for c in a))


def poly_mul(a, b):
    """a times b, the loops over the nonzero coefficients of each factor only: a zero costs no
    Fraction arithmetic, so a product by the monomial t^n costs what a shift does."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in nonzero_b:
                out[i + j] += ca * cb
    return poly_trim(tuple(out))


def poly_derivative(coeffs):
    return poly_trim(tuple(c * i if c else c for i, c in enumerate(coeffs) if i))


def poly_antiderivative(coeffs):
    return poly_trim((0,) + tuple(Fraction(c, i + 1) if c else c for i, c in enumerate(coeffs)))


def _deflate(N: list, root) -> list:
    """The integer polynomial N divided by b x - a as often as root = a/b is a root: one synthetic division
    per factor (an integer root divides by nothing).  By Gauss's lemma (b x - a is primitive) a/b is a
    root exactly when every step divides evenly and the remainder is 0, so the first inexact step or
    nonzero remainder ends it."""
    a, b = root.numerator, root.denominator
    while len(N) > 1:
        q, carry = [], 0
        for n in reversed(N):
            carry, rem = divmod(n + a * carry, b) if b > 1 else (n + a * carry, 0)
            if rem:
                break
            q.append(carry)
        if rem or carry:  # the last carry is the remainder over b
            break
        N = q[-2::-1]
    return N


def _sign_at(N, x: Fraction) -> int:
    """The sign of p(x) for the integer coefficients N of p: of b^n p(a/b) = sum N_i a^i b^(n-i), x = a/b."""
    acc, scale = 0, 1
    for n in reversed(N):
        acc, scale = acc * x.numerator + n * scale, scale * x.denominator
    return (acc > 0) - (acc < 0)


def _poly_divmod(a, b) -> tuple:
    """Quotient and remainder of the exact polynomial a by the nonzero b."""
    r, q = [Fraction(c) for c in a], []
    while len(r) >= len(b):
        q.append(r[-1] / b[-1])
        r = [c - q[-1] * d for c, d in zip(r, [0] * (len(r) - len(b)) + list(b))][:-1]
    return poly_trim(q[::-1]), poly_trim(r)


def _taylor_shift(coeffs, s) -> list:
    """The coefficients of p(x + s), by Horner's scheme from each coefficient down."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _descartes_bound(coeffs, lo: Fraction, hi: Fraction) -> int:
    """Sign variations of (1 + t)^n p((lo + hi t)/(1 + t)) L^n, L the common denominator of lo and hi: by
    Descartes' rule, the number of roots of p in (lo, hi) counted with multiplicity, plus an even number."""
    L, n = math.lcm(lo.denominator, hi.denominator), len(coeffs) - 1
    q, w = _taylor_shift([c * L ** (n - i) for i, c in enumerate(coeffs)], int(lo * L)), int(L * (hi - lo))
    signs = [c > 0 for c in _taylor_shift([c * w**i for i, c in enumerate(q)][::-1], 1) if c]  # roots in (0, inf)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sign_changes(coeffs, lo, hi, points=()) -> list[Fraction]:
    """The points in (lo, hi) where the exact polynomial p changes sign, increasing, each a Fraction within
    delta = 2^-40 (hi - lo) of its root; p's roots at lo, hi and `points` are divided out first.

    A float root x of np.roots is kept where p(x - delta) and p(x + delta) differ in sign, the brackets
    disjoint in [lo, hi]. If Descartes' rule bounds the roots in (lo, hi) by the number kept, each root
    there is simple and bracketed once. If not (close or multiple roots), the roots of the squarefree part
    p/gcd(p, p') are isolated on halved intervals by Descartes' rule (Collins & Akritas 1976), and each
    where p changes sign is bisected to width 2 delta. No float tolerance decides a root."""
    lo, hi, D = Fraction(lo), Fraction(hi), math.lcm(*(c.denominator for c in coeffs))
    N = [c.numerator * (D // c.denominator) for c in coeffs]
    for x in {*points, lo, hi}:
        N = _deflate(N, x)
    if len(N) < 2 or not (bound := _descartes_bound(N, lo, hi)):
        return []
    try:  # no float guesses when a coefficient over the leading one is beyond the float range
        reals = np.roots([c / N[-1] for c in N[::-1]]).real
    except OverflowError:
        reals = ()
    delta, guesses = (hi - lo) / 2**40, sorted({float(x) for x in reals if float(lo) <= x <= float(hi)})
    brackets = [(x - delta, x, x + delta) for x in map(Fraction, guesses)]
    kept = [(a, x, b) for a, x, b in brackets if lo <= a and b <= hi and _sign_at(N, a) * _sign_at(N, b) < 0]
    if len(kept) == bound and all(b <= a for (_, _, b), (a, _, _) in zip(kept, kept[1:])):
        return [x for _, x, _ in kept]
    g, h = N, poly_derivative(N)
    while h:
        g, h = h, _poly_divmod(g, h)[1]
    squarefree, out, stack = _poly_divmod(N, g)[0], [], [(lo, hi)]
    while stack:  # p is nonzero at lo, hi and every split point
        a, b = stack.pop()
        count = _descartes_bound(squarefree, a, b)
        if count > 1:
            m = (a + b) / 2
            while not poly_eval(squarefree, m):
                m = (a + m) / 2
            stack += [(a, m), (m, b)]
        elif count and (side := _sign_at(N, a)) != _sign_at(N, b):
            while b - a > 2 * delta:  # the one root stays in [a, b]
                m = (a + b) / 2
                sign = _sign_at(N, m)
                a, b = (m, b) if sign == side else (a, m) if sign else (m, m)
            out.append((a + b) / 2)
    return sorted(out)


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
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != max(len(self.breakpoints) - 1, 0):
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
        """p at b, or at each point of an array b: poly_eval at Fraction(b), rounded once; 0 off the support."""
        x = np.asarray(b, dtype=float)
        points = zip(x.ravel().tolist(), self._piece_index(x).ravel().tolist())
        out = np.array([float(poly_eval(self.pieces[i], Fraction(v))) if i >= 0 else 0.0 for v, i in points])
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def boundary_jumps(self) -> list[tuple]:
        """(location, jump) at each breakpoint; jump = right limit - left limit."""
        out = []
        n = len(self.pieces)
        for idx, bp in enumerate(self.breakpoints):
            left = poly_eval(self.pieces[idx - 1], bp) if idx > 0 else 0
            right = poly_eval(self.pieces[idx], bp) if idx < n else 0
            jump = right - left
            if jump != 0:
                out.append((bp, jump))
        return out

    def derivative_pieces(self) -> "PiecewisePolynomial":
        return PiecewisePolynomial(self.breakpoints, tuple(poly_derivative(p) for p in self.pieces))

    def abs_integral(self) -> float:
        """Exact integral of |p| over its support, each piece cut at its certified sign changes (each within
        delta = 2^-40 of the piece's length of its root; no float tolerance decides one). A cut within delta
        of its root moves the integral by at most 2 delta max|p| over its bracket."""
        total = 0.0
        for i, coeffs in enumerate(self.pieces):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            anti = poly_antiderivative(coeffs)
            values = [poly_eval(anti, x) for x in (lo, *_sign_changes(coeffs, lo, hi, self.breakpoints), hi)]
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
        object.__setattr__(self, "atoms", tuple((loc, m) for loc, m in self.atoms if m != 0))


def profile_derivative(q: DistributionalProfile) -> DistributionalProfile:
    """Distributional derivative: the piecewise derivative plus one atom per nonzero jump,
    sorted and distinct as the breakpoints are; an atom q already has becomes a delta derivative."""
    order = q.atom_derivative_order
    if q.atoms or order > 0:
        order += 1
    return DistributionalProfile(q.ac.derivative_pieces(), tuple(q.ac.boundary_jumps()), order)


def profile_l1(q: DistributionalProfile) -> float:
    """Total variation: integral of |ac| plus summed |atom masses|; inf past order 0."""
    if q.atom_derivative_order >= 1:
        return math.inf
    return q.ac.abs_integral() + sum(abs(float(m)) for _, m in q.atoms)
