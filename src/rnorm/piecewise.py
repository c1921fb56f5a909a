"""Exact piecewise-polynomial calculus with distributional (Dirac) bookkeeping.

Polynomials are coefficient lists in ascending powers.  A `PiecewisePolynomial`
reads every number exactly, a float as the shortest decimal that rounds to it, and
holds each piece as integer numerators over one denominator, so derivatives, jumps
and antiderivatives are exact and run on integers: Horner's rule on the numerators,
with a `Fraction` built only for a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from numbers import Rational
from operator import truediv

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


def _horner(N, a: int, b: int) -> int:
    """b^n N(a/b) = sum N_i a^i b^(n-i) for the integer coefficients N of degree n: Horner's rule on integers."""
    acc, scale = 0, 1
    for n in reversed(N):
        acc, scale = acc * a + n * scale, scale * b
    return acc


def _at(N, D: int, a: int, b: int) -> tuple[int, int]:
    """The polynomial N/D at a/b (b > 0) as a numerator over a positive denominator, (b^n N(a/b), D b^n)."""
    return _horner(N, a, b), D * b ** max(len(N) - 1, 0)


def _antiderivative_at(N, D: int, points) -> list[tuple[int, int]]:
    """The antiderivative of N/D that is 0 at 0, integer numerators over D lcm(1..n+1) for N of degree n, at each
    Fraction point by integer Horner, as (numerator, positive denominator) pairs."""
    L = math.lcm(*range(1, len(N) + 1))
    anti = (0, *(n * (L // (i + 1)) for i, n in enumerate(N)))
    return [_at(anti, D * L, x.numerator, x.denominator) for x in points]


def _sign_at(N, x: Fraction) -> int:
    """The sign of p(x) for the integer coefficients N of p."""
    acc = _horner(N, x.numerator, x.denominator)
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


def _sign_changes(N, lo, hi, points=()) -> list[Fraction]:
    """The points in (lo, hi) where the polynomial with integer coefficients N changes sign, increasing, each a
    Fraction within delta = 2^-40 (hi - lo) of its root; N's roots at lo, hi and `points` are divided out first.

    A float root x of np.roots is kept where p(x - delta) and p(x + delta) differ in sign, the brackets
    disjoint in [lo, hi]. If Descartes' rule bounds the roots in (lo, hi) by the number kept, each root
    there is simple and bracketed once. If not (close or multiple roots), the roots of the squarefree part
    p/gcd(p, p') are isolated on halved intervals by Descartes' rule (Collins & Akritas 1976), and each
    where p changes sign is bisected to width 2 delta. No float tolerance decides a root."""
    lo, hi = Fraction(lo), Fraction(hi)
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


class PiecewisePolynomial:
    """Piecewise polynomial on consecutive intervals between sorted breakpoints,
    identically zero outside [breakpoints[0], breakpoints[-1]].

    The breakpoints are Fractions.  Each piece is held once, as integer numerators N (ascending
    powers, no trailing zero) over one positive denominator D; the constructor is the one place
    that reads and checks that form.  `pieces` is the Fraction view N_i/D, built when read.
    """

    __slots__ = ("breakpoints", "_pieces")

    def __init__(self, breakpoints=(), pieces=()):
        bps = tuple(_as_exact(b) for b in breakpoints)
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != max(len(bps) - 1, 0):
            raise ValueError("need exactly one piece per breakpoint interval")
        held = []
        for p in pieces:
            c = poly_trim(tuple(x if type(x) is int else _as_exact(x) for x in p))
            D = math.lcm(*(x.denominator for x in c))
            held.append((tuple(x.numerator * (D // x.denominator) for x in c), D))
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "_pieces", tuple(held))

    @classmethod
    def _of(cls, breakpoints: tuple, pieces: tuple) -> "PiecewisePolynomial":
        """The polynomial of checked Fraction breakpoints and (N, D) pieces, taken as they are."""
        p = object.__new__(cls)
        object.__setattr__(p, "breakpoints", breakpoints)
        object.__setattr__(p, "_pieces", pieces)
        return p

    def __setattr__(self, name, value):
        raise AttributeError(f"PiecewisePolynomial is immutable; cannot set {name!r}")

    def __reduce__(self):
        return PiecewisePolynomial._of, (self.breakpoints, self._pieces)

    @property
    def pieces(self) -> tuple:
        """Each piece's coefficients as Fractions, ascending, with no trailing zero."""
        return tuple(tuple(Fraction(n, D) for n in N) for N, D in self._pieces)

    def __eq__(self, other):
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def __hash__(self):
        return hash((self.breakpoints, self.pieces))

    def __repr__(self):
        return f"PiecewisePolynomial(breakpoints={self.breakpoints!r}, pieces={self.pieces!r})"

    @staticmethod
    def zero() -> "PiecewisePolynomial":
        return PiecewisePolynomial((), ())

    @property
    def is_zero(self) -> bool:
        return all(not N for N, _ in self._pieces)

    def _piece_index(self, b) -> np.ndarray:
        """Index of the piece holding each b (right-open intervals, the last one
        closed); -1 outside the support, where the function is zero."""
        n = len(self._pieces)
        bps = np.array(self.breakpoints, dtype=float)
        i = np.searchsorted(bps, b, side="right") - 1
        inside = (i >= 0) & (np.searchsorted(bps, b, side="left") <= n)
        return np.where(inside, np.minimum(i, n - 1), -1)

    def __call__(self, b):
        """p at b, or at each point of an array b: exact at the float's binary value, rounded once; 0 off the
        support."""
        x = np.asarray(b, dtype=float)
        points = zip(x.ravel().tolist(), self._piece_index(x).ravel().tolist())
        out = np.array(
            [truediv(*_at(*self._pieces[i], *v.as_integer_ratio())) if i >= 0 else 0.0 for v, i in points]
        )
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

    def boundary_jumps(self) -> list[tuple]:
        """(location, jump) at each breakpoint where jump = right limit - left limit is nonzero, exact: each
        piece's two end values by integer Horner on its numerators, and one Fraction per nonzero jump."""
        bps, zero = self.breakpoints, (0, 1)
        ends = [(_at(N, D, lo.numerator, lo.denominator), _at(N, D, hi.numerator, hi.denominator))
                for lo, hi, (N, D) in zip(bps, bps[1:], self._pieces)]
        out = []
        for x, ((a, b), _), (_, (c, e)) in zip(bps, [*ends, (zero, zero)], [(zero, zero), *ends]):
            if jump := a * e - c * b:  # right limit a/b minus left limit c/e
                out.append((x, Fraction(jump, b * e)))
        return out

    def derivative_pieces(self) -> "PiecewisePolynomial":
        """The piecewise derivative: numerators (i + 1) N_(i+1) over the same denominators, not checked again."""
        return PiecewisePolynomial._of(
            self.breakpoints, tuple((tuple(i * n for i, n in enumerate(N) if i), D) for N, D in self._pieces)
        )

    def abs_integral(self) -> tuple[float, float]:
        """The integral of |p| over its support, and a bound on that float's error.

        Each piece N/D is cut at its certified sign changes, each within delta = 2^-40 of the piece's
        length of its root (no float tolerance decides one).  Its antiderivative, integer numerators over
        D lcm(1..n+1) for degree n, is evaluated by integer Horner at lo, the cuts and hi, and each
        |difference| is rounded once to a float.  A cut x within delta of its root r moves the integral by at
        most 2 |int_r^x p| <= delta^2 S'(t) for any t >= |x| + delta, where S(t) = sum |N_i| t^i / D, so that
        |p'| <= S'(t) on [-t, t]; the float sum adds at most one ulp of the total per term."""
        total, error, terms = 0.0, 0.0, 0
        for lo, hi, (N, D) in zip(self.breakpoints, self.breakpoints[1:], self._pieces):
            cuts = _sign_changes(N, lo, hi, self.breakpoints)
            values = _antiderivative_at(N, D, (lo, *cuts, hi))
            for (a, b), (c, e) in zip(values, values[1:]):
                total += abs((c * b - a * e) / (b * e))
            terms += len(cuts) + 1
            delta, slope = (hi - lo) / 2**40, [i * abs(n) for i, n in enumerate(N)][1:]
            for x in cuts:
                frac, exponent = math.frexp(float(abs(x) + delta))  # t >= |x| + delta with a 17-bit numerator
                t = math.ldexp(math.floor(math.ldexp(frac, 16)) + 2, exponent - 16)
                num, den = _at(slope, D, *t.as_integer_ratio())
                error += delta.numerator**2 * num / (delta.denominator**2 * den)
        return total, error + terms * math.ulp(total)


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


def profile_l1(q: DistributionalProfile) -> tuple[float, float | None]:
    """Total variation, the integral of |ac| plus summed |atom masses|, and a bound on its error
    (abs_integral's, plus one ulp of the total per atom); (inf, None) past order 0."""
    if q.atom_derivative_order >= 1:
        return math.inf, None
    integral, error = q.ac.abs_integral()
    total = integral + sum(abs(float(m)) for _, m in q.atoms)
    return total, error + len(q.atoms) * math.ulp(total)
