import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnorm.piecewise import (
    DistributionalProfile,
    _deflate,
    PiecewisePolynomial,
    poly_add,
    poly_antiderivative,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_trim,
    profile_derivative,
    profile_l1,
)
from rnorm.engine import rnorm_radial_odd
from rnorm.radon import RadialFunction, bump_poly

from oracles import deflate_two_pass, eval_exact, horner


def _bump_pw(k: int) -> PiecewisePolynomial:
    """(1 - b^2)^k on [-1, 1], exact coefficients."""
    base = (1, 0, -1)
    out = (Fraction(1),)
    for _ in range(k):
        out = poly_mul(out, base)
    return PiecewisePolynomial((-1, 1), (out,))


class TestPolyOps:
    def test_add_mul_eval(self):
        a = (1, 2)  # 1 + 2b
        b = (0, 0, 3)  # 3b^2
        assert poly_add(a, b) == (1, 2, 3)
        assert poly_mul(a, a) == (1, 4, 4)
        assert poly_eval(poly_mul(a, b), 2) == 5 * 12

    def test_derivative_antiderivative_inverse(self):
        p = (Fraction(5), Fraction(-3), Fraction(7), Fraction(2))
        q = poly_derivative(poly_antiderivative(p))
        assert q == p

    def test_scale_and_trim(self):
        assert poly_scale((1, 2, 0), 3) == (3, 6)
        assert poly_scale((1, 2), 0) == ()


class TestPiecewisePolynomial:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial((1, 1), ((1,),))

    def test_piece_count_checked(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial((0, 1, 2), ((1,),))

    @pytest.mark.parametrize("breakpoints", [(), (0,)])
    def test_pieces_need_breakpoints(self, breakpoints):
        with pytest.raises(ValueError, match="one piece per breakpoint interval"):
            PiecewisePolynomial(breakpoints, ((1,),))
        assert PiecewisePolynomial(breakpoints, ()).abs_integral() == 0.0

    def test_compact_evaluation(self):
        p = PiecewisePolynomial((0, 1), ((0, 1),))  # b on [0, 1]
        assert p(0.5) == 0.5
        assert p(2.0) == 0.0
        assert p(-1.0) == 0.0
        assert p(1.0) == 1.0
        assert eval_exact(PiecewisePolynomial((0, 1), ((1,),)), 1) == 1
        vals = p(np.array([0.25, 0.75, 3.0]))
        assert np.allclose(vals, [0.25, 0.75, 0.0])

    def test_array_evaluation_matches_pointwise_horner(self):
        def pointwise(p, x):
            bps = [float(b) for b in p.breakpoints]
            if not bps[0] <= x <= bps[-1]:
                return 0.0
            i = max(i for i in range(len(p.pieces)) if bps[i] <= x)
            return float(poly_eval(p.pieces[i], Fraction(x)))

        pieces = ((1, 2), (Fraction(1, 7), 0, -3), (), (Fraction(-5, 3), 1, 0, 2))
        bps = (-1, Fraction(1, 3), 1, 2, Fraction(7, 2))
        for p in (PiecewisePolynomial(bps, pieces), _bump_pw(3)):
            edges = [float(b) for b in p.breakpoints]
            xs = np.concatenate([edges, np.linspace(edges[0] - 2.0, edges[-1] + 2.0, 97)])
            expected = [pointwise(p, x) for x in xs]
            assert p(xs).tolist() == expected
            assert p(xs[:, None]).tolist() == [[e] for e in expected]
            for x in (xs[0], np.float64(edges[0] - 1.0), np.array(edges[-1] + 1.0)):
                value = p(x)
                assert type(value) is float and value == pointwise(p, float(x))

    @pytest.mark.parametrize("b", [0.9, 0.6])
    def test_high_degree_evaluation_is_exact(self, b):
        # at these points a float Horner sum of the degree-160 coefficients cancels to noise
        assert bump_poly(80)(b) == pytest.approx((1.0 - b * b) ** 80, rel=1e-12)
        assert bump_poly(80)(np.array([b]))[0] == bump_poly(80)(b)

    def test_exact_evaluation_keeps_fractions(self):
        p = _bump_pw(3)
        val = eval_exact(p, Fraction(1, 2))
        assert val == Fraction(27, 64)

    def test_abs_integral_with_sign_change(self):
        # |60 b^2 - 12| on [0, 1] = 8 + 16/sqrt(5) exactly
        p = PiecewisePolynomial((0, 1), ((-12, 0, 60),))
        expected = 8.0 + 16.0 / math.sqrt(5.0)
        assert p.abs_integral() == pytest.approx(expected, rel=1e-12)

    def test_abs_integral_matches_quadrature(self):
        p = PiecewisePolynomial((0, 1), ((-12, 0, 60),))
        xs = np.linspace(0.0, 1.0, 1_000_001)
        quad = np.trapezoid(np.abs(-12.0 + 60.0 * xs**2), xs)
        assert p.abs_integral() == pytest.approx(quad, rel=1e-8)


class TestExactInputs:
    """A PiecewisePolynomial holds Fractions only; a float is read as its shortest decimal."""

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("k", [10, 30, 45, 50])
    def test_float_coefficients_give_the_fraction_report(self, d, k):
        # every coefficient is an integer below 2^53; a float calculus read d=5, k=10 and d=3, k=50
        # as infinite, and d=3, k=45 2.9% high
        exact = bump_poly(k)
        floats = PiecewisePolynomial((0.0, 1.0), (tuple(float(c) for c in exact.pieces[0]),))
        assert floats == exact
        got, want = (rnorm_radial_odd(RadialFunction(d, p)).to_dict() for p in (floats, exact))
        assert got == want

    def test_a_float_reads_as_its_decimal(self):
        p = PiecewisePolynomial((0, 0.1), ((1.0, 0, -200.0, 0, 10000.0),))
        assert p == bump_poly(2, dilation=Fraction(1, 10))
        assert rnorm_radial_odd(RadialFunction(3, p)).value == 463.10835055998655

    def test_breakpoints_are_compared_exactly(self):
        p = PiecewisePolynomial((0, 1e-13, 1), ((1,), (2,)))
        assert p.breakpoints == (0, Fraction(1, 10**13), 1)
        assert p.boundary_jumps() == [(0, 1), (Fraction(1, 10**13), 1), (1, -2)]


def _decimal(x) -> Fraction:
    """The exact value a number stands for: an integer or Fraction itself, a float its shortest decimal."""
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return x if isinstance(x, Fraction) else Fraction(repr(float(x)))


_NUMBERS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(max_denominator=10**4),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6).map(np.float64),
    st.integers(min_value=-10**6, max_value=10**6).map(np.int64),
)


@given(st.lists(_NUMBERS, min_size=2, max_size=4, unique_by=_decimal), st.lists(_NUMBERS, max_size=6))
@settings(max_examples=100, deadline=None)
def test_stored_numbers_are_fractions(breakpoints, coeffs):
    breakpoints = sorted(breakpoints, key=_decimal)
    p = PiecewisePolynomial(breakpoints, (tuple(coeffs),) * (len(breakpoints) - 1))
    stored = p.breakpoints + sum(p.pieces, ())
    # a numpy integer inside a Fraction overflows in comparisons, so the parts must be Python ints
    assert all(type(x) is Fraction and type(x.numerator) is int for x in stored)
    assert p.breakpoints == tuple(map(_decimal, breakpoints))
    assert all(piece == poly_trim(tuple(map(_decimal, coeffs))) for piece in p.pieces)


class TestDistributionalCalculus:
    def test_cubic_bump_fourth_derivative_atoms(self):
        # (1-b^2)^3 is C^2 at +/-1; the third derivative 72b - 120b^3 jumps by
        # +48 at both endpoints, so the fourth derivative carries mass-48 atoms.
        profile = profile_derivative(
            DistributionalProfile(_bump_pw(3).derivative_pieces().derivative_pieces().derivative_pieces())
        )
        assert profile.atom_derivative_order == 0
        assert len(profile.atoms) == 2
        locs = sorted(float(l) for l, _ in profile.atoms)
        masses = [float(m) for _, m in sorted(profile.atoms, key=lambda a: float(a[0]))]
        assert locs == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert masses == pytest.approx([48.0, 48.0], rel=1e-12)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_atom_order_offsets(self, k):
        # (1-b^2)^k: atoms first appear at the (k+1)-th derivative (order 0,
        # finite total variation); one more derivative differentiates the
        # atoms themselves (order >= 1, infinite total variation).
        profile = profile_derivative(DistributionalProfile(_bump_pw(k)))
        for _ in range(k):
            profile = profile_derivative(profile)
        assert profile.atoms and profile.atom_derivative_order == 0
        assert math.isfinite(profile_l1(profile))
        beyond = profile_derivative(profile)
        assert beyond.atom_derivative_order >= 1
        assert math.isinf(profile_l1(beyond))

    def test_smooth_interior_breakpoint_makes_no_atom(self):
        p = PiecewisePolynomial((-1, 0, 1), ((0, 1), (0, 1)))  # b with a redundant break
        derivative = profile_derivative(DistributionalProfile(p))
        assert derivative.ac(0.3) == 1.0
        interior = [a for a in derivative.atoms if abs(float(a[0])) < 0.5]
        assert interior == []

    def test_profile_l1_adds_atom_masses(self):
        q = DistributionalProfile(PiecewisePolynomial((0, 1), ((1,),)), atoms=((0.5, -2.0),))
        assert profile_l1(q) == pytest.approx(3.0, rel=1e-15)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_abs_integral_dominates_signed_integral(coeffs):
    p = PiecewisePolynomial((0, 1), (tuple(coeffs),))
    anti = poly_antiderivative(tuple(coeffs))
    signed = float(poly_eval(anti, 1)) - float(poly_eval(anti, 0))
    assert p.abs_integral() + 1e-12 >= abs(signed)


# mostly zeros, as in a profile of an even bump: ints and Fractions mixed, zeros of both types
_SPARSE = st.one_of(
    st.sampled_from([0, Fraction(0)]),
    st.sampled_from([0, Fraction(0)]),
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@given(
    st.lists(_SPARSE, max_size=9),
    st.lists(_SPARSE, max_size=9),
    st.integers(min_value=0, max_value=5),
    _SPARSE,
    st.fractions(min_value=-2, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_poly_ring_identities(a, b, shift, s, x):
    a, b = tuple(a), tuple(b)
    for p in (poly_add(a, b), poly_mul(a, b), poly_scale(a, s), poly_derivative(a)):
        assert p == poly_trim(p)
    assert poly_eval(poly_add(a, b), x) == horner(a, x) + horner(b, x)
    assert poly_eval(poly_mul(a, b), x) == horner(a, x) * horner(b, x)
    assert poly_eval(poly_scale(a, s), x) == horner(a, x) * s
    assert poly_eval(poly_derivative(a), x) == horner(tuple(i * c for i, c in enumerate(a))[1:], x)
    # a product by the monomial x^shift is a shift
    assert poly_mul(a, (0,) * shift + (1,)) == poly_trim((0,) * shift + a if poly_trim(a) else ())


@given(
    st.lists(_SPARSE, max_size=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.integers(min_value=0, max_value=5),
)
@example([1, 1], Fraction(-1), 5)  # the cofactor (1 + x) has the root too
@example([Fraction(1, 3), 0, -3], Fraction(1, 3), 2)
@example([2, 0, 0], Fraction(0), 3)
@settings(max_examples=200, deadline=None)
def test_deflate_divides_out_a_planted_rational_root(cofactor, root, multiplicity):
    cofactor = poly_trim(cofactor)
    p = cofactor
    for _ in range(multiplicity):
        p = poly_mul(p, (-root, 1))
    got = _deflate(p, root)
    assert got == deflate_two_pass(p, root)
    if cofactor and horner(cofactor, root) != 0:
        assert got == cofactor  # stops at the first power that leaves a non-root
    assert _deflate(got, root) == got


_RATIONALS = st.one_of(st.integers(min_value=-10**6, max_value=10**6), st.fractions(max_denominator=10**4))


@given(
    st.lists(_RATIONALS, max_size=9),
    st.booleans(),
    st.lists(st.sampled_from([0, Fraction(0)]), max_size=3),
    _RATIONALS,
)
@example([], False, [], Fraction(3, 7))
@example([], False, [], 0)
@example([1, 2, 3], True, [], 0)
@example([Fraction(1, 3), 2], False, [0, Fraction(0)], 0)
@example([5, -4], True, [0], Fraction(-2, 9))
@example([5, -4], True, [Fraction(0)], -3)
@example([Fraction(5, 2), 4], False, [], -3)
@settings(max_examples=300, deadline=None)
def test_poly_eval_equals_fraction_horner_exactly(coeffs, ints_only, trailing_zeros, x):
    """The integer evaluation at rational points gives the Fraction loop's value and type."""
    coeffs = tuple([int(c) for c in coeffs] if ints_only else coeffs) + tuple(trailing_zeros)
    got, want = poly_eval(coeffs, x), horner(coeffs, x)
    assert got == want and type(got) is type(want)
