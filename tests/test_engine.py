import math
from fractions import Fraction

import numpy as np
import pytest

from rnorm import (
    FiniteReluNet,
    RadialFunction,
    RNormReport,
    bump_poly,
    grad_at_infinity,
    grad_at_infinity_estimate,
    laplacian_lower_bound,
    rbar_bounds,
    rnorm_finite_net,
    rnorm_grid_2d,
    rnorm_radial_odd,
    sample_grid,
    sobolev_upper_bound_2d,
)
from rnorm.engine import _exp_bump_factors, _exp_bump_term
from rnorm.piecewise import PiecewisePolynomial
from rnorm.radon import UnsupportedDimensionError

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


class TestFiniteNet:
    def test_norm_sums_absolute_weights(self):
        net = FiniteReluNet(2, ((2.0, _unit(0.3), 0.5), (-1.0, _unit(1.1), -0.2)))
        assert rnorm_finite_net(net).value == pytest.approx(3.0, rel=1e-15)

    def test_cancelling_units_give_zero(self):
        net = FiniteReluNet(2, ((1.0, E1, 0.25), (-1.0, E1, 0.25)))
        assert rnorm_finite_net(net).value == 0.0

    def test_planted_three_unit_norm(self):
        net = FiniteReluNet(
            2, ((2.0, _unit(0.1), 0.4), (-1.0, _unit(2.0), -0.3), (0.5, _unit(4.0), 0.1))
        )
        assert rnorm_finite_net(net).value == pytest.approx(3.5, rel=1e-15)

    def test_affine_part_is_free(self):
        net = FiniteReluNet(2, (), v=np.array([3.0, -4.0]), c=7.0)
        assert rnorm_finite_net(net).value == 0.0

    def test_absolute_homogeneity(self):
        units = ((1.0, _unit(0.7), 0.2), (0.5, _unit(2.4), -0.8))
        base = rnorm_finite_net(FiniteReluNet(2, units)).value
        scaled = rnorm_finite_net(
            FiniteReluNet(2, tuple((-3.0 * a, w, b) for a, w, b in units))
        ).value
        assert scaled == pytest.approx(3.0 * base, rel=1e-14)

    def test_antipodal_units_merge_in_even_measure(self):
        # [x]_+ + [-x]_+ = |x|: both units share the even measure of |x|.
        net = FiniteReluNet(2, ((1.0, E1, 0.0), (1.0, -E1, 0.0)))
        rep = rnorm_finite_net(net)
        assert rep.value == pytest.approx(2.0, rel=1e-15)
        assert len(rep.diagnostics["atoms"]) == 2

    def test_evaluation(self):
        net = FiniteReluNet(2, ((1.0, E1, 0.0),), v=E2, c=1.0)
        X = np.array([[2.0, 3.0], [-2.0, 3.0]])
        assert np.allclose(net(X), [6.0, 4.0])

    def test_array_evaluation_and_gradient_match_per_unit_loops(self):
        rng = np.random.default_rng(3)
        th = rng.uniform(0.0, 2.0 * math.pi, 200)
        units = tuple(zip(rng.standard_normal(200), map(_unit, th), rng.uniform(-1.0, 1.0, 200)))
        net = FiniteReluNet(2, units, v=np.array([0.3, -0.2]), c=0.7)
        X = rng.uniform(-2.0, 2.0, (50, 2))
        value = X @ net.v + net.c
        grad = np.array(net.v)
        for a, w, b in units:
            value = value + a * np.maximum(X @ w - b, 0.0)
            grad = grad + 0.5 * a * w
        assert np.allclose(net(X), value, rtol=1e-12, atol=0)
        assert np.allclose(grad_at_infinity(net), grad, rtol=1e-12, atol=0)

    def test_units_are_kept_as_read_only_arrays(self):
        units = ((2.0, _unit(0.3), 0.5), (-1.0, _unit(1.1), -0.2))
        net = FiniteReluNet(2, units)
        assert net.W.shape == (2, 2) and not net.W.flags.writeable
        assert np.array_equal(net.a, [2.0, -1.0]) and not net.a.flags.writeable
        assert np.array_equal(net.W, [_unit(0.3), _unit(1.1)])
        assert np.array_equal(net.b, [0.5, -0.2]) and not net.b.flags.writeable
        with pytest.raises(ValueError):
            FiniteReluNet(3, units)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            FiniteReluNet(2, ((1.0, np.array([1.0, 1.0]), 0.0),))


class TestReport:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            RNormReport(-1.0, "x")

    def test_infinite_value_has_no_error_estimate(self):
        with pytest.raises(ValueError):
            RNormReport(math.inf, "x", error_estimate=0.1)
        rep = RNormReport(math.inf, "x")
        assert rep.is_infinite
        assert rep.to_dict()["value"] == "infinite"


class TestRadial:
    def test_dimension_validation(self):
        for d in (2, 4):
            with pytest.raises(UnsupportedDimensionError):
                rnorm_radial_odd(RadialFunction(d, bump_poly(3)))
        with pytest.raises(UnsupportedDimensionError):
            rnorm_radial_odd(RadialFunction(5, kind="exp-bump"))

    def test_smooth_bump_d3_is_finite(self):
        rep = rnorm_radial_odd(RadialFunction(3, kind="exp-bump"))
        # 2 int_0^1 |(b g)'''| db by mpmath at 30 digits, with the integral split
        # at the two sign changes of (b g)''' in (0, 1)
        assert rep.value == pytest.approx(35.14363099909819309, rel=1e-12, abs=0.0)
        assert rep.error_estimate is not None and rep.error_estimate <= 1e-9 * rep.value

    def test_exp_bump_derivatives_match_central_differences(self):
        Q = _exp_bump_factors(4)
        assert Q[1] == (0, -2)
        r, h = np.array([0.1, 0.3, 0.5, 0.7, 0.85]), 1e-5
        previous = RadialFunction(3, kind="exp-bump").profile_values
        for k in range(1, 5):
            exact = _exp_bump_term(Q[k], 2 * k)(r)
            central = (previous(r + h) - previous(r - h)) / (2.0 * h)
            assert np.max(np.abs(central - exact)) <= 1e-6 * np.max(np.abs(exact))
            previous = _exp_bump_term(Q[k], 2 * k)

    def test_infinite_case_reports_diagnostics(self):
        rep = rnorm_radial_odd(RadialFunction(5, bump_poly(1)))
        assert rep.is_infinite
        assert rep.diagnostics["atom_derivative_order"] >= 1


class TestBounds:
    def test_sandwich_from_gap_example(self):
        b = rbar_bounds(2.0, np.array([0.0, 1.0]))
        assert b.lower == pytest.approx(2.0)
        assert b.upper == pytest.approx(4.0)

    def test_tight_when_gradient_vanishes(self):
        b = rbar_bounds(5.0, np.zeros(2))
        assert b.lower == b.upper == 5.0

    def test_large_gradient_raises_lower_bound(self):
        b = rbar_bounds(1.0, np.array([3.0, 4.0]))
        assert b.lower == pytest.approx(10.0)
        assert b.upper == pytest.approx(11.0)

    def test_infinite_norm_rejected(self):
        with pytest.raises(ValueError):
            rbar_bounds(math.inf, np.zeros(2))


class TestGradientAtInfinity:
    def test_finite_net_closed_form(self):
        net = FiniteReluNet(2, ((1.0, E1, 0.0), (1.0, -E1, 0.0)), v=E2)
        assert np.allclose(grad_at_infinity(net), [0.0, 1.0], atol=1e-15)

    def test_sampled_estimator_on_callable(self):
        func = lambda X: np.abs(X[:, 0]) + X[:, 1]
        est, converged = grad_at_infinity_estimate(func)
        assert converged
        assert np.allclose(est, [0.0, 1.0], atol=1e-2)

    def test_sampled_estimator_on_compact_function(self):
        from rnorm import pyramid_pwl

        est, converged = grad_at_infinity_estimate(lambda X: pyramid_pwl(X[:, 0], X[:, 1]))
        assert converged
        assert np.linalg.norm(est) <= 1e-6


class TestLaplacianBound:
    def test_radial_closed_form_at_origin(self):
        # g = (1-r^2)^k: |Delta f|(0) = d * |g''(0)| = 2 d k.
        assert laplacian_lower_bound(RadialFunction(3, bump_poly(4))) == pytest.approx(24.0, rel=1e-12)

    def test_exp_bump(self):
        for d, expected in ((3, 7.124493853053047), (5, 6.564245746800119)):
            assert laplacian_lower_bound(RadialFunction(d, kind="exp-bump")) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_cone_at_origin_is_unbounded(self, d, radius):
        # (radius - r)_+ : Delta f ~ -(d-1)/r near the origin
        cone = PiecewisePolynomial((0, radius), ((radius, -1),))
        assert laplacian_lower_bound(RadialFunction(d, cone)) == math.inf

    def test_zero_and_shell_profiles(self):
        assert laplacian_lower_bound(RadialFunction(3, PiecewisePolynomial.zero())) == 0.0
        # g = 1 - r on [1/3, 3/2]: the sampled |g'' + (d-1) g'/r| = 2/r peaks at r = 1/3
        shell = PiecewisePolynomial((Fraction(1, 3), Fraction(3, 2)), ((1, -1),))
        assert laplacian_lower_bound(RadialFunction(3, shell)) == pytest.approx(6.0, rel=1e-3)

    def test_grid_gaussian(self, gaussian_256):
        # max |Delta e^{-r^2/2}| = 2 at the origin.
        assert laplacian_lower_bound(gaussian_256) == pytest.approx(2.0, rel=0.02)

    def test_bounds_bracket_grid_value(self, gaussian_256):
        rep = rnorm_grid_2d(gaussian_256, K=64, J=129)
        assert laplacian_lower_bound(gaussian_256) <= rep.value <= sobolev_upper_bound_2d(gaussian_256)
