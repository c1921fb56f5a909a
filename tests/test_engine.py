import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnorm import (
    DistributionalProfile,
    FiniteReluNet,
    RadialFunction,
    RNormReport,
    bump_poly,
    grad_at_infinity,
    laplacian_lower_bound,
    profile_derivative,
    profile_l1,
    radial_radon_profile,
    rbar_bounds,
    rnorm_finite_net,
    rnorm_grid_2d,
    rnorm_radial_odd,
    sample_grid,
    sobolev_upper_bound_2d,
    sphere_area,
)
import rnorm.engine
from rnorm.analysis import pyramid_pwl
from rnorm.engine import _exp_bump_factors, _exp_bump_term
from rnorm.piecewise import PiecewisePolynomial, poly_antiderivative, poly_eval, poly_mul
from rnorm.radon import UnsupportedDimensionError

from oracles import bump_poly_d3_rnorm, exp_bump_laplacian_max, grid_axis, horner

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


class TestFiniteNet:
    def test_norm_sums_absolute_weights(self):
        net = FiniteReluNet(2, ((2.0, _unit(0.3), 0.5), (-1.0, _unit(1.1), -0.2)))
        assert rnorm_finite_net(net).value == pytest.approx(3.0, rel=1e-15)

    def test_cancelling_units_give_zero(self):
        # the second net is [x]_+ - [-x]_+ = x: even_part's (-w, -b) of b = 0 holds -0.0
        for units in (((1.0, E1, 0.25), (-1.0, E1, 0.25)), ((1.0, E1, 0.0), (-1.0, -E1, 0.0))):
            assert rnorm_finite_net(FiniteReluNet(2, units)).value == 0.0

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

    @pytest.mark.parametrize(
        "units, expected",
        [
            (((1.0, 0.0), (-1.0, 0.9e-9)), 2.0),
            (((1.0, 0.0), (-1.0, 1.8e-9)), 2.0),
            (((1.0, 0.0), (0.0, 0.9e-9), (-1.0, 1.8e-9)), 2.0),
            (tuple(((-1.0) ** i, i * 0.5e-9) for i in range(1000)), 1000.0),
        ],
        ids=["pair", "wider-pair", "pair-and-zero-unit", "1000-alternating"],
    )
    def test_nearby_units_keep_their_weights(self, units, expected):
        # units (a, E1, b) a few 1e-9 apart in b: f is not affine, so no weight cancels
        # (a chained 1e-9 merge tolerance read 0, 2, 0 and 0)
        net = FiniteReluNet(2, tuple((a, E1, b) for a, b in units))
        assert rnorm_finite_net(net).value == expected

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
        for w in ([1.0, 1.0], [math.nan, 0.0]):
            with pytest.raises(ValueError):
                FiniteReluNet(2, ((1.0, np.array(w), 0.0),))

    def test_non_finite_parameters_rejected(self):
        for a, b, v, c in ((math.inf, 0.0, None, 0.0), (1.0, math.nan, None, 0.0),
                           (1.0, 0.0, [math.inf, 0.0], 0.0), (1.0, 0.0, None, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                FiniteReluNet(2, ((a, E1, b),), v=v, c=c)

    def test_linear_part_of_wrong_shape_rejected(self):
        for v in ([1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match=r"^net linear part v must have shape \(2,\), got"):
                FiniteReluNet(2, ((1.0, E1, 0.0),), v=v)


# few directions and offsets, so units often coincide; quarter weights add exactly in any order
_UNITS = st.tuples(
    st.integers(-12, 12).map(lambda n: n / 4.0),
    st.integers(0, 7),
    st.one_of(st.sampled_from([0.0, -0.0, 0.5, 0.5 + 1e-12, 1e-9]), st.floats(-1, 1)),
)


@given(st.lists(_UNITS, max_size=6), _UNITS, st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_a_zero_weight_unit_never_changes_the_finite_net_norm(units, extra, at):
    def net(units):
        return FiniteReluNet(2, tuple((a, _unit(math.pi * k / 4), b) for a, k, b in units))

    base = rnorm_finite_net(net(units))
    got = rnorm_finite_net(net(units[:at] + [(0.0,) + extra[1:]] + units[at:]))
    assert got.value == base.value
    assert sorted(got.diagnostics["atoms"]) == sorted(base.diagnostics["atoms"])


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


# |S^(d-1)| / |S^(d-2)|, rational in odd d
AREA_RATIO = {3: Fraction(2), 5: Fraction(4, 3), 7: Fraction(16, 15), 9: Fraction(32, 35)}


def _kappa(d: int) -> Fraction:
    """(-1)^((d-1)/2) (d-2)! |S^(d-1)|/|S^(d-2)|: -2, 8, -128 and 4608 for d = 3, 5, 7 and 9."""
    return (-1) ** ((d - 1) // 2) * math.factorial(d - 2) * AREA_RATIO[d]


def _sphere_average(p: PiecewisePolynomial, d: int, r: Fraction) -> Fraction:
    """(1/r) int_{-r}^{r} p(t) (1 - t^2/r^2)^((d-3)/2) dt, exactly: p(w.x) averaged over w in
    S^(d-1) at |x| = r, up to the factor |S^(d-2)|."""
    weight = (Fraction(1),)
    for _ in range((d - 3) // 2):
        weight = poly_mul(weight, (1, 0, -1 / r**2))
    total = Fraction(0)
    for lo, hi, piece in zip(p.breakpoints, p.breakpoints[1:], p.pieces):
        lo, hi = max(lo, -r), min(hi, r)
        if lo < hi:
            anti = poly_antiderivative(poly_mul(piece, weight))
            total += poly_eval(anti, hi) - poly_eval(anti, lo)
    return total / r


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
        previous = _exp_bump_term((1,), 0)
        for k in range(1, 5):
            exact = _exp_bump_term(Q[k], 2 * k)(r)
            central = (previous(r + h) - previous(r - h)) / (2.0 * h)
            assert np.max(np.abs(central - exact)) <= 1e-6 * np.max(np.abs(exact))
            previous = _exp_bump_term(Q[k], 2 * k)

    @pytest.mark.parametrize("k", [50, 80, 400, 1000])
    def test_high_degree_bump_matches_the_dense_quadrature(self, k):
        # a float Horner sum at the float roots read 103.53 for k=50 and 2.4e11 for k=80; with
        # the roots of multiplicity near k at +-1 left in, the float roots read 156.31 for k=400
        value = rnorm_radial_odd(RadialFunction(3, bump_poly(k))).value
        assert value == pytest.approx(bump_poly_d3_rnorm(k), rel=1e-8)

    @pytest.mark.parametrize("eps", [1, Fraction(7, 5)])
    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_the_measure_reproduces_the_profile(self, d, eps):
        """The measure rho^(d+1)(b) db / (kappa_d |S^(d-2)|) on S^(d-1) x R, pushed through the
        ReLU superposition, is g at every radius up to a constant: since int [s - b]_+ rho^(d+1)(b) db
        is rho^(d-1)(s), its sphere average at radius r is (1/r) int rho^(d-1)(t) (1-t^2/r^2)^((d-3)/2) dt
        over [-r, r] times |S^(d-2)|.  Its total variation is the engine's value."""
        assert float(AREA_RATIO[d]) == pytest.approx(sphere_area(d) / sphere_area(d - 1), rel=1e-14)
        for k in range((d + 1) // 2, (d + 5) // 2 + 1):
            g = bump_poly(k, dilation=eps)
            profile = DistributionalProfile(radial_radon_profile(RadialFunction(d, g)))
            for _ in range(d - 1):
                profile = profile_derivative(profile)
            assert not profile.atoms and profile.atom_derivative_order == 0
            r0 = Fraction(1, 5) * eps
            for r in (Fraction(1, 2) * eps, Fraction(3, 4) * eps, Fraction(9, 10) * eps):
                change = _sphere_average(profile.ac, d, r) - _sphere_average(profile.ac, d, r0)
                assert change == _kappa(d) * (poly_eval(g.pieces[0], r) - poly_eval(g.pieces[0], r0)), (k, r)
            profile = profile_derivative(profile_derivative(profile))
            total_variation = Fraction(profile_l1(profile)) * AREA_RATIO[d] / abs(_kappa(d))
            assert rnorm_radial_odd(RadialFunction(d, g)).value == float(total_variation), k

    def test_infinite_case_reports_diagnostics(self):
        rep = rnorm_radial_odd(RadialFunction(5, bump_poly(1)))
        assert rep.is_infinite
        assert rep.diagnostics["atom_derivative_order"] >= 1

    def test_report_is_the_same_under_the_fraction_horner_oracle(self, monkeypatch):
        """Integer evaluation at rational points changes no value, atom or derivative order,
        on finite and infinite norms alike."""
        dilations = (1, Fraction(7, 5), Fraction(3, 11))
        cases = [(d, k, eps) for d in (3, 5, 7, 9) for k in range(1, 8) for eps in dilations]

        def reports():
            return [rnorm_radial_odd(RadialFunction(d, bump_poly(k, dilation=eps))) for d, k, eps in cases]

        production = reports()
        for module in ("rnorm.piecewise", "rnorm.radon", "rnorm.engine"):
            monkeypatch.setattr(f"{module}.poly_eval", horner)
        oracle = reports()
        assert any(r.is_infinite for r in production) and not all(r.is_infinite for r in production)
        for case, got, want in zip(cases, production, oracle):
            assert got.value == want.value, case
            assert got.diagnostics["atoms"] == want.diagnostics["atoms"], case
            assert got.diagnostics["atom_derivative_order"] == want.diagnostics["atom_derivative_order"], case


class TestBounds:
    def test_sandwich_from_gap_example(self):
        lower, upper = rbar_bounds(2.0, np.array([0.0, 1.0]))
        assert lower == pytest.approx(2.0)
        assert upper == pytest.approx(4.0)

    def test_tight_when_gradient_vanishes(self):
        assert rbar_bounds(5.0, np.zeros(2)) == (5.0, 5.0)

    def test_large_gradient_raises_lower_bound(self):
        lower, upper = rbar_bounds(1.0, np.array([3.0, 4.0]))
        assert lower == pytest.approx(10.0)
        assert upper == pytest.approx(11.0)

    def test_infinite_norm_rejected(self):
        with pytest.raises(ValueError):
            rbar_bounds(math.inf, np.zeros(2))
        with pytest.raises(ValueError):
            rbar_bounds(1.0, np.array([math.nan, 0.0]))


class TestGradientAtInfinity:
    def test_finite_net_closed_form(self):
        net = FiniteReluNet(2, ((1.0, E1, 0.0), (1.0, -E1, 0.0)), v=E2)
        assert np.allclose(grad_at_infinity(net), [0.0, 1.0], atol=1e-15)


class TestLaplacianBound:
    def test_radial_closed_form_at_origin(self):
        # g = (1-r^2)^k: |Delta f|(0) = d * |g''(0)| = 2 d k.  At k >= 80 a float Horner
        # sum at the float critical points read up to 5.6e19; at k = 1000 the critical
        # polynomial's coefficients overflowed a float before its roots at +-1 were divided out
        for d, k in [(3, 4), (3, 80), (3, 120), (5, 80), (5, 120), (3, 400), (3, 1000), (5, 400), (5, 1000)]:
            bound = laplacian_lower_bound(RadialFunction(d, bump_poly(k)))
            assert bound == pytest.approx(2 * d * k, rel=1e-12), (d, k)

    def test_exp_bump(self):
        # the oracle gives 7.1244950673416... at d=3 and 6.5642459377566... at d=5
        for d in (3, 5):
            expected = exp_bump_laplacian_max(d)
            assert laplacian_lower_bound(RadialFunction(d, kind="exp-bump")) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_cone_at_origin_is_unbounded(self, d, radius):
        # (radius - r)_+ : Delta f ~ -(d-1)/r near the origin
        cone = PiecewisePolynomial((0, radius), ((radius, -1),))
        assert laplacian_lower_bound(RadialFunction(d, cone)) == math.inf

    def test_zero_and_shell_profiles(self):
        assert laplacian_lower_bound(RadialFunction(3, PiecewisePolynomial.zero())) == 0.0
        # g = 1 - r on [1/3, 3/2]: |g'' + (d-1) g'/r| = 2/r peaks at r = 1/3
        shell = PiecewisePolynomial((Fraction(1, 3), Fraction(3, 2)), ((1, -1),))
        assert laplacian_lower_bound(RadialFunction(3, shell)) == 6.0

    def test_radial_bound_is_the_dense_sampling_max(self):
        # random profiles of 1-3 pieces, g'(0) = 0 where the support starts at 0
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = int(rng.integers(1, 4))
            start = 0 if trial % 2 else Fraction(int(rng.integers(1, 5)), 4)
            bps = [start] + [start + Fraction(int(k), 4) for k in np.cumsum(rng.integers(1, 5, n))]
            pieces = []
            for _ in range(n):
                coeffs = [float(c) for c in rng.uniform(-2.0, 2.0, int(rng.integers(1, 6)))]
                pieces.append([Fraction(c).limit_denominator(64) for c in coeffs] if trial % 3 else coeffs)
            if start == 0 and len(pieces[0]) > 1:
                pieces[0][1] = 0
            d = int(rng.choice([3, 5, 7]))
            dense = 0.0
            for lo, hi, piece in zip(bps, bps[1:], pieces):
                g1 = np.polynomial.Polynomial([float(c) for c in piece]).deriv()
                r = np.linspace(float(lo), float(hi), 200_001)[1 if lo == 0 else 0:]
                dense = max(dense, float(np.abs(g1.deriv()(r) + (d - 1) * g1(r) / r).max()))
            bound = laplacian_lower_bound(RadialFunction(d, PiecewisePolynomial(tuple(bps), tuple(pieces))))
            # float rounding in the dense samples may top the exact max by an ulp or so
            assert dense <= bound * (1.0 + 1e-12)
            assert bound - dense <= 1e-9 * max(1.0, bound)

    def test_exact_workload_profiles_sample_nothing(self, monkeypatch):
        # the exact benchmark's profiles: (1-(r/eps)^2)^((d+5)/2), eps = p/q with 3 <= p, q <= 12
        import tracemalloc

        calls = []
        evaluate = PiecewisePolynomial.__call__
        monkeypatch.setattr(PiecewisePolynomial, "__call__", lambda g, b: calls.append(None) or evaluate(g, b))
        profiles = [
            (d, eps, RadialFunction(d, bump_poly((d + 5) // 2, dilation=eps)))
            for eps in sorted({Fraction(p, q) for p in range(3, 13) for q in range(3, 13)})
            for d in (3, 5)
        ]
        laplacian_lower_bound(profiles[0][2])  # lazy imports happen before the trace
        peak, bounds = 0, []
        tracemalloc.start()
        try:
            for d, eps, f in profiles:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                bounds.append(laplacian_lower_bound(f))
                peak = max(peak, tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 64 * 1024
        # d(d+5)/eps^2 = d |g''(0)|, rounded once
        assert bounds == [float(Fraction(d * (d + 5)) / eps**2) for d, eps, _ in profiles]

    def test_grid_gaussian(self, gaussian_256):
        # max |Delta e^{-r^2/2}| = 2 at the origin.
        assert laplacian_lower_bound(gaussian_256) == pytest.approx(2.0, rel=0.02)

    def test_bounds_bracket_grid_value(self, gaussian_256):
        rep = rnorm_grid_2d(gaussian_256, K=64, J=129)
        assert laplacian_lower_bound(gaussian_256) <= rep.value <= sobolev_upper_bound_2d(gaussian_256)


class TestGrid:
    @pytest.mark.parametrize("K, J, partial", [(32, 65, True), (64, 65, True), (64, 129, False)])
    def test_error_estimate_partial_where_the_coarse_level_cannot_coarsen(self, K, J, partial):
        # the coarse level is floored at 32 x 65: at K=32 it keeps the angles, at J=65 the offsets
        f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), 128, 8.0)
        rep = rnorm_grid_2d(f, K=K, J=J)
        assert ("error-estimate-partial" in rep.diagnostics["warnings"]) == partial

    @pytest.mark.parametrize("n", [16, 31, 32, 33, 64])
    def test_coarse_level_runs_on_the_half_resolution_grid(self, monkeypatch, n):
        # decimated to every second sample at spacing 2h from 32 x 32 up; below, the full grid, flagged partial
        grids, radon_grids = [], []

        def spy(module, name, seen):
            original = getattr(module, name)

            def recording(g, *args):
                seen.append(g)
                return original(g, *args)

            monkeypatch.setattr(module, name, recording)

        spy(rnorm.engine, "frac_laplacian_2d", grids)
        spy(rnorm.engine, "grid_radon_2d", radon_grids)
        f = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), n, 4.0)
        rep = rnorm_grid_2d(f, K=64, J=129)
        fine, coarse = grids
        assert fine is f
        assert [(g.n, g.h) for g in radon_grids] == [(g.n, g.h) for g in grids]
        assert ("error-estimate-partial" in rep.diagnostics["warnings"]) == (n < 32)
        if n < 32:
            assert coarse is f
            return
        assert (coarse.n, coarse.h) == ((n + 1) // 2, 2.0 * f.h)
        assert np.array_equal(coarse.values, f.values[::2, ::2])
        # odd n keeps every second sample's point; even n shifts the grid by half a fine step
        shift = 0.0 if n % 2 else f.h / 2.0
        assert np.allclose(grid_axis(coarse), grid_axis(f)[::2] + shift, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("R", [None, 4.0, 7.5], ids=["gaussian", "bump-4", "bump-7.5"])
    def test_converging_values_do_not_warn_of_growth(self, n, R):
        # fine/coarse ratios at most 1.1 here, against the warning's sqrt(2); the bump is exp(-1/(1-r^2/R^2))
        def func(X, Y):
            if R is None:
                return np.exp(-(X**2 + Y**2) / 2.0)
            return np.exp(-1.0 / np.maximum(1.0 - (X**2 + Y**2) / R**2, 1e-300))

        rep = rnorm_grid_2d(sample_grid(func, n, 8.0), K=64, J=129)
        assert "value-grows-with-resolution" not in rep.diagnostics["warnings"]

    def test_the_pyramid_warns_that_its_value_grows_with_resolution(self):
        # the pyramid's R-norm is infinite: its grid value grows about 1.6 times per doubling of n
        rep = rnorm_grid_2d(sample_grid(pyramid_pwl, 128, 2.0), K=64, J=129)
        assert rep.diagnostics["warnings"] == ["value-grows-with-resolution"]
