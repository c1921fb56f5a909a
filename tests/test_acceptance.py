"""End-to-end acceptance gate: one criterion per test, summarized after the run.

Each test records a PASS/FAIL line (printed in the terminal summary) before
asserting, so the final report always lists every criterion's outcome.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_criterion
from rnorm import (
    FiniteReluNet,
    FitProblem,
    RadialFunction,
    bump_poly,
    constants,
    fbp_inverse_2d,
    frac_laplacian_2d,
    grad_at_infinity,
    grid_radon_2d,
    laplacian_lower_bound,
    lp_oracle,
    min_norm_fit,
    offset_power_derivative,
    parallelogram_check,
    pwl_infinite_certificate,
    pyramid_geometry,
    pyramid_pwl,
    pyramid_threelayer,
    rbar_gap_demo,
    refinement_study,
    rnorm_finite_net,
    rnorm_grid_2d,
    rnorm_radial_odd,
    sample_grid,
    sobolev_upper_bound_2d,
)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _gaussian(n: int, half: float):
    return sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 2.0), n, half)


def test_criterion_01_quartic_bump_exact_value():
    t0 = time.time()
    rep = rnorm_radial_odd(RadialFunction(3, bump_poly(2)))
    dt = time.time() - t0
    expected = 32.0 + 32.0 / math.sqrt(5.0)
    ok = _rel(rep.value, expected) <= 1e-9 and dt < 1.0
    record_criterion(1, ok, f"d=3 quartic bump value {rep.value:.12f} vs {expected:.12f}, {dt:.2f}s")
    assert _rel(rep.value, expected) <= 1e-9
    assert dt < 1.0


def test_criterion_02_dilation_law():
    base = rnorm_radial_odd(RadialFunction(3, bump_poly(2))).value
    half = rnorm_radial_odd(RadialFunction(3, bump_poly(2, dilation=Fraction(1, 2)))).value
    double = rnorm_radial_odd(RadialFunction(3, bump_poly(2, dilation=2))).value
    exact_ok = _rel(half, 2.0 * base) <= 1e-14 and _rel(double, 0.5 * base) <= 1e-14

    # grid path: the dilated Gaussian on an independently discretized grid
    g1 = rnorm_grid_2d(_gaussian(256, 8.0), K=64, J=129).value
    f2 = sample_grid(lambda X, Y: np.exp(-(X**2 + Y**2) / 8.0), 320, 16.0)
    g2 = rnorm_grid_2d(f2, K=64, J=129).value
    grid_ok = _rel(g2, 0.5 * g1) <= 0.03
    ok = exact_ok and grid_ok
    record_criterion(
        2, ok, f"exact x2/x0.5 scaling; grid dilated/half-base ratio {g2 / (0.5 * g1):.4f}"
    )
    assert exact_ok
    assert grid_ok


def test_criterion_03_finiteness_threshold():
    t0 = time.time()
    results = {}
    for d in (3, 5, 7):
        for k in range(1, 7):
            rep = rnorm_radial_odd(RadialFunction(d, bump_poly(k)))
            results[(d, k)] = not rep.is_infinite
    dt = time.time() - t0
    ok = all(finite == (k >= (d + 1) / 2) for (d, k), finite in results.items()) and dt < 10.0
    record_criterion(3, ok, f"finite iff k >= (d+1)/2 over d in {{3,5,7}}, k in 1..6, {dt:.2f}s")
    assert ok


def test_criterion_04_bracket_and_laplacian_lower_bound():
    details = []
    ok = True
    for d in (3, 5, 7, 9):
        k = (d + 5) // 2
        f = RadialFunction(d, bump_poly(k))
        value = rnorm_radial_odd(f).value
        lo, hi = (d + 5) * d, 2.0 * d * (d + 5)
        lb = laplacian_lower_bound(f)
        ok = ok and (lo <= value <= hi) and _rel(lb, d * (d + 5)) <= 1e-12
        details.append(f"d={d}: {value:.1f} in [{lo},{hi:.0f}], lb={lb:.1f}")
    record_criterion(4, ok, "; ".join(details))
    assert ok


def test_criterion_05_constants_identity():
    errs = [
        abs(constants(d).gamma_d * constants(d).c_d * constants(d - 1).c_d - 1.0 / math.factorial(d - 2))
        * math.factorial(d - 2)
        for d in (3, 5, 7, 9)
    ]
    ok = max(errs) <= 1e-12
    record_criterion(5, ok, f"gamma_d c_d c_(d-1) = 1/(d-2)! max rel err {max(errs):.2e}")
    assert ok


def test_criterion_06_gaussian_grid_pipeline():
    # 1-D semi-analytic oracle for the d=2 norm of exp(-r^2/2)
    n, L = 2**16, 40.0
    h = 2 * L / n
    b = (np.arange(n) - n / 2) * h
    prof = math.sqrt(2.0 * math.pi) * np.exp(-(b**2) / 2.0)
    xi = 2.0 * math.pi * np.fft.fftfreq(n, h)
    filt = np.fft.ifft(np.fft.fft(prof) * np.abs(xi) ** 3).real
    oracle = (1.0 / (4.0 * math.pi)) * 2.0 * math.pi * np.abs(filt).sum() * h

    f = _gaussian(512, 8.0)
    t0 = time.time()
    rep = rnorm_grid_2d(f, K=256, J=513)
    dt = time.time() - t0
    value_ok = _rel(rep.value, oracle) <= 0.02 and dt < 30.0

    # intertwining: Radon of the filtered function vs offset-filtered Radon
    s1 = grid_radon_2d(frac_laplacian_2d(f, 3.0), 64, 257)
    s2 = offset_power_derivative(grid_radon_2d(f, 64, 257), 3)
    cross = np.abs(s1.values - s2.values).sum() / np.abs(s1.values).sum()
    ok = value_ok and cross <= 0.03
    record_criterion(
        6, ok, f"grid {rep.value:.4f} vs oracle {oracle:.4f} ({_rel(rep.value, oracle):.2%}), "
        f"intertwining L1 {cross:.2%}, {dt:.1f}s"
    )
    assert value_ok
    assert cross <= 0.03


def test_criterion_07_inversion_round_trip(gaussian_256):
    s = grid_radon_2d(gaussian_256, 128, 257)
    rec = fbp_inverse_2d(s, n=gaussian_256.n, h=gaussian_256.h)
    rel = float(
        np.linalg.norm(rec.values - gaussian_256.values) / np.linalg.norm(gaussian_256.values)
    )
    ok = rel <= 0.02
    record_criterion(7, ok, f"filtered backprojection round trip L2 error {rel:.2%}")
    assert ok


def test_criterion_08_invariances_and_bounds(gaussian_256):
    base = rnorm_grid_2d(gaussian_256, K=128, J=257).value
    shifted = sample_grid(
        lambda X, Y: np.exp(-((X - 0.5) ** 2 + (Y - 0.25) ** 2) / 2.0), 256, 8.0
    )
    trans = rnorm_grid_2d(shifted, K=128, J=257).value

    def aniso(X, Y, a):
        c, s = math.cos(a), math.sin(a)
        U, V = c * X + s * Y, -s * X + c * Y
        return np.exp(-(U**2 / 2.0 + V**2 / 8.0))

    a0 = rnorm_grid_2d(sample_grid(lambda X, Y: aniso(X, Y, 0.0), 256, 8.0), K=128, J=257).value
    a30 = rnorm_grid_2d(
        sample_grid(lambda X, Y: aniso(X, Y, math.pi / 6.0), 256, 8.0), K=128, J=257
    ).value

    lower = laplacian_lower_bound(gaussian_256)
    upper = sobolev_upper_bound_2d(gaussian_256)
    inv_ok = _rel(trans, base) <= 0.03 and _rel(a30, a0) <= 0.03
    bound_ok = lower <= base <= upper
    ok = inv_ok and bound_ok
    record_criterion(
        8, ok, f"translate {_rel(trans, base):.2%}, rotate {_rel(a30, a0):.2%}; "
        f"{lower:.3f} <= {base:.3f} <= {upper:.3f}"
    )
    assert inv_ok
    assert bound_ok


def test_criterion_09_planted_net_recovery():
    rng = np.random.default_rng(0)
    rr = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, 200))
    th = rng.uniform(0.0, 2.0 * math.pi, 200)
    X = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
    B = 1.05 * rr.max()
    offsets = np.linspace(-B, B, 65)
    angles = np.arange(64) * 2.0 * math.pi / 64
    units = [
        (2.0, angles[4], offsets[36]),
        (-1.0, angles[20], offsets[28]),
        (0.5, angles[50], offsets[40]),
    ]
    net = FiniteReluNet(
        2, tuple((a, np.array([math.cos(t), math.sin(t)]), b) for a, t, b in units)
    )
    p = FitProblem(X, net(X), K=64, J=65, tol=1e-3, offset_range=B)
    t0 = time.time()
    fit = min_norm_fit(p)
    exact = lp_oracle(p)
    dt = time.time() - t0
    total = 3.5
    ok = _rel(fit.objective, total) <= 0.05 and _rel(fit.objective, exact) <= 0.005 and dt < 60.0
    record_criterion(
        9, ok, f"fit {fit.objective:.4f} vs planted 3.5 ({_rel(fit.objective, total):.2%}), "
        f"LP {exact:.4f} ({_rel(fit.objective, exact):.3%}), {dt:.1f}s"
    )
    assert _rel(fit.objective, total) <= 0.05
    assert _rel(fit.objective, exact) <= 0.005
    assert dt < 60.0


def test_criterion_10_linear_unit_gap():
    net = FiniteReluNet(
        2,
        ((1.0, np.array([1.0, 0.0]), 0.0), (1.0, np.array([-1.0, 0.0]), 0.0)),
        v=np.array([0.0, 1.0]),
    )
    rnorm = rnorm_finite_net(net).value
    g = grad_at_infinity(net)
    demo = rbar_gap_demo()
    with_lin = demo["fit_with_linear_unit"]
    without = demo["fit_without_linear_unit"]
    ok = (
        rnorm == pytest.approx(2.0, rel=1e-12)
        and np.allclose(g, [0.0, 1.0], atol=1e-2)
        and demo["bracket"] == pytest.approx([2.0, 4.0], rel=1e-12)
        and _rel(with_lin, 2.0) <= 0.05
        and _rel(without, 4.0) <= 0.05
    )
    record_criterion(
        10, ok, f"norm 2, grad (0,1), bracket [2,4]; fits {with_lin:.3f} / {without:.3f}"
    )
    assert ok


def test_criterion_11_parallelogram_failure():
    out = parallelogram_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    norms_ok = out["norms"] == pytest.approx([1.0, 1.0, 2.0, 2.0], rel=1e-15)
    ok = norms_ok and out["violation"] is True
    record_criterion(
        11, ok, f"norms {[round(v, 12) for v in out['norms']]}, lhs {out['lhs']} != rhs {out['rhs']}"
    )
    assert ok


def test_criterion_12_depth_separation():
    _, eq = pyramid_threelayer()
    cert = pwl_infinite_certificate(pyramid_geometry(), [np.array([1.0, 0.0])])
    cert_ok = (
        cert.entries[0].classification == "CONSTANT" and abs(cert.entries[0].ratio - 1.0) <= 0.10
    )

    def pyr(Z):
        return pyramid_pwl(Z[:, 0], Z[:, 1])

    X0 = np.zeros((25, 2))
    p = FitProblem(X0, pyr(X0), K=16, J=17, tol=0.0, offset_range=1.365)
    rows = refinement_study(p, 4, target=pyr, method="lp", radius=1.3, seed=0)
    norms = [r["norm"] for r in rows]
    growth = [norms[i + 1] / norms[i] - 1.0 for i in range(3)]
    grow_ok = all(g >= 0.15 for g in growth)

    def bump(Z, eps=2.6):
        r2 = (Z**2).sum(axis=1) / eps**2
        out = np.zeros(len(Z))
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    Xb = np.zeros((80, 2))
    pb = FitProblem(Xb, bump(Xb), K=16, J=17, tol=0.0, offset_range=1.365)
    ctrl = refinement_study(pb, 3, target=bump, method="lp", radius=1.3, seed=1)
    cn = [r["norm"] for r in ctrl]
    ctrl_ok = abs(cn[-1] / cn[-2] - 1.0) <= 0.05

    ok = bool(eq["exact"]) and cert_ok and grow_ok and ctrl_ok
    record_criterion(
        12, ok, f"three-layer exact; certificate ratio {cert.entries[0].ratio:.3f}; "
        f"pyramid growth {[f'{g:+.1%}' for g in growth]}; control change "
        f"{cn[-1] / cn[-2] - 1.0:+.1%}"
    )
    assert eq["exact"]
    assert cert_ok
    assert grow_ok
    assert ctrl_ok
