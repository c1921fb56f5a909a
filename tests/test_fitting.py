import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnorm import (
    AtomicMeasure,
    FitProblem,
    UnsupportedDimensionError,
    build_dictionary,
    even_part,
    lp_oracle,
    min_norm_fit,
    refinement_levels,
)
from rnorm.fitting import disc_samples

from oracles import fit_as_net


class TestAtomicMeasure:
    def test_merges_nearby_atoms(self):
        w = np.array([1.0, 0.0])
        m = AtomicMeasure(((w, 0.5, 1.0), (w + 1e-12, 0.5, 2.0), (w, -0.5, -1.5)))
        assert len(m) == 2
        assert m.total_variation == pytest.approx(4.5)

    def test_close_atoms_merge_across_a_rounding_edge(self):
        # 2.5e-9 sits on an edge of a 1e-9 rounding grid; the pair is 2e-12 apart
        w = np.array([1.0, 0.0])
        m = AtomicMeasure(((w, 2.5e-9 - 1e-12, 1.0), (w, 2.5e-9 + 1e-12, 2.0)))
        assert len(m) == 1
        assert m.atoms[0][1] == 2.5e-9 - 1e-12 and m.atoms[0][2] == 3.0

    def test_cancelled_atoms_dropped(self):
        w = np.array([0.0, 1.0])
        m = AtomicMeasure(((w, 0.0, 1.0), (w, 0.0, -1.0)))
        assert len(m) == 0
        assert m.total_variation == 0.0

    def test_even_part_averages_antipodes(self):
        w = np.array([1.0, 0.0])
        m = AtomicMeasure(((w, 0.5, 2.0),))
        e = even_part(m)
        assert len(e) == 2
        assert e.total_variation == pytest.approx(2.0)
        weights = {(round(a[0][0]), a[1]): a[2] for a in e.atoms}
        assert weights[(1, 0.5)] == pytest.approx(1.0)
        assert weights[(-1, -0.5)] == pytest.approx(1.0)

    def test_even_part_idempotent(self):
        w = np.array([1.0, 0.0])
        m = AtomicMeasure(((w, 0.5, 2.0), (-w, -0.5, 1.0)))
        once = even_part(m)
        twice = even_part(once)
        assert once.total_variation == pytest.approx(twice.total_variation, rel=1e-15)


@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-1, 1)), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_even_part_never_increases_total_variation(entries):
    atoms = []
    for i, (wt, b) in enumerate(entries):
        th = 0.7 * i
        atoms.append((np.array([math.cos(th), math.sin(th)]), b, wt))
    m = AtomicMeasure(tuple(atoms))
    assert even_part(m).total_variation <= m.total_variation + 1e-12


def _pairwise_merge(atoms, tol=1e-9):
    """Reference merge: each atom joins the first earlier atom within tol, else starts one."""
    merged = []
    for w, b, wt in atoms:
        for atom in merged:
            if np.linalg.norm(atom[0] - w) + abs(atom[1] - b) <= tol:
                atom[2] += wt
                break
        else:
            merged.append([np.asarray(w, dtype=float), float(b), float(wt)])
    return [(w, b, wt) for w, b, wt in merged if wt != 0]


MERGE_K = 16
MERGE_OFFSETS = np.linspace(-1.3, 1.3, 9)  # not exactly symmetric in floating point


def _merge_case(k, j, kind, wt):
    th = 2.0 * math.pi * k / MERGE_K
    w = np.array([math.cos(th), math.sin(th)])
    b = MERGE_OFFSETS[j]
    if kind == "antipode":
        return [(w, b, wt), (-w, -b, wt)]
    if kind == "grid antipode":  # cos(th + pi) against -cos(th), as on the fitting grid
        return [(w, b, wt), (np.array([math.cos(th + math.pi), math.sin(th + math.pi)]), MERGE_OFFSETS[-1 - j], wt)]
    if kind == "perturbed":
        return [(w, b, wt), (w + 1e-12, b - 1e-12, -wt / 3.0)]
    return [(w, b, wt), (w.copy(), b, wt)]  # exact repeat


@given(
    st.lists(
        st.tuples(
            st.integers(0, MERGE_K - 1),
            st.integers(0, MERGE_OFFSETS.size - 1),
            st.sampled_from(["repeat", "antipode", "grid antipode", "perturbed"]),
            st.floats(-3, 3),
        ),
        min_size=1,
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_merge_matches_pairwise_reference(cases, rnd):
    atoms = [atom for case in cases for atom in _merge_case(*case)]
    rnd.shuffle(atoms)
    expected = _pairwise_merge(atoms)
    got = AtomicMeasure(tuple(atoms)).atoms
    assert len(got) == len(expected)
    for (w, b, wt), (w_ref, b_ref, wt_ref) in zip(got, expected):
        assert np.array_equal(w, w_ref) and b == b_ref  # first-seen representative, in order
        assert wt == wt_ref


class TestFitProblem:
    def test_validation(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            FitProblem(X, np.zeros(2))
        bads = ({"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf}, {"K": 0}, {"K": 15}, {"J": 1}, {"K": 10**5, "J": 10**5})
        for bad in bads:
            with pytest.raises(ValueError):
                FitProblem(X, np.zeros(3), **bad)
        with pytest.raises(ValueError):
            FitProblem(np.ones((3, 2)), np.zeros(3), offset_range=1.0)
        with pytest.raises(ValueError, match="finite"):
            FitProblem(np.array([[0.0, 0.0], [math.nan, 0.5], [0.5, 0.0]]), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            FitProblem(X, np.array([0.0, math.inf, 0.0]))
        with pytest.raises(ValueError, match=r"\(N, d\) array, got shape \(3, 2, 1\)$"):
            FitProblem(np.zeros((3, 2, 1)) + 0.1, np.zeros(3), K=8, J=9)

    def test_default_offset_range_covers_hull(self):
        X = 2.0 * np.eye(2)
        p = FitProblem(X, np.zeros(2))
        assert p.offset_range == pytest.approx(2.1)
        W, offsets = p.atom_grid()
        assert W.shape == (p.K // 2, 2) and offsets.size == p.J
        assert offsets[0] == -offsets[-1] == -p.offset_range

    def test_rejects_samples_not_in_2d(self):
        for X in (np.zeros((4, 3)), np.ones((3, 1))):
            with pytest.raises(UnsupportedDimensionError):
                FitProblem(X, np.zeros(X.shape[0]))


class TestDictionary:
    def test_column_formula(self):
        X = np.array([[0.5, 0.0]])
        p = FitProblem(X, np.array([0.0]), K=4, J=3, offset_range=1.0)
        Psi, L = build_dictionary(p)
        W, offsets = p.atom_grid()
        assert np.allclose(W, [[1.0, 0.0], [0.0, 1.0]], rtol=0, atol=1e-15)  # angles 0 and pi/2 of K=4
        assert Psi.shape == (1, 2 * 3)
        for k, w in enumerate(W):
            for j, b in enumerate(offsets):
                expected = 0.5 * (abs(float(X[0] @ w) - b) - abs(b))
                assert Psi[0, k * p.J + j] == pytest.approx(expected, abs=1e-15)
        # w = (1, 0), b = 1: the even column is -1/4 where a one-sided [w.x - b]_+ is 0
        assert Psi[0, 0 * p.J + 2] == pytest.approx(-0.25, abs=1e-15)
        # linear unit plus constant column
        assert L.shape == (1, 3)
        assert np.allclose(L[0], [0.5, 0.0, 1.0])

    def test_half_circle_columns_are_distinct(self):
        # a full-circle grid repeats column (k, j) as (k + K/2, J-1-j) up to rounding
        X = disc_samples(60, 1.0, 4)
        p = FitProblem(X, np.zeros(60), K=16, J=5)
        Psi, _ = build_dictionary(p)
        assert Psi.shape == (60, 8 * 5)
        diff = np.abs(Psi[:, :, None] - Psi[:, None, :]).max(axis=0)
        np.fill_diagonal(diff, np.inf)
        assert diff.min() > 1e-12 * np.abs(Psi).max()

    def test_columns_vanish_at_origin(self):
        X = np.array([[0.0, 0.0], [0.3, -0.2]])
        p = FitProblem(X, np.zeros(2), K=8, J=9)
        Psi, _ = build_dictionary(p)
        assert np.abs(Psi[0]).max() == 0.0


class TestSolver:
    def test_pure_linear_target_costs_nothing(self):
        X = disc_samples(60, 1.5, 3)
        y = X @ np.array([1.0, 2.0]) + 0.5
        fit = min_norm_fit(FitProblem(X, y, K=16, J=17, tol=1e-3), max_iter=5000)
        assert fit.objective <= 1e-6
        assert np.allclose(fit.v, [1.0, 2.0], atol=1e-3)
        assert fit.c == pytest.approx(0.5, abs=1e-3)
        assert fit.converged and fit.iterations < 5000
        assert fit.residual_max <= 1e-3

    def test_result_net_reproduces_fit(self):
        X = disc_samples(50, 1.2, 5)
        y = np.abs(X[:, 0]) - 0.3 * X[:, 1]
        fit = min_norm_fit(FitProblem(X, y, K=16, J=17, tol=1e-3))
        net = fit_as_net(fit)
        assert np.abs(net(X) - y).max() <= fit.residual_max + 1e-8

    def test_matches_lp_oracle(self):
        X = disc_samples(40, 1.0, 7)
        y = np.abs(X[:, 0] + X[:, 1]) / math.sqrt(2.0)
        p = FitProblem(X, y, K=16, J=17, tol=1e-3)
        fit = min_norm_fit(p)
        exact = lp_oracle(p)
        assert fit.objective == pytest.approx(exact, rel=0.005)

    def test_measure_is_even(self):
        X = disc_samples(30, 1.0, 9)
        y = np.abs(X[:, 0])
        fit = min_norm_fit(FitProblem(X, y, K=8, J=9, tol=1e-2), max_iter=4000)
        atoms = {(round(w[0], 6), round(w[1], 6), round(b, 6)): wt for w, b, wt in fit.measure.atoms}
        for (w0, w1, b), wt in atoms.items():
            assert atoms[(-w0, -w1 if w1 != 0 else 0.0, -b if b != 0 else 0.0)] == pytest.approx(wt)

    def test_deterministic(self):
        X = disc_samples(30, 1.0, 11)
        y = np.abs(X[:, 1])
        p = FitProblem(X, y, K=8, J=9, tol=1e-2)
        a = min_norm_fit(p, max_iter=2000)
        b = min_norm_fit(p, max_iter=2000)
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert np.array_equal(a.v, b.v)


def _reference_fit(p: FitProblem, max_iter: int):
    """The iteration min_norm_fit runs, one numpy expression per update on the
    separate blocks Psi diag(1/colnorm), L and (a, z), in the narrowed tube."""
    from rnorm.fitting import INTERPOLATION_SLACK, _result_from_weights

    Phi, L = build_dictionary(p)
    y = p.y
    tau = max(p.tol, INTERPOLATION_SLACK)
    tau_in = (tau - 1e-9) / (1.0 + 1e-3)
    gap_tol = 1e-6 * max(float(np.abs(y).max()), 1e-12)
    colnorm = np.linalg.norm(Phi, axis=0)
    colnorm[colnorm == 0] = 1.0
    Phis = Phi / colnorm
    Kmat = np.concatenate([Phis, L], axis=1)
    vec = np.random.default_rng(0).standard_normal(Kmat.shape[1])
    for _ in range(100):
        vec = Kmat.T @ (Kmat @ vec)
        vec /= np.linalg.norm(vec)
    step = 0.99 / max(math.sqrt(float(vec @ (Kmat.T @ (Kmat @ vec)))), 1e-12)
    Lpinv = np.linalg.pinv(L)
    a, z, lam = np.zeros(Phis.shape[1]), np.zeros(L.shape[1]), np.zeros(y.size)
    a_bar, z_bar = a.copy(), z.copy()
    weights = 1.0 / colnorm
    gap = math.inf
    for it in range(1, max_iter + 1):
        u = lam + step * (Phis @ a_bar + L @ z_bar) - step * y
        lam = np.sign(u) * np.maximum(np.abs(u) - step * tau_in, 0.0)
        a_old, z_old = a, z
        grad_a = Phis.T @ lam
        a = np.sign(a - step * grad_a) * np.maximum(np.abs(a - step * grad_a) - step * weights, 0.0)
        z = z - step * (L.T @ lam)
        a_bar = 2.0 * a - a_old
        z_bar = 2.0 * z - z_old
        if it % 250 == 0:
            resid = float(np.abs(Phis @ a + L @ z - y).max())
            lam_f = lam - L @ (Lpinv @ lam)
            lam_f = lam_f / max(float(np.abs(Phi.T @ lam_f).max()), 1.0)
            gap = float((weights * np.abs(a)).sum()) - float(-y @ lam_f - tau_in * np.abs(lam_f).sum())
            if resid <= tau_in * (1.0 + 1e-3) + 1e-9 and gap <= gap_tol:
                break
    a_true = a / colnorm
    resid = float(np.abs(Phi @ a_true + L @ z - y).max())
    converged = gap <= gap_tol and resid <= tau_in * (1.0 + 1e-3) + 1e-9
    return _result_from_weights(p, a_true, z, resid, gap, it, converged)


def _planted_problem(N=100, K=16, J=17):
    """The benchmark's fit input: three units on the K x J grid, N samples in the disc of radius 3."""
    X = disc_samples(N, 3.0, 0)
    p = FitProblem(X, np.zeros(N), K=K, J=J)
    th = np.arange(K) * 2.0 * math.pi / K
    offsets = np.linspace(-p.offset_range, p.offset_range, J)
    y = sum(a * np.maximum(X @ [math.cos(th[k]), math.sin(th[k])] - offsets[j], 0.0)
            for a, k, j in ((2.0, 1, 9), (-1.0, 5, 7), (0.5, 12, 10)))
    return FitProblem(X, y, K=K, J=J)


def _fused_loop_cases():
    X = disc_samples(60, 1.5, 3)
    Xb = disc_samples(30, 1.0, 9)
    yield _planted_problem(), 2000
    yield FitProblem(X, X @ np.array([1.0, 2.0]) + 0.5, K=16, J=17, tol=1e-3), 5000
    yield FitProblem(Xb, np.abs(Xb[:, 0]) + 0.2, K=8, J=9, tol=1e-2, use_linear_unit=False), 3000
    yield FitProblem(Xb, np.abs(Xb[:, 1] - 0.1), K=8, J=9, tol=0.0), 1000


@pytest.mark.parametrize(
    "p, max_iter", list(_fused_loop_cases()), ids=["planted", "linear", "no-linear-unit", "tol-0"]
)
def test_fused_loop_is_the_reference_iteration(p, max_iter):
    # the fused matvec sums in another order, so the iterates agree to rounding, not bit for bit
    got = min_norm_fit(p, max_iter=max_iter)
    ref = _reference_fit(p, max_iter)
    assert got.iterations == ref.iterations and got.converged == ref.converged
    for field in ("objective", "c", "residual_max", "duality_gap"):
        assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-9, abs=1e-12), field
    assert np.allclose(got.v, ref.v, rtol=1e-9, atol=1e-12)
    assert len(got.measure) == len(ref.measure)


def test_solve_holds_two_copies_of_the_dictionary():
    import tracemalloc

    p = _planted_problem(N=200, K=128, J=65)
    psi_bytes = build_dictionary(p)[0].nbytes
    min_norm_fit(FitProblem(disc_samples(20, 1.0, 0), np.ones(20), K=8, J=9), max_iter=250)  # lazy imports first
    tracemalloc.start()
    try:
        min_norm_fit(p, max_iter=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Psi plus K's left block is about 2.1x; a third copy (Psi / colnorm beside K) reads about 3.1x
    assert peak <= 2.3 * psi_bytes, (peak, psi_bytes)


class TestRefinement:
    def test_validation(self):
        X = disc_samples(10, 1.0, 0)
        p = FitProblem(X, np.zeros(10), K=8, J=9)
        with pytest.raises(ValueError):
            refinement_levels(p, 1)
        for target in (None, lambda Z: Z[:, 0]):
            with pytest.raises(ValueError, match="exceeds"):
                refinement_levels(p, 40, target=target)

    def test_levels_double_grid_and_samples(self):
        X = disc_samples(12, 1.0, 1)
        p = FitProblem(X, X @ np.array([1.0, 0.0]), K=8, J=9, tol=1e-2)
        levels = refinement_levels(p, 2, target=lambda Z: Z @ np.array([1.0, 0.0]))
        assert [(q.K, q.J, q.X.shape[0]) for q in levels] == [(8, 9, 12), (16, 17, 24)]
        # linear target is free
        assert all(min_norm_fit(q, max_iter=1500, gap_rel=1e-4).objective <= 1e-4 for q in levels)

    def test_target_levels_are_nested_prefixes_of_one_pool(self):
        X = disc_samples(12, 1.0, 1)
        target = lambda Z: np.abs(Z[:, 0])
        p = FitProblem(X, target(X), K=8, J=9, tol=1e-2, offset_range=1.5)
        levels = refinement_levels(p, 3, target=target, radius=1.2, seed=4)
        assert [q.X.shape[0] for q in levels] == [12, 24, 48]
        for small, large in zip(levels, levels[1:]):
            assert np.array_equal(large.X[: small.X.shape[0]], small.X)
        assert np.array_equal(levels[-1].X, disc_samples(48, 1.2, 4))
        assert all(np.array_equal(q.y, target(q.X)) and q.offset_range == 1.5 and q.tol == 1e-2 for q in levels)

    def test_fixed_samples_without_a_target(self):
        X = disc_samples(12, 1.0, 1)
        p = FitProblem(X, X[:, 1], K=8, J=9, use_linear_unit=False)
        for q in refinement_levels(p, 2):
            assert np.array_equal(q.X, p.X) and np.array_equal(q.y, p.y)
            assert q.offset_range == p.offset_range and not q.use_linear_unit

    def test_lp_levels_reach_the_norm(self):
        X = disc_samples(12, 1.0, 2)
        target = lambda Z: np.abs(Z @ np.array([0.0, 1.0]))
        p = FitProblem(X, target(X), K=8, J=9, tol=1e-2)
        norms = [lp_oracle(q) for q in refinement_levels(p, 2, target=target)]
        assert all(n == pytest.approx(2.0, rel=0.25) for n in norms)


def _full_circle_lp(p: FitProblem) -> float:
    """The same LP over all K directions of the full circle, each of the K J columns with its own weight."""
    from scipy.optimize import linprog

    th = np.arange(p.K) * 2.0 * math.pi / p.K
    offsets = np.linspace(-p.offset_range, p.offset_range, p.J)
    proj = p.X @ np.stack([np.cos(th), np.sin(th)])
    Psi = 0.5 * (np.abs(proj[:, :, None] - offsets) - np.abs(offsets)).reshape(p.X.shape[0], -1)
    L = np.column_stack([p.X, np.ones(p.X.shape[0])])
    M = Psi.shape[1]
    block = np.concatenate([Psi, -Psi, L], axis=1)
    res = linprog(
        np.concatenate([np.ones(2 * M), np.zeros(3)]),
        A_ub=np.concatenate([block, -block]),
        b_ub=np.concatenate([p.y + p.tol, p.tol - p.y]),
        bounds=[(0, None)] * (2 * M) + [(None, None)] * 3,
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def test_lp_oracle_matches_full_circle_lp():
    # planted units at full-circle angles 3 and 11 of K=16: the second is -w of angle 3 on the half circle
    X = disc_samples(40, 1.0, 17)
    th = np.array([3, 11, 6]) * 2.0 * math.pi / 16
    W = np.stack([np.cos(th), np.sin(th)], axis=1)
    y = np.maximum(X @ W.T - np.array([0.2, -0.1, 0.4]), 0.0) @ np.array([1.5, -0.7, 0.9])
    p = FitProblem(X, y, K=16, J=9, tol=1e-3)
    assert lp_oracle(p) == pytest.approx(_full_circle_lp(p), rel=1e-9)


def test_lp_oracle_on_representable_target():
    # |w.x| with w on the atom grid costs exactly 2 under interpolation, which tol 0 solves exactly.
    X = disc_samples(40, 1.0, 13)
    y = np.abs(X[:, 0])
    value = lp_oracle(FitProblem(X, y, K=8, J=9, tol=0.0))
    assert value == pytest.approx(2.0, rel=1e-12)
