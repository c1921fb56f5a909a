"""Minimum-total-variation measure recovery over a discretized ReLU atom dictionary.

The primary solver is a Chambolle-Pock primal-dual iteration on

    min ||a||_1   s.t.  |Phi a + L z - y|_inf <= tau,

with the linear unit and bias collected in the unpenalized block L z.  The
loop runs on one operator step [Phi diag(1/colnorm) | L | -y] and one vector
(a, z, 1), in a tube narrowed by the stopping rule's slack, so a converged fit
has every |residual| <= tol (<= 1e-8 at tol 0).  An exact LP oracle (scipy HiGHS)
solves the program in equality form, with one slack in [-tol, tol] per sample, so
tol 0 is exact interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import AtomicMeasure, FiniteReluNet, even_part
from .grids import finite_copy
from .radon import MAX_ARRAY_ENTRIES, OFFSET_MARGIN, UnsupportedDimensionError

DEFAULT_MAX_ITER = 50_000
GAP_CHECK_EVERY = 250
INTERPOLATION_SLACK = 1e-8


def check_dictionary_size(N: int, K: int, J: int) -> None:
    """Raise ValueError when Psi for N samples, K angles (full circle) and J offsets is too large."""
    if N * (K // 2) * J > MAX_ARRAY_ENTRIES:
        raise ValueError(
            f"dictionary of {N} samples x {K // 2}x{J} atoms exceeds {MAX_ARRAY_ENTRIES} entries"
        )


def disc_samples(n: int, radius: float, seed: int) -> np.ndarray:
    """n points uniform in the disc of this radius; default_rng(seed) draws n radii, then n angles."""
    rng = np.random.default_rng(seed)
    rr = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)


@dataclass(frozen=True)
class FitProblem:
    """Samples plus the atom grid: K angles over the full circle (K even), whose first K/2
    directions, each with both orientations, and J offsets make the dictionary."""

    X: np.ndarray
    y: np.ndarray
    K: int = 64
    J: int = 65
    tol: float = 1e-3
    use_linear_unit: bool = True
    offset_range: float | None = None

    def __post_init__(self):
        X = finite_copy(np.atleast_2d(self.X), "samples X")
        y = finite_copy(np.ravel(self.y), "targets y")
        if X.ndim != 2:
            raise ValueError(f"samples X must be an (N, d) array, got shape {X.shape}")
        if X.shape[0] != y.size or X.shape[0] < 1:
            raise ValueError("need one target per sample point")
        if X.shape[1] != 2:
            raise UnsupportedDimensionError(f"atom dictionaries are implemented for d=2, got d={X.shape[1]}")
        if self.K < 2 or self.K % 2 or self.J < 2:
            raise ValueError(f"atom grid needs an even K >= 2 and J >= 2 offsets, got K={self.K}, J={self.J}")
        check_dictionary_size(X.shape[0], self.K, self.J)
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tol}")
        B = self.offset_range
        radius = float(np.linalg.norm(X, axis=1).max())
        if B is None:
            B = OFFSET_MARGIN * radius if radius > 0 else 1.0
        elif not radius <= B < math.inf:
            raise ValueError(f"atom offset range must be finite and cover the sample hull, got {B}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "offset_range", float(B))

    def atom_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The (K/2, 2) unit directions (cos 2 pi k/K, sin 2 pi k/K), k < K/2, and the J uniform offsets."""
        angles = np.arange(self.K // 2) * 2.0 * math.pi / self.K
        offsets = np.linspace(-self.offset_range, self.offset_range, self.J)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1), offsets


@dataclass(frozen=True)
class FitResult:
    measure: AtomicMeasure
    v: np.ndarray
    c: float
    residual_max: float
    duality_gap: float
    iterations: int
    objective: float
    converged: bool

    def as_net(self) -> FiniteReluNet:
        """Equivalent finite net (d=2); the -[-b]_+ dictionary offsets fold into the bias."""
        units = tuple((wt, w, b) for w, b, wt in self.measure.atoms)
        shift = sum(wt * max(-b, 0.0) for _, b, wt in self.measure.atoms)
        return FiniteReluNet(d=2, units=units, v=self.v, c=self.c - shift)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "v": list(map(float, self.v)),
            "c": self.c,
            "residual_max": self.residual_max,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "atoms": [[list(map(float, w)), b, wt] for w, b, wt in self.measure.atoms],
        }


def build_dictionary(p: FitProblem) -> tuple[np.ndarray, np.ndarray]:
    """Even-measure feature matrix: variable (k, j) places mass t/2 at both
    (w_k, b_j) and (-w_k, -b_j), so its column is 0.5 (|w_k.x - b_j| - |b_j|),
    offset-major within each angle block.  With w_k on the half circle, Psi is
    N x (K/2 J) and no pair of columns repeats.

    Returns (Psi, L) where L stacks the unpenalized columns: sample
    coordinates when the linear unit is enabled, then the constant column.

    The representing measure of a two-layer net is even; without this tying a
    one-sided atom at the far edge of the offset range would represent any
    linear trend at half its true cost on a bounded sample set.
    """
    W, offsets = p.atom_grid()
    proj = p.X @ W.T
    Psi = 0.5 * (np.abs(proj[:, :, None] - offsets[None, None, :]) - np.abs(offsets)[None, None, :])
    Psi = Psi.reshape(p.X.shape[0], -1)
    ones = np.ones((p.X.shape[0], 1))
    L = np.concatenate([p.X, ones], axis=1) if p.use_linear_unit else ones
    return Psi, L


def _result_from_weights(
    p: FitProblem, a: np.ndarray, zcols: np.ndarray, resid: float, gap: float, iters: int, converged: bool
) -> FitResult:
    W, offsets = p.atom_grid()
    kept = np.nonzero(np.abs(a) > 1e-10)[0]
    k, j = np.divmod(kept, p.J)
    measure = even_part(zip(W[k], offsets[j], a[kept]))
    v = zcols[:2] if p.use_linear_unit else np.zeros(2)
    return FitResult(
        measure=measure,
        v=np.asarray(v, dtype=float),
        c=float(zcols[-1]),
        residual_max=resid,
        duality_gap=gap,
        iterations=iters,
        objective=float(np.abs(a).sum()),
        converged=converged,
    )


def min_norm_fit(
    p: FitProblem,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_rel: float = 1e-6,
) -> FitResult:
    """First-order primal-dual solve of the tau-tube minimum-L1 program.

    Deterministic: zero initialization, fixed step sizes from a 100-step
    power iteration with a fixed seed.  Every GAP_CHECK_EVERY iterations it
    stops once every |residual| <= tau = max(tol, INTERPOLATION_SLACK) and the
    duality gap is <= gap_rel * ||y||_inf; otherwise at max_iter.
    The iterates live in the narrower tube (tau - 1e-9) / (1 + 1e-3), so that
    converged=True means every |residual| <= tol (<= 1e-8 at tol 0).

    The loop runs on one operator Kaug = step [Psi diag(1/colnorm) | L | -y]
    acting on x = (a, z, 1), so the dual step is lam + Kaug x_bar and the primal
    step x - Kaug^T lam: two matrix-vector products and ten in-place updates of
    buffers allocated before the loop.  The solve holds two copies of Psi.
    """
    Phi, L = build_dictionary(p)
    y = p.y
    tau = max(p.tol, INTERPOLATION_SLACK)
    # iterate in a tube whose slack band tau_in (1 + 1e-3) + 1e-9 is tau itself
    tau_in = (tau - 1e-9) / (1.0 + 1e-3)
    gap_tol = gap_rel * max(float(np.abs(y).max()), 1e-12)

    # column equilibration keeps the problem equivalent via weighted soft-thresholds
    colnorm = np.linalg.norm(Phi, axis=0)
    colnorm[colnorm == 0] = 1.0
    N, M = Phi.shape
    # the power iteration runs on the first two blocks, before -y and the step go in
    Kaug = np.empty((N, M + L.shape[1] + 1))
    np.divide(Phi, colnorm, out=Kaug[:, :M])
    Kaug[:, M:-1] = L
    Kmat = Kaug[:, :-1]

    rng = np.random.default_rng(0)
    vec = rng.standard_normal(Kmat.shape[1])
    for _ in range(100):
        vec = Kmat.T @ (Kmat @ vec)
        vec /= np.linalg.norm(vec)
    opnorm = math.sqrt(float(vec @ (Kmat.T @ (Kmat @ vec))))
    step = 0.99 / max(opnorm, 1e-12)
    Kaug[:, -1] = -y
    Kaug *= step
    KaugT = Kaug.T

    Lpinv = np.linalg.pinv(L)

    def dual_value(lam_raw: np.ndarray) -> float:
        lam_f = lam_raw - L @ (Lpinv @ lam_raw)
        scale = float(np.abs(Phi.T @ lam_f).max())
        if scale > 1.0:
            lam_f = lam_f / scale
        return float(-y @ lam_f - tau_in * np.abs(lam_f).sum())

    # soft-threshold(u, t) = u - clip(u, -t, t); t = 0 leaves the free z entries alone.
    # Every threshold is an array: minimum/maximum would convert a Python float per call
    lam_t = np.full(N, step * tau_in)
    neg_lam_t = -lam_t
    weights = 1.0 / colnorm  # l1 weights of the equilibrated variables
    x_t = np.zeros(Kaug.shape[1])
    x_t[:M] = step * weights
    neg_x_t = -x_t

    # the last entry of x, x_old and v is scratch; x_bar's is the 1 that picks up -step y
    x, x_old, x_bar, v = (np.zeros(Kaug.shape[1]) for _ in range(4))
    lam, u = np.zeros(N), np.empty(N)
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        x_bar[-1] = 1.0
        Kaug.dot(x_bar, u)
        np.add(u, lam, u)
        np.minimum(u, lam_t, out=lam)
        np.maximum(lam, neg_lam_t, out=lam)
        np.subtract(u, lam, lam)
        x, x_old = x_old, x
        KaugT.dot(lam, v)
        np.subtract(x_old, v, v)
        np.minimum(v, x_t, out=x)
        np.maximum(x, neg_x_t, out=x)
        np.subtract(v, x, x)
        np.add(x, x, x_bar)
        np.subtract(x_bar, x_old, x_bar)
        if it % GAP_CHECK_EVERY == 0:
            x[-1] = 1.0
            resid = float(np.abs(Kaug @ x).max()) / step
            primal = float((weights * np.abs(x[:M])).sum())
            gap = primal - dual_value(lam)
            if resid <= tau and gap <= gap_tol:
                break

    a_true = x[:M] / colnorm
    z = x[M:-1].copy()
    resid = float(np.abs(Phi @ a_true + L @ z - y).max())
    converged = gap <= gap_tol and resid <= tau
    return _result_from_weights(p, a_true, z, resid, gap, it, converged)


def lp_oracle(p: FitProblem) -> float:
    """Exact LP value of the same discretized program (independent of the solver).

    Equality form, solved by HiGHS: min sum(a+ + a-) subject to
    Psi (a+ - a-) + L z - s = y with a+, a- >= 0, z free and s in [-tol, tol]
    (s = 0, exact interpolation, at tol 0).
    """
    from scipy.optimize import linprog

    Phi, L = build_dictionary(p)
    N, M = Phi.shape
    nz = L.shape[1]
    cost = np.concatenate([np.ones(2 * M), np.zeros(nz + N)])
    A_eq = np.concatenate([Phi, -Phi, L, -np.eye(N)], axis=1)
    del Phi
    bounds = [(0, None)] * (2 * M) + [(None, None)] * nz + [(-p.tol, p.tol)] * N
    res = linprog(cost, A_eq=A_eq, b_eq=p.y, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def refinement_levels(
    p: FitProblem, levels: int, target=None, seed: int = 0, radius: float | None = None
) -> list[FitProblem]:
    """The problems of a refinement study: level l has K 2**l angles and (J-1) 2**l + 1 offsets.

    When a target callable is given, the sample set is refined alongside the
    dictionary: one pool of points is drawn in the disc of the base problem's
    sample radius (or this radius), and level l uses the first N * 2**l of
    them (nested prefixes keep the trajectory comparable across levels).  With
    a fixed sample set and nested dictionaries the minimum could only decrease,
    which would hide infinite-norm blow-up.  Every level is built, and so
    checked against the dictionary budget, before the caller solves any.
    """
    if levels < 2:
        raise ValueError("need at least 2 refinement levels")
    N = p.X.shape[0]
    if target is not None:
        # the pool is the last level's sample set: check the budget before drawing it, level
        # by level, so that a huge count fails at the first level over it
        for level in range(levels):
            check_dictionary_size(N * 2**level, p.K * 2**level, (p.J - 1) * 2**level + 1)
        if radius is None:
            radius = float(np.linalg.norm(p.X, axis=1).max())
        pool = disc_samples(N * 2 ** (levels - 1), radius, seed)
    out = []
    for level in range(levels):
        X = p.X if target is None else pool[: N * 2**level]
        y = p.y if target is None else target(X)
        out.append(replace(p, X=X, y=y, K=p.K * 2**level, J=(p.J - 1) * 2**level + 1))
    return out
