"""Independent recomputations that the workload checks compare against.

Nothing here calls affinetl's numerics: Gram matrices come from
``scipy.spatial.distance.cdist``, linear systems from ``numpy.linalg.solve``
and spectra from ``numpy.linalg.eigvalsh``.  Only the experiment protocols
(seeds, splits, grids) are taken from the package, since they define which
computation the program was asked to do.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist


def rbf(A, B, ell: float) -> np.ndarray:
    A = np.asarray(A, dtype=float).reshape(len(A), -1)
    B = np.asarray(B, dtype=float).reshape(len(B), -1)
    return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * ell * ell))


def rmse(yhat, y) -> float:
    d = np.asarray(yhat, dtype=float) - np.asarray(y, dtype=float)
    return float(np.sqrt(np.mean(d * d)))


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


# --------------------------------------------------------------- kernel ridge

def krr_predictions(Ztr, ytr, Zte, ell: float, shrinks) -> np.ndarray:
    """Test predictions of (K + s I)^{-1} y for every shrink s: (S, n_test)."""
    K = rbf(Ztr, Ztr, ell)
    m = K.shape[0]
    shrinks = np.asarray(shrinks, dtype=float)
    A = K[None, :, :] + shrinks[:, None, None] * np.eye(m)[None]
    rhs = np.broadcast_to(np.asarray(ytr, dtype=float)[None, :, None], (len(shrinks), m, 1))
    coef = np.linalg.solve(A, rhs)[..., 0]
    return coef @ rbf(Zte, Ztr, ell).T


def cv_scores(predict_fold, folds, y, n_points: int) -> np.ndarray:
    """Mean fold RMSE per grid point; ``predict_fold(train, test)`` returns
    (n_points, n_test) predictions, or None where the fitter would raise."""
    scores = np.zeros(n_points)
    for train, test in folds:
        pred = predict_fold(train, test)
        if pred is None:
            return np.full(n_points, np.inf)
        scores += np.sqrt(np.mean((pred - y[test][None, :]) ** 2, axis=1))
    return scores / len(folds)


def tied_best(scores: np.ndarray, rel: float = 1e-9) -> list[int]:
    """Indices whose CV score is within ``rel`` of the best; index 0 when
    every point failed (the search then keeps its first point)."""
    finite = np.isfinite(scores)
    if not finite.any():
        return [0]
    best = float(np.min(scores[finite]))
    return [int(i) for i in np.flatnonzero(finite & (scores <= best + rel * abs(best)))]


# ------------------------------------------------------------- affine model

def affine_objective(a, b, c, d, K1, K2, K3, y, lams) -> float:
    """||y - yhat||^2 + sum_i lambda_i theta_i' K_i theta_i, w = K2 b + 1."""
    r = y - (K1 @ a + (K2 @ b + 1.0) * (K3 @ c) + d)
    return float(r @ r + lams[0] * a @ K1 @ a + lams[1] * b @ K2 @ b + lams[2] * c @ K3 @ c)


def constrained_optimum(K1, K3, y, lam1: float, lam3: float) -> float:
    """Minimum of ||y - K1 a - K3 c - d||^2 + lam1 a'K1a + lam3 c'K3c, the
    affine objective with g2 = 1 (b = 0), which the full model can reach.

    At a minimizer a = r / lam1 and c = r / lam3 for the residual r, which
    solves (I + K1/lam1 + K3/lam3) r + d 1 = y with 1'r = 0; the minimum is
    r'y.  This system stays well conditioned where the stacked one in
    (a, c, d) does not.
    """
    n = len(y)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.eye(n) + K1 / lam1 + K3 / lam3
    A[:n, n] = A[n, :n] = 1.0
    r = np.linalg.solve(A, np.append(y, 0.0))[:n]
    return float(r @ y)


def relative_change(new, old, guard: float = 1e-12) -> float:
    num = float(np.max(np.abs(new - old)))
    den = float(np.max(np.abs(old)))
    return num if den < guard else num / den


def affine_block_sweep(a, b, c, d, K1, K2, K3, y, lams):
    """One cyclic pass of exact a, b, c, d minimizers (full_with_intercept,
    appendix scaling), each from its normal equations."""
    n = len(y)
    eye = np.eye(n)
    u = K3 @ c
    a = np.linalg.solve(K1 + lams[0] * eye, y - (K2 @ b + 1.0) * u - d)
    t = y - K1 @ a - u - d
    b = np.linalg.solve(u[:, None] ** 2 * K2 + lams[1] * eye, u * t)
    w = K2 @ b + 1.0
    t = y - K1 @ a - d
    c = np.linalg.solve(w[:, None] ** 2 * K3 + lams[2] * eye, w * t)
    d = float(np.mean(y - K1 @ a - w * (K3 @ c)))
    return a, b, c, d


# -------------------------------------------------------------- calibration

def fused_penalty(block_sizes, l1: float, l2: float) -> np.ndarray:
    """l1 I + l2 D'D, D the first differences inside each descriptor block."""
    p = int(sum(block_sizes))
    D = np.zeros((p, p))
    start = 0
    for size in block_sizes:
        for j in range(start, start + size - 1):
            D[j, j], D[j, j + 1] = -1.0, 1.0
        start += size
    return l1 * np.eye(p) + l2 * (D.T @ D)


def calibration_objective(alpha0, alpha1, beta, gamma, X, fs, y, l_beta, penalty) -> float:
    r = y - (alpha0 + alpha1 * fs - (beta * fs + 1.0) * (X @ gamma))
    return float(r @ r) / len(y) + l_beta * beta * beta + float(gamma @ penalty @ gamma)


def calibration_initializer(X, fs, y, penalty):
    """The line fit and the residual ridge fit the full model starts from:
    (alpha0, alpha1, beta = 0, gamma = -gamma_diff)."""
    slope, intercept = np.polyfit(fs, y, 1)
    gamma_diff = np.linalg.solve(X.T @ X + penalty, X.T @ (y - fs))
    return float(intercept), float(slope), 0.0, -gamma_diff


# ------------------------------------------------------------------ spectral

def overlap_samples(seed: int, d: int, ambient_dim: int, n_bases: int, n_samples: int):
    """The (X, Fs) pair of one overlap repeat, drawn in the documented order:
    frame, x coefficients, fs coefficients, shared and extra directions."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((ambient_dim, ambient_dim)))
    coeff_x = rng.standard_normal((n_samples, n_bases))
    coeff_fs = rng.standard_normal((n_samples, n_bases))
    shared = rng.choice(n_bases, size=d, replace=False).astype(int)
    extra = n_bases + rng.choice(ambient_dim - n_bases, size=n_bases - d, replace=False).astype(int)
    X = coeff_x @ Q[:, :n_bases].T
    Fs = coeff_x[:, shared] @ Q[:, shared].T + coeff_fs[:, : n_bases - d] @ Q[:, extra].T
    return X, Fs


def decay_violations(K, s: float, floor: float, eig_tol: float = 1e-10) -> list[str]:
    """Problems with ``s`` as the decay rate of K.

    After rescaling by the largest diagonal entry, lambda_i <= ||K||_F^2
    i^(-1/s) must hold for every i >= 2 whose eigenvalue is above
    ``eig_tol`` times the largest, and, unless ``s`` sits at the floor, fail
    for some such i at s (1 - 1e-6).
    """
    if not (floor <= s <= 1.0):
        return [f"s = {s!r} outside [{floor}, 1]"]
    A = K / np.max(np.diag(K))
    lam = np.clip(np.linalg.eigvalsh(A)[::-1], 0.0, None)
    fro2 = float(np.sum(A * A))
    i = np.arange(1, lam.size + 1, dtype=float)
    keep = (i >= 2) & (lam > eig_tol * lam[0])
    lam, i = lam[keep], i[keep]

    def bound(exponent):
        return fro2 * i ** (-1.0 / exponent)

    problems = []
    if np.any(lam > bound(s) * (1.0 + 1e-9)):
        problems.append(f"inequality fails at s = {s!r}")
    if s > floor and lam.size and not np.any(lam > bound(s * (1.0 - 1e-6))):
        problems.append(f"s = {s!r} is not the smallest exponent")
    return problems

