"""Linear calibration of a simulated property against measured values.

The full model maps a scalar simulator output fs and a blocked descriptor
vector x to

    yhat = alpha0 + alpha1 * fs - (beta * fs + 1) * (x' gamma),

with gamma regularized by a block-fused quadratic penalty: a ridge term plus
a smoothness term on differences of adjacent coefficients inside each
descriptor block (no penalty across block boundaries).  Two reference
models bracket it: plain linear regression on fs alone, and a ridge fit of
gamma on the residual y - fs.

Given beta the full model is linear in (alpha, gamma), so it is fit by a
search over beta alone on the profile f(beta), the objective minimized over
(alpha, gamma) at that beta (variable projection: Golub & Pereyra, 1973).
As f(beta) >= l_beta beta^2, |beta| <= sqrt(f(0) / l_beta) brackets the
minimizer, which needs l_beta > 0.  A fit's ``iterations`` count profile
evaluations, and ``converged`` means the bracket closed to ``tol``.

The penalty is Lambda = l1 I + l2 T for the layout's fixed path Laplacian T,
so one eigendecomposition T = V diag(mu) V' diagonalizes it for every
(l1, l2).  With more descriptors than rows, the gamma solves run in the
dual: an n x n system on G = X Lambda^{-1} X' replaces the p x p normal
equations, which needs Lambda positive definite, i.e. l1 > 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .affine import FitTrace
from .kernels import _as_samples
from .model_selection import CALIBRATION_GRID, child_seed, grid_search_cv, pointwise, rmse
from .solvers import factor_spd, penalized_ls, solve_factored, solve_spd

if TYPE_CHECKING:
    from .data import Dataset

__all__ = [
    "BlockLayout",
    "CalibrationModel",
    "default_layout",
    "build_fused_penalty",
    "fit_olr",
    "fit_log_difference",
    "fit_calibration",
    "predict_calibration",
    "run_calibration_experiment",
]

# Descriptor blocks: ten families of force-field parameters, the atomic-mass
# histogram on 10 grid points and the rest on 20.
_DEFAULT_BLOCKS = (
    ("mass", 10),
    ("sigma", 20),
    ("epsilon", 20),
    ("charge", 20),
    ("r0", 20),
    ("K_bond", 20),
    ("polar", 20),
    ("theta0", 20),
    ("K_angle", 20),
    ("K_dih", 20),
)


@dataclass(frozen=True)
class BlockLayout:
    """Ordered (name, size) blocks partitioning the descriptor vector."""

    blocks: tuple[tuple[str, int], ...]

    def __post_init__(self):
        blocks = tuple((str(n), int(s)) for n, s in self.blocks)
        if not blocks:
            raise ValueError("layout needs at least one block")
        for name, size in blocks:
            if size < 2:
                raise ValueError(f"block {name!r} has size {size}; need >= 2")
        object.__setattr__(self, "blocks", blocks)

    @property
    def total(self) -> int:
        return sum(s for _, s in self.blocks)

    def boundaries(self) -> list[int]:
        """Cumulative end index of each block except the last."""
        ends = np.cumsum([s for _, s in self.blocks])[:-1]
        return [int(e) for e in ends]


def default_layout() -> BlockLayout:
    return BlockLayout(_DEFAULT_BLOCKS)


@dataclass
class CalibrationModel:
    alpha0: float
    alpha1: float
    beta: float
    gamma: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.gamma.shape != (self.layout.total,):
            raise ValueError(
                f"gamma length {self.gamma.shape} does not match layout total {self.layout.total}"
            )


def _path_laplacian(layout: BlockLayout) -> np.ndarray:
    """Block-diagonal path Laplacian: 1 on the diagonal at block ends, 2
    inside a block, -1 between neighbours that share a block."""
    same = np.ones(layout.total - 1)  # 1 where coefficients i and i + 1 share a block
    same[[m - 1 for m in layout.boundaries()]] = 0.0
    return np.diag(np.r_[same, 0.0] + np.r_[0.0, same]) - np.diag(same, 1) - np.diag(same, -1)


def build_fused_penalty(layout: BlockLayout, l1: float, l2: float) -> np.ndarray:
    """Symmetric PSD penalty Lambda with gamma' Lambda gamma = l1 ||gamma||^2
    + l2 * (sum of squared within-block first differences).

    The difference term is the layout's block-diagonal path Laplacian.
    """
    if l1 < 0 or l2 < 0:
        raise ValueError("penalty weights must be nonnegative")
    return l1 * np.eye(layout.total) + l2 * _path_laplacian(layout)


@functools.lru_cache(maxsize=8)
def _laplacian_eigenbasis(layout: BlockLayout) -> tuple[np.ndarray, np.ndarray]:
    """(mu, V) with path Laplacian T = V diag(mu) V'; mu is clipped at 0, so
    l1 + l2 mu >= l1 are the eigenvalues of the penalty with weights l1, l2.
    Taken once per layout and shared, so both arrays are read-only."""
    mu, V = np.linalg.eigh(_path_laplacian(layout))
    mu = np.maximum(mu, 0.0)
    mu.flags.writeable = V.flags.writeable = False
    return mu, V


def fit_olr(fs, y) -> tuple[float, float]:
    """Unregularized least-squares line y ~ alpha0 + alpha1 * fs."""
    fs, y = _as_samples({}, {"fs": fs, "y": y})
    if fs.size < 2:
        raise ValueError("need at least two rows")
    if np.ptp(fs) == 0.0:
        raise ValueError("fs is constant; the slope is unidentifiable")
    F = np.column_stack([np.ones_like(fs), fs])
    alpha = solve_spd(F.T @ F, F.T @ y)
    return float(alpha[0]), float(alpha[1])


def fit_log_difference(X, fs, y, l1: float, l2: float, layout: BlockLayout) -> np.ndarray:
    """Ridge + fused fit of gamma on the residual target y - fs.

    The fitted reference model predicts yhat = fs + x' gamma_diff; note the
    full model subtracts its x' gamma term instead, so the corresponding
    initializer there is -gamma_diff.
    """
    X, fs, y = _as_samples({"X": X}, {"fs": fs, "y": y})
    return penalized_ls(X, y - fs, build_fused_penalty(layout, l1, l2))


def _check_calibration_inputs(X, fs, y, layout):
    X, fs, y = _as_samples({"X": X}, {"fs": fs, "y": y})
    if X.shape[1] != layout.total:
        raise ValueError(f"X must be n x {layout.total} for this layout, got {X.shape}")
    return X, fs, y


def calibration_objective(
    alpha0, alpha1, beta, gamma, X, fs, y, l_beta, l1, l2, layout
) -> float:
    """(1/n) ||y - yhat||^2 + l_beta beta^2 + gamma' Lambda gamma."""
    X, fs, y = _check_calibration_inputs(X, fs, y, layout)
    gamma = np.asarray(gamma, dtype=float).ravel()
    r = y - (alpha0 + alpha1 * fs - (beta * fs + 1.0) * (X @ gamma))
    lam = build_fused_penalty(layout, l1, l2)
    return float(r @ r) / y.shape[0] + l_beta * beta**2 + float(gamma @ (lam @ gamma))


def _dual_gamma_basis(X, layout, l1, l2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """G0 = X Lambda^{-1} X', Lambda^{-1} X' for Lambda = l1 I + l2 T, from
    one eigendecomposition of the path Laplacian T, and n I: the parts of
    the profile that stay fixed across a fit."""
    if not l1 > 0:
        raise ValueError(f"l1 must be positive for the dual gamma solve, got {l1}")
    mu, V = _laplacian_eigenbasis(layout)
    XV = X @ V
    XVd = XV / (l1 + l2 * mu)
    n = X.shape[0]
    return XVd @ XV.T, V @ XVd.T, n * np.eye(n)


def _profile(beta, basis, F, fs, y, l_beta) -> tuple[float, np.ndarray, np.ndarray]:
    """(f(beta), alpha, gamma): the objective minimized over (alpha, gamma) at
    beta, and the minimizer.  With w = beta fs + 1 and ``basis`` (G0,
    Lambda^{-1} X', n I), alpha fits y on F = [1, fs] by least squares
    weighted by M^{-1}, M = (w w') o G0 + n I, and gamma = -Lambda^{-1} X'
    (w o theta) for theta = M^{-1} (y - F alpha); then the residual is
    n theta, and the loss plus the penalty on gamma is (y - F alpha)' theta."""
    G0, lam_inv_xt, n_eye = basis
    w = beta * fs + 1.0
    solved = solve_factored(factor_spd(np.multiply.outer(w, w) * G0 + n_eye),
                            np.column_stack([y, F]))
    alpha = solve_spd(F.T @ solved[:, 1:], F.T @ solved[:, 0])
    theta = solved[:, 0] - solved[:, 1:] @ alpha
    value = float((y - F @ alpha) @ theta) + l_beta * beta**2
    return value, alpha, -(lam_inv_xt @ (w * theta))


_GRID_POINTS = 33  # odd, so that beta = 0 is the middle one
_GOLDEN = (3.0 - 5.0**0.5) / 2.0  # the golden section's shorter part


def _golden_section(f, a, b, x, fx, tol) -> None:
    """Golden-section search for a minimum of f on [a, b] from x in it, with
    f(x) = fx, until the bracket is at most tol (1 + |x|) wide."""
    while b - a > tol * (1.0 + abs(x)):
        u = x + _GOLDEN * ((b - x) if b - x > x - a else (a - x))
        fu = f(u)
        if fu < fx:
            a, b = (x, b) if u > x else (a, x)
            x, fx = u, fu
        else:
            a, b = (a, u) if u > x else (u, b)


class _OutOfEvaluations(Exception):
    """A fit has spent its ``max_iter`` profile evaluations."""


def fit_calibration(
    X,
    fs,
    y,
    l1: float,
    l2: float,
    l_beta: float = 1.0,
    layout: BlockLayout | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> tuple[CalibrationModel, FitTrace]:
    """Fit the full calibration model by a search over beta on its profile.

    One evaluation of the profile f(beta) is one n x n dual solve
    (:func:`_profile`).  The search evaluates f at 33 evenly spaced points
    of |beta| <= sqrt(f(0) / l_beta), f(0) first, then narrows the best
    one's neighbourhood by golden sections to a width of tol (1 + |beta|),
    and returns the best point evaluated.  The trace holds the best value
    after each evaluation; ``converged`` says the bracket closed within
    ``max_iter`` evaluations.  ``l_beta`` must be positive and finite,
    ``l1`` positive, and ``fs`` not constant.
    """
    if layout is None:
        layout = default_layout()
    X, fs, y = _check_calibration_inputs(X, fs, y, layout)
    if y.shape[0] < 3:
        raise ValueError("need at least three rows")
    if not 0.0 < l_beta < np.inf:
        raise ValueError(f"l_beta must be positive and finite, got {l_beta}")
    if not (tol > 0 and max_iter >= 1):
        raise ValueError(f"need tol > 0 and max_iter >= 1, got {tol} and {max_iter}")
    if np.ptp(fs) == 0.0:
        raise ValueError("fs is constant; the slope is unidentifiable")
    basis = _dual_gamma_basis(X, layout, l1, l2)
    F = np.column_stack([np.ones_like(fs), fs])
    trace = FitTrace()
    points = []  # (f(beta), beta, alpha, gamma) per evaluation

    def profile(beta):
        if trace.iterations == max_iter:
            raise _OutOfEvaluations
        value, alpha, gamma = _profile(beta, basis, F, fs, y, l_beta)
        points.append((value, beta, alpha, gamma))
        trace.objectives.append(min([value, *trace.objectives[-1:]]))
        trace.iterations += 1
        return value

    try:
        f0 = profile(0.0)
        grid = np.sqrt(f0 / l_beta) * np.linspace(-1.0, 1.0, _GRID_POINTS)
        values = [f0 if beta == 0.0 else profile(beta) for beta in grid]
        k = int(np.argmin(values))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        _golden_section(profile, lo, hi, grid[k], values[k], tol)
        trace.converged = True
    except _OutOfEvaluations:
        pass
    _, beta, alpha, gamma = min(points, key=lambda point: point[0])
    return CalibrationModel(float(alpha[0]), float(alpha[1]), float(beta), gamma, layout), trace


def predict_calibration(model: CalibrationModel, X, fs) -> np.ndarray:
    """alpha0 + alpha1 fs - (beta fs + 1) o (X gamma), elementwise."""
    X, fs = _as_samples({"X": X}, {"fs": fs})
    if X.shape[1] != model.gamma.shape[0]:
        raise ValueError(f"X must have {model.gamma.shape[0]} columns, got {X.shape}")
    return model.alpha0 + model.alpha1 * fs - (model.beta * fs + 1.0) * (X @ model.gamma)


def _log_difference_fold_fitter(layout: BlockLayout, X, fs, y):
    """Fold-level fitter for ``grid_search_cv`` on the rows of (X, fs, y)
    that scores the residual model at every (l1, l2) by one n x n dual solve,

        gamma = V D^{-1} V'X' (X V D^{-1} V'X' + I)^{-1} (y - fs),  D = l1 + l2 mu,

    the same minimizer as :func:`fit_log_difference`; X V is formed once,
    and each fold takes its training and test rows from it."""
    mu, V = _laplacian_eigenbasis(layout)
    XV, z = X @ V, y - fs

    def fitter(train, test):
        XVtr, XVte = XV[train], XV[test]
        eye = np.eye(train.size)

        def predict_point(params):
            XVd = XVtr / (params["l1"] + params["l2"] * mu)
            theta = solve_spd(XVd @ XVtr.T + eye, z[train])
            return fs[test] + XVte @ (XVd.T @ theta)

        return pointwise(predict_point)

    return fitter


def _fit_full(X, fs, y, params, l_beta, layout):
    """Full model at weights quoted in the residual model's unnormalized-loss
    scale: the full objective divides the loss by n, so the weights are
    divided by the training size to mean the same amount of shrinkage."""
    n = len(y)
    return fit_calibration(X, fs, y, params["l1"] / n, params["l2"] / n,
                           l_beta=l_beta, layout=layout)


def run_calibration_experiment(ds: Dataset, seed: int, splits: int = 20,
                               train_size: int = 60, test_size: int = 10,
                               l_beta: float = 1.0, grid=CALIBRATION_GRID,
                               cv_folds: int = 5, full_cv: bool = False):
    """Fit the three calibration models over seeded train/test splits.

    Returns (rmse_rows, gamma_rows, traces): per-split RMSE for the line
    fit, the residual ridge model, and the full model, the across-split mean
    of the full model's gamma, one row per (block, index), and the full
    model's ``FitTrace`` per split.

    The fused penalty weights are cross-validated on the residual model's
    predictions each split; the full model reuses that choice unless
    ``full_cv`` asks for its own (much slower) search.  Every grid ``l1``
    must be positive and every ``l2`` nonnegative.
    """
    if splits < 1:
        raise ValueError(f"splits must be at least 1, got {splits}")
    l1s, l2s = grid.params.get("l1", ()), grid.params.get("l2", ())
    if not (l1s and l2s and min(l1s) > 0 and min(l2s) >= 0):
        raise ValueError("the calibration grid needs l1 values > 0 and l2 values >= 0")
    layout = ds.metadata.get("layout", default_layout())
    if ds.Fs.shape[1] != 1:
        raise ValueError("calibration data needs a single fs column")
    if ds.n < train_size + test_size:
        raise ValueError(f"need at least {train_size + test_size} rows for train size "
                         f"{train_size} and test size {test_size}, have {ds.n}")
    rows = []
    gammas = []
    traces = []
    for split in range(splits):
        rng = np.random.default_rng(child_seed(seed, "calibration", split))
        perm = rng.permutation(ds.n)
        tr = perm[:train_size]
        te = perm[train_size : train_size + test_size]
        train, test = ds.subset(tr), ds.subset(te)
        fs_tr, fs_te = train.Fs[:, 0], test.Fs[:, 0]

        a0, a1 = fit_olr(fs_tr, train.y)
        rows.append(("olr", split, rmse(a0 + a1 * fs_te, test.y)))

        cv = grid_search_cv(_log_difference_fold_fitter(layout, train.X, fs_tr, train.y),
                            grid, train.y, k=cv_folds,
                            seed=child_seed(seed, "calibration-cv", split))
        l1, l2 = cv.best_params["l1"], cv.best_params["l2"]
        gamma_diff = fit_log_difference(train.X, fs_tr, train.y, l1, l2, layout)
        rows.append(("log_difference", split, rmse(fs_te + test.X @ gamma_diff, test.y)))

        if full_cv:
            def full_fitter(tr, te):
                def predict_point(params):
                    model, _ = _fit_full(train.X[tr], fs_tr[tr], train.y[tr], params,
                                         l_beta, layout)
                    return predict_calibration(model, train.X[te], fs_tr[te])

                return pointwise(predict_point)

            cv = grid_search_cv(full_fitter, grid, train.y, k=cv_folds,
                                seed=child_seed(seed, "calibration-cv-full", split))
        model, trace = _fit_full(train.X, fs_tr, train.y, cv.best_params, l_beta, layout)
        rows.append(("full", split, rmse(predict_calibration(model, test.X, fs_te), test.y)))
        gammas.append(model.gamma)
        traces.append(trace)

    gamma_mean = np.mean(gammas, axis=0)
    gamma_rows = []
    pos = 0
    for name, size in layout.blocks:
        for j in range(size):
            gamma_rows.append((name, j + 1, float(gamma_mean[pos])))
            pos += 1
    return rows, gamma_rows, traces
