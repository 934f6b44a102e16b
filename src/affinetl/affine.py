"""Affine transfer estimator: g1(fs) + g2(fs) * g3(x), fit by block relaxation.

All three component functions live in RKHSs, so the fitted predictor is
parameterized by dual coefficient vectors ``a``, ``b``, ``c`` over the
training rows (plus an optional intercept ``d``):

    yhat = K1 a + w o (K3 c) + d,     w = K2 b           (variant "full")
                                      w = K2 b + 1       (other variants)

``o`` is the elementwise product.  Three variants are supported:

* ``full``:                w = K2 b, no intercept; cyclic updates of a, b, c.
* ``full_with_intercept``: w = K2 b + 1 with intercept d; updates a, b, c, d.
* ``constrained``:         g2 fixed at 1 (b = 0, w = 1); a, c, d solved
  jointly in closed form, no iteration.

Each block update is the exact minimizer of the objective with the other
blocks held fixed, so the per-iteration objective sequence is nonincreasing.

``scale_convention`` selects how regularization weights enter the solves:
``eqn3`` minimizes (1/n)||r||^2 + sum_i lambda_i theta^T K_i theta (the
lambdas meet the diagonal as n*lambda), while ``appendix`` minimizes
||r||^2 + sum_i lambda_i theta^T K_i theta (plain lambda on the diagonal).
``objective`` reports the form matching the convention, so fitted traces are
monotone under either one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, _as_samples, gram
from .solvers import factor_spd, solve_factored, solve_spd

__all__ = [
    "FitConfig",
    "AffineTLModel",
    "FitTrace",
    "alternate",
    "objective",
    "update_block",
    "fit",
    "fit_constrained",
    "predict",
]

_VARIANTS = ("full", "full_with_intercept", "constrained")
_CONVENTIONS = ("eqn3", "appendix")

# Stopping-criterion guard: blocks whose old iterate is essentially zero are
# compared by absolute update size instead of the undefined ratio.
_RATIO_GUARD = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters and controls for :func:`fit`."""

    lambda1: float
    lambda2: float
    lambda3: float
    variant: str = "full"
    tol: float = 1e-4
    max_iter: int = 1000
    seed: int = 0
    scale_convention: str = "eqn3"

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.scale_convention not in _CONVENTIONS:
            raise ValueError(
                f"scale_convention must be one of {_CONVENTIONS}, got {self.scale_convention!r}"
            )
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def shrink(self, lam: float, n: int) -> float:
        """The diagonal weight a lambda contributes inside a block solve."""
        return lam * n if self.scale_convention == "eqn3" else lam


@dataclass
class AffineTLModel:
    """A fitted affine transfer predictor (immutable after fitting)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    train_X: np.ndarray
    train_Fs: np.ndarray
    specs: tuple[KernelSpec, KernelSpec, KernelSpec]
    variant: str


@dataclass
class FitTrace:
    """Per-iteration objective values and convergence metadata."""

    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    final_update_ratio: float = float("nan")


def _unit_offset(variant: str) -> bool:
    return variant in ("full_with_intercept", "constrained")


def _check_vectors(K1, K2, K3, y, a, b, c):
    n = y.shape[0]
    for name, arr in (("a", a), ("b", b), ("c", c), ("y", y)):
        if arr.ndim != 1 or arr.shape[0] != n:
            raise ValueError(f"{name} must be a length-{n} vector, got shape {arr.shape}")
    for name, K in (("K1", K1), ("K2", K2), ("K3", K3)):
        if K.shape != (n, n):
            raise ValueError(f"{name} must be {n}x{n}, got {K.shape}")


def _combine(K1a, K2b, K3c, d, variant: str) -> np.ndarray:
    """K1 a + w o (K3 c) + d from the products; K2b is None when g2 is 1."""
    if K2b is None:
        w = 1.0
    else:
        w = K2b
        if _unit_offset(variant):
            w = w + 1.0
    return K1a + w * K3c + d


def _fitted_values(a, b, c, d, K1, K2, K3, variant: str) -> np.ndarray:
    """Predictions from Grams (or cross-Grams against the training rows);
    K2 is None for the constrained variant, whose g2 is 1."""
    return _combine(K1 @ a, None if K2 is None else K2 @ b, K3 @ c, d, variant)


def _grams(specs, variant: str, X, Fs, X2=None, Fs2=None):
    """(K1, K2, K3) between the rows of (X, Fs) and those of (X2, Fs2), or
    among the rows of (X, Fs) when those are omitted.  K2 is None for the
    constrained variant, which never needs g2's Gram, and K1 itself when g1
    and g2 share a kernel: nothing writes into a Gram."""
    spec1, spec2, spec3 = specs
    K1 = gram(spec1, Fs, Fs2)
    if variant == "constrained":
        K2 = None
    else:
        K2 = K1 if spec2 == spec1 else gram(spec2, Fs, Fs2)
    return K1, K2, gram(spec3, X, X2)


def _objective(a, b, c, d, K1a, K2b, K3c, y, config: FitConfig) -> float:
    """The objective given the products K1 a, K2 b and K3 c."""
    r = y - _combine(K1a, K2b, K3c, d, config.variant)
    loss = float(r @ r)
    if config.scale_convention == "eqn3":
        loss /= y.shape[0]
    return (
        loss
        + config.lambda1 * float(a @ K1a)
        + config.lambda2 * float(b @ K2b)
        + config.lambda3 * float(c @ K3c)
    )


def _as_arrays(a, b, c, K1, K2, K3, y):
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    K1, K2, K3 = (np.asarray(K, dtype=float) for K in (K1, K2, K3))
    y = np.asarray(y, dtype=float)
    _check_vectors(K1, K2, K3, y, a, b, c)
    return a, b, c, K1, K2, K3, y


def objective(a, b, c, d: float, K1, K2, K3, y, config: FitConfig) -> float:
    """Regularized empirical risk at the given dual coefficients.

    Returns loss_scale * ||y - yhat||^2 + lambda1 a'K1a + lambda2 b'K2b
    + lambda3 c'K3c with loss_scale = 1/n under ``eqn3`` and 1 under
    ``appendix``; yhat follows the config's variant.
    """
    a, b, c, K1, K2, K3, y = _as_arrays(a, b, c, K1, K2, K3, y)
    if config.variant == "full" and d != 0.0:
        raise ValueError("variant 'full' has no intercept; d must be 0")
    return _objective(a, b, c, d, K1 @ a, K2 @ b, K3 @ c, y, config)


def _offset(variant: str) -> float:
    """The constant added to K2 b in g2: 1 with an intercept, 0 for ``full``."""
    return 1.0 if _unit_offset(variant) else 0.0


def _shrink_eye(config: FitConfig, lam: float, n: int) -> np.ndarray:
    return config.shrink(lam, n) * np.eye(n)


def _a_factor(K1, config: FitConfig):
    """Factor of K1 + s1 I, the a-step's system: it does not change between
    sweeps, so a fit factors it once."""
    return factor_spd(K1 + _shrink_eye(config, config.lambda1, K1.shape[0]))


def _scaled_ridge(K, shrink_eye, weights, target):
    """Exact minimizer x of the block problem whose normal equations read
    (diag(weights)^2 K + shrink I) x = diag(weights) target.

    Solved as weights o (diag(w) K diag(w) + shrink I)^{-1} target, which is
    the same vector but keeps the factored matrix symmetric PSD.
    """
    factored = factor_spd(K * np.multiply.outer(weights, weights) + shrink_eye)
    return weights * solve_factored(factored, target)


# Block kernels: the exact minimizer of one block given the products K1 a,
# K2 b, K3 c of the current state, the a-step's factor and the b- and
# c-steps' shrink * I.  ``fit`` forms all of these once per fit (the
# products once per block update); ``update_block`` forms them per call.

def _a_step(a_factor, y, d, K2b, K3c, offset):
    return solve_factored(a_factor, y - (K2b + offset) * K3c - d)


def _b_step(K2, shrink_eye, y, d, K1a, K3c, offset):
    return _scaled_ridge(K2, shrink_eye, K3c, y - K1a - offset * K3c - d)


def _c_step(K3, shrink_eye, y, d, K1a, K2b, offset):
    return _scaled_ridge(K3, shrink_eye, K2b + offset, y - K1a - d)


def _d_step(y, K1a, K2b, K3c, offset):
    r = y - K1a - (K2b + offset) * K3c
    return float(r.sum()) / r.shape[0]  # np.mean's value, without its dispatch


def update_block(which: str, state, K1, K2, K3, y, config: FitConfig):
    """Exact minimizer of the objective over one block, others fixed.

    ``state`` is the current (a, b, c, d); returns the new value of the
    requested block (a vector for a/b/c, a float for d).
    """
    a, b, c, d = state
    a, b, c, K1, K2, K3, y = _as_arrays(a, b, c, K1, K2, K3, y)
    if config.variant == "constrained":
        raise ValueError("variant 'constrained' is solved jointly; no block updates")
    if which not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown block {which!r}")
    if which == "d" and config.variant == "full":
        raise ValueError("variant 'full' has no intercept block")
    n = y.shape[0]
    offset = _offset(config.variant)
    K1a, K2b, K3c = K1 @ a, K2 @ b, K3 @ c
    if which == "a":
        return _a_step(_a_factor(K1, config), y, d, K2b, K3c, offset)
    if which == "b":
        return _b_step(K2, _shrink_eye(config, config.lambda2, n), y, d, K1a, K3c, offset)
    if which == "c":
        return _c_step(K3, _shrink_eye(config, config.lambda3, n), y, d, K1a, K2b, offset)
    return _d_step(y, K1a, K2b, K3c, offset)


def fit_constrained(K1, K3, y, lambda1: float, lambda3: float):
    """Joint closed-form solution for the g2 = 1 variant.

    Minimizes ||y - K1 a - K3 c - d||^2 + lambda1 a'K1a + lambda3 c'K3c.
    At a minimizer a = r / lambda1 and c = r / lambda3 for the residual r,
    which solves the (n+1) system

        (I + K1/lambda1 + K3/lambda3) r + d 1 = y,    1'r = 0.

    With M = I + K1/lambda1 + K3/lambda3 (SPD, eigenvalues >= 1), r = u - d v
    for M u = y, M v = 1 and d = 1'u / 1'v.  Unlike the stacked (2n+1)
    normal equations in (a, c, d), this stays well conditioned for small
    lambdas.  Returns (a, c, d).
    """
    K1 = np.asarray(K1, dtype=float)
    K3 = np.asarray(K3, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if K1.shape != (n, n) or K3.shape != (n, n):
        raise ValueError("K1, K3 must be n x n matching y")
    M = np.eye(n) + K1 / lambda1 + K3 / lambda3
    u, v = solve_spd(M, np.column_stack([y, np.ones(n)])).T
    d = float(u.sum() / v.sum())
    r = u - d * v
    return r / lambda1, r / lambda3, d


def _update_ratio(new, old) -> float:
    """max|new - old| / max|old|, or the absolute change when old is
    essentially zero; blocks may be arrays or Python floats."""
    num = float(np.abs(new - old).max())
    den = float(np.abs(old).max())
    return num if den < _RATIO_GUARD else num / den


def alternate(sweep, objective_of, state: tuple, tol: float, max_iter: int,
              watched: int) -> tuple[tuple, FitTrace]:
    """Alternating exact block minimization, the driver of :func:`fit`.

    ``sweep(state)`` returns the state after one pass of block updates and
    ``objective_of(state)`` its objective.  Sweeps run until the largest
    relative change over the first ``watched`` blocks of the state (a block
    whose old value is essentially zero counts its absolute change) drops
    below ``tol``, or ``max_iter`` sweeps have run.  Returns the final state
    and its trace: the objective before the first sweep and after each one.
    """
    trace = FitTrace([objective_of(state)])
    ratio = float("inf")
    for _ in range(max_iter):
        new = sweep(state)
        ratio = max(_update_ratio(new[i], state[i]) for i in range(watched))
        state = new
        trace.objectives.append(objective_of(state))
        trace.iterations += 1
        if ratio < tol:
            trace.converged = True
            break
    trace.final_update_ratio = ratio
    return state, trace


def fit(config: FitConfig, X, Fs, y, specs) -> tuple[AffineTLModel, FitTrace]:
    """Fit the affine transfer model on training data.

    ``specs`` is the (k1, k2, k3) kernel triple; k1 and k2 act on the source
    features, k3 on the raw inputs.  Cyclic exact block updates run under
    :func:`alternate` until the largest relative coefficient change across
    a, b, c drops below ``config.tol`` or ``config.max_iter`` is reached.
    The constrained variant is solved in one shot, without g2's Gram.
    """
    X, Fs, y = _as_samples({"X": X, "Fs": Fs}, {"y": y})
    if y.shape[0] < 2:
        raise ValueError("need at least two training rows")
    specs = tuple(specs)
    (a, b, c, d), trace = _fit_grams(config, *_grams(specs, config.variant, X, Fs), y)
    return AffineTLModel(a, b, c, d, X, Fs, specs, config.variant), trace


def _fit_grams(config: FitConfig, K1, K2, K3, y):
    """``fit`` on validated inputs given as their Grams (K2 None for the
    constrained variant); returns ((a, b, c, d), trace)."""
    n = y.shape[0]
    if config.variant == "constrained":
        a, c, d = fit_constrained(
            K1, K3, y, config.shrink(config.lambda1, n), config.shrink(config.lambda3, n)
        )
        b = np.zeros(n)
        # b = 0, so K2 enters neither the fit nor the objective.
        obj = _objective(a, b, c, d, K1 @ a, np.zeros(n), K3 @ c, y, config)
        return (a, b, c, d), FitTrace([obj], iterations=0, converged=True,
                                      final_update_ratio=0.0)

    rng = np.random.default_rng(config.seed)
    a_factor = _a_factor(K1, config)
    a = solve_factored(a_factor, y)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    d = 0.5 if config.variant == "full_with_intercept" else 0.0

    # The state carries K1 a, K2 b and K3 c after (a, b, c, d): each product
    # is formed once, right after its block's update, and the later blocks,
    # the d-step and the objective reuse it.  The inputs are validated by
    # ``fit``, so the sweep calls the block kernels directly rather than the
    # validating update_block/objective.
    offset = _offset(config.variant)
    S2 = _shrink_eye(config, config.lambda2, n)
    S3 = _shrink_eye(config, config.lambda3, n)

    def sweep(state):
        a, b, c, d, K1a, K2b, K3c = state
        a = _a_step(a_factor, y, d, K2b, K3c, offset)
        K1a = K1 @ a
        b = _b_step(K2, S2, y, d, K1a, K3c, offset)
        K2b = K2 @ b
        c = _c_step(K3, S3, y, d, K1a, K2b, offset)
        K3c = K3 @ c
        if config.variant == "full_with_intercept":
            d = _d_step(y, K1a, K2b, K3c, offset)
        return a, b, c, d, K1a, K2b, K3c

    state, trace = alternate(
        sweep, lambda s: _objective(*s, y, config), (a, b, c, d, K1 @ a, K2 @ b, K3 @ c),
        config.tol, config.max_iter, watched=3,
    )
    return state[:4], trace


def predict(model: AffineTLModel, Xnew, FsNew) -> np.ndarray:
    """Predict at new rows using cross-Gram matrices against the training set."""
    Xnew, FsNew = _as_samples({"Xnew": Xnew, "FsNew": FsNew})
    grams = _grams(model.specs, model.variant, Xnew, FsNew, model.train_X, model.train_Fs)
    return _fitted_values(model.a, model.b, model.c, model.d, *grams, model.variant)
