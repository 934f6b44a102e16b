"""Regularized symmetric linear solvers shared by all fitting routines.

Every system in this library is symmetric positive (semi-)definite, so all
solves go through a Cholesky factorization with an escalating-jitter retry
for rank-deficient matrices (duplicated sample rows make Gram matrices
exactly singular).  The factor and solve call LAPACK's ``dpotrf``/``dpotrs``
directly: most systems are small (an affine fit solves three n x n systems
per sweep), and on them the argument handling of
``scipy.linalg.cho_factor``/``cho_solve`` costs about twice the
factorization itself, for bit-identical results.  The factor step
(:func:`factor_spd`) and the solve step (:func:`solve_factored`) are also
separate, so a system that stays fixed across the sweeps of a fit is
factored once; :func:`solve_spd` composes the two.

Importing ``scipy.linalg`` takes about 0.3 s, most of the cost of
``import affinetl``, so the module does not import it when it loads:
``dpotrf`` and ``dpotrs`` are bound from ``scipy.linalg.lapack`` by the
first :func:`factor_spd` call of the process, and each later call pays
only a check of the module global.  ``import affinetl``, ``affinetl synth``
and ``affinetl --help`` never load scipy; a command that builds a Gram or
solves a system pays the import at its first call, as it did before.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SingularSystemError",
    "factor_spd",
    "solve_factored",
    "solve_spd",
    "ridge_solve",
    "penalized_ls",
]

_JITTER_ESCALATIONS = 3
_NON_FINITE = "matrix to factor has a non-finite entry"


# LAPACK's Cholesky factor and solve, bound by _bind_lapack.
dpotrf = dpotrs = None


def _bind_lapack() -> None:
    """Bind ``dpotrf``/``dpotrs`` from ``scipy.linalg.lapack``."""
    global dpotrf, dpotrs
    from scipy.linalg import lapack

    dpotrf, dpotrs = lapack.dpotrf, lapack.dpotrs


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when a system stays singular after the jitter escalations."""


def _sym(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return A


def factor_spd(A, info: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of symmetric PSD A, for :func:`solve_factored`.

    On factorization failure, retries with diagonal jitter 1e-10 * trace/n,
    escalating x10 at most three times; the jitter actually applied is
    recorded under ``info["jitter"]`` when a dict is passed.  Returns the
    lower factor and the matrix it factors (A plus the jitter), which the
    solve's refinement step multiplies by.  A matrix with a NaN or an
    infinity in its lower triangle raises a ValueError instead of giving a
    NaN factor: OpenBLAS's ``dpotrf`` can report success on one.
    """
    if dpotrf is None:
        _bind_lapack()
    A = _sym(A)
    n = A.shape[0]
    jitter = base = 0.0
    for attempt in range(_JITTER_ESCALATIONS + 1):
        M = A if jitter == 0.0 else A + jitter * np.eye(n)
        factor, status = dpotrf(M, lower=1, clean=0)
        if status < 0:
            raise ValueError(f"LAPACK dpotrf rejected argument {-status}")
        if status > 0:  # the leading minor of order `status` is not positive definite
            if attempt == 0:
                if not np.isfinite(A).all():  # no jitter can help, nor be NaN
                    raise ValueError(_NON_FINITE)
                base = 1e-10 * np.trace(A) / n
            jitter = base * 10.0**attempt
            if jitter <= 0.0:
                break
            continue
        # A NaN anywhere in the lower triangle, or a +inf on the diagonal,
        # reaches the factor's diagonal; summing a Python list of it costs
        # less than ``trace()`` at the sizes of an affine sweep.
        if not math.isfinite(sum(factor.diagonal().tolist())):
            raise ValueError(_NON_FINITE)
        if info is not None:
            info["jitter"] = jitter
        return factor, M
    raise SingularSystemError(
        f"system is singular beyond jitter tolerance (applied jitter up to {jitter:g})"
    )


def solve_factored(factored: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Solve M x = b for ``factored = factor_spd(A)`` (M = A plus its jitter);
    one step of iterative refinement keeps the residual near machine
    precision.  ``b`` is a float array with M's number of rows."""
    factor, M = factored
    x = dpotrs(factor, b, lower=1)[0]
    x += dpotrs(factor, b - M @ x, lower=1)[0]
    return x


def solve_spd(A, b, info: dict | None = None) -> np.ndarray:
    """Solve A x = b for symmetric PSD A via Cholesky: :func:`factor_spd`
    (with its jitter retry, recorded in ``info``), then :func:`solve_factored`.
    A NaN or an infinity in ``b`` or anywhere in ``A`` (the factor reads only
    its lower triangle, the refinement step all of it) raises a ValueError.
    """
    A = _sym(A)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"shape mismatch: matrix {A.shape}, rhs {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("system to solve has a non-finite entry")
    if n == 0:
        return np.zeros(b.shape)
    return solve_factored(factor_spd(A, info), b)


def ridge_solve(K, y, shrink: float, info: dict | None = None) -> np.ndarray:
    """Solve (K + shrink * I) c = y for symmetric K and shrink >= 0."""
    K = _sym(K)
    if shrink < 0:
        raise ValueError(f"shrink must be nonnegative, got {shrink}")
    A = K if shrink == 0 else K + shrink * np.eye(K.shape[0])
    return solve_spd(A, y, info=info)


def penalized_ls(X, y, penalty, info: dict | None = None) -> np.ndarray:
    """Minimize ||y - X w||^2 + w^T penalty w, i.e. (X^T X + penalty)^{-1} X^T y."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("design matrix must be 2-d")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"shape mismatch: design {X.shape}, target {y.shape}")
    P = np.asarray(penalty, dtype=float)
    if P.shape != (X.shape[1], X.shape[1]):
        raise ValueError(f"penalty must be {X.shape[1]}x{X.shape[1]}, got {P.shape}")
    return solve_spd(X.T @ X + P, X.T @ y, info=info)
