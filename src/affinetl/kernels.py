"""Kernel functions and Gram-matrix construction.

Three kernel families are supported:

* ``rbf``:     k(x, x') = exp(-||x - x'||^2 / (2 gamma^2))
* ``linear``:  k(x, x') = x^T x' / (2 gamma^2) + 1
* ``matern``:  the Matern family for nu in {1/2, 3/2, 5/2, inf}, evaluated
  through its closed forms (no Bessel functions at runtime).  nu = inf is
  aliased to the RBF formula, to which the family converges.

``gamma`` is the length-scale and shares units with the input coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "eval_kernel", "gram"]

_MATERN_NUS = (0.5, 1.5, 2.5, math.inf)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its length-scale.

    ``nu`` is required for (and only meaningful for) the Matern family.
    """

    family: str
    length_scale: float
    nu: float | None = None

    def __post_init__(self):
        fam = self.family.lower()
        object.__setattr__(self, "family", fam)
        if fam not in ("rbf", "linear", "matern"):
            raise ValueError(f"unknown kernel family: {self.family!r}")
        ls = float(self.length_scale)
        if not (ls > 0) or not math.isfinite(ls):
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        object.__setattr__(self, "length_scale", ls)
        if fam == "matern":
            if self.nu is None:
                raise ValueError("Matern kernel requires nu")
            if float(self.nu) not in _MATERN_NUS:
                raise ValueError(f"nu must be one of {{1/2, 3/2, 5/2, inf}}, got {self.nu}")
            object.__setattr__(self, "nu", float(self.nu))
        elif self.nu is not None:
            raise ValueError(f"nu is only valid for the Matern family, not {fam!r}")

    @property
    def is_stationary(self) -> bool:
        """True for distance-based kernels (unit diagonal on a single sample set)."""
        return self.family != "linear"


def _as_matrix(X) -> np.ndarray:
    """``X`` as a float matrix whose rows are samples; a 1-d array is one column."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError("sample set must be a 2-d array (rows are samples)")
    return X


def _as_samples(matrices: dict, vectors: dict | None = None) -> list[np.ndarray]:
    """The row-aligned samples given to a public entry point, checked once.

    ``matrices`` and ``vectors`` map names to arrays.  Each array becomes
    float: a matrix as by :func:`_as_matrix`, a vector flattened.  All must
    have the same number of rows, and a NaN or an infinity is a ValueError
    naming the array and its first such row.  Returns the matrices, then
    the vectors, in the order given.
    """
    named = {name: _as_matrix(a) for name, a in matrices.items()}
    for name, a in (vectors or {}).items():
        named[name] = np.asarray(a, dtype=float).ravel()
    rows = {name: a.shape[0] for name, a in named.items()}
    if len(set(rows.values())) > 1:
        raise ValueError("row mismatch: " + ", ".join(f"{k} {n}" for k, n in rows.items()))
    for name, a in named.items():
        bad = ~np.isfinite(a)
        if bad.any():
            row = np.flatnonzero(bad.reshape(a.shape[0], -1).any(axis=1))[0]
            raise ValueError(f"non-finite value in {name} at row {row}")
    return list(named.values())


def _distances(X: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances via explicit differences.

    ``cdist`` forms each coordinate difference directly (not via the
    expanded-square shortcut), so near-identical points keep full precision.
    """
    # Imported on first use, as solvers binds LAPACK: scipy.spatial loads
    # scipy.linalg, and the two take two to three times as long to import as
    # the rest of ``import affinetl``.
    from scipy.spatial.distance import cdist

    return cdist(X, X2, "euclidean")


def _symmetric_distance_gram(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    """The Gram of a distance kernel on one sample set: the kernel is applied
    once per pair, to ``pdist``'s condensed upper triangle (the same
    differences ``cdist`` forms), and the diagonal is exactly 1."""
    from scipy.spatial.distance import pdist, squareform

    K = squareform(_apply_distance_kernel(spec, pdist(X, "euclidean")), checks=False)
    np.fill_diagonal(K, 1.0)
    return K


def _apply_distance_kernel(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    gamma = spec.length_scale
    fam = spec.family
    nu = spec.nu
    if fam == "rbf" or (fam == "matern" and nu == math.inf):
        return np.exp(-(r * r) / (2.0 * gamma * gamma))
    # Matern closed forms; each evaluates to exactly 1 at r = 0.
    t = r / gamma
    if nu == 0.5:
        return np.exp(-t)
    if nu == 1.5:
        s3 = math.sqrt(3.0) * t
        return (1.0 + s3) * np.exp(-s3)
    if nu == 2.5:
        s5 = math.sqrt(5.0) * t
        return (1.0 + s5 + (5.0 / 3.0) * t * t) * np.exp(-s5)
    raise AssertionError(f"unreachable nu: {nu}")


def eval_kernel(spec: KernelSpec, x, x2) -> float:
    """Evaluate k(x, x2) for a single pair of vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x2.shape}")
    if spec.family == "linear":
        g = spec.length_scale
        return float(x @ x2 / (2.0 * g * g) + 1.0)
    r = np.sqrt(max(float(np.sum((x - x2) ** 2)), 0.0))
    return float(_apply_distance_kernel(spec, np.asarray(r)))


def gram(spec: KernelSpec, X, X2=None) -> np.ndarray:
    """Build the Gram matrix K[i, j] = k(X[i], X2[j]).

    With ``X2`` omitted the matrix is built from one sample set: each pair is
    computed once, so the result is bit-exactly symmetric, and stationary
    kernels get an exact unit diagonal.
    """
    X = _as_matrix(X)
    symmetric = X2 is None
    X2m = X if symmetric else _as_matrix(X2)
    if X.shape[0] == 0 or X2m.shape[0] == 0:
        raise ValueError("empty sample set")
    if X.shape[1] != X2m.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {X2m.shape[1]} columns")

    if spec.is_stationary:
        if symmetric:
            return _symmetric_distance_gram(spec, X)
        return _apply_distance_kernel(spec, _distances(X, X2m))
    g = spec.length_scale
    K = X @ X2m.T / (2.0 * g * g) + 1.0
    if symmetric:  # mirror the upper triangle
        K = np.triu(K)
        K = K + np.triu(K, 1).T
    return K
