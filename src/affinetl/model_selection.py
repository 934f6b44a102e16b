"""Cross-validation, hyperparameter grids, and error metrics."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "CVResult",
    "child_seed",
    "kfold_split",
    "rmse",
    "grid_search_cv",
    "pointwise",
    "KRR_SHRINK_GRID",
    "AFFINE_FULL_GRID",
    "AFFINE_CONSTRAINED_GRID",
    "CALIBRATION_GRID",
]


@dataclass(frozen=True)
class Grid:
    """Cartesian product of per-hyperparameter candidate lists.

    Iteration order is fixed: parameters sorted by name, values in list
    order, rightmost parameter fastest.  Ties in CV are broken by this
    order (first point wins).
    """

    params: dict[str, tuple]

    def __init__(self, **params):
        clean = {}
        for name, values in params.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"grid for {name!r} is empty")
            clean[name] = values
        object.__setattr__(self, "params", clean)

    def points(self):
        names = sorted(self.params)
        for combo in itertools.product(*(self.params[n] for n in names)):
            yield dict(zip(names, combo))

    def __len__(self):
        return math.prod(len(v) for v in self.params.values())


@dataclass
class CVResult:
    """Outcome of :func:`grid_search_cv`: the chosen point, one ``(params,
    mean RMSE, fold RMSEs)`` row per grid point in grid order, the split
    seed, and ``failed_points``, the number of points scored +inf because a
    fold fit or ``predict`` raised one of ``FIT_ERRORS`` (or returned another
    shape).  Their rows have no fold RMSEs."""

    best_params: dict
    table: list[tuple[dict, float, list[float]]] = field(default_factory=list)
    seed: int = 0
    failed_points: int = 0


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(master: int, *parts) -> int:
    """Derive a child seed from a master seed and a cell key.

    String parts are folded in bytewise (FNV-1a), integer parts directly;
    each part is followed by a splitmix64 round, so the derivation depends
    on part order and content but never on how many other cells exist.
    """
    z = _splitmix64(int(master) & _MASK64)
    for part in parts:
        if isinstance(part, str):
            h = 0xCBF29CE484222325
            for byte in part.encode():
                h = ((h ^ byte) * 0x100000001B3) & _MASK64
            z ^= h
        else:
            z ^= int(part) & _MASK64
        z = _splitmix64(z)
    return z


def kfold_split(n: int, k: int, seed: int):
    """Seeded k-fold partition: a shuffled range split into k folds whose
    sizes differ by at most one.  Returns [(train_idx, test_idx), ...].
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > n:
        raise ValueError(f"k = {k} exceeds the number of rows n = {n}")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i, test in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        out.append((train, test))
    return out


def rmse(yhat, y) -> float:
    """Root mean squared error."""
    yhat = np.asarray(yhat, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if yhat.shape != y.shape:
        raise ValueError(f"length mismatch: {yhat.shape} vs {y.shape}")
    if y.size == 0:
        raise ValueError("rmse of empty vectors is undefined")
    d = yhat - y
    return float(np.sqrt(np.mean(d * d)))


def pointwise(predict_point):
    """A batch ``predict(points)`` for :func:`grid_search_cv` from a one-point
    ``predict_point(params) -> yhat_test``, the predictions at the fold's
    test rows: the rows, stacked in order."""
    return lambda points: np.stack([predict_point(params) for params in points])


FIT_ERRORS = (ValueError, ZeroDivisionError, np.linalg.LinAlgError)


def _predictions(predict, points, n_test: int):
    """``predict(points)`` as a C-contiguous float array, or None if the call
    raises or the array is not (len(points), n_test)."""
    try:
        rows = np.asarray(predict(points), dtype=float, order="C")
    except FIT_ERRORS:
        return None
    return rows if rows.shape == (len(points), n_test) else None


def grid_search_cv(fitter, grid: Grid, y, k: int = 5, seed: int = 0) -> CVResult:
    """Evaluate every grid point by k-fold CV and pick the best mean RMSE.

    The search is fold-major: ``fitter(train, test)`` is called once per
    fold with the fold's training and test row indices into ``y``.  It
    slices what it needs from data it holds, such as a Gram built once on
    all rows, does the work that every grid point shares there, and returns
    ``predict(points)``.  Given a list of grid points it returns one
    ``(len(points), len(test))`` array of predictions at the test rows, one
    row per point in order (:func:`pointwise` builds it from a one-point
    function).  Both must be deterministic given their inputs.  All grid
    points share one fold split; each fold is one ``predict`` call over the
    points still scoring, its rows are scored against ``y[test]`` with one
    vectorized RMSE, and the folds are averaged with one array mean.

    If the fold call raises one of ``FIT_ERRORS``, every point scores +inf.
    If ``predict`` raises one or returns another shape, the fold is re-run
    one point at a time (``predict([point])``), and only the points whose
    call raises or does not return one row score +inf; they are not asked
    for again.  ``failed_points`` counts the points scored +inf this way.
    Other exceptions propagate.  Ties go to the first point.
    """
    y = np.asarray(y, dtype=float).ravel()
    folds = kfold_split(y.shape[0], k, seed)
    points = list(grid.points())
    scores = np.zeros((len(points), len(folds)))
    alive = np.ones(len(points), dtype=bool)
    for j, (train, test) in enumerate(folds):
        try:
            predict = fitter(train, test)
        except FIT_ERRORS:
            alive[:] = False
            break
        y_test = y[test]
        live = np.flatnonzero(alive)
        if live.size == 0:
            continue
        rows = _predictions(predict, [points[i] for i in live], y_test.size)
        if rows is None:
            single = [_predictions(predict, [points[i]], y_test.size) for i in live]
            alive[[i for i, r in zip(live, single) if r is None]] = False
            single = [r for r in single if r is not None]
            if not single:
                continue
            live, rows = np.flatnonzero(alive), np.concatenate(single)
        # Row by row this is exactly ``rmse``: the rows are C-contiguous, so
        # each gets the same pairwise sum, division and square root.
        diff = rows - y_test
        scores[live, j] = np.sqrt(np.mean(diff * diff, axis=1))
    # A C-contiguous (points x folds) mean adds each row's folds in the order
    # that ``np.mean`` of the row's list does.
    means = np.where(alive, scores.mean(axis=1), math.inf)
    table = [(dict(params), mean, row.tolist() if ok else [])
             for params, mean, row, ok in zip(points, means.tolist(), scores, alive)]
    # The first of equal means wins; a NaN mean never does, and point 0 is
    # kept when no mean is finite.
    best = int(np.argmin(np.where(np.isnan(means), math.inf, means)))
    return CVResult(dict(table[best][0]), table, seed, int(np.count_nonzero(~alive)))


# Default search grids.  KRR shrink: 50 log-spaced points spanning [1e-4, 1e2].
KRR_SHRINK_GRID = Grid(shrink=np.logspace(-4, 2, 50))

AFFINE_FULL_GRID = Grid(
    lambda1=(1e-3, 1e-2, 1e-1, 1.0),
    lambda2=(1e-2, 1e-1, 1.0, 10.0),
    lambda3=(1e-2, 1e-1, 1.0, 10.0),
)

AFFINE_CONSTRAINED_GRID = Grid(
    lambda1=(1e-3, 1e-2, 1e-1, 1.0),
    lambda3=(1e-2, 1e-1, 1.0, 10.0),
)

CALIBRATION_GRID = Grid(
    l1=np.logspace(-2, 2, 25),
    l2=(50.0, 100.0, 150.0),
)
