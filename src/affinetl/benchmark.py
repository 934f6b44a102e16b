"""Seeded benchmark runner: the transfer procedures over train-size sweeps.

Each cell of the sweep is (procedure, train size, repeat).  The data split
for a cell depends only on (train size, repeat), so every procedure sees the
same training subsets; procedure-specific randomness (affine initialization,
CV folds) is keyed by the full cell, so adding or removing procedures never
shifts the others' draws.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .affine import FitConfig, _fit_grams, _fitted_values, _grams, fit, predict
from .baselines import compose, fit_baseline, predict_baseline, single_stage_inputs, stage2_target
from .data import Dataset
from .kernels import KernelSpec, gram
from .model_selection import (
    AFFINE_CONSTRAINED_GRID,
    AFFINE_FULL_GRID,
    FIT_ERRORS,
    KRR_SHRINK_GRID,
    child_seed,
    grid_search_cv,
    pointwise,
    rmse,
)
from .solvers import ridge_solve

__all__ = [
    "PROCEDURES",
    "BenchmarkConfig",
    "BenchmarkReport",
    "child_seed",
    "length_scales",
    "run_benchmark",
    "aggregate_rows",
]

PROCEDURES = (
    "direct",
    "only_source",
    "augmented",
    "htl_offset",
    "htl_scale",
    "affine_full",
    "affine_const",
)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Protocol settings for :func:`run_benchmark`."""

    seed: int
    procedures: tuple[str, ...] = PROCEDURES
    train_sizes: tuple[int, ...] = (5, 10, 15, 20, 30, 40, 50)
    repeats: int = 20
    cv_folds: int = 5
    test_cap: int = 2000
    length_scale_rule: str = "sqrt_dim"
    scale_convention: str = "appendix"
    kernel_family: str = "rbf"

    def __post_init__(self):
        unknown = [p for p in self.procedures if p not in PROCEDURES]
        if unknown:
            raise ValueError(f"unknown procedures {unknown}; expected subset of {PROCEDURES}")
        if self.length_scale_rule not in ("sqrt_dim", "sarcos_appendix"):
            raise ValueError(f"unknown length_scale_rule {self.length_scale_rule!r}")
        if self.repeats < 1 or self.cv_folds < 2:
            raise ValueError("need repeats >= 1 and cv_folds >= 2")
        try:
            KernelSpec(str(self.kernel_family), 1.0)
        except ValueError as exc:
            raise ValueError(f"kernel_family {self.kernel_family!r} cannot build a kernel: "
                             f"{exc}") from None


@dataclass
class BenchmarkReport:
    rows: list[tuple[str, int, int, float]] = field(default_factory=list)
    aggregate: list[tuple[str, int, float, float]] = field(default_factory=list)
    failures: int = 0


def length_scales(rule: str, dim_x: int, dim_fs: int) -> dict[str, float]:
    """Length-scales per kernel role.

    ``sqrt_dim`` uses the square root of each kernel's own input dimension.
    ``sarcos_appendix`` keeps that rule for inputs and source features but
    widens the affine g3 kernel to sqrt(dim_x + dim_fs), matching the
    torque-benchmark settings (sqrt(21), sqrt(6), sqrt(27)).
    """
    ell_x = math.sqrt(dim_x)
    ell_fs = math.sqrt(dim_fs)
    ell_aug = math.sqrt(dim_x + dim_fs)
    ell_g3 = ell_aug if rule == "sarcos_appendix" else ell_x
    return {"x": ell_x, "fs": ell_fs, "aug": ell_aug, "g3": ell_g3}


def _block(K, rows, cols) -> np.ndarray:
    """The C-contiguous block ``K[np.ix_(rows, cols)]``, bit for bit, by two
    ``take`` copies: on fold-sized blocks a fraction of the fancy index's cost."""
    return K.take(rows, 0).take(cols, 1)


def _krr_path(K, train, test, z):
    """Test predictions of KRR on the training rows' block of the Gram ``K``
    and target ``z``, along the shrink path.

    One eigendecomposition K_tr,tr = V diag(mu) V' turns the whole path into
    one product: returns ``path(shrinks)``, a (len(shrinks), len(test))
    array whose row for shrink s is K_te,tr V diag(1 / (mu + s)) V' z
    (Rifkin & Lippert 2007, "Notes on regularized least squares").
    """
    mu, V = np.linalg.eigh(_block(K, train, train))
    A = _block(K, test, train) @ V
    b = V.T @ z
    return lambda shrinks: (b[:, None] / (mu[:, None] + shrinks)).T @ A.T


def _shrinks(points) -> np.ndarray:
    return np.array([params["shrink"] for params in points])


def _cv_krr(K, y, folds, seed) -> float:
    """CV the shrink of a one-stage KRR whose Gram on all rows is ``K``;
    every fold slices its blocks from it.  Returns the best shrink."""

    def fitter(train, test):
        path = _krr_path(K, train, test, y[train])
        return lambda points: path(_shrinks(points))

    res = grid_search_cv(fitter, KRR_SHRINK_GRID, y, k=folds, seed=seed)
    return res.best_params["shrink"]


def _fit_two_stage(kind, train: Dataset, folds, seed, spec_fs, spec_x):
    """Stage-wise CV for the offset/scale procedures.

    Stage 1 picks its shrink by CV of the fs -> y regression alone; stage 2
    then CVs the x -> transformed-target regression built on a stage-1 model
    refit per fold, as ``fit_baseline`` fits it.  Both searches slice one
    Gram per kernel, built once on all of ``train``.
    """
    K_fs, K_x, y = gram(spec_fs, train.Fs), gram(spec_x, train.X), train.y
    shrink1 = _cv_krr(K_fs, y, folds, child_seed(seed, "stage1"))

    def fitter(tr, te):
        K1 = _block(K_fs, tr, tr)
        coef = ridge_solve(K1, y[tr], shrink1)
        g1, g1_test = K1 @ coef, _block(K_fs, te, tr) @ coef
        path = _krr_path(K_x, tr, te, stage2_target(kind, y[tr], g1))
        return lambda points: compose(kind, g1_test, path(_shrinks(points)))

    res = grid_search_cv(fitter, KRR_SHRINK_GRID, y, k=folds, seed=child_seed(seed, "stage2"))
    return fit_baseline(kind, train.X, train.Fs, y, spec_fs, shrink1,
                        stage2_spec=spec_x, stage2_shrink=res.best_params["shrink"])


def _fit_affine(variant, train: Dataset, folds, seed, specs, config):
    """CV over the affine grid, then a refit on all of ``train``.  The Grams
    are built once on all of ``train``; each fold slices its Grams and
    cross-Grams from them, and every grid point fits on those."""
    grid = AFFINE_CONSTRAINED_GRID if variant == "constrained" else AFFINE_FULL_GRID

    def make_config(params):
        return FitConfig(
            lambda1=params["lambda1"],
            lambda2=params.get("lambda2", 1.0),
            lambda3=params["lambda3"],
            variant=variant,
            seed=child_seed(seed, "init"),
            scale_convention=config.scale_convention,
        )

    grams, y = _grams(specs, variant, train.X, train.Fs), train.y

    def fitter(tr, te):
        fold = [None if K is None else _block(K, tr, tr) for K in grams]
        cross = [None if K is None else _block(K, te, tr) for K in grams]

        def predict_point(params):
            (a, b, c, d), _ = _fit_grams(make_config(params), *fold, y[tr])
            return _fitted_values(a, b, c, d, *cross, variant)

        return pointwise(predict_point)

    res = grid_search_cv(fitter, grid, y, k=folds, seed=child_seed(seed, "cv"))
    model, _ = fit(make_config(res.best_params), train.X, train.Fs, y, specs)
    return model


def _run_cell(dataset: Dataset, test_pool: Dataset | None, proc: str, n: int,
              repeat: int, config: BenchmarkConfig) -> float:
    split_rng = np.random.default_rng(child_seed(config.seed, "split", n, repeat))
    if n >= dataset.n:
        raise ValueError(f"train size {n} needs more than the {dataset.n} available rows")
    train_idx = split_rng.choice(dataset.n, size=n, replace=False)
    train = dataset.subset(train_idx)
    if test_pool is None:
        rest = np.ones(dataset.n, dtype=bool)
        rest[train_idx] = False
        test = dataset.subset(np.flatnonzero(rest))
    else:
        test = test_pool
    if test.n > config.test_cap:
        test = test.subset(split_rng.choice(test.n, size=config.test_cap, replace=False))
    if test.n == 0:
        raise ValueError("no rows left for the test set")

    ells = length_scales(config.length_scale_rule, dataset.X.shape[1], dataset.Fs.shape[1])
    fam = config.kernel_family
    spec_x = KernelSpec(fam, ells["x"])
    spec_fs = KernelSpec(fam, ells["fs"])
    spec_aug = KernelSpec(fam, ells["aug"])
    folds = min(config.cv_folds, n)
    seed = child_seed(config.seed, proc, n, repeat)

    if proc in ("direct", "only_source", "augmented"):
        spec = {"direct": spec_x, "only_source": spec_fs, "augmented": spec_aug}[proc]
        K = gram(spec, single_stage_inputs(proc, train.X, train.Fs))
        shrink = _cv_krr(K, train.y, folds, child_seed(seed, "cv"))
        model = fit_baseline(proc, train.X, train.Fs, train.y, spec, shrink)
        yhat = predict_baseline(model, test.X, test.Fs)
    elif proc in ("htl_offset", "htl_scale"):
        model = _fit_two_stage(proc, train, folds, seed, spec_fs, spec_x)
        yhat = predict_baseline(model, test.X, test.Fs)
    else:
        variant = "constrained" if proc == "affine_const" else "full_with_intercept"
        specs = (spec_fs, spec_fs, KernelSpec(fam, ells["g3"]))
        model = _fit_affine(variant, train, folds, seed, specs, config)
        yhat = predict(model, test.X, test.Fs)
    return rmse(yhat, test.y)


def aggregate_rows(rows) -> list[tuple[str, int, float, float]]:
    """Mean and sample standard deviation per (procedure, n), repeat order kept."""
    groups: dict[tuple[str, int], list[float]] = {}
    order = []
    for proc, n, _, value in rows:
        key = (proc, n)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(value)
    out = []
    for proc, n in order:
        vals = np.asarray(groups[(proc, n)])
        sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        out.append((proc, n, float(np.mean(vals)), sd))
    return out


def run_benchmark(dataset: Dataset, config: BenchmarkConfig,
                  test_dataset: Dataset | None = None) -> BenchmarkReport:
    """Run the full (procedure, size, repeat) sweep, one cell after another.

    A cell that raises a ValueError (too few rows for the split, say),
    ZeroDivisionError or LinAlgError is recorded as NaN with a line on
    stderr naming the exception, and the sweep goes on; any other exception
    is a bug and propagates.
    """
    report = BenchmarkReport()
    for proc, n, rep in product(config.procedures, config.train_sizes, range(config.repeats)):
        try:
            value = _run_cell(dataset, test_dataset, proc, n, rep, config)
        except FIT_ERRORS as exc:
            print(f"affinetl: cell {(proc, n, rep)} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            value = float("nan")
        report.rows.append((proc, n, rep, value))
        if math.isnan(value):
            report.failures += 1
    report.aggregate = aggregate_rows(report.rows)
    return report
