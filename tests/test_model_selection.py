import math

import numpy as np
import pytest

from affinetl.baselines import fit_baseline, predict_baseline
from affinetl.kernels import KernelSpec
from affinetl.model_selection import (
    AFFINE_FULL_GRID,
    FIT_ERRORS,
    KRR_SHRINK_GRID,
    CVResult,
    Grid,
    grid_search_cv,
    kfold_split,
    pointwise,
    rmse,
)


class TestKFold:
    def test_balanced_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        tests = [set(te.tolist()) for _, te in folds]
        assert all(len(t) == 2 for t in tests)
        assert set().union(*tests) == set(range(10))
        for i in range(5):
            for j in range(i + 1, 5):
                assert not tests[i] & tests[j]

    def test_same_seed_same_folds(self):
        a = kfold_split(20, 4, seed=11)
        b = kfold_split(20, 4, seed=11)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    def test_remainder_fold_sizes(self):
        folds = kfold_split(7, 5, seed=3)
        sizes = sorted(len(te) for _, te in folds)
        assert sizes == [1, 1, 1, 2, 2]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kfold_split(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_split(5, 1, seed=0)

    def test_partition_property_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(2, n + 1))
            folds = kfold_split(n, k, seed=int(rng.integers(0, 1 << 30)))
            tests = [set(te.tolist()) for _, te in folds]
            assert set().union(*tests) == set(range(n))
            assert sum(len(t) for t in tests) == n
            for tr, te in folds:
                assert set(tr.tolist()) | set(te.tolist()) == set(range(n))
                assert not set(tr.tolist()) & set(te.tolist())


class TestRMSE:
    def test_zero_for_equal(self):
        y = np.arange(5.0)
        assert rmse(y, y) == 0.0

    def test_constant_offset(self):
        y = np.arange(100.0)
        assert rmse(y + 3.0, y) == pytest.approx(3.0, abs=1e-14)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        yhat, y = rng.normal(size=100), rng.normal(size=100)
        total = 0.0
        for a, b in zip(yhat, y):
            total += (a - b) ** 2
        assert rmse(yhat, y) == pytest.approx(math.sqrt(total / 100), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))


class TestGrid:
    def test_iteration_order_is_name_sorted_row_major(self):
        grid = Grid(b=[1, 2], a=[10, 20])
        pts = list(grid.points())
        assert pts == [
            {"a": 10, "b": 1}, {"a": 10, "b": 2},
            {"a": 20, "b": 1}, {"a": 20, "b": 2},
        ]
        assert len(grid) == 4

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            Grid(a=[])

    def test_default_grids(self):
        assert len(KRR_SHRINK_GRID) == 50
        shrinks = KRR_SHRINK_GRID.params["shrink"]
        assert shrinks[0] == pytest.approx(1e-4)
        assert shrinks[-1] == pytest.approx(1e2)
        assert len(AFFINE_FULL_GRID) == 64


def linear_fitter(X, Fs, y):
    """A fitter over the rows of (X, Fs, y): linear-kernel KRR per fold."""
    spec = KernelSpec("linear", 1.0)

    def fitter(train, test):
        def predict(params):
            model = fit_baseline("direct", X[train], Fs[train], y[train], spec, params["shrink"])
            return predict_baseline(model, X[test], Fs[test])

        return pointwise(predict)

    return fitter


class TestGridSearchCV:
    def make_linear_data(self, rng, n=40):
        X = rng.normal(size=(n, 3))
        Fs = rng.normal(size=(n, 2))
        w = rng.normal(size=3)
        return X, Fs, X @ w

    def test_single_point_grid(self):
        rng = np.random.default_rng(6)
        X, Fs, y = self.make_linear_data(rng)
        res = grid_search_cv(linear_fitter(X, Fs, y), Grid(shrink=[0.5]), y, k=4, seed=0)
        assert res.best_params == {"shrink": 0.5}
        assert isinstance(res, CVResult)

    def test_ties_broken_by_first_occurrence(self):
        rng = np.random.default_rng(7)
        X, Fs, y = self.make_linear_data(rng, n=20)

        def constant_fitter(train, test):
            return lambda points: np.zeros((len(points), len(test)))

        res = grid_search_cv(constant_fitter, Grid(shrink=[3.0, 1.0, 2.0]), y, k=4, seed=1)
        means = [m for _, m, _ in res.table]
        assert means[0] == means[1] == means[2]
        assert res.best_params == {"shrink": 3.0}

    def test_noiseless_linear_prefers_smallest_shrink(self):
        rng = np.random.default_rng(8)
        X, Fs, y = self.make_linear_data(rng)
        grid = Grid(shrink=np.logspace(-4, 2, 8))
        res = grid_search_cv(linear_fitter(X, Fs, y), grid, y, k=5, seed=2)
        assert res.best_params["shrink"] == pytest.approx(1e-4)
        means = [m for _, m, _ in res.table]
        assert all(m1 <= m2 + 1e-12 for m1, m2 in zip(means, means[1:]))

    def test_failing_grid_point_scores_infinity(self):
        rng = np.random.default_rng(9)
        X, Fs, y = self.make_linear_data(rng, n=15)

        def flaky_fitter(train, test):
            predict = linear_fitter(X, Fs, y)(train, test)

            def flaky_predict(points):
                if any(params["shrink"] < 0.01 for params in points):
                    raise ValueError("boom")
                return predict(points)

            return flaky_predict

        res = grid_search_cv(flaky_fitter, Grid(shrink=[1e-3, 0.5]), y, k=3, seed=3)
        assert res.table[0][1] == math.inf
        assert res.best_params == {"shrink": 0.5}
        assert res.failed_points == 1

    def test_failed_points_counted_apart_from_bad_scores(self):
        # one point raises, one predicts +inf: both mean +inf, one failed
        rng = np.random.default_rng(9)
        X, Fs, y = self.make_linear_data(rng, n=15)

        def fitter(train, test):
            predict = linear_fitter(X, Fs, y)(train, test)

            def predict_some(points):
                if any(params["shrink"] == 1e-3 for params in points):
                    raise ZeroDivisionError("boom")
                rows = predict(points)
                rows[[params["shrink"] == 2.0 for params in points]] = math.inf
                return rows

            return predict_some

        res = grid_search_cv(fitter, Grid(shrink=[1e-3, 0.5, 2.0]), y, k=3, seed=3)
        assert [mean for _, mean, _ in res.table][::2] == [math.inf, math.inf]
        assert res.table[0][2] == [] and res.table[2][2] == [math.inf] * 3
        assert res.failed_points == 1
        assert res.best_params == {"shrink": 0.5}
        plain = grid_search_cv(linear_fitter(X, Fs, y), Grid(shrink=[0.5]), y, k=3)
        assert plain.failed_points == 0

    def test_positional_construction_counts_no_failures(self):
        assert CVResult({"shrink": 1.0}, [], 3).failed_points == 0

    def test_failing_fold_scores_every_point_infinity(self):
        rng = np.random.default_rng(9)
        X, Fs, y = self.make_linear_data(rng, n=15)
        calls = []

        def failing_fold_fitter(train, test):
            calls.append(len(train))
            if len(calls) == 2:
                raise ValueError("boom")
            return linear_fitter(X, Fs, y)(train, test)

        res = grid_search_cv(failing_fold_fitter, Grid(shrink=[1e-3, 0.5, 2.0]), y, k=3, seed=3)
        assert all(mean == math.inf and rmses == [] for _, mean, rmses in res.table)
        assert res.best_params == {"shrink": 1e-3}
        assert res.failed_points == 3

    @pytest.mark.parametrize("where", ["fitter", "predict"])
    def test_other_exceptions_propagate(self, where):
        # a TypeError is a bug, not a grid point that cannot be fit
        rng = np.random.default_rng(9)
        X, Fs, y = self.make_linear_data(rng, n=15)

        def buggy_fitter(train, test):
            if where == "fitter":
                raise TypeError("bug")

            def predict(points):
                raise TypeError("bug")

            return predict

        with pytest.raises(TypeError, match="bug"):
            grid_search_cv(buggy_fitter, Grid(shrink=[1e-3, 0.5]), y, k=3, seed=3)

    def test_linalg_error_in_a_fold_still_scores_infinity(self):
        rng = np.random.default_rng(9)
        X, Fs, y = self.make_linear_data(rng, n=15)

        def singular_fitter(train, test):
            raise np.linalg.LinAlgError("singular")

        res = grid_search_cv(singular_fitter, Grid(shrink=[1e-3, 0.5]), y, k=3, seed=3)
        assert [mean for _, mean, _ in res.table] == [math.inf, math.inf]
        assert res.failed_points == 2

    def test_fitter_called_once_per_fold(self):
        rng = np.random.default_rng(11)
        X, Fs, y = self.make_linear_data(rng, n=20)
        folds = kfold_split(20, 4, seed=5)
        seen = []

        def recording_fitter(train, test):
            seen.append((train, test))
            return linear_fitter(X, Fs, y)(train, test)

        res = grid_search_cv(recording_fitter, Grid(shrink=[0.1, 1.0, 10.0]), y, k=4, seed=5)
        assert len(seen) == 4
        for (train, test), (tr, te) in zip(seen, folds):
            assert np.array_equal(train, tr) and np.array_equal(test, te)
        assert all(len(rmses) == 4 for _, _, rmses in res.table)

    def test_value_order_does_not_change_scores(self):
        rng = np.random.default_rng(10)
        X, Fs, y = self.make_linear_data(rng, n=25)
        fitter = linear_fitter(X, Fs, y)
        r1 = grid_search_cv(fitter, Grid(shrink=[0.1, 1.0, 10.0]), y, k=4, seed=4)
        r2 = grid_search_cv(fitter, Grid(shrink=[10.0, 0.1, 1.0]), y, k=4, seed=4)
        as_map1 = {p["shrink"]: m for p, m, _ in r1.table}
        as_map2 = {p["shrink"]: m for p, m, _ in r2.table}
        assert as_map1 == as_map2


def per_point_grid_search_cv(fitter, grid, y, k, seed):
    """The search scored one ``rmse`` call per (point, fold), each point
    predicted alone as ``predict([point])`` (test oracle)."""
    folds = kfold_split(len(y), k, seed)
    points = list(grid.points())
    scores = [[] for _ in points]
    for train, test in folds:
        predict_fn = fitter(train, test)
        for i, params in enumerate(points):
            if scores[i] is None:
                continue
            try:
                rows = np.asarray(predict_fn([params]), dtype=float)
                if rows.shape != (1, len(test)):
                    raise ValueError(f"one row of {len(test)} expected, got {rows.shape}")
                scores[i].append(rmse(rows[0], y[test]))
            except FIT_ERRORS:
                scores[i] = None
    table = [(params, math.inf if s is None else float(np.mean(s)), s or [])
             for params, s in zip(points, scores)]
    best = min(range(len(table)), key=lambda i: (table[i][1], i))
    return table[best][0], table


class TestStackedScoring:
    def test_matches_per_point_rmse_bit_for_bit(self):
        # p = 2 raises, p = 3 gets one value too many, p = 4 makes the batch
        # column-major; the first fold's batch raises and falls back to one
        # point at a time, the second fold's batch stands
        grid = Grid(p=[0.5, 1.0, 2.0, 3.0, 4.0, 1.5])

        def fitter_on(X, Fs):
            def fitter(train, test):
                def predict(points):
                    ps = [params["p"] for params in points]
                    if 2.0 in ps:
                        raise np.linalg.LinAlgError("singular")
                    rows = np.array([np.sin(p * X[test, 0]) * 10.0 ** (3 * p - 6) + Fs[test, 0]
                                     for p in ps])
                    if 3.0 in ps:
                        return np.hstack([rows, np.zeros((len(ps), 1))])
                    return np.asfortranarray(rows) if 4.0 in ps else rows
                return predict
            return fitter

        rng = np.random.default_rng(13)
        for n_test in range(1, 201):
            n = 2 * n_test
            X, Fs, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 1)), rng.normal(size=n)
            res = grid_search_cv(fitter_on(X, Fs), grid, y, k=2, seed=n_test)
            best, table = per_point_grid_search_cv(fitter_on(X, Fs), grid, y, 2, n_test)
            assert res.table == table
            assert res.best_params == best
            assert [mean == math.inf for _, mean, _ in table] == [
                False, False, True, True, False, False]


class TestBatchFallback:
    def make_data(self, n=24):
        rng = np.random.default_rng(17)
        return rng.normal(size=(n, 3)), rng.normal(size=(n, 2)), rng.normal(size=n)

    @pytest.mark.parametrize("batch_fault", ["raises", "wrong_shape"])
    def test_failing_batch_falls_back_per_point(self, batch_fault):
        grid = Grid(shrink=[1e-3, 0.1, 1.0, 10.0])
        X, Fs, y = self.make_data()
        calls = []

        def batch_shy_fitter(train, test):
            predict = linear_fitter(X, Fs, y)(train, test)

            def shy_predict(points):
                calls.append([params["shrink"] for params in points])
                if len(points) == 1:
                    return predict(points)
                if batch_fault == "raises":
                    raise ValueError("no batches")
                return predict(points)[:, :-1]

            return shy_predict

        got = grid_search_cv(batch_shy_fitter, grid, y, k=3, seed=6)
        want = grid_search_cv(linear_fitter(X, Fs, y), grid, y, k=3, seed=6)
        assert got.table == want.table
        assert got.best_params == want.best_params
        assert all(math.isfinite(mean) for _, mean, _ in got.table)
        shrinks = [1e-3, 0.1, 1.0, 10.0]
        assert calls == ([shrinks] + [[s] for s in shrinks]) * 3  # per fold

    def test_failed_point_is_not_asked_for_again(self):
        grid = Grid(shrink=[1e-3, 0.1, 1.0])
        X, Fs, y = self.make_data()
        calls = []

        def fitter(train, test):
            predict = linear_fitter(X, Fs, y)(train, test)

            def flaky_predict(points):
                calls.append([params["shrink"] for params in points])
                if any(params["shrink"] == 0.1 for params in points):
                    raise ZeroDivisionError("boom")
                return predict(points)

            return flaky_predict

        res = grid_search_cv(fitter, grid, y, k=3, seed=6)
        assert calls == [[1e-3, 0.1, 1.0], [1e-3], [0.1], [1.0],
                         [1e-3, 1.0], [1e-3, 1.0]]
        assert [mean == math.inf for _, mean, _ in res.table] == [False, True, False]
        assert res.table[1][2] == []
        assert all(len(rmses) == 3 for i, (_, _, rmses) in enumerate(res.table) if i != 1)

    def test_nan_mean_is_never_best(self):
        X, Fs, y = self.make_data()

        def fitter(train, test):
            def predict(points):
                return np.array([np.full(len(test), params["v"]) for params in points])
            return predict

        res = grid_search_cv(fitter, Grid(v=[np.nan, 5.0, 0.0, np.nan]), y, k=3, seed=1)
        assert [math.isnan(mean) for _, mean, _ in res.table] == [True, False, False, True]
        assert res.best_params == {"v": 0.0}
        res = grid_search_cv(fitter, Grid(v=[np.inf, np.nan]), y, k=3, seed=1)
        assert res.best_params == {"v": np.inf}
