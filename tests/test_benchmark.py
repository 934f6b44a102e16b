import math
import threading

import numpy as np
import pytest

from affinetl import benchmark
from affinetl.affine import FitConfig, fit, predict
from affinetl.baselines import fit_baseline, predict_baseline, single_stage_inputs
from affinetl.benchmark import (
    BenchmarkConfig,
    aggregate_rows,
    child_seed,
    length_scales,
    run_benchmark,
)
from affinetl.data import synth_dataset
from affinetl.kernels import KernelSpec, gram
from affinetl.model_selection import (
    AFFINE_CONSTRAINED_GRID,
    KRR_SHRINK_GRID,
    Grid,
    kfold_split,
    rmse,
)


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, "direct", 5, 0) == child_seed(7, "direct", 5, 0)

    def test_sensitive_to_every_part(self):
        base = child_seed(7, "direct", 5, 0)
        assert child_seed(8, "direct", 5, 0) != base
        assert child_seed(7, "offset", 5, 0) != base
        assert child_seed(7, "direct", 6, 0) != base
        assert child_seed(7, "direct", 5, 1) != base

    def test_order_matters(self):
        assert child_seed(1, 2, 3) != child_seed(1, 3, 2)

    def test_range(self):
        for parts in (("a",), (123,), ("cv", 9, "x")):
            s = child_seed(42, *parts)
            assert 0 <= s < 1 << 64


class TestLengthScales:
    def test_sqrt_dim_rule(self):
        ells = length_scales("sqrt_dim", 21, 6)
        assert ells["x"] == pytest.approx(math.sqrt(21))
        assert ells["fs"] == pytest.approx(math.sqrt(6))
        assert ells["aug"] == pytest.approx(math.sqrt(27))
        assert ells["g3"] == pytest.approx(math.sqrt(21))

    def test_appendix_rule_widens_g3(self):
        ells = length_scales("sarcos_appendix", 21, 6)
        assert ells["g3"] == pytest.approx(math.sqrt(27))


class TestBenchmarkConfig:
    def test_rejects_unknown_procedure(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(seed=1, procedures=("direct", "boosting"))

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(seed=1, length_scale_rule="fixed")

    @pytest.mark.parametrize("family", ["matern", "rbf ", "poly"])
    def test_rejects_unbuildable_kernel_family(self, family):
        with pytest.raises(ValueError, match="kernel_family"):
            BenchmarkConfig(seed=1, kernel_family=family)

    @pytest.mark.parametrize("family", ["rbf", "linear", "RBF"])
    def test_accepts_buildable_kernel_family(self, family):
        assert BenchmarkConfig(seed=1, kernel_family=family).kernel_family == family


class TestAggregateRows:
    def test_mean_and_sample_sd(self):
        rows = [("direct", 5, 0, 1.0), ("direct", 5, 1, 3.0), ("only", 5, 0, 2.0)]
        agg = aggregate_rows(rows)
        assert agg[0] == ("direct", 5, 2.0, pytest.approx(math.sqrt(2.0)))
        assert agg[1] == ("only", 5, 2.0, 0.0)

    def test_nan_propagates(self):
        rows = [("direct", 5, 0, 1.0), ("direct", 5, 1, float("nan"))]
        agg = aggregate_rows(rows)
        assert math.isnan(agg[0][2])


class TestRunBenchmark:
    def make_dataset(self):
        return synth_dataset("offset_transfer", n=80, dims=2, noise_sd=0.05, seed=3)

    def test_row_structure_and_determinism(self):
        ds = self.make_dataset()
        config = BenchmarkConfig(seed=11, procedures=("direct", "only_source"),
                                 train_sizes=(10,), repeats=2, cv_folds=3,
                                 test_cap=40)
        r1 = run_benchmark(ds, config)
        r2 = run_benchmark(ds, config)
        assert len(r1.rows) == 4
        assert [r[:3] for r in r1.rows] == [
            ("direct", 10, 0), ("direct", 10, 1),
            ("only_source", 10, 0), ("only_source", 10, 1),
        ]
        assert r1.rows == r2.rows
        assert r1.failures == 0
        assert all(np.isfinite(r[3]) for r in r1.rows)

    def test_same_split_across_procedures(self):
        # procedure-specific seeds must not change the train/test split, so
        # a deterministic procedure pair sees identical data per (n, repeat)
        ds = self.make_dataset()
        config = BenchmarkConfig(seed=5, procedures=("direct",),
                                 train_sizes=(15,), repeats=1, cv_folds=3,
                                 test_cap=30)
        direct = run_benchmark(ds, config).rows[0][3]
        both = BenchmarkConfig(seed=5, procedures=("htl_offset", "direct"),
                               train_sizes=(15,), repeats=1, cv_folds=3,
                               test_cap=30)
        rows = run_benchmark(ds, both).rows
        direct_again = [r for r in rows if r[0] == "direct"][0][3]
        assert direct == direct_again

    def test_affine_procedures_run(self):
        ds = self.make_dataset()
        config = BenchmarkConfig(seed=2, procedures=("affine_const", "affine_full"),
                                 train_sizes=(10,), repeats=1, cv_folds=3,
                                 test_cap=30)
        report = run_benchmark(ds, config)
        assert report.failures == 0
        assert all(np.isfinite(r[3]) and r[3] < 5.0 for r in report.rows)

    def test_affine_const_cell_builds_no_g2_gram(self, monkeypatch):
        # 2 Grams on the cell's training rows, which the 5 folds slice, plus
        # the final fit and test prediction (2 + 2); building g2's Grams too
        # would make 3 + 3 + 3 = 9
        calls = count_gram_calls(monkeypatch)
        ds = synth_dataset("offset_transfer", 300, dims=3, noise_sd=0.05, seed=7)
        config = BenchmarkConfig(seed=11, procedures=("affine_const",), train_sizes=(50,),
                                 repeats=1)
        report = run_benchmark(ds, config)
        assert report.failures == 0
        assert len(calls) == 6

    @pytest.mark.parametrize("proc, grams, searches", [
        # one Gram on the training rows; the refit and the test prediction
        ("direct", 3, 1),
        # one Gram per kernel; the two-stage refit (stage 1, its fitted
        # values, stage 2) and the two-stage test prediction
        ("htl_offset", 7, 2),
    ])
    def test_cell_builds_its_grams_once_whatever_the_folds(self, monkeypatch, proc, grams,
                                                            searches):
        calls = count_gram_calls(monkeypatch)
        fitter_calls = []
        original = benchmark.grid_search_cv

        def recording(fitter, *args, **kwargs):
            def counted(train, test):
                fitter_calls.append((len(train), len(test)))
                return fitter(train, test)

            return original(counted, *args, **kwargs)

        monkeypatch.setattr(benchmark, "grid_search_cv", recording)
        ds = synth_dataset("offset_transfer", 300, dims=3, noise_sd=0.05, seed=7)
        for folds in (3, 5):
            calls.clear()
            fitter_calls.clear()
            config = BenchmarkConfig(seed=11, procedures=(proc,), train_sizes=(30,),
                                     repeats=1, cv_folds=folds)
            assert run_benchmark(ds, config).failures == 0
            assert len(calls) == grams, folds
            assert fitter_calls == [(30 - 30 // folds, 30 // folds)] * (folds * searches)

    def test_failed_cell_recorded_as_nan(self, capsys):
        ds = self.make_dataset()
        config = BenchmarkConfig(seed=4, procedures=("direct",),
                                 train_sizes=(80,), repeats=1, cv_folds=3)
        report = run_benchmark(ds, config)
        assert report.failures == 1
        assert math.isnan(report.rows[0][3])
        assert "failed" in capsys.readouterr().err

    def test_external_test_pool(self):
        ds = self.make_dataset()
        test_ds = synth_dataset("offset_transfer", n=30, dims=2, noise_sd=0.05, seed=99)
        config = BenchmarkConfig(seed=6, procedures=("only_source",),
                                 train_sizes=(12,), repeats=1, cv_folds=3)
        report = run_benchmark(ds, config, test_dataset=test_ds)
        assert report.failures == 0

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, np.linalg.LinAlgError])
    def test_numerical_failure_logged_with_its_type(self, monkeypatch, capsys, error):
        def failing(*args):
            raise error("no fit")

        monkeypatch.setattr(benchmark, "_run_cell", failing)
        config = BenchmarkConfig(seed=4, procedures=("direct",), train_sizes=(10,),
                                 repeats=2, cv_folds=3)
        report = run_benchmark(self.make_dataset(), config)
        assert report.failures == 2
        assert all(math.isnan(r[3]) for r in report.rows)
        assert f"{error.__name__}: no fit" in capsys.readouterr().err

    def test_programming_error_propagates(self, monkeypatch):
        def buggy(*args):
            raise TypeError("bug in a cell")

        monkeypatch.setattr(benchmark, "_run_cell", buggy)
        config = BenchmarkConfig(seed=4, procedures=("direct",), train_sizes=(10,),
                                 repeats=1, cv_folds=3)
        with pytest.raises(TypeError, match="bug in a cell"):
            run_benchmark(self.make_dataset(), config)

    def test_cells_run_on_the_calling_thread(self, monkeypatch):
        # a thread-count variable from the environment changes nothing
        ds = self.make_dataset()
        config = BenchmarkConfig(seed=7, procedures=("direct", "only_source"),
                                 train_sizes=(10,), repeats=2, cv_folds=3,
                                 test_cap=30)
        plain = run_benchmark(ds, config)
        threads = []
        run_cell = benchmark._run_cell

        def recording(*args):
            threads.append(threading.get_ident())
            return run_cell(*args)

        monkeypatch.setattr(benchmark, "_run_cell", recording)
        monkeypatch.setenv("AFFINETL_THREADS", "4")
        report = run_benchmark(ds, config)
        assert threads == [threading.get_ident()] * 4
        assert report.rows == plain.rows


def count_gram_calls(monkeypatch) -> list:
    """The specs of every ``gram`` call the benchmark's modules make."""
    from affinetl import affine, baselines

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return gram(*args, **kwargs)

    for module in (affine, baselines, benchmark):
        monkeypatch.setattr(module, "gram", counted)
    return calls


def per_point_cv_means(fit_point, X, Fs, y, k, seed):
    """The search the fold-level one replaced: a fresh ``fit_baseline`` and
    ``predict_baseline`` at every (grid point, fold)."""
    folds = kfold_split(len(y), k, seed)
    means = []
    for params in KRR_SHRINK_GRID.points():
        try:
            means.append(float(np.mean([
                rmse(predict_baseline(fit_point(params["shrink"], X[tr], Fs[tr], y[tr]),
                                      X[te], Fs[te]), y[te])
                for tr, te in folds])))
        except ZeroDivisionError:
            means.append(math.inf)
    return means


def first_best(means):
    best = min(range(len(means)), key=lambda i: (means[i], i))
    return KRR_SHRINK_GRID.params["shrink"][best]


class TestFoldLevelKRR:
    """The benchmark's fold-level KRR search (one Gram and one
    eigendecomposition per fold) against the per-point search."""

    SINGLE = ("direct", "only_source", "augmented")

    def population(self):
        return synth_dataset("offset_transfer", 300, dims=3, noise_sd=0.05, seed=7)

    def specs(self, ds):
        ells = length_scales("sqrt_dim", ds.X.shape[1], ds.Fs.shape[1])
        return {name: KernelSpec("rbf", ell) for name, ell in ells.items()}

    def record_searches(self, monkeypatch):
        results = []
        original = benchmark.grid_search_cv

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            results.append([mean for _, mean, _ in res.table])
            return res

        monkeypatch.setattr(benchmark, "grid_search_cv", recording)
        return results

    def assert_same_means(self, got, want):
        assert len(got) == len(want) == len(KRR_SHRINK_GRID)
        for g, w in zip(got, want):
            if math.isinf(w):
                assert g == w
            else:
                assert g == pytest.approx(w, rel=1e-9)

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    def test_single_stage_picks_per_point_shrink(self, monkeypatch, n):
        ds = self.population()
        specs = self.specs(ds)
        for kind in self.SINGLE:
            spec = {"direct": specs["x"], "only_source": specs["fs"],
                    "augmented": specs["aug"]}[kind]
            rows = np.random.default_rng(child_seed(3, kind, n)).choice(ds.n, n, replace=False)
            train = ds.subset(rows)
            seed = child_seed(5, kind, n)
            searches = self.record_searches(monkeypatch)
            K = gram(spec, single_stage_inputs(kind, train.X, train.Fs))
            shrink = benchmark._cv_krr(K, train.y, 5, seed)
            want = per_point_cv_means(
                lambda s, X, Fs, y: fit_baseline(kind, X, Fs, y, spec, s),
                train.X, train.Fs, train.y, 5, seed)
            self.assert_same_means(searches[0], want)
            assert shrink == first_best(want), (kind, n)

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50])
    @pytest.mark.parametrize("kind", ["htl_offset", "htl_scale"])
    def test_two_stage_picks_per_point_shrinks(self, monkeypatch, kind, n):
        ds = self.population()
        specs = self.specs(ds)
        rows = np.random.default_rng(child_seed(3, kind, n)).choice(ds.n, n, replace=False)
        train = ds.subset(rows)
        seed = child_seed(5, kind, n)
        searches = self.record_searches(monkeypatch)
        model = benchmark._fit_two_stage(kind, train, 5, seed, specs["fs"], specs["x"])
        self.check_two_stage(kind, train, seed, specs, searches)
        assert model.stage1.shrink == first_best(searches[0])
        assert model.stage2.shrink == first_best(searches[1])

    def check_two_stage(self, kind, train, seed, specs, searches):
        want1 = per_point_cv_means(
            lambda s, X, Fs, y: fit_baseline("only_source", X, Fs, y, specs["fs"], s),
            train.X, train.Fs, train.y, 5, child_seed(seed, "stage1"))
        self.assert_same_means(searches[0], want1)
        shrink1 = first_best(want1)
        want2 = per_point_cv_means(
            lambda s, X, Fs, y: fit_baseline(kind, X, Fs, y, specs["fs"], shrink1,
                                             stage2_spec=specs["x"], stage2_shrink=s),
            train.X, train.Fs, train.y, 5, child_seed(seed, "stage2"))
        self.assert_same_means(searches[1], want2)
        return want2

    def test_scale_guard_fails_every_point(self, monkeypatch):
        # one row far from the others in fs with target 0: its stage-1
        # prediction is exactly 0 whenever it is a training row
        ds = self.population()
        specs = self.specs(ds)
        train = ds.subset(np.random.default_rng(8).choice(ds.n, 20, replace=False))
        train.Fs[0] = 1e3
        train.y[0] = 0.0
        seed = child_seed(5, "guard")
        searches = self.record_searches(monkeypatch)
        with pytest.raises(ZeroDivisionError):
            benchmark._fit_two_stage("htl_scale", train, 5, seed, specs["fs"], specs["x"])
        want2 = self.check_two_stage("htl_scale", train, seed, specs, searches)
        assert all(math.isinf(m) for m in want2)

    @pytest.mark.parametrize("n_train, n_test", [(2, 1), (8, 2), (40, 10), (50, 250)])
    def test_batched_path_matches_per_shrink_products(self, n_train, n_test):
        # one product for the whole grid against the per-shrink form
        # A (b / (mu + s)), A = K_te,tr V and b = V'z
        rng = np.random.default_rng(n_train)
        spec = KernelSpec("rbf", 1.7)
        Z, z = rng.normal(size=(n_train + n_test, 3)), rng.normal(size=n_train)
        Ztr, Zte = Z[:n_train], Z[n_train:]
        mu, V = np.linalg.eigh(gram(spec, Ztr))
        A, b = gram(spec, Zte, Ztr) @ V, V.T @ z
        shrinks = np.asarray(KRR_SHRINK_GRID.params["shrink"])
        path = benchmark._krr_path(gram(spec, Z), np.arange(n_train),
                                   np.arange(n_train, n_train + n_test), z)
        rows = path(shrinks)
        assert rows.shape == (len(shrinks), n_test) and rows.flags.c_contiguous
        for s, row in zip(shrinks, rows):
            want = A @ (b / (mu + s))
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))
        for i in (0, 17, 49):  # a one-point call, as the per-point fallback makes
            single = path(shrinks[i : i + 1])
            assert single.shape == (1, n_test)
            assert np.max(np.abs(single[0] - rows[i])) <= 1e-12 * np.max(np.abs(rows[i]))

    @pytest.mark.parametrize("spec", [
        KernelSpec("rbf", 1.3),
        KernelSpec("matern", 0.9, nu=0.5),
        KernelSpec("matern", 0.9, nu=1.5),
        KernelSpec("matern", 0.9, nu=2.5),
        KernelSpec("matern", 0.9, nu=math.inf),
    ])
    def test_fold_gram_is_submatrix_bit_for_bit(self, spec):
        Z = np.random.default_rng(12).normal(size=(40, 4))
        K = gram(spec, Z)
        for tr, te in kfold_split(40, 5, seed=13):
            assert np.array_equal(gram(spec, Z[tr]), benchmark._block(K, tr, tr))
            assert np.array_equal(gram(spec, Z[te], Z[tr]), benchmark._block(K, te, tr))

    def test_block_is_the_fancy_indexed_submatrix(self):
        K = np.random.default_rng(14).normal(size=(12, 12))
        rows, cols = np.array([7, 0, 7, 3]), np.array([11, 2, 5])
        block = benchmark._block(K, rows, cols)
        assert block.flags.c_contiguous
        assert np.array_equal(block, K[np.ix_(rows, cols)])

    def test_linear_fold_gram_is_submatrix_to_rounding(self):
        spec = KernelSpec("linear", 1.3)
        Z = np.random.default_rng(12).normal(size=(40, 4))
        K = gram(spec, Z)
        for tr, te in kfold_split(40, 5, seed=13):
            assert np.allclose(gram(spec, Z[tr]), benchmark._block(K, tr, tr),
                               rtol=1e-13, atol=1e-13)
            assert np.allclose(gram(spec, Z[te], Z[tr]), benchmark._block(K, te, tr),
                               rtol=1e-13, atol=1e-13)


class TestFoldLevelAffine:
    """The affine search builds each fold's Grams and cross-Grams once; every
    grid point must score as a fresh ``fit`` and ``predict`` at that
    (point, fold) would, bit for bit."""

    @pytest.mark.parametrize("variant, grid", [
        ("constrained", AFFINE_CONSTRAINED_GRID),
        ("full_with_intercept", Grid(lambda1=(1e-2, 1.0), lambda2=(0.1,), lambda3=(0.1,))),
    ])
    def test_matches_per_point_fits(self, monkeypatch, variant, grid):
        ds = synth_dataset("offset_transfer", 300, dims=3, noise_sd=0.05, seed=7)
        train = ds.subset(np.random.default_rng(4).choice(ds.n, 12, replace=False))
        ells = length_scales("sqrt_dim", ds.X.shape[1], ds.Fs.shape[1])
        specs = (KernelSpec("rbf", ells["fs"]),) * 2 + (KernelSpec("rbf", ells["g3"]),)
        config = BenchmarkConfig(seed=1, scale_convention="appendix")
        seed = child_seed(9, variant)
        tables = []
        original = benchmark.grid_search_cv

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            tables.append(res.table)
            return res

        monkeypatch.setattr(benchmark, "grid_search_cv", recording)
        monkeypatch.setattr(benchmark, "AFFINE_FULL_GRID", grid)
        model = benchmark._fit_affine(variant, train, 3, seed, specs, config)

        def fit_config(params):
            return FitConfig(params["lambda1"], params.get("lambda2", 1.0), params["lambda3"],
                             variant=variant, seed=child_seed(seed, "init"),
                             scale_convention="appendix")

        X, Fs, y = train.X, train.Fs, train.y
        want = []
        for params in grid.points():
            scores = [rmse(predict(fit(fit_config(params), X[tr], Fs[tr], y[tr], specs)[0],
                                   X[te], Fs[te]), y[te])
                      for tr, te in kfold_split(train.n, 3, child_seed(seed, "cv"))]
            want.append((params, float(np.mean(scores)), scores))
        assert tables == [want]
        best = min(range(len(want)), key=lambda i: (want[i][1], i))
        ref, _ = fit(fit_config(want[best][0]), X, Fs, y, specs)
        for name in ("a", "b", "c"):
            assert np.array_equal(getattr(model, name), getattr(ref, name))
        assert model.d == ref.d
