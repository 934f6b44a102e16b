import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affinetl import calibration
from affinetl.calibration import (
    BlockLayout,
    CalibrationModel,
    build_fused_penalty,
    calibration_objective,
    default_layout,
    fit_calibration,
    fit_log_difference,
    fit_olr,
    predict_calibration,
    run_calibration_experiment,
)
from affinetl.data import synth_dataset
from affinetl.model_selection import (
    CALIBRATION_GRID,
    Grid,
    child_seed,
    grid_search_cv,
    kfold_split,
    pointwise,
)
from affinetl.solvers import penalized_ls

from conftest import fd_gradient, numeric_quadratic_argmin, quarters, same_examples

SMALL = BlockLayout((("b0", 3), ("b1", 3)))


def fused_quadratic(gamma, layout, l1, l2):
    """Direct summation of the penalty formula (test oracle)."""
    total = l1 * float(gamma @ gamma)
    pos = 0
    for _, size in layout.blocks:
        block = gamma[pos : pos + size]
        total += l2 * float(np.sum(np.diff(block) ** 2))
        pos += size
    return total


def make_calibration_data(rng, n=20, layout=SMALL, beta=0.0, gamma_scale=0.0,
                          alpha=(0.0, 1.0), noise=0.0):
    p = layout.total
    X = rng.normal(size=(n, p))
    fs = rng.normal(5.0, 1.0, size=n)
    gamma = gamma_scale * rng.normal(size=p)
    y = alpha[0] + alpha[1] * fs - (beta * fs + 1.0) * (X @ gamma)
    if noise:
        y = y + noise * rng.standard_normal(n)
    return X, fs, y, gamma


def update_calibration_block(which, state, X, fs, y, l_beta, l1, l2, layout):
    """Exact minimizer of the calibration objective over one block of
    ``state`` = (alpha0, alpha1, beta, gamma), from its normal equations by
    ``numpy.linalg.solve``: the cyclic block update, kept as a test oracle.
    ``which`` is "alpha" (returns a length-2 array), "beta" or "gamma"."""
    alpha0, alpha1, beta, gamma = state
    n = len(y)
    F = np.column_stack([np.ones(n), fs])
    Xg = X @ gamma
    if which == "alpha":
        return np.linalg.solve(F.T @ F, F.T @ (y + (beta * fs + 1.0) * Xg))
    t = y - alpha0 - alpha1 * fs
    if which == "beta":
        v = fs * Xg
        return -float(v @ (t + Xg)) / (float(v @ v) + n * l_beta)
    WX = (beta * fs + 1.0)[:, None] * X
    return -np.linalg.solve(WX.T @ WX + n * build_fused_penalty(layout, l1, l2), WX.T @ t)


def relative_change(new, old):
    new, old = np.atleast_1d(new), np.atleast_1d(old)
    scale, step = np.max(np.abs(old)), np.max(np.abs(new - old))
    return step / scale if scale > 1e-12 else step


def cyclic_calibration_fit(X, fs, y, l1, l2, l_beta, layout, tol, max_iter):
    """The cyclic fit the package used to run (test oracle): from the line
    fit, beta = 0 and the sign-flipped residual ridge fit, sweeps of exact
    alpha-, beta- and gamma-updates until the largest relative change of a
    block drops below ``tol`` or ``max_iter`` sweeps have run.  Returns the
    final objective and the initializer's."""
    def objective(alpha, beta, gamma):
        return calibration_objective(*alpha, beta, gamma, X, fs, y, l_beta, l1, l2, layout)

    alpha, beta = np.array(fit_olr(fs, y)), 0.0
    gamma = -fit_log_difference(X, fs, y, l1, l2, layout)
    start = objective(alpha, beta, gamma)
    args = (X, fs, y, l_beta, l1, l2, layout)
    for _ in range(max_iter):
        new_alpha = update_calibration_block("alpha", (*alpha, beta, gamma), *args)
        new_beta = update_calibration_block("beta", (*new_alpha, beta, gamma), *args)
        new_gamma = update_calibration_block("gamma", (*new_alpha, new_beta, gamma), *args)
        change = max(relative_change(new_alpha, alpha), relative_change(new_beta, beta),
                     relative_change(new_gamma, gamma))
        alpha, beta, gamma = new_alpha, new_beta, new_gamma
        if change < tol:
            break
    return objective(alpha, beta, gamma), start


def profile_step(X, fs, y, beta, l1, l2, l_beta, layout):
    """The package's profile evaluation at ``beta``: (f(beta), alpha, gamma)."""
    basis = calibration._dual_gamma_basis(X, layout, l1, l2)
    F = np.column_stack([np.ones_like(fs), fs])
    return calibration._profile(beta, basis, F, fs, y, l_beta)


def primal_joint_step(X, fs, y, beta, l1, l2, layout):
    """(alpha, gamma) minimizing the objective at a fixed beta, from the
    normal equations of its 2 + p coordinates (test oracle)."""
    n, p = X.shape
    design = np.column_stack([np.ones(n), fs, -(beta * fs + 1.0)[:, None] * X])
    penalty = np.zeros((p + 2, p + 2))
    penalty[2:, 2:] = n * build_fused_penalty(layout, l1, l2)
    coef = np.linalg.solve(design.T @ design + penalty, design.T @ y)
    return coef[:2], coef[2:]


class TestBlockLayout:
    def test_default_layout_shape(self):
        layout = default_layout()
        assert layout.total == 190
        assert layout.blocks[0] == ("mass", 10)
        assert all(size == 20 for _, size in layout.blocks[1:])
        assert layout.boundaries() == [10, 30, 50, 70, 90, 110, 130, 150, 170]

    def test_rejects_tiny_blocks(self):
        with pytest.raises(ValueError):
            BlockLayout((("a", 1),))
        with pytest.raises(ValueError):
            BlockLayout(())


class TestBuildFusedPenalty:
    def test_single_block_hand_value(self):
        layout = BlockLayout((("a", 3),))
        lam = build_fused_penalty(layout, 0.0, 1.0)
        want = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(lam, want)

    def test_zero_smoothness_is_pure_ridge(self):
        lam = build_fused_penalty(SMALL, 0.7, 0.0)
        assert np.array_equal(lam, 0.7 * np.eye(6))

    def test_no_cross_block_penalty(self):
        layout = BlockLayout((("a", 2), ("b", 2)))
        gamma = np.array([3.0, 3.0, -1.0, -1.0])
        lam = build_fused_penalty(layout, 0.0, 1.0)
        assert gamma @ lam @ gamma == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_form_matches_summed_formula(self):
        rng = np.random.default_rng(0)
        layouts = [SMALL, default_layout(), BlockLayout((("a", 4), ("b", 2), ("c", 5)))]
        for trial in range(100):
            layout = layouts[trial % 3]
            l1, l2 = rng.uniform(0.0, 5.0, size=2)
            gamma = rng.normal(size=layout.total)
            lam = build_fused_penalty(layout, l1, l2)
            got = float(gamma @ lam @ gamma)
            want = fused_quadratic(gamma, layout, l1, l2)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_symmetric_psd(self):
        for l1, l2 in ((0.0, 1.0), (2.0, 0.0), (0.3, 4.0)):
            A = build_fused_penalty(default_layout(), l1, l2)
            assert np.array_equal(A, A.T)
            assert np.linalg.eigvalsh(A)[0] >= -1e-10

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            build_fused_penalty(SMALL, -1.0, 0.0)

    def test_zero_ridge_weight_accepted(self):
        # l1 = 0 leaves the singular smoothness term: one null vector, the
        # constant, per block
        layout = default_layout()
        lam = build_fused_penalty(layout, 0.0, 2.0)
        assert np.array_equal(lam, build_fused_penalty(layout, 1.0, 2.0) - np.eye(190))
        assert np.sum(np.linalg.eigvalsh(lam) < 1e-10) == len(layout.blocks)
        assert np.max(np.abs(lam @ np.r_[np.ones(10), np.zeros(180)])) == 0.0


class TestLaplacianEigenbasis:
    def test_cached_per_layout_and_read_only(self):
        calibration._laplacian_eigenbasis.cache_clear()
        mu, V = calibration._laplacian_eigenbasis(BlockLayout((("a", 4), ("b", 2))))
        again = calibration._laplacian_eigenbasis(BlockLayout((("a", 4), ("b", 2))))
        assert again[0] is mu and again[1] is V
        for array in (mu, V):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_one_eigh_per_layout_across_splits(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(A):
            calls.append(A.shape)
            return eigh(A)

        calibration._laplacian_eigenbasis.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        ds = synth_dataset("calibration", 80, 190, 0.05, seed=2)
        run_calibration_experiment(ds, seed=2, splits=2)
        assert calls == [(190, 190)]


class TestFitOLR:
    def test_exact_line(self):
        fs = np.linspace(0, 5, 30)
        a0, a1 = fit_olr(fs, 2.0 * fs + 1.0)
        assert a0 == pytest.approx(1.0, abs=1e-12)
        assert a1 == pytest.approx(2.0, abs=1e-12)

    def test_constant_target(self):
        rng = np.random.default_rng(1)
        fs = rng.normal(size=20)
        a0, a1 = fit_olr(fs, np.full(20, 4.2))
        assert a0 == pytest.approx(4.2, abs=1e-12)
        assert a1 == pytest.approx(0.0, abs=1e-12)

    def test_matches_penalized_ls_with_zero_penalty(self):
        rng = np.random.default_rng(2)
        fs = rng.normal(size=50)
        y = rng.normal(size=50)
        a0, a1 = fit_olr(fs, y)
        design = np.column_stack([np.ones(50), fs])
        w = penalized_ls(design, y, np.zeros((2, 2)))
        assert abs(a0 - w[0]) <= 1e-10
        assert abs(a1 - w[1]) <= 1e-10

    def test_constant_fs_rejected(self):
        with pytest.raises(ValueError):
            fit_olr(np.ones(10), np.arange(10.0))


class TestFitLogDifference:
    def test_zero_residual_gives_zero_gamma(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 6))
        fs = rng.normal(size=15)
        gamma = fit_log_difference(X, fs, fs.copy(), 0.5, 1.0, SMALL)
        assert np.max(np.abs(gamma)) <= 1e-8

    def test_huge_ridge_kills_gamma(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 6))
        fs = rng.normal(size=15)
        y = fs + X @ rng.normal(size=6)
        gamma = fit_log_difference(X, fs, y, 1e8, 1.0, SMALL)
        assert np.max(np.abs(gamma)) <= 1e-6

    def test_matches_numeric_quadratic_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 6))
        fs = rng.normal(size=12)
        y = rng.normal(size=12)
        l1, l2 = 0.4, 1.3
        gamma = fit_log_difference(X, fs, y, l1, l2, SMALL)

        def f(g):
            r = (y - fs) - X @ g
            return float(r @ r) + fused_quadratic(g, SMALL, l1, l2)

        oracle = numeric_quadratic_argmin(f, 6)
        assert np.max(np.abs(gamma - oracle)) <= 1e-6


class TestUpdateCalibrationBlock:
    """The cyclic block-update oracle is itself exact."""

    @pytest.mark.parametrize("which,dim", [("alpha", 2), ("beta", 1), ("gamma", 6)])
    def test_matches_numeric_quadratic_oracle(self, which, dim):
        rng = np.random.default_rng(6)
        X, fs, y, _ = make_calibration_data(rng, n=20, gamma_scale=0.3, beta=-0.1,
                                            noise=0.1)
        l_beta, l1, l2 = 1.0, 0.5, 2.0
        state = (0.3, 0.9, -0.05, rng.normal(size=6) * 0.2)

        new = update_calibration_block(which, state, X, fs, y, l_beta, l1, l2, SMALL)

        def f(v):
            if which == "alpha":
                s = (v[0], v[1], state[2], state[3])
            elif which == "beta":
                s = (state[0], state[1], float(v[0]), state[3])
            else:
                s = (state[0], state[1], state[2], v)
            return calibration_objective(*s, X, fs, y, l_beta, l1, l2, SMALL)

        oracle = numeric_quadratic_argmin(f, dim)
        got = np.atleast_1d(np.asarray(new, dtype=float))
        assert np.max(np.abs(got - oracle)) <= 1e-5

    def test_stationarity_by_finite_differences(self):
        rng = np.random.default_rng(7)
        X, fs, y, _ = make_calibration_data(rng, n=20, gamma_scale=0.2, noise=0.05)
        l_beta, l1, l2 = 1.0, 0.3, 1.5
        state = [0.1, 1.1, 0.02, rng.normal(size=6) * 0.1]
        for which, slot in (("alpha", None), ("beta", 2), ("gamma", 3)):
            new = update_calibration_block(which, tuple(state), X, fs, y,
                                           l_beta, l1, l2, SMALL)
            if which == "alpha":
                state[0], state[1] = float(new[0]), float(new[1])
                x = np.array([state[0], state[1]])

                def f(v):
                    return calibration_objective(v[0], v[1], state[2], state[3],
                                                 X, fs, y, l_beta, l1, l2, SMALL)
            elif which == "beta":
                state[2] = float(new)
                x = np.array([state[2]])

                def f(v):
                    return calibration_objective(state[0], state[1], float(v[0]),
                                                 state[3], X, fs, y, l_beta, l1, l2, SMALL)
            else:
                state[3] = new
                x = np.asarray(new)

                def f(v):
                    return calibration_objective(state[0], state[1], state[2], v,
                                                 X, fs, y, l_beta, l1, l2, SMALL)

            assert np.max(np.abs(fd_gradient(f, x))) <= 1e-6


class TestDualGammaStep:
    """A profile evaluation's joint (alpha, gamma) is the primal minimizer at
    that beta, and its value is the objective there."""

    @staticmethod
    def check(X, fs, y, beta, l1, l2, layout):
        value, alpha, gamma = profile_step(X, fs, y, beta, l1, l2, 1.0, layout)
        want_alpha, want_gamma = primal_joint_step(X, fs, y, beta, l1, l2, layout)
        assert np.max(np.abs(alpha - want_alpha)) <= 1e-9 * np.max(np.abs(want_alpha))
        assert np.max(np.abs(gamma - want_gamma)) <= 1e-9 * np.max(np.abs(want_gamma))
        recomputed = calibration_objective(*alpha, beta, gamma, X, fs, y, 1.0, l1, l2, layout)
        assert value == pytest.approx(recomputed, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("l1,l2", [(0.01 / 60, 50.0 / 60), (1.0, 2.5), (0.3, 0.0)])
    def test_matches_primal_minimizer_more_descriptors_than_rows(self, seed, l1, l2):
        ds = synth_dataset("calibration", 60, 190, 0.05, seed)
        self.check(ds.X, ds.Fs[:, 0], ds.y, -0.2, l1, l2, ds.metadata["layout"])

    def test_matches_primal_minimizer_more_rows_than_descriptors(self):
        rng = np.random.default_rng(17)
        X, fs, y, _ = make_calibration_data(rng, n=40, gamma_scale=0.4, beta=-0.1, noise=0.1)
        self.check(X, fs, y, 0.05, 0.2, 1.5, SMALL)

    def test_fit_uses_the_dual_step(self, factor_sizes):
        # every profile evaluation factors one n x n system and the 2 x 2
        # of alpha's weighted least squares; no p x p system
        rng = np.random.default_rng(18)
        X, fs, y, _ = make_calibration_data(rng, n=5, gamma_scale=0.4, noise=0.1)
        _, trace = fit_calibration(X, fs, y, l1=0.2, l2=0.8, layout=SMALL, max_iter=7)
        assert (trace.iterations, trace.converged) == (7, False)
        assert factor_sizes == [5, 2] * trace.iterations

    @pytest.mark.parametrize("l1", [0.0, -0.1])
    def test_nonpositive_l1_rejected(self, l1):
        rng = np.random.default_rng(19)
        X, fs, y, _ = make_calibration_data(rng, n=12, gamma_scale=0.3, noise=0.1)
        with pytest.raises(ValueError, match="l1"):
            fit_calibration(X, fs, y, l1=l1, l2=1.0, layout=SMALL)


def primal_residual_fitter(layout, X, fs, y):
    """Per-point residual-model search: one p x p fit_log_difference per
    (fold, grid point) (test oracle for the dual fold fitter)."""
    def fitter(train, test):
        def predict_point(params):
            gamma = fit_log_difference(X[train], fs[train], y[train], params["l1"],
                                       params["l2"], layout)
            return fs[test] + X[test] @ gamma

        return pointwise(predict_point)

    return fitter


class TestResidualModelCV:
    @staticmethod
    def compare(ds, train_size, seed):
        # the training rows and fold seed of split 0 of run_calibration_experiment
        layout = ds.metadata["layout"]
        perm = np.random.default_rng(child_seed(seed, "calibration", 0)).permutation(ds.n)
        train = ds.subset(perm[:train_size])
        data = (train.X, train.Fs[:, 0], train.y)
        cv_seed = child_seed(seed, "calibration-cv", 0)
        got = grid_search_cv(calibration._log_difference_fold_fitter(layout, *data),
                             CALIBRATION_GRID, train.y, k=5, seed=cv_seed)
        want = grid_search_cv(primal_residual_fitter(layout, *data),
                              CALIBRATION_GRID, train.y, k=5, seed=cv_seed)
        assert got.best_params == want.best_params
        means = np.array([[g[1], w[1]] for g, w in zip(got.table, want.table)])
        assert np.all(np.isfinite(means))
        assert np.max(np.abs(means[:, 0] / means[:, 1] - 1.0)) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cli_default_problem(self, seed):
        # 190 descriptors, 48 rows per training fold
        self.compare(synth_dataset("calibration", 200, 190, 0.05, seed), 60, seed)

    def test_more_rows_than_descriptors(self):
        # 24 descriptors, 80 rows per training fold
        self.compare(synth_dataset("calibration", 120, 24, 0.05, seed=7), 100, 7)


class TestFitCalibration:
    def test_pure_line_data_stays_at_olr(self):
        rng = np.random.default_rng(8)
        X, fs, y, _ = make_calibration_data(rng, n=25)  # y = fs exactly
        model, trace = fit_calibration(X, fs, y, l1=0.5, l2=1.0, layout=SMALL)
        a0, a1 = fit_olr(fs, y)
        assert abs(model.alpha0 - a0) <= 1e-6
        assert abs(model.alpha1 - a1) <= 1e-6
        assert abs(model.beta) <= 1e-6
        assert np.max(np.abs(model.gamma)) <= 1e-6
        assert trace.converged

    def test_trace_nonincreasing(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            X, fs, y, _ = make_calibration_data(
                rng, n=25, gamma_scale=0.5, beta=-0.2, noise=0.2
            )
            _, trace = fit_calibration(X, fs, y, l1=0.2, l2=0.8, layout=SMALL)
            obj = np.asarray(trace.objectives)
            assert np.all(np.diff(obj) <= 1e-9 * (1 + np.abs(obj[:-1])))

    def test_converged_fit_is_blockwise_stationary(self):
        rng = np.random.default_rng(10)
        X, fs, y, _ = make_calibration_data(rng, n=30, gamma_scale=0.4,
                                            beta=-0.1, noise=0.1)
        model, trace = fit_calibration(X, fs, y, l1=0.3, l2=1.0, layout=SMALL,
                                       tol=1e-10, max_iter=5000)
        assert trace.converged
        # no cyclic block update moves the profile search's end point
        state = (model.alpha0, model.alpha1, model.beta, model.gamma)
        for which in ("alpha", "beta", "gamma"):
            new = update_calibration_block(which, state, X, fs, y, 1.0, 0.3, 1.0, SMALL)
            cur = {"alpha": np.array([model.alpha0, model.alpha1]),
                   "beta": np.atleast_1d(model.beta),
                   "gamma": model.gamma}[which]
            assert np.max(np.abs(np.atleast_1d(new) - cur)) <= 1e-6

    def test_constant_fs_rejected(self, monkeypatch):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(10, 6))
        monkeypatch.setattr(calibration, "fit_olr", None)  # the fit does not need it
        with pytest.raises(ValueError, match="fs is constant"):
            fit_calibration(X, np.ones(10), rng.normal(size=10), 0.1, 0.1, layout=SMALL)

    @pytest.mark.parametrize("l_beta", [0.0, -1.0, math.inf, math.nan])
    def test_l_beta_must_be_positive_and_finite(self, l_beta):
        rng = np.random.default_rng(11)
        X, fs, y, _ = make_calibration_data(rng, n=12, gamma_scale=0.3, noise=0.1)
        with pytest.raises(ValueError, match="l_beta must be positive"):
            fit_calibration(X, fs, y, 0.1, 0.1, l_beta=l_beta, layout=SMALL)

    @pytest.mark.parametrize("tol,max_iter", [(0.0, 10), (-1e-4, 10), (1e-4, 0)])
    def test_tol_and_max_iter_checked(self, tol, max_iter):
        rng = np.random.default_rng(11)
        X, fs, y, _ = make_calibration_data(rng, n=12, gamma_scale=0.3, noise=0.1)
        with pytest.raises(ValueError, match="tol > 0 and max_iter >= 1"):
            fit_calibration(X, fs, y, 0.1, 0.1, layout=SMALL, tol=tol, max_iter=max_iter)

    def test_layout_dimension_checked(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            fit_calibration(rng.normal(size=(10, 5)), rng.normal(size=10),
                            rng.normal(size=10), 0.1, 0.1, layout=SMALL)

    @pytest.mark.parametrize("name,value,row", [
        ("y", np.nan, 3), ("X", np.inf, 7), ("fs", np.nan, 0)])
    def test_non_finite_input_rejected_with_row(self, name, value, row):
        rng = np.random.default_rng(14)
        X, fs, y, _ = make_calibration_data(rng, n=12, gamma_scale=0.3, noise=0.1)
        arrays = {"X": X, "fs": fs, "y": y}
        arrays[name][row] = value
        with pytest.raises(ValueError, match=f"non-finite value in {name} at row {row}"):
            fit_calibration(X, fs, y, 0.1, 0.1, layout=SMALL)


def vectors(n):
    return arrays(float, n, elements=quarters)


def check_fit_or_constant_fs(X, fs, y, l_beta=1.0):
    """The fit returns a finite, converged model whose objective is at or
    below the minimum at beta = 0, or rejects a constant fs.  Returns the
    minimum at beta = 0 and the fit's trace (None when rejected)."""
    l1, l2 = 0.3, 1.0
    try:
        model, trace = fit_calibration(X, fs, y, l1, l2, l_beta=l_beta, layout=SMALL)
    except ValueError as exc:
        assert np.ptp(fs) == 0.0 and "fs is constant" in str(exc)
        return None, None
    coef = np.r_[model.alpha0, model.alpha1, model.beta, model.gamma]
    assert np.all(np.isfinite(coef)) and trace.converged
    final = calibration_objective(*coef[:3], model.gamma, X, fs, y, l_beta, l1, l2, SMALL)
    alpha, gamma = primal_joint_step(X, fs, y, 0.0, l1, l2, SMALL)
    f0 = calibration_objective(*alpha, 0.0, gamma, X, fs, y, l_beta, l1, l2, SMALL)
    assert final <= f0 + 1e-12 * (1.0 + f0)
    assert abs(trace.objectives[-1] - final) <= 1e-8 * (1.0 + final)
    return f0, trace


class TestDegenerateInputs:
    """Property tests: degenerate data gets a finite model at or below the
    beta = 0 optimum, or the specific error for a constant fs."""

    @same_examples
    @given(X=arrays(float, (3, 6), elements=quarters), fs=vectors(3), y=vectors(3))
    def test_three_rows(self, X, fs, y):
        check_fit_or_constant_fs(X, fs, y)

    @same_examples
    @given(X=arrays(float, (4, 6), elements=quarters), fs=vectors(4),
           rows=st.lists(st.integers(0, 3), min_size=3, max_size=10), y=vectors(11))
    def test_duplicate_rows(self, X, fs, rows, y):
        rows = rows + rows[:1]  # at least one row appears twice
        check_fit_or_constant_fs(X[rows], fs[rows], y[: len(rows)])

    @same_examples
    @given(X=arrays(float, (8, 6), elements=quarters), fs=vectors(8), y=vectors(8),
           column=st.integers(0, 5), value=quarters)
    def test_constant_descriptor_column(self, X, fs, y, column, value):
        X[:, column] = value
        check_fit_or_constant_fs(X, fs, y)

    @same_examples
    @given(X=arrays(float, (8, 6), elements=quarters), fs=vectors(8), y=vectors(8),
           pole=st.sampled_from([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0]))
    def test_zero_weight_row_inside_the_bracket(self, X, fs, y, pole):
        # beta = -1 / pole zeroes row 0's weight beta fs + 1
        fs[0] = pole
        l_beta = 0.01
        f0, trace = check_fit_or_constant_fs(X, fs, y, l_beta)
        assume(trace is not None and 1.0 / abs(pole) < math.sqrt(f0 / l_beta))


class TestFitCalibrationMatchesPublicBlockSweep:
    LAYOUT = BlockLayout((("b0", 10), ("b1", 14)))  # p = 24 > n = 16: dual solves

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("l1,l2,max_iter", [(0.05, 0.5, 300), (0.5, 2.0, 300),
                                                (0.05, 0.5, 6)])
    def test_objective_at_or_below_cyclic_fit(self, seed, l1, l2, max_iter):
        # max_iter caps the sweeps of the tight (tol 1e-10) cyclic run
        rng = np.random.default_rng(seed)
        X, fs, y, _ = make_calibration_data(rng, n=16, layout=self.LAYOUT, gamma_scale=0.3,
                                            beta=-0.2, noise=0.1)
        args = (X, fs, y, l1, l2, 0.5, self.LAYOUT)
        model, trace = fit_calibration(X, fs, y, l1, l2, l_beta=0.5, layout=self.LAYOUT)
        assert trace.converged
        final = calibration_objective(model.alpha0, model.alpha1, model.beta, model.gamma,
                                      X, fs, y, 0.5, l1, l2, self.LAYOUT)
        assert trace.objectives[-1] == pytest.approx(final, rel=1e-8)
        # at or below the cyclic fit at its old defaults and its initializer,
        # up to roundoff, and within 1e-9 of a tight cyclic run
        cyclic, start = cyclic_calibration_fit(*args, 1e-4, 1000)
        assert final <= min(cyclic, start) * (1.0 + 1e-12)
        tight, _ = cyclic_calibration_fit(*args, 1e-10, max_iter)
        assert final <= tight * (1.0 + 1e-9)


class TestPredictCalibration:
    def test_zero_beta_gamma_is_pure_line(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(8, 6))
        fs = rng.normal(size=8)
        model = CalibrationModel(1.5, 0.8, 0.0, np.zeros(6), SMALL)
        assert np.allclose(predict_calibration(model, X, fs), 1.5 + 0.8 * fs,
                           atol=1e-14)

    def test_zero_gamma_ignores_beta(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(8, 6))
        fs = rng.normal(size=8)
        m1 = CalibrationModel(0.2, 1.1, 0.0, np.zeros(6), SMALL)
        m2 = CalibrationModel(0.2, 1.1, -5.0, np.zeros(6), SMALL)
        assert np.array_equal(predict_calibration(m1, X, fs),
                              predict_calibration(m2, X, fs))

    def test_train_predictions_reproduce_final_objective(self):
        rng = np.random.default_rng(15)
        X, fs, y, _ = make_calibration_data(rng, n=25, gamma_scale=0.3, noise=0.1)
        l1, l2 = 0.4, 1.2
        model, trace = fit_calibration(X, fs, y, l1=l1, l2=l2, layout=SMALL)
        r = y - predict_calibration(model, X, fs)
        lam = build_fused_penalty(SMALL, l1, l2)
        recomputed = (float(r @ r) / 25 + 1.0 * model.beta**2
                      + float(model.gamma @ lam @ model.gamma))
        assert recomputed == pytest.approx(trace.objectives[-1], rel=1e-12)

    @pytest.mark.parametrize("name,value,row", [
        ("X", np.inf, 1), ("X", np.nan, 0), ("fs", np.nan, 3)])
    def test_non_finite_rows_rejected_with_row(self, name, value, row):
        rng = np.random.default_rng(16)
        arrays = {"X": rng.normal(size=(4, 6)), "fs": rng.normal(size=4)}
        arrays[name][row] = value
        model = CalibrationModel(0.5, 1.0, 0.2, rng.normal(size=6), SMALL)
        with pytest.raises(ValueError, match=f"non-finite value in {name} at row {row}"):
            predict_calibration(model, arrays["X"], arrays["fs"])

    def test_shape_validation(self):
        model = CalibrationModel(0.0, 1.0, 0.0, np.zeros(6), SMALL)
        with pytest.raises(ValueError):
            predict_calibration(model, np.ones((3, 5)), np.ones(3))


class TestRunCalibrationExperiment:
    def test_full_cv_divides_weights_by_each_training_size(self, monkeypatch):
        fits, searches = [], []
        original_fit = calibration.fit_calibration
        original_search = calibration.grid_search_cv

        def recording_fit(X, fs, y, l1, l2, **kwargs):
            fits.append((len(y), l1, l2))
            return original_fit(X, fs, y, l1, l2, **kwargs)

        def recording_search(*args, **kwargs):
            searches.append(original_search(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(calibration, "fit_calibration", recording_fit)
        monkeypatch.setattr(calibration, "grid_search_cv", recording_search)
        ds = synth_dataset("calibration", n=40, dims=24, noise_sd=0.02, seed=16)
        grid = Grid(l1=(0.5, 2.0), l2=(50.0,))
        run_calibration_experiment(ds, seed=4, splits=1, train_size=31, test_size=8,
                                   grid=grid, cv_folds=3, full_cv=True)

        fold_sizes = [len(train) for train, _ in kfold_split(31, 3, 0)]
        assert sorted(set(fold_sizes)) == [20, 21]  # unequal folds tell the sizes apart
        want = [(n, point["l1"] / n, point["l2"] / n)
                for n in fold_sizes for point in grid.points()]
        assert fits[:-1] == want
        assert len(searches) == 2  # residual model, then full model
        chosen = searches[-1].best_params
        assert fits[-1] == (31, chosen["l1"] / 31, chosen["l2"] / 31)

    def test_splits_must_be_positive(self):
        ds = synth_dataset("calibration", n=40, dims=24, noise_sd=0.02, seed=16)
        with pytest.raises(ValueError, match="splits must be at least 1"):
            run_calibration_experiment(ds, seed=1, splits=0, train_size=30, test_size=8)

    @pytest.mark.parametrize("grid", [Grid(l1=(0.5, 0.0), l2=(50.0,)),
                                      Grid(l1=(-1.0,), l2=(50.0,)),
                                      Grid(l1=(0.5,), l2=(50.0, -1.0))])
    def test_grid_weights_checked_up_front(self, grid, monkeypatch):
        # a point the dual solve cannot take is an error, not a +inf CV score
        searches = []
        monkeypatch.setattr(calibration, "grid_search_cv",
                            lambda *a, **k: searches.append(a))
        ds = synth_dataset("calibration", n=40, dims=24, noise_sd=0.02, seed=16)
        with pytest.raises(ValueError, match="l1 values > 0"):
            run_calibration_experiment(ds, seed=1, splits=1, train_size=30, test_size=8,
                                       grid=grid)
        assert searches == []

    def test_rows_must_cover_train_and_test(self):
        ds = synth_dataset("calibration", n=38, dims=24, noise_sd=0.02, seed=16)
        with pytest.raises(ValueError, match="need at least 38 rows"):
            run_calibration_experiment(ds.subset(np.arange(37)), seed=1, splits=1,
                                       train_size=30, test_size=8)
        rows, _, _ = run_calibration_experiment(ds, seed=1, splits=1, train_size=30,
                                                test_size=8)
        assert [r[0] for r in rows] == ["olr", "log_difference", "full"]
