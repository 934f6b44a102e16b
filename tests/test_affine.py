import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affinetl.affine import (
    _RATIO_GUARD,
    AffineTLModel,
    FitConfig,
    _update_ratio,
    alternate,
    fit,
    fit_constrained,
    objective,
    predict,
    update_block,
)
from affinetl.data import synth_dataset
from affinetl.kernels import KernelSpec, gram
from affinetl.model_selection import AFFINE_FULL_GRID, rmse
from affinetl.solvers import ridge_solve

from conftest import fd_gradient, numeric_quadratic_argmin, quarters, same_examples

SPECS = (KernelSpec("rbf", 1.2), KernelSpec("rbf", 1.2), KernelSpec("rbf", 1.5))


def make_problem(rng, n, dim_x=3, dim_fs=2):
    X = rng.normal(size=(n, dim_x))
    Fs = rng.normal(size=(n, dim_fs))
    y = rng.normal(size=n)
    K1 = gram(SPECS[0], Fs)
    K2 = gram(SPECS[1], Fs)
    K3 = gram(SPECS[2], X)
    return X, Fs, y, K1, K2, K3


def objective_duplicate(a, b, c, d, K1, K2, K3, y, config):
    """Independently coded re-evaluation of the objective formula."""
    n = len(y)
    if config.variant == "full":
        w = K2 @ b
    else:
        w = K2 @ b + 1.0
    resid_sq = sum(
        (y[i] - K1[i] @ a - w[i] * (K3[i] @ c) - d) ** 2 for i in range(n)
    )
    scale = 1.0 / n if config.scale_convention == "eqn3" else 1.0
    return (
        scale * resid_sq
        + config.lambda1 * a @ K1 @ a
        + config.lambda2 * b @ K2 @ b
        + config.lambda3 * c @ K3 @ c
    )


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            FitConfig(1.0, 1.0, 1.0, variant="reduced")
        with pytest.raises(ValueError):
            FitConfig(1.0, 1.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(1.0, 1.0, 1.0, scale_convention="main")

    def test_shrink_follows_convention(self):
        cfg = FitConfig(0.5, 1.0, 1.0)
        assert cfg.shrink(0.5, 10) == 5.0
        cfg = FitConfig(0.5, 1.0, 1.0, scale_convention="appendix")
        assert cfg.shrink(0.5, 10) == 0.5


class TestObjective:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(0)
        _, _, y, K1, K2, K3 = make_problem(rng, 5)
        z = np.zeros(5)
        cfg = FitConfig(0.1, 0.1, 0.1)
        assert objective(z, z, z, 0.0, K1, K2, K3, y, cfg) == pytest.approx(
            np.sum(y**2) / 5, abs=1e-14
        )

    def test_zero_residual_leaves_penalty(self):
        rng = np.random.default_rng(1)
        _, _, _, K1, K2, K3 = make_problem(rng, 6)
        a = rng.normal(size=6)
        y = K1 @ a
        z = np.zeros(6)
        cfg = FitConfig(1e-6, 0.1, 0.1)
        got = objective(a, z, z, 0.0, K1, K2, K3, y, cfg)
        assert got == pytest.approx(1e-6 * a @ K1 @ a, rel=1e-12)

    @pytest.mark.parametrize("variant", ["full", "full_with_intercept"])
    @pytest.mark.parametrize("convention", ["eqn3", "appendix"])
    def test_matches_duplicate_formula(self, variant, convention):
        rng = np.random.default_rng(2)
        for _ in range(10):
            _, _, y, K1, K2, K3 = make_problem(rng, 6)
            cfg = FitConfig(0.3, 0.2, 0.15, variant=variant, scale_convention=convention)
            a, b, c = rng.normal(size=(3, 6))
            d = 0.0 if variant == "full" else float(rng.normal())
            got = objective(a, b, c, d, K1, K2, K3, y, cfg)
            want = objective_duplicate(a, b, c, d, K1, K2, K3, y, cfg)
            assert got == pytest.approx(want, rel=1e-12)

    def test_full_variant_rejects_intercept(self):
        rng = np.random.default_rng(3)
        _, _, y, K1, K2, K3 = make_problem(rng, 4)
        z = np.zeros(4)
        with pytest.raises(ValueError):
            objective(z, z, z, 0.5, K1, K2, K3, y, FitConfig(0.1, 0.1, 0.1))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(4)
        _, _, y, K1, K2, K3 = make_problem(rng, 4)
        with pytest.raises(ValueError):
            objective(np.zeros(3), np.zeros(4), np.zeros(4), 0.0, K1, K2, K3, y,
                      FitConfig(0.1, 0.1, 0.1))


class TestUpdateBlock:
    def test_a_update_reduces_to_krr(self):
        rng = np.random.default_rng(5)
        _, _, y, K1, K2, K3 = make_problem(rng, 7)
        z = np.zeros(7)
        cfg = FitConfig(0.2, 0.1, 0.1)
        got = update_block("a", (z, z, z, 0.0), K1, K2, K3, y, cfg)
        assert np.array_equal(got, ridge_solve(K1, y, 7 * 0.2))

    def test_c_update_reduces_to_krr_with_unit_g2(self):
        rng = np.random.default_rng(6)
        _, _, y, K1, K2, K3 = make_problem(rng, 7)
        z = np.zeros(7)
        cfg = FitConfig(0.2, 0.1, 0.3, variant="full_with_intercept",
                        scale_convention="appendix")
        got = update_block("c", (z, z, z, 0.0), K1, K2, K3, y, cfg)
        want = ridge_solve(K3, y, 0.3)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("which", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("convention", ["eqn3", "appendix"])
    def test_update_is_stationary_and_locally_minimal(self, which, convention):
        rng = np.random.default_rng(7)
        _, _, y, K1, K2, K3 = make_problem(rng, 6)
        cfg = FitConfig(0.2, 0.3, 0.25, variant="full_with_intercept",
                        scale_convention=convention)
        state = [rng.normal(size=6), rng.normal(size=6), rng.normal(size=6), 0.4]
        new = update_block(which, tuple(state), K1, K2, K3, y, cfg)
        slot = {"a": 0, "b": 1, "c": 2, "d": 3}[which]
        state[slot] = new

        def f(v):
            s = list(state)
            s[slot] = float(v[0]) if which == "d" else v
            return objective(*s, K1, K2, K3, y, cfg)

        x = np.atleast_1d(np.asarray(new, dtype=float))
        assert np.max(np.abs(fd_gradient(f, x))) <= 1e-7
        f_star = f(x)
        for _ in range(200):
            assert f(x + 1e-3 * rng.standard_normal(x.size)) >= f_star - 1e-12

    def test_d_update_matches_mean_formula(self):
        rng = np.random.default_rng(8)
        _, _, y, K1, K2, K3 = make_problem(rng, 6)
        cfg = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept")
        a, b, c = rng.normal(size=(3, 6))
        got = update_block("d", (a, b, c, 2.0), K1, K2, K3, y, cfg)
        want = np.mean(y - K1 @ a - (K2 @ b + 1.0) * (K3 @ c))
        assert got == pytest.approx(want, abs=1e-14)

    def test_invalid_blocks(self):
        rng = np.random.default_rng(9)
        _, _, y, K1, K2, K3 = make_problem(rng, 4)
        z = np.zeros(4)
        with pytest.raises(ValueError):
            update_block("d", (z, z, z, 0.0), K1, K2, K3, y, FitConfig(0.1, 0.1, 0.1))
        with pytest.raises(ValueError):
            update_block("e", (z, z, z, 0.0), K1, K2, K3, y,
                         FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept"))
        with pytest.raises(ValueError):
            update_block("a", (z, z, z, 0.0), K1, K2, K3, y,
                         FitConfig(0.1, 0.1, 0.1, variant="constrained"))


class TestFitConstrained:
    def test_huge_penalties_leave_intercept_only(self):
        rng = np.random.default_rng(10)
        _, _, y, K1, _, K3 = make_problem(rng, 8)
        a, c, d = fit_constrained(K1, K3, y, 1e8, 1e8)
        assert np.max(np.abs(a)) <= 1e-4
        assert np.max(np.abs(c)) <= 1e-4
        assert d == pytest.approx(np.mean(y), abs=1e-4)

    def test_matches_numeric_quadratic_oracle(self):
        rng = np.random.default_rng(11)
        _, _, y, K1, _, K3 = make_problem(rng, 8)
        lam1, lam3 = 0.4, 0.7
        a, c, d = fit_constrained(K1, K3, y, lam1, lam3)

        def f(theta):
            aa, cc, dd = theta[:8], theta[8:16], theta[16]
            r = y - K1 @ aa - K3 @ cc - dd
            return r @ r + lam1 * aa @ K1 @ aa + lam3 * cc @ K3 @ cc

        theta = numeric_quadratic_argmin(f, 17)
        assert np.max(np.abs(np.concatenate([a, c, [d]]) - theta)) <= 1e-5

    def test_fit_and_predict_match_formulas_with_g2_gram(self):
        # fit and predict skip g2's Gram for this variant; with b = 0 that
        # must leave the objective and the predictions bit for bit unchanged
        rng = np.random.default_rng(14)
        X, Fs, y, K1, K2, K3 = make_problem(rng, 12)
        config = FitConfig(0.05, 0.3, 0.02, variant="constrained")
        model, trace = fit(config, X, Fs, y, SPECS)
        assert not np.any(model.b)
        assert trace.objectives == [objective(model.a, model.b, model.c, model.d,
                                              K1, K2, K3, y, config)]
        Xn, Fsn = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        w = gram(SPECS[1], Fsn, Fs) @ model.b + 1.0
        want = (gram(SPECS[0], Fsn, Fs) @ model.a + w * (gram(SPECS[2], Xn, X) @ model.c)
                + model.d)
        assert np.array_equal(predict(model, Xn, Fsn), want)

    def test_constant_target_recovered_by_intercept(self):
        rng = np.random.default_rng(12)
        _, _, _, K1, _, K3 = make_problem(rng, 6)
        y = np.full(6, 3.25)
        a, c, d = fit_constrained(K1, K3, y, 1.0, 1.0)
        assert np.max(np.abs(a)) <= 1e-8
        assert np.max(np.abs(c)) <= 1e-8
        assert d == pytest.approx(3.25, abs=1e-8)

    def test_small_lambda_reaches_exact_minimizer(self):
        # an n = 50 benchmark-sized draw at lambda = (1e-3, 0.1), where the
        # stacked (2n+1) normal equations lose about five digits; the oracle
        # solves the bordered residual system in 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        ds = synth_dataset("offset_transfer", 300, dims=3, noise_sd=0.05, seed=7)
        rows = np.random.default_rng(0).choice(300, size=50, replace=False)
        K1 = gram(KernelSpec("rbf", np.sqrt(2.0)), ds.Fs[rows])
        K3 = gram(KernelSpec("rbf", np.sqrt(3.0)), ds.X[rows])
        y = ds.y[rows]
        lam1, lam3 = 1e-3, 0.1
        a, c, d = fit_constrained(K1, K3, y, lam1, lam3)
        r = y - K1 @ a - K3 @ c - d
        got = r @ r + lam1 * a @ K1 @ a + lam3 * c @ K3 @ c

        with mpmath.workdps(40):
            n = len(y)
            M = np.eye(n) + K1 / lam1 + K3 / lam3
            A = mpmath.matrix(n + 1, n + 1)
            for i in range(n):
                for j in range(n):
                    A[i, j] = M[i, j]
                A[i, n] = A[n, i] = 1
            rhs = mpmath.matrix([*y.tolist(), 0.0])
            resid = mpmath.lu_solve(A, rhs)
            exact = float(sum(resid[i] * rhs[i] for i in range(n)))  # minimum = r'y
        assert exact == pytest.approx(0.1523896, rel=1e-6)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_symmetric_system_gives_equal_blocks(self):
        rng = np.random.default_rng(13)
        y = rng.normal(size=5)
        a, c, d = fit_constrained(np.eye(5), np.eye(5), y, 0.3, 0.3)
        assert np.allclose(a, c, atol=1e-12)


class TestFit:
    def test_recovers_noiseless_source_model(self):
        # short length-scales keep the Grams well conditioned, so the
        # near-zero-penalty regime can drive the residual to zero
        sharp = tuple(KernelSpec("rbf", 0.5) for _ in range(3))
        rng = np.random.default_rng(14)
        n = 12
        X, Fs = rng.normal(size=(n, 3)), rng.normal(size=(n, 2))
        K1 = gram(sharp[0], Fs)
        a_star = rng.normal(size=n)
        y = K1 @ a_star
        cfg = FitConfig(1e-9, 1e-9, 1e-9, variant="full", tol=1e-10,
                        max_iter=5000, seed=0)
        model, trace = fit(cfg, X, Fs, y, sharp)
        assert trace.objectives[-1] <= 1e-6 * np.sum(y**2) / n
        assert rmse(predict(model, X, Fs), y) <= 1e-3

    @pytest.mark.parametrize("variant", ["full", "full_with_intercept"])
    def test_trace_monotone(self, variant):
        rng = np.random.default_rng(15)
        for trial in range(5):
            n = int(rng.integers(5, 25))
            X, Fs, y, *_ = make_problem(rng, n)
            cfg = FitConfig(0.05, 0.05, 0.05, variant=variant, seed=trial)
            _, trace = fit(cfg, X, Fs, y, SPECS)
            obj = np.asarray(trace.objectives)
            assert np.all(np.diff(obj) <= 1e-9 * (1 + np.abs(obj[:-1])))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        X, Fs, y, *_ = make_problem(rng, 12)
        cfg = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept", seed=7)
        m1, t1 = fit(cfg, X, Fs, y, SPECS)
        m2, t2 = fit(cfg, X, Fs, y, SPECS)
        assert t1.objectives == t2.objectives
        assert np.array_equal(m1.a, m2.a)
        assert np.array_equal(m1.b, m2.b)
        assert np.array_equal(m1.c, m2.c)
        assert m1.d == m2.d

    def test_constrained_is_one_shot(self):
        rng = np.random.default_rng(17)
        X, Fs, y, K1, _, K3 = make_problem(rng, 10)
        cfg = FitConfig(0.2, 1.0, 0.3, variant="constrained",
                        scale_convention="appendix")
        model, trace = fit(cfg, X, Fs, y, SPECS)
        assert trace.iterations == 0
        assert trace.converged
        a, c, d = fit_constrained(K1, K3, y, 0.2, 0.3)
        assert np.allclose(model.a, a, atol=1e-12)
        assert np.allclose(model.c, c, atol=1e-12)
        assert np.array_equal(model.b, np.zeros(10))

    def test_constant_target_permitted(self):
        rng = np.random.default_rng(18)
        X, Fs, _, *_ = make_problem(rng, 8)
        y = np.ones(8)
        cfg = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept", seed=0)
        model, trace = fit(cfg, X, Fs, y, SPECS)
        assert np.isfinite(trace.objectives[-1])

    def test_too_small_data_rejected(self):
        with pytest.raises(ValueError):
            fit(FitConfig(0.1, 0.1, 0.1), np.ones((1, 2)), np.ones((1, 2)),
                np.ones(1), SPECS)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit(FitConfig(0.1, 0.1, 0.1), np.ones((4, 2)), np.ones((3, 2)),
                np.ones(4), SPECS)

    @pytest.mark.parametrize("name,value,row", [
        ("y", np.nan, 3), ("X", np.inf, 5), ("Fs", -np.inf, 0)])
    def test_non_finite_input_rejected_with_row(self, name, value, row):
        rng = np.random.default_rng(26)
        X, Fs, y, *_ = make_problem(rng, 8)
        arrays = {"X": X, "Fs": Fs, "y": y}
        arrays[name][row] = value
        with pytest.raises(ValueError, match=f"non-finite value in {name} at row {row}"):
            fit(FitConfig(0.1, 0.1, 0.1, max_iter=200), X, Fs, y, SPECS)

    def test_converged_fit_has_stationary_blocks(self):
        rng = np.random.default_rng(19)
        X, Fs, y, K1, K2, K3 = make_problem(rng, 10)
        cfg = FitConfig(0.1, 0.2, 0.1, variant="full_with_intercept",
                        tol=1e-10, max_iter=5000, seed=1)
        model, trace = fit(cfg, X, Fs, y, SPECS)
        assert trace.converged
        tol = 1e-5 * (1 + np.max(np.abs(y)))
        state = (model.a, model.b, model.c, model.d)
        for which, slot in (("a", 0), ("b", 1), ("c", 2), ("d", 3)):
            def f(v):
                s = list(state)
                s[slot] = float(v[0]) if which == "d" else v
                return objective(*s, K1, K2, K3, y, cfg)
            x = np.atleast_1d(np.asarray(state[slot], dtype=float))
            assert np.max(np.abs(fd_gradient(f, x))) <= tol


def composed_fit(config, X, Fs, y, specs):
    """The cyclic fit written out from the public, validating block updates
    and objective under ``alternate``: the init of :func:`fit`, then sweeps
    over a, b, c (and d with an intercept)."""
    n = len(y)
    K1, K2, K3 = gram(specs[0], Fs), gram(specs[1], Fs), gram(specs[2], X)
    rng = np.random.default_rng(config.seed)
    a = ridge_solve(K1, y, config.shrink(config.lambda1, n))
    b, c = rng.standard_normal(n), rng.standard_normal(n)
    d = 0.5 if config.variant == "full_with_intercept" else 0.0
    blocks = "abcd" if config.variant == "full_with_intercept" else "abc"

    def sweep(state):
        state = list(state)
        for slot, which in enumerate(blocks):
            state[slot] = update_block(which, tuple(state), K1, K2, K3, y, config)
        return tuple(state)

    return alternate(sweep, lambda s: objective(*s, K1, K2, K3, y, config), (a, b, c, d),
                     config.tol, config.max_iter, watched=3)


class TestFitMatchesPublicBlockSweep:
    POINTS = list(AFFINE_FULL_GRID.points())[::8]

    @pytest.mark.parametrize("variant", ["full", "full_with_intercept"])
    @pytest.mark.parametrize("convention", ["eqn3", "appendix"])
    def test_bit_identical(self, variant, convention):
        assert len(self.POINTS) == 8
        ds = synth_dataset("offset_transfer", 60, dims=3, noise_sd=0.05, seed=5)
        rows = np.random.default_rng(6).permutation(60)[:16]
        X, Fs, y = ds.X[rows], ds.Fs[rows], ds.y[rows]
        for k, point in enumerate(self.POINTS):
            cfg = FitConfig(point["lambda1"], point["lambda2"], point["lambda3"],
                            variant=variant, scale_convention=convention, seed=k,
                            max_iter=200)
            model, trace = fit(cfg, X, Fs, y, SPECS)
            (a, b, c, d), want = composed_fit(cfg, X, Fs, y, SPECS)
            for got_arr, want_arr in ((model.a, a), (model.b, b), (model.c, c),
                                      (model.d, d), (trace.objectives, want.objectives)):
                assert np.asarray(got_arr).tobytes() == np.asarray(want_arr).tobytes()
            assert (trace.iterations, trace.converged) == (want.iterations, want.converged)
            assert np.float64(trace.final_update_ratio).tobytes() == \
                np.float64(want.final_update_ratio).tobytes()


class TestFitFactorizationCount:
    @pytest.mark.parametrize("variant", ["full", "full_with_intercept"])
    @pytest.mark.parametrize("max_iter", [1, 6, 1000])
    def test_one_fixed_factor_and_two_per_sweep(self, variant, max_iter, factor_sizes):
        # K1 + s1 I is factored once per fit (it also gives the initial a);
        # the b- and c-steps factor one system each per sweep
        rng = np.random.default_rng(25)
        X, Fs, y, *_ = make_problem(rng, 12)
        cfg = FitConfig(0.1, 0.2, 0.1, variant=variant, max_iter=max_iter, seed=4)
        _, trace = fit(cfg, X, Fs, y, SPECS)
        assert trace.iterations == max_iter or trace.converged
        assert factor_sizes == [12] * (1 + 2 * trace.iterations)


def np_max_update_ratio(new, old):
    """The stopping ratio written with ``np.max`` (test oracle)."""
    num = float(np.max(np.abs(new - old)))
    den = float(np.max(np.abs(old)))
    return num if den < _RATIO_GUARD else num / den


class TestUpdateRatio:
    def test_relative_when_old_nonzero(self):
        assert _update_ratio(np.array([2.0]), np.array([1.0])) == 1.0

    def test_absolute_when_old_near_zero(self):
        assert _update_ratio(np.array([3e-4]), np.array([1e-14])) == pytest.approx(3e-4)

    @pytest.mark.parametrize("new,old", [
        (np.array([1.5, -2.0, 3.25]), np.array([1.0, -2.5, 3.0])),
        (np.array(2.5), np.array(-1.0)),
        (0.75, -0.25),
        (np.float64(0.1), 0.3),
        (np.array([3e-4, -1e-4]), np.array([1e-14, -5e-13])),
        (1e-3, 1e-13),
        (np.array([1.0, np.nan]), np.array([1.0, 2.0])),
        (np.array([1.0, 2.0]), np.array([np.nan, 2.0])),
    ], ids=["array", "0-d", "floats", "scalar-float", "array-old-below-guard",
            "float-old-below-guard", "nan-new", "nan-old"])
    def test_bit_equal_to_np_max_form(self, new, old):
        got = _update_ratio(new, old)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(np_max_update_ratio(new, old)).tobytes()


class TestAlternate:
    @staticmethod
    def run(watched):
        # block 0 settles after one sweep while block 1 keeps doubling
        return alternate(lambda s: (np.array([1.0]), 2.0 * s[1]), lambda s: float(s[1]),
                         (np.array([0.0]), 1.0), tol=1e-4, max_iter=6, watched=watched)

    def test_stops_on_watched_blocks_only(self):
        (settled, doubled), trace = self.run(watched=1)
        assert trace.converged and trace.iterations == 2
        assert trace.objectives == [1.0, 2.0, 4.0]
        assert trace.final_update_ratio == 0.0
        assert doubled == 4.0

    def test_max_iter_leaves_trace_unconverged(self):
        _, trace = self.run(watched=2)
        assert not trace.converged and trace.iterations == 6
        assert len(trace.objectives) == 7
        assert trace.final_update_ratio == 1.0


class TestPredict:
    def test_in_sample_matches_objective_internals(self):
        rng = np.random.default_rng(20)
        X, Fs, y, K1, K2, K3 = make_problem(rng, 9)
        cfg = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept", seed=2)
        model, _ = fit(cfg, X, Fs, y, SPECS)
        want = K1 @ model.a + (K2 @ model.b + 1.0) * (K3 @ model.c) + model.d
        got = predict(model, X, Fs)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_zero_b_full_variant_is_pure_krr(self):
        rng = np.random.default_rng(21)
        X, Fs, y, K1, _, _ = make_problem(rng, 8)
        a = ridge_solve(K1, y, 0.5)
        model = AffineTLModel(a, np.zeros(8), np.ones(8), 0.0, X, Fs, SPECS, "full")
        Xnew, Fsnew = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        got = predict(model, Xnew, Fsnew)
        want = gram(SPECS[0], Fsnew, Fs) @ a
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_single_point_equals_batch_row(self):
        rng = np.random.default_rng(22)
        X, Fs, y, *_ = make_problem(rng, 10)
        cfg = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept", seed=3)
        model, _ = fit(cfg, X, Fs, y, SPECS)
        Xnew, Fsnew = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        batch = predict(model, Xnew, Fsnew)
        for i in range(4):
            single = predict(model, Xnew[i : i + 1], Fsnew[i : i + 1])
            repeat = predict(model, Xnew[i : i + 1], Fsnew[i : i + 1])
            assert single.shape == (1,)
            assert single[0] == repeat[0]
            # batch rows may differ by BLAS summation order only
            assert single[0] == pytest.approx(batch[i], abs=1e-12)

    @pytest.mark.parametrize("name,value,row", [
        ("Xnew", np.nan, 2), ("FsNew", np.inf, 0), ("FsNew", -np.inf, 4)])
    def test_non_finite_rows_rejected_with_row(self, name, value, row):
        rng = np.random.default_rng(24)
        X, Fs, y, *_ = make_problem(rng, 8)
        cfg = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept", seed=4)
        model, _ = fit(cfg, X, Fs, y, SPECS)
        arrays = {"Xnew": rng.normal(size=(5, 3)), "FsNew": rng.normal(size=(5, 2))}
        arrays[name][row, -1] = value
        with pytest.raises(ValueError, match=f"non-finite value in {name} at row {row}"):
            predict(model, arrays["Xnew"], arrays["FsNew"])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(23)
        X, Fs, y, *_ = make_problem(rng, 6)
        cfg = FitConfig(0.1, 0.1, 0.1, seed=0)
        model, _ = fit(cfg, X, Fs, y, SPECS)
        with pytest.raises(ValueError):
            predict(model, np.ones((2, 4)), np.ones((2, 2)))


class TestDescentProperty:
    def test_block_updates_never_increase_objective(self):
        rng = np.random.default_rng(24)
        for trial in range(100):
            n = int(rng.integers(3, 31))
            variant = "full" if trial % 2 == 0 else "full_with_intercept"
            _, _, y, K1, K2, K3 = make_problem(rng, n)
            cfg = FitConfig(*rng.uniform(0.01, 1.0, size=3), variant=variant,
                            scale_convention="eqn3" if trial % 3 else "appendix")
            state = [rng.normal(size=n), rng.normal(size=n), rng.normal(size=n),
                     0.0 if variant == "full" else float(rng.normal())]
            blocks = ["a", "b", "c"] + (["d"] if variant != "full" else [])
            f_prev = objective(*state, K1, K2, K3, y, cfg)
            for which in blocks:
                slot = {"a": 0, "b": 1, "c": 2, "d": 3}[which]
                state[slot] = update_block(which, tuple(state), K1, K2, K3, y, cfg)
                f_new = objective(*state, K1, K2, K3, y, cfg)
                assert f_new <= f_prev + 1e-12 * (1 + abs(f_prev))
                f_prev = f_new


# Fresh rows to predict at, in the (x, fs) dimensions of the draws below.
NEW_X = np.array([[0.0, 0.0], [1.5, -2.0], [-4.0, 3.25]])
NEW_FS = np.array([[0.0], [2.5], [-1.75]])
lambda_triples = st.tuples(*[st.sampled_from([1e-3, 0.1, 10.0])] * 3)


def check_every_variant_fits(X, Fs, y, lambdas):
    """Each variant returns finite predictions at fresh rows and a
    nonincreasing trace; a fit says it converged exactly when its last
    update ratio is below tol, and otherwise it ran to max_iter."""
    for variant in ("full", "full_with_intercept", "constrained"):
        config = FitConfig(*lambdas, variant=variant, max_iter=200)
        model, trace = fit(config, X, Fs, y, SPECS)
        assert np.all(np.isfinite(predict(model, NEW_X, NEW_FS)))
        obj = np.array(trace.objectives)
        assert np.all(np.diff(obj) <= 1e-12 * (1.0 + np.abs(obj[:-1])))
        assert trace.converged == (trace.final_update_ratio < config.tol)
        assert trace.converged or trace.iterations == config.max_iter


class TestDegenerateInputs:
    """Property tests: ``fit`` on degenerate data still gives a finite
    model and an honest trace, in all three variants."""

    @same_examples
    @given(X=arrays(float, (4, 2), elements=quarters),
           Fs=arrays(float, (4, 1), elements=quarters),
           rows=st.lists(st.integers(0, 3), min_size=3, max_size=8),
           y=arrays(float, 9, elements=quarters), lambdas=lambda_triples)
    def test_duplicate_rows(self, X, Fs, rows, y, lambdas):
        rows = rows + rows[:1]  # at least one row appears twice
        check_every_variant_fits(X[rows], Fs[rows], y[: len(rows)], lambdas)

    @same_examples
    @given(X=arrays(float, (6, 2), elements=quarters), value=quarters,
           y=arrays(float, 6, elements=quarters), lambdas=lambda_triples)
    def test_constant_fs(self, X, value, y, lambdas):
        check_every_variant_fits(X, np.full((6, 1), value), y, lambdas)

    @same_examples
    @given(X=arrays(float, (2, 2), elements=quarters),
           Fs=arrays(float, (2, 1), elements=quarters),
           y=arrays(float, 2, elements=quarters), lambdas=lambda_triples)
    def test_two_rows(self, X, Fs, y, lambdas):
        check_every_variant_fits(X, Fs, y, lambdas)

    @same_examples
    @given(X=arrays(float, (6, 2), elements=quarters),
           Fs=arrays(float, (6, 1), elements=quarters), lambdas=lambda_triples)
    def test_zero_target(self, X, Fs, lambdas):
        check_every_variant_fits(X, Fs, np.zeros(6), lambdas)
