import numpy as np
import pytest

from affinetl.affine import FitConfig, update_block
from affinetl.baselines import KINDS, fit_baseline, predict_baseline
from affinetl.kernels import KernelSpec, gram


def make_data(rng, n=12, dim_x=3, dim_fs=2):
    X = rng.normal(size=(n, dim_x))
    Fs = rng.normal(size=(n, dim_fs))
    y = rng.normal(size=n)
    return X, Fs, y


SPEC_X = KernelSpec("rbf", 1.5)
SPEC_FS = KernelSpec("rbf", 1.2)


def krr_reference(spec, Z, y, shrink, Znew):
    """Independent kernel ridge implementation used as an oracle."""
    Z, Znew = np.asarray(Z), np.asarray(Znew)
    sq = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(-1)
    K = np.exp(-sq / (2 * spec.length_scale**2))
    coef = np.linalg.solve(K + shrink * np.eye(len(y)), y)
    sq_new = ((Znew[:, None, :] - Z[None, :, :]) ** 2).sum(-1)
    return np.exp(-sq_new / (2 * spec.length_scale**2)) @ coef


class TestFitBaseline:
    def test_unknown_kind(self):
        rng = np.random.default_rng(0)
        X, Fs, y = make_data(rng)
        with pytest.raises(ValueError):
            fit_baseline("boosted", X, Fs, y, SPEC_X, 0.1)

    def test_two_stage_requires_stage2_settings(self):
        rng = np.random.default_rng(1)
        X, Fs, y = make_data(rng)
        with pytest.raises(ValueError):
            fit_baseline("htl_offset", X, Fs, y, SPEC_FS, 0.1)

    def test_offset_with_interpolating_stage1_zeroes_stage2(self):
        rng = np.random.default_rng(2)
        X, Fs, y = make_data(rng)
        # shrink 0 on a nonsingular Gram makes stage 1 interpolate y exactly
        model = fit_baseline("htl_offset", X, Fs, y, SPEC_FS, 0.0,
                             stage2_spec=SPEC_X, stage2_shrink=0.5)
        assert np.max(np.abs(model.stage2.coef)) <= 1e-8

    def test_direct_equals_affine_c_update_special_case(self):
        rng = np.random.default_rng(3)
        X, Fs, y = make_data(rng)
        shrink = 0.3
        model = fit_baseline("direct", X, Fs, y, SPEC_X, shrink)
        K3 = gram(SPEC_X, X)
        K_fs = gram(SPEC_FS, Fs)
        cfg = FitConfig(0.1, 0.1, shrink, variant="full_with_intercept",
                        scale_convention="appendix")
        z = np.zeros(len(y))
        c = update_block("c", (z, z, z, 0.0), K_fs, K_fs, K3, y, cfg)
        assert np.max(np.abs(model.stage1.coef - c)) <= 1e-12

    def test_scale_with_zero_stage1_prediction_errors(self):
        rng = np.random.default_rng(4)
        X, Fs, _ = make_data(rng)
        y = rng.normal(size=12)
        y[5] = 0.0  # interpolating stage 1 reproduces the zero exactly
        with pytest.raises(ZeroDivisionError) as err:
            fit_baseline("htl_scale", X, Fs, y, SPEC_FS, 0.0,
                         stage2_spec=SPEC_X, stage2_shrink=0.5)
        assert "row 5" in str(err.value)

    def test_row_count_mismatch(self):
        rng = np.random.default_rng(5)
        X, Fs, y = make_data(rng)
        with pytest.raises(ValueError):
            fit_baseline("direct", X[:-1], Fs, y, SPEC_X, 0.1)


class TestPredictBaseline:
    def test_only_source_ignores_inputs(self):
        rng = np.random.default_rng(6)
        X, Fs, y = make_data(rng)
        model = fit_baseline("only_source", X, Fs, y, SPEC_FS, 0.2)
        Xnew, Fsnew = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        base = predict_baseline(model, Xnew, Fsnew)
        shuffled = predict_baseline(model, Xnew[::-1], Fsnew)
        assert np.array_equal(base, shuffled)

    def test_offset_with_zero_stage2_equals_only_source(self):
        rng = np.random.default_rng(7)
        X, Fs, y = make_data(rng)
        model = fit_baseline("htl_offset", X, Fs, y, SPEC_FS, 0.0,
                             stage2_spec=SPEC_X, stage2_shrink=0.5)
        only = fit_baseline("only_source", X, Fs, y, SPEC_FS, 0.0)
        Xnew, Fsnew = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        got = predict_baseline(model, Xnew, Fsnew)
        want = predict_baseline(only, Xnew, Fsnew)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_augmented_matches_independent_krr(self):
        rng = np.random.default_rng(8)
        X, Fs, y = make_data(rng)
        spec = KernelSpec("rbf", np.sqrt(5.0))
        model = fit_baseline("augmented", X, Fs, y, spec, 0.4)
        got = predict_baseline(model, X, Fs)
        want = krr_reference(spec, np.hstack([X, Fs]), y, 0.4, np.hstack([X, Fs]))
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_scale_prediction_multiplies_stages(self):
        rng = np.random.default_rng(9)
        X, Fs, _ = make_data(rng)
        y = 2.0 + rng.uniform(0.5, 1.0, size=12)  # keep stage-1 away from zero
        model = fit_baseline("htl_scale", X, Fs, y, SPEC_FS, 0.1,
                             stage2_spec=SPEC_X, stage2_shrink=0.3)
        Xnew, Fsnew = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        got = predict_baseline(model, Xnew, Fsnew)
        want = model.stage1.predict(Fsnew) * model.stage2.predict(Xnew)
        assert np.array_equal(got, want)

    def test_offset_train_identity(self):
        rng = np.random.default_rng(10)
        X, Fs, y = make_data(rng)
        model = fit_baseline("htl_offset", X, Fs, y, SPEC_FS, 0.2,
                             stage2_spec=SPEC_X, stage2_shrink=0.3)
        g1 = model.stage1.predict(Fs)
        z = y - g1
        stage2_resid = model.stage2.predict(X) - z
        total = predict_baseline(model, X, Fs) - y
        assert np.max(np.abs(total - stage2_resid)) <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_order_invariance(self, kind):
        rng = np.random.default_rng(11)
        X, Fs, _ = make_data(rng)
        y = 2.0 + rng.uniform(0.0, 1.0, size=12)  # safe for htl_scale too
        kwargs = dict(stage2_spec=SPEC_X, stage2_shrink=0.3) \
            if kind in ("htl_offset", "htl_scale") else {}
        perm = rng.permutation(12)
        model = fit_baseline(kind, X, Fs, y, SPEC_FS, 0.2, **kwargs)
        model_p = fit_baseline(kind, X[perm], Fs[perm], y[perm], SPEC_FS, 0.2, **kwargs)
        Xnew, Fsnew = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        a = predict_baseline(model, Xnew, Fsnew)
        b = predict_baseline(model_p, Xnew, Fsnew)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        X, Fs, y = make_data(rng)
        model = fit_baseline("direct", X, Fs, y, SPEC_X, 0.1)
        with pytest.raises(ValueError):
            predict_baseline(model, np.ones((3, 4)), np.ones((3, 2)))
