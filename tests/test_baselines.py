import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affinetl.affine import FitConfig, update_block
from affinetl.baselines import KINDS, fit_baseline, predict_baseline
from affinetl.kernels import KernelSpec, gram

from conftest import quarters, same_examples


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


# Fresh rows to predict at, in the (x, fs) dimensions of the draws below.
NEW_X = np.array([[0.0, 0.0], [1.5, -2.0], [-4.0, 3.25]])
NEW_FS = np.array([[0.0], [2.5], [-1.75]])
shrinks = st.sampled_from([1e-4, 0.1, 100.0])


def check_every_kind_fits(X, Fs, y, shrink):
    """Each procedure returns finite predictions at fresh rows; htl_scale
    may instead refuse, with a ZeroDivisionError, a stage-1 prediction
    within its guard of zero, and only then."""
    for kind in KINDS:
        try:
            model = fit_baseline(kind, X, Fs, y, SPEC_FS, shrink,
                                 stage2_spec=SPEC_X, stage2_shrink=shrink)
        except ZeroDivisionError as exc:
            assert kind == "htl_scale" and "stage-1 prediction within" in str(exc)
            g1 = predict_baseline(fit_baseline("only_source", X, Fs, y, SPEC_FS, shrink), X, Fs)
            assert np.min(np.abs(g1)) < 1e-8
            continue
        assert np.all(np.isfinite(predict_baseline(model, NEW_X, NEW_FS)))
        if kind == "htl_scale":
            assert np.min(np.abs(model.stage1.predict(Fs))) >= 1e-8


class TestDegenerateInputs:
    """Property tests: the five procedures on degenerate data give a finite
    model or htl_scale's specific error."""

    @same_examples
    @given(X=arrays(float, (4, 2), elements=quarters),
           Fs=arrays(float, (4, 1), elements=quarters),
           rows=st.lists(st.integers(0, 3), min_size=3, max_size=8),
           y=arrays(float, 9, elements=quarters), shrink=shrinks)
    def test_duplicate_rows(self, X, Fs, rows, y, shrink):
        rows = rows + rows[:1]  # at least one row appears twice
        check_every_kind_fits(X[rows], Fs[rows], y[: len(rows)], shrink)

    @same_examples
    @given(X=arrays(float, (6, 2), elements=quarters), value=quarters,
           y=arrays(float, 6, elements=quarters), shrink=shrinks)
    def test_constant_fs(self, X, value, y, shrink):
        check_every_kind_fits(X, np.full((6, 1), value), y, shrink)

    @same_examples
    @given(X=arrays(float, (2, 2), elements=quarters),
           Fs=arrays(float, (2, 1), elements=quarters),
           y=arrays(float, 2, elements=quarters), shrink=shrinks)
    def test_two_rows(self, X, Fs, y, shrink):
        check_every_kind_fits(X, Fs, y, shrink)

    @same_examples
    @given(X=arrays(float, (6, 2), elements=quarters),
           Fs=arrays(float, (6, 1), elements=quarters), shrink=shrinks)
    def test_zero_target(self, X, Fs, shrink):
        # a zero stage-1 fit leaves htl_scale nothing to divide by
        with pytest.raises(ZeroDivisionError, match="stage-1 prediction within"):
            fit_baseline("htl_scale", X, Fs, np.zeros(6), SPEC_FS, shrink,
                         stage2_spec=SPEC_X, stage2_shrink=shrink)
        check_every_kind_fits(X, Fs, np.zeros(6), shrink)

    @same_examples
    @given(X=arrays(float, (6, 2), elements=quarters),
           Fs=arrays(float, (6, 1), elements=quarters),
           y=arrays(float, 6, elements=quarters),
           scale=st.sampled_from([1e-12, 1e-9, 1e-7, 1e-4]), shrink=shrinks)
    def test_stage_one_prediction_near_zero(self, X, Fs, y, scale, shrink):
        check_every_kind_fits(X, Fs, scale * y, shrink)
