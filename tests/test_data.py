import math

import numpy as np
import pytest

from affinetl.baselines import fit_baseline, predict_baseline
from affinetl.calibration import default_layout
from affinetl.data import (
    Dataset,
    load_calibration_csv,
    load_csv,
    load_sarcos,
    save_csv,
    save_sarcos,
    synth_dataset,
)
from affinetl.kernels import KernelSpec
from affinetl.model_selection import rmse


class TestDataset:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones((4, 2)), np.ones(3))

    def test_non_finite_rejected_with_row(self):
        X = np.ones((3, 2))
        X[1, 0] = np.nan
        with pytest.raises(ValueError) as err:
            Dataset(X, np.ones((3, 2)), np.ones(3))
        assert "row 1" in str(err.value)

    def test_default_names(self):
        ds = Dataset(np.ones((2, 2)), np.ones((2, 3)), np.ones(2))
        assert ds.x_names == ["x0", "x1"]
        assert ds.fs_names == ["fs0", "fs1", "fs2"]

    def test_subset(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(6, 2)), rng.normal(size=(6, 2)),
                     rng.normal(size=6))
        sub = ds.subset([4, 1])
        assert sub.n == 2
        assert np.array_equal(sub.X, ds.X[[4, 1]])
        assert np.array_equal(sub.y, ds.y[[4, 1]])


class TestSarcosIO:
    def make_table(self, rng, n=10):
        return rng.normal(size=(n, 21)), rng.normal(size=(n, 7))

    def test_load_assigns_roles(self, tmp_path):
        rng = np.random.default_rng(1)
        X, torques = self.make_table(rng)
        path = tmp_path / "arm.csv"
        save_sarcos(path, X, torques)
        ds = load_sarcos(path, target_joint=1)
        assert ds.X.shape == (10, 21)
        assert ds.Fs.shape == (10, 6)
        assert np.array_equal(ds.y, torques[:, 0])
        assert np.array_equal(ds.Fs, torques[:, 1:])
        assert ds.fs_names == [f"torque{j}" for j in range(2, 8)]

    def test_target_joint_range(self, tmp_path):
        rng = np.random.default_rng(2)
        X, torques = self.make_table(rng)
        path = tmp_path / "arm.csv"
        save_sarcos(path, X, torques)
        with pytest.raises(ValueError):
            load_sarcos(path, target_joint=8)
        with pytest.raises(ValueError):
            load_sarcos(path, target_joint=0)

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        X, torques = self.make_table(rng)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_sarcos(p1, X, torques)
        ds = load_sarcos(p1, target_joint=1)
        save_sarcos(p2, ds.X, np.column_stack([ds.y, ds.Fs]))
        assert p1.read_bytes() == p2.read_bytes()

    def test_whitespace_delimited(self, tmp_path):
        rng = np.random.default_rng(4)
        X, torques = self.make_table(rng, n=4)
        path = tmp_path / "arm.txt"
        np.savetxt(path, np.hstack([X, torques]), fmt="%.17g", delimiter=" ")
        ds = load_sarcos(path, target_joint=3)
        assert np.array_equal(ds.y, torques[:, 2])

    def test_malformed_row_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = ",".join(["1.0"] * 28)
        path.write_text(good + "\n" + ",".join(["1.0"] * 27) + ",oops\n")
        with pytest.raises(ValueError) as err:
            load_sarcos(path, target_joint=1)
        assert "malformed" in str(err.value)

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "narrow.csv"
        np.savetxt(path, np.ones((3, 20)), fmt="%.17g", delimiter=",")
        with pytest.raises(ValueError):
            load_sarcos(path, target_joint=1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_sarcos(tmp_path / "nope.csv", target_joint=1)


class TestCsvIO:
    def test_round_trip_exact(self, tmp_path):
        ds = synth_dataset("offset_transfer", n=20, dims=3, noise_sd=0.1, seed=5)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Fs, ds.Fs)
        assert np.array_equal(back.y, ds.y)
        assert back.x_names == ds.x_names

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "no_y.csv"
        path.write_text("x0,fs0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_explicit_column_roles(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("alpha,beta,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        ds = load_csv(path, fs_cols=["beta"])
        assert np.array_equal(ds.y, [3.0, 6.0])
        assert np.array_equal(ds.Fs.ravel(), [2.0, 5.0])
        assert ds.x_names == ["alpha"]

    def test_calibration_layout_inferred(self, tmp_path):
        ds = synth_dataset("calibration", n=12, dims=24, noise_sd=0.01, seed=6)
        path = tmp_path / "cal.csv"
        save_csv(ds, path)
        back = load_calibration_csv(path)
        layout = back.metadata["layout"]
        assert layout.total == 24
        assert [s for _, s in layout.blocks] == [10, 10, 4]
        assert np.array_equal(back.X, ds.X)


class TestSynth:
    def test_deterministic(self):
        a = synth_dataset("linear_transfer", n=30, dims=4, noise_sd=0.2, seed=9)
        b = synth_dataset("linear_transfer", n=30, dims=4, noise_sd=0.2, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Fs, b.Fs)
        assert np.array_equal(a.y, b.y)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            synth_dataset("offset_transfer", n=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_dataset("quadratic_transfer", n=10)

    def test_metadata_records_truth(self):
        ds = synth_dataset("offset_transfer", n=15, dims=2, noise_sd=0.0, seed=10)
        meta = ds.metadata
        g1 = np.sin(1.2 * (ds.X @ meta["U"]) + meta["phase"]) @ meta["v"]
        g3 = np.sin(1.2 * (ds.X @ meta["u3"]))
        assert np.allclose(ds.y, g1 + g3, atol=1e-12)

    def test_calibration_default_dims_use_standard_layout(self):
        ds = synth_dataset("calibration", n=10, dims=190, noise_sd=0.01, seed=11)
        assert ds.metadata["layout"] == default_layout()
        assert ds.X.shape == (10, 190)

    def test_calibration_truth_consistent(self):
        ds = synth_dataset("calibration", n=8, dims=24, noise_sd=0.0, seed=12)
        meta = ds.metadata
        want = ds.Fs[:, 0] - ds.X @ meta["gamma"]
        assert np.allclose(ds.y, want, atol=1e-12)

    def test_noiseless_offset_pipeline_fits_train_set(self):
        ds = synth_dataset("offset_transfer", n=40, dims=2, noise_sd=0.0, seed=13)
        spec_fs = KernelSpec("rbf", math.sqrt(2))
        spec_x = KernelSpec("rbf", math.sqrt(2))
        model = fit_baseline("htl_offset", ds.X, ds.Fs, ds.y, spec_fs, 1e-6,
                             stage2_spec=spec_x, stage2_shrink=1e-6)
        train_rmse = rmse(predict_baseline(model, ds.X, ds.Fs), ds.y)
        assert train_rmse <= 1e-2
