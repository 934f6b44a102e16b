"""The input boundary: every public entry point that takes sample rows reads
them by one rule.  A 1-d X or Fs is one column, the arrays must agree on
their row count, and a NaN or an infinity is a ValueError naming the array
and its first such row."""

import numpy as np
import pytest

from affinetl.affine import FitConfig, fit, predict
from affinetl.baselines import fit_baseline, predict_baseline
from affinetl.calibration import (
    BlockLayout,
    calibration_objective,
    fit_calibration,
    fit_log_difference,
    fit_olr,
    predict_calibration,
)
from affinetl.data import Dataset
from affinetl.kernels import KernelSpec

N = 8
SPECS = (KernelSpec("rbf", 1.2), KernelSpec("rbf", 0.9), KernelSpec("rbf", 1.5))
CONFIG = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept", max_iter=50)
SPEC_X, SPEC_FS = KernelSpec("rbf", 1.5), KernelSpec("rbf", 1.2)
LAYOUT = BlockLayout((("b0", 3), ("b1", 3)))


def transfer_rows(rng):
    return {"X": rng.normal(size=(N, 3)), "Fs": rng.normal(size=(N, 2)),
            "y": rng.normal(size=N)}


def calibration_rows(rng):
    return {"X": rng.normal(size=(N, LAYOUT.total)), "fs": rng.normal(5.0, 1.0, size=N),
            "y": rng.normal(size=N)}


def new_rows(rows):
    """The rows of ``rows`` under the names a predictor takes them by."""
    return {"Xnew": rows["X"], "FsNew": rows["Fs"]}


def fitted_affine(rng):
    rows = transfer_rows(rng)
    return fit(CONFIG, rows["X"], rows["Fs"], rows["y"], SPECS)[0]


def fitted_baseline(rng):
    rows = transfer_rows(rng)
    return fit_baseline("htl_scale", rows["X"], rows["Fs"], rows["y"] + 5.0, SPEC_FS, 0.1,
                        stage2_spec=SPEC_X, stage2_shrink=0.1)


def fitted_calibration(rng):
    rows = calibration_rows(rng)
    return fit_calibration(rows["X"], rows["fs"], rows["y"], 0.1, 0.1, layout=LAYOUT)[0]


# entry point -> (its rows from a generator, a call on those rows)
ENTRY_POINTS = {
    "fit": (transfer_rows, lambda rng, a: fit(CONFIG, a["X"], a["Fs"], a["y"], SPECS)),
    "predict": (lambda rng: new_rows(transfer_rows(rng)),
                lambda rng, a: predict(fitted_affine(rng), a["Xnew"], a["FsNew"])),
    "fit_baseline/direct": (
        transfer_rows,
        lambda rng, a: fit_baseline("direct", a["X"], a["Fs"], a["y"], SPEC_X, 0.1)),
    "fit_baseline/htl_offset": (
        transfer_rows,
        lambda rng, a: fit_baseline("htl_offset", a["X"], a["Fs"], a["y"], SPEC_FS, 0.1,
                                    stage2_spec=SPEC_X, stage2_shrink=0.1)),
    "predict_baseline": (
        lambda rng: new_rows(transfer_rows(rng)),
        lambda rng, a: predict_baseline(fitted_baseline(rng), a["Xnew"], a["FsNew"])),
    "fit_calibration": (
        calibration_rows,
        lambda rng, a: fit_calibration(a["X"], a["fs"], a["y"], 0.1, 0.1, layout=LAYOUT)),
    "predict_calibration": (
        lambda rng: {k: v for k, v in calibration_rows(rng).items() if k != "y"},
        lambda rng, a: predict_calibration(fitted_calibration(rng), a["X"], a["fs"])),
    "calibration_objective": (
        calibration_rows,
        lambda rng, a: calibration_objective(0.0, 1.0, 0.1, np.zeros(LAYOUT.total), a["X"],
                                             a["fs"], a["y"], 1.0, 0.1, 0.1, LAYOUT)),
    "fit_olr": (lambda rng: {k: v for k, v in calibration_rows(rng).items() if k != "X"},
                lambda rng, a: fit_olr(a["fs"], a["y"])),
    "fit_log_difference": (
        calibration_rows,
        lambda rng, a: fit_log_difference(a["X"], a["fs"], a["y"], 0.1, 0.1, LAYOUT)),
    "Dataset": (transfer_rows, lambda rng, a: Dataset(a["X"], a["Fs"], a["y"])),
}

NON_FINITE = [
    ("fit", "X", np.nan, 2), ("fit", "Fs", np.inf, 0), ("fit", "y", -np.inf, 7),
    ("predict", "Xnew", -np.inf, 1), ("predict", "FsNew", np.nan, 6),
    ("fit_baseline/direct", "X", np.nan, 4), ("fit_baseline/direct", "Fs", np.inf, 3),
    ("fit_baseline/direct", "y", -np.inf, 0),
    ("fit_baseline/htl_offset", "X", np.inf, 5), ("fit_baseline/htl_offset", "Fs", -np.inf, 2),
    ("fit_baseline/htl_offset", "y", np.nan, 1),
    ("predict_baseline", "Xnew", np.inf, 1), ("predict_baseline", "FsNew", np.nan, 0),
    ("predict_baseline", "FsNew", -np.inf, 7),
    ("fit_calibration", "X", np.nan, 3), ("fit_calibration", "fs", np.inf, 0),
    ("fit_calibration", "y", -np.inf, 6),
    ("predict_calibration", "X", -np.inf, 2), ("predict_calibration", "fs", np.nan, 5),
    ("calibration_objective", "X", np.inf, 0), ("calibration_objective", "fs", -np.inf, 4),
    ("calibration_objective", "y", np.nan, 7),
    ("fit_olr", "fs", np.nan, 1), ("fit_olr", "y", np.inf, 4), ("fit_olr", "y", -np.inf, 0),
    ("fit_log_difference", "X", np.inf, 3), ("fit_log_difference", "fs", -np.inf, 7),
    ("fit_log_difference", "y", np.nan, 2),
    ("Dataset", "X", np.nan, 1), ("Dataset", "Fs", -np.inf, 4), ("Dataset", "y", np.inf, 6),
]


@pytest.mark.parametrize("entry,name,value,row", NON_FINITE)
def test_non_finite_value_is_named_with_its_row(entry, name, value, row):
    rows_of, call = ENTRY_POINTS[entry]
    rng = np.random.default_rng(3)
    arrays = rows_of(rng)
    arrays[name][row, ...] = value
    with pytest.raises(ValueError, match=f"non-finite value in {name} at row {row}"):
        call(rng, arrays)


def test_every_entry_point_has_a_case_for_each_of_its_arrays():
    covered = {(entry, name) for entry, name, _, _ in NON_FINITE}
    for entry, (rows_of, _) in ENTRY_POINTS.items():
        for name in rows_of(np.random.default_rng(0)):
            assert (entry, name) in covered


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_row_mismatch_is_named(entry):
    rows_of, call = ENTRY_POINTS[entry]
    rng = np.random.default_rng(4)
    arrays = rows_of(rng)
    first = next(iter(arrays))
    arrays[first] = arrays[first][:-1]
    with pytest.raises(ValueError, match=f"row mismatch: {first} {N - 1}"):
        call(rng, arrays)


class TestOneDimensionalSamples:
    """A 1-d X or Fs is one column: the same result as its (n, 1) form."""

    def columns(self):
        rng = np.random.default_rng(5)
        return rng.normal(size=N), rng.normal(size=N), rng.normal(size=N)

    def test_dataset(self):
        x, fs, y = self.columns()
        flat, column = Dataset(x, fs, y), Dataset(x[:, None], fs[:, None], y)
        assert flat.X.shape == flat.Fs.shape == (N, 1)
        assert np.array_equal(flat.X, column.X) and np.array_equal(flat.Fs, column.Fs)
        assert Dataset(np.arange(5.0), np.arange(5.0), np.arange(5.0)).n == 5

    def test_fit(self):
        x, fs, y = self.columns()
        flat, trace = fit(CONFIG, x, fs, y, SPECS)
        column, column_trace = fit(CONFIG, x[:, None], fs[:, None], y, SPECS)
        assert trace.objectives == column_trace.objectives
        assert np.array_equal(predict(flat, x, fs), predict(column, x[:, None], fs[:, None]))

    @pytest.mark.parametrize("kind", ["direct", "only_source", "augmented", "htl_offset"])
    def test_fit_baseline(self, kind):
        x, fs, y = self.columns()
        stage2 = {} if kind in ("direct", "only_source", "augmented") else {
            "stage2_spec": SPEC_X, "stage2_shrink": 0.1}
        flat = fit_baseline(kind, x, fs, y, SPEC_X, 0.1, **stage2)
        column = fit_baseline(kind, x[:, None], fs[:, None], y, SPEC_X, 0.1, **stage2)
        assert np.array_equal(flat.stage1.coef, column.stage1.coef)
        assert np.array_equal(predict_baseline(flat, x, fs),
                              predict_baseline(column, x[:, None], fs[:, None]))
