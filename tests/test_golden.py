"""Golden outputs: test RMSEs of small benchmark and calibration runs,
recorded at commit f5d8656 as ``float.hex`` strings.

A change meant to leave results alone (a faster path to the same numbers)
must keep every value here to 1e-12 relative.  A change meant to move them
updates these strings and says why in CHANGES.md.
"""

import pytest

from affinetl.benchmark import BenchmarkConfig, run_benchmark
from affinetl.calibration import run_calibration_experiment
from affinetl.data import synth_dataset

BENCHMARK_RMSES = {
    ("direct", 10): "0x1.bd84dc1d66ffbp-3",
    ("direct", 20): "0x1.0e30d111b1cdap-3",
    ("only_source", 10): "0x1.9fcf72c81d7edp-2",
    ("only_source", 20): "0x1.6f518395b4bf9p-2",
    ("augmented", 10): "0x1.c1609fca12429p-3",
    ("augmented", 20): "0x1.f9fd61f5f0625p-4",
    ("htl_offset", 10): "0x1.5e51cfbf74bd6p-3",
    ("htl_offset", 20): "0x1.f958eae60487ap-4",
    ("htl_scale", 10): "0x1.04dc71cc3eb87p-1",
    ("htl_scale", 20): "0x1.d9dae4b7f0358p-1",
    ("affine_const", 10): "0x1.72b1358761a3cp-3",
    ("affine_const", 20): "0x1.f92d7e7c01ab3p-4",
}

# one split of ``affinetl calibrate --synth-n 200 --seed 0``
CALIBRATION_RMSES = {
    "olr": "0x1.519919b3b01b8p-1",
    "log_difference": "0x1.cfb3992e82abdp-3",
    "full": "0x1.7e5f0745cb1fep-3",
}


def assert_golden(got: dict, golden: dict):
    assert got.keys() == golden.keys()
    for key, value in golden.items():
        assert got[key] == pytest.approx(float.fromhex(value), rel=1e-12, abs=0.0), key


def test_benchmark_rmses():
    ds = synth_dataset("offset_transfer", 120, seed=7)
    procedures = tuple(dict.fromkeys(proc for proc, _ in BENCHMARK_RMSES))
    config = BenchmarkConfig(seed=7, procedures=procedures, train_sizes=(10, 20), repeats=1)
    report = run_benchmark(ds, config)
    assert_golden({(proc, n): value for proc, n, _, value in report.rows}, BENCHMARK_RMSES)


def test_calibration_rmses():
    ds = synth_dataset("calibration", 200, 190, 0.05, 0)
    rows, _, _ = run_calibration_experiment(ds, seed=0, splits=1)
    assert_golden({model: value for model, _, value in rows}, CALIBRATION_RMSES)
