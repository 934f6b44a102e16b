"""Golden outputs, as ``float.hex`` strings: test RMSEs of small benchmark
and calibration runs, recorded at commit f5d8656, and the decay rates of a
small ``affinetl spectral`` run, recorded at commit cddfbe1.

A change meant to leave results alone (a faster path to the same numbers)
must keep every value here to 1e-12 relative.  A change meant to move them
updates these strings and says why in CHANGES.md.
"""

import csv

import pytest

from affinetl.benchmark import BenchmarkConfig, run_benchmark
from affinetl.calibration import run_calibration_experiment
from affinetl.cli import main
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

# (s2, s3, s_hadamard) of every (d, repeat) row of
# ``affinetl spectral --repeats 3 --seed 1``; no rate of this run is floored
SPECTRAL_RATES = {
    (0, 0): ("0x1.ab4ce749722bbp-2", "0x1.a7df2b0544924p-2", "0x1.34ecdb56ef747p-1"),
    (0, 1): ("0x1.aaa941f7c61cap-2", "0x1.b08b9f27d27eep-2", "0x1.3c493a4d164d0p-1"),
    (0, 2): ("0x1.acb33da6b3dd0p-2", "0x1.afd11a3829a32p-2", "0x1.3e39488731febp-1"),
    (1, 0): ("0x1.ac6dfc238cd81p-2", "0x1.a7df2b0544924p-2", "0x1.325b6bcba9648p-1"),
    (1, 1): ("0x1.aab2a0107546ap-2", "0x1.b08b9f27d27eep-2", "0x1.390ed7623732ap-1"),
    (1, 2): ("0x1.ab5d805851a68p-2", "0x1.afd11a3829a32p-2", "0x1.3920de3ca8057p-1"),
    (2, 0): ("0x1.ad51a1e48bfb4p-2", "0x1.a7df2b0544924p-2", "0x1.3040c34ef09a5p-1"),
    (2, 1): ("0x1.b02fd9e6b417bp-2", "0x1.b08b9f27d27eep-2", "0x1.384ce27a4e86cp-1"),
    (2, 2): ("0x1.ad45848c14e6dp-2", "0x1.afd11a3829a32p-2", "0x1.3570d6cbbb98dp-1"),
    (3, 0): ("0x1.ae124fce289a4p-2", "0x1.a7df2b0544924p-2", "0x1.2da885da43193p-1"),
    (3, 1): ("0x1.b6b194739c6e3p-2", "0x1.b08b9f27d27eep-2", "0x1.37955a491ebbap-1"),
    (3, 2): ("0x1.a54e0557e86c7p-2", "0x1.afd11a3829a32p-2", "0x1.2f206e7377402p-1"),
    (4, 0): ("0x1.ab6a4fba4faf1p-2", "0x1.a7df2b0544924p-2", "0x1.28bd0c1402183p-1"),
    (4, 1): ("0x1.b4c3ea8075cecp-2", "0x1.b08b9f27d27eep-2", "0x1.338c28505f546p-1"),
    (4, 2): ("0x1.a92b24a5184e8p-2", "0x1.afd11a3829a32p-2", "0x1.2cc15fa2fa496p-1"),
    (5, 0): ("0x1.aa8a48a5a759dp-2", "0x1.a7df2b0544924p-2", "0x1.26f17948d0523p-1"),
    (5, 1): ("0x1.af566b0a6ac92p-2", "0x1.b08b9f27d27eep-2", "0x1.2ea7fce66955bp-1"),
    (5, 2): ("0x1.a4a614f2c36c3p-2", "0x1.afd11a3829a32p-2", "0x1.279e04f2266eep-1"),
    (6, 0): ("0x1.af757804e9515p-2", "0x1.a7df2b0544924p-2", "0x1.2316e980123d5p-1"),
    (6, 1): ("0x1.b3893297bb20fp-2", "0x1.b08b9f27d27eep-2", "0x1.2cc7fcda6c178p-1"),
    (6, 2): ("0x1.aec4d4f813d7bp-2", "0x1.afd11a3829a32p-2", "0x1.2760e3b062e4dp-1"),
    (7, 0): ("0x1.ac1310de241e5p-2", "0x1.a7df2b0544924p-2", "0x1.1e3a1163d97b3p-1"),
    (7, 1): ("0x1.b5c2f23327764p-2", "0x1.b08b9f27d27eep-2", "0x1.2a1bed5c09784p-1"),
    (7, 2): ("0x1.ac26c39c7a626p-2", "0x1.afd11a3829a32p-2", "0x1.21f00d1a912bdp-1"),
    (8, 0): ("0x1.a710aca5c7ad0p-2", "0x1.a7df2b0544924p-2", "0x1.19528c72ce969p-1"),
    (8, 1): ("0x1.b8c4317f7ca07p-2", "0x1.b08b9f27d27eep-2", "0x1.26c25fbd9c670p-1"),
    (8, 2): ("0x1.adafac0e6fc08p-2", "0x1.afd11a3829a32p-2", "0x1.20a0d656d8b0bp-1"),
    (9, 0): ("0x1.a7a5e736bd03ap-2", "0x1.a7df2b0544924p-2", "0x1.1586d1dda8062p-1"),
    (9, 1): ("0x1.b1596fc391d54p-2", "0x1.b08b9f27d27eep-2", "0x1.2099cb4379921p-1"),
    (9, 2): ("0x1.b37ca1f55137cp-2", "0x1.afd11a3829a32p-2", "0x1.1c721298540afp-1"),
    (10, 0): ("0x1.a7df2b0544928p-2", "0x1.a7df2b0544924p-2", "0x1.135385245857bp-1"),
    (10, 1): ("0x1.b08b9f27d27ebp-2", "0x1.b08b9f27d27eep-2", "0x1.1b113ce53b9e8p-1"),
    (10, 2): ("0x1.afd11a3829a33p-2", "0x1.afd11a3829a32p-2", "0x1.199dbb7dd4be0p-1"),
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


def test_spectral_rows(tmp_path):
    out = tmp_path / "spectral.csv"
    assert main(["spectral", "--repeats", "3", "--seed", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(row["d"]), int(row["repeat"])) for row in rows] == list(SPECTRAL_RATES)
    for row in rows:
        key = int(row["d"]), int(row["repeat"])
        rates = tuple(float(row[name]) for name in ("s2", "s3", "s_hadamard"))
        assert rates == tuple(float.fromhex(v) for v in SPECTRAL_RATES[key]), key
        flags = [row[name] for name in ("s2_floored", "s3_floored", "s_hadamard_floored")]
        assert flags == ["False"] * 3, key
