import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affinetl
from affinetl import calibration
from affinetl.affine import FitConfig, FitTrace, fit
from affinetl.calibration import run_calibration_experiment
from affinetl.cli import main
from affinetl.data import load_csv, synth_dataset
from affinetl.kernels import KernelSpec
from affinetl.spectral import OverlapExperimentConfig, run_overlap_experiment

from conftest import write_sarcos


def read_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestSynthCommand:
    def test_writes_reloadable_csv(self, tmp_path):
        out = tmp_path / "ds.csv"
        code = main(["synth", "--kind", "offset_transfer", "--n", "25",
                     "--dims", "2", "--noise-sd", "0.05", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        ds = load_csv(out)
        want = synth_dataset("offset_transfer", 25, 2, 0.05, 3)
        assert np.array_equal(ds.y, want.y)

    def test_calibration_kind_emits_block_columns(self, tmp_path):
        out = tmp_path / "cal.csv"
        assert main(["synth", "--kind", "calibration", "--n", "15",
                     "--dims", "24", "--noise-sd", "0.01", "--seed", "4",
                     "--out", str(out)]) == 0
        header, rows = read_table(out)
        assert header[0] == "b0_1"
        assert header[-2:] == ["fs", "y"]
        assert len(rows) == 15


class TestFitCommand:
    def test_json_summary(self, tmp_path, capsys):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "30", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "5", "--out", str(data)])
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--variant", "constrained",
                     "--lambda1", "0.01", "--lambda3", "0.01", "--seed", "0"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == "constrained"
        assert summary["converged"] is True
        assert summary["train_rmse"] < 1.0

    def test_coefficient_export(self, tmp_path, capsys):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "20", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "6", "--out", str(data)])
        coeffs = tmp_path / "coeffs.csv"
        code = main(["fit", "--data", str(data), "--variant", "full_with_intercept",
                     "--max-iter", "50", "--seed", "1", "--coeffs-out", str(coeffs)])
        assert code == 0
        header, rows = read_table(coeffs)
        assert header == ["row", "a", "b", "c"]
        assert len(rows) == 20


    @pytest.mark.parametrize("rule,g3_dims", [("sqrt_dim", 2), ("sarcos_appendix", 4)])
    def test_length_scale_rule(self, tmp_path, capsys, rule, g3_dims):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "20", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "6", "--out", str(data)])
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--max-iter", "20",
                     "--length-scale-rule", rule])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        ds = load_csv(data)
        # two x and two fs columns: sqrt(2) for g1 and g2, g3 by the rule
        specs = (KernelSpec("rbf", math.sqrt(2)), KernelSpec("rbf", math.sqrt(2)),
                 KernelSpec("rbf", math.sqrt(g3_dims)))
        config = FitConfig(0.1, 0.1, 0.1, variant="full_with_intercept", max_iter=20)
        _, trace = fit(config, ds.X, ds.Fs, ds.y, specs)
        assert summary["final_objective"] == trace.objectives[-1]


class TestBenchmarkCommand:
    def run_small(self, tmp_path, out_name, extra=()):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "60", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "7", "--out", str(data)])
        out_dir = tmp_path / out_name
        code = main(["benchmark", "--data", str(data), "--seed", "21",
                     "--procedures", "direct,only_source", "--sizes", "8",
                     "--repeats", "2", "--cv-folds", "3", "--test-cap", "30",
                     "--out-dir", str(out_dir), *extra])
        return code, out_dir

    def test_outputs_and_aggregate_consistency(self, tmp_path):
        code, out_dir = self.run_small(tmp_path, "run1")
        assert code == 0
        header, rows = read_table(out_dir / "results.csv")
        assert header == ["procedure", "n", "repeat", "rmse"]
        assert len(rows) == 4
        agg_header, agg_rows = read_table(out_dir / "aggregate.csv")
        assert agg_header == ["procedure", "n", "mean", "sd"]
        # independent recomputation of mean/sd from the per-repeat file
        for proc, n, mean, sd in agg_rows:
            vals = [float(r[3]) for r in rows if r[0] == proc and r[1] == n]
            assert float(mean) == pytest.approx(np.mean(vals), abs=1e-12)
            assert float(sd) == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        _, d1 = self.run_small(tmp_path, "run1")
        _, d2 = self.run_small(tmp_path, "run2")
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
        assert (d1 / "aggregate.csv").read_bytes() == (d2 / "aggregate.csv").read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "30", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "8", "--out", str(data)])
        code = main(["benchmark", "--data", str(data), "--out-dir",
                     str(tmp_path / "out")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "60", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "9", "--out", str(data)])
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "seed": 33, "procedures": ["direct"], "train_sizes": [8],
            "repeats": 3, "cv_folds": 3, "test_cap": 25,
        }))
        out_dir = tmp_path / "out"
        code = main(["benchmark", "--data", str(data), "--config", str(conf),
                     "--repeats", "1", "--out-dir", str(out_dir)])
        assert code == 0
        _, rows = read_table(out_dir / "results.csv")
        assert len(rows) == 1  # flag overrode the config's repeats=3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "30", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "10", "--out", str(data)])
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 1, "fold_count": 5}))
        code = main(["benchmark", "--data", str(data), "--config", str(conf),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "fold_count" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["matern", "rbf "])
    def test_unbuildable_kernel_family_rejected(self, tmp_path, capsys, family):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 1, "kernel_family": family,
                                    "procedures": ["direct"], "train_sizes": [10],
                                    "repeats": 2}))
        out_dir = tmp_path / "out"
        code = main(["benchmark", "--synth", "offset_transfer", "--config", str(conf),
                     "--out-dir", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("affinetl: error: ") and "kernel_family" in err
        assert not out_dir.exists()

    def test_sizes_key_in_config_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 1, "sizes": [8]}))
        code = main(["benchmark", "--synth", "offset_transfer", "--config", str(conf),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "sizes" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["benchmark", "--data", str(tmp_path / "absent.csv"),
                     "--seed", "1", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err

    def test_partial_failure_exits_2_with_complete_csv(self, tmp_path, capsys):
        data = tmp_path / "ds.csv"
        main(["synth", "--kind", "offset_transfer", "--n", "30", "--dims", "2",
              "--noise-sd", "0.05", "--seed", "11", "--out", str(data)])
        out_dir = tmp_path / "out"
        # train size 30 leaves no test rows, so that cell fails; size 8 works
        code = main(["benchmark", "--data", str(data), "--seed", "21",
                     "--procedures", "direct", "--sizes", "8,30", "--repeats", "1",
                     "--cv-folds", "3", "--out-dir", str(out_dir)])
        assert code == 2
        _, rows = read_table(out_dir / "results.csv")
        assert len(rows) == 2
        values = {r[1]: r[3] for r in rows}
        assert values["30"] == "nan"
        assert values["8"] != "nan"

    def test_sarcos_format_with_test_file(self, tmp_path):
        rng = np.random.default_rng(12)
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_sarcos(train, rng.normal(size=(40, 21)), rng.normal(size=(40, 7)))
        write_sarcos(test, rng.normal(size=(15, 21)), rng.normal(size=(15, 7)))
        out_dir = tmp_path / "out"
        code = main(["benchmark", "--data", str(train), "--test-data", str(test),
                     "--format", "sarcos", "--target-joint", "7", "--seed", "5",
                     "--procedures", "direct,only_source,affine_const",
                     "--sizes", "10", "--repeats", "1", "--cv-folds", "3",
                     "--length-scale-rule", "sarcos_appendix",
                     "--out-dir", str(out_dir)])
        assert code == 0
        _, rows = read_table(out_dir / "results.csv")
        assert len(rows) == 3
        assert all(math.isfinite(float(r[3])) for r in rows)


class TestSpectralCommand:
    def test_row_count_and_reload(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectral", "--ambient-dim", "20", "--n-bases", "4",
                     "--n-samples", "10", "--repeats", "3", "--seed", "12",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_table(out)
        assert header == ["d", "repeat", "s2", "s3", "s_hadamard",
                          "s2_floored", "s3_floored", "s_hadamard_floored"]
        assert len(rows) == 3 * 5  # repeats * (n_bases + 1)
        for row in rows:
            assert 0.01 <= float(row[4]) <= 1.0

    def test_matern_kernel_argument(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectral", "--ambient-dim", "16", "--n-bases", "3",
                     "--n-samples", "8", "--repeats", "2", "--seed", "13",
                     "--kernel2", "matern:0.5", "--kernel3", "linear",
                     "--out", str(out)])
        assert code == 0

    def test_sweep_function_matches_config_runs(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectral", "--ambient-dim", "20", "--n-bases", "4", "--n-samples", "10",
                     "--repeats", "2", "--seed", "14", "--out", str(out)]) == 0
        _, rows = read_table(out)
        spec = KernelSpec("rbf", math.sqrt(10.0))
        want = [
            [str(row.d), str(row.repeat), *("%.17g" % v for v in (row.s2, row.s3, row.s_hadamard)),
             str(row.s2_floored), str(row.s3_floored), str(row.s_hadamard_floored)]
            for d in range(5)
            for row in run_overlap_experiment(OverlapExperimentConfig(
                d=d, ambient_dim=20, n_bases=4, n_samples=10, repeats=2,
                spec2=spec, spec3=spec, seed=14))
        ]
        assert rows == want
        assert len(rows) == 2 * 5
        assert rows[0][:2] == ["0", "0"]
        assert rows[-1][:2] == ["4", "1"]

    def test_zero_length_scale_rejected(self, tmp_path, capsys):
        code = main(["spectral", "--ambient-dim", "20", "--n-bases", "2", "--n-samples", "10",
                     "--repeats", "1", "--seed", "1", "--length-scale", "0",
                     "--out", str(tmp_path / "spec.csv")])
        assert code == 1
        assert "length_scale must be positive" in capsys.readouterr().err
        assert not (tmp_path / "spec.csv").exists()


class TestCalibrateCommand:
    def test_synthetic_experiment(self, tmp_path):
        out_dir = tmp_path / "cal"
        code = main(["calibrate", "--synth-n", "40", "--dims", "24",
                     "--noise-sd", "0.02", "--seed", "15", "--splits", "2",
                     "--train-size", "30", "--test-size", "8",
                     "--out-dir", str(out_dir)])
        assert code == 0
        header, rows = read_table(out_dir / "calibration.csv")
        assert header == ["model", "split", "rmse"]
        assert len(rows) == 6  # three models x two splits
        assert {r[0] for r in rows} == {"olr", "log_difference", "full"}
        gh, grows = read_table(out_dir / "gamma.csv")
        assert gh == ["block", "index", "value"]
        assert len(grows) == 24

    def test_run_calibration_experiment_rows(self):
        ds = synth_dataset("calibration", n=40, dims=24, noise_sd=0.02, seed=16)
        rows, gamma_rows, traces = run_calibration_experiment(
            ds, seed=1, splits=2, train_size=30, test_size=8)
        assert [r[0] for r in rows[:3]] == ["olr", "log_difference", "full"]
        assert all(np.isfinite(r[2]) for r in rows)
        layout = ds.metadata["layout"]
        assert len(gamma_rows) == layout.total
        assert gamma_rows[0][0] == layout.blocks[0][0]
        assert len(traces) == 2 and all(t.iterations >= 1 for t in traces)

    def test_unconverged_splits_reported_on_stderr(self, tmp_path, monkeypatch, capsys):
        argv = ["calibrate", "--synth-n", "40", "--dims", "24", "--noise-sd", "0.02",
                "--seed", "15", "--splits", "3", "--train-size", "30", "--test-size", "8"]
        assert main(argv + ["--out-dir", str(tmp_path / "plain")]) == 0
        assert "not converged" not in capsys.readouterr().err

        original = calibration.fit_calibration
        calls = []

        def stalled(*args, **kwargs):
            model, trace = original(*args, **kwargs)
            calls.append(trace)
            if len(calls) != 2:  # split 1 converges
                trace = FitTrace(trace.objectives, iterations=1000, converged=False,
                                 final_update_ratio=trace.final_update_ratio)
            return model, trace

        monkeypatch.setattr(calibration, "fit_calibration", stalled)
        assert main(argv + ["--out-dir", str(tmp_path / "stalled")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"affinetl: calibrate split {i}: full model not converged after 1000 "
            "profile evaluations"
            for i in (0, 2)
        ]
        for name in ("calibration.csv", "gamma.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == \
                (tmp_path / "stalled" / name).read_bytes()

    def test_requires_some_input(self, capsys):
        assert main(["calibrate", "--seed", "1", "--out-dir", "/tmp/x"]) == 1
        assert capsys.readouterr().err

    def test_too_few_rows_for_the_test_split(self, tmp_path, capsys):
        # 65 rows hold the 60 training rows but only 5 of the 10 test rows
        code = main(["calibrate", "--synth-n", "65", "--seed", "1", "--splits", "1",
                     "--out-dir", str(tmp_path / "cal")])
        assert code == 1
        assert "need at least 70 rows" in capsys.readouterr().err
        assert not (tmp_path / "cal").exists()

    def test_zero_splits_rejected(self, tmp_path, capsys):
        code = main(["calibrate", "--synth-n", "40", "--dims", "24", "--seed", "1",
                     "--splits", "0", "--train-size", "30", "--test-size", "8",
                     "--out-dir", str(tmp_path / "cal")])
        assert code == 1
        assert capsys.readouterr().err == "affinetl: error: splits must be at least 1, got 0\n"
        assert not (tmp_path / "cal").exists()

    def test_nonpositive_l_beta_rejected(self, tmp_path, capsys):
        code = main(["calibrate", "--synth-n", "40", "--dims", "24", "--seed", "1",
                     "--splits", "1", "--train-size", "30", "--test-size", "8",
                     "--l-beta", "0", "--out-dir", str(tmp_path / "cal")])
        assert code == 1
        assert capsys.readouterr().err == \
            "affinetl: error: l_beta must be positive and finite, got 0.0\n"
        assert not (tmp_path / "cal").exists()

    def test_well_specified_models_score_alike(self):
        # with no scale effect in the generator both calibration models are
        # correctly specified, so their test errors should nearly coincide,
        # and the fs-only line fit should trail both
        ds = synth_dataset("calibration", n=120, dims=24, noise_sd=0.05, seed=21)
        rows, _, _ = run_calibration_experiment(ds, seed=2, splits=6,
                                             train_size=60, test_size=10)
        by_model = {}
        for model, _, val in rows:
            by_model.setdefault(model, []).append(val)
        full = np.mean(by_model["full"])
        diff = np.mean(by_model["log_difference"])
        assert abs(full - diff) / diff <= 0.10
        assert np.mean(by_model["olr"]) > max(full, diff)


SCIPY_MODULES = "[m for m in sys.modules if m.startswith('scipy')]"


def test_cli_import_loads_no_scipy():
    # the package's import time is measured by the benchmark's setup probe;
    # kernels defers scipy.spatial to the first distance computation and
    # solvers binds LAPACK from scipy.linalg at the first factorization
    src = str(Path(affinetl.__file__).resolve().parent.parent)
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import affinetl, affinetl.cli; " \
            f"print({SCIPY_MODULES})"
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_synth_and_help_load_no_scipy(tmp_path):
    src = str(Path(affinetl.__file__).resolve().parent.parent)
    out = tmp_path / "cal.csv"
    probe = f"""
import sys
sys.path.insert(0, sys.argv[1])
from affinetl.cli import main
code = main(["synth", "--kind", "calibration", "--n", "15", "--seed", "1", "--out", sys.argv[2]])
try:
    main(["--help"])
except SystemExit as stop:
    print(code, stop.code, {SCIPY_MODULES})
"""
    done = subprocess.run([sys.executable, "-c", probe, src, str(out)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 0 []"
    assert load_csv(out).y.shape == (15,)


def test_calibrate_leaves_scipy_optimize_unloaded(tmp_path):
    # importing scipy.optimize adds about 12 MB of resident memory, which the
    # benchmark's peak_rss_mb on its calibrate part would show
    src = str(Path(affinetl.__file__).resolve().parent.parent)
    probe = "import sys; sys.path.insert(0, sys.argv[1]); from affinetl.cli import main; " \
            "code = main(['calibrate', '--synth-n', '40', '--dims', '24', '--seed', '1', " \
            "'--splits', '1', '--train-size', '30', '--test-size', '8', '--out-dir', sys.argv[2]]); " \
            "print(code, 'scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe, src, str(tmp_path / "cal")],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"
