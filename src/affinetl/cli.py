"""Command-line front end: fit, benchmark, spectral, calibrate, synth.

Every run is seeded and every output is CSV (or JSON on stdout for ``fit``),
formatted at full float precision so identical runs produce byte-identical
files.  Benchmark settings can come from a JSON config file mirroring
BenchmarkConfig field names; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .affine import FitConfig, fit, predict
from .benchmark import PROCEDURES, BenchmarkConfig, length_scales, run_benchmark
from .calibration import run_calibration_experiment
from .data import (
    SYNTH_KINDS,
    Dataset,
    load_calibration_csv,
    load_csv,
    load_sarcos,
    save_csv,
    synth_dataset,
)
from .kernels import KernelSpec
from .model_selection import rmse
from .spectral import OverlapExperimentConfig, run_overlap_experiment

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_kernel(text: str, length_scale: float) -> KernelSpec:
    """Parse 'rbf', 'linear', or 'matern:<nu>' (nu in {0.5, 1.5, 2.5, inf})."""
    fam, _, nu = text.partition(":")
    if fam == "matern":
        return KernelSpec(fam, length_scale, nu=float(nu) if nu else 1.5)
    if nu:
        raise ValueError(f"kernel {fam!r} takes no parameter")
    return KernelSpec(fam, length_scale)


def _read_data_file(path, args) -> Dataset:
    if args.format == "sarcos":
        return load_sarcos(path, args.target_joint)
    return load_csv(path)


def _load_dataset(args) -> Dataset:
    if args.synth:
        return synth_dataset(args.synth, args.n, args.dims, args.noise_sd, args.seed)
    if not args.data:
        raise ValueError("provide --data PATH or --synth KIND")
    return _read_data_file(args.data, args)


def _add_dataset_args(sub) -> None:
    sub.add_argument("--data", help="input data file")
    sub.add_argument("--format", choices=("csv", "sarcos"), default="csv",
                     help="input file format (default csv)")
    sub.add_argument("--target-joint", type=int, default=1,
                     help="torque column to predict for sarcos format (1..7)")
    sub.add_argument("--synth", choices=SYNTH_KINDS, help="generate data instead of loading")
    sub.add_argument("--n", type=int, default=200, help="synthetic sample count")
    sub.add_argument("--dims", type=int, default=3, help="synthetic input dimension")
    sub.add_argument("--noise-sd", type=float, default=0.1, help="synthetic noise level")


def _cmd_synth(args) -> int:
    ds = synth_dataset(args.kind, args.n, args.dims, args.noise_sd, args.seed)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} rows to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    ds = _load_dataset(args)
    ells = length_scales(args.length_scale_rule, ds.X.shape[1], ds.Fs.shape[1])
    specs = (
        KernelSpec(args.kernel, ells["fs"]),
        KernelSpec(args.kernel, ells["fs"]),
        KernelSpec(args.kernel, ells["g3"]),
    )
    config = FitConfig(
        lambda1=args.lambda1, lambda2=args.lambda2, lambda3=args.lambda3,
        variant=args.variant, tol=args.tol, max_iter=args.max_iter,
        seed=args.seed, scale_convention=args.scale_convention,
    )
    model, trace = fit(config, ds.X, ds.Fs, ds.y, specs)
    train_rmse = rmse(predict(model, ds.X, ds.Fs), ds.y)
    if args.coeffs_out:
        rows = [(i, model.a[i], model.b[i], model.c[i]) for i in range(len(model.a))]
        _write_csv(args.coeffs_out, ["row", "a", "b", "c"], rows)
    print(json.dumps({
        "variant": config.variant,
        "n": ds.n,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "final_objective": trace.objectives[-1],
        "final_update_ratio": trace.final_update_ratio,
        "intercept": model.d,
        "train_rmse": train_rmse,
    }, indent=2))
    return 0


def _merge_benchmark_config(args) -> BenchmarkConfig:
    settings: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_conf = json.load(fh)
        unknown = set(file_conf) - set(BenchmarkConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_conf)
    for key, flag in [
        ("seed", args.seed), ("repeats", args.repeats), ("cv_folds", args.cv_folds),
        ("test_cap", args.test_cap), ("length_scale_rule", args.length_scale_rule),
        ("scale_convention", args.scale_convention),
    ]:
        if flag is not None:
            settings[key] = flag
    if args.procedures is not None:
        settings["procedures"] = tuple(args.procedures.split(","))
    if args.sizes is not None:
        settings["train_sizes"] = tuple(int(v) for v in args.sizes.split(","))
    if isinstance(settings.get("procedures"), list):
        settings["procedures"] = tuple(settings["procedures"])
    if isinstance(settings.get("train_sizes"), list):
        settings["train_sizes"] = tuple(settings["train_sizes"])
    if settings.get("seed") is None:
        raise ValueError("benchmark requires an explicit --seed (or a seed in --config)")
    return BenchmarkConfig(**settings)


def _cmd_benchmark(args) -> int:
    config = _merge_benchmark_config(args)
    args.seed = config.seed  # synth data, if any, derives from the run seed
    ds = _load_dataset(args)
    test_ds = _read_data_file(args.test_data, args) if args.test_data else None
    report = run_benchmark(ds, config, test_dataset=test_ds)
    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "results.csv", ["procedure", "n", "repeat", "rmse"], report.rows)
    _write_csv(out_dir / "aggregate.csv", ["procedure", "n", "mean", "sd"], report.aggregate)
    print(f"wrote {len(report.rows)} cells to {out_dir} ({report.failures} failed)")
    return 2 if report.failures else 0


def _cmd_spectral(args) -> int:
    ell = math.sqrt(10.0) if args.length_scale is None else args.length_scale
    cfg = OverlapExperimentConfig(
        d=0, ambient_dim=args.ambient_dim, n_bases=args.n_bases, n_samples=args.n_samples,
        repeats=args.repeats, spec2=_parse_kernel(args.kernel2, ell),
        spec3=_parse_kernel(args.kernel3, ell), seed=args.seed,
    )
    rows = [dataclasses.astuple(row) for d in range(cfg.n_bases + 1)
            for row in run_overlap_experiment(dataclasses.replace(cfg, d=d))]
    _write_csv(args.out, ["d", "repeat", "s2", "s3", "s_hadamard",
                          "s2_floored", "s3_floored", "s_hadamard_floored"], rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    if args.synth_n:
        ds = synth_dataset("calibration", args.synth_n, args.dims, args.noise_sd, args.seed)
    elif args.data:
        ds = load_calibration_csv(args.data)
    else:
        raise ValueError("provide --data PATH or --synth-n N")
    rows, gamma_rows, traces = run_calibration_experiment(
        ds, seed=args.seed, splits=args.splits, train_size=args.train_size,
        test_size=args.test_size, l_beta=args.l_beta, full_cv=args.full_cv,
    )
    for split, trace in enumerate(traces):
        if not trace.converged:
            print(f"affinetl: calibrate split {split}: full model not converged after "
                  f"{trace.iterations} profile evaluations", file=sys.stderr)
    out_dir = Path(args.out_dir)
    _write_csv(out_dir / "calibration.csv", ["model", "split", "rmse"], rows)
    _write_csv(out_dir / "gamma.csv", ["block", "index", "value"], gamma_rows)
    print(f"wrote {len(rows)} model/split rows to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="affinetl",
                                     description="Affine model transfer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=SYNTH_KINDS, required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--noise-sd", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit one affine transfer model")
    _add_dataset_args(p)
    p.add_argument("--variant", choices=("full", "full_with_intercept", "constrained"),
                   default="full_with_intercept")
    p.add_argument("--lambda1", type=float, default=0.1)
    p.add_argument("--lambda2", type=float, default=0.1)
    p.add_argument("--lambda3", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", default="rbf")
    p.add_argument("--scale-convention", choices=("eqn3", "appendix"), default="eqn3")
    p.add_argument("--length-scale-rule", choices=("sqrt_dim", "sarcos_appendix"),
                   default="sqrt_dim")
    p.add_argument("--coeffs-out", help="write dual coefficients to this CSV")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("benchmark", help="run the train-size sweep over procedures")
    _add_dataset_args(p)
    p.add_argument("--test-data", help="separate test file (same format as --data)")
    p.add_argument("--config", help="JSON config mirroring BenchmarkConfig fields")
    p.add_argument("--seed", type=int, help="master seed (required here or in --config)")
    p.add_argument("--procedures", help=f"comma list from {','.join(PROCEDURES)}")
    p.add_argument("--sizes", help="comma list of training sizes")
    p.add_argument("--repeats", type=int)
    p.add_argument("--cv-folds", type=int)
    p.add_argument("--test-cap", type=int)
    p.add_argument("--length-scale-rule", choices=("sqrt_dim", "sarcos_appendix"))
    p.add_argument("--scale-convention", choices=("eqn3", "appendix"))
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("spectral", help="Hadamard-product eigenvalue decay experiment")
    p.add_argument("--ambient-dim", type=int, default=100)
    p.add_argument("--n-bases", type=int, default=10)
    p.add_argument("--n-samples", type=int, default=100)
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--kernel2", default="rbf", help="kernel for fs (rbf|linear|matern:<nu>)")
    p.add_argument("--kernel3", default="rbf", help="kernel for x")
    p.add_argument("--length-scale", type=float, help="shared length-scale (default sqrt(10))")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("calibrate", help="three-model calibration comparison")
    p.add_argument("--data", help="calibration CSV with block-named descriptor columns")
    p.add_argument("--synth-n", type=int, help="generate a synthetic calibration set instead")
    p.add_argument("--dims", type=int, default=190)
    p.add_argument("--noise-sd", type=float, default=0.05)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--splits", type=int, default=20)
    p.add_argument("--train-size", type=int, default=60)
    p.add_argument("--test-size", type=int, default=10)
    p.add_argument("--l-beta", type=float, default=1.0)
    p.add_argument("--full-cv", action="store_true",
                   help="cross-validate the full model separately (slow)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"affinetl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
