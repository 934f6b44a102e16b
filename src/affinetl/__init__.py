"""Affine model transfer: kernel solvers, reference procedures, experiments."""

from .affine import AffineTLModel, FitConfig, FitTrace, fit, fit_constrained, objective, predict, update_block
from .baselines import BaselineModel, fit_baseline, predict_baseline
from .calibration import (
    BlockLayout,
    CalibrationModel,
    build_fused_penalty,
    default_layout,
    fit_calibration,
    fit_log_difference,
    fit_olr,
    predict_calibration,
)
from .data import Dataset, load_csv, load_sarcos, synth_dataset
from .kernels import KernelSpec, eval_kernel, gram
from .model_selection import Grid, CVResult, grid_search_cv, kfold_split, rmse
from .solvers import SingularSystemError, penalized_ls, ridge_solve
from .spectral import DecayEstimate, OverlapExperimentConfig, decay_rate, eigvals_desc, run_overlap_experiment

__version__ = "0.1.0"
