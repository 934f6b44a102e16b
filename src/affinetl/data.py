"""Dataset ingestion, CSV round-tripping, and synthetic data generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibration import BlockLayout, default_layout
from .kernels import _as_samples

__all__ = [
    "Dataset",
    "SYNTH_KINDS",
    "load_sarcos",
    "save_sarcos",
    "load_csv",
    "save_csv",
    "load_calibration_csv",
    "synth_dataset",
]

SYNTH_KINDS = ("linear_transfer", "offset_transfer", "scale_transfer", "calibration")

# %.17g prints float64 exactly (round-trips bit-for-bit through text).
_FLOAT_FMT = "%.17g"


@dataclass
class Dataset:
    """Row-aligned inputs X, source features Fs, and targets y."""

    X: np.ndarray
    Fs: np.ndarray
    y: np.ndarray
    x_names: list[str] = field(default_factory=list)
    fs_names: list[str] = field(default_factory=list)
    y_name: str = "y"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X, self.Fs, self.y = _as_samples({"X": self.X, "Fs": self.Fs}, {"y": self.y})
        if not self.x_names:
            self.x_names = [f"x{i}" for i in range(self.X.shape[1])]
        if not self.fs_names:
            self.fs_names = [f"fs{i}" for i in range(self.Fs.shape[1])]

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            self.X[idx], self.Fs[idx], self.y[idx],
            list(self.x_names), list(self.fs_names), self.y_name, dict(self.metadata),
        )


def _load_numeric_table(path, min_cols: int) -> np.ndarray:
    path = Path(path)
    with open(path) as fh:
        first = fh.readline()
    if not first.strip():
        raise ValueError(f"{path}: file is empty")
    delimiter = "," if "," in first else None
    try:
        table = np.loadtxt(path, delimiter=delimiter, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed row ({exc})") from exc
    if table.shape[1] < min_cols:
        raise ValueError(f"{path}: expected at least {min_cols} columns, found {table.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value at line {bad[0] + 1}")
    return table


def load_sarcos(path, target_joint: int) -> Dataset:
    """Load a robot-arm torque table: 21 input columns then 7 torque columns.

    The selected joint's torque becomes the target y and the remaining six
    torques the source features.  Comma and whitespace delimiters are both
    accepted.
    """
    if not 1 <= int(target_joint) <= 7:
        raise ValueError(f"target_joint must be in 1..7, got {target_joint}")
    table = _load_numeric_table(path, 28)
    X = table[:, :21]
    torques = table[:, 21:28]
    cols = [j for j in range(7) if j != target_joint - 1]
    return Dataset(
        X,
        torques[:, cols],
        torques[:, target_joint - 1],
        x_names=[f"x{i + 1}" for i in range(21)],
        fs_names=[f"torque{j + 1}" for j in cols],
        y_name=f"torque{target_joint}",
        metadata={"target_joint": int(target_joint)},
    )


def save_sarcos(path, X, torques):
    """Write a 28-column torque table (inputs then 7 torques), full precision."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    torques = np.atleast_2d(np.asarray(torques, dtype=float))
    if X.shape[1] != 21 or torques.shape[1] != 7 or X.shape[0] != torques.shape[0]:
        raise ValueError("expected X with 21 columns and torques with 7, row-aligned")
    np.savetxt(path, np.hstack([X, torques]), fmt=_FLOAT_FMT, delimiter=",")


def save_csv(ds: Dataset, path):
    """Write a dataset as CSV with header [x..., fs..., y], full precision."""
    header = ",".join([*ds.x_names, *ds.fs_names, ds.y_name])
    table = np.hstack([ds.X, ds.Fs, ds.y[:, None]])
    np.savetxt(path, table, fmt=_FLOAT_FMT, delimiter=",", header=header, comments="")


def load_csv(path, fs_cols=None) -> Dataset:
    """Load a generic headered CSV into a Dataset.

    The target is the column named ``y`` and the inputs are every column
    that is neither the target nor a source feature.  Source features are
    the ``fs_cols`` given, by default the columns whose names start with
    ``fs``.
    """
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip()
    if not header:
        raise ValueError(f"{path}: missing header row")
    names = [h.strip() for h in header.split(",")]
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed row ({exc})") from exc
    if table.shape[1] != len(names):
        raise ValueError(f"{path}: header names {len(names)} columns, rows have {table.shape[1]}")

    if "y" not in names:
        raise ValueError(f"{path}: no target column 'y' in header")
    if fs_cols is None:
        fs_cols = [c for c in names if c.startswith("fs")]
    x_cols = [c for c in names if c != "y" and c not in fs_cols]
    missing = [c for c in fs_cols if c not in names]
    if missing:
        raise ValueError(f"{path}: columns {missing} not in header")
    if not fs_cols or not x_cols:
        raise ValueError(f"{path}: need at least one fs column and one x column")
    col = {c: i for i, c in enumerate(names)}
    return Dataset(
        table[:, [col[c] for c in x_cols]],
        table[:, [col[c] for c in fs_cols]],
        table[:, col["y"]],
        x_names=x_cols,
        fs_names=list(fs_cols),
    )


def load_calibration_csv(path) -> Dataset:
    """Load a calibration CSV, inferring the block layout from the header.

    Descriptor columns are named ``<block>_<index>``; consecutive columns
    sharing a block name form one block.  The remaining columns must be
    ``fs`` and ``y``.
    """
    ds = load_csv(path, fs_cols=["fs"])
    blocks = []
    for name in ds.x_names:
        block, _, idx = name.rpartition("_")
        if not block or not idx.isdigit():
            raise ValueError(f"{path}: descriptor column {name!r} is not of the form block_index")
        if blocks and blocks[-1][0] == block:
            blocks[-1][1] += 1
        else:
            blocks.append([block, 1])
    layout = BlockLayout(tuple((b, s) for b, s in blocks))
    ds.metadata["layout"] = layout
    return ds


def _generic_layout(p: int) -> BlockLayout:
    if p == default_layout().total:
        return default_layout()
    if p < 2:
        raise ValueError("calibration descriptors need at least 2 columns")
    sizes = []
    left = p
    while left > 0:
        take = min(10, left)
        if left - take == 1:
            take -= 1
        sizes.append(take)
        left -= take
    return BlockLayout(tuple((f"b{i}", s) for i, s in enumerate(sizes)))


def _smooth_block_profile(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """Rows of nonnegative, within-block-smooth profiles (density-like)."""
    raw = rng.random((n, size + 4))
    kernel = np.array([0.15, 0.2, 0.3, 0.2, 0.15])
    out = np.empty((n, size))
    for j in range(size):
        out[:, j] = raw[:, j : j + 5] @ kernel
    return out


def synth_dataset(kind: str, n: int, dims: int = 3, noise_sd: float = 0.1, seed: int = 0) -> Dataset:
    """Generate a dataset with a known transfer structure.

    Ground-truth parameters land in ``metadata`` so tests can assert
    recovery.  Kinds:

    * ``linear_transfer``: fs = x W, y = fs v + noise.
    * ``offset_transfer``: smooth fs(x); y = g1(fs) + g3(x) + noise.
    * ``scale_transfer``:  smooth fs(x); y = g1(fs) * g3(x) + noise, g1 > 0.
    * ``calibration``:     blocked descriptors x, scalar fs; y = fs - x'gamma
      + noise (the residual-model regime: alpha = (0, 1), beta = 0).
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synth kind {kind!r}; expected one of {SYNTH_KINDS}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if dims < 1:
        raise ValueError("dims must be positive")
    rng = np.random.default_rng(seed)

    if kind == "calibration":
        layout = _generic_layout(max(dims, 4))
        blocks = []
        gamma_parts = []
        for name, size in layout.blocks:
            blocks.append(_smooth_block_profile(rng, n, size))
            t = np.linspace(0.0, np.pi, size)
            gamma_parts.append(0.3 * np.sin(t + rng.uniform(0, np.pi)))
        X = np.hstack(blocks)
        gamma = np.concatenate(gamma_parts)
        fs = rng.normal(6.0, 0.8, size=n)
        y = fs - X @ gamma + noise_sd * rng.standard_normal(n)
        x_names = [f"{name}_{j + 1}" for name, size in layout.blocks for j in range(size)]
        return Dataset(
            X, fs[:, None], y,
            x_names=x_names, fs_names=["fs"],
            metadata={
                "kind": kind, "layout": layout, "gamma": gamma,
                "alpha0": 0.0, "alpha1": 1.0, "beta": 0.0, "noise_sd": noise_sd,
            },
        )

    X = rng.uniform(-1.0, 1.0, size=(n, dims))
    q = max(2, dims // 2)
    if kind == "linear_transfer":
        W = rng.standard_normal((dims, q))
        v = rng.standard_normal(q)
        Fs = X @ W
        y = Fs @ v + noise_sd * rng.standard_normal(n)
        meta = {"kind": kind, "W": W, "v": v, "noise_sd": noise_sd}
        return Dataset(X, Fs, y, metadata=meta)

    # Smooth source features: one low-frequency sinusoid per fs coordinate;
    # at this frequency 50 training points recover the surfaces to ~1e-2.
    freq = 1.2
    U = rng.standard_normal((dims, q)) / np.sqrt(dims)
    phase = rng.uniform(0.0, 2 * np.pi, size=q)
    Fs = np.sin(freq * (X @ U) + phase)
    v = rng.standard_normal(q)
    u3 = rng.standard_normal(dims) / np.sqrt(dims)
    g3 = np.sin(freq * (X @ u3))

    if kind == "offset_transfer":
        y = Fs @ v + g3 + noise_sd * rng.standard_normal(n)
    else:  # scale_transfer
        g1 = 1.5 + np.tanh(Fs @ v)
        g3 = 1.0 + 0.5 * g3
        y = g1 * g3 + noise_sd * rng.standard_normal(n)
    meta = {"kind": kind, "U": U, "phase": phase, "v": v, "u3": u3, "noise_sd": noise_sd}
    return Dataset(X, Fs, y, metadata=meta)
