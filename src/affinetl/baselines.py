"""Kernel ridge regression reference procedures.

Five ways of using (or ignoring) source features, all built on plain KRR
with an explicit diagonal shrink ((K + shrink I)^{-1} y):

* ``direct``       KRR on the raw inputs x, no transfer.
* ``only_source``  KRR on the source features fs.
* ``augmented``    KRR on the columnwise concatenation [x, fs].
* ``htl_offset``   stage 1 fits fs -> y, stage 2 fits x -> (y - g1hat).
* ``htl_scale``    stage 1 fits fs -> y, stage 2 fits x -> (y / g1hat).

Predictions compose per kind: htl_offset adds the stages, htl_scale
multiplies them (the transformation pair behind the scale variant divides
the outputs on the way in, so the model transform multiplies on the way
out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, _as_samples, gram
from .solvers import ridge_solve

__all__ = [
    "KINDS",
    "KRRStage",
    "BaselineModel",
    "fit_baseline",
    "predict_baseline",
    "single_stage_inputs",
    "stage2_target",
    "compose",
]

KINDS = ("direct", "only_source", "augmented", "htl_offset", "htl_scale")

_SINGLE_STAGE = ("direct", "only_source", "augmented")

# Stage-1 predictions closer to zero than this make the scale transform
# y / g1hat numerically meaningless.
_SCALE_GUARD = 1e-8


def single_stage_inputs(kind: str, X, Fs) -> np.ndarray:
    """The rows the one KRR of a single-stage kind regresses on."""
    if kind == "direct":
        return X
    if kind == "only_source":
        return Fs
    return np.hstack([X, Fs])


def stage2_target(kind: str, y, g1) -> np.ndarray:
    """The target of a two-stage kind's x regression, given the stage-1
    predictions g1: y - g1 for htl_offset, and for htl_scale y / g1, refused
    where g1 is near zero."""
    if kind == "htl_offset":
        return y - g1
    small = np.flatnonzero(np.abs(g1) < _SCALE_GUARD)
    if small.size:
        raise ZeroDivisionError(
            f"htl_scale: stage-1 prediction within {_SCALE_GUARD:g} of zero "
            f"at row {small[0]} (|g1| = {abs(g1[small[0]]):.3e})"
        )
    return y / g1


def compose(kind: str, g1, g2) -> np.ndarray:
    """A two-stage kind's prediction from its stage outputs: g1 + g2 for
    htl_offset, g1 * g2 for htl_scale."""
    return g1 + g2 if kind == "htl_offset" else g1 * g2


@dataclass
class KRRStage:
    """One fitted kernel ridge regressor: dual coefficients over train rows."""

    coef: np.ndarray
    spec: KernelSpec
    train: np.ndarray
    shrink: float

    def predict(self, Z) -> np.ndarray:
        return gram(self.spec, Z, self.train) @ self.coef


@dataclass
class BaselineModel:
    kind: str
    stage1: KRRStage
    stage2: KRRStage | None = None


def _fit_krr(spec: KernelSpec, Z, y, shrink: float) -> KRRStage:
    return KRRStage(ridge_solve(gram(spec, Z), y, shrink), spec, Z, shrink)


def fit_baseline(
    kind: str,
    X,
    Fs,
    y,
    spec: KernelSpec,
    shrink: float,
    stage2_spec: KernelSpec | None = None,
    stage2_shrink: float | None = None,
) -> BaselineModel:
    """Fit one of the five procedures.

    For the single-stage kinds, ``spec``/``shrink`` parameterize the one KRR
    (on x, fs, or [x, fs] per kind).  For the two-stage kinds they
    parameterize the fs -> y stage and ``stage2_*`` the x -> transformed-y
    stage; both stage-2 settings are then required.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}; expected one of {KINDS}")
    X, Fs, y = _as_samples({"X": X, "Fs": Fs}, {"y": y})
    if kind in _SINGLE_STAGE:
        return BaselineModel(kind, _fit_krr(spec, single_stage_inputs(kind, X, Fs), y, shrink))

    if stage2_spec is None or stage2_shrink is None:
        raise ValueError(f"{kind} requires stage2_spec and stage2_shrink")
    stage1 = _fit_krr(spec, Fs, y, shrink)
    z = stage2_target(kind, y, stage1.predict(Fs))
    return BaselineModel(kind, stage1, _fit_krr(stage2_spec, X, z, stage2_shrink))


def predict_baseline(model: BaselineModel, Xnew, FsNew) -> np.ndarray:
    """Predict at new rows; composition of stages depends on the kind."""
    Xnew, FsNew = _as_samples({"Xnew": Xnew, "FsNew": FsNew})
    kind = model.kind
    if kind in _SINGLE_STAGE:
        return model.stage1.predict(single_stage_inputs(kind, Xnew, FsNew))
    return compose(kind, model.stage1.predict(FsNew), model.stage2.predict(Xnew))
