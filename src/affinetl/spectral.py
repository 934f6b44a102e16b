"""Spectrum decay analysis of Gram matrices and their Hadamard products.

The decay rate of a PSD matrix K is the smallest s such that

    lambda_i <= ||K||_F^2 * i^(-1/s)    for all i,

evaluated after rescaling K by its largest diagonal entry.  The rescaling
makes the estimate invariant to K's overall scale (the raw inequality is
not: its two sides scale as c and c^2) and is a no-op exactly where the
definition is usually applied: Gram matrices of stationary kernels have unit
diagonal, for which lambda_i * i <= trace = n <= ||K||_F^2 also guarantees
the defining inequality is feasible at s = 1.  For K = I_n the estimate is
exactly 1.

``run_overlap_experiment`` probes how the decay rate of a Hadamard product
K2 o K3 responds to the overlap between the subspaces generating the two
sample sets: samples for x are drawn from a random orthonormal frame, and
samples for fs from a frame sharing d of those directions, the rest taken
from the orthogonal complement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram

__all__ = [
    "DecayEstimate",
    "OverlapExperimentConfig",
    "OverlapRow",
    "eigvals_desc",
    "decay_rate",
    "run_overlap_experiment",
]

_NEG_EIG_TOL = 1e-8
_DECAY_FLOOR = 0.01  # smallest decay rate reported
_EIG_TOL = 1e-10  # eigenvalues at or below this times the largest are zeros


@dataclass(frozen=True)
class DecayEstimate:
    s: float
    eigenvalues_used: int
    floor_applied: bool


@dataclass(frozen=True)
class OverlapRow:
    """One repeat's three decay rates, each with its ``floor_applied`` flag."""

    d: int
    repeat: int
    s2: float
    s3: float
    s_hadamard: float
    s2_floored: bool
    s3_floored: bool
    s_hadamard_floored: bool


@dataclass(frozen=True)
class OverlapExperimentConfig:
    """Settings for one overlap level of the Hadamard-decay experiment."""

    d: int
    ambient_dim: int = 100
    n_bases: int = 10
    n_samples: int = 100
    repeats: int = 100
    spec2: KernelSpec = KernelSpec("rbf", np.sqrt(10.0))
    spec3: KernelSpec = KernelSpec("rbf", np.sqrt(10.0))
    seed: int = 0

    def __post_init__(self):
        if self.n_bases < 1:
            raise ValueError(f"n_bases must be at least 1, got {self.n_bases}")
        if not 0 <= self.d <= self.n_bases:
            raise ValueError(f"overlap d must be in [0, {self.n_bases}], got {self.d}")
        if self.n_bases > self.ambient_dim // 2:
            raise ValueError(
                "n_bases must be at most ambient_dim/2 so the complement can host "
                f"{self.n_bases - self.d} extra directions"
            )
        if self.n_samples < 2 or self.repeats < 1:
            raise ValueError("need n_samples >= 2 and repeats >= 1")


def eigvals_desc(K) -> np.ndarray:
    """Full spectrum of a symmetric PSD matrix, nonincreasing.

    Small negative eigenvalues (above -1e-8) are clamped to zero; anything
    below that is treated as a genuinely non-PSD input and rejected.
    """
    A = np.asarray(K, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(A, A.T):
        scale = max(1.0, float(np.max(np.abs(A))))
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("matrix must be symmetric")
    vals = np.linalg.eigvalsh(A)[::-1]
    if vals.size and vals[-1] < -_NEG_EIG_TOL:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {vals[-1]:.3e}")
    return np.maximum(vals, 0.0)


def decay_rate(K) -> DecayEstimate:
    """Smallest decay exponent s in [0.01, 1] of the diagonal-rescaled matrix.

    Eigenvalues at or below 1e-10 times the largest are noise-level zeros
    and satisfy the bound for every s, so they are excluded; so is i = 1,
    whose constraint is vacuous.  A rate below the floor 0.01, and
    degenerate spectra with no binding index (e.g. rank one), return the
    floor with ``floor_applied`` set.
    """
    A = np.asarray(K, dtype=float)
    scale = float(np.max(np.diagonal(A))) if A.size else 0.0
    if scale <= 0.0:
        return DecayEstimate(_DECAY_FLOOR, 0, True)
    A = A / scale
    lam = eigvals_desc(A)
    if lam[0] <= 0.0:
        return DecayEstimate(_DECAY_FLOOR, 0, True)
    fro2 = float(np.sum(A * A))
    idx = np.arange(2, lam.size + 1)
    keep = lam[1:] > _EIG_TOL * lam[0]
    used = int(np.count_nonzero(keep)) + 1
    if not np.any(keep):
        return DecayEstimate(_DECAY_FLOOR, used, True)
    i = idx[keep].astype(float)
    log_ratio = np.log(fro2 / lam[1:][keep])
    with np.errstate(divide="ignore"):
        s_all = np.where(log_ratio > 0.0, np.log(i) / log_ratio, np.inf)
    s = float(np.max(s_all))
    if s < _DECAY_FLOOR:
        return DecayEstimate(_DECAY_FLOOR, used, True)
    return DecayEstimate(min(s, 1.0), used, False)


def _draw_frame(rng: np.random.Generator, cfg: OverlapExperimentConfig) -> None:
    """Draw (and drop) a repeat's random orthonormal frame: the first draw
    of its generator, independent of d."""
    rng.standard_normal((cfg.ambient_dim, cfg.ambient_dim))


def _frame_coordinates(rng: np.random.Generator, cfg: OverlapExperimentConfig):
    """The draws that follow the frame: x-coefficients, fs-coefficients,
    then the shared directions, the only draw that depends on d."""
    k = cfg.n_bases
    coeff_x = rng.standard_normal((cfg.n_samples, k))
    coeff_fs = rng.standard_normal((cfg.n_samples, k))
    shared = rng.choice(k, size=cfg.d, replace=False)
    return coeff_x, np.hstack([coeff_x[:, shared], coeff_fs[:, : k - cfg.d]])


def _overlap_coordinates(rng: np.random.Generator, cfg: OverlapExperimentConfig):
    """One repeat's (X, Fs) sample pair at overlap level cfg.d, in frame
    coordinates.

    Sample i of x places i.i.d. normal coefficients on the first n_bases
    directions of a random orthonormal frame of the ambient space; sample i
    of fs reuses x's coefficients on d of those directions and places fresh
    i.i.d. coefficients on n_bases - d directions from their orthogonal
    complement.  The reuse is what couples the two Gram matrices: without
    it the pair (K2, K3) would not depend on d at all.

    Every kernel family sees samples only through distances and inner
    products, which an orthonormal frame preserves, so the samples are
    returned as their coefficients on the directions they use: x as its
    n_bases coefficients, fs as its d shared coefficients followed by its
    n_bases - d fresh ones.  The frame is still drawn (and dropped), so the
    generator stream is that of the ambient construction (frame,
    x-coefficients, fs-coefficients, shared directions) and repeats paired
    across different d share coefficients.
    """
    _draw_frame(rng, cfg)
    return _frame_coordinates(rng, cfg)


@functools.lru_cache(maxsize=1)
def _x_sides(seed, repeats, ambient_dim, n_bases, n_samples, spec3) -> list:
    """One slot per repeat for what the repeat's x side makes independent of
    d: the generator state right after the frame draw, and K3's decay
    estimate.  The first level to run a repeat fills its slot; later levels
    of the same x-side configuration resume the generator there and reuse
    the estimate.  Only the latest configuration is kept."""
    return [None] * repeats


def run_overlap_experiment(cfg: OverlapExperimentConfig) -> list[OverlapRow]:
    """Decay rates of K2, K3, and K2 o K3 across seeded repeats.

    Gram matrices are normalized by 1/n before the estimate.  Repeat r uses
    generator seed ``cfg.seed + r``, independent of d.  Calls that differ
    only in d and spec2 (one level at a time of a sweep) share the x side:
    each repeat's frame is drawn and K3's spectrum taken once.
    """
    x_sides = _x_sides(cfg.seed, cfg.repeats, cfg.ambient_dim, cfg.n_bases,
                       cfg.n_samples, cfg.spec3)
    rows = []
    n = cfg.n_samples
    for r in range(cfg.repeats):
        rng = np.random.default_rng(cfg.seed + r)
        slot = x_sides[r]
        if slot is None:
            _draw_frame(rng, cfg)
            after_frame = rng.bit_generator.state
        else:
            after_frame, e3 = slot
            rng.bit_generator.state = after_frame
        X, Fs = _frame_coordinates(rng, cfg)
        K2 = gram(cfg.spec2, Fs) / n
        K3 = gram(cfg.spec3, X) / n
        if slot is None:
            e3 = decay_rate(K3)
            x_sides[r] = (after_frame, e3)
        e2, eh = decay_rate(K2), decay_rate(K2 * K3)
        rows.append(OverlapRow(cfg.d, r, e2.s, e3.s, eh.s,
                               e2.floor_applied, e3.floor_applied, eh.floor_applied))
    return rows
