import numpy as np
import pytest

from affinetl.kernels import KernelSpec, gram
from affinetl.spectral import (
    OverlapExperimentConfig,
    _overlap_samples,
    decay_rate,
    eigvals_desc,
    run_overlap_experiment,
)


def charpoly_eigs(A):
    """Eigenvalues via the characteristic polynomial (Faddeev-LeVerrier
    coefficients + companion-matrix roots); independent of eigvalsh."""
    n = A.shape[0]
    eye = np.eye(n)
    M = np.zeros_like(A)
    coeffs = [1.0]
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * eye
        coeffs.append(-np.trace(A @ M) / k)
    return np.sort(np.roots(coeffs).real)[::-1]


def grid_scan_decay(lam, fro2, grid_step=1e-4):
    """Smallest s on a grid satisfying the raw inequality (test oracle)."""
    idx = np.arange(1, lam.size + 1)
    for k in range(1, int(1 / grid_step) + 1):
        s = k * grid_step
        if np.all(lam <= fro2 * idx ** (-1.0 / s) + 1e-15):
            return s
    return 1.0


class TestEigvalsDesc:
    def test_identity(self):
        assert np.array_equal(eigvals_desc(np.eye(5)), np.ones(5))

    def test_diagonal_sorted(self):
        assert np.array_equal(eigvals_desc(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        K = gram(KernelSpec("rbf", 1.0), X)[:4, :4]
        got = eigvals_desc(K)
        want = charpoly_eigs(K)
        assert np.max(np.abs(got - want)) <= 1e-8

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eigvals_desc(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_clamps_tiny_negatives(self):
        A = np.diag([1.0, -5e-9])
        vals = eigvals_desc(A)
        assert vals[-1] == 0.0

    def test_rejects_definitely_negative(self):
        with pytest.raises(ValueError):
            eigvals_desc(np.diag([1.0, -1.0]))


class TestDecayRate:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_identity_is_exactly_one(self, n):
        est = decay_rate(np.eye(n))
        assert est.s == 1.0
        assert not est.floor_applied

    def test_rank_one_hits_floor(self):
        v = np.array([1.0, 2.0, 0.5])
        est = decay_rate(np.outer(v, v))
        assert est.floor_applied
        assert est.s == 0.01

    def test_geometric_diagonal_matches_grid_scan(self):
        lam = np.array([1.0, 0.5, 0.25, 0.125])
        est = decay_rate(np.diag(lam))
        oracle = grid_scan_decay(lam, float(np.sum(lam**2)))
        assert abs(est.s - oracle) <= 1e-3
        assert not est.floor_applied

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        K = gram(KernelSpec("rbf", 1.5), rng.normal(size=(20, 4)))
        base = decay_rate(K).s
        for c in (0.5, 2.0, 10.0):
            assert abs(decay_rate(c * K).s - base) <= 1e-9

    def test_returned_s_satisfies_defining_inequality(self):
        rng = np.random.default_rng(2)
        mats = [np.eye(7), np.diag(0.7 ** np.arange(10))]
        for ell in (0.8, 1.5, 3.0):
            mats.append(gram(KernelSpec("rbf", ell), rng.normal(size=(15, 3))))
            mats.append(gram(KernelSpec("matern", ell, nu=1.5),
                             rng.normal(size=(12, 3))))
        for K in mats:
            est = decay_rate(K)
            A = K / np.max(np.diagonal(K))
            lam = eigvals_desc(A)
            fro2 = float(np.sum(A * A))
            idx = np.arange(1, lam.size + 1)
            assert np.all(lam <= fro2 * idx ** (-1.0 / est.s) * (1 + 1e-9))
            if not est.floor_applied:
                smaller = est.s - 1e-3
                assert np.any(lam > fro2 * idx ** (-1.0 / smaller))

    def test_all_zero_matrix_floors(self):
        est = decay_rate(np.zeros((4, 4)))
        assert est.floor_applied


class TestOverlapExperiment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OverlapExperimentConfig(d=11)
        with pytest.raises(ValueError):
            OverlapExperimentConfig(d=0, ambient_dim=15, n_bases=10)
        with pytest.raises(ValueError):
            OverlapExperimentConfig(d=0, repeats=0)

    def test_full_overlap_reproduces_x_exactly(self):
        cfg = OverlapExperimentConfig(d=10, ambient_dim=30, n_bases=10,
                                      n_samples=12, repeats=1, seed=5)
        rng = np.random.default_rng(5)
        X, Fs = _overlap_samples(rng, cfg)
        assert np.max(np.abs(X - Fs)) <= 1e-12

    def test_full_overlap_same_kernel_gives_equal_rates(self):
        spec = KernelSpec("rbf", np.sqrt(10.0))
        cfg = OverlapExperimentConfig(d=10, ambient_dim=30, n_bases=10,
                                      n_samples=15, repeats=3,
                                      spec2=spec, spec3=spec, seed=6)
        for row in run_overlap_experiment(cfg):
            assert row.s2 == pytest.approx(row.s3, abs=1e-9)

    def test_identical_construction_directly(self):
        # engineered case: same coefficients, same frame, same kernel
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        C = rng.standard_normal((10, 5))
        X = C @ Q[:, :5].T
        spec = KernelSpec("rbf", np.sqrt(10.0))
        K2 = gram(spec, X) / 10
        K3 = gram(spec, X) / 10
        assert np.array_equal(K2, K3)
        assert decay_rate(K2).s == decay_rate(K3).s

    def test_rates_within_bounds(self):
        cfg = OverlapExperimentConfig(d=3, ambient_dim=24, n_bases=6,
                                      n_samples=12, repeats=4, seed=8)
        for row in run_overlap_experiment(cfg):
            for s in (row.s2, row.s3, row.s_hadamard):
                assert 0.01 <= s <= 1.0

    def test_deterministic_given_seed(self):
        cfg = OverlapExperimentConfig(d=2, ambient_dim=20, n_bases=5,
                                      n_samples=10, repeats=3, seed=9)
        assert run_overlap_experiment(cfg) == run_overlap_experiment(cfg)

    def test_x_samples_shared_across_overlap_levels(self):
        # pairing: at fixed repeat, the x-side rate is the same for every d
        base = dict(ambient_dim=24, n_bases=6, n_samples=12, repeats=2, seed=10)
        rows0 = run_overlap_experiment(OverlapExperimentConfig(d=0, **base))
        rows6 = run_overlap_experiment(OverlapExperimentConfig(d=6, **base))
        for r0, r6 in zip(rows0, rows6):
            assert r0.s3 == r6.s3

    def test_hadamard_rate_uses_product_matrix(self):
        spec = KernelSpec("rbf", np.sqrt(10.0))
        cfg = OverlapExperimentConfig(d=4, ambient_dim=20, n_bases=5,
                                      n_samples=10, repeats=1,
                                      spec2=spec, spec3=spec, seed=11)
        row = run_overlap_experiment(cfg)[0]
        rng = np.random.default_rng(11)
        X, Fs = _overlap_samples(rng, cfg)
        K2 = gram(spec, Fs) / 10
        K3 = gram(spec, X) / 10
        assert row.s_hadamard == decay_rate(K2 * K3).s
