import dataclasses

import numpy as np
import pytest

from affinetl import spectral
from affinetl.kernels import KernelSpec, gram
from affinetl.spectral import (
    OverlapExperimentConfig,
    _overlap_coordinates,
    decay_rate,
    eigvals_desc,
    run_overlap_experiment,
)


def ambient_overlap_samples(rng, cfg):
    """The overlap samples built in the ambient space (test oracle).

    Draws a random orthonormal frame Q, places x's coefficients on its first
    n_bases columns and fs's on d of those (reusing x's coefficients) plus
    n_bases - d columns of the complement.  Returns X, Fs and the draws
    (Q, coeff_x, coeff_fs, shared, extra).
    """
    k, d = cfg.n_bases, cfg.d
    Q, _ = np.linalg.qr(rng.standard_normal((cfg.ambient_dim, cfg.ambient_dim)))
    coeff_x = rng.standard_normal((cfg.n_samples, k))
    coeff_fs = rng.standard_normal((cfg.n_samples, k))
    shared = rng.choice(k, size=d, replace=False).astype(int)
    extra = k + rng.choice(cfg.ambient_dim - k, size=k - d, replace=False).astype(int)
    X = coeff_x @ Q[:, :k].T
    Fs = coeff_x[:, shared] @ Q[:, shared].T + coeff_fs[:, : k - d] @ Q[:, extra].T
    return X, Fs, (Q, coeff_x, coeff_fs, shared, extra)


def ambient_rows(cfg):
    """``run_overlap_experiment`` computed from the ambient samples."""
    rows = []
    n = cfg.n_samples
    for r in range(cfg.repeats):
        X, Fs, _ = ambient_overlap_samples(np.random.default_rng(cfg.seed + r), cfg)
        K2 = gram(cfg.spec2, Fs) / n
        K3 = gram(cfg.spec3, X) / n
        rows.append((decay_rate(K2).s, decay_rate(K3).s, decay_rate(K2 * K3).s))
    return rows


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

    def test_accepts_symmetric_to_rounding(self):
        K = gram(KernelSpec("rbf", 1.0), np.random.default_rng(3).normal(size=(6, 2)))
        K[0, 1] += 1e-13
        assert not np.array_equal(K, K.T)
        assert np.array_equal(eigvals_desc(K), np.linalg.eigvalsh(K)[::-1].clip(0.0))
        K[0, 1] += 1e-10
        with pytest.raises(ValueError, match="symmetric"):
            eigvals_desc(K)

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

    @pytest.mark.parametrize("n_bases", [0, -1])
    def test_rejects_n_bases_below_one(self, n_bases):
        with pytest.raises(ValueError, match="n_bases"):
            OverlapExperimentConfig(d=0, n_bases=n_bases)

    def test_full_overlap_reproduces_x_exactly(self):
        cfg = OverlapExperimentConfig(d=10, ambient_dim=30, n_bases=10,
                                      n_samples=12, repeats=1, seed=5)
        X, Fs, _ = ambient_overlap_samples(np.random.default_rng(5), cfg)
        assert np.max(np.abs(X - Fs)) <= 1e-12
        spec = KernelSpec("rbf", np.sqrt(10.0))
        X, Fs = _overlap_coordinates(np.random.default_rng(5), cfg)
        assert np.max(np.abs(gram(spec, X) - gram(spec, Fs))) <= 1e-12

    @pytest.mark.parametrize("ambient_dim", [12, 100])
    @pytest.mark.parametrize("d", [0, 3, 6])
    def test_coordinates_are_the_oracle_draws(self, d, ambient_dim):
        cfg = OverlapExperimentConfig(d=d, ambient_dim=ambient_dim, n_bases=6,
                                      n_samples=9, repeats=1)
        for seed in range(3):
            X, Fs = _overlap_coordinates(np.random.default_rng(seed), cfg)
            _, _, (_, coeff_x, coeff_fs, shared, _) = ambient_overlap_samples(
                np.random.default_rng(seed), cfg)
            assert np.array_equal(X, coeff_x)
            assert np.array_equal(Fs, np.hstack([coeff_x[:, shared], coeff_fs[:, :6 - d]]))

    @pytest.mark.parametrize("spec", [
        KernelSpec("rbf", np.sqrt(10.0)),
        KernelSpec("linear", np.sqrt(10.0)),
        KernelSpec("matern", np.sqrt(10.0), nu=1.5),
    ], ids=["rbf", "linear", "matern32"])
    @pytest.mark.parametrize("ambient_dim", [20, 100])
    @pytest.mark.parametrize("d", [0, 5, 10])
    def test_rates_match_ambient_oracle(self, spec, ambient_dim, d):
        cfg = OverlapExperimentConfig(d=d, ambient_dim=ambient_dim, n_bases=10,
                                      n_samples=40, repeats=3, spec2=spec, spec3=spec,
                                      seed=12)
        got = [(row.s2, row.s3, row.s_hadamard) for row in run_overlap_experiment(cfg)]
        want = ambient_rows(cfg)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

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
        X, Fs = _overlap_coordinates(rng, cfg)
        K2 = gram(spec, Fs) / 10
        K3 = gram(spec, X) / 10
        assert row.s_hadamard == decay_rate(K2 * K3).s

    def test_rows_carry_the_floor_flags(self):
        # a linear kernel with a huge length-scale gives a Gram of ones up to
        # 1e-12 relative, which has no binding index, so its rate is floored
        cfg = OverlapExperimentConfig(d=2, ambient_dim=20, n_bases=5, n_samples=10,
                                      repeats=2, spec2=KernelSpec("linear", 1e6), seed=15)
        rows = run_overlap_experiment(cfg)
        for r, row in enumerate(rows):
            X, Fs = _overlap_coordinates(np.random.default_rng(cfg.seed + r), cfg)
            K2 = gram(cfg.spec2, Fs) / 10
            K3 = gram(cfg.spec3, X) / 10
            estimates = [decay_rate(K) for K in (K2, K3, K2 * K3)]
            assert (row.s2, row.s3, row.s_hadamard) == tuple(e.s for e in estimates)
            assert (row.s2_floored, row.s3_floored, row.s_hadamard_floored) == tuple(
                e.floor_applied for e in estimates)
            assert row.s2_floored and not row.s3_floored


class TestXSideCache:
    """Levels of one sweep share each repeat's frame draw and K3 estimate
    through a one-entry cache; no call order may change a row."""

    BASE = OverlapExperimentConfig(d=0, ambient_dim=24, n_bases=6, n_samples=12,
                                   repeats=3, seed=20)

    @staticmethod
    def fresh(cfg):
        spectral._x_sides.cache_clear()
        return run_overlap_experiment(cfg)

    @pytest.mark.parametrize("levels", [(7, 0, 10), (0, 10, 7), (10, 7, 0)])
    def test_rows_do_not_depend_on_level_order(self, levels):
        cfg = OverlapExperimentConfig(d=0, n_samples=30, repeats=4, seed=3)
        want = {d: self.fresh(dataclasses.replace(cfg, d=d)) for d in levels}
        spectral._x_sides.cache_clear()
        for d in levels:
            assert run_overlap_experiment(dataclasses.replace(cfg, d=d)) == want[d]

    @pytest.mark.parametrize("change", [
        dict(seed=21),
        dict(repeats=2),
        dict(repeats=5),
        dict(spec3=KernelSpec("linear", 1.0)),
        dict(spec3=KernelSpec("rbf", 2.0)),
        dict(ambient_dim=30),
        dict(n_samples=15),
    ], ids=["seed", "fewer_repeats", "more_repeats", "spec3_family", "spec3_scale",
            "ambient_dim", "n_samples"])
    def test_alternating_configs_never_read_stale_rates(self, change):
        configs = [self.BASE, dataclasses.replace(self.BASE, **change)]
        want = [[self.fresh(dataclasses.replace(cfg, d=d)) for d in (0, 4)]
                for cfg in configs]
        spectral._x_sides.cache_clear()
        for _ in range(2):
            for cfg, rows in zip(configs, want):
                for d, level_rows in zip((0, 4), rows):
                    assert run_overlap_experiment(dataclasses.replace(cfg, d=d)) == level_rows
                    assert spectral._x_sides.cache_info().currsize <= 1

    def test_spec2_is_not_part_of_the_key(self):
        cfg = dataclasses.replace(self.BASE, d=2, spec2=KernelSpec("matern", 1.0, nu=2.5))
        want = self.fresh(cfg)
        spectral._x_sides.cache_clear()
        run_overlap_experiment(dataclasses.replace(self.BASE, d=2))
        assert run_overlap_experiment(cfg) == want
        assert spectral._x_sides.cache_info().hits == 1

    def test_sweep_takes_each_k3_spectrum_once(self, monkeypatch):
        # the first level takes K2, K3 and K2 o K3 per repeat; the other ten
        # reuse K3's estimate: 3R + 20R spectra instead of 33R
        calls = []
        eigvals = spectral.eigvals_desc

        def counting(K):
            calls.append(K.shape)
            return eigvals(K)

        monkeypatch.setattr(spectral, "eigvals_desc", counting)
        cfg = dataclasses.replace(self.BASE, repeats=4)
        spectral._x_sides.cache_clear()
        for d in range(cfg.n_bases + 1):
            run_overlap_experiment(dataclasses.replace(cfg, d=d))
        assert len(calls) == 3 * 4 + 2 * 4 * cfg.n_bases

    def test_cache_holds_no_arrays(self):
        spectral._x_sides.cache_clear()
        run_overlap_experiment(self.BASE)
        slots = spectral._x_sides(self.BASE.seed, self.BASE.repeats, self.BASE.ambient_dim,
                                  self.BASE.n_bases, self.BASE.n_samples, self.BASE.spec3)
        assert len(slots) == self.BASE.repeats
        for state, estimate in slots:
            assert isinstance(state, dict) and isinstance(estimate, spectral.DecayEstimate)
