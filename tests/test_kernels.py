import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn, kv

from affinetl.benchmark import _block
from affinetl.kernels import KernelSpec, _distances, gram
from affinetl.model_selection import kfold_split

from conftest import same_examples


def eval_kernel(spec, x, x2):
    """k(x, x2) for one pair of vectors, read from a one-row cross-Gram."""
    return float(gram(spec, x[None], x2[None])[0, 0])


def bessel_matern(nu, r, ell):
    """General Matern form via the modified Bessel function (test oracle)."""
    if r == 0:
        return 1.0
    z = math.sqrt(2 * nu) * r / ell
    return float(2 ** (1 - nu) / gamma_fn(nu) * z**nu * kv(nu, z))


class TestKernelSpec:
    def test_rejects_nonpositive_length_scale(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("linear", -1.0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic", 1.0)

    def test_matern_requires_valid_nu(self):
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0)
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0, nu=2.0)
        KernelSpec("matern", 1.0, nu=math.inf)

    def test_nu_rejected_for_other_families(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", 1.0, nu=0.5)


class TestEvalKernel:
    def test_rbf_zero_distance_is_one(self):
        for ell in (0.3, 1.0, 7.5):
            x = np.array([1.2, -0.7])
            assert eval_kernel(KernelSpec("rbf", ell), x, x) == 1.0

    def test_linear_at_origin_is_bias_only(self):
        z = np.zeros(3)
        assert eval_kernel(KernelSpec("linear", 2.0), z, z) == 1.0

    def test_matern_half_at_one_length_scale(self):
        # closed form exp(-1), cross-checked against the Bessel-form oracle
        ell = 1.7
        x, x2 = np.zeros(2), np.array([ell, 0.0])
        got = eval_kernel(KernelSpec("matern", ell, nu=0.5), x, x2)
        assert got == pytest.approx(math.exp(-1), abs=1e-12)
        assert got == pytest.approx(bessel_matern(0.5, ell, ell), abs=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matern_closed_forms_match_bessel(self, nu):
        rng = np.random.default_rng(11)
        spec = KernelSpec("matern", 1.3, nu=nu)
        for _ in range(25):
            x, x2 = rng.normal(size=3), rng.normal(size=3)
            r = float(np.linalg.norm(x - x2))
            assert eval_kernel(spec, x, x2) == pytest.approx(
                bessel_matern(nu, r, 1.3), abs=1e-10
            )

    def test_matern_inf_equals_rbf(self):
        rng = np.random.default_rng(3)
        m = KernelSpec("matern", 0.8, nu=math.inf)
        r = KernelSpec("rbf", 0.8)
        for _ in range(100):
            x, x2 = rng.normal(size=4), rng.normal(size=4)
            assert abs(eval_kernel(m, x, x2) - eval_kernel(r, x, x2)) <= 1e-12

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(4)
        specs = [
            KernelSpec("rbf", 1.1),
            KernelSpec("linear", 0.9),
            KernelSpec("matern", 1.4, nu=1.5),
        ]
        for spec in specs:
            for _ in range(20):
                x, x2 = rng.normal(size=5), rng.normal(size=5)
                assert eval_kernel(spec, x, x2) == eval_kernel(spec, x2, x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_kernel(KernelSpec("rbf", 1.0), np.ones(2), np.ones(3))


class TestGram:
    def test_identical_rows_give_all_ones(self):
        X = np.tile([0.5, -1.0], (3, 1))
        K = gram(KernelSpec("rbf", 1.0), X)
        assert np.array_equal(K, np.ones((3, 3)))

    def test_linear_hand_value(self):
        # x'x / (2 * (1/2)) + 1 = x'x + 1 on identity rows of R^2
        K = gram(KernelSpec("linear", 1 / math.sqrt(2)), np.eye(2))
        assert np.allclose(K, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)

    def test_symmetric_case_is_bit_exact(self):
        rng = np.random.default_rng(0)
        for spec in (KernelSpec("rbf", 1.2), KernelSpec("linear", 2.0),
                     KernelSpec("matern", 0.7, nu=2.5)):
            K = gram(spec, rng.normal(size=(12, 4)))
            assert np.array_equal(K, K.T)

    def test_stationary_diagonal_exactly_one(self):
        rng = np.random.default_rng(1)
        K = gram(KernelSpec("matern", 0.6, nu=1.5), rng.normal(size=(8, 3)))
        assert np.array_equal(np.diag(K), np.ones(8))

    def test_cross_gram_shape_and_flag(self):
        rng = np.random.default_rng(2)
        K = gram(KernelSpec("rbf", 1.0), rng.normal(size=(5, 3)), rng.normal(size=(7, 3)))
        assert K.shape == (5, 7)

    def test_cross_gram_matches_eval(self):
        rng = np.random.default_rng(6)
        X, X2 = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        spec = KernelSpec("matern", 1.1, nu=0.5)
        K = gram(spec, X, X2)
        for i in range(4):
            for j in range(6):
                assert K[i, j] == eval_kernel(spec, X[i], X2[j])
                r = float(np.linalg.norm(X[i] - X2[j]))
                assert K[i, j] == pytest.approx(math.exp(-r / 1.1), abs=1e-14)

    def test_empty_sample_set(self):
        with pytest.raises(ValueError):
            gram(KernelSpec("rbf", 1.0), np.empty((0, 3)))

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            gram(KernelSpec("rbf", 1.0), np.ones((2, 3)), np.ones((2, 4)))

    def test_near_duplicate_rows_keep_exact_difference(self):
        # rows 1e-7 apart at coordinates near 1e3: the expanded-square form
        # ||x||^2 - 2 x'x2 + ||x2||^2 would lose every digit of the distance
        rng = np.random.default_rng(11)
        X = 1e3 + rng.uniform(-1.0, 1.0, size=(6, 3))
        X2 = X + rng.uniform(0.5e-7, 1.5e-7, size=(6, 3))
        exact = np.sqrt(np.sum((X2 - X) ** 2, axis=1))  # float differences are exact here
        assert np.allclose(np.diag(_distances(X, X2)), exact, rtol=1e-6, atol=0.0)
        spec = KernelSpec("matern", 1e-6, nu=0.5)  # exp(-r / ell) resolves r ~ 1e-7
        K = gram(spec, X, X2)
        assert np.allclose(np.diag(K), np.exp(-exact / 1e-6), rtol=1e-6, atol=0.0)

    def test_psd_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for spec in (KernelSpec("rbf", 1.5), KernelSpec("linear", 1.0),
                     KernelSpec("matern", 1.0, nu=1.5), KernelSpec("matern", 2.0, nu=0.5)):
            for n in (5, 20, 50):
                K = gram(spec, rng.normal(size=(n, 4)))
                assert np.linalg.eigvalsh(K)[0] >= -1e-8


class TestFoldBlocks:
    """A CV cell builds one Gram on all its rows and every fold slices its
    training Gram and cross-Gram from it with ``_block``.  The slices must
    be the Grams a fold would build from its own rows: bit for bit for the
    distance kernels, whose entries are each computed from one pair of rows,
    and to rounding for ``linear``, whose Gram comes from a matrix product."""

    DISTANCE = (("rbf", None), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5),
                ("matern", math.inf))

    @same_examples
    @given(n=st.integers(2, 80), d=st.integers(1, 15), k=st.integers(2, 5),
           scale=st.sampled_from([1e-3, 1.0, 30.0]), width=st.sampled_from([0.3, 1.0, 3.0]),
           copies=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_fold_blocks_equal_fold_grams(self, n, d, k, scale, width, copies, seed):
        rng = np.random.default_rng(seed)
        X = scale * rng.normal(size=(n, d))
        for src, dst in copies:  # duplicate rows
            X[dst % n] = X[src % n]
        ell = width * scale * math.sqrt(d)
        folds = kfold_split(n, min(k, n), seed)
        for family, nu in self.DISTANCE:
            spec = KernelSpec(family, ell, nu=nu)
            K = gram(spec, X)
            for tr, te in folds:
                assert np.array_equal(_block(K, tr, tr), gram(spec, X[tr]))
                assert np.array_equal(_block(K, te, tr), gram(spec, X[te], X[tr]))
        spec = KernelSpec("linear", ell)
        K = gram(spec, X)
        for tr, te in folds:
            for block, fold in ((_block(K, tr, tr), gram(spec, X[tr])),
                                (_block(K, te, tr), gram(spec, X[te], X[tr]))):
                assert np.max(np.abs(block - fold)) <= 1e-10 * np.max(np.abs(fold))



class TestHadamard:
    def test_schur_product_preserves_psd(self):
        # the overlap experiment takes the decay rate of K2 o K3 built from two
        # sample sets; the product of two Grams stays exactly symmetric and PSD
        rng = np.random.default_rng(10)
        for _ in range(10):
            X = rng.normal(size=(6, 3))
            K2 = gram(KernelSpec("linear", 1.0), rng.normal(size=(6, 2)))
            K3 = gram(KernelSpec("matern", 0.8, nu=1.5), X)
            H = K2 * K3
            assert np.array_equal(H, H.T)
            assert np.linalg.eigvalsh(H)[0] >= -1e-10
