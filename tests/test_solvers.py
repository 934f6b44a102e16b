import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from affinetl import solvers
from affinetl.kernels import KernelSpec, gram
from affinetl.solvers import (
    SingularSystemError,
    factor_spd,
    penalized_ls,
    ridge_solve,
    solve_factored,
    solve_spd,
)


def random_spd(rng, n, jitter=1e-3):
    A = rng.normal(size=(n, n))
    return A @ A.T + jitter * np.eye(n)


class TestSolveSPD:
    def test_bit_identical_to_scipy_cholesky_route(self):
        # the direct dpotrf/dpotrs calls reproduce cho_factor/cho_solve
        # (lower factor, one refinement step) bit for bit
        rng = np.random.default_rng(30)
        for n, k in ((1, 0), (7, 0), (30, 0), (30, 2), (190, 0)):
            A = random_spd(rng, n)
            b = rng.normal(size=(n, k) if k else n)
            factor = cho_factor(A, lower=True, check_finite=False)
            want = cho_solve(factor, b, check_finite=False)
            want += cho_solve(factor, b - A @ want, check_finite=False)
            assert solve_spd(A, b).tobytes() == want.tobytes()

    def test_duplicate_rows_need_jitter(self):
        X = np.array([[0.0, 1.0], [0.5, -1.0], [0.0, 1.0], [2.0, 0.3]])
        K = gram(KernelSpec("rbf", 1.0), X)
        y = np.array([1.0, -0.5, 1.0, 0.2])
        info = {}
        c = solve_spd(K, y, info=info)
        assert info["jitter"] > 0
        assert np.max(np.abs(K @ c - y)) < 1e-6

    def test_no_jitter_on_spd(self):
        info = {}
        solve_spd(random_spd(np.random.default_rng(31), 5), np.ones(5), info=info)
        assert info["jitter"] == 0.0

    @pytest.mark.parametrize("A", [np.diag([3.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_indefinite_raises(self, A):
        with pytest.raises(SingularSystemError):
            solve_spd(A, np.ones(2))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solve_spd(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), np.ones(3))


class TestFactorThenSolve:
    def test_one_factor_serves_many_solves_bit_identically(self):
        rng = np.random.default_rng(32)
        A = random_spd(rng, 30)
        factored = factor_spd(A)
        for k in (0, 0, 3):
            b = rng.normal(size=(30, k) if k else 30)
            assert solve_factored(factored, b).tobytes() == solve_spd(A, b).tobytes()

    def test_jittered_factor_refines_against_the_jittered_matrix(self):
        X = np.array([[0.0, 1.0], [0.5, -1.0], [0.0, 1.0], [2.0, 0.3]])
        K = gram(KernelSpec("rbf", 1.0), X)
        y = np.array([1.0, -0.5, 1.0, 0.2])
        info = {}
        factored = factor_spd(K, info=info)
        assert info["jitter"] > 0
        assert np.array_equal(factored[1], K + info["jitter"] * np.eye(4))
        assert solve_factored(factored, y).tobytes() == solve_spd(K, y).tobytes()

    def test_trace_only_computed_for_a_retry(self, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("trace computed for a matrix that factors at once")

        monkeypatch.setattr(solvers.np, "trace", no_trace)
        factor_spd(random_spd(np.random.default_rng(33), 6))
        with pytest.raises(AssertionError, match="trace computed"):
            factor_spd(np.diag([1.0, 0.0]))


class TestNonFiniteMatrix:
    @pytest.mark.parametrize("A", [
        np.array([[np.nan]]),
        np.array([[np.inf]]),
        np.array([[4.0, np.nan], [np.nan, 4.0]]),
        np.array([[4.0, 0.0], [np.inf, 4.0]]),
        np.diag([1.0, np.nan, 2.0]),
        np.diag([np.inf, 1.0, 1.0]),
        np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [np.inf, 0.0, 4.0]]),
        np.diag([-1.0, np.nan]),
    ])
    def test_rejected_without_a_jitter_retry(self, A, factor_sizes):
        # dpotrf may report success on NaN; a failing one must not retry
        # with a jitter computed from a non-finite trace
        with pytest.raises(ValueError, match="non-finite entry"):
            factor_spd(A)
        assert len(factor_sizes) == 1
        with pytest.raises(ValueError, match="non-finite entry"):
            solve_spd(A, np.ones(A.shape[0]))

    def test_solve_rejects_non_finite_rhs(self):
        with pytest.raises(ValueError, match="non-finite entry"):
            solve_spd(np.eye(2), [1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite entry"):
            solve_spd(np.eye(2), np.array([[1.0, 0.0], [np.inf, 1.0]]))

    def test_solve_rejects_non_finite_upper_triangle(self):
        # the factor never reads the upper triangle, so this one factors
        with pytest.raises(ValueError, match="non-finite entry"):
            solve_spd([[2.0, np.nan], [0.5, 2.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite entry"):
            solve_spd([[2.0, -np.inf], [0.5, 2.0]], [1.0, 1.0])

    def test_finite_singular_matrix_still_gets_jitter(self, factor_sizes):
        info = {}
        factor_spd(np.ones((3, 3)), info=info)
        assert info["jitter"] > 0 and len(factor_sizes) == 2


def test_factor_sizes_records_when_run_first_in_a_process():
    # solvers binds dpotrf at the first factorization, so the fixture binds
    # it before wrapping it; a test that a fresh process runs first must
    # still see every call
    src = str(Path(solvers.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    test = f"{__file__}::TestNonFiniteMatrix::test_finite_singular_matrix_still_gets_jitter"
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stdout + done.stderr


class TestRidgeSolve:
    def test_identity_plus_shrink(self):
        c = ridge_solve(np.eye(3), np.array([2.0, 2.0, 2.0]), 1.0)
        assert np.allclose(c, np.ones(3), atol=1e-14)

    def test_zero_shrink_on_spd(self):
        rng = np.random.default_rng(0)
        K = random_spd(rng, 5)
        y = rng.normal(size=5)
        c = ridge_solve(K, y, 0.0)
        assert np.max(np.abs(K @ c - y)) < 1e-10

    def test_zero_matrix_zero_shrink_is_singular(self):
        with pytest.raises(SingularSystemError):
            ridge_solve(np.zeros((3, 3)), np.ones(3), 0.0)

    def test_negative_shrink_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.ones(2), -0.1)

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            K = random_spd(rng, n)
            y = rng.normal(size=n)
            shrink = float(rng.uniform(0.0, 2.0))
            c = ridge_solve(K, y, shrink)
            resid = np.max(np.abs((K + shrink * np.eye(n)) @ c - y))
            assert resid <= 1e-8 * (1 + np.max(np.abs(y)))

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            K = random_spd(rng, 8)
            y = rng.normal(size=8)
            norms = [np.linalg.norm(ridge_solve(K, y, s)) for s in (0.01, 0.1, 1.0, 10.0)]
            assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_jitter_recovers_singular_gram(self):
        # duplicated rows make a stationary-kernel Gram exactly all-ones,
        # which is singular; shrink 0 still solves via the jitter retries
        K = np.ones((3, 3))
        y = K @ np.ones(3)
        info = {}
        c = ridge_solve(K, y, 0.0, info=info)
        assert info["jitter"] > 0
        assert np.max(np.abs(K @ c - y)) < 1e-6

    def test_gram_input_object(self):
        from affinetl.kernels import KernelSpec, gram

        rng = np.random.default_rng(3)
        K = gram(KernelSpec("rbf", 1.0), rng.normal(size=(6, 2)))
        y = rng.normal(size=6)
        c = ridge_solve(K, y, 0.5)
        assert np.max(np.abs((K + 0.5 * np.eye(6)) @ c - y)) < 1e-10


def gd_minimize(grad, x0, lipschitz, steps=100_000):
    """Plain gradient descent oracle with a conservative fixed step."""
    x = x0.copy()
    step = 1.0 / lipschitz
    for _ in range(steps):
        g = grad(x)
        x = x - step * g
        if np.max(np.abs(g)) < 1e-12:
            break
    return x


class TestPenalizedLS:
    def test_identity_design_identity_penalty(self):
        y = np.array([3.0, -1.0, 4.0])
        w = penalized_ls(np.eye(3), y, np.eye(3))
        assert np.allclose(w, y / 2, atol=1e-14)

    def test_zero_penalty_square_invertible(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        y = rng.normal(size=4)
        w = penalized_ls(X, y, np.zeros((4, 4)))
        assert np.allclose(w, np.linalg.solve(X, y), atol=1e-8)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        lam = 0.1 * np.eye(5)
        w = penalized_ls(X, y, lam)

        def grad(v):
            return 2 * X.T @ (X @ v - y) + 2 * lam @ v

        lipschitz = 2 * (np.linalg.eigvalsh(X.T @ X)[-1] + 0.1)
        w_oracle = gd_minimize(grad, np.zeros(5), lipschitz)
        assert np.max(np.abs(w - w_oracle)) <= 1e-6

    def test_zero_gradient_at_solution(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n, p = int(rng.integers(5, 30)), int(rng.integers(2, 8))
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            lam = random_spd(rng, p, jitter=0.1)
            w = penalized_ls(X, y, lam)
            g = 2 * X.T @ (X @ w - y) + 2 * lam @ w
            assert np.max(np.abs(g)) <= 1e-7 * (1 + np.max(np.abs(X.T @ y)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            penalized_ls(np.ones((3, 2)), np.ones(3), np.eye(3))
        with pytest.raises(ValueError):
            penalized_ls(np.ones((3, 2)), np.ones(4), np.eye(2))
