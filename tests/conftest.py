"""Shared numeric oracles, property-test settings and fixture writers for
the test suite.

The block objectives in this library are exactly quadratic in each block, so
finite differences with a wide step are exact for them up to roundoff.  The
oracle below minimizes a black-box quadratic purely from objective
evaluations (central-difference gradient and Hessian, one dense solve),
independent of every closed-form solve path in the package.
"""

import os

# One BLAS thread, set before numpy loads BLAS: on small machines extra
# threads make the 190 x 190 calibration algebra several times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Property tests on degenerate input draw from these.  Quarter steps keep the
# draws well conditioned (a non-constant column varies by at least 0.25), so
# only the structure of the data is degenerate; reruns draw the same examples.
quarters = st.integers(-20, 20).map(lambda k: k / 4)
same_examples = settings(derandomize=True, deadline=None, max_examples=50)


def numeric_quadratic_argmin(f, dim: int, h: float = 0.25) -> np.ndarray:
    """Minimize an exactly-quadratic black-box function of `dim` variables."""
    x0 = np.zeros(dim)
    f0 = f(x0)
    E = np.eye(dim) * h
    fplus = np.array([f(x0 + E[i]) for i in range(dim)])
    fminus = np.array([f(x0 - E[i]) for i in range(dim)])
    g = (fplus - fminus) / (2 * h)
    H = np.zeros((dim, dim))
    for i in range(dim):
        H[i, i] = (fplus[i] - 2 * f0 + fminus[i]) / h**2
        for j in range(i + 1, dim):
            fpp = f(x0 + E[i] + E[j])
            H[i, j] = H[j, i] = (fpp - fplus[i] - fplus[j] + f0) / h**2
    return np.linalg.solve(H, -g)


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient for stationarity checks."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def write_sarcos(path, X, torques):
    """Write a 28-column torque table (21 inputs, then 7 torques) at full
    precision, comma-delimited."""
    np.savetxt(path, np.hstack([X, torques]), fmt="%.17g", delimiter=",")


@pytest.fixture
def factor_sizes(monkeypatch):
    """Orders of the matrices the package hands to LAPACK's Cholesky
    factorization, in call order (a jitter retry counts as another one)."""
    from affinetl import solvers

    solvers._bind_lapack()  # bound at the first factorization otherwise
    sizes = []
    original = solvers.dpotrf

    def recording(A, *args, **kwargs):
        sizes.append(np.shape(A)[0])
        return original(A, *args, **kwargs)

    monkeypatch.setattr(solvers, "dpotrf", recording)
    return sizes
