import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_metzler(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonnegative matrix with every row sum strictly below 1."""
    A = rng.uniform(0.0, 1.0, (n, n))
    targets = rng.uniform(0.3, 0.95, (n, 1))
    return A / A.sum(axis=1, keepdims=True) * targets


def expm(a: np.ndarray, digits: int | None = None) -> np.ndarray:
    """e^a by scipy.linalg.expm, or by mpmath at ``digits`` decimal digits
    where scipy's own error (7e-13 seen at ||a||_1 = 36, 8e-12 at 710)
    would hide the error under test."""
    if digits is None:
        return pytest.importorskip("scipy.linalg").expm(a)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(digits):
        return np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)


def companion(coeffs) -> np.ndarray:
    """Companion matrix of c_n z^(n) + ... + c_0 z = 0, coefficients listed
    highest first, on the state (z, z', ..., z^(n-1))."""
    c = np.asarray(coeffs, dtype=float)
    M = np.eye(c.shape[0] - 1, k=1)
    M[-1] = -c[:0:-1] / c[0]
    return M


def flow(M: np.ndarray, x0, times, digits: int | None = None) -> np.ndarray:
    """x(t) = e^(tM) x0 at each time, one row each, by ``expm``.  With
    ``digits`` the product with x0 is formed in mpmath as well, so that
    subnormal data are not rounded before they grow."""
    x0 = np.asarray(x0, dtype=float)
    if digits is None:
        return np.array([expm(t * M) @ x0 for t in times])
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(digits):
        x0 = mp.matrix(x0.tolist())
        return np.array([[float(v) for v in mp.expm(mp.matrix((t * M).tolist())) * x0]
                         for t in times])


def ode_flow(coeffs, init, times, digits: int | None = None) -> np.ndarray:
    """z, z', ..., z^(n-1) of the homogeneous ODE from ``init`` at each
    time, one row each: the ``flow`` of its companion matrix."""
    return flow(companion(coeffs), init, times, digits)


def augmented_flow(M, x0, coeffs, times, digits=None):
    """x(t) of x' = M x + sum_j coeffs[j] t^j from x(0) = x0, at each time,
    as ``expm`` of the system augmented by the states t^j."""
    d, p = M.shape[0], len(coeffs)
    big = np.zeros((d + p, d + p))
    big[:d, :d] = M
    for j, c in enumerate(coeffs):
        big[:d, d + j] = c
        if j:
            big[d + j, d + j - 1] = j  # (t^j)' = j t^(j-1)
    z0 = np.concatenate([x0, [1.0], np.zeros(p - 1)]) if p else x0
    return np.array([(expm(t * big, digits) @ z0)[:d] for t in times])
