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
