import numpy as np
import pytest

from symcone import _kernels
from symcone.algebra import DirectSum, SpinFactor, SymMatrix

# every algebra the harness is expected to handle at desk scale
CATALOG = (
    SymMatrix(2),
    SymMatrix(3),
    SymMatrix(4),
    SymMatrix(5),
    SpinFactor(3),
    SpinFactor(4),
    SpinFactor(5),
    SpinFactor(6),
    SpinFactor(7),
    SpinFactor(8),
    DirectSum((SymMatrix(2), SpinFactor(3))),
)

SMALL_CATALOG = (
    SymMatrix(2),
    SymMatrix(3),
    SpinFactor(4),
    DirectSum((SymMatrix(2), SpinFactor(3))),
)


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # first-call costs must never count against timed assertions
    _kernels.warm_up()


def random_majorizing_pair(rng: np.random.Generator, n: int, nonnegative: bool = False):
    """(p, q) with p majorized by q, built by T-transform mixing from q.

    Each step replaces two coordinates (p_i, p_j) by convex mixtures that
    preserve their sum, which preserves majorization by the original vector.
    """
    q = rng.normal(0.0, 2.0, n)
    if nonnegative:
        q = np.abs(q)
    p = q.copy()
    for _ in range(3 * n):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        t = rng.uniform(0.0, 1.0)
        pi, pj = p[i], p[j]
        p[i] = t * pi + (1 - t) * pj
        p[j] = (1 - t) * pi + t * pj
    return p, q
