import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


@st.composite
def coord_stacks(draw, count: int = 1, max_rows: int = 4):
    """(d, X_1, ..., X_count): a CATALOG algebra and (m, dim) coordinate
    stacks with one row per sample, entries in [-10, 10]."""
    d = draw(st.sampled_from(CATALOG))
    m = draw(st.integers(1, max_rows))
    coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    return (d, *(draw(arrays(np.float64, (m, d.dim), elements=coord)) for _ in range(count)))


def _strided_view(a: np.ndarray) -> np.ndarray:
    buf = np.empty(tuple(2 * k for k in a.shape), dtype=a.dtype)
    view = buf[(slice(None, None, 2),) * a.ndim]
    view[...] = a
    return view


# the same values in other memory layouts: C, F, a negative stride on the
# rows, a view with every stride doubled, and a copy made by take_along_axis
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "reversed-rows": lambda a: a[::-1].copy()[::-1],
    "strided": _strided_view,
    "take_along_axis": lambda a: np.take_along_axis(
        a, np.arange(len(a)).reshape((-1,) + (1,) * (a.ndim - 1)), axis=0),
}

# the name of a LAYOUTS entry; one re-lays every operand of a call
layouts = st.sampled_from(sorted(LAYOUTS))


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
