import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcone import _kernels
from symcone.algebra import (
    DirectSum,
    Element,
    SpinFactor,
    SymMatrix,
    descriptor_from_spec,
    element_to_json,
)

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
    """(d, X_1, ..., X_count): an algebra of CATALOG, or SpinFactor(12),
    whose coordinate sums have twelve terms, and (m, dim) coordinate stacks
    with one row per sample, entries in [-10, 10].

    Half the draws are generic values from a seeded generator: the floats
    hypothesis draws are often round (0, 1, short binary fractions), and a
    sum of round values is exact in any order, so it hides a summation
    order that depends on the stack or its layout.
    """
    d = draw(st.sampled_from(CATALOG + (SpinFactor(12),)))
    m = draw(st.integers(1, max_rows))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return (d, *(rng.uniform(-10.0, 10.0, (m, d.dim)) for _ in range(count)))
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


# --- fuzzed JSON input -------------------------------------------------------------

JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400),
                        st.floats(), st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
# finite numbers across the float range, small ones and integers too
NUMBERS = st.one_of(st.floats(-10.0, 10.0),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**20, 10**20))
FUZZ_ALGEBRAS = ("sym:1", "sym:2", "sym:3", "spin:3", "spin:5", "sum:sym:2+spin:3")


@st.composite
def element_objects(draw):
    """An element's JSON, the same with one field replaced by any JSON
    value, or any JSON value at all."""
    choice = draw(st.integers(0, 2))
    if choice == 2:
        return draw(JSON_VALUES)
    d = descriptor_from_spec(draw(st.sampled_from(FUZZ_ALGEBRAS)))
    obj = element_to_json(Element(d, np.zeros(d.dim)))
    obj["coords"] = draw(st.lists(NUMBERS, min_size=d.dim, max_size=d.dim))
    if choice == 1:
        obj[draw(st.sampled_from(("kind", "n", "factors", "coords")))] = draw(JSON_VALUES)
    return obj
