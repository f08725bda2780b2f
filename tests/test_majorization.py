"""Vector majorization predicates and their classical stability properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcone.majorization import (
    log_major,
    log_major_rows,
    major,
    sort_desc,
    vec_pnorm,
    weak_major,
    weak_major_rows,
)

from conftest import random_majorizing_pair


class TestVectorHelpers:
    def test_sort_desc(self):
        np.testing.assert_array_equal(sort_desc([1, 3, 2]), [3, 2, 1])

    def test_vec_pnorm(self):
        assert vec_pnorm([3, -4], 2) == 5.0
        assert vec_pnorm([3, -4], np.inf) == 4.0
        for p in (0.9, -np.inf, math.nan):
            with pytest.raises(ValueError):
                vec_pnorm([1.0, -3.0], p)


class TestWeakAndStrong:
    def test_simple_weak(self):
        v = weak_major([3, 1], [4, 1])
        assert v.holds and v.worst_slack == 1.0

    def test_equal_vectors_strong(self):
        v = major([2.0, 1.0, -1.0], [2.0, 1.0, -1.0])
        assert v.holds and v.worst_slack == 0.0

    def test_counterexample_pair_numbers(self):
        # (33, 15) against (81, 1): partial sums 33 <= 81 and 48 <= 82
        v = weak_major([33.0, 15.0], [81.0, 1.0])
        assert v.holds

    def test_weak_failure_reports_k(self):
        v = weak_major([10, 0], [9, 5])
        assert not v.holds and v.failing_k == 1

    def test_strong_requires_sum_equality(self):
        v = major([1, 1], [4, 1])
        assert not v.holds and v.failing_k == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weak_major([1, 2], [1, 2, 3])


class TestLogVariants:
    def test_simple_log(self):
        v = log_major([2, 2], [4, 1])
        assert v.holds

    def test_zero_products(self):
        v = log_major([0.0, 0.0], [5.0, 0.0])
        assert v.holds

    def test_weak_log_failure(self):
        # partial products (3, 3) against (2, 3): the weak log-majorization
        # part fails at k = 1 while the totals agree
        v = log_major([3.0, 1.0], [2.0, 1.5])
        assert not v.holds and v.failing_k == 1 and v.worst_slack == -1.0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            log_major([-1.0, 2.0], [1.0, 1.0])

    def test_tiny_negative_clamped(self):
        # -1e-12 lies inside the nonnegativity floor and clamps to an exact 0
        v = log_major([1.0, -1e-12], [1.0, 0.0])
        assert v.holds and v.worst_slack == 0.0

    def test_scaling_invariance(self):
        # pure relative tolerance is what a common positive rescale preserves;
        # exp of an additive majorizing pair is a log-majorizing pair
        rng = np.random.default_rng(0)
        for _ in range(200):
            p, q = (np.exp(v) for v in random_majorizing_pair(rng, 5))
            for c in (1.0, 1e-3, 7.0, 1e6):
                assert log_major(c * p, c * q, atol=0.0).holds
                assert not log_major(c * q, c * p, atol=0.0).holds

    def test_overflow_guard(self):
        # unscaled, the eighth partial products (1e320) overflow to inf
        p = np.full(8, 1e40)
        q = np.array([2e40] * 4 + [5e39] * 4)
        assert log_major(p, q).holds
        assert not log_major(q, p).holds

    def test_log_implies_weak_on_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            p, q = (np.exp(v) for v in random_majorizing_pair(rng, 4))
            assert log_major(p, q).holds
            assert weak_major(p, q, atol=1e-7).holds


class TestClassicalStability:
    def test_transform_pairs_majorize(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p, q = random_majorizing_pair(rng, int(rng.integers(2, 8)))
            assert major(p, q, atol=1e-9).holds

    def test_monotone_product_stability(self):
        # valid for nonnegative vectors (the sorted products stay decreasing);
        # for signed vectors the re-sorted comparison genuinely fails
        rng = np.random.default_rng(3)
        for _ in range(200):
            p, q = random_majorizing_pair(rng, 5, nonnegative=True)
            r = sort_desc(np.abs(rng.normal(0, 2, 5)))
            lhs = sort_desc(p) * r
            rhs = sort_desc(q) * r
            assert weak_major(lhs, rhs, atol=1e-8).holds

    def test_in_order_product_sums_for_signed_vectors(self):
        # the summation-by-parts route survives signs when the products are
        # compared in place, without re-sorting
        rng = np.random.default_rng(30)
        for _ in range(200):
            p, q = random_majorizing_pair(rng, 5)
            r = sort_desc(np.abs(rng.normal(0, 2, 5)))
            lhs = np.cumsum(sort_desc(p) * r)
            rhs = np.cumsum(sort_desc(q) * r)
            assert np.all(lhs <= rhs + 1e-8 * (1.0 + np.abs(rhs)))

    def test_majorization_gives_weak_abs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p, q = random_majorizing_pair(rng, 6)
            assert weak_major(np.abs(p), np.abs(q), atol=1e-8).holds

    def test_increasing_convex_functions(self):
        rng = np.random.default_rng(5)
        convex = [
            lambda t: np.maximum(t, 0.0),
            lambda t: np.exp(np.minimum(t, 30.0)),
            lambda t: (t + 50.0) ** 2,  # increasing on the sampled range
        ]
        for _ in range(100):
            p, q = random_majorizing_pair(rng, 5)
            for phi in convex:
                lhs = float(np.sum(phi(p)))
                rhs = float(np.sum(phi(q)))
                assert lhs <= rhs + 1e-7 * (1.0 + abs(rhs))


# row kinds for the row forms: signed rows; nonnegative rows with exact
# zeros; rows whose top passes the common rescale of the partial products
# (1e8); rows with negatives just below zero, inside the nonnegativity floor
# at a positive tolerance and below it at zero tolerance
ROW_ENTRIES = (
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e3) | st.just(0.0),
    st.floats(min_value=0.0, max_value=1e12),
    st.floats(min_value=-1e-10, max_value=1e3),
)


@st.composite
def row_pairs(draw, entries=ROW_ENTRIES):
    """(P, Q) of equal shape (m, n), each row of one kind drawn from
    ``entries``; some rows of Q are rearrangements of the rows of P, which
    puts them on the boundary of the verdict."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    P, Q = np.empty((m, n)), np.empty((m, n))
    for i in range(m):
        vals = draw(st.sampled_from(entries))
        P[i] = draw(arrays(np.float64, n, elements=vals))
        Q[i] = draw(arrays(np.float64, n, elements=vals))
        if draw(st.booleans()):
            Q[i] = P[i, draw(st.permutations(range(n)))]
    return P, Q


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def outcome(predicate, p, q, **tol):
    """(holds, worst slack) of a scalar predicate, or of a row form on rows
    (as tuples), or "raises" for a ValueError."""
    try:
        result = predicate(p, q, **tol)
    except ValueError:
        return "raises"
    if isinstance(result, tuple):
        worst, holds = result
        return tuple(holds), tuple(worst)
    return result.holds, result.worst_slack


class TestWeakMajorRows:
    @pytest.mark.parametrize("rows,scalar", [(weak_major_rows, weak_major),
                                             (log_major_rows, log_major)],
                             ids=["weak_major_rows", "log_major_rows"])
    @settings(max_examples=300, deadline=None)
    @given(row_pairs(), st.sampled_from([0.0, 1e-9, 1.0]), st.sampled_from([0.0, 1e-8, -1e-8]))
    def test_matches_scalar_verdict(self, rows, scalar, pair, atol, rtol):
        # each row's verdict and worst slack are those of the scalar
        # predicate on it, to the bit; a stack raises when any row does
        P, Q = pair
        try:
            verdicts = [scalar(p, q, atol=atol, rtol=rtol) for p, q in zip(P, Q)]
        except ValueError:
            with pytest.raises(ValueError):
                rows(P, Q, atol=atol, rtol=rtol)
            return
        worst, holds = rows(P, Q, atol=atol, rtol=rtol)
        for i, v in enumerate(verdicts):
            assert bits(worst[i]) == bits(v.worst_slack)
            assert holds[i] == v.holds


class TestInvariance:
    @settings(max_examples=200, deadline=None)
    @given(row_pairs(), st.data())
    def test_permuting_entries_changes_no_verdict(self, pair, data):
        P, Q = pair
        n = P.shape[1]
        P2 = np.array([p[data.draw(st.permutations(range(n)))] for p in P])
        Q2 = np.array([q[data.draw(st.permutations(range(n)))] for q in Q])
        for scalar in (weak_major, major, log_major):
            for i in range(len(P)):
                assert outcome(scalar, P[i], Q[i]) == outcome(scalar, P2[i], Q2[i])
        for rows in (weak_major_rows, log_major_rows):
            assert outcome(rows, P, Q) == outcome(rows, P2, Q2)

    @settings(max_examples=200, deadline=None)
    @given(row_pairs(entries=(st.floats(min_value=-1e3, max_value=1e3).filter(
               lambda x: x == 0.0 or abs(x) >= 1e-100),)),
           st.integers(-30, 30), st.sampled_from([0.0, 1e-8]))
    def test_power_of_two_scaling_keeps_zero_atol_verdicts(self, pair, k, rtol):
        # scaling by 2**k is exact away from underflow, and so is every sum
        # and band
        P, Q = pair
        c = 2.0 ** k
        for p, q in zip(P, Q):
            for predicate in (weak_major, major):
                assert (predicate(c * p, c * q, atol=0.0, rtol=rtol).holds
                        == predicate(p, q, atol=0.0, rtol=rtol).holds)

    @pytest.mark.parametrize("c", [1.0, 1024.0])
    def test_total_sum_band_is_relative_at_zero_atol(self, c):
        # a relative total-sum gap of 1.5e-8 lies outside the band at the
        # default rtol = 1e-8 and inside it at rtol = 2e-8, at every scale
        p, q = c * np.array([1.0]), c * np.array([1.0 + 1.5e-8])
        assert not major(p, q, atol=0.0).holds
        assert major(p, q, atol=0.0, rtol=2e-8).holds
