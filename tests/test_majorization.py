"""Vector majorization predicates and their classical stability properties."""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcone.majorization import (
    log_major,
    log_major_rows,
    major,
    major_rows,
    sort_desc,
    vec_pnorm,
    vec_pnorm_rows,
    weak_major,
    weak_major_rows,
)

import majorization_reference as reference
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

    @pytest.mark.parametrize("p,q,holds,failing_k", [
        # rescaled by the top entry, 1e-300 / 1e300 rounds to 0
        ([1e300, 1e-300], [1e300, 0.0], False, 2),
        ([1e300, 0.0], [1e300, 1e-300], False, 2),
        # unscaled, the second products 1e-400 round to 0
        ([1e-200, 1e-200], [1e-200, 0.0], False, 2),
        ([1e-200, 1e-200], [1e-200, 1e-200], True, None),
        # unscaled (the top entry is at the rescale limit), the products of
        # forty entries 1e8 overflow; a slack past the float range reads inf
        ([1e8] * 40, [1e8] * 40, True, None),
        ([1e8] * 39 + [5e7], [1e8] * 40, False, 40),
    ])
    def test_products_past_the_float_range(self, p, q, holds, failing_k):
        # a row whose float products of nonzero entries leave the normal
        # range is decided on its exact products, scalar and row form alike
        v = log_major(p, q, atol=0.0, rtol=0.0)
        assert (v.holds, v.failing_k) == (holds, failing_k)
        assert not math.isnan(v.worst_slack)
        worst, rows_hold = log_major_rows(np.array([p, [1.0] * len(p)]),
                                          np.array([q, [1.0] * len(p)]), atol=0.0, rtol=0.0)
        assert list(rows_hold) == [holds, True] and bits(worst[0]) == bits(v.worst_slack)

    @pytest.mark.parametrize("log_major_of", [log_major, reference.log_major],
                             ids=["package", "reference"])
    def test_atol_is_in_the_original_units(self, log_major_of):
        # a row above the rescale limit (1e8) is divided by its top entry, so
        # its second products 1 and 0.5 are in units of 1e18: a gap of 5e8
        # in the original units against a band of about 10.  atol applied
        # in the rescaled units made it hold with a worst slack of -5e-10
        for top in (1e8, 1e9):
            v = log_major_of([top, 1.0], [top, 0.5])
            assert (v.holds, v.failing_k) == (False, 2)
            assert v.worst_slack == pytest.approx(-top / 2, rel=1e-12)

    @pytest.mark.parametrize("log_major_of", [log_major, reference.log_major],
                             ids=["package", "reference"])
    def test_overflowing_products_hold_at_infinite_atol(self, log_major_of):
        # the third products (1e600) overflow, and so does top**3 in the
        # rescaled units; an infinite atol is an infinite band in any units
        p = [1e200, 1e200, 1e200]
        q = [1e200, 1e200, 2e200]
        v = log_major_of(p, q, atol=math.inf)
        assert v.holds and not math.isnan(v.worst_slack)
        assert log_major_of(q, p, atol=math.inf).holds

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


PREDICATES = {"weak": (weak_major, weak_major_rows, reference.weak_major),
              "strong": (major, major_rows, reference.major),
              "log": (log_major, log_major_rows, reference.log_major)}


def verdict_bits(predicate, p, q, **tol):
    """A scalar verdict with its worst slack as bits, or "raises" for a
    ValueError."""
    try:
        v = predicate(p, q, **tol)
    except ValueError:
        return "raises"
    return v.holds, bits(v.worst_slack), v.failing_k, v.kind


class TestWeakMajorRows:
    @pytest.mark.parametrize("kind", ["weak", "log", "strong"],
                             ids=["weak_major_rows", "log_major_rows", "major_rows"])
    @settings(max_examples=300, deadline=None)
    @given(row_pairs(), st.sampled_from([0.0, 1e-9, 1.0]), st.sampled_from([0.0, 1e-8, -1e-8]))
    def test_matches_scalar_verdict(self, kind, pair, atol, rtol):
        # the package's scalar predicate gives the reference verdict on every
        # row, to the bit; the row form gives its worst slack and verdict,
        # and a stack raises when any row does
        scalar, rows, ref = PREDICATES[kind]
        P, Q = pair
        want = [verdict_bits(ref, p, q, atol=atol, rtol=rtol) for p, q in zip(P, Q)]
        assert [verdict_bits(scalar, p, q, atol=atol, rtol=rtol) for p, q in zip(P, Q)] == want
        if "raises" in want:
            with pytest.raises(ValueError):
                rows(P, Q, atol=atol, rtol=rtol)
            return
        worst, holds = rows(P, Q, atol=atol, rtol=rtol)
        assert [(h, bits(w)) for h, w in zip(holds, worst)] == [v[:2] for v in want]

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    @pytest.mark.parametrize("p,q", [
        ([], []),
        ([1.0, 2.0], [1.0, 2.0, 3.0]),
        ([2.0], [3.0]),
        ([3.0], [2.0]),
        ([0.0], [-0.0]),
        ([-0.0, 0.0], [0.0, -0.0]),
        ([0.0, -0.0, 1.0], [1.0, -0.0, 0.0]),
        ([1e300, 1e300], [2e300, 1.0]),
        ([-1.0, 2.0], [1.0, 1.0]),
    ])
    def test_scalar_edge_cases_match_reference(self, kind, p, q):
        # empty and mismatched vectors, one entry, signed zeros, sums that
        # overflow, and a negative entry
        scalar, _, ref = PREDICATES[kind]
        for tol in ({}, {"atol": 0.0, "rtol": 0.0}):
            assert verdict_bits(scalar, p, q, **tol) == verdict_bits(ref, p, q, **tol)

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_entries_raise(self, kind, bad, side):
        # NaN and infinite entries have no verdict: weak_major([nan, 1], ...)
        # used to report a NaN worst slack, major([inf, 1], ...) to hold, and
        # log_major([-inf, 1], ...) to clamp -inf to 0.  A stack raises when
        # any row has one
        scalar, rows, _ = PREDICATES[kind]
        pair = [[1.0, 1.0], [1.0, 1.0]]
        pair[side] = [bad, 1.0]
        with pytest.raises(ValueError, match="non-finite"):
            scalar(*pair)
        stacks = [np.array([[2.0, 1.0], row]) for row in pair]
        with pytest.raises(ValueError, match="non-finite"):
            rows(*stacks)


# the partial sums ("weak", "strong") or products ("log") of a verdict
PARTIAL_OP = {"weak": operator.add, "strong": operator.add, "log": operator.mul}


def exact_slacks(kind, p, q):
    """(slacks, partial magnitudes) at k = 1..n, in rational arithmetic:
    partials of q minus partials of p, over the decreasing rearrangements."""
    sp, sq = (list(itertools.accumulate(sorted(map(Fraction, v), reverse=True),
                                        PARTIAL_OP[kind])) for v in (p, q))
    return [b - a for a, b in zip(sp, sq)], [max(abs(a), abs(b)) for a, b in zip(sp, sq)]


def exact_verdict(kind, p, q):
    """(holds, worst slack, failing k) from the definition at zero tolerance:
    every partial of p at most that of q, and for "strong" and "log" equal
    totals.  A failing verdict names the first smallest slack among the
    inequalities when one fails, else k = n."""
    s, _ = exact_slacks(kind, p, q)
    head = s if kind == "weak" else s[:-1]
    total_ok = kind == "weak" or s[-1] == 0
    worst = min(head + ([] if kind == "weak" else [-abs(s[-1])]))
    holds = min(head, default=0) >= 0 and total_ok
    if holds:
        return True, worst, None
    return False, worst, (head.index(min(head)) + 1 if min(head, default=0) < 0 else len(s))


class TestExactOracle:
    # the predicates at zero tolerance against the definition in rational
    # arithmetic

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exact_inputs_give_the_exact_verdict(self, kind, data):
        # integers whose partial sums (|x| <= 2**10) or products (0..64) of
        # at most six terms are exact floats: holds, worst slack and failing
        # index are the rational ones
        n = data.draw(st.integers(1, 6))
        entry = (st.integers(0, 64) if kind == "log" else st.integers(-2**10, 2**10))
        p = data.draw(st.lists(entry, min_size=n, max_size=n))
        q = (data.draw(st.permutations(p)) if data.draw(st.booleans())
             else data.draw(st.lists(entry, min_size=n, max_size=n)))
        v = PREDICATES[kind][0](np.array(p, float), np.array(q, float), atol=0.0, rtol=0.0)
        assert (v.holds, v.worst_slack, v.failing_k) == exact_verdict(kind, p, q)

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    @settings(max_examples=300, deadline=None)
    @given(row_pairs())
    @example((np.array([[0.0, 0.0]]), np.array([[1.00000001e8, 5e-324]])))
    @example((np.array([[1e300, 1e-300], [1e12, 1e-300]]), np.array([[1e300, 0.0], [1e12, 0.0]])))
    def test_clear_verdicts_are_the_exact_ones(self, kind, pair):
        # on general floats the verdict is the exact one wherever the exact
        # slacks clear the rounding of the partials: n * 2**-52 * scale for
        # sums, scale the largest partial magnitude; for products each index
        # k at its own magnitude, with twice the roundings (a common rescale
        # divides every entry first) and twice the subnormal spacing per
        # step.  An equality of totals never clears, so "strong" and "log"
        # are checked where they fail.  The examples are rows whose rescaled
        # products of nonzero entries round to a subnormal or 0
        # (5e-324 / 1.00000001e8, 1e-300 / 1e300, 1e-300 / 1e12): their
        # verdict is the exact one too
        scalar = PREDICATES[kind][0]
        for p, q in zip(*pair):
            if kind == "log" and min(p.min(), q.min()) < 0.0:
                with pytest.raises(ValueError):
                    scalar(p, q, atol=0.0, rtol=0.0)
                continue
            n = len(p)
            s, mag = exact_slacks(kind, p, q)
            if kind == "log":
                margin = [Fraction(2 * n, 2**52) * m + Fraction(n, 2**1073) for m in mag]
            else:
                margin = [Fraction(n, 2**52) * max(mag)] * n
            clear_fail = [k for k in range(n) if s[k] < -margin[k]]
            if kind != "weak":
                clear_fail = [k for k in clear_fail if k < n - 1]
                if abs(s[-1]) > margin[-1]:
                    clear_fail.append(n - 1)
            holds = scalar(p, q, atol=0.0, rtol=0.0).holds
            if clear_fail:
                assert not holds
            elif kind == "weak" and all(s[k] > margin[k] for k in range(n)):
                assert holds


class TestVecPnormRows:
    @settings(max_examples=200, deadline=None)
    @given(row_pairs(), st.data())
    def test_matches_scalar_norm(self, pair, data):
        # each row at its own order has the bits of the reference vec_pnorm
        # on that row, and so has the package's
        P, _ = pair
        p = np.array([data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 400.0, math.inf]))
                      for _ in P])
        got = vec_pnorm_rows(P, p)
        for i, row in enumerate(P):
            assert bits(got[i]) == bits(reference.vec_pnorm(row, p[i]))
            assert bits(vec_pnorm(row, p[i])) == bits(got[i])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 400.0, math.inf])
    @pytest.mark.parametrize("v", [[], [-2.5], [0.0, -0.0], [-0.0], [1e300, -1e300, 3.0],
                                   [1e300], [math.inf, 1.0], [math.nan, 1.0],
                                   [math.inf, math.nan], [5e-324, 1e-310]],
                             ids=lambda v: repr(v))
    def test_edge_cases_match_reference(self, v, p):
        # empty, one entry, signed zeros, a power sum that overflows from
        # finite entries, and non-finite entries
        want = bits(reference.vec_pnorm(v, p))
        assert bits(vec_pnorm(v, p)) == want
        assert bits(vec_pnorm_rows(np.array(v, dtype=float).reshape(1, -1), [p])[0]) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5),
           st.sampled_from([1.5, 2.0, 3.0, 400.0]), st.integers(-1074, 0))
    @example([1.0, 1.0], 2.0, -664)  # [1e-200, 1e-200] up to a power of two
    @example([1.0, 0.0], 2.0, -565)  # [1e-170, 0] up to a power of two
    def test_power_sums_below_the_normal_range_are_rescaled(self, v, p, k):
        # the norm of v scaled by 2**k is the norm of v scaled by 2**k, to
        # rounding, wherever the scaled entries stay normal or zero; the
        # reference agrees bit for bit
        v = np.array(v)
        small = np.ldexp(v, k)
        assume(np.all((small == 0) | (small >= np.finfo(float).tiny)) and v.max() > 0)
        got = vec_pnorm(small, p)
        assert bits(got) == bits(reference.vec_pnorm(small, p))
        assert got == pytest.approx(math.ldexp(vec_pnorm(v, p), k), rel=1e-12)

    def test_underflowing_power_sums(self):
        assert vec_pnorm([1e-200, 1e-200], 2) == pytest.approx(math.sqrt(2) * 1e-200,
                                                                rel=1e-15)
        assert vec_pnorm([1e-170, 0.0], 2) == 1e-170
        assert vec_pnorm([5e-324, 0.0], 3) == 5e-324

    @pytest.mark.parametrize("p", [0.9, -np.inf, math.nan])
    def test_rejects_orders_below_one(self, p):
        with pytest.raises(ValueError):
            vec_pnorm_rows(np.ones((2, 3)), np.array([2.0, p]))


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
        for rows in (weak_major_rows, log_major_rows, major_rows):
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
