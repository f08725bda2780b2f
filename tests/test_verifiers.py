"""Inequality verifiers: fixed examples, small random sweeps, error contracts."""

import json
import math

import numpy as np
import pytest

from symcone.algebra import (
    DescriptorMismatchError,
    SpinFactor,
    SymMatrix,
    element_from_json,
    from_matrix,
    jordan_product,
    norm,
    unit,
)
from symcone.majorization import log_major, sort_desc, weak_major
from symcone.spectral import ConeError, eigvals, trace
from symcone.transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    PositiveLinearMap,
    PositivityError,
    SchurMatrix,
    SublinearFn,
    lyap_multiplier,
    quad_rep_sqrt,
)
from symcone import verifiers
from symcone.algebra import descriptor_to_spec
from symcone.verifiers import (
    CHECK_RUNNERS,
    VerificationReport,
    build_commuting_factors,
    check_absolute_product_counterexample,
    check_holder,
    check_jordan_weak,
    check_log_major_quadrep,
    check_positive_map_sublinear,
    check_quadrep_pinch,
    check_quadrep_sublinear,
    check_quadrep_sup_bound,
    check_schur_diag,
    holder_exponent,
    make_positive_map,
    merge_reports,
    positive_map_case,
    run_all,
    run_sweep,
    sample_cone,
    sample_frame,
    sample_general,
    sample_invertible,
    sample_psd_gram,
    sample_rng,
)
from symcone.spectral import rebuild

from conftest import CATALOG, SMALL_CATALOG


class TestLogMajorQuadrep:
    def test_unit_base_gives_equality(self):
        rng = np.random.default_rng(0)
        for d in SMALL_CATALOG:
            b = sample_cone(d, rng)
            rep = check_log_major_quadrep(unit(d), b)
            assert rep.passed
            assert abs(rep.worst_slack) <= 1e-7 * (1.0 + eigvals(b).max() ** d.rank)

    def test_random_cone_pairs(self):
        rng = np.random.default_rng(1)
        for d in SMALL_CATALOG:
            for _ in range(25):
                rep = check_log_major_quadrep(sample_cone(d, rng), sample_cone(d, rng))
                assert rep.passed
                assert rep.details["det_rel_err"] <= 1e-8

    def test_commuting_pair_reduces_to_vectors(self):
        rng = np.random.default_rng(2)
        d = SymMatrix(4)
        frame = sample_frame(d, rng)
        av = rng.uniform(0.1, 5.0, 4)
        bv = rng.uniform(0.1, 5.0, 4)
        a = rebuild(frame, av)
        b = rebuild(frame, bv)
        rep = check_log_major_quadrep(a, b)
        assert rep.passed
        lz = eigvals(quad_rep_sqrt(a, b))
        np.testing.assert_allclose(sort_desc(lz), sort_desc(av * bv), rtol=1e-9)

    def test_rejects_non_cone_input(self):
        d = SymMatrix(2)
        with pytest.raises(ValueError):
            check_log_major_quadrep(-unit(d), unit(d))
        # inside the cone floor but below the square root's clamp
        with pytest.raises(ConeError):
            check_log_major_quadrep(from_matrix(np.diag([1.0, -1e-9])), unit(d))

    def test_rejects_mixed_algebras_of_one_dimension(self):
        with pytest.raises(DescriptorMismatchError):
            check_log_major_quadrep(unit(SymMatrix(2)), unit(SpinFactor(3)))
        with pytest.raises(DescriptorMismatchError):
            check_jordan_weak(unit(SymMatrix(2)), unit(SpinFactor(3)))


class TestQuadrepSupBound:
    def test_unit_base(self):
        rng = np.random.default_rng(3)
        for d in SMALL_CATALOG:
            rep = check_quadrep_sup_bound(unit(d), sample_cone(d, rng))
            assert rep.passed

    def test_scaling_base(self):
        rng = np.random.default_rng(4)
        d = SpinFactor(6)
        b = sample_cone(d, rng)
        rep = check_quadrep_sup_bound(2.0 * unit(d), b)
        assert rep.passed
        lz = eigvals(quad_rep_sqrt(2.0 * unit(d), b))
        np.testing.assert_allclose(lz, 2.0 * eigvals(b), rtol=1e-10)

    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        d = SpinFactor(6)
        for _ in range(50):
            assert check_quadrep_sup_bound(sample_cone(d, rng), sample_cone(d, rng)).passed


class TestCommutingFactors:
    def test_unit_input(self):
        d = SymMatrix(3)
        for k in (1, 2, 3):
            x, y, rep = build_commuting_factors(unit(d), k)
            assert rep.passed
            assert norm(x - unit(d)) <= 1e-12
            assert norm(y - unit(d)) <= 1e-12

    def test_constant_magnitude_gives_unit_scaling(self):
        a = from_matrix(np.diag([3.0, -3.0]))
        x, y, rep = build_commuting_factors(a, 2)
        assert rep.passed
        np.testing.assert_allclose(sort_desc(eigvals(x)), [1.0, 1.0], atol=1e-12)

    def test_random_all_cutoffs(self):
        rng = np.random.default_rng(6)
        for d in SMALL_CATALOG:
            for _ in range(10):
                a = sample_invertible(d, rng)
                for k in range(1, d.rank + 1):
                    x, y, rep = build_commuting_factors(a, k)
                    assert rep.passed, rep.details

    def test_non_invertible_rejected(self):
        d = SymMatrix(2)
        with pytest.raises(ValueError):
            build_commuting_factors(from_matrix(np.diag([1.0, 0.0])), 1)

    def test_cutoff_range_checked(self):
        with pytest.raises(ValueError):
            build_commuting_factors(unit(SymMatrix(2)), 3)


class TestPositiveMapSublinear:
    def test_abs_never_exceeds(self):
        rng = np.random.default_rng(7)
        for d in SMALL_CATALOG:
            for kind in ("quad", "schur_psd", "quad_compose"):
                P = make_positive_map(d, kind, rng)
                rep = check_positive_map_sublinear(P, sample_general(d, rng), ABS_FN)
                assert rep.passed

    def test_plus_and_minus_parts(self):
        rng = np.random.default_rng(8)
        d = SymMatrix(3)
        for phi in (POS_FN, NEG_FN):
            for _ in range(25):
                P = make_positive_map(d, "quad", rng)
                assert check_positive_map_sublinear(P, sample_general(d, rng), phi).passed

    def test_linear_case_slack_vanishes(self):
        rng = np.random.default_rng(9)
        phi = SublinearFn(1.0, 1.0)
        for d in SMALL_CATALOG:
            P = make_positive_map(d, "quad", rng)
            rep = check_positive_map_sublinear(P, sample_general(d, rng), phi)
            assert rep.passed and abs(rep.worst_slack) <= 1e-10

    def test_uncertified_map_needs_rng(self):
        d = SymMatrix(2)
        P = PositiveLinearMap(d, lambda x: x, "identity", certified=False)
        with pytest.raises(PositivityError):
            check_positive_map_sublinear(P, unit(d), ABS_FN)
        # the identity map certifies empirically and then verifies
        rep = check_positive_map_sublinear(P, unit(d), ABS_FN,
                                           rng=np.random.default_rng(0))
        assert rep.passed

    def test_negation_map_fails_certification(self):
        d = SymMatrix(2)
        P = PositiveLinearMap(d, lambda x: -1.0 * x, "negation", certified=False)
        with pytest.raises(PositivityError):
            check_positive_map_sublinear(P, unit(d), ABS_FN,
                                         rng=np.random.default_rng(0))


class TestQuadrepSublinear:
    def test_unit_base(self):
        rng = np.random.default_rng(10)
        for d in SMALL_CATALOG:
            rep = check_quadrep_sublinear(unit(d), sample_general(d, rng), ABS_FN)
            assert rep.passed

    def test_random_abs(self):
        rng = np.random.default_rng(11)
        d = SymMatrix(3)
        for _ in range(50):
            rep = check_quadrep_sublinear(sample_general(d, rng),
                                          sample_general(d, rng), ABS_FN)
            assert rep.passed

    def test_cone_argument_consistent_with_log_route(self):
        rng = np.random.default_rng(12)
        d = SymMatrix(3)
        for _ in range(20):
            a = sample_general(d, rng)
            b = sample_cone(d, rng)
            assert check_quadrep_sublinear(a, b, ABS_FN).passed
            assert check_log_major_quadrep(jordan_product(a, a), b).passed

    def test_requires_nonnegative_phi(self):
        d = SymMatrix(2)
        with pytest.raises(ValueError):
            check_quadrep_sublinear(unit(d), unit(d), SublinearFn(1.0, 1.0))


class TestSchurDiag:
    def test_identity_multiplier(self):
        rng = np.random.default_rng(13)
        for d in SMALL_CATALOG:
            frame = sample_frame(d, rng)
            rep = check_schur_diag(np.eye(d.rank), frame, sample_general(d, rng), ABS_FN)
            assert rep.passed

    def test_all_ones_multiplier(self):
        rng = np.random.default_rng(14)
        d = SymMatrix(3)
        frame = sample_frame(d, rng)
        rep = check_schur_diag(np.ones((3, 3)), frame, sample_general(d, rng), ABS_FN)
        assert rep.passed

    def test_random_gram_multipliers(self):
        rng = np.random.default_rng(15)
        d = SymMatrix(4)
        for phi in (ABS_FN, POS_FN, NEG_FN):
            for _ in range(15):
                A = SchurMatrix(sample_psd_gram(4, rng))
                frame = sample_frame(d, rng)
                rep = check_schur_diag(A, frame, sample_general(d, rng), phi)
                assert rep.passed

    def test_non_psd_rejected(self):
        d = SymMatrix(2)
        frame = sample_frame(d, np.random.default_rng(0))
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PositivityError):
            check_schur_diag(A, frame, unit(d), ABS_FN)


class TestJordanWeak:
    def test_counterexample_pair_satisfies_eigen_route(self):
        a = from_matrix(np.array([[8.0, 3.0], [3.0, 0.0]]))
        b = from_matrix(np.array([[0.0, 3.0], [3.0, 8.0]]))
        rep = check_jordan_weak(a, b)
        assert rep.passed  # (33, 15) against (81, 1)

    def test_unit_argument(self):
        rng = np.random.default_rng(16)
        for d in SMALL_CATALOG:
            rep = check_jordan_weak(sample_general(d, rng), unit(d))
            assert rep.passed

    def test_random_pairs_every_descriptor(self):
        rng = np.random.default_rng(17)
        for d in SMALL_CATALOG:
            for _ in range(25):
                rep = check_jordan_weak(sample_general(d, rng), sample_general(d, rng))
                assert rep.passed

    def test_multiplication_multiplier_need_not_be_psd(self):
        # eigenvalues (1, -1) make [(a_i+a_j)/2] indefinite, so the
        # PSD-multiplier route cannot subsume this check
        A = lyap_multiplier(np.array([1.0, -1.0]))
        np.testing.assert_allclose(A.entries, [[1.0, 0.0], [0.0, -1.0]])
        assert A.min_eigenvalue() < -0.5


class TestCounterexamplePair:
    def test_values_and_both_directions_fail(self):
        rep = check_absolute_product_counterexample()
        assert rep.passed
        np.testing.assert_allclose(rep.details["abs_product_eigs"], [33.0, 15.0],
                                   atol=1e-9)
        np.testing.assert_allclose(rep.details["mixed_eigs"], [44.52, -3.48],
                                   atol=1e-2)
        assert not rep.details["forward"]["holds"]
        assert not rep.details["reverse"]["holds"]

    def test_runs_fast(self):
        import time

        start = time.perf_counter()
        check_absolute_product_counterexample()
        assert time.perf_counter() - start < 1.0


class TestQuadrepPinch:
    def test_unit_base(self):
        rng = np.random.default_rng(18)
        for d in SMALL_CATALOG:
            rep = check_quadrep_pinch(unit(d), sample_general(d, rng))
            assert rep.passed

    def test_trace_equality(self):
        rng = np.random.default_rng(19)
        d = SpinFactor(5)
        for _ in range(20):
            a = sample_cone(d, rng)
            b = sample_general(d, rng)
            assert check_quadrep_pinch(a, b).passed
            lhs = trace(quad_rep_sqrt(a, b))
            rhs = trace(jordan_product(a, b))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_with_schur_leg(self):
        rng = np.random.default_rng(20)
        d = SymMatrix(3)
        for _ in range(20):
            A = SchurMatrix(sample_psd_gram(3, rng))
            frame = sample_frame(d, rng)
            rep = check_quadrep_pinch(sample_cone(d, rng), sample_general(d, rng),
                                      A=A, frame=frame)
            assert rep.passed


class TestHolder:
    def test_exponent_arithmetic(self):
        assert holder_exponent(2, 2) == 1.0
        assert holder_exponent(math.inf, 3) == 3.0
        assert holder_exponent(math.inf, math.inf) == math.inf
        with pytest.raises(ValueError):
            holder_exponent(1, 1)
        with pytest.raises(ValueError):
            holder_exponent(0.5, 2)
        with pytest.raises(ValueError):
            holder_exponent(-math.inf, 2)

    def test_unit_equality_case(self):
        d = SymMatrix(4)
        rep = check_holder(unit(d), unit(d), 2, 2)
        assert rep.passed
        assert abs(rep.details["lhs"] - 4.0) <= 1e-12
        assert abs(rep.details["rhs"] - 4.0) <= 1e-12

    def test_sup_exponent_matches_submultiplicativity(self):
        rng = np.random.default_rng(21)
        d = SymMatrix(3)
        for _ in range(30):
            a = sample_general(d, rng)
            b = sample_general(d, rng)
            rep = check_holder(a, b, math.inf, 2)
            assert rep.passed and abs(rep.details["p"] - 2.0) <= 1e-12

    def test_random_fractional_pair(self):
        rng = np.random.default_rng(22)
        for d in SMALL_CATALOG:
            for _ in range(20):
                rep = check_holder(sample_general(d, rng), sample_general(d, rng),
                                   3.0, 1.5)
                assert rep.passed and rep.details["p"] == 1.0


class TestSweepMachinery:
    def test_deterministic_reports(self):
        d = SymMatrix(3)
        r1 = run_sweep("jordan_weak", d, 20, 5)
        r2 = run_sweep("jordan_weak", d, 20, 5)
        assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
            r2.to_json(), sort_keys=True
        )

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("nope", SymMatrix(2), 1, 0)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            run_sweep("jordan_weak", SymMatrix(2), 0, 0)

    def test_run_all_passes_small(self):
        reports = run_all(SymMatrix(3), 10, 3)
        assert all(r.passed for r in reports)
        names = {r.check for r in reports}
        assert "absolute_product_counterexample" in names

    def test_merge_keeps_first_witness(self):
        good = VerificationReport("c", "sym:2", None, 1, True, 1.0)
        bad1 = VerificationReport("c", "sym:2", None, 1, False, -2.0,
                                  witness={"tag": "first"})
        bad2 = VerificationReport("c", "sym:2", None, 1, False, -5.0,
                                  witness={"tag": "second"})
        merged = merge_reports("c", "sym:2", 7, [good, bad1, bad2])
        assert not merged.passed
        assert merged.worst_slack == -5.0
        assert merged.witness["tag"] == "first"
        assert merged.witness["sample_index"] == 1
        assert merged.samples == 3

    def test_failure_witness_replayable(self):
        rng = np.random.default_rng(23)
        d = SymMatrix(3)
        rep = check_jordan_weak(sample_general(d, rng), sample_general(d, rng))
        # passing checks carry no witness; force one through a failing report
        assert rep.witness is None
        bad = VerificationReport("c", "sym:3", None, 1, False, -1.0,
                                 witness={"a": None})
        assert merge_reports("c", "sym:3", 0, [bad]).witness is not None

    def test_sample_rng_stable(self):
        a = sample_rng(3, 5).normal(size=4)
        b = sample_rng(3, 5).normal(size=4)
        assert np.array_equal(a, b)

    def test_positive_map_case_runs_every_kind(self):
        rng = np.random.default_rng(24)
        d = SpinFactor(4)
        for kind in ("quad", "schur_psd", "quad_compose"):
            assert positive_map_case(d, rng, kind, ABS_FN).passed

    def test_sample_invertible_gives_up_after_bounded_draws(self):
        with pytest.raises(ValueError, match=r"sym:2.*1e\+09"):
            sample_invertible(SymMatrix(2), np.random.default_rng(0), min_abs=1e9)


def per_sample_sweep(check, d, samples, seed, atol, rtol):
    """run_sweep as a plain loop over the runner, one sample at a time."""
    runner = CHECK_RUNNERS[check]
    reports = [runner(d, sample_rng(seed, i), atol, rtol) for i in range(samples)]
    return merge_reports(check, descriptor_to_spec(d), seed, reports)


def scalar_oracle(check, d, samples, seed, atol, rtol):
    """The sweep's check recomputed per sample with the scalar samplers,
    eigensolver and predicates: (passed, worst slack, first failing sample,
    largest determinant error, scale of the tolerance bands)."""
    passed, worst, first, det_worst, scale = True, math.inf, None, 0.0, 0.0
    for i in range(samples):
        rng = sample_rng(seed, i)
        if check == "log_major_quadrep":
            a, b = sample_cone(d, rng), sample_cone(d, rng)
            la, lb = eigvals(a), eigvals(b)
            lz, rhs = eigvals(quad_rep_sqrt(a, b)), la * lb
            verdicts = [log_major(lz, rhs, atol=atol, rtol=rtol),
                        weak_major(lz, rhs, atol=atol, rtol=rtol)]
            ok = all(v.holds for v in verdicts)
            if min(la[-1], lb[-1]) > 1e-7 * max(1.0, la.max(), lb.max()):
                det = abs(np.prod(lz) - np.prod(rhs)) / abs(np.prod(rhs))
                det_worst = max(det_worst, det)
                ok = ok and det <= verifiers.DET_IDENTITY_RTOL
            partial = np.cumprod(rhs)
        else:
            a, b = sample_general(d, rng), sample_general(d, rng)
            lhs = np.abs(eigvals(jordan_product(a, b)))
            rhs = sort_desc(np.abs(eigvals(a))) * sort_desc(np.abs(eigvals(b)))
            verdicts = [weak_major(lhs, rhs, atol=atol, rtol=rtol)]
            ok = verdicts[0].holds
            partial = np.cumsum(rhs)
        passed = passed and ok
        worst = min([worst] + [v.worst_slack for v in verdicts])
        if not ok and first is None:
            first = i
        scale = max(scale, float(np.abs(partial).max()))
    return passed, worst, first, det_worst, scale


def bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestBatchedSweep:
    SAMPLES = 40

    def test_pairs_draw_what_the_samplers_draw(self):
        for d in CATALOG:
            a, b = verifiers._cone_pairs(d, [sample_rng(6, i) for i in range(8)])
            g, h = verifiers._general_pairs(d, [sample_rng(6, i) for i in range(8)])
            for i in range(8):
                rng = sample_rng(6, i)
                for x in (a, b):
                    np.testing.assert_allclose(x[i], sample_cone(d, rng).coords,
                                               rtol=0, atol=1e-12)
                rng = sample_rng(6, i)
                for x in (g, h):
                    assert np.array_equal(x[i], sample_general(d, rng).coords)

    @pytest.mark.parametrize("seed", [20260809, 4])
    @pytest.mark.parametrize("check", ["log_major_quadrep", "jordan_weak"])
    def test_matches_per_sample_reference(self, check, seed):
        atol, rtol = 1e-9, 1e-8
        for d in CATALOG:
            got = run_sweep(check, d, self.SAMPLES, seed, atol=atol, rtol=rtol)
            passed, worst, _, det_worst, scale = scalar_oracle(check, d, self.SAMPLES,
                                                               seed, atol, rtol)
            assert got.passed == passed
            assert got.samples == self.SAMPLES
            assert abs(got.worst_slack - worst) <= atol + rtol * scale, d
            if check == "log_major_quadrep":
                assert set(got.details) == {"max_det_rel_err"}
                assert got.details["max_det_rel_err"] <= 1e-8
                assert det_worst <= 1e-8
            else:
                assert got.details == {}

    @pytest.mark.parametrize("d", [SymMatrix(3), SpinFactor(4), CATALOG[-1]])
    def test_zero_tolerance_witness_is_the_reference_witness(self, d):
        # at zero tolerance the product equality at k = n fails on roundoff,
        # so samples fail and every report field, witness included, must be
        # the per-sample loop's
        got = run_sweep("log_major_quadrep", d, 15, 3, atol=0.0, rtol=0.0)
        ref = per_sample_sweep("log_major_quadrep", d, 15, 3, 0.0, 0.0)
        assert not got.passed and not ref.passed
        assert json.dumps(got.to_json(), sort_keys=True) == \
            json.dumps(ref.to_json(), sort_keys=True)

    @pytest.mark.parametrize("check,d,atol,first", [
        ("log_major_quadrep", SymMatrix(5), -1e-3, 2),
        ("jordan_weak", SymMatrix(3), -0.5, 31),
        ("jordan_weak", SpinFactor(4), -0.5, 9),
    ])
    def test_stricter_than_exact_tolerance_fails_the_same_samples(self, check, d,
                                                                  atol, first):
        # a negative atol fails the samples whose margins fall short of |atol|,
        # so which sample fails first depends on the inputs drawn
        got = run_sweep(check, d, 40, 3, atol=atol, rtol=1e-8)
        ref = per_sample_sweep(check, d, 40, 3, atol, 1e-8)
        assert not got.passed and not ref.passed
        assert got.witness["sample_index"] == first
        assert json.dumps(got.to_json(), sort_keys=True) == \
            json.dumps(ref.to_json(), sort_keys=True)
        passed, worst, oracle_first, _, scale = scalar_oracle(check, d, 40, 3, atol, 1e-8)
        assert not passed and oracle_first == first
        assert abs(got.worst_slack - worst) <= abs(atol) + 1e-8 * scale

    @pytest.mark.parametrize("check,d,atol,rtol", [
        ("log_major_quadrep", SymMatrix(3), 0.0, 0.0),
        ("log_major_quadrep", SpinFactor(4), 0.0, 0.0),
        ("log_major_quadrep", CATALOG[-1], 0.0, 0.0),
        ("jordan_weak", SymMatrix(3), -0.5, 1e-8),
        ("jordan_weak", SpinFactor(4), -0.5, 1e-8),
    ])
    def test_witness_replays_through_the_check(self, check, d, atol, rtol):
        # the witness, read back from JSON, fails the public check with the
        # worst slack its row has in the sweep, to the bit
        rep = run_sweep(check, d, 40, 3, atol=atol, rtol=rtol)
        i = rep.witness["sample_index"]
        runner = CHECK_RUNNERS[check]
        a, b = runner.draw(d, [sample_rng(3, j) for j in range(40)])
        passed, slack, _ = runner.rows(d, a, b, atol, rtol)
        fn = check_log_major_quadrep if check == "log_major_quadrep" else check_jordan_weak
        replay = fn(element_from_json(rep.witness["a"]), element_from_json(rep.witness["b"]),
                    atol=atol, rtol=rtol)
        assert not passed[i] and not replay.passed
        assert bits(replay.worst_slack) == bits(slack[i])

    def test_chunking_does_not_change_the_report(self, monkeypatch):
        d = CATALOG[-1]
        whole = run_sweep("jordan_weak", d, 25, 8).to_json()
        monkeypatch.setattr(verifiers, "SWEEP_CHUNK", 7)
        assert run_sweep("jordan_weak", d, 25, 8).to_json() == whole

    def test_passing_sweep_builds_no_elements(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a passing sample was serialized")

        monkeypatch.setattr(verifiers, "element_to_json", forbidden)
        assert run_sweep("log_major_quadrep", SymMatrix(3), 30, 1).passed
