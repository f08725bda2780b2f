"""Inequality verifiers: fixed examples, small random sweeps, error contracts."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcone.algebra import (
    DescriptorMismatchError,
    DirectSum,
    Element,
    SpinFactor,
    SymMatrix,
    element_from_json,
    from_matrix,
    jordan_product,
    norm,
    operator_commutes,
    random_element,
    unit,
)
from symcone.majorization import sort_desc
from symcone.spectral import (
    ConeError,
    JordanFrame,
    eigvals,
    pnorm,
    rebuild,
    spectral_decompose,
    trace,
)
from symcone.transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    PositiveLinearMap,
    PositivityError,
    SchurMatrix,
    SublinearFn,
    apply_sublinear,
    compose_positive,
    lyap_multiplier,
    positive_quad_map,
    positive_schur_map,
    quad_rep,
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
    merge_reports,
    run_all,
    run_sweep,
    sample_cone,
    sample_general,
    sample_invertible,
    sample_psd_gram,
    sample_rng,
    sample_rngs,
)

from conftest import CATALOG, SMALL_CATALOG
from majorization_reference import log_major, major, weak_major
import element_reference


def sample_frame(d, rng) -> JordanFrame:
    """The frame of a standard Gaussian element."""
    return spectral_decompose(random_element(d, rng, 1.0)).frame


def make_positive_map(d, kind: str, rng) -> PositiveLinearMap:
    """A positive map of one of the ``_MAP_KINDS``, built on operands drawn
    from rng as a sweep draws a row's (``_map_draws``, a batch of one): P_c
    with c a cone element on [0, 2) ("quad"), the Schur product with a PSD
    Gram multiplier on a random frame ("schur_psd"), or the composition of
    two P_c ("quad_compose")."""
    inp = verifiers._map_draws(d, [rng], np.array([verifiers._MAP_KINDS.index(kind)]))
    maps = [positive_quad_map(Element(d, f[1][0])) if f[0] == "quad"
            else positive_schur_map(SchurMatrix(f[1][0]),
                                    JordanFrame([Element(d, e) for e in f[2][0]]))
            for f in verifiers._row_factors(kind, inp, [0])]
    return maps[0] if len(maps) == 1 else compose_positive(*maps)


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
        with pytest.raises(ConeError, match="^a is not in the cone"):
            check_log_major_quadrep(-unit(d), unit(d))
        # inside the cone floor: a is admitted by the rule b is, and its
        # square root clamps the negative eigenvalue
        assert check_log_major_quadrep(from_matrix(np.diag([1.0, -1e-9])), unit(d)).passed

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

    def test_failing_composition_replays_from_its_factors(self):
        # compositions outside the registered map kinds, checked at atol -1
        # (a slack below 1 fails), rebuild from the witness's factors to the
        # same worst slack, bit for bit
        rng = np.random.default_rng(11)
        replayed = {2: 0, 3: 0}  # FAILs replayed, by number of factors
        for d in SMALL_CATALOG:
            quad = make_positive_map(d, "quad", rng)
            sch = make_positive_map(d, "schur_psd", rng)
            for P in (compose_positive(sch, quad),
                      compose_positive(quad, compose_positive(sch, quad))):
                rep = check_positive_map_sublinear(P, sample_general(d, rng), ABS_FN, atol=-1.0)
                if rep.passed:
                    continue
                w = json.loads(json.dumps(rep.witness))
                assert [f["kind"] for f in w["factors"]] == [f[0] for f in P.factors]
                again = check_positive_map_sublinear(map_from_json(w["factors"]),
                                                     element_from_json(w["x"]),
                                                     SublinearFn(*w["phi"]), atol=-1.0)
                assert not again.passed
                assert again.worst_slack.hex() == rep.worst_slack.hex()
                replayed[len(P.factors)] += 1
        assert all(replayed.values()), replayed


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

    def test_nested_sum_runs_as_its_flat_form(self):
        flat = DirectSum((SymMatrix(2), SpinFactor(3)))
        nested = DirectSum((SymMatrix(2), DirectSum((SpinFactor(3),))))
        assert nested == flat
        rng = np.random.default_rng(18)
        a, b = sample_general(nested, rng), sample_general(nested, rng)
        rep = check_jordan_weak(a, b)
        assert rep.passed and rep.descriptor == "sum:sym:2+spin:3"
        again = check_jordan_weak(Element(flat, a.coords), Element(flat, b.coords))
        assert rep.to_json() == again.to_json()

    def test_random_pairs_every_descriptor(self):
        rng = np.random.default_rng(17)
        for d in SMALL_CATALOG:
            for _ in range(25):
                rep = check_jordan_weak(sample_general(d, rng), sample_general(d, rng))
                assert rep.passed

    def test_eigenvalue_product_past_the_float_range_raises(self):
        # a o b = 0 from finite eigenvalues (1.4e154, 0) on each side, but
        # the right-hand side |lambda(a)| * |lambda(b)| overflows to inf: the
        # check raises, as eigvals does on a matrix whose norm overflows,
        # rather than hold with an infinite worst slack
        d = SpinFactor(3)
        a = Element(d, [0.7e154, 0.7e154, 0.0])
        b = Element(d, [0.7e154, -0.7e154, 0.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            check_jordan_weak(a, b)

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

    def test_multiplier_and_frame_come_together(self):
        d = SymMatrix(2)
        frame = sample_frame(d, np.random.default_rng(0))
        with pytest.raises(ValueError, match="together"):
            check_quadrep_pinch(unit(d), unit(d), frame=frame)
        with pytest.raises(ValueError, match="together"):
            check_quadrep_pinch(unit(d), unit(d), A=np.eye(2))


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

    def test_sample_invertible_gives_up_after_bounded_draws(self):
        with pytest.raises(ValueError, match=r"sym:2.*1e\+09"):
            sample_invertible(SymMatrix(2), np.random.default_rng(0), min_abs=1e9)

    def test_hopeless_floor_gives_up_after_one_rows_draws(self):
        # no draw clears a floor of 10 * atol = 10 at sigma 3: the chunk is
        # drawn once, then the first row that missed raises after its own
        # MAX_RESAMPLE_DRAWS draws, however many rows the chunk holds
        d = SymMatrix(3)
        rngs = [sample_rng(0, i) for i in range(50)]
        with pytest.raises(verifiers.ResampleError, match=r"1\.000e\+01 \(atol 1,"):
            verifiers._invertible_coords(d, rngs, atol=1.0)
        for i, rng in enumerate(rngs):
            ref = sample_rng(0, i)
            ref.normal(size=(verifiers.MAX_RESAMPLE_DRAWS if i == 0 else 1, d.dim))
            assert rng.bit_generator.state == ref.bit_generator.state


def assert_same_generators(seed, idx):
    rngs = sample_rngs(seed, idx)
    assert len(rngs) == len(idx)
    for i, rng in zip(idx, rngs):
        ref = sample_rng(seed, i)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.normal(size=5), ref.normal(size=5))
        assert rng.integers(1 << 62) == ref.integers(1 << 62)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSampleRngs:
    WORD = 2**32 - 1

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_fixed_cases_equal_sample_rng(self, seed):
        assert_same_generators(seed, [0, 1, 2, 2**31, self.WORD, 7])

    @pytest.mark.parametrize("seed", [2**32, 2**64 + 5])
    def test_seeds_of_several_words_equal_sample_rng(self, seed):
        assert_same_generators(seed, [0, 3, self.WORD])

    def test_indices_of_several_words_equal_sample_rng(self):
        assert_same_generators(5, [0, 2**32, 2**40 + 1])

    def test_empty_and_unordered_indices(self):
        assert sample_rngs(3, []) == []
        assert sample_rngs(3, range(0)) == []
        assert_same_generators(11, [9, 2, 40, 2, 0])
        assert_same_generators(11, np.arange(5, 0, -1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 2**32 - 1), max_size=6))
    def test_drawn_cases_equal_sample_rng(self, seed, idx):
        assert_same_generators(seed, idx)

    def test_generators_are_independent(self):
        rngs = sample_rngs(4, range(3))
        before = [rng.bit_generator.state for rng in rngs]
        rngs[1].normal(size=10)
        assert rngs[0].bit_generator.state == before[0]
        assert rngs[2].bit_generator.state == before[2]
        assert rngs[1].bit_generator.state != before[1]

    def test_kept_words_share_no_state(self):
        # a chunk derived again takes its kept words: the generators drawn
        # from before leave no trace in the new ones, and the words are
        # read-only
        seed, k = 20260809, 40
        for rng in sample_rngs(seed, range(k)):
            rng.normal(size=7)
        again = sample_rngs(seed, range(k))
        for i, rng in enumerate(again):
            assert rng.bit_generator.state == sample_rng(seed, i).bit_generator.state
        words = verifiers._cached_state_words(seed, tuple(range(k)))
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0, 0] = 0

    @pytest.mark.parametrize("seed,idx", [(-1, [0]), (0, [3, -1])])
    def test_negative_seed_or_index_raises(self, seed, idx):
        with pytest.raises(ValueError):
            sample_rngs(seed, idx)
        with pytest.raises(ValueError):
            sample_rng(seed, min(idx))

    def test_stream_definition_is_pinned(self):
        # a numpy release that changed the SeedSequence or PCG64 streams
        # would change every report; this fails first
        seed = 20260809
        assert sample_rng(seed, 0).bit_generator.state["state"] == {
            "state": 156029310237003609994223988333554112954,
            "inc": 54823769193091658474538912927356309143}
        assert sample_rng(seed, 9999).bit_generator.state["state"] == {
            "state": 302259487849187179390856588200369157997,
            "inc": 143511532060148288713824190816783344741}

    @pytest.mark.parametrize("low,high", [(verifiers.CONE_EIG_LOW, verifiers.CONE_EIG_HIGH),
                                          (0.0, 2.0)])
    def test_unit_draws_map_to_the_uniform_draws(self, low, high):
        # the cone samplers draw rng.random and map it as rng.uniform does
        u = sample_rng(8, 1).random(10_000)
        assert np.array_equal(verifiers._cone_eigs(u, low, high),
                              sample_rng(8, 1).uniform(low, high, 10_000))


def frame_from_json(objs):
    return JordanFrame(tuple(element_from_json(o) for o in objs))


def map_from_json(factors):
    """The positive map a witness records, rebuilt from its factors."""
    maps = [positive_quad_map(element_from_json(f["c"])) if f["kind"] == "quad"
            else positive_schur_map(SchurMatrix(f["A"]), frame_from_json(f["frame"]))
            for f in factors]
    P = maps[-1]
    for outer in reversed(maps[:-1]):
        P = compose_positive(outer, P)
    return P


def replay(check, w, atol, rtol):
    """The public check run on the inputs a sweep's witness records."""
    def el(key):
        return element_from_json(w[key])

    tol = {"atol": atol, "rtol": rtol}
    if check == "commuting_factors":
        return build_commuting_factors(el("a"), w["k"], **tol)[2]
    if check == "positive_map_sublinear":
        return check_positive_map_sublinear(map_from_json(w["factors"]), el("x"),
                                            SublinearFn(*w["phi"]), **tol)
    if check == "schur_diag":
        return check_schur_diag(SchurMatrix(w["A"]), frame_from_json(w["frame"]), el("b"),
                                SublinearFn(*w["phi"]), **tol)
    if check == "quadrep_pinch":
        return check_quadrep_pinch(el("a"), el("b"), A=SchurMatrix(w["A"]),
                                   frame=frame_from_json(w["frame"]), **tol)
    if check == "holder":
        return check_holder(el("a"), el("b"), w["r"], w["s"], **tol)
    if check == "quadrep_sublinear":
        return check_quadrep_sublinear(el("a"), el("b"), SublinearFn(*w["phi"]), **tol)
    fn = {"log_major_quadrep": check_log_major_quadrep, "jordan_weak": check_jordan_weak,
          "quadrep_sup_bound": check_quadrep_sup_bound}[check]
    return fn(el("a"), el("b"), **tol)


def per_sample_sweep(check, d, samples, seed, atol, rtol):
    """run_sweep as a plain loop: each sample drawn alone and run through the
    public check on the inputs its witness records."""
    runner = CHECK_RUNNERS[check]
    reports = [replay(check, runner.witness(d, runner.draw(d, [sample_rng(seed, i)], atol,
                                                           rtol), 0), atol, rtol)
               for i in range(samples)]
    return merge_reports(check, descriptor_to_spec(d), seed, reports)


def scalar_oracle(check, d, samples, seed, atol, rtol):
    """The sweep's check recomputed per sample with the scalar samplers and
    eigensolver and the reference predicates of ``majorization_reference``:
    (passed, worst slack, first failing sample, largest determinant error,
    scale of the tolerance bands)."""
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


def scalar_reference(check, d, inp, i, atol, rtol):
    """Row i of a batched draw decided one element at a time through the
    scalar spectral maps and the reference predicates, as the checks computed
    it one sample at a time: (passed, worst slack, largest spectral
    magnitude)."""
    def el(key, j=None):
        return Element(d, inp[key][i] if j is None else inp[key][i, j])

    def frame():
        return JordanFrame(tuple(Element(d, e) for e in inp["frame"][i]))

    def schur_of(x):  # through the frozen Peirce loop, not schur_rows
        return element_reference.schur(inp["A"][i], frame(), x)

    if "phi" in inp:
        phi = SublinearFn(*inp["phi"][i])
    if check == "quadrep_sup_bound":
        a, b = el("a"), el("b")
        lz = eigvals(quad_rep_sqrt(a, b))
        bound = eigvals(a)[0] * eigvals(b)
        worst = float((bound - lz).min())
        scale = max(1.0, float(np.abs(bound).max()), float(np.abs(lz).max()))
        return worst >= -(atol + rtol * scale), worst, scale
    if check == "holder":
        a, b, r, s = el("a"), el("b"), inp["r"][i], inp["s"][i]
        lhs = pnorm(jordan_product(a, b), holder_exponent(r, s))
        rhs = pnorm(a, r) * pnorm(b, s)
        return lhs <= rhs * (1.0 + rtol) + atol, rhs - lhs, rhs
    if check == "commuting_factors":
        a, k = el("a"), int(inp["k"][i])
        sd = spectral_decompose(a)
        order = np.argsort(-np.abs(sd.eigenvalues), kind="stable")
        av = sd.eigenvalues[order]
        on = JordanFrame(tuple(sd.frame.idempotents[j] for j in order))
        ak = abs(av[k - 1])
        xvals = np.concatenate([np.abs(av[:k]) / ak, np.ones(d.rank - k)])
        x = rebuild(on, xvals)
        y = rebuild(on, np.concatenate([ak * np.sign(av[:k]), av[k:]]))
        lmin = float(eigvals(x - unit(d))[-1])
        commute = operator_commutes(x, y)
        r1 = norm(quad_rep_sqrt(x, y) - a)
        r2 = norm(quad_rep(x, jordan_product(y, y)) - jordan_product(a, a))
        tol1, tol2 = atol + rtol * (1.0 + norm(a)), atol + rtol * (1.0 + norm(a) ** 2)
        det = float(np.prod(eigvals(x))) * pnorm(y, math.inf) ** k
        det_rel = abs(det - np.prod(np.abs(av[:k]))) / np.prod(np.abs(av[:k]))
        passed = (lmin >= -(atol + rtol * max(1.0, xvals.max())) and commute
                  and r1 <= tol1 and r2 <= tol2 and det_rel <= 1e-8)
        worst = min(lmin, tol1 - r1, tol2 - r2, 1e-8 - det_rel, 0.0 if commute else -1.0)
        return passed, worst, 1.0
    if check == "positive_map_sublinear":
        kind = verifiers._MAP_KINDS[inp["kind"][i]]
        if kind == "schur_psd":
            P = positive_schur_map(SchurMatrix(inp["A"][i]), frame())
        else:
            maps = [positive_quad_map(el("c", j)) for j in range(1 if kind == "quad" else 2)]
            P = maps[0] if kind == "quad" else compose_positive(*maps)
        x = el("x")
        pairs = [(eigvals(apply_sublinear(phi, P(x))), eigvals(P(apply_sublinear(phi, x))))]
    elif check == "quadrep_sublinear":
        a, b = el("a"), el("b")
        la = eigvals(a)
        pairs = [(eigvals(apply_sublinear(phi, quad_rep(a, b))),
                  sort_desc(la * la) * eigvals(apply_sublinear(phi, b)))]
    elif check == "schur_diag":
        b = el("b")
        phib = apply_sublinear(phi, b)
        lhs = eigvals(apply_sublinear(phi, schur_of(b)))
        pairs = [(lhs, sort_desc(np.diag(inp["A"][i])) * eigvals(phib)),
                 (lhs, eigvals(schur_of(phib)))]
    else:  # quadrep_pinch
        a, b = el("a"), el("b")
        c = rebuild(frame(), np.diag(inp["A"][i]))
        verdicts = [major(eigvals(quad_rep_sqrt(a, b)), eigvals(jordan_product(a, b)),
                          atol=atol, rtol=rtol),
                    major(eigvals(schur_of(b)), eigvals(quad_rep_sqrt(c, b)),
                          atol=atol, rtol=rtol)]
        return (all(v.holds for v in verdicts), min(v.worst_slack for v in verdicts),
                d.rank * max(float(np.abs(eigvals(a)).max()), 1.0) * norm(b))
    verdicts = [weak_major(p, q, atol=atol, rtol=rtol) for p, q in pairs]
    scale = d.rank * max(float(np.abs(np.concatenate(pair)).max()) for pair in pairs)
    return all(v.holds for v in verdicts), min(v.worst_slack for v in verdicts), scale


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# (atol, rtol) per check at which one of the first dozen samples fails on
# every CATALOG algebra: a negative atol demands a margin larger than the
# slacks those samples have.  The checks that require cone inputs keep atol
# small, so that their cone floors stay below the sampled eigenvalues
# (>= 0.05); the sup bound's margins exceed that, so a negative rtol fails it.
FAILING_TOL = {
    "log_major_quadrep": (-1e-3, 1e-8),
    "quadrep_pinch": (-1e-3, 1e-8),
    "quadrep_sup_bound": (0.0, -1.0),
    "commuting_factors": (-1e-3, 1e-8),
    "positive_map_sublinear": (-1.0, 1e-8),
    "schur_diag": (-10.0, 1e-8),
    "jordan_weak": (-50.0, 1e-8),
    "quadrep_sublinear": (-50.0, 1e-8),
    "holder": (-50.0, 1e-8),
}


def report_text(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


class TestBatchedSweep:
    SAMPLES = 40

    def test_every_runner_has_a_row_evaluation(self):
        for name, runner in CHECK_RUNNERS.items():
            assert callable(getattr(runner, "draw", None)), name
            assert callable(getattr(runner, "rows", None)), name

    def test_pairs_draw_what_the_samplers_draw(self):
        for d in CATALOG:
            cone = verifiers._cone_pairs(d, [sample_rng(6, i) for i in range(8)])
            general = verifiers._general_pairs(d, [sample_rng(6, i) for i in range(8)])
            for i in range(8):
                rng = sample_rng(6, i)
                for key in ("a", "b"):
                    assert np.array_equal(cone[key][i], sample_cone(d, rng).coords)
                rng = sample_rng(6, i)
                for key in ("a", "b"):
                    assert np.array_equal(general[key][i], sample_general(d, rng).coords)

    @pytest.mark.parametrize("d", CATALOG, ids=descriptor_to_spec)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    @example(seed=6, n=8)
    def test_draws_take_what_the_samplers_draw(self, d, seed, n):
        # every batched draw, on a chunk of n generators, takes from each
        # generator what the scalar samplers take, in the same order, and
        # what a decomposition derives from the draws has the same bits: a
        # sampler's decomposition is a batch of one
        def same(x, y):
            np.testing.assert_array_equal(x, y)

        def frame(f):
            return np.stack([e.coords for e in f.idempotents])

        inputs = {check: CHECK_RUNNERS[check].draw(d, sample_rngs(seed, range(n)), 1e-9, 1e-8)
                  for check in CHECK_RUNNERS}
        phis = verifiers._PHI_CHOICES
        for i in range(n):
            rng = sample_rng(seed, i)
            for key in ("a", "b"):
                same(inputs["log_major_quadrep"][key][i], sample_cone(d, rng).coords)

            rng = sample_rng(seed, i)
            for key in ("a", "b"):
                same(inputs["jordan_weak"][key][i], sample_general(d, rng).coords)

            rng = sample_rng(seed, i)
            inp = inputs["holder"]
            assert (inp["r"][i], inp["s"][i]) == verifiers._HOLDER_GRID[rng.integers(7)]
            for key in ("a", "b"):
                assert np.array_equal(inp[key][i], sample_general(d, rng).coords)

            rng = sample_rng(seed, i)
            inp = inputs["quadrep_sublinear"]
            phi = verifiers.sample_sublinear(rng)
            assert tuple(inp["phi"][i]) == (phi.alpha, phi.beta)
            for key in ("a", "b"):
                assert np.array_equal(inp[key][i], sample_general(d, rng).coords)

            rng = sample_rng(seed, i)
            inp = inputs["commuting_factors"]
            assert np.array_equal(inp["a"][i], sample_invertible(d, rng).coords)
            assert inp["k"][i] == rng.integers(1, d.rank + 1)

            rng = sample_rng(seed, i)
            inp = inputs["schur_diag"]
            assert np.array_equal(inp["A"][i], SchurMatrix(sample_psd_gram(d.rank, rng)).entries)
            same(inp["frame"][i], frame(sample_frame(d, rng)))
            phi = phis[rng.integers(3)]
            assert tuple(inp["phi"][i]) == (phi.alpha, phi.beta)
            assert np.array_equal(inp["b"][i], sample_general(d, rng).coords)

            rng = sample_rng(seed, i)
            inp = inputs["quadrep_pinch"]
            assert np.array_equal(inp["A"][i], SchurMatrix(sample_psd_gram(d.rank, rng)).entries)
            same(inp["frame"][i], frame(sample_frame(d, rng)))
            same(inp["a"][i], sample_cone(d, rng).coords)
            assert np.array_equal(inp["b"][i], sample_general(d, rng).coords)

            rng = sample_rng(seed, i)
            inp = inputs["positive_map_sublinear"]
            kind = verifiers._MAP_KINDS[rng.integers(3)]
            assert verifiers._MAP_KINDS[inp["kind"][i]] == kind
            phi = phis[rng.integers(3)]
            assert tuple(inp["phi"][i]) == (phi.alpha, phi.beta)
            state = rng.bit_generator.state
            P = make_positive_map(d, kind, rng)
            for j, factor in enumerate(P.factors):
                if factor[0] == "quad":
                    same(inp["c"][i, j], factor[1].coords)
                else:
                    assert np.array_equal(inp["A"][i], factor[1].entries)
                    same(inp["frame"][i], frame(factor[2]))
            assert np.array_equal(inp["x"][i], sample_general(d, rng).coords)
            # make_positive_map draws its operands as the scalar samplers do
            rng.bit_generator.state = state
            if kind == "schur_psd":
                assert np.array_equal(inp["A"][i],
                                      SchurMatrix(sample_psd_gram(d.rank, rng)).entries)
                same(inp["frame"][i], frame(sample_frame(d, rng)))
            else:
                for j in range(1 if kind == "quad" else 2):
                    same(inp["c"][i, j], sample_cone(d, rng, 0.0, 2.0).coords)

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

    @pytest.mark.parametrize("failing", [False, True], ids=["default", "failing"])
    @pytest.mark.parametrize("check", sorted(set(CHECK_RUNNERS)
                                             - {"log_major_quadrep", "jordan_weak"}))
    def test_matches_the_scalar_reference(self, check, failing):
        # the batched rows decide every sample as the scalar arithmetic does,
        # with worst slacks inside the tolerance band
        atol, rtol = FAILING_TOL[check] if failing else (1e-9, 1e-8)
        runner = CHECK_RUNNERS[check]
        for d in CATALOG:
            inp = runner.draw(d, [sample_rng(20260809, i) for i in range(15)], atol, rtol)
            passed, worst, _ = runner.rows(d, inp, atol, rtol)
            for i in range(15):
                want, want_worst, scale = scalar_reference(check, d, inp, i, atol, rtol)
                assert passed[i] == want, (descriptor_to_spec(d), i)
                assert abs(worst[i] - want_worst) <= 1e-9 + 1e-8 * scale, (d, i)

    @pytest.mark.parametrize("failing", [False, True], ids=["default", "failing"])
    @pytest.mark.parametrize("check", sorted(CHECK_RUNNERS))
    def test_sweep_is_the_per_sample_loop(self, check, failing):
        # every report field, witness included, equals the runner's one
        # sample at a time, at the default tolerance and at one that fails
        atol, rtol = FAILING_TOL[check] if failing else (1e-9, 1e-8)
        failed = []
        for d in CATALOG:
            got = run_sweep(check, d, 12, 3, atol=atol, rtol=rtol)
            ref = per_sample_sweep(check, d, 12, 3, atol, rtol)
            assert report_text(got) == report_text(ref), descriptor_to_spec(d)
            failed.append(not got.passed)
        assert all(failed) if failing else not any(failed)

    @pytest.mark.parametrize("d", [SymMatrix(3), SpinFactor(4), CATALOG[-1]])
    def test_zero_tolerance_witness_is_the_reference_witness(self, d):
        # at zero tolerance the product equality at k = n fails on roundoff,
        # so samples fail and every report field, witness included, must be
        # the per-sample loop's
        got = run_sweep("log_major_quadrep", d, 15, 3, atol=0.0, rtol=0.0)
        ref = per_sample_sweep("log_major_quadrep", d, 15, 3, 0.0, 0.0)
        assert not got.passed and not ref.passed
        assert report_text(got) == report_text(ref)

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
        assert report_text(got) == report_text(ref)
        passed, worst, oracle_first, _, scale = scalar_oracle(check, d, 40, 3, atol, 1e-8)
        assert not passed and oracle_first == first
        assert abs(got.worst_slack - worst) <= abs(atol) + 1e-8 * scale

    @pytest.mark.parametrize("check,d,atol,rtol", [
        ("log_major_quadrep", SymMatrix(3), 0.0, 0.0),
        ("log_major_quadrep", SpinFactor(4), 0.0, 0.0),
        ("log_major_quadrep", CATALOG[-1], 0.0, 0.0),
        ("jordan_weak", SymMatrix(3), -0.5, 1e-8),
        ("jordan_weak", SpinFactor(4), -0.5, 1e-8),
    ] + [(check, d, *FAILING_TOL[check])
         for check in sorted(set(CHECK_RUNNERS) - {"log_major_quadrep", "jordan_weak"})
         for d in (SymMatrix(3), SpinFactor(4), CATALOG[-1])])
    def test_witness_replays_through_the_check(self, check, d, atol, rtol):
        # the witness, read back from JSON, fails the public check with the
        # worst slack its row has in the sweep, to the bit
        rep = run_sweep(check, d, 40, 3, atol=atol, rtol=rtol)
        i = rep.witness["sample_index"]
        runner = CHECK_RUNNERS[check]
        inputs = runner.draw(d, [sample_rng(3, j) for j in range(40)], atol, rtol)
        passed, slack, _ = runner.rows(d, inputs, atol, rtol)
        replayed = replay(check, json.loads(json.dumps(rep.witness)), atol, rtol)
        assert not passed[i] and not replayed.passed
        assert bits(replayed.worst_slack) == bits(slack[i])

    @pytest.mark.parametrize("failing", [False, True], ids=["default", "failing"])
    @pytest.mark.parametrize("check", sorted(CHECK_RUNNERS))
    def test_single_check_is_its_row(self, check, failing):
        # the public check on a row's witness reports that row of a batch:
        # its verdict, the bits of its worst slack, its witness and its
        # non-NaN details, by their own names
        atol, rtol = FAILING_TOL[check] if failing else (1e-9, 1e-8)
        runner = CHECK_RUNNERS[check]
        for d in CATALOG:
            inp = runner.draw(d, sample_rngs(20260809, range(12)), atol, rtol)
            passed, worst, rows = runner.rows(d, inp, atol, rtol)
            for i in range(5):
                witness = runner.witness(d, inp, i)
                rep = replay(check, json.loads(json.dumps(witness)), atol, rtol)
                where = (descriptor_to_spec(d), i)
                assert rep.passed == passed[i], where
                assert bits(rep.worst_slack) == bits(worst[i]), where
                assert rep.witness == (None if passed[i] else witness), where
                want = {key: vals[i].item() for key, vals in rows.items()
                        if not np.isnan(vals[i])}
                # build_commuting_factors also reports its four conditions
                got = {key: val for key, val in rep.details.items()
                       if not isinstance(val, bool)}
                assert got == want, where

    def test_every_public_check_is_one_row_evaluation(self, monkeypatch):
        # each public check decides through its runner's rows, called once,
        # and never through a scalar predicate; a positive map, which need
        # not be one of the registered kinds, goes through the rows' shared
        # verdict step
        calls = []
        for name, runner in CHECK_RUNNERS.items():
            def spy(*args, name=name, rows=runner.rows):
                calls.append(name)
                return rows(*args)
            monkeypatch.setitem(CHECK_RUNNERS, name, dataclasses.replace(runner, rows=spy))
        verdict = verifiers._positive_map_verdict
        monkeypatch.setattr(verifiers, "_positive_map_verdict",
                            lambda *args: calls.append("map verdict") or verdict(*args))

        def forbidden(*args, **kwargs):
            raise AssertionError("a scalar predicate decided a check")

        monkeypatch.setattr(verifiers, "weak_major", forbidden)
        rng = np.random.default_rng(30)
        d = SymMatrix(3)
        a, b, x = sample_cone(d, rng), sample_cone(d, rng), sample_general(d, rng)
        A, frame = SchurMatrix(sample_psd_gram(3, rng)), sample_frame(d, rng)
        built = make_positive_map(d, "quad_compose", rng)
        cases = [
            ("log_major_quadrep", lambda: check_log_major_quadrep(a, b)),
            ("quadrep_sup_bound", lambda: check_quadrep_sup_bound(a, b)),
            ("map verdict", lambda: check_positive_map_sublinear(built, x, ABS_FN)),
            ("quadrep_sublinear", lambda: check_quadrep_sublinear(x, b, ABS_FN)),
            ("schur_diag", lambda: check_schur_diag(A, frame, x, NEG_FN)),
            ("jordan_weak", lambda: check_jordan_weak(x, b)),
            ("quadrep_pinch", lambda: check_quadrep_pinch(a, x)),
            ("quadrep_pinch", lambda: check_quadrep_pinch(a, x, A=A, frame=frame)),
            ("holder", lambda: check_holder(x, b, 3.0, 1.5)),
        ]
        for name, run in cases:
            calls.clear()
            assert run().passed, name
            assert calls == [name]

    def test_chunking_does_not_change_the_report(self, monkeypatch):
        d = CATALOG[-1]
        for check in sorted(CHECK_RUNNERS):
            for atol, rtol in ((1e-9, 1e-8), FAILING_TOL[check]):
                whole = run_sweep(check, d, 25, 8, atol=atol, rtol=rtol).to_json()
                with monkeypatch.context() as patch:
                    patch.setattr(verifiers, "SWEEP_CHUNK", 7)
                    chunked = run_sweep(check, d, 25, 8, atol=atol, rtol=rtol).to_json()
                assert chunked == whole, check

    def test_passing_sweep_builds_no_elements(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a passing sample was serialized")

        monkeypatch.setattr(verifiers, "element_to_json", forbidden)
        for check in sorted(CHECK_RUNNERS):
            assert run_sweep(check, SymMatrix(3), 30, 1).passed, check
