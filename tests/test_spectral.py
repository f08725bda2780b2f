"""Spectral decompositions, frames, spectral functions, and their invariants."""

import math
import warnings

import numpy as np
import pytest

from symcone.algebra import (
    DirectSum,
    Element,
    SpinFactor,
    SymMatrix,
    from_matrix,
    inner,
    jordan_product,
    norm,
    random_cone_element,
    random_element,
    unit,
)
from symcone.majorization import sort_desc
from symcone.spectral import (
    ConeError,
    abs_el,
    det,
    eigvals,
    eigvals_batch,
    frame_residuals,
    pnorm,
    rebuild,
    spectral_decompose,
    spectral_decompose_batch,
    sqrt_el,
    standard_frame,
    trace,
)
from symcone.transforms import NEG_FN, POS_FN, apply_sublinear

from conftest import CATALOG, SMALL_CATALOG


class TestDecomposition:
    def test_spin_closed_form(self):
        x = Element(SpinFactor(3), [3.0, 4.0, 0.0])
        sd = spectral_decompose(x)
        np.testing.assert_allclose(sd.eigenvalues, [7.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(sd.frame.idempotents[0].coords, [0.5, 0.5, 0.0])
        np.testing.assert_allclose(sd.frame.idempotents[1].coords, [0.5, -0.5, 0.0])

    def test_unit_eigenvalues(self):
        for d in SMALL_CATALOG:
            np.testing.assert_allclose(eigvals(unit(d)), np.ones(d.rank), atol=1e-14)

    def test_fixed_sym2(self):
        x = from_matrix(np.array([[8.0, 3.0], [3.0, 0.0]]))
        np.testing.assert_allclose(eigvals(x), [9.0, -1.0], atol=1e-12)
        y = from_matrix(np.array([[0.0, 3.0], [3.0, 8.0]]))
        np.testing.assert_allclose(eigvals(y), [9.0, -1.0], atol=1e-12)

    def test_frame_invariants(self):
        rng = np.random.default_rng(0)
        for d in CATALOG:
            for _ in range(20):
                sd = spectral_decompose(random_element(d, rng, 3.0))
                res = frame_residuals(sd.frame)
                assert res["idempotency"] <= 1e-10
                assert res["orthonormality"] <= 1e-10
                assert res["unit_sum"] <= 1e-9

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for d in CATALOG:
            for _ in range(20):
                x = random_element(d, rng, 3.0)
                sd = spectral_decompose(x)
                assert norm(rebuild(sd.frame, sd.eigenvalues) - x) <= 1e-9 * (1.0 + norm(x))
                assert np.all(np.diff(sd.eigenvalues) <= 1e-12)

    def test_degenerate_spin_direction(self):
        x = Element(SpinFactor(4), [2.0, 0.0, 0.0, 0.0])
        sd = spectral_decompose(x)
        np.testing.assert_allclose(sd.eigenvalues, [2.0, 2.0])
        np.testing.assert_allclose(sd.frame.idempotents[0].coords, [0.5, 0.5, 0, 0])

    def test_standard_frames_valid(self):
        for d in CATALOG:
            res = frame_residuals(standard_frame(d))
            assert max(res.values()) <= 1e-12


class TestEigvals:
    def test_scaled_unit(self):
        for d in SMALL_CATALOG:
            np.testing.assert_allclose(
                eigvals(2.5 * unit(d)), np.full(d.rank, 2.5), atol=1e-14
            )

    def test_negation_reverses(self):
        rng = np.random.default_rng(2)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 3.0)
            np.testing.assert_allclose(
                eigvals(-x), -eigvals(x)[::-1], atol=1e-10 * (1.0 + norm(x))
            )

    def test_order_preserved_under_cone(self):
        rng = np.random.default_rng(3)
        for d in SMALL_CATALOG:
            for _ in range(30):
                x = random_element(d, rng, 2.0)
                y = x + random_cone_element(d, rng, 1.0)
                lx, ly = eigvals(x), eigvals(y)
                tol = 1e-9 * (1.0 + max(norm(x), norm(y)))
                assert np.all(lx <= ly + tol)


    @pytest.mark.parametrize("d", [SpinFactor(3), DirectSum((SymMatrix(2), SpinFactor(3)))],
                             ids=["spin:3", "sum:sym:2+spin:3"])
    @pytest.mark.parametrize("bad", [(1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                                     (1.0, 1e200, 1e200), (-1e308, 1e308, 0.0)],
                             ids=["nan", "inf", "radius-overflow", "eigenvalue-overflow"])
    def test_batched_spin_gate(self, d, bad):
        # the batched twin of the scalar spin gate: a spin block whose
        # eigenvalues x0 +- ||xbar|| are not finite is rejected, and the
        # overflow on the way stays silent
        X = np.ones((3, d.dim))
        X[1, -3:] = bad  # the spin:3 block (x0, xbar) of either algebra
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (eigvals_batch, spectral_decompose_batch):
                with pytest.raises(ValueError, match="non-finite"):
                    fn(d, X)
                fn(d, X[[0, 2]])  # the finite rows alone pass
            with pytest.raises(ValueError, match="non-finite"):
                eigvals(Element(d, X[1]))


class TestLowner:
    """Spectral (Loewner) functions: a scalar function applied to the
    eigenvalues on the element's own frame."""

    def test_abs_on_spin(self):
        x = Element(SpinFactor(3), [3.0, 4.0, 0.0])
        np.testing.assert_allclose(abs_el(x).coords, [4.0, 3.0, 0.0], atol=1e-14)

    def test_sqrt_of_unit(self):
        for d in SMALL_CATALOG:
            assert norm(sqrt_el(unit(d)) - unit(d)) <= 1e-12


class TestSpectralParts:
    def test_abs_of_fixed_product(self):
        x = from_matrix(np.array([[9.0, 24.0], [24.0, 9.0]]))
        np.testing.assert_allclose(eigvals(abs_el(x)), [33.0, 15.0], atol=1e-10)

    def test_plus_part_of_negative_unit(self):
        for d in SMALL_CATALOG:
            assert norm(apply_sublinear(POS_FN, -unit(d))) == 0.0

    def test_minus_part_of_negative_unit(self):
        for d in SMALL_CATALOG:
            assert norm(apply_sublinear(NEG_FN, -unit(d)) - unit(d)) <= 1e-14

    def test_sqrt_of_square_is_abs(self):
        rng = np.random.default_rng(5)
        for d in SMALL_CATALOG:
            for _ in range(20):
                a = random_element(d, rng, 2.0)
                lhs = sqrt_el(jordan_product(a, a))
                assert norm(lhs - abs_el(a)) <= 1e-8 * (1.0 + norm(a))

    def test_parts_recombine(self):
        rng = np.random.default_rng(6)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 3.0)
            plus, minus = apply_sublinear(POS_FN, x), apply_sublinear(NEG_FN, x)
            assert norm(plus - minus - x) <= 1e-9 * (1 + norm(x))
            assert norm(plus + minus - abs_el(x)) <= 1e-9 * (1 + norm(x))

    def test_sqrt_outside_cone_raises(self):
        with pytest.raises(ConeError):
            sqrt_el(-unit(SymMatrix(2)))


class TestScalarFunctions:
    def test_trace_of_unit_is_rank(self):
        for d in CATALOG:
            assert abs(trace(unit(d)) - d.rank) <= 1e-12

    def test_det_spin(self):
        assert abs(det(Element(SpinFactor(3), [3.0, 4.0, 0.0])) + 7.0) <= 1e-12

    def test_pnorm_of_unit(self):
        e = unit(SymMatrix(3))
        assert pnorm(e, math.inf) == 1.0
        assert pnorm(e, 1) == 3.0
        assert abs(pnorm(e, 2) - math.sqrt(3.0)) <= 1e-14

    def test_pnorm_rejects_small_p(self):
        with pytest.raises(ValueError):
            pnorm(unit(SymMatrix(2)), 0.5)

    def test_sk_equals_trace_at_full_rank(self):
        rng = np.random.default_rng(7)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 2.0)
            top = float(eigvals(x)[:d.rank].sum())
            assert abs(top - trace(x)) <= 1e-9 * (1.0 + abs(trace(x)))


class TestVariationalProperties:
    def test_sk_maximizes_over_rank_k_idempotents(self):
        rng = np.random.default_rng(8)
        for d in SMALL_CATALOG:
            for _ in range(20):
                x = random_element(d, rng, 2.0)
                other = spectral_decompose(random_element(d, rng, 1.0)).frame
                own = spectral_decompose(x).frame
                for k in range(1, d.rank + 1):
                    top = float(eigvals(x)[:k].sum())
                    tol = 1e-9 * (1.0 + abs(top))
                    idx = rng.permutation(d.rank)[:k]
                    c = other.idempotents[idx[0]]
                    for i in idx[1:]:
                        c = c + other.idempotents[i]
                    assert inner(x, c) <= top + tol
                    c_own = own.idempotents[0]
                    for i in range(1, k):
                        c_own = c_own + own.idempotents[i]
                    assert abs(inner(x, c_own) - top) <= tol

    def test_inner_product_bounded_by_eigenvalue_pairing(self):
        rng = np.random.default_rng(9)
        for d in SMALL_CATALOG:
            for _ in range(50):
                x = random_element(d, rng, 3.0)
                y = random_element(d, rng, 3.0)
                lx, ly = eigvals(x), eigvals(y)
                tol = 1e-9 * (1.0 + norm(x) * norm(y))
                first = float(np.dot(lx, ly))
                second = float(np.dot(sort_desc(np.abs(lx)), sort_desc(np.abs(ly))))
                assert inner(x, y) <= first + tol
                assert first <= second + tol

    def test_rebuild_matches_manual_sum(self):
        rng = np.random.default_rng(10)
        d = DirectSum((SymMatrix(2), SpinFactor(3)))
        sd = spectral_decompose(random_element(d, rng, 2.0))
        manual = sd.eigenvalues[0] * sd.frame.idempotents[0]
        for v, e in zip(sd.eigenvalues[1:], sd.frame.idempotents[1:]):
            manual = manual + v * e
        assert norm(rebuild(sd.frame, sd.eigenvalues) - manual) <= 1e-12
