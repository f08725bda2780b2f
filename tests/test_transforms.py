"""Transformations: multiplication/quadratic maps, Peirce and Schur products,
operator matrices, sublinear spectral maps, positivity machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcone.algebra import (
    Element,
    SymMatrix,
    from_matrix,
    from_orthonormal,
    inner,
    jordan_product,
    norm,
    random_cone_element,
    random_element,
    to_orthonormal,
    unit,
    zero,
)
from symcone.majorization import major
from symcone.spectral import (
    JordanFrame,
    abs_el,
    det,
    eigvals,
    pnorm,
    spectral_decompose,
    standard_frame,
)
from symcone.transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    FrameError,
    PositivityError,
    SchurMatrix,
    SublinearFn,
    apply_sublinear,
    as_matrix,
    certify_positive_by_sampling,
    compose_positive,
    lyap,
    lyap_map,
    lyap_multiplier,
    peirce_project,
    peirce_projectors,
    positive_quad_map,
    positive_schur_map,
    quad_multiplier,
    quad_rep,
    quad_rep_map,
    quad_rep_sqrt,
    schur,
    schur_matrix,
    validate_frame,
)

from conftest import CATALOG, SMALL_CATALOG


class TestLyapAndQuad:
    def test_lyap_unit(self):
        rng = np.random.default_rng(0)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 2.0)
            assert norm(lyap(unit(d), x) - x) == 0.0
            assert norm(lyap(x, unit(d)) - x) == 0.0

    def test_lyap_fixed_pair(self):
        a = from_matrix(np.array([[8.0, 3.0], [3.0, 0.0]]))
        b = from_matrix(np.array([[0.0, 3.0], [3.0, 8.0]]))
        np.testing.assert_allclose(lyap(a, b).as_matrix(), [[9.0, 24.0], [24.0, 9.0]])

    def test_quad_of_unit_argument(self):
        rng = np.random.default_rng(1)
        for d in SMALL_CATALOG:
            a = random_element(d, rng, 2.0)
            a2 = jordan_product(a, a)
            assert norm(quad_rep(a, unit(d)) - a2) <= 1e-12 * (1 + norm(a2))
            x = random_element(d, rng, 2.0)
            assert norm(quad_rep(unit(d), x) - x) <= 1e-12 * (1 + norm(x))

    def test_quad_matches_matrix_congruence(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                a = random_element(SymMatrix(n), rng, 2.0)
                x = random_element(SymMatrix(n), rng, 2.0)
                lhs = quad_rep(a, x).as_matrix()
                rhs = a.as_matrix() @ x.as_matrix() @ a.as_matrix()
                scale = max(1.0, np.abs(rhs).max())
                assert np.abs(lhs - rhs).max() <= 1e-10 * scale


class TestQuadRepSqrt:
    def test_unit_base(self):
        rng = np.random.default_rng(3)
        for d in SMALL_CATALOG:
            b = random_element(d, rng, 2.0)
            assert norm(quad_rep_sqrt(unit(d), b) - b) <= 1e-10 * (1 + norm(b))

    def test_determinant_multiplies(self):
        rng = np.random.default_rng(4)
        for d in SMALL_CATALOG:
            for _ in range(20):
                a = random_cone_element(d, rng, 2.0) + 0.05 * unit(d)
                b = random_element(d, rng, 2.0)
                lhs = det(quad_rep_sqrt(a, b))
                rhs = det(a) * det(b)
                assert abs(lhs - rhs) <= 1e-8 * max(1e-12, abs(rhs))

    def test_swap_symmetry(self):
        rng = np.random.default_rng(5)
        for d in SMALL_CATALOG:
            for _ in range(20):
                a = random_cone_element(d, rng, 2.0)
                b = random_cone_element(d, rng, 2.0)
                l1 = eigvals(quad_rep_sqrt(a, b))
                l2 = eigvals(quad_rep_sqrt(b, a))
                assert np.abs(l1 - l2).max() <= 1e-8 * (1.0 + np.abs(l1).max())


class TestPeirce:
    def test_frame_element_projects_to_itself(self):
        rng = np.random.default_rng(6)
        for d in SMALL_CATALOG:
            frame = spectral_decompose(random_element(d, rng, 1.0)).frame
            k = int(rng.integers(d.rank))
            comps = peirce_project(frame, frame.idempotents[k])
            for (i, j), c in comps.items():
                if (i, j) == (k, k):
                    assert norm(c - frame.idempotents[k]) <= 1e-9
                else:
                    assert norm(c) <= 1e-9

    def test_fixed_offdiagonal_component(self):
        d = SymMatrix(2)
        x = from_matrix(np.array([[0.0, 3.0], [3.0, 8.0]]))
        comps = peirce_project(standard_frame(d), x)
        np.testing.assert_allclose(
            comps[(0, 1)].as_matrix(), [[0.0, 3.0], [3.0, 0.0]], atol=1e-12
        )

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for d in SMALL_CATALOG:
            for _ in range(10):
                frame = spectral_decompose(random_element(d, rng, 1.0)).frame
                x = random_element(d, rng, 3.0)
                comps = peirce_project(frame, x)
                total = zero(d)
                for c in comps.values():
                    total = total + c
                assert norm(total - x) <= 1e-9 * (1.0 + norm(x))
                keys = list(comps)
                for ki in range(len(keys)):
                    for kj in range(ki + 1, len(keys)):
                        g = inner(comps[keys[ki]], comps[keys[kj]])
                        assert abs(g) <= 1e-9 * (1.0 + norm(x) ** 2)

    def test_invalid_frame_rejected(self):
        d = SymMatrix(2)
        bogus = JordanFrame((unit(d), unit(d)))
        with pytest.raises(FrameError):
            peirce_project(bogus, unit(d))


class TestSchur:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(8)
        for d in SMALL_CATALOG:
            frame = spectral_decompose(random_element(d, rng, 1.0)).frame
            x = random_element(d, rng, 3.0)
            A = np.ones((d.rank, d.rank))
            assert norm(schur(A, frame, x) - x) <= 1e-9 * (1.0 + norm(x))

    def test_multiplication_multiplier(self):
        rng = np.random.default_rng(9)
        for d in SMALL_CATALOG:
            a = random_element(d, rng, 2.0)
            x = random_element(d, rng, 2.0)
            sd = spectral_decompose(a)
            A = lyap_multiplier(sd.eigenvalues)
            out = schur(A, sd.frame, x)
            assert norm(out - lyap(a, x)) <= 1e-9 * (1.0 + norm(x) * norm(a))

    def test_quadratic_multiplier(self):
        rng = np.random.default_rng(10)
        for d in SMALL_CATALOG:
            a = random_element(d, rng, 2.0)
            x = random_element(d, rng, 2.0)
            sd = spectral_decompose(a)
            A = quad_multiplier(sd.eigenvalues)
            out = schur(A, sd.frame, x)
            assert norm(out - quad_rep(a, x)) <= 1e-9 * (1.0 + norm(x) * norm(a) ** 2)

    def test_size_mismatch(self):
        d = SymMatrix(3)
        with pytest.raises(ValueError):
            schur(np.ones((2, 2)), standard_frame(d), unit(d))

    def test_identity_multiplier_is_diagonal_pinch(self):
        rng = np.random.default_rng(11)
        d = SymMatrix(3)
        frame = standard_frame(d)
        x = random_element(d, rng, 2.0)
        out = schur(np.eye(3), frame, x)
        np.testing.assert_allclose(
            out.as_matrix(), np.diag(np.diag(x.as_matrix())), atol=1e-12
        )


_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def schur_cases(draw):
    """(multiplier, frame, element): the frame is the standard one or the
    frame of a drawn element's spectral decomposition."""
    d = draw(st.sampled_from(CATALOG))
    G = draw(arrays(np.float64, (d.rank, d.rank), elements=_coord))
    b = Element(d, draw(arrays(np.float64, d.dim, elements=_coord)))
    if draw(st.booleans()):
        frame = standard_frame(d)
    else:
        x = Element(d, draw(arrays(np.float64, d.dim, elements=_coord)))
        frame = spectral_decompose(x).frame
    return (G + G.T) / 2.0, frame, b


class TestSchurMatrix:
    @settings(max_examples=150, deadline=None)
    @given(schur_cases())
    def test_matches_scalar_schur(self, case):
        # A . x is linear in x; its matrix from the Peirce projectors acts
        # as the scalar Schur product does
        A, frame, b = case
        got = schur_matrix(A, peirce_projectors(frame)) @ b.coords
        want = schur(A, frame, b).coords
        scale = max(1.0, np.abs(A).max()) * max(1.0, np.abs(b.coords).max())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_projectors_are_the_peirce_components(self):
        d = CATALOG[-1]
        frame = standard_frame(d)
        P = peirce_projectors(frame)
        b = random_element(d, np.random.default_rng(4), 2.0)
        comps = peirce_project(frame, b)
        for i in range(len(frame)):
            for j in range(len(frame)):
                want = comps[(i, j)].coords if i <= j else np.zeros(d.dim)
                np.testing.assert_allclose(P[i, j] @ b.coords, want, atol=1e-14)


class TestSchurMatrixIO:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SchurMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_csv_roundtrip(self, tmp_path):
        A = SchurMatrix(np.array([[1.0, 0.25], [0.25, -2.0]]))
        path = tmp_path / "m.csv"
        A.to_csv(path)
        B = SchurMatrix.from_csv(path)
        assert np.array_equal(A.entries, B.entries)

    def test_json_roundtrip(self, tmp_path):
        import json

        A = SchurMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(A.to_json_obj()))
        B = SchurMatrix.from_json(path)
        assert np.array_equal(A.entries, B.entries)


class TestOperatorMatrices:
    def test_unit_multiplication_is_identity(self):
        for d in SMALL_CATALOG:
            M = as_matrix(lyap_map(unit(d)), d)
            np.testing.assert_allclose(M, np.eye(d.dim), atol=1e-12)

    def test_multiplication_operator_self_adjoint(self):
        rng = np.random.default_rng(12)
        for d in SMALL_CATALOG:
            a = random_element(d, rng, 2.0)
            M = as_matrix(lyap_map(a), d)
            assert np.abs(M - M.T).max() <= 1e-10 * (1.0 + np.abs(M).max())

    def test_action_agreement(self):
        rng = np.random.default_rng(13)
        for d in SMALL_CATALOG:
            a = random_element(d, rng, 2.0)
            for op in (lyap_map(a), quad_rep_map(a)):
                M = as_matrix(op, d)
                for _ in range(20):
                    x = random_element(d, rng, 2.0)
                    lhs = M @ to_orthonormal(x)
                    rhs = to_orthonormal(op(x))
                    scale = 1.0 + np.abs(rhs).max()
                    assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_orthonormal_roundtrip(self):
        rng = np.random.default_rng(14)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 3.0)
            y = from_orthonormal(d, to_orthonormal(x))
            assert norm(y - x) <= 1e-14 * (1.0 + norm(x))


class TestSublinear:
    def test_validation(self):
        with pytest.raises(ValueError):
            SublinearFn(0.0, 1.0)

    def test_nonnegative_flag(self):
        assert ABS_FN.is_nonnegative and POS_FN.is_nonnegative and NEG_FN.is_nonnegative
        assert not SublinearFn(1.0, 1.0).is_nonnegative
        assert not SublinearFn(-0.5, -1.0).is_nonnegative

    def test_abs_matches_spectral_abs(self):
        rng = np.random.default_rng(15)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 3.0)
            assert norm(apply_sublinear(ABS_FN, x) - abs_el(x)) <= 1e-10 * (1 + norm(x))

    def test_plus_on_negative_unit(self):
        for d in SMALL_CATALOG:
            assert norm(apply_sublinear(POS_FN, -unit(d))) == 0.0

    def test_minus_on_negative_unit(self):
        for d in SMALL_CATALOG:
            assert norm(apply_sublinear(NEG_FN, -unit(d)) - unit(d)) <= 1e-14


class TestPositivity:
    def test_quad_rep_of_idempotents_positive(self):
        rng = np.random.default_rng(16)
        for d in SMALL_CATALOG:
            for _ in range(20):
                frame = spectral_decompose(random_element(d, rng, 1.0)).frame
                mask = rng.integers(0, 2, d.rank).astype(bool)
                if not mask.any():
                    mask[0] = True
                c = zero(d)
                for i in np.nonzero(mask)[0]:
                    c = c + frame.idempotents[i]
                x = random_cone_element(d, rng, 2.0)
                vals = eigvals(quad_rep(c, x))
                assert vals[-1] >= -1e-9 * (1.0 + np.abs(vals).max())

    def test_psd_schur_is_positive_map(self):
        rng = np.random.default_rng(17)
        for d in SMALL_CATALOG:
            for _ in range(20):
                G = rng.normal(size=(d.rank, d.rank))
                A = SchurMatrix(G.T @ G)
                frame = spectral_decompose(random_element(d, rng, 1.0)).frame
                x = random_cone_element(d, rng, 2.0)
                vals = eigvals(schur(A, frame, x))
                assert vals[-1] >= -1e-9 * (1.0 + np.abs(vals).max())

    def test_pinching_majorizes(self):
        rng = np.random.default_rng(18)
        for d in SMALL_CATALOG:
            for _ in range(20):
                frame = spectral_decompose(random_element(d, rng, 1.0)).frame
                k = int(rng.integers(1, d.rank + 1))
                c = frame.idempotents[0]
                for i in range(1, k):
                    c = c + frame.idempotents[i]
                x = random_element(d, rng, 3.0)
                u = quad_rep(c, x)
                w = quad_rep(unit(d) - c, x)
                v = major(eigvals(u + w), eigvals(x), atol=1e-8)
                assert v.holds

    def test_submultiplicative_spectral_norms(self):
        rng = np.random.default_rng(19)
        for d in SMALL_CATALOG:
            for p in (1.0, 2.0, np.inf):
                for _ in range(20):
                    x = random_element(d, rng, 3.0)
                    y = random_element(d, rng, 3.0)
                    lhs = pnorm(jordan_product(x, y), p)
                    rhs = pnorm(x, p) * pnorm(y, np.inf)
                    assert lhs <= rhs * (1.0 + 1e-8) + 1e-9

    def test_non_psd_schur_rejected(self):
        d = SymMatrix(2)
        A = SchurMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(PositivityError):
            positive_schur_map(A, standard_frame(d))

    def test_certified_constructors_pass_sampling(self):
        rng = np.random.default_rng(20)
        d = SymMatrix(3)
        maps = [
            positive_quad_map(random_cone_element(d, rng, 1.0)),
            positive_schur_map(
                SchurMatrix(np.eye(3)), standard_frame(d)
            ),
        ]
        maps.append(compose_positive(maps[0], maps[1]))
        for P in maps:
            assert P.certified
            assert certify_positive_by_sampling(P, np.random.default_rng(0), samples=16)

    def test_validate_frame_accepts_decompositions(self):
        rng = np.random.default_rng(21)
        for d in SMALL_CATALOG:
            validate_frame(spectral_decompose(random_element(d, rng, 2.0)).frame)
