"""Transformations: multiplication/quadratic maps, Peirce and Schur products,
operator matrices, sublinear spectral maps, positivity machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcone.algebra import (
    Element,
    jordan_product_coords,
    SpinFactor,
    SymMatrix,
    from_matrix,
    from_orthonormal,
    inner,
    jordan_product,
    norm,
    random_cone_element,
    random_element,
    row_sum,
    to_orthonormal,
    unit,
    weight_vector,
    zero,
)
from symcone.majorization import major
from symcone.spectral import (
    JordanFrame,
    abs_el,
    cone_floor,
    det,
    eigvals,
    eigvals_batch,
    pnorm,
    rebuild,
    spectral_decompose,
    spectral_decompose_batch,
    sqrt_el,
    standard_frame,
)
from symcone.transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    FrameError,
    MultiplierError,
    PositivityError,
    SchurMatrix,
    SublinearFn,
    apply_sublinear,
    apply_sublinear_rows,
    compose_positive,
    lyap,
    lyap_multiplier,
    multiplier_stack,
    peirce_project,
    peirce_projectors,
    positive_quad_map,
    positive_schur_map,
    quad_multiplier,
    quad_rep,
    quad_rep_coords,
    quad_rep_sqrt,
    quad_rep_sqrt_rows,
    schur,
    schur_rows,
    schur_stack,
    validate_frame,
)

import element_reference as reference
from conftest import CATALOG, SMALL_CATALOG, coord_stacks


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


# the frame of spin:3 x = (1, t, t) at t = 2e-162, where ||xbar||^2 leaves
# the normal range; its plain radius gave a frame of residual 0.095
_TINY_SPIN_FRAME = spectral_decompose(Element(SpinFactor(3), [1.0, 2e-162, 2e-162])).frame


class TestSchurStack:
    @settings(max_examples=150, deadline=None)
    @given(schur_cases())
    @example(case=(np.array([[1.0, 2.0], [2.0, -3.0]]), _TINY_SPIN_FRAME,
                   Element(SpinFactor(3), [0.5, -1.0, 2.0])))
    def test_matches_scalar_schur(self, case):
        # A . x is linear in x; its matrix from the Peirce projectors acts
        # as the scalar Schur product does
        A, frame, b = case
        P = peirce_projectors(frame)
        got = schur_stack(multiplier_stack([A], len(frame)), P)[0] @ b.coords
        want = schur(A, frame, b).coords
        scale = max(1.0, np.abs(A).max()) * max(1.0, np.abs(b.coords).max())
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_projectors_are_the_peirce_components(self):
        d = CATALOG[-1]
        frame = standard_frame(d)
        P = peirce_projectors(frame)
        b = random_element(d, np.random.default_rng(4), 2.0)
        comps = reference.peirce_project(frame, b)
        for i in range(len(frame)):
            for j in range(len(frame)):
                want = comps[(i, j)].coords if i <= j else np.zeros(d.dim)
                np.testing.assert_allclose(P[i, j] @ b.coords, want, atol=1e-14)


class TestMultiplierStack:
    def test_equals_the_multipliers_built_one_at_a_time(self):
        # nearly symmetric input (within the 1e-12 band), a SchurMatrix, a
        # list, -0.0 and the least subnormal: the same bits as SchurMatrix
        rng = np.random.default_rng(6)
        G = rng.normal(size=(5, 3, 3))
        As = [G[0] + G[0].T, (G[1] + G[1].T) + 1e-13 * np.triu(G[2], 1),
              SchurMatrix(G[3] @ G[3].T), (G[4] + G[4].T).tolist(),
              [[-0.0, 5e-324, 1.0], [5e-324, 0.0, 2.0], [1.0, 2.0, -0.0]]]
        E = multiplier_stack(As, 3)
        want = np.stack([(A if isinstance(A, SchurMatrix) else SchurMatrix(A)).entries
                         for A in As])
        assert E.tobytes() == want.tobytes()
        assert not E.flags.writeable
        assert multiplier_stack(E, 3).tobytes() == E.tobytes()

    @pytest.mark.parametrize("bad,index,message", [
        ([[0.0, 1.0], [2.0, 0.0]], 1, "not symmetric"),
        ([[0.0, math.nan], [math.nan, 0.0]], 1, "must be finite"),
        ([[1e308, 0.0], [0.0, 1.0]], 1, "too large to symmetrize"),
        (np.eye(3), 1, "multiplier size 3 does not match frame rank 2"),
        ([[1.0, 2.0]], 1, "must be square"),
        ([[1.0], [2.0, 3.0]], 1, "inhomogeneous"),
        (np.zeros((0, 0)), 1, "must not be empty"),
    ], ids=["asymmetric", "nan", "too-large", "wrong-size", "not-square", "ragged",
            "empty"])
    def test_first_bad_multiplier_raises_its_own_message(self, bad, index, message):
        As = [np.eye(2), bad, [[0.0, 1.0], [3.0, 0.0]]]
        with pytest.raises(ValueError, match=message) as alone:
            schur_stack(multiplier_stack([bad], 2),
                        peirce_projectors(standard_frame(SymMatrix(2))))
        with pytest.raises(MultiplierError) as stacked:
            multiplier_stack(As, 2)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.index == index

    def test_a_matrix_fails_its_checks_in_order(self):
        # wrong size everywhere, and row 0 also not finite: row 0's first
        # failed check names it, as SchurMatrix would before any size check
        bad = np.stack([np.full((3, 3), math.inf), np.eye(3)])
        with pytest.raises(MultiplierError, match="must be finite") as exc:
            multiplier_stack(bad, 2)
        assert exc.value.index == 0
        with pytest.raises(MultiplierError, match="size 3 does not match frame rank 2"):
            multiplier_stack(bad[::-1], 2)
        with pytest.raises(ValueError, match="must be finite"):
            SchurMatrix(bad[0])


class TestRowForms:
    # each row form applied to a stack agrees, row by row, with the scalar
    # transformation applied to that row alone

    @settings(max_examples=100, deadline=None)
    @given(coord_stacks(), st.data())
    def test_apply_sublinear_rows(self, case, data):
        d, X = case
        slope = st.floats(min_value=-2.0, max_value=2.0)
        phis = [SublinearFn(*sorted((data.draw(slope), data.draw(slope)), reverse=True))
                for _ in X]
        got = apply_sublinear_rows(d, np.array([p.alpha for p in phis]),
                                   np.array([p.beta for p in phis]), X)
        for i, phi in enumerate(phis):
            # the scalar map, and the function applied to each eigenvalue of
            # the decomposition and rebuilt on its frame, have the row's bits
            sd = spectral_decompose(Element(d, X[i]))
            want = rebuild(sd.frame, [phi(t) for t in sd.eigenvalues]).coords
            assert got[i].tobytes() == want.tobytes()
            assert apply_sublinear(phi, Element(d, X[i])).coords.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(coord_stacks(count=3), st.data())
    def test_schur_rows_on_per_row_frames(self, case, data):
        # the scalar Schur product is a batch of one: a row has its bits in
        # any stack
        d, G, B, F = case
        A = np.array([data.draw(arrays(np.float64, (d.rank, d.rank), elements=_coord))
                      for _ in G])
        A = (A + A.swapaxes(1, 2)) / 2.0
        frames = spectral_decompose_batch(d, F)[1]
        got = schur_rows(d, A, frames, B)
        for i in range(len(B)):
            frame = JordanFrame(tuple(Element(d, e) for e in frames[i]))
            want = schur(A[i], frame, Element(d, B[i])).coords
            assert np.array_equal(got[i], want)

    @settings(max_examples=100, deadline=None)
    @given(coord_stacks(count=2))
    def test_quad_rep_sqrt_rows(self, case):
        d, X, B = case
        # x o x + e: in the cone and away from its boundary, where the
        # square root is not Lipschitz and roundoff of the eigenvalues grows
        A = jordan_product_coords(d, X, X) + unit(d).coords
        got = quad_rep_sqrt_rows(d, A, B)
        for i in range(len(A)):
            want = quad_rep(sqrt_el(Element(d, A[i])), Element(d, B[i])).coords
            scale = max(1.0, float(np.abs(A[i]).max())) * max(1.0, float(np.abs(B[i]).max()))
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-9 * scale)


class TestSchurMatrixIO:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SchurMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("big", [[[1e308, 1e308], [1e308, 1e308]],
                                     [[1.0, 1e308], [-1e308, 1.0]]],
                             ids=["symmetric", "antisymmetric"])
    def test_overflowing_symmetrization_is_rejected_silently(self, big):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                SchurMatrix(np.array(big))

    def test_csv_roundtrip(self, tmp_path):
        # JSON whitespace and blank lines are legal
        A = SchurMatrix(np.array([[1.0, 0.25], [0.25, -2.0]]))
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.25\n\n 0.25,\t-2.0\r\n  \n")
        B = SchurMatrix.load(path)
        assert np.array_equal(A.entries, B.entries)

    def test_json_roundtrip(self, tmp_path):
        A = SchurMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "m.json"
        path.write_text('[[0.0, 1.0], [1.0, 0.0]]')
        B = SchurMatrix.load(path)
        assert np.array_equal(A.entries, B.entries)

    @pytest.mark.parametrize("text,line", [
        ("1,0\n\n0,nan\n", 3), ("1,0\n0\n", 2), ("1,0\n0,1,\n", 2),
        ("[1,0]\n[0,1]\n", 1), ("1,0\n0,\u00a01\n", 2), ("1;0\n0;1\n", 1),
    ], ids=["nan", "short-row", "trailing-comma", "bracketed", "no-break-space",
            "semicolons"])
    def test_a_csv_line_off_the_json_number_rule_is_named(self, tmp_path, text, line):
        # cells Python's float reads (1_0, +1, .5) are in test_cli.py's hostile-value test
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line {line}: a multiplier CSV line must be "):
            SchurMatrix.load(path)


class TestOperatorMatrices:
    # the operators act on (m, dim) coordinate stacks by their row forms;
    # no dense matrix of them is built

    @settings(max_examples=60, deadline=None)
    @given(coord_stacks())
    def test_unit_multiplication_is_identity(self, drawn):
        d, X = drawn
        e = np.broadcast_to(unit(d).coords, X.shape)
        np.testing.assert_array_equal(jordan_product_coords(d, e, X), X)
        np.testing.assert_array_equal(quad_rep_coords(d, e, X), X)

    @settings(max_examples=60, deadline=None)
    @given(coord_stacks(count=2), st.integers(0, 2**32 - 1))
    def test_multiplication_operator_self_adjoint(self, drawn, seed):
        # <a o x, y> = <x, a o y> and <P_a x, y> = <x, P_a y>, row by row
        d, X, Y = drawn
        a = np.broadcast_to(random_element(d, np.random.default_rng(seed), 2.0).coords,
                            X.shape)
        w = weight_vector(d)
        for op in (jordan_product_coords, quad_rep_coords):
            left, right = w * op(d, a, X) * Y, w * X * op(d, a, Y)
            scale = 1.0 + row_sum(np.abs(left)) + row_sum(np.abs(right))
            assert (np.abs(row_sum(left) - row_sum(right)) <= 1e-12 * scale).all()

    def test_action_agreement(self):
        # a built positive map on an element is its row form on one row,
        # and on a stack row i is the map of row i alone
        rng = np.random.default_rng(13)
        for d in SMALL_CATALOG:
            quad = positive_quad_map(random_cone_element(d, rng, 1.0))
            frame = spectral_decompose(random_element(d, rng, 2.0)).frame
            G = rng.normal(size=(d.rank, d.rank))
            sch = positive_schur_map(SchurMatrix(G @ G.T), frame)
            X = rng.normal(0.0, 2.0, (5, d.dim))
            for P in (quad, sch, compose_positive(quad, sch), compose_positive(sch, quad)):
                assert P.factors
                stacked = P.rows(X)
                for x, row in zip(X, stacked):
                    np.testing.assert_array_equal(P(Element(d, x)).coords, row)
                    np.testing.assert_array_equal(P.rows(x[None])[0], row)
            c = quad.factors[0][1].coords
            np.testing.assert_array_equal(quad.rows(X), quad_rep_coords(
                d, np.broadcast_to(c, X.shape), X))

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
        # 32 sampled cone elements z o z map to cone elements
        Z = np.random.default_rng(0).normal(0.0, 1.0, (32, d.dim))
        for P in maps:
            vals = eigvals_batch(d, P.rows(jordan_product_coords(d, Z, Z)))
            assert (vals[:, -1] >= cone_floor(vals, 0.0)).all()

    def test_validate_frame_accepts_decompositions(self):
        rng = np.random.default_rng(21)
        for d in SMALL_CATALOG:
            validate_frame(spectral_decompose(random_element(d, rng, 2.0)).frame)
