"""The Jacobi eigensolver against closed-form, LAPACK and high-precision
oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symcone import _kernels
from symcone.algebra import Element, SymMatrix
from symcone.spectral import (
    JacobiConvergenceError,
    eigvals,
    sym_eigen,
    sym_eigh_batch,
    sym_eigvals_batch,
)


def eig2_closed(M):
    """2x2 symmetric eigenvalues from trace and determinant."""
    half_tr = (M[0, 0] + M[1, 1]) / 2.0
    disc = math.sqrt(((M[0, 0] - M[1, 1]) / 2.0) ** 2 + M[0, 1] ** 2)
    return np.array([half_tr + disc, half_tr - disc])


def eig3_closed(M):
    """3x3 symmetric eigenvalues by the trigonometric characteristic-poly form."""
    p1 = M[0, 1] ** 2 + M[0, 2] ** 2 + M[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(M))[::-1]
    q = np.trace(M) / 3.0
    p2 = sum((M[i, i] - q) ** 2 for i in range(3)) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    B = (M - q * np.eye(3)) / p
    r = np.linalg.det(B) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.array([e1, 3.0 * q - e1 - e3, e3])


class TestAgainstClosedForms:
    def test_fixed_2x2(self):
        w, _ = sym_eigen(np.array([[9.0, 24.0], [24.0, 9.0]]))
        np.testing.assert_allclose(w, [33.0, -15.0], atol=1e-10)

    def test_identity(self):
        w, V = sym_eigen(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4), atol=1e-14)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-12)

    def test_diagonal_sorts(self):
        w, _ = sym_eigen(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0], atol=0)

    @pytest.mark.parametrize("n,oracle", [(2, eig2_closed), (3, eig3_closed)])
    def test_random_vs_characteristic_polynomial(self, n, oracle):
        rng = np.random.default_rng(11)
        for _ in range(300):
            G = rng.normal(0.0, 3.0, (n, n))
            M = (G + G.T) / 2.0
            w, _ = sym_eigen(M)
            scale = max(1.0, np.abs(M).max())
            np.testing.assert_allclose(w, oracle(M), atol=1e-10 * scale)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8):
            G = rng.normal(0.0, 2.0, (n, n))
            M = (G + G.T) / 2.0
            w, V = sym_eigen(M)
            np.testing.assert_allclose(V @ np.diag(w) @ V.T, M,
                                       atol=1e-12 * max(1.0, np.abs(M).max()))
            np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-12)


class TestInputHandling:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eigen(np.zeros((2, 3)))

    def test_nonconvergence_raises(self):
        M = np.array([[1.0, 4.0], [4.0, -2.0]])
        with pytest.raises(JacobiConvergenceError) as exc:
            sym_eigen(M, max_sweeps=0)
        assert exc.value.residual > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_rejects_non_finite(self, bad):
        # a NaN threshold would end the sweeps before they begin; 1e200 is
        # finite, but its square overflows the norm
        M = np.array([[1.0, bad], [bad, 2.0]])
        with pytest.raises(ValueError):
            sym_eigen(M)
        with pytest.raises(ValueError):
            sym_eigvals_batch(M[None])
        with pytest.raises(ValueError):
            sym_eigh_batch(np.stack([np.eye(2), M]))
        with pytest.raises(ValueError):
            eigvals(Element(SymMatrix(2), [1.0, bad, 2.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        G = rng.normal(size=(5, 5))
        M = (G + G.T) / 2.0
        w1, V1 = sym_eigen(M)
        w2, V2 = sym_eigen(M)
        assert np.array_equal(w1, w2)
        assert np.array_equal(V1, V2)


class TestBatch:
    def test_batch_matches_eigh(self):
        rng = np.random.default_rng(5)
        S = rng.normal(0.0, 2.0, (40, 4, 4))
        S = (S + S.transpose(0, 2, 1)) / 2.0
        W = sym_eigvals_batch(S)
        for M, w in zip(S, W):
            np.testing.assert_allclose(w, np.linalg.eigh(M)[0][::-1], rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(M).max()))


def _stack(rng, n, m, scale=2.0):
    S = rng.normal(0.0, scale, (m, n, n))
    return (S + S.transpose(0, 2, 1)) / 2.0


class TestBatchEigenvectors:
    CASES = {
        "diagonal": np.diag([3.0, -1.0, 2.0, 0.5]),
        "repeated": np.diag([2.0, 2.0, 2.0, -1.0]),
        "zero": np.zeros((4, 4)),
        "tiny_pivot": np.array([[1.0, 1e-160, 0.0, 0.0],
                                [1e-160, 1e10, 1e-300, 0.0],
                                [0.0, 1e-300, -3.0, 2.0],
                                [0.0, 0.0, 2.0, -3.0]]),
    }

    @staticmethod
    def rotated(rng, D):
        Q, _ = np.linalg.qr(rng.normal(size=D.shape))
        return Q @ D @ Q.T

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_against_eigh_oracle(self, name):
        rng = np.random.default_rng(31)
        D = self.CASES[name]
        # the case itself, a rotated copy (repeated eigenvalues off the
        # diagonal) and a random symmetric matrix in one stack
        S = np.stack([D, self.rotated(rng, D), _stack(rng, 4, 1)[0]])
        W, V = sym_eigh_batch(S)
        for M, w, vecs in zip(S, W, V):
            scale = max(1.0, np.abs(M).max())
            np.testing.assert_allclose(w, np.linalg.eigh(M)[0][::-1], rtol=0,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(vecs @ np.diag(w) @ vecs.T, M,
                                       atol=1e-12 * scale)
            assert np.all(np.diff(w) <= 0.0)

    def test_vals_and_vectors_match_eigh(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5):
            S = _stack(rng, n, 30)
            W, V = sym_eigh_batch(S)
            np.testing.assert_array_equal(sym_eigvals_batch(S), W)
            for M, w in zip(S, W):
                np.testing.assert_allclose(w, np.linalg.eigh(M)[0][::-1], rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(M).max()))

    def test_rows_independent_of_the_stack(self):
        S = _stack(np.random.default_rng(8), 5, 12)
        W, V, off = _kernels.jacobi_batch(S, _kernels.JACOBI_TOL,
                                          _kernels.JACOBI_MAX_SWEEPS, vectors=True)
        for i in (0, 5, 11):
            w, v, o = _kernels.jacobi_batch(S[i:i + 1], _kernels.JACOBI_TOL,
                                            _kernels.JACOBI_MAX_SWEEPS, vectors=True)
            assert np.array_equal(w[0], W[i])
            assert np.array_equal(v[0], V[i])
            assert o[0] == off[i]

    def test_one_sweep_does_not_converge(self):
        S = _stack(np.random.default_rng(10), 5, 8)
        with pytest.raises(JacobiConvergenceError) as exc:
            sym_eigh_batch(S, max_sweeps=1)
        assert exc.value.residual > 0 and exc.value.max_sweeps == 1
        with pytest.raises(JacobiConvergenceError):
            sym_eigvals_batch(S, max_sweeps=1)


def _graded(rng, n):
    """H = D A D: A a unit-diagonal SPD matrix, D = diag(10^(-4k))."""
    G = rng.normal(size=(n, n))
    B = G @ G.T + n * np.eye(n)
    B = (B + B.T) / 2.0
    s = 1.0 / np.sqrt(np.diag(B))
    D = 10.0 ** (-4.0 * np.arange(n))
    return B * np.outer(s * D, s * D)


class TestGradedRelativeAccuracy:
    def test_every_eigenvalue_to_relative_accuracy(self):
        # Jacobi keeps every eigenvalue of a graded positive definite matrix,
        # the smallest near 1e-32 included, to a few ulps relative (Demmel &
        # Veselic, SIMAX 13(4), 1992): at most 2.6e-16 here, where LAPACK's
        # eigvalsh is off by up to 1.7e-10, so a swap to it fails
        rng = np.random.default_rng(2026)
        for n in (3, 4, 5):
            S = np.array([_graded(rng, n) for _ in range(6)])
            W = sym_eigvals_batch(S)
            for H, w in zip(S, W):
                with mpmath.workdps(60):
                    E, _ = mpmath.eigsy(mpmath.matrix(H.tolist()))
                    ref = np.array(sorted((float(e) for e in E), reverse=True))
                np.testing.assert_allclose(w, ref, rtol=1e-13, atol=0)
                np.testing.assert_allclose(sym_eigen(H)[0], ref, rtol=1e-13, atol=0)


_entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def symmetric_stacks(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=3))
    G = draw(arrays(np.float64, (m, n, n), elements=_entries))
    return (G + G.transpose(0, 2, 1)) / 2.0


class TestKernelFlag:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_stacks())
    def test_vals_is_eigh_without_vectors(self, S):
        # dropping the eigenvectors changes no other bit, and the entry points
        # on one matrix are its row of the stack
        S_before = S.copy()
        tol, sweeps = _kernels.JACOBI_TOL, _kernels.JACOBI_MAX_SWEEPS
        W, V, off = _kernels.jacobi_batch(S, tol, sweeps, vectors=True)
        W_vals, V_vals, off_vals = _kernels.jacobi_batch(S, tol, sweeps)
        assert V_vals is None
        assert np.array_equal(W, W_vals)
        assert np.array_equal(off, off_vals)
        assert np.array_equal(S, S_before)  # the input is left as it was
        w, v, o = _kernels.jacobi_eigh(S[0], tol, sweeps)
        assert np.array_equal(w, W[0]) and np.array_equal(v, V[0]) and o == off[0]
        w, o = _kernels.jacobi_vals(S[0], tol, sweeps)
        assert np.array_equal(w, W[0]) and o == off[0]
