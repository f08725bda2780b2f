"""Cyclic-Jacobi eigensolver kernel in numpy.

There is one kernel, :func:`jacobi_batch`, vectorized over a stack of
symmetric matrices, with a flag that decides whether eigenvectors are
accumulated; one matrix is a stack of one.  Each sweep visits the pairs
(p, q), p < q, in row-major order and annihilates the pivot entry by a plane
rotation.  Convergence is declared when the off-diagonal Frobenius mass
drops below ``tol`` times the Frobenius norm of the input (floored at 1.0).
The kernel never raises; it returns the final off-diagonal residuals and
leaves the convergence decision to the caller.

``jacobi_eigh``, ``jacobi_vals`` and ``jacobi_vals_batch`` are entry points
over that kernel; they stay separate names because the benchmark's tracer
(``perfbench/tracing.py``) wraps each one by name.
"""

from __future__ import annotations

import numpy as np

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 64


def _offdiag_mass(A):
    # summed directly over off-diagonal entries: subtracting the diagonal
    # mass from the total would cancel catastrophically near convergence
    B = np.array(A, copy=True)
    idx = np.arange(A.shape[1])
    B[:, idx, idx] = 0.0
    return np.sqrt((B * B).sum(axis=(1, 2)))


def _batch_sweep(A, V):
    """One cyclic sweep over every matrix of the stack A, in place.

    The tangent of the smaller rotation angle, t = sgn(theta) / (|theta| +
    sqrt(theta^2 + 1)) with theta = diff / (2 apq), is written as
    2 |apq| / (|diff| + hypot(diff, 2 apq)): the same value without the
    overflow of theta^2 at tiny pivots, and exactly 0 (an identity rotation)
    for a zero pivot.
    """
    n = A.shape[1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = A[:, p, q].copy()
            app = A[:, p, p].copy()
            aqq = A[:, q, q].copy()
            diff = aqq - app
            den = np.abs(diff) + np.hypot(diff, 2.0 * apq)
            mag = 2.0 * np.abs(apq) / np.where(den == 0.0, 1.0, den)
            t = np.where(diff * apq < 0.0, -mag, mag)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            cc = c[:, None]
            ss = s[:, None]
            rowp = A[:, p, :]
            rowq = A[:, q, :]
            newp = cc * rowp - ss * rowq
            newq = ss * rowp + cc * rowq
            A[:, p, :] = newp
            A[:, q, :] = newq
            A[:, :, p] = newp
            A[:, :, q] = newq
            shift = t * apq
            A[:, p, p] = app - shift
            A[:, q, q] = aqq + shift
            A[:, p, q] = 0.0
            A[:, q, p] = 0.0
            if V is not None:
                colp = V[:, :, p]
                colq = V[:, :, q]
                newp = cc * colp - ss * colq
                newq = ss * colp + cc * colq
                V[:, :, p] = newp
                V[:, :, q] = newq


def jacobi_batch(S, tol, max_sweeps, vectors=False):
    """Cyclic Jacobi on a stack of symmetric matrices, vectorized over the stack.

    Returns (eigenvalues unsorted (m, n), eigenvector columns (m, n, n) or
    None when ``vectors`` is false, off-diagonal residuals (m,)).  Each
    rotation step computes one angle per matrix and rotates all matrices at
    once.  Each sweep runs on the matrices not yet converged only, so every
    matrix ends exactly as it would in a stack of its own.  The flag only
    decides whether the rotations are accumulated; the eigenvalues and the
    residuals do not depend on it.  ``S`` is not modified.
    """
    A = np.array(S, dtype=np.float64, copy=True)
    m, n = A.shape[0], A.shape[1]
    V = np.tile(np.eye(n), (m, 1, 1)) if vectors else None
    thresh = tol * np.maximum(np.sqrt((A * A).sum(axis=(1, 2))), 1.0)
    off = _offdiag_mass(A)
    for _ in range(max_sweeps):
        idx = np.flatnonzero(off > thresh)
        if idx.size == 0:
            break
        if idx.size == m:
            _batch_sweep(A, V)
            off = _offdiag_mass(A)
        else:
            sub_A = A[idx]
            sub_V = V[idx] if vectors else None
            _batch_sweep(sub_A, sub_V)
            A[idx] = sub_A
            if vectors:
                V[idx] = sub_V
            off[idx] = _offdiag_mass(sub_A)
    W = np.einsum("bii->bi", A).copy()
    return W, V, off


def jacobi_eigh(M, tol, max_sweeps):
    """Eigenvalues (unsorted), eigenvector columns and off-diagonal residual
    of one symmetric matrix: a batch of one of :func:`jacobi_batch`."""
    W, V, off = jacobi_batch(M[None], tol, max_sweeps, vectors=True)
    return W[0], V[0], off[0]


def jacobi_vals(M, tol, max_sweeps):
    """Eigenvalues (unsorted) and off-diagonal residual of one symmetric
    matrix: a batch of one of :func:`jacobi_batch`."""
    W, _, off = jacobi_batch(M[None], tol, max_sweeps)
    return W[0], off[0]


def jacobi_vals_batch(S, tol, max_sweeps):
    """Eigenvalues (unsorted, (m, n)) and off-diagonal residuals (m,) of a
    stack of symmetric matrices; see :func:`jacobi_batch`."""
    W, _, off = jacobi_batch(S, tol, max_sweeps)
    return W, off


def backend() -> str:
    """Name of the array backend the kernels run on."""
    return "numpy"


def warm_up() -> None:
    """Run the kernel once, so that first-call costs (lazy imports, cache
    fills) are paid before any timed code."""
    jacobi_batch(np.array([[[2.0, 1.0], [1.0, 3.0]]]), JACOBI_TOL, JACOBI_MAX_SWEEPS,
                 vectors=True)
