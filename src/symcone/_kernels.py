"""Cyclic-Jacobi eigensolver kernels in numpy.

There is one scalar kernel, for one matrix, and one batched kernel, for a
stack of matrices vectorized over the stack; each takes a flag that decides
whether eigenvectors are accumulated.  Both run the same cyclic sweep
schedule: for each sweep the pairs (p, q), p < q, are visited in row-major
order and the pivot entry is annihilated by a plane rotation.  Convergence
is declared when the off-diagonal Frobenius mass drops below ``tol`` times
the Frobenius norm of the input (floored at 1.0).  The kernels never raise;
they return the final off-diagonal residual and leave the convergence
decision to the caller.

``jacobi_eigh``, ``jacobi_vals`` and ``jacobi_vals_batch`` are the entry
points the spectral layer calls; they stay separate names because the
benchmark's tracer (``perfbench/tracing.py``) wraps each one by name.
"""

from __future__ import annotations

import math

import numpy as np

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 64

_TINY_PIVOT = 1e-150  # |A[p,q]| below this times |diff| -> linearized rotation


def _jacobi_scalar(M, tol, max_sweeps, vectors):
    """Cyclic Jacobi on one symmetric matrix.

    Returns (eigenvalues unsorted, eigenvector columns or None when
    ``vectors`` is false, off-diagonal residual).  The flag only decides
    whether the rotations are accumulated; the eigenvalues and the residual
    do not depend on it.  ``M`` is not modified.
    """
    n = M.shape[0]
    A = M.copy()
    V = np.eye(n) if vectors else None
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += A[i, j] * A[i, j]
    thresh = tol * max(math.sqrt(total), 1.0)
    off = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            off += 2.0 * A[i, j] * A[i, j]
    off = math.sqrt(off)
    sweeps = 0
    while off > thresh and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                diff = A[q, q] - A[p, p]
                if abs(apq) < _TINY_PIVOT * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                A[p, p] -= t * apq
                A[q, q] += t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        aip = A[i, p]
                        aiq = A[i, q]
                        A[i, p] = aip - s * (aiq + tau * aip)
                        A[p, i] = A[i, p]
                        A[i, q] = aiq + s * (aip - tau * aiq)
                        A[q, i] = A[i, q]
                if vectors:
                    for i in range(n):
                        vip = V[i, p]
                        viq = V[i, q]
                        V[i, p] = vip - s * (viq + tau * vip)
                        V[i, q] = viq + s * (vip - tau * viq)
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * A[i, j] * A[i, j]
        off = math.sqrt(off)
        sweeps += 1
    w = np.empty(n)
    for i in range(n):
        w[i] = A[i, i]
    return w, V, off


def _offdiag_mass(A):
    # summed directly over off-diagonal entries: subtracting the diagonal
    # mass from the total would cancel catastrophically near convergence
    B = np.array(A, copy=True)
    idx = np.arange(A.shape[1])
    B[:, idx, idx] = 0.0
    return np.sqrt((B * B).sum(axis=(1, 2)))


def _batch_sweep(A, V):
    """One cyclic sweep over every matrix of the stack A, in place.

    The tangent is the scalar kernel's t = sgn(theta) / (|theta| +
    sqrt(theta^2 + 1)) with theta = diff / (2 apq), written as
    2 |apq| / (|diff| + hypot(diff, 2 apq)): the same value without the
    overflow of theta^2, which makes the linearized tiny-pivot branch
    unnecessary, and exactly 0 (an identity rotation) for a zero pivot.
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
    None when ``vectors`` is false, off-diagonal residuals (m,)).  The (p, q)
    schedule, the convergence test and the diagonal update are those of the
    scalar kernel; each rotation step computes one angle per matrix and
    rotates all matrices at once.  Each sweep runs on the matrices not yet
    converged only, so every matrix ends exactly as it would in a stack of
    its own.  ``S`` is not modified.
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
    of one symmetric matrix."""
    return _jacobi_scalar(M, tol, max_sweeps, True)


def jacobi_vals(M, tol, max_sweeps):
    """Eigenvalues (unsorted) and off-diagonal residual of one symmetric
    matrix; the same arithmetic as :func:`jacobi_eigh`."""
    w, _, off = _jacobi_scalar(M, tol, max_sweeps, False)
    return w, off


def jacobi_vals_batch(S, tol, max_sweeps):
    """Eigenvalues (unsorted, (m, n)) and off-diagonal residuals (m,) of a
    stack of symmetric matrices; see :func:`jacobi_batch`."""
    W, _, off = jacobi_batch(S, tol, max_sweeps)
    return W, off


def backend() -> str:
    """Name of the array backend the kernels run on."""
    return "numpy"


def warm_up() -> None:
    """Run every kernel once, so that first-call costs (lazy imports, cache
    fills) are paid before any timed code."""
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    jacobi_eigh(M, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    jacobi_vals(M, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    jacobi_vals_batch(M[None, :, :], JACOBI_TOL, JACOBI_MAX_SWEEPS)
