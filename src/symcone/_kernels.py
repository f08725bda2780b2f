"""Cyclic-Jacobi eigensolver kernels with optional numba acceleration.

The backend is fixed once at import time from the ``SYMCONE_BACKEND``
environment variable:

    auto    use numba when importable, fall back to pure numpy (default)
    numba   require numba, fail at import if it is missing
    numpy   force the pure numpy/python implementations

Both backends run the same cyclic sweep schedule: for each sweep the pairs
(p, q), p < q, are visited in row-major order and the pivot entry is
annihilated by a plane rotation.  Convergence is declared when the
off-diagonal Frobenius mass drops below ``tol`` times the Frobenius norm of
the input (floored at 1.0).  The kernels never raise; they return the final
off-diagonal residual and leave the convergence decision to the caller.

``implementations()`` exposes every backend side by side so parity tests and
the benchmark script can compare them inside one process.  The batched
kernel with eigenvectors, :func:`jacobi_batch`, is numpy only.
"""

from __future__ import annotations

import math
import os

import numpy as np

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 64

_TINY_PIVOT = 1e-150  # |A[p,q]| below this times |diff| -> linearized rotation


def _jacobi_eigh_py(M, tol, max_sweeps):
    """Full eigensystem of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues unsorted, eigenvector columns, off-diagonal
    residual).  ``M`` is not modified.
    """
    n = M.shape[0]
    A = M.copy()
    V = np.eye(n)
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


def _jacobi_vals_py(M, tol, max_sweeps):
    """Eigenvalues only; same schedule as :func:`_jacobi_eigh_py`."""
    n = M.shape[0]
    A = M.copy()
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
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * A[i, j] * A[i, j]
        off = math.sqrt(off)
        sweeps += 1
    w = np.empty(n)
    for i in range(n):
        w[i] = A[i, i]
    return w, off


def _offdiag_mass(A):
    # summed directly over off-diagonal entries: subtracting the diagonal
    # mass from the total would cancel catastrophically near convergence
    B = np.array(A, copy=True)
    idx = np.arange(A.shape[1])
    B[:, idx, idx] = 0.0
    return np.sqrt((B * B).sum(axis=(1, 2)))


def _batch_sweep(A, V):
    """One cyclic sweep over every matrix of the stack A, in place.

    The tangent is the scalar kernels' t = sgn(theta) / (|theta| +
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
    scalar kernels; each rotation step computes one angle per matrix and
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


def _batch_vals_numpy(S, tol, max_sweeps):
    """Eigenvalues of a stack of symmetric matrices; see :func:`jacobi_batch`."""
    W, _, off = jacobi_batch(S, tol, max_sweeps)
    return W, off


_NUMPY_IMPL = {
    "eigh": _jacobi_eigh_py,
    "vals": _jacobi_vals_py,
    "vals_batch": _batch_vals_numpy,
}

_choice = os.environ.get("SYMCONE_BACKEND", "auto").strip().lower()
if _choice not in ("auto", "numba", "numpy"):
    raise ValueError(
        f"SYMCONE_BACKEND must be one of auto/numba/numpy, got {_choice!r}"
    )

_NUMBA_IMPL = None
if _choice in ("auto", "numba"):
    try:
        from numba import njit
    except ImportError:
        if _choice == "numba":
            raise
    else:
        _jacobi_eigh_nb = njit(cache=True)(_jacobi_eigh_py)
        _jacobi_vals_nb = njit(cache=True)(_jacobi_vals_py)

        @njit(cache=True)
        def _batch_vals_nb(S, tol, max_sweeps):
            m = S.shape[0]
            n = S.shape[1]
            W = np.empty((m, n))
            offs = np.empty(m)
            for b in range(m):
                w, off = _jacobi_vals_nb(S[b], tol, max_sweeps)
                W[b] = w
                offs[b] = off
            return W, offs

        _NUMBA_IMPL = {
            "eigh": _jacobi_eigh_nb,
            "vals": _jacobi_vals_nb,
            "vals_batch": _batch_vals_nb,
        }

if _NUMBA_IMPL is not None:
    _BACKEND = "numba"
    _ACTIVE = _NUMBA_IMPL
else:
    _BACKEND = "numpy"
    _ACTIVE = _NUMPY_IMPL

jacobi_eigh = _ACTIVE["eigh"]
jacobi_vals = _ACTIVE["vals"]
jacobi_vals_batch = _ACTIVE["vals_batch"]


def backend() -> str:
    """Name of the backend selected at import time."""
    return _BACKEND


def implementations() -> dict:
    """All available backends, keyed by name, for parity tests and benchmarks."""
    impls = {"numpy": dict(_NUMPY_IMPL)}
    if _NUMBA_IMPL is not None:
        impls["numba"] = dict(_NUMBA_IMPL)
    return impls


def warm_up() -> None:
    """Trigger JIT compilation so timed code paths never pay it."""
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    jacobi_eigh(M, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    jacobi_vals(M, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    jacobi_vals_batch(M[None, :, :], JACOBI_TOL, JACOBI_MAX_SWEEPS)
