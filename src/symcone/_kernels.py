"""Cyclic-Jacobi eigensolver kernel in numpy.

There is one kernel, :func:`jacobi_batch`, vectorized over a stack of
symmetric matrices, with a flag that decides whether eigenvectors are
accumulated; one matrix is a stack of one.  Each sweep visits the pairs
(p, q), p < q, in row-major order and annihilates the pivot entry by a plane
rotation.  Convergence is declared when the off-diagonal Frobenius mass
drops below ``tol`` times the Frobenius norm of the input (floored at 1.0).
The kernel never raises; it returns the final off-diagonal residuals and
leaves the convergence decision to the caller.

The kernel holds the stack last, in one (n, w, m) block X: ``X[i, :n]`` is
row i of every matrix, and ``X[i, n:]`` is eigenvector column i of every
matrix (w = 2n with eigenvectors, w = n without).  One rotation of rows p
and q of X then turns the matrix rows and the eigenvector columns with the
same ``c*rowp - s*rowq``, ``c*rowq + s*rowp``, reading and writing
contiguous rows of length m, one entry per matrix; only the matrix half is
written back as columns.  A rotation costs numpy's fixed overhead per call
many times over its arithmetic at the stack sizes the package uses, so each
step is one numpy call on operands of one shape, writing into views and
buffers built once per block (:func:`_sweeper`).  Every entry is computed by
the same IEEE operations in the same order as on an (m, n, n) stack, and the
residuals are summed over a C-ordered (m, n, n) copy, so the eigenvalues,
eigenvectors and residuals have the bits of the (m, n, n) kernel, whatever
the memory layout of the input.  The results come back as (m, n)
eigenvalues and C-contiguous (m, n, n) eigenvector columns.

``jacobi_eigh``, ``jacobi_vals`` and ``jacobi_vals_batch`` are entry points
over that kernel; they stay separate names because the benchmark's tracer
(``perfbench/tracing.py``) wraps each one by name.
"""

from __future__ import annotations

import numpy as np

JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 64


def _offdiag_mass(At):
    """Off-diagonal Frobenius norm of every matrix of a stack-last (n, n, m)
    array, (m,).

    The entries are summed directly: subtracting the diagonal mass from the
    total would cancel catastrophically near convergence.  The sum runs over
    an explicit C-ordered (m, n, n) copy, because numpy's summation order
    follows the memory layout and ``off > thresh`` decides which matrices
    sweep again.
    """
    B = At.transpose(2, 0, 1).copy(order="C")
    idx = np.arange(B.shape[1])
    B[:, idx, idx] = 0.0
    return np.sqrt((B * B).sum(axis=(1, 2)))


def _sweeper(X, n):
    """A function that runs one cyclic sweep, in place, over every matrix of
    the (n, w, m) block X: ``X[:, :n]`` holds the matrices stack-last and,
    when w = 2n, ``X[i, n:]`` holds eigenvector column i of every matrix.

    The tangent of the smaller rotation angle, t = sgn(theta) / (|theta| +
    sqrt(theta^2 + 1)) with theta = diff / (2 apq), is written as
    2 |apq| / (|diff| + hypot(diff, 2 apq)): the same value without the
    overflow of theta^2 at tiny pivots, and exactly 0 (an identity rotation)
    for a zero pivot.  One rotation of the rows p and q of X turns the matrix
    rows and the eigenvector columns alike; only the matrix half is written
    back as columns.

    The views of X and the buffers the rotations write are built here, once
    per block, and every arithmetic step is a ufunc call on operands of one
    shape that writes into its buffer: none converts a Python float,
    broadcasts an (m,) row against a block or allocates its result.  Each
    step gives the bits of the plain form of the same rotation: ``apq +
    apq`` is ``2 * apq``; flooring den at the least positive double stands
    for replacing a zero den by 1 (the same for every den > 0, and a zero
    den has a zero numerator); ``copysign(mag, diff * apq + 0.0)`` is the
    sign test ``diff * apq < 0.0`` (adding +0.0 turns a -0.0 product into
    +0.0); and c and s are tiled once to the rows rotated, which are turned
    in place as ``c*rowp - s*rowq`` and ``c*rowq + s*rowp``.  The new
    diagonal is computed before the rows are turned, as the rotation
    overwrites the pivot entries.
    """
    m = X.shape[2]
    rows = list(X)
    # at n = 2 the matrix rows hold only the pivot block, which the lines
    # after the rotation overwrite, so only the eigenvector half (if any) is
    # rotated
    tails = rows if n > 2 else [row[n:] for row in rows]
    width = tails[0].shape[0]
    (tiny, zero, one, diff, apq2, den, mag, t, tmp, shift, newpp, newqq,
     c, s) = np.empty((14, m))
    tiny.fill(5e-324)
    zero.fill(0.0)
    one.fill(1.0)
    C, S, T, U = np.empty((4, width, m))
    pairs = [(rows[p][q], rows[q][p], rows[p][p], rows[q][q], tails[p], tails[q],
              X[:, p], X[:, q], rows[p][:n], rows[q][:n])
             for p in range(n - 1) for q in range(p + 1, n)]
    # local names, and the out buffer passed by position (np.maximum takes
    # only the keyword), trim the Python side of each call
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    hypot, absolute, maximum, copysign, sqrt = (np.hypot, np.absolute, np.maximum,
                                                np.copysign, np.sqrt)
    cols = n > 2

    def sweep():
        for apq, aqp, app, aqq, rowp, rowq, colp, colq, matp, matq in pairs:
            subtract(aqq, app, diff)
            add(apq, apq, apq2)
            hypot(diff, apq2, den)
            absolute(diff, tmp)
            add(tmp, den, den)
            maximum(den, tiny, out=den)
            absolute(apq2, mag)
            divide(mag, den, mag)
            multiply(diff, apq, tmp)
            add(tmp, zero, tmp)
            copysign(mag, tmp, t)
            multiply(t, apq, shift)
            subtract(app, shift, newpp)
            add(aqq, shift, newqq)
            if width:
                multiply(t, t, tmp)
                add(tmp, one, tmp)
                sqrt(tmp, tmp)
                divide(one, tmp, c)
                C[...] = c
                multiply(t, c, s)
                S[...] = s
                multiply(S, rowq, T)
                multiply(C, rowq, rowq)
                multiply(S, rowp, U)
                add(rowq, U, rowq)
                multiply(C, rowp, rowp)
                subtract(rowp, T, rowp)
                if cols:
                    colp[...] = matp
                    colq[...] = matq
            app[...] = newpp
            aqq[...] = newqq
            apq.fill(0.0)
            aqp.fill(0.0)

    return sweep


def _store(X, n, sel, dest, W, V):
    """Copy the eigenvalues (and, if V is not None, the eigenvector columns)
    of the matrices ``sel`` of the block X into rows ``dest``."""
    W[dest] = np.diagonal(X[:, :n])[sel]
    if V is not None:
        V[dest] = X[:, n:].transpose(2, 1, 0)[sel]


def jacobi_batch(S, tol, max_sweeps, vectors=False):
    """Cyclic Jacobi on a stack of symmetric matrices, vectorized over the stack.

    Returns (eigenvalues unsorted (m, n), eigenvector columns (m, n, n),
    C-contiguous, or None when ``vectors`` is false, off-diagonal residuals
    (m,)).  Each rotation step computes one angle per matrix and rotates all
    matrices at once.  A matrix leaves the stack once converged and is never
    swept again, so every matrix ends exactly as it would in a stack of its
    own.  The flag only decides whether the rotations are accumulated; the
    eigenvalues and the residuals do not depend on it.  ``S`` is not
    modified.
    """
    A = np.ascontiguousarray(S, dtype=np.float64)  # read only; may be S itself
    m, n = A.shape[0], A.shape[1]
    thresh = tol * np.maximum(np.sqrt((A * A).sum(axis=(1, 2))), 1.0)
    X = np.zeros((n, 2 * n if vectors else n, m))
    X[:, :n] = A.transpose(1, 2, 0)
    if vectors:
        X[np.arange(n), n + np.arange(n)] = 1.0
    off = _offdiag_mass(X[:, :n])
    W = np.empty((m, n))
    V = np.empty((m, n, n)) if vectors else None
    rows = np.arange(m)  # the input row of each matrix left in X
    sweep = None  # built for each block X
    for _ in range(max_sweeps):
        keep = off[rows] > thresh[rows]
        if not keep.any():
            break
        if not keep.all():
            _store(X, n, ~keep, rows[~keep], W, V)
            rows = rows[keep]
            X = np.take(X, np.flatnonzero(keep), axis=2)
            sweep = None
        if sweep is None:
            sweep = _sweeper(X, n)
        sweep()
        off[rows] = _offdiag_mass(X[:, :n])
    _store(X, n, slice(None), slice(None) if rows.size == m else rows, W, V)
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
