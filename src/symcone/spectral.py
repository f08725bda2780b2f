"""Spectral machinery: eigenvalue vectors, Jordan frames, spectral functions.

Every element decomposes as ``x = sum_i lambda_i e_i`` over a Jordan frame of
orthonormal primitive idempotents; the eigenvalue vector is kept in
decreasing order with stable tie order.  Symmetric-matrix factors are solved
by the in-house cyclic Jacobi kernel, spin factors in closed form
(``x0 +- ||xbar||``), direct sums by merging factor decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .algebra import (
    AlgebraDescriptor,
    DirectSum,
    Element,
    SpinFactor,
    SymMatrix,
    factor_slices,
    inner,
    norm,
    sym_pack,
    sym_unpack,
    unit,
)
from .majorization import vec_pnorm

JACOBI_TOL = _kernels.JACOBI_TOL
JACOBI_MAX_SWEEPS = _kernels.JACOBI_MAX_SWEEPS
SQRT_CLAMP_TOL = 1e-10


class JacobiConvergenceError(ArithmeticError):
    """Eigensolver ran out of sweeps; carries the off-diagonal residual."""

    def __init__(self, residual: float, max_sweeps: int):
        self.residual = float(residual)
        self.max_sweeps = int(max_sweeps)
        super().__init__(
            f"Jacobi sweeps exhausted after {max_sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e})"
        )


class ConeError(ValueError):
    """An operation required an element of the symmetric cone."""


@dataclass(frozen=True)
class JordanFrame:
    """A complete system of orthonormal primitive idempotents."""

    idempotents: tuple

    def __post_init__(self):
        object.__setattr__(self, "idempotents", tuple(self.idempotents))

    @property
    def descriptor(self) -> AlgebraDescriptor:
        return self.idempotents[0].descriptor

    def __len__(self) -> int:
        return len(self.idempotents)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (decreasing) together with a frame realizing them."""

    eigenvalues: np.ndarray
    frame: JordanFrame

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)


def rebuild(frame: JordanFrame, vals: np.ndarray) -> Element:
    """Element sum_i vals[i] * e_i over the given frame."""
    stack = np.stack([e.coords for e in frame.idempotents])
    return Element(frame.descriptor, np.asarray(vals, dtype=np.float64) @ stack)


def frame_residuals(frame: JordanFrame) -> dict:
    """Worst idempotency / orthonormality / unit-sum residuals of a frame."""
    from .algebra import jordan_product  # local import keeps module load light

    es = frame.idempotents
    idem = max(norm(jordan_product(e, e) - e) for e in es)
    ortho = 0.0
    for i, ei in enumerate(es):
        for j, ej in enumerate(es):
            g = inner(ei, ej)
            ortho = max(ortho, abs(g - (1.0 if i == j else 0.0)))
    total = es[0]
    for e in es[1:]:
        total = total + e
    unit_res = norm(total - unit(frame.descriptor))
    return {"idempotency": idem, "orthonormality": ortho, "unit_sum": unit_res}


def _sorted_desc(vals: np.ndarray) -> np.ndarray:
    order = np.argsort(-vals, kind="stable")
    return order


def _jacobi_thresh(M: np.ndarray, tol: float):
    """Convergence threshold ``tol * max(||M||_F, 1)`` of one matrix, or one
    per matrix of an (m, n, n) stack.

    A NaN or infinite entry, or finite entries whose squares overflow, leave
    no threshold to converge to, so they are rejected here; the overflow
    itself is expected and stays silent.
    """
    with np.errstate(over="ignore"):
        norms = (np.linalg.norm(M) if M.ndim == 2
                 else np.sqrt((M * M).sum(axis=(1, 2))))
    if not np.isfinite(norms).all():
        raise ValueError("matrix has non-finite entries (or its norm overflows)")
    return tol * np.maximum(norms, 1.0)


def sym_eigen(
    M: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (decreasing) and orthonormal eigenvectors of a symmetric matrix.

    Cyclic Jacobi; raises :class:`JacobiConvergenceError` when the
    off-diagonal mass has not dropped below ``tol * max(||M||_F, 1)`` within
    ``max_sweeps`` sweeps, and ``ValueError`` on non-finite input.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > 1:
        with np.errstate(invalid="ignore"):  # inf - inf; the threshold gate rejects it
            asym = np.abs(M - M.T).max()
        if asym > 1e-10 * max(1.0, np.abs(M).max()):
            raise ValueError(f"matrix is not symmetric (residual {asym:.3e})")
        M = (M + M.T) / 2.0
    thresh = _jacobi_thresh(M, tol)
    w, V, off = _kernels.jacobi_eigh(M, tol, max_sweeps)
    if not off <= thresh:  # "not <=" so that a NaN residual counts as unconverged
        raise JacobiConvergenceError(off, max_sweeps)
    order = _sorted_desc(w)
    return w[order], V[:, order]


def sym_eigvals_batch(
    S: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> np.ndarray:
    """Decreasing eigenvalues of a stack of symmetric matrices."""
    S = np.asarray(S, dtype=np.float64)
    thresh = _jacobi_thresh(S, tol)
    W, offs = _kernels.jacobi_vals_batch(S, tol, max_sweeps)
    if not (offs <= thresh).all():
        raise JacobiConvergenceError(float(offs.max()), max_sweeps)
    return -np.sort(-W, axis=1)


def sym_eigh_batch(
    S: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_eigen` over a stack: decreasing eigenvalues (m, n) and the
    matching orthonormal eigenvector columns (m, n, n)."""
    S = np.asarray(S, dtype=np.float64)
    thresh = _jacobi_thresh(S, tol)
    W, V, offs = _kernels.jacobi_batch(S, tol, max_sweeps, vectors=True)
    if not (offs <= thresh).all():
        raise JacobiConvergenceError(float(offs.max()), max_sweeps)
    order = np.argsort(-W, axis=1, kind="stable")
    return (np.take_along_axis(W, order, axis=1),
            np.take_along_axis(V, order[:, None, :], axis=2))


def _spin_radius(x: Element) -> float:
    """||xbar|| of a spin-factor element.

    Non-finite coordinates, or a norm that overflows, are rejected; the
    overflow itself is expected and stays silent.
    """
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(x.coords[1:]))
        top = abs(float(x.coords[0])) + r  # bounds both eigenvalues x0 +- r
    if not math.isfinite(top):
        raise ValueError("element has non-finite coordinates (or overflows)")
    return r


def _spin_radius_batch(X: np.ndarray) -> np.ndarray:
    """:func:`_spin_radius` of every row of an (m, n) spin-factor array."""
    with np.errstate(over="ignore"):
        r = np.linalg.norm(X[:, 1:], axis=1)
        top = np.abs(X[:, 0]) + r
    if not np.isfinite(top).all():
        raise ValueError("element has non-finite coordinates (or overflows)")
    return r


def _spin_decompose(x: Element) -> tuple[np.ndarray, list[Element]]:
    d = x.descriptor
    x0 = x.coords[0]
    bar = x.coords[1:]
    r = _spin_radius(x)
    if r == 0.0:
        u = np.zeros(d.n - 1)
        u[0] = 1.0  # deterministic completion for the degenerate direction
    else:
        u = bar / r
    cplus = np.concatenate(([0.5], 0.5 * u))
    cminus = np.concatenate(([0.5], -0.5 * u))
    vals = np.array([x0 + r, x0 - r])
    return vals, [Element(d, cplus), Element(d, cminus)]


def _embed(d: DirectSum, sl: slice, part: Element) -> Element:
    coords = np.zeros(d.dim)
    coords[sl] = part.coords
    return Element(d, coords)


def spectral_decompose(x: Element) -> SpectralDecomposition:
    """Spectral decomposition x = sum_i lambda_i e_i, eigenvalues decreasing."""
    d = x.descriptor
    if isinstance(d, SymMatrix):
        w, V = sym_eigen(sym_unpack(x.coords, d.n))
        frame = [Element(d, sym_pack(np.outer(V[:, i], V[:, i]))) for i in range(d.n)]
        return SpectralDecomposition(w, JordanFrame(tuple(frame)))
    if isinstance(d, SpinFactor):
        vals, frame = _spin_decompose(x)
        return SpectralDecomposition(vals, JordanFrame(tuple(frame)))
    vals_all = []
    frame_all = []
    for f, sl in factor_slices(d):
        sub = spectral_decompose(Element(f, x.coords[sl]))
        vals_all.append(sub.eigenvalues)
        frame_all.extend(_embed(d, sl, e) for e in sub.frame.idempotents)
    vals = np.concatenate(vals_all)
    order = _sorted_desc(vals)
    frame = tuple(frame_all[i] for i in order)
    return SpectralDecomposition(vals[order], JordanFrame(frame))


def eigvals(x: Element) -> np.ndarray:
    """Eigenvalue vector lambda(x), sorted decreasing."""
    d = x.descriptor
    if isinstance(d, SymMatrix):
        M = sym_unpack(x.coords, d.n)
        thresh = _jacobi_thresh(M, JACOBI_TOL)
        w, off = _kernels.jacobi_vals(M, JACOBI_TOL, JACOBI_MAX_SWEEPS)
        if not off <= thresh:
            raise JacobiConvergenceError(off, JACOBI_MAX_SWEEPS)
        return w[_sorted_desc(w)]
    if isinstance(d, SpinFactor):
        x0 = x.coords[0]
        r = _spin_radius(x)
        return np.array([x0 + r, x0 - r])
    parts = [eigvals(Element(f, x.coords[sl])) for f, sl in factor_slices(d)]
    vals = np.concatenate(parts)
    return vals[_sorted_desc(vals)]


# --- batched forms on (m, dim) coordinate arrays -----------------------------------
#
# Row i of every array belongs to sample i; each row gets the same arithmetic
# as the scalar function above applied to that sample alone, up to roundoff.

def eigvals_batch(d: AlgebraDescriptor, X: np.ndarray) -> np.ndarray:
    """:func:`eigvals` of every row of X: (m, rank), each row decreasing."""
    if isinstance(d, SymMatrix):
        return sym_eigvals_batch(sym_unpack(X, d.n))
    if isinstance(d, SpinFactor):
        r = _spin_radius_batch(X)
        return np.stack([X[:, 0] + r, X[:, 0] - r], axis=1)
    vals = np.concatenate([eigvals_batch(f, X[:, sl]) for f, sl in factor_slices(d)],
                          axis=1)
    return -np.sort(-vals, axis=1)


def spectral_decompose_batch(d: AlgebraDescriptor,
                             X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`spectral_decompose` of every row of X.

    Returns eigenvalues (m, rank), each row decreasing, and frames
    (m, rank, dim): ``frames[i, k]`` holds the coordinates of the idempotent
    carrying eigenvalue ``vals[i, k]``.
    """
    m = X.shape[0]
    if isinstance(d, SymMatrix):
        W, V = sym_eigh_batch(sym_unpack(X, d.n))
        # frames[i, k] = pack(v_k v_k^T) for the k-th eigenvector of sample i
        return W, sym_pack(np.einsum("mik,mjk->mkij", V, V))
    if isinstance(d, SpinFactor):
        r = _spin_radius_batch(X)
        u = np.zeros((m, d.n - 1))
        u[:, 0] = 1.0  # deterministic completion for the degenerate direction
        nz = r != 0.0
        u[nz] = X[nz, 1:] / r[nz, None]
        frames = np.empty((m, 2, d.n))
        frames[:, :, 0] = 0.5
        frames[:, 0, 1:] = 0.5 * u
        frames[:, 1, 1:] = -0.5 * u
        return np.stack([X[:, 0] + r, X[:, 0] - r], axis=1), frames
    vals = np.empty((m, d.rank))
    frames = np.zeros((m, d.rank, d.dim))
    k = 0
    for f, sl in factor_slices(d):
        vals[:, k:k + f.rank], frames[:, k:k + f.rank, sl] = \
            spectral_decompose_batch(f, X[:, sl])
        k += f.rank
    order = np.argsort(-vals, axis=1, kind="stable")
    return (np.take_along_axis(vals, order, axis=1),
            np.take_along_axis(frames, order[:, :, None], axis=1))


def rebuild_batch(frames: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """:func:`rebuild` of every row: coordinates sum_k vals[i, k] frames[i, k]."""
    return np.einsum("mk,mkd->md", vals, frames)


@lru_cache(maxsize=None)
def standard_frame(d: AlgebraDescriptor) -> JordanFrame:
    """The canonical frame: matrix units for Sym, the first-axis pair for Spin."""
    if isinstance(d, SymMatrix):
        frame = []
        for i in range(d.n):
            M = np.zeros((d.n, d.n))
            M[i, i] = 1.0
            frame.append(Element(d, sym_pack(M)))
        return JordanFrame(tuple(frame))
    if isinstance(d, SpinFactor):
        vals, frame = _spin_decompose(unit(d))
        return JordanFrame(tuple(frame))
    frame = []
    for f, sl in factor_slices(d):
        frame.extend(_embed(d, sl, e) for e in standard_frame(f).idempotents)
    return JordanFrame(tuple(frame))


# --- spectral functions ----------------------------------------------------------

def abs_el(x: Element) -> Element:
    """|x|: absolute values of the eigenvalues on x's frame."""
    sd = spectral_decompose(x)
    return rebuild(sd.frame, np.abs(sd.eigenvalues))


def sqrt_el(x: Element, tol: float = SQRT_CLAMP_TOL) -> Element:
    """Square root of a cone element; eigenvalues in [-tol, 0) clamp to 0."""
    sd = spectral_decompose(x)
    vals = sd.eigenvalues
    if vals.min() < -tol:
        raise ConeError(
            f"sqrt of an element outside the cone (min eigenvalue {vals.min():.3e})"
        )
    return rebuild(sd.frame, np.sqrt(np.maximum(vals, 0.0)))


def trace(x: Element) -> float:
    """tr(x) = <x, e>, the eigenvalue sum."""
    return inner(x, unit(x.descriptor))


def det(x: Element) -> float:
    """Product of the eigenvalues."""
    return float(np.prod(eigvals(x)))


def pnorm(x: Element, p: float) -> float:
    """Spectral p-norm ||lambda(x)||_p for p in [1, inf]."""
    return vec_pnorm(eigvals(x), p)
