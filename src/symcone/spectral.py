"""Spectral machinery: eigenvalue vectors, Jordan frames, spectral functions.

Every element decomposes as ``x = sum_i lambda_i e_i`` over a Jordan frame of
orthonormal primitive idempotents; the eigenvalue vector is kept in
decreasing order with stable tie order.  Symmetric-matrix factors are solved
by the in-house batched cyclic Jacobi kernel, spin factors in closed form
(``x0 +- ||xbar||``), direct sums by merging factor decompositions.  There
is one code path: the batched forms work on (m, dim) coordinate arrays, and
the functions on one element (``eigvals``, ``spectral_decompose``,
``rebuild``, ``sym_eigen``) are batches of one of them, so a sample has the
same bits alone as in any sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .algebra import (
    AlgebraDescriptor,
    Element,
    SpinFactor,
    SymMatrix,
    factor_slices,
    inner,
    norm,
    row_sum,
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
    """Element sum_i vals[i] * e_i over the given frame: a batch of one of
    :func:`rebuild_batch`."""
    frames = np.stack([e.coords for e in frame.idempotents])
    return Element(frame.descriptor,
                   rebuild_batch(frames[None], np.asarray(vals, dtype=np.float64)[None])[0])


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


def _jacobi_thresh(S: np.ndarray, tol: float):
    """Convergence threshold ``tol * max(||M||_F, 1)`` of every matrix M of
    an (m, n, n) stack.

    A NaN or infinite entry, or finite entries whose squares overflow, leave
    no threshold to converge to, so they are rejected here; the overflow
    itself is expected and stays silent.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(row_sum((S * S).reshape(len(S), S.shape[-1] ** 2)))
    if not np.isfinite(norms).all():
        raise ValueError("matrix has non-finite entries (or its norm overflows)")
    return tol * np.maximum(norms, 1.0)


def sym_eigen(
    M: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (decreasing) and orthonormal eigenvectors of a symmetric matrix.

    A batch of one of :func:`sym_eigh_batch` after the square and symmetry
    checks; raises :class:`JacobiConvergenceError` when the off-diagonal mass
    has not dropped below ``tol * max(||M||_F, 1)`` within ``max_sweeps``
    sweeps, and ``ValueError`` on non-finite input.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    if n > 1:
        # inf - inf, or a sum that overflows: the threshold gate rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            asym = np.abs(M - M.T).max()
            S = (M + M.T) / 2.0
        if asym > 1e-10 * max(1.0, np.abs(M).max()):
            raise ValueError(f"matrix is not symmetric (residual {asym:.3e})")
        M = S
    W, V = sym_eigh_batch(M[None], tol, max_sweeps)
    return W[0], V[0]


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


def _spin_radius_batch(X: np.ndarray) -> np.ndarray:
    """||xbar|| of every row of an (m, n) spin-factor array.

    Non-finite coordinates, or a norm that overflows, are rejected; the
    overflow itself is expected and stays silent.
    """
    with np.errstate(over="ignore"):
        r = np.sqrt(row_sum(X[:, 1:] * X[:, 1:]))
        top = np.abs(X[:, 0]) + r
    if not np.isfinite(top).all():
        raise ValueError("element has non-finite coordinates (or overflows)")
    return r


def spectral_decompose(x: Element) -> SpectralDecomposition:
    """Spectral decomposition x = sum_i lambda_i e_i, eigenvalues decreasing:
    a batch of one of :func:`spectral_decompose_batch`."""
    d = x.descriptor
    vals, frames = spectral_decompose_batch(d, x.coords[None])
    return SpectralDecomposition(vals[0], JordanFrame(tuple(Element(d, f) for f in frames[0])))


def eigvals(x: Element) -> np.ndarray:
    """Eigenvalue vector lambda(x), sorted decreasing: a batch of one of
    :func:`eigvals_batch`."""
    return eigvals_batch(x.descriptor, x.coords[None])[0]


# --- batched forms on (m, dim) coordinate arrays -----------------------------------
#
# Row i of every array belongs to sample i, and its bits do not depend on the
# other rows; the scalar functions above are batches of one of these.

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
    """:func:`rebuild` of every row: coordinates sum_k vals[i, k] frames[i, k],
    added in turn from k = 0 (an einsum takes its order from the strides)."""
    out = np.zeros(frames.shape[:1] + frames.shape[2:])
    for k in range(frames.shape[1]):
        out += vals[:, k, None] * frames[:, k]
    return out


def sqrt_batch(vals: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """:func:`sqrt_el` at its default tolerance of every row, given its
    decomposition (vals, frames) from :func:`spectral_decompose_batch`."""
    low = vals[:, -1].min(initial=0.0)
    if low < -SQRT_CLAMP_TOL:
        raise ConeError(f"sqrt of an element outside the cone (min eigenvalue {low:.3e})")
    return rebuild_batch(frames, np.sqrt(np.maximum(vals, 0.0)))


@lru_cache(maxsize=None)
def standard_frame(d: AlgebraDescriptor) -> JordanFrame:
    """The canonical frame: matrix units for Sym, the first-axis pair for Spin.

    It is the frame of the unit: Jacobi makes no rotation on the identity, and
    a spin factor's zero vector part takes the first axis.
    """
    return spectral_decompose(unit(d)).frame


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
