"""Spectral machinery: eigenvalue vectors, Jordan frames, spectral functions.

Every element decomposes as ``x = sum_i lambda_i e_i`` over a Jordan frame of
orthonormal primitive idempotents; the eigenvalue vector is kept in
decreasing order with stable tie order.  Symmetric-matrix factors are solved
by the in-house batched cyclic Jacobi kernel, spin factors in closed form
(``x0 +- ||xbar||``), direct sums by merging factor decompositions.  There
is one code path: the batched forms work on (m, dim) coordinate arrays, and
every function on one element (``eigvals``, ``spectral_decompose``,
``rebuild``, ``sqrt_el``, ``sym_eigen``) is a batch of one of its row form,
so a sample has the same bits alone as in any sweep.
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
    _triu_ix,
    factor_slices,
    inner,
    jordan_product_coords,
    norm_rows,
    row_sum,
    sym_unpack,
    symmetric_stack,
    unit,
    weight_vector,
)
from .majorization import vec_pnorm

JACOBI_TOL = _kernels.JACOBI_TOL
JACOBI_MAX_SWEEPS = _kernels.JACOBI_MAX_SWEEPS
# below this spin radius the sum of squares leaves the normal range
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))


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

    @property
    def coords(self) -> np.ndarray:
        """(rank, dim) coordinates of the idempotents, one per row."""
        return np.stack([e.coords for e in self.idempotents])


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
    return Element(frame.descriptor,
                   rebuild_batch(frame.coords[None], np.asarray(vals, dtype=np.float64)[None])[0])


def frame_residuals(frame: JordanFrame) -> dict:
    """Worst idempotency / orthonormality / unit-sum residuals of a frame."""
    d, E = frame.descriptor, frame.coords
    gram = (weight_vector(d) * E) @ E.T
    return {"idempotency": float(norm_rows(d, jordan_product_coords(d, E, E) - E).max()),
            "orthonormality": float(np.abs(gram - np.eye(len(E))).max()),
            "unit_sum": float(norm_rows(d, E.sum(axis=0) - unit(d).coords))}


def _jacobi_thresh(S: np.ndarray):
    """Convergence threshold ``JACOBI_TOL * max(||M||_F, 1)`` of every matrix M of
    an (m, n, n) stack.

    A NaN or infinite entry, or finite entries whose squares overflow, leave
    no threshold to converge to, so they are rejected here; the overflow
    itself is expected and stays silent.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt(row_sum((S * S).reshape(len(S), S.shape[-1] ** 2)))
    if not np.isfinite(norms).all():
        raise ValueError("matrix has non-finite entries (or its norm overflows)")
    return JACOBI_TOL * np.maximum(norms, 1.0)


def sym_eigen(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (decreasing) and orthonormal eigenvectors of a symmetric matrix.

    A batch of one of :func:`sym_eigh_batch` after the symmetric-matrix
    intake (:func:`algebra.symmetric_stack`); raises
    :class:`JacobiConvergenceError` when the off-diagonal mass has not
    dropped below ``JACOBI_TOL * max(||M||_F, 1)`` in ``JACOBI_MAX_SWEEPS`` sweeps.
    """
    W, V = sym_eigh_batch(symmetric_stack(np.asarray(M)[None]))
    return W[0], V[0]


def sym_eigvals_batch(S: np.ndarray) -> np.ndarray:
    """Decreasing eigenvalues of a stack of symmetric matrices."""
    S = np.asarray(S, dtype=np.float64)
    thresh = _jacobi_thresh(S)
    W, offs = _kernels.jacobi_vals_batch(S, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    if not (offs <= thresh).all():
        raise JacobiConvergenceError(float(offs.max()), JACOBI_MAX_SWEEPS)
    return -np.sort(-W, axis=1)


def sym_eigh_batch(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sym_eigen` over a stack: decreasing eigenvalues (m, n) and the
    matching orthonormal eigenvector columns (m, n, n)."""
    S = np.asarray(S, dtype=np.float64)
    thresh = _jacobi_thresh(S)
    W, V, offs = _kernels.jacobi_batch(S, JACOBI_TOL, JACOBI_MAX_SWEEPS, vectors=True)
    if not (offs <= thresh).all():
        raise JacobiConvergenceError(float(offs.max()), JACOBI_MAX_SWEEPS)
    order = np.argsort(-W, axis=1, kind="stable")
    return (np.take_along_axis(W, order, axis=1),
            np.take_along_axis(V, order[:, None, :], axis=2))


def _spin_radius_batch(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """||xbar|| of every row of an (m, n) spin-factor array, with the
    direction xbar / ||xbar|| as a quotient V / s of a rescaled xbar.

    Returns (r, V, s).  Where the sum of squares stays in the normal range,
    V is xbar and s = r.  On a row with xbar != 0 whose plain radius is
    below sqrt(tiny), where the squares lose bits or underflow to 0, V is
    xbar / max|xbar_i|, s = ||V|| and r = max|xbar_i| * s.  Non-finite
    coordinates, or a norm that overflows, are rejected; the overflow
    itself is expected and stays silent.
    """
    V = X[:, 1:]
    with np.errstate(over="ignore"):
        r = np.sqrt(row_sum(V * V))
        top = np.abs(X[:, 0]) + r
    if not np.isfinite(top).all():
        raise ValueError("element has non-finite coordinates (or overflows)")
    s = r
    low = r < _SQRT_TINY
    if low.any():
        low &= V.any(axis=1)  # xbar = 0 keeps r = 0
        big = np.abs(V[low]).max(axis=1, initial=0.0)
        V, s = V.copy(), r.copy()
        V[low] /= big[:, None]
        s[low] = np.sqrt(row_sum(V[low] * V[low]))
        r[low] = big * s[low]
    return r, V, s


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
        r = _spin_radius_batch(X)[0]
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
        # frames[i, k] = pack(v_k v_k^T) for the k-th eigenvector of sample i,
        # each packed entry one product v_k[r] v_k[c]
        rows, cols = _triu_ix(d.n)
        return W, (V[:, rows, :] * V[:, cols, :]).transpose(0, 2, 1)
    if isinstance(d, SpinFactor):
        r, V, s = _spin_radius_batch(X)
        u = np.zeros((m, d.n - 1))
        u[:, 0] = 1.0  # deterministic completion for the degenerate direction
        nz = s != 0.0
        u[nz] = V[nz] / s[nz, None]
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
    """The square root of every row, given its decomposition (vals, frames)
    from :func:`spectral_decompose_batch`; negative eigenvalues clamp to 0.
    The caller decides which rows are cone elements
    (:func:`require_cone`)."""
    return rebuild_batch(frames, np.sqrt(np.maximum(vals, 0.0)))


def cone_floor(vals: np.ndarray, atol: float) -> np.ndarray:
    """Lowest smallest eigenvalue accepted from each cone element of a stack
    whose decreasing eigenvalues are the rows of ``vals``."""
    return -(1e-8 * np.maximum(1.0, np.abs(vals).max(axis=1)) + atol)


def require_cone(vals: np.ndarray, atol: float, label: str) -> None:
    """Raise ConeError unless every row of ``vals`` clears :func:`cone_floor`."""
    bad = np.flatnonzero(vals[:, -1] < cone_floor(vals, atol))
    if bad.size:
        raise ConeError(f"{label} is not in the cone (min eigenvalue {vals[bad[0], -1]:.3e})")


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


def sqrt_el(x: Element) -> Element:
    """Square root of a cone element, one that clears the cone floor at atol
    0 (:func:`require_cone`): row 0 of :func:`sqrt_batch`."""
    d = x.descriptor
    vals, frames = spectral_decompose_batch(d, x.coords[None])
    require_cone(vals, 0.0, "x")
    return Element(d, sqrt_batch(vals, frames)[0])


def trace(x: Element) -> float:
    """tr(x) = <x, e>, the eigenvalue sum."""
    return inner(x, unit(x.descriptor))


def det(x: Element) -> float:
    """Product of the eigenvalues."""
    return float(np.prod(eigvals(x)))


def pnorm(x: Element, p: float) -> float:
    """Spectral p-norm ||lambda(x)||_p for p in [1, inf]."""
    return vec_pnorm(eigvals(x), p)
