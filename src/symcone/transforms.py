"""Linear transformations on the algebra: multiplication operators, quadratic
representations, Peirce projections, frame-relative Schur products, sublinear
spectral maps, and positive linear maps.  Each linear map is applied by one row
form on an (m, dim) coordinate stack (``algebra.jordan_product_coords``,
:func:`quad_rep_coords`, :func:`schur_rows`, :func:`apply_factors_rows`), and
every function on one element (``quad_rep``, ``quad_rep_sqrt``, ``schur``,
``peirce_project``, ``apply_sublinear``) is a batch of one of its row form.
A multiplier (:class:`SchurMatrix`, :func:`multiplier_stack`) comes in through
``algebra.symmetric_stack``, and meets the frame it acts on in :func:`frame_multiplier`.

The Schur product ``A . x`` relative to a frame {e_1, ..., e_n} multiplies
the Peirce component x_ij by A[i, j]; with ``A = [(a_i + a_j)/2]`` it equals
``lyap(a, .)`` and with ``A = [a_i a_j]`` it equals ``quad_rep(a, .)``, both
taken on a's own frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DescriptorMismatchError,
    Element,
    StackError,
    _check_pair,
    _float_stack,
    jordan_product,
    jordan_product_coords,
    row_sum,
    symmetric_stack,
    weight_vector,
)
from .spectral import (
    JordanFrame,
    frame_residuals,
    rebuild_batch,
    require_cone,
    spectral_decompose_batch,
    sqrt_batch,
    sym_eigvals_batch,
)


class FrameError(ValueError):
    """A supplied Jordan frame failed validation."""


_FRAME_CHECK_TOL = 1e-7


def validate_frame(frame: JordanFrame) -> None:
    worst = max(frame_residuals(frame).values())
    if worst > _FRAME_CHECK_TOL:
        raise FrameError(f"invalid Jordan frame (worst residual {worst:.3e})")


@dataclass(frozen=True)
class SchurMatrix:
    """Symmetric multiplier matrix acting on Peirce components."""

    entries: np.ndarray

    def __post_init__(self):
        (A,) = symmetric_stack(np.asarray(self.entries)[None], "multiplier matrix")
        object.__setattr__(self, "entries", A)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def diag(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def min_eigenvalue(self) -> float:
        return float(sym_eigvals_batch(self.entries[None])[0, -1])

    def psd_floor(self) -> float:
        """Lowest min eigenvalue of a PSD multiplier: -1e-10 * max(1, max|A_ij|)."""
        scale = max(1.0, float(np.abs(self.entries).max()))
        return -1e-10 * scale

    def is_psd(self) -> bool:
        return self.min_eigenvalue() >= self.psd_floor()

    @classmethod
    def load(cls, path) -> "SchurMatrix":
        """A multiplier file of rows of JSON numbers (``algebra._float_stack``):
        a ``.csv`` file's lines (:func:`_csv_rows`), else one JSON array."""
        with open(path) as fh:
            rows = _csv_rows(fh) if str(path).endswith(".csv") else json.load(fh)
        E = _float_stack([rows], 2)
        if E is None:
            raise ValueError("a multiplier must be equal-length rows of float-range JSON numbers")
        return cls(E[0])


def _csv_rows(lines) -> list:
    """The rows of a multiplier CSV: each line is the body of a JSON array of
    numbers, as many as on the first row, and a line of JSON whitespace is
    skipped; a bad line raises ValueError naming it."""
    rows = []
    for lineno, line in enumerate(lines, 1):
        try:
            row = json.loads("[" + line + "]")
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            row = [None]
        if not row:
            continue
        if _float_stack(rows[:1] + [row], 1) is None:
            raise ValueError(f"line {lineno}: a multiplier CSV line must be float-range "
                             f"JSON numbers separated by commas, as many as in the first row")
        rows.append(row)
    return rows


@dataclass(frozen=True)
class SublinearFn:
    """Piecewise-linear map through the origin: alpha*t on t>=0, beta*t on t<0.

    beta <= alpha is exactly sublinearity; alpha >= 0 >= beta makes the
    function nonnegative.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta > self.alpha:
            raise ValueError(
                f"not sublinear: beta={self.beta} exceeds alpha={self.alpha}"
            )

    @property
    def is_nonnegative(self) -> bool:
        return self.alpha >= 0.0 and self.beta <= 0.0

    def __call__(self, t: float) -> float:
        return self.alpha * t if t >= 0 else self.beta * t


ABS_FN = SublinearFn(1.0, -1.0)
POS_FN = SublinearFn(1.0, 0.0)
NEG_FN = SublinearFn(0.0, -1.0)


def apply_sublinear(phi: SublinearFn, x: Element) -> Element:
    """Spectral map of a sublinear function on x's frame: a batch of one of
    :func:`apply_sublinear_rows`."""
    d = x.descriptor
    return Element(d, apply_sublinear_rows(d, np.array([phi.alpha]), np.array([phi.beta]),
                                           x.coords[None])[0])


def apply_sublinear_rows(d: AlgebraDescriptor, alpha: np.ndarray, beta: np.ndarray,
                         X: np.ndarray) -> np.ndarray:
    """:func:`apply_sublinear` of every row of X, row i through the function
    with slopes ``alpha[i]`` (t >= 0) and ``beta[i]`` (t < 0)."""
    vals, frames = spectral_decompose_batch(d, X)
    mapped = np.where(vals >= 0, alpha[:, None] * vals, beta[:, None] * vals)
    return rebuild_batch(frames, mapped)


def lyap(a: Element, x: Element) -> Element:
    """Multiplication operator L_a applied to x, i.e. a o x."""
    return jordan_product(a, x)


def quad_rep_coords(d: AlgebraDescriptor, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P_a(x) on packed coordinates; rows of (m, dim) arrays pair up."""
    ax = jordan_product_coords(d, a, x)
    return (2.0 * jordan_product_coords(d, a, ax)
            - jordan_product_coords(d, jordan_product_coords(d, a, a), x))


def quad_rep(a: Element, x: Element) -> Element:
    """Quadratic representation P_a(x) = 2 a o (a o x) - a^2 o x."""
    _check_pair(a, x)
    return Element(a.descriptor, quad_rep_coords(a.descriptor, a.coords, x.coords))


def quad_rep_sqrt(a: Element, b: Element) -> Element:
    """P applied at the square root of a cone element a: row 0 of
    :func:`quad_rep_sqrt_rows`."""
    _check_pair(a, b)
    return Element(a.descriptor,
                   quad_rep_sqrt_rows(a.descriptor, a.coords[None], b.coords[None])[0])


def quad_rep_sqrt_rows(d: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P_sqrt(a) b for every pair of rows of the (m, dim) arrays a, b; each a
    must clear the cone floor at atol 0 (:func:`spectral.require_cone`), and
    the square root is :func:`spectral.sqrt_batch`'s."""
    vals, frames = spectral_decompose_batch(d, a)
    require_cone(vals, 0.0, "a")
    return quad_rep_coords(d, sqrt_batch(vals, frames), b)


MultiplierError = StackError  # a multiplier that failed :func:`multiplier_stack`


def multiplier_stack(As, rank: int) -> np.ndarray:
    """Entries of a sequence of multipliers (matrices or :class:`SchurMatrix`)
    as one read-only (k, rank, rank) stack, through the symmetric intake
    (``algebra.symmetric_stack``) and then a check of size ``rank``.  The
    first bad multiplier raises the message of its first failed check as a
    MultiplierError whose ``index`` is its position in ``As``."""
    if not isinstance(As, np.ndarray):
        As = [a.entries if isinstance(a, SchurMatrix) else a for a in As]
        try:
            As = np.array(As, dtype=np.float64)
        except (TypeError, ValueError):  # ragged: find the first culprit alone
            for i, A in enumerate(As):
                try:
                    multiplier_stack(np.array(A, dtype=np.float64)[None], rank)
                except (TypeError, ValueError) as exc:
                    raise MultiplierError(str(exc), i) from None
            raise
    wrong_size = As.shape[1:] != (rank, rank)  # then row 0 fails first
    E = symmetric_stack(As[:1] if wrong_size else As, "multiplier matrix")
    if wrong_size:
        raise MultiplierError(f"multiplier size {E.shape[1]} does not match frame rank {rank}", 0)
    return E


def frame_multiplier(A, frame: JordanFrame, d: AlgebraDescriptor | None = None) -> SchurMatrix:
    """A multiplier (a matrix or a :class:`SchurMatrix`) as the SchurMatrix
    acting on ``frame``; raises unless it has the frame's rank and, given d,
    the frame is of the algebra d."""
    A = A if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A))
    if A.n != len(frame):
        raise ValueError(f"multiplier size {A.n} does not match frame rank {len(frame)}")
    if d is not None and d != frame.descriptor:
        raise DescriptorMismatchError(f"frame of {frame.descriptor} vs element of {d}")
    return A


def _peirce_terms(d: AlgebraDescriptor, frames: np.ndarray, X: np.ndarray):
    """The Peirce components x_ij = c[:, None] * v of every row of X on its
    frame ``frames[i]``, as (i, j, c, v) for i <= j: for each j the diagonal
    one (c = <x, e_j>, v = e_j), then the off-diagonal ones (c = 4,
    v = e_i o (e_j o x)) for i < j."""
    w = weight_vector(d)
    four = np.full(len(X), 4.0)
    for j in range(frames.shape[1]):
        ej = frames[:, j]
        yield j, j, row_sum(w * X * ej), ej
        tj = jordan_product_coords(d, ej, X)
        for i in range(j):
            yield i, j, four, jordan_product_coords(d, frames[:, i], tj)


def peirce_project(frame: JordanFrame, x: Element) -> dict:
    """Peirce components {(i, j): x_ij, i <= j} relative to a frame, as
    :func:`schur_rows` weights them, on a batch of one.

    Diagonal components are <x, e_i> e_i; off-diagonal ones 4 e_i o (e_j o x).
    The components sum back to x and are mutually orthogonal.
    """
    _check_pair(frame.idempotents[0], x)
    validate_frame(frame)
    return {(i, j): Element(x.descriptor, c[0] * v[0])
            for i, j, c, v in _peirce_terms(x.descriptor, frame.coords[None], x.coords[None])}


def schur(A, frame: JordanFrame, x: Element) -> Element:
    """Frame-relative Schur product A . x = sum_{i<=j} A[i,j] x_ij: row 0 of
    :func:`schur_rows`."""
    A = frame_multiplier(A, frame, x.descriptor)
    validate_frame(frame)
    return Element(x.descriptor,
                   schur_rows(x.descriptor, A.entries[None], frame.coords[None], x.coords[None])[0])


def schur_rows(d: AlgebraDescriptor, A: np.ndarray, frames: np.ndarray,
               X: np.ndarray) -> np.ndarray:
    """:func:`schur` of every row: row i of X times the multiplier ``A[i]``
    on the frame ``frames[i]`` ((m, rank, dim) idempotent coordinates, as
    :func:`spectral.spectral_decompose_batch` returns them), the weighted
    Peirce components added in the order :func:`peirce_project` lists them.
    """
    out = np.zeros(X.shape)
    for i, j, c, v in _peirce_terms(d, frames, X):
        out += (A[:, i, j] * c)[:, None] * v
    return out


def peirce_projectors(frame: JordanFrame) -> np.ndarray:
    """Matrices of the Peirce projections on packed coordinates.

    Returns P of shape (rank, rank, dim, dim): for i <= j, ``P[i, j] @
    x.coords`` are the coordinates of the component x_ij of
    :func:`peirce_project`; ``P[i, j]`` is zero for i > j.  Column k is the
    component of the k-th coordinate basis element, all taken as one stack.
    """
    validate_frame(frame)
    d, E = frame.descriptor, frame.coords
    P = np.zeros((len(frame), len(frame), d.dim, d.dim))
    for i, j, c, v in _peirce_terms(d, np.broadcast_to(E, (d.dim,) + E.shape), np.eye(d.dim)):
        P[i, j] = (c[:, None] * v).T
    return P


def schur_stack(E: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Schur matrices ``sum_{i<=j} E[k, i, j] P[i, j]`` of a checked (k, rank,
    rank) multiplier stack (:func:`multiplier_stack`), as (k, dim, dim); the
    projectors below the diagonal are zero.  The terms are added one at a
    time in a fixed order, so a multiplier's matrix has the same bits alone
    and in any stack."""
    out = np.zeros(E.shape[:1] + P.shape[2:])
    for i in range(P.shape[0]):
        for j in range(i, P.shape[0]):
            out += E[:, i, j, None, None] * P[i, j]
    return out


def lyap_multiplier(vals: np.ndarray) -> SchurMatrix:
    """Multiplier [(a_i + a_j) / 2] reproducing lyap on the matching frame."""
    v = np.asarray(vals, dtype=np.float64)
    return SchurMatrix((v[:, None] + v[None, :]) / 2.0)


def quad_multiplier(vals: np.ndarray) -> SchurMatrix:
    """Multiplier [a_i * a_j] reproducing quad_rep on the matching frame."""
    v = np.asarray(vals, dtype=np.float64)
    return SchurMatrix(np.outer(v, v))


# --- positive linear transformations ---------------------------------------------

class PositivityError(ValueError):
    """A multiplier required to be positive semidefinite is not."""


@dataclass(frozen=True)
class PositiveLinearMap:
    """A positive linear map built by the constructors below: quadratic
    representations, Schur products with PSD multipliers, and compositions
    of those, positive by construction.  ``factors`` are its operands,
    outermost first: ``("quad", c)`` for P_c and ``("schur", A, frame)`` for
    a Schur product; they rebuild the map.
    """

    descriptor: AlgebraDescriptor
    label: str
    factors: tuple

    def rows(self, X: np.ndarray) -> np.ndarray:
        """The map on every row of an (m, dim) coordinate stack."""
        return apply_factors_rows(self.descriptor, factor_rows(self.factors, len(X)), X)

    def __call__(self, x: Element) -> Element:
        if x.descriptor != self.descriptor:
            raise DescriptorMismatchError(f"map on {self.descriptor} vs element of {x.descriptor}")
        return Element(self.descriptor, self.rows(x.coords[None])[0])


def positive_quad_map(c: Element) -> PositiveLinearMap:
    """P_c; maps the cone into itself for every c."""
    return PositiveLinearMap(c.descriptor, "quad_rep", (("quad", c),))


def psd_multiplier(A, frame: JordanFrame, d: AlgebraDescriptor | None = None) -> SchurMatrix:
    """:func:`frame_multiplier`, then a PositivityError unless A is PSD, then
    :func:`validate_frame`."""
    A = frame_multiplier(A, frame, d)
    low = A.min_eigenvalue()
    if low < A.psd_floor():
        raise PositivityError(f"multiplier is not positive semidefinite (min eig {low:.3e})")
    validate_frame(frame)
    return A


def positive_schur_map(A, frame: JordanFrame) -> PositiveLinearMap:
    """Schur product with a PSD multiplier (:func:`psd_multiplier`)."""
    A = psd_multiplier(A, frame)
    return PositiveLinearMap(frame.descriptor, "schur_psd", (("schur", A, frame),))


def compose_positive(P: PositiveLinearMap, Q: PositiveLinearMap) -> PositiveLinearMap:
    if P.descriptor != Q.descriptor:
        raise ValueError("cannot compose maps over different algebras")
    return PositiveLinearMap(P.descriptor, f"{P.label}*{Q.label}", P.factors + Q.factors)


def factor_rows(factors: tuple, m: int) -> tuple:
    """Factors ``("quad", c)`` and ``("schur", A, frame)`` (a
    :class:`PositiveLinearMap`'s) with their operands repeated for m rows,
    as :func:`apply_factors_rows` takes them."""
    def rows(op):
        return np.broadcast_to(op, (m,) + op.shape)
    return tuple(("quad", rows(f[1].coords)) if f[0] == "quad"
                 else ("schur", rows(f[1].entries), rows(f[2].coords))
                 for f in factors)


def apply_factors_rows(d: AlgebraDescriptor, factors, X: np.ndarray) -> np.ndarray:
    """Row i of X through a composition of positive maps, outermost first,
    each factor holding the operands of every row: ``("quad", C)`` applies
    P_c with c = C[i], ``("schur", A, frames)`` the Schur product with A[i]
    on the frame frames[i]."""
    for kind, *ops in reversed(factors):
        X = quad_rep_coords(d, ops[0], X) if kind == "quad" else schur_rows(d, *ops, X)
    return X
