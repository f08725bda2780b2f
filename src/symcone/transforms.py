"""Linear transformations on the algebra: multiplication operators, quadratic
representations, Peirce projections, frame-relative Schur products, sublinear
spectral maps, and dense operator matrices for empirical norm work.

The Schur product ``A . x`` relative to a frame {e_1, ..., e_n} multiplies
the Peirce component x_ij by A[i, j]; with ``A = [(a_i + a_j)/2]`` it equals
``lyap(a, .)`` and with ``A = [a_i a_j]`` it equals ``quad_rep(a, .)``, both
taken on a's own frame.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DescriptorMismatchError,
    Element,
    basis_element,
    inner,
    jordan_product,
    jordan_product_coords,
    row_sum,
    weight_vector,
)
from .spectral import (
    JordanFrame,
    eigvals,
    frame_residuals,
    rebuild_batch,
    spectral_decompose,
    spectral_decompose_batch,
    sqrt_batch,
    sqrt_el,
    sym_eigen,
)


class FrameError(ValueError):
    """A supplied Jordan frame failed validation."""


_FRAME_CHECK_TOL = 1e-7
_HALF_MAX = np.finfo(np.float64).max / 2.0


def validate_frame(frame: JordanFrame, tol: float = _FRAME_CHECK_TOL) -> None:
    res = frame_residuals(frame)
    worst = max(res.values())
    if worst > tol:
        raise FrameError(f"invalid Jordan frame (worst residual {worst:.3e})")


@dataclass(frozen=True)
class SchurMatrix:
    """Symmetric multiplier matrix acting on Peirce components."""

    entries: np.ndarray

    def __post_init__(self):
        A = _checked_stack(np.array(self.entries, dtype=np.float64)[None], None)[0]
        object.__setattr__(self, "entries", A)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def diag(self) -> np.ndarray:
        return np.diag(self.entries).copy()

    def min_eigenvalue(self) -> float:
        w, _ = sym_eigen(self.entries)
        return float(w[-1])

    def is_psd(self, tol: float = 1e-10) -> bool:
        scale = max(1.0, float(np.abs(self.entries).max()))
        return self.min_eigenvalue() >= -tol * scale

    @classmethod
    def from_csv(cls, path) -> "SchurMatrix":
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
        return cls(np.asarray(rows))

    @classmethod
    def from_json(cls, path) -> "SchurMatrix":
        with open(path) as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            obj = obj["entries"]
        return cls(np.asarray(obj, dtype=np.float64))

    @classmethod
    def load(cls, path) -> "SchurMatrix":
        if str(path).endswith(".csv"):
            return cls.from_csv(path)
        return cls.from_json(path)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in self.entries:
                writer.writerow([repr(float(v)) for v in row])

    def to_json_obj(self) -> dict:
        return {"entries": [[float(v) for v in row] for row in self.entries]}


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

    def apply_vals(self, vals: np.ndarray) -> np.ndarray:
        vals = np.asarray(vals, dtype=np.float64)
        return np.where(vals >= 0, self.alpha * vals, self.beta * vals)


ABS_FN = SublinearFn(1.0, -1.0)
POS_FN = SublinearFn(1.0, 0.0)
NEG_FN = SublinearFn(0.0, -1.0)


def apply_sublinear(phi: SublinearFn, x: Element) -> Element:
    """Spectral map of a sublinear function on x's frame."""
    from .spectral import rebuild

    sd = spectral_decompose(x)
    return rebuild(sd.frame, phi.apply_vals(sd.eigenvalues))


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
    if a.descriptor != x.descriptor:
        raise DescriptorMismatchError(f"mixed algebras: {a.descriptor} vs {x.descriptor}")
    return Element(a.descriptor, quad_rep_coords(a.descriptor, a.coords, x.coords))


def quad_rep_sqrt(a: Element, b: Element, tol: float = 1e-10) -> Element:
    """P applied at the square root of a cone element a."""
    return quad_rep(sqrt_el(a, tol=tol), b)


def quad_rep_sqrt_rows(d: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`quad_rep_sqrt` at its default tolerance of every pair of rows of
    the (m, dim) arrays a, b."""
    vals, frames = spectral_decompose_batch(d, a)
    return quad_rep_coords(d, sqrt_batch(vals, frames), b)


class MultiplierError(ValueError):
    """A multiplier of a stack failed validation; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _checked_stack(E: np.ndarray, rank: int | None) -> np.ndarray:
    """The multiplier check, for a float (k, n, n) stack: each matrix must be
    square and nonempty, finite, no larger than _HALF_MAX (A + A.T could
    overflow), symmetric within 1e-12 of its scale and, unless ``rank`` is
    None, of size ``rank``.  The first matrix that fails raises the message of
    its first failed check as a MultiplierError; otherwise returns the
    read-only stack of the (A + A.T) / 2."""
    if E.ndim != 3 or E.shape[1] != E.shape[2]:
        raise MultiplierError("multiplier matrix must be square", 0)
    n = E.shape[1]
    if n == 0:
        raise MultiplierError("multiplier matrix must not be empty", 0)
    with np.errstate(invalid="ignore", over="ignore"):  # where not finite or too large
        scale = np.abs(E).max(axis=(1, 2))  # NaN or inf where not finite
        asym = np.abs(E - E.swapaxes(1, 2)).max(axis=(1, 2))
    ok = (scale <= _HALF_MAX) & (asym <= 1e-12 * np.maximum(scale, 1.0))
    wrong_size = rank is not None and n != rank  # then row 0 fails first
    if wrong_size or not ok.all():
        i = 0 if wrong_size else int(np.argmin(ok))
        if not np.isfinite(E[i]).all():
            message = "multiplier matrix entries must be finite"
        elif scale[i] > _HALF_MAX:
            message = f"multiplier matrix entries too large to symmetrize ({scale[i]:.3e})"
        elif not ok[i]:
            message = f"multiplier matrix is not symmetric (residual {asym[i]:.3e})"
        else:
            message = f"multiplier size {n} does not match frame rank {rank}"
        raise MultiplierError(message, i)
    E = (E + E.swapaxes(1, 2)) / 2.0
    E.flags.writeable = False
    return E


def multiplier_stack(As, rank: int) -> np.ndarray:
    """Entries of a sequence of multipliers (matrices or :class:`SchurMatrix`)
    as one read-only (k, rank, rank) stack, checked and symmetrized as a
    SchurMatrix is, and each of size ``rank``.  The first bad multiplier
    raises its message as a MultiplierError whose ``index`` is its position
    in ``As``."""
    if not isinstance(As, np.ndarray):
        As = [a.entries if isinstance(a, SchurMatrix) else a for a in As]
        try:
            As = np.array(As, dtype=np.float64)
        except (TypeError, ValueError):  # ragged: find the first culprit alone
            for i, A in enumerate(As):
                try:
                    _checked_stack(np.array(A, dtype=np.float64)[None], rank)
                except (TypeError, ValueError) as exc:
                    raise MultiplierError(str(exc), i) from None
            raise
    return _checked_stack(np.asarray(As, dtype=np.float64), rank)


def _as_entries(A, rank: int) -> np.ndarray:
    if isinstance(A, SchurMatrix) and A.n == rank:
        return A.entries
    return multiplier_stack([A], rank)[0]


def peirce_project(frame: JordanFrame, x: Element, validate: bool = True) -> dict:
    """Peirce components {(i, j): x_ij, i <= j} relative to a frame.

    Diagonal components are <x, e_i> e_i; off-diagonal ones 4 e_i o (e_j o x).
    The components sum back to x and are mutually orthogonal.
    """
    if validate:
        validate_frame(frame)
    es = frame.idempotents
    comps = {}
    for j, ej in enumerate(es):
        comps[(j, j)] = inner(x, ej) * ej
        tj = jordan_product(ej, x)
        for i in range(j):
            comps[(i, j)] = 4.0 * jordan_product(es[i], tj)
    return comps


def schur(A, frame: JordanFrame, x: Element, validate: bool = True) -> Element:
    """Frame-relative Schur product A . x = sum_{i<=j} A[i,j] x_ij."""
    ents = _as_entries(A, len(frame))
    if frame.descriptor != x.descriptor:
        raise DescriptorMismatchError(
            f"mixed algebras: {frame.descriptor} vs {x.descriptor}")
    if validate:
        validate_frame(frame)
    frames = np.stack([e.coords for e in frame.idempotents])
    return Element(x.descriptor,
                   schur_rows(x.descriptor, ents[None], frames[None], x.coords[None])[0])


def schur_rows(d: AlgebraDescriptor, A: np.ndarray, frames: np.ndarray,
               X: np.ndarray) -> np.ndarray:
    """:func:`schur` of every row: row i of X times the multiplier ``A[i]``
    on the frame ``frames[i]`` ((m, rank, dim) idempotent coordinates, as
    :func:`spectral.spectral_decompose_batch` returns them).

    The Peirce components are those of :func:`peirce_project`: diagonal
    ones <x, e_j> e_j, off-diagonal ones 4 e_i o (e_j o x).
    """
    w = weight_vector(d)
    out = np.zeros(X.shape)
    for j in range(frames.shape[1]):
        ej = frames[:, j]
        out += (A[:, j, j] * row_sum(w * X * ej))[:, None] * ej
        tj = jordan_product_coords(d, ej, X)
        for i in range(j):
            out += (4.0 * A[:, i, j])[:, None] * jordan_product_coords(d, frames[:, i], tj)
    return out


def peirce_projectors(frame: JordanFrame) -> np.ndarray:
    """Matrices of the Peirce projections on packed coordinates.

    Returns P of shape (rank, rank, dim, dim): for i <= j, ``P[i, j] @
    x.coords`` are the coordinates of the component x_ij of
    :func:`peirce_project`; ``P[i, j]`` is zero for i > j.
    """
    validate_frame(frame)
    d = frame.descriptor
    P = np.zeros((len(frame), len(frame), d.dim, d.dim))
    for k in range(d.dim):
        comps = peirce_project(frame, basis_element(d, k), validate=False)
        for (i, j), comp in comps.items():
            P[i, j, :, k] = comp.coords
    return P


def schur_matrix(A, P: np.ndarray) -> np.ndarray:
    """Matrix of x -> A . x on packed coordinates, for the frame whose
    :func:`peirce_projectors` are P.

    ``A`` is one multiplier, giving a (dim, dim) matrix, or a sequence of
    them (checked by :func:`multiplier_stack`), giving an (m, dim, dim)
    stack of :func:`schur_stack`.
    """
    rank = P.shape[0]
    if isinstance(A, SchurMatrix) or np.ndim(A) == 2:
        return schur_stack(_as_entries(A, rank)[None], P)[0]
    return schur_stack(multiplier_stack(A, rank), P)


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


def as_matrix(op: Callable[[Element], Element], d: AlgebraDescriptor) -> np.ndarray:
    """Dense matrix of a linear map in the orthonormal coordinate basis."""
    dim = d.dim
    sw = np.sqrt(weight_vector(d))
    M = np.empty((dim, dim))
    for k in range(dim):
        e_hat = basis_element(d, k) * (1.0 / sw[k])
        M[:, k] = sw * op(e_hat).coords
    return M


def lyap_map(a: Element) -> Callable[[Element], Element]:
    return lambda x: jordan_product(a, x)


def quad_rep_map(a: Element) -> Callable[[Element], Element]:
    return lambda x: quad_rep(a, x)


def schur_map(A, frame: JordanFrame) -> Callable[[Element], Element]:
    ents = _as_entries(A, len(frame))
    validate_frame(frame)
    return lambda x: schur(ents, frame, x, validate=False)


# --- positive linear transformations ---------------------------------------------

class PositivityError(ValueError):
    """A map required to be positive failed certification."""


@dataclass(frozen=True)
class PositiveLinearMap:
    """A linear map carrying a positivity certificate.

    ``certified`` means positivity holds by construction (quadratic
    representations, Schur products with PSD multipliers, and nonnegative
    combinations / compositions of those).  ``factors`` are the operands of
    a map built by the constructors below, outermost first: ``("quad", c)``
    for P_c and ``("schur", A, frame)`` for a Schur product; a map given by
    ``fn`` alone has none.
    """

    descriptor: AlgebraDescriptor
    fn: Callable[[Element], Element]
    label: str
    certified: bool
    factors: tuple = ()

    def __call__(self, x: Element) -> Element:
        return self.fn(x)


def positive_quad_map(c: Element) -> PositiveLinearMap:
    """P_c; maps the cone into itself for every c."""
    return PositiveLinearMap(c.descriptor, quad_rep_map(c), "quad_rep", True,
                             (("quad", c),))


def positive_schur_map(A, frame: JordanFrame, tol: float = 1e-10) -> PositiveLinearMap:
    """Schur product with a PSD multiplier; raises if A is not PSD."""
    A = A if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A))
    if not A.is_psd(tol):
        raise PositivityError(
            f"multiplier is not positive semidefinite (min eig {A.min_eigenvalue():.3e})"
        )
    fn = schur_map(A, frame)
    return PositiveLinearMap(frame.descriptor, fn, "schur_psd", True,
                             (("schur", A, frame),))


def compose_positive(P: PositiveLinearMap, Q: PositiveLinearMap) -> PositiveLinearMap:
    if P.descriptor != Q.descriptor:
        raise ValueError("cannot compose maps over different algebras")
    return PositiveLinearMap(
        P.descriptor,
        lambda x: P(Q(x)),
        f"{P.label}*{Q.label}",
        P.certified and Q.certified,
        P.factors + Q.factors if P.factors and Q.factors else (),
    )


def apply_factors_rows(d: AlgebraDescriptor, factors, X: np.ndarray) -> np.ndarray:
    """Row i of X through a composition of positive maps, outermost first,
    each factor holding the operands of every row: ``("quad", C)`` applies
    P_c with c = C[i], ``("schur", A, frames)`` the Schur product with A[i]
    on the frame frames[i]."""
    for kind, *ops in reversed(factors):
        X = quad_rep_coords(d, ops[0], X) if kind == "quad" else schur_rows(d, *ops, X)
    return X


def certify_positive_by_sampling(
    P: PositiveLinearMap,
    rng: np.random.Generator,
    samples: int = 32,
    tol: float = 1e-8,
) -> bool:
    """Empirical positivity check on sampled cone elements (sound to refute)."""
    from .algebra import random_cone_element

    for _ in range(samples):
        z = random_cone_element(P.descriptor, rng, scale=1.0)
        vals = eigvals(P(z))
        scale = max(1.0, float(np.abs(vals).max()))
        if vals[-1] < -tol * scale:
            return False
    return True
