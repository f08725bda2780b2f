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
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DescriptorMismatchError,
    Element,
    basis_element,
    inner,
    jordan_product,
    jordan_product_coords,
    weight_vector,
)
from .spectral import (
    JordanFrame,
    eigvals,
    frame_residuals,
    spectral_decompose,
    sqrt_el,
    sym_eigen,
)


class FrameError(ValueError):
    """A supplied Jordan frame failed validation."""


_FRAME_CHECK_TOL = 1e-7


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
        A = np.array(self.entries, dtype=np.float64, copy=True)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("multiplier matrix must be square")
        if not np.isfinite(A).all():
            raise ValueError("multiplier matrix entries must be finite")
        asym = np.abs(A - A.T).max() if A.shape[0] > 1 else 0.0
        if asym > 1e-12 * max(1.0, np.abs(A).max()):
            raise ValueError(f"multiplier matrix is not symmetric (residual {asym:.3e})")
        A = (A + A.T) / 2.0
        A.flags.writeable = False
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


def _as_entries(A, rank: int) -> np.ndarray:
    ents = A.entries if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A)).entries
    if ents.shape[0] != rank:
        raise ValueError(
            f"multiplier size {ents.shape[0]} does not match frame rank {rank}"
        )
    return ents


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
    if validate:
        validate_frame(frame)
    es = frame.idempotents
    out = np.zeros(x.descriptor.dim)
    for j, ej in enumerate(es):
        out += (ents[j, j] * inner(x, ej)) * ej.coords
        tj = jordan_product(ej, x)
        for i in range(j):
            out += (4.0 * ents[i, j]) * jordan_product(es[i], tj).coords
    return Element(x.descriptor, out)


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
    a2 = jordan_product(a, a)
    return lambda x: 2.0 * jordan_product(a, jordan_product(a, x)) - jordan_product(a2, x)


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
    combinations / compositions of those).
    """

    descriptor: AlgebraDescriptor
    fn: Callable[[Element], Element]
    label: str
    certified: bool

    def __call__(self, x: Element) -> Element:
        return self.fn(x)


def positive_quad_map(c: Element) -> PositiveLinearMap:
    """P_c; maps the cone into itself for every c."""
    return PositiveLinearMap(c.descriptor, quad_rep_map(c), "quad_rep", True)


def positive_schur_map(A, frame: JordanFrame, tol: float = 1e-10) -> PositiveLinearMap:
    """Schur product with a PSD multiplier; raises if A is not PSD."""
    A = A if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A))
    if not A.is_psd(tol):
        raise PositivityError(
            f"multiplier is not positive semidefinite (min eig {A.min_eigenvalue():.3e})"
        )
    fn = schur_map(A, frame)
    return PositiveLinearMap(frame.descriptor, fn, "schur_psd", True)


def compose_positive(P: PositiveLinearMap, Q: PositiveLinearMap) -> PositiveLinearMap:
    if P.descriptor != Q.descriptor:
        raise ValueError("cannot compose maps over different algebras")
    return PositiveLinearMap(
        P.descriptor,
        lambda x: P(Q(x)),
        f"{P.label}*{Q.label}",
        P.certified and Q.certified,
    )


def combine_positive(coeffs: Sequence[float], maps: Sequence[PositiveLinearMap]) -> PositiveLinearMap:
    if len(coeffs) != len(maps) or not maps:
        raise ValueError("need matching, nonempty coefficients and maps")
    if any(c < 0 for c in coeffs):
        raise PositivityError("combination coefficients must be nonnegative")
    d = maps[0].descriptor
    if any(m.descriptor != d for m in maps):
        raise ValueError("cannot combine maps over different algebras")

    def fn(x: Element) -> Element:
        out = coeffs[0] * maps[0](x)
        for c, m in zip(coeffs[1:], maps[1:]):
            out = out + c * m(x)
        return out

    return PositiveLinearMap(d, fn, "combo", all(m.certified for m in maps))


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
