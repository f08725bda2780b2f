"""Euclidean Jordan algebra substrate: descriptors, elements, core products.

Three algebra kinds are supported:

* ``SymMatrix(n)`` -- n x n real symmetric matrices with the product
  ``(XY + YX) / 2``, stored packed as the row-major upper triangle, so each
  off-diagonal entry appears exactly once and symmetry can never drift.
* ``SpinFactor(n)`` -- vectors ``(x0, xbar)`` in R x R^{n-1} with the product
  ``(x0*y0 + <xbar, ybar>, x0*ybar + y0*xbar)``; rank two for every n >= 2.
* ``DirectSum(factors)`` -- coordinate concatenation of the above, with all
  operations acting factor-wise; a nested sum is stored flat.

The inner product is always the trace form ``<x, y> = tr(x o y)``.  In every
coordinate system used here it is diagonal with fixed positive weights
(1 on symmetric-matrix diagonal slots, 2 elsewhere), which keeps inner
products, norms and orthonormal bases cheap.

Each operation is written once, as a row form on (m, dim) coordinate stacks;
a function on one element is a batch of one of it.  Every symmetric matrix
from outside, an element's full matrix or a Schur multiplier, comes in
through one check, :func:`symmetric_stack`.

All values are immutable after construction and all operations are pure;
random generation takes a caller-owned ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Union

import numpy as np

COMMUTE_ATOL = 1e-10
COMMUTE_RTOL = 1e-8


class DescriptorMismatchError(ValueError):
    """A binary operation mixed elements of different algebras."""


@dataclass(frozen=True)
class SymMatrix:
    """Algebra of n x n real symmetric matrices."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"SymMatrix needs integer n >= 1, got {self.n!r}")

    @property
    def rank(self) -> int:
        return self.n

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2


@dataclass(frozen=True)
class SpinFactor:
    """Spin factor on R x R^{n-1}; coordinate length n, rank always 2."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"SpinFactor needs integer n >= 2, got {self.n!r}")

    @property
    def rank(self) -> int:
        return 2

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class DirectSum:
    """Direct sum of algebras; rank and dimension add up.  A sum among the
    factors is stored by its own factors, so a nested sum equals its flat
    form, whose coordinates are the same."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("DirectSum needs at least one factor")
        for f in factors:
            if not isinstance(f, (SymMatrix, SpinFactor, DirectSum)):
                raise ValueError(f"invalid direct-sum factor {f!r}")
        object.__setattr__(self, "factors", tuple(chain.from_iterable(
            f.factors if isinstance(f, DirectSum) else (f,) for f in factors)))

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)


AlgebraDescriptor = Union[SymMatrix, SpinFactor, DirectSum]


# --- packed symmetric storage -------------------------------------------------

@lru_cache(maxsize=None)
def _triu_ix(n: int):
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def sym_pack(M: np.ndarray) -> np.ndarray:
    """Row-major upper triangle of a symmetric matrix (or of a stack of them,
    over the last two axes)."""
    M = np.asarray(M, dtype=np.float64)
    rows, cols = _triu_ix(M.shape[-1])
    return M[..., rows, cols]


def sym_unpack(coords: np.ndarray, n: int) -> np.ndarray:
    """Full symmetric matrix from packed upper-triangle coordinates; leading
    axes of ``coords`` become leading axes of the result."""
    rows, cols = _triu_ix(n)
    M = np.zeros(np.shape(coords)[:-1] + (n, n))
    M[..., rows, cols] = coords
    M[..., cols, rows] = coords
    return M


@lru_cache(maxsize=None)
def weight_vector(d: AlgebraDescriptor) -> np.ndarray:
    """Diagonal weights of the trace inner product in packed coordinates."""
    if isinstance(d, SymMatrix):
        rows, cols = _triu_ix(d.n)
        w = np.where(rows == cols, 1.0, 2.0)
    elif isinstance(d, SpinFactor):
        w = np.full(d.n, 2.0)
    else:
        w = np.concatenate([weight_vector(f) for f in d.factors])
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def factor_slices(d: DirectSum) -> tuple:
    """(factor, coordinate slice) pairs of a direct sum."""
    out = []
    start = 0
    for f in d.factors:
        out.append((f, slice(start, start + f.dim)))
        start += f.dim
    return tuple(out)


# --- elements -------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Element:
    """An algebra element: a descriptor plus its packed coordinate vector."""

    descriptor: AlgebraDescriptor
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64, copy=True).reshape(-1)
        if coords.shape[0] != self.descriptor.dim:
            raise ValueError(
                f"coordinate length {coords.shape[0]} does not match "
                f"dim {self.descriptor.dim} of {self.descriptor}"
            )
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "Element") -> "Element":
        _check_pair(self, other)
        return Element(self.descriptor, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _check_pair(self, other)
        return Element(self.descriptor, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.descriptor, -self.coords)

    def __mul__(self, scalar: float) -> "Element":
        return Element(self.descriptor, self.coords * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Element({descriptor_to_spec(self.descriptor)}, {self.coords!r})"

    def as_matrix(self) -> np.ndarray:
        """Full symmetric matrix; only available for SymMatrix elements."""
        if not isinstance(self.descriptor, SymMatrix):
            raise ValueError("as_matrix is only defined for SymMatrix elements")
        return sym_unpack(self.coords, self.descriptor.n)


def _check_pair(x: Element, y: Element) -> None:
    if x.descriptor != y.descriptor:
        raise DescriptorMismatchError(
            f"mixed algebras: {x.descriptor} vs {y.descriptor}"
        )


_HALF_MAX = np.finfo(np.float64).max / 2.0


class StackError(ValueError):
    """A matrix of a stack failed a check; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def symmetric_stack(M, label: str = "matrix") -> np.ndarray:
    """The one intake of symmetric matrices from outside, for a (k, n, n)
    stack: each matrix must be square and nonempty, finite, no larger than
    _HALF_MAX (M + M.T could overflow) and symmetric within its scale,
    max|M - M.T| <= 1e-12 * max(1, max|M_ij|).  The first matrix that fails
    raises the message of its first failed check, led by ``label``, as a
    StackError; otherwise returns the read-only stack of the (M + M.T) / 2."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise StackError(f"{label} must be square", 0)
    if M.shape[1] == 0:
        raise StackError(f"{label} must not be empty", 0)
    with np.errstate(invalid="ignore", over="ignore"):  # where not finite or too large
        scale = np.abs(M).max(axis=(1, 2))  # NaN or inf where not finite
        asym = np.abs(M - M.swapaxes(1, 2)).max(axis=(1, 2))
    ok = (scale <= _HALF_MAX) & (asym <= 1e-12 * np.maximum(scale, 1.0))
    if not ok.all():
        i = int(np.argmin(ok))
        if not np.isfinite(M[i]).all():
            message = f"{label} entries must be finite"
        elif scale[i] > _HALF_MAX:
            message = f"{label} entries too large to symmetrize ({scale[i]:.3e})"
        else:
            message = f"{label} is not symmetric (residual {asym[i]:.3e})"
        raise StackError(message, i)
    M = (M + M.swapaxes(1, 2)) / 2.0
    M.flags.writeable = False
    return M


def from_matrix(M: np.ndarray) -> Element:
    """SymMatrix element from a full symmetric matrix (:func:`symmetric_stack`)."""
    (S,) = symmetric_stack(np.asarray(M)[None])
    return Element(SymMatrix(len(S)), sym_pack(S))


@lru_cache(maxsize=None)
def unit(d: AlgebraDescriptor) -> Element:
    """The algebra unit e with e o x = x."""
    if isinstance(d, SymMatrix):
        return Element(d, sym_pack(np.eye(d.n)))
    if isinstance(d, SpinFactor):
        coords = np.zeros(d.n)
        coords[0] = 1.0
        return Element(d, coords)
    coords = np.concatenate([unit(f).coords for f in d.factors])
    return Element(d, coords)


def zero(d: AlgebraDescriptor) -> Element:
    return Element(d, np.zeros(d.dim))


def basis_element(d: AlgebraDescriptor, k: int) -> Element:
    """k-th packed coordinate basis element (spanning, not orthonormal)."""
    coords = np.zeros(d.dim)
    coords[k] = 1.0
    return Element(d, coords)


def row_sum(A: np.ndarray) -> np.ndarray:
    """Sum of A along its last axis in one order for every layout and stack:
    numpy takes a reduction's order from the strides, so A is summed C-ordered."""
    return np.ascontiguousarray(A).sum(axis=-1)


def jordan_product_coords(d: AlgebraDescriptor, xc: np.ndarray,
                          yc: np.ndarray) -> np.ndarray:
    """Jordan product on packed coordinates; rows of (m, dim) arrays are
    multiplied pairwise."""
    if isinstance(d, SymMatrix):
        X = sym_unpack(xc, d.n)
        Y = sym_unpack(yc, d.n)
        return sym_pack((X @ Y + Y @ X) / 2.0)
    if isinstance(d, SpinFactor):
        out = np.empty(np.shape(xc))
        out[..., 0] = row_sum(xc * yc)
        out[..., 1:] = xc[..., :1] * yc[..., 1:] + yc[..., :1] * xc[..., 1:]
        return out
    out = np.empty(np.shape(xc))
    for f, sl in factor_slices(d):
        out[..., sl] = jordan_product_coords(f, xc[..., sl], yc[..., sl])
    return out


def jordan_product(x: Element, y: Element) -> Element:
    """The Jordan product x o y; commutative and bilinear."""
    _check_pair(x, y)
    return Element(x.descriptor,
                   jordan_product_coords(x.descriptor, x.coords, y.coords))


def square(x: Element) -> Element:
    return jordan_product(x, x)


def inner(x: Element, y: Element) -> float:
    """Trace inner product <x, y> = tr(x o y)."""
    _check_pair(x, y)
    w = weight_vector(x.descriptor)
    return float(np.dot(w * x.coords, y.coords))


def norm(x: Element) -> float:
    """Norm induced by the trace inner product: row 0 of :func:`norm_rows`."""
    return float(norm_rows(x.descriptor, x.coords[None])[0])


def norm_rows(d: AlgebraDescriptor, X: np.ndarray) -> np.ndarray:
    """:func:`norm` of every row of an (m, dim) coordinate array."""
    return np.sqrt(row_sum(weight_vector(d) * X * X))


def random_element(
    d: AlgebraDescriptor, rng: np.random.Generator, scale: float = 1.0
) -> Element:
    """iid Gaussian coordinates; for SymMatrix this is a GOE-style fill."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    return Element(d, rng.normal(0.0, scale, d.dim))


def random_cone_element(
    d: AlgebraDescriptor, rng: np.random.Generator, scale: float = 1.0
) -> Element:
    """Random element of the symmetric cone, generated as x o x."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    x = random_element(d, rng, math.sqrt(scale))
    return jordan_product(x, x)


def operator_commutes(a: Element, b: Element) -> bool:
    """Whether L_a and L_b commute: row 0 of :func:`operator_commutes_rows`."""
    _check_pair(a, b)
    return bool(operator_commutes_rows(a.descriptor, a.coords[None], b.coords[None])[0])


def operator_commutes_rows(d: AlgebraDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether L_a and L_b commute, for every pair of rows of the (m, dim)
    arrays a, b: checked on the coordinate basis, within
    ``COMMUTE_ATOL + COMMUTE_RTOL * |a| |b|``."""
    tol = COMMUTE_ATOL + COMMUTE_RTOL * norm_rows(d, a) * norm_rows(d, b)
    commute = np.ones(len(a), dtype=bool)
    for k in range(d.dim):  # one basis element at a time keeps memory at O(m dim)
        z = np.zeros(a.shape)
        z[:, k] = 1.0
        lhs = jordan_product_coords(d, a, jordan_product_coords(d, b, z))
        rhs = jordan_product_coords(d, b, jordan_product_coords(d, a, z))
        commute &= ~(norm_rows(d, lhs - rhs) > tol)
    return commute


# --- orthonormal coordinates ----------------------------------------------------
#
# sqrt(w) * coords is an isometry onto R^dim with the Euclidean dot product;
# the norm estimator draws its proposals in this basis.

def to_orthonormal(x: Element) -> np.ndarray:
    return np.sqrt(weight_vector(x.descriptor)) * x.coords


def from_orthonormal(d: AlgebraDescriptor, u: np.ndarray) -> Element:
    return Element(d, np.asarray(u, dtype=np.float64) / np.sqrt(weight_vector(d)))


# --- descriptor mini-language and JSON interchange -------------------------------

def descriptor_to_spec(d: AlgebraDescriptor) -> str:
    """Short spec string: "sym:3", "spin:4", "sum:sym:2+spin:3"."""
    if isinstance(d, SymMatrix):
        return f"sym:{d.n}"
    if isinstance(d, SpinFactor):
        return f"spin:{d.n}"
    return "sum:" + "+".join(map(descriptor_to_spec, d.factors))


@lru_cache(maxsize=None)
def descriptor_from_spec(spec: str) -> AlgebraDescriptor:
    """Parse the mini-language used on the command line (cached: an archive
    repeats a few specs on every line)."""
    s = spec.strip().lower()
    if s.startswith("sum:"):
        body = s[len("sum:"):]
        parts = [p for p in body.split("+") if p]
        if not parts:
            raise ValueError(f"empty direct sum in {spec!r}")
        return DirectSum(tuple(_parse_simple(p) for p in parts))
    return _parse_simple(s)


def _parse_simple(s: str) -> AlgebraDescriptor:
    try:
        kind, num = s.split(":")
        n = int(num)
    except ValueError:
        raise ValueError(f"cannot parse algebra spec {s!r}") from None
    if kind == "sym":
        return SymMatrix(n)
    if kind == "spin":
        return SpinFactor(n)
    raise ValueError(f"unknown algebra kind {kind!r} in {s!r}")


def descriptor_to_json(d: AlgebraDescriptor) -> dict:
    if isinstance(d, SymMatrix):
        return {"kind": "sym", "n": d.n}
    if isinstance(d, SpinFactor):
        return {"kind": "spin", "n": d.n}
    return {"kind": "sum", "factors": [descriptor_to_json(f) for f in d.factors]}


# the types json decodes a number to; bool, an int subclass, is left out
_JSON_NUMBERS = frozenset((float, int))


def descriptor_from_json(obj: dict) -> AlgebraDescriptor:
    """Inverse of :func:`descriptor_to_json` (no sum among a sum's factors); else ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"algebra JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind in ("sym", "spin"):
        n = obj.get("n")
        if type(n) is not int:  # JSON true and false decode to bool, an int subclass
            raise ValueError(f"algebra size n must be a JSON integer, got {n!r}")
        return SymMatrix(n) if kind == "sym" else SpinFactor(n)
    if kind == "sum":
        factors = obj.get("factors")
        if not isinstance(factors, list):
            raise ValueError(f"direct-sum factors must be a JSON array, got {factors!r}")
        if any(type(f) is dict and f.get("kind") == "sum" for f in factors):
            raise ValueError("a direct-sum factor must be sym or spin, not a sum")
        return DirectSum(tuple(map(descriptor_from_json, factors)))
    raise ValueError(f"unknown algebra kind {kind!r}")


def _groups(column) -> dict:
    """The positions of each distinct value of a column, in order."""
    groups = defaultdict(list)
    for i, value in enumerate(column):
        groups[value].append(i)
    return groups


def _numbers(rows) -> bool:
    """Whether rows is a list of lists of JSON numbers."""
    return (type(rows) is list and all(type(r) is list for r in rows)
            and _JSON_NUMBERS.issuperset(map(type, chain.from_iterable(rows))))


def _float_stack(items: list, depth: int):
    """Lists nested ``depth`` deep, of one shape and with JSON numbers at
    the bottom, as one float array of the shape numpy gives them; None if
    they are not, or if a number is beyond the float range."""
    shape = [len(items)]
    for _ in range(depth):
        if not items:
            break
        if not {list}.issuperset(map(type, items)) or len(set(map(len, items))) > 1:
            return None
        shape.append(len(items[0]))
        items = list(chain.from_iterable(items))
    if not _JSON_NUMBERS.issuperset(map(type, items)):
        return None
    try:
        return np.array(items, dtype=np.float64).reshape(shape)
    except OverflowError:
        return None


def element_to_json(x: Element) -> dict:
    """JSON form {kind, n (or factors), coords} in packed layout."""
    obj = descriptor_to_json(x.descriptor)
    obj["coords"] = x.coords.tolist()
    return obj


def elements_from_json(objs: list) -> tuple[list, list]:
    """(algebras, read-only coordinate rows) of elements in JSON, the one
    reader of :func:`element_to_json`'s form.  Elements that spell their
    algebra alike are checked and stacked together; a bad one raises the
    ValueError of its first failed check (one of the first group's)."""
    try:
        keys = [repr((o.get("kind"), o.get("n"), o.get("factors"))) for o in objs]
    except (AttributeError, RecursionError):  # not a JSON object, or nested too deep
        keys = range(len(objs))  # each element alone
    algebras, rows = [None] * len(objs), [None] * len(objs)
    for idx in _groups(keys).values():
        d = descriptor_from_json(objs[idx[0]])
        coords = [objs[i].get("coords") for i in idx]
        flat = list(chain.from_iterable(coords)) if {list}.issuperset(map(type, coords)) else [None]
        if not _JSON_NUMBERS.issuperset(map(type, flat)):  # [None]: not every one a list
            raise ValueError("element coords must be a flat JSON array of numbers")
        try:
            X = np.array(flat, dtype=np.float64)
        except OverflowError:  # an integer literal beyond the float range
            raise ValueError("element coordinates must be finite") from None
        if not np.isfinite(X).all():
            raise ValueError("element coordinates must be finite")
        for k in set(map(len, coords)).difference({d.dim}):
            raise ValueError(f"coordinate length {k} does not match dim {d.dim} of {d}")
        X = X.reshape(len(idx), d.dim)
        X.flags.writeable = False
        for i, row in zip(idx, X):
            algebras[i], rows[i] = d, row
    return algebras, rows


def element_from_json(obj: dict) -> Element:
    """Inverse of :func:`element_to_json`: a batch of one of :func:`elements_from_json`."""
    (d,), (coords,) = elements_from_json([obj])
    return Element(d, coords)
