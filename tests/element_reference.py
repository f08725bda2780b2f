"""Reference copies of element-level loops, frozen as they were when each
still carried its own arithmetic beside the package's row form.

The package's ``operator_commutes``, ``norm``, ``peirce_project`` and
``element_from_json`` are now batches of one of their row forms, so comparing
the two would compare a form with itself.  The tests compare the row forms
against these copies instead, the way ``majorization_reference`` keeps the
scalar predicates.  Do not edit them to follow the package.

``element_from_json`` reads one element record by record, as it did before
the package read elements in stacks; it still reads a sum nested in a sum,
which the package's reader now rejects.
"""

from __future__ import annotations

import math

import numpy as np

from symcone.algebra import (
    COMMUTE_ATOL,
    COMMUTE_RTOL,
    DirectSum,
    Element,
    SpinFactor,
    SymMatrix,
    basis_element,
    inner,
    jordan_product,
    weight_vector,
)


def norm(x: Element) -> float:
    """Norm induced by the trace inner product."""
    w = weight_vector(x.descriptor)
    return math.sqrt(float(np.dot(w * x.coords, x.coords)))


def operator_commutes(a: Element, b: Element) -> bool:
    """Whether L_a and L_b commute, checked on the coordinate basis."""
    tol = COMMUTE_ATOL + COMMUTE_RTOL * norm(a) * norm(b)
    d = a.descriptor
    for k in range(d.dim):
        z = basis_element(d, k)
        lhs = jordan_product(a, jordan_product(b, z))
        rhs = jordan_product(b, jordan_product(a, z))
        if norm(lhs - rhs) > tol:
            return False
    return True


def peirce_project(frame, x: Element) -> dict:
    """Peirce components {(i, j): x_ij, i <= j} relative to a frame.

    Diagonal components are <x, e_i> e_i; off-diagonal ones 4 e_i o (e_j o x).
    """
    es = frame.idempotents
    comps = {}
    for j, ej in enumerate(es):
        comps[(j, j)] = inner(x, ej) * ej
        tj = jordan_product(ej, x)
        for i in range(j):
            comps[(i, j)] = 4.0 * jordan_product(es[i], tj)
    return comps


def schur(A, frame, x: Element) -> Element:
    """Frame-relative Schur product sum_{i<=j} A[i, j] x_ij of the components
    above, added in their order."""
    out = np.zeros(x.descriptor.dim)
    for (i, j), comp in peirce_project(frame, x).items():
        out += A[i, j] * comp.coords
    return Element(x.descriptor, out)


# the types json decodes a number to; bool, an int subclass, is left out
_JSON_NUMBERS = frozenset((float, int))


def descriptor_from_json(obj: dict):
    """The algebra of a JSON object {kind, n} or {kind: "sum", factors}."""
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
        return DirectSum(tuple(descriptor_from_json(f) for f in factors))
    raise ValueError(f"unknown algebra kind {kind!r}")


def element_from_json(obj: dict) -> Element:
    """An element's JSON form read back; rejects NaN and infinite coordinates."""
    d = descriptor_from_json(obj)
    coords = obj.get("coords")
    if not (type(coords) is list and _JSON_NUMBERS.issuperset(map(type, coords))):
        raise ValueError("element coords must be a flat JSON array of numbers")
    try:
        coords = np.array(coords, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError("element coordinates must be finite") from None
    if not np.isfinite(coords).all():
        raise ValueError("element coordinates must be finite")
    return Element(d, coords)
