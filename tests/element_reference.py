"""Reference copies of element-level loops, frozen as they were when each
still carried its own arithmetic beside the package's row form.

The package's ``operator_commutes``, ``norm`` and ``peirce_project`` are now
batches of one of their row forms, so comparing the two would compare a form
with itself.  The tests compare the row forms against these copies instead,
the way ``majorization_reference`` keeps the scalar predicates.  Do not edit
them to follow the package.
"""

from __future__ import annotations

import math

import numpy as np

from symcone.algebra import (
    COMMUTE_ATOL,
    COMMUTE_RTOL,
    Element,
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
