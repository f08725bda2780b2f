"""A row's bits do not depend on the memory layout of its operands.

Every row form and batch form is run on its operands as they come and on
the same values re-laid in memory (conftest.LAYOUTS); the results must be
bit-equal.  A reduction whose order numpy picks from the strides (an einsum,
or a ``sum`` over a non-contiguous axis of eight or more terms) fails here.
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import LAYOUTS, coord_stacks, layouts
from symcone import norms, search
from symcone.algebra import (
    Element,
    SpinFactor,
    SymMatrix,
    jordan_product_coords,
    norm_rows,
    operator_commutes_rows,
    sym_unpack,
)
from symcone.majorization import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    log_major_rows,
    major_rows,
    sort_desc_rows,
    vec_pnorm_rows,
    weak_major_rows,
)
from symcone.spectral import (
    eigvals_batch,
    rebuild_batch,
    spectral_decompose_batch,
    sqrt_batch,
    sym_eigh_batch,
    sym_eigvals_batch,
)
from symcone.transforms import (
    apply_factors_rows,
    apply_sublinear_rows,
    multiplier_stack,
    quad_rep_coords,
    quad_rep_sqrt_rows,
    schur_rows,
)
from symcone.verifiers import CHECK_RUNNERS, sample_rngs


def _cone(d, X):
    return jordan_product_coords(d, X, X)


def _sym_stack(n, X):
    """Symmetric n x n matrices filled from the rows of X."""
    return sym_unpack(np.resize(X, (len(X), n * (n + 1) // 2)), n)


def _frames(d, X):
    return spectral_decompose_batch(d, X)[1]


# each form: (d, X, Y, R) -> its result, with every array operand passed through R
FORMS = {
    "norm_rows": lambda d, X, Y, R: norm_rows(d, R(X)),
    "jordan_product_coords": lambda d, X, Y, R: jordan_product_coords(d, R(X), R(Y)),
    "quad_rep_coords": lambda d, X, Y, R: quad_rep_coords(d, R(X), R(Y)),
    "operator_commutes_rows": lambda d, X, Y, R: operator_commutes_rows(d, R(X), R(Y)),
    "sym_eigvals_batch": lambda d, X, Y, R: sym_eigvals_batch(R(_sym_stack(d.rank, X))),
    "sym_eigh_batch": lambda d, X, Y, R: sym_eigh_batch(R(_sym_stack(d.rank, X))),
    "eigvals_batch": lambda d, X, Y, R: eigvals_batch(d, R(X)),
    "spectral_decompose_batch": lambda d, X, Y, R: spectral_decompose_batch(d, R(X)),
    "rebuild_batch": lambda d, X, Y, R: rebuild_batch(
        *map(R, spectral_decompose_batch(d, X)[::-1])),
    "sqrt_batch": lambda d, X, Y, R: sqrt_batch(
        *map(R, spectral_decompose_batch(d, _cone(d, X)))),
    "quad_rep_sqrt_rows": lambda d, X, Y, R: quad_rep_sqrt_rows(d, R(_cone(d, X)), R(Y)),
    "apply_sublinear_rows": lambda d, X, Y, R: apply_sublinear_rows(
        d, R(np.abs(Y[:, 0])), R(-np.abs(Y[:, -1])), R(X)),
    "schur_rows": lambda d, X, Y, R: schur_rows(
        d, R(_sym_stack(d.rank, Y)), R(_frames(d, X)), R(Y)),
    "apply_factors_rows": lambda d, X, Y, R: apply_factors_rows(
        d, (("quad", R(_cone(d, Y))),
            ("schur", R(_sym_stack(d.rank, X)), R(_frames(d, X)))), R(Y)),
    "sort_desc_rows": lambda d, X, Y, R: sort_desc_rows(R(eigvals_batch(d, X))),
    "vec_pnorm_rows": lambda d, X, Y, R: vec_pnorm_rows(
        R(eigvals_batch(d, X)), R(np.resize([1.0, 2.0, 3.0, math.inf], len(X)))),
    "weak_major_rows": lambda d, X, Y, R: weak_major_rows(
        R(eigvals_batch(d, X)), R(eigvals_batch(d, Y))),
    "major_rows": lambda d, X, Y, R: major_rows(
        R(eigvals_batch(d, X)), R(eigvals_batch(d, Y))),
    "log_major_rows": lambda d, X, Y, R: log_major_rows(
        R(np.abs(eigvals_batch(d, X))), R(np.abs(eigvals_batch(d, Y)))),
    "_margins": lambda d, X, Y, R: [search._margins(
        d, R(search._standard_projectors(d)),
        R(multiplier_stack(_sym_stack(d.rank, Y), d.rank)), R(np.arange(len(X))[::-1]),
        R(b), problem, DEFAULT_ATOL, DEFAULT_RTOL)
        for b, problem in ((X, "general"), (_cone(d, X), "cone"))],
    "_ratios_through_map": lambda d, X, Y, R: norms._ratios_through_map(
        norms._diag_and_frame("quad", Element(d, Y[0]), None)[2], d, R(X), 3.0, 2.0),
}


def _run_check(name):
    """A registered check's rows on its own draws, seeded by the bytes of Y."""
    runner = CHECK_RUNNERS[name]

    def form(d, X, Y, R):
        rngs = sample_rngs(zlib.crc32(Y.tobytes()), range(len(Y)))
        inp = runner.draw(d, rngs, DEFAULT_ATOL, DEFAULT_RTOL)
        inp = {k: R(v) if isinstance(v, np.ndarray) else v for k, v in inp.items()}
        return runner.rows(d, inp, DEFAULT_ATOL, DEFAULT_RTOL)

    return form


FORMS.update({f"check {name}": _run_check(name) for name in CHECK_RUNNERS})


def _bits(result):
    """Every array of a (nested) result as bytes, in order."""
    if isinstance(result, dict):
        return [(k, _bits(v)) for k, v in sorted(result.items())]
    if isinstance(result, (tuple, list)):
        return [_bits(v) for v in result]
    a = np.asarray(result)
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def _normal_case(d, seed):
    rng = np.random.default_rng(seed)
    return d, rng.normal(size=(4, d.dim)), rng.normal(size=(4, d.dim))


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(max_examples=60, deadline=None)
@given(case=coord_stacks(count=2, max_rows=5), layout=layouts)
# sums of eight or more terms change bits with their order; drawn values are
# often round, so two cases of generic values always run
@example(case=_normal_case(SymMatrix(4), 1), layout="F")
@example(case=_normal_case(SpinFactor(8), 2), layout="F")
@example(case=_normal_case(SpinFactor(12), 3), layout="F")
def test_rows_do_not_depend_on_memory_layout(form, case, layout):
    d, X, Y = case
    want = FORMS[form](d, X, Y, lambda a: a)
    assert _bits(FORMS[form](d, X, Y, LAYOUTS[layout])) == _bits(want)
