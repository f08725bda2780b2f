"""The element-function rule: every function on one element is row 0 of its
row form on a batch of one, to the bit; every entry point that takes a
multiplier on a frame rejects a wrong size with one message; and every entry
point that takes a frame rejects an invalid one."""

import numpy as np
import pytest

from symcone.algebra import (
    Element,
    SymMatrix,
    jordan_product,
    jordan_product_coords,
    norm,
    norm_rows,
    operator_commutes,
    operator_commutes_rows,
    random_element,
    unit,
)
from symcone.norms import norm_closed_form, norm_empirical
from symcone.search import test_candidate as candidate_general
from symcone.search import test_candidate_cone as candidate_cone
from symcone.spectral import (
    JordanFrame,
    eigvals,
    eigvals_batch,
    rebuild,
    rebuild_batch,
    spectral_decompose,
    spectral_decompose_batch,
    sqrt_batch,
    sqrt_el,
    standard_frame,
)
from symcone.transforms import (
    FrameError,
    SublinearFn,
    apply_sublinear,
    apply_sublinear_rows,
    frame_multiplier,
    multiplier_stack,
    peirce_project,
    positive_schur_map,
    quad_rep,
    quad_rep_coords,
    quad_rep_sqrt,
    quad_rep_sqrt_rows,
    schur,
    schur_rows,
)
from symcone.verifiers import check_quadrep_pinch, check_schur_diag

from conftest import CATALOG


def _operands(d):
    """(a, b, c, frame, A): two generic elements, a cone element away from
    the boundary, a's frame and a symmetric multiplier of the rank."""
    rng = np.random.default_rng(CATALOG.index(d))
    a, b = random_element(d, rng, 2.0), random_element(d, rng, 2.0)
    c = jordan_product(a, a) + unit(d)
    A = rng.normal(size=(d.rank, d.rank))
    return a, b, c, spectral_decompose(a).frame, (A + A.T) / 2.0


def _bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


def _peirce_pair(d, a, b, c, frame, A):
    # the component x_ij is schur_rows with a multiplier that is 1 at (i, j)
    # and 0 elsewhere: every other term adds a zero.  schur_rows sums from
    # +0.0, which turns a -0.0 of the component into 0.0
    got, want = [], []
    for (i, j), comp in peirce_project(frame, b).items():
        E = np.zeros((1, d.rank, d.rank))
        E[0, i, j] = 1.0
        got.append(_bits(0.0 + comp.coords))
        want.append(_bits(schur_rows(d, E, frame.coords[None], b.coords[None])[0]))
    return got, want


def _decompose_pair(d, a, b, c, frame, A):
    sd = spectral_decompose(a)
    vals, frames = spectral_decompose_batch(d, a.coords[None])
    return ((_bits(sd.eigenvalues), _bits(sd.frame.coords)),
            (_bits(vals[0]), _bits(frames[0])))


# element function -> (operands) -> (its result, row 0 of its row form)
RULE = {
    "jordan_product": lambda d, a, b, c, frame, A: (
        _bits(jordan_product(a, b).coords),
        _bits(jordan_product_coords(d, a.coords[None], b.coords[None])[0])),
    "norm": lambda d, a, b, c, frame, A: (
        _bits(norm(a)), _bits(norm_rows(d, a.coords[None])[0])),
    "operator_commutes": lambda d, a, b, c, frame, A: (
        [operator_commutes(a, b), operator_commutes(a, c)],
        [bool(operator_commutes_rows(d, a.coords[None], x.coords[None])[0]) for x in (b, c)]),
    "sqrt_el": lambda d, a, b, c, frame, A: (
        _bits(sqrt_el(c).coords),
        _bits(sqrt_batch(*spectral_decompose_batch(d, c.coords[None]))[0])),
    "quad_rep": lambda d, a, b, c, frame, A: (
        _bits(quad_rep(a, b).coords),
        _bits(quad_rep_coords(d, a.coords[None], b.coords[None])[0])),
    "quad_rep_sqrt": lambda d, a, b, c, frame, A: (
        _bits(quad_rep_sqrt(c, b).coords),
        _bits(quad_rep_sqrt_rows(d, c.coords[None], b.coords[None])[0])),
    "schur": lambda d, a, b, c, frame, A: (
        _bits(schur(A, frame, b).coords),
        _bits(schur_rows(d, A[None], frame.coords[None], b.coords[None])[0])),
    "peirce_project": _peirce_pair,
    "apply_sublinear": lambda d, a, b, c, frame, A: (
        _bits(apply_sublinear(SublinearFn(1.5, -0.5), a).coords),
        _bits(apply_sublinear_rows(d, np.array([1.5]), np.array([-0.5]), a.coords[None])[0])),
    "eigvals": lambda d, a, b, c, frame, A: (
        _bits(eigvals(a)), _bits(eigvals_batch(d, a.coords[None])[0])),
    "spectral_decompose": _decompose_pair,
    "rebuild": lambda d, a, b, c, frame, A: (
        _bits(rebuild(frame, np.linspace(3.0, -1.25, d.rank)).coords),
        _bits(rebuild_batch(frame.coords[None], np.linspace(3.0, -1.25, d.rank)[None])[0])),
}


@pytest.mark.parametrize("d", CATALOG, ids=str)
@pytest.mark.parametrize("name", sorted(RULE))
def test_element_function_is_row_zero_of_its_row_form(name, d):
    got, want = RULE[name](d, *_operands(d))
    assert got == want


SIZE_MESSAGE = "multiplier size 3 does not match frame rank 2"


def _entry_points(A=np.eye(3), frame=standard_frame(SymMatrix(2))):
    d = SymMatrix(2)
    b = Element(d, [2.0, 0.5, 1.0])
    phi = SublinearFn(1.0, 0.0)
    return {
        "frame_multiplier": lambda: frame_multiplier(A, frame, d),
        "schur": lambda: schur(A, frame, b),
        "multiplier_stack": lambda: multiplier_stack([A], 2),
        "positive_schur_map": lambda: positive_schur_map(A, frame),
        "norm_closed_form": lambda: norm_closed_form("schur", A, 2.0, 1.0, frame=frame),
        "norm_empirical": lambda: norm_empirical("schur", A, 2.0, 1.0, budget=4,
                                                 rng=np.random.default_rng(0), frame=frame),
        "check_schur_diag": lambda: check_schur_diag(A, frame, b, phi),
        "check_quadrep_pinch": lambda: check_quadrep_pinch(b, b, A, frame),
        "test_candidate": lambda: candidate_general(A, frame, b),
        "test_candidate_cone": lambda: candidate_cone(A, frame, b),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_wrong_size_multiplier_has_one_message(entry):
    with pytest.raises(ValueError, match=f"^{SIZE_MESSAGE}$"):
        _entry_points()[entry]()


def test_positive_schur_map_checks_size_before_psd():
    # a wrong-size multiplier that is also indefinite fails on its size
    frame = standard_frame(SymMatrix(2))
    with pytest.raises(ValueError, match=SIZE_MESSAGE):
        positive_schur_map(-np.eye(3), frame)


def _invalid_frame_entry_points():
    """The twin of :func:`_entry_points` on the frame (e, e), which is not
    orthonormal, with a PSD multiplier of the right size: every entry point
    that takes a frame, and peirce_project."""
    d = SymMatrix(2)
    frame = JordanFrame((unit(d), unit(d)))
    points = _entry_points(np.eye(2), frame)
    del points["frame_multiplier"], points["multiplier_stack"]  # no frame check
    return {**points, "peirce_project": lambda: peirce_project(frame, Element(d, [2.0, 0.5, 1.0]))}


@pytest.mark.parametrize("entry", sorted(_invalid_frame_entry_points()))
def test_invalid_frame_raises_frame_error(entry):
    with pytest.raises(FrameError, match="^invalid Jordan frame"):
        _invalid_frame_entry_points()[entry]()
