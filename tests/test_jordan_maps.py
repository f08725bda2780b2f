"""Cross-algebra oracles: a Jordan isomorphism or embedding keeps every
spectrum, so a check on mapped inputs must reach the same verdict through
another code path of the package.

* Sym(2) ≅ Spin(3), by (M00, M01, M11) -> ((M00 + M11)/2, (M00 - M11)/2, M01):
  the Jacobi kernel against the spin factor's closed form.
* Spin(3) ↪ Spin(5), by padding xbar with zeros.
* Sym(2) ⊕ Sym(3) ↪ Sym(5), as block-diagonal matrices: the direct sum's
  merge of its factors' spectra against one Jacobi solve.

Each check draws its inputs on the source algebra (its registered draw),
maps the elements a and b and keeps every other input.  The verdicts at the
default tolerances must be equal and the slacks must agree within the
tolerance band; where both paths do the same arithmetic, the slacks must
be bit-equal.
"""

import numpy as np
import pytest

from symcone.algebra import descriptor_from_spec, sym_pack, sym_unpack
from symcone.majorization import DEFAULT_ATOL, DEFAULT_RTOL, sort_desc_rows
from symcone.spectral import eigvals_batch
from symcone.verifiers import CHECK_RUNNERS, sample_rngs

CHECKS = ("log_major_quadrep", "jordan_weak", "holder", "quadrep_sup_bound",
          "quadrep_sublinear")
PAIRS = 2000


def sym2_to_spin3(X):
    return np.stack([(X[:, 0] + X[:, 2]) / 2.0, (X[:, 0] - X[:, 2]) / 2.0, X[:, 1]], axis=1)


def spin3_to_spin5(X):
    return np.concatenate([X, np.zeros((len(X), 2))], axis=1)


def sum_to_sym5(X):
    M = np.zeros((len(X), 5, 5))
    M[:, :2, :2] = sym_unpack(X[:, :3], 2)
    M[:, 2:, 2:] = sym_unpack(X[:, 3:], 3)
    return sym_pack(M)


# (source, target, map, the checks whose slacks are bit-equal): every
# padded spin check does the same arithmetic on zeros; the block-diagonal
# solve leaves the blocks' eigenvalues with the bits of the factors' solves,
# but a check that rebuilds an element (quadrep_sublinear) or takes a square
# root of one (log_major_quadrep, quadrep_sup_bound) adds its terms in
# another order
MAPS = {
    "sym2-spin3": ("sym:2", "spin:3", sym2_to_spin3, ()),
    "spin3-spin5": ("spin:3", "spin:5", spin3_to_spin5, CHECKS),
    "sum-sym5": ("sum:sym:2+sym:3", "sym:5", sum_to_sym5, ("jordan_weak", "holder")),
}


def _band(d, inp):
    """The tolerance band at the defaults of each row, at a scale that
    bounds the partial sums and products the checks compare:
    prod_k (1 + |lambda(a)|_k)^2 (1 + |lambda(b)|_k)."""
    la, lb = (sort_desc_rows(np.abs(eigvals_batch(d, inp[k]))) for k in ("a", "b"))
    return DEFAULT_ATOL + DEFAULT_RTOL * np.prod((1.0 + la) ** 2 * (1.0 + lb), axis=1)


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("name", sorted(MAPS))
def test_a_jordan_map_keeps_every_verdict(name, check):
    source, target, jordan_map, bit_equal = MAPS[name]
    ds, dt = descriptor_from_spec(source), descriptor_from_spec(target)
    runner = CHECK_RUNNERS[check]
    inp = runner.draw(ds, sample_rngs(29, range(PAIRS)))
    mapped = {k: jordan_map(v) if k in ("a", "b") else v for k, v in inp.items()}
    passed, slack, _ = runner.rows(ds, inp, DEFAULT_ATOL, DEFAULT_RTOL)
    passed_mapped, slack_mapped, _ = runner.rows(dt, mapped, DEFAULT_ATOL, DEFAULT_RTOL)
    assert passed.all() and np.array_equal(passed, passed_mapped)
    assert (np.abs(slack - slack_mapped) <= _band(ds, inp)).all()
    if check in bit_equal:
        assert slack.tobytes() == slack_mapped.tobytes()
