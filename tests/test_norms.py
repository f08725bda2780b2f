"""Operator-norm closed forms, extremal witnesses, and empirical estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CATALOG, coord_stacks
from symcone import norms
from symcone.algebra import (
    SymMatrix,
    from_matrix,
    from_orthonormal,
    random_element,
    row_sum,
    to_orthonormal,
    unit,
)
from symcone.norms import dual_exponent, norm_closed_form, norm_empirical
from symcone.spectral import eigvals, pnorm, rebuild
from symcone.transforms import SchurMatrix, as_matrix, lyap

GRID = ((1, 1), (2, 2), (math.inf, math.inf), (1, math.inf), (math.inf, 1),
        (3, 2), (2, 3))


class TestClosedForm:
    def test_multiplication_examples(self):
        a = from_matrix(np.diag([3.0, 1.0]))
        assert norm_closed_form("lyap", a, 2, 2) == 3.0
        assert norm_closed_form("lyap", a, math.inf, 1) == 4.0

    def test_quadratic_scaling(self):
        a = 2.0 * unit(SymMatrix(2))
        assert abs(norm_closed_form("quad", a, 2, 2) - 4.0) <= 1e-12

    def test_zero_diagonal_schur(self):
        A = SchurMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for r, s in ((3, 2), (math.inf, 1), (2, 1)):
            assert norm_closed_form("schur", A, r, s, descriptor=SymMatrix(2)) == 0.0

    def test_dual_exponent(self):
        assert dual_exponent(math.inf, 2) == 2.0
        assert abs(dual_exponent(3, 2) - 6.0) <= 1e-12

    def test_order_validation(self):
        for r in (0.5, -math.inf):
            with pytest.raises(ValueError):
                norm_closed_form("lyap", unit(SymMatrix(2)), r, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            norm_closed_form("frob", unit(SymMatrix(2)), 1, 1)


class TestEmpirical:
    def test_budget_validated(self):
        with pytest.raises(ValueError):
            norm_empirical("lyap", unit(SymMatrix(2)), 1, 1, budget=0)

    @pytest.mark.parametrize("kind", ["lyap", "quad"])
    @pytest.mark.parametrize("r,s", GRID)
    def test_never_exceeds_closed_form(self, kind, r, s):
        for i in range(8):
            rng = np.random.default_rng(100 + i)
            a = random_element(SymMatrix(3), rng, 2.0)
            closed = norm_closed_form(kind, a, r, s)
            est = norm_empirical(kind, a, r, s, budget=60, rng=rng)
            scale = max(1.0, closed)
            assert est.value <= closed + 1e-9 * scale
            assert abs(est.witness_value - closed) <= 1e-6 * scale

    @pytest.mark.parametrize("r,s", GRID)
    def test_schur_psd_witness_attains(self, r, s):
        rng = np.random.default_rng(7)
        G = rng.normal(size=(3, 3))
        A = SchurMatrix(G.T @ G)
        d = SymMatrix(3)
        closed = norm_closed_form("schur", A, r, s, descriptor=d)
        est = norm_empirical("schur", A, r, s, budget=60, rng=rng, descriptor=d)
        scale = max(1.0, closed)
        assert est.value <= closed + 1e-9 * scale
        assert abs(est.witness_value - closed) <= 1e-6 * scale
        assert est.note is None

    def test_zero_diagonal_restricted_search(self):
        A = SchurMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        d = SymMatrix(2)
        est = norm_empirical("schur", A, 3, 2, budget=40,
                             rng=np.random.default_rng(0), descriptor=d)
        assert est.value == 0.0
        assert est.note is not None and "frame-diagonal" in est.note
        # off the frame diagonal the map genuinely exceeds the closed form,
        # which is exactly why the search stays restricted
        b = from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = lyap(b, b)  # placeholder to keep imports honest
        assert pnorm(out, 2) >= 0.0

    def test_infinite_source_uses_sign_witness(self):
        # at r = inf the witness carries |d|^0 = 1 with the sign pattern
        a = from_matrix(np.diag([2.0, -1.0]))
        est = norm_empirical("lyap", a, math.inf, 2, budget=30,
                             rng=np.random.default_rng(1))
        closed = norm_closed_form("lyap", a, math.inf, 2)
        assert abs(est.witness_value - closed) <= 1e-9
        wv = eigvals(est.witness)
        np.testing.assert_allclose(np.abs(wv), [1.0, 1.0], atol=1e-12)

    def test_dual_relation_not_the_degenerate_exponent(self):
        # r = inf, s = 2 on eigenvalues (2, 1): the defining relation gives
        # t = s and the norm sqrt(5); evaluating the exponent as 1 would
        # claim 3, which nothing attains
        a = from_matrix(np.diag([2.0, 1.0]))
        closed = norm_closed_form("lyap", a, math.inf, 2)
        assert abs(closed - math.sqrt(5.0)) <= 1e-12
        est = norm_empirical("lyap", a, math.inf, 2, budget=200,
                             rng=np.random.default_rng(2))
        t1_claim = 3.0  # |2| + |1|
        assert est.value <= closed + 1e-9
        assert abs(est.witness_value - closed) <= 1e-6
        assert t1_claim > est.value * (1.0 + 1e-6)

    def test_schur_needs_frame_or_descriptor(self):
        A = SchurMatrix(np.eye(2))
        with pytest.raises(ValueError):
            norm_closed_form("schur", A, 1, 1)

    def test_schur_rank_mismatch(self):
        A = SchurMatrix(np.eye(2))
        with pytest.raises(ValueError):
            norm_closed_form("schur", A, 1, 1, descriptor=SymMatrix(3))


def sequential_norm_empirical(kind, operand, r, s, budget, rng, descriptor=None):
    """The estimator one proposal at a time, each through a batch of one.

    Returns (EmpiricalNorm, accepted ascent steps)."""
    dvec, fr, op, certified = norms._diag_and_frame(kind, operand, None, descriptor)
    alg = fr.descriptor
    restricted = kind == "schur" and not certified
    T = as_matrix(op, alg)
    frame_cols = np.stack([to_orthonormal(e) for e in fr.idempotents], axis=1)

    def coords(xi):
        return row_sum(frame_cols * xi)

    def ratio(u):
        return float(norms._ratios_through_matrix(T, alg, u[None, :], r, s)[0])

    evaluate = (lambda xi: ratio(coords(xi))) if restricted else ratio
    if r <= s:
        wit_xi = np.zeros(len(fr))
        wit_xi[int(np.argmax(np.abs(dvec)))] = 1.0
    else:
        mags = (np.ones_like(dvec) if math.isinf(r)
                else np.abs(dvec) ** (dual_exponent(r, s) / r))
        wit_xi = mags * np.sign(dvec)
    witness_value = ratio(coords(wit_xi)) if np.any(wit_xi) else 0.0
    evals = 1
    best_val = witness_value
    best_u = wit_xi.copy() if restricted else coords(wit_xi)
    dim = len(fr) if restricted else alg.dim
    if not np.any(best_u):
        best_u = np.zeros(dim)
        best_u[0] = 1.0
    while evals < 1 + budget // 2:
        u = rng.normal(0.0, 1.0, dim)
        val = evaluate(u)
        evals += 1
        if val > best_val:
            best_val, best_u = val, u
    step = 0.5
    accepted = 0
    while evals < budget:
        u = best_u.copy()
        j = int(rng.integers(dim))
        u[j] += step * rng.normal() * max(1.0, float(np.abs(best_u).max()))
        val = evaluate(u)
        evals += 1
        if val > best_val:
            best_val, best_u = val, u
            accepted += 1
        else:
            step = max(step * 0.97, 1e-3)
    if best_val > witness_value:
        witness = rebuild(fr, best_u) if restricted else from_orthonormal(alg, best_u)
    else:
        witness, best_val = rebuild(fr, wit_xi), witness_value
    closed = norm_closed_form(kind, operand, r, s, descriptor=descriptor)
    return norms.EmpiricalNorm(best_val, witness, witness_value, evals, closed), accepted


ORDERS = ((1.0, 1.0), (2.0, 2.0), (math.inf, math.inf), (1.0, math.inf),
          (math.inf, 1.0), (3.0, 2.0), (2.0, 3.0))
BUDGETS = (1, 2, 3, 48, 200)


def _operands(d, rng):
    G = rng.normal(0.0, 1.0, (d.rank, d.rank))
    S = rng.normal(0.0, 1.0, (d.rank, d.rank))
    indefinite = SchurMatrix(S + S.T - 3.0 * np.eye(d.rank))
    assert not indefinite.is_psd()
    return (("lyap", random_element(d, rng, 2.0)),
            ("quad", random_element(d, rng, 2.0)),
            ("schur", SchurMatrix(G.T @ G)),
            ("schur", indefinite))


def _parity_cases():
    # every algebra meets three of the seven orders and every order meets
    # four or five algebras: the full product would cost the sequential
    # reference about 11 s
    for i, d in enumerate(CATALOG):
        for kind, op in _operands(d, np.random.default_rng(40 + i)):
            for j in (i % 7, (i + 2) % 7, (i + 4) % 7):
                r, s = ORDERS[j]
                for budget in BUDGETS:
                    yield d, kind, op, r, s, budget, 1000 * i + 10 * j + budget


def _same(got, want, rng_got, rng_want):
    np.testing.assert_equal([got.value, got.witness_value, got.closed_form],
                            [want.value, want.witness_value, want.closed_form])  # NaN equals NaN
    assert got.evaluations == want.evaluations
    assert got.witness.descriptor == want.witness.descriptor
    np.testing.assert_array_equal(got.witness.coords, want.witness.coords)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestBatchedEstimator:
    """norm_empirical is the sequential search with batched evaluations."""

    @pytest.fixture(scope="class")
    def references(self):
        out = []
        for d, kind, op, r, s, budget, seed in _parity_cases():
            rng = np.random.default_rng(seed)
            ref, accepted = sequential_norm_empirical(kind, op, r, s, budget, rng,
                                                      descriptor=d)
            out.append(((d, kind, op, r, s, budget, seed), ref, rng, accepted))
        return out

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_equals_sequential_search(self, references, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(norms, "NORM_CHUNK", chunk)
        for (d, kind, op, r, s, budget, seed), ref, ref_rng, _ in references:
            rng = np.random.default_rng(seed)
            got = norm_empirical(kind, op, r, s, budget=budget, rng=rng, descriptor=d)
            _same(got, ref, rng, ref_rng)
            assert (got.note is None) == (kind != "schur" or op.is_psd())

    def test_cases_cover_accepted_ascent_steps(self, references):
        assert len(references) == len(CATALOG) * 4 * 3 * len(BUDGETS)
        assert {case[3:5] for case, *_ in references} == set(ORDERS)
        assert sum(accepted for *_, accepted in references) >= 10

    def test_nan_ratios_beat_nothing(self, monkeypatch):
        # a NaN ratio (an overflow both ways) is never accepted, in either
        # phase, and never hides a larger value later in its batch; the
        # skewed ratio lets proposals beat the witness
        ratios = norms._ratios_through_matrix

        def skewed_with_nans(T, d, U, r, s):
            out = ratios(T, d, U, r, s) * (1.0 + np.abs(U[:, 1]))
            out[np.abs(U[:, 0]) > 1.0] = math.nan
            return out

        monkeypatch.setattr(norms, "_ratios_through_matrix", skewed_with_nans)
        a = random_element(SymMatrix(3), np.random.default_rng(6), 2.0)
        accepted = 0
        for r, s in ORDERS:
            rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
            ref, steps = sequential_norm_empirical("lyap", a, r, s, 200, ref_rng)
            _same(norm_empirical("lyap", a, r, s, budget=200, rng=rng), ref, rng,
                  ref_rng)
            accepted += steps
        assert accepted >= 100

    def test_chunked_draw_has_the_bits_of_row_draws(self):
        for dim in (1, 3, 6, 15):
            rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
            block = rng.normal(0.0, 1.0, (37, dim))
            rows = np.stack([ref.normal(0.0, 1.0, dim) for _ in range(37)])
            np.testing.assert_array_equal(block, rows)
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(coord_stacks(max_rows=6), st.integers(0, 2**32 - 1),
           st.sampled_from(ORDERS), st.booleans())
    def test_ratio_rows_match_rows_alone(self, drawn, seed, orders, zero_row):
        d, U = drawn
        if zero_row:
            U[0] = 0.0
        T = np.random.default_rng(seed).normal(0.0, 1.0, (d.dim, d.dim))
        r, s = orders
        stacked = norms._ratios_through_matrix(T, d, U, r, s)
        alone = [norms._ratios_through_matrix(T, d, U[i:i + 1], r, s)[0]
                 for i in range(len(U))]
        np.testing.assert_array_equal(stacked, alone)
        if zero_row:
            assert stacked[0] == 0.0

    def test_ratio_is_the_spectral_norm_ratio(self):
        a = random_element(SymMatrix(3), np.random.default_rng(3), 2.0)
        T = as_matrix(norms.lyap_map(a), a.descriptor)
        U = np.random.default_rng(4).normal(size=(5, 6))
        got = norms._ratios_through_matrix(T, a.descriptor, U, 3.0, 2.0)
        for u, g in zip(U, got):
            x = from_orthonormal(a.descriptor, u)
            want = pnorm(lyap(a, x), 2.0) / pnorm(x, 3.0)
            assert abs(g - want) <= 1e-12 * want
