"""Multiplier-family search: generation, margins, replay, archives."""

import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import CATALOG
from symcone import search
from symcone.algebra import (
    Element,
    SpinFactor,
    SymMatrix,
    descriptor_to_spec,
    jordan_product,
    jordan_product_coords,
    sym_pack,
)
from symcone.majorization import sort_desc
from symcone.search import test_candidate as eval_candidate
from symcone.search import test_candidate_cone as eval_candidate_cone
from symcone.search import (
    GENERAL_SIGMA,
    PROBLEMS,
    FamilySpec,
    SweepResult,
    _margins,
    _standard_projectors,
    generate_candidate,
    read_archive,
    replay_record,
    replay_records,
    sweep,
    write_archive,
    write_summary_csv,
)
from symcone.spectral import standard_frame, sym_eigen
from symcone.transforms import SchurMatrix, schur_matrix
from symcone.verifiers import sample_general

DATA = Path(__file__).parent / "data"


class TestFamilies:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("weird", 3)

    def test_psd_gram_is_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = generate_candidate(FamilySpec("psd_gram", 4), rng)
            w, _ = sym_eigen(A)
            assert w[-1] >= -1e-12
            assert np.abs(A - A.T).max() == 0.0

    def test_lyapunov_form_structure(self):
        rng = np.random.default_rng(1)
        A = generate_candidate(FamilySpec("lyapunov_form", 3), rng)
        d = np.diag(A)
        np.testing.assert_allclose(A, (d[:, None] + d[None, :]) / 2.0, atol=1e-12)

    def test_quadratic_form_is_rank_one(self):
        rng = np.random.default_rng(2)
        A = generate_candidate(FamilySpec("quadratic_form", 4), rng)
        w, _ = sym_eigen(A)
        assert np.abs(w[1:]).max() <= 1e-10 * max(1.0, w[0])

    def test_zero_diag_param(self):
        rng = np.random.default_rng(3)
        A = generate_candidate(FamilySpec("random_sym", 5, zero_diag=True), rng)
        assert np.all(np.diag(A) == 0.0)

    def test_rank_one_perturbed_symmetric(self):
        rng = np.random.default_rng(4)
        A = generate_candidate(FamilySpec("rank_one_perturbed", 3), rng)
        assert np.abs(A - A.T).max() <= 1e-12


class TestCandidates:
    def test_zero_diagonal_violates_on_offdiagonal_input(self):
        d = SymMatrix(2)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = Element(d, sym_pack(np.array([[0.0, 1.0], [1.0, 0.0]])))
        rec = eval_candidate(A, standard_frame(d), b)
        assert rec.verdict == "violated"
        assert rec.margin < -0.5

    def test_psd_always_satisfied(self):
        rng = np.random.default_rng(5)
        d = SymMatrix(3)
        frame = standard_frame(d)
        for _ in range(50):
            A = generate_candidate(FamilySpec("psd_gram", 3), rng)
            rec = eval_candidate(A, frame, sample_general(d, rng))
            assert rec.verdict == "satisfied"

    def test_lyapunov_form_always_satisfied(self):
        rng = np.random.default_rng(6)
        d = SymMatrix(3)
        frame = standard_frame(d)
        for _ in range(50):
            A = generate_candidate(FamilySpec("lyapunov_form", 3), rng)
            rec = eval_candidate(A, frame, sample_general(d, rng))
            assert rec.verdict == "satisfied"

    def test_cone_variant_checks_membership(self):
        d = SymMatrix(2)
        b = Element(d, sym_pack(np.diag([1.0, -1.0])))
        with pytest.raises(ValueError):
            eval_candidate_cone(np.eye(2), standard_frame(d), b)

    def test_cone_variant_psd_satisfied(self):
        rng = np.random.default_rng(7)
        d = SymMatrix(3)
        frame = standard_frame(d)
        for _ in range(30):
            A = generate_candidate(FamilySpec("psd_gram", 3), rng)
            b = jordan_product(sample_general(d, rng), sample_general(d, rng))
            b = jordan_product(b, b)
            rec = eval_candidate_cone(A, frame, b)
            assert rec.verdict == "satisfied"

    def test_size_mismatch(self):
        d = SymMatrix(3)
        with pytest.raises(ValueError):
            eval_candidate(np.eye(2), standard_frame(d), sample_general(d, np.random.default_rng(0)))

    def test_frame_rotation_covariance(self):
        # conjugating both the frame and the input by the same orthogonal
        # matrix leaves every margin unchanged
        rng = np.random.default_rng(8)
        d = SymMatrix(3)
        from symcone.algebra import from_matrix, random_element
        from symcone.spectral import spectral_decompose

        for _ in range(10):
            A = generate_candidate(FamilySpec("random_sym", 3), rng)
            x = random_element(d, rng, 2.0)
            rec_std = eval_candidate(A, standard_frame(d), x)
            G = rng.normal(size=(3, 3))
            _, Q = sym_eigen((G + G.T) / 2.0)
            rotated_x = from_matrix(Q @ x.as_matrix() @ Q.T)
            # eigenvalues 3 > 2 > 1 pin the rotated frame to the column order of Q
            rotated_frame = spectral_decompose(
                from_matrix(Q @ np.diag([3.0, 2.0, 1.0]) @ Q.T)
            ).frame
            rec_rot = eval_candidate(A, rotated_frame, rotated_x)
            assert abs(rec_std.margin - rec_rot.margin) <= 1e-8 * (
                1.0 + abs(rec_std.margin)
            )


class TestSweep:
    def test_known_families_clean(self):
        for fam in ("psd_gram", "lyapunov_form", "quadratic_form"):
            res = sweep(FamilySpec(fam, 3), SymMatrix(3), 20, 20, seed=3)
            assert len(res.violations) == 0
            assert res.tested == 400

    def test_zero_diag_produces_certified_violation(self):
        for n in (2, 3, 4):
            spec = FamilySpec("random_sym", n, zero_diag=True)
            res = sweep(spec, SymMatrix(n), 2, 50, seed=1)
            assert len(res.violations) >= 1
            for rec in res.violations[:5]:
                ok, _ = replay_record(rec)
                assert ok

    def test_deterministic(self):
        spec = FamilySpec("random_sym", 2, zero_diag=True)
        r1 = sweep(spec, SymMatrix(2), 3, 10, seed=9)
        r2 = sweep(spec, SymMatrix(2), 3, 10, seed=9)
        assert r1.min_margin == r2.min_margin
        assert [v.to_json() for v in r1.violations] == [v.to_json() for v in r2.violations]

    def test_no_elements_tested(self):
        res = sweep(FamilySpec("psd_gram", 2), SymMatrix(2), 3, 0, seed=0)
        assert res.tested == 0 and res.violations == []

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sweep(FamilySpec("psd_gram", 3), SymMatrix(2), 1, 1, seed=0)

    def test_overflowing_products_raise(self):
        # A . b has finite entries whose spin radius overflows: the batched
        # eigenvalue gate rejects it, with no numpy warning on the way
        d = SpinFactor(3)
        b = Element(d, [1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                eval_candidate(np.full((2, 2), 1e200), standard_frame(d), b)

    @pytest.mark.parametrize("seed", [2, 5], ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("family", ["psd_gram", "zero_diag"])
    @pytest.mark.parametrize("problem", ["general", "cone"])
    @pytest.mark.parametrize("d", CATALOG, ids=descriptor_to_spec)
    def test_sweep_matches_per_sample_loop(self, d, problem, family, seed):
        # the batched screen keeps exactly the records, and counts exactly the
        # tests, of the scalar verifier run on every draw
        spec = (FamilySpec("random_sym", d.rank, zero_diag=True)
                if family == "zero_diag" else FamilySpec(family, d.rank))
        n_A, n_b = 4, 10
        res = sweep(spec, d, n_A, n_b, seed, problem=problem)
        ref = _per_sample_sweep(spec, d, n_A, n_b, seed, problem)
        assert [r.to_json() for r in res.violations] == [r.to_json() for r in ref.violations]
        assert res.tested == ref.tested == n_A * n_b
        # the screen's margins carry eigenvalue roundoff, which scales with the
        # eigenvalues rather than with the margin, hence the absolute floor
        assert res.min_margin == pytest.approx(ref.min_margin, rel=1e-12, abs=1e-12)
        if family == "zero_diag":
            assert len(ref.violations) == ref.tested
        else:
            assert ref.violations == []


def _per_sample_sweep(spec, d, n_A, n_b, seed, problem):
    """:func:`sweep` as a plain loop: the same draws, each through the
    scalar verifier."""
    frame = standard_frame(d)
    tester = eval_candidate if problem == "general" else eval_candidate_cone
    violations, margins = [], []
    for ia in range(n_A):
        rng = np.random.default_rng(np.random.SeedSequence([seed, ia]))
        A = generate_candidate(spec, rng)
        for c in rng.normal(0.0, GENERAL_SIGMA, (n_b, d.dim)):
            b = Element(d, c)
            if problem == "cone":
                x = Element(d, c / math.sqrt(GENERAL_SIGMA))
                b = jordan_product(x, x)
            rec = tester(A, frame, b, family=spec.family, seed=seed)
            margins.append(rec.margin)
            if rec.verdict == "violated":
                violations.append(rec)
    return SweepResult(spec.family, descriptor_to_spec(d), n_A, n_b, seed, problem,
                       violations, min(margins), len(margins))


class TestArchives:
    def test_jsonl_roundtrip(self, tmp_path):
        spec = FamilySpec("random_sym", 2, zero_diag=True)
        res = sweep(spec, SymMatrix(2), 2, 20, seed=7)
        path = tmp_path / "arch.jsonl"
        write_archive(path, res.violations)
        back = read_archive(path)
        assert len(back) == len(res.violations)
        for orig, rec in zip(res.violations, back):
            assert np.array_equal(orig.entries, rec.entries)
            assert np.array_equal(orig.b_witness.coords, rec.b_witness.coords)
            assert rec.margin == orig.margin
            ok, margin = replay_record(rec)
            assert ok and margin == rec.margin

    def test_summary_csv(self, tmp_path):
        res = sweep(FamilySpec("psd_gram", 2), SymMatrix(2), 3, 5, seed=0)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [res])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "family,n,samples,violations,min_margin"
        assert lines[1].startswith("psd_gram,2,15,0,")


# --- one margin path ----------------------------------------------------------------

_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def margin_stacks(draw):
    """(algebra, problem, multipliers, elements (k, rows, dim), permutation of
    the k * rows elements)."""
    d = draw(st.sampled_from(CATALOG))
    problem = draw(st.sampled_from(PROBLEMS))
    k = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 5))
    mults = []
    for _ in range(k):
        G = draw(arrays(np.float64, (d.rank, d.rank), elements=_coord))
        mults.append(SchurMatrix((G + G.T) / 2.0))
    X = draw(arrays(np.float64, (k, rows, d.dim), elements=_coord))
    if problem == "cone":
        X = jordan_product_coords(d, X, X)
    return d, problem, mults, X, draw(st.permutations(range(k * rows)))


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestMargins:
    @settings(max_examples=120, deadline=None)
    @given(margin_stacks())
    def test_row_is_independent_of_its_stack(self, case):
        # alone, inside a sweep stack (one shared multiplier) and inside a
        # shuffled replay stack (one multiplier per row), a row gets the
        # same bits
        d, problem, mults, X, perm = case
        P = _standard_projectors(d)
        Ms = [schur_matrix(A, P) for A in mults]
        drefs = [sort_desc(np.abs(np.diag(A.entries))) for A in mults]

        def run(M, dref, coords):
            return _margins(d, M, dref, coords, problem, 1e-9, 1e-8)

        k, rows = X.shape[:2]
        alone = {(a, r): run(Ms[a], drefs[a], X[a, r:r + 1])
                 for a in range(k) for r in range(rows)}
        for a in range(k):
            margins, holds = run(Ms[a], drefs[a], X[a])
            for r in range(rows):
                assert _bits(margins[r]) == _bits(alone[a, r][0][0])
                assert holds[r] == alone[a, r][1][0]
        order = [list(alone)[i] for i in perm]
        margins, holds = run(schur_matrix([mults[a] for a, _ in order], P),
                             np.stack([drefs[a] for a, _ in order]),
                             np.stack([X[a, r] for a, r in order]))
        for i, key in enumerate(order):
            assert _bits(margins[i]) == _bits(alone[key][0][0])
            assert holds[i] == alone[key][1][0]
        tester = eval_candidate if problem == "general" else eval_candidate_cone
        rec = tester(mults[0], standard_frame(d), Element(d, X[0, 0]))
        assert _bits(np.float64(rec.margin)) == _bits(alone[0, 0][0][0])
        assert (rec.verdict == "satisfied") == alone[0, 0][1][0]

    def test_cone_rows_outside_the_cone_raise(self):
        d = SymMatrix(2)
        b = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])  # diag(1, 1), diag(1, -1)
        M = schur_matrix(np.eye(2), _standard_projectors(d))
        with pytest.raises(ValueError, match="not in the cone"):
            _margins(d, M, np.ones(2), b, "cone", 1e-9, 1e-8)
        margins, holds = _margins(d, M, np.ones(2), b, "general", 1e-9, 1e-8)
        assert holds.all()

    def test_chunks_do_not_change_rows(self, monkeypatch):
        # shared multiplier (sweep) and one multiplier per row (replay)
        records = read_archive(DATA / "zero_diag_archive.jsonl")
        spec = FamilySpec("random_sym", 3)
        want_replay = replay_records(records)
        want_sweep = sweep(spec, SymMatrix(3), 2, 7, seed=1)
        monkeypatch.setattr(search, "MARGIN_CHUNK", 2)
        assert replay_records(records) == want_replay
        got = sweep(spec, SymMatrix(3), 2, 7, seed=1)
        assert got.min_margin == want_sweep.min_margin
        assert [r.to_json() for r in got.violations] == \
            [r.to_json() for r in want_sweep.violations]

    def test_unknown_problem_rejected(self):
        d = SymMatrix(2)
        with pytest.raises(ValueError, match="unknown problem"):
            _margins(d, np.eye(3), np.ones(2), np.ones((1, 3)), "sideways", 1e-9, 1e-8)


class TestReplayRecords:
    @settings(max_examples=25, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from(CATALOG), st.sampled_from(PROBLEMS),
                                   st.booleans()), min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_archive_round_trip(self, runs, seed):
        records = []
        for d, problem, zero_diag in runs:
            spec = FamilySpec("random_sym", d.rank, {"zero_diag": zero_diag})
            records += sweep(spec, d, 2, 4, seed, problem=problem).violations
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "archive.jsonl")
            write_archive(path, records)
            back = read_archive(path)
        assert [r.to_json() for r in back] == [r.to_json() for r in records]
        replayed = replay_records(back)
        assert all(ok for ok, _ in replayed)
        assert [margin for _, margin in replayed] == [r.margin for r in records]

    def test_fixture_archive_replays(self):
        # zero-diagonal violations on four algebras and both problems, as the
        # per-element verifier archived them
        records = read_archive(DATA / "zero_diag_archive.jsonl")
        assert {(r.descriptor, r.problem) for r in records} == {
            (spec, problem) for spec in ("sym:2", "sym:3", "spin:4", "sum:sym:2+spin:3")
            for problem in PROBLEMS}
        assert all(ok for ok, _ in replay_records(records))

    def test_replay_record_is_a_batch_of_one(self):
        records = read_archive(DATA / "zero_diag_archive.jsonl")
        assert [replay_record(r) for r in records] == replay_records(records)

    def test_witness_of_another_algebra_rejected(self):
        rec = read_archive(DATA / "zero_diag_archive.jsonl")[0]
        rec.descriptor = "spin:3"  # same dimension as the sym:2 witness
        with pytest.raises(ValueError, match="witness"):
            replay_records([rec])
