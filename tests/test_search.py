"""Multiplier-family search: generation, margins, replay, archives."""

import dataclasses
import itertools
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from archive_reference import read_archive as reference_read_archive
from conftest import CATALOG
from symcone import search
from symcone.algebra import (
    Element,
    SpinFactor,
    SymMatrix,
    descriptor_from_spec,
    descriptor_to_json,
    descriptor_to_spec,
    jordan_product,
    jordan_product_coords,
    sym_pack,
)
from symcone.search import test_candidate as eval_candidate
from symcone.search import test_candidate_cone as eval_candidate_cone
from symcone.search import (
    GENERAL_SIGMA,
    PROBLEMS,
    FamilySpec,
    SearchRecord,
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
from symcone.transforms import SchurMatrix, multiplier_stack, schur_stack
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

    @pytest.mark.parametrize("value", [{"zero_diag": False}, 1, 0, "yes", None])
    def test_zero_diag_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="zero_diag must be a bool"):
            FamilySpec("random_sym", 3, value)

    @pytest.mark.parametrize("family", [f for f in search.FAMILIES if f != "random_sym"])
    def test_zero_diag_applies_to_random_sym_only(self, family):
        assert not FamilySpec(family, 3).zero_diag
        with pytest.raises(ValueError, match="random_sym only"):
            FamilySpec(family, 3, True)

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
        assert res.tested == 0 and len(res.violations) == 0

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sweep(FamilySpec("psd_gram", 3), SymMatrix(2), 1, 1, seed=0)

    @pytest.mark.parametrize("seed", [True, np.int64(3), 3.0], ids=repr)
    def test_seed_an_archive_cannot_hold_rejected(self, seed):
        # every record carries the sweep's seed, and the reader takes only
        # an integer (a bool is not one)
        with pytest.raises(ValueError, match="seed must be an integer"):
            sweep(FamilySpec("random_sym", 2, zero_diag=True), SymMatrix(2), 1, 2, seed)

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
        # one batch per group of candidates keeps exactly the records, the
        # margins and the test count of test_candidate run on every draw alone
        spec = (FamilySpec("random_sym", d.rank, zero_diag=True)
                if family == "zero_diag" else FamilySpec(family, d.rank))
        n_A, n_b = 4, 10
        res = sweep(spec, d, n_A, n_b, seed, problem=problem)
        ref = _per_sample_sweep(spec, d, n_A, n_b, seed, problem)
        assert [r.to_json() for r in res.violations] == [r.to_json() for r in ref.violations]
        assert res.tested == ref.tested == n_A * n_b
        assert _bits(res.min_margin) == _bits(ref.min_margin)
        if family == "zero_diag":
            assert len(ref.violations) == ref.tested
        else:
            assert ref.violations == []

    @pytest.mark.parametrize("zero_diag", [True, False], ids=["zero_diag", "random_sym"])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_elements_are_drawn_a_chunk_at_a_time(self, monkeypatch, problem, zero_diag):
        # a lone candidate's 19 elements in draws of at most 8 rows give the
        # violations, margins and minimum margin of one 19-row draw
        d, spec = SymMatrix(3), FamilySpec("random_sym", 3, zero_diag=zero_diag)
        whole = sweep(spec, d, 3, 19, seed=4, problem=problem)
        rows, real = [], search._sample_b_coords
        monkeypatch.setattr(search, "_sample_b_coords", lambda d, rng, k, problem:
                            rows.append(k) or real(d, rng, k, problem))
        monkeypatch.setattr(search, "MARGIN_CHUNK", 8)
        sliced = sweep(spec, d, 3, 19, seed=4, problem=problem)
        assert rows == [8, 8, 3] * 3
        assert sliced.tested == whole.tested == 57
        assert _bits(sliced.min_margin) == _bits(whole.min_margin)
        assert len(sliced.violations) == len(whole.violations) >= 57 * zero_diag
        assert _bits(sliced.violations.margin) == _bits(whole.violations.margin)
        assert [r.to_json() for r in sliced.violations] == \
            [r.to_json() for r in whole.violations]


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
            assert not rec.entries.flags.writeable  # its row of the checked stack
            assert np.array_equal(orig.b_witness.coords, rec.b_witness.coords)
            assert rec.margin == orig.margin
            ok, margin = replay_record(rec)
            assert ok and margin == rec.margin

    def test_lines_are_sorted_json_of_the_records(self, tmp_path):
        # the archive encoder writes what json.dumps(sort_keys=True) writes
        # for each record taken apart value by value: no family, a direct
        # sum, -0.0, the least subnormal, 1e308 and an integer seed (a
        # multiplier of the direct sum's rank 4, with entries small enough
        # to symmetrize, as the reader requires)
        d = descriptor_from_spec("sum:sym:2+spin:3")
        odd = [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0, -2.5]
        entries = np.full((4, 4), 5e-324)
        entries[0, 0], entries[3, 3] = -0.0, 8e307
        records = [SearchRecord(None, "sum:sym:2+spin:3", 7, entries,
                                Element(d, odd[:d.dim]), -0.0, "violated", "general"),
                   SearchRecord("random_sym", "sym:2", 2**40, np.eye(2),
                                Element(SymMatrix(2), [5e-324, -0.0, 1e308]), 1e308,
                                "satisfied", "cone")]
        records += sweep(FamilySpec("random_sym", d.rank, zero_diag=True), d, 2, 3,
                         seed=11, problem="cone").violations
        path = tmp_path / "arch.jsonl"
        write_archive(path, records)
        want = [json.dumps(_json_value_by_value(r), sort_keys=True) for r in records]
        assert path.read_text().splitlines() == want
        assert '"seed": 7,' in want[0] and '"family": null' in want[0]
        assert "-0.0" in want[0] and "5e-324" in want[0] and "1e+308" in want[0]

    def test_fixture_archive_reads_and_writes_back_byte_equal(self, tmp_path):
        # each witness algebra and number has one JSON spelling, the one
        # the writer writes
        path = tmp_path / "again.jsonl"
        write_archive(path, read_archive(DATA / "zero_diag_archive.jsonl"))
        assert path.read_bytes() == (DATA / "zero_diag_archive.jsonl").read_bytes()

    def test_summary_csv(self, tmp_path):
        res = sweep(FamilySpec("psd_gram", 2), SymMatrix(2), 3, 5, seed=0)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [res])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "family,n,samples,violations,min_margin"
        assert lines[1].startswith("psd_gram,2,15,0,")


class TestArchiveFormat:
    @settings(max_examples=30, deadline=None)
    @given(d=st.sampled_from(CATALOG), family=st.sampled_from(search.FAMILIES),
           problem=st.sampled_from(PROBLEMS), seed=st.integers(0, 2**16),
           odd=st.lists(st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]),
                         min_size=1, max_size=4))
    def test_lines_are_json_dumps_of_the_records(self, d, family, problem, seed, odd):
        # sweep records share their candidate's multiplier; records made
        # outside a sweep (no family, a seed beyond 32 bits) have their own,
        # and the same values are written as -0.0, 5e-324 and 1e+308 wherever
        # they sit
        spec = FamilySpec(family, d.rank, zero_diag=family == "random_sym")
        res = sweep(spec, d, 2, 3, seed, problem=problem)
        records = list(res.violations)
        for k, value in enumerate(odd):
            # the reader takes no multiplier entry too large to symmetrize
            A = np.full((d.rank, d.rank), value if abs(value) < 1e308 else value / 2)
            coords = np.resize(np.array(odd), d.dim)
            records.append(SearchRecord(None, descriptor_to_spec(d), None if k % 2 else 2**40,
                                        A, Element(d, coords), value,
                                        ("violated", "satisfied")[k % 2], problem))
        records += records[:2]  # the same multipliers again, after others
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "archive.jsonl")
            write_archive(path, records)
            text = Path(path).read_text()
        assert text.splitlines() == [json.dumps(r.to_json(), sort_keys=True) for r in records]
        assert text.endswith("\n") or not records

    @pytest.mark.parametrize("field,value", [("margin", math.nan), ("margin", -math.inf),
                                             ("entries", math.nan), ("entries", math.inf),
                                             ("coords", math.inf), ("coords", math.nan)])
    def test_non_finite_values_raise_before_the_file_is_opened(self, tmp_path, field, value):
        # json would write NaN and Infinity, tokens that JSON does not define
        # and that read_archive rejects
        records = list(sweep(FamilySpec("random_sym", 2, zero_diag=True), SymMatrix(2), 2, 3,
                             seed=1).violations)
        bad = records[4]
        if field == "margin":
            bad.margin = value
        elif field == "entries":
            bad.entries = np.where(np.eye(2, dtype=bool), value, bad.entries)
        else:
            bad.b_witness = Element(SymMatrix(2), [1.0, value, 0.0])
        path = tmp_path / "archive.jsonl"
        message = {"margin": f"margin must be a finite JSON number, got {value!r}",
                   "entries": "multiplier matrix entries must be finite",
                   "coords": "element coordinates must be finite"}[field]
        with pytest.raises(ValueError) as exc:
            write_archive(path, records)
        assert str(exc.value) == f"record 4: {message}"
        assert not path.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("seed", True, "family must be a string or null and seed an integer or null "
                       "(not a bool), got 'random_sym', True"),
        ("seed", 2.0, "family must be a string or null and seed an integer or null "
                      "(not a bool), got 'random_sym', 2.0"),
        ("family", 3, "family must be a string or null and seed an integer or null "
                      "(not a bool), got 3, 1"),
        ("verdict", "sideways", "unknown verdict 'sideways'; known: ('violated', 'satisfied')"),
        ("problem", "elsewhere", "unknown problem 'elsewhere'; known: ('general', 'cone')"),
        ("descriptor", "nonsense", "cannot parse algebra spec 'nonsense'"),
        ("verdict", None, "descriptor, verdict and problem must be strings, "
                          "got 'sym:2', None, 'general'"),
    ])
    def test_records_the_reader_rejects_raise_before_the_file_is_opened(
            self, tmp_path, field, value, message):
        # the writer refuses what read_archive would refuse, with the
        # reader's message; the other records are written as before
        records = list(sweep(FamilySpec("random_sym", 2, zero_diag=True), SymMatrix(2), 2, 3,
                             seed=1).violations)
        path = tmp_path / "archive.jsonl"
        write_archive(path, records)
        assert path.read_text().splitlines() == [json.dumps(r.to_json(), sort_keys=True)
                                                 for r in records]
        path.unlink()
        setattr(records[4], field, value)
        with pytest.raises(ValueError) as exc:
            write_archive(path, records)
        assert str(exc.value) == f"record 4: {message}"
        assert not path.exists()
        path.write_text(json.dumps(records[4].to_json(), sort_keys=True) + "\n")
        with pytest.raises(ValueError) as exc:
            read_archive(path)
        assert str(exc.value) == f"{path}, line 1: malformed archive record ({message})"

    @pytest.mark.parametrize("entries,message", [
        ([[1.0, 2.0], [3.0, 4.0]], "multiplier matrix is not symmetric (residual 1.000e+00)"),
        (np.eye(3), "multiplier size 3 does not match frame rank 2"),
        (np.full((2, 2), 1e308), "multiplier matrix entries too large to symmetrize "
                                 "(1.000e+308)"),
    ], ids=["asymmetric", "wrong-size", "too-large"])
    def test_multipliers_the_reader_rejects_are_not_written(self, tmp_path, entries, message):
        # a finite multiplier the reader rejects is refused with its message
        records = list(sweep(FamilySpec("random_sym", 2, zero_diag=True), SymMatrix(2), 2, 3,
                             seed=1).violations)
        records[3].entries = np.asarray(entries)
        path = tmp_path / "archive.jsonl"
        with pytest.raises(ValueError) as exc:
            write_archive(path, records)
        assert str(exc.value) == f"record 3: {message}"
        assert not path.exists()
        path.write_text(json.dumps(records[3].to_json(), sort_keys=True) + "\n")
        with pytest.raises(ValueError) as exc:
            read_archive(path)
        assert str(exc.value) == f"{path}, line 1: malformed archive record ({message})"

    def test_an_archive_replays_without_checking_its_multipliers_again(self, monkeypatch):
        archive = read_archive(DATA / "zero_diag_archive.jsonl")
        calls = []
        real = search.multiplier_stack
        monkeypatch.setattr(search, "multiplier_stack",
                            lambda As, rank: calls.append(len(As)) or real(As, rank))
        assert replay_records(archive) == replay_records(list(archive))
        assert sum(calls) == len(archive)  # the list's, each group being one chunk


class TestOneRecordForm:
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from(CATALOG), family=st.sampled_from(search.FAMILIES),
           problem=st.sampled_from(PROBLEMS), seed=st.integers(0, 2**16),
           odd=st.lists(st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]),
                         min_size=1, max_size=4))
    def test_records_read_back_as_they_are_checked(self, d, family, problem, seed, odd):
        # sweep records and records made by hand (no family, -0.0, the least
        # subnormal, 1e308): Archive.of gives the columns read_archive reads
        # back from write_archive bit for bit, and a list replays as its
        # Archive does, to the same pairs or the same error
        spec = FamilySpec(family, d.rank, zero_diag=family == "random_sym")
        records = list(sweep(spec, d, 2, 3, seed, problem=problem).violations)
        for k, value in enumerate(odd):
            A = np.full((d.rank, d.rank), value if abs(value) < 1e308 else value / 2)
            records.append(SearchRecord(None, descriptor_to_spec(d), None if k % 2 else 2**40,
                                        A, Element(d, np.resize(np.array(odd), d.dim)), value,
                                        ("violated", "satisfied")[k % 2], "general"))
        built = search.Archive.of(records)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "archive.jsonl")
            write_archive(path, records)
            back = read_archive(path)
        assert _columns_bits(built) == _columns_bits(back)
        with np.errstate(all="ignore"):  # elements near the float range
            assert _replayed(records) == _replayed(built) == _replayed(back)


def _columns_bits(archive) -> list:
    """Every column of an Archive, floats as their bytes."""
    out = []
    for field in dataclasses.fields(archive):
        values = getattr(archive, field.name)
        if field.name in ("entries", "coords", "margin"):
            values = [_bits(v) for v in values]
        out.append([(type(v), v) for v in values])
    return out


def _replayed(records):
    try:
        return replay_records(records)
    except Exception as exc:  # noqa: BLE001 -- the type and message are compared
        return type(exc).__name__, str(exc)


_JSON_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400), st.floats(),
              st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
# values of the wrong type, out of range or beyond the float range for
# some field, or any JSON value
_WRONG = st.one_of(st.sampled_from([None, True, 2, -1, 1.5, 10**400, math.nan, math.inf, "",
                                    "sym:2", "spin:4", "sym:0", "sym", "general",
                                    "violated", [], [1.0], {}]), _JSON_ANY)
_DAMAGES = ("family", "descriptor", "seed", "A", "b", "margin", "verdict", "problem",
            "b.kind", "b.n", "b.factors", "b.coords", "A entry", "b entry", "A shape")


@st.composite
def corrupted_lines(draw):
    """Lines of the fixture archive, some with one to three fields damaged
    (dropped or given another value, at the top or inside the witness, an
    entry of the witness or the multiplier, or the multiplier's shape), or
    the whole line replaced."""
    pool = (DATA / "zero_diag_archive.jsonl").read_text().splitlines()
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    out = []
    for line in lines:
        if draw(st.integers(0, 2)):
            out.append(line)
            continue
        if not draw(st.integers(0, 5)):
            out.append(draw(st.one_of(_JSON_ANY.map(json.dumps), st.text(max_size=8))))
            continue
        obj = json.loads(line)
        b, A = obj["b"], obj["A"]
        for damage in draw(st.sets(st.sampled_from(_DAMAGES), min_size=1, max_size=3)):
            owner, key = (b, damage[2:]) if damage.startswith("b.") else (obj, damage)
            if damage == "A shape":
                obj["A"] = draw(st.sampled_from([A[:-1], [[0.0] + r for r in A], A + [A[0]],
                                                 [], [[]], [A[0], A[1][:-1]]]))
            elif damage.endswith("entry"):
                where = b.get("coords") if damage[0] == "b" else A[0]
                if type(where) is list and where:  # unless the coordinates went
                    where[draw(st.integers(0, len(where) - 1))] = draw(_WRONG)
            elif draw(st.booleans()):
                owner.pop(key, None)
            else:
                owner[key] = draw(_WRONG)
        out.append(json.dumps(obj))
    return out


_GONE = object()  # a damage that drops the field
# one damage per check of a record: (field, value), "b." naming a field of
# the witness
_FIELD_DAMAGES = [
    ("descriptor", _GONE), ("descriptor", ["sym:2"]), ("descriptor", "sym:x"),
    ("verdict", _GONE), ("verdict", 5), ("verdict", "sideways"),
    ("problem", ["general"]), ("problem", "sideways"), ("problem", "cone"),
    ("family", _GONE), ("family", ["random_sym"]), ("seed", 1.5), ("seed", True),
    ("A", _GONE), ("A", [["0", "1"], ["1", "0"]]), ("A", [[0.0, 1.0], [2.0, 0.0]]),
    ("A", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), ("A", []),
    ("A", [[1.0, 2.0], [3.0]]), ("A", [[10**400, 0.0], [0.0, 0.0]]),
    ("A", [[math.inf, 0.0], [0.0, 0.0]]), ("A", [[1e308, 1e308], [1e308, 0.0]]),
    ("margin", _GONE), ("margin", "0.5"), ("margin", True), ("margin", math.nan),
    ("margin", 10**400), ("b", _GONE), ("b", [1.0, 0.0, 1.0]), ("b.kind", "sum"),
    ("b.n", 2.5), ("b.n", _GONE), ("b.coords", [[1.0], [0.0], [1.0]]),
    ("b.coords", [1.0, math.inf, 0.0]), ("b.coords", [1.0, 0.0]),
    ("b.coords", [10**400, 0.0, 0.0]), ("b.coords", [1.0, "0", 0.0]),
    ("b.kind", "spin"), ("b.n", 3),
]


def _damaged(obj: dict, field: str, value) -> dict:
    obj = json.loads(json.dumps(obj))
    owner = obj["b"] if field.startswith("b.") and type(obj.get("b")) is dict else obj
    key = field[2:] if owner is not obj else field
    if value is _GONE:
        owner.pop(key, None)
    else:
        owner[key] = value
    return obj


def _outcome(reader, path):
    try:
        records = reader(path)
    except Exception as exc:  # noqa: BLE001 -- the type and message are compared
        return type(exc).__name__, str(exc)
    return [(json.dumps(r.to_json(), sort_keys=True), _bits(r.entries),
             not r.entries.flags.writeable) for r in records]


class TestArchiveReader:
    @settings(max_examples=300, deadline=None)
    @given(corrupted_lines(), st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2),
           st.sampled_from([1, 2, 3, search.ARCHIVE_CHUNK]))
    def test_names_the_line_and_message_of_the_record_by_record_reader(self, lines, blanks,
                                                                       chunk):
        # field by field and chunk by chunk, the reader names the first bad
        # line with the message of checking its record alone, and otherwise
        # reads the records the record-by-record reader reads
        default, search.ARCHIVE_CHUNK = search.ARCHIVE_CHUNK, chunk
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "archive.jsonl")
                Path(path).write_text("\n".join(blanks + lines) + "\n")
                assert _outcome(read_archive, path) == _outcome(reference_read_archive, path)
        finally:
            search.ARCHIVE_CHUNK = default

    def test_every_pair_of_damages_is_named_as_record_by_record(self, tmp_path):
        # two damages in one record, in either order, and in two records of
        # one archive: the first line and its first failed check are named
        base = json.loads((DATA / "zero_diag_archive.jsonl").read_text().splitlines()[0])
        pairs = list(itertools.combinations(_FIELD_DAMAGES, 2))
        path = tmp_path / "archive.jsonl"
        for (f1, v1), (f2, v2) in pairs + [(q, p) for p, q in pairs]:
            one = _damaged(_damaged(base, f1, v1), f2, v2)
            two = [_damaged(base, f1, v1), _damaged(base, f2, v2)]
            for objs in ([one], two):
                path.write_text("".join(json.dumps(o) + "\n" for o in objs))
                assert _outcome(read_archive, path) == _outcome(reference_read_archive, path)

    def test_of_two_bad_lines_the_earlier_is_named(self, tmp_path):
        # line 3 lacks its margin and line 2 has a verdict of another shape;
        # then line 2 has an asymmetric multiplier and line 3 no verdict
        lines = (DATA / "zero_diag_archive.jsonl").read_text().splitlines()[:4]
        objs = [json.loads(line) for line in lines]
        del objs[2]["margin"]
        objs[1]["verdict"] = ["violated"]
        path = tmp_path / "archive.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        want = (f"{path}, line 2: malformed archive record (descriptor, verdict and "
                f"problem must be strings, got 'sym:2', ['violated'], 'general')")
        for reader in (read_archive, reference_read_archive):
            with pytest.raises(ValueError) as exc:
                reader(path)
            assert str(exc.value) == want
        objs[1]["verdict"], objs[1]["A"] = "violated", [[0.0, 1.0], [0.0, 0.0]]
        objs[2]["margin"] = 0.5
        del objs[2]["verdict"]
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        want = (f"{path}, line 2: malformed archive record (multiplier matrix is not "
                f"symmetric (residual 1.000e+00))")
        for reader in (read_archive, reference_read_archive):
            with pytest.raises(ValueError) as exc:
                reader(path)
            assert str(exc.value) == want


def _json_value_by_value(rec):
    """A record's JSON form built from Python floats one value at a time."""
    b = descriptor_to_json(rec.b_witness.descriptor)
    b["coords"] = [float(c) for c in rec.b_witness.coords]
    return {"family": rec.family, "descriptor": rec.descriptor, "seed": rec.seed,
            "A": [[float(v) for v in row] for row in rec.entries], "b": b,
            "margin": float(rec.margin), "verdict": rec.verdict, "problem": rec.problem}


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
    def test_row_is_independent_of_its_owner_layout(self, case):
        # alone (a stack of one multiplier), inside a sweep group (owner
        # r // rows) and under a shuffled owner index (one multiplier per
        # row, as a replay has), a row gets the same bits
        d, problem, mults, X, perm = case
        P = _standard_projectors(d)
        E = multiplier_stack(mults, d.rank)

        def run(E, owner, coords):
            return _margins(d, P, E, owner, coords, problem, 1e-9, 1e-8)

        k, rows = X.shape[:2]
        alone = {(a, r): run(E[a:a + 1], [0], X[a, r:r + 1])
                 for a in range(k) for r in range(rows)}
        margins, holds = run(E, np.arange(k * rows) // rows, X.reshape(k * rows, d.dim))
        for i, key in enumerate(alone):
            assert _bits(margins[i]) == _bits(alone[key][0][0])
            assert holds[i] == alone[key][1][0]
        order = [list(alone)[i] for i in perm]
        margins, holds = run(E, [a for a, _ in order], np.stack([X[a, r] for a, r in order]))
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
        P, E = _standard_projectors(d), multiplier_stack([np.eye(2)], 2)
        with pytest.raises(ValueError, match="not in the cone"):
            _margins(d, P, E, [0, 0], b, "cone", 1e-9, 1e-8)
        margins, holds = _margins(d, P, E, [0, 0], b, "general", 1e-9, 1e-8)
        assert holds.all()

    def test_chunks_do_not_change_rows(self, monkeypatch):
        # one multiplier per row (replay), a sweep's groups of candidates
        # (n_A = 3, n_b = 7): one candidate per group at a chunk of 13 rows or
        # fewer, two then one at 14, all three above n_A * n_b (a group has
        # at most MARGIN_CHUNK rows unless it is one candidate), and a lone
        # candidate whose 2 * chunk + 3 rows the sweep draws and runs as three
        # _margins calls, against that sweep in one call; no eigensolve gets
        # more than 2 * MARGIN_CHUNK rows
        records = read_archive(DATA / "zero_diag_archive.jsonl")
        specs = (FamilySpec("random_sym", 3), FamilySpec("random_sym", 3, zero_diag=True))
        want_replay = replay_records(records)
        want = [sweep(spec, SymMatrix(3), 3, 7, seed=1) for spec in specs]
        assert len(want[1].violations) == 21
        real_solve, real_stack = search.eigvals_batch, search.multiplier_stack
        for chunk in (1, 2, 6, 7, 8, 14, 22, 256, 1024):
            lone = 2 * chunk + 3
            monkeypatch.setattr(search, "MARGIN_CHUNK", lone)
            want_lone = sweep(specs[1], SymMatrix(3), 1, lone, seed=2)
            solves, groups = [], []
            monkeypatch.setattr(search, "eigvals_batch",
                                lambda d, X: solves.append(len(X)) or real_solve(d, X))
            monkeypatch.setattr(search, "MARGIN_CHUNK", chunk)
            assert replay_records(records) == want_replay
            monkeypatch.setattr(search, "multiplier_stack", lambda As, rank:
                                groups.append(len(As)) or real_stack(As, rank))
            for spec, ref, n_A, n_b, seed in ((specs[0], want[0], 3, 7, 1),
                                              (specs[1], want[1], 3, 7, 1),
                                              (specs[1], want_lone, 1, lone, 2)):
                got = sweep(spec, SymMatrix(3), n_A, n_b, seed=seed)
                assert _bits(got.min_margin) == _bits(ref.min_margin)
                assert got.tested == ref.tested == n_A * n_b
                assert [r.to_json() for r in got.violations] == \
                    [r.to_json() for r in ref.violations]
            monkeypatch.setattr(search, "multiplier_stack", real_stack)
            assert max(solves) <= 2 * chunk
            assert groups == 2 * ([1, 1, 1] if chunk < 14 else [2, 1] if chunk < 21
                                  else [3]) + [1]
        assert len(want_lone.violations) == lone

    def test_unknown_problem_rejected(self):
        d = SymMatrix(2)
        with pytest.raises(ValueError, match="unknown problem"):
            _margins(d, _standard_projectors(d), multiplier_stack([np.eye(2)], 2), [0],
                     np.ones((1, 3)), "sideways", 1e-9, 1e-8)


class TestReplayRecords:
    @settings(max_examples=25, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from(CATALOG), st.sampled_from(PROBLEMS),
                                   st.booleans()), min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_archive_round_trip(self, runs, seed):
        records = []
        for d, problem, zero_diag in runs:
            spec = FamilySpec("random_sym", d.rank, zero_diag)
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

    @pytest.mark.parametrize("bad", [[[0.0, 1.0], [2.0, 0.0]], [[0.0, math.inf], [1.0, 0.0]],
                                     np.eye(3), [[1.0, 1.0, 1.0]],
                                     [[1e308, 1e308], [1e308, 0.0]]],
                             ids=["asymmetric", "infinite", "wrong-size", "not-square",
                                  "too-large"])
    def test_bad_multiplier_inside_a_group_raises_its_own_message(self, bad):
        # record 2 is the third of its (sym:2, general) group; the group's
        # stacked validation raises what building that multiplier alone raises
        # (the archive's records as a list, whose multipliers replay checks)
        records = list(read_archive(DATA / "zero_diag_archive.jsonl"))
        assert [(r.descriptor, r.problem) for r in records[:3]] == [("sym:2", "general")] * 3
        with pytest.raises(ValueError) as alone:
            schur_stack(multiplier_stack([bad], 2), _standard_projectors(SymMatrix(2)))
        records[2].entries = np.asarray(bad)
        with pytest.raises(ValueError) as stacked:
            replay_records(records)
        assert str(stacked.value) == f"record 2: {alone.value}"

    def test_every_multiplier_is_checked_before_any_margin(self, monkeypatch):
        # in chunks of two, the cone group's first witness is outside the cone
        # and its fifth multiplier (third chunk) is not symmetric: the
        # multiplier raises, as it does when the group is one chunk
        records = list(read_archive(DATA / "zero_diag_archive.jsonl"))
        assert [(r.descriptor, r.problem) for r in records[6:12]] == [("sym:2", "cone")] * 6
        records[6].b_witness = Element(SymMatrix(2), np.array([-1.0, 0.0, -1.0]))
        records[10].entries = np.array([[0.0, 1.0], [2.0, 0.0]])
        for chunk in (2, 1024):
            monkeypatch.setattr(search, "MARGIN_CHUNK", chunk)
            with pytest.raises(ValueError, match="not symmetric"):
                replay_records(records)
        records[10].entries = records[11].entries
        with pytest.raises(ValueError, match="not in the cone"):
            replay_records(records)

    def test_memory_is_bounded_by_the_chunk(self):
        # a group's Schur matrices and witnesses are built one chunk at a
        # time: ten times the records take far less than ten times the memory
        # (the returned pairs still grow with the records)
        base = sweep(FamilySpec("random_sym", 5, zero_diag=True), SymMatrix(5),
                     20, 50, seed=3).violations
        assert len(base) == 1000
        peaks = []
        for k in (2000, 20000):
            records = search.Archive.of(
                [dataclasses.replace(base[i % len(base)]) for i in range(k)])
            tracemalloc.start()
            try:
                replayed = replay_records(records)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(ok for ok, _ in replayed)
            assert [m for _, m in replayed] == [r.margin for r in records]
        assert peaks[1] <= 1.5 * peaks[0]

    def test_witness_of_another_algebra_rejected(self):
        rec = read_archive(DATA / "zero_diag_archive.jsonl")[0]
        rec.descriptor = "spin:3"  # same dimension as the sym:2 witness
        with pytest.raises(ValueError, match="witness"):
            replay_records([rec])
