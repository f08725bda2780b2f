"""Core algebra: descriptors, products, inner products, random generation."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcone.algebra import (
    DescriptorMismatchError,
    DirectSum,
    Element,
    SpinFactor,
    SymMatrix,
    basis_element,
    descriptor_from_json,
    descriptor_from_spec,
    descriptor_to_json,
    descriptor_to_spec,
    element_from_json,
    element_to_json,
    elements_from_json,
    from_matrix,
    inner,
    jordan_product,
    jordan_product_coords,
    norm,
    norm_rows,
    operator_commutes,
    operator_commutes_rows,
    random_cone_element,
    random_element,
    unit,
    zero,
)
from symcone.search import read_archive
from symcone.spectral import eigvals, spectral_decompose, sym_eigen
from symcone.transforms import SchurMatrix, multiplier_stack

import element_reference as reference
from conftest import CATALOG, SMALL_CATALOG, coord_stacks, element_objects


class TestDescriptors:
    def test_sym_dimensions(self):
        d = SymMatrix(4)
        assert (d.rank, d.dim) == (4, 10)

    def test_spin_dimensions(self):
        d = SpinFactor(6)
        assert (d.rank, d.dim) == (2, 6)

    def test_sum_dimensions(self):
        d = DirectSum((SymMatrix(2), SpinFactor(3)))
        assert (d.rank, d.dim) == (4, 6)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_sym_validation(self, bad):
        with pytest.raises(ValueError):
            SymMatrix(bad)

    def test_spin_validation(self):
        with pytest.raises(ValueError):
            SpinFactor(1)

    def test_empty_sum(self):
        with pytest.raises(ValueError):
            DirectSum(())

    def test_spec_roundtrip(self):
        for d in CATALOG:
            assert descriptor_from_spec(descriptor_to_spec(d)) == d

    def test_spec_parse_errors(self):
        for bad in ("sym", "sym:x", "cube:3", "spin:1", "sum:"):
            with pytest.raises(ValueError):
                descriptor_from_spec(bad)


class TestJordanProduct:
    def test_fixed_2x2(self):
        x = from_matrix(np.array([[8.0, 3.0], [3.0, 0.0]]))
        y = from_matrix(np.array([[0.0, 3.0], [3.0, 8.0]]))
        np.testing.assert_allclose(
            jordan_product(x, y).as_matrix(), [[9.0, 24.0], [24.0, 9.0]], atol=0
        )

    def test_unit_is_neutral(self):
        rng = np.random.default_rng(0)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 2.0)
            assert norm(jordan_product(unit(d), x) - x) == 0.0

    def test_spin_unit(self):
        d = SpinFactor(3)
        e = Element(d, [1.0, 0.0, 0.0])
        x = Element(d, [0.4, -1.2, 2.0])
        np.testing.assert_allclose(jordan_product(e, x).coords, x.coords, atol=0)

    def test_commutative(self):
        rng = np.random.default_rng(1)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 3.0)
            y = random_element(d, rng, 3.0)
            assert norm(jordan_product(x, y) - jordan_product(y, x)) == 0.0

    def test_jordan_identity(self):
        rng = np.random.default_rng(2)
        for d in SMALL_CATALOG:
            for _ in range(50):
                x = random_element(d, rng, 2.0)
                y = random_element(d, rng, 2.0)
                x2 = jordan_product(x, x)
                lhs = jordan_product(x2, jordan_product(x, y))
                rhs = jordan_product(x, jordan_product(x2, y))
                assert norm(lhs - rhs) <= 1e-10 * (1.0 + norm(x) ** 3 * norm(y))

    def test_descriptor_mismatch(self):
        with pytest.raises(DescriptorMismatchError):
            jordan_product(unit(SymMatrix(2)), unit(SpinFactor(3)))

    def test_directsum_factorwise(self):
        rng = np.random.default_rng(3)
        d = DirectSum((SymMatrix(3), SpinFactor(4)))
        x = random_element(d, rng, 2.0)
        y = random_element(d, rng, 2.0)
        z = jordan_product(x, y)
        ns = SymMatrix(3).dim
        zx = jordan_product(Element(SymMatrix(3), x.coords[:ns]),
                            Element(SymMatrix(3), y.coords[:ns]))
        zy = jordan_product(Element(SpinFactor(4), x.coords[ns:]),
                            Element(SpinFactor(4), y.coords[ns:]))
        assert np.array_equal(z.coords[:ns], zx.coords)
        assert np.array_equal(z.coords[ns:], zy.coords)


class TestInnerProduct:
    def test_identity_trace(self):
        e = unit(SymMatrix(2))
        assert inner(e, e) == 2.0

    def test_spin_unit_trace(self):
        e = unit(SpinFactor(3))
        assert inner(e, e) == 2.0

    def test_primitive_idempotent_norm_one(self):
        rng = np.random.default_rng(4)
        for d in SMALL_CATALOG:
            sd = spectral_decompose(random_element(d, rng, 1.0))
            for c in sd.frame.idempotents:
                assert abs(inner(c, c) - 1.0) <= 1e-10

    def test_trace_form_associative(self):
        rng = np.random.default_rng(5)
        for d in SMALL_CATALOG:
            for _ in range(30):
                x = random_element(d, rng, 2.0)
                y = random_element(d, rng, 2.0)
                z = random_element(d, rng, 2.0)
                lhs = inner(jordan_product(x, y), z)
                rhs = inner(y, jordan_product(x, z))
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_positive_definite(self):
        rng = np.random.default_rng(6)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 1.0)
            assert inner(x, x) > 0.0


class TestUnit:
    def test_sym_unit_is_identity(self):
        np.testing.assert_array_equal(unit(SymMatrix(3)).as_matrix(), np.eye(3))

    def test_spin_unit(self):
        np.testing.assert_array_equal(unit(SpinFactor(4)).coords, [1.0, 0, 0, 0])

    def test_sum_unit_concatenates(self):
        d = DirectSum((SymMatrix(2), SpinFactor(3)))
        expected = np.concatenate([unit(SymMatrix(2)).coords, unit(SpinFactor(3)).coords])
        np.testing.assert_array_equal(unit(d).coords, expected)


class TestRandomGeneration:
    def test_seed_reproducibility(self):
        for d in SMALL_CATALOG:
            a = random_element(d, np.random.default_rng(42), 2.0)
            b = random_element(d, np.random.default_rng(42), 2.0)
            assert np.array_equal(a.coords, b.coords)

    def test_zero_scale(self):
        for d in SMALL_CATALOG:
            assert norm(random_element(d, np.random.default_rng(0), 0.0)) == 0.0
            assert norm(random_cone_element(d, np.random.default_rng(0), 0.0)) == 0.0

    def test_cone_membership(self):
        rng = np.random.default_rng(7)
        for d in SMALL_CATALOG:
            for _ in range(50):
                z = random_cone_element(d, rng, 1.0)
                assert eigvals(z)[-1] >= -1e-12

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            random_element(SymMatrix(2), np.random.default_rng(0), -1.0)


class TestOperatorCommute:
    def test_powers_commute(self):
        rng = np.random.default_rng(8)
        for d in SMALL_CATALOG:
            a = random_element(d, rng, 2.0)
            assert operator_commutes(a, jordan_product(a, a))

    def test_diagonal_vs_offdiagonal(self):
        a = from_matrix(np.diag([1.0, 2.0]))
        b = from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not operator_commutes(a, b)

    @settings(max_examples=100, deadline=None)
    @given(coord_stacks(count=2))
    def test_row_form_matches_scalar(self, case):
        # drawn pairs, which rarely commute, and pairs (a, a o a), which do,
        # against the frozen element loop
        d, A, B = case
        for b in (B, jordan_product_coords(d, A, A)):
            got = operator_commutes_rows(d, A, b)
            for i in range(len(A)):
                assert got[i] == reference.operator_commutes(Element(d, A[i]), Element(d, b[i]))
            np.testing.assert_allclose(norm_rows(d, b),
                                       [reference.norm(Element(d, x)) for x in b], rtol=1e-15)


class TestJordanIdentities:
    @settings(max_examples=100, deadline=None)
    @given(coord_stacks(count=3))
    def test_jordan_identity_and_associative_trace_form(self, case):
        # (x^2 o y) o x = x^2 o (y o x) and <x o y, z> = <y, x o z>
        d, X, Y, Z = case
        for xc, yc, zc in zip(X, Y, Z):
            x, y, z = Element(d, xc), Element(d, yc), Element(d, zc)
            x2 = jordan_product(x, x)
            lhs = jordan_product(jordan_product(x2, y), x)
            rhs = jordan_product(x2, jordan_product(y, x))
            scale = (1.0 + norm(x)) ** 3 * (1.0 + norm(y))
            assert norm(lhs - rhs) <= 1e-13 * scale
            gap = inner(jordan_product(x, y), z) - inner(y, jordan_product(x, z))
            assert abs(gap) <= 1e-13 * (1.0 + norm(x)) * (1.0 + norm(y)) * (1.0 + norm(z))


class TestSymmetricIntake:
    # every symmetric matrix from outside, an element's or a multiplier's,
    # passes one check (algebra.symmetric_stack): each entry point accepts
    # and rejects the same matrices, and takes the same (M + M.T) / 2

    @staticmethod
    def _intakes(tmp_path) -> dict:
        record = json.loads((Path(__file__).parent / "data" / "zero_diag_archive.jsonl")
                            .read_text().splitlines()[0])
        assert record["descriptor"] == "sym:2"

        def archive(M):
            path = tmp_path / "one.jsonl"
            path.write_text(json.dumps(dict(record, A=M.tolist())) + "\n")
            return read_archive(path).entries[0]

        return {"from_matrix": lambda M: from_matrix(M).as_matrix(),
                "sym_eigen": lambda M: np.concatenate([a.ravel() for a in sym_eigen(M)]),
                "SchurMatrix": lambda M: SchurMatrix(M).entries,
                "multiplier_stack": lambda M: multiplier_stack([M], 2)[0],
                "read_archive": archive}

    def test_a_residual_within_1e_12_of_the_scale_is_taken_symmetrized(self, tmp_path):
        M = np.array([[3.0, 1.0], [1.0 + 5e-13 * 3.0, -2.0]])
        S = (M + M.T) / 2.0
        assert S[0, 1] != M[0, 1]
        for name, intake in self._intakes(tmp_path).items():
            assert intake(M).tobytes() == intake(S).tobytes(), name
            if name != "sym_eigen":
                assert intake(M).tobytes() == S.tobytes(), name

    @pytest.mark.parametrize("M", [
        np.array([[3.0, 1.0], [1.0 + 2e-12 * 3.0, -2.0]]),
        np.array([[1e308, 0.0], [0.0, 1.0]]),
        np.array([[1.0, math.nan], [math.nan, 1.0]]),
        np.zeros((0, 0)),
    ], ids=["asymmetric-2e-12", "above-half-max", "nan", "empty"])
    def test_every_intake_rejects_the_same_matrices(self, tmp_path, M):
        accepted = []
        for name, intake in self._intakes(tmp_path).items():
            try:
                intake(M)
            except ValueError:
                continue
            accepted.append(name)
        assert accepted == []


class TestElement:
    def test_coords_length_checked(self):
        with pytest.raises(ValueError):
            Element(SymMatrix(2), np.zeros(4))

    def test_coords_immutable(self):
        x = unit(SymMatrix(2))
        with pytest.raises(ValueError):
            x.coords[0] = 5.0

    def test_from_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("intake", [from_matrix, sym_eigen], ids=lambda f: f.__name__)
    def test_symmetric_intake_rejects_an_empty_matrix(self, intake):
        with pytest.raises(ValueError, match="^matrix must not be empty$"):
            intake(np.zeros((0, 0)))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(9)
        for d in SMALL_CATALOG:
            x = random_element(d, rng, 3.0)
            y = element_from_json(element_to_json(x))
            assert y.descriptor == d
            assert np.array_equal(x.coords, y.coords)

    def test_descriptor_json_roundtrip(self):
        for d in CATALOG:
            assert descriptor_from_json(descriptor_to_json(d)) == d

    @pytest.mark.parametrize("obj", [
        [1, 2], "sym:2", None, 3,
        {"kind": "sym", "n": 2.5}, {"kind": "sym", "n": 2.0}, {"kind": "sym", "n": "2"},
        {"kind": "spin", "n": True}, {"kind": "spin"}, {"kind": "sym", "n": [2]},
        {"kind": "sum", "factors": 5}, {"kind": "sum", "factors": "sym"},
        {"kind": "sum", "factors": [[1]]}, {"kind": "sum"}, {"kind": "cube", "n": 2},
        {"kind": "sum", "factors": [{"kind": "sym", "n": 2},
                                    {"kind": "sum", "factors": [{"kind": "spin", "n": 3}]}]},
    ], ids=repr)
    def test_descriptor_json_rejects_other_values(self, obj):
        with pytest.raises(ValueError):
            descriptor_from_json(obj)

    @pytest.mark.parametrize("coords", [
        [[1.0], [2.0], [3.0]], [True, False, True], [1.0, "2", 3.0], "123",
        None, [1.0, None, 3.0], [10**400, 1.0, 1.0],
    ], ids=["nested", "boolean", "string-entry", "string", "null", "null-entry",
            "integer-beyond-float"])
    def test_element_json_rejects_coords_not_a_flat_array_of_numbers(self, coords):
        with pytest.raises(ValueError):
            element_from_json({"kind": "sym", "n": 2, "coords": coords})

    def test_element_json_of_a_nested_sum_is_rejected(self):
        # the flat spelling, which descriptor_to_json writes, is the only one
        flat = element_to_json(unit(DirectSum((SymMatrix(2), SpinFactor(3)))))
        nested = dict(flat, factors=[flat["factors"][0],
                                     {"kind": "sum", "factors": flat["factors"][1:]}])
        assert element_from_json(flat).descriptor == DirectSum((SymMatrix(2), SpinFactor(3)))
        with pytest.raises(ValueError, match="^a direct-sum factor must be sym or spin"):
            element_from_json(nested)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(element_objects(), min_size=1, max_size=5))
    # elements failing two checks, and a batch of two bad ones
    @example([{"kind": "sym", "n": 2, "coords": [math.nan, 1.0]}])
    @example([{"kind": "sym", "n": 2, "coords": [10**400, "1"]}])
    @example([{"kind": "spin", "n": 3, "coords": [1.0, 2.0]},
              {"kind": "spin", "n": 3, "coords": [1.0, 2.0, math.inf]}])
    def test_reader_is_the_frozen_one_record_by_record(self, objs):
        # each element reads as the record-by-record reader reads it, with
        # its message if it is bad; a batch reads as its elements do, or
        # raises the message of one of its bad elements
        objs = [o for o in objs if not _nests_a_sum(o)]
        want = [_read(reference.element_from_json, o) for o in objs]
        assert [_read(element_from_json, o) for o in objs] == want
        batch = _read(elements_from_json, objs)
        if all(type(w) is tuple for w in want):
            assert batch == ([d for d, _ in want], [c for _, c in want])
        else:
            assert batch in [w for w in want if type(w) is str]

    def test_element_json_accepts_integer_coords(self):
        x = element_from_json({"kind": "sym", "n": 2, "coords": [1, 2, 3]})
        assert x.coords.tolist() == [1.0, 2.0, 3.0]

    def test_from_matrix_overflow_is_rejected_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too large to symmetrize"):
                from_matrix(np.full((2, 2), 1e308))

    def test_basis_spans(self):
        d = SymMatrix(2)
        total = zero(d)
        for k in range(d.dim):
            total = total + basis_element(d, k)
        assert norm(total) > 0


def _nests_a_sum(obj) -> bool:
    """Whether obj spells a sum with a sum among its factors."""
    factors = obj.get("factors") if type(obj) is dict and obj.get("kind") == "sum" else []
    return type(factors) is list and any(
        type(f) is dict and f.get("kind") == "sum" for f in factors)


def _read(reader, obj):
    """The message of a ValueError from reader(obj), or what it read: an
    Element's algebra and coordinate bits, or the algebras and coordinate
    bits of a batch."""
    try:
        out = reader(obj)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, Element):
        return out.descriptor, out.coords.tobytes()
    return list(out[0]), [c.tobytes() for c in out[1]]
