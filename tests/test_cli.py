"""Command-line interface: exit codes, determinism, file outputs."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import symcone
from symcone import cli
from symcone.algebra import Element, SymMatrix, descriptor_from_spec, element_to_json, unit
from symcone.cli import main
from symcone.search import FAMILIES, PROBLEMS, FamilySpec, sweep, write_archive
from symcone.spectral import JacobiConvergenceError
from symcone.verifiers import CHECK_RUNNERS


def error_lines(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]


class TestVerify:
    def test_passes_on_valid_algebra(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", "--alg", "sym:3", "--samples", "15", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["version"] == symcone.__version__
        assert report["seed"] == 7
        assert {r["check"] for r in report["reports"]} >= {"jordan_weak", "holder"}

    def test_invalid_algebra_exits_2(self, capsys):
        assert main(["verify", "--alg", "spin:1"]) == 2

    def test_unparseable_algebra_exits_2(self, capsys):
        assert main(["verify", "--alg", "cube:3"]) == 2

    def test_bad_samples_exits_2(self, capsys):
        assert main(["verify", "--alg", "sym:2", "--samples", "0"]) == 2

    def test_byte_identical_reports(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["verify", "--alg", "sym:2", "--samples", "10",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = main(["verify", "--alg", "spin:4", "--samples", "10",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "check,descriptor,samples,pass,worst_slack"
        assert len(lines) > 5

    def test_unconverged_eigensolver_exits_2(self, capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            raise JacobiConvergenceError(1.0, 64)

        monkeypatch.setattr(cli, "run_all", unconverged)
        assert main(["verify", "--alg", "sym:2", "--samples", "3"]) == 2
        assert len(error_lines(capsys)) == 1

    def test_failure_writes_witness_and_exits_1(self, tmp_path, capsys, monkeypatch):
        def failing_rows(d, inputs, atol, rtol):
            m = len(inputs["a"])
            return np.zeros(m, dtype=bool), np.full(m, -1.0), {}

        failing_runner = dataclasses.replace(CHECK_RUNNERS["jordan_weak"], rows=failing_rows,
                                             witness=lambda d, inputs, i: {"stub": True})
        monkeypatch.setitem(CHECK_RUNNERS, "jordan_weak", failing_runner)
        out = tmp_path / "rep.json"
        code = main(["verify", "--alg", "sym:2", "--samples", "3", "--out", str(out)])
        assert code == 1
        witness = json.loads((tmp_path / "rep.json.witness.json").read_text())
        assert witness["failures"][0]["check"] == "jordan_weak"
        assert witness["failures"][0]["witness"]["stub"] is True


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["--atol", "--rtol"])
@pytest.mark.parametrize("command", [["verify", "--alg", "sym:3", "--samples", "2"],
                                     ["prospect"]], ids=lambda c: c[0])
def test_malformed_tolerance_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                     command, flag, value):
    # outputs would land in the working directory: a witness for verify, an
    # archive and a summary for prospect
    monkeypatch.chdir(tmp_path)
    assert main([*command, f"{flag}={value}"]) == 2
    (line,) = error_lines(capsys)
    assert flag in line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value", [("--atol", "1"), ("--rtol", "1e300")])
def test_tolerance_above_the_invertibility_floor_exits_2_naming_it(tmp_path, monkeypatch,
                                                                   capsys, flag, value):
    # the commuting-factor check needs |eigenvalues| above 10 (atol + rtol max|lambda|);
    # a floor no draw clears is blamed on the flags, not on a sample
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--alg", "sym:3", "--samples", "2", flag, value]) == 2
    (line,) = error_lines(capsys)
    assert "--atol" in line and "--rtol" in line and "floor" in line
    assert "not invertible enough" not in line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["verify", "--alg", "sym:3", "--samples", "2"],
    ["norm", "--kind", "lyap", "--operand", "../e.json", "--r", "1", "--s", "2"],
    ["prospect"],
], ids=lambda c: c[0])
def test_negative_seed_exits_2_naming_it(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "e.json").write_text(json.dumps(element_to_json(unit(SymMatrix(2)))))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([*command, "--seed", "-1"]) == 2
    (line,) = error_lines(capsys)
    assert "--seed" in line
    assert list(work.iterdir()) == []


class TestReproExample:
    def test_output_and_exit(self, capsys):
        assert main(["repro-example"]) == 0
        text = capsys.readouterr().out
        assert "33.0" in text and "15.0" in text
        assert "44.52" in text
        assert text.count("False") == 2

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "repro.json"
        assert main(["repro-example", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["report"]["pass"] is True


class TestNorm:
    def test_unit_multiplication(self, tmp_path, capsys):
        op = tmp_path / "e.json"
        op.write_text(json.dumps(element_to_json(unit(SymMatrix(3)))))
        out = tmp_path / "norm.json"
        code = main(["norm", "--kind", "lyap", "--operand", str(op),
                     "--r", "1", "--s", "2", "--budget", "30", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["closed_form"] == 1.0
        assert abs(rep["result"]["empirical"] - 1.0) <= 1e-9

    def test_quadratic_scaled_unit(self, tmp_path, capsys):
        op = tmp_path / "a.json"
        op.write_text(json.dumps(element_to_json(2.0 * unit(SymMatrix(2)))))
        code = main(["norm", "--kind", "quad", "--operand", str(op),
                     "--r", "2", "--s", "2", "--budget", "20"])
        assert code == 0
        assert "4.0" in capsys.readouterr().out

    def test_schur_from_csv(self, tmp_path, capsys):
        op = tmp_path / "m.csv"
        op.write_text("3.0,0.0\n0.0,1.0\n")
        code = main(["norm", "--kind", "schur", "--operand", str(op),
                     "--alg", "sym:2", "--r", "inf", "--s", "1", "--budget", "20"])
        assert code == 0
        assert "4.0" in capsys.readouterr().out

    def test_schur_needs_alg(self, tmp_path, capsys):
        op = tmp_path / "m.csv"
        op.write_text("1.0,0.0\n0.0,1.0\n")
        assert main(["norm", "--kind", "schur", "--operand", str(op),
                     "--r", "1", "--s", "1"]) == 2

    def test_malformed_operand_exits_2(self, tmp_path, capsys):
        op = tmp_path / "bad.json"
        op.write_text("{not json")
        assert main(["norm", "--kind", "lyap", "--operand", str(op),
                     "--r", "1", "--s", "1"]) == 2

    def test_nan_operand_exits_2(self, tmp_path, capsys):
        op = tmp_path / "nan.json"
        op.write_text('{"kind": "sym", "n": 2, "coords": [1.0, NaN, 2.0]}')
        assert main(["norm", "--kind", "lyap", "--operand", str(op),
                     "--r", "inf", "--s", "2", "--budget", "10"]) == 2
        assert len(error_lines(capsys)) == 1

    def test_nan_multiplier_exits_2(self, tmp_path, capsys):
        op = tmp_path / "m.csv"
        op.write_text("1.0,nan\nnan,1.0\n")
        assert main(["norm", "--kind", "schur", "--operand", str(op),
                     "--alg", "sym:2", "--r", "2", "--s", "2", "--budget", "10"]) == 2
        assert len(error_lines(capsys)) == 1

    @pytest.mark.parametrize("kind,n", [("sym", 2), ("spin", 3)])
    def test_overflowing_operand_exits_2_with_one_line(self, tmp_path, capsys, kind, n):
        # finite entries whose squares overflow: the error line is all that
        # reaches stderr, with no numpy RuntimeWarning before it
        op = tmp_path / "big.json"
        op.write_text(json.dumps({"kind": kind, "n": n, "coords": [1e200] * 3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--kind", "lyap", "--operand", str(op),
                         "--r", "inf", "--s", "2", "--budget", "10"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_bad_order_exits_2(self, tmp_path, capsys):
        op = tmp_path / "e.json"
        op.write_text(json.dumps(element_to_json(unit(SymMatrix(2)))))
        assert main(["norm", "--kind", "lyap", "--operand", str(op),
                     "--r", "zero", "--s", "1"]) == 2

    def test_negative_infinite_order_exits_2_with_one_line(self, tmp_path, capsys):
        op = tmp_path / "e.json"
        op.write_text(json.dumps(element_to_json(unit(SymMatrix(3)))))
        assert main(["norm", "--kind", "lyap", "--operand", str(op),
                     "--r=-inf", "--s", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestProspect:
    def test_psd_family_clean(self, tmp_path, capsys):
        out = tmp_path / "psd"
        code = main(["prospect", "--family", "psd_gram", "--alg", "sym:3",
                     "--budget", "10", "--samples", "20", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert (tmp_path / "psd.jsonl").read_text() == ""
        summary = (tmp_path / "psd.csv").read_text().strip().splitlines()
        assert summary[1].split(",")[3] == "0"

    def test_zero_diag_archives_violations(self, tmp_path, capsys):
        out = tmp_path / "zd"
        code = main(["prospect", "--family", "random_sym", "--alg", "sym:2",
                     "--zero-diag", "--budget", "3", "--samples", "30",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "zd.jsonl").read_text().strip().splitlines()
        assert len(lines) >= 1
        rec = json.loads(lines[0])
        assert rec["verdict"] == "violated"

    def test_replay_confirms(self, tmp_path, capsys):
        out = tmp_path / "zd"
        main(["prospect", "--family", "random_sym", "--alg", "sym:2",
              "--zero-diag", "--budget", "2", "--samples", "20", "--seed", "5",
              "--out", str(out)])
        code = main(["prospect", "--replay", str(tmp_path / "zd.jsonl")])
        assert code == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "zd"
        main(["prospect", "--family", "random_sym", "--alg", "sym:2",
              "--zero-diag", "--budget", "2", "--samples", "20", "--seed", "5",
              "--out", str(out)])
        path = tmp_path / "zd.jsonl"
        lines = path.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        rec["margin"] = rec["margin"] - 1.0
        path.write_text(json.dumps(rec) + "\n")
        assert main(["prospect", "--replay", str(path)]) == 1

    @pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--samples", "-3"),
                                            ("--budget", "0")])
    def test_empty_sweep_exits_2_naming_the_flag(self, tmp_path, monkeypatch, capsys,
                                                 flag, value):
        # no tests would mean no violations and an infinite min margin
        monkeypatch.chdir(tmp_path)
        assert main(["prospect", "--alg", "sym:2", flag, value]) == 2
        (line,) = error_lines(capsys)
        assert flag in line
        assert list(tmp_path.iterdir()) == []

    def test_unknown_family_exits_2(self, capsys):
        assert main(["prospect", "--family", "bogus", "--alg", "sym:2"]) == 2
        capsys.readouterr()
        # a multiplier from a file is a norm operand, not a family
        assert main(["prospect", "--family", "user_file", "--alg", "sym:2"]) == 2
        (line,) = error_lines(capsys)
        assert "unknown family" in line

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_runs(self, tmp_path, capsys, family, problem):
        out = tmp_path / family
        assert main(["prospect", "--family", family, "--alg", "sym:3",
                     "--problem", problem, "--budget", "2", "--samples", "5",
                     "--out", str(out)]) == 0
        summary = (tmp_path / f"{family}.csv").read_text().splitlines()
        assert summary[1].startswith(f"{family},3,10,")

    def test_replay_of_malformed_record_exits_2(self, tmp_path, capsys):
        out = tmp_path / "zd"
        main(["prospect", "--family", "random_sym", "--alg", "sym:2",
              "--zero-diag", "--budget", "2", "--samples", "20", "--seed", "5",
              "--out", str(out)])
        path = tmp_path / "zd.jsonl"
        rec = json.loads(path.read_text().splitlines()[0])
        del rec["descriptor"]
        path.write_text(path.read_text() + json.dumps(rec) + "\n")
        capsys.readouterr()
        assert main(["prospect", "--replay", str(path)]) == 2
        (line,) = error_lines(capsys)
        assert f"line {len(path.read_text().splitlines())}" in line
        assert "descriptor" in line

    def test_replay_of_archive_from_the_per_element_verifier(self, capsys):
        # records the per-element verifier archived (zero-diagonal violations
        # on four algebras, both problems) still replay
        path = Path(__file__).parent / "data" / "zero_diag_archive.jsonl"
        assert main(["prospect", "--replay", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "replayed 48 records, 0 mismatches"

    @staticmethod
    def _mixed_records():
        # two algebras and both problems, interleaved so that no replay
        # batch is contiguous in the archive
        records = []
        for spec, problem in (("sym:2", "general"), ("spin:4", "cone"),
                              ("sym:2", "cone"), ("spin:4", "general")):
            d = descriptor_from_spec(spec)
            records += sweep(FamilySpec("random_sym", d.rank, {"zero_diag": True}),
                             d, 1, 3, seed=4, problem=problem).violations
        return records[::2] + records[1::2]

    def test_replay_of_mixed_archive_names_the_tampered_record(self, tmp_path, capsys):
        records = self._mixed_records()
        records[7].margin -= 1.0
        path = tmp_path / "mixed.jsonl"
        write_archive(path, records)
        assert main(["prospect", "--replay", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [ln.split(":")[0] for ln in out if "MISMATCH" in ln] == ["record 7"]
        assert out[-1] == f"replayed {len(records)} records, 1 mismatches"

    def test_replay_of_cone_record_outside_the_cone_exits_2(self, tmp_path, capsys):
        records = self._mixed_records()
        cone = next(r for r in records if r.problem == "cone" and r.descriptor == "sym:2")
        cone.b_witness = Element(cone.b_witness.descriptor, [1.0, 0.0, -1.0])
        path = tmp_path / "outside.jsonl"
        write_archive(path, records)
        assert main(["prospect", "--replay", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: b is not in the cone")
