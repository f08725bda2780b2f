"""Command-line interface: exit codes, determinism, file outputs."""

import json
import warnings

import pytest

import symcone
from symcone import cli
from symcone.algebra import SymMatrix, element_to_json, unit
from symcone.cli import main
from symcone.spectral import JacobiConvergenceError
from symcone.verifiers import CHECK_RUNNERS, VerificationReport


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
        def failing_runner(d, rng, atol, rtol):
            return VerificationReport("jordan_weak", "sym:2", None, 1, False, -1.0,
                                      witness={"stub": True})

        monkeypatch.setitem(CHECK_RUNNERS, "jordan_weak", failing_runner)
        out = tmp_path / "rep.json"
        code = main(["verify", "--alg", "sym:2", "--samples", "3", "--out", str(out)])
        assert code == 1
        witness = json.loads((tmp_path / "rep.json.witness.json").read_text())
        assert witness["failures"][0]["check"] == "jordan_weak"
        assert witness["failures"][0]["witness"]["stub"] is True


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

    def test_unknown_family_exits_2(self, capsys):
        assert main(["prospect", "--family", "bogus", "--alg", "sym:2"]) == 2

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
