"""Command-line interface: exit codes, determinism, file outputs."""

import argparse
import ast
import contextlib
import dataclasses
import functools
import inspect
import io
import json
import math
import re
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symcone
from conftest import FUZZ_ALGEBRAS, JSON_VALUES, NUMBERS, element_objects
from symcone import cli, norms, spectral
from symcone.algebra import Element, SymMatrix, descriptor_from_spec, element_to_json, unit
from symcone.cli import main
from symcone.search import FAMILIES, PROBLEMS, FamilySpec, sweep, write_archive
from symcone.search import test_candidate as eval_candidate
from symcone.spectral import JacobiConvergenceError, standard_frame
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


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "x"])
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


@pytest.mark.parametrize("command,target", [
    (["prospect", "--family", "psd_gram", "--alg", "sym:3", "--budget", "2",
      "--samples", "100000000"], "sweep"),
    (["norm", "--kind", "lyap", "--operand", "../e.json", "--r", "inf", "--s", "2"],
     "norm_empirical"),
], ids=lambda c: c[0] if isinstance(c, list) else None)
def test_out_of_memory_exits_2_naming_the_array(tmp_path, monkeypatch, capsys, command,
                                                target):
    # numpy raises MemoryError, naming the array, when a size does not fit;
    # it is a size the machine cannot hold, not a failed check (exit 1) or a
    # traceback.  The command is stubbed to raise: nothing is allocated.
    message = ("Unable to allocate 4.47 GiB for an array with shape (100000000, 6) "
               "and data type float64")

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    (tmp_path / "e.json").write_text(json.dumps(element_to_json(unit(SymMatrix(2)))))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(cli, target, too_large)
    assert main(command) == 2
    assert error_lines(capsys) == [f"error: {message}"]
    assert list(work.iterdir()) == []


class TestParser:
    def test_built_once_and_calls_share_no_state(self, tmp_path, capsys, monkeypatch):
        # every main call in a process parses with one parser, and no call's
        # subcommand, flags or failure shows in the next one's reports
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        op = tmp_path / "a.json"
        op.write_text('{"kind": "sym", "n": 2, "coords": [2.0, 0.5, -1.0]}')

        def norm(out):
            return main(["norm", "--kind", "quad", "--operand", str(op), "--r", "2",
                         "--s", "1", "--budget", "10", "--out", str(tmp_path / out)])

        def verify(out):
            return main(["verify", "--alg", "sym:2", "--samples", "2", "--seed", "5",
                         "--atol", "1e-7", "--format", "json", "--out", str(tmp_path / out)])

        assert norm("norm-1.json") == 0
        assert verify("verify-1.json") == 0
        assert main(["prospect", "--atol", "x"]) == 2
        assert norm("norm-2.json") == 0
        assert verify("verify-2.json") == 0
        assert builds == [1]
        for name in ("norm", "verify"):
            first = (tmp_path / f"{name}-1.json").read_text()
            assert (tmp_path / f"{name}-2.json").read_text() == first
        config = json.loads((tmp_path / "verify-1.json").read_text())["config"]
        assert sorted(config) == ["alg", "atol", "command", "format", "rtol", "samples",
                                  "seed"]
        config = json.loads((tmp_path / "norm-1.json").read_text())["config"]
        assert sorted(config) == ["alg", "budget", "command", "kind", "operand", "r", "s",
                                  "seed"]

    def test_every_flag_has_a_reader(self):
        # a flag its handler never reads is parsed, validated and echoed into
        # reports for nothing: every argument of a subcommand is read as
        # args.<dest> in the body of that subcommand's handler
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        unread = []
        for name, sub in commands.choices.items():
            handler = sub.get_default("func")
            tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
            (param,) = inspect.signature(handler).parameters
            read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == param}
            unread += [f"{name} {action.dest}" for action in sub._actions
                       if action.dest != "help" and action.dest not in read]
        assert not unread

    def test_every_numeric_flag_takes_a_package_type(self):
        # a bare int or float type would let through values (0, nan, -1)
        # that a handler must then reject itself, or never does
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        types = {(name, action.dest): action.type for name, sub in commands.choices.items()
                 for action in sub._actions if action.type is not None}
        assert types and set(types.values()) <= {cli.seed, cli.tolerance, cli.count}, types

    @pytest.mark.parametrize("argv", [
        ["verify", "--alg", "sym:2", "--samples", "0"],
        ["norm", "--kind", "lyap", "--operand", "e.json", "--r", "1", "--s", "2",
         "--budget", "0"],
        ["prospect", "--budget", "-1"],
        ["prospect", "--samples", "0"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_a_count_below_1_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                      argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        (line,) = error_lines(capsys)
        assert line.endswith(f"argument {argv[-2]}: must be >= 1, got {argv[-1]}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["norm", "--kind", "lyap", "--operand", "e.json", "--r", "1", "--s", "2", "--atol", "0"],
        ["norm", "--kind", "lyap", "--operand", "e.json", "--r", "1", "--s", "2", "--rtol", "0"],
        ["repro-example", "--seed", "1"],
        ["repro-example", "--atol", "0"],
        ["repro-example", "--rtol", "0"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_a_command_does_not_take_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        (line,) = error_lines(capsys)
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in line
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("kind", ["lyap", "quad", "schur"])
    @pytest.mark.parametrize("alg", ["sym:3", "spin:4", "sum:sym:2+spin:3"])
    @pytest.mark.parametrize("r,s", [("3", "2"), ("inf", "1")])
    def test_zero_operand_report(self, tmp_path, capsys, kind, alg, r, s):
        # at s < r the witness of a zero operand is the zero element, whose
        # ratio the estimator takes as 0 like that of any zero row
        d = descriptor_from_spec(alg)
        zero = Element(d, np.zeros(d.dim))
        if kind == "schur":
            op = tmp_path / "zero.csv"
            op.write_text("\n".join([",".join(["0.0"] * d.rank)] * d.rank) + "\n")
            extra = ["--alg", alg]
        else:
            op = tmp_path / "zero.json"
            op.write_text(json.dumps(element_to_json(zero)))
            extra = []
        out = tmp_path / "norm.json"
        assert main(["norm", "--kind", kind, "--operand", str(op), *extra, "--r", r,
                     "--s", s, "--budget", "20", "--out", str(out)]) == 0
        text = out.read_text()
        assert json.loads(text)["result"] == {
            "closed_form": 0.0, "empirical": 0.0, "witness_value": 0.0, "gap": 0.0,
            "evaluations": 20, "witness": element_to_json(zero), "note": None}
        assert "-0.0" not in text

    def test_schur_json_operand_takes_the_json_number_rule(self, tmp_path, capsys):
        # the same rows an archive line's multiplier must be: bare rows are
        # read; JSON strings and booleans, and rows wrapped in an object, are not
        op = tmp_path / "m.json"
        argv = ["norm", "--kind", "schur", "--operand", str(op), "--alg", "sym:2",
                "--r", "2", "--s", "2", "--budget", "5"]
        op.write_text('[[2, 0], [0, 3.0]]')
        assert main(argv) == 0
        assert "3.0" in capsys.readouterr().out
        for text in ('[["2", true], [true, "3"]]', '{"entries": [[2, 0], [0, 3.0]]}'):
            op.write_text(text)
            assert main(argv) == 2
            assert error_lines(capsys) == [
                "error: cannot load operand: a multiplier must be equal-length rows of "
                "float-range JSON numbers"]

    def test_schur_csv_and_json_operands_give_the_same_report(self, tmp_path, capsys):
        # one multiplier as CSV lines of repr cells and as JSON rows: the
        # report bytes differ only in the operand path
        G = np.random.default_rng(4).normal(size=(3, 3))
        A = G.T @ G
        (tmp_path / "m.csv").write_text(
            "".join(",".join(map(repr, row)) + "\n" for row in A.tolist()))
        (tmp_path / "m.json").write_text(json.dumps(A.tolist()))
        reports = []
        for name in ("m.csv", "m.json"):
            out = tmp_path / (name + ".report")
            assert main(["norm", "--kind", "schur", "--operand", str(tmp_path / name),
                         "--alg", "sym:3", "--r", "3", "--s", "2", "--budget", "20",
                         "--seed", "8", "--out", str(out)]) == 0
            reports.append(out.read_text().replace(name, "OPERAND"))
        assert reports[0] == reports[1]

    def test_schur_needs_alg(self, tmp_path, capsys):
        op = tmp_path / "m.csv"
        op.write_text("1.0,0.0\n0.0,1.0\n")
        assert main(["norm", "--kind", "schur", "--operand", str(op),
                     "--r", "1", "--s", "1"]) == 2

    def test_schur_of_another_rank_exits_2_with_the_size_message(self, tmp_path, capsys):
        op = tmp_path / "m.csv"
        op.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n")
        assert main(["norm", "--kind", "schur", "--operand", str(op),
                     "--alg", "sym:2", "--r", "2", "--s", "2"]) == 2
        assert error_lines(capsys) == ["error: multiplier size 3 does not match frame rank 2"]

    @pytest.mark.parametrize("kind", ["lyap", "quad", "schur"])
    def test_alg_is_checked_against_the_operand(self, tmp_path, capsys, kind):
        # an --alg that names the operand's algebra is accepted; one that
        # does not parse exits 2 with the parser's message, whatever the
        # kind, and one that names another algebra (spin:6 has sym:3's
        # dimension and rank 2) exits 2 on one line
        if kind == "schur":
            op = tmp_path / "m.csv"
            op.write_text("1.0,0.5,0.0\n0.5,1.0,0.0\n0.0,0.0,1.0\n")
            other = "error: multiplier size 3 does not match frame rank 2"
        else:
            op = tmp_path / "a.json"
            op.write_text(json.dumps(element_to_json(2.0 * unit(SymMatrix(3)))))
            other = "error: --alg spin:6 does not name the operand's algebra sym:3"
        argv = ["norm", "--kind", kind, "--operand", str(op), "--r", "2", "--s", "2",
                "--budget", "5"]
        assert main(argv + ["--alg", "sym:3"]) == 0
        capsys.readouterr()
        assert main(argv + ["--alg", "nonsense"]) == 2
        assert error_lines(capsys) == ["error: cannot parse algebra spec 'nonsense'"]
        assert main(argv + ["--alg", "spin:6"]) == 2
        assert error_lines(capsys) == [other]

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

    @pytest.mark.parametrize("kind,alg,name,text", [
        ("lyap", None, "big.json", '{"kind": "sym", "n": 2, "coords": [1e308, 1e308, 1e308]}'),
        ("quad", None, "big.json", '{"kind": "sym", "n": 2, "coords": [1e154, 0.0, 1e154]}'),
        ("schur", "sym:2", "big.csv", "1e308,1e308\n1e308,1e308\n"),
    ], ids=["sym-symmetrization", "quad-rep", "csv-symmetrization"])
    def test_operand_overflowing_on_the_way_exits_2_with_one_line(
            self, tmp_path, capsys, kind, alg, name, text):
        op = tmp_path / name
        op.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--kind", kind, "--operand", str(op),
                         *(["--alg", alg] if alg else []),
                         "--r", "2", "--s", "2", "--budget", "10"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("r,s,closed", [("3", "2", 2.0 ** (1.0 / 6.0) * 1e120),
                                             ("2", "3", 1e120)])
    def test_operand_whose_powers_overflow_has_a_finite_norm(self, tmp_path, capsys,
                                                             r, s, closed):
        # |d|^6 in the dual-exponent norm, the witness weights |d|^2 and the
        # power sums of the s-norm overflow on the way; the norm does not
        op = tmp_path / "big.json"
        op.write_text('{"kind": "sym", "n": 2, "coords": [1e120, 0.0, 1e120]}')
        out = tmp_path / "norm.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--kind", "lyap", "--operand", str(op), "--r", r,
                         "--s", s, "--budget", "10", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["result"]
        assert res["closed_form"] == pytest.approx(closed, rel=1e-12)
        assert res["witness_value"] == pytest.approx(closed, rel=1e-12)
        assert res["empirical"] <= closed * (1.0 + 1e-9)

    def test_operand_is_decomposed_once(self, tmp_path, capsys, monkeypatch):
        # the closed form is taken from the decomposition the search uses
        calls = []
        decompose = spectral.spectral_decompose

        def counted(*args, **kwargs):
            calls.append(1)
            return decompose(*args, **kwargs)

        for module in (spectral, norms):
            monkeypatch.setattr(module, "spectral_decompose", counted)
        op = tmp_path / "a.json"
        op.write_text('{"kind": "sym", "n": 2, "coords": [2.0, 0.5, -1.0]}')
        assert main(["norm", "--kind", "lyap", "--operand", str(op),
                     "--r", "3", "--s", "2", "--budget", "20"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("text", [
        "[1, 2, 3]", '"sym:2"', "null", '{"kind": "sym", "n": 2.5, "coords": [1, 2, 3]}',
        '{"kind": "sym", "n": "2", "coords": [1, 2, 3]}',
        '{"kind": "sym", "n": 2, "coords": [[1], [2], [3]]}',
        '{"kind": "sym", "n": 2, "coords": [true, false, true]}',
        '{"kind": "sum", "factors": 5, "coords": [1]}',
        "[" * 100000 + "]" * 100000,
    ], ids=["list", "string", "null", "fractional-n", "string-n", "nested-coords",
            "boolean-coords", "factors-not-array", "nested-too-deep"])
    def test_operand_json_of_another_shape_exits_2(self, tmp_path, capsys, text):
        op = tmp_path / "op.json"
        op.write_text(text)
        assert main(["norm", "--kind", "lyap", "--operand", str(op),
                     "--r", "2", "--s", "2", "--budget", "5"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load operand")

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

    def test_replay_takes_the_tolerances_of_its_sweep(self, tmp_path, capsys):
        # a violation found at atol = rtol = 0 lies inside the default band:
        # it confirms at the tolerances it was found with, not at the defaults
        d = SymMatrix(2)
        rec = eval_candidate([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]], standard_frame(d),
                             Element(d, [1.0, 5.0, -1.0]), atol=0.0, rtol=0.0)
        assert rec.verdict == "violated"
        path = tmp_path / "tight.jsonl"
        write_archive(path, [rec])
        assert main(["prospect", "--replay", str(path), "--atol", "0", "--rtol", "0"]) == 0
        assert "replayed 1 records, 0 mismatches" in capsys.readouterr().out
        assert main(["prospect", "--replay", str(path)]) == 1
        assert "record 0: MISMATCH" in capsys.readouterr().out

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

    def test_zero_diag_of_another_family_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["prospect", "--family", "psd_gram", "--zero-diag", "--alg", "sym:2"]) == 2
        assert error_lines(capsys) == [
            "error: zero_diag applies to random_sym only, not psd_gram"]
        assert list(tmp_path.iterdir()) == []

    def test_unparseable_algebra_exits_2(self, capsys):
        assert main(["prospect", "--alg", "nonsense"]) == 2
        assert error_lines(capsys) == ["error: cannot parse algebra spec 'nonsense'"]

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

    @pytest.mark.parametrize("field,value", [
        ("b", [1.0, 0.0, 1.0]), ("b", "sym:2"), ("b", None),
        ("b", {"kind": "sym", "n": 2.5, "coords": [1.0, 0.0, 1.0]}),
        ("b", {"kind": "sym", "n": 2, "coords": [[1.0], [0.0], [1.0]]}),
        ("descriptor", ["sym:2"]), ("problem", ["general"]), ("margin", 10**400),
        ("margin", math.nan), ("A", [[0.0, 1.0], [2.0, 0.0]]),
        ("A", [[0.0, math.nan], [math.nan, 0.0]]), ("A", [[0.0, math.inf], [math.inf, 0.0]]),
        ("A", []), ("A", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ("A", [[1.0, 0.0]]), ("problem", "sideways"),
        ("A", [["0", "1"], ["1", "0"]]), ("A", [[False, True], [True, False]]),
        ("margin", "0.5"), ("margin", True), ("seed", {"seed": 5}), ("seed", 1.5),
        ("family", ["random_sym"]), ("verdict", "sideways"),
    ], ids=["b-list", "b-string", "b-null", "b-fractional-n", "b-nested-coords",
            "descriptor-list", "problem-list", "margin-huge-int", "margin-nan",
            "A-asymmetric", "A-nan", "A-infinite", "A-empty", "A-wrong-size",
            "A-not-square", "problem-sideways", "A-strings", "A-bools",
            "margin-string", "margin-bool", "seed-object", "seed-float",
            "family-list", "verdict-sideways"])
    def test_replay_of_record_field_of_another_shape_exits_2(self, tmp_path, capsys,
                                                             field, value):
        record = self._mixed_records()[0].to_json()
        record[field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["prospect", "--replay", str(path)]) == 2
        (line,) = error_lines(capsys)
        assert "line 1: malformed archive record" in line

    def test_replay_of_witness_of_another_algebra_exits_2_naming_its_line(self, tmp_path,
                                                                         capsys):
        record = self._mixed_records()[0].to_json()
        assert record["descriptor"] == "sym:2"
        record["b"] = {"kind": "spin", "n": 3, "coords": [1.0, 0.0, 0.0]}
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["prospect", "--replay", str(path)]) == 2
        assert error_lines(capsys) == [
            f"error: {path}, line 1: malformed archive record "
            f"(witness of SpinFactor(n=3) in a record of sym:2)"]

    def test_replay_names_the_line_of_a_bad_multiplier(self, tmp_path, capsys):
        # record 6 of the fixture gets an asymmetric multiplier: the error names
        # its line (7); a later unparseable line does not take its place
        lines = (Path(__file__).parent / "data" / "zero_diag_archive.jsonl"
                 ).read_text().splitlines()
        record = json.loads(lines[6])
        record["A"] = [[0.0, 1.0], [0.0, 0.0]]
        lines[6] = json.dumps(record)
        path = tmp_path / "asym.jsonl"
        for tail in ([], ["{not json"]):
            path.write_text("\n".join(lines + tail) + "\n")
            assert main(["prospect", "--replay", str(path)]) == 2
            assert error_lines(capsys) == [
                f"error: {path}, line 7: malformed archive record "
                f"(multiplier matrix is not symmetric (residual 1.000e+00))"]

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
            records += sweep(FamilySpec("random_sym", d.rank, True),
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


# --- exit codes on fuzzed input ---------------------------------------------------

FUZZ_ORDERS = (("1", "1"), ("2", "2"), ("inf", "inf"), ("1", "inf"), ("inf", "1"),
               ("3", "2"), ("2", "3"))


# tolerance flag values: finite, subnormal, at the top of the float range,
# NaN, infinite, negative zero, negative and not a number at all
TOLERANCE_TEXTS = st.one_of(
    st.floats(0.0, 1e3).map(repr),
    st.floats(0.0, 2.2e-308).map(repr),
    st.floats(max_value=-5e-324).map(repr),
    st.sampled_from(["1e308", "1.7976931348623157e308", "nan", "inf", "-inf", "-0",
                     "-1e-9", "x", "", "1e", "0x1p-3"]),
)
# small runs of each command a tolerance reaches
TOLERANCE_COMMANDS = {
    "verify": ["verify", "--alg", "sym:2", "--samples", "2"],
    "prospect": ["prospect", "--family", "random_sym", "--zero-diag", "--alg", "sym:3",
                 "--budget", "2", "--samples", "3"],
    "prospect-spin": ["prospect", "--family", "psd_gram", "--alg", "spin:4",
                      "--budget", "2", "--samples", "3"],
}


@st.composite
def multiplier_csvs(draw):
    """A symmetric matrix of any floats (NaN and infinities too), or rows of
    arbitrary cells, as CSV text."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        entries = draw(st.lists(st.one_of(NUMBERS, st.floats()), min_size=n * n,
                                max_size=n * n))
        A = np.array(entries, dtype=np.float64).reshape(n, n)
        A = np.where(np.triu(np.ones((n, n), dtype=bool)), A, A.T)
        rows = [[repr(float(v)) for v in row] for row in A]
    else:
        cell = st.one_of(NUMBERS.map(repr), st.floats().map(repr),
                         st.sampled_from(["", "nan", "-inf", "1e400", "x"]),
                         st.text(max_size=4))
        rows = draw(st.lists(st.lists(cell, min_size=1, max_size=4), max_size=4))
    return "".join(",".join(row) + "\n" for row in rows)


@functools.lru_cache(maxsize=None)
def _fuzz_records() -> tuple:
    return tuple(json.dumps(r.to_json()) for r in TestProspect._mixed_records()[:4])


@st.composite
def archive_texts(draw):
    """One to three archive lines: a replayable record, one with a field
    (or a field of its element b) replaced by any JSON value or by numbers
    across the float range, or any JSON value or text at all."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        choice = draw(st.integers(0, 4))
        if choice == 4:
            lines.append(draw(st.one_of(JSON_VALUES.map(json.dumps),
                                        st.text(max_size=20).map(
                                            lambda t: t.replace("\n", " ")))))
            continue
        rec = json.loads(draw(st.sampled_from(_fuzz_records())))
        if choice == 1:
            rec[draw(st.sampled_from(sorted(rec)))] = draw(JSON_VALUES)
        elif choice == 2:
            rec["b"][draw(st.sampled_from(("kind", "n", "factors", "coords")))] = \
                draw(JSON_VALUES)
        elif choice == 3:
            n, dim = len(rec["A"]), len(rec["b"]["coords"])
            rec["A"] = np.array(draw(st.lists(NUMBERS, min_size=n * n, max_size=n * n)),
                                dtype=np.float64).reshape(n, n).tolist()
            rec["b"]["coords"] = draw(st.lists(NUMBERS, min_size=dim, max_size=dim))
            rec["margin"] = draw(NUMBERS)
        lines.append(json.dumps(rec))
    return "".join(line + "\n" for line in lines)


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process command; any warning
    raises, so it escapes ``main`` like any other exception."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err):
    assert code in (0, 1, 2)
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    if code == 2:
        assert len(errors) == 1 and err.splitlines() == errors, err
    else:
        assert not errors, err
    if code == 0:
        assert not re.search(r"\bnan\b", out, re.IGNORECASE), out


class TestExitCodesOnFuzzedInput:
    """Exit 0, 1 or 2 whatever the input; exit 2 says so on one ``error:``
    line, and exit 0 never prints nan."""

    @settings(max_examples=80, deadline=None)
    @given(element_objects(), st.sampled_from(("lyap", "quad")),
           st.sampled_from(FUZZ_ORDERS), st.integers(1, 6))
    def test_norm_json_operand(self, obj, kind, orders, budget):
        with tempfile.TemporaryDirectory() as tmp:
            op = Path(tmp) / "op.json"
            op.write_text(json.dumps(obj), encoding="utf-8")
            outcome = run_main(["norm", "--kind", kind, "--operand", str(op),
                                "--r", orders[0], "--s", orders[1],
                                "--budget", str(budget)])
        assert_exit_contract(*outcome)

    @settings(max_examples=80, deadline=None)
    @given(multiplier_csvs(), st.sampled_from(FUZZ_ALGEBRAS),
           st.sampled_from(FUZZ_ORDERS), st.integers(1, 6))
    def test_norm_csv_multiplier(self, text, alg, orders, budget):
        with tempfile.TemporaryDirectory() as tmp:
            op = Path(tmp) / "A.csv"
            op.write_text(text, encoding="utf-8")
            outcome = run_main(["norm", "--kind", "schur", "--operand", str(op),
                                "--alg", alg, "--r", orders[0], "--s", orders[1],
                                "--budget", str(budget)])
        assert_exit_contract(*outcome)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(TOLERANCE_COMMANDS)), TOLERANCE_TEXTS, TOLERANCE_TEXTS)
    @example("prospect", "1e308", "1e308")
    @example("prospect-spin", "1e308", "1e308")
    def test_tolerances(self, command, atol, rtol):
        with tempfile.TemporaryDirectory() as tmp:
            outcome = run_main([*TOLERANCE_COMMANDS[command],
                                f"--atol={atol}", f"--rtol={rtol}",
                                "--out", str(Path(tmp) / "out")])
        assert_exit_contract(*outcome)

    @settings(max_examples=80, deadline=None)
    @given(archive_texts())
    def test_replay_archive(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "archive.jsonl"
            path.write_text(text, encoding="utf-8")
            outcome = run_main(["prospect", "--replay", str(path)])
        assert_exit_contract(*outcome)


# --- one rule for hostile values in every JSON file reader ---------------------------

# each damages a valid input's numbers (an element's coordinates, a
# multiplier's rows) or the algebra an element spells
HOSTILE = ("string-entry", "boolean-entry", "integer-beyond-float", "ragged-rows",
           "nested-sum")
HOSTILE_ENTRIES = {"string-entry": "1.0", "boolean-entry": True,
                   "integer-beyond-float": 10**400}
# CSV cells that Python's float reads and the JSON number rule does not
HOSTILE_CELLS = {"underscore": "1_0", "plus-sign": "+1", "bare-point": ".5",
                 "arabic-indic-digit": "\u0663", "quoted": '"1"'}
# the readers: an element operand, a multiplier operand as JSON and as CSV,
# and an archive line's multiplier A and witness b; only an element spells
# an algebra, and only a CSV line holds cells that are not JSON
FILE_READERS = ("norm-lyap", "norm-schur", "norm-schur-csv", "replay-A", "replay-b")


def _damaged_rows(rows: list, damage: str) -> list:
    rows = json.loads(json.dumps(rows))
    if damage == "ragged-rows":
        rows[-1].pop()
    else:
        rows[0][0] = HOSTILE_ENTRIES[damage]
    return rows


def _csv_text(rows: list, damage: str | None = None) -> str:
    """Multiplier rows as CSV lines of JSON cells; a damage spoils the last line."""
    lines = [[json.dumps(v) for v in row] for row in rows]
    if damage == "ragged-rows":
        lines[-1].pop()
    elif damage is not None:
        lines[-1][0] = (HOSTILE_CELLS[damage] if damage in HOSTILE_CELLS
                        else json.dumps(HOSTILE_ENTRIES[damage]))
    return "".join(",".join(line) + "\n" for line in lines)


def _damaged_element(obj: dict, damage: str) -> dict:
    """A sum:sym:2+spin:3 element's JSON with one hostile value."""
    obj = dict(obj)
    if damage == "nested-sum":
        obj["factors"] = [obj["factors"][0], {"kind": "sum", "factors": obj["factors"][1:]}]
    elif damage == "ragged-rows":
        obj["coords"] = _damaged_rows([obj["coords"][:3], obj["coords"][3:]], damage)
    else:
        obj["coords"] = _damaged_rows([obj["coords"]], damage)[0]
    return obj


@pytest.mark.parametrize("reader,damage", [
    (reader, damage) for reader in FILE_READERS for damage in HOSTILE + tuple(HOSTILE_CELLS)
    if (damage != "nested-sum" or reader in ("norm-lyap", "replay-b"))
    and (damage not in HOSTILE_CELLS or reader == "norm-schur-csv")])
def test_every_file_reader_rejects_a_hostile_value_on_one_line(tmp_path, reader, damage):
    # a CSV multiplier's error names the damaged line, its last
    path = tmp_path / ("input.csv" if reader == "norm-schur-csv" else "input.json")
    if reader == "norm-lyap":
        valid = element_to_json(unit(descriptor_from_spec("sum:sym:2+spin:3")))
        damaged = _damaged_element(valid, damage)
        argv = ["norm", "--kind", "lyap", "--operand", str(path)]
    elif reader == "norm-schur":
        valid = [[2.0, 0.5], [0.5, 3.0]]
        damaged = _damaged_rows(valid, damage)
        argv = ["norm", "--kind", "schur", "--operand", str(path), "--alg", "sym:2"]
    elif reader == "norm-schur-csv":
        rows = [[2.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]]
        valid, damaged = _csv_text(rows), _csv_text(rows, damage)
        argv = ["norm", "--kind", "schur", "--operand", str(path), "--alg", "sym:3"]
    else:
        lines = (Path(__file__).parent / "data" / "zero_diag_archive.jsonl").read_text()
        valid = json.loads(next(ln for ln in lines.splitlines()
                                if '"sum:sym:2+spin:3"' in ln))
        damaged = (dict(valid, A=_damaged_rows(valid["A"], damage)) if reader == "replay-A"
                   else dict(valid, b=_damaged_element(valid["b"], damage)))
        argv = ["prospect", "--replay", str(path)]
    if argv[0] == "norm":
        argv += ["--r", "2", "--s", "2", "--budget", "5"]
    encode = str if reader == "norm-schur-csv" else (lambda obj: json.dumps(obj) + "\n")
    path.write_text(encode(valid), encoding="utf-8")
    assert run_main(argv)[0] == 0
    path.write_text(encode(damaged), encoding="utf-8")
    code, _, err = run_main(argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    if reader == "norm-schur-csv":
        assert err.startswith("error: cannot load operand: line 3: "), err
