"""The benchmark's three workloads, each a closed loop of public symcone calls.

One client in one thread calls the package, waits for the result, checks it
against known truth and only then makes the next call.  A workload is run in
*rounds*; every round repeats the same inputs, drawn from the seed the way the
package draws them (``sample_rng(seed, i)`` in the verifiers,
``SeedSequence([seed, ia])`` in the search), so per-round counts are exact and
round times are comparable.

sweep-cone     ``run_sweep("log_major_quadrep", d, N, seed)`` over the eleven
               acceptance algebras.  Scalar Jacobi kernels, spectral
               decompositions, ``quad_rep`` and ``log_major`` do the work.
prospect-scan  ``search.sweep`` over the known-clean multiplier families on
               Sym(3..5), general and cone problems.  The batched eigenvalue
               kernel and the vectorized margins do the work; nothing is
               suspect, so the scalar verifier is bypassed.
desk           a fixed CLI session through ``cli.main``: verify, norm,
               prospect (archiving every violation), replay.  The only
               workload that writes reports and archives.

A round returns the number of items it processed and a *parity record*:
verdicts and worst slacks per (check, algebra) and sha256 digests of every
file written.  The same code and seed must give the same record.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

from symcone import cli, search, verifiers
from symcone.algebra import descriptor_from_spec, element_to_json, random_element
from symcone.spectral import standard_frame

SWEEP_CHECK = "log_major_quadrep"
SWEEP_ALGEBRAS = ("sym:2", "sym:3", "sym:4", "sym:5", "spin:3", "spin:4",
                  "spin:5", "spin:6", "spin:7", "spin:8", "sum:sym:2+spin:3")

CLEAN_FAMILIES = ("psd_gram", "lyapunov_form", "quadratic_form")
SCAN_ALGEBRAS = ("sym:3", "sym:4", "sym:5")
PROBLEMS = ("general", "cone")

# round sizes, each about one second on one core of a 2-vCPU Xeon VM
SWEEP_SAMPLES = 100        # per algebra
SCAN_CANDIDATES = 10       # multipliers A per (family, algebra, problem)
SCAN_ELEMENTS = 100        # elements b per multiplier
DESK_VERIFY_SAMPLES = 20   # per check and algebra
DESK_ZERO_DIAG = (40, 25)  # (--budget, --samples) of the zero-diagonal prospect
DESK_PSD_SPIN = (20, 25)   # (--budget, --samples) of the psd_gram prospect on spin:4
DESK_NORM_BUDGET = 200

# the empirical norm may exceed the closed form by roundoff only
NORM_RTOL = 1e-9
NORM_ATOL = 1e-12


class Ledger:
    """Operations attempted and failed in one run.

    An operation is one public call (one ``run_sweep``, one ``search.sweep``,
    one CLI command).  It fails when it raises or when ``check`` returns a
    message: an unexpected exit code or a verdict that contradicts known
    truth.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, label: str, call, check):
        self.attempted += 1
        try:
            result = call()
            problem = check(result)
        except Exception as exc:  # any raise is a failed operation, not a crash
            problem = f"raised {exc!r}"
            result = None
        if problem:
            self.fail(label, problem)
            return None
        return result

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {problem}")


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class SweepCone:
    name = "sweep-cone"
    item = "samples"
    throughput = "cone_samples_per_s"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.descriptors = [descriptor_from_spec(s) for s in SWEEP_ALGEBRAS]
        for d in self.descriptors:
            standard_frame(d)

    def round(self, ledger: Ledger, tracer=None):
        parity = {}
        for spec, d in zip(SWEEP_ALGEBRAS, self.descriptors):
            rep = ledger.op(
                f"run_sweep {SWEEP_CHECK} {spec}",
                lambda: verifiers.run_sweep(SWEEP_CHECK, d, SWEEP_SAMPLES, self.seed),
                lambda r: None if r.passed and r.samples == SWEEP_SAMPLES
                else f"passed={r.passed} samples={r.samples} worst={r.worst_slack!r}",
            )
            if rep is not None:
                parity[f"{SWEEP_CHECK} {spec}"] = [rep.passed, rep.worst_slack]
        return SWEEP_SAMPLES * len(SWEEP_ALGEBRAS), parity


class ProspectScan:
    name = "prospect-scan"
    item = "tests"
    throughput = "scan_tests_per_s"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.descriptors = {a: descriptor_from_spec(a) for a in SCAN_ALGEBRAS}
        for d in self.descriptors.values():
            standard_frame(d)

    def round(self, ledger: Ledger, tracer=None):
        parity = {}
        tested = 0
        want = SCAN_CANDIDATES * SCAN_ELEMENTS
        for family in CLEAN_FAMILIES:
            for alg, problem in itertools.product(SCAN_ALGEBRAS, PROBLEMS):
                d = self.descriptors[alg]
                res = ledger.op(
                    f"sweep {family} {alg} {problem}",
                    lambda: search.sweep(search.FamilySpec(family, d.rank), d,
                                         SCAN_CANDIDATES, SCAN_ELEMENTS, self.seed,
                                         problem=problem),
                    lambda r: None if not r.violations and r.tested == want
                    else f"{len(r.violations)} violations over {r.tested} tests",
                )
                if res is not None:
                    tested += res.tested
                    parity[f"{family} {alg} {problem}"] = [len(res.violations),
                                                           res.min_margin]
        return tested, parity


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Desk:
    """One CLI session: the commands a user types at a desk, in order."""

    name = "desk"
    item = "commands"
    throughput = "desk_commands_per_s"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = Path(workdir) / "desk" / "in"
        self.outputs = Path(workdir) / "desk" / "out"

    def setup(self) -> None:
        """Operand files for ``norm``, generated from the seed, and an empty
        output directory."""
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir(parents=True)
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xDE5C]))
        for name, spec in (("lyap.json", "sym:3"), ("quad.json", "sum:sym:2+spin:3")):
            x = random_element(descriptor_from_spec(spec), rng, 2.0)
            (self.inputs / name).write_text(json.dumps(element_to_json(x)) + "\n")
        G = rng.normal(0.0, 1.0, (3, 3))
        rows = [",".join(repr(float(v)) for v in row) for row in G.T @ G]
        (self.inputs / "schur.csv").write_text("\n".join(rows) + "\n")
        for alg in ("sym:3", "sym:4", "spin:4", "sum:sym:2+spin:3"):
            standard_frame(descriptor_from_spec(alg))
        self.session = self.commands()

    def commands(self) -> list[tuple]:
        """(span name, argv, check) of every command in the session."""
        seed = str(self.seed)

        def p(name: str) -> str:
            return str(self.outputs / name)

        vs = str(DESK_VERIFY_SAMPLES)
        zd_budget, zd_samples = DESK_ZERO_DIAG
        ps_budget, ps_samples = DESK_PSD_SPIN
        zd_tests = zd_budget * zd_samples
        cmds = [
            ("verify", ["verify", "--alg", "sym:4", "--samples", vs, "--seed", seed,
                        "--out", p("verify-sym4.json")],
             self._check_verify_json(p("verify-sym4.json"))),
            ("verify", ["verify", "--alg", "sum:sym:2+spin:3", "--samples", vs,
                        "--seed", seed, "--format", "csv", "--out", p("verify-sum.csv")],
             self._check_verify_csv(p("verify-sum.csv"))),
        ]
        for kind, operand, extra, r, s in (
            ("lyap", "lyap.json", [], "inf", "2"),
            ("quad", "quad.json", [], "2", "inf"),
            ("schur", "schur.csv", ["--alg", "sym:3"], "3", "2"),
        ):
            out = p(f"norm-{kind}.json")
            cmds.append(("norm", ["norm", "--kind", kind,
                                  "--operand", str(self.inputs / operand), *extra,
                                  "--r", r, "--s", s, "--budget", str(DESK_NORM_BUDGET),
                                  "--seed", seed, "--out", out],
                         self._check_norm(out)))
        cmds += [
            ("prospect", ["prospect", "--family", "random_sym", "--zero-diag",
                          "--alg", "sym:3", "--budget", str(zd_budget),
                          "--samples", str(zd_samples), "--seed", seed,
                          "--out", p("zero-diag")],
             self._check_prospect(p("zero-diag"), zd_tests, zd_tests)),
            ("prospect", ["prospect", "--family", "psd_gram", "--alg", "spin:4",
                          "--budget", str(ps_budget), "--samples", str(ps_samples),
                          "--seed", seed, "--out", p("psd-spin4")],
             self._check_prospect(p("psd-spin4"), ps_budget * ps_samples, 0)),
            ("replay", ["prospect", "--replay", p("zero-diag.jsonl")],
             self._check_replay(zd_tests)),
        ]
        return cmds

    @staticmethod
    def _check_verify_json(path):
        def check(outcome):
            rc, _ = outcome
            with open(path) as fh:
                report = json.load(fh)
            if rc != 0 or report["pass"] is not True or len(report["reports"]) != 10:
                return f"exit {rc}, pass={report['pass']}, {len(report['reports'])} reports"
            return None
        return check

    @staticmethod
    def _check_verify_csv(path):
        def check(outcome):
            rc, _ = outcome
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if rc != 0 or len(rows) != 10 or any(r["pass"] != "True" for r in rows):
                return f"exit {rc}, {len(rows)} rows"
            return None
        return check

    @staticmethod
    def _check_norm(path):
        def check(outcome):
            rc, _ = outcome
            with open(path) as fh:
                res = json.load(fh)["result"]
            closed, emp = res["closed_form"], res["empirical"]
            if rc != 0 or not (math.isfinite(closed) and math.isfinite(emp)):
                return f"exit {rc}, closed {closed!r}, empirical {emp!r}"
            if emp > closed * (1.0 + NORM_RTOL) + NORM_ATOL:
                return f"empirical {emp!r} exceeds closed form {closed!r}"
            return None
        return check

    @staticmethod
    def _check_prospect(base, tests, violations):
        def check(outcome):
            rc, _ = outcome
            with open(base + ".csv", newline="") as fh:
                (row,) = list(csv.DictReader(fh))
            with open(base + ".jsonl") as fh:
                archived = sum(1 for line in fh if line.strip())
            got = (int(row["samples"]), int(row["violations"]), archived)
            if rc != 0 or got != (tests, violations, violations):
                return f"exit {rc}, (tests, violations, archived) = {got}"
            return None
        return check

    @staticmethod
    def _check_replay(records):
        def check(outcome):
            rc, out = outcome
            want = f"replayed {records} records, 0 mismatches"
            if rc != 0 or want not in out:
                return f"exit {rc}, output {out.strip().splitlines()[-1:]!r}"
            return None
        return check

    def round(self, ledger: Ledger, tracer=None):
        # a command that writes nothing must not be judged on the last round's files
        for path in self.outputs.iterdir():
            path.unlink()
        for name, argv, check in self.session:
            def call():
                out, err = io.StringIO(), io.StringIO()
                with _span(tracer, f"cli.{name}"), \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                return rc, out.getvalue()
            ledger.op(f"symcone {' '.join(argv[:3])}", call, check)
        parity, written = self.parity()
        if tracer is not None:
            tracer.counters["cli.bytes_written"] += written
        return len(self.session), parity

    def parity(self):
        """Verdicts, norm values and file digests of the session's outputs,
        and the bytes it wrote.  A missing output leaves its keys out, so the
        record differs from a complete one."""
        parity = {}
        written = 0
        files = {path.name: path for path in sorted(self.outputs.iterdir())}
        for name, path in files.items():
            parity[f"sha256 {name}"] = _sha256(path)
            written += path.stat().st_size
        if "verify-sym4.json" in files:
            for r in json.loads(files["verify-sym4.json"].read_text())["reports"]:
                parity[f"{r['check']} {r['descriptor']}"] = [r["pass"], r["worst_slack"]]
        if "verify-sum.csv" in files:
            with open(files["verify-sum.csv"], newline="") as fh:
                for r in csv.DictReader(fh):
                    parity[f"{r['check']} {r['descriptor']}"] = [
                        r["pass"] == "True", float(r["worst_slack"])]
        for kind in ("lyap", "quad", "schur"):
            if f"norm-{kind}.json" in files:
                res = json.loads(files[f"norm-{kind}.json"].read_text())["result"]
                parity[f"norm {kind}"] = [res["closed_form"], res["empirical"]]
        return parity, written


WORKLOADS = {w.name: w for w in (SweepCone, ProspectScan, Desk)}
