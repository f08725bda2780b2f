"""Command-line front end: verification sweeps, norm reports, prospecting runs.

Subcommands
-----------
verify         run every registered inequality sweep on one algebra
repro-example  reproduce the fixed 2x2 counterexample pair
norm           closed-form vs empirical operator norm for one operand
prospect       sweep a multiplier family for violations, or replay an archive

Exit codes: 0 success, 1 a check failed (a witness file is written),
2 malformed configuration or input (see ``_INPUT_ERRORS``), including a
command line that does not parse (among it a NaN, infinite or negative
``--atol`` or ``--rtol``, a negative ``--seed`` and a ``--budget`` or
``--samples`` below 1, rejected by the parser of each subcommand that takes
the flag, before any work), for ``verify``, tolerances so large that no
sampled element clears the commuting-factor check's invertibility floor,
and a size (``--samples``, an operand's dimension) whose arrays do not fit
in memory.
All output is deterministic under a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .algebra import (
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_json,
    element_to_json,
)
from .majorization import DEFAULT_ATOL, DEFAULT_RTOL
from .norms import norm_empirical
from .spectral import JacobiConvergenceError, standard_frame
from .search import (
    FAMILIES,
    FamilySpec,
    read_archive,
    replay_records,
    sweep,
    write_archive,
    write_summary_csv,
)
from .transforms import SchurMatrix
from .verifiers import ResampleError, check_absolute_product_counterexample, run_all


class ConfigError(ValueError):
    """Bad command-line configuration; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a command line it cannot parse (an unknown flag, a tolerance
    that is not a number) as a ConfigError, so it ends like any other bad
    input: exit 2 with one ``error:`` line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# Errors that end a command with exit code 2, reported as one ``error:``
# line.  ConfigError and malformed files are ValueErrors; an eigensolver that
# does not converge was given input it cannot handle, and a command whose
# arrays do not fit in memory was asked for more than the machine holds
# (numpy's message names the array).
_INPUT_ERRORS = (ValueError, OSError, JacobiConvergenceError, MemoryError)


def _parse_order(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    try:
        value = float(t)
    except ValueError:
        raise ConfigError(f"cannot parse norm order {text!r}") from None
    return value


# The parser types of every numeric flag (--atol, --rtol, --seed, --budget,
# --samples).  A value that is not a number raises ValueError, which the
# parser reports as "invalid tolerance value", "invalid seed value" or
# "invalid count value".

def tolerance(text: str) -> float:
    # the library takes a negative atol as a band stricter than exact
    # comparison; a flag value is a tolerance, so it must be finite and >= 0
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value!r}")
    return value


def seed(text: str) -> int:
    # seed sequences take non-negative integers only
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def count(text: str) -> int:
    # an empty sweep or estimate would report on nothing
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _report_header(args: argparse.Namespace, command: str) -> dict:
    # the output path is where the report lands, not part of the run config;
    # keeping it out makes equal configurations byte-identical on disk
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    return {"tool": "symcone", "version": __version__, "command": command,
            "config": cfg}


def _write(text: str, path: str | None) -> None:
    """Text to the file at path, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj: dict, path: str | None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _cmd_verify(args: argparse.Namespace) -> int:
    d = descriptor_from_spec(args.alg)
    try:
        reports = run_all(d, args.samples, args.seed, atol=args.atol, rtol=args.rtol)
    except ResampleError as exc:
        # the commuting-factor check draws elements invertible enough for
        # its tolerances; a floor no draw clears is a tolerance too large
        raise ConfigError(f"--atol {args.atol:g} / --rtol {args.rtol:g} set an "
                          f"invertibility floor no sample clears: {exc}") from None
    header = _report_header(args, "verify")
    header["seed"] = args.seed
    header["reports"] = [r.to_json() for r in reports]
    all_pass = all(r.passed for r in reports)
    header["pass"] = all_pass
    if args.format == "csv":
        lines = ["check,descriptor,samples,pass,worst_slack"]
        for r in reports:
            lines.append(f"{r.check},{r.descriptor},{r.samples},{r.passed},{r.worst_slack!r}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        _dump(header, args.out)
    for r in reports:
        flag = "pass" if r.passed else "FAIL"
        print(f"[{flag}] {r.check} on {r.descriptor}: worst slack {r.worst_slack:.3e}")
    if not all_pass:
        witness_path = (args.out or "symcone_verify") + ".witness.json"
        failing = [r.to_json() for r in reports if not r.passed]
        _dump({"tool": "symcone", "version": __version__, "failures": failing},
              witness_path)
        print(f"witness written to {witness_path}", file=sys.stderr)
        return 1
    return 0


def _cmd_repro_example(args: argparse.Namespace) -> int:
    report = check_absolute_product_counterexample()
    det = report.details
    print("eigenvalues of |a o b|:   ", [round(v, 6) for v in det["abs_product_eigs"]])
    print("eigenvalues of |a| o |b|: ", [round(v, 6) for v in det["mixed_eigs"]])
    print("forward weak majorization holds: ", det["forward"]["holds"])
    print("reverse weak majorization holds: ", det["reverse"]["holds"])
    header = _report_header(args, "repro-example")
    header["report"] = report.to_json()
    if args.out:
        _dump(header, args.out)
    return 0 if report.passed else 1


def _cmd_norm(args: argparse.Namespace) -> int:
    r = _parse_order(args.r)
    s = _parse_order(args.s)
    alg = None if args.alg is None else descriptor_from_spec(args.alg)
    if args.kind == "schur" and alg is None:
        raise ConfigError("schur norms need --alg for the frame")
    try:
        if args.kind in ("lyap", "quad"):
            with open(args.operand) as fh:
                operand = element_from_json(json.load(fh))
        else:  # schur, the last of the parser's choices
            operand = SchurMatrix.load(args.operand)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser goes
        raise ConfigError(f"cannot load operand: {exc}") from None
    frame = standard_frame(alg) if args.kind == "schur" else None
    if frame is None and alg is not None and alg != operand.descriptor:
        raise ConfigError(f"--alg {args.alg} does not name the operand's algebra "
                          f"{descriptor_to_spec(operand.descriptor)}")
    # a finite operand can still overflow float64 on its way to a norm; the
    # eigensolver's gates and the finiteness check below reject that, so
    # numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        rng = np.random.default_rng(args.seed)
        est = norm_empirical(args.kind, operand, r, s, budget=args.budget, rng=rng,
                             frame=frame)
    closed = est.closed_form
    gap = closed - est.value
    if not all(math.isfinite(v) for v in (closed, est.value, est.witness_value, gap)):
        raise ConfigError(f"the operand's norm overflows: closed form {closed!r}, "
                          f"empirical {est.value!r}")
    print(f"closed form:     {closed!r}")
    print(f"empirical:       {est.value!r}")
    print(f"witness ratio:   {est.witness_value!r}")
    print(f"gap:             {gap!r}")
    if est.note:
        print(f"note: {est.note}")
    header = _report_header(args, "norm")
    header["seed"] = args.seed
    header["result"] = {
        "closed_form": closed,
        "empirical": est.value,
        "witness_value": est.witness_value,
        "gap": gap,
        "evaluations": est.evaluations,
        "witness": element_to_json(est.witness),
        "note": est.note,
    }
    if args.out:
        _dump(header, args.out)
    return 0


def _cmd_prospect(args: argparse.Namespace) -> int:
    if args.replay:
        records = read_archive(args.replay)
        # a finite record can overflow float64 in its margin: the eigensolver
        # rejects it, and a non-finite margin never confirms
        with np.errstate(over="ignore", invalid="ignore"):
            replayed = replay_records(records, atol=args.atol, rtol=args.rtol)
        bad = 0
        for i, (stored, (ok, margin)) in enumerate(zip(records.margin.tolist(), replayed)):
            if not ok:
                bad += 1
                print(f"record {i}: MISMATCH (stored {stored!r}, replayed {margin!r})")
        print(f"replayed {len(records)} records, {bad} mismatches")
        return 0 if bad == 0 else 1
    d = descriptor_from_spec(args.alg)
    spec = FamilySpec(args.family, d.rank, zero_diag=args.zero_diag)
    result = sweep(spec, d, args.budget, args.samples, args.seed,
                   atol=args.atol, rtol=args.rtol, problem=args.problem)
    out_base = args.out or f"symcone_prospect_{args.family}"
    archive_path = out_base + ".jsonl"
    csv_path = out_base + ".csv"
    write_archive(archive_path, result.violations)
    write_summary_csv(csv_path, [result])
    print(f"family {args.family} on {result.descriptor}: "
          f"{len(result.violations)} violations over {result.tested} tests, "
          f"min margin {result.min_margin:.3e}")
    print(f"archive: {archive_path}")
    print(f"summary: {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symcone",
        description="Verification and search harness for eigenvalue "
                    "majorization inequalities over symmetric cones.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=seed, default=0, help="base RNG seed")

    def add_tolerances(p):
        p.add_argument("--atol", type=tolerance, default=DEFAULT_ATOL)
        p.add_argument("--rtol", type=tolerance, default=DEFAULT_RTOL)

    def add_out(p):
        p.add_argument("--out", default=None, help="report output path")

    pv = sub.add_parser("verify", help="run every inequality sweep on one algebra")
    pv.add_argument("--alg", required=True,
                    help='algebra spec: "sym:N", "spin:N", or "sum:sym:2+spin:3"')
    pv.add_argument("--samples", type=count, default=100, help="samples per check")
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    add_seed(pv)
    add_tolerances(pv)
    add_out(pv)
    pv.set_defaults(func=_cmd_verify)

    pr = sub.add_parser("repro-example", help="reproduce the 2x2 counterexample pair")
    add_out(pr)
    pr.set_defaults(func=_cmd_repro_example)

    pn = sub.add_parser("norm", help="closed-form vs empirical operator norm")
    pn.add_argument("--kind", required=True, choices=("lyap", "quad", "schur"))
    pn.add_argument("--operand", required=True,
                    help="element JSON (lyap/quad) or multiplier CSV/JSON (schur)")
    pn.add_argument("--alg", default=None,
                    help="algebra spec: the frame of a schur norm; checked against "
                         "a lyap or quad operand")
    pn.add_argument("--r", required=True, help='source norm order, e.g. "2" or "inf"')
    pn.add_argument("--s", required=True, help='target norm order, e.g. "1" or "inf"')
    pn.add_argument("--budget", type=count, default=200, help="ratio evaluations")
    add_seed(pn)
    add_out(pn)
    pn.set_defaults(func=_cmd_norm)

    pp = sub.add_parser("prospect", help="sweep a multiplier family for violations")
    pp.add_argument("--family", default="random_sym", help=f"one of {FAMILIES}")
    pp.add_argument("--alg", default="sym:2", help="algebra spec (fixes the rank)")
    pp.add_argument("--budget", type=count, default=100, help="candidate matrices")
    pp.add_argument("--samples", type=count, default=100, help="elements per candidate")
    pp.add_argument("--zero-diag", action="store_true",
                    help="force a zero diagonal (random_sym only)")
    pp.add_argument("--problem", choices=("general", "cone"), default="general")
    pp.add_argument("--replay", default=None,
                    help="re-verify every record of an existing archive and exit")
    add_seed(pp)
    add_tolerances(pp)
    add_out(pp)
    pp.set_defaults(func=_cmd_prospect)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process: parsing a command
    line leaves it as it was, and each call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
