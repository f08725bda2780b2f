"""Command-line front end: verification sweeps, norm reports, prospecting runs.

Subcommands
-----------
verify         run every registered inequality sweep on one algebra
repro-example  reproduce the fixed 2x2 counterexample pair
norm           closed-form vs empirical operator norm for one operand
prospect       sweep a multiplier family for violations, or replay an archive

Exit codes: 0 success, 1 a check failed (a witness file is written),
2 malformed configuration or input (see ``EXIT_CODES``), including a command
line that does not parse, a NaN, infinite or negative ``--atol`` or
``--rtol`` and a negative ``--seed``, which every subcommand rejects before
any work, a ``prospect`` sweep with ``--budget`` or ``--samples`` below 1,
and, for ``verify``, tolerances so large that no sampled element clears the
commuting-factor check's invertibility floor.
All output is deterministic under a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .algebra import (
    descriptor_from_spec,
    element_from_json,
    element_to_json,
)
from .majorization import DEFAULT_ATOL, DEFAULT_RTOL
from .norms import norm_closed_form, norm_empirical
from .spectral import JacobiConvergenceError
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


# Errors that end a command and their exit codes, reported as one ``error:``
# line; the first matching entry applies.  ConfigError and malformed files
# are ValueErrors; an eigensolver that does not converge was given input it
# cannot handle.
EXIT_CODES = (
    (ValueError, 2),
    (OSError, 2),
    (JacobiConvergenceError, 2),
)


def _parse_order(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    try:
        value = float(t)
    except ValueError:
        raise ConfigError(f"cannot parse norm order {text!r}") from None
    return value


def _check_tolerances(args: argparse.Namespace) -> None:
    # the library takes a negative atol as a band stricter than exact
    # comparison; a flag value is a tolerance, so it must be finite and >= 0
    for flag in ("atol", "rtol"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"--{flag} must be finite and >= 0, got {value!r}")


def _check_seed(args: argparse.Namespace) -> None:
    # seed sequences take non-negative integers only
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def _report_header(args: argparse.Namespace, command: str) -> dict:
    # the output path is where the report lands, not part of the run config;
    # keeping it out makes equal configurations byte-identical on disk
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    return {"tool": "symcone", "version": __version__, "command": command,
            "config": cfg}


def _dump(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        d = descriptor_from_spec(args.alg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
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
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
    if args.budget < 1:
        raise ConfigError("--budget must be >= 1")
    try:
        if args.kind in ("lyap", "quad"):
            with open(args.operand) as fh:
                operand = element_from_json(json.load(fh))
            descriptor = None
        elif args.kind == "schur":
            operand = SchurMatrix.load(args.operand)
            if not args.alg:
                raise ConfigError("schur norms need --alg for the frame")
            descriptor = descriptor_from_spec(args.alg)
            if descriptor.rank != operand.n:
                raise ConfigError(
                    f"multiplier size {operand.n} does not match rank {descriptor.rank}"
                )
        else:
            raise ConfigError(f"unknown norm kind {args.kind!r}")
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser goes
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"cannot load operand: {exc}") from None
    # a finite operand can still overflow float64 on its way to a norm; the
    # eigensolver's gates and the finiteness check below reject that, so
    # numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        closed = norm_closed_form(args.kind, operand, r, s, descriptor=descriptor)
        rng = np.random.default_rng(args.seed)
        est = norm_empirical(args.kind, operand, r, s, budget=args.budget, rng=rng,
                             descriptor=descriptor)
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
            replayed = replay_records(records)
        bad = 0
        for i, (rec, (ok, margin)) in enumerate(zip(records, replayed)):
            if not ok:
                bad += 1
                print(f"record {i}: MISMATCH (stored {rec.margin!r}, replayed {margin!r})")
        print(f"replayed {len(records)} records, {bad} mismatches")
        return 0 if bad == 0 else 1
    if args.family not in FAMILIES:
        raise ConfigError(f"unknown family {args.family!r}; known: {FAMILIES}")
    # an empty sweep would report no violations over 0 tests
    for flag in ("budget", "samples"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    try:
        d = descriptor_from_spec(args.alg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
        p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
        p.add_argument("--out", default=None, help="report output path")

    pv = sub.add_parser("verify", help="run every inequality sweep on one algebra")
    pv.add_argument("--alg", required=True,
                    help='algebra spec: "sym:N", "spin:N", or "sum:sym:2+spin:3"')
    pv.add_argument("--samples", type=int, default=100, help="samples per check")
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    common(pv)
    pv.set_defaults(func=_cmd_verify)

    pr = sub.add_parser("repro-example", help="reproduce the 2x2 counterexample pair")
    common(pr)
    pr.set_defaults(func=_cmd_repro_example)

    pn = sub.add_parser("norm", help="closed-form vs empirical operator norm")
    pn.add_argument("--kind", required=True, choices=("lyap", "quad", "schur"))
    pn.add_argument("--operand", required=True,
                    help="element JSON (lyap/quad) or multiplier CSV/JSON (schur)")
    pn.add_argument("--alg", default=None, help="algebra spec for schur frames")
    pn.add_argument("--r", required=True, help='source norm order, e.g. "2" or "inf"')
    pn.add_argument("--s", required=True, help='target norm order, e.g. "1" or "inf"')
    pn.add_argument("--budget", type=int, default=200, help="ratio evaluations")
    common(pn)
    pn.set_defaults(func=_cmd_norm)

    pp = sub.add_parser("prospect", help="sweep a multiplier family for violations")
    pp.add_argument("--family", default="random_sym", help=f"one of {FAMILIES}")
    pp.add_argument("--alg", default="sym:2", help="algebra spec (fixes the rank)")
    pp.add_argument("--budget", type=int, default=100, help="candidate matrices")
    pp.add_argument("--samples", type=int, default=100, help="elements per candidate")
    pp.add_argument("--zero-diag", action="store_true",
                    help="force zero diagonal in the random_sym family")
    pp.add_argument("--problem", choices=("general", "cone"), default="general")
    pp.add_argument("--replay", default=None,
                    help="re-verify every record of an existing archive and exit")
    common(pp)
    pp.set_defaults(func=_cmd_prospect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_tolerances(args)
        _check_seed(args)
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
