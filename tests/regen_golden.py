"""Rewrite the golden outputs under ``tests/data/golden/``.

    PYTHONPATH=src python3 tests/regen_golden.py

The golden files are the outputs of the desk's ``verify`` and ``norm``
commands (the same command lines as perfbench's desk session at seed 1),
``verify`` on every other catalog algebra at 300 samples, a zero-diagonal
prospect on sym:3 and a cone-problem one on spin:4 (archive, summary CSV and
the stdout of their ``--replay``), the ``norm`` operands, the exit code of
every command (``exit-codes.json``) and ``fingerprint.json``: the numpy
version and the numpy SIMD targets active on the host that wrote them, since
the bits of an output depend on both.  ``test_golden.py`` runs the same
commands through ``cli.main`` (:func:`generate`) and compares.  A change
that moves these bytes on purpose runs this script and names each changed
file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SEED = "1"
OPERAND_SEED = (1, 0xDE5C)  # the desk session's operand generator at seed 1
OUT = "{out}"  # stands for the output directory in an argv
# the catalog algebras other than the desk's sym:4, verified at 300 samples
VERIFY_ALGEBRAS = ("sym:2", "sym:3", "sym:5", "spin:3", "spin:4", "spin:5", "spin:6",
                   "spin:7", "spin:8", "sum:sym:2+spin:3")


def _verify(alg: str, samples: str) -> tuple:
    name = "verify-" + alg.replace(":", "").replace("+", "-")
    return (name, ["verify", "--alg", alg, "--samples", samples, "--seed", SEED,
                   "--out", f"{OUT}/{name}.json"], (f"{name}.json",))


def _prospect(name: str, alg: str, *extra: str) -> tuple:
    """A zero-diagonal prospect writing ``name``.jsonl and ``name``.csv, and
    the replay of its archive, whose stdout is kept as ``replay-name``.stdout."""
    return ((name, ["prospect", "--family", "random_sym", "--zero-diag", *extra,
                    "--alg", alg, "--budget", "4", "--samples", "5", "--seed", SEED,
                    "--out", f"{OUT}/{name}"], (f"{name}.jsonl", f"{name}.csv")),
            (f"replay-{name}", ["prospect", "--replay", f"{OUT}/{name}.jsonl"],
             (f"replay-{name}.stdout",)))


# (command name, argv, the files it leaves in the output directory); a file
# ending in .stdout holds what the command printed.  Operands are named
# relative to GOLDEN, so a report's config reads the same wherever it is written
COMMANDS = (
    _verify("sym:4", "20"),
    *(_verify(alg, "300") for alg in VERIFY_ALGEBRAS),
    *((f"norm-{kind}", ["norm", "--kind", kind, "--operand", operand, *extra,
                        "--r", r, "--s", s, "--budget", "200", "--seed", SEED,
                        "--out", f"{OUT}/norm-{kind}.json"], (f"norm-{kind}.json",))
      for kind, operand, extra, r, s in (
          ("lyap", "lyap.json", [], "inf", "2"),
          ("quad", "quad.json", [], "2", "inf"),
          ("schur", "schur.csv", ["--alg", "sym:3"], "3", "2"),
      )),
    *_prospect("zero-diag-sym3", "sym:3"),
    *_prospect("cone-spin4", "spin:4", "--problem", "cone"),
)
FILES = tuple(f for _, _, files in COMMANDS for f in files)


def fingerprint() -> dict:
    """The numpy version and the SIMD dispatch targets active in this process."""
    from numpy._core import _multiarray_umath as umath

    return {"numpy": np.__version__,
            "cpu_dispatch": [t for t in umath.__cpu_dispatch__
                             if umath.__cpu_features__.get(t)]}


def generate(out: Path) -> dict[str, int]:
    """Run every golden command through ``cli.main`` with its outputs written
    to ``out``; returns each command's exit code."""
    from symcone import cli

    codes = {}
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        for name, argv, files in COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                codes[name] = cli.main([a.replace(OUT, str(out)) for a in argv])
            for f in files:
                if f.endswith(".stdout"):
                    (out / f).write_text(stdout.getvalue())
    finally:
        os.chdir(cwd)
    return codes


def write_operands(out: Path) -> None:
    """The desk session's ``norm`` operands at seed 1."""
    from symcone.algebra import descriptor_from_spec, element_to_json, random_element

    rng = np.random.default_rng(np.random.SeedSequence(list(OPERAND_SEED)))
    for name, spec in (("lyap.json", "sym:3"), ("quad.json", "sum:sym:2+spin:3")):
        x = random_element(descriptor_from_spec(spec), rng, 2.0)
        (out / name).write_text(json.dumps(element_to_json(x)) + "\n")
    G = rng.normal(0.0, 1.0, (3, 3))
    rows = [",".join(repr(float(v)) for v in row) for row in G.T @ G]
    (out / "schur.csv").write_text("\n".join(rows) + "\n")


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    write_operands(GOLDEN)
    codes = generate(GOLDEN)
    (GOLDEN / "exit-codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
