"""Rewrite the golden reports under ``tests/data/golden/``.

    PYTHONPATH=src python3 tests/regen_golden.py

The golden files are the outputs of the desk's ``verify`` and ``norm``
commands (the same command lines as perfbench's desk session at seed 1),
their operands, and ``fingerprint.json``: the numpy version and the numpy
SIMD targets active on the host that wrote them, since the bits of a report
depend on both.  ``test_golden.py`` runs the same commands through
``cli.main`` (:func:`generate`) and compares.  A change that moves these
bytes on purpose runs this script and names each changed file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SEED = "1"
OPERAND_SEED = (1, 0xDE5C)  # the desk session's operand generator at seed 1

# (report file, argv without --out); operands are named relative to GOLDEN,
# so a report's config reads the same wherever it is written
COMMANDS = (
    ("verify-sym4.json", ["verify", "--alg", "sym:4", "--samples", "20", "--seed", SEED]),
    *((f"norm-{kind}.json", ["norm", "--kind", kind, "--operand", operand, *extra,
                             "--r", r, "--s", s, "--budget", "200", "--seed", SEED])
      for kind, operand, extra, r, s in (
          ("lyap", "lyap.json", [], "inf", "2"),
          ("quad", "quad.json", [], "2", "inf"),
          ("schur", "schur.csv", ["--alg", "sym:3"], "3", "2"),
      )),
)


def fingerprint() -> dict:
    """The numpy version and the SIMD dispatch targets active in this process."""
    from numpy._core import _multiarray_umath as umath

    return {"numpy": np.__version__,
            "cpu_dispatch": [t for t in umath.__cpu_dispatch__
                             if umath.__cpu_features__.get(t)]}


def generate(out: Path) -> dict[str, int]:
    """Run every golden command through ``cli.main`` with its report written
    to ``out``; returns each report's exit code."""
    from symcone import cli

    codes = {}
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        for name, argv in COMMANDS:
            codes[name] = cli.main([*argv, "--out", str(out / name)])
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
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=2) + "\n")
    print(json.dumps(codes, indent=2), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
