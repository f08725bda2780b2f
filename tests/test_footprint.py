"""Which modules a command loads.

Each case runs in a fresh interpreter, since a module once imported stays
in ``sys.modules``.  The package never uses ``numpy.ma`` (about 1.3 MB of
resident memory and 14 ms to import), and ``np.unique`` imports it under
numpy 2.x; ``numpy.random`` is loaded by the first command that draws
samples, and ``fractions`` by the first log-majorization row whose products
leave the float range.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARCHIVE = ROOT / "tests" / "data" / "zero_diag_archive.jsonl"

# runs the commands given as a JSON list of argv lists, then prints which of
# the watched modules are loaded as its last line of output
PROBE = """
import json, sys
import symcone
from symcone import cli
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"exit {rc} from {argv}")
print(json.dumps([m for m in ("numpy.ma", "numpy.random", "fractions") if m in sys.modules]))
"""


def _loaded(commands: list, cwd: Path) -> set:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)], cwd=cwd,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_masked_arrays_random_or_fractions(tmp_path):
    assert _loaded([], tmp_path) == set()


def test_desk_commands_leave_masked_arrays_unloaded(tmp_path):
    (tmp_path / "lyap.json").write_text(
        '{"kind": "sym", "n": 3, "coords": [1.5, -0.25, 0.5, 2.0, 0.75, -1.0]}\n')
    (tmp_path / "quad.json").write_text(
        '{"kind": "sum", "factors": [{"kind": "sym", "n": 2}, {"kind": "spin", "n": 3}],'
        ' "coords": [1.0, 0.5, -2.0, 3.0, 1.0, -0.5]}\n')
    (tmp_path / "schur.csv").write_text("2.0,0.5,0.25\n0.5,1.5,-0.5\n0.25,-0.5,1.0\n")
    seed = ["--seed", "1"]
    commands = [
        ["verify", "--alg", "sym:4", "--samples", "20", *seed, "--out", "v.json"],
        ["verify", "--alg", "sum:sym:2+spin:3", "--samples", "20", *seed,
         "--format", "csv", "--out", "v.csv"],
        *(["norm", "--kind", kind, "--operand", operand, *extra, "--r", r, "--s", s,
           "--budget", "200", *seed, "--out", f"norm-{kind}.json"]
          for kind, operand, extra, r, s in (("lyap", "lyap.json", [], "inf", "2"),
                                             ("quad", "quad.json", [], "2", "inf"),
                                             ("schur", "schur.csv", ["--alg", "sym:3"], "3", "2"))),
        ["prospect", "--family", "random_sym", "--zero-diag", "--alg", "sym:3",
         "--budget", "40", "--samples", "25", *seed, "--out", "zero-diag"],
        ["prospect", "--replay", "zero-diag.jsonl"],
    ]
    assert "numpy.ma" not in _loaded(commands, tmp_path)
    assert (tmp_path / "zero-diag.jsonl").stat().st_size > 0  # the replay had records


def test_replay_and_repro_example_draw_no_samples(tmp_path):
    commands = [["prospect", "--replay", str(ARCHIVE)], ["repro-example", "--out", "r.json"]]
    assert "numpy.random" not in _loaded(commands, tmp_path)
