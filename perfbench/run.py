"""Benchmark of symcone: end-to-end throughput of three desk workloads, and
per-layer time and counts from a separate traced run.

    python3 perfbench/run.py --workload sweep-cone --seed 1 --seconds 60 --trace 0

Run it from the root of a symcone checkout; it imports the package from that
checkout's ``src/`` and exits with code 2, printing no result, when there is
none.  One client in one thread calls the package in a closed loop, in
rounds of fixed work (see ``workloads.py``), until ``--seconds`` have passed.

BENCHMARK.json gates sweep-cone and desk.  prospect-scan runs the same way
but is left out of the gated set: on a shared 2-vCPU VM its throughput
spread between 40-second runs (quartile distance 0.27 of the median over ten
seeds) exceeds the largest regression bound a gated metric may have.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median wall time of fresh processes that import symcone, warm
               the kernels and set the workload up (descriptors, standard
               frames, input files)
  items_per_s  items over measured time: samples/s on sweep-cone, (A, b)
               tests/s on prospect-scan, CLI commands/s on desk (a session
               is eight commands, so this is 8 / session time)
  peak_rss_mb  peak resident memory of the benchmark process

``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics from the traced ones (see ``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the metrics under their workload-specific names, the error
ratio and the parity digest.  Outputs go to ``.perfbench/`` in the checkout:
the desk's reports, ``parity-<workload>-<seed>.json`` and, for traced runs,
``trace-<workload>.npz`` with every span.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = Path(".perfbench")
ACCEPTANCE_SEED = 20260809
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("sweep-cone", "prospect-scan", "desk")
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def bootstrap() -> None:
    """Import symcone from this checkout's src/, or exit with code 2.

    BLAS/OpenMP pools would add threads beyond the single client, so they are
    fixed to one first: numpy reads these variables when it is imported.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    pkg = SRC / "symcone"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no symcone sources at {pkg}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import symcone

    return {
        "backend": symcone.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas_threads(),
    }


def make_workload(name: str, seed: int, workdir: Path = WORKDIR):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


def setup_probe(args) -> None:
    """Everything a fresh process does before its first timed round."""
    from symcone import _kernels

    _kernels.warm_up()
    make_workload(args.workload, args.seed, WORKDIR / "setup-probe").setup()


def time_setup(args) -> float:
    """Wall time of one fresh process running :func:`setup_probe`."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls with growing sleeps and the
    # measured time snaps to the polling grid
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_rounds(workload, ledger, seconds: float, tracer=None, probe=None):
    """Warm-up round, then rounds until ``seconds`` have passed.

    With a tracer, odd rounds are traced and even rounds are not, so the
    overhead ratio compares rounds measured side by side.  Each round's
    parity record must equal the warm-up round's.  ``probe`` runs
    SETUP_REPEATS times between rounds, spread over the interval, so set-up
    is timed under the same host load as the rounds.
    """
    _, reference = workload.round(ledger)
    plain, traced, setups = [], [], []
    begin = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - begin < seconds:
        due = len(setups) * seconds / SETUP_REPEATS
        if probe is not None and len(setups) < SETUP_REPEATS \
                and time.perf_counter() - begin >= due:
            setups.append(probe())
        if tracer is not None and i % 2 == 1:
            lo = len(tracer)
            with tracer.installed():
                t0 = time.perf_counter()
                items, parity = workload.round(ledger, tracer)
                wall = time.perf_counter() - t0
            traced.append({"lo": lo, "hi": len(tracer), "wall": wall,
                           "counters": tracer.take_counters()})
        else:
            t0 = time.perf_counter()
            items, parity = workload.round(ledger)
            wall = time.perf_counter() - t0
            plain.append((items, wall))
        ledger.attempted += 1
        if parity != reference:
            diff = sorted(k for k in reference.keys() | parity.keys()
                          if reference.get(k) != parity.get(k))
            ledger.fail(f"parity of round {i}", f"differs from warm-up in {diff[:5]}")
        i += 1
    while probe is not None and len(setups) < SETUP_REPEATS:
        setups.append(probe())
    return reference, plain, traced, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args)
        return 0

    from symcone import _kernels
    from tracing import Tracer, layer_metric_specs, per_layer_metrics
    from workloads import Ledger

    _kernels.warm_up()
    workload = make_workload(args.workload, args.seed)
    workload.setup()
    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else (lambda: time_setup(args))
    parity, plain, traced, setup_times = run_rounds(workload, ledger, args.seconds,
                                                    tracer, probe)

    env = environment()
    WORKDIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "parity": parity}
    text = json.dumps(record, sort_keys=True, indent=1)
    (WORKDIR / f"parity-{args.workload}-{args.seed}.json").write_text(text + "\n")
    digest = hashlib.sha256(json.dumps(parity, sort_keys=True).encode()).hexdigest()

    items = sum(n for n, _ in plain)
    wall = sum(w for _, w in plain)
    rate = items / wall
    round_s = statistics.median(w for _, w in plain)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds of {plain[0][0]} {workload.item}")
    print(f"{workload.throughput}: {rate:.6g} {workload.item}/s")
    if args.workload == "desk":
        print(f"desk_session_s: {round_s:.6g} s (median session)")
    print(f"error_ratio: {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed}/{ledger.attempted})")
    for err in ledger.errors:
        print(f"failed: {err}")
    print(f"parity sha256: {digest}")

    if args.trace:
        metrics = per_layer_metrics(tracer, traced, [w for _, w in plain])
        specs = layer_metric_specs()
        tracer.save(WORKDIR / f"trace-{args.workload}.npz")
        print(f"spans: {len(tracer)}, uncovered share "
              f"{metrics['trace.uncovered_ratio']:.4f}, traced/untraced round time "
              f"{metrics['trace.overhead_ratio']:.4f}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": rate,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = END_TO_END
    out = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
