"""Tests of the benchmark itself: span arithmetic, patching, count invariants.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import symcone  # noqa: E402
from symcone import _kernels, cli, norms, search, spectral, verifiers  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    count_within,
    layer_metric_specs,
    per_layer_metrics,
    self_times,
)
import workloads  # noqa: E402
from workloads import Desk, Ledger, ProspectScan, SweepCone  # noqa: E402


def spans_of(rows):
    """rows: (name, parent, start, end, shadow)"""
    cols = list(zip(*rows))
    return {
        "name": np.array(cols[0]),
        "parent": np.array(cols[1]),
        "start": np.array(cols[2], dtype=float),
        "end": np.array(cols[3], dtype=float),
        "shadow": np.array(cols[4], dtype=float),
    }


def test_self_time_subtracts_children_and_their_bookkeeping():
    spans = spans_of([
        (0, -1, 0.0, 10.0, 0.0),   # root
        (1, 0, 1.0, 4.0, 0.5),     # child, 0.5 s of tracer bookkeeping
        (1, 0, 5.0, 9.0, 0.0),     # child with a grandchild
        (2, 2, 6.0, 7.0, 0.25),    # grandchild
        (0, -1, 20.0, 21.0, 0.0),  # second root, no children
    ])
    np.testing.assert_allclose(self_times(spans), [2.5, 3.0, 2.75, 1.0, 1.0])


def test_count_within_follows_every_ancestor():
    spans = spans_of([
        (0, -1, 0, 9, 0),  # ancestor
        (1, 0, 1, 8, 0),
        (2, 1, 2, 3, 0),   # child two levels below the ancestor
        (2, -1, 10, 11, 0),  # child with no ancestor
        (2, 0, 4, 5, 0),   # child directly below
    ])
    assert count_within(spans, 2, 0) == 2
    assert count_within(spans, 1, 0) == 1
    assert count_within(spans, 0, 2) == 0


def test_recorded_spans_nest_and_cover_their_parents():
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("cli.verify"):
            verifiers.run_sweep("log_major_quadrep", symcone.SymMatrix(2), 3, 1)
    spans = tracer.arrays()
    assert (spans["op"] == 0).all()
    selfs = self_times(spans)
    assert (selfs >= 0).all()
    root = spans["end"][0] - spans["start"][0]
    assert selfs.sum() + spans["shadow"][1:].sum() == pytest.approx(root, rel=1e-9)


def test_patched_bindings_are_restored():
    bindings = [(spectral, "eigvals"), (verifiers, "eigvals"), (search, "eigvals"),
                (norms, "eigvals"), (symcone, "eigvals"), (_kernels, "jacobi_eigh"),
                (cli, "sweep"), (cli, "write_archive"), (verifiers, "run_sweep")]
    before = [getattr(mod, attr) for mod, attr in bindings]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            wrapped = [getattr(mod, attr) for mod, attr in bindings]
            assert all(w is not b for w, b in zip(wrapped, before))
            assert wrapped[0] is wrapped[1] is wrapped[2] is wrapped[3] is wrapped[4]
            symcone.eigvals(symcone.unit(symcone.SymMatrix(2)))
            raise RuntimeError("leave the traced block by an exception")
    assert all(getattr(mod, attr) is b for (mod, attr), b in zip(bindings, before))
    assert tracer.names[tracer.name[0]] == "spectral.eigvals"


def traced_round(workload):
    """Untraced warm-up and round, then one traced round; per-layer metrics."""
    workload.setup()
    ledger = Ledger()
    tracer = Tracer()
    _, plain, traced, _ = run.run_rounds(workload, ledger, 0.0, tracer)
    assert ledger.failed == 0, ledger.errors
    assert len(traced) == 1
    return per_layer_metrics(tracer, traced, [w for _, w in plain])


def test_sweep_cone_counts_three_solves_of_each_kind_per_sym_sample(tmp_path):
    m = traced_round(SweepCone(5, tmp_path))
    # the Jacobi kernels run on the Sym factors only: sym:2..5 and sum:sym:2+spin:3
    with_sym = sum(1 for spec in workloads.SWEEP_ALGEBRAS if "sym" in spec)
    samples = workloads.SWEEP_SAMPLES
    assert m["kernels.jacobi_eigh.calls"] == 3 * samples * with_sym
    assert m["kernels.jacobi_vals.calls"] == 3 * samples * with_sym
    assert m["kernels.jacobi_vals_batch.calls"] == 0
    assert m["verifiers.run_sweep.calls"] == len(workloads.SWEEP_ALGEBRAS)
    assert m["verifiers.witness_kept_ratio"] == 0.0
    assert m["algebra.element_to_json.calls"] == \
        2 * samples * len(workloads.SWEEP_ALGEBRAS)
    assert all(m[f"kernels.eigh.us_per_call.n{n}"] > 0 for n in (2, 3, 4, 5))
    assert 0 < m["kernels.eigh.max_off_ratio"] <= 1.0


def test_prospect_scan_has_no_suspects(tmp_path):
    m = traced_round(ProspectScan(5, tmp_path))
    assert m["search.suspects"] == 0
    assert m["search.violations"] == 0
    assert m["search.test_candidate.calls"] == m["search.test_candidate_cone.calls"] == 0
    sweeps = 3 * 3 * 2  # families x algebras x problems
    assert m["search.sweep.calls"] == sweeps
    # one batch for the elements b, one for the products A . b, per candidate
    assert m["kernels.jacobi_vals_batch.calls"] == sweeps * workloads.SCAN_CANDIDATES * 2
    assert m["kernels.jacobi_eigh.calls"] == m["kernels.jacobi_vals.calls"] == 0
    assert all(m[f"kernels.vals_batch.us_per_matrix.n{n}"] > 0 for n in (3, 4, 5))


def test_zero_diag_prospect_confirms_every_test(tmp_path):
    tracer = Tracer()
    argv = ["prospect", "--family", "random_sym", "--zero-diag", "--alg", "sym:3",
            "--budget", "3", "--samples", "4", "--seed", "9",
            "--out", str(tmp_path / "zd")]
    with tracer.installed(), tracer.span("cli.prospect"):
        assert cli.main(argv) == 0
    rnd = {"lo": 0, "hi": len(tracer), "wall": 1.0, "counters": tracer.take_counters()}
    m = per_layer_metrics(tracer, [rnd], [1.0])
    assert m["search.suspects"] == m["search.violations"] == 12
    assert m["search.confirm_ratio"] == 1.0
    assert m["search.write_archive.calls"] == 1


def test_desk_session_is_correct_and_byte_identical(tmp_path):
    # a second, separately set-up session must write byte-identical files;
    # traced_round checks that rounds within one session agree as well
    desk = Desk(3, tmp_path)
    desk.setup()
    ledger = Ledger()
    items, first = desk.round(ledger)
    assert ledger.failed == 0, ledger.errors
    assert items == 8
    assert len([k for k in first if k.startswith("sha256 ")]) == 9
    m = traced_round(Desk(3, tmp_path))
    assert Desk(3, tmp_path).parity()[0] == first
    assert m["cli.bytes_written"] > 0
    assert all(m[f"cli.{cmd}.s"] > 0 for cmd in ("verify", "norm", "prospect", "replay"))


def test_benchmark_json_lists_what_the_runner_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layer_metric_specs()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
