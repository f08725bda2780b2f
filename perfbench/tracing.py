"""Span tracer that wraps symcone's public functions from outside the package.

``Tracer.installed()`` replaces each traced function with a wrapper in every
``symcone`` module that binds it -- the defining module and every
``from ... import`` binding alike -- and restores the originals on exit.  A
wrapper records one span per call: name, start, end and parent span.  All
spans under one outermost span share an operation id; the outermost span is
one ``run_sweep``, one ``search.sweep`` or one CLI command opened with
``Tracer.span``.

Spans are kept in flat in-memory arrays and written out once, at the end of
a run.  The time a wrapper spends on its own bookkeeping (including the
result hooks below) is stored per span as ``shadow`` and is excluded from the
parent's self time, so self times measure the package, not the tracer.

Result hooks collect the counters that spans cannot carry:

* kernels: matrix size, batch size and the returned off-diagonal residual
  divided by the convergence threshold;
* ``search.sweep``: confirmed violations;
* ``verifiers.merge_reports``: witness elements kept in the per-sample
  reports.
"""

from __future__ import annotations

import importlib
import math
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer name -> (module under symcone, traced public functions)
LAYERS = {
    "kernels": ("_kernels", ("jacobi_eigh", "jacobi_vals", "jacobi_vals_batch")),
    "algebra": ("algebra", ("jordan_product", "element_to_json",
                            "element_from_json", "random_element")),
    "spectral": ("spectral", ("spectral_decompose", "eigvals", "rebuild",
                              "sym_eigen", "sym_eigvals_batch")),
    "transforms": ("transforms", ("quad_rep", "quad_rep_sqrt", "schur",
                                  "peirce_project", "apply_sublinear")),
    "majorization": ("majorization", ("log_major", "weak_major", "major")),
    "verifiers": ("verifiers", ("run_sweep", "merge_reports", "sample_cone",
                                "sample_general", "check_log_major_quadrep",
                                "check_jordan_weak", "check_schur_diag")),
    "norms": ("norms", ("norm_closed_form", "norm_empirical")),
    "search": ("search", ("sweep", "test_candidate", "test_candidate_cone",
                          "write_archive", "read_archive", "replay_record")),
}

# spans the benchmark opens itself around ``cli.main``
CLI_COMMANDS = ("verify", "norm", "prospect", "replay")

KERNEL_KINDS = {"jacobi_eigh": "eigh", "jacobi_vals": "vals",
                "jacobi_vals_batch": "vals_batch"}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]


def _kernel_hook(kind: str):
    def hook(counters, args, result, seconds):
        M, tol = args[0], args[1]
        if kind == "vals_batch":
            m, n = M.shape[0], M.shape[1]
            norms = np.sqrt((M * M).sum(axis=(1, 2)))
            ratio = float((result[1] / (tol * np.maximum(norms, 1.0))).max())
            counters[f"kernels.vals_batch.matrices.n{n}"] += m
        else:
            n = M.shape[0]
            ratio = result[-1] / (tol * max(math.sqrt(float((M * M).sum())), 1.0))
        counters[f"kernels.{kind}.calls.n{n}"] += 1
        counters[f"kernels.{kind}.seconds.n{n}"] += seconds
        key = f"kernels.{kind}.max_off_ratio"
        counters[key] = max(counters[key], ratio)
    return hook


def _sweep_hook(counters, args, result, seconds):
    counters["search.violations"] += len(result.violations)


def _merge_hook(counters, args, result, seconds):
    reports = args[3]
    counters["verifiers.witness_elements_kept"] += sum(
        1 for r in reports if r.witness
        for v in r.witness.values() if isinstance(v, dict) and "coords" in v
    )


HOOKS = {f"kernels.{fn}": _kernel_hook(kind) for fn, kind in KERNEL_KINDS.items()}
HOOKS["search.sweep"] = _sweep_hook
HOOKS["verifiers.merge_reports"] = _merge_hook


class Tracer:
    """In-memory span recorder plus the patching of traced bindings."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.shadow = array("d")
        self.counters: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._ops = 0
        self._patched: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- recording -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        stack = self._stack
        if stack:
            parent = stack[-1]
            op = self.op[parent]
        else:
            parent = -1
            op = self._ops
            self._ops += 1
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.shadow.append(0.0)
        stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self.name_id(name)
        hook = HOOKS.get(name)
        open_span = self._open
        stack = self._stack
        starts, ends, shadows = self.start, self.end, self.shadow
        counters = self.counters

        def traced(*args, **kwargs):
            t_in = perf_counter()
            idx = open_span(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, args, result, t1 - t0)
            shadows[idx] = (t0 - t_in) + (perf_counter() - t1)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (used around CLI commands)."""
        idx = self._open(self.name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def take_counters(self) -> dict:
        out = dict(self.counters)
        self.counters.clear()
        return out

    # --- patching --------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "symcone" or key.startswith("symcone."))]
        try:
            for layer, (modname, fns) in LAYERS.items():
                home = importlib.import_module(f"symcone.{modname}")
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{layer}.{fn_name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(self._patched):
                setattr(mod, attr, original)
            self._patched.clear()

    # --- analysis ---------------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Copies of spans [lo, hi) as numpy arrays, parents rebased to the
        slice.  (A view would stop the recording arrays from growing.)"""
        hi = len(self) if hi is None else hi
        out = {key: np.array(getattr(self, key)[lo:hi])
               for key in ("name", "parent", "op", "start", "end", "shadow")}
        out["parent"] = np.where(out["parent"] >= 0, out["parent"] - lo, -1)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the time its child spans (and their tracer
    bookkeeping) cover.  Children of one parent never overlap, because one
    thread records them in call order."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent],
                          weights=(dur + spans["shadow"])[has_parent],
                          minlength=len(dur))
    return dur - covered


def count_within(spans: dict, child: int, ancestor: int) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    parent = spans["parent"]
    names = spans["name"]
    idx = np.nonzero(names == child)[0]
    found = np.zeros(len(idx), dtype=bool)
    cur = parent[idx]
    while True:
        live = cur >= 0
        if not live.any():
            return int(found.sum())
        found |= live & (names[np.where(live, cur, 0)] == ancestor)
        cur = np.where(live & ~found, parent[np.where(live, cur, 0)], -1)


# --- per-layer metrics ---------------------------------------------------------

KERNEL_SIZES = {"eigh": (2, 3, 4, 5), "vals": (2, 3, 4, 5), "vals_batch": (3, 4, 5)}


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for name in traced_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
    for kind, sizes in KERNEL_SIZES.items():
        per = "us_per_matrix" if kind == "vals_batch" else "us_per_call"
        specs += [(f"kernels.{kind}.{per}.n{n}", "us", "lower") for n in sizes]
    specs += [(f"kernels.{kind}.max_off_ratio", "ratio", "lower") for kind in KERNEL_SIZES]
    specs += [
        ("verifiers.witness_kept_ratio", "ratio", "higher"),
        ("search.suspects", "count", "lower"),
        ("search.violations", "count", "higher"),
        ("search.confirm_ratio", "ratio", "higher"),
    ]
    specs += [(f"cli.{cmd}.s", "s", "lower") for cmd in CLI_COMMANDS]
    specs += [
        ("cli.bytes_written", "B", "lower"),
        ("trace.uncovered_ratio", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(tracer: Tracer, traced: list[dict],
                      untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer values from traced rounds.

    Each entry of ``traced`` holds one round's span range ``lo``/``hi``, its
    wall time ``wall`` and the counters the hooks collected in it.  Counts are
    per round (every round repeats the same inputs, so they are exact);
    times are medians over rounds.  A layer the workload never calls reads 0.
    """
    names = traced_names()
    ids = {name: tracer.name_id(name) for name in names}
    for cmd in CLI_COMMANDS:
        ids[f"cli.{cmd}"] = tracer.name_id(f"cli.{cmd}")
    width = len(tracer.names)
    calls, selfs, totals = [], [], []
    per_round = defaultdict(list)
    covered = 0.0
    for rnd in traced:
        spans = tracer.arrays(rnd["lo"], rnd["hi"])
        dur = spans["end"] - spans["start"]
        calls.append(np.bincount(spans["name"], minlength=width))
        selfs.append(np.bincount(spans["name"], weights=self_times(spans), minlength=width))
        totals.append(np.bincount(spans["name"], weights=dur, minlength=width))
        covered += float(dur[spans["parent"] < 0].sum())
        per_round["suspects"].append(
            count_within(spans, ids["search.test_candidate"], ids["search.sweep"])
            + count_within(spans, ids["search.test_candidate_cone"], ids["search.sweep"]))
        per_round["serialized"].append(
            count_within(spans, ids["algebra.element_to_json"], ids["verifiers.run_sweep"]))
        for key in ("search.violations", "verifiers.witness_elements_kept", "cli.bytes_written"):
            per_round[key].append(rnd["counters"].get(key, 0.0))
    calls, selfs, totals = np.array(calls), np.array(selfs), np.array(totals)

    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = _median(calls[:, ids[name]])
        out[f"{name}.self_s"] = _median(selfs[:, ids[name]])

    merged = defaultdict(float)
    for rnd in traced:
        for key, value in rnd["counters"].items():
            if key.endswith("max_off_ratio"):
                merged[key] = max(merged[key], value)
            else:
                merged[key] += value
    for kind, sizes in KERNEL_SIZES.items():
        per, unit_key = (("us_per_matrix", "matrices") if kind == "vals_batch"
                         else ("us_per_call", "calls"))
        for n in sizes:
            count = merged[f"kernels.{kind}.{unit_key}.n{n}"]
            seconds = merged[f"kernels.{kind}.seconds.n{n}"]
            out[f"kernels.{kind}.{per}.n{n}"] = 1e6 * seconds / count if count else 0.0
        out[f"kernels.{kind}.max_off_ratio"] = merged[f"kernels.{kind}.max_off_ratio"]

    kept = _median(per_round["verifiers.witness_elements_kept"])
    serialized = _median(per_round["serialized"])
    out["verifiers.witness_kept_ratio"] = kept / serialized if serialized else 0.0
    suspects = _median(per_round["suspects"])
    violations = _median(per_round["search.violations"])
    out["search.suspects"] = suspects
    out["search.violations"] = violations
    out["search.confirm_ratio"] = violations / suspects if suspects else 0.0
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = _median(totals[:, ids[f"cli.{cmd}"]])
    out["cli.bytes_written"] = _median(per_round["cli.bytes_written"])

    wall = sum(rnd["wall"] for rnd in traced)
    out["trace.uncovered_ratio"] = 1.0 - covered / wall if wall else 0.0
    base = _median(untraced_walls)
    out["trace.overhead_ratio"] = _median([r["wall"] for r in traced]) / base if base else 0.0
    return out
