"""Structured search over Schur multiplier matrices for the open question of
which A satisfy lambda(|A . b|) weakly majorized by lambda(|diag A|)*lambda(|b|).

Candidate families cover the known-good territory (PSD Gram matrices, the
multiplication-operator form [(a_i+a_j)/2] and the quadratic form [a_i a_j],
built by :func:`transforms.lyap_multiplier` and
:func:`transforms.quad_multiplier`) and the known-bad territory
(zero-diagonal symmetric matrices), plus free symmetric and
rank-one-perturbed samples in between.  Each family draws at one fixed
scale; ``FamilySpec.zero_diag`` is its only setting, read by ``random_sym``
alone.  Violations are certified by a stored witness that replays exactly;
absence of violations is reported as evidence only, never as a claim.

Every margin comes from one batched computation, :func:`_margins`, with one
input form: an (m, dim) stack of elements b, a checked stack of multipliers
(:func:`transforms.multiplier_stack`) and an owner index naming the
multiplier of each row.  In chunks of ``MARGIN_CHUNK`` rows it builds the
Schur products of the multipliers the chunk uses as matrices from a frame's
Peirce projectors, takes the eigenvalues of the products and of the elements
in one call, and decides weak majorization row by row.  Each row's
arithmetic depends on that row and its multiplier alone, so a margin has the
same bits whether it is computed in a sweep, in a replay batch or on its
own.  Each caller states only its own layout: :func:`sweep` runs groups of
candidates, up to ``MARGIN_CHUNK`` elements (at least one candidate), as one
call whose row r belongs to candidate r // n_b, and keeps the margin and
verdict of every row directly; :func:`test_candidate` is a batch of one; and
:func:`replay_records` reruns an archive by algebra and problem, in batches
of up to ``MARGIN_CHUNK`` records, one multiplier per row.
The search frame of a sweep is always the standard frame of the algebra.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    _JSON_NUMBERS,
    AlgebraDescriptor,
    DescriptorMismatchError,
    Element,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_json,
    element_to_json,
    jordan_product_coords,
    row_sum,
)
from .majorization import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    sort_desc_rows,
    weak_major_rows,
)
# ``eigvals`` is not called here; it stays bound because the benchmark's
# tracer self-test (perfbench/test_perfbench.py) patches ``search.eigvals``
from .spectral import JordanFrame, eigvals, eigvals_batch, standard_frame  # noqa: F401
from .transforms import (
    MultiplierError,
    frame_multiplier,
    lyap_multiplier,
    multiplier_stack,
    peirce_projectors,
    quad_multiplier,
    schur_stack,
)
from .verifiers import GENERAL_SIGMA, sample_rngs

FAMILIES = (
    "psd_gram",
    "lyapunov_form",
    "quadratic_form",
    "random_sym",
    "rank_one_perturbed",
)

PROBLEMS = ("general", "cone")

VERDICTS = ("violated", "satisfied")

# rows per batch in _margins, which bounds its (rows, dim, dim) products and
# its eigensolves; a sweep stacks as many candidates' elements as fit (at
# least one candidate) into one _margins call, and a replay builds one chunk
# of records at a time.  The eigensolver's cost per row falls with the rows
# of a call, and a row's bits do not depend on its stack
MARGIN_CHUNK = 1024

# one encoder for every archive line: json.dumps(obj, sort_keys=True) without
# building an encoder per record
_ARCHIVE_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class FamilySpec:
    family: str
    n: int
    zero_diag: bool = False  # random_sym only: force a zero diagonal

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.n < 1:
            raise ValueError("candidate size must be >= 1")


def generate_candidate(spec: FamilySpec, rng: np.random.Generator) -> np.ndarray:
    """One symmetric candidate matrix from the family."""
    n = spec.n
    if spec.family == "psd_gram":
        G = rng.normal(0.0, 1.0, (n, n))
        return G.T @ G
    if spec.family == "lyapunov_form":
        return lyap_multiplier(rng.normal(0.0, 2.0, n)).entries
    if spec.family == "quadratic_form":
        return quad_multiplier(rng.normal(0.0, 2.0, n)).entries
    if spec.family == "random_sym":
        G = rng.normal(0.0, 1.0, (n, n))
        A = (G + G.T) / 2.0
        if spec.zero_diag:
            np.fill_diagonal(A, 0.0)
        return A
    if spec.family == "rank_one_perturbed":
        G = rng.normal(0.0, 1.0, (n, n))
        base = G.T @ G
        u = rng.normal(0.0, 1.0, n)
        u /= max(float(np.linalg.norm(u)), 1e-12)
        return base - 0.5 * np.outer(u, u)
    raise ValueError(f"unknown family {spec.family!r}")


@dataclass
class SearchRecord:
    family: str | None  # None for a multiplier tested outside a family sweep
    descriptor: str
    seed: int | None
    entries: np.ndarray
    b_witness: Element
    margin: float
    verdict: str  # one of VERDICTS
    problem: str  # "general" | "cone"

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "descriptor": self.descriptor,
            "seed": self.seed,
            "A": np.asarray(self.entries, dtype=np.float64).tolist(),
            "b": element_to_json(self.b_witness),
            "margin": float(self.margin),
            "verdict": self.verdict,
            "problem": self.problem,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchRecord":
        if not isinstance(obj, dict):
            raise ValueError(f"a record must be a JSON object, got {type(obj).__name__}")
        spec, verdict = obj["descriptor"], obj["verdict"]
        problem = obj.get("problem", "general")
        if not all(type(v) is str for v in (spec, verdict, problem)):
            raise ValueError(f"descriptor, verdict and problem must be strings, "
                             f"got {spec!r}, {verdict!r}, {problem!r}")
        if problem not in PROBLEMS:
            raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}; known: {VERDICTS}")
        descriptor_from_spec(spec)  # reject an unparseable spec here
        family, seed, A, margin = obj["family"], obj.get("seed"), obj["A"], obj["margin"]
        if type(family) not in (str, type(None)) or type(seed) not in (int, type(None)):
            raise ValueError(f"family must be a string or null and seed an integer or "
                             f"null (not a bool), got {family!r}, {seed!r}")
        if not (type(A) is list and all(type(row) is list and _JSON_NUMBERS.issuperset(
                map(type, row)) for row in A)):
            raise ValueError("multiplier A must be a JSON array of arrays of numbers")
        if type(margin) not in _JSON_NUMBERS or not math.isfinite(margin):
            raise ValueError(f"margin must be a finite JSON number, got {margin!r}")
        return cls(
            family=family,
            descriptor=spec,
            seed=seed,
            entries=np.asarray(A, dtype=np.float64),
            b_witness=element_from_json(obj["b"]),
            margin=float(margin),
            verdict=verdict,
            problem=problem,
        )


@lru_cache(maxsize=None)
def _standard_projectors(d: AlgebraDescriptor) -> np.ndarray:
    P = peirce_projectors(standard_frame(d))
    P.flags.writeable = False
    return P


def _projectors(frame: JordanFrame) -> np.ndarray:
    """Peirce projectors of a frame; the standard frame's are cached."""
    d = frame.descriptor
    if frame == standard_frame(d):
        return _standard_projectors(d)
    return peirce_projectors(frame)


def _margins(d: AlgebraDescriptor, P: np.ndarray, E: np.ndarray, owner,
             coords: np.ndarray, problem: str, atol: float,
             rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Weak-majorization margins and verdicts of the rows of ``coords``.

    ``coords`` is an (m, dim) stack of elements b, ``E`` a checked (k, rank,
    rank) multiplier stack (:func:`transforms.multiplier_stack`) acting on
    the frame whose Peirce projectors are ``P``, and ``owner`` an (m,)
    index: row r is tested against ``E[owner[r]]``.  The general problem
    compares lambda(|A . b|) with lambda(|diag A|)*lambda(|b|), the cone
    problem lambda(A . b) with lambda(|diag A|)*lambda(b) and rejects a b
    outside the cone.

    Rows run in chunks of ``MARGIN_CHUNK``; a chunk builds the Schur
    matrices (:func:`transforms.schur_stack`) and lambda(|diag A|) of the
    slice of ``E`` its owners span, which a non-decreasing ``owner`` (every
    caller's) keeps within the chunk.  A row's result depends on that row
    and its multiplier alone: a multiplier's Schur matrix has the same bits
    in any stack, the product A . b is formed entrywise and summed by
    :func:`algebra.row_sum` (a BLAS product could block by m), the
    eigensolver treats every row on its own, and the verdict is the scalar
    ``weak_major`` rule.  Returns (margins (m,), verdicts (m,) bool).
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")
    coords, owner = np.asarray(coords, dtype=np.float64), np.asarray(owner)
    margins, holds = np.empty(len(coords)), np.empty(len(coords), dtype=bool)
    for lo in range(0, len(coords), MARGIN_CHUNK):
        rows = slice(lo, lo + MARGIN_CHUNK)
        X, first = coords[rows], owner[rows].min()
        used, own = E[first:owner[rows].max() + 1], owner[rows] - first
        ab = row_sum(schur_stack(used, P)[own] * X[:, None, :])
        dref = sort_desc_rows(np.abs(np.diagonal(used, axis1=1, axis2=2)))[own]
        eig = eigvals_batch(d, np.concatenate([ab, X]))
        eig_ab, eig_b = eig[:len(X)], eig[len(X):]
        if problem == "general":
            lhs, rhs = np.abs(eig_ab), dref * sort_desc_rows(np.abs(eig_b))
        else:
            floor = -1e-8 * np.maximum(np.abs(eig_b).max(axis=1), 1.0)
            outside = np.flatnonzero(eig_b[:, -1] < floor)
            if outside.size:
                raise ValueError(f"b is not in the cone "
                                 f"(min eigenvalue {eig_b[outside[0], -1]:.3e})")
            lhs, rhs = eig_ab, dref * eig_b
        margins[rows], holds[rows] = weak_major_rows(lhs, rhs, atol=atol, rtol=rtol)
    return margins, holds


def _test_one(A, frame: JordanFrame, b: Element, atol: float, rtol: float,
              family: str | None, seed: int | None, problem: str) -> SearchRecord:
    A = frame_multiplier(A, frame, b.descriptor)
    d = b.descriptor
    margins, holds = _margins(d, _projectors(frame), A.entries[None], [0],
                              b.coords[None, :], problem, atol, rtol)
    return SearchRecord(family, descriptor_to_spec(d), seed, A.entries, b,
                        float(margins[0]), "satisfied" if holds[0] else "violated",
                        problem)


def test_candidate(A, frame: JordanFrame, b: Element,
                   atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                   family: str | None = None, seed: int | None = None) -> SearchRecord:
    """Margin of lambda(|A . b|) against lambda(|diag A|)*lambda(|b|)."""
    return _test_one(A, frame, b, atol, rtol, family, seed, "general")


def test_candidate_cone(A, frame: JordanFrame, b: Element,
                        atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                        family: str | None = None, seed: int | None = None) -> SearchRecord:
    """Cone variant: lambda(A . b) against lambda(|diag A|)*lambda(b), b >= 0."""
    return _test_one(A, frame, b, atol, rtol, family, seed, "cone")


def replay_records(records, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                   margin_tol: float = 1e-10) -> list:
    """Recompute records from their serialized data alone.

    Records are grouped by (descriptor, problem) and each group runs on the
    standard frame in chunks of ``MARGIN_CHUNK`` records, so that memory is
    bounded by the chunk, not by the archive.  A chunk's multipliers are
    validated and symmetrized as one stack, which :func:`_margins` takes
    with one multiplier per row.
    Every multiplier of a group is checked before any of its margins is
    computed, and the first bad one raises the message that building it
    alone raises; the chunks after the first are checked once more as they
    are built, which costs less than holding the group's whole stack.
    Returns one (confirmed, recomputed margin) pair per record, in order;
    confirmation requires the same verdict and a margin within margin_tol.
    """
    groups = defaultdict(list)
    for i, rec in enumerate(records):
        groups[rec.descriptor, rec.problem].append(i)
    # record numbers as arrays: a list holds an int object per record
    groups = {key: np.array(idx) for key, idx in groups.items()}
    out = [None] * len(records)
    for (spec, problem), idx in groups.items():
        d = descriptor_from_spec(spec)
        for i in idx.tolist():
            if records[i].b_witness.descriptor != d:
                raise DescriptorMismatchError(
                    f"record {i}: witness of {records[i].b_witness.descriptor} "
                    f"in a record of {spec}")
        starts = range(0, len(idx), MARGIN_CHUNK)
        for lo in starts:  # every multiplier is checked before any margin
            E = multiplier_stack([records[i].entries for i in idx[lo:lo + MARGIN_CHUNK]],
                                 d.rank)
        for lo in starts:
            part = idx[lo:lo + MARGIN_CHUNK].tolist()
            if len(starts) > 1:  # a group of one chunk keeps its checked stack
                E = multiplier_stack([records[i].entries for i in part], d.rank)
            margins, holds = _margins(
                d, _standard_projectors(d), E, np.arange(len(part)),
                np.stack([records[i].b_witness.coords for i in part]),
                problem, atol, rtol)
            for i, margin, ok in zip(part, margins.tolist(), holds.tolist()):
                rec = records[i]
                verdict = "satisfied" if ok else "violated"
                out[i] = (verdict == rec.verdict and abs(margin - rec.margin) <= margin_tol,
                          margin)
    return out


def replay_record(record: SearchRecord,
                  atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                  margin_tol: float = 1e-10):
    """:func:`replay_records` of one record: (confirmed, recomputed margin)."""
    return replay_records([record], atol=atol, rtol=rtol, margin_tol=margin_tol)[0]


@dataclass
class SweepResult:
    family: str
    descriptor: str
    n_A: int
    n_b: int
    seed: int
    problem: str
    violations: list
    min_margin: float
    tested: int

    def summary_row(self) -> dict:
        return {
            "family": self.family,
            "n": descriptor_from_spec(self.descriptor).rank,
            "samples": self.tested,
            "violations": len(self.violations),
            "min_margin": self.min_margin,
        }


def _sample_b_coords(d: AlgebraDescriptor, rng: np.random.Generator,
                     n_b: int, problem: str) -> np.ndarray:
    coords = rng.normal(0.0, GENERAL_SIGMA, (n_b, d.dim))
    if problem == "cone":
        x = coords / math.sqrt(GENERAL_SIGMA)
        coords = jordan_product_coords(d, x, x)
    return coords


def sweep(spec: FamilySpec, descriptor: AlgebraDescriptor, n_A: int, n_b: int,
          seed: int, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
          problem: str = "general") -> SweepResult:
    """Test n_A candidates against n_b random elements each.

    Candidate ia draws its multiplier, then its elements, from its own
    generator ``verifiers.sample_rng(seed, ia)``, derived with those of its
    group (:func:`verifiers.sample_rngs`).  Consecutive candidates run in
    groups of as many as fit in ``MARGIN_CHUNK`` elements (at least one):
    the group's multipliers are validated as one stack and all its elements
    run as one :func:`_margins` call on the standard frame, row r against
    candidate r // n_b.  That gives every element the margin and verdict
    :func:`test_candidate` would give it alone.  Every violated element
    becomes a record with its witness, in candidate then element order, so
    that replay is exact; satisfied ones only contribute to the aggregate
    margin.
    """
    if n_A < 1:
        raise ValueError("need at least one candidate")
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    if descriptor.rank != spec.n:
        raise ValueError(
            f"family size {spec.n} does not match algebra rank {descriptor.rank}"
        )
    P = _standard_projectors(descriptor)
    d_spec = descriptor_to_spec(descriptor)
    violations: list[SearchRecord] = []
    min_margin = math.inf
    tested = 0
    if n_b < 1:
        return SweepResult(spec.family, d_spec, n_A, n_b, seed, problem, violations,
                           min_margin, tested)
    group = max(1, MARGIN_CHUNK // n_b)
    for lo in range(0, n_A, group):
        rngs = sample_rngs(seed, range(lo, min(lo + group, n_A)))
        E = multiplier_stack([generate_candidate(spec, rng) for rng in rngs], spec.n)
        coords = np.concatenate([_sample_b_coords(descriptor, rng, n_b, problem)
                                 for rng in rngs])
        margins, holds = _margins(descriptor, P, E, np.arange(len(coords)) // n_b,
                                  coords, problem, atol, rtol)
        for r in np.flatnonzero(~holds):
            violations.append(SearchRecord(
                spec.family, d_spec, seed, E[r // n_b], Element(descriptor, coords[r]),
                float(margins[r]), "violated", problem))
        min_margin = min(min_margin, float(margins.min()))
        tested += len(coords)
    return SweepResult(spec.family, d_spec, n_A, n_b,
                       seed, problem, violations, float(min_margin), tested)


# --- archives -----------------------------------------------------------------------

def write_archive(path, records) -> None:
    """JSON-lines archive, one record per line, keys sorted."""
    with open(path, "w") as fh:
        fh.writelines(_ARCHIVE_ENCODER.encode(rec.to_json()) + "\n" for rec in records)


def read_archive(path) -> list:
    """Records of a JSON-lines archive; a malformed line raises ValueError
    naming its line number.

    A record's multiplier must be one its algebra's replay accepts; the
    multipliers are checked as one stack per rank
    (:func:`transforms.multiplier_stack`) and each record keeps its row of
    the stack, read-only and symmetrized.  Of several malformed lines, the
    first is named.
    """
    out, lines = [], []
    error = None  # (line number, message) of the first line that fails to parse
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(SearchRecord.from_json(json.loads(line)))
            except KeyError as exc:
                error = lineno, f"archive record lacks the field {exc}"
                break
            except (TypeError, ValueError, OverflowError, RecursionError) as exc:
                # OverflowError: an integer beyond the float range;
                # RecursionError: JSON nested deeper than the parser goes
                error = lineno, f"malformed archive record ({exc})"
                break
            lines.append(lineno)
    by_rank = defaultdict(list)
    for i, rec in enumerate(out):
        by_rank[descriptor_from_spec(rec.descriptor).rank].append(i)
    for rank, idx in by_rank.items():
        try:
            E = multiplier_stack([out[i].entries for i in idx], rank)
        except MultiplierError as exc:
            lineno = lines[idx[exc.index]]
            if error is None or lineno < error[0]:
                error = lineno, f"malformed archive record ({exc})"
            continue
        for i, entries in zip(idx, E):
            out[i].entries = entries
    if error is not None:
        raise ValueError(f"{path}, line {error[0]}: {error[1]}")
    return out


def write_summary_csv(path, results) -> None:
    """Aggregate CSV over sweep results: family, n, samples, violations, min_margin."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["family", "n", "samples", "violations", "min_margin"]
        )
        writer.writeheader()
        for res in results:
            writer.writerow(res.summary_row())
