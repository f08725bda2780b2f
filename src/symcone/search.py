"""Structured search over Schur multiplier matrices for the open question of
which A satisfy lambda(|A . b|) weakly majorized by lambda(|diag A|)*lambda(|b|).

Candidate families cover the known-good territory (PSD Gram matrices, the
multiplication-operator form [(a_i+a_j)/2] and the quadratic form [a_i a_j],
built by :func:`transforms.lyap_multiplier` and
:func:`transforms.quad_multiplier`) and the known-bad territory
(zero-diagonal symmetric matrices), plus free symmetric and
rank-one-perturbed samples in between.  Each family draws at one fixed
scale; ``FamilySpec.zero_diag``, a bool, is its only setting, and only
``random_sym`` takes it.  Violations are certified by a stored witness that replays exactly;
absence of violations is reported as evidence only, never as a claim.

Every margin comes from one batched computation, :func:`_margins`, with one
input form: an (m, dim) stack of elements b, a checked stack of multipliers
(:func:`transforms.multiplier_stack`) and an owner index naming the
multiplier of each row.  In one pass it builds the Schur products of the
multipliers as matrices from a frame's Peirce projectors, takes the
eigenvalues of the products and of the elements in one call, and decides
weak majorization row by row.  Each row's arithmetic depends on that row and
its multiplier alone, so a margin has the same bits whether it is computed
in a sweep, in a replay batch or on its own.  Each caller states its own
layout and passes at most ``MARGIN_CHUNK`` rows: :func:`sweep` runs groups
of candidates, up to ``MARGIN_CHUNK`` elements, as one call whose row r
belongs to candidate r // n_b (a lone candidate with more elements runs
them that many at a time), and keeps the margin and verdict of every row
directly; :func:`test_candidate` is a batch of one; and
:func:`replay_records` reruns an archive by algebra and problem, in batches
of up to ``MARGIN_CHUNK`` records, one multiplier per row.
The search frame of a sweep is always the standard frame of the algebra.

Records have one form and one check.  :class:`Archive` holds them by
columns, and every Archive holds records that :func:`read_archive` accepts:
the reader checks its lines by its rules (:func:`_columns`; among them, a
witness b is of its record's algebra),
:meth:`Archive.of` checks SearchRecords by the same rules on their JSON form,
and :func:`sweep` builds its violations from its own checked multiplier rows.
So :func:`write_archive` only formats an Archive, and writes nothing the
reader rejects, and :func:`replay_records` only replays one.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import islice

import numpy as np

from .algebra import (
    _JSON_NUMBERS,
    AlgebraDescriptor,
    Element,
    _float_stack,
    _groups,
    _numbers,
    descriptor_from_spec,
    descriptor_to_json,
    descriptor_to_spec,
    element_to_json,
    elements_from_json,
    jordan_product_coords,
    row_sum,
)
from .majorization import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    sort_desc_rows,
    weak_major_rows,
)
from .spectral import JordanFrame, eigvals_batch, require_cone, standard_frame
# ``eigvals`` is not called here; it stays bound because the benchmark's
# tracer self-test (perfbench/test_perfbench.py) patches ``search.eigvals``
from .spectral import eigvals  # noqa: F401
from .transforms import (
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

# rows per _margins call, which bounds its (rows, dim, dim) products and its
# eigensolves; the callers keep to it: a sweep stacks as many candidates'
# elements as fit into one call (a lone candidate's elements that many at a
# time), and a replay builds one chunk of records at a time.  The
# eigensolver's cost per row falls with the rows of a call, and a row's bits
# do not depend on its stack
MARGIN_CHUNK = 1024

# largest difference between a replayed margin and the stored one that
# confirms a record
REPLAY_MARGIN_TOL = 1e-10

# records per chunk of read_archive, which bounds the decoded JSON it holds
ARCHIVE_CHUNK = 256


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
        if type(self.zero_diag) is not bool:
            raise ValueError(f"zero_diag must be a bool, got {self.zero_diag!r}")
        if self.zero_diag and self.family != "random_sym":
            raise ValueError(f"zero_diag applies to random_sym only, not {self.family}")


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

    It builds the Schur matrices (:func:`transforms.schur_stack`) and
    lambda(|diag A|) of every multiplier of ``E`` in one pass, so a caller
    passes at most ``MARGIN_CHUNK`` rows and only the multipliers its rows
    use.
    A row's result depends on that row and its multiplier alone: a
    multiplier's Schur matrix has the same bits in any stack, the product
    A . b is formed entrywise and summed by :func:`algebra.row_sum` (a BLAS
    product could block by m), the eigensolver treats every row on its own,
    and the verdict is the scalar ``weak_major`` rule.  Returns (margins
    (m,), verdicts (m,) bool).
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; known: {PROBLEMS}")
    X, owner = np.asarray(coords, dtype=np.float64), np.asarray(owner)
    ab = row_sum(schur_stack(E, P)[owner] * X[:, None, :])
    dref = sort_desc_rows(np.abs(np.diagonal(E, axis1=1, axis2=2)))[owner]
    eig = eigvals_batch(d, np.concatenate([ab, X]))
    eig_ab, eig_b = eig[:len(X)], eig[len(X):]
    if problem == "general":
        lhs, rhs = np.abs(eig_ab), dref * sort_desc_rows(np.abs(eig_b))
    else:
        require_cone(eig_b, 0.0, "b")
        lhs, rhs = eig_ab, dref * eig_b
    return weak_major_rows(lhs, rhs, atol=atol, rtol=rtol)


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


def replay_records(records, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> list:
    """Recompute records from their serialized data alone.

    ``records`` is an :class:`Archive`, or SearchRecords taken as theirs
    (:meth:`Archive.of`), which checks every record before any margin is
    computed.  The records are grouped by (descriptor, problem) and each
    group runs on the standard frame in chunks of ``MARGIN_CHUNK`` records;
    :func:`_margins` takes a chunk's multipliers with one per row.  Returns
    one (confirmed, recomputed margin) pair per record, in order;
    confirmation requires the same verdict and a margin within
    ``REPLAY_MARGIN_TOL`` of the stored one.
    """
    archive = records if isinstance(records, Archive) else Archive.of(records)
    out = [None] * len(archive)
    # each group's positions as an array: the index held through the replay
    # takes 8 bytes a record, not a Python int's 36
    groups = {key: np.array(idx) for key, idx in
              _groups(zip(archive.descriptor, archive.problem)).items()}
    for (spec, problem), idx in groups.items():
        d = descriptor_from_spec(spec)
        for lo in range(0, len(idx), MARGIN_CHUNK):
            part = idx[lo:lo + MARGIN_CHUNK].tolist()
            margins, holds = _margins(
                d, _standard_projectors(d), np.array([archive.entries[i] for i in part]),
                np.arange(len(part)), np.array([archive.coords[i] for i in part]),
                problem, atol, rtol)
            for i, margin, ok, stored in zip(part, margins.tolist(), holds.tolist(),
                                             archive.margin[part].tolist()):
                out[i] = (archive.verdict[i] == ("satisfied" if ok else "violated")
                          and abs(margin - stored) <= REPLAY_MARGIN_TOL, margin)
    return out


def replay_record(record: SearchRecord,
                  atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL):
    """:func:`replay_records` of one record: (confirmed, recomputed margin)."""
    return replay_records([record], atol=atol, rtol=rtol)[0]


@dataclass
class SweepResult:
    family: str
    descriptor: str
    n_A: int
    n_b: int
    seed: int
    problem: str
    violations: Archive
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
                     rows: int, problem: str) -> np.ndarray:
    coords = rng.normal(0.0, GENERAL_SIGMA, (rows, d.dim))
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
    :func:`test_candidate` would give it alone.  A lone candidate with more
    than ``MARGIN_CHUNK`` elements draws and runs them that many at a time,
    which draws the same numbers.  Every violated element becomes a record
    with its witness, in candidate then element order, so that replay is
    exact; ``violations`` is an :class:`Archive` of the group's checked
    multiplier rows and the violated coordinate rows.  Satisfied elements
    only contribute to the aggregate margin.
    """
    if n_A < 1:
        raise ValueError("need at least one candidate")
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}")
    if type(seed) is not int:  # as read_archive requires of a record's seed
        raise ValueError(f"seed must be an integer (not a bool), got {seed!r}")
    if descriptor.rank != spec.n:
        raise ValueError(
            f"family size {spec.n} does not match algebra rank {descriptor.rank}"
        )
    P = _standard_projectors(descriptor)
    d_spec = descriptor_to_spec(descriptor)
    entries, coords, margin = [], [], []
    min_margin = math.inf
    tested = 0
    group = max(1, MARGIN_CHUNK // max(n_b, 1))
    for lo in range(0, n_A if n_b > 0 else 0, group):
        rngs = sample_rngs(seed, range(lo, min(lo + group, n_A)))
        E = multiplier_stack([generate_candidate(spec, rng) for rng in rngs], spec.n)
        rows = list(E)  # one read-only view per candidate, shared by its records
        for start in range(0, n_b, MARGIN_CHUNK):  # more than once for a lone candidate
            k = min(n_b - start, MARGIN_CHUNK)
            X = np.concatenate([_sample_b_coords(descriptor, rng, k, problem) for rng in rngs])
            owner = np.arange(len(X)) // k
            margins, holds = _margins(descriptor, P, E, owner, X, problem, atol, rtol)
            bad = np.flatnonzero(~holds)
            X = X[bad]
            X.flags.writeable = False
            entries += [rows[i] for i in owner[bad].tolist()]
            coords += list(X)
            margin += margins[bad].tolist()
            min_margin = min(min_margin, float(margins.min()))
            tested += len(owner)
    m = len(margin)
    violations = Archive([spec.family] * m, [d_spec] * m, [seed] * m, entries, coords,
                         margin, ["violated"] * m, [problem] * m)
    return SweepResult(spec.family, d_spec, n_A, n_b,
                       seed, problem, violations, float(min_margin), tested)


# --- archives -----------------------------------------------------------------------

def write_archive(path, records) -> None:
    """JSON-lines archive of an :class:`Archive`, or of SearchRecords taken as
    theirs (:meth:`Archive.of`), one record per line: the line of record i
    is ``json.dumps(archive[i].to_json(), sort_keys=True)``.  So a record
    that :func:`read_archive` would reject raises ValueError ``record i:
    <the reader's message>`` before the file is opened, and every float
    written is finite (JSON has no NaN or infinity).

    A line is joined from fragments formatted once: a multiplier for all the
    records that share its bytes (a sweep's n_b records share their
    candidate's), and the witness algebra (the record's) and the fields
    around the margin for each distinct (descriptor, family, problem, seed,
    verdict);
    floats are written by repr, as json writes finite floats.  The lines are
    written as they are joined.
    """
    archive = records if isinstance(records, Archive) else Archive.of(records)
    multipliers, around_margin, shared = {}, {}, []
    for A, around in zip(archive.entries, zip(archive.descriptor, archive.family,
                                              archive.problem, archive.seed, archive.verdict)):
        key = A.tobytes()  # of a square matrix, whose size its length gives
        if key not in multipliers:
            multipliers[key] = repr(A.tolist())
        if around not in around_margin:
            around_margin[around] = (
                json.dumps(descriptor_to_json(descriptor_from_spec(around[0])),
                           sort_keys=True)[1:],
                json.dumps(dict(zip(("descriptor", "family"), around)), sort_keys=True)[1:-1],
                json.dumps(dict(zip(("problem", "seed", "verdict"), around[2:])),
                           sort_keys=True)[1:])
        shared.append((multipliers[key], around_margin[around]))
    with open(path, "w") as fh:
        fh.writelines(f'{{"A": {A}, "b": {{"coords": {x.tolist()!r}, {algebra}, {head}, '
                      f'"margin": {m!r}, {tail}\n'
                      for x, m, (A, (algebra, head, tail)) in zip(
                          archive.coords, archive.margin.tolist(), shared))


@dataclass(eq=False)
class Archive(Sequence):
    """The prospector's one record form: records by columns, each one that
    :func:`read_archive` accepts; indexing gives a :class:`SearchRecord`.
    ``entries`` holds read-only rows of checked multiplier stacks
    (:func:`transforms.multiplier_stack`), which :func:`write_archive` and
    :func:`replay_records` take as they are; ``coords`` holds each witness
    b's read-only coordinate row, in the record's algebra."""

    family: list
    descriptor: list
    seed: list
    entries: list
    coords: list
    margin: np.ndarray
    verdict: list
    problem: list

    def __post_init__(self):
        self.margin = np.asarray(self.margin, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.margin)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return SearchRecord(self.family[i], self.descriptor[i], self.seed[i],
                            self.entries[i],
                            Element(descriptor_from_spec(self.descriptor[i]), self.coords[i]),
                            float(self.margin[i]), self.verdict[i], self.problem[i])

    @classmethod
    def of(cls, records) -> Archive:
        """The Archive of SearchRecords, checked by the reader's rules
        (:func:`_columns`) on their JSON form; the first record that fails
        them raises ValueError ``record i: <the reader's message>``."""
        objs = [r.to_json() for r in records]
        try:
            return cls(*_columns(objs))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
            bad = next(((i, exc) for i, exc in enumerate(map(_record_error, objs))
                        if exc), None)
            if bad is None:  # no record fails alone: not a record's fault
                raise
            raise ValueError(f"record {bad[0]}: {bad[1]}") from None


def _columns(objs: list) -> tuple:
    """The :class:`Archive` columns of decoded JSON records.

    Each check runs over all the records, in the order in which one record's
    fields are checked: the witnesses b are read (:func:`elements_from_json`),
    then each must be of its record's algebra (checked once per distinct
    pair), then the multipliers are checked as one stack per algebra.  A bad
    record raises the message of its failed check (KeyError for a field it
    lacks).  So for one record the message is that of its first failed
    check, whichever checks follow."""
    for o in objs:
        if type(o) is not dict:
            raise ValueError(f"a record must be a JSON object, got {type(o).__name__}")
    spec, verdict = [o["descriptor"] for o in objs], [o["verdict"] for o in objs]
    problem = [o.get("problem", "general") for o in objs]
    for s, v, p in zip(spec, verdict, problem):
        if not type(s) is type(v) is type(p) is str:
            raise ValueError(f"descriptor, verdict and problem must be strings, "
                             f"got {s!r}, {v!r}, {p!r}")
    for p in set(problem).difference(PROBLEMS):
        raise ValueError(f"unknown problem {p!r}; known: {PROBLEMS}")
    for v in set(verdict).difference(VERDICTS):
        raise ValueError(f"unknown verdict {v!r}; known: {VERDICTS}")
    algebras = {s: descriptor_from_spec(s) for s in set(spec)}
    family, seed = [o["family"] for o in objs], [o.get("seed") for o in objs]
    A, margin = [o["A"] for o in objs], [o["margin"] for o in objs]
    for f, s in zip(family, seed):
        if type(f) not in (str, type(None)) or type(s) not in (int, type(None)):
            raise ValueError(f"family must be a string or null and seed an integer or "
                             f"null (not a bool), got {f!r}, {s!r}")
    stacks = {s: (idx, _float_stack([A[i] for i in idx], 2))
              for s, idx in _groups(spec).items()}
    one_by_one = any(E is None for _, E in stacks.values())  # or ragged or too large
    if one_by_one and not all(map(_numbers, A)):
        raise ValueError("multiplier A must be a JSON array of arrays of numbers")
    for m in margin:
        if type(m) not in _JSON_NUMBERS or not math.isfinite(m):
            raise ValueError(f"margin must be a finite JSON number, got {m!r}")
    if one_by_one:
        stacks = {s: (idx, [np.asarray(A[i], dtype=np.float64) for i in idx])
                  for s, (idx, _) in stacks.items()}
    witness, coords = elements_from_json([o["b"] for o in objs])
    for s, w in dict.fromkeys(zip(spec, witness)):
        if w != algebras[s]:
            raise ValueError(f"witness of {w} in a record of {s}")
    entries = [None] * len(objs)
    for s, (idx, E) in stacks.items():
        for i, row in zip(idx, multiplier_stack(E, algebras[s].rank)):
            entries[i] = row
    return family, spec, seed, entries, coords, margin, verdict, problem


def _record_error(obj) -> Exception | None:
    """The error of a record that fails its checks alone, or None."""
    try:
        _columns([obj])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        # KeyError: a field it lacks; OverflowError: an integer beyond the
        # float range; RecursionError: JSON nested deeper than the parser goes
        return exc
    return None


def read_archive(path) -> Archive:
    """The records of a JSON-lines archive by columns (:class:`Archive`); a
    malformed line raises ValueError naming its line number.

    Lines are read ``ARCHIVE_CHUNK`` records at a time, so that the decoded
    JSON held at once is bounded by the chunk.  Each line is one
    ``json.loads``; each field of a chunk is then checked in one pass over
    its records, and a record's multiplier must be one its algebra's replay
    accepts.  A chunk that fails is checked again record by record, so that
    of several malformed lines the first is named, with the message of
    checking its record alone.
    """
    columns = [[] for _ in fields(Archive)]
    error = None  # (line number, message) of the first malformed line
    with open(path) as fh:
        numbered = ((lineno, line) for lineno, line in enumerate(map(str.strip, fh), 1)
                    if line)
        while error is None and (chunk := list(islice(numbered, ARCHIVE_CHUNK))):
            objs, lines = [], []
            for lineno, line in chunk:
                try:
                    objs.append(json.loads(line))
                except (ValueError, RecursionError) as exc:
                    error = lineno, f"malformed archive record ({exc})"
                    break
                lines.append(lineno)
            try:
                for column, part in zip(columns, _columns(objs)):
                    column += part
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
                # the first bad record comes before any line that fails to parse
                lineno, exc = next(((lineno, exc) for lineno, exc in
                                    zip(lines, map(_record_error, objs)) if exc), (0, None))
                if exc is None:  # no record fails alone: not a record's fault
                    raise
                error = lineno, (f"archive record lacks the field {exc}"
                                 if isinstance(exc, KeyError)
                                 else f"malformed archive record ({exc})")
    if error is not None:
        raise ValueError(f"{path}, line {error[0]}: {error[1]}")
    return Archive(*columns)


def write_summary_csv(path, results) -> None:
    """Aggregate CSV over sweep results: family, n, samples, violations, min_margin."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["family", "n", "samples", "violations", "min_margin"]
        )
        writer.writeheader()
        for res in results:
            writer.writerow(res.summary_row())
