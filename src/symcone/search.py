"""Structured search over Schur multiplier matrices for the open question of
which A satisfy lambda(|A . b|) weakly majorized by lambda(|diag A|)*lambda(|b|).

Candidate families cover the known-good territory (PSD Gram matrices, the
multiplication-operator form [(a_i+a_j)/2], the quadratic form [a_i a_j]) and
the known-bad territory (zero-diagonal symmetric matrices), plus free
symmetric and rank-one-perturbed samples in between.  Violations are
certified by a stored witness that replays exactly; absence of violations is
reported as evidence only, never as a claim.

The search frame is always the standard frame of the chosen algebra.  For
symmetric-matrix algebras the sweep filters candidates through a batched
eigenvalue fast path and re-derives every violation through the generic
verifier so that archived records reproduce bit-for-bit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    SymMatrix,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_json,
    element_to_json,
    jordan_product,
    sym_pack,
    sym_unpack,
)
from .majorization import DEFAULT_ATOL, DEFAULT_RTOL, sort_desc, weak_major
from .spectral import JordanFrame, eigvals, standard_frame, sym_eigvals_batch
from .transforms import SchurMatrix, schur

FAMILIES = (
    "psd_gram",
    "lyapunov_form",
    "quadratic_form",
    "random_sym",
    "rank_one_perturbed",
    "user_file",
)

GENERAL_SIGMA = 3.0


@dataclass
class FamilySpec:
    family: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.n < 1:
            raise ValueError("candidate size must be >= 1")

    @property
    def fixes_diagonal(self) -> bool:
        """Whether refinement must leave the diagonal untouched."""
        return self.family == "random_sym" and bool(self.params.get("zero_diag"))


def generate_candidate(spec: FamilySpec, rng: np.random.Generator) -> np.ndarray:
    """One symmetric candidate matrix from the family."""
    n = spec.n
    scale = float(spec.params.get("scale", 1.0))
    if spec.family == "psd_gram":
        G = rng.normal(0.0, scale, (int(spec.params.get("gram_rank", n)), n))
        return G.T @ G
    if spec.family == "lyapunov_form":
        a = rng.normal(0.0, 2.0 * scale, n)
        return (a[:, None] + a[None, :]) / 2.0
    if spec.family == "quadratic_form":
        a = rng.normal(0.0, 2.0 * scale, n)
        return np.outer(a, a)
    if spec.family == "random_sym":
        G = rng.normal(0.0, scale, (n, n))
        A = (G + G.T) / 2.0
        if spec.params.get("zero_diag"):
            np.fill_diagonal(A, 0.0)
        return A
    if spec.family == "rank_one_perturbed":
        G = rng.normal(0.0, scale, (n, n))
        base = G.T @ G
        u = rng.normal(0.0, 1.0, n)
        u /= max(float(np.linalg.norm(u)), 1e-12)
        eps = float(spec.params.get("eps", -0.5)) * scale
        return base + eps * np.outer(u, u)
    if spec.family == "user_file":
        A = SchurMatrix.load(spec.params["path"]).entries
        if A.shape[0] != n:
            raise ValueError(f"user matrix size {A.shape[0]} does not match n={n}")
        return np.array(A)
    raise ValueError(f"unknown family {spec.family!r}")


@dataclass
class SearchRecord:
    family: str
    descriptor: str
    seed: int | None
    entries: np.ndarray
    b_witness: Element
    margin: float
    verdict: str  # "violated" | "satisfied"
    problem: str  # "general" | "cone"

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "descriptor": self.descriptor,
            "seed": self.seed,
            "A": [[float(v) for v in row] for row in self.entries],
            "b": element_to_json(self.b_witness),
            "margin": float(self.margin),
            "verdict": self.verdict,
            "problem": self.problem,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchRecord":
        descriptor_from_spec(obj["descriptor"])  # reject an unparseable spec here
        return cls(
            family=obj["family"],
            descriptor=obj["descriptor"],
            seed=obj.get("seed"),
            entries=np.asarray(obj["A"], dtype=np.float64),
            b_witness=element_from_json(obj["b"]),
            margin=float(obj["margin"]),
            verdict=obj["verdict"],
            problem=obj.get("problem", "general"),
        )


def _margin_general(A: np.ndarray, frame: JordanFrame, b: Element,
                    atol: float, rtol: float):
    lhs = sort_desc(np.abs(eigvals(schur(A, frame, b, validate=False))))
    rhs = sort_desc(np.abs(np.diag(A))) * sort_desc(np.abs(eigvals(b)))
    return weak_major(lhs, rhs, atol=atol, rtol=rtol)


def _margin_cone(A: np.ndarray, frame: JordanFrame, b: Element,
                 atol: float, rtol: float):
    lhs = eigvals(schur(A, frame, b, validate=False))
    rhs = sort_desc(np.abs(np.diag(A))) * eigvals(b)
    return weak_major(lhs, rhs, atol=atol, rtol=rtol)


def test_candidate(A, frame: JordanFrame, b: Element,
                   atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                   family: str = "user_file", seed: int | None = None) -> SearchRecord:
    """Margin of lambda(|A . b|) against lambda(|diag A|)*lambda(|b|)."""
    ents = A.entries if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A)).entries
    if ents.shape[0] != len(frame):
        raise ValueError(f"multiplier size {ents.shape[0]} vs frame rank {len(frame)}")
    v = _margin_general(ents, frame, b, atol, rtol)
    return SearchRecord(family, descriptor_to_spec(b.descriptor), seed, ents, b,
                        v.worst_slack, "satisfied" if v.holds else "violated",
                        "general")


def test_candidate_cone(A, frame: JordanFrame, b: Element,
                        atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                        family: str = "user_file", seed: int | None = None) -> SearchRecord:
    """Cone variant: lambda(A . b) against lambda(|diag A|)*lambda(b), b >= 0."""
    ents = A.entries if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A)).entries
    if ents.shape[0] != len(frame):
        raise ValueError(f"multiplier size {ents.shape[0]} vs frame rank {len(frame)}")
    vals = eigvals(b)
    scale = max(1.0, float(np.abs(vals).max()))
    if vals[-1] < -1e-8 * scale:
        raise ValueError(f"b is not in the cone (min eigenvalue {vals[-1]:.3e})")
    v = _margin_cone(ents, frame, b, atol, rtol)
    return SearchRecord(family, descriptor_to_spec(b.descriptor), seed, ents, b,
                        v.worst_slack, "satisfied" if v.holds else "violated",
                        "cone")


def replay_record(record: SearchRecord,
                  atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                  margin_tol: float = 1e-10):
    """Recompute a record from its serialized data alone.

    Returns (confirmed, recomputed margin); confirmation requires the same
    verdict and a margin within margin_tol.
    """
    d = descriptor_from_spec(record.descriptor)
    frame = standard_frame(d)
    tester = test_candidate if record.problem == "general" else test_candidate_cone
    fresh = tester(record.entries, frame, record.b_witness, atol=atol, rtol=rtol,
                   family=record.family, seed=record.seed)
    confirmed = (fresh.verdict == record.verdict
                 and abs(fresh.margin - record.margin) <= margin_tol)
    return confirmed, fresh.margin


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
        if isinstance(d, SymMatrix):
            # batched square of the sampled elements, packed back
            X = np.stack([sym_unpack(c / math.sqrt(GENERAL_SIGMA), d.n) for c in coords])
            sq = X @ X
            coords = np.stack([sym_pack(M) for M in sq])
        else:
            out = []
            for c in coords:
                x = Element(d, c / math.sqrt(GENERAL_SIGMA))
                out.append(jordan_product(x, x).coords)
            coords = np.stack(out)
    return coords


def _margins_sym_batch(A: np.ndarray, coords: np.ndarray, n: int,
                       problem: str, atol: float, rtol: float) -> np.ndarray:
    """Vectorized margins for Sym(n) with the standard frame, one b per row."""
    B = np.stack([sym_unpack(c, n) for c in coords])
    eig_b = sym_eigvals_batch(B)
    eig_ab = sym_eigvals_batch(A[None, :, :] * B)
    dref = np.abs(np.diag(A))
    dref = -np.sort(-dref)
    if problem == "general":
        lhs = -np.sort(-np.abs(eig_ab), axis=1)
        rhs = dref[None, :] * (-np.sort(-np.abs(eig_b), axis=1))
    else:
        lhs = eig_ab
        rhs = dref[None, :] * eig_b
    clhs = np.cumsum(lhs, axis=1)
    crhs = np.cumsum(rhs, axis=1)
    slacks = crhs - clhs
    scale = np.maximum(np.abs(clhs).max(axis=1), np.abs(crhs).max(axis=1))
    margins = slacks.min(axis=1)
    thresholds = atol + rtol * scale
    return margins, thresholds


def sweep(spec: FamilySpec, descriptor: AlgebraDescriptor, n_A: int, n_b: int,
          seed: int, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
          problem: str = "general") -> SweepResult:
    """Test n_A candidates against n_b random elements each.

    Violation records are retained with their witnesses (re-derived through
    the generic verifier so replay is exact); satisfied cases only contribute
    to the aggregate margin.
    """
    if n_A < 1:
        raise ValueError("need at least one candidate")
    if problem not in ("general", "cone"):
        raise ValueError(f"unknown problem {problem!r}")
    if descriptor.rank != spec.n:
        raise ValueError(
            f"family size {spec.n} does not match algebra rank {descriptor.rank}"
        )
    frame = standard_frame(descriptor)
    tester = test_candidate if problem == "general" else test_candidate_cone
    violations: list[SearchRecord] = []
    min_margin = math.inf
    tested = 0
    for ia in range(n_A):
        rng = np.random.default_rng(np.random.SeedSequence([seed, ia]))
        A = generate_candidate(spec, rng)
        if n_b < 1:
            continue
        coords = _sample_b_coords(descriptor, rng, n_b, problem)
        if isinstance(descriptor, SymMatrix):
            margins, thresholds = _margins_sym_batch(
                A, coords, descriptor.n, problem, atol, rtol
            )
            min_margin = min(min_margin, float(margins.min()))
            suspect = np.nonzero(margins < -thresholds)[0]
            for ib in suspect:
                rec = tester(A, frame, Element(descriptor, coords[ib]),
                             atol=atol, rtol=rtol, family=spec.family, seed=seed)
                if rec.verdict == "violated":
                    violations.append(rec)
            tested += n_b
        else:
            for ib in range(n_b):
                rec = tester(A, frame, Element(descriptor, coords[ib]),
                             atol=atol, rtol=rtol, family=spec.family, seed=seed)
                min_margin = min(min_margin, rec.margin)
                if rec.verdict == "violated":
                    violations.append(rec)
                tested += 1
    return SweepResult(spec.family, descriptor_to_spec(descriptor), n_A, n_b,
                       seed, problem, violations, float(min_margin), tested)


def refine(record: SearchRecord, steps: int, seed: int = 0,
           spec: FamilySpec | None = None,
           atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> SearchRecord:
    """Coordinate-perturbation descent on the margin of a violated record.

    Only improving proposals are accepted, so the margin is non-increasing
    and the record stays violated.  Family constraints are honored: a
    zero-diagonal family keeps its diagonal at zero, and the closed-form
    families are refined over the witness only.
    """
    if record.verdict != "violated":
        raise ValueError("refine expects a violated record")
    if steps == 0:
        return record
    d = descriptor_from_spec(record.descriptor)
    frame = standard_frame(d)
    tester = test_candidate if record.problem == "general" else test_candidate_cone
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    perturb_matrix = spec is None or spec.family in (
        "random_sym", "rank_one_perturbed", "user_file"
    )
    fix_diag = spec.fixes_diagonal if spec is not None else bool(
        np.all(np.diag(record.entries) == 0.0)
    )
    best = record
    n = best.entries.shape[0]
    dim = d.dim
    sigma = 0.3
    for step in range(steps):
        A = np.array(best.entries)
        coords = np.array(best.b_witness.coords)
        if perturb_matrix and step % 2 == 1:
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            if fix_diag and i == j:
                j = (i + 1) % n
            delta = sigma * rng.normal() * max(1.0, float(np.abs(A).max()))
            A[i, j] += delta
            A[j, i] = A[i, j]
        else:
            k = int(rng.integers(dim))
            coords[k] += sigma * rng.normal() * max(1.0, float(np.abs(coords).max()))
        if record.problem == "cone":
            candidate_b = Element(d, coords)
            if float(eigvals(candidate_b)[-1]) < 0.0:
                sigma = max(sigma * 0.95, 1e-3)
                continue
        else:
            candidate_b = Element(d, coords)
        rec = tester(A, frame, candidate_b, atol=atol, rtol=rtol,
                     family=best.family, seed=best.seed)
        if rec.verdict == "violated" and rec.margin < best.margin:
            best = rec
        else:
            sigma = max(sigma * 0.95, 1e-3)
    return best


def classify_boundary(A, descriptor: AlgebraDescriptor, n_b: int, seed: int,
                      atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL,
                      refine_steps: int = 50, problem: str = "general") -> dict:
    """Empirical 'for all b' probe: min margin over samples plus refinement.

    A reported violation is certified by its witness; a clean sweep is only
    evidence and is flagged as such.
    """
    ents = A.entries if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A)).entries
    frame = standard_frame(descriptor)
    tester = test_candidate if problem == "general" else test_candidate_cone
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0A2D]))
    min_margin = math.inf
    worst: SearchRecord | None = None
    for _ in range(n_b):
        coords = rng.normal(0.0, GENERAL_SIGMA, descriptor.dim)
        b = Element(descriptor, coords)
        if problem == "cone":
            b = jordan_product(b, b)
        rec = tester(ents, frame, b, atol=atol, rtol=rtol, seed=seed)
        if rec.margin < min_margin:
            min_margin = rec.margin
            worst = rec
    out = {"n_b": n_b, "min_margin": float(min_margin), "violated": False,
           "evidence_only": True}
    if worst is not None and worst.verdict == "violated":
        refined = refine(worst, refine_steps, seed=seed, atol=atol, rtol=rtol)
        out.update({
            "violated": True,
            "evidence_only": False,
            "min_margin": float(refined.margin),
            "record": refined.to_json(),
        })
    return out


# --- archives -----------------------------------------------------------------------

def write_archive(path, records) -> None:
    """JSON-lines archive, one record per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True))
            fh.write("\n")


def read_archive(path) -> list:
    """Records of a JSON-lines archive; a malformed line raises ValueError
    naming its line number."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(SearchRecord.from_json(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}, line {lineno}: archive record "
                                 f"lacks the field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {lineno}: malformed archive "
                                 f"record ({exc})") from None
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
