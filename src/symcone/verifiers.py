"""One verifier per majorization inequality, each producing a replayable report.

Verifiers never raise on inequality failure -- failure is data, recorded with
a witness that replays the exact inputs.  Only malformed inputs (wrong
algebra, arguments outside a stated precondition) raise.  ``run_sweep``
drives any registered verifier over deterministically seeded random inputs
and merges the per-sample reports.

A verifier registered with a batched screen (the log-majorization and
Jordan-product checks) is swept in chunks: the screen draws every sample
exactly as the verifier's runner does and evaluates the whole chunk on
(m, dim) coordinate arrays.  Samples the screen finds clear of their
tolerance band pass as screened; every other sample is re-run through the
scalar runner, which supplies its verdict, slack and exact witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    descriptor_to_spec,
    element_to_json,
    from_matrix,
    jordan_product,
    jordan_product_coords,
    norm,
    operator_commutes,
    random_element,
    unit,
)
from .majorization import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    clear_margin,
    major,
    log_major,
    log_major_batch,
    sort_desc,
    sort_desc_rows,
    weak_major,
    weak_major_batch,
)
from .spectral import (
    SQRT_CLAMP_TOL,
    JordanFrame,
    eigvals,
    eigvals_batch,
    pnorm,
    rebuild,
    rebuild_batch,
    spectral_decompose,
    spectral_decompose_batch,
)
from .transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    PositiveLinearMap,
    PositivityError,
    SchurMatrix,
    SublinearFn,
    apply_sublinear,
    certify_positive_by_sampling,
    compose_positive,
    positive_quad_map,
    positive_schur_map,
    quad_rep,
    quad_rep_coords,
    quad_rep_sqrt,
    schur,
)

DET_IDENTITY_RTOL = 1e-8
NEAR_EQUALITY_SLACK = 1e-6

# eigenvalue range for cone sampling; the positive floor keeps determinant
# products well conditioned relative to eigensolver roundoff
CONE_EIG_LOW = 0.05
CONE_EIG_HIGH = 10.0
GENERAL_SIGMA = 3.0

# resampling attempts before sample_invertible gives up
MAX_RESAMPLE_DRAWS = 1000

# samples per batched evaluation in run_sweep
SWEEP_CHUNK = 1000


@dataclass
class VerificationReport:
    check: str
    descriptor: str
    seed: int | None
    samples: int
    passed: bool
    worst_slack: float
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        obj = {
            "check": self.check,
            "descriptor": self.descriptor,
            "seed": self.seed,
            "samples": self.samples,
            "pass": self.passed,
            "worst_slack": self.worst_slack,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.details:
            obj["details"] = self.details
        return obj


def _single(check: str, x: Element, passed: bool, worst: float,
            witness: dict | None, details: dict) -> VerificationReport:
    return VerificationReport(
        check=check,
        descriptor=descriptor_to_spec(x.descriptor),
        seed=None,
        samples=1,
        passed=bool(passed),
        worst_slack=float(worst),
        witness=witness if not passed else None,
        details=details,
    )


def merge_reports(check: str, descriptor: str, seed: int | None,
                  reports: list[VerificationReport]) -> VerificationReport:
    return _merge(check, descriptor, seed, len(reports), enumerate(reports))


def _merge(check: str, descriptor: str, seed: int | None, samples: int,
           indexed, worst: float = math.inf,
           details: dict | None = None) -> VerificationReport:
    """Merged report over ``samples`` samples.

    ``indexed`` yields (sample index, report) in index order.  Samples with
    no report passed; ``worst`` and ``details`` (in merged ``max_`` form)
    already account for them.
    """
    passed = True
    witness = None
    details = dict(details or {})
    for i, r in indexed:
        passed = passed and r.passed
        worst = min(worst, r.worst_slack)
        if not r.passed and witness is None:
            witness = {"sample_index": i, **(r.witness or {})}
        for key, val in r.details.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                details[f"max_{key}"] = max(details.get(f"max_{key}", -math.inf), val)
    return VerificationReport(
        check=check,
        descriptor=descriptor,
        seed=seed,
        samples=samples,
        passed=passed,
        worst_slack=float(worst),
        witness=witness,
        details=details,
    )


def _cone_floor(vals: np.ndarray, atol: float):
    """Lowest smallest eigenvalue still accepted from a cone element; rows of
    a 2-D ``vals`` get one floor each."""
    return -(1e-8 * np.maximum(1.0, np.abs(vals).max(axis=-1)) + atol)


def _require_cone(vals: np.ndarray, atol: float, label: str) -> None:
    if vals[-1] < _cone_floor(vals, atol):
        raise ValueError(f"{label} is not in the symmetric cone "
                         f"(min eigenvalue {vals[-1]:.3e})")


def _det_floor(la: np.ndarray, lb: np.ndarray):
    """Smallest eigenvalue above which the determinant identity is checked."""
    return 1e-7 * np.maximum(1.0, np.maximum(la.max(axis=-1), lb.max(axis=-1)))


# --- log-majorization of the square-root quadratic map ---------------------------

def check_log_major_quadrep(a: Element, b: Element,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(P_sqrt(a)(b)) is log-majorized by lambda(a)*lambda(b), a,b >= 0.

    Also checks the weak-majorization consequence and, for comfortably
    invertible inputs, the determinant identity at k = n.
    """
    la, lb = eigvals(a), eigvals(b)
    _require_cone(la, atol, "a")
    _require_cone(lb, atol, "b")
    z = quad_rep_sqrt(a, b)
    lz = eigvals(z)
    target = la * lb  # both decreasing and nonnegative, so the product is too
    v_log = log_major(lz, target, atol=atol, rtol=rtol)
    v_weak = weak_major(lz, target, atol=atol, rtol=rtol)
    details = {"log": v_log.to_json(), "weak": v_weak.to_json()}
    passed = v_log.holds and v_weak.holds

    inv_floor = _det_floor(la, lb)
    if la[-1] > inv_floor and lb[-1] > inv_floor:
        det_lhs = float(np.prod(lz))
        det_rhs = float(np.prod(target))
        det_rel = abs(det_lhs - det_rhs) / abs(det_rhs)
        details["det_rel_err"] = det_rel
        passed = passed and det_rel <= DET_IDENTITY_RTOL
    else:
        details["det_skipped"] = "near-singular input"

    worst = min(v_log.worst_slack, v_weak.worst_slack)
    witness = {"a": element_to_json(a), "b": element_to_json(b)}
    return _single("log_major_quadrep", a, passed, worst, witness, details)


def check_quadrep_sup_bound(a: Element, b: Element,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Componentwise bound lambda(P_sqrt(a)(b)) <= ||a||_inf * lambda(b), a,b >= 0."""
    la, lb = eigvals(a), eigvals(b)
    _require_cone(la, atol, "a")
    _require_cone(lb, atol, "b")
    lz = eigvals(quad_rep_sqrt(a, b))
    bound = la[0] * lb
    slacks = bound - lz
    scale = max(1.0, float(np.abs(bound).max()), float(np.abs(lz).max()))
    worst = float(slacks.min())
    passed = worst >= -(atol + rtol * scale)
    witness = {"a": element_to_json(a), "b": element_to_json(b)}
    return _single("quadrep_sup_bound", a, passed, worst, witness, {})


# --- operator-commuting factorization through a spectral cutoff -------------------

def build_commuting_factors(a: Element, k: int,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL,
                            det_rtol: float = 1e-8):
    """Split an invertible a at cutoff k into commuting factors x, y.

    Ordering a's spectrum by decreasing absolute value, x carries the top-k
    ratios |a_i|/|a_k| (ones elsewhere) and y carries |a_k| sgn(a_i) on the
    top block and a_j below it.  Returns (x, y, report); the report verifies

      (i)   x >= e,
      (ii)  x and y operator commute,
      (iii) P_sqrt(x)(y) = a  and  P_x(y^2) = a^2,
      (iv)  det(x) * ||y||_inf^k equals the top-k absolute eigenvalue product.
    """
    d = a.descriptor
    rank = d.rank
    if not 1 <= k <= rank:
        raise ValueError(f"cutoff k must lie in 1..{rank}, got {k}")
    sd = spectral_decompose(a)
    order = np.argsort(-np.abs(sd.eigenvalues), kind="stable")
    av = sd.eigenvalues[order]
    frame = JordanFrame(tuple(sd.frame.idempotents[i] for i in order))
    inv_floor = (atol + rtol * float(np.abs(av).max())) * 10.0
    if float(np.abs(av).min()) <= inv_floor:
        raise ValueError(
            f"a is not invertible enough (min |eigenvalue| {np.abs(av).min():.3e})"
        )
    ak = abs(av[k - 1])
    xvals = np.concatenate([np.abs(av[:k]) / ak, np.ones(rank - k)])
    yvals = np.concatenate([ak * np.sign(av[:k]), av[k:]])
    x = rebuild(frame, xvals)
    y = rebuild(frame, yvals)

    details: dict = {}
    e = unit(d)
    lmin_xe = float(eigvals(x - e)[-1])
    scale_x = max(1.0, float(np.abs(xvals).max()))
    ok_i = lmin_xe >= -(atol + rtol * scale_x)
    details["cone_gap"] = lmin_xe

    ok_ii = operator_commutes(x, y)

    r1 = norm(quad_rep_sqrt(x, y) - a)
    r2 = norm(quad_rep(x, jordan_product(y, y)) - jordan_product(a, a))
    tol1 = atol + rtol * (1.0 + norm(a))
    tol2 = atol + rtol * (1.0 + norm(a) ** 2)
    ok_iii = r1 <= tol1 and r2 <= tol2
    details["recover_residual"] = float(r1)
    details["recover_sq_residual"] = float(r2)

    lhs = float(np.prod(eigvals(x))) * pnorm(y, math.inf) ** k
    rhs = float(np.prod(np.abs(av[:k])))
    det_rel = abs(lhs - rhs) / abs(rhs)
    ok_iv = det_rel <= det_rtol
    details["det_rel_err"] = float(det_rel)

    passed = ok_i and ok_ii and ok_iii and ok_iv
    details.update({"cutoff": k, "i": ok_i, "ii": ok_ii, "iii": ok_iii, "iv": ok_iv})
    worst = min(lmin_xe, tol1 - r1, tol2 - r2, det_rtol - det_rel,
                0.0 if ok_ii else -1.0)
    witness = {"a": element_to_json(a), "k": k}
    report = _single("commuting_factors", a, passed, worst, witness, details)
    return x, y, report


# --- sublinear spectral maps through positive transformations ---------------------

def check_positive_map_sublinear(P: PositiveLinearMap, x: Element, phi: SublinearFn,
                                 atol: float = DEFAULT_ATOL,
                                 rtol: float = DEFAULT_RTOL,
                                 rng: np.random.Generator | None = None) -> VerificationReport:
    """phi(P(x)) weakly majorized by P(phi(x)) for positive P and sublinear phi."""
    if not P.certified:
        if rng is None or not certify_positive_by_sampling(P, rng):
            raise PositivityError("map lacks a positivity certificate")
    lhs = eigvals(apply_sublinear(phi, P(x)))
    rhs = eigvals(P(apply_sublinear(phi, x)))
    v = weak_major(lhs, rhs, atol=atol, rtol=rtol)
    witness = {"x": element_to_json(x), "phi": [phi.alpha, phi.beta], "map": P.label}
    return _single("positive_map_sublinear", x, v.holds, v.worst_slack,
                   witness, {"verdict": v.to_json()})


def check_quadrep_sublinear(a: Element, b: Element, phi: SublinearFn,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(phi(P_a(b))) weakly majorized by lambda(a^2)*lambda(phi(b))."""
    if not phi.is_nonnegative:
        raise ValueError("phi must be a nonnegative sublinear function")
    lhs = eigvals(apply_sublinear(phi, quad_rep(a, b)))
    la = eigvals(a)
    a2 = sort_desc(la * la)
    rhs = a2 * eigvals(apply_sublinear(phi, b))
    v = weak_major(lhs, rhs, atol=atol, rtol=rtol)
    witness = {"a": element_to_json(a), "b": element_to_json(b),
               "phi": [phi.alpha, phi.beta]}
    return _single("quadrep_sublinear", a, v.holds, v.worst_slack,
                   witness, {"verdict": v.to_json()})


def check_schur_diag(A, frame: JordanFrame, b: Element, phi: SublinearFn,
                     atol: float = DEFAULT_ATOL,
                     rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """PSD multiplier route: lambda(phi(A.b)) against diag(A) and against A.phi(b)."""
    A = A if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A))
    if not phi.is_nonnegative:
        raise ValueError("phi must be a nonnegative sublinear function")
    if not A.is_psd():
        raise PositivityError(
            f"multiplier is not positive semidefinite (min eig {A.min_eigenvalue():.3e})"
        )
    Ab = schur(A, frame, b, validate=False)
    phib = apply_sublinear(phi, b)
    lhs = eigvals(apply_sublinear(phi, Ab))
    v_diag = weak_major(lhs, sort_desc(A.diag()) * eigvals(phib), atol=atol, rtol=rtol)
    v_elem = weak_major(lhs, eigvals(schur(A, frame, phib, validate=False)),
                        atol=atol, rtol=rtol)
    passed = v_diag.holds and v_elem.holds
    worst = min(v_diag.worst_slack, v_elem.worst_slack)
    witness = {"A": [[float(v) for v in row] for row in A.entries],
               "b": element_to_json(b), "phi": [phi.alpha, phi.beta]}
    return _single("schur_diag", b, passed, worst, witness,
                   {"diag": v_diag.to_json(), "element": v_elem.to_json()})


# --- weak majorization of the Jordan product --------------------------------------

def check_jordan_weak(a: Element, b: Element,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(|a o b|) weakly majorized by lambda(|a|)*lambda(|b|) for all a, b."""
    lhs = sort_desc(np.abs(eigvals(jordan_product(a, b))))
    rhs = sort_desc(np.abs(eigvals(a))) * sort_desc(np.abs(eigvals(b)))
    v = weak_major(lhs, rhs, atol=atol, rtol=rtol)
    witness = {"a": element_to_json(a), "b": element_to_json(b)}
    details = {"verdict": v.to_json()}
    if v.holds and v.worst_slack <= NEAR_EQUALITY_SLACK:
        # recorded for interest only; nothing is asserted about equality cases
        details["near_equality"] = True
    return _single("jordan_weak", a, v.holds, v.worst_slack, witness, details)


_COUNTEREXAMPLE_A = np.array([[8.0, 3.0], [3.0, 0.0]])
_COUNTEREXAMPLE_B = np.array([[0.0, 3.0], [3.0, 8.0]])
_COUNTEREXAMPLE_PRODUCT_EIGS = (33.0, 15.0)
_COUNTEREXAMPLE_MIXED_EIGS = (44.52, -3.48)


def check_absolute_product_counterexample(atol_product: float = 1e-9,
                                          atol_mixed: float = 1e-2) -> VerificationReport:
    """The classic 2x2 pair where neither |a o b| ~ |a| o |b| direction holds.

    Verifies lambda(|a o b|) = (33, 15), lambda(|a| o |b|) = (44.52, -3.48),
    and that weak majorization fails in both directions between them.
    """
    from .spectral import abs_el

    a = from_matrix(_COUNTEREXAMPLE_A)
    b = from_matrix(_COUNTEREXAMPLE_B)
    lhs = sort_desc(np.abs(eigvals(jordan_product(a, b))))
    mixed = eigvals(jordan_product(abs_el(a), abs_el(b)))
    err_product = float(np.abs(lhs - np.array(_COUNTEREXAMPLE_PRODUCT_EIGS)).max())
    err_mixed = float(np.abs(mixed - np.array(_COUNTEREXAMPLE_MIXED_EIGS)).max())
    fwd = weak_major(lhs, mixed)
    rev = weak_major(mixed, lhs)
    passed = (err_product <= atol_product and err_mixed <= atol_mixed
              and not fwd.holds and not rev.holds)
    details = {
        "abs_product_eigs": [float(v) for v in lhs],
        "mixed_eigs": [float(v) for v in mixed],
        "err_product": err_product,
        "err_mixed": err_mixed,
        "forward": fwd.to_json(),
        "reverse": rev.to_json(),
    }
    return _single("absolute_product_counterexample", a, passed,
                   -max(err_product, err_mixed), None, details)


# --- pinching comparisons ----------------------------------------------------------

def check_quadrep_pinch(a: Element, b: Element, A=None,
                        frame: JordanFrame | None = None,
                        atol: float = DEFAULT_ATOL,
                        rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Strong majorization chains lambda(P_sqrt(a)(b)) < lambda(a o b) and,
    given a PSD multiplier with its frame, lambda(A.b) < lambda(P_sqrt(d)(b))
    where d carries diag(A) on the frame."""
    la = eigvals(a)
    _require_cone(la, atol, "a")
    v1 = major(eigvals(quad_rep_sqrt(a, b)), eigvals(jordan_product(a, b)),
               atol=atol, rtol=rtol)
    passed = v1.holds
    worst = v1.worst_slack
    details = {"vs_jordan": v1.to_json()}
    if A is not None:
        if frame is None:
            raise ValueError("a frame is required together with a multiplier")
        A = A if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A))
        if not A.is_psd():
            raise PositivityError("multiplier must be positive semidefinite")
        diag_el = rebuild(frame, A.diag())
        v2 = major(eigvals(schur(A, frame, b, validate=False)),
                   eigvals(quad_rep_sqrt(diag_el, b)), atol=atol, rtol=rtol)
        passed = passed and v2.holds
        worst = min(worst, v2.worst_slack)
        details["schur_vs_quadrep"] = v2.to_json()
    witness = {"a": element_to_json(a), "b": element_to_json(b)}
    return _single("quadrep_pinch", a, passed, worst, witness, details)


# --- Hoelder-type norm inequality ---------------------------------------------------

def holder_exponent(r: float, s: float) -> float:
    """p with 1/p = 1/r + 1/s, rejecting combinations with p < 1."""
    r, s = float(r), float(s)
    for v in (r, s):
        if not (v >= 1.0 or math.isinf(v)):
            raise ValueError(f"exponents must lie in [1, inf], got {v}")
    ip = (0.0 if math.isinf(r) else 1.0 / r) + (0.0 if math.isinf(s) else 1.0 / s)
    if ip == 0.0:
        return math.inf
    p = 1.0 / ip
    if p < 1.0 - 1e-12:
        raise ValueError(f"resulting exponent p = {p} lies below 1")
    return max(p, 1.0)


def check_holder(a: Element, b: Element, r: float, s: float,
                 atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """||a o b||_p <= ||a||_r ||b||_s with 1/p = 1/r + 1/s."""
    p = holder_exponent(r, s)
    lhs = pnorm(jordan_product(a, b), p)
    rhs = pnorm(a, r) * pnorm(b, s)
    slack = rhs - lhs
    passed = lhs <= rhs * (1.0 + rtol) + atol
    witness = {"a": element_to_json(a), "b": element_to_json(b), "r": r, "s": s}
    return _single("holder", a, passed, slack, witness,
                   {"p": p, "lhs": lhs, "rhs": rhs})


# --- samplers -----------------------------------------------------------------------

# The samplers' raw draws are kept apart so that the batched screens draw
# exactly what the scalar samplers draw, in the same order.

def _general_draw(d: AlgebraDescriptor, rng: np.random.Generator,
                  sigma: float = GENERAL_SIGMA) -> np.ndarray:
    """iid Gaussian coordinates, the draw of ``random_element``."""
    return rng.normal(0.0, sigma, d.dim)


def _cone_draws(d: AlgebraDescriptor, rng: np.random.Generator,
                low: float = CONE_EIG_LOW, high: float = CONE_EIG_HIGH):
    """Gaussian coordinates whose frame is kept, then the eigenvalues."""
    return rng.normal(0.0, 1.0, d.dim), rng.uniform(low, high, d.rank)


def sample_general(d: AlgebraDescriptor, rng: np.random.Generator,
                   sigma: float = GENERAL_SIGMA) -> Element:
    return Element(d, _general_draw(d, rng, sigma))


def sample_cone(d: AlgebraDescriptor, rng: np.random.Generator,
                low: float = CONE_EIG_LOW, high: float = CONE_EIG_HIGH) -> Element:
    """Cone element with uniform eigenvalues on a random frame."""
    coords, vals = _cone_draws(d, rng, low, high)
    return rebuild(spectral_decompose(Element(d, coords)).frame, vals)


def sample_invertible(d: AlgebraDescriptor, rng: np.random.Generator,
                      sigma: float = GENERAL_SIGMA, min_abs: float = 1e-3) -> Element:
    """General element resampled until all eigenvalues clear min_abs.

    Raises ValueError after MAX_RESAMPLE_DRAWS draws that all fail.
    """
    for _ in range(MAX_RESAMPLE_DRAWS):
        x = sample_general(d, rng, sigma)
        if float(np.abs(eigvals(x)).min()) > min_abs:
            return x
    raise ValueError(
        f"no element of {descriptor_to_spec(d)} with all |eigenvalues| > "
        f"{min_abs:g} in {MAX_RESAMPLE_DRAWS} draws (sigma {sigma:g})"
    )


def sample_frame(d: AlgebraDescriptor, rng: np.random.Generator) -> JordanFrame:
    return spectral_decompose(random_element(d, rng, 1.0)).frame


def sample_psd_gram(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    G = rng.normal(0.0, scale, (n, n))
    return G.T @ G


def sample_sublinear(rng: np.random.Generator, nonnegative: bool = True) -> SublinearFn:
    if nonnegative:
        return SublinearFn(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 0.0)))
    alpha = float(rng.uniform(-2.0, 2.0))
    return SublinearFn(alpha, float(rng.uniform(-2.0, alpha)))


_PHI_CHOICES = (ABS_FN, POS_FN, NEG_FN)
_MAP_KINDS = ("quad", "schur_psd", "quad_compose")


def make_positive_map(d: AlgebraDescriptor, kind: str,
                      rng: np.random.Generator) -> PositiveLinearMap:
    if kind == "quad":
        return positive_quad_map(sample_cone(d, rng, 0.0, 2.0))
    if kind == "schur_psd":
        A = SchurMatrix(sample_psd_gram(d.rank, rng))
        return positive_schur_map(A, sample_frame(d, rng))
    if kind == "quad_compose":
        return compose_positive(
            positive_quad_map(sample_cone(d, rng, 0.0, 2.0)),
            positive_quad_map(sample_cone(d, rng, 0.0, 2.0)),
        )
    raise ValueError(f"unknown positive-map kind {kind!r}")


def positive_map_case(d: AlgebraDescriptor, rng: np.random.Generator,
                      map_kind: str, phi: SublinearFn,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> VerificationReport:
    P = make_positive_map(d, map_kind, rng)
    x = sample_general(d, rng)
    return check_positive_map_sublinear(P, x, phi, atol=atol, rtol=rtol)


_HOLDER_GRID = ((2.0, 2.0), (3.0, 1.5), (math.inf, 1.0), (1.0, math.inf),
                (math.inf, math.inf), (4.0, 2.0), (3.0, 3.0))


# --- batched screens -----------------------------------------------------------
#
# A screen takes the per-sample generators of a chunk, draws what the
# matching runner draws, and returns, per sample, the worst slack, whether the
# sample is clear (every cut it meets, the inequalities and the
# preconditions alike, passes by a clear_margin), and the numeric report
# details (NaN where the scalar report has none).

def _cone_pairs(d, rngs):
    """Coordinates (m, dim) of the pairs a, b that _run_log_major draws."""
    m = len(rngs)
    draws = [_cone_draws(d, rng) + _cone_draws(d, rng) for rng in rngs]
    ga, ua, gb, ub = (np.array(col) for col in zip(*draws))
    _, frames = spectral_decompose_batch(d, np.concatenate([ga, gb]))
    ab = rebuild_batch(frames, np.concatenate([ua, ub]))
    return ab[:m], ab[m:]


def _general_pairs(d, rngs):
    """Coordinates (m, dim) of the pairs a, b that _run_jordan_weak draws."""
    draws = [(_general_draw(d, rng), _general_draw(d, rng)) for rng in rngs]
    a, b = (np.array(col) for col in zip(*draws))
    return a, b


def _screen_log_major(d, rngs, atol, rtol):
    m = len(rngs)
    a, b = _cone_pairs(d, rngs)
    vals, frames = spectral_decompose_batch(d, np.concatenate([a, b]))
    la, lb = vals[:m], vals[m:]
    # the scalar check raises below these floors
    floor_a, floor_b = _cone_floor(la, atol), _cone_floor(lb, atol)
    clear = (clear_margin(la[:, -1] - floor_a, floor_a)
             & clear_margin(lb[:, -1] - floor_b, floor_b)
             & clear_margin(la[:, -1] + SQRT_CLAMP_TOL, SQRT_CLAMP_TOL))
    sqrt_a = rebuild_batch(frames[:m], np.sqrt(np.maximum(la, 0.0)))
    lz = eigvals_batch(d, quad_rep_coords(d, sqrt_a, b))
    target = la * lb
    worst_log, clear_log = log_major_batch(lz, target, atol=atol, rtol=rtol)
    worst_weak, clear_weak = weak_major_batch(lz, target, atol=atol, rtol=rtol)
    floor = _det_floor(la, lb)
    checked = (la[:, -1] > floor) & (lb[:, -1] > floor)
    det_rhs = np.where(checked, target.prod(axis=1), 1.0)
    det_rel = np.where(checked, np.abs(lz.prod(axis=1) - det_rhs) / np.abs(det_rhs), np.nan)
    # the floor only selects whether the identity is checked: either side is
    # fine, as long as the batch and the scalar check pick the same one
    clear &= (clear_log & clear_weak
              & clear_margin(np.abs(la[:, -1] - floor), floor)
              & clear_margin(np.abs(lb[:, -1] - floor), floor)
              & (~checked | clear_margin(DET_IDENTITY_RTOL - det_rel, DET_IDENTITY_RTOL)))
    return np.minimum(worst_log, worst_weak), clear, {"det_rel_err": det_rel}


def _screen_jordan_weak(d, rngs, atol, rtol):
    m = len(rngs)
    a, b = _general_pairs(d, rngs)
    vals = np.abs(eigvals_batch(d, np.concatenate([jordan_product_coords(d, a, b), a, b])))
    rhs = sort_desc_rows(vals[m:2 * m]) * sort_desc_rows(vals[2 * m:])
    worst, clear = weak_major_batch(vals[:m], rhs, atol=atol, rtol=rtol)
    return worst, clear, {}


# Each runner draws one sample set and returns one report.  A runner with a
# ``screen`` attribute is swept in batches by run_sweep.
CHECK_RUNNERS: dict[str, Callable] = {}


def _register(name: str, screen: Callable | None = None):
    def deco(fn):
        if screen is not None:
            fn.screen = screen
        CHECK_RUNNERS[name] = fn
        return fn
    return deco


@_register("log_major_quadrep", screen=_screen_log_major)
def _run_log_major(d, rng, atol, rtol):
    return check_log_major_quadrep(sample_cone(d, rng), sample_cone(d, rng),
                                   atol=atol, rtol=rtol)


@_register("quadrep_sup_bound")
def _run_sup_bound(d, rng, atol, rtol):
    return check_quadrep_sup_bound(sample_cone(d, rng), sample_cone(d, rng),
                                   atol=atol, rtol=rtol)


@_register("commuting_factors")
def _run_factors(d, rng, atol, rtol):
    a = sample_invertible(d, rng)
    k = int(rng.integers(1, d.rank + 1))
    _, _, report = build_commuting_factors(a, k, atol=atol, rtol=rtol)
    return report


@_register("positive_map_sublinear")
def _run_positive_map(d, rng, atol, rtol):
    kind = _MAP_KINDS[int(rng.integers(len(_MAP_KINDS)))]
    phi = _PHI_CHOICES[int(rng.integers(len(_PHI_CHOICES)))]
    return positive_map_case(d, rng, kind, phi, atol=atol, rtol=rtol)


@_register("quadrep_sublinear")
def _run_quadrep_sublinear(d, rng, atol, rtol):
    phi = sample_sublinear(rng, nonnegative=True)
    return check_quadrep_sublinear(sample_general(d, rng), sample_general(d, rng),
                                   phi, atol=atol, rtol=rtol)


@_register("schur_diag")
def _run_schur_diag(d, rng, atol, rtol):
    A = SchurMatrix(sample_psd_gram(d.rank, rng))
    frame = sample_frame(d, rng)
    phi = _PHI_CHOICES[int(rng.integers(len(_PHI_CHOICES)))]
    return check_schur_diag(A, frame, sample_general(d, rng), phi,
                            atol=atol, rtol=rtol)


@_register("jordan_weak", screen=_screen_jordan_weak)
def _run_jordan_weak(d, rng, atol, rtol):
    return check_jordan_weak(sample_general(d, rng), sample_general(d, rng),
                             atol=atol, rtol=rtol)


@_register("quadrep_pinch")
def _run_pinch(d, rng, atol, rtol):
    A = SchurMatrix(sample_psd_gram(d.rank, rng))
    frame = sample_frame(d, rng)
    return check_quadrep_pinch(sample_cone(d, rng), sample_general(d, rng),
                               A=A, frame=frame, atol=atol, rtol=rtol)


@_register("holder")
def _run_holder(d, rng, atol, rtol):
    r, s = _HOLDER_GRID[int(rng.integers(len(_HOLDER_GRID)))]
    return check_holder(sample_general(d, rng), sample_general(d, rng), r, s,
                        atol=atol, rtol=rtol)


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def run_sweep(check: str, d: AlgebraDescriptor, samples: int, seed: int,
              atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Run a registered verifier over seeded random inputs and merge reports.

    Sample i draws from ``sample_rng(seed, i)``.  A runner with a batched
    screen is evaluated SWEEP_CHUNK samples at a time; only the samples the
    screen does not clear are re-run through the runner itself, and the
    merged verdict, first witness and details equal those of the per-sample
    loop (worst slacks up to roundoff).
    """
    if check not in CHECK_RUNNERS:
        raise ValueError(f"unknown check {check!r}; known: {sorted(CHECK_RUNNERS)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    runner = CHECK_RUNNERS[check]
    spec = descriptor_to_spec(d)
    screen = getattr(runner, "screen", None)
    if screen is None:
        reports = [runner(d, sample_rng(seed, i), atol, rtol) for i in range(samples)]
        return merge_reports(check, spec, seed, reports)
    worst = math.inf
    details: dict = {}
    reruns = []
    for start in range(0, samples, SWEEP_CHUNK):
        idx = range(start, min(start + SWEEP_CHUNK, samples))
        slack, clear, extra = screen(d, [sample_rng(seed, i) for i in idx], atol, rtol)
        if clear.any():
            worst = min(worst, float(slack[clear].min()))
        for key, vals in extra.items():
            vals = vals[clear & ~np.isnan(vals)]
            if vals.size:
                details[f"max_{key}"] = max(details.get(f"max_{key}", -math.inf),
                                            float(vals.max()))
        reruns += [(i, runner(d, sample_rng(seed, i), atol, rtol))
                   for i, ok in zip(idx, clear) if not ok]
    return _merge(check, spec, seed, samples, reruns, worst, details)


def run_all(d: AlgebraDescriptor, samples: int, seed: int,
            atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> list[VerificationReport]:
    """Every registered sweep plus the fixed counterexample reproduction."""
    out = [run_sweep(name, d, samples, seed, atol=atol, rtol=rtol)
           for name in sorted(CHECK_RUNNERS)]
    out.append(check_absolute_product_counterexample())
    return out
