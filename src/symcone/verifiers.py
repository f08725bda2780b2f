"""One verifier per majorization inequality, each producing a replayable report.

Verifiers never raise on inequality failure -- failure is data, recorded with
a witness that replays the exact inputs.  Only malformed inputs (wrong
algebra, arguments outside a stated precondition) raise.  ``run_sweep``
drives any registered check over deterministically seeded random inputs.

Every registered check has one arithmetic: a row evaluation on arrays with
one row per sample -- (m, dim) coordinates of the elements, plus per-row
multipliers, frames, exponents, sublinear slopes or cutoffs.  A
:class:`CheckRunner` bundles the check's ``draw`` (the per-sample
generators to those arrays), its ``rows`` (verdicts, worst slacks and
numeric details of every row) and its ``witness`` (row i of every input,
recorded by name: :func:`_row_witness`).  ``run_sweep`` applies them to
chunks of samples.  Each public ``check_*`` call (and
:func:`build_commuting_factors`) is a batch of one: it validates its
arguments, builds their one-row inputs and reports row 0, so its verdict,
worst slack, witness and details are those of a one-sample sweep.  Each
row's result depends on that row alone, so a sample's report has the same
bits in a sweep and in a replay of its witness through the public check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    DescriptorMismatchError,
    Element,
    _check_pair,
    descriptor_to_spec,
    element_to_json,
    from_matrix,
    jordan_product,
    jordan_product_coords,
    norm_rows,
    operator_commutes_rows,
    unit,
)
from .majorization import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    log_major_rows,
    major_rows,
    sort_desc,
    sort_desc_rows,
    vec_pnorm_rows,
    weak_major,
    weak_major_rows,
)
# ``eigvals`` is also bound here for the benchmark's tracer self-test
# (perfbench/test_perfbench.py patches ``verifiers.eigvals``)
from .spectral import (
    JordanFrame,
    abs_el,
    eigvals,
    eigvals_batch,
    rebuild,
    rebuild_batch,
    require_cone,
    spectral_decompose,
    spectral_decompose_batch,
    sqrt_batch,
)
from .transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    PositiveLinearMap,
    SublinearFn,
    apply_factors_rows,
    apply_sublinear_rows,
    factor_rows,
    multiplier_stack,
    psd_multiplier,
    quad_rep_coords,
    quad_rep_sqrt_rows,
    schur_rows,
)

# relative error allowed in the determinant identities of log_major_quadrep
# and of the commuting-factor construction
DET_IDENTITY_RTOL = 1e-8

# eigenvalue range for cone sampling; the positive floor keeps determinant
# products well conditioned relative to eigensolver roundoff
CONE_EIG_LOW = 0.05
CONE_EIG_HIGH = 10.0
GENERAL_SIGMA = 3.0

# resampling attempts before an invertible draw gives up
MAX_RESAMPLE_DRAWS = 1000
INVERTIBLE_MIN_ABS = 1e-3

# samples per batched evaluation in run_sweep
SWEEP_CHUNK = 1000
# (seed, indices) pairs whose seed-sequence words sample_rngs keeps: run_all
# draws the same chunks for every check, and a chunk's words take 32 bytes a
# sample
SEED_WORDS_CACHE = 16


class ResampleError(ValueError):
    """No draw of an invertible element cleared the invertibility floor."""


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


def _single_row(check: str, x: Element, inp: dict, atol: float,
                rtol: float) -> VerificationReport:
    """The report of a registered check about x on the one-row inputs
    ``inp``: its runner's rows on a batch of one, as a one-sample sweep
    reports them, with row 0's non-NaN details under their own names."""
    d = x.descriptor
    runner = CHECK_RUNNERS[check]
    passed, worst, rows = runner.rows(d, inp, atol, rtol)
    # .item() keeps an integer detail an int
    details = {key: vals[0].item() for key, vals in rows.items() if not np.isnan(vals[0])}
    return _single(check, x, passed[0], worst[0], runner.witness(d, inp, 0), details)


def merge_reports(check: str, descriptor: str, seed: int | None,
                  reports: list[VerificationReport]) -> VerificationReport:
    """One report over the samples: every sample passed, the least worst
    slack, the first failure's witness and the largest numeric details."""
    passed = True
    worst = math.inf
    witness = None
    details: dict = {}
    for i, r in enumerate(reports):
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
        samples=len(reports),
        passed=passed,
        worst_slack=float(worst),
        witness=witness,
        details=details,
    )


def _det_floor(la: np.ndarray, lb: np.ndarray):
    """Smallest eigenvalue above which the determinant identity is checked."""
    return 1e-7 * np.maximum(1.0, np.maximum(la.max(axis=-1), lb.max(axis=-1)))


def _inv_floor(mag: np.ndarray, atol: float, rtol: float):
    """Invertibility floor ``10 (atol + rtol max|lambda|)`` of each row of
    absolute eigenvalues ``mag``; an infinite floor rejects the row."""
    with np.errstate(over="ignore"):
        return (atol + rtol * mag.max(axis=-1)) * 10.0


# --- inputs and witnesses -------------------------------------------------------
#
# A check's inputs are a dict of arrays with one row per sample; a public
# check builds the one-row inputs of its arguments.  A witness is row i of
# every input, recorded under the input's name.

def _pair_rows(a: Element, b: Element) -> dict:
    """The pair a, b as a batch of one."""
    _check_pair(a, b)
    return {"a": a.coords[None, :], "b": b.coords[None, :]}


def _phi_row(phi: SublinearFn) -> np.ndarray:
    return np.array([[phi.alpha, phi.beta]], dtype=np.float64)


def _slopes_twice(phi: np.ndarray):
    """The slopes alpha, beta of per-row sublinear functions (m, 2), for two
    stacked blocks of the m rows."""
    alpha, beta = np.tile(phi, (2, 1)).T
    return alpha, beta


def _el_json(d: AlgebraDescriptor, X: np.ndarray, i: int) -> dict:
    return element_to_json(Element(d, X[i]))


def _frame_json(d: AlgebraDescriptor, frame: np.ndarray) -> list:
    return [element_to_json(Element(d, e)) for e in frame]


def _row_witness(d: AlgebraDescriptor, inp: dict, i: int) -> dict:
    """Row i of every input, by name: the elements a, b and x as element
    JSON, a frame as a list of them, and any other input (the multiplier A,
    the slopes phi, the exponents r and s, the cutoff k) as its row's
    values."""
    return {name: _el_json(d, vals, i) if name in ("a", "b", "x")
            else _frame_json(d, vals[i]) if name == "frame"
            else vals[i].tolist()
            for name, vals in inp.items()}


# --- log-majorization of the square-root quadratic map ---------------------------

def _quadrep_spectra(d: AlgebraDescriptor, a: np.ndarray, b: np.ndarray, atol: float):
    """Per row of the cone pairs a, b ((m, dim) arrays): lambda(a), lambda(b)
    and lambda(P_sqrt(a)(b)).

    Raises ConeError, at the cone floor, when any row is not a pair of cone
    elements.
    """
    m = len(a)
    vals, frames = spectral_decompose_batch(d, np.concatenate([a, b]))
    la, lb = vals[:m], vals[m:]
    require_cone(la, atol, "a")
    require_cone(lb, atol, "b")
    lz = eigvals_batch(d, quad_rep_coords(d, sqrt_batch(la, frames[:m]), b))
    return la, lb, lz


def _log_major_rows(d, inp, atol, rtol):
    """lambda(P_sqrt(a)(b)) against lambda(a)*lambda(b) per row: log- and
    weak majorization, and the determinant identity's relative error (NaN
    where the pair is too close to singular for the identity to be
    checked)."""
    la, lb, lz = _quadrep_spectra(d, inp["a"], inp["b"], atol)
    target = la * lb  # both decreasing and nonnegative, so the product is too
    floor = _det_floor(la, lb)
    checked = (la[:, -1] > floor) & (lb[:, -1] > floor)
    det_rhs = np.where(checked, target.prod(axis=1), 1.0)
    det_rel = np.where(checked, np.abs(lz.prod(axis=1) - det_rhs) / np.abs(det_rhs), np.nan)
    worst_log, holds_log = log_major_rows(lz, target, atol=atol, rtol=rtol)
    worst_weak, holds_weak = weak_major_rows(lz, target, atol=atol, rtol=rtol)
    passed = holds_log & holds_weak & ~(det_rel > DET_IDENTITY_RTOL)
    return passed, np.minimum(worst_weak, worst_log), {"det_rel_err": det_rel}


def check_log_major_quadrep(a: Element, b: Element,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(P_sqrt(a)(b)) is log-majorized by lambda(a)*lambda(b), a,b >= 0.

    Also checks the weak-majorization consequence and, for comfortably
    invertible inputs, the determinant identity at k = n; its relative error
    is the ``det_rel_err`` detail, absent where the identity is not checked.
    """
    return _single_row("log_major_quadrep", a, _pair_rows(a, b), atol, rtol)


def _sup_bound_rows(d, inp, atol, rtol):
    la, lb, lz = _quadrep_spectra(d, inp["a"], inp["b"], atol)
    bound = la[:, :1] * lb
    worst = (bound - lz).min(axis=1)
    scale = np.maximum(1.0, np.maximum(np.abs(bound).max(axis=1), np.abs(lz).max(axis=1)))
    return worst >= -(atol + rtol * scale), worst, {}


def check_quadrep_sup_bound(a: Element, b: Element,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Componentwise bound lambda(P_sqrt(a)(b)) <= ||a||_inf * lambda(b), a,b >= 0."""
    return _single_row("quadrep_sup_bound", a, _pair_rows(a, b), atol, rtol)


# --- operator-commuting factorization through a spectral cutoff -------------------

def _commuting_factors(d, a, k, atol, rtol):
    """:func:`build_commuting_factors` on every row of a with cutoff k[i]:
    the factors x, y ((m, dim) each), the verdicts, the worst slacks and the
    per-row details of the report."""
    m = len(a)
    vals, frames = spectral_decompose_batch(d, a)
    order = np.argsort(-np.abs(vals), axis=1, kind="stable")
    av = np.take_along_axis(vals, order, axis=1)
    frames = np.take_along_axis(frames, order[:, :, None], axis=1)
    mag = np.abs(av)
    bad = np.flatnonzero(mag.min(axis=1) <= _inv_floor(mag, atol, rtol))
    if bad.size:
        raise ValueError(
            f"a is not invertible enough (min |eigenvalue| {mag[bad[0]].min():.3e})"
        )
    top = np.arange(d.rank) < k[:, None]
    ak = np.take_along_axis(mag, (k - 1)[:, None], axis=1)
    xvals = np.where(top, mag / ak, 1.0)
    yvals = np.where(top, ak * np.sign(av), av)
    x = rebuild_batch(frames, xvals)
    y = rebuild_batch(frames, yvals)

    lam = eigvals_batch(d, np.concatenate([x - unit(d).coords, x, y]))
    lmin_xe = lam[:m, -1]
    scale_x = np.maximum(1.0, np.abs(xvals).max(axis=1))
    ok_i = lmin_xe >= -(atol + rtol * scale_x)

    ok_ii = operator_commutes_rows(d, x, y)

    r1 = norm_rows(d, quad_rep_sqrt_rows(d, x, y) - a)
    r2 = norm_rows(d, quad_rep_coords(d, x, jordan_product_coords(d, y, y))
                   - jordan_product_coords(d, a, a))
    norm_a = norm_rows(d, a)
    tol1 = atol + rtol * (1.0 + norm_a)
    tol2 = atol + rtol * (1.0 + norm_a ** 2)
    ok_iii = (r1 <= tol1) & (r2 <= tol2)

    lhs = lam[m:2 * m].prod(axis=1) * np.abs(lam[2 * m:]).max(axis=1) ** k
    rhs = np.where(top, mag, 1.0).prod(axis=1)
    det_rel = np.abs(lhs - rhs) / np.abs(rhs)
    ok_iv = det_rel <= DET_IDENTITY_RTOL

    passed = ok_i & ok_ii & ok_iii & ok_iv
    worst = lmin_xe
    for slack in (tol1 - r1, tol2 - r2, DET_IDENTITY_RTOL - det_rel, np.where(ok_ii, 0.0, -1.0)):
        worst = np.minimum(slack, worst)  # a tie keeps the earlier slack, as min() does
    details = {"cone_gap": lmin_xe, "recover_residual": r1, "recover_sq_residual": r2,
               "det_rel_err": det_rel, "cutoff": k,
               "i": ok_i, "ii": ok_ii, "iii": ok_iii, "iv": ok_iv}
    return x, y, passed, worst, details


_FACTOR_DETAILS = ("cone_gap", "recover_residual", "recover_sq_residual",
                   "det_rel_err", "cutoff")


def _factor_rows(d, inp, atol, rtol):
    _, _, passed, worst, details = _commuting_factors(d, inp["a"], inp["k"], atol, rtol)
    return passed, worst, {key: details[key] for key in _FACTOR_DETAILS}


def build_commuting_factors(a: Element, k: int,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL):
    """Split an invertible a at cutoff k into commuting factors x, y.

    Ordering a's spectrum by decreasing absolute value, x carries the top-k
    ratios |a_i|/|a_k| (ones elsewhere) and y carries |a_k| sgn(a_i) on the
    top block and a_j below it.  Returns (x, y, report); the report verifies

      (i)   x >= e,
      (ii)  x and y operator commute,
      (iii) P_sqrt(x)(y) = a  and  P_x(y^2) = a^2,
      (iv)  det(x) * ||y||_inf^k equals the top-k absolute eigenvalue product.

    Raises ValueError when a's smallest |eigenvalue| does not clear
    ``10 * (atol + rtol * max|eigenvalue|)``.
    """
    d = a.descriptor
    if not 1 <= k <= d.rank:
        raise ValueError(f"cutoff k must lie in 1..{d.rank}, got {k}")
    inp = {"a": a.coords[None, :], "k": np.array([k])}
    x, y, passed, worst, rows = _commuting_factors(d, inp["a"], inp["k"], atol, rtol)
    details = {key: rows[key][0].item() for key in _FACTOR_DETAILS}
    details.update({key: bool(rows[key][0]) for key in ("i", "ii", "iii", "iv")})
    report = _single("commuting_factors", a, passed[0], worst[0],
                     _row_witness(d, inp, 0), details)
    return Element(d, x[0]), Element(d, y[0]), report


# --- sublinear spectral maps through positive transformations ---------------------

def _positive_map_verdict(d, apply: Callable, x: np.ndarray, phi: np.ndarray,
                          atol: float, rtol: float):
    """lambda(phi(P(x))) against lambda(P(phi(x))) per row, where ``apply``
    maps an (m, dim) stack through each row's positive map P: the verdicts,
    worst slacks and (empty) details of :func:`check_positive_map_sublinear`."""
    m = len(x)
    mapped = apply_sublinear_rows(d, *_slopes_twice(phi), np.concatenate([apply(x), x]))
    lam = eigvals_batch(d, np.concatenate([mapped[:m], apply(mapped[m:])]))
    worst, holds = weak_major_rows(lam[:m], lam[m:], atol=atol, rtol=rtol)
    return holds, worst, {}


def _factors_json(d: AlgebraDescriptor, factors: tuple) -> list:
    """One-row factor operands, as apply_factors_rows takes them, as a
    witness records them."""
    return [{"kind": "quad", "c": _el_json(d, f[1], 0)} if f[0] == "quad"
            else {"kind": "schur", "A": f[1][0].tolist(), "frame": _frame_json(d, f[2][0])}
            for f in factors]


def check_positive_map_sublinear(P: PositiveLinearMap, x: Element, phi: SublinearFn,
                                 atol: float = DEFAULT_ATOL,
                                 rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """phi(P(x)) weakly majorized by P(phi(x)) for positive P and sublinear phi.

    The map is applied by :meth:`PositiveLinearMap.rows` and recorded with
    its factors in the witness, which rebuild it.  The verdict is the
    registered check's row rule on a batch of one.
    """
    d = x.descriptor
    if P.descriptor != d:
        raise DescriptorMismatchError(f"map on {P.descriptor} vs element of {d}")
    inp = {"x": x.coords[None], "phi": _phi_row(phi)}
    passed, worst, _ = _positive_map_verdict(d, P.rows, inp["x"], inp["phi"], atol, rtol)
    witness = {**_row_witness(d, inp, 0), "map": P.label,
               "factors": _factors_json(d, factor_rows(P.factors, 1))}
    return _single("positive_map_sublinear", x, passed[0], worst[0], witness, {})


def _quadrep_sublinear_rows(d, inp, atol, rtol):
    """lambda(phi(P_a(b))) against lambda(a^2)*lambda(phi(b)) per row."""
    a, b = inp["a"], inp["b"]
    m = len(a)
    mapped = apply_sublinear_rows(d, *_slopes_twice(inp["phi"]),
                                  np.concatenate([quad_rep_coords(d, a, b), b]))
    lam = eigvals_batch(d, np.concatenate([mapped, a]))
    la = lam[2 * m:]
    worst, holds = weak_major_rows(lam[:m], sort_desc_rows(la * la) * lam[m:2 * m],
                                   atol=atol, rtol=rtol)
    return holds, worst, {}


def check_quadrep_sublinear(a: Element, b: Element, phi: SublinearFn,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(phi(P_a(b))) weakly majorized by lambda(a^2)*lambda(phi(b))."""
    if not phi.is_nonnegative:
        raise ValueError("phi must be a nonnegative sublinear function")
    return _single_row("quadrep_sublinear", a, {**_pair_rows(a, b), "phi": _phi_row(phi)},
                       atol, rtol)


def _multiplier_rows(A, frame: JordanFrame, x: Element) -> dict:
    """A PSD multiplier on a valid frame (:func:`transforms.psd_multiplier`)
    with its frame as a batch of one."""
    A = psd_multiplier(A, frame, x.descriptor)
    return {"A": A.entries[None], "frame": frame.coords[None]}


def _schur_diag_rows(d, inp, atol, rtol):
    """lambda(phi(A.b)) against lambda(diag A)*lambda(phi(b)) and against
    lambda(A.phi(b)) per row, the Schur products taken on each row's frame."""
    A, frames, b = inp["A"], inp["frame"], inp["b"]
    m = len(b)
    mapped = apply_sublinear_rows(d, *_slopes_twice(inp["phi"]),
                                  np.concatenate([schur_rows(d, A, frames, b), b]))
    phib = mapped[m:]
    lam = eigvals_batch(d, np.concatenate([mapped, schur_rows(d, A, frames, phib)]))
    lhs = lam[:m]
    diag = sort_desc_rows(np.diagonal(A, axis1=1, axis2=2))
    worst_diag, holds_diag = weak_major_rows(lhs, diag * lam[m:2 * m], atol=atol, rtol=rtol)
    worst_elem, holds_elem = weak_major_rows(lhs, lam[2 * m:], atol=atol, rtol=rtol)
    return holds_diag & holds_elem, np.minimum(worst_elem, worst_diag), {}


def check_schur_diag(A, frame: JordanFrame, b: Element, phi: SublinearFn,
                     atol: float = DEFAULT_ATOL,
                     rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """PSD multiplier route: lambda(phi(A.b)) against diag(A) and against A.phi(b)."""
    if not phi.is_nonnegative:
        raise ValueError("phi must be a nonnegative sublinear function")
    inp = {**_multiplier_rows(A, frame, b), "b": b.coords[None], "phi": _phi_row(phi)}
    return _single_row("schur_diag", b, inp, atol, rtol)


# --- weak majorization of the Jordan product --------------------------------------

def _jordan_weak_rows(d, inp, atol, rtol):
    """|lambda(a o b)| against lambda(|a|)*lambda(|b|) per row."""
    a, b = inp["a"], inp["b"]
    m = len(a)
    vals = np.abs(eigvals_batch(d, np.concatenate([jordan_product_coords(d, a, b), a, b])))
    rhs = sort_desc_rows(vals[m:2 * m]) * sort_desc_rows(vals[2 * m:])
    worst, holds = weak_major_rows(vals[:m], rhs, atol=atol, rtol=rtol)
    return holds, worst, {}


def check_jordan_weak(a: Element, b: Element,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(|a o b|) weakly majorized by lambda(|a|)*lambda(|b|) for all a, b."""
    return _single_row("jordan_weak", a, _pair_rows(a, b), atol, rtol)


_COUNTEREXAMPLE_A = np.array([[8.0, 3.0], [3.0, 0.0]])
_COUNTEREXAMPLE_B = np.array([[0.0, 3.0], [3.0, 8.0]])
_COUNTEREXAMPLE_PRODUCT_EIGS = (33.0, 15.0)
_COUNTEREXAMPLE_MIXED_EIGS = (44.52, -3.48)


def check_absolute_product_counterexample() -> VerificationReport:
    """The classic 2x2 pair where neither |a o b| ~ |a| o |b| direction holds.

    Verifies lambda(|a o b|) = (33, 15), lambda(|a| o |b|) = (44.52, -3.48),
    and that weak majorization fails in both directions between them.
    """
    a = from_matrix(_COUNTEREXAMPLE_A)
    b = from_matrix(_COUNTEREXAMPLE_B)
    lhs = sort_desc(np.abs(eigvals(jordan_product(a, b))))
    mixed = eigvals(jordan_product(abs_el(a), abs_el(b)))
    err_product = float(np.abs(lhs - np.array(_COUNTEREXAMPLE_PRODUCT_EIGS)).max())
    err_mixed = float(np.abs(mixed - np.array(_COUNTEREXAMPLE_MIXED_EIGS)).max())
    fwd = weak_major(lhs, mixed)
    rev = weak_major(mixed, lhs)
    # the product's eigenvalues are exact; the mixed ones are given to two places
    passed = (err_product <= 1e-9 and err_mixed <= 1e-2
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

def _pinch_rows(d, inp, atol, rtol):
    """Strong majorization per row: lambda(P_sqrt(a)(b)) against
    lambda(a o b) and, when the inputs carry a multiplier, lambda(A.b)
    against lambda(P_sqrt(c)(b)) with c = diag(A) on the row's frame."""
    a, b = inp["a"], inp["b"]
    m = len(a)
    legs = [a]
    if "A" in inp:
        legs.append(rebuild_batch(inp["frame"], np.diagonal(inp["A"], axis1=1, axis2=2)))
    vals, frames = spectral_decompose_batch(d, np.concatenate(legs))
    require_cone(vals[:m], atol, "a")
    roots = sqrt_batch(vals, frames)
    parts = [quad_rep_coords(d, roots[:m], b), jordan_product_coords(d, a, b)]
    if "A" in inp:
        parts += [schur_rows(d, inp["A"], inp["frame"], b), quad_rep_coords(d, roots[m:], b)]
    lam = eigvals_batch(d, np.concatenate(parts))
    worst, passed = major_rows(lam[:m], lam[m:2 * m], atol=atol, rtol=rtol)
    if "A" in inp:
        worst_schur, holds_schur = major_rows(lam[2 * m:3 * m], lam[3 * m:],
                                              atol=atol, rtol=rtol)
        passed = passed & holds_schur
        worst = np.minimum(worst_schur, worst)
    return passed, worst, {}


def check_quadrep_pinch(a: Element, b: Element, A=None,
                        frame: JordanFrame | None = None,
                        atol: float = DEFAULT_ATOL,
                        rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Strong majorization chains lambda(P_sqrt(a)(b)) < lambda(a o b) and,
    given a PSD multiplier with its frame, lambda(A.b) < lambda(P_sqrt(d)(b))
    where d carries diag(A) on the frame.

    Raises ValueError when only one of the multiplier and its frame is given.
    """
    inp = _pair_rows(a, b)
    if (A is None) != (frame is None):
        raise ValueError("a multiplier and its frame are given together or not at all")
    if A is not None:
        inp.update(_multiplier_rows(A, frame, b))
    return _single_row("quadrep_pinch", a, inp, atol, rtol)


# --- Hoelder-type norm inequality ---------------------------------------------------

def holder_exponent(r: float, s: float) -> float:
    """p with 1/p = 1/r + 1/s, rejecting combinations with p < 1."""
    r, s = float(r), float(s)
    for v in (r, s):
        if not v >= 1.0:
            raise ValueError(f"exponents must lie in [1, inf], got {v}")
    ip = (0.0 if math.isinf(r) else 1.0 / r) + (0.0 if math.isinf(s) else 1.0 / s)
    if ip == 0.0:
        return math.inf
    p = 1.0 / ip
    if p < 1.0 - 1e-12:
        raise ValueError(f"resulting exponent p = {p} lies below 1")
    return max(p, 1.0)


def _holder_rows(d, inp, atol, rtol):
    a, b, r, s = inp["a"], inp["b"], inp["r"], inp["s"]
    m = len(a)
    p = np.array([holder_exponent(ri, si) for ri, si in zip(r, s)])
    lam = eigvals_batch(d, np.concatenate([jordan_product_coords(d, a, b), a, b]))
    lhs = vec_pnorm_rows(lam[:m], p)
    rhs = vec_pnorm_rows(lam[m:2 * m], r) * vec_pnorm_rows(lam[2 * m:], s)
    passed = lhs <= rhs * (1.0 + rtol) + atol
    return passed, rhs - lhs, {"p": p, "lhs": lhs, "rhs": rhs}


def check_holder(a: Element, b: Element, r: float, s: float,
                 atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """||a o b||_p <= ||a||_r ||b||_s with 1/p = 1/r + 1/s."""
    inp = {**_pair_rows(a, b), "r": np.array([float(r)]), "s": np.array([float(s)])}
    return _single_row("holder", a, inp, atol, rtol)


# --- samplers -----------------------------------------------------------------------
#
# The scalar samplers draw through ``rng.normal`` and ``rng.uniform``; the
# batched draws below take the same numbers from each generator in the same
# order, so these samplers are their independent reference.

def sample_general(d: AlgebraDescriptor, rng: np.random.Generator) -> Element:
    """iid Gaussian coordinates, the draw of ``random_element``."""
    return Element(d, rng.normal(0.0, GENERAL_SIGMA, d.dim))


def sample_cone(d: AlgebraDescriptor, rng: np.random.Generator,
                low: float = CONE_EIG_LOW, high: float = CONE_EIG_HIGH) -> Element:
    """Cone element with uniform eigenvalues on a random frame: the frame of
    Gaussian coordinates, then the eigenvalues."""
    frame = spectral_decompose(Element(d, rng.normal(0.0, 1.0, d.dim))).frame
    return rebuild(frame, rng.uniform(low, high, d.rank))


def sample_invertible(d: AlgebraDescriptor, rng: np.random.Generator,
                      min_abs: float = INVERTIBLE_MIN_ABS) -> Element:
    """General element resampled until all eigenvalues clear min_abs.

    Raises ResampleError (a ValueError) after MAX_RESAMPLE_DRAWS draws that
    all fail.
    """
    for _ in range(MAX_RESAMPLE_DRAWS):
        x = sample_general(d, rng)
        if np.abs(eigvals(x)).min() > min_abs:
            return x
    raise ResampleError(f"no element of {descriptor_to_spec(d)} with all |eigenvalues| above "
                        f"{min_abs:g} in {MAX_RESAMPLE_DRAWS} draws "
                        f"(sigma {GENERAL_SIGMA:g})")


def sample_psd_gram(n: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.normal(0.0, 1.0, (n, n))
    return G.T @ G


def sample_sublinear(rng: np.random.Generator) -> SublinearFn:
    """A nonnegative sublinear function: alpha in [0, 2), beta in [-2, 0)."""
    return SublinearFn(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 0.0)))


_PHI_CHOICES = (ABS_FN, POS_FN, NEG_FN)
_MAP_KINDS = ("quad", "schur_psd", "quad_compose")
# the label of each kind's map, as the constructors of transforms name it
_MAP_LABELS = {"quad": "quad_rep", "schur_psd": "schur_psd",
               "quad_compose": "quad_rep*quad_rep"}
# cone operands of each kind's map, in the order of _MAP_KINDS
_MAP_CONES = np.array([1, 0, 2])

_HOLDER_GRID = ((2.0, 2.0), (3.0, 1.5), (math.inf, 1.0), (1.0, math.inf),
                (math.inf, math.inf), (4.0, 2.0), (3.0, 3.0))


# --- batched draws ------------------------------------------------------------------
#
# Each maps the generators of a chunk of samples to that chunk's inputs,
# drawing from each generator what the matching scalar samplers draw, in
# the same order.  Gaussian and unit draws go straight into rows of
# preallocated stacks (``rng.standard_normal(out=...)``, ``rng.random(out=...)``)
# and are mapped once per stack, with the bits of ``rng.normal`` and
# ``rng.uniform``; integer choices and Gram multipliers stay per-sample
# calls.  The decompositions behind cone elements and frames then run once
# per chunk.

def _gaussian(G: np.ndarray, sigma: float = GENERAL_SIGMA) -> np.ndarray:
    """Standard normal draws to N(0, sigma^2) draws, with the bits of
    ``rng.normal(0.0, sigma)``, which computes ``0.0 + sigma * z`` (so a
    drawn -0.0 comes out +0.0)."""
    return 0.0 + sigma * G


def _cone_eigs(u, low: float = CONE_EIG_LOW, high: float = CONE_EIG_HIGH):
    """Unit draws to eigenvalues on [low, high), with the bits of
    ``rng.uniform(low, high)``, which computes ``low + (high - low) * u``."""
    return low + (high - low) * u


def _phi_choice(rng) -> tuple:
    phi = _PHI_CHOICES[int(rng.integers(len(_PHI_CHOICES)))]
    return phi.alpha, phi.beta


def _cone_pairs(d, rngs, atol=None, rtol=None):
    """Cone pairs a, b, drawn as sample_cone draws."""
    m = len(rngs)
    G, U = np.empty((2, m, d.dim)), np.empty((2, m, d.rank))
    for rng, ga, ua, gb, ub in zip(rngs, G[0], U[0], G[1], U[1]):
        rng.standard_normal(out=ga)
        rng.random(out=ua)
        rng.standard_normal(out=gb)
        rng.random(out=ub)
    _, frames = spectral_decompose_batch(d, _gaussian(G, 1.0).reshape(2 * m, d.dim))
    ab = rebuild_batch(frames, _cone_eigs(U.reshape(2 * m, d.rank)))
    return {"a": ab[:m], "b": ab[m:]}


def _general_pairs(d, rngs, atol=None, rtol=None):
    """Pairs a, b, drawn as sample_general draws."""
    G = np.empty((2, len(rngs), d.dim))
    for rng, ga, gb in zip(rngs, G[0], G[1]):
        rng.standard_normal(out=ga)
        rng.standard_normal(out=gb)
    a, b = _gaussian(G)
    return {"a": a, "b": b}


def _holder_draw(d, rngs, atol=None, rtol=None):
    """A Hoelder exponent pair from the grid, then a general pair."""
    m = len(rngs)
    rs, G = np.empty((2, m)), np.empty((2, m, d.dim))
    for i, (rng, ga, gb) in enumerate(zip(rngs, G[0], G[1])):
        rs[:, i] = _HOLDER_GRID[int(rng.integers(len(_HOLDER_GRID)))]
        rng.standard_normal(out=ga)
        rng.standard_normal(out=gb)
    a, b = _gaussian(G)
    return {"r": rs[0], "s": rs[1], "a": a, "b": b}


def _quadrep_sublinear_draw(d, rngs, atol=None, rtol=None):
    """A nonnegative sublinear function (sample_sublinear), then a general pair."""
    m = len(rngs)
    phi, G = np.empty((m, 2)), np.empty((2, m, d.dim))
    for rng, row, ga, gb in zip(rngs, phi, G[0], G[1]):
        f = sample_sublinear(rng)
        row[:] = f.alpha, f.beta
        rng.standard_normal(out=ga)
        rng.standard_normal(out=gb)
    a, b = _gaussian(G)
    return {"phi": phi, "a": a, "b": b}


def _invertible_coords(d: AlgebraDescriptor, rngs,
                       atol: float = 0.0, rtol: float = 0.0) -> np.ndarray:
    """Coordinates (m, dim) of general elements, row i redrawn from
    ``rngs[i]`` until every |eigenvalue| clears the floor
    ``max(INVERTIBLE_MIN_ABS, 10 * (atol + rtol * max|eigenvalue|))`` -- at
    nonzero tolerances the floor of :func:`build_commuting_factors`, at zero
    ones the draw of sample_invertible.

    Raises ResampleError once a row has missed the floor in
    MAX_RESAMPLE_DRAWS draws.
    """
    def clears(lam):
        mag = np.abs(lam)
        floor = np.maximum(INVERTIBLE_MIN_ABS, _inv_floor(mag, atol, rtol))
        return mag.min(axis=-1) > floor, floor

    X = np.empty((len(rngs), d.dim))
    for rng, x in zip(rngs, X):
        rng.standard_normal(out=x)
    X = _gaussian(X)
    ok, _ = clears(eigvals_batch(d, X))
    # rows that missed are redrawn one at a time, so a row that cannot clear
    # the floor raises after its own MAX_RESAMPLE_DRAWS draws
    for i in np.flatnonzero(~ok):
        for _ in range(MAX_RESAMPLE_DRAWS - 1):
            X[i] = rngs[i].normal(0.0, GENERAL_SIGMA, d.dim)
            ok_i, floor = clears(eigvals(Element(d, X[i])))
            if ok_i:
                break
        else:
            raise ResampleError(
                f"no element of {descriptor_to_spec(d)} with all |eigenvalues| above "
                f"max({INVERTIBLE_MIN_ABS:g}, 10 * (atol + rtol * max|eigenvalue|)) = "
                f"{floor:.3e} (atol {atol:g}, rtol {rtol:g}) in "
                f"{MAX_RESAMPLE_DRAWS} draws (sigma {GENERAL_SIGMA:g})")
    return X


def _factor_draw(d, rngs, atol=0.0, rtol=0.0):
    """An invertible element clearing the floor the factorization applies at
    (atol, rtol) (sample_invertible), then a cutoff k in 1..rank."""
    a = _invertible_coords(d, rngs, atol=atol, rtol=rtol)
    return {"a": a, "k": np.array([int(rng.integers(1, d.rank + 1)) for rng in rngs])}


def _schur_diag_draw(d, rngs, atol=None, rtol=None):
    """A PSD Gram multiplier, a frame, phi in (|t|, t+, t-), then b."""
    m = len(rngs)
    A, phi, G = np.empty((m, d.rank, d.rank)), np.empty((m, 2)), np.empty((2, m, d.dim))
    for rng, a, g, row, gb in zip(rngs, A, G[0], phi, G[1]):
        a[...] = sample_psd_gram(d.rank, rng)
        rng.standard_normal(out=g)
        row[:] = _phi_choice(rng)
        rng.standard_normal(out=gb)
    return {"A": multiplier_stack(A, d.rank), "phi": phi, "b": _gaussian(G[1]),
            "frame": spectral_decompose_batch(d, _gaussian(G[0], 1.0))[1]}


def _pinch_draw(d, rngs, atol=None, rtol=None):
    """A PSD Gram multiplier, a frame, a cone element a, then b."""
    m = len(rngs)
    A, G, U = np.empty((m, d.rank, d.rank)), np.empty((3, m, d.dim)), np.empty((m, d.rank))
    for rng, a, g, ga, ua, gb in zip(rngs, A, G[0], G[1], U, G[2]):
        a[...] = sample_psd_gram(d.rank, rng)
        rng.standard_normal(out=g)
        rng.standard_normal(out=ga)
        rng.random(out=ua)
        rng.standard_normal(out=gb)
    _, frames = spectral_decompose_batch(d, _gaussian(G[:2], 1.0).reshape(2 * m, d.dim))
    return {"A": multiplier_stack(A, d.rank), "b": _gaussian(G[2]), "frame": frames[:m],
            "a": rebuild_batch(frames[m:], _cone_eigs(U))}


def _positive_map_draw(d, rngs, atol=None, rtol=None):
    """A map kind and phi, then the map's operands (:func:`_map_draws`),
    then x (sample_general)."""
    kind = np.array([int(rng.integers(len(_MAP_KINDS))) for rng in rngs], dtype=np.int64)
    phi = np.array([_phi_choice(rng) for rng in rngs])
    maps = _map_draws(d, rngs, kind)
    X = np.empty((len(rngs), d.dim))
    for rng, x in zip(rngs, X):
        rng.standard_normal(out=x)
    return {"kind": kind, "phi": phi, **maps, "x": _gaussian(X)}


def _map_draws(d, rngs, kind):
    """The operands of row i's positive map, of kind ``_MAP_KINDS[kind[i]]``:
    a PSD Gram multiplier (sample_psd_gram) and a frame's Gaussian draw, or
    one or two cone elements with eigenvalues on [0, 2), drawn as
    sample_cone draws them.

    Rows hold every operand array; those a row's kind does not use are NaN:
    ``c[:, 0]`` is P_c's operand for "quad" and the outer one for
    "quad_compose", ``c[:, 1]`` the inner one; ``A`` and ``frame`` serve
    "schur_psd".
    """
    m, rank, dim = len(rngs), d.rank, d.dim
    out = {"c": np.full((m, 2, dim), np.nan), "A": np.full((m, rank, rank), np.nan),
           "frame": np.full((m, rank, dim), np.nan)}
    # one Gaussian row per operand to decompose: a cone operand's, whose
    # unit draws fill the same row of U, or the Schur frame's (its row of U
    # stays 0 and the element rebuilt on it is discarded)
    cones = _MAP_CONES[kind]
    slots = np.maximum(cones, 1)
    first = np.cumsum(slots) - slots
    G, U = np.empty((slots.sum(), dim)), np.zeros((slots.sum(), rank))
    for i, rng in enumerate(rngs):
        if not cones[i]:
            out["A"][i] = sample_psd_gram(rank, rng)
            rng.standard_normal(out=G[first[i]])
        for r in range(first[i], first[i] + cones[i]):
            rng.standard_normal(out=G[r])
            rng.random(out=U[r])
    _, frames = spectral_decompose_batch(d, _gaussian(G, 1.0))
    built = rebuild_batch(frames, _cone_eigs(U, 0.0, 2.0))
    schur = cones == 0
    out["frame"][schur] = frames[first[schur]]
    out["A"][schur] = multiplier_stack(out["A"][schur], rank)
    out["c"][~schur, 0] = built[first[~schur]]
    out["c"][cones == 2, 1] = built[first[cones == 2] + 1]
    return out


# --- positive maps of the batched draw -----------------------------------------------

def _row_factors(kind: str, inp: dict, rows: np.ndarray) -> tuple:
    """The factors, for apply_factors_rows, of the given rows of one map kind."""
    if kind == "schur_psd":
        return (("schur", inp["A"][rows], inp["frame"][rows]),)
    c = inp["c"][rows]
    return (("quad", c[:, 0]),) if kind == "quad" else (("quad", c[:, 0]), ("quad", c[:, 1]))


def _positive_map_rows(d, inp, atol, rtol):
    kinds = [(kind, np.flatnonzero(inp["kind"] == j)) for j, kind in enumerate(_MAP_KINDS)]

    def apply(X):
        out = np.empty_like(X)
        for kind, rows in kinds:
            if rows.size:
                out[rows] = apply_factors_rows(d, _row_factors(kind, inp, rows), X[rows])
        return out

    return _positive_map_verdict(d, apply, inp["x"], inp["phi"], atol, rtol)


def _positive_map_witness(d, inp, i):
    """Row i's inputs as check_positive_map_sublinear records them: x, phi,
    and the map's label and factors, read off its operands."""
    kind = _MAP_KINDS[inp["kind"][i]]
    return {**_row_witness(d, {key: inp[key] for key in ("x", "phi")}, i),
            "map": _MAP_LABELS[kind],
            "factors": _factors_json(d, _row_factors(kind, inp, [i]))}


# --- the registry ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRunner:
    """A registered check, evaluated on arrays with one row per sample.

    ``draw(d, rngs, atol, rtol)`` draws the inputs of one sample from each
    generator; ``rows(d, inputs, atol, rtol)`` returns every row's verdict,
    worst slack and numeric details ({name: per-row values, NaN where the
    report has none}); ``witness(d, inputs, i)`` serializes every input of
    row i, as the public check records them: by name
    (:func:`_row_witness`), except for a positive map, recorded by its label
    and factors.  The public check reports
    ``rows`` and ``witness`` on its one-row inputs (:func:`_single_row`);
    ``check_positive_map_sublinear``, whose map need not be a registered
    kind, shares the rows' verdict step (:func:`_positive_map_verdict`).
    """

    draw: Callable
    rows: Callable
    witness: Callable = _row_witness


CHECK_RUNNERS: dict[str, CheckRunner] = {
    "log_major_quadrep": CheckRunner(_cone_pairs, _log_major_rows),
    "quadrep_sup_bound": CheckRunner(_cone_pairs, _sup_bound_rows),
    "commuting_factors": CheckRunner(_factor_draw, _factor_rows),
    "positive_map_sublinear": CheckRunner(_positive_map_draw, _positive_map_rows,
                                          _positive_map_witness),
    "quadrep_sublinear": CheckRunner(_quadrep_sublinear_draw, _quadrep_sublinear_rows),
    "schur_diag": CheckRunner(_schur_diag_draw, _schur_diag_rows),
    "jordan_weak": CheckRunner(_general_pairs, _jordan_weak_rows),
    "quadrep_pinch": CheckRunner(_pinch_draw, _pinch_rows),
    "holder": CheckRunner(_holder_draw, _holder_rows),
}


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = np.uint32(0xca01f9dd)
_MIX_MULT_R = np.uint32(0x4973f715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF


def _hash_chain(init: int, mult: int, k: int) -> np.ndarray:
    """The first k + 1 constants a seed sequence's hash steps use, starting
    at init and multiplied by mult at each step, as a (k + 1, 1) uint32
    column."""
    chain = [init]
    for _ in range(k):
        chain.append(chain[-1] * mult & _WORD)
    return np.array(chain, dtype=np.uint32)[:, None]


# 4 entropy words and 4 * 3 mixing steps hash with the A chain, 8 output
# words with the B chain
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 8)
_OUT_WORDS = np.arange(8) % _POOL_SIZE


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence handing PCG64 its four uint64 state words, derived
    beforehand by :func:`_seed_state_words`."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashmix(value: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """numpy's seed-sequence hash step on uint32 words: row j of ``value``
    (broadcast against the column ``chain``) hashed with step j of the
    chain slice, whose steps are its consecutive pairs of constants."""
    value = (value ^ chain[:-1]) * chain[1:]
    return value ^ (value >> _XSHIFT)


def _seed_state_words(seed: int, idx: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for every i
    of the uint32 array ``idx`` (seed below 2**32 too, so the entropy is the
    two words [seed, i]), as a C-ordered (m, 4) array: numpy's hashing on a
    (4, m) pool, one op set per hash step that numpy runs word by word."""
    pool = np.zeros((_POOL_SIZE, len(idx)), dtype=np.uint32)
    pool[0] = seed
    pool[1] = idx
    pool = _hashmix(pool, _CHAIN_A[:_POOL_SIZE + 1])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [j for j in range(_POOL_SIZE) if j != src]
        word = _hashmix(pool[src], _CHAIN_A[step:step + _POOL_SIZE])
        step += _POOL_SIZE - 1
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * word
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state: 8 uint32 words cycling over the pool, paired low word
    # first into 4 uint64 words
    state = _hashmix(pool[_OUT_WORDS], _CHAIN_B).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


@lru_cache(maxsize=SEED_WORDS_CACHE)
def _cached_state_words(seed: int, idx: tuple) -> np.ndarray:
    """:func:`_seed_state_words` of an index tuple, read-only, kept for the
    chunks whose generators are derived again."""
    words = _seed_state_words(seed, np.array(idx, dtype=np.uint32))
    words.flags.writeable = False
    return words


def sample_rngs(seed: int, idx) -> list[np.random.Generator]:
    """``[sample_rng(seed, i) for i in idx]``, derived together.

    The seed-sequence hashing runs once on the whole index set, and each
    generator's PCG64 is seeded from its row of state words, so every
    generator is independent and has the state of ``sample_rng(seed, i)``.
    The words of the last ``SEED_WORDS_CACHE`` (seed, indices) pairs are
    kept, read-only (each check of a sweep draws the same chunks again).
    A seed or index of 2**32 or more (several entropy words) takes
    ``sample_rng`` itself.  Raises ValueError on a negative seed or index,
    as SeedSequence does.
    """
    idx = tuple(int(i) for i in idx)
    if not idx:
        return []
    if seed < 0 or min(idx) < 0:
        raise ValueError(f"seed and indices must be non-negative, got seed {seed}, "
                         f"least index {min(idx)}")
    if seed > _WORD or max(idx) > _WORD:
        return [sample_rng(seed, i) for i in idx]
    words = _cached_state_words(seed, idx)
    return [np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words]


def run_sweep(check: str, d: AlgebraDescriptor, samples: int, seed: int,
              atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Run a registered check over seeded random inputs, in batches.

    Sample i draws from ``sample_rng(seed, i)``; a chunk's generators are
    derived together (:func:`sample_rngs`), with the same states.  The
    check's rows are evaluated SWEEP_CHUNK samples at a time, and only the
    first failing sample's inputs are serialized, as the witness.  Every row
    gets the arithmetic of its sample alone, so the report equals
    :func:`merge_reports` over the public check run on each sample's inputs.
    """
    if check not in CHECK_RUNNERS:
        raise ValueError(f"unknown check {check!r}; known: {sorted(CHECK_RUNNERS)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    runner = CHECK_RUNNERS[check]
    worst = math.inf
    witness = None
    details: dict = {}
    for start in range(0, samples, SWEEP_CHUNK):
        idx = range(start, min(start + SWEEP_CHUNK, samples))
        inputs = runner.draw(d, sample_rngs(seed, idx), atol, rtol)
        passed, slack, extra = runner.rows(d, inputs, atol, rtol)
        worst = min(worst, float(slack.min()))
        for key, vals in extra.items():
            vals = vals[~np.isnan(vals)]
            if vals.size:
                # .item() keeps an integer detail (the cutoff) an int
                details[f"max_{key}"] = max(details.get(f"max_{key}", -math.inf),
                                            vals.max().item())
        if witness is None and not passed.all():
            i = int(np.argmin(passed))
            witness = {"sample_index": idx[i], **runner.witness(d, inputs, i)}
    return VerificationReport(check, descriptor_to_spec(d), seed, samples, witness is None,
                              worst, witness, details)


def run_all(d: AlgebraDescriptor, samples: int, seed: int,
            atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> list[VerificationReport]:
    """Every registered sweep plus the fixed counterexample reproduction."""
    out = [run_sweep(name, d, samples, seed, atol=atol, rtol=rtol)
           for name in sorted(CHECK_RUNNERS)]
    out.append(check_absolute_product_counterexample())
    return out
