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
numeric details of every row) and its ``witness`` (every input of one row,
as the public check serializes it).  ``run_sweep`` applies them to chunks
of samples, and each public ``check_*`` call (and
:func:`build_commuting_factors`) is a batch of one.  Each row's result
depends on that row alone, so a sample's verdict and worst slack have the
same bits in a sweep and in a replay of its witness through the public
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    random_element,
    unit,
)
from .majorization import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    log_major,
    log_major_rows,
    major,
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
    eigvals,
    eigvals_batch,
    rebuild,
    rebuild_batch,
    spectral_decompose,
    spectral_decompose_batch,
    sqrt_batch,
)
from .transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    PositiveLinearMap,
    PositivityError,
    SchurMatrix,
    SublinearFn,
    apply_factors_rows,
    apply_sublinear_rows,
    certify_positive_by_sampling,
    compose_positive,
    positive_quad_map,
    positive_schur_map,
    quad_rep_coords,
    quad_rep_sqrt_rows,
    schur_rows,
)

# relative error allowed in the determinant identities of log_major_quadrep
# and of the commuting-factor construction
DET_IDENTITY_RTOL = 1e-8
NEAR_EQUALITY_SLACK = 1e-6

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


def _cone_floor(vals: np.ndarray, atol: float):
    """Lowest smallest eigenvalue still accepted from a cone element; rows of
    a 2-D ``vals`` get one floor each."""
    return -(1e-8 * np.maximum(1.0, np.abs(vals).max(axis=-1)) + atol)


def _require_cone(vals: np.ndarray, atol: float, label: str) -> None:
    """Raise unless the element, or every row of a stack, whose decreasing
    eigenvalues are ``vals`` lies in the cone up to its floor."""
    low = np.atleast_1d(vals[..., -1])
    bad = np.flatnonzero(low < _cone_floor(vals, atol))
    if bad.size:
        raise ValueError(f"{label} is not in the symmetric cone "
                         f"(min eigenvalue {low[bad[0]]:.3e})")


def _det_floor(la: np.ndarray, lb: np.ndarray):
    """Smallest eigenvalue above which the determinant identity is checked."""
    return 1e-7 * np.maximum(1.0, np.maximum(la.max(axis=-1), lb.max(axis=-1)))


# --- inputs and witnesses -------------------------------------------------------
#
# A check's inputs are a dict of arrays with one row per sample; a public
# check builds the one-row inputs of its arguments.  Witness helpers
# serialize every input of row i.

def _pair_rows(a: Element, b: Element) -> dict:
    """The pair a, b as a batch of one."""
    _check_pair(a, b)
    return {"a": a.coords[None, :], "b": b.coords[None, :]}


def _frame_coords(frame: JordanFrame) -> np.ndarray:
    return np.stack([e.coords for e in frame.idempotents])


def _phi_row(phi: SublinearFn) -> np.ndarray:
    return np.array([[phi.alpha, phi.beta]], dtype=np.float64)


def _slopes_twice(phi: np.ndarray):
    """The slopes alpha, beta of per-row sublinear functions (m, 2), for two
    stacked blocks of the m rows."""
    alpha, beta = np.tile(phi, (2, 1)).T
    return alpha, beta


def _el_json(d: AlgebraDescriptor, X: np.ndarray, i: int) -> dict:
    return element_to_json(Element(d, X[i]))


def _matrix_json(A: np.ndarray) -> list:
    return [[float(v) for v in row] for row in A]


def _frame_json(d: AlgebraDescriptor, frame: np.ndarray) -> list:
    return [element_to_json(Element(d, e)) for e in frame]


def _phi_json(phi: np.ndarray, i: int) -> list:
    return [float(phi[i, 0]), float(phi[i, 1])]


def _pair_witness(d, inp, i):
    return {"a": _el_json(d, inp["a"], i), "b": _el_json(d, inp["b"], i)}


def _columns(names: tuple, draws: list) -> dict:
    """Per-sample draw tuples to one array per name."""
    return {name: np.array(col) for name, col in zip(names, zip(*draws))}


# --- log-majorization of the square-root quadratic map ---------------------------

def _quadrep_spectra(d: AlgebraDescriptor, a: np.ndarray, b: np.ndarray, atol: float):
    """Per row of the cone pairs a, b ((m, dim) arrays): lambda(a), lambda(b)
    and lambda(P_sqrt(a)(b)).

    Raises ValueError, or ConeError at the square root's clamp, when any
    row is not a pair of cone elements.
    """
    m = len(a)
    vals, frames = spectral_decompose_batch(d, np.concatenate([a, b]))
    la, lb = vals[:m], vals[m:]
    _require_cone(la, atol, "a")
    _require_cone(lb, atol, "b")
    lz = eigvals_batch(d, quad_rep_coords(d, sqrt_batch(la, frames[:m]), b))
    return la, lb, lz


def _log_major_spectra(d, a, b, atol):
    """lambda(P_sqrt(a)(b)), lambda(a)*lambda(b) and the determinant
    identity's relative error (NaN where the pair is too close to singular
    for the identity to be checked), per row."""
    la, lb, lz = _quadrep_spectra(d, a, b, atol)
    target = la * lb  # both decreasing and nonnegative, so the product is too
    floor = _det_floor(la, lb)
    checked = (la[:, -1] > floor) & (lb[:, -1] > floor)
    det_rhs = np.where(checked, target.prod(axis=1), 1.0)
    det_rel = np.where(checked, np.abs(lz.prod(axis=1) - det_rhs) / np.abs(det_rhs), np.nan)
    return lz, target, det_rel


def _log_major_rows(d, inp, atol, rtol):
    lz, target, det_rel = _log_major_spectra(d, inp["a"], inp["b"], atol)
    worst_log, holds_log = log_major_rows(lz, target, atol=atol, rtol=rtol)
    worst_weak, holds_weak = weak_major_rows(lz, target, atol=atol, rtol=rtol)
    passed = holds_log & holds_weak & ~(det_rel > DET_IDENTITY_RTOL)
    # on a tie np.minimum returns its second argument, as min() in the
    # single check returns its first: a zero slack keeps its sign
    return passed, np.minimum(worst_weak, worst_log), {"det_rel_err": det_rel}


def check_log_major_quadrep(a: Element, b: Element,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(P_sqrt(a)(b)) is log-majorized by lambda(a)*lambda(b), a,b >= 0.

    Also checks the weak-majorization consequence and, for comfortably
    invertible inputs, the determinant identity at k = n.
    """
    inp = _pair_rows(a, b)
    lz, target, det_rel = _log_major_spectra(a.descriptor, inp["a"], inp["b"], atol)
    v_log = log_major(lz[0], target[0], atol=atol, rtol=rtol)
    v_weak = weak_major(lz[0], target[0], atol=atol, rtol=rtol)
    details = {"log": v_log.to_json(), "weak": v_weak.to_json()}
    passed = v_log.holds and v_weak.holds
    if math.isnan(det_rel[0]):
        details["det_skipped"] = "near-singular input"
    else:
        details["det_rel_err"] = float(det_rel[0])
        passed = passed and det_rel[0] <= DET_IDENTITY_RTOL

    worst = min(v_log.worst_slack, v_weak.worst_slack)
    return _single("log_major_quadrep", a, passed, worst,
                   _pair_witness(a.descriptor, inp, 0), details)


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
    inp = _pair_rows(a, b)
    passed, worst, _ = _sup_bound_rows(a.descriptor, inp, atol, rtol)
    return _single("quadrep_sup_bound", a, passed[0], worst[0],
                   _pair_witness(a.descriptor, inp, 0), {})


# --- operator-commuting factorization through a spectral cutoff -------------------

def _commuting_factors(d, a, k, atol, rtol, det_rtol):
    """:func:`build_commuting_factors` on every row of a with cutoff k[i]:
    the factors x, y ((m, dim) each), the verdicts, the worst slacks and the
    per-row details of the report."""
    m = len(a)
    vals, frames = spectral_decompose_batch(d, a)
    order = np.argsort(-np.abs(vals), axis=1, kind="stable")
    av = np.take_along_axis(vals, order, axis=1)
    frames = np.take_along_axis(frames, order[:, :, None], axis=1)
    mag = np.abs(av)
    with np.errstate(over="ignore"):  # an infinite floor rejects every row
        inv_floor = (atol + rtol * mag.max(axis=1)) * 10.0
    bad = np.flatnonzero(mag.min(axis=1) <= inv_floor)
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
    ok_iv = det_rel <= det_rtol

    passed = ok_i & ok_ii & ok_iii & ok_iv
    worst = lmin_xe
    for slack in (tol1 - r1, tol2 - r2, det_rtol - det_rel, np.where(ok_ii, 0.0, -1.0)):
        worst = np.minimum(slack, worst)  # a tie keeps the earlier slack, as min() does
    details = {"cone_gap": lmin_xe, "recover_residual": r1, "recover_sq_residual": r2,
               "det_rel_err": det_rel, "cutoff": k,
               "i": ok_i, "ii": ok_ii, "iii": ok_iii, "iv": ok_iv}
    return x, y, passed, worst, details


_FACTOR_DETAILS = ("cone_gap", "recover_residual", "recover_sq_residual",
                   "det_rel_err", "cutoff")


def _factor_rows(d, inp, atol, rtol):
    _, _, passed, worst, details = _commuting_factors(d, inp["a"], inp["k"],
                                                      atol, rtol, DET_IDENTITY_RTOL)
    return passed, worst, {key: details[key] for key in _FACTOR_DETAILS}


def _factor_witness(d, inp, i):
    return {"a": _el_json(d, inp["a"], i), "k": int(inp["k"][i])}


def build_commuting_factors(a: Element, k: int,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL,
                            det_rtol: float = DET_IDENTITY_RTOL):
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
    x, y, passed, worst, rows = _commuting_factors(d, inp["a"], inp["k"],
                                                   atol, rtol, det_rtol)
    details = {key: rows[key][0].item() for key in _FACTOR_DETAILS}
    details.update({key: bool(rows[key][0]) for key in ("i", "ii", "iii", "iv")})
    report = _single("commuting_factors", a, passed[0], worst[0],
                     _factor_witness(d, inp, 0), details)
    return Element(d, x[0]), Element(d, y[0]), report


# --- sublinear spectral maps through positive transformations ---------------------

def _positive_map_spectra(d, apply: Callable, x: np.ndarray, phi: np.ndarray):
    """lambda(phi(P(x))) and lambda(P(phi(x))) per row, where ``apply`` maps
    an (m, dim) stack through each row's positive map P."""
    m = len(x)
    mapped = apply_sublinear_rows(d, *_slopes_twice(phi), np.concatenate([apply(x), x]))
    lam = eigvals_batch(d, np.concatenate([mapped[:m], apply(mapped[m:])]))
    return lam[:m], lam[m:]


def _factor_rows_of(P: PositiveLinearMap) -> tuple:
    """A built map's factors as one-row operands for apply_factors_rows."""
    return tuple(("quad", f[1].coords[None]) if f[0] == "quad"
                 else ("schur", f[1].entries[None], _frame_coords(f[2])[None])
                 for f in P.factors)


def _factors_json(P: PositiveLinearMap) -> list:
    d = P.descriptor
    return [{"kind": "quad", "c": element_to_json(f[1])} if f[0] == "quad"
            else {"kind": "schur", "A": _matrix_json(f[1].entries),
                  "frame": _frame_json(d, _frame_coords(f[2]))}
            for f in P.factors]


def check_positive_map_sublinear(P: PositiveLinearMap, x: Element, phi: SublinearFn,
                                 atol: float = DEFAULT_ATOL,
                                 rtol: float = DEFAULT_RTOL,
                                 rng: np.random.Generator | None = None) -> VerificationReport:
    """phi(P(x)) weakly majorized by P(phi(x)) for positive P and sublinear phi.

    A map built from factors (quadratic representations, PSD Schur products
    and their compositions) is applied through them and recorded with them
    in the witness; any other map is applied through ``P.fn``.
    """
    d = x.descriptor
    if P.descriptor != d:
        raise DescriptorMismatchError(f"map on {P.descriptor} vs element of {d}")
    if not P.certified:
        if rng is None or not certify_positive_by_sampling(P, rng):
            raise PositivityError("map lacks a positivity certificate")
    if P.factors:
        factors = _factor_rows_of(P)

        def apply(X):
            return apply_factors_rows(d, factors, X)
    else:
        def apply(X):
            return P(Element(d, X[0])).coords[None]

    lhs, rhs = _positive_map_spectra(d, apply, x.coords[None], _phi_row(phi))
    v = weak_major(lhs[0], rhs[0], atol=atol, rtol=rtol)
    witness = {"x": element_to_json(x), "phi": _phi_json(_phi_row(phi), 0), "map": P.label,
               "factors": _factors_json(P)}
    return _single("positive_map_sublinear", x, v.holds, v.worst_slack,
                   witness, {"verdict": v.to_json()})


def _quadrep_sublinear_spectra(d, inp):
    """lambda(phi(P_a(b))) and lambda(a^2)*lambda(phi(b)) per row."""
    a, b = inp["a"], inp["b"]
    m = len(a)
    mapped = apply_sublinear_rows(d, *_slopes_twice(inp["phi"]),
                                  np.concatenate([quad_rep_coords(d, a, b), b]))
    lam = eigvals_batch(d, np.concatenate([mapped, a]))
    la = lam[2 * m:]
    return lam[:m], sort_desc_rows(la * la) * lam[m:2 * m]


def _quadrep_sublinear_rows(d, inp, atol, rtol):
    worst, holds = weak_major_rows(*_quadrep_sublinear_spectra(d, inp), atol=atol, rtol=rtol)
    return holds, worst, {}


def _quadrep_sublinear_witness(d, inp, i):
    return {**_pair_witness(d, inp, i), "phi": _phi_json(inp["phi"], i)}


def check_quadrep_sublinear(a: Element, b: Element, phi: SublinearFn,
                            atol: float = DEFAULT_ATOL,
                            rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(phi(P_a(b))) weakly majorized by lambda(a^2)*lambda(phi(b))."""
    if not phi.is_nonnegative:
        raise ValueError("phi must be a nonnegative sublinear function")
    inp = {**_pair_rows(a, b), "phi": _phi_row(phi)}
    lhs, rhs = _quadrep_sublinear_spectra(a.descriptor, inp)
    v = weak_major(lhs[0], rhs[0], atol=atol, rtol=rtol)
    return _single("quadrep_sublinear", a, v.holds, v.worst_slack,
                   _quadrep_sublinear_witness(a.descriptor, inp, 0),
                   {"verdict": v.to_json()})


def _multiplier_rows(A, frame: JordanFrame, x: Element) -> dict:
    """A PSD multiplier with its frame as a batch of one; raises as the
    checks' preconditions require."""
    A = A if isinstance(A, SchurMatrix) else SchurMatrix(np.asarray(A))
    if A.n != len(frame):
        raise ValueError(f"multiplier size {A.n} does not match frame rank {len(frame)}")
    if frame.descriptor != x.descriptor:
        raise DescriptorMismatchError(
            f"frame of {frame.descriptor} vs element of {x.descriptor}")
    if not A.is_psd():
        raise PositivityError(
            f"multiplier is not positive semidefinite (min eig {A.min_eigenvalue():.3e})"
        )
    return {"A": A.entries[None], "frame": _frame_coords(frame)[None]}


def _multiplier_witness(d, inp, i):
    return {"A": _matrix_json(inp["A"][i]), "frame": _frame_json(d, inp["frame"][i])}


def _schur_diag_spectra(d, inp):
    """lambda(phi(A.b)), lambda(diag A)*lambda(phi(b)) and lambda(A.phi(b))
    per row, the Schur products taken on each row's frame."""
    A, frames, b = inp["A"], inp["frame"], inp["b"]
    m = len(b)
    mapped = apply_sublinear_rows(d, *_slopes_twice(inp["phi"]),
                                  np.concatenate([schur_rows(d, A, frames, b), b]))
    phib = mapped[m:]
    lam = eigvals_batch(d, np.concatenate([mapped, schur_rows(d, A, frames, phib)]))
    diag = sort_desc_rows(np.diagonal(A, axis1=1, axis2=2))
    return lam[:m], diag * lam[m:2 * m], lam[2 * m:]


def _schur_diag_rows(d, inp, atol, rtol):
    lhs, rhs_diag, rhs_elem = _schur_diag_spectra(d, inp)
    worst_diag, holds_diag = weak_major_rows(lhs, rhs_diag, atol=atol, rtol=rtol)
    worst_elem, holds_elem = weak_major_rows(lhs, rhs_elem, atol=atol, rtol=rtol)
    return holds_diag & holds_elem, np.minimum(worst_elem, worst_diag), {}


def _schur_diag_witness(d, inp, i):
    return {**_multiplier_witness(d, inp, i), "b": _el_json(d, inp["b"], i),
            "phi": _phi_json(inp["phi"], i)}


def check_schur_diag(A, frame: JordanFrame, b: Element, phi: SublinearFn,
                     atol: float = DEFAULT_ATOL,
                     rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """PSD multiplier route: lambda(phi(A.b)) against diag(A) and against A.phi(b)."""
    if not phi.is_nonnegative:
        raise ValueError("phi must be a nonnegative sublinear function")
    inp = {**_multiplier_rows(A, frame, b), "b": b.coords[None], "phi": _phi_row(phi)}
    lhs, rhs_diag, rhs_elem = _schur_diag_spectra(b.descriptor, inp)
    v_diag = weak_major(lhs[0], rhs_diag[0], atol=atol, rtol=rtol)
    v_elem = weak_major(lhs[0], rhs_elem[0], atol=atol, rtol=rtol)
    passed = v_diag.holds and v_elem.holds
    worst = min(v_diag.worst_slack, v_elem.worst_slack)
    return _single("schur_diag", b, passed, worst, _schur_diag_witness(b.descriptor, inp, 0),
                   {"diag": v_diag.to_json(), "element": v_elem.to_json()})


# --- weak majorization of the Jordan product --------------------------------------

def _jordan_spectra(d: AlgebraDescriptor, a: np.ndarray, b: np.ndarray):
    """Per row of the pairs a, b ((m, dim) arrays): |lambda(a o b)| and
    lambda(|a|)*lambda(|b|), the two sides of :func:`check_jordan_weak`."""
    m = len(a)
    vals = np.abs(eigvals_batch(d, np.concatenate([jordan_product_coords(d, a, b), a, b])))
    return vals[:m], sort_desc_rows(vals[m:2 * m]) * sort_desc_rows(vals[2 * m:])


def _jordan_weak_rows(d, inp, atol, rtol):
    worst, holds = weak_major_rows(*_jordan_spectra(d, inp["a"], inp["b"]),
                                   atol=atol, rtol=rtol)
    return holds, worst, {}


def check_jordan_weak(a: Element, b: Element,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """lambda(|a o b|) weakly majorized by lambda(|a|)*lambda(|b|) for all a, b."""
    inp = _pair_rows(a, b)
    lhs, rhs = _jordan_spectra(a.descriptor, inp["a"], inp["b"])
    v = weak_major(lhs[0], rhs[0], atol=atol, rtol=rtol)
    details = {"verdict": v.to_json()}
    if v.holds and v.worst_slack <= NEAR_EQUALITY_SLACK:
        # recorded for interest only; nothing is asserted about equality cases
        details["near_equality"] = True
    return _single("jordan_weak", a, v.holds, v.worst_slack,
                   _pair_witness(a.descriptor, inp, 0), details)


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

def _pinch_spectra(d, inp, atol):
    """The spectra compared by :func:`check_quadrep_pinch`, per row:
    [lambda(P_sqrt(a)(b)), lambda(a o b)] and, when the inputs carry a
    multiplier, [lambda(A.b), lambda(P_sqrt(c)(b))] with c = diag(A) on the
    row's frame."""
    a, b = inp["a"], inp["b"]
    m = len(a)
    legs = [a]
    if "A" in inp:
        legs.append(rebuild_batch(inp["frame"], np.diagonal(inp["A"], axis1=1, axis2=2)))
    vals, frames = spectral_decompose_batch(d, np.concatenate(legs))
    _require_cone(vals[:m], atol, "a")
    roots = sqrt_batch(vals, frames)
    parts = [quad_rep_coords(d, roots[:m], b), jordan_product_coords(d, a, b)]
    if "A" in inp:
        parts += [schur_rows(d, inp["A"], inp["frame"], b), quad_rep_coords(d, roots[m:], b)]
    lam = eigvals_batch(d, np.concatenate(parts))
    return [lam[j * m:(j + 1) * m] for j in range(len(parts))]


def _pinch_rows(d, inp, atol, rtol):
    spectra = _pinch_spectra(d, inp, atol)
    worst, passed = major_rows(spectra[0], spectra[1], atol=atol, rtol=rtol)
    if len(spectra) == 4:
        worst_schur, holds_schur = major_rows(spectra[2], spectra[3], atol=atol, rtol=rtol)
        passed = passed & holds_schur
        worst = np.minimum(worst_schur, worst)
    return passed, worst, {}


def _pinch_witness(d, inp, i):
    witness = _pair_witness(d, inp, i)
    if "A" in inp:
        witness.update(_multiplier_witness(d, inp, i))
    return witness


def check_quadrep_pinch(a: Element, b: Element, A=None,
                        frame: JordanFrame | None = None,
                        atol: float = DEFAULT_ATOL,
                        rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """Strong majorization chains lambda(P_sqrt(a)(b)) < lambda(a o b) and,
    given a PSD multiplier with its frame, lambda(A.b) < lambda(P_sqrt(d)(b))
    where d carries diag(A) on the frame."""
    inp = _pair_rows(a, b)
    if A is not None:
        if frame is None:
            raise ValueError("a frame is required together with a multiplier")
        inp.update(_multiplier_rows(A, frame, b))
    spectra = _pinch_spectra(a.descriptor, inp, atol)
    v1 = major(spectra[0][0], spectra[1][0], atol=atol, rtol=rtol)
    passed = v1.holds
    worst = v1.worst_slack
    details = {"vs_jordan": v1.to_json()}
    if A is not None:
        v2 = major(spectra[2][0], spectra[3][0], atol=atol, rtol=rtol)
        passed = passed and v2.holds
        worst = min(worst, v2.worst_slack)
        details["schur_vs_quadrep"] = v2.to_json()
    return _single("quadrep_pinch", a, passed, worst,
                   _pinch_witness(a.descriptor, inp, 0), details)


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


def _holder_witness(d, inp, i):
    return {**_pair_witness(d, inp, i), "r": float(inp["r"][i]), "s": float(inp["s"][i])}


def check_holder(a: Element, b: Element, r: float, s: float,
                 atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL) -> VerificationReport:
    """||a o b||_p <= ||a||_r ||b||_s with 1/p = 1/r + 1/s."""
    inp = {**_pair_rows(a, b), "r": np.array([float(r)]), "s": np.array([float(s)])}
    passed, slack, rows = _holder_rows(a.descriptor, inp, atol, rtol)
    return _single("holder", a, passed[0], slack[0], _holder_witness(a.descriptor, inp, 0),
                   {key: float(vals[0]) for key, vals in rows.items()})


# --- samplers -----------------------------------------------------------------------

# The samplers' raw draws are kept apart so that the batched draws take
# exactly what the scalar samplers draw, in the same order.

def _general_draw(d: AlgebraDescriptor, rng: np.random.Generator,
                  sigma: float = GENERAL_SIGMA) -> np.ndarray:
    """iid Gaussian coordinates, the draw of ``random_element``."""
    return rng.normal(0.0, sigma, d.dim)


def _cone_draws(d: AlgebraDescriptor, rng: np.random.Generator):
    """Gaussian coordinates whose frame is kept, then the eigenvalues' unit
    draws (:func:`_cone_eigs` maps them)."""
    return rng.normal(0.0, 1.0, d.dim), rng.random(d.rank)


def _cone_eigs(u, low: float = CONE_EIG_LOW, high: float = CONE_EIG_HIGH):
    """Unit draws to eigenvalues on [low, high), with the bits of
    ``rng.uniform(low, high)``, which computes ``low + (high - low) * u``."""
    return low + (high - low) * u


def sample_general(d: AlgebraDescriptor, rng: np.random.Generator,
                   sigma: float = GENERAL_SIGMA) -> Element:
    return Element(d, _general_draw(d, rng, sigma))


def sample_cone(d: AlgebraDescriptor, rng: np.random.Generator,
                low: float = CONE_EIG_LOW, high: float = CONE_EIG_HIGH) -> Element:
    """Cone element with uniform eigenvalues on a random frame."""
    coords, u = _cone_draws(d, rng)
    return rebuild(spectral_decompose(Element(d, coords)).frame, _cone_eigs(u, low, high))


def _invertible_coords(d: AlgebraDescriptor, rngs, sigma: float = GENERAL_SIGMA,
                       min_abs: float = INVERTIBLE_MIN_ABS,
                       atol: float = 0.0, rtol: float = 0.0) -> np.ndarray:
    """Coordinates (m, dim) of general elements, row i redrawn from
    ``rngs[i]`` until every |eigenvalue| clears the floor
    ``max(min_abs, 10 * (atol + rtol * max|eigenvalue|))`` -- at nonzero
    tolerances the floor of :func:`build_commuting_factors`.

    Raises ResampleError once a row has missed the floor in
    MAX_RESAMPLE_DRAWS draws.
    """
    def clears(lam):
        mag = np.abs(lam)
        with np.errstate(over="ignore"):  # an infinite floor rejects every draw
            floor = np.maximum(min_abs, (atol + rtol * mag.max(axis=-1)) * 10.0)
        return mag.min(axis=-1) > floor, floor

    X = np.array([_general_draw(d, rng, sigma) for rng in rngs]).reshape(-1, d.dim)
    ok, _ = clears(eigvals_batch(d, X))
    # rows that missed are redrawn one at a time, so a row that cannot clear
    # the floor raises after its own MAX_RESAMPLE_DRAWS draws
    for i in np.flatnonzero(~ok):
        for _ in range(MAX_RESAMPLE_DRAWS - 1):
            X[i] = _general_draw(d, rngs[i], sigma)
            ok_i, floor = clears(eigvals(Element(d, X[i])))
            if ok_i:
                break
        else:
            raise ResampleError(
                f"no element of {descriptor_to_spec(d)} with all |eigenvalues| above "
                f"max({min_abs:g}, 10 * (atol + rtol * max|eigenvalue|)) = "
                f"{floor:.3e} (atol {atol:g}, rtol {rtol:g}) in "
                f"{MAX_RESAMPLE_DRAWS} draws (sigma {sigma:g})")
    return X


def sample_invertible(d: AlgebraDescriptor, rng: np.random.Generator,
                      sigma: float = GENERAL_SIGMA,
                      min_abs: float = INVERTIBLE_MIN_ABS) -> Element:
    """General element resampled until all eigenvalues clear min_abs.

    Raises ResampleError (a ValueError) after MAX_RESAMPLE_DRAWS draws that
    all fail.
    """
    return Element(d, _invertible_coords(d, [rng], sigma, min_abs)[0])


def sample_frame(d: AlgebraDescriptor, rng: np.random.Generator) -> JordanFrame:
    return spectral_decompose(random_element(d, rng, 1.0)).frame


def sample_psd_gram(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    G = rng.normal(0.0, scale, (n, n))
    return G.T @ G


def sample_sublinear(rng: np.random.Generator) -> SublinearFn:
    """A nonnegative sublinear function: alpha in [0, 2), beta in [-2, 0)."""
    return SublinearFn(float(rng.uniform(0.0, 2.0)), float(rng.uniform(-2.0, 0.0)))


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


_HOLDER_GRID = ((2.0, 2.0), (3.0, 1.5), (math.inf, 1.0), (1.0, math.inf),
                (math.inf, math.inf), (4.0, 2.0), (3.0, 3.0))


# --- batched draws ------------------------------------------------------------------
#
# Each maps the generators of a chunk of samples to that chunk's inputs,
# drawing from each generator what the matching scalar samplers draw, in
# the same order; the decompositions behind cone elements and frames then
# run once per chunk.

def _phi_choice(rng) -> tuple:
    phi = _PHI_CHOICES[int(rng.integers(len(_PHI_CHOICES)))]
    return phi.alpha, phi.beta


def _cone_pairs(d, rngs, atol=None, rtol=None):
    """Cone pairs a, b, drawn as sample_cone draws."""
    m = len(rngs)
    draws = [_cone_draws(d, rng) + _cone_draws(d, rng) for rng in rngs]
    ga, ua, gb, ub = (np.array(col) for col in zip(*draws))
    _, frames = spectral_decompose_batch(d, np.concatenate([ga, gb]))
    ab = rebuild_batch(frames, _cone_eigs(np.concatenate([ua, ub])))
    return {"a": ab[:m], "b": ab[m:]}


def _general_pairs(d, rngs, atol=None, rtol=None):
    """Pairs a, b, drawn as sample_general draws."""
    return _columns(("a", "b"), [(_general_draw(d, rng), _general_draw(d, rng))
                                 for rng in rngs])


def _holder_draw(d, rngs, atol=None, rtol=None):
    """A Hoelder exponent pair from the grid, then a general pair."""
    return _columns(("r", "s", "a", "b"), [
        _HOLDER_GRID[int(rng.integers(len(_HOLDER_GRID)))]
        + (_general_draw(d, rng), _general_draw(d, rng)) for rng in rngs])


def _quadrep_sublinear_draw(d, rngs, atol=None, rtol=None):
    """A nonnegative sublinear function (sample_sublinear), then a general pair."""
    def one(rng):
        phi = sample_sublinear(rng)
        return (phi.alpha, phi.beta), _general_draw(d, rng), _general_draw(d, rng)
    return _columns(("phi", "a", "b"), [one(rng) for rng in rngs])


def _factor_draw(d, rngs, atol=0.0, rtol=0.0):
    """An invertible element clearing the floor the factorization applies at
    (atol, rtol) (sample_invertible), then a cutoff k in 1..rank."""
    a = _invertible_coords(d, rngs, atol=atol, rtol=rtol)
    return {"a": a, "k": np.array([int(rng.integers(1, d.rank + 1)) for rng in rngs])}


def _symmetrized(A: np.ndarray) -> np.ndarray:
    """Each multiplier's entries as SchurMatrix stores them."""
    return (A + A.swapaxes(1, 2)) / 2.0


def _schur_diag_draw(d, rngs, atol=None, rtol=None):
    """A PSD Gram multiplier, a frame, phi in (|t|, t+, t-), then b."""
    inp = _columns(("A", "g", "phi", "b"), [
        (sample_psd_gram(d.rank, rng), _general_draw(d, rng, 1.0), _phi_choice(rng),
         _general_draw(d, rng)) for rng in rngs])
    inp["frame"] = spectral_decompose_batch(d, inp.pop("g"))[1]
    inp["A"] = _symmetrized(inp["A"])
    return inp


def _pinch_draw(d, rngs, atol=None, rtol=None):
    """A PSD Gram multiplier, a frame, a cone element a, then b."""
    inp = _columns(("A", "g", "ga", "ua", "b"), [
        (sample_psd_gram(d.rank, rng), _general_draw(d, rng, 1.0))
        + _cone_draws(d, rng) + (_general_draw(d, rng),) for rng in rngs])
    m = len(rngs)
    _, frames = spectral_decompose_batch(d, np.concatenate([inp.pop("g"), inp.pop("ga")]))
    inp["frame"] = frames[:m]
    inp["a"] = rebuild_batch(frames[m:], _cone_eigs(inp.pop("ua")))
    inp["A"] = _symmetrized(inp["A"])
    return inp


def _positive_map_draw(d, rngs, atol=None, rtol=None):
    """A map kind and phi, then the map's operands and x (:func:`_map_draws`)."""
    kind = np.array([int(rng.integers(len(_MAP_KINDS))) for rng in rngs], dtype=np.int64)
    phi = np.array([_phi_choice(rng) for rng in rngs])
    return {"kind": kind, "phi": phi, **_map_draws(d, rngs, kind)}


def _map_draws(d, rngs, kind):
    """Row i's positive map of kind ``_MAP_KINDS[kind[i]]``, drawn as
    make_positive_map draws it, then x (sample_general).

    Rows hold every operand array; those a row's kind does not use are NaN:
    ``c[:, 0]`` is P_c's operand for "quad" and the outer one for
    "quad_compose", ``c[:, 1]`` the inner one; ``A`` and ``frame`` serve
    "schur_psd".
    """
    m, rank, dim = len(rngs), d.rank, d.dim
    out = {"c": np.full((m, 2, dim), np.nan), "A": np.full((m, rank, rank), np.nan),
           "frame": np.full((m, rank, dim), np.nan), "x": np.empty((m, dim))}
    # coordinates to decompose, and the (row, slot) each frame lands in:
    # slot -1 is the Schur frame, slots 0 and 1 the cone operands
    gauss, vals, dest = [], [], []
    for i, rng in enumerate(rngs):
        if _MAP_KINDS[kind[i]] == "schur_psd":
            out["A"][i] = sample_psd_gram(rank, rng)
            gauss.append(_general_draw(d, rng, 1.0))
            vals.append(np.zeros(rank))
            dest.append((i, -1))
        else:
            for j in range(1 if _MAP_KINDS[kind[i]] == "quad" else 2):
                g, v = _cone_draws(d, rng)
                gauss.append(g)
                vals.append(v)
                dest.append((i, j))
        out["x"][i] = _general_draw(d, rng)
    _, frames = spectral_decompose_batch(d, np.array(gauss))
    cones = rebuild_batch(frames, _cone_eigs(np.array(vals), 0.0, 2.0))
    for (i, j), frame, c in zip(dest, frames, cones):
        if j < 0:
            out["frame"][i] = frame
        else:
            out["c"][i, j] = c
    out["A"] = _symmetrized(out["A"])
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

    lhs, rhs = _positive_map_spectra(d, apply, inp["x"], inp["phi"])
    worst, holds = weak_major_rows(lhs, rhs, atol=atol, rtol=rtol)
    return holds, worst, {}


def _row_map(d, inp, i) -> PositiveLinearMap:
    """Row i's map, built from its operands as make_positive_map builds it."""
    kind = _MAP_KINDS[inp["kind"][i]]
    if kind == "schur_psd":
        frame = JordanFrame([Element(d, e) for e in inp["frame"][i]])
        return positive_schur_map(SchurMatrix(inp["A"][i]), frame)
    maps = [positive_quad_map(Element(d, c))
            for c in inp["c"][i, :1 if kind == "quad" else 2]]
    return maps[0] if kind == "quad" else compose_positive(*maps)


def _positive_map_witness(d, inp, i):
    """Row i's inputs as check_positive_map_sublinear records them."""
    P = _row_map(d, inp, i)
    return {"x": _el_json(d, inp["x"], i), "phi": _phi_json(inp["phi"], i),
            "map": P.label, "factors": _factors_json(P)}


# --- the registry ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRunner:
    """A registered check, evaluated on arrays with one row per sample.

    ``draw(d, rngs, atol, rtol)`` draws the inputs of one sample from each
    generator; ``rows(d, inputs, atol, rtol)`` returns every row's verdict,
    worst slack and numeric details ({name: per-row values, NaN where the
    report has none}); ``witness(d, inputs, i)`` serializes every input of
    row i, as the public check records them.
    """

    draw: Callable
    rows: Callable
    witness: Callable


CHECK_RUNNERS: dict[str, CheckRunner] = {
    "log_major_quadrep": CheckRunner(_cone_pairs, _log_major_rows, _pair_witness),
    "quadrep_sup_bound": CheckRunner(_cone_pairs, _sup_bound_rows, _pair_witness),
    "commuting_factors": CheckRunner(_factor_draw, _factor_rows, _factor_witness),
    "positive_map_sublinear": CheckRunner(_positive_map_draw, _positive_map_rows,
                                          _positive_map_witness),
    "quadrep_sublinear": CheckRunner(_quadrep_sublinear_draw, _quadrep_sublinear_rows,
                                     _quadrep_sublinear_witness),
    "schur_diag": CheckRunner(_schur_diag_draw, _schur_diag_rows, _schur_diag_witness),
    "jordan_weak": CheckRunner(_general_pairs, _jordan_weak_rows, _pair_witness),
    "quadrep_pinch": CheckRunner(_pinch_draw, _pinch_rows, _pinch_witness),
    "holder": CheckRunner(_holder_draw, _holder_rows, _holder_witness),
}


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence handing PCG64 its four uint64 state words, derived
    beforehand by :func:`_seed_state_words`."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashmix(value: np.ndarray, const: int, mult: int):
    """numpy's seed-sequence hash step on uint32 words: the hashed words and
    the next hash constant."""
    following = const * mult & _WORD
    value = (value ^ np.uint32(const)) * np.uint32(following)
    return value ^ (value >> _XSHIFT), following


def _seed_state_words(seed: int, idx: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for every i
    of the uint32 array ``idx`` (seed below 2**32 too, so the entropy is the
    two words [seed, i]), as an (m, 4) array: numpy's hashing on a (4, m)
    pool."""
    m = len(idx)
    zeros = np.zeros(m, dtype=np.uint32)
    pool = []
    const = _INIT_A
    for word in (np.full(m, seed, dtype=np.uint32), idx, zeros, zeros):
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * word
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    # generate_state: 8 uint32 words cycling over the pool, paired low word
    # first into 4 uint64 words
    const = _INIT_B
    state = []
    for k in range(8):
        word, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
        state.append(word.astype(np.uint64))
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(state[::2], state[1::2])],
                    axis=1)


def sample_rngs(seed: int, idx) -> list[np.random.Generator]:
    """``[sample_rng(seed, i) for i in idx]``, derived together.

    The seed-sequence hashing runs once on the whole index set, and each
    generator's PCG64 is seeded from its row of state words, so every
    generator is independent and has the state of ``sample_rng(seed, i)``.
    A seed or index of 2**32 or more (several entropy words) takes
    ``sample_rng`` itself.  Raises ValueError on a negative seed or index,
    as SeedSequence does.
    """
    idx = [int(i) for i in idx]
    if not idx:
        return []
    if seed < 0 or min(idx) < 0:
        raise ValueError(f"seed and indices must be non-negative, got seed {seed}, "
                         f"least index {min(idx)}")
    if seed > _WORD or max(idx) > _WORD:
        return [sample_rng(seed, i) for i in idx]
    words = _seed_state_words(seed, np.array(idx, dtype=np.uint32))
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
