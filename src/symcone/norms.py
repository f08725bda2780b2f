"""Operator norms of multiplication, quadratic, and Schur-product maps
between two spectral p-norms, with closed forms and empirical cross-checks.

For a diagonal action d on a frame (eigenvalues for the multiplication
operator, squared eigenvalues for the quadratic representation, diag(A) for a
Schur multiplier), the norm from ||.||_r to ||.||_s is

    ||d||_inf              when r <= s,
    ||d||_{rs/(r-s)}       when s < r,

where the exponent rs/(r-s) is evaluated through its defining relation
1/s = 1/t + 1/r, hence t = s at r = inf.  The empirical estimator always
evaluates the extremal witness (the argmax frame element for r <= s, the
|d_i|^{t/r} sgn(d_i) combination for s < r) and then spends its budget on
random sampling plus coordinate ascent.

For Schur multipliers that are not PSD the closed form is only certified as
an upper bound on the frame-diagonal subspace, so the search is restricted
there and the result carries a note saying so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraDescriptor,
    Element,
    from_orthonormal,
    to_orthonormal,
)
from .majorization import vec_pnorm
from .spectral import JordanFrame, eigvals, rebuild, spectral_decompose, standard_frame
from .transforms import (
    SchurMatrix,
    as_matrix,
    lyap_map,
    quad_rep_map,
    schur_map,
)

NORM_KINDS = ("lyap", "quad", "schur")


def _validate_rs(r: float, s: float) -> tuple[float, float]:
    r, s = float(r), float(s)
    for v in (r, s):
        if not v >= 1.0:
            raise ValueError(f"norm orders must lie in [1, inf], got {v}")
    return r, s


def dual_exponent(r: float, s: float) -> float:
    """t with 1/s = 1/t + 1/r for s < r; equals s when r = inf."""
    if math.isinf(r):
        return s
    return r * s / (r - s)


def _diag_and_frame(kind: str, operand, frame: JordanFrame | None,
                    descriptor: AlgebraDescriptor | None):
    """Frame-diagonal action vector, aligned frame, operator callable, psd flag."""
    if kind == "lyap":
        sd = spectral_decompose(operand)
        return sd.eigenvalues, sd.frame, lyap_map(operand), True
    if kind == "quad":
        sd = spectral_decompose(operand)
        return sd.eigenvalues**2, sd.frame, quad_rep_map(operand), True
    if kind == "schur":
        A = operand if isinstance(operand, SchurMatrix) else SchurMatrix(np.asarray(operand))
        if frame is None:
            if descriptor is None:
                raise ValueError("schur norms need a frame or a descriptor")
            frame = standard_frame(descriptor)
        if A.n != len(frame):
            raise ValueError(f"multiplier size {A.n} does not match frame rank {len(frame)}")
        return A.diag(), frame, schur_map(A, frame), A.is_psd()
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def norm_closed_form(kind: str, operand, r: float, s: float,
                     frame: JordanFrame | None = None,
                     descriptor: AlgebraDescriptor | None = None) -> float:
    """Exact operator norm from the spectral r-norm to the spectral s-norm."""
    r, s = _validate_rs(r, s)
    d, _, _, _ = _diag_and_frame(kind, operand, frame, descriptor)
    if r <= s:
        return vec_pnorm(np.abs(d), math.inf)
    return vec_pnorm(np.abs(d), dual_exponent(r, s))


@dataclass
class EmpiricalNorm:
    value: float
    witness: Element
    witness_value: float
    evaluations: int
    note: str | None = None


def _ratio_through_matrix(T: np.ndarray, d: AlgebraDescriptor,
                          u: np.ndarray, r: float, s: float) -> float:
    den = vec_pnorm(eigvals(from_orthonormal(d, u)), r)
    if den == 0.0:
        return 0.0
    num = vec_pnorm(eigvals(from_orthonormal(d, T @ u)), s)
    return num / den


def norm_empirical(kind: str, operand, r: float, s: float,
                   budget: int = 200,
                   rng: np.random.Generator | None = None,
                   frame: JordanFrame | None = None,
                   descriptor: AlgebraDescriptor | None = None) -> EmpiricalNorm:
    """Lower-bound the operator norm by witness evaluation plus random ascent.

    The returned value never exceeds the closed form beyond roundoff and the
    witness attains it; see the module docstring for the restricted-search
    rule applied to non-PSD Schur multipliers.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    r, s = _validate_rs(r, s)
    if rng is None:
        rng = np.random.default_rng(0)
    dvec, fr, op, certified = _diag_and_frame(kind, operand, frame, descriptor)
    alg = fr.descriptor
    restricted = kind == "schur" and not certified
    note = None
    if restricted:
        note = ("multiplier is not PSD: searched the frame-diagonal subspace "
                "only; off-frame inputs may exceed the reported value")

    T = as_matrix(op, alg)
    frame_orth = np.stack([to_orthonormal(e) for e in fr.idempotents])

    def ratio_from_weights(xi: np.ndarray) -> float:
        return _ratio_through_matrix(T, alg, xi @ frame_orth, r, s)

    def ratio_full(u: np.ndarray) -> float:
        return _ratio_through_matrix(T, alg, u, r, s)

    # documented extremal witness
    if r <= s:
        i_star = int(np.argmax(np.abs(dvec)))
        wit_xi = np.zeros(len(fr))
        wit_xi[i_star] = 1.0
    else:
        t = dual_exponent(r, s)
        if math.isinf(r):
            mags = np.ones_like(dvec)  # |d|^(t/r) with t/r = 0 and 0^0 = 1
        else:
            mags = np.abs(dvec) ** (t / r)
        wit_xi = mags * np.sign(dvec)
    witness = rebuild(fr, wit_xi)
    if not np.any(wit_xi):
        witness_value = 0.0
    else:
        witness_value = ratio_from_weights(wit_xi)
    evals = 1

    best_val = witness_value
    if restricted:
        best_u = wit_xi.copy()
        propose_dim = len(fr)
        evaluate = ratio_from_weights
    else:
        best_u = wit_xi @ frame_orth
        propose_dim = alg.dim
        evaluate = ratio_full
    if not np.any(best_u):
        best_u = np.zeros(propose_dim)
        best_u[0] = 1.0

    half = budget // 2
    while evals < 1 + half:
        u = rng.normal(0.0, 1.0, propose_dim)
        val = evaluate(u)
        evals += 1
        if val > best_val:
            best_val = val
            best_u = u
    step = 0.5
    while evals < budget:
        u = best_u.copy()
        j = int(rng.integers(propose_dim))
        u[j] += step * rng.normal() * max(1.0, float(np.abs(best_u).max()))
        val = evaluate(u)
        evals += 1
        if val > best_val:
            best_val = val
            best_u = u
        else:
            step = max(step * 0.97, 1e-3)

    if best_val > witness_value:
        best_witness = (rebuild(fr, best_u) if restricted
                        else from_orthonormal(alg, best_u))
    else:
        best_witness = witness
        best_val = witness_value
    return EmpiricalNorm(
        value=float(best_val),
        witness=best_witness,
        witness_value=float(witness_value),
        evaluations=evals,
        note=note,
    )
