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

Proposals are evaluated in batches of at most ``NORM_CHUNK`` rows, each
batch through the map's row form (no dim x dim matrix is built) and one
eigenvalue call (:func:`_ratios_through_map`), and a row's ratio has the same
bits in every batch.  The search itself is the
sequential one, step for step: the random phase keeps a proposal only when
it is strictly above the best so far, and the ascent draws its moves in the
sequential order, evaluates a window of them as if every step were
rejected, and accepts the first step that beats the best.

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
    jordan_product_coords,
    row_sum,
    to_orthonormal,
    weight_vector,
)
from .majorization import vec_pnorm, vec_pnorm_rows
# ``eigvals`` is not called here; it stays bound because the benchmark's
# tracer self-test (perfbench/test_perfbench.py) patches ``norms.eigvals``
from .spectral import (  # noqa: F401
    JordanFrame,
    eigvals,
    eigvals_batch,
    rebuild,
    spectral_decompose,
)
from .transforms import apply_factors_rows, factor_rows, frame_multiplier, validate_frame

NORM_KINDS = ("lyap", "quad", "schur")

NORM_CHUNK = 256  # proposals per batch; a batch holds a few (rows, dim) stacks


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


def _diag_and_frame(kind: str, operand, frame: JordanFrame | None):
    """Frame-diagonal action vector, aligned frame, the map's row form (an
    (m, dim) stack of packed coordinates to the stack of its images) and psd
    flag.  The operand is one row, repeated for every row of the stack.  A
    Schur multiplier acts on ``frame``, which it needs; L_a and P_a act on
    the frame of a."""
    if kind == "lyap":
        sd = spectral_decompose(operand)
        d, a = operand.descriptor, operand.coords
        return (sd.eigenvalues, sd.frame,
                lambda X: jordan_product_coords(d, np.broadcast_to(a, X.shape), X), True)
    if kind == "quad":
        sd = spectral_decompose(operand)
        dvec, frame, factors, psd = sd.eigenvalues**2, sd.frame, (("quad", operand),), True
    elif kind == "schur":
        if frame is None:
            raise ValueError("schur norms need a frame")
        A = frame_multiplier(operand, frame)
        validate_frame(frame)
        dvec, factors, psd = A.diag(), (("schur", A, frame),), A.is_psd()
    else:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")
    d = frame.descriptor
    return dvec, frame, lambda X: apply_factors_rows(d, factor_rows(factors, len(X)), X), psd


def norm_closed_form(kind: str, operand, r: float, s: float,
                     frame: JordanFrame | None = None) -> float:
    """Exact operator norm from the spectral r-norm to the spectral s-norm."""
    r, s = _validate_rs(r, s)
    dvec, _, _, _ = _diag_and_frame(kind, operand, frame)
    return _closed_form(dvec, r, s)


def _closed_form(dvec: np.ndarray, r: float, s: float) -> float:
    """The norm from ||.||_r to ||.||_s of the frame-diagonal action dvec."""
    if r <= s:
        return vec_pnorm(np.abs(dvec), math.inf)
    return vec_pnorm(np.abs(dvec), dual_exponent(r, s))


@dataclass
class EmpiricalNorm:
    """The search's best ratio and its witness, the extremal witness's ratio,
    the ratio evaluations spent, and the closed form of the same operand
    (:func:`norm_closed_form`, from the decomposition the search used)."""

    value: float
    witness: Element
    witness_value: float
    evaluations: int
    closed_form: float
    note: str | None = None


def _ratios_through_map(apply, d: AlgebraDescriptor,
                        U: np.ndarray, r: float, s: float) -> np.ndarray:
    """||T u||_s / ||u||_r for every row u of U, and 0 where ||u||_r = 0.

    ``U`` is an (m, dim) stack in orthonormal coordinates and ``apply`` the
    row form of T on packed coordinates (:func:`_diag_and_frame`).  The rows'
    spectra and their images' come from one :func:`eigvals_batch` call, so
    no row's ratio depends on the others.
    """
    m = len(U)
    X = U / np.sqrt(weight_vector(d))
    eig = eigvals_batch(d, np.concatenate([X, apply(X)]))
    den = vec_pnorm_rows(eig[:m], np.full(m, r))
    num = vec_pnorm_rows(eig[m:], np.full(m, s))
    out = np.zeros(m)
    np.divide(num, den, out=out, where=den != 0.0)
    return out


def norm_empirical(kind: str, operand, r: float, s: float,
                   budget: int = 200,
                   rng: np.random.Generator | None = None,
                   frame: JordanFrame | None = None) -> EmpiricalNorm:
    """Lower-bound the operator norm by witness evaluation plus random ascent.

    The returned value never exceeds the closed form, which the result also
    carries, beyond roundoff and the witness attains it; the operand is
    decomposed once for both.  See the module docstring for the
    restricted-search rule applied to non-PSD Schur multipliers and for the
    batching.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    r, s = _validate_rs(r, s)
    if rng is None:
        rng = np.random.default_rng(0)
    dvec, fr, op, certified = _diag_and_frame(kind, operand, frame)
    alg = fr.descriptor
    restricted = kind == "schur" and not certified
    note = None
    if restricted:
        note = ("multiplier is not PSD: searched the frame-diagonal subspace "
                "only; off-frame inputs may exceed the reported value")

    # column k holds the orthonormal coordinates of idempotent k
    frame_cols = np.stack([to_orthonormal(e) for e in fr.idempotents], axis=1)

    def evaluate(P: np.ndarray) -> np.ndarray:
        # a proposal is frame weights on the restricted search, else coordinates
        U = row_sum(frame_cols * P[:, None, :]) if restricted else P
        return _ratios_through_map(op, alg, U, r, s)

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
            a = np.abs(dvec)
            with np.errstate(over="ignore"):
                mags = a ** (t / r)
                image = (a.max() * mags.max()) ** 2
            if image == math.inf:
                # the witness's image would overflow the eigensolver's gate;
                # the ratio is scale-free, so build it from |d| / max|d|
                mags = (a / a.max()) ** (t / r)
        wit_xi = mags * np.sign(dvec)
    witness = rebuild(fr, wit_xi)
    wit_u = row_sum(frame_cols * wit_xi)
    if not np.any(wit_xi):
        witness_value = 0.0
    else:
        witness_value = float(_ratios_through_map(op, alg, wit_u[None, :], r, s)[0])
    evals = 1

    best_val = witness_value
    best_u = wit_xi.copy() if restricted else wit_u
    propose_dim = len(fr) if restricted else alg.dim
    if not np.any(best_u):
        best_u = np.zeros(propose_dim)
        best_u[0] = 1.0

    # random phase: a (k, dim) normal draw has the bits of k one-row draws,
    # and a sequential scan keeping every value strictly above the running
    # best ends at the chunk's first maximum when that beats the best
    half = budget // 2
    while evals < 1 + half:
        P = rng.normal(0.0, 1.0, (min(NORM_CHUNK, 1 + half - evals), propose_dim))
        vals = evaluate(P)
        evals += len(P)
        vals[np.isnan(vals)] = -math.inf  # a NaN beats nothing
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_u = float(vals[k]), P[k]

    # coordinate ascent: a move (coordinate, normal draw) depends on no
    # verdict, so a window of moves is drawn in the sequential order and
    # evaluated as if every step were rejected (each rejection decays the
    # step); the first step above the best is accepted and the moves after
    # it are kept for the next window
    step = 0.5
    cols: list[int] = []
    draws: list[float] = []
    while evals < budget:
        while len(cols) < min(NORM_CHUNK, budget - evals):
            cols.append(int(rng.integers(propose_dim)))
            draws.append(rng.normal())
        w = len(cols)
        steps = []
        for _ in range(w):
            steps.append(step)
            step = max(step * 0.97, 1e-3)
        P = np.repeat(best_u[None, :], w, axis=0)
        P[np.arange(w), cols] += (np.array(steps) * np.array(draws)
                                  * max(1.0, float(np.abs(best_u).max())))
        vals = evaluate(P)
        above = np.flatnonzero(vals > best_val)
        if above.size == 0:
            evals += w
            cols, draws = [], []
            continue
        k = int(above[0])
        evals += k + 1
        best_val, best_u, step = float(vals[k]), P[k], steps[k]
        del cols[:k + 1], draws[:k + 1]

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
        closed_form=_closed_form(dvec, r, s),
        note=note,
    )
