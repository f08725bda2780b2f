"""Majorization predicates on real vectors with explicit tolerance semantics.

The slack at index k is (partial of q) - (partial of p), partials being sums
or products of the decreasing rearrangements, and the strict variants
additionally require equality at k = n.  Sum comparisons pass when the
minimum slack stays above ``-(atol + rtol * scale)`` with scale the largest
partial magnitude; the total-sum equality of :func:`major` uses the same
band, so at ``atol = 0`` every sum verdict is scale-free.  Product
comparisons apply the same rule per index, at that index's own product
magnitude, because partial products at different k scale by different
powers of a common factor.  Partial products are compared directly (no
logarithms) so exact zeros behave exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-8

_RESCALE_LIMIT = 1e8  # partial products above this trigger a common rescale


@dataclass(frozen=True)
class MajorizationVerdict:
    holds: bool
    worst_slack: float
    failing_k: int | None
    kind: str

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "worst_slack": self.worst_slack,
            "failing_k": self.failing_k,
            "kind": self.kind,
        }


def sort_desc(p) -> np.ndarray:
    """Decreasing rearrangement."""
    p = np.asarray(p, dtype=np.float64)
    return p[np.argsort(-p, kind="stable")]


def sort_desc_rows(P) -> np.ndarray:
    """Decreasing rearrangement of every row."""
    return -np.sort(-np.asarray(P, dtype=np.float64), axis=1)


def vec_pnorm(v, p: float) -> float:
    """p-norm of a plain vector, p in [1, inf]."""
    v = np.abs(np.asarray(v, dtype=np.float64))
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if p == math.inf:
        return float(v.max()) if v.size else 0.0
    if p == 1.0:
        return float(v.sum())
    with np.errstate(over="ignore"):
        total = (v**p).sum()
    if total == math.inf and v.max() < math.inf:
        # the power sum overflowed on the way: the norm is scale-free
        top = v.max()
        return float(top * ((v / top) ** p).sum() ** (1.0 / p))
    return float(total ** (1.0 / p))


def _weak_verdict(slacks: np.ndarray, scale: float, kind: str,
                  atol: float, rtol: float) -> MajorizationVerdict:
    thresh = atol + rtol * scale
    worst = float(slacks.min())
    holds = bool(worst >= -thresh)
    failing_k = None if holds else int(np.argmin(slacks)) + 1
    return MajorizationVerdict(holds, worst, failing_k, kind)


def _strict_verdict(slacks: np.ndarray, scale: float, gap: float,
                    kind: str, atol: float, rtol: float) -> MajorizationVerdict:
    thresh = atol + rtol * scale
    n = len(slacks)
    head = slacks[: n - 1] if n > 1 else slacks[:0]
    head_worst = float(head.min()) if head.size else math.inf
    weak_ok = head_worst >= -thresh
    eq_ok = abs(gap) <= thresh
    holds = bool(weak_ok and eq_ok)
    worst = min(head_worst, -abs(gap))
    if holds:
        return MajorizationVerdict(True, worst, None, kind)
    if not weak_ok:
        failing_k = int(np.argmin(head)) + 1
    else:
        failing_k = n
    return MajorizationVerdict(False, worst, failing_k, kind)


def weak_major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Partial sums of p-decreasing never exceed those of q-decreasing."""
    sp = np.cumsum(sort_desc(p))
    sq = np.cumsum(sort_desc(q))
    if sp.shape != sq.shape:
        raise ValueError(f"length mismatch: {sp.shape} vs {sq.shape}")
    slacks = sq - sp
    scale = float(max(np.abs(sp).max(), np.abs(sq).max()))
    return _weak_verdict(slacks, scale, "weak", atol, rtol)


def major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Weak majorization plus total-sum equality."""
    sp = np.cumsum(sort_desc(p))
    sq = np.cumsum(sort_desc(q))
    if sp.shape != sq.shape:
        raise ValueError(f"length mismatch: {sp.shape} vs {sq.shape}")
    slacks = sq - sp
    scale = float(max(np.abs(sp).max(), np.abs(sq).max()))
    gap = float(sp[-1] - sq[-1])
    return _strict_verdict(slacks, scale, gap, "strong", atol, rtol)


def _clamped_nonneg(p, atol: float, rtol: float, label: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    scale = float(np.abs(p).max()) if p.size else 0.0
    floor = -(atol + rtol * scale)
    if p.min() < floor:
        raise ValueError(f"{label} has a negative entry below tolerance: {p.min():.3e}")
    return np.maximum(p, 0.0)


def _partial_products(p, q, atol, rtol):
    ps = sort_desc(_clamped_nonneg(p, atol, rtol, "p"))
    qs = sort_desc(_clamped_nonneg(q, atol, rtol, "q"))
    if ps.shape != qs.shape:
        raise ValueError(f"length mismatch: {ps.shape} vs {qs.shape}")
    top = max(float(ps.max(initial=0.0)), float(qs.max(initial=0.0)))
    if top > _RESCALE_LIMIT:
        # verdict is invariant under a common positive rescale: every partial
        # product at k carries the same k factors of the constant on each side
        ps = ps / top
        qs = qs / top
    return np.cumprod(ps), np.cumprod(qs)


def log_major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Weak log-majorization plus total-product equality."""
    pp, qp = _partial_products(p, q, atol, rtol)
    slacks = qp - pp
    thresholds = atol + rtol * np.maximum(np.abs(pp), np.abs(qp))
    n = len(slacks)
    head_adj = (slacks + thresholds)[: n - 1]
    weak_ok = bool((head_adj >= 0.0).all()) if head_adj.size else True
    gap = float(pp[-1] - qp[-1])
    eq_ok = abs(gap) <= thresholds[-1]
    holds = weak_ok and eq_ok
    worst = -abs(gap)
    if head_adj.size:
        worst = min(float(slacks[np.argmin(head_adj)]), worst)
    if holds:
        return MajorizationVerdict(True, worst, None, "log")
    failing_k = int(np.argmin(head_adj)) + 1 if not weak_ok else n
    return MajorizationVerdict(False, worst, failing_k, "log")


# --- batched forms ------------------------------------------------------------------
#
# The row forms compare the rows of two (m, n) arrays.  Each row gets the
# arithmetic of the scalar predicate applied to that row alone, so its
# verdict and worst slack have the same bits as the scalar verdict's, and no
# row's result depends on the others in the stack.


def vec_pnorm_rows(V, p) -> np.ndarray:
    """:func:`vec_pnorm` of every row of V, row i at order ``p[i]``."""
    V = np.abs(np.asarray(V, dtype=np.float64))
    p = np.asarray(p, dtype=np.float64)
    if not (p >= 1.0).all():
        raise ValueError(f"p must lie in [1, inf], got {p[~(p >= 1.0)][0]}")
    out = np.empty(len(V))
    for q in np.unique(p):
        rows = p == q
        if q == math.inf:
            out[rows] = V[rows].max(axis=1)
        elif q == 1.0:
            out[rows] = V[rows].sum(axis=1)
        else:
            # the root is a scalar power, as in vec_pnorm: numpy's array
            # power can differ from it in the last bit; a row whose power
            # sum overflows takes vec_pnorm's rescaled sum
            with np.errstate(over="ignore"):
                sums = (V[rows] ** q).sum(axis=1)
            out[rows] = [t ** (1.0 / q) if t < math.inf else vec_pnorm(v, q)
                         for t, v in zip(sums, V[rows])]
    return out


def _partial_sums_rows(P, Q):
    sp = np.cumsum(sort_desc_rows(P), axis=1)
    sq = np.cumsum(sort_desc_rows(Q), axis=1)
    if sp.shape != sq.shape:
        raise ValueError(f"length mismatch: {sp.shape} vs {sq.shape}")
    # each row's tolerance band, by the arithmetic of weak_major and major
    scale = np.maximum(np.abs(sp).max(axis=1), np.abs(sq).max(axis=1))
    return sp, sq, scale


def weak_major_rows(P, Q, atol: float = DEFAULT_ATOL,
                    rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`weak_major` verdict: (worst slacks, rows that hold)."""
    sp, sq, scale = _partial_sums_rows(P, Q)
    worst = (sq - sp).min(axis=1)
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        band = atol + rtol * scale
    return worst, worst >= -band


def major_rows(P, Q, atol: float = DEFAULT_ATOL,
               rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`major` verdict: (worst slacks, rows that hold)."""
    sp, sq, scale = _partial_sums_rows(P, Q)
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        thresh = atol + rtol * scale
    gap = np.abs(sp[:, -1] - sq[:, -1])
    holds = gap <= thresh
    worst = -gap
    n = sp.shape[1]
    if n > 1:
        head = (sq - sp)[:, :n - 1].min(axis=1)
        holds &= head >= -thresh
        # np.minimum returns its second argument on a tie, as min() in
        # _strict_verdict returns its first: a zero slack keeps its sign
        worst = np.minimum(worst, head)
    return worst, holds


def _clamped_nonneg_rows(P, atol, rtol, label):
    P = np.asarray(P, dtype=np.float64)
    low = P.min(axis=1)
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        floor = -(atol + rtol * np.abs(P).max(axis=1))
    bad = np.flatnonzero(low < floor)
    if bad.size:
        raise ValueError(f"{label} has a negative entry below tolerance: "
                         f"{low[bad[0]]:.3e}")
    return np.maximum(P, 0.0)


def log_major_rows(P, Q, atol: float = DEFAULT_ATOL,
                   rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`log_major` verdict: (worst slacks, rows that hold).

    Raises ``ValueError`` when any row has an entry below the nonnegativity
    floor of :func:`log_major`.
    """
    ps = sort_desc_rows(_clamped_nonneg_rows(P, atol, rtol, "p"))
    qs = sort_desc_rows(_clamped_nonneg_rows(Q, atol, rtol, "q"))
    if ps.shape != qs.shape:
        raise ValueError(f"length mismatch: {ps.shape} vs {qs.shape}")
    top = np.maximum(ps[:, 0], qs[:, 0])
    div = np.where(top > _RESCALE_LIMIT, top, 1.0)[:, None]
    pp = np.cumprod(ps / div, axis=1)
    qp = np.cumprod(qs / div, axis=1)
    slacks = qp - pp
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        thresholds = atol + rtol * np.maximum(np.abs(pp), np.abs(qp))
    gap = np.abs(pp[:, -1] - qp[:, -1])
    holds = gap <= thresholds[:, -1]
    worst = -gap
    n = ps.shape[1]
    if n > 1:
        head_adj = (slacks + thresholds)[:, :n - 1]
        holds &= (head_adj >= 0.0).all(axis=1)
        binding = np.argmin(head_adj, axis=1)
        # np.minimum returns its second argument on a tie, as min() in
        # log_major returns its first: a zero slack keeps its sign
        worst = np.minimum(worst, np.take_along_axis(slacks, binding[:, None], axis=1)[:, 0])
    return worst, holds
