"""Majorization predicates on real vectors with explicit tolerance semantics.

The slack at index k is (partial of q) - (partial of p), partials being sums
or products of the decreasing rearrangements, and the strict variants
additionally require equality at k = n.  Sum comparisons pass when the
minimum slack stays above ``-(atol + rtol * scale)`` with scale the largest
partial magnitude; product comparisons apply the same rule per index, at
that index's own product magnitude, because partial products at different k
scale by different powers of a common factor.  Partial products are compared
directly (no logarithms) so exact zeros behave exactly.
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


def compwise(p, q) -> np.ndarray:
    """Componentwise product p * q."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return p * q


def abs_vec(p) -> np.ndarray:
    return np.abs(np.asarray(p, dtype=np.float64))


def vec_pnorm(v, p: float) -> float:
    """p-norm of a plain vector, p in [1, inf]."""
    v = np.abs(np.asarray(v, dtype=np.float64))
    p = float(p)
    if math.isinf(p):
        return float(v.max()) if v.size else 0.0
    if p < 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if p == 1.0:
        return float(v.sum())
    return float((v**p).sum() ** (1.0 / p))


def _weak_verdict(slacks: np.ndarray, scale: float, kind: str,
                  atol: float, rtol: float) -> MajorizationVerdict:
    thresh = atol + rtol * scale
    worst = float(slacks.min())
    holds = bool(worst >= -thresh)
    failing_k = None if holds else int(np.argmin(slacks)) + 1
    return MajorizationVerdict(holds, worst, failing_k, kind)


def _strict_verdict(slacks: np.ndarray, scale: float, gap: float, eq_tol: float,
                    kind: str, atol: float, rtol: float) -> MajorizationVerdict:
    thresh = atol + rtol * scale
    n = len(slacks)
    head = slacks[: n - 1] if n > 1 else slacks[:0]
    head_worst = float(head.min()) if head.size else math.inf
    weak_ok = head_worst >= -thresh
    eq_ok = abs(gap) <= eq_tol
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
    eq_tol = atol + rtol * (1.0 + abs(float(sq[-1])))
    return _strict_verdict(slacks, scale, gap, eq_tol, "strong", atol, rtol)


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


def weak_log_major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Partial products of p-decreasing never exceed those of q-decreasing."""
    pp, qp = _partial_products(p, q, atol, rtol)
    slacks = qp - pp
    thresholds = atol + rtol * np.maximum(np.abs(pp), np.abs(qp))
    adjusted = slacks + thresholds
    holds = bool((adjusted >= 0.0).all())
    binding = int(np.argmin(adjusted))
    return MajorizationVerdict(holds, float(slacks[binding]),
                               None if holds else binding + 1, "weak_log")


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


# --- batched screens ----------------------------------------------------------------
#
# The batched forms compare the rows of two (m, n) arrays.  They return each
# row's worst slack, as the scalar verdict reports it, and whether the row is
# *clear*: it passes every comparison on the way, including the
# nonnegativity floor and the choice of common rescale, with a margin of
# more than BATCH_CLEAR_SHARE of that comparison's band (see
# :func:`clear_margin`).  A clear row holds under the scalar predicate too,
# because the two computations differ by roundoff far below the margin they
# keep in reserve; a row that is not clear must be decided by the scalar
# predicate.

BATCH_CLEAR_SHARE = 0.5


def clear_margin(margin, band) -> np.ndarray:
    """Whether ``margin``, the distance by which a quantity lies on the
    passing side of its cut, exceeds BATCH_CLEAR_SHARE of the band's size.

    With a band of zero only a strictly positive margin is clear; a negative
    band (a stricter-than-exact tolerance) is measured by its size too.
    """
    return margin > BATCH_CLEAR_SHARE * np.abs(band)


def weak_major_batch(P, Q, atol: float = DEFAULT_ATOL,
                     rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`weak_major` screen: (worst slacks, clear rows)."""
    sp = np.cumsum(sort_desc_rows(P), axis=1)
    sq = np.cumsum(sort_desc_rows(Q), axis=1)
    worst = (sq - sp).min(axis=1)
    band = atol + rtol * np.maximum(np.abs(sp).max(axis=1), np.abs(sq).max(axis=1))
    return worst, clear_margin(worst + band, band)


def _clamped_nonneg_batch(P, atol, rtol):
    P = np.asarray(P, dtype=np.float64)
    floor = -(atol + rtol * np.abs(P).max(axis=1))
    return np.maximum(P, 0.0), clear_margin(P.min(axis=1) - floor, floor)


def log_major_batch(P, Q, atol: float = DEFAULT_ATOL,
                    rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`log_major` screen: (worst slacks, clear rows)."""
    ps, clear_p = _clamped_nonneg_batch(P, atol, rtol)
    qs, clear_q = _clamped_nonneg_batch(Q, atol, rtol)
    ps, qs = sort_desc_rows(ps), sort_desc_rows(qs)
    top = np.maximum(ps[:, 0], qs[:, 0])
    rescale = top > _RESCALE_LIMIT
    clear = clear_p & clear_q & clear_margin(np.abs(top - _RESCALE_LIMIT), _RESCALE_LIMIT)
    div = np.where(rescale, top, 1.0)[:, None]
    pp = np.cumprod(ps / div, axis=1)
    qp = np.cumprod(qs / div, axis=1)
    slacks = qp - pp
    thresholds = atol + rtol * np.maximum(np.abs(pp), np.abs(qp))
    gap = np.abs(pp[:, -1] - qp[:, -1])
    worst = -gap
    clear &= clear_margin(thresholds[:, -1] - gap, thresholds[:, -1])
    n = ps.shape[1]
    if n > 1:
        head = slacks[:, :n - 1]
        head_thr = thresholds[:, :n - 1]
        binding = np.argmin(head + head_thr, axis=1)
        worst = np.minimum(np.take_along_axis(head, binding[:, None], axis=1)[:, 0],
                           worst)
        clear &= clear_margin(head + head_thr, head_thr).all(axis=1)
    return worst, clear
