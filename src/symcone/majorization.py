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
logarithms) so exact zeros behave exactly.  A row whose top entry passes
1e8 is divided by it first, and its products at index k are then in units of
top**(k + 1): atol is divided the same way, and the worst slack is reported
back in the original units.  A row whose float products of nonzero entries
leave the normal range is decided on its exact rational products instead.  A
NaN or infinite entry has no rearrangement to compare, and every rule
raises ValueError on one.

Each rule is written once, in a row form that compares the rows of two
(m, n) arrays; no row's result depends on the others in the stack.  The
scalar predicates and :func:`vec_pnorm` are row 0 of a batch of one, so a
verdict has the same bits alone as in any sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-8

_RESCALE_LIMIT = 1e8  # partial products above this trigger a common rescale
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max  # normal floats


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


def vec_pnorm_rows(V, p) -> np.ndarray:
    """p-norm of every row of V, row i at order ``p[i]`` in [1, inf]."""
    V = np.abs(np.asarray(V, dtype=np.float64))
    p = np.asarray(p, dtype=np.float64)
    if not (p >= 1.0).all():
        raise ValueError(f"p must lie in [1, inf], got {p[~(p >= 1.0)][0]}")
    out = np.empty(len(V))
    for q in np.unique(p):
        rows = p == q
        W = V[rows]
        top = W.max(axis=1, initial=0.0)
        if q == math.inf:
            out[rows] = top
        elif q == 1.0:
            out[rows] = W.sum(axis=1)
        else:
            # the root is a scalar power: numpy's array power can differ from
            # it in the last bit.  A power sum that leaves the normal range
            # (overflows, or underflows from nonzero entries) is taken again
            # on the row over its top: the norm is scale-free
            with np.errstate(over="ignore"):
                sums = (W ** q).sum(axis=1)
            out[rows] = [c * ((w / c) ** q).sum() ** (1.0 / q)
                         if not _TINY <= t < math.inf and 0.0 < c < math.inf
                         else t ** (1.0 / q) for t, c, w in zip(sums, top, W)]
    return out


def vec_pnorm(v, p: float) -> float:
    """p-norm of a plain vector, p in [1, inf]: row 0 of :func:`vec_pnorm_rows`."""
    return float(vec_pnorm_rows(np.asarray(v, dtype=np.float64)[None],
                                np.array([p], dtype=np.float64))[0])


# --- one core per rule ----------------------------------------------------------
#
# A core returns, per row, (worst slack, verdict, head, head verdict).  The
# head is the part of the rule that is an inequality at every index: all the
# slacks of the weak rule, the slacks at k < n of the strong rule, and the
# slacks plus their bands at k < n of the log rule.  A failing scalar verdict
# names the first index where its head is smallest, or k = n when the head
# holds and only the total equality fails.

def _finite_rows(P, label):
    """P as float64; raises ValueError on a NaN or infinite entry."""
    P = np.asarray(P, dtype=np.float64)
    if not np.isfinite(P).all():
        raise ValueError(f"{label} has a non-finite entry: {P[~np.isfinite(P)][0]}")
    return P


def _partial_sums_rows(P, Q):
    sp = np.cumsum(sort_desc_rows(_finite_rows(P, "p")), axis=1)
    sq = np.cumsum(sort_desc_rows(_finite_rows(Q, "q")), axis=1)
    if sp.shape != sq.shape:
        raise ValueError(f"length mismatch: {sp.shape} vs {sq.shape}")
    return sp, sq, np.maximum(np.abs(sp).max(axis=1), np.abs(sq).max(axis=1))


def _weak_core(P, Q, atol, rtol):
    sp, sq, scale = _partial_sums_rows(P, Q)
    slacks = sq - sp
    worst = slacks.min(axis=1)
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        holds = worst >= -(atol + rtol * scale)
    return worst, holds, slacks, holds


def _strong_core(P, Q, atol, rtol):
    sp, sq, scale = _partial_sums_rows(P, Q)
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        thresh = atol + rtol * scale
    gap = np.abs(sp[:, -1] - sq[:, -1])
    head = (sq - sp)[:, :-1]
    head_worst = head.min(axis=1, initial=math.inf)
    head_holds = head_worst >= -thresh
    # np.minimum returns its second argument on a tie: a zero head slack
    # keeps its sign
    return np.minimum(-gap, head_worst), head_holds & (gap <= thresh), head, head_holds


def _clamped_nonneg_rows(P, atol, rtol, label):
    P = _finite_rows(P, label)
    low = P.min(axis=1)
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        floor = -(atol + rtol * np.abs(P).max(axis=1))
    bad = np.flatnonzero(low < floor)
    if bad.size:
        raise ValueError(f"{label} has a negative entry below tolerance: "
                         f"{low[bad[0]]:.3e}")
    return np.maximum(P, 0.0)


def _in_units(V, div, op):
    """V with column k put through ``op(., div)`` k + 1 times in turn, which
    leaves the float range only where the result does."""
    V = np.array(V, dtype=np.float64)
    for k in range(V.shape[1]):
        V[:, k:] = op(V[:, k:], div)
    return V


def _log_verdict(pp, qp, atol, rtol, div=None):
    """The log rule on partial products: floats divided by ``div`` (one per
    row) before the products were taken, or exact ``Fraction`` objects with
    ``Fraction`` tolerances and no ``div``.  Rescaled products take atol in
    their units, and the worst slack is scaled back (+-inf past the float
    range)."""
    slacks = qp - pp
    with np.errstate(over="ignore"):  # a huge tolerance asks for an infinite band
        scaled = slacks if div is None else _in_units(slacks, div, np.multiply)
        if div is not None:
            atol = _in_units(np.full(pp.shape, atol), div, np.divide)
        thresholds = atol + rtol * np.maximum(np.abs(pp), np.abs(qp))
    gap = np.abs(pp[:, -1] - qp[:, -1])
    head = (slacks + thresholds)[:, :-1]
    head_holds = (head >= 0.0).all(axis=1)
    worst = -np.abs(scaled[:, -1])
    if head.shape[1]:
        binding = np.argmin(head, axis=1)[:, None]
        # np.minimum returns its second argument on a tie: a zero slack
        # keeps its sign
        worst = np.minimum(worst, np.take_along_axis(scaled, binding, axis=1)[:, 0])
    return worst, head_holds & (gap <= thresholds[:, -1]), head, head_holds


def _log_core(P, Q, atol, rtol):
    ps = sort_desc_rows(_clamped_nonneg_rows(P, atol, rtol, "p"))
    qs = sort_desc_rows(_clamped_nonneg_rows(Q, atol, rtol, "q"))
    if ps.shape != qs.shape:
        raise ValueError(f"length mismatch: {ps.shape} vs {qs.shape}")
    # the verdict is invariant under a common positive rescale: every partial
    # product at k carries the same k factors of the constant on each side
    top = np.maximum(ps[:, 0], qs[:, 0])
    div = np.where(top > _RESCALE_LIMIT, top, 1.0)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are decided below
        pp = np.cumprod(ps / div, axis=1)
        qp = np.cumprod(qs / div, axis=1)
        worst, holds, head, head_holds = _log_verdict(pp, qp, atol, rtol, div)
    # a product of nonzero entries past the normal range (a subnormal, 0 or
    # inf) has lost bits that can decide the verdict: those rows are decided
    # on exact products in the original units and their worst slack is
    # rounded once (+-inf past the float range).  An infinite tolerance has
    # a band no loss moves
    lost = np.flatnonzero(~((((pp >= _TINY) & (pp <= _HUGE)) | (ps == 0.0)) &
                            (((qp >= _TINY) & (qp <= _HUGE)) | (qs == 0.0))).all(axis=1))
    if lost.size and math.isfinite(atol) and math.isfinite(rtol):
        F = np.frompyfunc(Fraction, 1, 1)
        ew, holds[lost], eh, head_holds[lost] = _log_verdict(
            *(np.cumprod(F(v[lost]), axis=1) for v in (ps, qs)), F(atol), F(rtol))
        worst[lost] = [float(w) if abs(w) <= _HUGE else math.inf if w > 0 else -math.inf
                       for w in ew]
        head = head.astype(object)
        head[lost] = eh
    return worst, holds, head, head_holds


def weak_major_rows(P, Q, atol: float = DEFAULT_ATOL,
                    rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`weak_major` verdict: (worst slacks, rows that hold)."""
    return _weak_core(P, Q, atol, rtol)[:2]


def major_rows(P, Q, atol: float = DEFAULT_ATOL,
               rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`major` verdict: (worst slacks, rows that hold)."""
    return _strong_core(P, Q, atol, rtol)[:2]


def log_major_rows(P, Q, atol: float = DEFAULT_ATOL,
                   rtol: float = DEFAULT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`log_major` verdict: (worst slacks, rows that hold).

    Raises ``ValueError`` when any row has an entry below the nonnegativity
    floor ``-(atol + rtol * max |entry|)`` (or, as every rule does, a NaN or
    infinite entry).
    """
    return _log_core(P, Q, atol, rtol)[:2]


def _row0_verdict(core, kind: str, p, q, atol: float, rtol: float) -> MajorizationVerdict:
    worst, holds, head, head_holds = core(np.asarray(p, dtype=np.float64)[None],
                                          np.asarray(q, dtype=np.float64)[None], atol, rtol)
    if holds[0]:
        return MajorizationVerdict(True, float(worst[0]), None, kind)
    failing_k = head.shape[1] + 1 if head_holds[0] else int(np.argmin(head[0])) + 1
    return MajorizationVerdict(False, float(worst[0]), failing_k, kind)


def weak_major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Partial sums of p-decreasing never exceed those of q-decreasing."""
    return _row0_verdict(_weak_core, "weak", p, q, atol, rtol)


def major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Weak majorization plus total-sum equality."""
    return _row0_verdict(_strong_core, "strong", p, q, atol, rtol)


def log_major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Weak log-majorization plus total-product equality."""
    return _row0_verdict(_log_core, "log", p, q, atol, rtol)
