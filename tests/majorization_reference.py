"""Reference copies of the scalar majorization predicates and the vector
p-norm, frozen as they were when each still carried its own arithmetic.

The package's scalar predicates are now row 0 of its row forms, so comparing
the two would compare a form with itself.  The tests compare both against
these copies instead, the way ``test_kernels`` keeps a reference Jacobi
kernel.  Do not edit them to follow the package.

One edit mends a defect of the copies: :func:`log_major` rounded partial
products of nonzero entries to a subnormal or to 0 (or overflowed them),
and a row whose top entry passes the rescale limit lost every entry below
top * 2**-1022 that way, so ``log_major([1e300, 1e-300], [1e300, 0],
atol=0, rtol=0)`` held although the exact second products are 1 and 0.
Such a row is now compared on its exact rational products, with the
tolerances exact too, and the worst slack is rounded once at the end.

A second edit mends the units of a rescaled row: its partial product at
index k is in units of top**(k + 1), but atol was applied unscaled and the
worst slack reported in those units, so ``log_major([1e9, 1.0], [1e9, 0.5])``
held with a worst slack of -5e-10.  atol is now divided by top k + 1 times at
index k, the worst slack is multiplied back the same way (+-inf past the
float range), and the exact products are taken in the original units.

A third edit mends an underflow of :func:`vec_pnorm`: it rescaled a row
whose power sum overflowed but not one whose power sum fell below the
normal range, so ``vec_pnorm([1e-200, 1e-200], 2)`` and
``vec_pnorm([1e-170, 0], 2)`` returned 0.0.  Such a row with a nonzero
entry is now taken on the row over its top as well.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from symcone.majorization import MajorizationVerdict

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-8

_RESCALE_LIMIT = 1e8  # partial products above this trigger a common rescale
_TINY = np.finfo(np.float64).tiny  # the least normal float


def sort_desc(p) -> np.ndarray:
    """Decreasing rearrangement."""
    p = np.asarray(p, dtype=np.float64)
    return p[np.argsort(-p, kind="stable")]


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
    if not _TINY <= total < math.inf and v.size and 0.0 < v.max() < math.inf:
        # the power sum left the normal range on the way: the norm is scale-free
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
    # verdict is invariant under a common positive rescale: every partial
    # product at k carries the same k factors of the constant on each side
    div = top if top > _RESCALE_LIMIT else 1.0
    with np.errstate(over="ignore"):
        pp, qp = np.cumprod(ps / div), np.cumprod(qs / div)
    lost = any(not (x == 0.0 or _TINY <= v < math.inf)
               for x, v in zip(np.concatenate([ps, qs]), np.concatenate([pp, qp])))
    if lost and math.isfinite(atol) and math.isfinite(rtol):
        return _exact_cumprod(ps), _exact_cumprod(qs), None
    return pp, qp, div


def _exact_cumprod(v):
    out, acc = [], Fraction(1)
    for x in v:
        acc *= Fraction(x)
        out.append(acc)
    return np.array(out, dtype=object)


def _in_units(v, div, op):
    """v with entry k put through op(., div) k + 1 times in turn."""
    v = np.array(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        for k in range(len(v)):
            v[k:] = op(v[k:], div)
    return v


def _rounded(x) -> float:
    if abs(x) > np.finfo(np.float64).max:
        return math.inf if x > 0 else -math.inf
    return float(x)


def log_major(p, q, atol: float = DEFAULT_ATOL, rtol: float = DEFAULT_RTOL) -> MajorizationVerdict:
    """Weak log-majorization plus total-product equality."""
    pp, qp, div = _partial_products(p, q, atol, rtol)
    slacks = qp - pp
    if div is None:
        atol, rtol = Fraction(atol), Fraction(rtol)
        reported = slacks
    else:
        atol = _in_units(np.full(len(pp), atol), div, np.divide)
        reported = _in_units(slacks, div, np.multiply)
    thresholds = atol + rtol * np.maximum(np.abs(pp), np.abs(qp))
    n = len(slacks)
    head_adj = (slacks + thresholds)[: n - 1]
    weak_ok = bool((head_adj >= 0.0).all()) if head_adj.size else True
    gap = pp[-1] - qp[-1]
    eq_ok = abs(gap) <= thresholds[-1]
    holds = weak_ok and eq_ok
    worst = -abs(reported[-1])
    if head_adj.size:
        worst = min(reported[np.argmin(head_adj)], worst)
    worst = _rounded(worst)
    if holds:
        return MajorizationVerdict(True, worst, None, "log")
    failing_k = int(np.argmin(head_adj)) + 1 if not weak_ok else n
    return MajorizationVerdict(False, worst, failing_k, "log")
