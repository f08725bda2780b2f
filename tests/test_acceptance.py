"""Acceptance gate: every guaranteed property at its full sample size and
stated tolerance, one printed pass/fail line per criterion.

Run with plain ``pytest``; the summary lines print straight to the terminal
even under capture.  The full module re-verifies, in order: the fixed 2x2
counterexample, the log-majorization and Jordan-product sweeps at ten
thousand samples per algebra, the sublinear/positive-map family, the
commuting-factor construction, the operator-norm formulas with their
extremal witnesses, the multiplier-family search, and the kernel oracles.
"""

import math
import time

import numpy as np

from symcone.algebra import (
    SpinFactor,
    SymMatrix,
    from_matrix,
    inner,
    norm,
    random_element,
    zero,
)
from symcone.majorization import sort_desc
from symcone.norms import norm_closed_form, norm_empirical
from symcone.search import FamilySpec, replay_record, sweep
from symcone.spectral import eigvals_batch, spectral_decompose, sym_eigh_batch
from symcone.transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    SchurMatrix,
    SublinearFn,
    peirce_project,
    quad_rep,
)
from symcone import verifiers
from symcone.majorization import DEFAULT_ATOL, DEFAULT_RTOL
from symcone.verifiers import (
    check_absolute_product_counterexample,
    run_sweep,
    sample_general,
    sample_psd_gram,
    sample_rng,
)

from conftest import CATALOG
from test_kernels import eig2_closed, eig3_closed

SWEEP_SAMPLES = 10_000
SWEEP_SEED = 20260809


def announce(capsys, label: str, ok: bool, extra: str = "") -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({extra})" if extra else ""
        print(f"[acceptance] {label}: {status}{suffix}")


def test_counterexample_pair_reproduction(capsys):
    start = time.perf_counter()
    rep = check_absolute_product_counterexample(atol_product=1e-9, atol_mixed=1e-2)
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 1.0
    announce(capsys, "2x2 counterexample pair", ok, f"{elapsed*1e3:.0f} ms")
    assert rep.passed
    np.testing.assert_allclose(rep.details["abs_product_eigs"], [33.0, 15.0], atol=1e-9)
    np.testing.assert_allclose(rep.details["mixed_eigs"], [44.52, -3.48], atol=1e-2)
    assert not rep.details["forward"]["holds"]
    assert not rep.details["reverse"]["holds"]
    assert elapsed < 1.0


def test_log_majorization_sweep(capsys):
    start = time.perf_counter()
    worst = math.inf
    det_worst = 0.0
    all_pass = True
    for d in CATALOG:
        rep = run_sweep("log_major_quadrep", d, SWEEP_SAMPLES, SWEEP_SEED,
                        atol=1e-9, rtol=1e-8)
        all_pass &= rep.passed
        worst = min(worst, rep.worst_slack)
        det_worst = max(det_worst, rep.details.get("max_det_rel_err", 0.0))
    elapsed = time.perf_counter() - start
    ok = all_pass and det_worst <= 1e-8 and elapsed < 120.0
    announce(capsys, "log-majorization sweep 11x10^4", ok,
             f"worst slack {worst:.2e}, det rel {det_worst:.2e}, {elapsed:.0f} s")
    assert all_pass
    assert det_worst <= 1e-8
    assert elapsed < 120.0


def test_jordan_product_weak_majorization_sweep(capsys):
    start = time.perf_counter()
    worst = math.inf
    all_pass = True
    for d in CATALOG:
        rep = run_sweep("jordan_weak", d, SWEEP_SAMPLES, SWEEP_SEED,
                        atol=1e-9, rtol=1e-8)
        all_pass &= rep.passed
        worst = min(worst, rep.worst_slack)
    elapsed = time.perf_counter() - start
    ok = all_pass and elapsed < 120.0
    announce(capsys, "Jordan-product weak sweep 11x10^4", ok,
             f"worst slack {worst:.2e}, {elapsed:.0f} s")
    assert all_pass
    assert elapsed < 120.0


def test_sublinear_positive_map_suite(capsys):
    # sample i of a (kind, phi) combination: the map make_positive_map(d, kind,
    # rng) and then x = sample_general(d, rng), rng = sample_rng(seed, i), d
    # alternating between the two algebras; each algebra's samples of one
    # combination are evaluated as one batch of check_positive_map_sublinear
    descriptors = (SymMatrix(3), SpinFactor(5))
    map_kinds = ("quad", "schur_psd", "quad_compose")
    phis = (ABS_FN, POS_FN, NEG_FN)
    per_combo = 1000

    def slacks(seed, count, kind, phi):
        out = []
        for j, d in enumerate(descriptors):
            index = range(j, count, len(descriptors))
            kinds = np.full(len(index), verifiers._MAP_KINDS.index(kind))
            inputs = {"kind": kinds, "phi": np.tile([phi.alpha, phi.beta], (len(index), 1)),
                      **verifiers._map_draws(d, [sample_rng(seed, i) for i in index], kinds)}
            passed, worst, _ = verifiers._positive_map_rows(d, inputs, DEFAULT_ATOL,
                                                            DEFAULT_RTOL)
            out.append((passed, worst))
        return (np.concatenate([p for p, _ in out]), np.concatenate([w for _, w in out]))

    all_pass = True
    worst = math.inf
    for kind in map_kinds:
        for phi in phis:
            passed, slack = slacks(SWEEP_SEED + 1, per_combo, kind, phi)
            all_pass &= bool(passed.all())
            worst = min(worst, float(slack.min()))
    linear = SublinearFn(1.0, 1.0)
    linear_worst = 0.0
    for kind in map_kinds:
        passed, slack = slacks(SWEEP_SEED + 2, 50, kind, linear)
        all_pass &= bool(passed.all())
        linear_worst = max(linear_worst, float(np.abs(slack).max()))
    ok = all_pass and linear_worst <= 1e-10
    announce(capsys, "sublinear maps through positive transformations", ok,
             f"worst slack {worst:.2e}, linear residue {linear_worst:.2e}")
    assert all_pass
    assert linear_worst <= 1e-10


def test_commuting_factor_construction(capsys):
    # sample i of an algebra: a = sample_invertible(d, sample_rng(seed, i)),
    # factored by build_commuting_factors(a, k, det_rtol=1e-8) at every
    # cutoff k; each cutoff's samples are evaluated as one batch
    per_descriptor = 1000
    all_pass = True
    det_worst = 0.0
    for d in CATALOG:
        a = verifiers._invertible_coords(
            d, [sample_rng(SWEEP_SEED + 3, i) for i in range(per_descriptor)])
        for k in range(1, d.rank + 1):
            _, _, passed, _, details = verifiers._commuting_factors(
                d, a, np.full(per_descriptor, k), DEFAULT_ATOL, DEFAULT_RTOL, det_rtol=1e-8)
            all_pass &= bool(passed.all())
            det_worst = max(det_worst, float(details["det_rel_err"].max()))
    announce(capsys, "commuting-factor construction 11x10^3, all cutoffs",
             all_pass, f"worst det rel {det_worst:.2e}")
    assert all_pass
    assert det_worst <= 1e-8


NORM_GRID = ((1.0, 1.0), (2.0, 2.0), (math.inf, math.inf), (1.0, math.inf),
             (math.inf, 1.0), (3.0, 2.0), (2.0, 3.0))


def test_norm_formulas_and_witnesses(capsys):
    d = SymMatrix(3)
    operands = {"lyap": [], "quad": [], "schur": []}
    for i in range(100):
        rng = sample_rng(SWEEP_SEED + 4, i)
        operands["lyap"].append(random_element(d, rng, 2.0))
        operands["quad"].append(random_element(d, rng, 2.0))
        operands["schur"].append(SchurMatrix(sample_psd_gram(3, rng)))
    all_pass = True
    overshoot = -math.inf
    witness_err = 0.0
    for kind, ops in operands.items():
        for i, op in enumerate(ops):
            rng = sample_rng(SWEEP_SEED + 5, i)
            for r, s in NORM_GRID:
                closed = norm_closed_form(kind, op, r, s, descriptor=d)
                est = norm_empirical(kind, op, r, s, budget=48, rng=rng,
                                     descriptor=d)
                scale = max(1.0, closed)
                overshoot = max(overshoot, (est.value - closed) / scale)
                witness_err = max(witness_err,
                                  abs(est.witness_value - closed) / scale)
                all_pass &= est.value <= closed + 1e-9 * scale
                all_pass &= abs(est.witness_value - closed) <= 1e-6 * scale
    announce(capsys, "operator-norm formulas 3x100x7", all_pass,
             f"max overshoot {overshoot:.2e}, witness err {witness_err:.2e}")
    assert all_pass


def test_norm_dual_exponent_not_one_at_infinite_source(capsys):
    # at r = inf, s = 2 the defining relation 1/s = 1/t + 1/r forces t = s;
    # evaluating t as 1 would claim ||(2,1)||_1 = 3, which no input attains
    a = from_matrix(np.diag([2.0, 1.0]))
    closed = norm_closed_form("lyap", a, math.inf, 2.0)
    est = norm_empirical("lyap", a, math.inf, 2.0, budget=400,
                         rng=np.random.default_rng(SWEEP_SEED))
    t_one_claim = 3.0
    ok = (abs(closed - math.sqrt(5.0)) <= 1e-12
          and abs(est.witness_value - closed) <= 1e-6
          and est.value <= closed + 1e-9
          and t_one_claim > est.value * (1.0 + 1e-6))
    announce(capsys, "dual exponent t = s at infinite source", ok,
             f"closed {closed:.6f}, empirical {est.value:.6f}, t=1 claim {t_one_claim}")
    assert abs(closed - math.sqrt(5.0)) <= 1e-12
    assert abs(est.witness_value - closed) <= 1e-6
    assert est.value <= closed + 1e-9
    assert t_one_claim > est.value * (1.0 + 1e-6)  # t = 1 is falsified


def test_prospector_known_families_and_zero_diag(capsys):
    clean = True
    for family in ("psd_gram", "lyapunov_form", "quadratic_form"):
        for n in (2, 3, 4):
            res = sweep(FamilySpec(family, n), SymMatrix(n), 1000, 100,
                        seed=SWEEP_SEED)
            clean &= len(res.violations) == 0
    certified = True
    for n in (2, 3, 4):
        spec = FamilySpec("random_sym", n, {"zero_diag": True})
        res = sweep(spec, SymMatrix(n), 2, 50, seed=SWEEP_SEED)
        found = len(res.violations) >= 1
        certified &= found
        if found:
            ok, margin = replay_record(res.violations[0], margin_tol=1e-10)
            certified &= ok
    ok = clean and certified
    announce(capsys, "prospector: known families clean, zero-diag certified", ok)
    assert clean
    assert certified


def test_kernel_oracles(capsys):
    rng = np.random.default_rng(SWEEP_SEED)
    jacobi_err = 0.0
    for n, oracle in ((2, eig2_closed), (3, eig3_closed)):
        G = rng.normal(0.0, 3.0, (500, n, n))
        S = (G + G.transpose(0, 2, 1)) / 2.0
        W, _ = sym_eigh_batch(S)
        for M, w in zip(S, W):
            scale = max(1.0, np.abs(M).max())
            jacobi_err = max(jacobi_err, np.abs(w - oracle(M)).max() / scale)
    quad_err = 0.0
    for n in (2, 3, 4, 5):
        d = SymMatrix(n)
        for _ in range(50):
            a = random_element(d, rng, 2.0)
            x = random_element(d, rng, 2.0)
            lhs = quad_rep(a, x).as_matrix()
            rhs = a.as_matrix() @ x.as_matrix() @ a.as_matrix()
            quad_err = max(quad_err,
                           np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max()))
    peirce_err = 0.0
    for d in CATALOG:
        for _ in range(10):
            frame = spectral_decompose(random_element(d, rng, 1.0)).frame
            x = random_element(d, rng, 3.0)
            comps = peirce_project(frame, x, validate=False)
            total = zero(d)
            for c in comps.values():
                total = total + c
            peirce_err = max(peirce_err, norm(total - x) / (1.0 + norm(x)))
            keys = list(comps)
            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    g = abs(inner(comps[keys[i]], comps[keys[j]]))
                    peirce_err = max(peirce_err, g / (1.0 + norm(x) ** 2))
    pairing_ok = True
    per_descriptor = SWEEP_SAMPLES // len(CATALOG) + 1
    for d in CATALOG:
        rngs = [sample_rng(SWEEP_SEED + 6, i) for i in range(per_descriptor)]
        pairs = [(sample_general(d, r), sample_general(d, r)) for r in rngs]
        lam = eigvals_batch(d, np.array([e.coords for pair in pairs for e in pair]))
        for (x, y), lx, ly in zip(pairs, lam[0::2], lam[1::2]):
            tol = 1e-9 * (1.0 + norm(x) * norm(y))
            first = float(np.dot(lx, ly))
            second = float(np.dot(sort_desc(np.abs(lx)), sort_desc(np.abs(ly))))
            pairing_ok &= inner(x, y) <= first + tol
            pairing_ok &= first <= second + tol
    ok = (jacobi_err <= 1e-10 and quad_err <= 1e-10
          and peirce_err <= 1e-9 and pairing_ok)
    announce(capsys, "kernel oracles (eig, congruence, Peirce, pairing bound)", ok,
             f"eig {jacobi_err:.2e}, quad {quad_err:.2e}, peirce {peirce_err:.2e}")
    assert jacobi_err <= 1e-10
    assert quad_err <= 1e-10
    assert peirce_err <= 1e-9
    assert pairing_ok
