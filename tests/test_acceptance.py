"""Acceptance criteria: every release-gating claim, one test per criterion.

Each test prints a single `criterion NN PASS/FAIL` line with the measured
worst residual and wall time, then asserts both the tolerance and the time
budget.  Seeds are fixed so the numbers are reproducible run to run.
"""

import itertools
import time

import numpy as np

from todadual.duality import symplectomorphism_check, toda_to_goldfish, goldfish_to_toda, verify_duality_identities
from todadual.goldfish import (
    GoldfishPoint,
    RSCoupling,
    a_from_p,
    d_h1_pairsum_variant,
    goldfish_hamiltonian,
    goldfish_hamiltonian_signed_A,
    goldfish_hamiltonians,
    rs_hamiltonian_A,
)
from todadual.moser import (
    RuijsenaarsMatrixSpec,
    build_moser_g,
    closed_form_minor,
    minor_oracle_mk,
    moser_momentum_residual,
)
from todadual.poisson import commutativity_matrix
from todadual.rootsys import AlgebraType, build_root_datum
from todadual.sampling import (
    sample_flow_toda,
    sample_goldfish,
    sample_moser,
    sample_toda,
    spawn_rng,
)
from todadual.toda import (
    TodaPoint,
    build_lax,
    integrate_flow,
    quadratic_index,
    toda_hamiltonians,
    toda_momentum_residual,
)

from ruijsenaars import build_ruijsenaars_matrix


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d} {verdict} {detail} ({elapsed:.2f}s < {budget:.0f}s)")


def _ranks(fam: str, hi: int) -> range:
    return range(2 if fam == "D" else 1, hi + 1)


def test_criterion_01_minor_closed_form_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    checked = 0
    for trial in range(200):
        m = 2 + trial % 6  # sizes 2..7
        while True:
            x = np.sort(rng.uniform(-3.0, 3.0, size=m))[::-1]
            gaps = np.abs(np.subtract.outer(x, x))
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() > 5e-2:
                break
        b = rng.uniform(0.2, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
        spec = RuijsenaarsMatrixSpec(b=b, x=x)
        M = build_ruijsenaars_matrix(spec)
        for k in range(1, m + 1):
            for cols in itertools.combinations(range(m), k):
                direct = float(np.linalg.det(M[m - k :, cols]))
                closed = closed_form_minor(spec, cols)
                worst = max(worst, abs(direct - closed) / max(1.0, abs(direct)))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8
    _report(1, ok, f"{checked} minors over 200 specs, worst rel {worst:.3e}", elapsed, 5.0)
    assert ok and elapsed < 5.0


def test_criterion_02_rank_two_duals_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    half_m2 = None
    for fam in ("A", "C"):
        datum = build_root_datum(AlgebraType(fam, 2))
        for j in range(50):
            gp = sample_goldfish(datum, spawn_rng(11, j))
            g = build_moser_g(datum, a_from_p(datum, gp))
            values = goldfish_hamiltonians(datum, gp)
            for k, oracle in enumerate(minor_oracle_mk(datum, g, 2), start=1):
                worst = max(worst, abs(values[k - 1] - oracle) / max(abs(oracle), 1e-300))
            if fam == "C" and j == 0:
                half_m2 = 0.5 * values[1]  # the halved-top-minor convention
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10
    _report(
        2, ok, f"rank-2 A and C duals, worst rel {worst:.3e}, C half-m2 {half_m2:.6g}", elapsed, 1.0
    )
    assert ok and elapsed < 1.0


def test_criterion_03_momentum_equations_both_gauges():
    t0 = time.perf_counter()
    worst = 0.0
    for fam in "ABCD":
        for n in _ranks(fam, 6):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(50):
                rng = spawn_rng(2026, 100 * n + j)
                worst = max(worst, toda_momentum_residual(datum, sample_toda(datum, rng)))
                worst = max(worst, moser_momentum_residual(datum, sample_moser(datum, rng)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9
    _report(3, ok, f"ranks to 6, 50 points each, worst Frobenius {worst:.3e}", elapsed, 10.0)
    assert ok and elapsed < 10.0


def test_criterion_04_closed_forms_vs_minor_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    variant_gaps = []
    for fam in "ABCD":
        for n in _ranks(fam, 5):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(100):
                gp = sample_goldfish(datum, spawn_rng(2027, 100 * n + j))
                g = build_moser_g(datum, a_from_p(datum, gp))
                oracles = minor_oracle_mk(datum, g, n)
                for k, oracle in enumerate(oracles, start=1):
                    closed = goldfish_hamiltonian(datum, gp, k)
                    worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-300))
                if fam == "D" and j < 3:
                    variant = d_h1_pairsum_variant(datum, gp)
                    oracle1 = oracles[0]
                    gap = abs(variant - oracle1) / oracle1
                    variant_gaps.append(gap)
                    print(
                        f"  D{n} first-invariant variant vs oracle: "
                        f"{variant:.9g} vs {oracle1:.9g} (rel gap {gap:.3e})"
                    )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8
    _report(
        4,
        ok,
        f"100 points per algebra, worst rel {worst:.3e}, "
        f"{len(variant_gaps)} D variant discrepancies logged",
        elapsed,
        60.0,
    )
    assert ok and elapsed < 60.0


def test_criterion_05_duality_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for fam in "ABCD":
        ranks = list(_ranks(fam, 4))
        per, extra = divmod(100, len(ranks))
        for idx, n in enumerate(ranks):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(per + (1 if idx < extra else 0)):
                point = sample_toda(datum, spawn_rng(31, 100 * n + j))
                report = verify_duality_identities(datum, point)
                worst = max(worst, report.max_relative_mismatch)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7
    _report(5, ok, f"100 points per family, worst mismatch {worst:.3e}", elapsed, 30.0)
    assert ok and elapsed < 30.0


def test_criterion_06_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    for fam in "ABCD":
        ranks = list(_ranks(fam, 4))
        per, extra = divmod(100, len(ranks))
        for idx, n in enumerate(ranks):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(per + (1 if idx < extra else 0)):
                point = sample_toda(datum, spawn_rng(37, 100 * n + j))
                back = goldfish_to_toda(datum, toda_to_goldfish(datum, point))
                worst = max(
                    worst,
                    float(np.max(np.abs(back.q - point.q))),
                    float(np.max(np.abs(back.p - point.p))),
                )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7
    _report(6, ok, f"100 points per family, worst sup error {worst:.3e}", elapsed, 30.0)
    assert ok and elapsed < 30.0


def test_criterion_07_commuting_families():
    t0 = time.perf_counter()
    worst = 0.0
    for fam in "ABCD":
        ranks = list(_ranks(fam, 4))
        per, extra = divmod(20, len(ranks))
        for idx, n in enumerate(ranks):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(per + (1 if idx < extra else 0)):
                tp = sample_toda(datum, spawn_rng(41, 100 * n + j))
                worst = max(worst, float(commutativity_matrix(datum, tp).max()))
                gp = sample_goldfish(datum, spawn_rng(41, 5000 + 100 * n + j))
                worst = max(worst, float(commutativity_matrix(datum, gp).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5
    _report(7, ok, f"all pairs both families, worst normalized {worst:.3e}", elapsed, 60.0)
    assert ok and elapsed < 60.0


def test_criterion_08_flow_conservation():
    t0 = time.perf_counter()
    worst = 0.0
    for fam in "ABCD":
        datum = build_root_datum(AlgebraType(fam, 3))
        point = sample_flow_toda(datum, spawn_rng(43, ord(fam)))
        k = quadratic_index(datum)
        traj = integrate_flow(datum, point, k, dt=1e-3, steps=1000)
        h0 = toda_hamiltonians(datum, point)
        lam0 = np.linalg.eigvalsh(build_lax(datum, point))
        end = TodaPoint(q=traj[-1, :3], p=traj[-1, 3:])
        h1 = toda_hamiltonians(datum, end)
        lam1 = np.linalg.eigvalsh(build_lax(datum, end))
        worst = max(worst, float(np.max(np.abs(h1 - h0) / np.maximum(1.0, np.abs(h0)))))
        worst = max(
            worst, float(np.max(np.abs(lam1 - lam0)) / max(1.0, float(np.max(np.abs(lam0)))))
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6
    _report(
        8, ok, f"rank-3 quadratic flows, 1000 steps, worst drift {worst:.3e}", elapsed, 20.0
    )
    assert ok and elapsed < 20.0


def test_criterion_09_strong_coupling_scaling():
    t0 = time.perf_counter()
    gp = GoldfishPoint(qhat=[1.2, 0.1, -0.9], phat=[0.3, -0.1, 0.2])
    ratios = []
    for k in (1, 2):
        errs = []
        for nu in (1.0e3, 2.0e3):
            scaled = rs_hamiltonian_A(gp, RSCoupling(nu=nu), k) / nu ** (k * (3 - k))
            errs.append(abs(scaled - goldfish_hamiltonian_signed_A(gp, k)))
        ratios.append(errs[0] / errs[1])
    elapsed = time.perf_counter() - t0
    ok = all(1.8 <= r <= 2.2 for r in ratios)
    _report(
        9, ok, f"error ratios at doubled coupling {ratios[0]:.4f}, {ratios[1]:.4f}", elapsed, 1.0
    )
    assert ok and elapsed < 1.0


def test_criterion_10_antisymplectic_certificate():
    t0 = time.perf_counter()
    worst = 0.0
    sigmas = set()
    for fam, n in [("A", 2), ("A", 3), ("C", 2)]:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(5):
            point = sample_goldfish(datum, spawn_rng(53, 100 * n + j))
            residual, sigma = symplectomorphism_check(datum, point)
            worst = max(worst, residual)
            sigmas.add(sigma)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4
    _report(
        10, ok, f"worst residual {worst:.3e}, sigma recorded {sorted(sigmas)}", elapsed, 5.0
    )
    assert ok and elapsed < 5.0
