"""Closed-form dual Hamiltonians against the Gram-minor oracle."""

import numpy as np
import pytest

from todadual.errors import ChamberError, SingularConfigurationError, ValidationError
from todadual.goldfish import (
    GoldfishPoint,
    RSCoupling,
    a_from_p,
    chamber_factors,
    d_h1_pairsum_variant,
    goldfish_hamiltonian,
    goldfish_hamiltonian_signed_A,
    goldfish_hamiltonians,
    p_from_a,
    rs_hamiltonian_A,
)
from todadual.moser import build_moser_g, minor_oracle_mk
from todadual.rootsys import AlgebraType, build_root_datum
from todadual.sampling import sample_goldfish, sample_moser, spawn_rng

ALGEBRAS = [("A", 2), ("A", 4), ("B", 1), ("B", 3), ("C", 2), ("C", 4), ("D", 2), ("D", 3)]


def test_point_and_coupling_validation():
    with pytest.raises(ValidationError):
        GoldfishPoint(qhat=[1.0], phat=[0.1, 0.2])
    with pytest.raises(ValidationError):
        GoldfishPoint(qhat=[np.nan], phat=[0.0])
    with pytest.raises(ValidationError):
        RSCoupling(nu=-1.0)
    with pytest.raises(ValidationError):
        RSCoupling(nu=np.inf)


def test_chamber_factors_positive_on_chamber():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(5):
            gp = sample_goldfish(datum, spawn_rng(13, 10 * n + j))
            F = chamber_factors(datum, gp.qhat)
            assert F.shape == (n,)
            assert np.all(F > 0.0)


def test_chamber_factors_reject_bad_order():
    datum = build_root_datum(AlgebraType("A", 3))
    with pytest.raises(ChamberError):
        chamber_factors(datum, np.array([0.1, 0.9, 0.5]))


def test_weight_momentum_round_trip():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        gp = sample_goldfish(datum, spawn_rng(29, n))
        back = p_from_a(datum, a_from_p(datum, gp))
        assert np.max(np.abs(back.qhat - gp.qhat)) == 0.0
        assert np.max(np.abs(back.phat - gp.phat)) < 1e-12
        mp = sample_moser(datum, spawn_rng(29, 100 + n))
        forth = a_from_p(datum, p_from_a(datum, mp))
        assert np.max(np.abs(forth.ahat - mp.ahat)) < 1e-12 * np.max(mp.ahat)


def test_gl2_closed_form_golden():
    datum = build_root_datum(AlgebraType("A", 2))
    gp = GoldfishPoint(qhat=[0.9, -0.4], phat=[0.25, -0.55])
    got = goldfish_hamiltonians(datum, gp)
    # independent elementary expressions for the 2-particle case
    h1 = (np.exp(2 * 0.25) + np.exp(2 * -0.55)) / abs(0.9 - (-0.4))
    h2 = np.exp(2 * (0.25 - 0.55))
    assert abs(got[0] - h1) < 1e-14
    assert abs(got[1] - h2) < 1e-14
    assert abs(got[0] - 1.5243018110755442) < 1e-15
    assert abs(got[1] - 0.54881163609402639) < 1e-15


def test_sp4_closed_form_golden():
    datum = build_root_datum(AlgebraType("C", 2))
    gp = GoldfishPoint(qhat=[1.4, 0.5], phat=[0.3, -0.2])
    got = goldfish_hamiltonians(datum, gp)
    assert abs(got[0] - 1.759593926228046) < 1e-14
    assert abs(got[1] - 2.2465459857573964) < 1e-14


def test_b1_closed_form_formula():
    datum = build_root_datum(AlgebraType("B", 1))
    for q, p in [(0.8, 0.35), (1.7, -0.6), (0.45, 0.0)]:
        got = goldfish_hamiltonian(datum, GoldfishPoint(qhat=[q], phat=[p]), 1)
        want = np.exp(2 * p) / (2 * q * q) + 1.0 / (q * q) + np.exp(-2 * p) / (2 * q * q)
        assert abs(got - want) < 1e-13 * want


def test_d2_top_invariant_formula():
    datum = build_root_datum(AlgebraType("D", 2))
    for q1, q2, p1, p2 in [(1.1, 0.6, 0.2, -0.4), (2.0, -0.7, 0.5, 0.1)]:
        gp = GoldfishPoint(qhat=[q1, q2], phat=[p1, p2])
        got = goldfish_hamiltonian(datum, gp, 2)
        s = p1 + p2
        want = (np.exp(2 * s) + 2.0 + np.exp(-2 * s)) / (q1 + q2) ** 2
        assert abs(got - want) < 1e-13 * want


def test_closed_forms_match_minor_oracle():
    # D5 and D6 reach the Laplace expansion of the D top invariant at depth
    for fam, n in ALGEBRAS + [("D", 5), ("D", 6)]:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(4):
            gp = sample_goldfish(datum, spawn_rng(61, 10 * n + j))
            g = build_moser_g(datum, a_from_p(datum, gp))
            for k in range(1, n + 1):
                oracle = minor_oracle_mk(datum, g, k)
                closed = goldfish_hamiltonian(datum, gp, k)
                assert abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle))


def test_d_pairsum_variant_disagrees_at_rank_three():
    datum = build_root_datum(AlgebraType("D", 3))
    gp = GoldfishPoint(qhat=[1.9, 1.1, 0.4], phat=[0.2, -0.4, 0.1])
    g = build_moser_g(datum, a_from_p(datum, gp))
    oracle = minor_oracle_mk(datum, g, 1)
    closed = goldfish_hamiltonian(datum, gp, 1)
    variant = d_h1_pairsum_variant(datum, gp)
    assert abs(closed - oracle) < 1e-10 * oracle
    assert abs(variant - oracle) > 0.5 * oracle  # kept only for reporting
    with pytest.raises(ValidationError):
        d_h1_pairsum_variant(build_root_datum(AlgebraType("C", 2)), gp)


def test_signed_form_vs_modulus_form():
    gp = GoldfishPoint(qhat=[1.2, 0.1, -0.9], phat=[0.3, -0.1, 0.2])
    datum = build_root_datum(AlgebraType("A", 3))
    # top invariant: every difference cancels, both forms give e^{2 sum p}
    top = np.exp(2 * np.sum(gp.phat))
    assert abs(goldfish_hamiltonian_signed_A(gp, 3) - top) < 1e-14
    assert abs(goldfish_hamiltonian(datum, gp, 3) - top) < 1e-14
    # lower invariants: the signed sum is dominated by the modulus sum
    for k in (1, 2):
        signed = goldfish_hamiltonian_signed_A(gp, k)
        modulus = goldfish_hamiltonian(datum, gp, k)
        assert abs(signed) <= modulus * (1 + 1e-12)
        assert abs(signed - modulus) > 1e-12  # genuinely different values


def test_rs_hamiltonian_strong_coupling_limit():
    # scaled RS values approach the signed form with error of order 1/nu
    gp = GoldfishPoint(qhat=[1.2, 0.1, -0.9], phat=[0.3, -0.1, 0.2])
    for k in (1, 2):
        errs = []
        for nu in (1.0e3, 2.0e3):
            scaled = rs_hamiltonian_A(gp, RSCoupling(nu=nu), k) / nu ** (k * (3 - k))
            errs.append(abs(scaled - goldfish_hamiltonian_signed_A(gp, k)))
        assert 1.8 <= errs[0] / errs[1] <= 2.2


def test_rs_hamiltonian_top_is_coupling_free():
    gp = GoldfishPoint(qhat=[0.7, 0.2], phat=[0.4, -0.3])
    top = np.exp(2 * np.sum(gp.phat))
    for nu in (0.5, 3.0, 100.0):
        assert abs(rs_hamiltonian_A(gp, RSCoupling(nu=nu), 2) - top) < 1e-14


def test_rs_hamiltonian_rejects_collisions():
    gp = GoldfishPoint(qhat=[0.5, 0.5], phat=[0.0, 0.0])
    with pytest.raises(SingularConfigurationError):
        rs_hamiltonian_A(gp, RSCoupling(nu=1.0), 1)


def test_hamiltonian_k_validation():
    datum = build_root_datum(AlgebraType("C", 2))
    gp = GoldfishPoint(qhat=[1.4, 0.5], phat=[0.0, 0.0])
    with pytest.raises(ValidationError):
        goldfish_hamiltonian(datum, gp, 3)
    with pytest.raises(ValidationError):
        goldfish_hamiltonians(datum, gp, kmax=0)
