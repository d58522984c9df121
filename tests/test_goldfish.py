"""Closed-form dual Hamiltonians against the QR/Cauchy-Binet minor oracle."""

import itertools

import numpy as np
import pytest

from todadual.errors import ChamberError, SingularConfigurationError, ValidationError
from todadual.goldfish import (
    GoldfishPoint,
    RSCoupling,
    _heine_pass,
    a_from_p,
    d_h1_pairsum_variant,
    goldfish_gradients,
    goldfish_hamiltonian,
    goldfish_hamiltonian_signed_A,
    goldfish_hamiltonians,
    p_from_a,
    rs_hamiltonian_A,
)
from todadual.moser import build_moser_g, closed_form_minor, minor_oracle_mk, ruijsenaars_spec_for
from todadual.rootsys import FAMILIES, AlgebraType, build_root_datum
from todadual.sampling import sample_goldfish, sample_moser, spawn_rng

ALGEBRAS = [("A", 2), ("A", 4), ("B", 1), ("B", 3), ("C", 2), ("C", 4), ("D", 2), ("D", 3)]
# Every family at ranks 1-8 (D from 2).
ALL_TO_EIGHT = [(fam, n) for fam in FAMILIES for n in range(1 + (fam == "D"), 9)]


def test_point_and_coupling_validation():
    with pytest.raises(ValidationError):
        GoldfishPoint(qhat=[1.0], phat=[0.1, 0.2])
    with pytest.raises(ValidationError):
        GoldfishPoint(qhat=[np.nan], phat=[0.0])
    with pytest.raises(ValidationError):
        RSCoupling(nu=-1.0)
    with pytest.raises(ValidationError):
        RSCoupling(nu=np.inf)


def chamber_factors(datum, qhat):
    """The radicands F of ahat = e^phat sqrt(F): the weights squared at phat = 0."""
    return a_from_p(datum, GoldfishPoint(qhat=qhat, phat=np.zeros_like(qhat))).ahat ** 2


def test_chamber_factors_positive_on_chamber():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(5):
            gp = sample_goldfish(datum, spawn_rng(13, 10 * n + j))
            F = chamber_factors(datum, gp.qhat)
            assert F.shape == (n,)
            assert np.all(F > 0.0)


def product_loop_chamber_factors(fam, q):
    """The chamber factors as the explicit products of their docstring."""
    n = q.size
    F = np.ones(n)
    for i in range(n):
        for j in range(i + 1, n):
            F[i] *= q[i] - q[j]
        for k in range(i):
            F[i] /= q[k] - q[i]
        if fam in ("B", "C"):
            for k in range(n):
                F[i] *= q[i] + q[k]
            if fam == "B":
                F[i] *= q[i]
        elif fam == "D":
            for k in range(n):
                if k != i:
                    F[i] *= q[i] + q[k]
    return F


def test_chamber_factors_match_the_product_loop():
    for fam in FAMILIES:
        for n in range(1 + (fam == "D"), 9):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(3):
                q = sample_goldfish(datum, spawn_rng(17, 10 * n + j)).qhat
                ref = product_loop_chamber_factors(fam, q)
                F = chamber_factors(datum, q)
                assert np.max(np.abs(F - ref) / ref) < 1e-13, f"{fam}{n} draw {j}"


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
            for k, oracle in enumerate(minor_oracle_mk(datum, g, n), start=1):
                closed = goldfish_hamiltonian(datum, gp, k)
                assert abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle))
    # rank-8 draws of the seed-0 verify property, whose Gram blocks are so
    # ill-conditioned that a double-precision determinant loses 8 digits,
    # and rank-10 draws past the verify rank cap
    for fam, n in [("B", 8), ("C", 8), ("D", 8), ("A", 10), ("B", 10), ("C", 10), ("D", 10)]:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(2):
            gp = sample_goldfish(datum, spawn_rng(0, 2000 + j))
            g = build_moser_g(datum, a_from_p(datum, gp))
            values = goldfish_hamiltonians(datum, gp)
            for k, oracle in enumerate(minor_oracle_mk(datum, g, n), start=1):
                assert abs(values[k - 1] - oracle) < 1e-8 * oracle, f"{fam}{n} draw {j} k={k}"


@pytest.mark.parametrize("fam, n", ALL_TO_EIGHT)
def test_pass_has_one_orthonormal_lanczos_vector_per_step(fam, n):
    # one loop of n steps for every family: Q is N x n with orthonormal
    # columns, and D's last column is the fused-root row's normalised
    # residual against the n - 1 vectors before it
    datum = build_root_datum(AlgebraType(fam, n))
    for j in range(3):
        _, _, Q, beta, _, _, fused = _heine_pass(datum, sample_goldfish(datum, spawn_rng(j, 300 + n)))
        assert Q.shape == (datum.size, n)
        assert beta.all(), f"{fam}{n} draw {j}: {beta}"
        assert np.abs(Q.T @ Q - np.eye(n)).max() < 1e-12, f"{fam}{n} draw {j}"
        assert (fused is None) == (fam != "D")
        if fused is not None:
            f, m = fused[0], n - 1
            residual = f - Q[:, :m] @ (Q[:, :m].T @ f)
            gap = np.abs(beta[m] * Q[:, m] - residual).max() / np.abs(f).max()
            assert gap < 1e-12, f"D{n} draw {j}: {gap:.3e}"


def test_hamiltonians_are_the_cauchy_binet_sums():
    # the paper's formula: H-hat_k is the sum over the k-subsets S of the
    # columns of the squared product-form minors of the bottom k rows of g,
    # enumerated here by brute force (D's top invariant is not one of them)
    for fam in FAMILIES:
        for n in range(1 + (fam == "D"), 6):
            datum = build_root_datum(AlgebraType(fam, n))
            for j in range(3):
                gp = sample_goldfish(datum, spawn_rng(67, 10 * n + j))
                spec = ruijsenaars_spec_for(datum, a_from_p(datum, gp))
                values = goldfish_hamiltonians(datum, gp)
                for k in range(1, n + (fam != "D")):
                    subsets = itertools.combinations(range(spec.size), k)
                    total = sum(closed_form_minor(spec, S) ** 2 for S in subsets)
                    assert abs(values[k - 1] - total) < 1e-12 * total, f"{fam}{n} draw {j} k={k}"


def test_d_pairsum_variant_disagrees_at_rank_three():
    datum = build_root_datum(AlgebraType("D", 3))
    gp = GoldfishPoint(qhat=[1.9, 1.1, 0.4], phat=[0.2, -0.4, 0.1])
    g = build_moser_g(datum, a_from_p(datum, gp))
    (oracle,) = minor_oracle_mk(datum, g, 1)
    closed = goldfish_hamiltonian(datum, gp, 1)
    variant = d_h1_pairsum_variant(datum, gp)
    assert abs(closed - oracle) < 1e-10 * oracle
    assert abs(variant - oracle) > 0.5 * oracle  # kept only for reporting
    with pytest.raises(ValidationError):
        d_h1_pairsum_variant(build_root_datum(AlgebraType("C", 2)), gp)


def test_d_pairsum_variant_refuses_equal_moduli_and_a_short_point():
    # two equal |qhat_i| zero a reciprocal; a rank-2 point against a D3 datum
    # would sum over the wrong pairs
    datum = build_root_datum(AlgebraType("D", 3))
    for qhat in ([1.0, 1.0, 0.5], [1.0, 0.5, -0.5]):
        with pytest.raises(SingularConfigurationError, match="moduli"):
            d_h1_pairsum_variant(datum, GoldfishPoint(qhat=qhat, phat=[0.0, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="does not match algebra rank 3"):
        d_h1_pairsum_variant(datum, GoldfishPoint(qhat=[1.0, 0.5], phat=[0.0, 0.0]))


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


def _cross_product_sum(q, p, k, factor):
    """sum_{|I|=k} exp(2 sum_I p) prod_{i in I, j notin I} factor(q_i - q_j), term by term."""
    total = 0.0
    for I in itertools.combinations(range(q.size), k):
        term = float(np.exp(2.0 * sum(p[i] for i in I)))
        for i in I:
            for j in range(q.size):
                if j not in I:
                    term *= factor(q[i] - q[j])
        total += term
    return total


def test_subset_sums_match_term_by_term_loops():
    # the masked sign/log product against the plain loop; rounding differs,
    # so the bound is relative to the sum of the moduli of the terms
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for _ in range(5):
            q, p, nu = rng.normal(size=n), rng.normal(size=n), 10.0 ** rng.uniform(-1.0, 3.0)
            gp = GoldfishPoint(qhat=q, phat=p)
            for k in range(1, n + 1):
                signed = _cross_product_sum(q, p, k, lambda d: 1.0 / d)
                scale = _cross_product_sum(q, p, k, lambda d: 1.0 / abs(d))
                assert abs(goldfish_hamiltonian_signed_A(gp, k) - signed) < 1e-12 * scale
                rs = _cross_product_sum(q, p, k, lambda d: (d + nu) / d)
                scale = _cross_product_sum(q, p, k, lambda d: abs((d + nu) / d))
                assert abs(rs_hamiltonian_A(gp, RSCoupling(nu=nu), k) - rs) < 1e-12 * scale


def test_nodes_and_weights_spanning_many_decades_keep_their_digits():
    # rounding on the heavy outer nodes hides the residual the light middle
    # node carries, far below eps^2 of them (the forward map gives such
    # points for Toda positions spread by about 60): the pass still matches
    # the term-by-term sum, and a weight that underflows next to the
    # largest gives H-hat_k = 0 with finite gradients
    datum = build_root_datum(AlgebraType("A", 3))
    for qhat, phat in [([1e50, 36.0, -1e50], [-34.0, -137.0, -34.0]), ([1e54, 98.0, -1e54], [22.0, -64.0, 22.0])]:
        gp = GoldfishPoint(qhat=qhat, phat=phat)
        values = goldfish_hamiltonians(datum, gp)
        for k in range(1, 4):
            want = _cross_product_sum(gp.qhat, gp.phat, k, lambda d: 1.0 / abs(d))
            assert abs(values[k - 1] - want) < 1e-12 * want, f"{qhat} k={k}"
    datum = build_root_datum(AlgebraType("A", 2))
    gp = GoldfishPoint(qhat=[1.0, -1.0], phat=[0.0, -1000.0])
    assert np.array_equal(goldfish_hamiltonians(datum, gp), [0.5, 0.0])
    assert np.isfinite(goldfish_gradients(datum, gp)).all()


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


def test_rs_hamiltonian_with_positions_spaced_by_the_coupling():
    # q_j - q_i = nu makes a cross factor exactly zero: those terms vanish
    # and the top value stays exp(2 sum p), with no log(0) on the way
    q, p = np.array([0.0, 1.0, 2.0]), np.array([0.3, -0.2, 0.1])
    gp = GoldfishPoint(qhat=q, phat=p)
    for k in range(1, 4):
        rs = _cross_product_sum(q, p, k, lambda d: (d + 1.0) / d)
        assert abs(rs_hamiltonian_A(gp, RSCoupling(nu=1.0), k) - rs) < 1e-14 * max(1.0, rs)
    assert rs_hamiltonian_A(gp, RSCoupling(nu=1.0), 3) == pytest.approx(np.exp(2 * p.sum()), rel=1e-15)


def test_rs_hamiltonian_rejects_collisions():
    gp = GoldfishPoint(qhat=[0.5, 0.5], phat=[0.0, 0.0])
    with pytest.raises(SingularConfigurationError):
        rs_hamiltonian_A(gp, RSCoupling(nu=1.0), 1)


def test_hamiltonian_k_validation():
    datum = build_root_datum(AlgebraType("C", 2))
    gp = GoldfishPoint(qhat=[1.4, 0.5], phat=[0.0, 0.0])
    with pytest.raises(ValidationError):
        goldfish_hamiltonian(datum, gp, 3)
