"""Moser-gauge layer: the canonical lower-triangular g, momentum equation,
rational matrix minors, and the QR minor oracle."""

import itertools

import numpy as np
import pytest

from todadual.errors import ChamberError, SingularConfigurationError, ValidationError
from todadual.goldfish import a_from_p
from todadual.linalg import extended_solve
from todadual.moser import (
    MoserPoint,
    RuijsenaarsMatrixSpec,
    build_moser_g,
    check_chamber,
    closed_form_minor,
    log_gap_sums,
    minor_oracle_mk,
    momentum_equation_residual,
    moser_momentum_residual,
    node_tables,
    ruijsenaars_spec_for,
)
from todadual.rootsys import FAMILIES, AlgebraType, build_root_datum, cartan_pattern
from todadual.sampling import sample_goldfish, sample_moser, spawn_rng

from ruijsenaars import build_ruijsenaars_matrix

ALGEBRAS = [("A", 2), ("A", 4), ("B", 1), ("B", 3), ("C", 2), ("C", 4), ("D", 2), ("D", 3)]


def test_chamber_acceptance_and_rejection():
    check_chamber(build_root_datum(AlgebraType("A", 3)), np.array([2.0, 0.5, -1.0]))
    check_chamber(build_root_datum(AlgebraType("B", 2)), np.array([1.5, 0.4]))
    # D allows a negative last coordinate as long as it is dominated
    check_chamber(build_root_datum(AlgebraType("D", 2)), np.array([1.5, -0.4]))
    with pytest.raises(ChamberError):
        check_chamber(build_root_datum(AlgebraType("A", 2)), np.array([0.5, 0.5]))
    with pytest.raises(ChamberError):
        check_chamber(build_root_datum(AlgebraType("C", 2)), np.array([1.0, -0.2]))
    with pytest.raises(ChamberError):
        check_chamber(build_root_datum(AlgebraType("D", 2)), np.array([0.4, 0.5]))


def test_last_chamber_margin_is_the_node_gap():
    # qhat = (1, 6e-9): B's closest nodes are qhat_2 and its middle 0, 6e-9
    # apart; C's and D's are qhat_2 and -qhat_2, 1.2e-8 apart.
    qhat = np.array([1.0, 6e-9])
    with pytest.raises(SingularConfigurationError):
        check_chamber(build_root_datum(AlgebraType("B", 2)), qhat)
    for fam in "CD":
        datum = build_root_datum(AlgebraType(fam, 2))
        assert np.array_equal(check_chamber(datum, qhat), cartan_pattern(datum, qhat))
    negative = np.array([1.0, -6e-9])  # D's last coordinate may be negative
    assert np.array_equal(check_chamber(datum, negative), cartan_pattern(datum, negative))


def test_gl2_moser_g_closed_form():
    datum = build_root_datum(AlgebraType("A", 2))
    qh, ah = np.array([0.9, -0.4]), np.array([1.1, 0.6])
    g = build_moser_g(datum, MoserPoint(qhat=qh, ahat=ah))
    ref = np.array([[1.1, 0.0], [1.1 / 1.3, 0.6]])
    assert np.allclose(g, ref, atol=1e-15)


def test_sp4_moser_g_closed_form():
    """Rank-2 C chain: every entry of the 4x4 canonical g in closed form."""
    datum = build_root_datum(AlgebraType("C", 2))
    q1, q2 = 1.4, 0.5
    a1, a2 = 1.2, 0.8
    g = build_moser_g(datum, MoserPoint(qhat=np.array([q1, q2]), ahat=np.array([a1, a2])))
    ref = np.array(
        [
            [a1, 0, 0, 0],
            [a1 / (q1 - q2), a2, 0, 0],
            [a1 / (q1**2 - q2**2), a2 / (2 * q2), 1 / a2, 0],
            [
                -a1 / (2 * q1 * (q1**2 - q2**2)),
                -a2 / (2 * q2 * (q1 + q2)),
                -(1 / a2) / (q1 - q2),
                1 / a1,
            ],
        ]
    )
    assert np.allclose(g, ref, atol=1e-14)


def test_a_type_moser_g_entries():
    """A-type g_ij = a_j * prod_{k=j+1}^{i} (qhat_j - qhat_k)^{-1}."""
    datum = build_root_datum(AlgebraType("A", 4))
    mp = sample_moser(datum, spawn_rng(2024, 0))
    g = build_moser_g(datum, mp)
    q, a = mp.qhat, mp.ahat
    for i in range(4):
        for j in range(4):
            if j > i:
                expected = 0.0
            else:
                expected = a[j]
                for k in range(j + 1, i + 1):
                    expected /= q[j] - q[k]
            assert abs(g[i, j] - expected) < 1e-12 * max(1.0, abs(expected))


def test_momentum_residual_small_on_construction():
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(8):
            mp = sample_moser(datum, spawn_rng(300 + j, j))
            assert moser_momentum_residual(datum, mp) < 1e-12


def test_momentum_residual_detects_perturbation():
    datum = build_root_datum(AlgebraType("C", 2))
    mp = sample_moser(datum, spawn_rng(4, 0))
    g = build_moser_g(datum, mp)
    g[2, 0] += 0.1
    assert momentum_equation_residual(datum, g, mp.qhat) > 1e-3
    # the residual is a triangular solve: a complex or non-triangular g is refused
    with pytest.raises(ValidationError, match="real lower-triangular"):
        momentum_equation_residual(datum, g.astype(complex), mp.qhat)
    g[0, 2] = 0.1
    with pytest.raises(ValidationError, match="real lower-triangular"):
        momentum_equation_residual(datum, g, mp.qhat)


def test_momentum_residual_matches_the_pivoted_extended_solve():
    # oracle: g Xhat g^{-1} by extended_solve's partial-pivot elimination in
    # complex long double, the route the triangular solve replaced
    for fam, n in [(fam, n) for fam in "ABC" for n in range(1, 11)] + [("D", n) for n in range(2, 11)]:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(4):
            mp = sample_moser(datum, spawn_rng(31, 100 * n + j))
            g = build_moser_g(datum, mp).astype(np.clongdouble)
            Xhat = np.diag(cartan_pattern(datum, mp.qhat)).astype(np.clongdouble)
            conj = extended_solve(g.T, (g @ Xhat).T).T
            want = float(np.linalg.norm((conj - Xhat - datum.momentum).astype(complex), "fro"))
            got = moser_momentum_residual(datum, mp)
            assert abs(got - want) < 1e-16, f"{fam}{n} draw {j}: {got:.3e} vs {want:.3e}"


def test_ruijsenaars_matrix_and_closed_form_minor():
    """closed_form_minor equals the brute-force determinant on every subset."""
    rng = np.random.default_rng(99)
    for m in range(2, 7):
        for _ in range(10):
            x = np.sort(rng.uniform(-2.0, 2.0, size=m))[::-1]
            # keep nodes separated so the rational entries stay finite
            gaps = np.abs(np.subtract.outer(x, x))
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() < 1e-2:
                continue
            b = rng.uniform(0.2, 1.5, size=m)
            spec = RuijsenaarsMatrixSpec(b=b, x=x)
            M = build_ruijsenaars_matrix(spec)
            assert M.shape == (m, m)
            for k in range(1, m + 1):
                for cols in itertools.combinations(range(m), k):
                    direct = np.linalg.det(M[m - k :, cols])
                    closed = closed_form_minor(spec, cols)
                    assert abs(direct - closed) < 1e-8 * max(1.0, abs(direct))


def test_bottom_rows_match_ruijsenaars_matrix():
    """Bottom rows of the canonical g line up with the rational matrix rows,
    the log-space unit-row read is the matrix's unit-weight bottom row, and
    exp(pattern(log ahat) + that read) is |g[N-1]|, the forward map's gate."""
    for fam in FAMILIES:
        for n in range(1 + (fam == "D"), 9):
            datum = build_root_datum(AlgebraType(fam, n))
            mp = sample_moser(datum, spawn_rng(55, 3))
            g = build_moser_g(datum, mp)
            M = build_ruijsenaars_matrix(ruijsenaars_spec_for(datum, mp))
            # the last N - n rows match; D's fused root breaks the one above the last n - 1
            row_offset = datum.size - n + (fam == "D")
            for i in range(row_offset, datum.size):
                gap = np.abs(g[i, : i + 1].real - M[i, : i + 1])
                assert gap.max() < 1e-10 * max(1.0, np.abs(M[i]).max()), f"{fam}{n} row {i}"

            unit = ruijsenaars_spec_for(datum, MoserPoint(qhat=mp.qhat, ahat=np.ones(n)))
            expected = np.abs(build_ruijsenaars_matrix(unit)[-1])
            log_read, _ = log_gap_sums(check_chamber(datum, mp.qhat), node_tables(datum.algebra).bottom_row)
            assert log_read.shape == (datum.size,)
            assert np.max(np.abs(np.exp(log_read) - expected) / expected) < 1e-13, f"{fam}{n}"
            closed = np.exp(cartan_pattern(datum, np.log(mp.ahat)) + log_read)
            assert np.max(np.abs(closed - np.abs(g[-1])) / np.abs(g[-1])) < 1e-13, f"{fam}{n}"


def cauchy_binet_minor(g, k):
    """Bottom-right k x k principal minor of g g^dagger as the sum of the
    squared moduli of every k-column minor of the bottom k rows of g."""
    N = g.shape[0]
    subsets = np.array(list(itertools.combinations(range(N), k)))
    blocks = g[N - k :, :][:, subsets]  # (k, num_subsets, k)
    dets = np.linalg.det(np.ascontiguousarray(blocks.transpose(1, 0, 2)).astype(complex))
    return float(np.sum(np.abs(dets) ** 2))


def test_minor_oracle_two_routes_agree():
    # the QR oracle against a dense Cauchy-Binet sum of determinants
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        gp = sample_goldfish(datum, spawn_rng(777, n))
        g = build_moser_g(datum, a_from_p(datum, gp))
        for k in range(1, n + 1):
            value = minor_oracle_mk(datum, g, k)
            dense = cauchy_binet_minor(g, k)
            assert value > 0.0  # principal minors of a Gram matrix
            assert abs(value - dense) < 1e-8 * max(value, dense), f"{fam}{n} k={k}"


def test_minor_oracle_rejects_inconsistent_matrix():
    datum = build_root_datum(AlgebraType("A", 3))
    with pytest.raises(ValidationError):
        minor_oracle_mk(datum, np.eye(3), 5)


def test_build_moser_g_validates_chamber():
    datum = build_root_datum(AlgebraType("C", 2))
    with pytest.raises(ChamberError):
        build_moser_g(datum, MoserPoint(qhat=np.array([0.5, 1.0]), ahat=np.array([1.0, 1.0])))
