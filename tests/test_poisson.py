"""Brackets: canonical pairs, Leibniz, exact gradients against the stencil, commuting families."""

import numpy as np
import pytest

import todadual.poisson
from todadual.errors import ValidationError
from todadual.goldfish import GoldfishPoint, goldfish_gradients, goldfish_hamiltonian, goldfish_hamiltonians
from todadual.poisson import commutativity_matrix
from todadual.rootsys import AlgebraType, build_root_datum
from todadual.sampling import sample_goldfish, sample_toda, spawn_rng
from todadual.toda import TodaPoint, symplectic_scale, toda_gradients, toda_hamiltonians

from stencil import central_difference, flatten_point

# Width of the central-difference oracle.  Its truncation error (h^2) and
# the D-family goldfish rounding floor both sit near 1e-9 relative here.
BRACKET_STEP = 1.0e-5

# Every family at every rank the library certifies.
ALGEBRAS = [(fam, n) for fam in "ABC" for n in range(1, 9)] + [("D", n) for n in range(2, 9)]


def bracket(datum, f, g, z):
    """{f, g} at the flat phase vector z (momenta first), by central differences."""
    n = datum.algebra.rank
    gf = central_difference(f, z, BRACKET_STEP)
    gg = central_difference(g, z, BRACKET_STEP)
    return float(gf[n:] @ gg[:n] - gf[:n] @ gg[n:]) / float(symplectic_scale(datum))


def hamiltonian(datum, point, k):
    """H_k of the point's family as a function of the flat phase vector."""
    n = datum.algebra.rank
    if isinstance(point, TodaPoint):
        return lambda z: toda_hamiltonians(datum, TodaPoint(q=z[n:], p=z[:n]))[k - 1]
    return lambda z: goldfish_hamiltonian(datum, GoldfishPoint(qhat=z[n:], phat=z[:n]), k)


def stencil_jacobian(datum, point):
    """Central-difference Jacobian of the point's whole Hamiltonian vector, rows H_k."""
    n = datum.algebra.rank
    if isinstance(point, TodaPoint):
        vector = lambda z: toda_hamiltonians(datum, TodaPoint(q=z[n:], p=z[:n]))
    else:
        vector = lambda z: goldfish_hamiltonians(datum, GoldfishPoint(qhat=z[n:], phat=z[:n]))
    return central_difference(vector, flatten_point(point), BRACKET_STEP).T


def exact_jacobian(datum, point):
    if isinstance(point, TodaPoint):
        return toda_gradients(datum, point)
    return goldfish_gradients(datum, point)


def row_gaps(J, oracle):
    """Relative distance of each row of J from the same row of the oracle."""
    return np.linalg.norm(J - oracle, axis=1) / np.linalg.norm(oracle, axis=1)


def test_flatten_point_order():
    tp = TodaPoint(q=[1.0, 2.0], p=[3.0, 4.0])
    assert np.array_equal(flatten_point(tp), [3.0, 4.0, 1.0, 2.0])
    gp = GoldfishPoint(qhat=[2.0, 1.0], phat=[5.0, 6.0])
    assert np.array_equal(flatten_point(gp), [5.0, 6.0, 2.0, 1.0])
    with pytest.raises(ValidationError):
        flatten_point(np.zeros(4))


def test_coordinate_brackets_carry_family_scale():
    # {q_i, p_j} = delta_ij / s on the flat layout (p first, q second)
    for fam, want in [("A", 1.0), ("C", 0.5)]:
        datum = build_root_datum(AlgebraType(fam, 2))
        z = np.array([0.3, -0.2, 0.8, 0.1])
        for i in range(2):
            for j in range(2):
                qi = lambda w, i=i: float(w[2 + i])
                pj = lambda w, j=j: float(w[j])
                got = bracket(datum, qi, pj, z)
                expect = want if i == j else 0.0
                assert abs(got - expect) < 1e-9


def test_leibniz_identity():
    # {f, g h} = {f, g} h + g {f, h} with non-commuting test observables
    datum = build_root_datum(AlgebraType("A", 2))
    z = flatten_point(sample_toda(datum, spawn_rng(37, 0)))
    n = 2
    f = lambda w: toda_hamiltonians(datum, TodaPoint(q=w[n:], p=w[:n]))[1]
    g = lambda w: float(w[n])  # q_1
    h = lambda w: float(w[1] ** 2 + w[n])  # p_2^2 + q_1
    gh = lambda w: g(w) * h(w)
    lhs = bracket(datum, f, gh, z)
    rhs = bracket(datum, f, g, z) * h(z)
    rhs += g(z) * bracket(datum, f, h, z)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_self_bracket_is_exactly_zero():
    # the diagonal of either family's commutativity matrix is set, not measured
    datum = build_root_datum(AlgebraType("B", 2))
    for point in [sample_toda(datum, spawn_rng(19, 1)), sample_goldfish(datum, spawn_rng(19, 1))]:
        assert np.all(np.diag(commutativity_matrix(datum, point)) == 0.0)


def test_chain_hamiltonians_commute():
    for fam, n in [("A", 3), ("B", 2), ("C", 3), ("D", 3), ("A", 8), ("B", 8), ("C", 8), ("D", 8)]:
        datum = build_root_datum(AlgebraType(fam, n))
        tp = sample_toda(datum, spawn_rng(43, n))
        M = commutativity_matrix(datum, tp)
        assert M.shape == (n, n)
        assert np.max(np.abs(np.diag(M))) == 0.0
        assert M.max() < 1e-6, f"{fam}{n}: {M.max():.3e}"


def test_dual_hamiltonians_commute():
    for fam, n in [("A", 3), ("B", 2), ("C", 2), ("D", 3), ("A", 8), ("B", 8), ("C", 8), ("D", 8)]:
        datum = build_root_datum(AlgebraType(fam, n))
        gp = sample_goldfish(datum, spawn_rng(43, 100 + n))
        M = commutativity_matrix(datum, gp)
        assert M.max() < 1e-6, f"{fam}{n}: {M.max():.3e}"


@pytest.mark.parametrize("fam", "BCD")
def test_commutativity_matrix_survives_tiny_gradient_rows(fam):
    # rank 16 gives gradient rows near 1e-175, whose squared norms underflow
    datum = build_root_datum(AlgebraType(fam, 16))
    M = commutativity_matrix(datum, sample_goldfish(datum, spawn_rng(0, 7000)))
    assert np.isfinite(M).all() and M.max() < 1e-5, f"{fam}16: {M.max():.3e}"


# D10 is left out: its stencil gap, a few 1e-8, sits too close to the gate.
@pytest.mark.parametrize("fam, n", ALGEBRAS + [("A", 10), ("B", 10), ("C", 10)])
def test_exact_gradients_match_the_stencil(fam, n):
    # both gradient routes agree with the central-difference oracle row by row,
    # and the exact brackets sit at rounding level
    datum = build_root_datum(AlgebraType(fam, n))
    for seed in range(3):
        for point in [sample_toda(datum, spawn_rng(seed, n)), sample_goldfish(datum, spawn_rng(seed, 100 + n))]:
            J = exact_jacobian(datum, point)
            assert J.shape == (n, 2 * n)
            gaps = row_gaps(J, stencil_jacobian(datum, point))
            kind = type(point).__name__
            assert gaps.max() < 1e-7, f"{fam}{n} {kind} seed {seed}: {gaps}"
            assert commutativity_matrix(datum, point).max() < 1e-13, f"{fam}{n} {kind} seed {seed}"


@pytest.mark.parametrize("n", range(2, 9))
def test_d_top_invariant_gradient_matches_the_stencil(n):
    # the row of the pass's fused-row residual, checked against the stencil of H-hat_n alone
    datum = build_root_datum(AlgebraType("D", n))
    for seed in range(3):
        gp = sample_goldfish(datum, spawn_rng(seed, 200 + n))
        oracle = central_difference(hamiltonian(datum, gp, n), flatten_point(gp), BRACKET_STEP)
        gap = np.linalg.norm(goldfish_gradients(datum, gp)[-1] - oracle) / np.linalg.norm(oracle)
        assert gap < 1e-7, f"D{n} seed {seed}: {gap:.3e}"


def test_commutativity_matrix_matches_pairwise_brackets():
    # the exact Jacobian pairing reproduces every normalized bracket of the
    # stencil oracle, and the exact Jacobian is the oracle's within 1e-7
    for fam, n in [("A", 3), ("B", 2), ("C", 3), ("D", 3)]:
        datum = build_root_datum(AlgebraType(fam, n))
        points = [sample_toda(datum, spawn_rng(47, n)), sample_goldfish(datum, spawn_rng(47, 100 + n))]
        for point in points:
            fs = [hamiltonian(datum, point, k) for k in range(1, n + 1)]
            z = flatten_point(point)
            oracle = np.array([central_difference(f, z, BRACKET_STEP) for f in fs])
            kind = type(point).__name__
            assert row_gaps(exact_jacobian(datum, point), oracle).max() < 1e-7, f"{fam}{n} {kind}"
            norms = np.linalg.norm(oracle, axis=1)
            M = commutativity_matrix(datum, point)
            for j in range(n):
                assert M[j, j] == 0.0
                for k in range(n):
                    if k != j:
                        want = abs(bracket(datum, fs[j], fs[k], z)) / (norms[j] * norms[k])
                        assert want < 1e-8, f"{fam}{n} {kind} ({j}, {k}) oracle {want:.3e}"
                        assert M[j, k] < 1e-13, f"{fam}{n} {kind} ({j}, {k}) exact {M[j, k]:.3e}"


def test_commutativity_matrix_dispatches_on_point_type(monkeypatch):
    # the family comes from the point: a TodaPoint at goldfish coordinates
    # is differentiated through the trace gradients only, a GoldfishPoint
    # through the dual ones only, and anything else is rejected
    calls = []
    for fn in ("toda_gradients", "goldfish_gradients"):
        real = getattr(todadual.poisson, fn)
        spy = lambda *args, fn=fn, real=real: calls.append(fn) or real(*args)
        monkeypatch.setattr(todadual.poisson, fn, spy)
    datum = build_root_datum(AlgebraType("C", 3))
    gp = sample_goldfish(datum, spawn_rng(0, 1))
    commutativity_matrix(datum, TodaPoint(q=gp.qhat, p=gp.phat))
    assert calls == ["toda_gradients"]
    calls.clear()
    commutativity_matrix(datum, gp)
    assert calls == ["goldfish_gradients"]
    with pytest.raises(ValidationError):
        commutativity_matrix(datum, flatten_point(gp))


def test_bad_phase_vector_length():
    # a wrong rank is refused by the rank rule the gradient routes share
    datum = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(ValidationError, match="does not match algebra rank 2"):
        commutativity_matrix(datum, TodaPoint(q=np.zeros(3), p=np.zeros(3)))
    with pytest.raises(ValidationError, match="does not match algebra rank 2"):
        commutativity_matrix(datum, GoldfishPoint(qhat=[3.0, 2.0, 1.0], phat=np.zeros(3)))
