"""Structure tests for the root-system data: sizes, generators, projections."""

import numpy as np
import pytest

from todadual.errors import ValidationError
from todadual.goldfish import (
    GoldfishPoint,
    RSCoupling,
    goldfish_hamiltonian,
    goldfish_hamiltonian_signed_A,
    rs_hamiltonian_A,
)
from todadual.moser import MoserPoint, minor_oracle_mk
from todadual.rootsys import (
    FAMILIES,
    AlgebraType,
    algebra_residual,
    build_root_datum,
    cartan_pattern,
    group_residual,
    matrix_size,
)
from todadual.toda import TodaPoint, equations_of_motion, integrate_flow

SIZES = {"A": 3, "B": 7, "C": 6, "D": 6}  # at rank 3


def test_matrix_sizes():
    assert matrix_size(AlgebraType("A", 3)) == 3
    assert matrix_size(AlgebraType("B", 3)) == 7
    assert matrix_size(AlgebraType("C", 3)) == 6
    assert matrix_size(AlgebraType("D", 3)) == 6


def test_family_validation():
    with pytest.raises(ValidationError):
        AlgebraType("E", 8)
    with pytest.raises(ValidationError):
        AlgebraType("A", 0)
    with pytest.raises(ValidationError):
        AlgebraType("D", 1)  # needs rank >= 2


def test_datum_shapes():
    for fam in FAMILIES:
        n = 3
        datum = build_root_datum(AlgebraType(fam, n))
        N = datum.size
        assert N == SIZES[fam]
        assert datum.cartan.shape == (n, N, N)
        assert datum.raising.shape == (datum.num_roots, N, N)
        assert datum.lowering.shape == (datum.num_roots, N, N)
        expected_roots = n - 1 if fam == "A" else n
        assert datum.num_roots == expected_roots
        assert datum.alpha_coeffs.shape == (expected_roots, n)


def test_cartan_generators_diagonal_and_in_algebra():
    for fam in FAMILIES:
        datum = build_root_datum(AlgebraType(fam, 3))
        for h in datum.cartan:
            assert np.allclose(h, np.diag(np.diagonal(h)))
            assert algebra_residual(datum, h) < 1e-14


def test_raising_lowering_are_root_vectors():
    """[h, e_alpha] = (alpha, diag h) e_alpha for every simple root."""
    rng = np.random.default_rng(5)
    for fam in FAMILIES:
        n = 3
        datum = build_root_datum(AlgebraType(fam, n))
        v = rng.uniform(-1.0, 1.0, size=n)
        H = np.einsum("a,aij->ij", v, datum.cartan)
        pair = datum.alpha_coeffs @ v
        for i in range(datum.num_roots):
            e = datum.raising[i]
            f = datum.lowering[i]
            assert np.linalg.norm(H @ e - e @ H - pair[i] * e) < 1e-13
            assert np.linalg.norm(H @ f - f @ H + pair[i] * f) < 1e-13
            assert algebra_residual(datum, e) < 1e-14
            assert algebra_residual(datum, f) < 1e-14


def test_lax_basis_rows_reproduce_the_generators():
    for fam in FAMILIES:
        for n in range(2 if fam == "D" else 1, 9):
            datum = build_root_datum(AlgebraType(fam, n))
            N, r = datum.size, datum.num_roots
            basis = datum.lax_basis.reshape(n + r, N, N)
            assert np.array_equal(basis[:n], datum.cartan), (fam, n)
            assert np.array_equal(basis[n:], datum.raising + datum.lowering), (fam, n)
            assert np.array_equal(basis, basis.transpose(0, 2, 1)), (fam, n)
            assert np.array_equal(datum.lax_gram, datum.lax_basis @ datum.lax_basis.T), (fam, n)
            # orthogonal generators: the quadratic field reads the Gram diagonal entrywise
            assert np.array_equal(datum.lax_gram, np.diag(datum.lax_gram.diagonal())), (fam, n)


def test_momentum_is_sum_of_lowering_and_strictly_lower():
    for fam in FAMILIES:
        datum = build_root_datum(AlgebraType(fam, 4 if fam != "D" else 3))
        lam = datum.momentum
        assert np.allclose(lam, datum.lowering.sum(axis=0))
        assert np.allclose(np.triu(lam), 0.0)


# Rank-3 realization written out by hand: per simple root, the nonzero
# entries of e_alpha as {(row, col): value}, and the nonzero entries of Omega.
RAISING_3 = {
    "A": [{(0, 1): 1}, {(1, 2): 1}],
    "B": [{(0, 1): 1, (5, 6): -1}, {(1, 2): 1, (4, 5): -1}, {(2, 3): 1, (3, 4): -1}],
    "C": [{(0, 1): 1, (4, 5): -1}, {(1, 2): 1, (3, 4): -1}, {(2, 3): 1}],
    "D": [{(0, 1): 1, (4, 5): -1}, {(1, 2): 1, (3, 4): -1}, {(2, 4): 1, (1, 3): -1}],
}
OMEGA_3 = {
    "B": {(0, 6): 1, (1, 5): 1, (2, 4): 1, (3, 3): 1, (4, 2): 1, (5, 1): 1, (6, 0): 1},
    "C": {(0, 5): 1, (1, 4): 1, (2, 3): 1, (3, 2): -1, (4, 1): -1, (5, 0): -1},
    "D": {(0, 5): 1, (1, 4): 1, (2, 3): 1, (3, 2): 1, (4, 1): 1, (5, 0): 1},
}


def _entries(M):
    return {(int(i), int(j)): M[i, j] for i, j in zip(*np.nonzero(M))}


def test_rank_3_realization_entry_by_entry():
    for fam in FAMILIES:
        datum = build_root_datum(AlgebraType(fam, 3))
        assert [_entries(e) for e in datum.raising] == RAISING_3[fam], fam
        assert [_entries(f) for f in datum.lowering] == [
            {(j, i): v for (i, j), v in root.items()} for root in RAISING_3[fam]
        ], fam
        assert _entries(datum.omega) == OMEGA_3.get(fam, {}), fam


def test_family_a_residuals_are_exactly_zero():
    datum = build_root_datum(AlgebraType("A", 3))
    M = np.random.default_rng(3).normal(size=(3, 3))
    assert not np.array_equal(M, M.T)
    assert algebra_residual(datum, M) == 0.0
    assert group_residual(datum, M) == 0.0


def test_cartan_pattern_layouts():
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(cartan_pattern(build_root_datum(AlgebraType("A", 3)), v), [1, 2, 3])
    assert np.allclose(
        cartan_pattern(build_root_datum(AlgebraType("B", 3)), v), [1, 2, 3, 0, -3, -2, -1]
    )
    assert np.allclose(
        cartan_pattern(build_root_datum(AlgebraType("C", 3)), v), [1, 2, 3, -3, -2, -1]
    )
    assert np.allclose(
        cartan_pattern(build_root_datum(AlgebraType("D", 3)), v), [1, 2, 3, -3, -2, -1]
    )


def test_cartan_pattern_matches_generators():
    rng = np.random.default_rng(11)
    for fam in FAMILIES:
        datum = build_root_datum(AlgebraType(fam, 3))
        v = rng.uniform(-2.0, 2.0, size=3)
        H = np.einsum("a,aij->ij", v, datum.cartan)
        assert np.allclose(np.diagonal(H), cartan_pattern(datum, v))


def test_group_residual_zero_for_pattern_exponentials():
    rng = np.random.default_rng(23)
    for fam in FAMILIES:
        datum = build_root_datum(AlgebraType(fam, 3))
        g = np.diag(np.exp(cartan_pattern(datum, rng.uniform(-1, 1, size=3))))
        assert group_residual(datum, g) < 1e-12


@pytest.mark.parametrize(
    "point_type, first, second",
    [(TodaPoint, "q", "p"), (GoldfishPoint, "qhat", "phat"), (MoserPoint, "qhat", "ahat")],
)
def test_point_types_share_one_coordinate_rule(point_type, first, second):
    point = point_type(**{first: [2, 1], second: [1, 3]})
    assert getattr(point, first).dtype == getattr(point, second).dtype == float
    for u, v, shapes in (([1.0, 2.0], [1.0], "(2,) and (1,)"), ([[2.0, 1.0]], [[1.0, 1.0]], "(1, 2) and (1, 2)")):
        with pytest.raises(ValidationError) as exc:
            point_type(**{first: u, second: v})
        assert str(exc.value) == f"{first} and {second} must be equal-length vectors, got {shapes}"
    for u, v in (([2.0, np.nan], [1.0, 1.0]), ([2.0, 1.0], [np.inf, 1.0])):
        with pytest.raises(ValidationError) as exc:
            point_type(**{first: u, second: v})
        assert str(exc.value) == "non-finite coordinates"
    if point_type is MoserPoint:
        with pytest.raises(ValidationError) as exc:
            point_type(qhat=[2.0, 1.0], ahat=[1.0, 0.0])
        assert str(exc.value) == "ahat entries must be positive"


def test_every_hamiltonian_index_has_one_range_rule():
    datum = build_root_datum(AlgebraType("A", 3))
    point = TodaPoint(q=[0.3, 0.0, -0.2], p=[0.1, 0.0, -0.1])
    gp = GoldfishPoint(qhat=[1.0, 0.0, -1.0], phat=[0.0, 0.1, 0.2])
    entry_points = [
        lambda k: equations_of_motion(datum, point, k),
        lambda k: integrate_flow(datum, point, k, dt=1e-3, steps=0),
        lambda k: goldfish_hamiltonian(datum, gp, k),
        lambda k: goldfish_hamiltonian_signed_A(gp, k),
        lambda k: rs_hamiltonian_A(gp, RSCoupling(nu=1.0), k),
        lambda k: minor_oracle_mk(datum, np.eye(datum.size), k),
    ]
    for call in entry_points:
        for k in (0, 4):
            with pytest.raises(ValidationError) as exc:
                call(k)
            assert str(exc.value) == f"k must lie in 1..3, got {k}"
