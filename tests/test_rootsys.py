"""Structure tests for the root-system data: sizes, generators, projections."""

import numpy as np
import pytest

from todadual.errors import ValidationError
from todadual.rootsys import (
    FAMILIES,
    AlgebraType,
    algebra_residual,
    build_root_datum,
    cartan_pattern,
    group_residual,
    matrix_size,
    project_lower_nilpotent,
)

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


def test_momentum_is_sum_of_lowering_and_strictly_lower():
    for fam in FAMILIES:
        datum = build_root_datum(AlgebraType(fam, 4 if fam != "D" else 3))
        lam = datum.momentum
        assert np.allclose(lam, datum.lowering.sum(axis=0))
        assert np.allclose(np.triu(lam), 0.0)


def test_project_lower_nilpotent():
    M = np.arange(16.0).reshape(4, 4)
    L = project_lower_nilpotent(M)
    assert np.allclose(np.triu(L), 0.0)
    assert np.allclose(np.tril(L, -1), np.tril(M, -1))
    with pytest.raises(ValidationError):
        project_lower_nilpotent(np.ones((2, 3)))


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
