"""Factorization layer: structured diagonalization, bottom-row QR, Gauss split, Iwasawa."""

import numpy as np
import pytest

from todadual.errors import (
    DegenerateSpectrumError,
    DualityResidualError,
    GaussCellError,
    SingularMatrixError,
    ValidationError,
)
from todadual.linalg import (
    bottom_row_qr,
    extended_solve,
    iwasawa,
    lower_triangularize,
    structured_diagonalize,
)
from todadual.goldfish import a_from_p
from todadual.moser import build_moser_g
from todadual.rootsys import FAMILIES, AlgebraType, build_root_datum, cartan_pattern, group_residual
from todadual.sampling import sample_goldfish, sample_toda, spawn_rng
from todadual.toda import build_lax

ALGEBRAS = [("A", 3), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("D", 3), ("D", 4)]


def test_extended_solve_matches_lapack():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        B = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        X = extended_solve(A, B).astype(complex)
        assert np.linalg.norm(A @ X - B) < 1e-12 * np.linalg.norm(B)


def test_bottom_row_qr_factors_in_the_original_row_order():
    # rows spanning many decades are sorted inside the helper; the R that
    # comes back is the triangular factor of M = g[::-1][:k]^dagger in its
    # original row order, R^dagger R = M^dagger M
    rng = np.random.default_rng(7)
    g = rng.normal(size=(6, 6)) * 10.0 ** rng.uniform(-6.0, 6.0, size=(6, 1))
    for k in (1, 3, 6):
        M = g[::-1][:k].T
        R = bottom_row_qr(g, k)
        assert np.array_equal(np.triu(R), R)
        assert np.allclose(R.T @ R, M.T @ M, rtol=0.0, atol=1e-12 * np.abs(M.T @ M).max())
        assert np.allclose(np.abs(np.diag(R)), np.abs(np.diag(np.linalg.qr(M, mode="r"))), rtol=1e-10)
    g[-1] = 0.0
    with pytest.raises(SingularMatrixError):
        bottom_row_qr(g, 2)


def test_bottom_row_qr_matches_scipy_qr():
    # numpy and scipy both run LAPACK dgeqrf; the tolerance only lets
    # another LAPACK build pass, here the two R factors are bit-identical
    import scipy.linalg

    for fam in FAMILIES:
        for n in range(2 if fam == "D" else 1, 11):
            datum = build_root_datum(AlgebraType(fam, n))
            for draw in range(3):
                g = build_moser_g(datum, a_from_p(datum, sample_goldfish(datum, spawn_rng(0, draw))))
                for k in range(1, n + 1):
                    M = g[::-1][:k].T
                    order = np.argsort(-np.max(np.abs(M), axis=1), kind="stable")
                    R_ref = scipy.linalg.qr(M[order], mode="economic")[1]
                    R = bottom_row_qr(g, k)
                    assert np.max(np.abs(R - R_ref)) <= 1e-14 * np.max(np.abs(R_ref))


def test_structured_diagonalize_conjugates_to_pattern():
    extremes = [("A", 1), ("A", 8), ("B", 1), ("B", 8), ("C", 1), ("C", 8), ("D", 2), ("D", 8)]
    for fam, n in ALGEBRAS + extremes:
        datum = build_root_datum(AlgebraType(fam, n))
        for j in range(6):
            X = build_lax(datum, sample_toda(datum, spawn_rng(100 + j, j)))
            k, qhat = structured_diagonalize(datum, X)
            assert k.dtype == np.float64
            target = np.diag(cartan_pattern(datum, qhat))
            assert np.linalg.norm(k @ X @ k.T - target) < 1e-10
            # k is real orthogonal and (for B/C/D) preserves the bilinear form
            assert np.linalg.norm(k @ k.T - np.eye(datum.size)) < 1e-12
            assert group_residual(datum, k) < 1e-10


def test_structured_diagonalize_chamber_order():
    datum = build_root_datum(AlgebraType("A", 4))
    X = build_lax(datum, sample_toda(datum, spawn_rng(9, 0)))
    _, qhat = structured_diagonalize(datum, X)
    assert np.all(np.diff(qhat) < 0.0)  # strictly decreasing


def test_structured_diagonalize_rejects_collisions():
    datum = build_root_datum(AlgebraType("A", 2))
    with pytest.raises(DegenerateSpectrumError):
        structured_diagonalize(datum, np.eye(2))
    # the Lax matrix is real symmetric; a complex input is refused, not cast
    with pytest.raises(ValidationError, match="real"):
        structured_diagonalize(datum, np.diag([1.0, -1.0]).astype(complex))


def test_lower_triangularize_splits_group_element():
    rng = np.random.default_rng(41)
    for fam, n in ALGEBRAS:
        datum = build_root_datum(AlgebraType(fam, n))
        N = datum.size
        for _ in range(4):
            g = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            try:
                nplus, glow = lower_triangularize(datum, g)
            except GaussCellError:
                continue  # random matrix hit a small pivot; not what we test here
            assert np.allclose(np.tril(nplus, -1), 0.0)
            assert np.allclose(np.diagonal(nplus), 1.0)
            assert np.allclose(np.triu(glow, 1), 0.0)
            assert np.linalg.norm(nplus @ g - glow) < 1e-9 * max(1.0, np.linalg.norm(g))


def test_lower_triangularize_rejects_zero_pivot():
    datum = build_root_datum(AlgebraType("A", 2))
    # trailing 1x1 minor (the g[1,1] entry) vanishes: outside the big cell
    g = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(GaussCellError):
        lower_triangularize(datum, g)


def test_lower_triangularize_reports_lost_precision():
    # B7, seed 0: the spectrum is well separated (gap 0.019), but the
    # transported element is so ill-conditioned that the elimination
    # leaves an upper residue; that is lost precision, not a small pivot.
    datum = build_root_datum(AlgebraType("B", 7))
    point = sample_toda(datum, spawn_rng(0, 0))
    k, _ = structured_diagonalize(datum, build_lax(datum, point))
    gtilde = np.exp(cartan_pattern(datum, point.q))[:, None] * k.T
    with pytest.raises(DualityResidualError, match="upper residue"):
        lower_triangularize(datum, gtilde)


def test_iwasawa_recombines():
    rng = np.random.default_rng(7)
    for fam, n in [("A", 4), ("C", 3)]:
        datum = build_root_datum(AlgebraType(fam, n))
        N = datum.size
        for _ in range(6):
            if fam == "A":
                g = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            else:
                # a product of exponentials of algebra elements lies in the group
                M = np.einsum("a,aij->ij", rng.normal(size=n), datum.cartan).astype(complex)
                M += 0.4 * (datum.raising.sum(axis=0) + datum.lowering.sum(axis=0))
                from scipy.linalg import expm

                g = expm(0.5 * M)
            nfac, afac, kfac = iwasawa(datum, g)
            assert np.allclose(np.tril(nfac, -1), 0.0)
            assert np.allclose(np.diagonal(nfac), 1.0)
            assert np.allclose(afac, np.diag(np.diagonal(afac).real))
            assert np.all(np.diagonal(afac).real > 0.0)
            assert np.linalg.norm(kfac @ kfac.conj().T - np.eye(N)) < 1e-12
            recombined = nfac @ afac @ kfac
            assert np.linalg.norm(recombined - g) < 1e-10 * max(1.0, np.linalg.norm(g))


def test_iwasawa_positive_diagonal_follows_pattern():
    """For B/C/D group elements the Iwasawa diagonal obeys the mirror pattern."""
    from scipy.linalg import expm

    rng = np.random.default_rng(13)
    datum = build_root_datum(AlgebraType("C", 2))
    M = np.einsum("a,aij->ij", rng.normal(size=2), datum.cartan).astype(complex)
    M += 0.3 * (datum.raising.sum(axis=0) + datum.lowering.sum(axis=0))
    _, afac, _ = iwasawa(datum, expm(M))
    d = np.diagonal(afac).real
    assert np.allclose(d, np.concatenate([d[:2], 1.0 / d[:2][::-1]]))
