"""Matrix factorizations of the duality layer.

* structured_diagonalize: conjugate a real symmetric algebra element (the
  Lax matrix) into the canonical diagonal pattern by a real orthogonal
  group element.
* bottom_row_qr: R of the row-sorted thin QR of the bottom rows of g; the
  cumulative products of its squared diagonal give the minor oracle every
  trailing minor of g g^dagger at once.
* extended_solve: pivoted elimination in extended complex precision; no
  production caller is left, and the tests keep it as an oracle.
* lower_triangularize: split g = nplus * glow with nplus unipotent upper
  triangular (valid on the big Gauss cell).  The forward duality map reads
  its weights without it; the tests keep it as that read's oracle.
* iwasawa: g = n * a * k with n unipotent upper, a positive diagonal,
  k unitary; the tests' oracle for the inverse duality map.

Factorizations and eigensolves delegate to LAPACK via numpy; the
structure-preserving logic (eigenvector pairing through the bilinear form,
sign conventions, determinant normalization in the orthogonal families)
lives here.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AlgebraMembershipError,
    DegenerateSpectrumError,
    DualityResidualError,
    GaussCellError,
    SingularMatrixError,
    ValidationError,
)
from .rootsys import NODE_TOL, RootDatum, algebra_residual, cartan_pattern, check_shape

# Gauss pivot threshold, relative to the Frobenius norm of the input.
PIVOT_RTOL = 1.0e-12
# Post-condition tolerance for factorization residuals, relative.
RESIDUAL_RTOL = 1.0e-10


def _as_finite(datum: RootDatum, M, name: str) -> np.ndarray:
    """M as an (N, N) array (check_shape); ValidationError if an entry is not finite."""
    M = check_shape(datum, M)
    if not np.isfinite(M).all():
        raise ValidationError(f"{name} has non-finite entries")
    return M


def extended_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A @ X = B by partial-pivot elimination in extended precision.

    LAPACK has no long-double complex path, and some residual checks lose
    their meaning in double precision once the triangular factors carry a
    wide dynamic range.  Matrices here are at most 17 x 17, so a Python
    loop costs nothing.
    """
    A = np.asarray(A).astype(np.clongdouble).copy()
    B = np.asarray(B).astype(np.clongdouble).copy()
    if B.ndim == 1:
        B = B[:, None]
        squeeze = True
    else:
        squeeze = False
    N = A.shape[0]
    for k in range(N):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if A[piv, k] == 0:
            raise SingularMatrixError("singular matrix in extended-precision solve")
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            B[[k, piv]] = B[[piv, k]]
        if k + 1 < N:
            m = A[k + 1 :, k] / A[k, k]
            A[k + 1 :, k + 1 :] -= np.outer(m, A[k, k + 1 :])
            B[k + 1 :] -= np.outer(m, B[k])
    X = np.zeros_like(B)
    for i in range(N - 1, -1, -1):
        X[i] = (B[i] - A[i, i + 1 :] @ X[i + 1 :]) / A[i, i]
    return X[:, 0] if squeeze else X


def structured_diagonalize(datum: RootDatum, X):
    """Diagonalize a real symmetric algebra element by a real orthogonal group element.

    Returns (k, qhat), k float64 with k X k^T equal to the canonical
    diagonal pattern built from qhat (descending; positive half first for
    B/C/D).  Each eigenvector's largest-modulus entry is made positive.  For
    B/C/D the eigenvectors of the mirrored eigenvalues are derived from the
    positive-half ones through the bilinear form, U[:, N-n:] =
    Omega^T U[:, n-1::-1]: X Omega^T = -Omega^T X for a symmetric algebra
    element, so Omega^T u belongs to -w when u belongs to w.  That makes k
    a group element by construction; in family D a leftover sign of det(k) is
    absorbed by flipping the last chamber coordinate, in family B by
    flipping the kernel column.  That column needs no other fix: X
    anticommutes with Omega, so it maps the (n+1)-dimensional +1 eigenspace
    of Omega into the n-dimensional -1 eigenspace, and a simple kernel
    vector u of X lies in the former, Omega u = u.

    Raises DegenerateSpectrumError when any eigenvalue gap falls below
    NODE_TOL, ValidationError for a complex or non-symmetric input
    or one whose norm overflows, and AlgebraMembershipError when X fails
    the algebra relation.
    """
    X = _as_finite(datum, X, "X")
    if np.iscomplexobj(X):
        raise ValidationError("X must be real")
    X = X.astype(float)
    N = datum.size
    with np.errstate(over="ignore"):
        scale = max(1.0, float(np.linalg.norm(X, "fro")))
    if scale == np.inf:
        raise ValidationError("Lax matrix norm sqrt(Tr(X^2)) overflows float64")
    if np.linalg.norm(X - X.T, "fro") > 1.0e-10 * scale:
        raise ValidationError("X is not symmetric")
    if algebra_residual(datum, X) > 1.0e-8 * scale:
        raise AlgebraMembershipError("X fails the algebra relation")

    w, U = np.linalg.eigh(X)
    w, U = w[::-1], U[:, ::-1]  # descending
    if N > 1 and (w[:-1] - w[1:]).min() < NODE_TOL:
        raise DegenerateSpectrumError(f"eigenvalue gap below {NODE_TOL:.1e}")
    U = U * np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(N)])

    fam, n = datum.algebra.family, datum.algebra.rank
    if fam == "A":
        qhat = w.copy()
    else:
        qhat = w[:n].copy()
        U[:, N - n :] = datum.omega.T @ U[:, n - 1 :: -1]
        if fam == "B" and abs(w[n]) > NODE_TOL:
            raise DegenerateSpectrumError("middle eigenvalue does not vanish")
        if fam != "C" and np.linalg.det(U) < 0.0:
            if fam == "D":
                U[:, [n - 1, n]] = U[:, [n, n - 1]]
                qhat[n - 1] = -qhat[n - 1]
            else:
                U[:, n] = -U[:, n]
    k = U.T

    pattern = cartan_pattern(datum, qhat)
    res = np.linalg.norm(k @ X @ k.T - np.diag(pattern), "fro")
    orth = np.linalg.norm(k @ k.T - np.eye(N), "fro")
    if res > 1.0e-8 * scale or orth > 1.0e-10 * N:
        raise SingularMatrixError(
            f"diagonalization residuals too large (conj {res:.3e}, orthogonal {orth:.3e})"
        )
    return k, qhat


def lower_triangularize(datum: RootDatum, g):
    """Split g = nplus * glow, nplus unipotent upper, glow lower triangular.

    Implemented as an LU factorization of the index-reversed matrix without
    pivoting; a small Gauss pivot means g left the big cell (some trailing
    principal minor vanishes) and raises GaussCellError.  An upper residue
    left after a finished elimination is lost precision, not a vanishing
    minor, and raises DualityResidualError.
    """
    g = _as_finite(datum, g, "g").astype(complex)
    N = datum.size
    gnorm = float(np.linalg.norm(g, "fro"))
    if gnorm == 0.0:
        raise GaussCellError("zero matrix")

    # The no-pivot elimination runs in extended precision: the diagonal of
    # glow spans several decades at larger ranks and the lost digits would
    # otherwise show up as a spurious upper residue.
    gext = g.astype(np.clongdouble)
    A = gext[::-1, ::-1].copy()  # reversal swaps trailing and leading minors
    for k in range(N):
        piv = A[k, k]
        if float(abs(piv)) < PIVOT_RTOL * gnorm:
            raise GaussCellError(f"Gauss pivot {abs(piv):.3e} below {PIVOT_RTOL:.1e} * |g|")
        if k + 1 < N:
            A[k + 1 :, k] /= piv
            A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])

    lowfac = np.tril(A, -1) + np.eye(N)  # unit lower factor of the reversed matrix
    upper = lowfac[::-1, ::-1]  # unipotent upper factor of g itself
    nplus_ext = np.eye(N, dtype=np.clongdouble)
    for i in range(N - 2, -1, -1):  # back substitution: upper @ nplus = 1
        nplus_ext[i, :] -= upper[i, i + 1 :] @ nplus_ext[i + 1 :, :]
    glow_ext = nplus_ext @ gext

    stray = float(np.linalg.norm(np.triu(glow_ext, 1).astype(complex), "fro"))
    if stray > RESIDUAL_RTOL * gnorm:
        raise DualityResidualError(f"upper residue {stray:.3e} after elimination")
    nplus = nplus_ext.astype(complex)
    glow = np.tril(glow_ext).astype(complex)
    return nplus, glow


def iwasawa(datum: RootDatum, g):
    """Iwasawa split g = nfactor * afactor * kfactor.

    nfactor is unipotent upper triangular, afactor positive diagonal,
    kfactor unitary; all three inherit group membership from g. Built on
    the RQ decomposition with the diagonal phases pushed into kfactor.
    scipy is imported here, not at module level: no command calls this
    split, and importing scipy.linalg would double every process's start.
    """
    import scipy.linalg

    g = _as_finite(datum, g, "g").astype(complex)
    gnorm = float(np.linalg.norm(g, "fro"))

    R, Q = scipy.linalg.rq(g)
    d = np.diagonal(R).copy()
    if np.min(np.abs(d)) < 1.0e-13 * max(gnorm, 1.0):
        raise SingularMatrixError("matrix numerically singular in the Iwasawa split")
    ph = d / np.abs(d)

    kfactor = ph[:, None] * Q
    a_diag = np.abs(d)
    nfactor = (R * np.conj(ph)[None, :]) / a_diag[None, :]
    np.fill_diagonal(nfactor, 1.0)
    afactor = np.diag(a_diag).astype(complex)

    res = np.linalg.norm(nfactor @ afactor @ kfactor - g, "fro")
    if res > RESIDUAL_RTOL * max(gnorm, 1.0):
        raise SingularMatrixError(f"Iwasawa residual {res:.3e} too large")
    return nfactor, afactor, kfactor


def bottom_row_qr(g, k: int) -> np.ndarray:
    """R of the thin QR of the bottom k rows of g, taken last row first.

    M = g[::-1][:k]^dagger is N x k.  For every j <= k the leading j x j
    block of R is the R factor of M's first j columns under the same row
    order, so the trailing j x j block of g g^dagger has determinant
    prod_{i<j} |R_ii|^2: one QR at k gives every minor up to k.  Rows of M
    spanning many decades are sorted largest modulus first, which keeps
    Householder QR row-wise stable (Cox & Higham 1998); sorting leaves
    M^dagger M = R^dagger R unchanged, so R is M's own factor up to the
    signs of its rows.  A zero R_ii raises SingularMatrixError.
    """
    M = np.asarray(g)[::-1][:k].conj().T
    order = np.argsort(-np.max(np.abs(M), axis=1), kind="stable")
    R = np.linalg.qr(M[order], mode="r")
    if (np.diagonal(R) == 0.0).any():
        raise SingularMatrixError("zero diagonal entry in the bottom-row QR")
    return R
