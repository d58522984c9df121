"""Root-space data for the classical matrix Lie algebras gl(n), so(2n+1), sp(2n), so(2n).

Everything downstream (Lax matrices, momentum equations, lower-triangular
group factorizations) is phrased against one explicit realization per family:

* A: gl(n, C), no bilinear form (the form slot holds an identity placeholder).
* B: so(2n+1, C) preserving the antidiagonal form Omega = sum_i E[N-1-i, i].
* C: sp(2n, C) preserving Omega = sum_{i<n} (E[i, 2n-1-i] - E[2n-1-i, i]).
* D: so(2n, C), antidiagonal form as in B.

For B/C/D a matrix X belongs to the algebra iff X Omega + Omega X^T = 0, and
g belongs to the group iff g Omega g^T = Omega.  The Cartan generators are
supported on the diagonal, the simple-root vectors are signed sums of at most
two elementary matrices, and the principal lowering element (the sum of all
simple lowering vectors) is strictly lower triangular in this basis.  All
entries are exact small integers stored in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class AlgebraType:
    """A classical family label together with its rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not isinstance(self.rank, (int, np.integer)) or isinstance(self.rank, bool):
            raise ValidationError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if self.family == "D" and self.rank < 2:
            raise ValidationError("family D needs rank >= 2")


def matrix_size(algebra: AlgebraType) -> int:
    """Size N of the defining representation."""
    n = algebra.rank
    if algebra.family == "A":
        return n
    if algebra.family == "B":
        return 2 * n + 1
    return 2 * n


@dataclass(frozen=True)
class RootDatum:
    """Concrete matrices realizing the root-space decomposition.

    Attributes
    ----------
    algebra : AlgebraType
    size : int
        Matrix size N.
    omega : ndarray (N, N)
        Invariant bilinear form (identity placeholder for family A).
    cartan : ndarray (rank, N, N)
        Diagonal Cartan generators h_1..h_n.
    raising, lowering : ndarray (num_roots, N, N)
        Simple root vectors e_alpha and e_{-alpha}, in the simple-root order.
    cartan_rows : ndarray (rank, N)
        Row i is the diagonal of h_i, so sum_i v_i h_i has diagonal
        v @ cartan_rows.
    root_flat, root_flat_t, root_index : ndarray (m,) of int
        Index tables of the m nonzero entries of the symmetric combinations
        e_alpha + e_{-alpha}: entry (i, j) of root root_index sits at flat
        position root_flat = i * N + j, its transpose at root_flat_t =
        j * N + i.  The scatter kernel toda._lax builds the Lax matrix by
        writing the root weights to root_flat; the exact gradient gathers
        G at root_flat_t.
    root_sign : ndarray (m,)
        The +/-1 value of each such entry.
    momentum : ndarray (N, N)
        Sum of the lowering vectors; strictly lower triangular.
    alpha_coeffs : ndarray (num_roots, rank)
        Row i holds the coefficients of the simple root alpha_i in the
        orthogonal coordinates, so (alpha_i, q) = alpha_coeffs[i] @ q.
    """

    algebra: AlgebraType
    size: int
    omega: np.ndarray
    cartan: np.ndarray
    raising: np.ndarray
    lowering: np.ndarray
    cartan_rows: np.ndarray
    root_flat: np.ndarray
    root_flat_t: np.ndarray
    root_index: np.ndarray
    root_sign: np.ndarray
    momentum: np.ndarray
    alpha_coeffs: np.ndarray

    @property
    def num_roots(self) -> int:
        return self.raising.shape[0]


def _unit(N: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((N, N))
    out[i, j] = 1.0
    return out


def build_root_datum(algebra: AlgebraType) -> RootDatum:
    """Construct the explicit root-space matrices for one algebra.

    Index conventions below are 0-based; the mirror of index i is N-1-i.
    """
    fam, n = algebra.family, algebra.rank
    N = matrix_size(algebra)
    mir = lambda i: N - 1 - i  # noqa: E731

    if fam == "A":
        omega = np.eye(N)
    elif fam == "C":
        omega = np.zeros((N, N))
        for i in range(n):
            omega[i, mir(i)] = 1.0
            omega[mir(i), i] = -1.0
    else:  # B, D: antidiagonal symmetric form
        omega = np.zeros((N, N))
        for i in range(N):
            omega[i, mir(i)] = 1.0

    cartan = np.zeros((n, N, N))
    for i in range(n):
        cartan[i, i, i] = 1.0
        if fam != "A":
            cartan[i, mir(i), mir(i)] = -1.0

    raising, lowering, coeffs = [], [], []

    def short_pair(i):
        # alpha_i = e_i - e_{i+1}; mirrored pair keeps X Omega + Omega X^T = 0.
        up = _unit(N, i, i + 1) - _unit(N, mir(i + 1), mir(i))
        c = np.zeros(n)
        c[i], c[i + 1] = 1.0, -1.0
        return up, c

    if fam == "A":
        for i in range(n - 1):
            up = _unit(N, i, i + 1)
            c = np.zeros(n)
            c[i], c[i + 1] = 1.0, -1.0
            raising.append(up)
            lowering.append(up.T)
            coeffs.append(c)
    else:
        for i in range(n - 1):
            up, c = short_pair(i)
            raising.append(up)
            lowering.append(up.T)
            coeffs.append(c)
        if fam == "B":
            # last root e_n: relative sign keeps the membership relation.
            up = _unit(N, n - 1, n) - _unit(N, n, n + 1)
            c = np.zeros(n)
            c[n - 1] = 1.0
        elif fam == "C":
            # long root 2 e_n
            up = _unit(N, n - 1, n)
            c = np.zeros(n)
            c[n - 1] = 2.0
        else:  # D: last root e_{n-1} + e_n
            up = _unit(N, n - 1, n + 1) - _unit(N, n - 2, n)
            c = np.zeros(n)
            c[n - 2] = 1.0
            c[n - 1] = 1.0
        raising.append(up)
        lowering.append(up.T)
        coeffs.append(c)

    raising = np.stack(raising) if raising else np.zeros((0, N, N))
    lowering = np.stack(lowering) if lowering else np.zeros((0, N, N))
    coeffs = np.stack(coeffs) if coeffs else np.zeros((0, n))
    momentum = lowering.sum(axis=0) if len(lowering) else np.zeros((N, N))
    root_sums = raising + lowering
    root_index, rows, cols = np.nonzero(root_sums)

    return RootDatum(
        algebra=algebra,
        size=N,
        omega=omega,
        cartan=cartan,
        raising=raising,
        lowering=lowering,
        cartan_rows=np.diagonal(cartan, axis1=1, axis2=2).copy(),
        root_flat=rows * N + cols,
        root_flat_t=cols * N + rows,
        root_index=root_index,
        root_sign=root_sums[root_index, rows, cols],
        momentum=momentum,
        alpha_coeffs=coeffs,
    )


def project_lower_nilpotent(M: np.ndarray) -> np.ndarray:
    """Strictly lower triangular part of M."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {M.shape}")
    return np.tril(M, -1)


def algebra_residual(datum: RootDatum, M: np.ndarray) -> float:
    """Frobenius norm of X Omega + Omega X^T (exactly 0.0 for family A)."""
    M = np.asarray(M)
    if M.shape != (datum.size, datum.size):
        raise ValidationError(f"expected shape {(datum.size, datum.size)}, got {M.shape}")
    if datum.algebra.family == "A":
        return 0.0
    return float(np.linalg.norm(M @ datum.omega + datum.omega @ M.T, "fro"))


def group_residual(datum: RootDatum, g: np.ndarray) -> float:
    """Frobenius norm of g Omega g^T - Omega (exactly 0.0 for family A)."""
    g = np.asarray(g)
    if g.shape != (datum.size, datum.size):
        raise ValidationError(f"expected shape {(datum.size, datum.size)}, got {g.shape}")
    if datum.algebra.family == "A":
        return 0.0
    return float(np.linalg.norm(g @ datum.omega @ g.T - datum.omega, "fro"))


def cartan_pattern(datum: RootDatum, values: np.ndarray) -> np.ndarray:
    """Diagonal of sum_i values[i] * h_i as a length-N vector.

    A: (v_1..v_n); C/D: (v_1..v_n, -v_n..-v_1); B additionally has a middle 0.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (datum.algebra.rank,):
        raise ValidationError(f"expected {datum.algebra.rank} values, got shape {v.shape}")
    fam = datum.algebra.family
    if fam == "A":
        return v.copy()
    if fam == "B":
        return np.concatenate([v, [0.0], -v[::-1]])
    return np.concatenate([v, -v[::-1]])
