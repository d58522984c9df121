"""Root-space data for the classical matrix Lie algebras gl(n), so(2n+1), sp(2n), so(2n).

Everything downstream (Lax matrices, momentum equations, lower-triangular
group factorizations) is phrased against one explicit realization per
family, stated as a bilinear form Omega plus the positions of the simple
roots:

* A: gl(n, C), no constraint: Omega = 0.
* B: so(2n+1, C) preserving the antidiagonal form Omega = sum_i E[N-1-i, i].
* C: sp(2n, C) preserving Omega = sum_{i<n} (E[i, 2n-1-i] - E[2n-1-i, i]).
* D: so(2n, C), antidiagonal form as in B.

X belongs to the algebra iff X Omega + Omega X^T = 0, and g belongs to the
group iff g Omega g^T = Omega; both hold for every matrix when Omega = 0.
Every generator is the projection G = E - Omega E^T Omega^T of one matrix
unit E, scaled to unit entries: h_i from E[i, i], the short roots from
E[i, i+1], and the last root of B/C from E[n-1, n] (C's long root is its
own mirror, so the projection doubles it) and of D from E[n-1, n+1].  The
Cartan generators are diagonal, the simple-root vectors are signed sums of
at most two matrix units, and the principal lowering element (the sum of
all simple lowering vectors) is strictly lower triangular in this basis.
All entries are exact small integers stored in float64.
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
        Invariant bilinear form; 0 for family A, which has no constraint.
    cartan : ndarray (rank, N, N)
        Diagonal Cartan generators h_1..h_n.
    pattern : ndarray (N, rank)
        Column i is the diagonal of h_i, so the diagonal of sum_i v_i h_i
        is pattern @ v; entries are 0 and +-1.
    raising, lowering : ndarray (num_roots, N, N)
        Simple root vectors e_alpha and e_{-alpha} = e_alpha^T, in the
        simple-root order.
    lax_basis : ndarray (rank + num_roots, N * N)
        The flattened symmetric generators of the Lax matrix: rows h_1..h_n,
        then e_alpha + e_{-alpha} per simple root.  X = sum_i p_i h_i +
        sum_alpha w_alpha (e_alpha + e_{-alpha}) is [p, w] @ lax_basis, and
        since every row is symmetric, lax_basis @ vec(G) holds the traces
        Tr(G h_i) and Tr(G (e_alpha + e_{-alpha})).
    lax_gram : ndarray (rank + num_roots, rank + num_roots)
        lax_basis @ lax_basis.T, diagonal because the generators are
        orthogonal: the traces against X itself are lax_gram @ [p, w].
    momentum : ndarray (N, N)
        Sum of the lowering vectors; strictly lower triangular.
    alpha_coeffs : ndarray (num_roots, rank)
        Row i holds the coefficients of the simple root alpha_i in the
        orthogonal coordinates, so (alpha_i, q) = alpha_coeffs[i] @ q.  For
        e_alpha supported at (r, c) it is pattern[r] - pattern[c].
    """

    algebra: AlgebraType
    size: int
    omega: np.ndarray
    cartan: np.ndarray
    pattern: np.ndarray
    raising: np.ndarray
    lowering: np.ndarray
    lax_basis: np.ndarray
    lax_gram: np.ndarray
    momentum: np.ndarray
    alpha_coeffs: np.ndarray

    @property
    def num_roots(self) -> int:
        return self.raising.shape[0]


def build_root_datum(algebra: AlgebraType) -> RootDatum:
    """Construct the explicit root-space matrices for one algebra.

    Index conventions are 0-based; the mirror of index i is N-1-i.  Each
    generator is G = E - Omega E^T Omega^T of a matrix unit E, scaled to
    unit entries.
    """
    fam, n = algebra.family, algebra.rank
    N = matrix_size(algebra)
    index = np.arange(N)
    omega = np.zeros((N, N))
    # matrix units: h_i at (i, i), then the simple roots in order
    units = [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
    if fam != "A":
        # C's -1 entries are written directly: negating a block would leave -0.0 entries
        omega[index, index[::-1]] = np.where(index < n, 1.0, -1.0) if fam == "C" else 1.0
        units.append((n - 1, n + 1 if fam == "D" else n))
    rows, cols = np.array(units).T
    E = np.zeros((len(units), N, N))
    E[np.arange(len(units)), rows, cols] = 1.0
    G = E - omega @ E.transpose(0, 2, 1) @ omega.T
    G /= np.abs(G).max(axis=(1, 2), keepdims=True)

    cartan, raising = G[:n], G[n:]
    lowering = raising.transpose(0, 2, 1).copy()
    pattern = np.diagonal(cartan, axis1=1, axis2=2).T.copy()
    lax_basis = np.concatenate([cartan, raising + lowering]).reshape(-1, N * N)

    return RootDatum(
        algebra=algebra,
        size=N,
        omega=omega,
        cartan=cartan,
        pattern=pattern,
        raising=raising,
        lowering=lowering,
        lax_basis=lax_basis,
        lax_gram=lax_basis @ lax_basis.T,
        momentum=lowering.sum(axis=0),
        alpha_coeffs=pattern[rows[n:]] - pattern[cols[n:]],
    )


def algebra_residual(datum: RootDatum, M: np.ndarray) -> float:
    """Frobenius norm of X Omega + Omega X^T (exactly 0.0 for family A, whose Omega is 0)."""
    M = np.asarray(M)
    if M.shape != (datum.size, datum.size):
        raise ValidationError(f"expected shape {(datum.size, datum.size)}, got {M.shape}")
    return float(np.linalg.norm(M @ datum.omega + datum.omega @ M.T, "fro"))


def group_residual(datum: RootDatum, g: np.ndarray) -> float:
    """Frobenius norm of g Omega g^T - Omega (exactly 0.0 for family A, whose Omega is 0)."""
    g = np.asarray(g)
    if g.shape != (datum.size, datum.size):
        raise ValidationError(f"expected shape {(datum.size, datum.size)}, got {g.shape}")
    return float(np.linalg.norm(g @ datum.omega @ g.T - datum.omega, "fro"))


def vector_pair(point, first: str, second: str):
    """Store a frozen point's fields first and second as float arrays and return them.

    Raises ValidationError unless both are equal-length vectors of finite
    entries; the Toda, Moser and goldfish point types share this rule.
    """
    a = np.asarray(getattr(point, first), dtype=float)
    b = np.asarray(getattr(point, second), dtype=float)
    object.__setattr__(point, first, a)
    object.__setattr__(point, second, b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValidationError(f"{first} and {second} must be equal-length vectors, got {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("non-finite coordinates")
    return a, b


def check_index(n: int, k: int) -> None:
    """ValidationError unless the Hamiltonian index k lies in 1..n."""
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")


def cartan_pattern(datum: RootDatum, values: np.ndarray) -> np.ndarray:
    """Diagonal of sum_i values[i] * h_i as a length-N vector: datum.pattern @ values.

    A: (v_1..v_n); C/D: (v_1..v_n, -v_n..-v_1); B additionally has a middle 0.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (datum.algebra.rank,):
        raise ValidationError(f"expected {datum.algebra.rank} values, got shape {v.shape}")
    return datum.pattern @ v
