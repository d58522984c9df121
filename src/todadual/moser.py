"""Moser gauge: diagonal spectral coordinates and lower-triangular group elements.

In this gauge the conserved spectral data sits in a diagonal matrix whose
entries follow the canonical chamber pattern, and the group element g is the
unique lower-triangular solution of the momentum equation

    g Xhat g^{-1} = Xhat + lam,

with lam the principal lowering element.  Row by row this is a triangular
linear recurrence, so g is built directly, no decomposition needed.  The
bottom rows of g coincide (up to fixed column signs absorbed into the weight
vector) with rows of a rational Cauchy-type matrix built from weights b and
nodes x (ruijsenaars_spec_for).  Its minors against the bottom rows factor
in product form (closed_form_minor), and by Cauchy-Binet the sum of their
squares over the column sets of one size is a Hankel determinant of one
positive measure on the nodes, the dual Hamiltonian that goldfish evaluates
by a Lanczos pass.

Its nodes are pattern(qhat) up to a sign.  The chamber factors, the
unit-weight bottom row, the measure's weights and D's fused-root row are
node-gap products too: log_gap_sums reads each as sum_j C_ij log|x_i - x_j|
over a node_tables table.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ChamberError, SingularConfigurationError, ValidationError
from .linalg import bottom_row_qr
from .rootsys import (
    NODE_TOL,
    AlgebraType,
    RootDatum,
    cartan_pattern,
    check_distinct,
    check_index,
    check_shape,
    matrix_size,
    vector_pair,
)

# toda._checked_exp's message for a weight ahat_i = exp(log ahat_i) past the
# float64 range, in both maps that compute ahat (goldfish.a_from_p, duality.toda_to_moser).
AHAT_OVERFLOW = "Moser weight ahat_{i} = exp({e:.6g}) overflows float64"


@dataclass(frozen=True)
class MoserPoint:
    """Spectral chamber coordinates qhat and positive diagonal weights ahat."""

    qhat: np.ndarray
    ahat: np.ndarray

    def __post_init__(self):
        _, ahat = vector_pair(self, "qhat", "ahat")
        if (ahat <= 0.0).any():
            raise ValidationError("ahat entries must be positive")


def check_chamber(datum: RootDatum, qhat: np.ndarray) -> np.ndarray:
    """Validate the open-chamber constraints; return the full diagonal pattern.

    Chamber conditions: A needs qhat strictly decreasing; B and C
    additionally need qhat_n > 0; D needs qhat_1 > .. > qhat_{n-1} >
    |qhat_n| > 0 (the last coordinate may be negative).  The margins are
    the gaps between consecutive nodes of the pattern, so the last one is
    qhat_n (to B's middle node 0), 2 qhat_n for C and 2 |qhat_n| for D (to
    the mirror node).  Ordering violations raise ChamberError; a satisfied
    ordering whose margin falls below NODE_TOL raises
    SingularConfigurationError.
    """
    qhat = np.asarray(qhat, dtype=float)
    x = nodes = cartan_pattern(datum, qhat)
    if datum.algebra.family == "D":
        # qhat_n's sign is free: |qhat_n| sits between qhat_{n-1} and its mirror
        nodes = cartan_pattern(datum, np.concatenate([qhat[:-1], np.abs(qhat[-1:])]))
    margins = nodes[:-1] - nodes[1:]
    if (margins <= 0.0).any():
        raise ChamberError(f"chamber ordering violated: qhat {qhat}")
    if (margins < NODE_TOL).any():
        raise SingularConfigurationError(f"chamber margin below {NODE_TOL:.1e}: qhat {qhat}")
    return x


@dataclass(frozen=True)
class RuijsenaarsMatrixSpec:
    """Weights b and pairwise-distinct nodes x of a rational Cauchy-type matrix.

    The matrix is lower triangular, M[j, j] = b_j, with the column
    recurrence M[i, j] = M[i-1, j] / (x_j - x_i) below the diagonal.
    """

    b: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        b, x = vector_pair(self, "b", "x")
        if b.size == 0:
            raise ValidationError("b and x must be nonempty")
        check_distinct(x, "nodes x")

    @property
    def size(self) -> int:
        return self.b.size


def closed_form_minor(spec: RuijsenaarsMatrixSpec, cols) -> float:
    """Minor of the bottom k rows of the matrix against columns `cols`.

    The product over c in S = cols of b_c / prod_{j > c, j not in S} (x_c - x_j),
    derived by row-reducing the Cauchy-type columns.
    """
    cols = tuple(cols)
    m = spec.size
    if len(cols) == 0 or list(cols) != sorted(set(cols)):
        raise ValidationError(f"cols must be nonempty, sorted, distinct, got {cols}")
    if cols[0] < 0 or cols[-1] >= m:
        raise ValidationError(f"cols out of range 0..{m - 1}: {cols}")
    outside = np.ones(m, dtype=bool)
    outside[list(cols)] = False
    value = 1.0
    for c in cols:
        value *= spec.b[c] / np.prod(spec.x[c] - spec.x[c + 1 :][outside[c + 1 :]])
    return float(value)


def _full_diagonal(datum: RootDatum, ahat: np.ndarray) -> np.ndarray:
    if datum.size == ahat.size:  # family A has no mirrored half
        return ahat.copy()
    return np.concatenate([ahat, np.ones(datum.size - 2 * ahat.size), 1.0 / ahat[::-1]])


def build_moser_g(datum: RootDatum, point: MoserPoint) -> np.ndarray:
    """Solve the momentum equation for the lower-triangular group element.

    The diagonal is prescribed by ahat (mirrored through the form); each
    subdiagonal row follows from g Xhat - Xhat g = lam g, which determines
    g[i, j] = (lam[i, :i] @ g[:i, j]) / (x_j - x_i) strictly below the
    diagonal.  The result lies in the group exactly (up to roundoff) by
    uniqueness of the solution.
    """
    return _moser_g(datum, check_chamber(datum, point.qhat), point.ahat)


def _moser_g(datum: RootDatum, x: np.ndarray, ahat: np.ndarray) -> np.ndarray:
    """build_moser_g's recurrence on a pattern x that check_chamber has already returned."""
    N = datum.size
    g = np.diag(_full_diagonal(datum, ahat))
    lam = datum.momentum
    for i in range(1, N):
        rhs = lam[i, :i] @ g[:i, :i]
        g[i, :i] = rhs / (x[:i] - x[i])
    return g


def momentum_equation_residual(datum: RootDatum, g: np.ndarray, qhat) -> float:
    """Frobenius norm of g Xhat g^{-1} - Xhat - lam for an explicit real lower-triangular g.

    C = g Xhat g^{-1} solves g^T C^T = Xhat g^T, one back substitution
    against the upper-triangular g^T, run in extended precision: g carries
    spectral-gap products on its diagonal, and at rank 5+ the double-
    precision forward error of the solve would drown the quantity being
    measured.  A complex g, or one with an entry above the diagonal,
    raises ValidationError.
    """
    g = np.asarray(g)
    if np.iscomplexobj(g) or np.triu(g, 1).any():
        raise ValidationError("the momentum residual takes a real lower-triangular g")
    x = cartan_pattern(datum, qhat)
    upper = g.T.astype(np.longdouble)
    rhs = upper * x[:, None]
    conj_t = np.zeros_like(rhs)
    for i in range(g.shape[0] - 1, -1, -1):
        conj_t[i] = (rhs[i] - upper[i, i + 1 :] @ conj_t[i + 1 :]) / upper[i, i]
    resid = (conj_t.T - np.diag(x) - datum.momentum).astype(float)
    return float(np.linalg.norm(resid, "fro"))


def moser_momentum_residual(datum: RootDatum, mp: MoserPoint) -> float:
    """Momentum-equation residual of the canonical g built from a point."""
    return momentum_equation_residual(datum, build_moser_g(datum, mp), mp.qhat)


def minor_oracle_mk(datum: RootDatum, g: np.ndarray, k: int) -> np.ndarray:
    """Bottom-right j x j principal minors (m_1, ..., m_k) of g g^dagger, from one QR.

    m_j is the Gram determinant of the bottom j rows of g.  The leading
    j x j block of R from linalg.bottom_row_qr(g, k) is the R factor of
    those j rows under the same row order, so m_j = prod_{i<j} |R_ii|^2 and
    the vector is one cumulative product over R's diagonal; the row-sorted
    QR keeps the digits a double-precision Gram determinant loses.  It
    reads g, which the Lanczos pass behind the dual Hamiltonians never
    builds, so it serves as their independent oracle.
    """
    g = check_shape(datum, g)
    check_index(datum.algebra.rank, k)
    return np.cumprod(np.abs(np.diagonal(bottom_row_qr(g, k))) ** 2)


def ruijsenaars_spec_for(datum: RootDatum, point: MoserPoint) -> RuijsenaarsMatrixSpec:
    """Weights/nodes whose Cauchy-type matrix reproduces the bottom rows of g.

    x = sigma pattern(qhat), b_c = sigma^(n-c) g[c, c] on the first half
    (times -2 qhat_c for D, whose fused root breaks the recurrence one row
    higher) and g[c, c] after it.  The last N - n rows of g (N - n - 1 for
    D) equal those of the spec's Cauchy-type matrix exactly.
    """
    n = datum.algebra.rank
    sigma = node_tables(datum.algebra).sigma
    b = _full_diagonal(datum, point.ahat)
    b[:n] *= sigma ** (n - np.arange(n))
    if datum.algebra.family == "D":
        b[:n] *= -2.0 * point.qhat
    return RuijsenaarsMatrixSpec(b=b, x=sigma * cartan_pattern(datum, point.qhat))


NodeTables = namedtuple("NodeTables", "sigma chamber bottom_row weights fused_row")


@lru_cache(maxsize=None)
def node_tables(algebra: AlgebraType) -> NodeTables:
    """Read-only tables over the diagonal pattern x = datum.pattern @ qhat, built once per algebra.

    The spec nodes are sigma x.  The rest are log_gap_sums tables: the
    chamber factors (sign(j - i)), one row per coordinate; the unit bottom
    row (-1 for j > c) and the goldfish weights (-1/2 for j != c), one row
    per node; all three less D's mirror pairs 2|qhat_c|.  D's fused-root
    row is read against those weights: +1 for j = n - 1 and for the
    mirrors j > n of the nodes c' < n - 1 other than c, on rows c < n - 1;
    +1 for j > n on row n; row n - 1, where the fused row vanishes, is zero
    (no rows for A, B, C).  Each table has one column per node j of the
    N = matrix_size(algebra) nodes.
    """
    n, N = algebra.rank, matrix_size(algebra)
    chamber = np.sign(np.arange(N) - np.arange(n)[:, None]).astype(float)
    bottom_row = np.where(np.arange(N) > np.arange(N)[:, None], -1.0, 0.0)
    weights = -0.5 * (1.0 - np.eye(N))
    fused_row = np.zeros((0, N))
    if algebra.family == "D":
        mirror = (np.arange(n), N - 1 - np.arange(n))
        chamber[mirror] = bottom_row[mirror] = weights[mirror] = weights[mirror[::-1]] = 0.0
        fused_row = np.zeros((n + 1, N))
        fused_row[np.r_[: n - 1, n], n + 1 :] = 1.0
        fused_row[: n - 1, n - 1] = 1.0
        fused_row[mirror[0][: n - 1], mirror[1][: n - 1]] = 0.0
    for table in (chamber, bottom_row, weights, fused_row):
        table.flags.writeable = False
    return NodeTables(1.0 if algebra.family == "A" else -1.0, chamber, bottom_row, weights, fused_row)


def log_gap_sums(x: np.ndarray, table: np.ndarray):
    """sum_j C_ij log|x_i - x_j| per row i of a node_tables table C, and its gradient in x.

    The nodes are pairwise distinct and C_ii = 0; grad[i, m] = d values_i / d x_m.
    """
    diagonal = slice(None, None, x.size + 1)  # entries (i, i) of the (rows, N) gaps
    gaps = x[: table.shape[0], None] - x
    gaps.flat[diagonal] = 1.0
    W = table / gaps
    grad = -W
    grad.flat[diagonal] += W.sum(axis=1)
    return (table * np.log(np.abs(gaps))).sum(axis=1), grad
