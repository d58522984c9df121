"""Moser gauge: diagonal spectral coordinates and lower-triangular group elements.

In this gauge the conserved spectral data sits in a diagonal matrix whose
entries follow the canonical chamber pattern, and the group element g is the
unique lower-triangular solution of the momentum equation

    g Xhat g^{-1} = Xhat + lam,

with lam the principal lowering element.  Row by row this is a triangular
linear recurrence, so g is built directly, no decomposition needed.  The
bottom rows of g coincide (up to fixed column signs absorbed into the weight
vector) with rows of a rational Cauchy-type matrix built from weights b and
nodes x; its maximal minors against the bottom rows factor in closed form,
which is what makes the dual Hamiltonians explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChamberError, SingularConfigurationError, ValidationError
from .linalg import bottom_row_qr, extended_solve
from .rootsys import RootDatum, cartan_pattern

# Nodes closer than this (absolute, inputs O(1)) count as a pole.
POLE_TOL = 1.0e-8


@dataclass(frozen=True)
class MoserPoint:
    """Spectral chamber coordinates qhat and positive diagonal weights ahat."""

    qhat: np.ndarray
    ahat: np.ndarray

    def __post_init__(self):
        qhat = np.asarray(self.qhat, dtype=float)
        ahat = np.asarray(self.ahat, dtype=float)
        object.__setattr__(self, "qhat", qhat)
        object.__setattr__(self, "ahat", ahat)
        if qhat.ndim != 1 or qhat.shape != ahat.shape:
            raise ValidationError(
                f"qhat and ahat must be equal-length vectors, got {qhat.shape} and {ahat.shape}"
            )
        if not (np.all(np.isfinite(qhat)) and np.all(np.isfinite(ahat))):
            raise ValidationError("non-finite coordinates")
        if np.any(ahat <= 0.0):
            raise ValidationError("ahat entries must be positive")


def check_chamber(datum: RootDatum, qhat: np.ndarray) -> np.ndarray:
    """Validate the open-chamber constraints; return the full diagonal pattern.

    Chamber conditions: A needs qhat strictly decreasing; B and C
    additionally need qhat_n > 0; D needs qhat_1 > .. > qhat_{n-1} >
    |qhat_n| > 0 (the last coordinate may be negative).  Ordering
    violations raise ChamberError; a satisfied ordering whose margin falls
    below POLE_TOL raises SingularConfigurationError.
    """
    qhat = np.asarray(qhat, dtype=float)
    n = datum.algebra.rank
    if qhat.shape != (n,):
        raise ValidationError(f"expected {n} chamber coordinates, got {qhat.shape}")
    fam = datum.algebra.family
    if fam == "A":
        margins = qhat[:-1] - qhat[1:]
    elif fam in ("B", "C"):
        margins = np.concatenate([qhat[:-1] - qhat[1:], qhat[-1:]])
    else:  # D
        head = qhat[: n - 1]
        margins = np.concatenate(
            [head[:-1] - head[1:], [head[-1] - abs(qhat[-1]), abs(qhat[-1])]]
        )
    if margins.size and np.any(margins <= 0.0):
        raise ChamberError(f"chamber ordering violated: qhat {qhat}")
    if margins.size and np.any(margins < POLE_TOL):
        raise SingularConfigurationError(f"chamber margin below {POLE_TOL:.1e}: qhat {qhat}")
    return cartan_pattern(datum, qhat)


@dataclass(frozen=True)
class RuijsenaarsMatrixSpec:
    """Weights b and pairwise-distinct nodes x of a rational Cauchy-type matrix."""

    b: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "x", x)
        if b.ndim != 1 or b.shape != x.shape or b.size == 0:
            raise ValidationError(f"b and x must be equal-length vectors, got {b.shape} and {x.shape}")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(x))):
            raise ValidationError("non-finite spec entries")
        diffs = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() <= 1.0e-10:
            raise SingularConfigurationError("nodes x must be pairwise distinct (min gap 1e-10)")

    @property
    def size(self) -> int:
        return self.b.size


def build_ruijsenaars_matrix(spec: RuijsenaarsMatrixSpec) -> np.ndarray:
    """Lower-triangular matrix M with M[j,j] = b_j and column recurrence
    M[i,j] = M[i-1,j] / (x_j - x_i) below the diagonal."""
    b, x = spec.b, spec.x
    m = spec.size
    M = np.zeros((m, m))
    for j in range(m):
        M[j, j] = b[j]
        col = b[j]
        for i in range(j + 1, m):
            col = col / (x[j] - x[i])
            M[i, j] = col
    return M


def signed_log_minors(spec: RuijsenaarsMatrixSpec, masks: np.ndarray):
    """Sign and log-modulus of bottom-row minors, one per 0/1 column mask.

    Row t of `masks` selects a column set S of size k; the minor of the
    bottom k rows of the matrix against S equals
    prod_{c in S} b_c / prod_{c in S} prod_{j > c, j not in S} (x_c - x_j),
    derived by row-reducing the Cauchy-type columns.  Returns (sign, log|minor|).
    """
    S = np.asarray(masks, dtype=float)
    diff = spec.x[:, None] - spec.x[None, :]
    later = np.triu(np.ones(diff.shape, dtype=bool), k=1)  # pairs j > c
    logden = np.log(np.abs(np.where(later, diff, 1.0)))
    flipden = later & (diff < 0.0)
    out = 1.0 - S
    logabs = S @ np.log(np.abs(spec.b)) - ((S @ logden) * out).sum(axis=1)
    flips = S @ (spec.b < 0.0) + ((S @ flipden) * out).sum(axis=1)
    return 1.0 - 2.0 * (np.rint(flips) % 2.0), logabs


def log_minor_gradients(spec: RuijsenaarsMatrixSpec, masks: np.ndarray) -> np.ndarray:
    """Exact d log|minor| / d(log|b|, x) of signed_log_minors, one row per mask.

    The first spec.size columns are the mask itself (d/d log|b_c| = S_c);
    the rest are d/dx_m = -S_m sum_{j>m} (1-S_j)/(x_m-x_j)
    + (1-S_m) sum_{c<m} S_c/(x_c-x_m).
    """
    S = np.asarray(masks, dtype=float)
    diff = spec.x[:, None] - spec.x[None, :]
    later = np.triu(np.ones(diff.shape, dtype=bool), k=1)  # pairs j > c
    U = np.where(later, 1.0 / np.where(later, diff, 1.0), 0.0)
    out = 1.0 - S
    return np.hstack([S, out * (S @ U) - S * (out @ U.T)])


def closed_form_minor(spec: RuijsenaarsMatrixSpec, cols) -> float:
    """Minor of the bottom k rows of the matrix against columns `cols`."""
    cols = tuple(cols)
    m = spec.size
    if len(cols) == 0 or list(cols) != sorted(set(cols)):
        raise ValidationError(f"cols must be nonempty, sorted, distinct, got {cols}")
    if cols[0] < 0 or cols[-1] >= m:
        raise ValidationError(f"cols out of range 0..{m - 1}: {cols}")
    mask = np.zeros((1, m))
    mask[0, list(cols)] = 1.0
    sign, logabs = signed_log_minors(spec, mask)
    return float(sign[0] * np.exp(logabs[0]))


def _full_diagonal(datum: RootDatum, ahat: np.ndarray) -> np.ndarray:
    fam = datum.algebra.family
    if fam == "A":
        return ahat.copy()
    inv_rev = 1.0 / ahat[::-1]
    if fam == "B":
        return np.concatenate([ahat, [1.0], inv_rev])
    return np.concatenate([ahat, inv_rev])


def build_moser_g(datum: RootDatum, point: MoserPoint) -> np.ndarray:
    """Solve the momentum equation for the lower-triangular group element.

    The diagonal is prescribed by ahat (mirrored through the form); each
    subdiagonal row follows from g Xhat - Xhat g = lam g, which determines
    g[i, j] = (lam[i, :i] @ g[:i, j]) / (x_j - x_i) strictly below the
    diagonal.  The result lies in the group exactly (up to roundoff) by
    uniqueness of the solution.
    """
    qhat = np.asarray(point.qhat, dtype=float)
    if qhat.shape != (datum.algebra.rank,):
        raise ValidationError(
            f"point rank {qhat.shape} does not match algebra rank {datum.algebra.rank}"
        )
    x = check_chamber(datum, qhat)
    N = datum.size
    g = np.diag(_full_diagonal(datum, point.ahat))
    lam = datum.momentum
    for i in range(1, N):
        rhs = lam[i, :i] @ g[:i, :i]
        g[i, :i] = rhs / (x[:i] - x[i])
    return g


def momentum_equation_residual(datum: RootDatum, g: np.ndarray, qhat) -> float:
    """Frobenius norm of g Xhat g^{-1} - Xhat - lam for an explicit g.

    The conjugation is evaluated in extended precision: g carries spectral-
    gap products on its diagonal, and at rank 5+ the double-precision
    forward error of the solve would drown the quantity being measured.
    """
    x = cartan_pattern(datum, np.asarray(qhat, dtype=float))
    gext = np.asarray(g, dtype=complex).astype(np.clongdouble)
    Xhat = np.diag(x).astype(np.clongdouble)
    conj = extended_solve(gext.T, (gext @ Xhat).T).T
    resid = (conj - Xhat - datum.momentum).astype(complex)
    return float(np.linalg.norm(resid, "fro"))


def moser_momentum_residual(datum: RootDatum, mp: MoserPoint) -> float:
    """Momentum-equation residual of the canonical g built from a point."""
    return momentum_equation_residual(datum, build_moser_g(datum, mp), mp.qhat)


def minor_oracle_mk(datum: RootDatum, g: np.ndarray, k: int) -> float:
    """Bottom-right k x k principal minor of g g^dagger, from a QR.

    The minor is the Gram determinant of the bottom k rows of g, which is
    prod |R_ii|^2 of linalg.bottom_row_qr; the row-sorted QR keeps the
    digits a double-precision Gram determinant loses.  It shares no code
    with the product-form minors behind the closed-form dual Hamiltonians,
    so it serves as their independent oracle.
    """
    g = np.asarray(g)
    N = datum.size
    if g.shape != (N, N):
        raise ValidationError(f"expected shape {(N, N)}, got {g.shape}")
    if not 1 <= k <= datum.algebra.rank:
        raise ValidationError(f"k must lie in 1..{datum.algebra.rank}, got {k}")
    return float(np.prod(bottom_row_qr(g, k)[1] ** 2))


def ruijsenaars_spec_for(datum: RootDatum, point: MoserPoint):
    """Weights/nodes whose Cauchy-type matrix reproduces the bottom rows of g.

    Returns (spec, row_offset): rows row_offset..N-1 of build_moser_g(point)
    equal the same rows of build_ruijsenaars_matrix(spec).  The signs of the
    first-half weights alternate; the correspondence is exact, not just up
    to modulus.  For family D only the bottom n-1 rows match (the fused last
    root breaks the single-term recurrence one row higher).
    """
    fam, n = datum.algebra.family, datum.algebra.rank
    qh = np.asarray(point.qhat, dtype=float)
    ah = np.asarray(point.ahat, dtype=float)
    if fam == "A":
        return RuijsenaarsMatrixSpec(b=ah, x=qh), 0
    inv_rev = 1.0 / ah[::-1]
    jj = np.arange(n)
    if fam == "B":
        first = ((-1.0) ** (n - jj)) * ah
        b = np.concatenate([first, [1.0], inv_rev])
        x = np.concatenate([-qh, [0.0], qh[::-1]])
        return RuijsenaarsMatrixSpec(b=b, x=x), n + 1
    if fam == "C":
        first = ((-1.0) ** (n - jj)) * ah
        b = np.concatenate([first, inv_rev])
        x = np.concatenate([-qh, qh[::-1]])
        return RuijsenaarsMatrixSpec(b=b, x=x), n
    # D: weights pick up the 2*qhat factor from the two-term row
    first = ((-1.0) ** (n - 1 - jj)) * 2.0 * qh * ah
    b = np.concatenate([first, inv_rev])
    x = np.concatenate([-qh, qh[::-1]])
    return RuijsenaarsMatrixSpec(b=b, x=x), n + 1
