"""Rational goldfish models dual to the open Toda chains.

Phase space is the open chamber in (qhat, phat).  The positive weights ahat
and the momenta are related by a canonical change of variables whose
chamber factor F_i is a product of gaps of the diagonal pattern x (one
moser.log_gap_sums row) that stays positive on the whole chamber;
ahat_i = exp(phat_i) sqrt(F_i), from one chamber evaluation per call
(_half_log_factors).

The dual Hamiltonian H-hat_k is the bottom-right k x k principal minor of
g g^dagger for the lower-triangular momentum-equation solution g.  By the
Cauchy-Binet theorem it is the sum over column sets S of the squared k x k
minors of the bottom k rows of g, and those minors factor in product form
(moser.closed_form_minor), so the sum is Heine's Hankel determinant
det[sum_c u_c^2 x_c^(i+j)]_{i,j<k} of the positive measure
sum_c u_c^2 delta_{x_c}, with u the moduli of the bottom row of g:
u_c^2 = exp(2 pattern(phat)_c) / prod_j |x_c - x_j| over the nodes j != c
(less D's mirror node).  One Lanczos pass on diag(x) from u gives every
H-hat_k as a product of orthogonal-polynomial norms (_heine_pass), with no
g built and no subsets enumerated.  Family D's bottom n rows start with the
fused-root row, so the pass's last step starts from that row: H-hat_n is
H-hat_{n-1} times its squared distance from the span of the n-1 Lanczos
vectors before it.  goldfish_gradients differentiates the pass exactly
in closed form.  The pass is the inverse duality map too (duality), which
has its own forward-mode tangent.

The values are verified against an independent minor oracle,
moser.minor_oracle_mk (every Gram minor of the bottom rows of g from one
QR of those rows), in the tests and in `todadual verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .moser import AHAT_OVERFLOW, MoserPoint, check_chamber, log_gap_sums, node_tables
from .rootsys import RootDatum, check_distinct, check_index, check_rank, vector_pair
from .toda import _checked_exp

# _checked_exp's message for an H-hat_k = exp(log H-hat_k) past the float64 range.
_HHAT_OVERFLOW = "dual Hamiltonian H-hat_{i}, a sum of squared minors, overflows float64"


@dataclass(frozen=True)
class GoldfishPoint:
    """Chamber coordinates qhat and conjugate momenta phat."""

    qhat: np.ndarray
    phat: np.ndarray

    def __post_init__(self):
        vector_pair(self, "qhat", "phat")


@dataclass(frozen=True)
class RSCoupling:
    """Positive coupling of the rational Ruijsenaars-Schneider model."""

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        object.__setattr__(self, "nu", nu)
        if not np.isfinite(nu) or nu <= 0.0:
            raise ValidationError(f"coupling must be positive and finite, got {nu}")


def _half_log_factors(datum: RootDatum, qhat: np.ndarray):
    """The one chamber evaluation: pattern x and log F / 2 (finite where F is not)."""
    x = check_chamber(datum, qhat)
    return x, 0.5 * log_gap_sums(x, node_tables(datum.algebra).chamber)[0]


def _moser_point(datum: RootDatum, point: GoldfishPoint):
    """(a_from_p(point), x) from one chamber evaluation."""
    x, half_log_F = _half_log_factors(datum, point.qhat)
    ahat = _checked_exp(point.phat + half_log_F, AHAT_OVERFLOW)
    return MoserPoint(qhat=point.qhat, ahat=ahat), x


def a_from_p(datum: RootDatum, point: GoldfishPoint) -> MoserPoint:
    """Canonical map from goldfish momenta to positive diagonal weights."""
    return _moser_point(datum, point)[0]


def p_from_a(datum: RootDatum, point: MoserPoint) -> GoldfishPoint:
    """Inverse of a_from_p."""
    return GoldfishPoint(qhat=point.qhat, phat=np.log(point.ahat) - _half_log_factors(datum, point.qhat)[1])


@lru_cache(maxsize=None)
def _subset_masks(n: int, k: int) -> np.ndarray:
    """(num_subsets, n) 0/1 rows, one per size-k subset of range(n)."""
    combos = list(itertools.combinations(range(n), k))
    mask = np.zeros((len(combos), n))
    for t, I in enumerate(combos):
        mask[t, list(I)] = 1.0
    return mask


def _residual(Q: np.ndarray, w: np.ndarray):
    """(w less its projection on the orthonormal columns of Q, the residual's norm).

    The projection repeats until a sweep no longer shrinks w by 1/sqrt(2):
    twice when nodes and weights are of one scale, more while rounding noise
    on the heavy nodes still hides a residual carried by far lighter ones.
    Norms are hypot reductions, so squares of tiny entries do not underflow.
    """
    norm = np.hypot.reduce(w)
    while True:
        w = w - Q @ (Q.T @ w)
        before, norm = norm, np.hypot.reduce(w)
        if not 0.0 < norm < np.sqrt(0.5) * before:
            return w, norm


def _heine_pass(datum: RootDatum, point: GoldfishPoint):
    """One Lanczos pass on the Moser measure for k = 1..n: (log_norm, alpha, Q, beta, x, gaps_grad, fused).

    log u = pattern(phat) + the weights row of log_gap_sums (x-gradient
    gaps_grad).  Lanczos on diag(x) from u, in units of max(u) and
    reorthogonalised every step (_residual), gives the monic orthogonal
    polynomials pi_i of sum_c u_c^2 delta_{x_c}: log_norm_i = log||pi_i||,
    and log H-hat_k = 2 sum_{i<k} log_norm_i.  Q holds the n Lanczos vectors,
    beta the residual norms that normalise them, alpha_i = Q_i^T diag(x) Q_i.
    D's last step m = n - 1 starts from the fused-root row f (u times the
    fused_row gaps, in units of its max), not x Q_{m-1}; fused = (f, f's
    x-gradient), and log_norm_m = log max(f) + log beta_m.  A vanishing
    residual (weights not yet spanned underflow next to max(u)) leaves
    beta_i = 0 and H-hat_k = 0.
    """
    n, N = datum.algebra.rank, datum.size
    tables = node_tables(datum.algebra)
    x = check_chamber(datum, point.qhat)
    log_gaps, gaps_grad = log_gap_sums(x, tables.weights)
    log_u = datum.pattern @ point.phat + log_gaps
    m = n - (tables.fused_row.size > 0)  # only D has a fused-root row
    Q, alpha, beta, fused = np.zeros((N, n)), np.zeros(n), np.zeros(n), None
    if m < n:
        f_gaps, f_grad = log_gap_sums(x, tables.fused_row)
        support = np.flatnonzero(tables.fused_row.any(axis=1))
        log_f = log_u[support] + f_gaps[support]
        f = np.zeros(N)
        f[support] = np.exp(log_f - log_f.max())
        fused = f, f_grad
    w = np.exp(log_u - log_u.max())
    for i in range(n):
        if i == m:
            w = f
        elif i:
            w = x * Q[:, i - 1]
        w, beta[i] = _residual(Q[:, :i], w)
        if beta[i]:
            Q[:, i] = w / beta[i]
            alpha[i] = Q[:, i] @ (x * Q[:, i])
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta)
    log_norm = log_u.max() + np.cumsum(log_beta[:m])
    if fused:
        log_norm = np.append(log_norm, log_f.max() + log_beta[m])
    return log_norm, alpha, Q, beta, x, gaps_grad, fused


def goldfish_hamiltonians(datum: RootDatum, point: GoldfishPoint) -> np.ndarray:
    """Dual Hamiltonians (H-hat_1, ..., H-hat_n) = m_k(g g^dagger), n the rank.

    One Lanczos pass on the Moser measure (_heine_pass).  A value past the
    float64 range raises ValidationError naming it.
    """
    return _checked_exp(2.0 * np.cumsum(_heine_pass(datum, point)[0]), _HHAT_OVERFLOW)


def goldfish_hamiltonian(datum: RootDatum, point: GoldfishPoint, k: int) -> float:
    """Single dual Hamiltonian H-hat_k."""
    check_index(datum.algebra.rank, k)
    return float(goldfish_hamiltonians(datum, point)[k - 1])


def goldfish_gradients(datum: RootDatum, point: GoldfishPoint) -> np.ndarray:
    """Exact gradients of (H-hat_1, ..., H-hat_n): row k-1 is dH-hat_k in (phat, qhat) order.

    The pass of goldfish_hamiltonians, differentiated in closed form through
    log u and x = pattern(qhat): with Q' the x-derivatives of the Lanczos
    vectors at fixed u, beta_{i+1} Q'_{i+1} = Q_i + (x - alpha_i) Q'_i -
    beta_i Q'_{i-1}, d log H-hat_k = 2 sum_{i<k} (Q_ci^2 d log u_c + Q_ci Q'_ci dx_c).
    D's last step m starts from f, so R = beta_m Q_m moves by d||R||^2 =
    2 sum_c R_c (R_c d log u_c + f_c d log(f_c / u_c) - (Q' Q^T f)_c dx_c),
    Q and Q' over the steps before m; that dx coefficient is column m of Q Q'.
    """
    log_norm, alpha, Q, beta, x, gaps_grad, fused = _heine_pass(datum, point)
    P, (N, n) = datum.pattern, Q.shape
    m = n - (fused is not None)  # the step of D's fused-root row, if any
    dQ = np.zeros((N, n))
    for i in range(1, m):
        if not beta[i]:
            break
        back = beta[i - 1] * dQ[:, i - 2] if i > 1 else 0.0
        dQ[:, i] = (Q[:, i - 1] + (x - alpha[i - 1]) * dQ[:, i - 1] - back) / beta[i]
    QdQ = Q * dQ
    if fused:
        (f, f_grad), r = fused, Q[:, m]
        QdQ[:, m] = ((r * f)[: f_grad.shape[0]] @ f_grad - r * (dQ[:, :m] @ (Q[:, :m].T @ f))) / beta[m]
    # coefficients of d log u and dx in each d log H-hat_k
    cu = 2.0 * np.cumsum(Q**2, axis=1).T
    cx = 2.0 * np.cumsum(QdQ, axis=1).T
    dlog_h = np.hstack([cu @ P, (cu @ gaps_grad + cx) @ P])
    return _checked_exp(2.0 * np.cumsum(log_norm), _HHAT_OVERFLOW)[:, None] * dlog_h


def _cross_products(F: np.ndarray, k: int):
    """(masks, sign, log|prod_{i in S, j not in S} F[i, j]|) over the k-subsets S.

    A product with a zero factor has log-modulus -inf; the diagonal of F
    never enters a product but must be finite.
    """
    S = _subset_masks(F.shape[0], k)
    out = 1.0 - S
    zero = F == 0.0
    logabs = ((S @ np.log(np.where(zero, 1.0, np.abs(F)))) * out).sum(axis=1)
    logabs[((S @ zero) * out).sum(axis=1) > 0.0] = -np.inf
    flips = ((S @ (F < 0.0)) * out).sum(axis=1)
    return S, 1.0 - 2.0 * (np.rint(flips) % 2.0), logabs


def goldfish_hamiltonian_signed_A(point: GoldfishPoint, k: int) -> float:
    """Family-A dual Hamiltonian with signed denominators (no modulus).

    This is the strong-coupling limit of the rational Ruijsenaars-Schneider
    Hamiltonians; it agrees with the modulus form only on the chamber
    closure where all selected differences are positive.
    """
    q, p = point.qhat, point.phat
    n = q.size
    check_index(n, k)
    check_distinct(q, "coordinates qhat")
    S, sign, logabs = _cross_products(q[:, None] - q[None, :] + np.eye(n), k)
    return float(np.sum(sign * np.exp(2.0 * (S @ p) - logabs)))


def rs_hamiltonian_A(point: GoldfishPoint, coupling: RSCoupling, k: int) -> float:
    """Rational Ruijsenaars-Schneider Hamiltonian of the A family.

    H_k = sum_{|I|=k} prod_{i in I, j notin I} (q_i - q_j + nu)/(q_i - q_j)
          * exp(2 sum_I p).  At k = n the product is empty, so the value is
    exp(2 sum p) independently of the coupling.
    """
    q, p = point.qhat, point.phat
    n = q.size
    check_index(n, k)
    check_distinct(q, "coordinates qhat")
    diff = q[:, None] - q[None, :] + np.eye(n)
    S, sign, logabs = _cross_products((diff + coupling.nu) / diff, k)
    return float(np.sum(sign * np.exp(2.0 * (S @ p) + logabs)))


def d_h1_pairsum_variant(datum: RootDatum, point: GoldfishPoint) -> float:
    """Sum-over-pairs variant of the family-D first invariant.

    Replaces the product over k != i of |q_i^2 - q_k^2|^{-1} by the sum of
    the same reciprocals.  It disagrees with the determinant oracle; it is
    kept so verification reports can quantify the discrepancy.  A point of
    another rank raises ValidationError, and moduli |qhat_i| closer than
    NODE_TOL, which would zero a denominator, SingularConfigurationError.
    """
    if datum.algebra.family != "D":
        raise ValidationError("variant defined for family D only")
    q, p = point.qhat, point.phat
    check_rank(datum, q)
    check_distinct(np.abs(q), "moduli |qhat|")
    n = q.size
    total = 0.0
    for i in range(n):
        coeff = sum(1.0 / abs(q[i] ** 2 - q[k] ** 2) for k in range(n) if k != i)
        total += (np.exp(2.0 * p[i]) + np.exp(-2.0 * p[i])) * coeff
    return float(total)
