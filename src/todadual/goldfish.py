"""Rational goldfish models dual to the open Toda chains.

Phase space is the open chamber in (qhat, phat).  The positive weights ahat
and the momenta are related by a canonical change of variables whose
chamber factor F_i is a product of gaps of the diagonal pattern x (one
moser.log_gap_sums row) that stays positive on the whole chamber;
ahat_i = exp(phat_i) sqrt(F_i).  One chamber evaluation per call,
_half_log_factors, gives x, log F / 2 and its qhat-derivative to the maps,
the minor engine and both Jacobians (here and in duality).

The dual Hamiltonian H-hat_k is the bottom-right k x k principal minor of
g g^dagger for the lower-triangular momentum-equation solution g.  By the
Cauchy-Binet theorem it is the sum over column sets S of the squared k x k
minors of the bottom k rows of g.  Those rows are rows of the Cauchy-type
matrix of moser.ruijsenaars_spec_for, whose minors factor in product form
(moser.signed_log_minors), so every H-hat_k of every family is one masked
sum over the subsets of the columns.  The only exception is the top
invariant of family D, whose bottom n rows start with the fused-root row;
each maximal minor there is a Laplace expansion along that row against the
product-form (n-1)-minors below it, whose entries are gap products too.
goldfish_gradients differentiates the same sums exactly, through
moser.log_minor_gradients, the log_gap_sums gradients and the pattern.

The values are verified against an independent minor oracle,
moser.minor_oracle_mk (the Gram minors of the bottom rows from their QR), in
the tests and in `todadual verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularConfigurationError, ValidationError
from .moser import (
    MoserPoint,
    check_chamber,
    log_gap_sums,
    log_minor_gradients,
    node_tables,
    ruijsenaars_spec_for,
    signed_log_minors,
)
from .rootsys import RootDatum
from .toda import _checked_exp


@dataclass(frozen=True)
class GoldfishPoint:
    """Chamber coordinates qhat and conjugate momenta phat."""

    qhat: np.ndarray
    phat: np.ndarray

    def __post_init__(self):
        qhat = np.asarray(self.qhat, dtype=float)
        phat = np.asarray(self.phat, dtype=float)
        object.__setattr__(self, "qhat", qhat)
        object.__setattr__(self, "phat", phat)
        if qhat.ndim != 1 or qhat.shape != phat.shape:
            raise ValidationError(
                f"qhat and phat must be equal-length vectors, got {qhat.shape} and {phat.shape}"
            )
        if not (np.isfinite(qhat).all() and np.isfinite(phat).all()):
            raise ValidationError("non-finite coordinates")


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
    """The one chamber evaluation: pattern x, log F / 2 (finite where F is not) and its qhat-derivative."""
    tables = node_tables(datum.algebra)
    x = check_chamber(datum, qhat)
    log_F, grad = log_gap_sums(x, tables.chamber)
    return x, 0.5 * log_F, 0.5 * grad @ datum.pattern


def _moser_point(datum: RootDatum, point: GoldfishPoint):
    """(a_from_p(point), x, d(log F / 2) / d qhat) from one chamber evaluation."""
    x, half_log_F, half_dlog_F = _half_log_factors(datum, point.qhat)
    ahat = _checked_exp(point.phat + half_log_F, "Moser weight ahat_{}")
    return MoserPoint(qhat=point.qhat, ahat=ahat), x, half_dlog_F


def chamber_factors(datum: RootDatum, qhat: np.ndarray) -> np.ndarray:
    """Per-coordinate radicands F_i of the weight change ahat = e^p sqrt(F).

    log F_i = sum_j sign(j - i) log|x_i - x_j| over the diagonal pattern x,
    less family D's pair of x_i with its mirror -x_i; positive on the chamber.
    """
    return np.exp(2.0 * _half_log_factors(datum, qhat)[1])


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


@lru_cache(maxsize=None)
def _stacked_masks(m: int, kmax: int):
    """_subset_masks(m, k) for k = 1..kmax stacked, with the first row of each block."""
    blocks = [_subset_masks(m, k) for k in range(1, kmax + 1)]
    starts = np.cumsum([0] + [block.shape[0] for block in blocks[:-1]])
    masks = np.vstack(blocks)
    masks.flags.writeable = starts.flags.writeable = False  # shared by every caller
    return masks, starts


@lru_cache(maxsize=None)
def _laplace_tables(m: int, k: int):
    """Laplace expansion of every k-subset minor along its first row.

    For row t of _subset_masks(m, k) and position i of its sorted columns:
    the column cols[t, i], the sign parity[i] = (-1)^i, and the row
    rest[t, i] of _subset_masks(m, k - 1) that holds the other columns.
    """
    top = _subset_masks(m, k)
    cols = np.nonzero(top)[1].reshape(-1, k)
    bits = np.left_shift(1, np.arange(m, dtype=np.int64))
    rest_codes = (top.astype(np.int64) @ bits)[:, None] - bits[cols]
    lower_codes = _subset_masks(m, k - 1).astype(np.int64) @ bits
    order = np.argsort(lower_codes)
    rest = order[np.searchsorted(lower_codes, rest_codes, sorter=order)]
    cols.flags.writeable = rest.flags.writeable = False  # shared by every caller
    return cols, (-1.0) ** np.arange(k), rest


def _minor_terms(datum: RootDatum, point: GoldfishPoint, kmax: int):
    """The evaluation goldfish_hamiltonians sums and goldfish_gradients chains.

    Returns (spec, masks, starts, logabs, half_dlog_F, laplace): the
    product-form log minors of the spec over every column subset of sizes
    1..kmax (at most n-1 for family D), stacked as in _stacked_masks, and
    _moser_point's d(log F / 2) / d qhat.  For the D top invariant
    (kmax = n), laplace = (cols, rest, terms, row_grad): terms[t, i] is the
    i-th term of maximal minor t expanded along the fused-root row (row n
    of g; at unit weights -1 / ((q_j + q_{n-1}) prod_{j<k<n-1} (q_j - q_k))
    for j < n-1 and 1 in column n), rest indexes the (n-1)-subset block and
    row_grad is the x-gradient of the row's fused_row log_gap_sums; else None.
    """
    n = datum.algebra.rank
    mp, x, half_dlog_F = _moser_point(datum, point)
    spec = ruijsenaars_spec_for(datum, mp)
    fused = datum.algebra.family == "D"
    masks, starts = _stacked_masks(spec.size, min(kmax, n - 1) if fused else kmax)
    sign, logabs = signed_log_minors(spec, masks)
    laplace = None
    if fused and kmax == n:
        cols, parity, rest = _laplace_tables(spec.size, n)
        log_gaps, row_grad = log_gap_sums(x, node_tables(datum.algebra).fused_row)
        row = np.zeros(2 * n)
        row[: n - 1] = -np.exp(log_gaps) * mp.ahat[: n - 1]
        row[n] = 1.0 / mp.ahat[-1]
        below = starts[-1]
        terms = parity * row[cols] * sign[rest + below] * np.exp(logabs[rest + below])
        laplace = (cols, rest, terms, row_grad)
    return spec, masks, starts, logabs, half_dlog_F, laplace


def goldfish_hamiltonians(datum: RootDatum, point: GoldfishPoint, kmax: int | None = None) -> np.ndarray:
    """Dual Hamiltonians (H-hat_1, ..., H-hat_kmax) = m_k(g g^dagger); kmax defaults to the rank.

    One product-form minor evaluation over all column subsets of sizes
    1..kmax (at most n-1 for family D), summed per size; the D top
    invariant expands each maximal minor along the fused-root row.  A value
    past the float64 range raises ValidationError naming it.
    """
    n = datum.algebra.rank
    kmax = n if kmax is None else int(kmax)
    if not 1 <= kmax <= n:
        raise ValidationError(f"kmax must lie in 1..{n}, got {kmax}")
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, starts, logabs, _, laplace = _minor_terms(datum, point, kmax)
        values = np.add.reduceat(np.exp(2.0 * logabs), starts)
        if laplace is not None:
            values = np.append(values, np.sum(laplace[2].sum(axis=1) ** 2))
    if not np.isfinite(values).all():
        k = int(np.argmin(np.isfinite(values))) + 1
        raise ValidationError(f"dual Hamiltonian H-hat_{k}, a sum of squared minors, overflows float64")
    return values


def goldfish_hamiltonian(datum: RootDatum, point: GoldfishPoint, k: int) -> float:
    """Single dual Hamiltonian H-hat_k."""
    n = datum.algebra.rank
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")
    return float(goldfish_hamiltonians(datum, point, k)[k - 1])


def goldfish_gradients(datum: RootDatum, point: GoldfishPoint) -> np.ndarray:
    """Exact gradients of (H-hat_1, ..., H-hat_n): row k-1 is dH-hat_k in (phat, qhat) order.

    The same minor evaluation as goldfish_hamiltonians: each H-hat_k is a
    sum of squared minors exp(2 l_S), so dH-hat_k = sum_S 2 exp(2 l_S) dl_S,
    with dl_S from moser.log_minor_gradients chained through the spec's
    dependence on (phat, qhat): log ahat = phat + log F / 2, log|b| =
    pattern(log ahat) (+ log 2|qhat_c| for D) and x = sigma pattern(qhat).
    The D top invariant sum_T M_T^2, with M_T the Laplace sum of row_c
    times the (n-1)-minors below, takes dM_T term by term as
    (row_c minor) (d log|row_c| + dl_rest).
    """
    n = datum.algebra.rank
    spec, masks, starts, logabs, half_dlog_F, laplace = _minor_terms(datum, point, n)
    dl = log_minor_gradients(spec, masks)
    spec_grads = np.add.reduceat(2.0 * np.exp(2.0 * logabs)[:, None] * dl, starts)
    P, sigma = datum.pattern, node_tables(datum.algebra).sigma
    dL = np.hstack([np.eye(n), half_dlog_F])  # d log ahat / d(phat, qhat)
    spec_jacobian = np.vstack([P @ dL, np.hstack([np.zeros_like(P), sigma * P])])
    if laplace is None:
        return spec_grads @ spec_jacobian
    cols, rest, terms, row_grad = laplace
    spec_jacobian[:n, n:] += np.diag(1.0 / point.qhat)  # D's log 2|qhat_c| in log|b|
    below = starts[-1]
    u = 2.0 * terms.sum(axis=1, keepdims=True) * terms  # 2 M_T times each Laplace term
    rest_weights = np.bincount(rest.ravel(), weights=u.ravel(), minlength=masks.shape[0] - below)
    out = np.vstack([spec_grads, rest_weights @ dl[below:]]) @ spec_jacobian
    # d log|row_c| / d(phat, qhat) of the fused-root row, zero at its zero entries
    row_jacobian = np.zeros((2 * n, 2 * n))
    row_jacobian[: n - 1] = dL[: n - 1]
    row_jacobian[: n - 1, n:] += row_grad @ P
    row_jacobian[n] = -dL[n - 1]
    out[-1] += np.bincount(cols.ravel(), weights=u.ravel(), minlength=spec.size) @ row_jacobian
    return out


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
    q = np.asarray(point.qhat, dtype=float)
    p = np.asarray(point.phat, dtype=float)
    n = q.size
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")
    S, sign, logabs = _cross_products(q[:, None] - q[None, :] + np.eye(n), k)
    return float(np.sum(sign * np.exp(2.0 * (S @ p) - logabs)))


def rs_hamiltonian_A(point: GoldfishPoint, coupling: RSCoupling, k: int) -> float:
    """Rational Ruijsenaars-Schneider Hamiltonian of the A family.

    H_k = sum_{|I|=k} prod_{i in I, j notin I} (q_i - q_j + nu)/(q_i - q_j)
          * exp(2 sum_I p).  At k = n the product is empty, so the value is
    exp(2 sum p) independently of the coupling.
    """
    q = np.asarray(point.qhat, dtype=float)
    p = np.asarray(point.phat, dtype=float)
    n = q.size
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")
    gaps = np.abs(q[:, None] - q[None, :])
    np.fill_diagonal(gaps, np.inf)
    if gaps.min() <= 1.0e-10:
        raise SingularConfigurationError("coordinates must be pairwise distinct")
    diff = q[:, None] - q[None, :] + np.eye(n)
    S, sign, logabs = _cross_products((diff + coupling.nu) / diff, k)
    return float(np.sum(sign * np.exp(2.0 * (S @ p) + logabs)))


def d_h1_pairsum_variant(datum: RootDatum, point: GoldfishPoint) -> float:
    """Sum-over-pairs variant of the family-D first invariant.

    Replaces the product over k != i of |q_i^2 - q_k^2|^{-1} by the sum of
    the same reciprocals.  It disagrees with the determinant oracle; it is
    kept so verification reports can quantify the discrepancy.
    """
    if datum.algebra.family != "D":
        raise ValidationError("variant defined for family D only")
    q = np.asarray(point.qhat, dtype=float)
    p = np.asarray(point.phat, dtype=float)
    n = q.size
    total = 0.0
    for i in range(n):
        coeff = sum(1.0 / abs(q[i] ** 2 - q[k] ** 2) for k in range(n) if k != i)
        total += (np.exp(2.0 * p[i]) + np.exp(-2.0 * p[i])) * coeff
    return float(total)
