"""Rational goldfish models dual to the open Toda chains.

Phase space is the open chamber in (qhat, phat).  The positive weights ahat
and the momenta are related by a canonical change of variables whose
chamber factor F_i is a product of coordinate differences (and sums, and in
the odd orthogonal case a bare coordinate) that stays positive on the whole
chamber; ahat_i = exp(phat_i) sqrt(F_i).

The dual Hamiltonian H-hat_k is the bottom-right k x k principal minor of
g g^dagger for the lower-triangular momentum-equation solution g.  By the
Cauchy-Binet theorem it is the sum over column sets S of the squared k x k
minors of the bottom k rows of g.  Those rows are rows of the Cauchy-type
matrix of moser.ruijsenaars_spec_for, whose minors factor in product form
(moser.signed_log_minors), so every H-hat_k of every family is one masked
sum over the subsets of the columns.  The only exception is the top
invariant of family D, whose bottom n rows start with the fused-root row;
each maximal minor there is a Laplace expansion along that row against the
product-form (n-1)-minors below it.

The values are verified against an independent Gram-determinant oracle in
the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ChamberError, SingularConfigurationError, ValidationError
from .moser import MoserPoint, check_chamber, ruijsenaars_spec_for, signed_log_minors
from .rootsys import RootDatum


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
        if not (np.all(np.isfinite(qhat)) and np.all(np.isfinite(phat))):
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


def chamber_factors(datum: RootDatum, qhat: np.ndarray) -> np.ndarray:
    """Per-coordinate radicands F_i of the weight change ahat = e^p sqrt(F).

    F_i = prod_{j>i}(q_i - q_j) / prod_{k<i}(q_k - q_i), times
    prod_k (q_i + q_k) for C, additionally times q_i for B, and
    prod_{k != i} (q_i + q_k) for D.  Positive on the open chamber.
    """
    q = np.asarray(qhat, dtype=float)
    n = q.size
    fam = datum.algebra.family
    F = np.ones(n)
    for i in range(n):
        for j in range(i + 1, n):
            F[i] *= q[i] - q[j]
        for k in range(i):
            F[i] /= q[k] - q[i]
        if fam in ("B", "C"):
            for k in range(n):
                F[i] *= q[i] + q[k]
            if fam == "B":
                F[i] *= q[i]
        elif fam == "D":
            for k in range(n):
                if k != i:
                    F[i] *= q[i] + q[k]
    if np.any(F <= 0.0):
        raise ChamberError(f"non-positive weight radicand at qhat {q}")
    return F


def a_from_p(datum: RootDatum, point: GoldfishPoint) -> MoserPoint:
    """Canonical map from goldfish momenta to positive diagonal weights."""
    check_chamber(datum, point.qhat)
    F = chamber_factors(datum, point.qhat)
    return MoserPoint(qhat=point.qhat, ahat=np.exp(point.phat) * np.sqrt(F))


def p_from_a(datum: RootDatum, point: MoserPoint) -> GoldfishPoint:
    """Inverse of a_from_p."""
    check_chamber(datum, point.qhat)
    F = chamber_factors(datum, point.qhat)
    return GoldfishPoint(qhat=point.qhat, phat=np.log(point.ahat) - 0.5 * np.log(F))


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


def _fused_root_row(mp: MoserPoint) -> np.ndarray:
    """Row n of the family-D element g (the first of its bottom n rows).

    At unit weights its only entries are -1 / ((q_j + q_{n-1})
    prod_{j<k<n-1} (q_j - q_k)) for j < n-1 and 1 in column n; the weights
    scale column j by ahat_j and column n+j by 1/ahat_{n-1-j}.
    """
    q = mp.qhat
    n = q.size
    head = q[: n - 1]
    later = np.triu(np.ones((n - 1, n - 1)), k=1) > 0.0
    gaps = np.where(later, head[:, None] - head[None, :], 1.0)
    row = np.zeros(2 * n)
    row[: n - 1] = -1.0 / ((head + q[-1]) * np.prod(gaps, axis=1))
    row[n] = 1.0
    return row * np.concatenate([mp.ahat, 1.0 / mp.ahat[::-1]])


def goldfish_hamiltonians(datum: RootDatum, point: GoldfishPoint, kmax: int | None = None) -> np.ndarray:
    """Dual Hamiltonians (H-hat_1, ..., H-hat_kmax) = m_k(g g^dagger); kmax defaults to the rank.

    One product-form minor evaluation over all column subsets of sizes
    1..kmax (at most n-1 for family D), summed per size; the D top
    invariant expands each maximal minor along the fused-root row.
    """
    n = datum.algebra.rank
    kmax = n if kmax is None else int(kmax)
    if not 1 <= kmax <= n:
        raise ValidationError(f"kmax must lie in 1..{n}, got {kmax}")
    mp = a_from_p(datum, point)
    spec, _ = ruijsenaars_spec_for(datum, mp)
    fused = datum.algebra.family == "D"
    masks, starts = _stacked_masks(spec.size, min(kmax, n - 1) if fused else kmax)
    sign, logabs = signed_log_minors(spec, masks)
    values = np.add.reduceat(np.exp(2.0 * logabs), starts)
    if fused and kmax == n:
        cols, parity, rest = _laplace_tables(spec.size, n)
        rest = rest + starts[-1]
        maximal = (parity * _fused_root_row(mp)[cols] * sign[rest] * np.exp(logabs[rest])).sum(axis=1)
        values = np.append(values, np.sum(maximal**2))
    return values


def goldfish_hamiltonian(datum: RootDatum, point: GoldfishPoint, k: int) -> float:
    """Single dual Hamiltonian H-hat_k."""
    n = datum.algebra.rank
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in 1..{n}, got {k}")
    return float(goldfish_hamiltonians(datum, point, k)[k - 1])


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
    total = 0.0
    for I in itertools.combinations(range(n), k):
        inside = set(I)
        term = float(np.exp(2.0 * sum(p[i] for i in I)))
        for i in I:
            for j in range(n):
                if j not in inside:
                    term /= q[i] - q[j]
        total += term
    return total


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
    nu = coupling.nu
    total = 0.0
    for I in itertools.combinations(range(n), k):
        inside = set(I)
        term = float(np.exp(2.0 * sum(p[i] for i in I)))
        for i in I:
            for j in range(n):
                if j not in inside:
                    term *= (q[i] - q[j] + nu) / (q[i] - q[j])
        total += term
    return total


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
