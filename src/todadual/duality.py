"""Coordinate maps between the two gauges of the reduced phase space.

A point of the reduced space has two canonical representatives: the Toda
gauge (g diagonal positive, X the real symmetric Lax matrix) and the Moser
gauge (X diagonal with chamber-ordered spectrum, g lower triangular with
positive leading-block diagonal).  The map between them is a change of
canonical coordinates: Toda (q, p) on one side, spectral (qhat, phat) on
the other.

toda_to_goldfish diagonalizes the real symmetric X by a real orthogonal
group element k and transports g into that frame.  The unipotent upper
factor separating the transported element from the Moser gauge leaves its
bottom row alone, so log ahat is read off that row in log space, against
the unit-weight row's node gaps, and the momentum equation pins everything
else.  goldfish_to_toda reads (q, p) back from one QR of the bottom rows of
the Moser element.  Both directions verify their defining residuals and
raise DualityResidualError instead of returning drifted coordinates.

Two families of invariant functions certify the map: the trailing
principal minors of g g^dagger (trivial in the Toda gauge, the dual
Hamiltonians in the Moser gauge) and the trace powers of X (the Toda
Hamiltonians in one gauge, spectral power sums in the other).  The
symplectomorphism certificate differentiates the inverse map, which runs
on the QR and no eigensolver, exactly in forward mode through the same
pass; the inverse is antisymplectic exactly when the forward map is, and
the round-trip property ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DualityResidualError
from .goldfish import GoldfishPoint, _moser_point, goldfish_hamiltonians, p_from_a
from .linalg import bottom_row_qr, structured_diagonalize
from .moser import MoserPoint, _moser_g, check_chamber, log_gap_sums, momentum_equation_residual, node_tables
from .rootsys import RootDatum, cartan_pattern
from .toda import TodaPoint, _checked_exp, build_lax, symplectic_form, symplectic_scale, toda_hamiltonians

# Residual budget for both directions of the map.
DUALITY_RTOL = 1.0e-8


@dataclass(frozen=True)
class DualityReport:
    """Both invariant families evaluated in both gauges at one point.

    toda_values[k-1]   : H_k (trace powers of the Lax matrix) at the input.
    goldfish_values[k-1]: dual Hamiltonian Hhat_k at the mapped point.
    jk_toda_gauge[k-1] : trailing k x k principal minor of g g^dagger in the
                         Toda gauge (an explicit exponential of q).
    ik_moser_gauge[k-1]: the trace powers evaluated on the diagonalized X,
                         i.e. power sums of the spectral coordinates.
    max_relative_mismatch: worst relative gap between matched pairs
                         (J_k vs Hhat_k and H_k vs I_k); recorded, never
                         silently swallowed.
    """

    toda_values: np.ndarray
    goldfish_values: np.ndarray
    jk_toda_gauge: np.ndarray
    ik_moser_gauge: np.ndarray
    max_relative_mismatch: float


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def toda_to_moser(datum: RootDatum, point: TodaPoint) -> MoserPoint:
    """Moser-gauge coordinates (qhat, ahat) of a Toda point.

    The unipotent upper factor that takes the transported element to the
    triangular gauge leaves its bottom row unchanged, and that row has the
    closed form |g[N-1, j]| = |b_j| / prod_{i>j} |x_j - x_i| of
    ruijsenaars_spec_for, with |b_j| = ahat_j (A/B/C) or 2|qhat_j| ahat_j
    (D).  So log ahat is log|row| less the bottom_row log_gap_sums of the
    unit weights, and no elimination is run.

    Raises NonGenericPointError subclasses when the spectrum degenerates or
    the chamber is hit, and DualityResidualError when an entry of the
    transported row underflows to zero, when the built element fails its
    momentum equation, or when its bottom row misses the transported one
    (for B/C/D the mirrored entries carry 1/ahat and are not used by the
    read).  ValidationError names a Toda-gauge entry or a weight that
    overflows float64.
    """
    X = build_lax(datum, point)
    k, qhat = structured_diagonalize(datum, X)
    # Moduli of the bottom row of diag(exp(pattern(q))) k^T: g transported
    # into the frame where X is diagonal.
    last = f"Toda-gauge entry g[{datum.size - 1}, {datum.size - 1}]"
    row = np.abs(_checked_exp(cartan_pattern(datum, point.q)[-1:], last) * k[:, -1])

    x = check_chamber(datum, qhat)
    if not row.all():  # no entry of a Moser bottom row vanishes
        lost = f"g[{row.size - 1}, {np.argmin(row)}]"
        raise DualityResidualError(f"transported bottom-row entry {lost} underflows to zero")
    log_unit, _ = log_gap_sums(x, node_tables(datum.algebra).bottom_row)
    log_ahat = np.log(row[: datum.algebra.rank]) - log_unit
    mp = MoserPoint(qhat=qhat, ahat=_checked_exp(log_ahat, "Moser weight ahat_{}"))

    gref = _moser_g(datum, x, mp.ahat)
    residual = momentum_equation_residual(datum, gref, qhat)
    if residual > DUALITY_RTOL:
        raise DualityResidualError(f"momentum residual {residual:.3e} after gauge transport")
    ref_row = np.abs(gref[-1])
    gap = float(np.max(np.abs(row - ref_row) / ref_row))
    if gap > DUALITY_RTOL:
        raise DualityResidualError(f"transported bottom row misses the recurrence by {gap:.3e}")
    return mp


def toda_to_goldfish(datum: RootDatum, point: TodaPoint) -> GoldfishPoint:
    """Canonical coordinates of the dual system at the image of a Toda point."""
    return p_from_a(datum, toda_to_moser(datum, point))


def _inverse_pass(datum: RootDatum, point: GoldfishPoint):
    """goldfish_to_toda's one evaluation: (recovered, g, xhat, half_dlog_F, Q, R), spectrum-gated.

    goldfish._moser_point's one chamber evaluation gives mp, xhat and half_dlog_F = d(log F / 2) / d qhat.
    The tail rule pattern(q)[::-1][:n] = log|R_ii| (psi_i for p) reads q and p through the signed
    permutation tail = pattern[::-1][:n], for which pattern(q)[::-1][:n] = tail @ q.
    """
    n = datum.algebra.rank
    mp, xhat, half_dlog_F = _moser_point(datum, point)
    g = _moser_g(datum, xhat, mp.ahat)
    Q, R = bottom_row_qr(g, n)
    tail = datum.pattern[::-1][:n]
    log_r = np.log(np.abs(np.diagonal(R)))
    psi = xhat @ Q**2
    recovered = TodaPoint(q=log_r @ tail, p=psi @ tail)

    spectrum = np.linalg.eigvalsh(build_lax(datum, recovered))
    scale = max(1.0, float(np.max(np.abs(xhat))))
    gap = float(np.max(np.abs(spectrum - np.sort(xhat)))) / scale
    if gap > DUALITY_RTOL:
        raise DualityResidualError(f"rebuilt Lax spectrum misses pattern(qhat) by {gap:.3e}")
    return recovered, g, xhat, half_dlog_F, Q, R


def goldfish_to_toda(datum: RootDatum, point: GoldfishPoint) -> TodaPoint:
    """Toda-gauge representative of a dual-system point.

    An upper unipotent factor leaves the trailing minors J_k of g g^dagger
    alone, so the thin QR of the bottom n rows of the Moser element g fixes
    both tail sums: of pattern(q), half of log J_k = sum_{i<k} log|R_ii|;
    of pattern(p), its derivative along Xhat, sum_{i<k} psi_i.  Hence the
    tail rule pattern(q)[::-1][:n] = log|R_ii| (psi_i for p); that tail of
    the pattern is the reversal for A and -I for B/C/D.  The rebuilt
    Lax spectrum must match pattern(qhat) within DUALITY_RTOL, else
    DualityResidualError; a zero R_ii raises SingularMatrixError.
    """
    return _inverse_pass(datum, point)[0]


def toda_gauge_minors(datum: RootDatum, point: TodaPoint, kmax: int | None = None) -> np.ndarray:
    """Trailing principal minors J_k of g g^dagger in the Toda gauge.

    g is diagonal here, so J_k is the product of the last k entries of
    exp(2 * pattern(q)): explicit exponentials of the positions.  A J_k
    past the float64 range raises ValidationError naming it.
    """
    n = datum.algebra.rank
    kmax = n if kmax is None else int(kmax)
    pattern = cartan_pattern(datum, point.q)
    return _checked_exp(2.0 * np.cumsum(pattern[::-1])[:kmax], "Toda-gauge minor J_{}")


def moser_gauge_traces(datum: RootDatum, qhat, kmax: int | None = None) -> np.ndarray:
    """Trace powers I_k of the diagonalized Lax matrix (spectral power sums)."""
    n = datum.algebra.rank
    kmax = n if kmax is None else int(kmax)
    d = symplectic_scale(datum)
    qhat = np.asarray(qhat, dtype=float)
    ks = np.arange(1, kmax + 1, dtype=float)
    return np.power(qhat[None, :] ** d, ks[:, None]).sum(axis=1) / (d * ks)


def verify_duality_identities(
    datum: RootDatum, point: TodaPoint, kmax: int | None = None
) -> DualityReport:
    """Evaluate both invariant families in both gauges and report mismatches.

    Matched pairs: jk_toda_gauge against goldfish_values (the same minor
    family in two gauges) and toda_values against ik_moser_gauge (the same
    trace family).  Mismatches land in max_relative_mismatch; nothing is
    raised here because the report itself is the verdict.
    """
    n = datum.algebra.rank
    kmax = n if kmax is None else int(kmax)
    toda_values = toda_hamiltonians(datum, point, kmax)
    gp = toda_to_goldfish(datum, point)
    goldfish_values = goldfish_hamiltonians(datum, gp, kmax)
    jk = toda_gauge_minors(datum, point, kmax)
    ik = moser_gauge_traces(datum, gp.qhat, kmax)
    # np.max keeps a NaN gap, which Python's max would drop
    worst = np.max([_relative_gap(*pair) for pair in zip([*jk, *toda_values], [*goldfish_values, *ik])])
    return DualityReport(
        toda_values=toda_values,
        goldfish_values=goldfish_values,
        jk_toda_gauge=jk,
        ik_moser_gauge=ik,
        max_relative_mismatch=float(worst),
    )


def duality_jacobian(datum: RootDatum, point: GoldfishPoint) -> np.ndarray:
    """Exact Jacobian of the inverse map (phat, qhat) -> (p, q), rows (p, q).

    Forward mode through goldfish_to_toda's own pass, all 2n input
    directions at once, with dx = d pattern(qhat):
    * diag(g) moves by diag(g) (pattern @ d log ahat), log ahat = phat + log F / 2;
    * the recurrence row by row, dg[i, j] = (lam[i, :i] @ dg[:i, j]
      - g[i, j] (dx_j - dx_i)) / (x_j - x_i);
    * the QR M = Q R of the bottom rows, with Y = dM R^{-1} (one inverse
      of the upper triangular R, shared by every direction) and X = Q^T Y:
      d log|R_ii| = X_ii and dQ = Q Omega + Y - Q X, where
      Omega = tril(X, -1) - tril(X, -1)^T;
    * psi = xhat @ Q^2 gives dpsi = dx @ Q^2 + 2 xhat @ (Q dQ);
    * the tail rule pattern(q)[::-1][:n] = log|R_ii| (psi_i for p) reads
      the rows through the signed permutation tail = pattern[::-1][:n].
    The map's spectrum gate runs once, at the point itself.
    """
    n, N = datum.algebra.rank, datum.size
    _, g, x, half_dlog_F, Q, R = _inverse_pass(datum, point)
    P = datum.pattern
    tail = P[::-1][:n]
    dx = np.hstack([np.zeros_like(P), P])
    d_log_ahat = np.hstack([np.eye(n), half_dlog_F])
    dg = np.zeros((2 * n, N, N))
    dg[:, np.arange(N), np.arange(N)] = (np.diagonal(g)[:, None] * (P @ d_log_ahat)).T
    lam = datum.momentum
    for i in range(1, N):
        dg[:, i, :i] = (lam[i, :i] @ dg[:, :i, :i] - g[i, :i] * (dx[:i] - dx[i]).T) / (x[:i] - x[i])

    dM = dg[:, ::-1][:, :n].transpose(0, 2, 1)
    Y = dM @ np.linalg.inv(R)
    X = Q.T @ Y
    lower = np.tril(X, -1)
    dQ = Y + Q @ (lower - lower.transpose(0, 2, 1) - X)
    d_log_r = np.diagonal(X, axis1=1, axis2=2).T
    d_psi = (dx.T @ Q**2 + 2.0 * (x @ (Q * dQ))).T
    return np.vstack([tail.T @ d_psi, tail.T @ d_log_r])


def symplectomorphism_check(datum: RootDatum, point: GoldfishPoint) -> tuple[float, float]:
    """Residual of J^T W J = sigma W for the better sigma in {+1, -1}.

    J is duality_jacobian at a dual point and W the canonical block form in
    (p, q) ordering with the per-family scale on both sides.  Returns
    (residual, sigma); the sign is measured, not asserted, since either
    orientation is acceptable.  The inverse of a map with J^T W J = sigma W
    satisfies the same identity with the same sigma, so together with the
    round-trip property this certifies the forward map too.
    """
    W = symplectic_form(datum)
    J = duality_jacobian(datum, point)
    M = J.T @ W @ J
    r_plus = float(np.linalg.norm(M - W, "fro"))
    r_minus = float(np.linalg.norm(M + W, "fro"))
    return (r_plus, 1.0) if r_plus <= r_minus else (r_minus, -1.0)
