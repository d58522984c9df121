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
the unit-weight row's node gaps, and the mirrored half of the row must
match the same closed form; no g is built.  goldfish_to_toda reads (q, p)
back from the Lanczos pass on the Moser measure that gives the dual
Hamiltonians, and builds no g either.  Both directions verify their
defining residuals and raise DualityResidualError instead of returning
drifted coordinates.

Two families of invariant functions certify the map: the trailing
principal minors of g g^dagger (trivial in the Toda gauge, the dual
Hamiltonians in the Moser gauge) and the trace powers of X (the Toda
Hamiltonians in one gauge, spectral power sums in the other).  The
symplectomorphism certificate differentiates that pass, the inverse map,
which runs no eigensolver, exactly in forward mode; the inverse is
antisymplectic exactly when the forward map is, and the round-trip
property ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DualityResidualError, SingularMatrixError
from .goldfish import GoldfishPoint, _heine_pass, goldfish_hamiltonians, p_from_a
from .linalg import structured_diagonalize
from .moser import AHAT_OVERFLOW, MoserPoint, check_chamber, log_gap_sums, node_tables
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


def _relative_gaps(a, b) -> np.ndarray:
    """|a - b| / max(|a|, |b|) entrywise: 0 where both sides are 0, NaN where either is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    # an inf on a side gives NaN with no warning, as Python's float arithmetic does
    with np.errstate(invalid="ignore"):
        return np.divide(np.abs(a - b), scale, out=np.zeros_like(scale), where=scale != 0.0)


def toda_to_moser(datum: RootDatum, point: TodaPoint) -> MoserPoint:
    """Moser-gauge coordinates (qhat, ahat) of a Toda point.

    The unipotent upper factor that takes the transported element to the
    triangular gauge leaves its bottom row unchanged, and that row has the
    closed form |g[N-1, j]| = |b_j| / prod_{i>j} |x_j - x_i| of
    ruijsenaars_spec_for, with |b_j| = ahat_j (A/B/C) or 2|qhat_j| ahat_j
    (D).  So log ahat is log|row| less the bottom_row log_gap_sums of the
    unit weights, and no elimination is run.  For B/C/D the mirrored
    entries carry 1/ahat and are not used by the read; the gate holds the
    whole row to that closed form, |b| = exp(pattern(log ahat)).

    Raises NonGenericPointError subclasses when the spectrum degenerates or
    the chamber is hit, and DualityResidualError when an entry of the
    transported row underflows to zero or the row misses its closed form
    by more than DUALITY_RTOL.  ValidationError names a Toda-gauge entry or
    a weight that overflows float64.
    """
    X = build_lax(datum, point)
    k, qhat = structured_diagonalize(datum, X)
    # Moduli of the bottom row of diag(exp(pattern(q))) k^T: g transported
    # into the frame where X is diagonal.
    last = f"Toda-gauge entry g[{datum.size - 1}, {datum.size - 1}] = exp({{e:.6g}}) overflows float64"
    row = np.abs(_checked_exp(cartan_pattern(datum, point.q)[-1:], last) * k[:, -1])

    x = check_chamber(datum, qhat)
    if not row.all():  # no entry of a Moser bottom row vanishes
        lost = f"g[{row.size - 1}, {np.argmin(row)}]"
        raise DualityResidualError(f"transported bottom-row entry {lost} underflows to zero")
    n, log_row = datum.algebra.rank, np.log(row)
    log_unit, _ = log_gap_sums(x, node_tables(datum.algebra).bottom_row)
    log_ahat = log_row[:n] - log_unit[:n]
    mp = MoserPoint(qhat=qhat, ahat=_checked_exp(log_ahat, AHAT_OVERFLOW))
    # log|b| = pattern(log ahat) on the whole diagonal, mirrored half included
    gap = float(np.max(np.abs(np.expm1(log_row - cartan_pattern(datum, log_ahat) - log_unit))))
    if not gap <= DUALITY_RTOL:
        raise DualityResidualError(f"transported bottom row misses its closed form by {gap:.3e}")
    return mp


def toda_to_goldfish(datum: RootDatum, point: TodaPoint) -> GoldfishPoint:
    """Canonical coordinates of the dual system at the image of a Toda point."""
    return p_from_a(datum, toda_to_moser(datum, point))


def _inverse_pass(datum: RootDatum, point: GoldfishPoint):
    """goldfish_to_toda's one evaluation: (recovered, the Lanczos pass), spectrum-gated."""
    n = datum.algebra.rank
    log_norm, alpha, _, beta, x, _, _ = lp = _heine_pass(datum, point)
    if not beta.all():
        i = int(np.argmin(beta))
        raise SingularMatrixError(f"Lanczos step {i}: ||pi_{i}|| underflows to 0 beside the largest Moser weight")
    tail = datum.pattern[::-1][:n]
    recovered = TodaPoint(q=log_norm @ tail, p=alpha @ tail)
    spectrum = np.linalg.eigvalsh(build_lax(datum, recovered))
    scale = max(1.0, float(np.max(np.abs(x))))
    gap = float(np.max(np.abs(spectrum - np.sort(x)))) / scale
    if gap > DUALITY_RTOL:
        raise DualityResidualError(f"rebuilt Lax spectrum misses pattern(qhat) by {gap:.3e}")
    return recovered, lp


def goldfish_to_toda(datum: RootDatum, point: GoldfishPoint) -> TodaPoint:
    """Toda-gauge representative of a dual-system point.

    An upper unipotent factor leaves the trailing minors J_k of g g^dagger
    alone, and J_k = H-hat_k = prod_{i<k} ||pi_i||^2 (goldfish._heine_pass),
    so the tail rule pattern(q)[::-1][:n] = log||pi_i|| holds, and for p,
    the derivative along Xhat, the Rayleigh quotients alpha_i; that tail of
    the pattern is the reversal for A and -I for B/C/D.  The rebuilt Lax
    spectrum must match pattern(qhat) within DUALITY_RTOL, else
    DualityResidualError; a zero ||pi_i|| raises SingularMatrixError.
    """
    return _inverse_pass(datum, point)[0]


def toda_gauge_minors(datum: RootDatum, point: TodaPoint) -> np.ndarray:
    """Trailing principal minors J_1..J_n of g g^dagger in the Toda gauge.

    g is diagonal here, so J_k is the product of the last k entries of
    exp(2 * pattern(q)): explicit exponentials of the positions.  A J_k
    past the float64 range raises ValidationError naming it.
    """
    pattern = cartan_pattern(datum, point.q)
    log_minors = 2.0 * np.cumsum(pattern[::-1])[: datum.algebra.rank]
    return _checked_exp(log_minors, "Toda-gauge minor J_{i} = exp({e:.6g}) overflows float64")


def moser_gauge_traces(datum: RootDatum, qhat) -> np.ndarray:
    """Trace powers I_1..I_n of the diagonalized Lax matrix (spectral power sums)."""
    d = symplectic_scale(datum)
    qhat = np.asarray(qhat, dtype=float)
    ks = np.arange(1, datum.algebra.rank + 1, dtype=float)
    return np.power(qhat[None, :] ** d, ks[:, None]).sum(axis=1) / (d * ks)


def verify_duality_identities(datum: RootDatum, point: TodaPoint) -> DualityReport:
    """Evaluate both invariant families in both gauges and report mismatches.

    Matched pairs: jk_toda_gauge against goldfish_values (the same minor
    family in two gauges) and toda_values against ik_moser_gauge (the same
    trace family).  Mismatches land in max_relative_mismatch; nothing is
    raised here because the report itself is the verdict.
    """
    toda_values = toda_hamiltonians(datum, point)
    gp = toda_to_goldfish(datum, point)
    goldfish_values = goldfish_hamiltonians(datum, gp)
    jk = toda_gauge_minors(datum, point)
    ik = moser_gauge_traces(datum, gp.qhat)
    # np.max keeps a NaN gap, which Python's max would drop
    worst = np.max(_relative_gaps(np.concatenate([jk, toda_values]), np.concatenate([goldfish_values, ik])))
    return DualityReport(
        toda_values=toda_values,
        goldfish_values=goldfish_values,
        jk_toda_gauge=jk,
        ik_moser_gauge=ik,
        max_relative_mismatch=float(worst),
    )


def duality_jacobian(datum: RootDatum, point: GoldfishPoint) -> np.ndarray:
    """Exact Jacobian of the inverse map (phat, qhat) -> (p, q), rows (p, q).

    Forward mode through goldfish_to_toda's own Lanczos pass, all 2n
    input directions at once, from dx = P dqhat and d log u = P dphat +
    (gaps_grad P) dqhat, P = datum.pattern.  Step i, w = (I - Q Q^T) w0 from
    w0 = u, x Q_{i-1} or, at D's last step, the fused-root row f, moves by
    dw = (I - Q Q^T) dw0 - dQ (Q^T w0) - Q (dQ^T w0), so d beta_i = Q_i^T dw,
    dQ_i = (dw - Q_i d beta_i) / beta_i, d alpha_i = Q_i^2.dx + 2 (x Q_i).dQ_i.
    The pass's repeated _residual sweeps re-apply the same projection, so
    this is the exact derivative of the pass that runs.  The tail rule reads
    the rows; the map's spectrum gate runs once, at the point itself.
    """
    n, P = datum.algebra.rank, datum.pattern
    _, _, Q, beta, x, gaps_grad, fused = _inverse_pass(datum, point)[1]
    m = n - (fused is not None)  # the step of D's fused-root row, if any
    dx = np.hstack([np.zeros_like(P), P])
    d_log_u = np.hstack([P, gaps_grad @ P])
    dQ, d_log_beta = np.zeros((n, *dx.shape)), np.zeros((n, 2 * n))
    for i in range(n):
        if 0 < i < m:
            w0 = x * Q[:, i - 1]
            dw0 = dx * Q[:, i - 1, None] + x[:, None] * dQ[i - 1]
        else:  # u, or D's fused-root row f, nonzero on nodes c <= n: d log f = d log u + f_grad dx
            w0 = fused[0] if i else beta[0] * Q[:, 0]
            dw0 = w0[:, None] * d_log_u
            if i:
                dw0[: n + 1] += w0[: n + 1, None] * (fused[1] @ dx)
        prev = Q[:, :i]
        dw = dw0 - prev @ (prev.T @ dw0 + w0 @ dQ[:i]) - ((w0 @ prev) @ dQ[:i].reshape(i, dw0.size)).reshape(dw0.shape)
        d_log_beta[i] = Q[:, i] @ dw / beta[i]
        dQ[i] = dw / beta[i] - Q[:, i, None] * d_log_beta[i]
    d_alpha = (Q**2).T @ dx + 2.0 * np.einsum("ci,icj->ij", x[:, None] * Q, dQ)
    d_log_norm = np.cumsum(d_log_beta, axis=0)
    d_log_norm[m:] = d_log_beta[m:]  # D's top norm is the fused row's own, not a running product
    tail = P[::-1][:n]
    return np.concatenate([tail.T @ d_alpha, tail.T @ d_log_norm])


def symplectomorphism_check(datum: RootDatum, point: GoldfishPoint) -> tuple[float, float]:
    """Residual of J^T W J = sigma W for the better sigma in {+1, -1}.

    J is duality_jacobian at a dual point and W the canonical block form in
    (p, q) ordering with the per-family scale on both sides.  Returns
    (residual, sigma); the sign is measured, not asserted, since either
    orientation is acceptable.  The inverse of a map with J^T W J = sigma W
    satisfies the same identity with the same sigma, so together with the
    round-trip property this certifies the forward map too.  J is the
    inverse map's forward-mode tangent; goldfish-commutativity pairs the
    closed-form goldfish_gradients, so the two share no derivative.
    """
    W = symplectic_form(datum)
    J = duality_jacobian(datum, point)
    M = J.T @ W @ J
    r_plus = float(np.linalg.norm(M - W, "fro"))
    r_minus = float(np.linalg.norm(M + W, "fro"))
    return (r_plus, 1.0) if r_plus <= r_minus else (r_minus, -1.0)
