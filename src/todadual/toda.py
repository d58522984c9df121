"""Open Toda chains in the symmetric (Lax) gauge.

The Lax matrix is X = sum_i p_i h_i + sum_alpha e^{(alpha, q)}
(e_alpha + e_{-alpha}) over the simple roots; it is real symmetric and lies
in the algebra.  The commuting Hamiltonians are trace powers,

    family A:      H_k = Tr(X^k) / k,        k = 1..n,
    families BCD:  H_k = Tr(X^{2k}) / (4k),  k = 1..n,

and the physical (quadratic) Hamiltonian is H_2 for family A and H_1 for
B/C/D.  The Poisson structure carries a per-family scale s (1 for A, 2 for
B/C/D): {q_i, p_j} = delta_ij / s, so Hamilton's equations read
dz/dt = s^{-1} (dH/dp, -dH/dq).  Gradients are exact: dH_k = Tr(G dX) with
G = X^{k-1} for A and G = X^{2k-1} / 2 for B/C/D, paired against the Cartan
generators and the simple root vectors.  The flow uses the implicit
midpoint rule, which preserves the quadratic invariants of the exact flow
to the iteration tolerance.

Each simple-root term fills at most four entries of X, so no dense
(rank, N, N) stack is touched: one scatter kernel, `_lax`, writes the
diagonal p @ cartan_rows and the root weights at the index tables of
`RootDatum` (root_flat, root_index, root_sign), for one point or a stack
of points, and the gradient gathers G at root_flat_t and sums per root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepFailureError, ValidationError
from .rootsys import RootDatum, cartan_pattern, project_lower_nilpotent

# Fixed-point iteration control for the implicit midpoint rule.
MIDPOINT_TOL = 1.0e-12
MIDPOINT_MAX_ITER = 100


@dataclass(frozen=True)
class TodaPoint:
    """Positions q and momenta p of the chain."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if q.ndim != 1 or q.shape != p.shape:
            raise ValidationError(f"q and p must be equal-length vectors, got {q.shape} and {p.shape}")
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValidationError("non-finite coordinates")


def symplectic_scale(datum: RootDatum) -> int:
    """Poisson scale s: 1 for family A, 2 for B/C/D."""
    return 1 if datum.algebra.family == "A" else 2


@dataclass(frozen=True)
class SymplecticForm:
    """Block form s * [[0, I], [-I, 0]] in (p, q) coordinate ordering."""

    scale: int
    rank: int

    def matrix(self) -> np.ndarray:
        n = self.rank
        out = np.zeros((2 * n, 2 * n))
        out[:n, n:] = self.scale * np.eye(n)
        out[n:, :n] = -self.scale * np.eye(n)
        return out


def _check_rank(datum: RootDatum, point: TodaPoint) -> None:
    n = datum.algebra.rank
    if point.q.shape != (n,):
        raise ValidationError(f"point rank {point.q.shape} does not match algebra rank {n}")


def _lax(datum: RootDatum, q: np.ndarray, p: np.ndarray):
    """Lax matrices X (..., N, N) and root weights w = exp((alpha, q)) (..., num_roots).

    q and p have shape (n,) or (..., n); no validation.  X is zero but for
    the scattered diagonal p @ cartan_rows and the entries +/- w of the
    simple roots.
    """
    N = datum.size
    w = np.exp(q @ datum.alpha_coeffs.T)
    X = np.zeros(q.shape[:-1] + (N * N,))
    X[..., :: N + 1] = p @ datum.cartan_rows
    X[..., datum.root_flat] = w[..., datum.root_index] * datum.root_sign
    return X.reshape(q.shape[:-1] + (N, N)), w


def build_lax(datum: RootDatum, point: TodaPoint) -> np.ndarray:
    """Real symmetric Lax matrix at a phase-space point."""
    _check_rank(datum, point)
    return _lax(datum, point.q, point.p)[0]


def toda_group_element(datum: RootDatum, point: TodaPoint) -> np.ndarray:
    """Diagonal group element exp(sum_i q_i h_i) paired with the Lax matrix."""
    return np.diag(np.exp(cartan_pattern(datum, point.q)))


def toda_momentum_residual(datum: RootDatum, point: TodaPoint) -> float:
    """Frobenius norm of Pr_lower(g X g^{-1}) - lam in the diagonal gauge.

    With g diagonal the conjugation is an entrywise rescaling; the strictly
    lower part must reproduce the fixed subdiagonal pattern lam.  The
    compact-projection half of the constraint, Pr_k(X) = 0, holds exactly
    because X is real symmetric by construction.
    """
    d = np.exp(cartan_pattern(datum, point.q))
    X = build_lax(datum, point)
    conj = X * np.outer(d, 1.0 / d)
    return float(np.linalg.norm(project_lower_nilpotent(conj) - datum.momentum, "fro"))


def quadratic_index(datum: RootDatum) -> int:
    """Index k of the physical quadratic Hamiltonian in the trace family."""
    if datum.algebra.family == "A":
        if datum.algebra.rank < 2:
            raise ValidationError("family A has no quadratic invariant at rank 1")
        return 2
    return 1


def _trace_hamiltonians(datum: RootDatum, X: np.ndarray, kmax: int) -> np.ndarray:
    """Trace powers (H_1, ..., H_kmax) of built Lax matrices X (..., N, N), shape (..., kmax)."""
    values = np.empty(X.shape[:-2] + (kmax,))
    if datum.algebra.family == "A":
        P, step, scale = X, X, 1.0
    else:
        P = step = X @ X
        scale = 4.0
    values[..., 0] = np.trace(P, axis1=-2, axis2=-1) / scale
    for k in range(2, kmax + 1):
        P = P @ step
        values[..., k - 1] = np.trace(P, axis1=-2, axis2=-1) / (scale * k)
    return values


def toda_hamiltonians(datum: RootDatum, point: TodaPoint, kmax: int | None = None) -> np.ndarray:
    """Trace-power Hamiltonians (H_1, ..., H_kmax); kmax defaults to the rank."""
    n = datum.algebra.rank
    kmax = n if kmax is None else int(kmax)
    if not 1 <= kmax <= n:
        raise ValidationError(f"kmax must lie in 1..{n}, got {kmax}")
    return _trace_hamiltonians(datum, build_lax(datum, point), kmax)


def toda_hamiltonian(datum: RootDatum, point: TodaPoint, k: int) -> float:
    """Single trace-power Hamiltonian H_k."""
    if not 1 <= k <= datum.algebra.rank:
        raise ValidationError(f"k must lie in 1..{datum.algebra.rank}, got {k}")
    return float(toda_hamiltonians(datum, point, kmax=k)[k - 1])


def equations_of_motion(datum: RootDatum, point: TodaPoint, k: int):
    """Hamiltonian vector field of H_k: (dq/dt, dp/dt).

    Exact gradient of the trace power: dH_k = Tr(G dX) with G = X^{k-1}
    (A) or X^{2k-1} / 2 (B/C/D), so dH/dp_i = Tr(G h_i) and
    dH/dq = alpha_coeffs^T (w * Tr(G (e_alpha + e_-alpha))) with
    w = exp((alpha, q)); divided by the per-family Poisson scale.  Both
    traces are gathers: the diagonal of G against cartan_rows, and G at
    root_flat_t summed per root with the entry signs.
    """
    if not 1 <= k <= datum.algebra.rank:
        raise ValidationError(f"k must lie in 1..{datum.algebra.rank}, got {k}")
    _check_rank(datum, point)
    X, w = _lax(datum, point.q, point.p)
    if datum.algebra.family == "A":
        G = np.linalg.matrix_power(X, k - 1)
    else:
        G = 0.5 * np.linalg.matrix_power(X, 2 * k - 1)
    G = G.ravel()
    s = float(symplectic_scale(datum))
    dH_dp = datum.cartan_rows @ G[:: datum.size + 1]
    root_traces = np.bincount(
        datum.root_index, weights=datum.root_sign * G[datum.root_flat_t], minlength=datum.num_roots
    )
    dH_dq = datum.alpha_coeffs.T @ (w * root_traces)
    return dH_dp / s, -dH_dq / s


def integrate_flow(
    datum: RootDatum,
    point: TodaPoint,
    k: int,
    dt: float,
    steps: int,
    tol: float = MIDPOINT_TOL,
    max_iter: int = MIDPOINT_MAX_ITER,
) -> np.ndarray:
    """Implicit-midpoint trajectory of the H_k flow.

    Returns an array of shape (steps + 1, 2n); each row is (q, p) at one
    time.  Every step solves z' = z + dt * f((z + z')/2) by fixed-point
    iteration to `tol` in the sup norm; non-convergence within `max_iter`,
    or a floating-point overflow or invalid value (a diverging flow),
    raises StepFailureError naming the step.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    if not np.isfinite(dt):
        raise ValidationError("dt must be finite")
    n = datum.algebra.rank

    def field(z):
        dq, dp = equations_of_motion(datum, TodaPoint(q=z[:n], p=z[n:]), k)
        return np.concatenate([dq, dp])

    traj = np.empty((steps + 1, 2 * n))
    z = np.concatenate([point.q, point.p])
    traj[0] = z
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, steps + 1):
                w = z + dt * field(z)
                for _ in range(max_iter):
                    w_next = z + dt * field((z + w) / 2.0)
                    delta = float(np.max(np.abs(w_next - w)))
                    w = w_next
                    if delta <= tol:
                        break
                else:
                    raise StepFailureError(f"midpoint iteration stalled at step {step} (delta {delta:.3e})")
                z = w
                traj[step] = z
    except FloatingPointError as exc:
        raise StepFailureError(f"flow diverged at step {step}: {exc}") from None
    return traj
