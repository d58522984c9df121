"""Open Toda chains in the symmetric (Lax) gauge.

The Lax matrix is X = sum_i p_i h_i + sum_alpha e^{(alpha, q)}
(e_alpha + e_{-alpha}) over the simple roots; it is real symmetric and lies
in the algebra.  The Poisson structure carries a per-family scale s (1 for
A, 2 for B/C/D): {q_i, p_j} = delta_ij / s, so Hamilton's equations read
dz/dt = s^{-1} (dH/dp, -dH/dq).  The same s is the trace degree d of the
commuting Hamiltonians, the trace powers

    H_k = Tr(X^{dk}) / (d^2 k),  k = 1..n,

so the physical (quadratic) Hamiltonian has index 2/d: H_2 for family A
and H_1 for B/C/D.  The flow uses the implicit midpoint rule, which
preserves the quadratic invariants of the exact flow to the iteration
tolerance.  integrate_flow solves the midpoint equations of a window of
consecutive steps together, by Picard sweeps over the whole window
(discrete waveform relaxation), starting from the ramp that extends the
previous window's last increment, until no row moves by more than
MIDPOINT_TOL between two sweeps (at most MIDPOINT_MAX_ITER sweeps).  The
window grows from one step to WINDOW_CAP while its sweeps settle fast and
halves when they stop contracting; at dt = 1e-3, 1000 steps take 80-100
kernel calls and 7-9 row evaluations per step.

X is linear in the coordinates [p, w], w = exp((alpha, q)), over the
flattened symmetric generators in RootDatum.lax_basis (the h_i, then
e_alpha + e_{-alpha}), so one product [p, w] @ lax_basis builds X for one
point or a whole trajectory.  The same table reads gradients: dH_k =
Tr(G dX) with G = X^{dk-1} / d, and because every generator is symmetric,
t = lax_basis @ vec(G) holds the traces of G against the generators;
dH/dp = t[:n] and dH/dq = alpha_coeffs^T (w * t[n:]).
toda_gradients reads every H_k at once from the stacked power chain.
For the physical Hamiltonian G is linear in X and the generators are
orthogonal, so t is the entrywise product of the diagonal of lax_gram with
[p, w] up to the factor, and no N x N matrix is built.  integrate_flow
binds the field once per trajectory (_vector_field), whose kernel
evaluates it at a batch of points, and calls it once at the start point
and once per sweep on all of a window's midpoints; each sweep's cumsum
runs straight into the window's trajectory rows.  A root weight past the
float64 range raises ValidationError naming the root.  That check is
_checked_exp, the package's one named-overflow exponential: goldfish and
duality name their Moser weights, Toda-gauge entries and dual
Hamiltonians through it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepFailureError, ValidationError
from .rootsys import RootDatum, cartan_pattern, check_index, check_rank, vector_pair

# Fixed-point iteration control for the implicit midpoint rule.
MIDPOINT_TOL = 1.0e-12
MIDPOINT_MAX_ITER = 100
# integrate_flow's window: at most WINDOW_CAP steps, doubled after a window
# that settles in at most WINDOW_FAST_SWEEPS sweeps.
WINDOW_CAP = 128
WINDOW_FAST_SWEEPS = 8
# Largest x with exp(x) finite in float64.
MAX_EXPONENT = float(np.log(np.finfo(float).max))
# _checked_exp's message for a root weight exp((alpha_i, q)) past the float64 range.
_ROOT_WEIGHT_OVERFLOW = "Lax root weight exp((alpha_{i}, q)) overflows float64: (alpha_{i}, q) = {e:.6g}"
# _checked_exp's message for a diagonal entry of g = exp(sum_i q_i h_i) past the float64 range.
_GROUP_OVERFLOW = "group element exp(sum_i q_i h_i) overflows float64: diagonal entry {i} = exp({e:.6g})"
# The message for an exact gradient dH_k = Tr(X^{dk-1} dX) / d past the float64 range.
_GRADIENT_OVERFLOW = "gradient of Toda Hamiltonian H_{k}, a trace against X^{power}, overflows float64"


@dataclass(frozen=True)
class TodaPoint:
    """Positions q and momenta p of the chain."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        vector_pair(self, "q", "p")


def symplectic_scale(datum: RootDatum) -> int:
    """Poisson scale s, also the trace degree d: 1 for family A, 2 for B/C/D."""
    return 1 if datum.algebra.family == "A" else 2


def symplectic_form(datum: RootDatum) -> np.ndarray:
    """Block form s * [[0, I], [-I, 0]] in (p, q) coordinate ordering."""
    n, s = datum.algebra.rank, symplectic_scale(datum)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = s * np.eye(n)
    out[n:, :n] = -s * np.eye(n)
    return out


def _root_weights(datum: RootDatum, q: np.ndarray) -> np.ndarray:
    """Root weights w = exp((alpha, q)), shape (..., num_roots); no shape validation.

    One _checked_exp call: an exponent past MAX_EXPONENT raises
    ValidationError naming the root alpha_i before np.exp can overflow, since
    an infinite weight times a zero of the basis would be NaN.
    """
    return _checked_exp(np.dot(q, datum.alpha_coeffs.T), _ROOT_WEIGHT_OVERFLOW)


def _checked_exp(exponents: np.ndarray, message: str) -> np.ndarray:
    """exp(exponents), or ValidationError(message) for the first entry past MAX_EXPONENT or NaN.

    message is a template: {i} is the entry's 1-based index along the last
    axis and {e} its exponent (see _overflow).
    """
    # np.max keeps a NaN, which a Python max over the entries can skip
    if exponents.size and not exponents.max() <= MAX_EXPONENT:
        raise _overflow(exponents, message)
    return np.exp(exponents)


def _overflow(exponents: np.ndarray, message: str) -> ValidationError:
    """The error naming the first entry of exponents past MAX_EXPONENT (or NaN): message.format(i=..., e=...)."""
    flat = int(np.argmax(~(exponents <= MAX_EXPONENT)))
    return ValidationError(message.format(i=flat % exponents.shape[-1] + 1, e=exponents.flat[flat]))


def _lax(datum: RootDatum, q: np.ndarray, p: np.ndarray):
    """Lax matrices X (..., N, N) and root weights w (..., num_roots).

    q and p have shape (n,) or (..., n); X = [p, w] @ lax_basis, which is
    exact: every entry of X receives one nonzero term.
    """
    N = datum.size
    w = _root_weights(datum, q)
    X = np.dot(np.concatenate([p, w], axis=-1), datum.lax_basis)
    return X.reshape(q.shape[:-1] + (N, N)), w


def build_lax(datum: RootDatum, point: TodaPoint) -> np.ndarray:
    """Real symmetric Lax matrix at a phase-space point."""
    check_rank(datum, point.q)
    return _lax(datum, point.q, point.p)[0]


def toda_group_element(datum: RootDatum, point: TodaPoint) -> np.ndarray:
    """Diagonal group element exp(sum_i q_i h_i) paired with the Lax matrix."""
    return np.diag(_checked_exp(cartan_pattern(datum, point.q), _GROUP_OVERFLOW))


def toda_momentum_residual(datum: RootDatum, point: TodaPoint) -> float:
    """Frobenius norm of Pr_lower(g X g^{-1}) - lam in the diagonal gauge.

    With g diagonal the conjugation is an entrywise rescaling; the strictly
    lower part must reproduce the fixed subdiagonal pattern lam.  The
    compact-projection half of the constraint, Pr_k(X) = 0, holds exactly
    because X is real symmetric by construction.  Entries of g or g X g^{-1}
    past the float64 range raise ValidationError.
    """
    d = _checked_exp(cartan_pattern(datum, point.q), _GROUP_OVERFLOW)
    X = build_lax(datum, point)
    with np.errstate(all="ignore"):
        conj = X * np.outer(d, 1.0 / d)
    if not np.isfinite(conj).all():
        raise ValidationError("conjugated Lax matrix g X g^{-1} leaves the float64 range")
    return float(np.linalg.norm(np.tril(conj, -1) - datum.momentum, "fro"))


def quadratic_index(datum: RootDatum) -> int:
    """Index 2/d of the physical quadratic Hamiltonian in the trace family."""
    k = 2 // symplectic_scale(datum)
    if k > datum.algebra.rank:
        raise ValidationError("family A has no quadratic invariant at rank 1")
    return k


def _trace_hamiltonians(datum: RootDatum, X: np.ndarray) -> np.ndarray:
    """Trace powers (H_1, ..., H_n) of built Lax matrices X (..., N, N), shape (..., n).

    A trace power past the float64 range at any of the matrices raises
    ValidationError naming it.
    """
    n, d = datum.algebra.rank, symplectic_scale(datum)
    values = np.empty(X.shape[:-2] + (n,))
    with np.errstate(over="ignore", invalid="ignore"):
        P = step = np.linalg.matrix_power(X, d)
        values[..., 0] = np.trace(P, axis1=-2, axis2=-1) / (d * d)
        for k in range(2, n + 1):
            P = P @ step
            values[..., k - 1] = np.trace(P, axis1=-2, axis2=-1) / (d * d * k)
    finite = np.isfinite(values).reshape(-1, n).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise ValidationError(f"Toda Hamiltonian H_{k}, a trace of X^{d * k}, overflows float64")
    return values


def toda_hamiltonians(datum: RootDatum, point: TodaPoint) -> np.ndarray:
    """Trace-power Hamiltonians (H_1, ..., H_n), n the rank.

    A trace power past the float64 range raises ValidationError naming it.
    """
    return _trace_hamiltonians(datum, build_lax(datum, point))


def equations_of_motion(datum: RootDatum, point: TodaPoint, k: int):
    """Hamiltonian vector field of H_k: (dq/dt, dp/dt).

    Exact gradient of the trace power: dH_k = Tr(G dX) with G = X^{dk-1} / d.
    The traces t = lax_basis @ vec(G) of G against the symmetric generators
    give dH/dp = t[:n] and dH/dq = alpha_coeffs^T (w * t[n:]) with
    w = exp((alpha, q)); both are divided by the Poisson scale s = d.  For
    the physical Hamiltonian G is linear in X and the generators are
    orthogonal, so t is the entrywise product of the Gram diagonal with
    [p, w] up to the factor, and X is never built.  The checks, a field past
    float64 included, run here; the field itself is _vector_field's kernel.
    """
    check_index(datum.algebra.rank, k)
    check_rank(datum, point.q)
    n = datum.algebra.rank
    out = np.empty((1, 2 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        _vector_field(datum, k)(point.q[None], point.p[None], out)
    if not np.isfinite(out).all():
        raise ValidationError(_GRADIENT_OVERFLOW.format(k=k, power=symplectic_scale(datum) * k - 1))
    return out[0, :n], out[0, n:]


def _vector_field(datum: RootDatum, k: int):
    """Kernel f(q, p, out) writing (dq/dt, dp/dt) of H_k at m points into out.

    q and p have shape (m, n) and out shape (m, 2n); row i of out is the
    field at row i of q and p.  Everything a trajectory keeps fixed is bound
    once: n, d and the power dk - 1, the negated root table alpha_coeffs,
    and, for the physical Hamiltonian, the diagonal of lax_gram over d^2
    (d^2 is a power of two, so the pre-scaling is exact), or else the
    transposed basis.  The kernel checks neither k nor the shapes of q and
    p; it reads the root weights through _root_weights, so a weight past
    the float64 range raises its ValidationError.
    """
    n, d = datum.algebra.rank, symplectic_scale(datum)
    power = d * k - 1
    neg_alpha = -datum.alpha_coeffs
    if power == 1:
        gram = datum.lax_gram.diagonal() / (d * d)
        gram_p, gram_w = gram[:n], gram[n:]
    else:
        N, basis = datum.size, datum.lax_basis
        basis_t = basis.T

    def field(q, p, out):
        w = _root_weights(datum, q)
        if power == 1:
            np.multiply(gram_p, p, out=out[:, :n])
            t_w = gram_w * w
        else:
            X = np.dot(np.concatenate([p, w], axis=1), basis).reshape(-1, N, N)
            t = np.dot(np.linalg.matrix_power(X, power).reshape(len(X), N * N), basis_t)
            t /= d * d
            out[:, :n] = t[:, :n]
            t_w = t[:, n:]
        np.matmul(w * t_w, neg_alpha, out=out[:, n:])

    return field


def toda_gradients(datum: RootDatum, point: TodaPoint) -> np.ndarray:
    """Exact gradients of (H_1, ..., H_n): row k-1 is dH_k in (p, q) order.

    The power chain G_k = X^{dk-1} / d is stacked flat, and G @ lax_basis.T
    holds the traces of every G_k against the generators at once; rows are
    not divided by the Poisson scale; the first past float64 is named.
    """
    check_rank(datum, point.q)
    n, N, d = datum.algebra.rank, datum.size, symplectic_scale(datum)
    X, w = _lax(datum, point.q, point.p)
    G = np.empty((n, N * N))
    with np.errstate(over="ignore", invalid="ignore"):
        P, step = np.linalg.matrix_power(X, d - 1), np.linalg.matrix_power(X, d)
        for k in range(n):
            G[k] = P.ravel()
            P = P @ step
        t = (G @ datum.lax_basis.T) / d
        grads = np.hstack([t[:, :n], (w * t[:, n:]) @ datum.alpha_coeffs])
    finite = np.isfinite(grads).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise ValidationError(_GRADIENT_OVERFLOW.format(k=k, power=d * k - 1))
    return grads


def integrate_flow(datum: RootDatum, point: TodaPoint, k: int, dt: float, steps: int) -> np.ndarray:
    """Implicit-midpoint trajectory of the H_k flow.

    Returns an array of shape (steps + 1, 2n); each row is (q, p) at one
    time.  Every step solves z' = z + dt * f((z + z')/2).  The equations
    of a window of m consecutive steps after the last settled row z_0 are
    solved together by Picard sweeps over the whole window (discrete
    waveform relaxation):

        z_{i+1} = z_0 + dt * sum_{j <= i} f((z_j + z_{j+1})/2),  i < m,

    whose fixed point is the midpoint trajectory.  A sweep forms the m
    midpoints in a bound buffer, evaluates the field at all of them in one
    kernel call, scales by dt and writes the cumsum straight into the
    window's trajectory rows, then adds z_0.  The sweeps start from the
    ramp z_0 + j * s, j = 1..m, with s the last increment dt * f of the
    last settled window's final sweep (dt * f(z_0) for the first window),
    and stop once no row moved by more than MIDPOINT_TOL in the sup norm
    between two sweeps.

    The window starts at one step and doubles after a window settled in at
    most WINDOW_FAST_SWEEPS sweeps, up to WINDOW_CAP.  A window of more
    than one step whose sweep fails to halve the change, overflows, or
    reaches MIDPOINT_MAX_ITER sweeps is redone at half its size; only a
    one-step window raises, so every error names one step.  A start whose
    root weights, or (if steps > 0) vector field f(z_0), overflow raises
    ValidationError; f(z_0) is the one evaluation outside the sweeps.
    Non-convergence within MIDPOINT_MAX_ITER sweeps, or a floating-point
    overflow or invalid value (a diverging flow, including a root weight
    leaving the float64 range), raises StepFailureError naming the step.
    """
    if steps < 0:
        raise ValidationError(f"steps must be non-negative, got {steps}")
    check_index(datum.algebra.rank, k)
    check_rank(datum, point.q)
    if not np.isfinite(dt):
        raise ValidationError("dt must be finite")
    _root_weights(datum, point.q)  # an overflowing start is a bad input, not a diverging flow
    n = datum.algebra.rank
    traj = np.empty((steps + 1, 2 * n))
    traj[0, :n], traj[0, n:] = point.q, point.p
    if not steps:
        return traj
    vector_field = _vector_field(datum, k)
    cap = min(WINDOW_CAP, steps)
    iterate = np.empty((cap + 1, 2 * n))  # row 0 is z_0, then the window's iterate
    mid = np.empty((cap, 2 * n))
    field = np.empty((cap, 2 * n))
    gap = np.empty((cap, 2 * n))  # |z' - z| between two sweeps
    ramp = np.arange(1.0, cap + 1.0)[:, None]
    slope = np.empty((1, 2 * n))  # s: dt * f(z_0), then each settled window's last increment
    # 0-d arrays: a Python float operand costs a numpy call a scalar
    # conversion each time; the products are the same.
    half, step_size = np.array(0.5), np.array(dt, dtype=float)

    def window(settled: int, m: int):
        """Sweeps that settled rows settled+1 .. settled+m; None if a window of m > 1 fails."""
        z, w = iterate[: m + 1], iterate[1 : m + 1]
        rows, mids, f, g = traj[settled + 1 : settled + m + 1], mid[:m], field[:m], gap[:m]
        z[0] = traj[settled]
        np.multiply(ramp[:m], slope, out=w)
        np.add(w, z[0], out=w)
        previous = np.inf
        for sweeps in range(1, MIDPOINT_MAX_ITER + 1):
            np.add(z[:-1], w, out=mids)
            np.multiply(mids, half, out=mids)
            vector_field(mids[:, :n], mids[:, n:], f)
            np.multiply(f, step_size, out=f)
            np.cumsum(f, axis=0, out=rows)
            np.add(rows, z[0], out=rows)
            np.subtract(rows, w, out=g)
            delta = np.abs(g, out=g).max()
            if delta <= MIDPOINT_TOL:
                slope[0] = f[-1]
                return sweeps
            if m > 1 and not delta < 0.5 * previous:
                return None
            previous = delta
            w[:] = rows
        if m > 1:
            return None
        raise StepFailureError(f"midpoint iteration stalled at step {settled + 1} (delta {delta:.3e})")

    settled, size = 0, 1
    with np.errstate(over="raise", invalid="raise"):
        try:
            vector_field(traj[:1, :n], traj[:1, n:], slope)
        except FloatingPointError as exc:
            raise ValidationError(f"vector field of H_{k} overflows float64 at the start point: {exc}") from None
        try:
            np.multiply(slope, step_size, out=slope)
            while settled < steps:
                m = min(size, steps - settled)
                try:
                    sweeps = window(settled, m)
                except (FloatingPointError, ValidationError):
                    if m == 1:
                        raise
                    sweeps = None
                if sweeps is None:
                    size = m // 2
                    continue
                settled += m
                if sweeps <= WINDOW_FAST_SWEEPS:
                    size = min(2 * m, WINDOW_CAP)
        except (FloatingPointError, ValidationError) as exc:
            # Inputs are validated above, so a ValidationError here is a
            # root weight leaving the float64 range mid-flow.
            raise StepFailureError(f"flow diverged at step {settled + 1}: {exc}") from None
    return traj
