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
tolerance.  Each step solves its midpoint equation by
fixed-point sweeps until two consecutive iterates agree to MIDPOINT_TOL
(at most MIDPOINT_MAX_ITER sweeps), starting from the degree-4
extrapolation of the trajectory's last five rows; at dt = 1e-3 one field
evaluation settles almost every step.

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
binds the field once per trajectory (_vector_field) and evaluates it on
its midpoint buffer in every sweep.  A root weight past the float64 range
raises ValidationError naming the root.  That check is _checked_exp, the
package's one named-overflow exponential: goldfish and duality name their
Moser weights, Toda-gauge entries and dual Hamiltonians through it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepFailureError, ValidationError
from .rootsys import RootDatum, cartan_pattern, check_index, check_rank, vector_pair

# Fixed-point iteration control for the implicit midpoint rule.
MIDPOINT_TOL = 1.0e-12
MIDPOINT_MAX_ITER = 100
# Weights of the degree-4 extrapolation that starts each midpoint iteration,
# applied to the trajectory's last five rows, oldest first.
PREDICTOR = np.array([1.0, -5.0, 10.0, -10.0, 5.0])
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
    out = np.empty(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        _vector_field(datum, k)(point.q, point.p, out)
    if not np.isfinite(out).all():
        raise ValidationError(_GRADIENT_OVERFLOW.format(k=k, power=symplectic_scale(datum) * k - 1))
    return out[:n], out[n:]


def _vector_field(datum: RootDatum, k: int):
    """Kernel f(q, p, out) writing (dq/dt, dp/dt) of H_k into out, shape (2n,).

    Everything a trajectory keeps fixed is bound once: n, d and the power
    dk - 1, the root table alpha_coeffs and its negated transpose, and, for
    the physical Hamiltonian, the diagonal of lax_gram over d^2 (d^2 is a
    power of two, so the pre-scaling is exact), or else one coords buffer.
    The kernel checks neither k nor the shapes of q and p; a root weight
    past the float64 range still raises _root_weights' ValidationError.
    """
    n, d = datum.algebra.rank, symplectic_scale(datum)
    power = d * k - 1
    alpha_t = datum.alpha_coeffs.T
    # Negating keeps the transposed layout, so the BLAS route and the bits
    # match -(alpha_coeffs^T @ v); a contiguous copy would change both.
    neg_alpha_t = -alpha_t
    if power == 1:
        gram = datum.lax_gram.diagonal() / (d * d)
        gram_p, gram_w = gram[:n], gram[n:]
    else:
        N, basis = datum.size, datum.lax_basis
        coords = np.empty(n + datum.num_roots)

    def field(q, p, out):
        a = np.dot(q, alpha_t)
        # _root_weights' check; a.size guards A1, which has no roots.  A
        # Python max of the few exponents is cheaper than a.max(): a finite
        # q gives no NaN, and the flow's errstate raises on one.
        if a.size and not max(a.tolist()) <= MAX_EXPONENT:
            raise _overflow(a, _ROOT_WEIGHT_OVERFLOW)
        w = np.exp(a)
        if power == 1:
            np.multiply(gram_p, p, out=out[:n])
            t_w = gram_w * w
        else:
            coords[:n], coords[n:] = p, w
            X = np.dot(coords, basis).reshape(N, N)
            t = np.dot(basis, np.linalg.matrix_power(X, power).ravel())
            t /= d * d
            out[:n] = t[:n]
            t_w = t[n:]
        out[n:] = np.dot(neg_alpha_t, w * t_w)

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
    time.  Every step solves z' = z + dt * f((z + z')/2) by fixed-point
    iteration, stopping once two consecutive iterates agree to MIDPOINT_TOL
    in the sup norm.  The iteration starts from the degree-4 extrapolation
    5z_0 - 10z_{-1} + 10z_{-2} - 5z_{-3} + z_{-4} of the trajectory's last
    five rows (the first five steps start from the Euler guess
    z + dt * f(z)), so one field evaluation usually settles a step.
    A start whose root weights or vector field overflow raises
    ValidationError; the field check reads the first sweep of step 1,
    which evaluates exactly f(z_0).  Non-convergence within
    MIDPOINT_MAX_ITER sweeps, or a floating-point overflow or invalid value
    (a diverging flow, including a root weight leaving the float64 range),
    raises StepFailureError naming the step.
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
    # The field is bound once; the loop rewrites the midpoint buffer in
    # place and the kernel reads its q and p views.
    vector_field = _vector_field(datum, k)
    mid = traj[0].copy()
    mid_q, mid_p = mid[:n], mid[n:]
    field = np.empty(2 * n)
    w = None  # the iterate; None until f(z_0) has been evaluated

    def sweep(z, w):
        """z + dt * f((z + w)/2): one fixed-point sweep from the iterate w."""
        np.add(z, w, out=mid)
        np.multiply(mid, 0.5, out=mid)
        vector_field(mid_q, mid_p, field)
        return z + dt * field

    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, steps + 1):
                z = traj[step - 1]
                if step > PREDICTOR.size:
                    w = np.dot(PREDICTOR, traj[step - PREDICTOR.size : step])
                else:
                    w = sweep(z, z)
                for _ in range(MIDPOINT_MAX_ITER):
                    w_next = sweep(z, w)
                    delta = float(np.abs(w_next - w).max())
                    w = w_next
                    if delta <= MIDPOINT_TOL:
                        break
                else:
                    raise StepFailureError(f"midpoint iteration stalled at step {step} (delta {delta:.3e})")
                traj[step] = w
    except (FloatingPointError, ValidationError) as exc:
        if w is None:
            raise ValidationError(f"vector field of H_{k} overflows float64 at the start point: {exc}") from None
        # Inputs are validated above, so a ValidationError here is a root
        # weight leaving the float64 range mid-flow.
        raise StepFailureError(f"flow diverged at step {step}: {exc}") from None
    return traj
