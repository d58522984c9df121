"""Exact commutativity certificates for both Hamiltonian families.

Both families live on a phase space with the bracket
{f, g} = s^{-1} sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i), where s is the
per-family symplectic scale (1 for A, 2 for B/C/D).  The commutativity
matrix pairs exact gradients of the whole Hamiltonian vector, one engine
call per point: toda.toda_gradients differentiates the trace powers
through the Lax power chain, goldfish.goldfish_gradients the Lanczos pass
on the Moser measure that gives the dual Hamiltonians.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .goldfish import GoldfishPoint, goldfish_gradients
from .rootsys import RootDatum
from .toda import TodaPoint, symplectic_scale, toda_gradients


def flatten_point(point) -> np.ndarray:
    """Flat phase vector (momenta first) for either kind of point."""
    if isinstance(point, TodaPoint):
        return np.concatenate([point.p, point.q])
    if isinstance(point, GoldfishPoint):
        return np.concatenate([point.phat, point.qhat])
    raise ValidationError(f"unsupported point type {type(point).__name__}")


def commutativity_matrix(datum: RootDatum, point) -> np.ndarray:
    """Normalized |{H_j, H_k}| over all pairs of the point's own family.

    A TodaPoint gets the trace Hamiltonians, a GoldfishPoint the dual
    Hamiltonians; any other point raises ValidationError.  Entry (j, k) is
    |{H_j+1, H_k+1}| / (|grad H_j+1| |grad H_k+1|) so the integrability
    certificate is scale-free; the diagonal is exactly zero.
    The exact Jacobian J of (H_1, ..., H_n) (rows H_k, columns (p, q))
    gives the brackets as the pairing (J_q J_p^T - J_p J_q^T) / s and the
    norms as its rows.
    """
    z = flatten_point(point)
    n = datum.algebra.rank
    if z.size != 2 * n:
        raise ValidationError(f"phase vector must have length {2 * n}, got {z.size}")
    if isinstance(point, TodaPoint):
        J = toda_gradients(datum, point)
    else:
        J = goldfish_gradients(datum, point)
    s = float(symplectic_scale(datum))
    brackets = (J[:, n:] @ J[:, :n].T - J[:, :n] @ J[:, n:].T) / s
    norms = np.maximum(np.linalg.norm(J, axis=1), 1.0e-300)
    out = np.abs(brackets) / np.outer(norms, norms)
    np.fill_diagonal(out, 0.0)
    return out
