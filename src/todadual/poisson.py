"""Finite-difference commutativity certificates for both Hamiltonian families.

Both families live on a phase space with the bracket
{f, g} = s^{-1} sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i), where s is the
per-family symplectic scale (1 for A, 2 for B/C/D).  Derivatives are
central finite differences on the flat vector z = (momenta, positions),
one pass at BRACKET_STEP.  The stencil's error is truncation, O(h^2); at
this width the worst normalized bracket of either commuting family sits
several decades under the commutativity tolerance, so no extrapolation is
run.  The commutativity matrix differentiates the whole Hamiltonian vector
with one stencil and takes every pairing from the resulting Jacobian.
central_difference is the package's one finite-difference routine; the
duality Jacobian runs on it too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError
from .goldfish import GoldfishPoint, goldfish_hamiltonians
from .rootsys import RootDatum
from .toda import TodaPoint, symplectic_scale, toda_hamiltonians

# Width of the one central stencil.  Over every family at ranks 1-8, seeds
# 0-4 and the four verify draws per seed, the worst normalized bracket was
# 6.9e-10 (D8 goldfish) at this width, 1.05e-9 at 2e-5 (truncation, h^2)
# and 2.0e-9 at 5e-6 (the D-family goldfish rounding floor).
BRACKET_STEP = 1.0e-5


def flatten_point(point) -> np.ndarray:
    """Flat phase vector (momenta first) for either kind of point."""
    if isinstance(point, TodaPoint):
        return np.concatenate([point.p, point.q])
    if isinstance(point, GoldfishPoint):
        return np.concatenate([point.phat, point.qhat])
    raise ValidationError(f"unsupported point type {type(point).__name__}")


def central_difference(f: Callable[[np.ndarray], np.ndarray], z: np.ndarray, step: float) -> np.ndarray:
    """Central differences of f at z; row j is df/dz_j, a scalar or a vector."""
    rows = []
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        rows.append((np.asarray(f(zp)) - np.asarray(f(zm))) / (2.0 * step))
    return np.array(rows)


def commutativity_matrix(datum: RootDatum, point) -> np.ndarray:
    """Normalized |{H_j, H_k}| over all pairs of the point's own family.

    A TodaPoint gets the trace Hamiltonians, a GoldfishPoint the dual
    Hamiltonians; any other point raises ValidationError.  Entry (j, k) is
    |{H_j+1, H_k+1}| / (|grad H_j+1| |grad H_k+1|) so the integrability
    certificate is scale-free; the diagonal is exactly zero.
    One stencil differentiates the whole vector (H_1, ..., H_n) into a
    Jacobian J (rows H_k, columns (p, q)); the brackets are the pairing
    (J_q J_p^T - J_p J_q^T) / s, and the norms are the rows of the same J.
    """
    z = flatten_point(point)
    n = datum.algebra.rank
    if z.size != 2 * n:
        raise ValidationError(f"phase vector must have length {2 * n}, got {z.size}")
    if isinstance(point, TodaPoint):
        vector = lambda z: toda_hamiltonians(datum, TodaPoint(q=z[n:], p=z[:n]))
    else:
        vector = lambda z: goldfish_hamiltonians(datum, GoldfishPoint(qhat=z[n:], phat=z[:n]))
    s = float(symplectic_scale(datum))
    J = central_difference(vector, z, BRACKET_STEP).T
    brackets = (J[:, n:] @ J[:, :n].T - J[:, :n] @ J[:, n:].T) / s
    norms = np.maximum(np.linalg.norm(J, axis=1), 1.0e-300)
    out = np.abs(brackets) / np.outer(norms, norms)
    np.fill_diagonal(out, 0.0)
    return out
