"""Finite-difference Poisson brackets and commutativity certificates.

Both Hamiltonian families live on a phase space with the bracket
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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .goldfish import GoldfishPoint, goldfish_hamiltonian, goldfish_hamiltonians
from .rootsys import AlgebraType, RootDatum
from .toda import TodaPoint, symplectic_scale, toda_hamiltonian, toda_hamiltonians

# Width of the one central stencil.  Over every family at ranks 1-8, seeds
# 0-4 and the four verify draws per seed, the worst normalized bracket was
# 6.9e-10 (D8 goldfish) at this width, 1.05e-9 at 2e-5 (truncation, h^2)
# and 2.0e-9 at 5e-6 (the D-family goldfish rounding floor).
BRACKET_STEP = 1.0e-5

OBSERVABLE_FAMILIES = ("toda", "goldfish")


@dataclass(frozen=True)
class ObservableHandle:
    """One member of a commuting family: H_k (toda) or Hhat_k (goldfish)."""

    family: str
    index: int
    algebra: AlgebraType

    def __post_init__(self):
        fam = str(self.family).lower()
        if fam not in OBSERVABLE_FAMILIES:
            raise ValidationError(f"unknown observable family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if not 1 <= self.index <= self.algebra.rank:
            raise ValidationError(
                f"index must lie in 1..{self.algebra.rank}, got {self.index}"
            )


def flatten_point(point) -> np.ndarray:
    """Flat phase vector (momenta first) for either kind of point."""
    if isinstance(point, TodaPoint):
        return np.concatenate([point.p, point.q])
    if isinstance(point, GoldfishPoint):
        return np.concatenate([point.phat, point.qhat])
    raise ValidationError(f"unsupported point type {type(point).__name__}")


def observable_function(datum: RootDatum, handle: ObservableHandle) -> Callable[[np.ndarray], float]:
    """Evaluator of the observable on flat phase vectors."""
    if handle.algebra != datum.algebra:
        raise ValidationError("observable algebra does not match the datum")
    n = datum.algebra.rank
    k = handle.index
    if handle.family == "toda":
        return lambda z: toda_hamiltonian(datum, TodaPoint(q=z[n:], p=z[:n]), k)
    return lambda z: goldfish_hamiltonian(datum, GoldfishPoint(qhat=z[n:], phat=z[:n]), k)


def observable_value(datum: RootDatum, handle: ObservableHandle, point) -> float:
    return observable_function(datum, handle)(flatten_point(point))


def central_difference(f: Callable[[np.ndarray], np.ndarray], z: np.ndarray, step: float) -> np.ndarray:
    """Central differences of f at z; row j is df/dz_j, a scalar or a vector."""
    rows = []
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        rows.append((np.asarray(f(zp)) - np.asarray(f(zm))) / (2.0 * step))
    return np.array(rows)


def _pairing(scale: float, gf: np.ndarray, gg: np.ndarray) -> float:
    n = gf.size // 2
    return float(gf[n:] @ gg[:n] - gf[:n] @ gg[n:]) / scale


def poisson_bracket_functions(
    datum: RootDatum,
    f: Callable[[np.ndarray], float],
    g: Callable[[np.ndarray], float],
    z: np.ndarray,
) -> float:
    """Bracket of two scalar functions of the flat phase vector."""
    s = float(symplectic_scale(datum))
    z = np.asarray(z, dtype=float)
    if z.size != 2 * datum.algebra.rank:
        raise ValidationError(f"phase vector must have length {2 * datum.algebra.rank}")
    gf = central_difference(f, z, BRACKET_STEP)
    gg = central_difference(g, z, BRACKET_STEP)
    return _pairing(s, gf, gg)


def poisson_bracket(datum: RootDatum, f: ObservableHandle, g: ObservableHandle, point) -> float:
    """Bracket of two observables of the same family at a point.

    {H, H} returns exactly 0.0 (antisymmetry short-circuit, no stencil
    evaluation); everything else goes through central differences.
    """
    if f.family != g.family or f.algebra != g.algebra:
        raise ValidationError("observables must share family and algebra")
    if f == g:
        return 0.0
    ff = observable_function(datum, f)
    gg = observable_function(datum, g)
    return poisson_bracket_functions(datum, ff, gg, flatten_point(point))


def commutativity_matrix(datum: RootDatum, family: str, point) -> np.ndarray:
    """Normalized |{H_j, H_k}| over all pairs of one family.

    Entry (j, k) is |{H_j+1, H_k+1}| / (|grad H_j+1| |grad H_k+1|) so the
    integrability certificate is scale-free; the diagonal is exactly zero.
    One stencil differentiates the whole vector (H_1, ..., H_n) into a
    Jacobian J (rows H_k, columns (p, q)); the brackets are the pairing
    (J_q J_p^T - J_p J_q^T) / s, and the norms are the rows of the same J.
    """
    family = ObservableHandle(family, 1, datum.algebra).family
    n = datum.algebra.rank
    if family == "toda":
        vector = lambda z: toda_hamiltonians(datum, TodaPoint(q=z[n:], p=z[:n]))
    else:
        vector = lambda z: goldfish_hamiltonians(datum, GoldfishPoint(qhat=z[n:], phat=z[:n]))
    z = flatten_point(point)
    s = float(symplectic_scale(datum))
    J = central_difference(vector, z, BRACKET_STEP).T
    brackets = (J[:, n:] @ J[:, :n].T - J[:, :n] @ J[:, n:].T) / s
    norms = np.maximum(np.linalg.norm(J, axis=1), 1.0e-300)
    out = np.abs(brackets) / np.outer(norms, norms)
    np.fill_diagonal(out, 0.0)
    return out
