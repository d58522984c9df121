"""Central differences, the tests' oracle for the package's exact derivatives."""

import numpy as np

from todadual.errors import ValidationError
from todadual.goldfish import GoldfishPoint
from todadual.toda import TodaPoint


def flatten_point(point) -> np.ndarray:
    """Flat phase vector (momenta first) for either kind of point: the stencil's z."""
    if isinstance(point, TodaPoint):
        return np.concatenate([point.p, point.q])
    if isinstance(point, GoldfishPoint):
        return np.concatenate([point.phat, point.qhat])
    raise ValidationError(f"unsupported point type {type(point).__name__}")


def central_difference(f, z: np.ndarray, step: float) -> np.ndarray:
    """Central differences of f at z; row j is df/dz_j, a scalar or a vector."""
    rows = []
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        rows.append((np.asarray(f(zp)) - np.asarray(f(zm))) / (2.0 * step))
    return np.array(rows)
