"""Central differences, the tests' oracle for the package's exact derivatives."""

import numpy as np


def central_difference(f, z: np.ndarray, step: float) -> np.ndarray:
    """Central differences of f at z; row j is df/dz_j, a scalar or a vector."""
    rows = []
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        rows.append((np.asarray(f(zp)) - np.asarray(f(zm))) / (2.0 * step))
    return np.array(rows)
