"""The dense Cauchy-type matrix of a spec, the tests' oracle for its product-form minors."""

import numpy as np

from todadual.moser import RuijsenaarsMatrixSpec


def build_ruijsenaars_matrix(spec: RuijsenaarsMatrixSpec) -> np.ndarray:
    """Lower-triangular matrix M with M[j,j] = b_j and column recurrence
    M[i,j] = M[i-1,j] / (x_j - x_i) below the diagonal."""
    b, x = spec.b, spec.x
    m = spec.size
    M = np.zeros((m, m))
    for j in range(m):
        M[j, j] = b[j]
        col = b[j]
        for i in range(j + 1, m):
            col = col / (x[j] - x[i])
            M[i, j] = col
    return M
