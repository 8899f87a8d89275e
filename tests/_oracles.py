"""Independent reference implementations that the tests compare against."""

from functools import reduce

import numpy as np
import scipy.sparse

from driftflow.grid import BoxDomain


def laplacian_matrix(domain: BoxDomain) -> scipy.sparse.csr_matrix:
    """Assembled sparse -Laplacian, row-major node ordering.

    A Kronecker sum of 1D second-difference matrices, built without any of
    the matrix-free operators or the sine transform it is checked against.
    """
    blocks = []
    for h, n in zip(domain.spacing, domain.cells):
        m = n - 1
        ones = np.ones(m)
        blocks.append(
            scipy.sparse.spdiags([-ones, 2 * ones, -ones], [-1, 0, 1], m, m) / h**2
        )
    eyes = [scipy.sparse.eye(n - 1, format="csr") for n in domain.cells]
    total = None
    for a, B in enumerate(blocks):
        factors = [B if i == a else eyes[i] for i in range(domain.dim)]
        term = reduce(scipy.sparse.kron, factors)
        total = term if total is None else total + term
    return total.tocsr()
