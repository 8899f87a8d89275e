"""Independent reference implementations that the tests compare against."""

from functools import reduce

import numpy as np
import scipy.sparse

from driftflow import models as M
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


def t_dependent_drift(dim):
    """A drift linear in z whose coefficient grows with t."""
    e = np.linspace(0.6, 0.8, dim)
    e = tuple(e / np.linalg.norm(e))

    def bound(coords, t):
        return (1.0 + 3.0 * t) * (1.0 + coords[0] + 0.0 * coords[-1])

    def velocity(coords, t):
        b = bound(coords, t)
        return tuple(b * ea for ea in e)

    def evaluate(coords, t, z):
        b = bound(coords, t)
        return tuple(z * b * ea for ea in e)

    return M.DriftFlux(evaluate=evaluate, bound=bound, velocity=velocity)
