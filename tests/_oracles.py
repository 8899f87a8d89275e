"""Independent reference implementations that the tests compare against."""

from functools import reduce

import numpy as np
import scipy.sparse

from driftflow import grid as G
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

    return M.DriftFlux(bound=bound, velocity=velocity)


def assembled_pairing(op, splitting, u_prev, u):
    """A drift step's <f_j, u_j> as (F - w B(w), grad u), assembled on the faces.

    F is the source flux at op.t (zero if none); w B(w) is `drift_flux` at
    the new state u with the implicit weight (fully implicit) or at u_prev
    with theta_M (semi-implicit), subtracted face by face before the pairing.
    """
    F = op.data.source_field(op.t)
    explicit = splitting == "semi-implicit"
    w = (u_prev if explicit else u).values
    comps = tuple(
        (0.0 if F is None else F.components[a]) - op.drift_flux(w, a, explicit=explicit)
        for a in range(op.domain.dim)
    )
    return G.inner_vec(G.VectorField(op.domain, comps), G.gradient(u))
