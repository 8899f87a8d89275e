"""Independent reference implementations that the tests compare against."""

from functools import reduce

import numpy as np
import scipy.sparse

from driftflow import grid as G
from driftflow import lorentz as L
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


def laplacian(u: G.GridFunction) -> G.GridFunction:
    """Positive Dirichlet Laplacian -div(grad u), from the staggered operators."""
    return G.GridFunction(u.domain, -G.divergence(G.gradient(u)).values)


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


def split_at_level(data, level, times):
    """Weak-L^N norms of the remainder b - T_M(b) and of min(b, M), both measured.

    The sup over `times` of each, with b sampled afresh for each part.
    """
    N, w = data.domain.dim, data.domain.node_weight
    rest = trunc = 0.0
    for t in times:
        b = data.drift_bound_grid(t).values
        rest = max(rest, L.weak_norm_of_values(np.maximum(b - level, 0.0), w, N))
    for t in times:
        b = data.drift_bound_grid(t).values
        trunc = max(trunc, L.weak_norm_of_values(np.minimum(b, level), w, N))
    return rest, trunc


def small_data_reference(data, levels):
    """The decay small-data check, re-measuring both parts at every candidate.

    `levels` are the candidate levels, a plan's, which a drift needs.
    """
    if not data.has_drift:
        return True, {"drift": 0.0}
    N = data.domain.dim
    alpha = data.diffusion.alpha
    if N < 3:
        return False, {"reason": "embedding constant undefined below dimension 3"}
    S = L.sobolev_constant(N, 2)
    bound = alpha / (4 * S)
    times = M.certificate_times(data)
    best = None
    for lv in sorted(set(levels)):
        rest, trunc = split_at_level(data, lv, times)
        worst = max(rest, trunc)
        if best is None or worst < best[0]:
            best = (worst, lv, rest, trunc)
        if worst <= bound:
            break
    worst, lv, rest, trunc = best
    detail = {
        "level": lv,
        "remainder_weak_norm": rest,
        "truncated_weak_norm": trunc,
        "bound": bound,
        "literal_level_product": lv * S,
        "literal_bound": alpha / 4,
    }
    return worst <= bound, detail
