"""Truncated monotone operators and their resolvents.

The operator assembled here is

    A_M(t) u = -div[ A(x, t, grad u) + (1 - theta_M(x, t)) B(x, t, u) ]

with theta_M = T_M(b)/b the truncation weight, in weak form
< A_M(t) u, v > = inner_vec(flux(u), gradient(v)).  Because divergence is
the exact negative adjoint of gradient, the strong form -div(flux) realizes
the pairing identically (a linear slice's stencil, below, to roundoff) and
accretivity can be asserted at machine precision instead of up to
discretization error.

Resolvent equations (I + lam * A_M(t)) u = g and stationary equations
A u = f are solved by one kernel, `_monotone_iteration`: damped Picard
(Richardson) iteration preconditioned with the constant-coefficient part
K = I + lam * gamma * (-Laplacian), or gamma * (-Laplacian) for the
stationary problem, gamma = (alpha + beta)/2.  Strong monotonicity makes
the preconditioned map a contraction for a small enough damping factor, and
K itself is inverted exactly by `grid.helmholtz_solve`, since its
coefficients are constant: a forward and an inverse sine transform around a
cached inverse symbol.  An axis of at most `grid._DENSE_SINE_MAX` points is
transformed by a dense matmul with a cached sine matrix, a longer one by
scipy.fft; on a 2D or 3D grid with every axis dense the whole solve is one
chain of four or six matmuls.  A step that fails to lower the residual is
backtracked by halving the damping factor.

A slice whose diffusion declares its coefficient a is preconditioned
instead by P = sigma K sigma, sigma = sqrt(clip(a, alpha, beta) / gamma)
at the nodes (Concus & Golub, SIAM J. Numer. Anal. 10, 1973): P matches
-div(a grad) to leading order, so P^{-1} B is the identity plus lower-order
terms where K^{-1} B spans [alpha/gamma, beta/gamma].  It costs two
elementwise products around the same sine transform, z = sigma^{-1}
K^{-1}(sigma^{-1} r).  sigma is one node field per `at(t)` lineage, sampled
at the first slice that needs it; where alpha == beta (identity diffusion)
sigma == 1, P is K and the iteration is exactly the K one.  The
stationary solve's `dual_norm` stays the (-Laplacian)^{-1} norm, which
defines its tolerance.

The damping floor max(1e-4, 0.9 m / M^2) (`_damping_floor`) is the
classical safe step of a preconditioned map with monotonicity m and
Lipschitz constant M measured in the preconditioner's geometry.
`contraction_constants` (and `stationary_constants`) bound them in the K
geometry and carry them to P by c_lo K <= P <= c_hi K: m_P = m / c_hi,
M_P = M / c_lo.  For K = s I + k (-Lap) with any s >= 0, k > 0, c_hi
follows from the discrete product rule on each face,

    (sigma w)_{k+1} - (sigma w)_k = avg(sigma) (w_{k+1} - w_k)
                                    + avg(w) (sigma_{k+1} - sigma_k),

exact on the staggered grid with the ghost sigma equal to its neighbour
(so a boundary face carries no difference of sigma).  Young's inequality
with epsilon = 1 and sum_faces avg(w)^2 <= |w|^2 give

    |grad(sigma w)|^2 <= 2 max sigma^2 |grad w|^2 + 2 g^2 |w|^2,

g^2 = sum_a max |D_a sigma|^2 over the difference quotients of sigma along
each axis, and the discrete Poincare inequality |w|^2 <= C_P |grad w|^2
(`grid.poincare_constant`) takes the last term into the gradient term.
With s |sigma w|^2 <= max sigma^2 s |w|^2, c_hi = 2 (max sigma^2 + C_P g^2)
bounds <P w, w> / <K w, w>.  With v = sigma w, K <= c P is
sigma^{-1} K sigma^{-1} <= c K, the same bound for 1/sigma:
c_lo = 1 / (2 (max sigma^{-2} + C_P g_{1/sigma}^2)).

When Picard contracts slowly -- after the first damped step that lowers
the residual by less than a factor 10 -- the kernel switches on type-II
Anderson mixing of depth 5 on the preconditioned update (Walker & Ni,
2011).  It is safeguarded: a mixed iterate is accepted only if its
residual is below the current one; otherwise, or when the small
least-squares system is singular or its solution non-finite, the history
is cleared and the damped step is taken instead.  The residual history
therefore still falls strictly, and the monotone-operator convergence
argument is unchanged.  Fast contractions never mix and run exactly the
plain damped iteration.

One iteration costs one residual, one preconditioner solve and one norm
per trial, plus, while mixing, one push and one mix of the history:

- a residual u + lam A(u) - g (A(u) - f for the stationary solve) of a
  linear slice is one weighted sum over its stencil's 2d + 1 points
  (`_Stencil.residual`): the stencil keeps W = lam * weights, with 1 added
  to the diagonal, for the lam of its last residual, and a scratch array
  that each residual fills with u's shifted windows, so the residual is
  one sum over the scratch's rows weighted by W, less g.  It rounds
  otherwise than the plain expression, by less than
  8 eps (|u| + lam sum |w| |u_k| + |g|) at each node over the stencil's
  weights w and points k (at most 2.5 eps measured on random states);
- on any other slice it is formed in place in the fresh array
  `_apply_values` returns, with the operations of the plain expression in
  its order, so it rounds the same;
- the history keeps each slot's iterate and update differences side by
  side in one buffer H, so a mixed iterate is (u - beta z) - c H[:k], one
  matrix-vector product over the k live slots, and the update
  differences' Gram matrix gains one row per push.

An operator is one time slice: everything in the flux that does not depend
on u (face coordinates, clamp weights, the weighted drift velocity) is
computed at most once per operator, so each apply does only the work that
depends on u.  `at(t)` moves a slice to another time.  It keeps the face
coordinates, and when the data has no drift or an autonomous one
(`DriftFlux.autonomous`) also the drift samples, clamp weights and drift
maximum, so a march over autonomous data samples its drift once, not once
per step.  The diffusion flux is still evaluated at the slice's own time.
What a resolve needs besides the right-hand side -- the damping floor from
`contraction_constants(lam)`, in the P geometry, and K's Laplacian weight
lam * gamma -- is computed once per (slice, lam), and `at(t)` keeps it
exactly when it keeps the drift maximum that it reads; sigma and c_lo, c_hi
belong to the lineage and every slice shares them.

A slice that is linear in u -- its diffusion declares `coefficient` a and
its drift is absent or declares `velocity` V -- applies as a (2d+1)-point
stencil, built once per slice from the face coefficients
c+- = a/h +- w V/2 (w V the weighted face drift of `_face_drift`):

    apply(u) = diag u + sum_a (lower_a u[k-1] + upper_a u[k+1]),

which is the same -div(flux(u)) summed in another order, so the two agree
to roundoff and `pairing` still equals inner(apply(u), v) to roundoff.
`at(t)` keeps the stencil when the drift is absent or autonomous and the
coefficient re-sampled at t is identical, and rebuilds it otherwise.

A slice that is not linear applies -div(flux(u)) on raw face arrays: the
flux components `_flux_faces` builds from the node values, which `flux`
wraps in a `VectorField`, summed into the divergence as `grid.divergence`
sums them.  The result is bit for bit that of the assembled form, without
the `GridFunction` and `VectorField` wrappers.

Every drift term a time step needs comes from the operator, for any drift:

- `explicit_drift(w)` is S_theta(w) = -div(theta_M B(w)), the negative
  divergence of `drift_flux(w, explicit=True)`: the semi-implicit step's
  explicit source, whose energy pairing with the new state u is
  -<S_theta(w), u> = -(theta_M B(w), grad u) by the exact adjoint identity;
- `drift_energy(u)` is (w B(u), grad u), the drift's part of the fully
  implicit step's energy pairing, w the implicit weight.

A drift that declares `velocity` assembles no face arrays for either.
S_theta is applied as the stencil above built with a = 0 and the explicit
face drift theta_M V.  On every face avg(u) (u_{k+1} - u_k)/h =
(u_{k+1}^2 - u_k^2)/(2h), so the exact adjoint identity gives

    (w V avg(u), grad u) = -1/2 inner(div(w V), u^2),

with div(w V) one node field per slice (`drift_divergence`).  Both forms
are exact in exact arithmetic and agree with the assembled ones to
roundoff (about 1e-15 relative in dimensions 1-3); each is built on first
use and kept by `at(t)` exactly when the drift caches are.

A resolve without a starting guess starts from 0, not from g (the mild
solution is a limit of resolvent products, Crandall & Liggett, Amer. J.
Math. 93, 1971).  Where A_M is monotone and A_M(0) = 0 -- a diffusion
flux that vanishes at 0 with no drift, or a linear slice under a certified
truncation level -- the resolvent is nonexpansive and maps 0 to 0, so 0 is
within |g| of the solution, while g misses it by lam |A_M g|, which grows
with lam / h^2.  Elsewhere (a flux with A(0) != 0, the unclamped A + B,
an uncertified level) no such bound holds, and the zero start is a choice
made on measurement: on 64^2 random right-hand sides at lam in
{1e-3, 1e-2, 0.1, 1} it takes 614 iterations where g took 768.  On a
linear slice the stencil maps 0 to 0, so the starting residual is exactly
-g (-f for the stationary solve), handed to the kernel with no apply; a
nonlinear slice evaluates it, as its flux need not vanish at 0.  Smooth g
at small lam is nearly its own resolvent, and there the zero start costs
one or two iterations more.

The kernel works on raw arrays: residuals, preconditioned updates, trial
and mixed iterates are ndarrays of the interior shape, and the operator
enters it through `_apply_values`, the array form of `apply`.
`GridFunction` appears only at the kernel's boundary: the right-hand side,
starting guess and solution of `resolve_detailed` and `stationary_solve`,
and the last iterate a `ConvergenceError` carries as `last`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import grid
from .grid import (
    BoxDomain,
    ConvergenceError,
    GridFunction,
    VectorField,
    divergence,
    gradient,
    helmholtz_solve,
    inner_vec,
    norm_l2,
)
from .models import ProblemData, _check_level, clamp_weight, drift_bound_max


@dataclass(frozen=True)
class ResolventConfig:
    """Settings for one resolvent solve (I + lam A)^{-1}."""

    lam: float = 1.0
    tol: float = 1e-10
    max_iter: int = 400

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and strictly positive, got {self.lam!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class SolverDiagnostics:
    """Iteration record of a nonlinear solve, serializable to JSON.

    `relaxation` is the damping factor in force when the solve ended.
    """

    iterations: int = 0
    converged: bool = False
    residuals: list[float] = field(default_factory=list)
    relaxation: float | None = None
    # damping halvings, accepted Anderson iterates, and rejected ones
    backtracks: int = 0
    mixed_steps: int = 0
    rejected_mixes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _to_faces(values: np.ndarray, axis: int) -> np.ndarray:
    """Average node values onto the staggered faces of one axis (zero ghosts)."""
    shape = list(values.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    # face k sums nodes k-1 and k; the ghost nodes add an exact zero
    out[tuple(lo)] += values
    out[tuple(hi)] += values
    out *= 0.5
    return out


def _pairwise_average(values: np.ndarray, axis: int) -> np.ndarray:
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (values[tuple(lo)] + values[tuple(hi)])


def _full_gradient_at_faces(grad: tuple[np.ndarray, ...], axis: int) -> tuple[np.ndarray, ...]:
    """All gradient components co-located at the faces of `axis`.

    The native component is returned untouched; cross components are moved
    face -> node -> face by adjacent averaging, the usual staggered-grid
    reconstruction.  It runs only for a diffusion flux that is not
    declared componentwise, one whose component a may read the other
    gradient components; a componentwise flux gets the native component
    alone.
    """
    out = []
    for b, comp in enumerate(grad):
        if b == axis:
            out.append(comp)
        else:
            at_nodes = _pairwise_average(comp, b)
            out.append(_to_faces(at_nodes, axis))
    return tuple(out)


@dataclass(frozen=True)
class _Conjugation:
    """sigma of a preconditioner P = sigma K sigma, and P's equivalence to K.

    `inverse` is 1/sigma at the nodes; lower * K <= P <= upper * K for every
    K = s * I + k * (-Lap) with s >= 0, k > 0 (see the module docstring).
    """

    inverse: np.ndarray
    lower: float
    upper: float


def _conjugation_bound(sigma: np.ndarray, domain: BoxDomain) -> float:
    """A c with sigma K sigma <= c K for every K = s * I + k * (-Lap), s >= 0, k > 0.

    c = 2 (max sigma^2 + C_P sum_a max |D_a sigma|^2), with D_a sigma the
    difference quotients of sigma between neighbouring nodes along axis a
    and C_P the discrete Poincare constant; see the module docstring.
    """
    slope_sq = sum(
        (float(np.max(np.abs(np.diff(sigma, axis=a)), initial=0.0)) / h) ** 2
        for a, h in enumerate(domain.spacing)
    )
    return 2.0 * (float(np.max(sigma)) ** 2 + grid.poincare_constant(domain) * slope_sq)


# the lam of a W_lam not built yet: unequal to every lam and to None
_UNBUILT = object()


class _Stencil:
    """The (2d+1)-point stencil of a linear slice, on the flattened grid.

    In the C-ordered flat array the neighbours of node k along axis a are
    k - s and k + s, with s the stride of that axis.  `weights` holds one
    row per point, each of length N: the diagonal, then for each axis the
    weights of u[k + s] and of u[k - s] at every node k.  A weight is 0
    where that neighbour is a boundary ghost, which covers every node
    whose flat offset would leave the array or wrap onto the next line.
    `coefficients` are the face samples of a the stencil was built from.
    The drift part is the operator's implicit face drift, or with
    `explicit` its explicit one, theta_M V.
    """

    def __init__(
        self,
        op: "TruncatedOperator",
        coefficients: tuple[np.ndarray | float, ...],
        explicit: bool = False,
    ):
        self.coefficients = coefficients
        dom = op.domain
        shape = dom.interior_shape
        self.weights = np.zeros((2 * dom.dim + 1, dom.interior_count))
        diag = self.weights[0].reshape(shape)
        self.strides = []
        for axis, (a, h) in enumerate(zip(coefficients, dom.spacing)):
            up = down = np.broadcast_to(a, dom.face_shape(axis)) / h
            if op.data.has_drift:
                half = 0.5 * op._face_drift(axis, explicit)
                up, down = up + half, up - half
            head = (slice(None),) * axis
            below, above = head + (slice(None, -1),), head + (slice(1, None),)
            inner_faces = head + (slice(1, -1),)
            # node k sits between face k (below) and face k + 1 (above)
            diag += (up[below] + down[above]) / h
            upper, lower = (self.weights[2 * axis + j].reshape(shape) for j in (1, 2))
            upper[below] = -up[inner_faces] / h
            lower[above] = -down[inner_faces] / h
            self.strides.append(math.prod(shape[axis + 1 :]))
        # (lam, W_lam, scratch) of the last `residual`, allocated on its first call
        self._gathered: tuple[object, np.ndarray, np.ndarray] | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        flat, w = v.ravel(), self.weights
        out = w[0] * flat
        for a, s in enumerate(self.strides):
            out[:-s] += w[2 * a + 1, :-s] * flat[s:]
            out[s:] += w[2 * a + 2, s:] * flat[:-s]
        return out.reshape(v.shape)

    def residual(self, v: np.ndarray, g: np.ndarray, lam: float | None) -> np.ndarray:
        """v + lam apply(v) - g, or apply(v) - g with lam None, as a fresh array.

        One weighted sum over the 2d + 1 points: W_lam = lam * weights with
        1 added to the diagonal (weights itself for lam None) is built on
        the first call at a lam and kept until a call at another, and each
        call copies v's 2d + 1 shifted windows into one zero-initialised
        scratch array (the parts no window reaches stay 0, as their weights
        are), so the residual is one sum over its rows, less g.  The sum
        runs in another order than `apply`'s, so the two agree to roundoff.
        The kept buffers make a stencil serve one residual at a time.
        """
        if self._gathered is None:
            self._gathered = (_UNBUILT, np.empty_like(self.weights), np.zeros_like(self.weights))
        built, W, X = self._gathered
        if built != lam:
            if lam is None:
                W[:] = self.weights
            else:
                np.multiply(self.weights, lam, out=W)
                W[0] += 1.0
            self._gathered = (lam, W, X)
        flat = v.ravel()
        X[0] = flat
        for a, s in enumerate(self.strides):
            X[2 * a + 1, :-s] = flat[s:]
            X[2 * a + 2, s:] = flat[:-s]
        r = np.einsum("ij,ij->j", W, X)
        return np.subtract(r, g.ravel(), out=r).reshape(v.shape)


class TruncatedOperator:
    """Weak-form spatial operator at one time slice: its data, time t and level.

    On data with a drift, drift_mode selects what the implicit flux contains:
      "remainder": A + (1 - theta_M) B, the truncated operator whose
                   accretivity margin is certified; it needs a level M;
      "full":      A + B, used by the fully implicit time step and the
                   steady solver; it clamps nothing, so it validates a
                   level it is given and keeps none (`level` is None).
    The constructor reads the mode and no method does: each reads `level`,
    None for A + B.  On drift-free data the flux is A in every mode and
    `level` is None; "none" names that case and raises on data with a
    drift.
    """

    def __init__(
        self,
        data: ProblemData,
        t: float,
        level: float | None = None,
        drift_mode: str = "remainder",
    ):
        if drift_mode not in ("remainder", "full", "none"):
            raise ValueError(f"unknown drift_mode {drift_mode!r}")
        # without a drift no level enters the operator
        if data.has_drift:
            if drift_mode == "none":
                raise ValueError('drift_mode "none" is for drift-free data; this data has a drift')
            if level is not None:
                _check_level(level)
            elif drift_mode == "remainder":
                raise ValueError("remainder mode needs a truncation level")
        self.data = data
        self.domain: BoxDomain = data.domain
        self.t = float(t)
        self.level = level if data.has_drift and drift_mode != "full" else None
        self._face_coords = tuple(
            grid.face_coordinates(self.domain, a) for a in range(self.domain.dim)
        )
        # axis -> (theta_M, 1 - theta_M) on its faces, the explicit and
        # implicit drift weights of `_drift_weight`
        self._weights: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._face_drifts: dict[tuple[int, bool], np.ndarray] = {}
        self._drift_max: float | None = None
        # lam -> (damping floor, K's Laplacian weight lam * gamma) of resolve_detailed
        self._resolve_constants: dict[float, tuple[float, float]] = {}
        self._linear = data.diffusion.coefficient is not None and (
            not data.has_drift or data.drift.velocity is not None
        )
        self._stencil: _Stencil | None = None
        # the drift's explicit stencil S_theta and div(w V): see the module docstring
        self._explicit_stencil: _Stencil | None = None
        self._drift_div: np.ndarray | None = None
        # the preconditioner's sigma, filled on first use and shared by every
        # slice at(t) derives from this one
        self._lineage: dict[str, _Conjugation | None] = {}

    def at(self, t: float) -> "TruncatedOperator":
        """This slice at time t: the same data and level.

        Returns self when t is unchanged.  The copy shares every cache that
        does not depend on t, and the preconditioner's conjugation sigma
        always (see `_conjugation`); the drift caches (with the explicit
        stencil, div(w V) and the resolve constants) count among them only
        when the data has no drift or an autonomous one, and the stencil
        only when, in addition, the diffusion coefficient sampled at t
        equals the one it was built from.
        """
        t = float(t)
        if t == self.t:
            return self
        # a shallow copy, as copy.copy makes it but without its reduce protocol
        op = object.__new__(type(self))
        op.__dict__.update(self.__dict__)
        op.t = t
        if self.data.has_drift and not self.data.drift.autonomous:
            op._weights, op._face_drifts, op._drift_max = {}, {}, None
            op._resolve_constants = {}
            op._stencil = op._explicit_stencil = op._drift_div = None
        elif self._stencil is not None:
            coefficients = op._face_coefficients()
            # the same object samples identically, and costs no comparison
            if not all(
                a is b or np.array_equal(a, b)
                for a, b in zip(coefficients, self._stencil.coefficients)
            ):
                op._stencil = _Stencil(op, coefficients)
        return op

    # -- flux assembly -----------------------------------------------------

    def _drift_weight(self, axis: int, explicit: bool) -> np.ndarray | None:
        """Multiplier applied to B on the faces of one axis; None stands for 1.

        The implicit weight is the one this operator's flux carries: 1
        without a level (A + B), 1 - theta_M with one.  The explicit weight
        is theta_M, the part a semi-implicit step moves to its source; it
        needs the truncation level.  Both are computed once per axis and
        slice, from the drift coefficient sampled on the faces.
        """
        if self.level is None:
            if explicit:
                raise ValueError("explicit_drift needs a truncation level")
            return None
        if axis not in self._weights:
            b = np.broadcast_to(
                self.data.drift.bound(self._face_coords[axis], self.t),
                self.domain.face_shape(axis),
            )
            theta = clamp_weight(b, float(self.level))
            self._weights[axis] = (theta, 1.0 - theta)
        return self._weights[axis][0 if explicit else 1]

    def _face_drift(self, axis: int, explicit: bool) -> np.ndarray | None:
        """weight * V on the faces of one axis, computed once per operator.

        None when the drift does not declare itself linear in z.
        """
        velocity = self.data.drift.velocity
        if velocity is None:
            return None
        key = (axis, explicit)
        if key not in self._face_drifts:
            V = np.broadcast_to(
                velocity(self._face_coords[axis], self.t)[axis],
                self.domain.face_shape(axis),
            )
            weight = self._drift_weight(axis, explicit)
            self._face_drifts[key] = (
                np.array(V, dtype=float) if weight is None else weight * V
            )
        return self._face_drifts[key]

    def drift_flux(self, w: np.ndarray, axis: int, explicit: bool = False) -> np.ndarray:
        """weight * B(x, t, w) on the faces of one axis, for node values w.

        The weight is the implicit one by default and theta_M with
        `explicit` (see `_drift_weight`).
        """
        z = _to_faces(w, axis)
        V = self._face_drift(axis, explicit)
        if V is not None:
            return z * V
        B = np.broadcast_to(
            self.data.drift.evaluate(self._face_coords[axis], self.t, z)[axis],
            self.domain.face_shape(axis),
        )
        weight = self._drift_weight(axis, explicit)
        return B if weight is None else weight * B

    def _flux_faces(self, v: np.ndarray) -> list[np.ndarray]:
        """The components of the flux of node values v, as plain face arrays.

        A component the diffusion returns constant along some axis is
        broadcast to the face shape as a read-only view.
        """
        grad = grid._face_differences(self.domain, v)
        diffusion = self.data.diffusion
        faces = []
        for axis, coords in enumerate(self._face_coords):
            if diffusion.componentwise:
                A = diffusion.evaluate(coords, self.t, (grad[axis],))[0]
            else:
                A = diffusion.evaluate(coords, self.t, _full_gradient_at_faces(grad, axis))[axis]
            if self.data.has_drift:
                A = A + self.drift_flux(v, axis)
            elif np.shape(A) != grad[axis].shape:
                A = np.broadcast_to(A, grad[axis].shape)
            faces.append(A)
        return faces

    def flux(self, u: GridFunction) -> VectorField:
        return VectorField(self.domain, tuple(self._flux_faces(u.values)))

    def _face_coefficients(self) -> tuple[np.ndarray | float, ...]:
        """The diffusion coefficient a(., t) on the faces of every axis, as sampled."""
        coefficient = self.data.diffusion.coefficient
        return tuple(coefficient(coords, self.t) for coords in self._face_coords)

    def apply(self, u: GridFunction) -> GridFunction:
        """Strong form -div(flux(u)), by the slice's stencil when it is linear.

        inner(apply(u), v) equals `pairing(u, v)` to roundoff.
        """
        return GridFunction(self.domain, self._apply_values(u.values))

    def _apply_values(self, v: np.ndarray) -> np.ndarray:
        """`apply` on the node values alone, as the kernel calls it.

        Every call returns a fresh array, which the kernel's residuals are
        formed in.
        """
        if self._linear:
            return self._linear_stencil().apply(v)
        # -div(flux(v)), summed as `divergence` sums it, without the wrappers
        out = grid._divergence_values(self.domain, self._flux_faces(v))
        return np.negative(out, out=out)

    def _linear_stencil(self) -> _Stencil:
        if self._stencil is None:
            self._stencil = _Stencil(self, self._face_coefficients())
        return self._stencil

    def _residual(self, g: np.ndarray, lam: float | None) -> Callable[[np.ndarray], np.ndarray]:
        """The kernel's residual u -> u + lam A(u) - g, or A(u) - g with lam None.

        Every call returns a fresh array.  A linear slice gathers it from
        its stencil as one weighted sum (`_Stencil.residual`); any other
        slice forms it in place in the fresh array `_apply_values` returns,
        with the operations of the plain expression in its order, so it
        rounds the same.
        """
        if self._linear:
            stencil = self._linear_stencil()
            return lambda u: stencil.residual(u, g, lam)

        def residual(u: np.ndarray) -> np.ndarray:
            r = self._apply_values(u)
            if lam is not None:
                np.multiply(r, lam, out=r)
                np.add(u, r, out=r)
            return np.subtract(r, g, out=r)

        return residual

    def _start(
        self, x0: GridFunction | None, g: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The kernel's first iterate, and its residual when known without an apply.

        x0's values are copied, since the kernel may hand its first iterate
        back as the solution.  Without x0 the iterate is 0; a linear slice's
        stencil maps 0 to 0, so its residual there is exactly -g, while a
        nonlinear flux need not vanish at 0 and its residual is evaluated.
        """
        if x0 is not None:
            return x0.values.copy(), None
        return np.zeros(self.domain.interior_shape), np.negative(g) if self._linear else None

    def explicit_drift(self, w: np.ndarray) -> np.ndarray:
        """S_theta(w) = -div(theta_M B(w)) on node values, for any drift.

        The negative divergence of `drift_flux(w, explicit=True)`; for a
        drift with `velocity` to roundoff, by the stencil with a = 0 and the
        explicit face drift theta_M V, built once per slice.  It needs the
        truncation level.
        """
        if self.data.drift.velocity is None:
            faces = [self.drift_flux(w, a, explicit=True) for a in range(self.domain.dim)]
            out = grid._divergence_values(self.domain, faces)
            return np.negative(out, out=out)
        if self._explicit_stencil is None:
            zero = (0.0,) * self.domain.dim
            self._explicit_stencil = _Stencil(self, zero, explicit=True)
        return self._explicit_stencil.apply(w)

    def drift_energy(self, u: np.ndarray) -> float:
        """(w B(u), grad u) for node values u, w the implicit drift weight.

        For a drift with `velocity` the closed form -1/2 inner(div(w V), u^2)
        of `drift_divergence`, else the assembled face sum.
        """
        weight = self.domain.node_weight
        if self.data.drift.velocity is not None:
            return -0.5 * weight * float(np.vdot(self.drift_divergence(), u * u))
        faces = [self.drift_flux(u, a) for a in range(self.domain.dim)]
        return weight * grid._face_sum(faces, grid._face_differences(self.domain, u))

    def drift_divergence(self) -> np.ndarray:
        """div(w V) of the implicit face drift, for a drift with `velocity`.

        One node field per slice, with (w V avg(u), grad u) =
        -1/2 inner(div(w V), u^2) for every u.
        """
        if self._drift_div is None:
            faces = tuple(self._face_drift(a, False) for a in range(self.domain.dim))
            self._drift_div = divergence(VectorField(self.domain, faces)).values
        return self._drift_div

    def pairing(self, u: GridFunction, v: GridFunction) -> float:
        """Weak pairing < A_M(t) u, v > = (flux(u), grad v)."""
        return inner_vec(self.flux(u), gradient(v))

    def accretivity_margin(self, u: GridFunction, v: GridFunction) -> float:
        """< A_M u - A_M v, u - v > minus the certified lower bound.

        Returns the pairing minus (alpha/2) |grad(u - v)|^2; under a
        certified truncation level this is nonnegative up to roundoff.
        """
        w = u - v
        pair = inner_vec(self.flux(u) - self.flux(v), gradient(w))
        gw = gradient(w)
        return pair - 0.5 * self.data.diffusion.alpha * inner_vec(gw, gw)

    # -- solver estimates ----------------------------------------------------

    def monotonicity_margin_estimate(self) -> float:
        """A priori monotonicity coefficient in front of |grad w|^2."""
        alpha = self.data.diffusion.alpha
        if not self.data.has_drift:
            return alpha
        # Certified remainder eats at most alpha/2; the unclamped A + B gives the
        # same guarantee only after the zeroth-order Young absorption, which
        # the lam-dependent estimate below accounts for.
        return 0.5 * alpha

    def drift_face_max(self) -> float:
        """Largest sampled drift coefficient, clamped at the level if there is one."""
        if not self.data.has_drift:
            return 0.0
        if self._drift_max is None:
            self._drift_max = drift_bound_max(self.data, self.t, self.level)
        return self._drift_max

    def contraction_constants(self, lam: float) -> tuple[float, float]:
        """Monotonicity and Lipschitz constants of P^{-1}(I + lam A_M).

        m and M are first bounded in the K = I + lam * gamma * (-Lap)
        geometry, where the diffusion contributes its range [alpha, beta]
        relative to gamma, then carried to the geometry of the resolve's
        preconditioner P = sigma K sigma (P = K when sigma == 1) by the
        equivalence constants of `_conjugation`.  The safe damping factor
        m / M^2 they give is the resolve's damping floor.
        """
        alpha = self.data.diffusion.alpha
        beta = self.data.diffusion.beta
        gamma = self.precondition_scale()
        mu = self.monotonicity_margin_estimate()
        b_eff = self.drift_face_max()
        m = min(1.0, mu / gamma)
        if self.level is None and b_eff > 0:
            # zeroth-order loss from absorbing the bounded drift part
            m = max(1e-6, min(1.0, mu / gamma) - lam * b_eff**2 / (2 * alpha))
        M = max(1.0, (beta + (0.5 * alpha if self.data.has_drift else 0.0)) / gamma) + (
            b_eff * np.sqrt(lam / gamma)
        )
        return self._in_preconditioner_geometry(m, M)

    def stationary_constants(self) -> tuple[float, float]:
        """Monotonicity and Lipschitz constants of P^{-1} A_M, for `stationary_solve`.

        As `contraction_constants`, with K = gamma * (-Lap).
        """
        alpha = self.data.diffusion.alpha
        beta = self.data.diffusion.beta
        gamma = self.precondition_scale()
        m = self.monotonicity_margin_estimate() / gamma
        M = (beta + (0.5 * alpha if self.data.has_drift else 0.0)) / gamma + (
            self.drift_face_max() / gamma
        )
        return self._in_preconditioner_geometry(m, M)

    def _in_preconditioner_geometry(self, m: float, M: float) -> tuple[float, float]:
        """Carry constants of the K geometry to the P geometry.

        With c_lo K <= P <= c_hi K: <B w, w> >= m <K w, w> >= (m / c_hi)
        <P w, w>, and P^{-1} <= K^{-1} / c_lo gives <P^{-1} B w, B w> <=
        (M^2 / c_lo) <K w, w> <= (M / c_lo)^2 <P w, w>.
        """
        conj = self._conjugation()
        if conj is None:
            return m, M
        return m / conj.upper, M / conj.lower

    def precondition_scale(self) -> float:
        """Laplacian weight gamma = (alpha + beta) / 2 of the preconditioner.

        K = I + lam * gamma * (-Lap), or gamma * (-Lap) for the stationary
        problem.  On a slice with a coefficient a, P = sigma K sigma with
        sigma^2 = a / gamma carries a, not gamma, in its leading-order part;
        see `_conjugation`.
        """
        return 0.5 * (self.data.diffusion.alpha + self.data.diffusion.beta)

    def _conjugation(self) -> _Conjugation | None:
        """sigma of the preconditioner P = sigma K sigma; None when P is K.

        sigma = sqrt(clip(a, alpha, beta) / gamma) is sampled at the nodes,
        at the time of the first slice of an `at(t)` lineage that asks, and
        kept for the whole lineage: any sigma > 0 gives a valid
        preconditioner.  Clipping keeps P symmetric positive definite for a
        coefficient sampled outside [alpha, beta].  Without a coefficient P
        is K, and with alpha == beta (identity diffusion among them) the
        clip makes sigma == 1, so P is K without sampling a.
        """
        if "conjugation" not in self._lineage:
            diffusion, dom = self.data.diffusion, self.domain
            conj = None
            if diffusion.coefficient is not None and diffusion.alpha < diffusion.beta:
                a = diffusion.coefficient(grid.node_coordinates(dom), self.t)
                a = np.clip(np.broadcast_to(a, dom.interior_shape), diffusion.alpha, diffusion.beta)
                sigma = np.sqrt(a / self.precondition_scale())
                inverse = 1.0 / sigma
                conj = _Conjugation(
                    inverse,
                    lower=1.0 / _conjugation_bound(inverse, dom),
                    upper=_conjugation_bound(sigma, dom),
                )
            self._lineage["conjugation"] = conj
        return self._lineage["conjugation"]

    def _preconditioner(self, shift: float, scale: float) -> Callable[[np.ndarray], np.ndarray]:
        """r -> P^{-1} r for K = shift * I + scale * (-Lap) and P = sigma K sigma.

        P^{-1} = sigma^{-1} K^{-1} sigma^{-1}: the sine transform inverts the
        constant-coefficient K exactly, between two elementwise products.
        """
        dom, conj = self.domain, self._conjugation()
        if conj is None:
            return lambda r: helmholtz_solve(dom, r, shift, scale)
        inverse = conj.inverse

        def solve(r: np.ndarray) -> np.ndarray:
            z = helmholtz_solve(dom, r * inverse, shift, scale)
            return np.multiply(z, inverse, out=z)

        return solve

    # -- resolvent ----------------------------------------------------------

    def resolve(
        self, g: GridFunction, cfg: ResolventConfig, x0: GridFunction | None = None
    ) -> GridFunction:
        """(I + lam A_M(t))^{-1} g; see `resolve_detailed`, also for the start."""
        u, _ = self.resolve_detailed(g, cfg, x0=x0)
        return u

    def resolve_detailed(
        self, g: GridFunction, cfg: ResolventConfig, x0: GridFunction | None = None
    ) -> tuple[GridFunction, SolverDiagnostics]:
        """Solve u + lam * A_M(t) u = g to residual tol * (1 + |g|).

        Preconditioned by P = sigma K sigma, K = I + lam * gamma * (-Lap)
        (see `_conjugation`).  The damping floor and K's Laplacian weight
        depend on the slice and lam alone; they are computed on the first
        resolve at a lam and kept.

        Without x0 the solve starts from 0.  Where A_M is monotone and
        A_M(0) = 0 (see the module docstring for which slices), 0 is within
        |g| of the solution, while g misses it by lam |A_M g|, which grows
        with lam / h^2; elsewhere the zero start is a choice that measured
        fewer iterations on random right-hand sides, not a bound.  On a
        linear slice the starting residual is -g, known without an apply.
        Smooth g at small lam is the exception: there g is nearly the
        solution and the zero start can take one or two more iterations
        (g = sin(pi x) sin(pi y) on 64^2, lam = 1e-3: 11 against 9 for
        variable diffusion, 11 against 10 for the Lipschitz model).  A
        caller with a better guess passes it as x0, as the march does.
        """
        lam, dom = cfg.lam, self.domain
        if lam not in self._resolve_constants:
            m, M = self.contraction_constants(lam)
            self._resolve_constants[lam] = (
                _damping_floor(m, M), lam * self.precondition_scale()
            )
        rho_floor, scale = self._resolve_constants[lam]
        weight = dom.node_weight
        u, diag = _monotone_iteration(
            self._residual(g.values, lam),
            self._preconditioner(1.0, scale),
            # norm_l2 on the values
            lambda r: math.sqrt(max(weight * float(np.vdot(r, r)), 0.0)),
            *self._start(x0, g.values),
            domain=dom,
            tol=cfg.tol * (1.0 + norm_l2(g)),
            max_iter=cfg.max_iter,
            rho_floor=rho_floor,
            solver="damped Picard",
        )
        return GridFunction(dom, u), diag


# Anderson depth: how many past differences a mixed iterate combines.
_MIX_DEPTH = 5
# Mixing starts after the first damped step that lowers the residual by less
# than this factor; faster contractions gain nothing from it.
_SLOW_CONTRACTION = 0.1


class _AndersonHistory:
    """The last _MIX_DEPTH differences of iterates and of updates z = P r.

    Slot j of the ring buffer H holds its iterate difference in H[j, 0]
    and its update difference in H[j, 1], so the live slots are the first
    k of H, contiguous, and a mixed iterate is one matrix-vector product
    over them.  The Gram matrix of the update differences is kept up to
    date one row per push, so a mixed iterate needs a k x k solve
    (k <= _MIX_DEPTH) instead of a least-squares solve against the N x k
    history.
    """

    def __init__(self, u: np.ndarray, z: np.ndarray):
        self.H = np.empty((_MIX_DEPTH, 2, u.size))
        self.dU, self.dZ = self.H[:, 0], self.H[:, 1]
        self.gram = np.empty((_MIX_DEPTH, _MIX_DEPTH))
        self.count = 0
        self.u, self.z = u.ravel(), z.ravel()

    def push(self, u: np.ndarray, z: np.ndarray) -> None:
        """Record the next iterate and its update."""
        u, z = u.ravel(), z.ravel()
        slot = self.count % _MIX_DEPTH
        np.subtract(u, self.u, out=self.dU[slot])
        np.subtract(z, self.z, out=self.dZ[slot])
        self.count += 1
        k = min(self.count, _MIX_DEPTH)
        row = self.dZ[:k] @ self.dZ[slot]
        self.gram[slot, :k] = row
        self.gram[:k, slot] = row
        self.u, self.z = u, z

    def mix(self, beta: float) -> np.ndarray | None:
        """Type-II Anderson iterate from the last push; None if the solve fails.

        gamma minimises |z - dZ gamma|, and the iterate is
        u - dU gamma - beta (z - dZ gamma), the damped step from the
        extrapolated point, evaluated as (u - beta z) - c H[:k] with c the
        pairs (gamma_j, -beta gamma_j) in slot order.
        """
        k = min(self.count, _MIX_DEPTH)
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], self.dZ[:k] @ self.z)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(gamma)):
            return None
        c = (gamma[:, None] * (1.0, -beta)).ravel()
        out = self.u - beta * self.z
        return np.subtract(out, c @ self.H[:k].reshape(2 * k, -1), out=out)


def _damping_floor(m: float, M: float) -> float:
    """max(1e-4, 0.9 m / M^2), the kernel's smallest damping factor."""
    return max(1e-4, 0.9 * m / M**2)


def _monotone_iteration(
    residual: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    norm: Callable[[np.ndarray], float],
    u: np.ndarray,
    r: np.ndarray | None = None,
    *,
    domain: BoxDomain,
    tol: float,
    max_iter: int,
    rho_floor: float,
    solver: str,
) -> tuple[np.ndarray, SolverDiagnostics]:
    """Drive norm(residual(u)) below tol by preconditioned, damped steps.

    Iterates, residuals and updates are node-value arrays; the solution is
    returned as one, and a failure wraps the last iterate as a
    GridFunction on `domain`.  Neither u nor r is ever written to.  r is
    residual(u), exactly, when the caller already has it, else None.

    Each iteration takes z = precondition(r) and steps u - rho z.  The
    damping rho starts at 1 and is halved down to rho_floor until the
    residual falls, which finds any smaller factor a problem needs; three
    clean steps in a row let rho grow back toward 1.  Once a
    step contracts slowly, a safeguarded Anderson iterate is tried first
    (see the module docstring).  Every failure raises ConvergenceError
    carrying the last iterate and the residual history.
    """
    diag = SolverDiagnostics()

    def failure(message: str) -> ConvergenceError:
        return ConvergenceError(message, last=GridFunction(domain, u), residuals=diag.residuals)

    rho = 1.0
    if r is None:
        r = residual(u)
    rn = norm(r)
    streak = 0
    mixing = None
    it = 0  # steps taken
    # the one convergence exit: every iterate, the max_iter-th too, is tested
    # here; each failure raises where it is detected
    while True:
        diag.residuals.append(rn)
        if not math.isfinite(rn):
            raise failure(f"{solver} residual is non-finite ({rn}) after {it} iterations")
        if rn <= tol:
            diag.iterations = it
            diag.converged = True
            diag.relaxation = rho
            return u, diag
        if it == max_iter:
            raise failure(
                f"{solver} did not reach tol in {max_iter} iterations (residual {rn:.3e})"
            )
        it += 1
        z = precondition(r)
        if mixing is not None:
            mixing.push(u, z)
            mixed = mixing.mix(rho)
            if mixed is not None:
                trial = mixed.reshape(u.shape)
                r_trial = residual(trial)
                rn_trial = norm(r_trial)
                if rn_trial < rn:
                    diag.mixed_steps += 1
                    u, r, rn = trial, r_trial, rn_trial
                    continue
                diag.rejected_mixes += 1
            mixing.count = 0  # clear the history
        while True:
            # 1.0 * z == z exactly: one pass fewer at full damping
            trial = u - z if rho == 1.0 else u - rho * z
            r_trial = residual(trial)
            rn_trial = norm(r_trial)
            if not math.isfinite(rn_trial):
                raise failure(f"{solver} residual is non-finite ({rn_trial}) after {it} iterations")
            if rn_trial < rn or rn_trial <= tol:
                break
            if rho <= rho_floor:
                raise failure(
                    f"{solver} stalled at residual {rn:.3e} (tol {tol:.3e}) after {it} iterations"
                )
            rho = max(rho_floor, 0.5 * rho)
            streak = 0
            diag.backtracks += 1
        if mixing is None and rn_trial > _SLOW_CONTRACTION * rn:
            mixing = _AndersonHistory(u, z)
        u, r, rn = trial, r_trial, rn_trial
        streak += 1
        if streak >= 3 and rho < 1.0:
            rho = min(1.0, 1.5 * rho)
            streak = 0


def stationary_solve(
    op: TruncatedOperator,
    rhs: GridFunction,
    tol: float,
    max_iter: int = 500,
    x0: GridFunction | None = None,
) -> tuple[GridFunction, SolverDiagnostics]:
    """Solve A(u) = rhs by the resolvents' iteration in the energy norm.

    The residual is measured in the discrete dual norm
    sqrt(<r, (-Lap)^{-1} r>), the natural norm for a divergence-form
    residual; convergence is tol * (1 + dual norm of rhs).  Without x0 the
    solve starts from 0, where a linear slice's residual is exactly -rhs,
    so a zero rhs ends the solve without an apply.
    """
    dom = op.domain
    weight = dom.node_weight

    def dual_norm(r: np.ndarray) -> float:
        z = helmholtz_solve(dom, r, 0.0, 1.0)
        return math.sqrt(max(weight * float(np.vdot(z, r)), 0.0))

    m, M = op.stationary_constants()
    rv = rhs.values
    u, diag = _monotone_iteration(
        op._residual(rv, None),
        op._preconditioner(0.0, op.precondition_scale()),
        dual_norm,
        *op._start(x0, rv),
        domain=dom,
        tol=tol * (1.0 + dual_norm(rv)),
        max_iter=max_iter,
        rho_floor=_damping_floor(m, M),
        solver="stationary solve",
    )
    return GridFunction(dom, u), diag
