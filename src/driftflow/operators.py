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
stationary problem.  Strong monotonicity makes the preconditioned map a
contraction for a small enough damping factor, and K itself is inverted
exactly by `grid.helmholtz_solve`, since its coefficients are constant: a
forward and an inverse sine transform around a cached inverse symbol.  An
axis of at most `grid._DENSE_SINE_MAX` points is transformed by a dense
matmul with a cached sine matrix, a longer one by scipy.fft.  A step that
fails to lower the residual is backtracked by halving the damping factor.

When Picard contracts slowly -- after the first damped step that lowers
the residual by less than a factor 10 -- the kernel switches on type-II
Anderson mixing of depth 5 on the preconditioned update (Walker & Ni,
2011).  It is safeguarded: a mixed iterate is accepted only if its
residual is below the current one; otherwise, or when the small
least-squares system is singular, the history is cleared and the damped
step is taken instead.  The residual history therefore still falls
strictly, and the monotone-operator convergence argument is unchanged.
Fast contractions never mix and run exactly the plain damped iteration.

An operator is one time slice: everything in the flux that does not depend
on u (face coordinates, clamp weights, the weighted drift velocity) is
computed at most once per operator, so each apply does only the work that
depends on u.  `at(t)` moves a slice to another time.  It keeps the face
coordinates, and when the data has no drift or an autonomous one
(`DriftFlux.autonomous`) also the drift samples, clamp weights and drift
maximum, so a march over autonomous data samples its drift once, not once
per step.  The diffusion flux is still evaluated at the slice's own time.

A slice that is linear in u -- its diffusion declares `coefficient` a and
its drift is absent or declares `velocity` V -- applies as a (2d+1)-point
stencil, built once per slice from the face coefficients
c+- = a/h +- w V/2 (w V the weighted face drift of `_face_drift`):

    apply(u) = diag u + sum_a (lower_a u[k-1] + upper_a u[k+1]),

which is the same -div(flux(u)) summed in another order, so the two agree
to roundoff and `pairing` still equals inner(apply(u), v) to roundoff.
`at(t)` keeps the stencil when the drift is absent or autonomous and the
coefficient re-sampled at t is identical, and rebuilds it otherwise.  Every
other slice applies as -div(flux(u)).  `flux`, `pairing`, `drift_flux` and
`accretivity_margin` always assemble the flux.

A drift that declares `velocity` has two more per-slice forms, both for
the time step's explicit source and energy check:

- `explicit_drift(w)` is S_theta(w) = -div(theta_M V avg(w)), the negative
  divergence of `drift_flux(w, explicit=True)`, applied as the same
  stencil built with a = 0 and the explicit face drift theta_M V;
- `drift_divergence()` is the node field div(w V) of the implicit face
  drift.  On every face avg(u) (u_{k+1} - u_k)/h = (u_{k+1}^2 - u_k^2)/(2h),
  so the exact adjoint identity gives
  (w V avg(u), grad u) = -1/2 inner(div(w V), u^2).

Each is built on first use and kept by `at(t)` exactly when the drift
caches are, so they agree with the assembled forms to roundoff at every t.

The kernel works on raw arrays: residuals, preconditioned updates, trial
and mixed iterates are ndarrays of the interior shape, and the operator
enters it through `_apply_values`, the array form of `apply`.
`GridFunction` appears only at the kernel's boundary: the right-hand side,
starting guess and solution of `resolve_detailed` and `stationary_solve`,
and the last iterate a `ConvergenceError` carries as `last`.
"""

from __future__ import annotations

import copy
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
from .models import ProblemData, clamp_weight, drift_bound_max


@dataclass(frozen=True)
class ResolventConfig:
    """Settings for one resolvent solve (I + lam A)^{-1}."""

    lam: float = 1.0
    tol: float = 1e-10
    max_iter: int = 400

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be strictly positive")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("tol must be positive and max_iter >= 1")


@dataclass
class SolverDiagnostics:
    """Iteration record of a nonlinear solve, serializable to JSON.

    `relaxation` is the damping factor in force when the solve ended.
    """

    method: str
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


def _require_finite(
    rn: float, solver: str, it: int, domain: BoxDomain, u: np.ndarray, residuals
) -> None:
    """Name a NaN or inf residual instead of backtracking to a false stall."""
    if not math.isfinite(rn):
        raise ConvergenceError(
            f"{solver} residual is non-finite ({rn}) after {it} iterations",
            last=GridFunction(domain, u),
            residuals=residuals,
        )


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


def _full_gradient_at_faces(grad: VectorField, axis: int) -> tuple[np.ndarray, ...]:
    """All gradient components co-located at the faces of `axis`.

    The native component is returned untouched; cross components are moved
    face -> node -> face by adjacent averaging, the usual staggered-grid
    reconstruction.  It runs only for a diffusion flux that is not
    declared componentwise, one whose component a may read the other
    gradient components; a componentwise flux gets the native component
    alone.
    """
    out = []
    for b, comp in enumerate(grad.components):
        if b == axis:
            out.append(comp)
        else:
            at_nodes = _pairwise_average(comp, b)
            out.append(_to_faces(at_nodes, axis))
    return tuple(out)


class _Stencil:
    """The (2d+1)-point stencil of a linear slice, on the flattened grid.

    In the C-ordered flat array the neighbours of node k along axis a are
    k - s and k + s, with s the stride of that axis.  Each axis holds the
    weights of u[k + s] at nodes k < N - s and of u[k - s] at nodes k >= s;
    a weight is 0 where that neighbour is a boundary ghost and the flat
    offset would wrap onto the next line.  `coefficients` are the face
    samples of a the stencil was built from.  The drift part is the
    operator's implicit face drift, or with `explicit` its explicit one,
    theta_M V.
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
        diag = np.zeros(shape)
        self.neighbours = []
        for axis, (a, h) in enumerate(zip(coefficients, dom.spacing)):
            up = down = np.broadcast_to(a, dom.face_shape(axis)) / h
            if op._drifts:
                half = 0.5 * op._face_drift(axis, explicit)
                up, down = up + half, up - half
            head = (slice(None),) * axis
            below, above = head + (slice(None, -1),), head + (slice(1, None),)
            inner_faces = head + (slice(1, -1),)
            # node k sits between face k (below) and face k + 1 (above)
            diag += (up[below] + down[above]) / h
            upper, lower = np.zeros(shape), np.zeros(shape)
            upper[below] = -up[inner_faces] / h
            lower[above] = -down[inner_faces] / h
            s = math.prod(shape[axis + 1 :])
            self.neighbours.append((s, upper.ravel()[:-s], lower.ravel()[s:]))
        self.diag = diag.ravel()

    def apply(self, v: np.ndarray) -> np.ndarray:
        flat = v.ravel()
        out = self.diag * flat
        for s, upper, lower in self.neighbours:
            out[:-s] += upper * flat[s:]
            out[s:] += lower * flat[:-s]
        return out.reshape(v.shape)


class TruncatedOperator:
    """Weak-form spatial operator at one time slice.

    drift_mode selects what the implicit flux contains:
      "remainder": A + (1 - theta_M) B, the truncated operator whose
                   accretivity margin is certified;
      "full":      A + B, used by the fully implicit time step and the
                   steady solver;
      "none":      A alone.
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
        if drift_mode == "remainder" and data.has_drift and level is None:
            raise ValueError("remainder mode needs a truncation level")
        self.data = data
        self.domain: BoxDomain = data.domain
        self.t = float(t)
        self.level = level
        self.drift_mode = drift_mode
        self._drifts = data.has_drift and drift_mode != "none"
        self._face_coords = tuple(
            grid.face_coordinates(self.domain, a) for a in range(self.domain.dim)
        )
        self._face_bounds: dict[int, np.ndarray] = {}
        self._face_drifts: dict[tuple[int, bool], np.ndarray] = {}
        self._drift_max: float | None = None
        self._linear = data.diffusion.coefficient is not None and (
            not self._drifts or data.drift.velocity is not None
        )
        self._stencil: _Stencil | None = None
        # the drift's explicit stencil S_theta and div(w V): see the module docstring
        self._explicit_stencil: _Stencil | None = None
        self._drift_div: np.ndarray | None = None

    def at(self, t: float) -> "TruncatedOperator":
        """This slice at time t: the same data, level and drift mode.

        Returns self when t is unchanged.  The copy shares every cache that
        does not depend on t; the drift caches (with the explicit stencil
        and div(w V)) count among them only when the data has no drift or
        an autonomous one, and the stencil only when, in addition, the
        diffusion coefficient sampled at t equals the one it was built from.
        """
        t = float(t)
        if t == self.t:
            return self
        op = copy.copy(self)
        op.t = t
        if self.data.has_drift and not self.data.drift.autonomous:
            op._face_bounds, op._face_drifts, op._drift_max = {}, {}, None
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

        The implicit weight is the one this operator's flux carries: 1 in
        "full" mode, 1 - theta_M in "remainder" mode.  The explicit weight
        is theta_M, the part a semi-implicit step moves to its source; it
        needs the truncation level.
        """
        if self.drift_mode == "full" and not explicit:
            return None
        theta = clamp_weight(self._face_bound(axis), float(self.level))
        return theta if explicit else 1.0 - theta

    def _face_bound(self, axis: int) -> np.ndarray:
        if axis not in self._face_bounds:
            vals = self.data.drift.bound(self._face_coords[axis], self.t)
            self._face_bounds[axis] = np.broadcast_to(
                vals, self.domain.face_shape(axis)
            ).copy()
        return self._face_bounds[axis]

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

    def drift_flux(
        self, w: GridFunction, axis: int, explicit: bool = False
    ) -> np.ndarray:
        """weight * B(x, t, w) on the faces of one axis.

        The weight is the implicit one by default and theta_M with
        `explicit` (see `_drift_weight`).
        """
        z = _to_faces(w.values, axis)
        V = self._face_drift(axis, explicit)
        if V is not None:
            return z * V
        B = np.broadcast_to(
            self.data.drift.evaluate(self._face_coords[axis], self.t, z)[axis],
            self.domain.face_shape(axis),
        )
        weight = self._drift_weight(axis, explicit)
        return B if weight is None else weight * B

    def flux(self, u: GridFunction) -> VectorField:
        g = gradient(u)
        diffusion = self.data.diffusion
        comps = []
        for axis, coords in enumerate(self._face_coords):
            if diffusion.componentwise:
                A = diffusion.evaluate(coords, self.t, (g.components[axis],))[0]
            else:
                eta = _full_gradient_at_faces(g, axis)
                A = diffusion.evaluate(coords, self.t, eta)[axis]
            if self._drifts:
                comps.append(A + self.drift_flux(u, axis))
            else:
                shape = self.domain.face_shape(axis)
                comps.append(np.array(np.broadcast_to(A, shape), dtype=float))
        return VectorField(self.domain, tuple(comps))

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
        """`apply` on the node values alone, as the kernel calls it."""
        if not self._linear:
            return -divergence(self.flux(GridFunction(self.domain, v))).values
        if self._stencil is None:
            self._stencil = _Stencil(self, self._face_coefficients())
        return self._stencil.apply(v)

    def explicit_drift(self, w: np.ndarray) -> np.ndarray:
        """S_theta(w) = -div(theta_M B(w)) on node values, for a drift with `velocity`.

        The negative divergence of `drift_flux(w, explicit=True)` to
        roundoff, by the stencil with a = 0 and the explicit face drift
        theta_M V, built once per slice.
        """
        if self._explicit_stencil is None:
            zero = (0.0,) * self.domain.dim
            self._explicit_stencil = _Stencil(self, zero, explicit=True)
        return self._explicit_stencil.apply(w)

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
        if not self.data.has_drift or self.drift_mode == "none":
            return alpha
        # Certified remainder eats at most alpha/2; the full mode gives the
        # same guarantee only after the zeroth-order Young absorption, which
        # the lam-dependent estimate below accounts for.
        return 0.5 * alpha

    def drift_face_max(self) -> float:
        """Largest sampled drift coefficient, clamped at the level in remainder mode."""
        if not self._drifts:
            return 0.0
        if self._drift_max is None:
            level = self.level if self.drift_mode == "remainder" else None
            self._drift_max = drift_bound_max(self.data, self.t, level)
        return self._drift_max

    def contraction_constants(self, lam: float) -> tuple[float, float]:
        """Monotonicity and Lipschitz constants of K^{-1}(I + lam A_M).

        Measured in the K = I + lam * gamma * (-Lap) geometry; they bound a
        guaranteed-safe damping factor m / M^2 from below.
        """
        alpha = self.data.diffusion.alpha
        beta = self.data.diffusion.beta
        mu = self.monotonicity_margin_estimate()
        b_eff = self.drift_face_max()
        m = min(1.0, mu)
        if self.drift_mode == "full" and b_eff > 0:
            # zeroth-order loss from absorbing the bounded drift part
            m = max(1e-6, min(1.0, mu) - lam * b_eff**2 / (2 * alpha))
        M = max(1.0, beta + (0.5 * alpha if self.data.has_drift else 0.0)) + b_eff * np.sqrt(lam)
        return m, M

    def precondition_scale(self) -> float:
        """Laplacian weight gamma of the preconditioner."""
        return 0.5 * (self.data.diffusion.alpha + self.data.diffusion.beta)

    # -- resolvent ----------------------------------------------------------

    def resolve(
        self, g: GridFunction, cfg: ResolventConfig, x0: GridFunction | None = None
    ) -> GridFunction:
        u, _ = self.resolve_detailed(g, cfg, x0=x0)
        return u

    def resolve_detailed(
        self, g: GridFunction, cfg: ResolventConfig, x0: GridFunction | None = None
    ) -> tuple[GridFunction, SolverDiagnostics]:
        """Solve u + lam * A_M(t) u = g to residual tol * (1 + |g|)."""
        lam, dom = cfg.lam, self.domain
        m, M = self.contraction_constants(lam)
        gv, weight = g.values, dom.node_weight
        u, diag = _monotone_iteration(
            lambda u: u + lam * self._apply_values(u) - gv,
            # K is constant-coefficient, so the sine transform inverts it exactly
            lambda r: helmholtz_solve(dom, r, 1.0, lam * self.precondition_scale()),
            # norm_l2 on the values
            lambda r: math.sqrt(max(weight * float(np.vdot(r, r)), 0.0)),
            (x0 if x0 is not None else g).values.copy(),
            domain=dom,
            tol=cfg.tol * (1.0 + norm_l2(g)),
            max_iter=cfg.max_iter,
            rho_floor=max(1e-4, 0.9 * m / M**2),
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

    The Gram matrix of the update differences is kept up to date one row
    per push, so a mixed iterate needs a k x k solve (k <= _MIX_DEPTH)
    instead of a least-squares solve against the N x k history.
    """

    def __init__(self, u: np.ndarray, z: np.ndarray):
        self.dU = np.empty((_MIX_DEPTH, u.size))
        self.dZ = np.empty((_MIX_DEPTH, u.size))
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
        u - dU gamma - beta (z - dZ gamma): the damped step from the
        extrapolated point.
        """
        k = min(self.count, _MIX_DEPTH)
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], self.dZ[:k] @ self.z)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(gamma)):
            return None
        return self.u - gamma @ self.dU[:k] - beta * (self.z - gamma @ self.dZ[:k])


def _monotone_iteration(
    residual: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    norm: Callable[[np.ndarray], float],
    u: np.ndarray,
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
    GridFunction on `domain`.  u itself is never written to.

    Each iteration takes z = precondition(r) and steps u - rho z.  The
    damping rho starts at 1 and is halved down to rho_floor until the
    residual falls, which finds any smaller factor a problem needs; three
    clean steps in a row let rho grow back toward 1.  Once a
    step contracts slowly, a safeguarded Anderson iterate is tried first
    (see the module docstring).  Every failure raises ConvergenceError
    carrying the last iterate and the residual history.
    """
    diag = SolverDiagnostics(method="damped-picard")
    rho = 1.0
    r = residual(u)
    rn = norm(r)
    streak = 0
    mixing = None
    for it in range(1, max_iter + 1):
        diag.residuals.append(rn)
        _require_finite(rn, solver, it - 1, domain, u, diag.residuals)
        if rn <= tol:
            diag.iterations = it - 1
            diag.converged = True
            diag.relaxation = rho
            return u, diag
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
        accepted = False
        while True:
            trial = u - rho * z
            r_trial = residual(trial)
            rn_trial = norm(r_trial)
            _require_finite(rn_trial, solver, it, domain, u, diag.residuals)
            if rn_trial < rn or rn_trial <= tol:
                accepted = True
                break
            if rho <= rho_floor:
                break
            rho = max(rho_floor, 0.5 * rho)
            streak = 0
            diag.backtracks += 1
        if not accepted:
            diag.iterations = it
            diag.relaxation = rho
            raise ConvergenceError(
                f"{solver} stalled at residual {rn:.3e} "
                f"(tol {tol:.3e}) after {it} iterations",
                last=GridFunction(domain, u),
                residuals=diag.residuals,
            )
        if mixing is None and rn_trial > _SLOW_CONTRACTION * rn:
            mixing = _AndersonHistory(u, z)
        u, r, rn = trial, r_trial, rn_trial
        streak += 1
        if streak >= 3 and rho < 1.0:
            rho = min(1.0, 1.5 * rho)
            streak = 0
    diag.iterations = max_iter
    diag.relaxation = rho
    diag.residuals.append(rn)
    if rn <= tol:
        diag.converged = True
        return u, diag
    raise ConvergenceError(
        f"{solver} did not reach tol in {max_iter} iterations "
        f"(residual {rn:.3e})",
        last=GridFunction(domain, u),
        residuals=diag.residuals,
    )


def stationary_solve(
    op: TruncatedOperator,
    rhs: GridFunction,
    tol: float = 1e-11,
    max_iter: int = 500,
    x0: GridFunction | None = None,
) -> tuple[GridFunction, SolverDiagnostics]:
    """Solve A(u) = rhs by the resolvents' iteration in the energy norm.

    The residual is measured in the discrete dual norm
    sqrt(<r, (-Lap)^{-1} r>), the natural norm for a divergence-form
    residual; convergence is tol * (1 + dual norm of rhs).
    """
    dom = op.domain
    gamma = op.precondition_scale()
    weight = dom.node_weight

    def dual_norm(r: np.ndarray) -> float:
        z = helmholtz_solve(dom, r, 0.0, 1.0)
        return math.sqrt(max(weight * float(np.vdot(z, r)), 0.0))

    alpha = op.data.diffusion.alpha
    beta = op.data.diffusion.beta
    m = op.monotonicity_margin_estimate() / gamma
    M = (beta + (0.5 * alpha if op.data.has_drift else 0.0)) / gamma + (
        op.drift_face_max() / gamma
    )
    rv = rhs.values
    u, diag = _monotone_iteration(
        lambda u: op._apply_values(u) - rv,
        lambda r: helmholtz_solve(dom, r, 0.0, gamma),
        dual_norm,
        x0.values.copy() if x0 is not None else np.zeros(dom.interior_shape),
        domain=dom,
        tol=tol * (1.0 + dual_norm(rv)),
        max_iter=max_iter,
        rho_floor=max(1e-4, 0.9 * m / M**2),
        solver="stationary solve",
    )
    return GridFunction(dom, u), diag
