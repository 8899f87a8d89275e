"""Problem data: diffusion flux, drift flux, sources, and built-in instances.

Fluxes are Caratheodory maps evaluated pointwise.  All callables are
vectorized over tuples of coordinate arrays so the same object serves both
the staggered-grid operators (face points) and the randomized hypothesis
spot-checks (scattered points).

The drift coefficient never enters the solvers through an unbounded value:
the truncated operators only see clamped weights, and the feasibility of a
truncation level is certified against the measured weak-L^N norm of the
remainder b - T_M(b), or by the level clamping nothing (`saturated`, on
nodes and faces).  This module makes every such decision: the evolution
certificate of a level (`certify_truncation`), which a `TruncationPlan`
holds one of per level, and the decay small-data check
(`small_data_check`), which reads the remainder and the bound from those
certificates.  The clamped drift maximum a step couples
is the step operator's (`TruncatedOperator.drift_face_max`).
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import KW_ONLY, asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import grid, lorentz
from .grid import BoxDomain, GridFunction, VectorField

Coords = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class _ScaledGradient:
    """The flux a(x, t) eta of a diffusion declared by its coefficient a."""

    coefficient: Callable[[Coords, float], np.ndarray]

    def __call__(self, coords: Coords, t: float, eta: Coords) -> Coords:
        a = self.coefficient(coords, t)
        return tuple(a * e for e in eta)


@dataclass(frozen=True)
class DiffusionFlux:
    """Monotone diffusion flux A(x, t, eta).

    alpha is the strong monotonicity constant and beta the Lipschitz/growth
    constant: (A(eta) - A(eta*)) . (eta - eta*) >= alpha |eta - eta*|^2 and
    |A(x, t, eta)| <= beta |eta|, with no additive growth offset.

    A linear isotropic diffusion A = a(x, t) eta is declared by
    `coefficient`, which evaluates a, in place of `evaluate`, much as
    `DriftFlux.velocity` declares a drift linear in z.  `evaluate` is then
    derived from it (a times each component of eta), so the flux and the
    operators' stencil (see `operators`) read one function and cannot
    disagree; passing a different `evaluate` as well raises ValueError.
    Such a flux is componentwise.

    componentwise declares that component a of A depends on eta only
    through eta_a.  The operators then pass `evaluate` the one native face
    component (eta_a,) and read the first entry of the result, instead of
    reconstructing every gradient component on every face.
    """

    evaluate: Callable[[Coords, float, Coords], Coords] | None = None
    _: KW_ONLY
    alpha: float
    beta: float
    componentwise: bool = False
    coefficient: Callable[[Coords, float], np.ndarray] | None = None

    def __post_init__(self):
        if not 0 < self.alpha <= self.beta < math.inf:
            raise ValueError("need 0 < alpha <= beta < inf")
        if self.coefficient is None:
            if self.evaluate is None:
                raise ValueError("a diffusion flux needs evaluate or coefficient")
            return
        derived = _ScaledGradient(self.coefficient)
        # dataclasses.replace hands back the flux derived from this coefficient
        if self.evaluate is not None and self.evaluate != derived:
            raise ValueError(
                "declare a linear diffusion by coefficient or by evaluate, not both"
            )
        object.__setattr__(self, "evaluate", derived)
        object.__setattr__(self, "componentwise", True)


@dataclass(frozen=True)
class _VelocityDrift:
    """The flux z V(x, t) of a drift declared by its velocity V."""

    velocity: Callable[[Coords, float], Coords]

    def __call__(self, coords: Coords, t: float, z: np.ndarray) -> Coords:
        return tuple(z * v for v in self.velocity(coords, t))


@dataclass(frozen=True)
class DriftFlux:
    """Drift flux B(x, t, z) with |B(x,t,z) - B(x,t,z*)| <= b(x,t)|z - z*|.

    `bound` evaluates the coefficient b itself; B(x, t, 0) = 0 is assumed
    and spot-checked.  A drift linear in z, B(x, t, z) = z V(x, t), is
    declared by `velocity`, which evaluates V, in place of `evaluate`, the
    way `DiffusionFlux.coefficient` declares a linear diffusion: `evaluate`
    is then derived from it (z times each component of V), so the
    operators, which sample V once per time slice, and `verify_hypotheses`,
    which checks `evaluate` against `bound`, read one function.  Passing a
    different `evaluate` as well raises ValueError.

    `autonomous` declares that b, V and B do not depend on t.  The code
    cannot observe that from the callables, so it defaults to False and a
    drift keeps being sampled afresh at every time; with it set, one
    operator's face samples of b and V serve every time slice of a march
    (`TruncatedOperator.at`).
    """

    evaluate: Callable[[Coords, float, np.ndarray], Coords] | None = None
    _: KW_ONLY
    bound: Callable[[Coords, float], np.ndarray]
    velocity: Callable[[Coords, float], Coords] | None = None
    autonomous: bool = False

    def __post_init__(self):
        if self.velocity is None:
            if self.evaluate is None:
                raise ValueError("a drift flux needs evaluate or velocity")
            return
        derived = _VelocityDrift(self.velocity)
        # dataclasses.replace hands back the flux derived from this velocity
        if self.evaluate is not None and self.evaluate != derived:
            raise ValueError("declare a linear drift by velocity or by evaluate, not both")
        object.__setattr__(self, "evaluate", derived)


@dataclass(frozen=True)
class ProblemData:
    """Everything needed to march one initial-boundary value problem."""

    name: str
    domain: BoxDomain
    diffusion: DiffusionFlux
    drift: DriftFlux | None
    source: Callable[[Coords, float], Coords] | None
    initial: GridFunction
    horizon: float
    exact: Callable[[Coords, float], np.ndarray] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")
        if self.initial.domain is not self.domain and self.initial.domain != self.domain:
            raise ValueError(f"initial state lives on {self.initial.domain}, not {self.domain}")

    @property
    def has_drift(self) -> bool:
        return self.drift is not None

    def source_field(self, t: float) -> VectorField | None:
        """Sample the source flux F(., t) on the staggered faces."""
        if self.source is None:
            return None
        comps = []
        for a in range(self.domain.dim):
            coords = grid.face_coordinates(self.domain, a)
            comp = self.source(coords, t)[a]
            comps.append(np.broadcast_to(comp, self.domain.face_shape(a)).copy())
        return VectorField(self.domain, tuple(comps))

    def drift_bound_grid(self, t: float) -> GridFunction:
        """Sample the drift coefficient b(., t) at the interior nodes."""
        if self.drift is None:
            return grid.zeros(self.domain)
        vals = self.drift.bound(grid.node_coordinates(self.domain), t)
        return GridFunction(
            self.domain,
            np.broadcast_to(vals, self.domain.interior_shape).copy(),
        )

    def exact_grid(self, t: float) -> GridFunction:
        if self.exact is None:
            raise ValueError(f"model {self.name!r} has no exact solution")
        vals = self.exact(grid.node_coordinates(self.domain), t)
        return GridFunction(
            self.domain,
            np.broadcast_to(vals, self.domain.interior_shape).copy(),
        )


def _check_level(M: float, name: str = "truncation level") -> None:
    """The rule for every truncation level: finite and > 0, else ValueError.

    Checked wherever a level comes in: a plan's levels, the level
    `certify_truncation` certifies, and the clamp's and operator's level.
    """
    if not (math.isfinite(M) and M > 0):
        raise ValueError(f"{name} must be finite and positive, got {M!r}")


def clamp_weight(b: np.ndarray, M: float) -> np.ndarray:
    """Weight T_M(b)/b of sampled coefficients, 1 where b vanishes.

    Equals 1 exactly on {b <= M} and M/b above, so multiplying it by b
    reproduces the clamp T_M(b) identically.
    """
    _check_level(M)
    if np.any(b < 0):
        raise ValueError("drift coefficient must be nonnegative")
    out = np.ones_like(b)
    mask = b > M
    out[mask] = M / b[mask]
    return out


@dataclass(frozen=True)
class TruncationCertificate:
    """Feasibility record for one truncation level."""

    level: float
    measured: float
    bound_evolution: float | None
    bound_longtime: float | None
    passes_evolution: bool
    passes_longtime: bool
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def drift_bound_max(
    data: ProblemData, t: float = 0.0, level: float | None = None
) -> float:
    """Largest sampled drift coefficient over nodes and staggered faces.

    With a truncation level, the clamped coefficient min(b, level) is
    measured instead.  The operators read b at face positions, which sit
    closer to the singular point than any node, so saturation of a
    truncation schedule must be judged against the face samples.
    """
    if level is not None:
        _check_level(level)
    if data.drift is None:
        return 0.0
    worst = float(np.max(data.drift_bound_grid(t).values))
    for a in range(data.domain.dim):
        vals = np.broadcast_to(
            data.drift.bound(grid.face_coordinates(data.domain, a), t),
            data.domain.face_shape(a),
        )
        worst = max(worst, float(np.max(vals)))
    return worst if level is None else min(worst, float(level))


def saturated(data: ProblemData, M: float, t: float | None = None) -> bool:
    """Whether truncation at M clamps no sampled drift coefficient.

    With t, at that time: M >= `drift_bound_max(data, t)`, nodes and faces.
    Without t, at every time, which only an `autonomous` drift can promise.
    Then `clamp_weight` is exactly 1 on every face and the remainder-mode
    `drift_face_max` is the sampled maximum, so A_M is the same operator
    for every such M and generates the same product trajectory.  Without a
    drift every level is saturated.
    """
    if data.drift is None:
        return True
    if t is None and not data.drift.autonomous:
        return False
    return M >= drift_bound_max(data, 0.0 if t is None else t)


def _upper_decile(x: np.ndarray) -> float:
    """np.quantile(x, 0.9) bit for bit, for a nonempty x without NaN.

    numpy's default is Hyndman & Fan's type 7: the virtual index
    v = (n - 1) q, numpy's own rounding of it, lies between the order
    statistics floor(v) and floor(v) + 1 (both the last one once
    v >= n - 1), lerped as numpy's `_lerp` does.  One partition finds
    them; np.quantile would import numpy.ma on its first call in a process.
    """
    q = 0.9
    n = x.size
    v = (n - 1) * q
    k = math.floor(v)
    lo, hi = (n - 1, n - 1) if v >= n - 1 else (k, k + 1)
    s = np.partition(x, (lo, hi))
    a, b = s[lo], s[hi]
    t, d = v - k, b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def certificate_times(data: ProblemData) -> tuple[float, ...]:
    """The times at which the drift certificates sample b.

    (0, T/2, T) for a drift that moves; (0,) where b cannot change, without
    a drift or with an `autonomous` one, which is the same at every time.
    """
    if data.drift is None or data.drift.autonomous:
        return (0.0,)
    return (0.0, 0.5 * data.horizon, data.horizon)


_NO_EMBEDDING = "embedding constant undefined below dimension 3"


def _embedding_constant(N: int) -> float | None:
    """The gradient-embedding constant S for p = 2, or None below dimension 3."""
    return lorentz.sobolev_constant(N, 2) if N >= 3 else None


def certify_truncation(data: ProblemData, M: float) -> TruncationCertificate:
    """Certify a truncation level against the diffusion margin.

    The measured quantity is the weak-L^N norm of the unbounded remainder
    b - T_M(b) on the nodes, maximized over the `certificate_times`.  It
    must stay below alpha / (2 S) to keep the truncated operator accretive
    with margin alpha/2, and below alpha / (4 S) for the long-time
    contraction, where S is the gradient-embedding constant for
    square-integrable gradients.

    A level that clamps nothing, `saturated` at every certificate time
    (nodes and faces), passes in any dimension with the note "remainder
    vanishes": A_M is then A + B and needs no embedding.  Saturation
    implies a zero node remainder, so the faces are read only when that is
    0.  Any other level needs S, which requires dimension >= 3: below it
    the level fails with a note, even when its node remainder is 0 but a
    face is still clamped.  From dimension 3 such a level passes on its
    node remainder of 0 against the bound: the face remainder it leaves is
    not measured.
    """
    _check_level(M)
    N, weight = data.domain.dim, data.domain.node_weight
    times = certificate_times(data)
    measured = max(
        lorentz.weak_norm_of_values(
            np.maximum(data.drift_bound_grid(t).values - M, 0.0), weight, N
        )
        for t in times
    )
    clamps_nothing = measured == 0.0 and all(saturated(data, M, t) for t in times)
    alpha = data.diffusion.alpha
    S = _embedding_constant(N)
    bound_evo = None if S is None else alpha / (2 * S)
    bound_long = None if S is None else alpha / (4 * S)
    if clamps_nothing:
        note = "remainder vanishes; certificate holds without embedding"
    else:
        note = _NO_EMBEDDING if S is None else ""
    return TruncationCertificate(
        level=M,
        measured=measured,
        bound_evolution=bound_evo,
        bound_longtime=bound_long,
        passes_evolution=clamps_nothing if S is None else measured <= bound_evo,
        passes_longtime=clamps_nothing if S is None else measured <= bound_long,
        note=note,
    )


@dataclass(frozen=True)
class TruncationPlan:
    """Increasing schedule of truncation levels: one certificate per level.

    Each certificate carries its level, so `levels` is read from them;
    there must be at least one, finite, > 0 and strictly increasing.
    """

    certificates: tuple[TruncationCertificate, ...]

    def __post_init__(self):
        if not self.certificates:
            raise ValueError("a truncation plan needs at least one level")
        for M in self.levels:
            _check_level(M)
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple(c.level for c in self.certificates)

    @property
    def all_certified(self) -> bool:
        return all(c.passes_evolution for c in self.certificates)


def make_truncation_plan(
    data: ProblemData,
    levels: Sequence[float] | None = None,
    *,
    m0: float | None = None,
    factor: float = 2.0,
    count: int | None = None,
) -> TruncationPlan:
    """Build a truncation schedule, by default M_k = M_0 * factor^k.

    M_0 defaults to the 0.9-quantile of the positive sampled coefficient
    (1 if there is none) and the schedule stops one step after its first
    level `saturated` at t = 0, so it ends with two saturated levels (for
    an autonomous drift, one operator).  m0 must be a level, factor
    finite and > 1, count an int >= 1.
    """
    if m0 is not None:
        _check_level(m0, "m0")
    if not (math.isfinite(factor) and factor > 1):
        raise ValueError(f"factor must be finite and > 1, got {factor!r}")
    if count is not None and not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError(f"count must be an integer >= 1, got {count!r}")
    if levels is None:
        if m0 is None:
            b0 = data.drift_bound_grid(0.0).values
            positive = b0[b0 > 0]
            m0 = _upper_decile(positive) if positive.size else 1.0
        levels = [m0]
        if count is None:
            while not saturated(data, levels[-1], 0.0) and len(levels) < 40:
                levels.append(levels[-1] * factor)
            levels.append(levels[-1] * factor)
        else:
            for _ in range(count - 1):
                levels.append(levels[-1] * factor)
    return TruncationPlan(tuple(certify_truncation(data, float(M)) for M in levels))


def small_data_check(data: ProblemData, plan: TruncationPlan | None) -> tuple[bool, dict]:
    """Drift smallness needed for the contraction toward the steady state.

    The condition is existential: some truncation level must split the
    coefficient so that both the remainder and the truncated part stay
    below alpha / (4 S) in the weak-L^N metric, making the total drift
    pairing lose less than alpha/2 of the coercivity.  The candidates are
    the plan's levels, so a drift without a plan raises ValueError; each is
    read from its certificate, which holds the remainder and the bound, so
    only the truncated part min(b, M) is measured here, from b sampled once
    at each of the `certificate_times`.  So the plan must be one
    certified for `data`, as `make_truncation_plan(data)` builds it.  The
    cruder product level * S is recorded for reference but not used, since
    it ignores the domain volume carried by the weak norm.
    """
    if not data.has_drift:
        return True, {"drift": 0.0}
    if plan is None:
        raise ValueError("the small-data check of a drift needs a truncation plan")
    N = data.domain.dim
    S = _embedding_constant(N)
    if S is None:
        return False, {"reason": _NO_EMBEDDING}
    weight = data.domain.node_weight
    samples = [data.drift_bound_grid(t).values for t in certificate_times(data)]
    best = None
    # the plan's levels increase: the search stops at the least passing one
    for cert in plan.certificates:
        trunc = max(
            lorentz.weak_norm_of_values(np.minimum(b, cert.level), weight, N)
            for b in samples
        )
        worst = max(cert.measured, trunc)
        if best is None or worst < best[0]:
            best = (worst, cert, trunc)
        if worst <= cert.bound_longtime:
            break
    worst, cert, trunc = best
    detail = {
        "level": cert.level,
        "remainder_weak_norm": cert.measured,
        "truncated_weak_norm": trunc,
        "bound": cert.bound_longtime,
        "literal_level_product": cert.level * S,
        "literal_bound": data.diffusion.alpha / 4,
    }
    return worst <= cert.bound_longtime, detail


# ---------------------------------------------------------------------------
# Built-in model catalog
# ---------------------------------------------------------------------------


def _eigen_profile(coords: Coords, lengths) -> np.ndarray:
    out = 1.0
    for x, L in zip(coords, lengths):
        out = out * np.sin(np.pi * x / L)
    return out


def _eigen_initial(domain: BoxDomain) -> GridFunction:
    return grid.sample(domain, lambda c: _eigen_profile(c, domain.lengths))


def _identity_diffusion() -> DiffusionFlux:
    return DiffusionFlux(coefficient=lambda coords, t: 1.0, alpha=1.0, beta=1.0)


def build_heat(domain: BoxDomain, horizon: float) -> ProblemData:
    """Pure diffusion: A = eta, no drift, no source."""
    return ProblemData(
        name="heat",
        domain=domain,
        diffusion=_identity_diffusion(),
        drift=None,
        source=None,
        initial=_eigen_initial(domain),
        horizon=horizon,
    )


def build_variable_diffusion(
    domain: BoxDomain, horizon: float, alpha: float = 0.5, beta: float = 1.5
) -> ProblemData:
    """Scalar coefficient a(x, t) eta with alpha <= a <= beta."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0 < alpha <= beta:
        raise ValueError(
            f"alpha must satisfy 0 < alpha <= beta, got {alpha!r} with beta {beta!r}"
        )
    mid = 0.5 * (alpha + beta)
    amp = 0.5 * (beta - alpha)
    lengths = domain.lengths

    def coefficient(coords, t):
        return mid + amp * _eigen_profile(coords, lengths) * math.cos(t)

    return ProblemData(
        name="variable-diffusion",
        domain=domain,
        diffusion=DiffusionFlux(coefficient=coefficient, alpha=alpha, beta=beta),
        drift=None,
        source=None,
        initial=_eigen_initial(domain),
        horizon=horizon,
    )


def build_lipschitz_nonlinear(
    domain: BoxDomain, horizon: float, beta: float = 1.8
) -> ProblemData:
    """A(eta) = eta + (beta - 1) * phi(eta) with phi a smooth monotone contraction.

    phi acts componentwise as s -> s / sqrt(1 + s^2), the gradient of a
    convex potential, so monotonicity stays >= 1 exactly while the
    Lipschitz constant is beta.
    """
    if not (math.isfinite(beta) and beta >= 1):
        raise ValueError(f"beta must be finite and >= 1, got {beta!r}")
    kappa = beta - 1.0

    def flux_component(e):
        # e + kappa e / sqrt(1 + e^2) with two temporaries, rounded the same
        s = e * e
        s += 1.0
        np.sqrt(s, out=s)
        out = kappa * e
        np.divide(out, s, out=out)
        return np.add(e, out, out=out)

    def evaluate(coords, t, eta):
        return tuple(flux_component(e) for e in eta)

    return ProblemData(
        name="lipschitz-nonlinear",
        domain=domain,
        diffusion=DiffusionFlux(
            evaluate=evaluate, alpha=1.0, beta=beta, componentwise=True
        ),
        drift=None,
        source=None,
        initial=_eigen_initial(domain),
        horizon=horizon,
    )


def singular_point(domain: BoxDomain) -> tuple[float, ...]:
    """A point next to the domain's center that no node or face hits.

    Nodes sit at k h and faces at (k + 1/2) h along their own axis.  In two
    or more dimensions x0_a = (floor(n_a / 2) + 1/2) h_a misses every node,
    and a face misses it along any other axis, where it sits at a node
    coordinate.  In 1D every cell center is a face, so
    x0 = (floor(n / 2) + 1/4) h there.
    """
    shift = 0.25 if domain.dim == 1 else 0.5
    return tuple(
        0.5 * L + (shift if n % 2 == 0 else shift - 0.5) * h
        for L, h, n in zip(domain.lengths, domain.spacing, domain.cells)
    )


def build_singular_drift(
    domain: BoxDomain,
    horizon: float,
    c: float = 0.1,
    direction: Sequence[float] | None = None,
    drift_field: GridFunction | None = None,
) -> ProblemData:
    """Heat diffusion plus drift B(x, t, z) = z b(x) e with b = c / |x - x0|.

    b lies in weak-L^N but in no smaller Lebesgue space; the singular point
    sits off every node and face, so every sampled value stays finite.  An
    explicit node field can be supplied instead of the analytic coefficient;
    it must live on `domain` and hold finite, nonnegative values.  Either
    way b does not depend on t, so the drift is autonomous.  c must be
    finite and nonnegative: the clamp weights and the certificates assume
    b >= 0.  `direction` must be finite and nonzero; it is normalized.
    """
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be finite and nonnegative, got {c!r}")
    if drift_field is not None:
        _check_drift_field(drift_field, domain)
    if direction is None:
        direction = tuple(1.0 / math.sqrt(domain.dim) for _ in range(domain.dim))
    e = np.asarray(direction, dtype=float)
    if not (np.all(np.isfinite(e)) and np.any(e)):
        raise ValueError(f"direction must be finite and nonzero, got {tuple(direction)!r}")
    e = tuple(e / np.linalg.norm(e))
    x0 = singular_point(domain)

    if drift_field is not None:
        bound = _node_field_evaluator(drift_field)
    else:

        def bound(coords, t):
            r2 = 0.0
            for x, x0a in zip(coords, x0):
                r2 = r2 + (x - x0a) ** 2
            # a sample landing exactly on x0 legitimately reads +inf
            with np.errstate(divide="ignore"):
                return c / np.sqrt(r2)

    def velocity(coords, t):
        b = bound(coords, t)
        return tuple(b * ea for ea in e)

    return ProblemData(
        name="singular-drift",
        domain=domain,
        diffusion=_identity_diffusion(),
        drift=DriftFlux(bound=bound, velocity=velocity, autonomous=True),
        source=None,
        initial=_eigen_initial(domain),
        horizon=horizon,
    )


def _check_drift_field(field: GridFunction, domain: BoxDomain) -> None:
    """Reject a coefficient field the nearest-node lookup would misread.

    A field from another grid would be silently resampled, and the clamp
    weights assume b >= 0 everywhere.
    """
    if field.domain != domain:
        raise ValueError(
            f"drift_field lives on {field.domain}, but the model on {domain}"
        )
    v = field.values
    for bad, what in ((~np.isfinite(v), "non-finite"), (v < 0, "negative")):
        if np.any(bad):
            node = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(
                f"drift_field has a {what} value {float(v[node])!r} at node {node}"
            )


def _node_field_evaluator(field: GridFunction):
    """Lookup of a stored node coefficient at nodes and staggered faces.

    Each coordinate is classified by its half-index rint(2 x / h): an even
    one is a node, which reads its own value; an odd one is a face between
    two nodes, which reads the larger of them, so the face value stays an
    upper bound for b and the truncation certificate stays conservative.  A
    boundary face reads its one interior neighbour.
    """
    dom = field.domain

    def bound(coords, t):
        choices = []
        for x, h, n in zip(coords, dom.spacing, dom.cells):
            half = np.rint(2.0 * np.asarray(x) / h).astype(int)
            # interior node k is stored at index k - 1
            lo = np.clip(half // 2 - 1, 0, n - 2)
            hi = np.clip((half + 1) // 2 - 1, 0, n - 2)
            choices.append((lo,) if np.array_equal(lo, hi) else (lo, hi))
        out = None
        for pick in itertools.product(*choices):
            vals = field.values[tuple(np.broadcast_arrays(*pick))]
            out = vals if out is None else np.maximum(out, vals)
        return out

    return bound


def build_manufactured(domain: BoxDomain, horizon: float) -> ProblemData:
    """Heat diffusion driven so the solution is exp(-t) * prod sin(pi x_i / L_i).

    The source is F = grad Phi with Phi = (Lam - 1)/Lam * exp(-t) * E where
    E is the first Dirichlet eigenfunction and Lam its continuum eigenvalue,
    so u_t - Lap(u) = -div F holds identically for the target solution.
    """
    lengths = domain.lengths
    lam = math.pi**2 * sum(1.0 / L**2 for L in lengths)
    scale = (lam - 1.0) / lam

    def exact(coords, t):
        return math.exp(-t) * _eigen_profile(coords, lengths)

    def source(coords, t):
        comps = []
        for i, L in enumerate(lengths):
            prof = 1.0
            for j, (x, Lj) in enumerate(zip(coords, lengths)):
                if j == i:
                    prof = prof * (math.pi / Lj) * np.cos(np.pi * x / Lj)
                else:
                    prof = prof * np.sin(np.pi * x / Lj)
            comps.append(scale * math.exp(-t) * prof)
        return tuple(comps)

    return ProblemData(
        name="manufactured",
        domain=domain,
        diffusion=_identity_diffusion(),
        drift=None,
        source=source,
        initial=grid.sample(domain, lambda c: exact(c, 0.0)),
        horizon=horizon,
        exact=exact,
    )


_CATALOG = {
    "heat": build_heat,
    "variable-diffusion": build_variable_diffusion,
    "lipschitz-nonlinear": build_lipschitz_nonlinear,
    "singular-drift": build_singular_drift,
    "manufactured": build_manufactured,
}


def builtin_models() -> dict[str, Callable[..., ProblemData]]:
    """Named builders for the shipped model instances."""
    return dict(_CATALOG)


def make_model(name: str, domain: BoxDomain, horizon: float, **params) -> ProblemData:
    """Build a catalog model; a parameter the model does not take is an error."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(_CATALOG)}"
        ) from None
    accepted = list(inspect.signature(builder).parameters)[2:]
    for key in params:
        if key not in accepted:
            raise ValueError(
                f"model {name!r} has no parameter {key!r}; accepted: {accepted}"
            )
    return builder(domain, horizon, **params)


# ---------------------------------------------------------------------------
# Hypothesis spot-checks
# ---------------------------------------------------------------------------


# random points each `verify_hypotheses` call checks
HYPOTHESIS_SAMPLES = 1000


@dataclass
class HypothesisReport:
    """Randomized verification of the structural flux assumptions."""

    model: str
    samples: int
    growth_violations: int = 0
    monotonicity_violations: int = 0
    drift_lipschitz_violations: int = 0
    drift_zero_violations: int = 0
    worst_monotonicity_margin: float = math.inf
    worst_growth_slack: float = math.inf

    @property
    def passed(self) -> bool:
        return (
            self.growth_violations == 0
            and self.monotonicity_violations == 0
            and self.drift_lipschitz_violations == 0
            and self.drift_zero_violations == 0
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_hypotheses(data: ProblemData, seed: int = 0) -> HypothesisReport:
    """Spot-check growth, monotonicity, and drift bounds on random points."""
    samples = HYPOTHESIS_SAMPLES
    rng = np.random.default_rng(seed)
    dom = data.domain
    rtol = 1e-9
    report = HypothesisReport(model=data.name, samples=samples)

    coords = tuple(
        rng.uniform(0.0, L, samples) for L in dom.lengths
    )
    ts = rng.uniform(0.0, data.horizon, samples)
    eta = tuple(3.0 * rng.standard_normal(samples) for _ in range(dom.dim))
    eta_star = tuple(3.0 * rng.standard_normal(samples) for _ in range(dom.dim))

    for t in np.unique(np.round(ts, 3))[:8]:
        A = data.diffusion.evaluate(coords, float(t), eta)
        A_star = data.diffusion.evaluate(coords, float(t), eta_star)
        mag_A = np.sqrt(sum(np.asarray(c) ** 2 for c in A))
        mag_eta = np.sqrt(sum(np.asarray(c) ** 2 for c in eta))
        slack = data.diffusion.beta * mag_eta - mag_A
        report.worst_growth_slack = min(report.worst_growth_slack, float(slack.min()))
        report.growth_violations += int(np.sum(slack < -rtol * (1 + mag_eta)))

        pair = sum(
            (np.asarray(a) - np.asarray(b)) * (e - es)
            for a, b, e, es in zip(A, A_star, eta, eta_star)
        )
        diff2 = sum((e - es) ** 2 for e, es in zip(eta, eta_star))
        margin = pair - data.diffusion.alpha * diff2
        report.worst_monotonicity_margin = min(
            report.worst_monotonicity_margin, float(margin.min())
        )
        report.monotonicity_violations += int(np.sum(margin < -rtol * (1 + diff2)))

        if data.drift is not None:
            z = 3.0 * rng.standard_normal(samples)
            z_star = 3.0 * rng.standard_normal(samples)
            B = data.drift.evaluate(coords, float(t), z)
            B_star = data.drift.evaluate(coords, float(t), z_star)
            diffB = np.sqrt(
                sum((np.asarray(a) - np.asarray(b)) ** 2 for a, b in zip(B, B_star))
            )
            b = np.asarray(data.drift.bound(coords, float(t)))
            report.drift_lipschitz_violations += int(
                np.sum(diffB > b * np.abs(z - z_star) * (1 + rtol) + 1e-14)
            )
            B0 = data.drift.evaluate(coords, float(t), np.zeros(samples))
            zero_mag = np.sqrt(sum(np.asarray(c) ** 2 for c in B0))
            report.drift_zero_violations += int(np.sum(zero_mag > 1e-14))
    return report
