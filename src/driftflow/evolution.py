"""Implicit time stepping, truncation continuation, and trajectory checks.

One step of the product scheme solves a resolvent equation at the right
endpoint of the interval:

  fully-implicit   u_j + tau * (-div[A(grad u_j) + B(u_j)]) = u_{j-1} - tau div F(t_j)
  semi-implicit    u_j + tau * A_M(t_j) u_j = u_{j-1} + tau * f_M(t_j, u_{j-1})

where A_M keeps only the unbounded drift remainder implicit and
f_M(t, w) = -div(F(t) - theta_M B(t, w)) carries the bounded part
explicitly.  Both are first-order consistent; the fully implicit form is
unconditionally dissipative, the splitting form makes the truncation level
observable and is what the continuation study varies.

Every step is followed by a discrete energy check

  1/2 |u_j|^2 + tau (alpha/2) |grad u_j|^2 <= 1/2 |u_{j-1}|^2 + tau <f_j, u_j> + tol

with f_j the step's own effective source and tol the fixed `_ENERGY_TOL`;
the schemes satisfy it by construction up to solver tolerance.  With
F = F(t_j) the source flux,

  semi-implicit    <f_j, u_j> = (F, grad u_j) - <S_theta(u_{j-1}), u_j>
  fully-implicit   <f_j, u_j> = (F, grad u_j) - (B(u_j), grad u_j)

and the drift's terms come from the operator (see `operators`):
S_theta(w) = -div(theta_M B(w)) is its `explicit_drift`, which also moves
the explicit drift to the right-hand side, and (B(u), grad u) its
`drift_energy`.

Along a march the resolve of step j starts from the polynomial
extrapolation of the last q + 1 states,

  u_j^(0) = sum_{k=0..q} (-1)^k C(q+1, k+1) u_{j-1-k},

the degree-q polynomial through them evaluated one step on, with q the
smaller of `_EXTRAPOLATION_ORDER` and the number of earlier steps (step 1
starts from u_0, step 2 linearly, and so on).  Only the starting point
moves: the solver still converges to tolerance and the energy check reads
the converged state.  Each march starts a fresh history; the public `step`
starts from u_prev.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import grid
from .grid import (
    GridFunction,
    divergence,
    gradient,
    gradient_sq,
    inner,
    inner_vec,
    norm_l2,
)
from .models import ProblemData, TruncationPlan, drift_bound_max
from .operators import ResolventConfig, SolverDiagnostics, TruncatedOperator

# Slack of the per-step energy inequality: the solver tolerance and roundoff.
# A fixed constant, so no setting can loosen the gate.
_ENERGY_TOL = 1e-10
# Degree of the polynomial through the last states that starts each resolve
# of a march.  On the drift presets the summed iterations fall with the
# order up to 5 (singular_drift_decay_3d: 1115 cold, 374 at 5, 385 at 6).
_EXTRAPOLATION_ORDER = 5
# (-1)^k C(q+1, k+1) for k = 0..q, the weights of order q at index q
_EXTRAPOLATION_WEIGHTS = tuple(
    tuple((-1) ** k * math.comb(q + 1, k + 1) for k in range(q + 1))
    for q in range(_EXTRAPOLATION_ORDER + 1)
)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-marching settings."""

    dt: float
    horizon: float
    splitting: str = "fully-implicit"
    truncation: TruncationPlan | None = None
    resolvent: ResolventConfig = field(default_factory=lambda: ResolventConfig(tol=1e-12))

    def __post_init__(self):
        for name in ("dt", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.dt >= 1.0:
            raise ValueError("dt must be < 1")
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ValueError("horizon must be an integer number of steps")
        if self.splitting not in ("fully-implicit", "semi-implicit"):
            raise ValueError(f"unknown splitting {self.splitting!r}")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass
class EvolutionTrace:
    """Per-step norms, energies and solver effort; the states go to `observe`.

    `source_sum` is sum_j tau |F(t_j)|^2 over the steps taken, added up in
    step order by the march from the source it samples once per step.  The
    last five columns are the step's `SolverDiagnostics`: the residual the
    resolve stopped at, its damping halvings, its accepted and its rejected
    Anderson iterates, and its final damping factor.
    """

    times: list[float] = field(default_factory=list)
    l2_norms: list[float] = field(default_factory=list)
    h1_seminorms: list[float] = field(default_factory=list)
    cumulative_dissipation: list[float] = field(default_factory=list)
    truncation_level: list[float] = field(default_factory=list)
    solver_iterations: list[int] = field(default_factory=list)
    energy_violation: list[float] = field(default_factory=list)
    final_residual: list[float] = field(default_factory=list)
    backtracks: list[int] = field(default_factory=list)
    mixed_steps: list[int] = field(default_factory=list)
    rejected_mixes: list[int] = field(default_factory=list)
    damping: list[float] = field(default_factory=list)
    initial_l2: float = 0.0
    source_sum: float = 0.0

    CSV_COLUMNS = (
        "step",
        "t",
        "l2_norm",
        "h1_seminorm",
        "cumulative_dissipation",
        "M_level",
        "resolvent_iters",
        "energy_violation",
        "final_residual",
        "backtracks",
        "mixed_steps",
        "rejected_mixes",
        "damping",
    )

    def append(self, t, l2, h1, dissip, level, violation, diag: SolverDiagnostics):
        self.times.append(t)
        self.l2_norms.append(l2)
        self.h1_seminorms.append(h1)
        self.cumulative_dissipation.append(dissip)
        self.truncation_level.append(level)
        self.solver_iterations.append(diag.iterations)
        self.energy_violation.append(violation)
        self.final_residual.append(diag.residuals[-1])
        self.backtracks.append(diag.backtracks)
        self.mixed_steps.append(diag.mixed_steps)
        self.rejected_mixes.append(diag.rejected_mixes)
        self.damping.append(diag.relaxation)

    @property
    def violations(self) -> int:
        return sum(1 for v in self.energy_violation if v > 0)

    def rows(self):
        return zip(
            range(1, len(self.times) + 1),
            self.times,
            self.l2_norms,
            self.h1_seminorms,
            self.cumulative_dissipation,
            self.truncation_level,
            self.solver_iterations,
            self.energy_violation,
            self.final_residual,
            self.backtracks,
            self.mixed_steps,
            self.rejected_mixes,
            self.damping,
        )

    def write_csv(self, path) -> None:
        """One line per step: floats as repr, everything else as str."""
        lines = [",".join(self.CSV_COLUMNS)]
        lines.extend(
            ",".join([repr(x) if isinstance(x, float) else str(x) for x in row])
            for row in self.rows()
        )
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def measured_bound_constant(self) -> float:
        """C in sup_j |u_j|^2 + sum tau |grad u_j|^2 <= C (|u_0|^2 + T + sum tau |F_j|^2)."""
        if not self.times:
            return 0.0
        lhs = max(x**2 for x in self.l2_norms) + self.cumulative_dissipation[-1]
        return lhs / (self.initial_l2**2 + self.times[-1] + self.source_sum)


@dataclass
class StepResult:
    state: GridFunction
    diagnostics: SolverDiagnostics
    energy_slack: float
    # |u_j|^2, |grad u_j|^2 and |F(t_j)|^2 (0 without a source), computed
    # once for the energy check and reused by the march
    l2_sq: float
    h1_sq: float
    source_sq: float


def _root(sq: float) -> float:
    """Square root of a squared norm, rounded as `norm_l2` and `norm_h1` round."""
    return float(np.sqrt(max(sq, 0.0)))


def _step_operator(
    data: ProblemData, t: float, cfg: EvolutionConfig, level: float | None
) -> TruncatedOperator:
    """The implicit part of a step: A + B fully implicit, else A_M."""
    mode = "full" if cfg.splitting == "fully-implicit" else "remainder"
    return TruncatedOperator(data, t, level=level, drift_mode=mode)


def _step_detailed(
    u_prev: GridFunction,
    cfg: EvolutionConfig,
    op: TruncatedOperator,
    prev_sq: float | None = None,
    guess: GridFunction | None = None,
    rescfg: ResolventConfig | None = None,
) -> StepResult:
    """One step landing on op.t, solved with the step's operator `op`.

    prev_sq is |u_prev|^2 if the caller already has it; the resolve starts
    from `guess`, or from u_prev if None.  rescfg is cfg.resolvent at
    lam = dt, built here if None.
    """
    tau = cfg.dt
    t, data = op.t, op.data
    dom = data.domain
    if rescfg is None:
        rescfg = replace(cfg.resolvent, lam=tau)
    implicit = cfg.splitting == "fully-implicit"
    F = data.source_field(t)
    rhs = u_prev.values
    explicit = None
    if data.has_drift and not implicit:
        # the explicit drift moves to the right-hand side as S_theta(u_prev)
        explicit = op.explicit_drift(u_prev.values)
        rhs = rhs - tau * explicit
    if F is not None:
        rhs = rhs - tau * divergence(F).values
    x0 = u_prev if guess is None else guess
    u_new, diag = op.resolve_detailed(GridFunction(dom, rhs), rescfg, x0=x0)
    if F is None:
        pair, h1_sq = 0.0, gradient_sq(u_new)
    else:
        gu = gradient(u_new)
        pair, h1_sq = inner_vec(F, gu), inner_vec(gu, gu)
    # the drift's part of <f_j, u_j> (see the module docstring)
    if explicit is not None:
        pair -= dom.node_weight * float(np.vdot(explicit, u_new.values))
    elif data.has_drift:
        pair -= op.drift_energy(u_new.values)
    l2_sq = inner(u_new, u_new)
    if prev_sq is None:
        prev_sq = inner(u_prev, u_prev)
    alpha = data.diffusion.alpha
    slack = 0.5 * l2_sq + tau * 0.5 * alpha * h1_sq - 0.5 * prev_sq - tau * pair
    return StepResult(
        state=u_new,
        diagnostics=diag,
        energy_slack=slack,
        l2_sq=l2_sq,
        h1_sq=h1_sq,
        source_sq=inner_vec(F, F) if F is not None else 0.0,
    )


def step(
    u_prev: GridFunction,
    t: float,
    cfg: EvolutionConfig,
    data: ProblemData,
    level: float | None = None,
) -> GridFunction:
    """One implicit step landing on time t (coefficients evaluated at t)."""
    return _step_detailed(u_prev, cfg, _step_operator(data, t, cfg, level)).state


def _extrapolate(
    history: deque[GridFunction], out: np.ndarray, term: np.ndarray
) -> np.ndarray:
    """sum_k (-1)^k C(q+1, k+1) u_{j-1-k} over the states held, newest first.

    The degree-q polynomial through the q + 1 states, evaluated one step
    past the newest; with one state it is that state.  Written into `out`
    with `term` as scratch, by the same products and sums in the same order
    as the plain expression, so the result is bit for bit the same.
    """
    weights = _EXTRAPOLATION_WEIGHTS[len(history) - 1]
    np.multiply(history[0].values, weights[0], out=out)
    for k in range(1, len(weights)):
        np.multiply(weights[k], history[k].values, out=term)
        np.add(out, term, out=out)
    return out


def _default_level(cfg: EvolutionConfig) -> float | None:
    if cfg.truncation is None:
        return None
    return cfg.truncation.levels[-1]


def _march(
    data: ProblemData, cfg: EvolutionConfig, level: float | None,
    u0: GridFunction | None, trace: EvolutionTrace,
) -> Iterator[tuple[float, GridFunction]]:
    """The one loop that advances a march: yield (t_j, u_j) for j = 0..steps.

    Starts from a copy of u0 (data.initial if None), appends each step to
    `trace` and holds only the last `_EXTRAPOLATION_ORDER + 1` states, the
    history that starts each resolve (see the module docstring).
    """
    if level is None:
        level = _default_level(cfg)
    if data.has_drift and cfg.splitting == "semi-implicit" and level is None:
        raise ValueError("semi-implicit with drift needs a truncation level")
    if u0 is not None and u0.domain != data.domain:
        raise ValueError(f"u0 lives on {u0.domain}, the problem on {data.domain}")
    if cfg.truncation is not None and level in cfg.truncation.levels:
        k = cfg.truncation.levels.index(level)
        if not cfg.truncation.certified(k):
            # frames: this generator, the loop that drives it, its caller
            warnings.warn(
                f"truncation level {level:.6g} carries no accretivity "
                "certificate; the run continues but the alpha/2 margin is "
                "not guaranteed",
                RuntimeWarning,
                stacklevel=3,
            )
    u = (u0 if u0 is not None else data.initial).copy()
    u_sq = inner(u, u)
    trace.initial_l2 = _root(u_sq)
    history = deque([u], maxlen=_EXTRAPOLATION_ORDER + 1)
    # the guess and its scratch term, reused by every step: the resolve
    # starts from a copy, so no state aliases them
    guess, term = np.empty_like(u.values), np.empty_like(u.values)
    yield 0.0, u
    dissip = 0.0
    tau = cfg.dt
    rescfg = replace(cfg.resolvent, lam=tau)
    # one operator per march; each step moves it to its own time, which
    # re-samples nothing for autonomous data
    op = _step_operator(data, tau, cfg, level)
    for j in range(1, cfg.steps + 1):
        t = j * tau
        op = op.at(t)
        try:
            x0 = GridFunction(u.domain, _extrapolate(history, guess, term))
            res = _step_detailed(u, cfg, op, u_sq, guess=x0, rescfg=rescfg)
        except grid.ConvergenceError as err:
            err.args = (f"step {j} (t={t:.6g}) failed: {err.args[0]}",)
            err.step, err.t, err.trace = j, t, trace
            raise
        u, u_sq = res.state, res.l2_sq
        history.appendleft(u)
        h1 = _root(res.h1_sq)
        dissip += tau * h1**2
        trace.source_sum += tau * res.source_sq
        trace.append(
            t,
            _root(u_sq),
            h1,
            dissip,
            float("nan") if level is None else level,
            max(0.0, res.energy_slack - _ENERGY_TOL),
            res.diagnostics,
        )
        yield t, u


def evolve(
    data: ProblemData,
    cfg: EvolutionConfig,
    level: float | None = None,
    u0: GridFunction | None = None,
    observe: Callable[[float, GridFunction], None] | None = None,
) -> tuple[GridFunction, EvolutionTrace]:
    """March to the horizon, recording norms and energy slack per step.

    `observe(t, u)`, if given, sees the initial state at t = 0 and then each
    new state; nothing keeps the trajectory.  Step failures raise
    ConvergenceError with the step, its time and the partial trace attached.
    """
    trace = EvolutionTrace()
    for t, u in _march(data, cfg, level, u0, trace):
        if observe is not None:
            observe(t, u)
    return u, trace


@dataclass
class ContinuationLevel:
    level: float
    certified: bool
    final_state: GridFunction
    trace: EvolutionTrace


@dataclass
class ContinuationResult:
    levels: list[ContinuationLevel]
    differences: list[float]
    warnings: list[str]

    @property
    def differences_nonincreasing(self) -> bool:
        return all(
            b <= a * (1.0 + 1e-9) + 1e-300
            for a, b in zip(self.differences, self.differences[1:])
        )


def continuation(data: ProblemData, cfg: EvolutionConfig) -> ContinuationResult:
    """Run the truncation schedule M_0 < M_1 < ... and compare final states.

    Always marches with the splitting that keeps the truncated remainder
    implicit and the weighted drift explicit; the fully implicit scheme does
    not depend on the level, so a continuation under it would be vacuous.
    Uncertified levels produce a warning and the run continues.
    """
    if cfg.truncation is None or len(cfg.truncation.levels) < 2:
        raise ValueError("continuation needs a truncation plan with at least 2 levels")
    cfg = replace(cfg, splitting="semi-implicit")
    levels = []
    notes = []
    for k, M in enumerate(cfg.truncation.levels):
        cert = cfg.truncation.certificates[k]
        if not cert.passes_evolution:
            notes.append(
                f"level {M:.6g} lacks an accretivity certificate "
                f"(measured {cert.measured:.3e}): {cert.note or 'bound exceeded'}"
            )
        # the per-level warning is already collected above; silence the
        # duplicate emitted by evolve
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            final, trace = evolve(data, cfg, level=M)
        levels.append(
            ContinuationLevel(
                level=M, certified=cert.passes_evolution, final_state=final, trace=trace
            )
        )
    diffs = [
        norm_l2(levels[k + 1].final_state - levels[k].final_state)
        for k in range(len(levels) - 1)
    ]
    return ContinuationResult(levels=levels, differences=diffs, warnings=notes)


@dataclass
class UniquenessReport:
    """Two-trajectory separation against the discrete Gronwall envelope."""

    times: list[float]
    distances: list[float]
    growth_constant: float
    tightest_exponent: float
    bound_satisfied: bool
    contraction_monotone: bool

    def as_dict(self) -> dict:
        return {
            "growth_constant": self.growth_constant,
            "tightest_exponent": self.tightest_exponent,
            "bound_satisfied": self.bound_satisfied,
            "contraction_monotone": self.contraction_monotone,
            "final_distance": self.distances[-1] if self.distances else 0.0,
        }


def uniqueness_harness(
    data: ProblemData,
    cfg: EvolutionConfig,
    u0: GridFunction,
    v0: GridFunction,
    level: float | None = None,
) -> UniquenessReport:
    """March two initial states and check |u_j - v_j| <= e^{C t_j} |u_0 - v_0|.

    The two marches advance in lockstep, so only their current states are
    held.  C is the measured growth constant of the step's drift coupling,
    b_max^2 / (2 alpha) corrected for the finite step; it is zero without
    drift, in which case the scheme must contract monotonically.
    """
    if level is None:
        level = _default_level(cfg)
    times, dists = [], []
    for (t, u), (_, v) in zip(
        _march(data, cfg, level, u0, EvolutionTrace()),
        _march(data, cfg, level, v0, EvolutionTrace()),
    ):
        times.append(t)
        dists.append(norm_l2(u - v))
    d0 = dists[0]
    alpha = data.diffusion.alpha
    if data.has_drift:
        clamp = level if cfg.splitting == "semi-implicit" else None
        b_eff = drift_bound_max(data, cfg.horizon, clamp)
        C0 = b_eff**2 / (2 * alpha)
        C = C0 / (1.0 - cfg.dt * C0) if cfg.dt * C0 < 1 else math.inf
    else:
        C = 0.0
    tol_rel = 1e-8
    ok = all(
        d <= math.exp(C * t) * d0 * (1 + tol_rel) + 4 * cfg.resolvent.tol
        for t, d in zip(times, dists)
    )
    monotone = all(
        b <= a * (1 + tol_rel) + 4 * cfg.resolvent.tol for a, b in zip(dists, dists[1:])
    )
    exponents = [
        math.log(d / d0) / t for t, d in zip(times[1:], dists[1:]) if d > 0 and d0 > 0
    ]
    tightest = max(exponents) if exponents else -math.inf
    return UniquenessReport(
        times=times,
        distances=dists,
        growth_constant=C,
        tightest_exponent=tightest,
        bound_satisfied=ok,
        contraction_monotone=monotone,
    )


@dataclass(frozen=True)
class SpaceTimeTest:
    """Separable test function E(x) psi(t) vanishing at the final time."""

    name: str
    value: Callable[[grid.BoxDomain, float], GridFunction]
    dt: Callable[[grid.BoxDomain, float], GridFunction]


def default_test_battery(domain: grid.BoxDomain, T: float) -> list[SpaceTimeTest]:
    """Smooth space profiles (zero trace) times polynomials with psi(T) = 0."""
    lengths = domain.lengths

    def eigen(coords, ks):
        out = 1.0
        for x, L, k in zip(coords, lengths, ks):
            out = out * np.sin(k * np.pi * x / L)
        return out

    def bump(coords):
        out = 1.0
        for x, L in zip(coords, lengths):
            out = out * (x * (L - x) / (L / 2) ** 2) ** 2
        return out

    spatial = [
        ("mode1", lambda c: eigen(c, (1,) * domain.dim)),
        ("mode2", lambda c: eigen(c, (2,) + (1,) * (domain.dim - 1))),
        ("bump", bump),
    ]
    temporal = [
        ("lin", lambda t: 1.0 - t / T, lambda t: -1.0 / T),
        ("quad", lambda t: (1.0 - t / T) ** 2, lambda t: -2.0 * (1.0 - t / T) / T),
        ("arch", lambda t: (t / T) * (1.0 - t / T), lambda t: (1.0 - 2.0 * t / T) / T),
    ]
    battery = []
    for sname, profile in spatial:
        for tname, psi, dpsi in temporal:
            battery.append(
                SpaceTimeTest(
                    name=f"{sname}*{tname}",
                    value=lambda dom, t, profile=profile, psi=psi: grid.sample(
                        dom, lambda c: psi(t) * profile(c)
                    ),
                    dt=lambda dom, t, profile=profile, dpsi=dpsi: grid.sample(
                        dom, lambda c: dpsi(t) * profile(c)
                    ),
                )
            )
    return battery


@dataclass
class WeakResidualEntry:
    name: str
    residual: float
    normalized: float


def weak_residual(
    states: Sequence[GridFunction],
    data: ProblemData,
    dt: float,
    tests: Sequence[SpaceTimeTest] | None = None,
) -> list[WeakResidualEntry]:
    """Residual of the space-time weak identity on a discrete trajectory.

    states[0] is the initial value and states[j] the state at t_j = j dt.
    The identity tested, with right-endpoint time quadrature, is

      - sum_j tau <u_j, dphi/dt(t_j)> + sum_j tau (flux(u_j), grad phi_j)
          = sum_j tau (F(t_j), grad phi_j) + <u_0, phi(0)>

    with the full A + B flux; the marching schemes satisfy it up to
    O(tau + h^2) plus solver tolerance.
    """
    if len(states) < 2:
        raise ValueError(f"states needs u_0 and at least one step, got {len(states)}")
    dom = data.domain
    T = dt * (len(states) - 1)
    if tests is None:
        tests = default_test_battery(dom, T)
    op = TruncatedOperator(data, dt, drift_mode="full")
    # one accumulator pair per test, summed over the slices in the same j
    # order as a per-test loop; each slice's flux and source are assembled once
    acc = [0.0] * len(tests)
    scale = [0.0] * len(tests)
    for j in range(1, len(states)):
        t = j * dt
        u = states[j]
        op = op.at(t)
        flux = op.flux(u)
        src = data.source_field(t)
        u_n = norm_l2(u)
        flux_n = math.sqrt(max(inner_vec(flux, flux), 0.0))
        src_n = math.sqrt(max(inner_vec(src, src), 0.0)) if src is not None else 0.0
        for i, test in enumerate(tests):
            phi = test.value(dom, t)
            dphi = test.dt(dom, t)
            gphi = gradient(phi)
            src_pair = inner_vec(src, gphi) if src is not None else 0.0
            acc[i] += dt * (-inner(u, dphi) + inner_vec(flux, gphi) - src_pair)
            # Cauchy-Schwarz size of the terms; immune to cancellation, so the
            # normalized residual stays meaningful for test functions nearly
            # orthogonal to the trajectory.
            gphi_n = math.sqrt(max(inner_vec(gphi, gphi), 0.0))
            scale[i] += dt * (
                u_n * norm_l2(dphi)
                + flux_n * gphi_n
                + (src_n * gphi_n if src is not None else 0.0)
            )
    out = []
    for i, test in enumerate(tests):
        phi0 = test.value(dom, 0.0)
        total = acc[i] - inner(states[0], phi0)
        size = scale[i] + norm_l2(states[0]) * norm_l2(phi0)
        out.append(
            WeakResidualEntry(
                name=test.name,
                residual=abs(total),
                normalized=abs(total) / max(size, 1e-300),
            )
        )
    return out
