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
`drift_energy`.  The source term (F, grad u_j) is taken as -<div F, u_j>
from the div F the right-hand side already holds: the grid's exact
adjoint identity makes the two equal in exact arithmetic, and in floating
point they differ by at most c eps w sum_a sum_faces |F_a| (|u_lo| +
|u_hi|) / h_a over the two nodes of each face, c < 1 measured on random
and smooth fields in 1-3 dimensions.

Along a march the resolve of step j starts from the polynomial
extrapolation of the last q + 1 states,

  u_j^(0) = sum_{k=0..q} (-1)^k C(q+1, k+1) u_{j-1-k},

the degree-q polynomial through them evaluated one step on, with q the
smaller of `_EXTRAPOLATION_ORDER` and the number of earlier steps (step 1
starts from u_0, step 2 linearly, and so on).  The march copies each state
into a ring of q + 1 slots and forms the guess as one product, the
weights rotated to the slots' order times the ring.  Only the starting
point moves: the solver still converges to tolerance and the energy check
reads the converged state.  Each march starts a fresh ring; the public
`step` starts from u_prev.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import grid
from .grid import (
    GridFunction,
    divergence,
    gradient,
    inner,
    inner_vec,
    norm_l2,
)
from .models import ProblemData, TruncationPlan, saturated
from .operators import ResolventConfig, SolverDiagnostics, TruncatedOperator

# Slack of the per-step energy inequality: the solver tolerance and roundoff.
# A fixed constant, so no setting can loosen the gate.
_ENERGY_TOL = 1e-10
# Degree of the polynomial through the last states that starts each resolve
# of a march.  On the drift presets the summed iterations fall with the
# order up to 5 (singular_drift_decay_3d: 1115 cold, 374 at 5, 385 at 6).
_EXTRAPOLATION_ORDER = 5


def _ring_weights(n: int) -> np.ndarray:
    """The guess's weights after state n, by ring slot: u_i in slot i % (q + 1).

    u_{n-k} weighs (-1)^k C(m+1, k+1) for k = 0..m, m = min(n, q), with
    q = `_EXTRAPOLATION_ORDER`; an empty slot weighs 0.
    """
    slots = _EXTRAPOLATION_ORDER + 1
    m = min(n, _EXTRAPOLATION_ORDER)
    row = np.zeros(slots)
    for k in range(m + 1):
        row[(n - k) % slots] = (-1) ** k * math.comb(m + 1, k + 1)
    return row


# from n = q on a row depends only on n % (q + 1): rows n < 2(q + 1) serve all n
_RING_WEIGHTS = np.array(
    [_ring_weights(n) for n in range(2 * _EXTRAPOLATION_ORDER + 2)]
)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-marching settings.

    A march runs to its problem's horizon, `ProblemData.horizon`, in
    `steps(data)` steps of dt.  Each step solves its resolvent at lam = dt
    to `tol` within `max_iter` iterations: `resolvent`, derived, not set.
    """

    dt: float
    splitting: str = "fully-implicit"
    truncation: TruncationPlan | None = None
    tol: float = 1e-12
    max_iter: int = 400
    resolvent: ResolventConfig = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and 0 < self.dt < 1):
            raise ValueError(f"dt must be finite and in (0, 1), got {self.dt!r}")
        if self.splitting not in ("fully-implicit", "semi-implicit"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
        object.__setattr__(self, "resolvent", ResolventConfig(self.dt, self.tol, self.max_iter))

    def steps(self, data: ProblemData) -> int:
        """The number of steps to data.horizon, which must be a whole number."""
        T = data.horizon
        n = round(T / self.dt)
        if n < 1 or abs(n * self.dt - T) > 1e-9 * T:
            raise ValueError(f"horizon {T!r} is not an integer number of steps of dt {self.dt!r}")
        return n


def _column(csv: str, counter: bool = False):
    """A per-step field of `EvolutionTrace`, its CSV column headed `csv`.

    `EvolutionTrace.counter_totals` sums the counter columns.
    """
    return field(default_factory=list, metadata={"csv": csv, "counter": counter})


@dataclass
class EvolutionTrace:
    """Per-step norms, energies and solver effort; the states go to `observe`.

    `source_sum` is sum_j tau |F(t_j)|^2 over the steps taken, added up in
    step order by the march from the source it samples once per step.  The
    last five columns are the step's `SolverDiagnostics`: the residual the
    resolve stopped at, its damping halvings, its accepted and its rejected
    Anderson iterates, and its final damping factor.  `CSV_COLUMNS` is the
    step index followed by the `_column` fields in declaration order.
    """

    times: list[float] = _column("t")
    l2_norms: list[float] = _column("l2_norm")
    h1_seminorms: list[float] = _column("h1_seminorm")
    cumulative_dissipation: list[float] = _column("cumulative_dissipation")
    truncation_level: list[float] = _column("M_level")
    solver_iterations: list[int] = _column("resolvent_iters", counter=True)
    energy_violation: list[float] = _column("energy_violation")
    final_residual: list[float] = _column("final_residual")
    backtracks: list[int] = _column("backtracks", counter=True)
    mixed_steps: list[int] = _column("mixed_steps", counter=True)
    rejected_mixes: list[int] = _column("rejected_mixes", counter=True)
    damping: list[float] = _column("damping")
    initial_l2: float = 0.0
    source_sum: float = 0.0

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
            *(getattr(self, f.name) for f in _TRACE_COLUMNS),
        )

    @staticmethod
    def counter_totals(traces: Sequence[EvolutionTrace]) -> dict[str, int]:
        """Each counter column's sum over every step of `traces`, by header."""
        return {
            f.metadata["csv"]: sum(sum(getattr(tr, f.name)) for tr in traces)
            for f in _TRACE_COLUMNS
            if f.metadata["counter"]
        }

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


_TRACE_COLUMNS = tuple(f for f in fields(EvolutionTrace) if "csv" in f.metadata)
EvolutionTrace.CSV_COLUMNS = ("step",) + tuple(f.metadata["csv"] for f in _TRACE_COLUMNS)


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


def _step_operator(data: ProblemData, t: float, cfg: EvolutionConfig) -> TruncatedOperator:
    """The implicit part of a step: A + B fully implicit, else A_M.

    A drift's A_M runs at the last level of `cfg.truncation`, which it
    cannot do without; A + B clamps nothing, and neither it nor a
    drift-free operator has a level.
    """
    plan = cfg.truncation
    if cfg.splitting == "fully-implicit":
        mode = "full"
    elif data.has_drift and plan is None:
        raise ValueError("semi-implicit with drift needs a truncation plan")
    else:
        mode = "remainder"
    level = None if plan is None else plan.levels[-1]
    return TruncatedOperator(data, t, level=level, drift_mode=mode)


def _step_detailed(
    u_prev: GridFunction,
    cfg: EvolutionConfig,
    op: TruncatedOperator,
    prev_sq: float | None = None,
    guess: GridFunction | None = None,
) -> StepResult:
    """One step landing on op.t, solved with the step's operator `op`.

    The drift is split as `op` splits it: an operator with a level keeps
    (1 - theta_M) B implicit and moves theta_M B to the right-hand side,
    one without (A + B) keeps all of B implicit.  prev_sq is |u_prev|^2 if
    the caller already has it; the resolve starts from `guess`, or from
    u_prev if None.
    """
    tau = cfg.dt
    t, data = op.t, op.data
    dom = data.domain
    F = data.source_field(t)
    rhs = u_prev.values
    explicit = None
    if op.level is not None:
        # the explicit drift moves to the right-hand side as S_theta(u_prev)
        explicit = op.explicit_drift(u_prev.values)
        rhs = rhs - tau * explicit
    if F is not None:
        div_F = divergence(F).values
        rhs = rhs - tau * div_F
    x0 = u_prev if guess is None else guess
    u_new, diag = op.resolve_detailed(GridFunction(dom, rhs), cfg.resolvent, x0=x0)
    sq, h1_sq = grid._square_sums(u_new)
    # (F, grad u_j) as -<div F, u_j> (see the module docstring)
    pair = 0.0 if F is None else -dom.node_weight * float(np.vdot(div_F, u_new.values))
    # the drift's part of <f_j, u_j> (see the module docstring)
    if explicit is not None:
        pair -= dom.node_weight * float(np.vdot(explicit, u_new.values))
    elif data.has_drift:
        pair -= op.drift_energy(u_new.values)
    l2_sq = dom.node_weight * sq
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
    u_prev: GridFunction, t: float, cfg: EvolutionConfig, data: ProblemData
) -> GridFunction:
    """One implicit step landing on time t (coefficients evaluated at t).

    It runs at its operator's level (`_step_operator`), as a march does.
    """
    return _step_detailed(u_prev, cfg, _step_operator(data, t, cfg)).state


def _march(
    data: ProblemData, cfg: EvolutionConfig, trace: EvolutionTrace
) -> Iterator[tuple[float, GridFunction]]:
    """The one loop that advances a march: yield (t_j, u_j) for j = 0..steps.

    t_steps is data.horizon (`EvolutionConfig.steps`, checked before any
    solve).  Every step runs at its operator's level (`_step_operator`):
    the last of `cfg.truncation` semi-implicitly, none fully implicitly or
    without a plan.  A level whose certificate fails draws a RuntimeWarning
    and the march goes on; a march without a level writes `M_level` nan.
    Starts from a copy of data.initial, appends each step to `trace` and
    holds copies of only the last `_EXTRAPOLATION_ORDER + 1` states, the
    ring that starts each resolve (see the module docstring).
    """
    steps = cfg.steps(data)
    tau = cfg.dt
    # one operator per march; each step moves it to its own time, which
    # re-samples nothing for autonomous data
    op = _step_operator(data, tau, cfg)
    if op.level is not None and not cfg.truncation.certificates[-1].passes_evolution:
        # frames: this generator, the loop that drives it, its caller
        warnings.warn(
            f"truncation level {op.level:.6g} carries no accretivity "
            "certificate; the run continues but the alpha/2 margin is "
            "not guaranteed",
            RuntimeWarning,
            stacklevel=3,
        )
    level = float("nan") if op.level is None else op.level
    u = data.initial.copy()
    u_sq = inner(u, u)
    trace.initial_l2 = _root(u_sq)
    # the last q + 1 states, copied in: no yielded state aliases a slot
    slots = _EXTRAPOLATION_ORDER + 1
    ring = np.zeros((slots, u.values.size))
    ring[0] = u.values.ravel()
    yield 0.0, u
    dissip = 0.0
    for j in range(1, steps + 1):
        t = j * tau
        op = op.at(t)
        n = j - 1
        weights = _RING_WEIGHTS[n if n < slots else slots + n % slots]
        try:
            x0 = GridFunction(u.domain, (weights @ ring).reshape(u.values.shape))
            res = _step_detailed(u, cfg, op, u_sq, guess=x0)
        except grid.ConvergenceError as err:
            err.args = (f"step {j} (t={t:.6g}) failed: {err.args[0]}",)
            err.step, err.t, err.trace = j, t, trace
            raise
        u, u_sq = res.state, res.l2_sq
        ring[j % slots] = u.values.ravel()
        h1 = _root(res.h1_sq)
        dissip += tau * h1**2
        trace.source_sum += tau * res.source_sq
        trace.append(
            t,
            _root(u_sq),
            h1,
            dissip,
            level,
            max(0.0, res.energy_slack - _ENERGY_TOL),
            res.diagnostics,
        )
        yield t, u


def evolve(
    data: ProblemData,
    cfg: EvolutionConfig,
    *,
    observe: Callable[[float, GridFunction], None] | None = None,
) -> tuple[GridFunction, EvolutionTrace]:
    """March data.initial to data.horizon, recording norms and energy slack per step.

    A semi-implicit march runs at the last level of `cfg.truncation`, a
    fully implicit one at none (see `_march`).

    `observe(t, u)`, if given, sees the initial state at t = 0 and then each
    new state; nothing keeps the trajectory.  Step failures raise
    ConvergenceError with the step, its time and the partial trace attached.
    """
    trace = EvolutionTrace()
    for t, u in _march(data, cfg, trace):
        if observe is not None:
            observe(t, u)
    return u, trace


@dataclass
class ContinuationLevel:
    level: float
    certified: bool
    final_state: GridFunction
    trace: EvolutionTrace
    # the level whose march this level's state and trace copy, None if it
    # was marched itself (see `continuation`)
    reuses: float | None = None


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
    Level k marches under the one-level plan of M_k and its certificate,
    so it runs at M_k as any march runs at its plan's last level.
    Uncertified levels produce a warning and the run continues.  Data
    without a drift raises ValueError before any solve: no level enters its
    operator, so there would be nothing to compare.

    Every level from the first `models.saturated` one on (at every time, so
    only with an autonomous drift) truncates nothing: its operator, and so
    its march, is bit for bit the first saturated level's.  That level is
    marched once; each later one gets a copy of its final state and of its
    trace, with `truncation_level` set to its own M, and names it in
    `reuses`.
    """
    if not data.has_drift:
        raise ValueError(f"continuation needs a drift; {data.name!r} has none")
    if cfg.truncation is None or len(cfg.truncation.levels) < 2:
        raise ValueError("continuation needs a truncation plan with at least 2 levels")
    cfg = replace(cfg, splitting="semi-implicit")
    plan = cfg.truncation
    levels = []
    notes = []
    shared = None  # the first saturated level, once marched
    for k, cert in enumerate(plan.certificates):
        M = cert.level
        if not cert.passes_evolution:
            notes.append(
                f"level {M:.6g} lacks an accretivity certificate "
                f"(measured {cert.measured:.3e}): {cert.note or 'bound exceeded'}"
            )
        if shared is None:
            # the per-level warning is already collected above; silence the
            # duplicate emitted by evolve
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                one = TruncationPlan(plan.certificates[k : k + 1])
                final, trace = evolve(data, replace(cfg, truncation=one))
        else:
            final = shared.final_state.copy()
            columns = {f.name: list(getattr(shared.trace, f.name)) for f in _TRACE_COLUMNS}
            columns["truncation_level"] = [M] * len(shared.trace.times)
            trace = replace(shared.trace, **columns)
        levels.append(
            ContinuationLevel(
                level=M, certified=cert.passes_evolution, final_state=final, trace=trace,
                reuses=None if shared is None else shared.level,
            )
        )
        if shared is None and saturated(data, M):
            shared = levels[-1]
    diffs = [
        norm_l2(levels[k + 1].final_state - levels[k].final_state)
        for k in range(len(levels) - 1)
    ]
    return ContinuationResult(levels=levels, differences=diffs, warnings=notes)


# metadata of a report field that its JSON leaves out (the per-step series)
_NOT_IN_JSON = {"json": False}


def _json_fields(report) -> dict:
    """A report dataclass's fields by name, all but those marked `_NOT_IN_JSON`."""
    return {
        f.name: getattr(report, f.name)
        for f in fields(report)
        if f.metadata.get("json", True)
    }


@dataclass
class UniquenessReport:
    """Two-trajectory separation against the discrete Gronwall envelope."""

    times: list[float] = field(metadata=_NOT_IN_JSON)
    distances: list[float] = field(metadata=_NOT_IN_JSON)
    growth_constant: float
    tightest_exponent: float
    bound_satisfied: bool
    contraction_monotone: bool
    # the traces of the two marches, for their solver totals
    traces: tuple[EvolutionTrace, ...] = field(default=(), metadata=_NOT_IN_JSON)

    def as_dict(self) -> dict:
        final = self.distances[-1] if self.distances else 0.0
        return {**_json_fields(self), "final_distance": final}


def uniqueness_harness(
    data: ProblemData, cfg: EvolutionConfig, v0: GridFunction
) -> UniquenessReport:
    """March two initial states and check |u_j - v_j| <= e^{C t_j} |u_0 - v_0|.

    u_0 is the problem's initial state and v_0 is v0.  The two marches
    advance in lockstep, each as `evolve` marches the problem from its
    initial state (`ProblemData` refuses a v0 on another grid), so only
    their current states are held.  C is the measured growth constant of
    the step's drift coupling, b_max^2 / (2 alpha) corrected for the finite
    step, with b_max the step operator's `drift_face_max` (clamped at the
    level when semi-implicit); it is zero without drift, in which case the
    scheme must contract monotonically.
    """
    times, dists = [], []
    traces = (EvolutionTrace(), EvolutionTrace())
    for (t, u), (_, v) in zip(
        _march(data, cfg, traces[0]),
        _march(replace(data, initial=v0), cfg, traces[1]),
    ):
        times.append(t)
        dists.append(norm_l2(u - v))
    d0 = dists[0]
    alpha = data.diffusion.alpha
    b_eff = _step_operator(data, data.horizon, cfg).drift_face_max()
    C0 = b_eff**2 / (2 * alpha)
    C = C0 / (1.0 - cfg.dt * C0) if cfg.dt * C0 < 1 else math.inf
    tol_rel = 1e-8
    ok = all(
        d <= math.exp(C * t) * d0 * (1 + tol_rel) + 4 * cfg.tol
        for t, d in zip(times, dists)
    )
    monotone = all(
        b <= a * (1 + tol_rel) + 4 * cfg.tol for a, b in zip(dists, dists[1:])
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
        traces=traces,
    )


@dataclass
class WeakResidualEntry:
    name: str
    residual: float
    normalized: float


def _space_profiles(domain: grid.BoxDomain) -> list[GridFunction]:
    """The battery's space profiles, zero on the boundary: mode1, mode2, bump."""
    axes = list(zip(grid.node_coordinates(domain), domain.lengths))
    ones = (1,) * (domain.dim - 1)
    values = [
        math.prod(np.sin(k * np.pi * x / L) for (x, L), k in zip(axes, (1,) + ones)),
        math.prod(np.sin(k * np.pi * x / L) for (x, L), k in zip(axes, (2,) + ones)),
        math.prod((x * (L - x) / (L / 2) ** 2) ** 2 for x, L in axes),
    ]
    return [GridFunction(domain, v) for v in values]


def _time_factors(t: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """psi and dpsi/dt at t of the battery's factors lin, quad, arch; psi(T) = 0."""
    s = t / T
    psi = np.array([1.0 - s, (1.0 - s) ** 2, s * (1.0 - s)])
    dpsi = np.array([-1.0, -2.0 * (1.0 - s), 1.0 - 2.0 * s]) / T
    return psi, dpsi


_BATTERY = tuple(
    f"{p}*{q}" for p in ("mode1", "mode2", "bump") for q in ("lin", "quad", "arch")
)


class WeakResidual:
    """The space-time weak identity of a march, summed as the march runs.

    Pass it to `evolve` as `observe`: it sees u_0 at t = 0 first, then u_j
    at t_j = j dt, and keeps only its sums.  With right-endpoint time
    quadrature the identity is

      - sum_j tau <u_j, dphi/dt(t_j)> + sum_j tau (flux(u_j), grad phi_j)
          = sum_j tau (F(t_j), grad phi_j) + <u_0, phi(0)>

    with the full A + B flux; the marching schemes satisfy it up to
    O(tau + h^2) plus solver tolerance.  The battery is separable,
    phi = psi(t) p(x): the three profiles of `_space_profiles`, sampled
    with their gradients once, times the three `_time_factors`.  Each
    slice pairs u_j, its flux and F(t_j) with every profile once, and psi
    and dpsi/dt scale those pairings.
    """

    def __init__(self, data: ProblemData, cfg: EvolutionConfig):
        self.data, self.dt, self.horizon = data, cfg.dt, data.horizon
        self.states = 0
        self._w = data.domain.node_weight
        self._op = TruncatedOperator(data, cfg.dt, drift_mode="full")
        profiles = _space_profiles(data.domain)
        grads = [gradient(p) for p in profiles]
        self._values = np.array([p.values.ravel() for p in profiles])
        # per axis, the profiles' face gradients as rows
        self._grads = [
            np.array([c.ravel() for c in comps]) for comps in zip(*(g.components for g in grads))
        ]
        self._norms = np.array([norm_l2(p) for p in profiles])
        self._grad_norms = np.array([_root(inner_vec(g, g)) for g in grads])
        # profile by factor, in the order of `_BATTERY`
        self._acc = np.zeros((len(profiles), 3))
        self._scale = np.zeros((len(profiles), 3))

    def _pair(self, field: grid.VectorField) -> np.ndarray:
        """(field, grad p) for each profile p."""
        return self._w * sum(g @ c.ravel() for g, c in zip(self._grads, field.components))

    def __call__(self, t: float, u: GridFunction) -> None:
        psi, dpsi = _time_factors(t, self.horizon)
        paired = self._w * (self._values @ u.values.ravel())
        u_n = norm_l2(u)
        self.states += 1
        if self.states == 1:
            self._acc -= np.outer(paired, psi)
            self._scale += u_n * np.outer(self._norms, np.abs(psi))
            return
        self._op = self._op.at(t)
        flux = self._op.flux(u)
        src = self.data.source_field(t)
        # Cauchy-Schwarz size of the terms; immune to cancellation, so the
        # normalized residual stays meaningful for test functions nearly
        # orthogonal to the trajectory.
        size = _root(inner_vec(flux, flux))
        spatial = self._pair(flux)
        if src is not None:
            size += _root(inner_vec(src, src))
            spatial -= self._pair(src)
        self._acc += self.dt * (np.outer(spatial, psi) - np.outer(paired, dpsi))
        self._scale += self.dt * (
            u_n * np.outer(self._norms, np.abs(dpsi))
            + size * np.outer(self._grad_norms, np.abs(psi))
        )

    def entries(self) -> list[WeakResidualEntry]:
        """|residual| and |residual| / size for each test phi, by name."""
        if self.states < 2:
            raise ValueError(
                f"the weak residual needs u_0 and one step, got {self.states} states"
            )
        return [
            WeakResidualEntry(name=name, residual=float(r), normalized=float(r / max(s, 1e-300)))
            for name, r, s in zip(_BATTERY, np.abs(self._acc).ravel(), self._scale.ravel())
        ]
