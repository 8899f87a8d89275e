"""Stationary solves and exponential-decay experiments.

The stationary problem -div[A(x, grad u) + B(x, u)] = -div F is solved by
the same preconditioned monotone iteration as the resolvents (one kernel,
`operators._monotone_iteration`), just without the identity term and with
residuals in the dual norm: `solve_steady(data, tol, x0=None)` returns the
state with the solver's record.  Strict monotonicity makes the solution
unique, which the tests confirm by starting from several initial guesses.

The decay experiment integrates the evolution problem, records
y(t_j) = |u_j - u_inf|^2, and fits the tail of log y.  The certified decay
rate for the norm is omega = alpha / (4 C_P) with C_P the discrete
Poincare constant 1/lambda_1, known in closed form; the cruder constant
alpha / (2 C_P) and the box bound C_P <= diam^2 / pi^2 are reported
alongside for reference.  The rate certificate additionally needs the
drift to be small: both the truncation remainder and the truncated part
must stay below alpha / (4 S) in the weak-L^N metric (S the
gradient-embedding constant).  `models` decides that
(`models.small_data_check`, from the truncation certificates); this
module only reports its answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid
from .grid import GridFunction, divergence, norm_l2, poincare_constant
from .models import ProblemData, small_data_check
from .operators import SolverDiagnostics, TruncatedOperator, stationary_solve
from .evolution import EvolutionConfig, EvolutionTrace, evolve
from .evolution import _NOT_IN_JSON, _json_fields


def solve_steady(
    data: ProblemData, tol: float, x0: GridFunction | None = None
) -> tuple[GridFunction, SolverDiagnostics]:
    """Stationary state at data.horizon with dual-norm residual below tol.

    Nonautonomous data is frozen at the problem's horizon,
    `ProblemData.horizon`: to freeze it at s > 0, build the problem with
    horizon s.  The solve starts from x0, or from 0 without one.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    t = data.horizon
    op = TruncatedOperator(data, t, drift_mode="full")
    F = data.source_field(t)
    rhs = (
        GridFunction(data.domain, -divergence(F).values)
        if F is not None
        else grid.zeros(data.domain)
    )
    return stationary_solve(op, rhs, tol=tol, x0=x0)


@dataclass
class DecayReport:
    """Measured decay of |u(t) - u_inf| against the certified rate."""

    theoretical_omega: float
    intro_omega: float
    fitted_rate: float
    margin: float
    small_data_pass: bool
    window: tuple[float, float]
    saturated: bool
    lyapunov_monotone: bool
    poincare_constant: float
    poincare_upper_bound: float
    small_data_detail: dict = field(default_factory=dict)
    times: list[float] = field(default_factory=list, metadata=_NOT_IN_JSON)
    y_values: list[float] = field(default_factory=list, metadata=_NOT_IN_JSON)
    # the marched trajectory's per-step record
    trace: EvolutionTrace | None = field(default=None, metadata=_NOT_IN_JSON)

    def as_dict(self) -> dict:
        return _json_fields(self)

    def write_series(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("t,y\n")
            for t, y in zip(self.times, self.y_values):
                f.write(f"{t!r},{y!r}\n")


def fit_decay_rate(times, y_values, window: tuple[float, float]) -> float:
    """Least-squares slope of log y on the window; returns the rate of sqrt(y)."""
    ts, ys = [], []
    for t, y in zip(times, y_values):
        if window[0] <= t <= window[1] and y > 0:
            ts.append(t)
            ys.append(math.log(y))
    if len(ts) < 2:
        return math.nan
    slope = np.polyfit(ts, ys, 1)[0]
    return -0.5 * slope


def decay_experiment(
    data: ProblemData,
    evo_cfg: EvolutionConfig,
    steady_tol: float,
) -> DecayReport:
    """Evolve toward the stationary state and fit the exponential rate.

    The stationary state u_inf is `solve_steady(data, steady_tol)`.  The
    march runs at the plan's last level, and the small-data verdict
    takes the best of the plan's levels; it is taken first, so a drift
    without a plan raises ValueError before any solve.  The fit window is
    the second half of the horizon; early transients decay faster than the
    certified rate and would bias the fit upward.  If y sits at the
    numerical floor over the whole window the report flags saturation
    instead of quoting a rate.  y is taken from the streamed states, and the
    report carries the march's EvolutionTrace, so nothing is marched twice.
    """
    dom = data.domain
    evo_cfg.steps(data)  # a bad step count raises before the stationary solve
    ok, detail = small_data_check(data, evo_cfg.truncation)
    u_inf, _ = solve_steady(data, steady_tol)
    y = []
    _, trace = evolve(data, evo_cfg, observe=lambda t, u: y.append(norm_l2(u - u_inf) ** 2))
    times = [0.0] + trace.times
    cp = poincare_constant(dom)
    cp_bound = sum(L**2 for L in dom.lengths) / math.pi**2
    alpha = data.diffusion.alpha
    omega = alpha / (4 * cp)
    intro = alpha / (2 * cp)

    T = data.horizon
    window = (0.5 * T, T)
    floor = 100.0 * np.finfo(float).eps * max(1.0, y[0])
    in_window = [yy for t, yy in zip(times, y) if window[0] <= t <= window[1]]
    saturated = bool(in_window) and max(in_window) <= floor
    fitted = math.nan if saturated else fit_decay_rate(times, y, window)
    slack = 1e-12 * max(1.0, y[0])
    monotone = all(b <= a + slack for a, b in zip(y, y[1:]))
    return DecayReport(
        theoretical_omega=omega,
        intro_omega=intro,
        fitted_rate=fitted,
        margin=(fitted - omega) if not math.isnan(fitted) else math.nan,
        small_data_pass=ok,
        window=window,
        saturated=saturated,
        lyapunov_monotone=monotone,
        poincare_constant=cp,
        poincare_upper_bound=cp_bound,
        small_data_detail=detail,
        times=times,
        y_values=y,
        trace=trace,
    )
