"""Stationary solves and exponential-decay experiments.

The stationary problem -div[A(x, grad u) + B(x, u)] = -div F is solved by
the same preconditioned monotone iteration as the resolvents (one kernel,
`operators._monotone_iteration`), just without the identity term and with
residuals in the dual norm.  Strict monotonicity makes the solution
unique, which the tests confirm by starting from several initial guesses.

The decay experiment integrates the evolution problem, records
y(t_j) = |u_j - u_inf|^2, and fits the tail of log y.  The certified decay
rate for the norm is omega = alpha / (4 C_P) with C_P the discrete
Poincare constant 1/lambda_1, known in closed form; the cruder constant
alpha / (2 C_P) and the box bound C_P <= diam^2 / pi^2 are reported
alongside for reference.  The rate certificate additionally needs the
drift to be small: both the truncation remainder and the truncated part
must stay below alpha / (4 S) in the weak-L^N metric (S the
gradient-embedding constant); the literal product level * S < alpha / 4
is recorded for comparison but not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import grid, lorentz
from .grid import GridFunction, divergence, norm_l2, poincare_constant
from .models import ProblemData, certificate_times, remainder_weak_norm
from .operators import TruncatedOperator, stationary_solve
from .evolution import EvolutionConfig, EvolutionTrace, evolve


@dataclass(frozen=True)
class SteadyConfig:
    """Stationary solve settings; `time` freezes nonautonomous data."""

    tol: float = 1e-11
    max_iter: int = 500
    initial_guess: GridFunction | None = None
    time: float | str = "final"

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.time != "final" and (
            isinstance(self.time, str) or not math.isfinite(self.time)
        ):
            raise ValueError(f"time must be 'final' or finite, got {self.time!r}")

    def frozen_time(self, data: ProblemData) -> float:
        if self.time == "final":
            return data.horizon
        return float(self.time)


def solve_steady(data: ProblemData, cfg: SteadyConfig) -> GridFunction:
    u, _ = solve_steady_detailed(data, cfg)
    return u


def solve_steady_detailed(data: ProblemData, cfg: SteadyConfig):
    """Stationary state with dual-norm residual below cfg.tol."""
    t = cfg.frozen_time(data)
    op = TruncatedOperator(data, t, drift_mode="full")
    F = data.source_field(t)
    rhs = (
        GridFunction(data.domain, -divergence(F).values)
        if F is not None
        else grid.zeros(data.domain)
    )
    return stationary_solve(
        op, rhs, tol=cfg.tol, max_iter=cfg.max_iter, x0=cfg.initial_guess
    )


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
    times: list[float] = field(default_factory=list)
    y_values: list[float] = field(default_factory=list)
    # the marched trajectory's per-step record
    trace: EvolutionTrace | None = None

    def as_dict(self) -> dict:
        return {
            "theoretical_omega": self.theoretical_omega,
            "intro_omega": self.intro_omega,
            "fitted_rate": self.fitted_rate,
            "margin": self.margin,
            "small_data_pass": self.small_data_pass,
            "window": list(self.window),
            "saturated": self.saturated,
            "lyapunov_monotone": self.lyapunov_monotone,
            "poincare_constant": self.poincare_constant,
            "poincare_upper_bound": self.poincare_upper_bound,
            "small_data_detail": self.small_data_detail,
        }

    def write_series(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("t,y\n")
            for t, y in zip(self.times, self.y_values):
                f.write(f"{t!r},{y!r}\n")


def _split_at_level(data: ProblemData, level: float, times) -> tuple[float, float]:
    """Weak-L^N norms of the remainder and the truncated part at one level."""
    rest = remainder_weak_norm(data, level, times)
    trunc = 0.0
    N = data.domain.dim
    for t in times:
        b = data.drift_bound_grid(t)
        clipped = np.minimum(b.values, level)
        trunc = max(
            trunc,
            lorentz.weak_norm_of_values(clipped, data.domain.node_weight, N),
        )
    return rest, trunc


def _small_data_check(data: ProblemData, levels) -> tuple[bool, dict]:
    """Drift smallness needed for the contraction toward the steady state.

    The condition is existential: some truncation level must split the
    coefficient so that both the remainder and the truncated part stay
    below alpha / (4 S) in the weak-L^N metric, making the total drift
    pairing lose less than alpha/2 of the coercivity.  Both halves are
    measured honestly; the cruder product level * S is recorded for
    reference but not used, since it ignores the domain volume carried by
    the weak norm.
    """
    if not data.has_drift:
        return True, {"drift": 0.0}
    N = data.domain.dim
    alpha = data.diffusion.alpha
    if N < 3:
        return False, {"reason": "embedding constant undefined below dimension 3"}
    S = lorentz.sobolev_constant(N, 2)
    bound = alpha / (4 * S)
    times = certificate_times(data)
    candidates = [lv for lv in levels if lv is not None]
    if not candidates:
        candidates = [float(np.max(data.drift_bound_grid(0.0).values))]
    best = None
    for lv in sorted(set(candidates)):
        rest, trunc = _split_at_level(data, lv, times)
        worst = max(rest, trunc)
        if best is None or worst < best["worst"]:
            best = {
                "level": lv,
                "remainder_weak_norm": rest,
                "truncated_weak_norm": trunc,
                "worst": worst,
            }
        if worst <= bound:
            break
    detail = {
        "level": best["level"],
        "remainder_weak_norm": best["remainder_weak_norm"],
        "truncated_weak_norm": best["truncated_weak_norm"],
        "bound": bound,
        "literal_level_product": best["level"] * S,
        "literal_bound": alpha / 4,
    }
    return best["worst"] <= bound, detail


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
    steady_cfg: SteadyConfig,
    level: float | None = None,
) -> DecayReport:
    """Evolve toward the stationary state and fit the exponential rate.

    The fit window is the second half of the horizon; early transients decay
    faster than the certified rate and would bias the fit upward.  If y sits
    at the numerical floor over the whole window the report flags saturation
    instead of quoting a rate.  y is taken from the streamed states, and the
    report carries the march's EvolutionTrace, so nothing is marched twice.
    """
    dom = data.domain
    u_inf = solve_steady(data, steady_cfg)
    y = []
    _, trace = evolve(
        data, evo_cfg, level=level, observe=lambda t, u: y.append(norm_l2(u - u_inf) ** 2)
    )
    times = [0.0] + trace.times
    cp = poincare_constant(dom)
    cp_bound = sum(L**2 for L in dom.lengths) / math.pi**2
    alpha = data.diffusion.alpha
    omega = alpha / (4 * cp)
    intro = alpha / (2 * cp)
    candidate_levels = [level]
    if evo_cfg.truncation is not None:
        candidate_levels.extend(evo_cfg.truncation.levels)
    ok, detail = _small_data_check(data, candidate_levels)

    T = evo_cfg.horizon
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
