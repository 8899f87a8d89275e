"""Lorentz-space quantities of grid functions.

A grid function is treated as a simple function: every interior node carries
its quadrature weight as measure.  Distribution functions are then exact
step functions and every L^{p,q} integral reduces to a finite sum, so the
quasi-norms computed here are exact (no quadrature error), which is what
makes the inequality checks in the test suite meaningful at 1e-12.

Conventions:
  mu(m)   = measure of {|u| > m}                    (strict, right-continuous)
  ||u||_{p,q}   = ( p * int_0^inf mu(m)^{q/p} m^{q-1} dm )^{1/q},   q < inf
  ||u||_{p,inf} = sup_m m * mu(m)^{1/p}
With q = p this recovers the discrete L^p norm exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import GridFunction, _check_same_domain


@dataclass(frozen=True)
class LorentzExponents:
    """Exponent pair (p, q) with 1 < p < inf and 1 <= q <= inf."""

    p: float
    q: float

    def __post_init__(self):
        if not self.p > 1 or math.isinf(self.p):
            raise ValueError(f"need 1 < p < inf, got p={self.p}")
        if not (self.q >= 1):
            raise ValueError(f"need q >= 1 or q = inf, got q={self.q}")


@dataclass(frozen=True)
class DistributionFunction:
    """Exact distribution function of a simple function.

    thresholds: the distinct positive values |u| takes, ascending.
    measures[j]: mu(m) on the interval left of thresholds[j], i.e. the total
    weight of {|u| >= thresholds[j]}.  mu is 0 at and beyond the top value.
    """

    thresholds: np.ndarray
    measures: np.ndarray

    def mu(self, m) -> np.ndarray | float:
        """Evaluate mu(m) = |{|u| > m}| for scalar or array m."""
        m = np.asarray(m, dtype=float)
        idx = np.searchsorted(self.thresholds, m, side="right")
        padded = np.append(self.measures, 0.0)
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    @property
    def total(self) -> float:
        """mu(0+): the measure of the support."""
        return float(self.measures[0]) if self.measures.size else 0.0


def _distribution_of(values: np.ndarray, weight: float) -> DistributionFunction:
    a = np.abs(np.asarray(values, dtype=float).ravel())
    a = a[a > 0]
    if a.size == 0:
        return DistributionFunction(np.empty(0), np.empty(0))
    levels, counts = np.unique(a, return_counts=True)
    tails = np.cumsum(counts[::-1])[::-1] * weight
    return DistributionFunction(levels, tails.astype(float))


def distribution(u: GridFunction) -> DistributionFunction:
    return _distribution_of(u.values, u.domain.node_weight)


def _norm_from_distribution(d: DistributionFunction, p: float, q: float) -> float:
    c = d.thresholds
    if c.size == 0:
        return 0.0
    t = d.measures
    if math.isinf(q):
        return float(np.max(c * t ** (1.0 / p)))
    prev = np.concatenate(([0.0], c[:-1]))
    integral = np.sum(t ** (q / p) * (c**q - prev**q)) / q
    return float((p * integral) ** (1.0 / q))


def lorentz_norm(u: GridFunction, e: LorentzExponents) -> float:
    """Exact L^{p,q} quasi-norm of a grid function."""
    return _norm_from_distribution(distribution(u), e.p, e.q)


def weak_norm_of_values(values: np.ndarray, weight: float, p: float) -> float:
    """Weak-L^p quasi-norm of raw values with a uniform weight per entry."""
    return _norm_from_distribution(_distribution_of(values, weight), p, math.inf)


def dist_to_bounded(u: GridFunction, p: float, levels) -> list[float]:
    """Weak-L^p norms of the unbounded remainders u - T_n u.

    The sequence is nonincreasing in n; its limit is the distance from u to
    the bounded functions.  `levels` must be positive and increasing.
    """
    levels = [float(n) for n in levels]
    if any(n <= 0 for n in levels) or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be positive and increasing")
    w = u.domain.node_weight
    out = []
    for n in levels:
        rest = np.sign(u.values) * np.maximum(np.abs(u.values) - n, 0.0)
        out.append(weak_norm_of_values(rest, w, p))
    return out


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N."""
    return math.pi ** (N / 2) / math.gamma(N / 2 + 1)


def sobolev_constant(N: int, p: float) -> float:
    """Constant in the embedding of gradient-L^{p,q} fields into L^{p*,q}.

    Equals omega_N^{-1/N} * p / (N - p); only defined for 1 < p < N, so in
    particular the p = 2 constant needs N >= 3.
    """
    if not 1 < p < N:
        raise ValueError(f"embedding requires 1 < p < N, got p={p}, N={N}")
    return unit_ball_volume(N) ** (-1.0 / N) * p / (N - p)


@dataclass(frozen=True)
class HolderReport:
    """Both sides of a Lorentz product inequality and their margin."""

    lhs: float
    rhs: float
    margin: float
    exponents: dict

    def as_dict(self) -> dict:
        return asdict(self)


def product_exponents(
    e1: LorentzExponents, e2: LorentzExponents
) -> LorentzExponents:
    """Target exponents for the product: 1/p = 1/p1 + 1/p2, 1/q likewise."""
    ip = 1.0 / e1.p + 1.0 / e2.p
    if ip >= 1.0:
        raise ValueError("incompatible exponents: product p would be <= 1")
    iq = (0.0 if math.isinf(e1.q) else 1.0 / e1.q) + (
        0.0 if math.isinf(e2.q) else 1.0 / e2.q
    )
    if iq > 1.0:
        raise ValueError("incompatible exponents: product q would be < 1")
    q = math.inf if iq == 0.0 else 1.0 / iq
    return LorentzExponents(1.0 / ip, q)


def check_holder(
    u: GridFunction, v: GridFunction, e1: LorentzExponents, e2: LorentzExponents
) -> HolderReport:
    """Evaluate ||uv||_{p,q} against ||u||_{p1,q1} ||v||_{p2,q2}.

    Margin is rhs - lhs; the product inequality predicts it nonnegative.
    """
    _check_same_domain(u, v)
    target = product_exponents(e1, e2)
    prod = GridFunction(u.domain, u.values * v.values)
    lhs = lorentz_norm(prod, target)
    rhs = lorentz_norm(u, e1) * lorentz_norm(v, e2)
    return HolderReport(
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        exponents={
            "p1": e1.p, "q1": e1.q,
            "p2": e2.p, "q2": e2.q,
            "p": target.p, "q": target.q,
        },
    )
