"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Each test prints one [criterion N] PASS line (visible with -s or -rA).
Batteries that need a certified truncation run the certificate first and
assert it, so a silent certification regression cannot weaken the gate.
"""

import math

import numpy as np
import pytest

from driftflow import cli
from driftflow import grid as G
from driftflow import lorentz as L
from driftflow import models as M
from driftflow.evolution import EvolutionConfig, continuation, evolve, uniqueness_harness
from driftflow.operators import ResolventConfig, TruncatedOperator
from driftflow.steady import SteadyConfig, solve_steady, solve_steady_detailed

DOM32 = G.BoxDomain(2, (1.0, 1.0), (32, 32))
DOM3 = G.BoxDomain(3, (1.0, 1.0, 1.0), (12, 12, 12))


def certified_battery():
    """(model, operator, level) triples whose truncation certificate passes."""
    out = []
    for name in ("heat", "variable-diffusion", "lipschitz-nonlinear", "manufactured"):
        data = M.make_model(name, DOM32, 0.5)
        cert = M.certify_truncation(data, 1.0)
        assert cert.passes_evolution, (name, cert)
        out.append((data, TruncatedOperator(data, 0.25, drift_mode="none"), None))
    drift = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
    level = 0.5
    cert = M.certify_truncation(drift, level)
    assert cert.passes_evolution, cert
    out.append(
        (drift, TruncatedOperator(drift, 0.25, level=level, drift_mode="remainder"), level)
    )
    return out


def rand_gf(dom, rng, scale=1.0):
    return G.GridFunction(dom, scale * rng.standard_normal(dom.interior_shape))


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("presets")
    runs = {}
    for name in cli.list_presets():
        outdir = root / name
        runs[name] = (cli.run(name, output_dir=outdir), outdir)
    return runs


def test_criterion_01_resolvent_nonexpansive():
    tol = 2e-10
    worst = -math.inf
    for data, op, _ in certified_battery():
        rng = np.random.default_rng(1)
        for lam in (1e-3, 1e-2, 0.1, 1.0):
            cfg = ResolventConfig(lam=lam, tol=1e-12)
            for _ in range(100):
                g1, g2 = rand_gf(data.domain, rng), rand_gf(data.domain, rng)
                u1, u2 = op.resolve(g1, cfg), op.resolve(g2, cfg)
                slack = G.norm_l2(u1 - u2) - G.norm_l2(g1 - g2)
                worst = max(worst, slack)
                assert slack <= tol, (data.name, lam, slack)
    print(f"[criterion 1] PASS resolvent nonexpansive; worst slack {worst:.2e} <= {tol}")


def test_criterion_02_accretivity_margin():
    worst = math.inf
    for data, op, _ in certified_battery():
        rng = np.random.default_rng(2)
        for _ in range(100):
            u, v = rand_gf(data.domain, rng), rand_gf(data.domain, rng)
            margin = op.accretivity_margin(u, v)
            worst = min(worst, margin)
            assert margin >= -1e-10, (data.name, margin)
    print(f"[criterion 2] PASS accretivity margin; worst {worst:.3e} >= -1e-10")


def test_criterion_03_exact_eigen_decay():
    # 127 interior points per axis: the longest axis the dense sine transform takes
    dom = G.BoxDomain(2, (1.0, 1.0), (128, 128))
    data = M.make_model("heat", dom, 0.3)
    tau = 1e-3
    cfg = EvolutionConfig(dt=tau, horizon=0.3, resolvent=ResolventConfig(tol=1e-14))
    final, trace = evolve(data, cfg)
    lam = G.smallest_eigenvalue_exact(dom)
    expected = (1.0 + tau * lam) ** (-cfg.steps) * G.norm_l2(data.initial)
    rel = abs(G.norm_l2(final) - expected) / expected
    assert rel <= 1e-12
    slope = np.polyfit(trace.times, np.log(trace.l2_norms), 1)[0]
    target = 2 * math.pi**2
    rate_rel = abs(-slope - target) / target
    assert rate_rel <= 0.05
    print(
        f"[criterion 3] PASS eigen decay; product match {rel:.2e} <= 1e-12, "
        f"fitted rate {-slope:.3f} within {100 * rate_rel:.2f}% of 2 pi^2"
    )


def test_criterion_04_manufactured_convergence():
    # time order at fixed fine grid
    dom_t = G.BoxDomain(2, (1.0, 1.0), (128, 128))
    errs_t = []
    for tau in (0.04, 0.02):
        data = M.make_model("manufactured", dom_t, 0.2)
        cfg = EvolutionConfig(dt=tau, horizon=0.2, resolvent=ResolventConfig(tol=1e-12))
        final, _ = evolve(data, cfg)
        errs_t.append(G.norm_l2(final - data.exact_grid(0.2)))
    order_t = math.log2(errs_t[0] / errs_t[1])
    assert order_t >= 0.9
    # space order at small time step
    errs_h = []
    for n in (8, 16):
        dom = G.BoxDomain(2, (1.0, 1.0), (n, n))
        data = M.make_model("manufactured", dom, 0.1)
        cfg = EvolutionConfig(dt=1e-4, horizon=0.1, resolvent=ResolventConfig(tol=1e-12))
        final, _ = evolve(data, cfg)
        errs_h.append(G.norm_l2(final - data.exact_grid(0.1)))
    order_h = math.log2(errs_h[0] / errs_h[1])
    assert order_h >= 1.8
    print(
        f"[criterion 4] PASS manufactured convergence; "
        f"time order {order_t:.2f} >= 0.9, space order {order_h:.2f} >= 1.8"
    )


def test_criterion_05_energy_inequality_all_presets(preset_runs):
    for name, (manifest, outdir) in preset_runs.items():
        assert manifest.passed, (name, manifest.checks)
        if "energy_inequality" in manifest.checks:
            assert manifest.checks["energy_inequality"], name
        for trace in sorted(outdir.glob("trace*.csv")):
            header, *rows = trace.read_text().splitlines()
            col = header.split(",").index("energy_violation")
            violations = [float(r.split(",")[col]) for r in rows]
            assert all(v == 0.0 for v in violations), (name, trace.name)
    print(
        f"[criterion 5] PASS discrete energy inequality; zero violations across "
        f"{len(preset_runs)} presets"
    )


def test_manifest_checks_are_plain_bools(preset_runs):
    # numpy booleans serialize, but `is True` and isinstance checks miss them
    for name, (manifest, _) in preset_runs.items():
        for key, value in manifest.checks.items():
            assert isinstance(value, bool), (name, key, type(value))


def test_criterion_06_truncation_continuation():
    data = M.make_model("singular-drift", DOM32, 0.1, c=0.08)
    plan = M.make_truncation_plan(data)
    cfg = EvolutionConfig(
        dt=1e-3, horizon=0.1, truncation=plan, resolvent=ResolventConfig(tol=1e-12)
    )
    result = continuation(data, cfg)
    assert result.differences_nonincreasing
    assert result.differences[-1] <= 1e-9
    print(
        f"[criterion 6] PASS continuation; diffs "
        f"{['%.2e' % d for d in result.differences]} nonincreasing, "
        f"saturated at {result.differences[-1]:.2e} <= 1e-9"
    )


def test_criterion_07_uniqueness_harness():
    rng = np.random.default_rng(7)
    # contraction without drift
    data = M.make_model("manufactured", DOM32, 0.1)
    cfg = EvolutionConfig(dt=2e-3, horizon=0.1, resolvent=ResolventConfig(tol=1e-12))
    u0 = data.initial
    v0 = G.GridFunction(DOM32, u0.values + 0.5 * rng.standard_normal(DOM32.interior_shape))
    rep = uniqueness_harness(data, cfg, u0, v0)
    assert rep.contraction_monotone
    assert rep.growth_constant == 0.0
    # certified drift: exponential envelope with the measured constant
    drift = M.make_model("singular-drift", DOM3, 0.1, c=0.1)
    cert = M.certify_truncation(drift, 0.5)
    assert cert.passes_evolution
    cfg3 = EvolutionConfig(dt=2e-3, horizon=0.1, resolvent=ResolventConfig(tol=1e-12))
    w0 = drift.initial
    z0 = G.GridFunction(DOM3, w0.values + 0.5 * rng.standard_normal(DOM3.interior_shape))
    rep3 = uniqueness_harness(drift, cfg3, w0, z0, level=0.5)
    d0 = rep3.distances[0]
    for t, d in zip(rep3.times, rep3.distances):
        assert d <= math.exp(rep3.growth_constant * t) * d0 * (1 + 1e-8)
    print(
        f"[criterion 7] PASS uniqueness; drift-free monotone contraction, "
        f"drift growth constant {rep3.growth_constant:.3f}, "
        f"tightest exponent {rep3.tightest_exponent:.3f}"
    )


def test_criterion_08_decay_rate(preset_runs):
    import json

    decay_presets = [
        "heat_decay",
        "variable_diffusion_decay",
        "lipschitz_decay",
        "singular_drift_decay_3d",
    ]
    rates = {}
    for name in decay_presets:
        _, outdir = preset_runs[name]
        rep = json.loads((outdir / "decay_report.json").read_text())
        assert rep["small_data_pass"], name
        assert rep["lyapunov_monotone"], name
        assert not rep["saturated"], name
        assert rep["fitted_rate"] >= 0.95 * rep["theoretical_omega"], (name, rep)
        rates[name] = (rep["fitted_rate"], rep["theoretical_omega"])
    detail = ", ".join(f"{k}: {v[0]:.2f} >= 0.95*{v[1]:.2f}" for k, v in rates.items())
    print(f"[criterion 8] PASS decay rate; {detail}")


def test_criterion_09_steady_uniqueness_and_oracle():
    data = M.make_model("manufactured", DOM32, 0.4)
    rng = np.random.default_rng(9)
    sols = []
    resid = math.inf
    for _ in range(3):
        guess = rand_gf(DOM32, rng)
        u, diag = solve_steady_detailed(
            data, SteadyConfig(tol=1e-11, initial_guess=guess)
        )
        resid = min(resid, diag.residuals[-1] if diag.residuals else 0.0)
        sols.append(u)
    worst_pair = max(
        G.norm_l2(a - b) for i, a in enumerate(sols) for b in sols[i + 1:]
    )
    assert worst_pair <= 1e-8
    assert resid <= 1e-10
    errs = []
    for n in (16, 32):
        dom = G.BoxDomain(2, (1.0, 1.0), (n, n))
        d = M.make_model("manufactured", dom, 0.4)
        u = solve_steady(d, SteadyConfig(tol=1e-13))
        lam = 2 * math.pi**2
        phi = G.GridFunction(dom, (lam - 1) / lam * d.exact_grid(0.4).values)
        errs.append(G.norm_l2(u - phi))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8
    print(
        f"[criterion 9] PASS steady state; guesses agree to {worst_pair:.2e} <= 1e-8, "
        f"residual {resid:.2e} <= 1e-10, oracle order {order:.2f} >= 1.8"
    )


def test_criterion_10_lorentz_suite():
    rng = np.random.default_rng(10)
    dom1 = G.BoxDomain(1, (1.0,), (65,))
    # p = q recovers the Lebesgue norm
    worst_pq = 0.0
    for _ in range(20):
        u = G.GridFunction(
            dom1, rng.lognormal(0, 2, dom1.interior_shape) * rng.choice([-1, 1], 64)
        )
        for p in (1.5, 2.0, 4.0):
            ln = L.lorentz_norm(u, L.LorentzExponents(p, p))
            lp = (dom1.node_weight * np.sum(np.abs(u.values) ** p)) ** (1 / p)
            worst_pq = max(worst_pq, abs(ln - lp) / lp)
    assert worst_pq <= 1e-12
    # weak norm of indicators is exact
    for k in (1, 7, 33):
        vals = np.zeros(64)
        vals[:k] = 1.0
        u = G.GridFunction(dom1, vals)
        measure = k * dom1.node_weight
        for p in (1.5, 2.0, 5.0):
            assert L.lorentz_norm(u, L.LorentzExponents(p, math.inf)) == measure ** (1 / p)
    # product inequality margin on 100 random pairs (q <= p targets)
    worst_margin = math.inf
    checked = 0
    while checked < 100:
        p1, p2 = rng.uniform(1.1, 8, 2)
        if 1 / p1 + 1 / p2 >= 0.99:
            continue
        q1 = math.inf if rng.random() < 0.3 else rng.uniform(1.0, 10.0)
        q2 = math.inf if rng.random() < 0.3 else rng.uniform(1.0, 10.0)
        try:
            e1, e2 = L.LorentzExponents(p1, q1), L.LorentzExponents(p2, q2)
            t = L.product_exponents(e1, e2)
        except ValueError:
            continue
        if math.isinf(t.q) or t.q > t.p:
            continue
        u = G.GridFunction(dom1, rng.lognormal(0, 2, 64) * rng.choice([-1, 1], 64))
        v = G.GridFunction(dom1, rng.lognormal(0, 2, 64) * rng.choice([-1, 1], 64))
        rep = L.check_holder(u, v, e1, e2)
        rel_margin = rep.margin / max(rep.rhs, 1e-300)
        worst_margin = min(worst_margin, rel_margin)
        assert rep.margin >= -1e-12 * max(1.0, rep.rhs)
        checked += 1
    # gradient embedding with the closed-form constant on a 16^3 battery
    dom3 = G.BoxDomain(3, (1.0, 1.0, 1.0), (16, 16, 16))
    S = L.sobolev_constant(3, 2.0)

    def eig(c, k):
        return (
            np.sin(k[0] * np.pi * c[0])
            * np.sin(k[1] * np.pi * c[1])
            * np.sin(k[2] * np.pi * c[2])
        )

    battery = [
        G.sample(dom3, lambda c, k=k: eig(c, k))
        for k in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2), (3, 1, 1)]
    ]
    battery.append(
        G.sample(
            dom3,
            lambda c: c[0] * (1 - c[0]) * c[1] * (1 - c[1]) * c[2] * (1 - c[2]),
        )
    )
    # near-extremals concentrate like |x - x0|^{-(N-2)/2} (Alvino 1977): the
    # truncated (|x - x0|^{-1/2} - R^{-1/2})_+, R = 1/2 - h, with x0 at a cell
    # centre and a quarter cell off a node, is the regime the certificates use
    h = dom3.spacing[0]
    R = 0.5 - h
    for x0 in (0.5 + h / 2, 0.5 + h / 4):

        def spike(c, x0=x0):
            r = np.sqrt((c[0] - x0) ** 2 + (c[1] - x0) ** 2 + (c[2] - x0) ** 2)
            return np.maximum(r**-0.5 - R**-0.5, 0.0)

        battery.append(G.sample(dom3, spike))
    for _ in range(10):
        coef = rng.standard_normal((2, 2, 2))

        def combo(c, coef=coef):
            out = 0.0
            for i in range(2):
                for j in range(2):
                    for l in range(2):
                        out = out + coef[i, j, l] * eig(c, (i + 1, j + 1, l + 1))
            return out

        battery.append(G.sample(dom3, combo))
    worst_ratio = 0.0
    for phi in battery:
        lhs = L.lorentz_norm(phi, L.LorentzExponents(6.0, 2.0))
        rhs = S * G.norm_h1(phi)
        worst_ratio = max(worst_ratio, lhs / rhs)
        assert lhs <= rhs * 1.05
    print(
        f"[criterion 10] PASS lorentz suite; p=q deviation {worst_pq:.2e}, "
        f"worst product margin {worst_margin:.2e}, "
        f"embedding ratio {worst_ratio:.3f} <= 1.05"
    )
