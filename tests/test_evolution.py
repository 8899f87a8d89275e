import contextlib
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow import cli
from driftflow import grid as G
from driftflow import models as M
from driftflow import evolution as E
from driftflow.operators import ResolventConfig, SolverDiagnostics, _to_faces
from driftflow.steady import decay_experiment, solve_steady

from _oracles import assembled_pairing, t_dependent_drift


def cfg(dt, **kw):
    """A march of step dt, its resolves solved to 1e-13 unless `tol` says otherwise."""
    kw.setdefault("tol", 1e-13)
    return E.EvolutionConfig(dt=dt, **kw)


def one_level(data, c, level):
    """c under the one-level plan of `level` for data; c itself for None."""
    if level is None:
        return c
    return replace(c, truncation=M.make_truncation_plan(data, levels=[level]))


def observed(data, c, **kw):
    """The whole trajectory u_0..u_n, collected through evolve's observe."""
    states = []
    E.evolve(data, c, observe=lambda t, u: states.append(u), **kw)
    return states


def uncertified_warning(expected=True):
    """Expect the RuntimeWarning of a march at an uncertified level, or nothing."""
    if not expected:
        return contextlib.nullcontext()
    return pytest.warns(RuntimeWarning, match="carries no accretivity certificate")


def heat_1d(T):
    return M.make_model("heat", G.BoxDomain(1, (1.0,), (4,)), T)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            E.EvolutionConfig(dt=0.0)
        with pytest.raises(ValueError):
            E.EvolutionConfig(dt=1.5)
        with pytest.raises(ValueError):
            E.EvolutionConfig(dt=0.3).steps(heat_1d(1.0))  # not an integer step count
        with pytest.raises(ValueError):
            E.EvolutionConfig(dt=0.1, splitting="imex")

    @pytest.mark.parametrize(
        "field, kw",
        [
            ("dt", dict(dt=math.nan)),
            ("dt", dict(dt=-math.inf)),
        ],
    )
    def test_non_finite_setting_names_its_field(self, field, kw):
        # dt = nan used to fail with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            E.EvolutionConfig(**kw)

    def test_steps(self):
        assert cfg(0.1).steps(heat_1d(0.5)) == 5

    def test_resolvent_is_the_step_at_lam_dt(self):
        settable = [f.name for f in fields(E.EvolutionConfig) if f.init]
        assert settable == ["dt", "splitting", "truncation", "tol", "max_iter"]
        c = E.EvolutionConfig(dt=0.02, tol=1e-9, max_iter=7)
        assert c.resolvent == ResolventConfig(lam=0.02, tol=1e-9, max_iter=7)
        assert replace(c, dt=0.05).resolvent == ResolventConfig(lam=0.05, tol=1e-9, max_iter=7)
        assert E.EvolutionConfig(dt=0.1).resolvent == ResolventConfig(lam=0.1, tol=1e-12)
        with pytest.raises(TypeError):
            E.EvolutionConfig(dt=0.1, resolvent=ResolventConfig(lam=0.5))
        for bad in (dict(tol=0.0), dict(tol=math.nan), dict(max_iter=0)):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
                E.EvolutionConfig(dt=0.1, **bad)

    def test_non_integer_step_count_raises_before_any_solve(self, monkeypatch):
        # a drift, so that the continuation, too, meets the step count first
        data = M.make_model("singular-drift", G.BoxDomain(2, (1.0, 1.0), (8, 8)), 0.1, c=0.08)
        c = cfg(0.03, truncation=M.make_truncation_plan(data, levels=[1.0, 2.0]))
        solves = []
        monkeypatch.setattr(
            E.TruncatedOperator, "resolve_detailed", lambda *a, **k: solves.append(a)
        )
        monkeypatch.setattr("driftflow.steady.stationary_solve", lambda *a, **k: solves.append(a))
        runs = (
            lambda: E.evolve(data, c),
            lambda: E.continuation(data, c),
            lambda: E.uniqueness_harness(data, c, 0.5 * data.initial),
            lambda: decay_experiment(data, c, 1e-11),
        )
        for run in runs:
            with pytest.raises(ValueError, match="integer number of steps"):
                run()
        assert solves == []

    def test_drift_without_plan_raises_before_any_solve(self, monkeypatch):
        # a level comes only from a plan: a semi-implicit drift step has none
        # to clamp at, and a drift's small-data verdict no candidate
        data = M.make_model("singular-drift", G.BoxDomain(2, (1.0, 1.0), (16, 16)), 0.1, c=0.08)
        semi = cfg(0.01, splitting="semi-implicit")
        solves = []
        monkeypatch.setattr(
            E.TruncatedOperator, "resolve_detailed", lambda *a, **k: solves.append(a)
        )
        monkeypatch.setattr("driftflow.steady.stationary_solve", lambda *a, **k: solves.append(a))
        runs = (
            lambda: E.evolve(data, semi),
            lambda: E.uniqueness_harness(data, semi, 0.5 * data.initial),
            lambda: E.step(data.initial, semi.dt, semi, data),
            lambda: decay_experiment(data, cfg(0.01), 1e-11),
        )
        for run in runs:
            with pytest.raises(ValueError, match="needs a truncation plan"):
                run()
        assert solves == []


class TestStep:
    def test_eigenfunction_single_step(self):
        # backward Euler on the sampled eigenfunction divides by 1 + tau lam
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("heat", dom, 0.5)
        tau = 0.01
        lam = G.smallest_eigenvalue_exact(dom)
        u1 = E.step(data.initial, tau, cfg(tau), data)
        expect = data.initial.values / (1.0 + tau * lam)
        assert np.max(np.abs(u1.values - expect)) < 1e-13

    def test_zero_stays_zero(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("heat", dom, 0.5)
        u1 = E.step(G.zeros(dom), 0.01, cfg(0.01), data)
        assert np.max(np.abs(u1.values)) == 0.0

    def test_splitting_modes_agree_to_second_order_per_step(self):
        # smooth bounded drift; the asymptotic range needs tau below the
        # stiff crossover of the fixed grid
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        heat = M.make_model("heat", dom, 0.5)

        def bound(coords, t):
            return 1.5 + 0.5 * np.sin(np.pi * coords[0]) * np.cos(np.pi * coords[1])

        def evaluate(coords, t, z):
            b = bound(coords, t)
            return (z * b, np.zeros_like(z * b))

        data = M.ProblemData(
            name="smooth-drift",
            domain=dom,
            diffusion=heat.diffusion,
            drift=M.DriftFlux(evaluate=evaluate, bound=bound),
            source=None,
            initial=heat.initial,
            horizon=0.5,
        )
        diffs = []
        for tau in (1e-3, 5e-4):
            c = one_level(data, cfg(tau), 1.0)
            a = E.step(data.initial, tau, c, data)
            b = E.step(data.initial, tau, replace(c, splitting="semi-implicit"), data)
            diffs.append(G.norm_l2(a - b))
        order = math.log2(diffs[0] / diffs[1])
        assert order > 1.8


class TestEvolve:
    def test_heat_eigen_decay_closed_form(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (32, 32))
        data = M.make_model("heat", dom, 0.3)
        tau = 2e-3
        c = cfg(tau, tol=1e-14)
        final, trace = E.evolve(data, c)
        lam = G.smallest_eigenvalue_exact(dom)
        expect = (1.0 + tau * lam) ** (-c.steps(data)) * G.norm_l2(data.initial)
        assert G.norm_l2(final) == pytest.approx(expect, rel=1e-12)
        assert trace.violations == 0

    def test_zero_data_zero_solution(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("heat", dom, 0.1)
        data = M.ProblemData(
            name="heat",
            domain=dom,
            diffusion=data.diffusion,
            drift=None,
            source=None,
            initial=G.zeros(dom),
            horizon=0.1,
        )
        final, _ = E.evolve(data, cfg(0.01))
        assert G.norm_l2(final) == 0.0

    def test_manufactured_error_small(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (32, 32))
        data = M.make_model("manufactured", dom, 0.1)
        final, trace = E.evolve(data, cfg(1e-3))
        err = G.norm_l2(final - data.exact_grid(0.1))
        assert err < 5e-3
        assert trace.violations == 0

    def test_contraction_without_drift(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("manufactured", dom, 0.1)
        rng = np.random.default_rng(0)
        c = cfg(5e-3)
        u0 = data.initial
        v0 = G.GridFunction(dom, u0.values + rng.standard_normal(dom.interior_shape))
        us = observed(data, c)
        vs = observed(replace(data, initial=v0), c)
        d0 = G.norm_l2(u0 - v0)
        for a, b in zip(us[1:], vs[1:]):
            assert G.norm_l2(a - b) <= d0 * (1 + 1e-12) + 1e-12

    def test_observe_sees_every_state_once(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("manufactured", dom, 0.1)
        seen = []
        final, trace = E.evolve(
            data, cfg(0.01), observe=lambda t, u: seen.append((t, u))
        )
        assert [t for t, _ in seen] == [0.0] + trace.times
        assert seen[0][1] is not data.initial
        assert np.array_equal(seen[0][1].values, data.initial.values)
        assert seen[-1][1] is final
        assert [G.norm_l2(u) for _, u in seen[1:]] == trace.l2_norms

    def test_initial_state_on_another_domain_rejected(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("heat", dom, 0.05)
        c = cfg(0.01)
        stretched = G.BoxDomain(2, (2.0, 1.0), (8, 8))  # same cells, other lengths
        finer = G.BoxDomain(2, (1.0, 1.0), (10, 10))
        # ProblemData is the one place that refuses one, naming both grids
        for other in (stretched, finer):
            u0 = G.GridFunction(other, np.ones(other.interior_shape))
            message = f"^initial state lives on {re.escape(repr(other))}, not BoxDomain"
            with pytest.raises(ValueError, match=message):
                replace(data, initial=u0)
            with pytest.raises(ValueError, match=message):
                E.uniqueness_harness(data, c, u0)

    def test_splitting_consistency_global(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("singular-drift", dom, 0.2, c=0.08)
        level = 1.0
        diffs = []
        for tau in (0.01, 0.005):
            c = one_level(data, cfg(tau), level)
            a, _ = E.evolve(data, c)
            with uncertified_warning():
                b, _ = E.evolve(data, replace(c, splitting="semi-implicit"))
            diffs.append(G.norm_l2(a - b))
        assert diffs[1] < 0.7 * diffs[0]  # first order in tau

    def test_trace_bound_constant(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("manufactured", dom, 0.2)
        _, trace = E.evolve(data, cfg(5e-3))
        C = trace.measured_bound_constant()
        assert 0 < C < 10

    def test_bound_constant_matches_resampled_source(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("manufactured", dom, 0.2)
        c = cfg(5e-3)
        _, trace = E.evolve(data, c)
        f2 = 0.0
        for t in trace.times:
            F = data.source_field(t)
            f2 += c.dt * G.inner_vec(F, F)
        lhs = max(x**2 for x in trace.l2_norms) + trace.cumulative_dissipation[-1]
        expected = lhs / (trace.initial_l2**2 + trace.times[-1] + f2)
        assert trace.measured_bound_constant() == expected

    @pytest.mark.parametrize("splitting", ["fully-implicit", "semi-implicit"])
    def test_source_sampled_once_per_slice(self, monkeypatch, splitting):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("manufactured", dom, 0.1)
        calls = []
        sample = M.ProblemData.source_field

        def counted(self, t):
            calls.append(t)
            return sample(self, t)

        monkeypatch.setattr(M.ProblemData, "source_field", counted)
        c = cfg(0.01, splitting=splitting)
        _, trace = E.evolve(data, c)
        trace.measured_bound_constant()
        assert calls == trace.times

    @pytest.mark.parametrize("splitting", ["fully-implicit", "semi-implicit"])
    def test_trace_norms_match_the_states(self, splitting):
        # the march reuses the energy check's norms; they must be the norms
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("singular-drift", dom, 0.05, c=0.08)
        c = one_level(data, cfg(0.01, splitting=splitting), 1.0)
        seen = []
        with uncertified_warning(splitting == "semi-implicit"):
            _, trace = E.evolve(data, c, observe=lambda t, u: seen.append(u))
        assert trace.initial_l2 == G.norm_l2(seen[0])
        assert trace.l2_norms == [G.norm_l2(u) for u in seen[1:]]
        assert trace.h1_seminorms == [G.norm_h1(u) for u in seen[1:]]

    def test_step_failure_attaches_partial_trace(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (10, 10))
        data = M.make_model("lipschitz-nonlinear", dom, 0.1)
        bad = cfg(0.01, tol=1e-14, max_iter=1)
        with pytest.raises(G.ConvergenceError) as info:
            E.evolve(data, bad)
        assert isinstance(info.value.trace, E.EvolutionTrace)
        assert info.value.step == 1 and info.value.t == pytest.approx(0.01)
        assert info.value.residuals
        assert "step 1" in str(info.value)

    def test_uncertified_level_warns(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("singular-drift", dom, 0.05, c=0.2)
        plan = M.make_truncation_plan(data, levels=[0.3])
        assert not plan.certificates[0].passes_evolution
        c = cfg(0.01, truncation=plan, splitting="semi-implicit")
        with pytest.warns(RuntimeWarning):
            E.evolve(data, c)

    @pytest.mark.parametrize("run", ["evolve", "uniqueness_harness"])
    def test_plan_warns_on_its_last_certificate(self, run):
        # the level 0.5 clamps b on 16^2, where no nonzero remainder is
        # certified; a plan ending at a saturated level marches silently
        data = M.make_model("singular-drift", G.BoxDomain(2, (1.0, 1.0), (16, 16)), 0.02, c=0.08)
        march = {
            "evolve": lambda c: E.evolve(data, c),
            "uniqueness_harness": lambda c: E.uniqueness_harness(data, c, 0.5 * data.initial),
        }[run]
        semi = cfg(0.01, splitting="semi-implicit")
        ending = M.make_truncation_plan(data, levels=[0.5])
        with pytest.warns(RuntimeWarning, match="truncation level 0.5 carries no"):
            march(replace(semi, truncation=ending))
        bmax = M.drift_bound_max(data)
        certified_end = M.make_truncation_plan(data, levels=[0.5, bmax])
        first, last = certified_end.certificates
        assert not first.passes_evolution and last.passes_evolution
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            march(replace(semi, truncation=certified_end))

    def test_fully_implicit_march_has_no_level(self):
        # A + B clamps nothing: its march neither warns on the plan's last
        # level nor records it, while the semi-implicit march does both
        data = M.make_model("singular-drift", G.BoxDomain(2, (1.0, 1.0), (12, 12)), 0.05, c=0.08)
        implicit = one_level(data, cfg(0.01, splitting="fully-implicit"), 1.0)
        assert not implicit.truncation.certificates[-1].passes_evolution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = E.evolve(data, implicit)
            rep = E.uniqueness_harness(data, implicit, 0.5 * data.initial)
        for tr in (trace, *rep.traces):
            assert len(tr.times) == 5
            assert all(math.isnan(m) for m in tr.truncation_level)
        with pytest.warns(RuntimeWarning, match="truncation level 1 carries no"):
            _, trace = E.evolve(data, replace(implicit, splitting="semi-implicit"))
        assert trace.truncation_level == [1.0] * 5

    def test_drift_free_march_has_no_level(self, monkeypatch):
        # without a drift no level enters the operator: a semi-implicit heat
        # march under a plan records none, and a continuation, which would
        # compare one operator with itself, is refused before any solve
        data = M.make_model("heat", G.BoxDomain(2, (1.0, 1.0), (12, 12)), 0.05)
        plan = M.make_truncation_plan(data)
        assert plan.levels == (1.0, 2.0)
        semi = cfg(0.01, splitting="semi-implicit", truncation=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = E.evolve(data, semi)
        assert len(trace.times) == 5
        assert all(math.isnan(m) for m in trace.truncation_level)
        solves = []
        monkeypatch.setattr(
            E.TruncatedOperator, "resolve_detailed", lambda *a, **k: solves.append(a)
        )
        with pytest.raises(ValueError, match="^continuation needs a drift; 'heat' has none"):
            E.continuation(data, semi)
        assert solves == []

    def test_trace_csv(self, tmp_path):
        dom = G.BoxDomain(1, (1.0,), (8,))
        data = M.make_model("heat", dom, 0.1)
        _, trace = E.evolve(data, cfg(0.01))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(E.EvolutionTrace.CSV_COLUMNS)
        assert lines[0].endswith(
            "energy_violation,final_residual,backtracks,mixed_steps,rejected_mixes,"
            "damping"
        )
        assert len(lines) == 11
        # floats as repr, ints as str, row by row
        assert lines[1:] == [
            ",".join(repr(x) if isinstance(x, float) else str(x) for x in row)
            for row in trace.rows()
        ]

    def test_csv_columns_are_declared_on_the_fields(self):
        assert E.EvolutionTrace.CSV_COLUMNS == (
            "step", "t", "l2_norm", "h1_seminorm", "cumulative_dissipation",
            "M_level", "resolvent_iters", "energy_violation", "final_residual",
            "backtracks", "mixed_steps", "rejected_mixes", "damping",
        )
        # after the step index, one column per list field, in field order
        lists = [f.name for f in fields(E.EvolutionTrace) if f.type.startswith("list")]
        trace = E.EvolutionTrace(**{name: [k] for k, name in enumerate(lists)})
        assert list(trace.rows()) == [(1, *range(len(lists)))]

    def test_counter_totals_sum_the_counter_columns_over_traces(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("variable-diffusion", dom, 0.05)
        traces = [E.evolve(data, cfg(dt))[1] for dt in (5e-3, 1e-2)]
        totals = E.EvolutionTrace.counter_totals(traces)
        assert totals == {
            "resolvent_iters": sum(sum(t.solver_iterations) for t in traces),
            "backtracks": sum(sum(t.backtracks) for t in traces),
            "mixed_steps": sum(sum(t.mixed_steps) for t in traces),
            "rejected_mixes": sum(sum(t.rejected_mixes) for t in traces),
        }
        assert totals["resolvent_iters"] > 0 and totals["mixed_steps"] > 0

    def test_telemetry_columns_are_the_step_diagnostics(self, monkeypatch):
        # rough data on a stiff nonlinearity backtracks and rejects mixes,
        # variable diffusion mixes, heat sweeps once at full damping
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        stiff = M.make_model("lipschitz-nonlinear", dom, 0.5, beta=20.0)
        runs = {
            "stiff": (replace(stiff, initial=30.0 * stiff.initial), cfg(0.05)),
            "variable-diffusion": (M.make_model("variable-diffusion", dom, 0.05), cfg(5e-3)),
            "heat": (M.make_model("heat", dom, 0.05), cfg(5e-3)),
        }
        resolve = E.TruncatedOperator.resolve_detailed
        diags = []

        def recorded(self, g, rescfg, x0=None):
            out = resolve(self, g, rescfg, x0=x0)
            diags.append(out[1])
            return out

        monkeypatch.setattr(E.TruncatedOperator, "resolve_detailed", recorded)
        traces = {}
        for name, (data, c) in runs.items():
            diags.clear()
            _, trace = E.evolve(data, c)
            assert len(diags) == 10
            assert trace.solver_iterations == [d.iterations for d in diags]
            assert trace.final_residual == [d.residuals[-1] for d in diags]
            assert trace.backtracks == [d.backtracks for d in diags]
            assert trace.mixed_steps == [d.mixed_steps for d in diags]
            assert trace.rejected_mixes == [d.rejected_mixes for d in diags]
            assert trace.damping == [d.relaxation for d in diags]
            traces[name] = trace
        assert sum(traces["stiff"].backtracks) > 0 and min(traces["stiff"].damping) < 1
        assert sum(traces["stiff"].rejected_mixes) > 0
        assert sum(traces["variable-diffusion"].mixed_steps) > 0
        heat = traces["heat"]
        assert sum(heat.backtracks) == sum(heat.mixed_steps) == 0
        assert sum(heat.rejected_mixes) == 0
        assert set(heat.damping) == {1.0}


def cold_march(data, c):
    """u_1..u_n and the iteration counts of a loop of cold `step` calls."""
    u, states, iters = data.initial, [], []
    for j in range(1, c.steps(data) + 1):
        op = E._step_operator(data, j * c.dt, c)
        res = E._step_detailed(u, c, op)
        assert np.array_equal(res.state.values, E.step(u, j * c.dt, c, data).values)
        u = res.state
        states.append(u)
        iters.append(res.diagnostics.iterations)
    return states, iters


WARM_CASES = [
    (G.BoxDomain(1, (2.0,), (24,)), "lipschitz-nonlinear", "fully-implicit", None),
    (G.BoxDomain(1, (1.5,), (20,)), "singular-drift", "semi-implicit", 1.0),
    (G.BoxDomain(2, (1.0, 0.5), (12, 8)), "variable-diffusion", "semi-implicit", None),
    (G.BoxDomain(2, (2.0, 1.0), (16, 10)), "singular-drift", "fully-implicit", None),
    (G.BoxDomain(2, (1.0, 1.5), (10, 12)), "singular-drift", "semi-implicit", 1.0),
    (G.BoxDomain(3, (1.0, 0.8, 1.2), (6, 5, 7)), "manufactured", "fully-implicit", None),
    (G.BoxDomain(3, (1.0, 1.0, 0.6), (6, 6, 4)), "singular-drift", "semi-implicit", 2.0),
    (G.BoxDomain(3, (0.7, 1.0, 1.0), (5, 6, 6)), "singular-drift", "fully-implicit", None),
]


def warm_case_uncertified(dom, model, splitting):
    """Whether a WARM_CASES march runs at an uncertified level: its drift
    levels clamp b, which only the 3D embedding certifies."""
    return model == "singular-drift" and splitting == "semi-implicit" and dom.dim < 3


class TestWarmStart:
    """Each march starts its resolves from an extrapolation of its last
    states; only the iteration counts may differ from cold steps."""

    @pytest.mark.parametrize("dom, model, splitting, level", WARM_CASES)
    def test_states_match_cold_steps(self, dom, model, splitting, level):
        data = M.make_model(model, dom, 0.06)
        c = one_level(data, cfg(5e-3, splitting=splitting), level)
        with uncertified_warning(warm_case_uncertified(dom, model, splitting)):
            warm = observed(data, c)
        cold, _ = cold_march(data, c)
        # step 1 has no history to extrapolate from: it is the cold step
        assert np.array_equal(warm[1].values, cold[0].values)
        for a, b in zip(warm[1:], cold):
            assert np.max(np.abs(a.values - b.values)) <= 1e-9

    @pytest.mark.parametrize("dom, model, splitting, level", WARM_CASES)
    def test_observed_states_are_never_overwritten(self, dom, model, splitting, level):
        # the guess and scratch buffers of the march, and the resolve's
        # scratch arrays, must not alias a state handed out to `observe`
        data = M.make_model(model, dom, 0.06)
        seen = []
        with uncertified_warning(warm_case_uncertified(dom, model, splitting)):
            E.evolve(
                data,
                one_level(data, cfg(5e-3, splitting=splitting), level),
                observe=lambda t, u: seen.append((u, u.values.copy())),
            )
        assert len(seen) == 13
        for u, at_the_time in seen:
            assert np.array_equal(u.values, at_the_time)

    def test_drift_preset_needs_at_most_half_the_iterations(self):
        path = cli.resolve_config_path("singular_drift_decay_3d")
        config = cli.parse_config(path.read_text(encoding="utf-8"))
        data = cli._build_problem(config)
        c = cli._build_evolution(config, data)
        _, trace = E.evolve(data, c)
        _, cold = cold_march(data, c)
        # measured: 374 warm against 1115 cold
        assert 2 * sum(trace.solver_iterations) <= sum(cold)

    def test_continuation_restarts_the_history_at_each_level(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("singular-drift", dom, 0.02, c=0.08)
        plan = M.make_truncation_plan(data, levels=[0.5, 1.0, 2.0])
        c = cfg(2e-3, truncation=plan, splitting="semi-implicit")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = E.continuation(data, c)
        for lev in res.levels:
            op = E._step_operator(data, c.dt, one_level(data, c, lev.level))
            first = E._step_detailed(data.initial, c, op)
            assert lev.trace.l2_norms[0] == G.norm_l2(first.state)
            assert lev.trace.h1_seminorms[0] == G.norm_h1(first.state)
            assert lev.trace.solver_iterations[0] == first.diagnostics.iterations


class TestContinuation:
    def test_saturated_plan_levels_agree(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("singular-drift", dom, 0.1, c=0.08)
        bmax = data.drift_bound_grid(0.0).max_abs()
        plan = M.make_truncation_plan(data, levels=[2 * bmax, 4 * bmax])
        res = E.continuation(data, cfg(2e-3, truncation=plan))
        assert res.differences[0] <= 1e-10

    def test_singular_drift_saturation(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("singular-drift", dom, 0.1, c=0.08)
        plan = M.make_truncation_plan(data)
        res = E.continuation(data, cfg(2e-3, truncation=plan))
        assert res.differences_nonincreasing
        assert res.differences[-1] <= 1e-9
        assert res.warnings  # 2D drift levels carry no embedding certificate

    def test_saturated_levels_share_one_march(self):
        # the first saturated level is marched; each later one copies it
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("singular-drift", dom, 0.05, c=0.08)
        bmax = M.drift_bound_max(data)
        plan = M.make_truncation_plan(data, levels=[0.5 * bmax, bmax, 2 * bmax, 4 * bmax])
        c = cfg(1e-2, truncation=plan)
        res = E.continuation(data, c)
        assert [lev.reuses for lev in res.levels] == [None, None, bmax, bmax]
        source = res.levels[1]
        semi = replace(c, splitting="semi-implicit")
        for lev in res.levels[1:]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                final, trace = E.evolve(data, one_level(data, semi, lev.level))
            assert final.values.tobytes() == lev.final_state.values.tobytes()
            assert trace == lev.trace
            assert lev.trace.truncation_level == [lev.level] * len(trace.times)
        for lev in res.levels[2:]:
            # copies, not aliases of the marched level's state and lists
            assert lev.final_state.values is not source.final_state.values
            for f in E._TRACE_COLUMNS:
                assert getattr(lev.trace, f.name) is not getattr(source.trace, f.name)
        assert res.differences[1:] == [0.0, 0.0]

    @pytest.mark.parametrize("autonomous", [True, False])
    def test_levels_below_saturation_and_moving_drifts_are_marched(
        self, monkeypatch, autonomous
    ):
        dom = G.BoxDomain(2, (1.0, 1.0), (10, 10))
        data = M.make_model("singular-drift", dom, 0.03, c=0.08)
        data = replace(data, drift=replace(data.drift, autonomous=autonomous))
        bmax = M.drift_bound_max(data)
        levels = [np.nextafter(bmax, 0.0), bmax, 2 * bmax]
        plan = M.make_truncation_plan(data, levels=levels)
        marched = []
        evolve = E.evolve

        def counting(data, cfg, **kw):
            marched.append(cfg.truncation.levels[-1])
            return evolve(data, cfg, **kw)

        monkeypatch.setattr(E, "evolve", counting)
        res = E.continuation(data, cfg(1e-2, truncation=plan))
        # a level just below the maximum clamps one face, so it is marched;
        # a drift that depends on t is never saturated at every time
        assert marched == (levels[:2] if autonomous else levels)
        assert [lev.reuses for lev in res.levels] == [None, None, bmax if autonomous else None]

    def test_requires_plan(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("singular-drift", dom, 0.1, c=0.08)
        with pytest.raises(ValueError):
            E.continuation(data, cfg(2e-3))


class TestUniqueness:
    def test_report_json_leaves_out_the_series(self):
        rep = E.UniquenessReport(
            times=[0.0, 0.1], distances=[1.0, 0.5], growth_constant=0.0,
            tightest_exponent=-6.9, bound_satisfied=True, contraction_monotone=True,
        )
        assert rep.as_dict() == {
            "growth_constant": 0.0,
            "tightest_exponent": -6.9,
            "bound_satisfied": True,
            "contraction_monotone": True,
            "final_distance": 0.5,
        }
        assert replace(rep, times=[], distances=[]).as_dict()["final_distance"] == 0.0

    def test_identical_states_stay_identical(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("heat", dom, 0.05)
        rep = E.uniqueness_harness(data, cfg(5e-3), data.initial)
        assert max(rep.distances) <= 1e-12

    def test_pure_contraction_without_drift(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("variable-diffusion", dom, 0.05)
        rng = np.random.default_rng(1)
        noise = 0.5 * rng.standard_normal(dom.interior_shape)
        v0 = G.GridFunction(dom, data.initial.values + noise)
        rep = E.uniqueness_harness(data, cfg(5e-3), v0)
        assert rep.growth_constant == 0.0
        assert rep.contraction_monotone
        assert rep.tightest_exponent <= 0.0
        assert rep.bound_satisfied

    @pytest.mark.parametrize("splitting", ["fully-implicit", "semi-implicit"])
    @pytest.mark.parametrize("model", ["heat", "singular-drift"])
    def test_growth_constant_is_the_clamped_drift_formula(self, model, splitting):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model(model, dom, 0.02)
        level = 1.0
        c = one_level(data, cfg(5e-3, splitting=splitting), level)
        v0 = G.GridFunction(dom, 0.5 * data.initial.values)
        with uncertified_warning(data.has_drift and splitting == "semi-implicit"):
            rep = E.uniqueness_harness(data, c, v0)
        if data.has_drift:
            clamp = level if splitting == "semi-implicit" else None
            b_eff = M.drift_bound_max(data, data.horizon, clamp)
            # the clamp is active on this grid
            assert (b_eff == level) == (splitting == "semi-implicit")
            C0 = b_eff**2 / (2 * data.diffusion.alpha)
            expected = C0 / (1.0 - c.dt * C0) if c.dt * C0 < 1 else math.inf
            assert expected > 0.0
        else:
            expected = 0.0
        assert rep.growth_constant == expected

    def test_drift_growth_envelope(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("singular-drift", dom, 0.05, c=0.08)
        rng = np.random.default_rng(2)
        noise = 0.5 * rng.standard_normal(dom.interior_shape)
        v0 = G.GridFunction(dom, data.initial.values + noise)
        rep = E.uniqueness_harness(data, one_level(data, cfg(2e-3), 1.0), v0)
        assert rep.growth_constant > 0.0
        assert rep.bound_satisfied
        assert rep.tightest_exponent <= rep.growth_constant


def weak_entries(data, c, states):
    """The observer's entries for states fed as u_0, u_1, ... at t_j = j dt."""
    wr = E.WeakResidual(data, c)
    for j, u in enumerate(states):
        wr(j * c.dt, u)
    return wr.entries()


class TestWeakResidual:
    def test_exact_trace_residual_is_quadrature_error(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (24, 24))
        data = M.make_model("manufactured", dom, 0.1)
        errs = []
        for tau in (4e-3, 2e-3):
            n = round(0.1 / tau)
            states = [data.exact_grid(j * tau) for j in range(n + 1)]
            entries = weak_entries(data, cfg(tau), states)
            errs.append(max(e.normalized for e in entries))
        assert errs[0] < 0.05
        assert errs[1] < 0.7 * errs[0]

    def test_computed_trace_first_order(self):
        vals = []
        for n, tau in ((12, 4e-3), (24, 2e-3)):
            dom = G.BoxDomain(2, (1.0, 1.0), (n, n))
            data = M.make_model("manufactured", dom, 0.1)
            c = cfg(tau)
            wr = E.WeakResidual(data, c)
            E.evolve(data, c, observe=wr)
            vals.append(max(e.normalized for e in wr.entries()))
        assert vals[1] < 0.65 * vals[0]

    def test_needs_initial_value_and_one_step(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("heat", dom, 0.1)
        for states in ([data.initial], []):
            with pytest.raises(ValueError, match="states"):
                weak_entries(data, cfg(0.01), states)


def _test_battery(dom, T):
    """The stored-trajectory oracle's 9 space-time tests (name, phi, dphi/dt)."""
    lengths = dom.lengths

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
        ("mode1", lambda c: eigen(c, (1,) * dom.dim)),
        ("mode2", lambda c: eigen(c, (2,) + (1,) * (dom.dim - 1))),
        ("bump", bump),
    ]
    temporal = [
        ("lin", lambda t: 1.0 - t / T, lambda t: -1.0 / T),
        ("quad", lambda t: (1.0 - t / T) ** 2, lambda t: -2.0 * (1.0 - t / T) / T),
        ("arch", lambda t: (t / T) * (1.0 - t / T), lambda t: (1.0 - 2.0 * t / T) / T),
    ]
    return [
        (
            f"{sname}*{tname}",
            lambda t, p=profile, f=psi: G.sample(dom, lambda c: f(t) * p(c)),
            lambda t, p=profile, f=dpsi: G.sample(dom, lambda c: f(t) * p(c)),
        )
        for sname, profile in spatial
        for tname, psi, dpsi in temporal
    ]


def _weak_residual_per_test(states, data, dt):
    """Reference: the test-outer loop on a stored trajectory, re-sampling each
    test and re-assembling flux and source per test and slice."""
    from driftflow.grid import gradient, inner, inner_vec, norm_l2
    from driftflow.operators import TruncatedOperator

    out = []
    op = TruncatedOperator(data, dt, drift_mode="full")
    for name, value, dvalue in _test_battery(data.domain, dt * (len(states) - 1)):
        acc = 0.0
        scale = 0.0
        for j in range(1, len(states)):
            t = j * dt
            u = states[j]
            phi = value(t)
            dphi = dvalue(t)
            op = op.at(t)
            flux = op.flux(u)
            gphi = gradient(phi)
            src = data.source_field(t)
            src_pair = inner_vec(src, gphi) if src is not None else 0.0
            acc += dt * (-inner(u, dphi) + inner_vec(flux, gphi) - src_pair)
            gphi_n = math.sqrt(max(inner_vec(gphi, gphi), 0.0))
            scale += dt * (
                norm_l2(u) * norm_l2(dphi)
                + math.sqrt(max(inner_vec(flux, flux), 0.0)) * gphi_n
                + (math.sqrt(max(inner_vec(src, src), 0.0)) * gphi_n if src is not None else 0.0)
            )
        phi0 = value(0.0)
        acc -= inner(states[0], phi0)
        scale += norm_l2(states[0]) * norm_l2(phi0)
        out.append((name, abs(acc), abs(acc) / max(scale, 1e-300)))
    return out


@pytest.fixture
def flux_calls(monkeypatch):
    """The time of every `TruncatedOperator.flux` call, in call order."""
    from driftflow.operators import TruncatedOperator

    calls = []
    original = TruncatedOperator.flux

    def counting_flux(self, u):
        calls.append(self.t)
        return original(self, u)

    monkeypatch.setattr(TruncatedOperator, "flux", counting_flux)
    return calls


class TestWeakResidualAssembly:
    @pytest.mark.parametrize(
        "name, lengths, cells",
        [
            pytest.param("heat", (1.0,), (50,), id="heat-1d"),
            pytest.param("manufactured", (1.0, 1.3), (10, 12), id="manufactured-2d"),
            pytest.param("lipschitz-nonlinear", (1.0, 1.3), (12, 9), id="lipschitz-nonlinear-2d"),
            pytest.param("singular-drift", (1.0, 1.3), (9, 8), id="singular-drift-2d"),
            pytest.param("heat", (1.0, 1.3, 0.8), (5, 6, 7), id="heat-3d"),
            pytest.param("singular-drift", (1.0, 1.0, 1.0), (6, 6, 6), id="singular-drift-3d"),
        ],
    )
    def test_matches_stored_oracle(self, name, lengths, cells, flux_calls):
        dom = G.BoxDomain(len(cells), lengths, cells)
        data = M.make_model(name, dom, 0.05)
        c = cfg(0.01)
        states = observed(data, c)
        wr = E.WeakResidual(data, c)
        E.evolve(data, c, observe=wr)
        # one flux assembly per slice, none for u_0
        assert flux_calls == pytest.approx([0.01 * j for j in range(1, 6)])
        got = wr.entries()
        want = _weak_residual_per_test(states, data, c.dt)
        assert [e.name for e in got] == [w[0] for w in want]
        for e, (_, _, normalized) in zip(got, want):
            assert abs(e.normalized - normalized) <= 1e-14

    def test_one_flux_assembly_per_slice(self, flux_calls):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("singular-drift", dom, 0.05)
        states = [data.initial * (1.0 - 0.1 * j) for j in range(6)]
        assert len(weak_entries(data, cfg(0.01), states)) == 9
        assert flux_calls == pytest.approx([0.01 * j for j in range(1, 6)])


class TestStreamedTrajectories:
    """decay_experiment and uniqueness_harness keep no trajectory; their
    streamed numbers must equal those from a trajectory stored here."""

    def test_decay_series_matches_stored_trajectory(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model("lipschitz-nonlinear", dom, 0.1)
        c = cfg(5e-3)
        rep = decay_experiment(data, c, 1e-12)
        u_inf, _ = solve_steady(data, 1e-12)
        assert rep.y_values == [G.norm_l2(s - u_inf) ** 2 for s in observed(data, c)]

    @pytest.mark.parametrize(
        "model, level", [("variable-diffusion", None), ("singular-drift", 1.0)]
    )
    def test_uniqueness_distances_match_separate_marches(self, model, level):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        data = M.make_model(model, dom, 0.05)
        rng = np.random.default_rng(3)
        noise = 0.5 * rng.standard_normal(dom.interior_shape)
        v0 = G.GridFunction(dom, data.initial.values + noise)
        c = one_level(data, cfg(5e-3), level)
        rep = E.uniqueness_harness(data, c, v0)
        us = observed(data, c)
        vs = observed(replace(data, initial=v0), c)
        assert rep.distances == [G.norm_l2(a - b) for a, b in zip(us, vs)]
        assert rep.times == pytest.approx([j * 5e-3 for j in range(11)], abs=1e-15)

    def test_step_failure_keeps_step_time_and_partial_trace(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (10, 10))
        data = M.make_model("lipschitz-nonlinear", dom, 0.1)
        bad = cfg(0.01, tol=1e-14, max_iter=1)
        runs = (
            lambda: decay_experiment(data, bad, 1e-12),
            lambda: E.uniqueness_harness(data, bad, 0.5 * data.initial),
        )
        for run in runs:
            with pytest.raises(G.ConvergenceError) as info:
                run()
            err = info.value
            assert err.step == 1 and err.t == pytest.approx(0.01)
            assert isinstance(err.trace, E.EvolutionTrace)
            assert len(err.trace.times) == err.step - 1
            assert err.trace.initial_l2 == G.norm_l2(data.initial)

    def test_memory_does_not_grow_with_the_horizon(self):
        # tracemalloc sees numpy buffers; a stored trajectory costs one
        # state per step, a streamed one a few floats per step
        dom = G.BoxDomain(2, (1.0, 1.0), (48, 48))
        state_bytes = dom.interior_count * 8
        rng = np.random.default_rng(4)
        data = M.make_model("heat", dom, 0.4)
        v0 = G.GridFunction(dom, rng.standard_normal(dom.interior_shape))
        runs = {
            "decay": lambda d: decay_experiment(d, cfg(1e-3), 1e-12),
            "uniqueness": lambda d: E.uniqueness_harness(d, cfg(1e-3), v0),
        }

        def peak(run, steps):
            marched = replace(data, horizon=steps * 1e-3)
            tracemalloc.start()
            try:
                run(marched)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for name, run in runs.items():
            # fill the grid caches outside the measurement
            run(replace(data, horizon=0.01))
            growth = peak(run, 400) - peak(run, 100)
            assert growth < 20 * state_bytes, (name, growth / state_bytes)


@st.composite
def pairing_cases(draw):
    """A drift on an anisotropic box of dimension 1-3, declared by its
    velocity or (the same flux) by `evaluate` alone, one splitting, an
    optional source, and a previous and a new state."""
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    top = (24, 16, 10)[dim - 1]
    dom = G.BoxDomain(dim, lengths, tuple(draw(st.integers(2, top)) for _ in range(dim)))
    if draw(st.booleans()):
        data = M.make_model(
            "singular-drift", dom, 1.0,
            c=draw(st.floats(0.01, 2.0)),
            direction=tuple(draw(st.floats(0.1, 1.0)) for _ in range(dim)),
        )
    else:
        data = replace(M.make_model("heat", dom, 1.0), drift=t_dependent_drift(dim))
    if draw(st.booleans()):
        data = replace(data, drift=replace(data.drift, velocity=None))
    if draw(st.booleans()):
        data = replace(
            data, source=lambda c, t: tuple((1.0 + t) * np.cos(x + a) for a, x in enumerate(c))
        )
    splitting = draw(st.sampled_from(("fully-implicit", "semi-implicit")))
    dt = 1.0 / draw(st.integers(10, 1000))
    t = draw(st.floats(0.0, 1.0))
    c = one_level(data, cfg(dt, splitting=splitting), draw(st.floats(0.05, 20.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u_prev, u = (G.GridFunction(dom, rng.standard_normal(dom.interior_shape)) for _ in "ab")
    return data, c, E._step_operator(data, t, c), u_prev, u


def in_contraction_regime(case):
    """Whether the step's resolve has the kernel's contraction guarantee.

    Fully implicit: the damping estimate m of `contraction_constants(dt)`
    is positive, not clipped to its floor 1e-6.  Semi-implicit: the level is
    certified.  Outside, damped Picard may stall (see `TestKnownStalls`).
    """
    data, c, op, _, _ = case
    if c.splitting == "fully-implicit":
        return op.contraction_constants(c.dt)[0] > 1e-6
    return M.certify_truncation(data, op.level).passes_evolution


class TestClosedFormPairing:
    """The energy check reads the drift's pairing from the operator: in
    closed form for a velocity drift, from the faces for any other."""

    @given(case=pairing_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_effective_source(self, case):
        data, c, op, u_prev, u = case
        dom = data.domain
        implicit = c.splitting == "fully-implicit"
        F = data.source_field(op.t)
        ours = 0.0 if F is None else G.inner_vec(F, G.gradient(u))
        if implicit:
            ours -= op.drift_energy(u.values)
        else:
            ours -= G.inner(G.GridFunction(dom, op.explicit_drift(u_prev.values)), u)
        ref = assembled_pairing(op, c.splitting, u_prev, u)
        w = u if implicit else u_prev
        if data.drift.velocity is not None:
            # every face term on either side is at most |w V| (|w_k| + |w_k+1|) |u| / h
            faces = [
                np.abs(op._face_drift(a, not implicit)) * _to_faces(np.abs(w.values), a)
                for a in range(dom.dim)
            ]
        else:
            # every face term on either side is at most |w B(w)| (|u_k| + |u_k+1|) / h
            faces = [
                np.abs(op.drift_flux(w.values, a, explicit=not implicit))
                for a in range(dom.dim)
            ]
        scale = abs(ref) + dom.node_weight * sum(
            np.vdot(face, _to_faces(np.abs(u.values), a)) * 4 / h
            for a, (face, h) in enumerate(zip(faces, dom.spacing))
        )
        assert abs(ours - ref) <= 1e-13 * scale

    @given(case=pairing_cases().filter(in_contraction_regime))
    @settings(max_examples=25, deadline=None)
    def test_step_slack_matches_the_assembled_check(self, case):
        data, c, op, u_prev, _ = case
        res = E._step_detailed(u_prev, c, op)
        u, tau = res.state, c.dt
        pair = assembled_pairing(op, c.splitting, u_prev, u)
        ref = (
            0.5 * G.inner(u, u)
            + tau * 0.5 * data.diffusion.alpha * G.norm_h1(u) ** 2
            - 0.5 * G.inner(u_prev, u_prev)
            - tau * pair
        )
        size = G.inner(u, u) + G.inner(u_prev, u_prev) + tau * (res.h1_sq + abs(pair))
        assert abs(res.energy_slack - ref) <= 1e-12 * size


def unbuffered_extrapolation(history):
    """The guess as one expression, fresh arrays for every term."""
    q = len(history) - 1
    vals = history[0].values * (q + 1)
    for k in range(1, q + 1):
        vals = vals + (-1) ** k * math.comb(q + 1, k + 1) * history[k].values
    return vals


class TestBufferedExtrapolation:
    @given(dim=st.integers(1, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_ring_guess_matches_the_unbuffered_sum(self, dim, seed):
        # the march's own ring, fed random states of mixed magnitude by a
        # stand-in step: steps 1..2(q + 1) + 2 see every fill level and
        # every slot as the newest
        rng = np.random.default_rng(seed)
        dom = G.BoxDomain(dim, (1.0,) * dim, tuple(rng.integers(2, 9, size=dim)))
        slots = E._EXTRAPOLATION_ORDER + 1
        steps = 2 * slots + 2
        data = M.make_model("heat", dom, 0.01 * steps)
        guesses = []

        def stand_in(u_prev, c, op, prev_sq=None, guess=None):
            guesses.append(guess.values.copy())
            mag = 10.0 ** rng.integers(-3, 4)
            state = G.GridFunction(dom, mag * rng.standard_normal(dom.interior_shape))
            diag = SolverDiagnostics(residuals=[0.0])
            return E.StepResult(state, diag, 0.0, G.inner(state, state), 0.0, 0.0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(E, "_step_detailed", stand_in)
            states = observed(data, cfg(0.01))
        assert len(guesses) == steps
        eps = np.finfo(float).eps
        for j, got in enumerate(guesses, start=1):
            history = states[max(0, j - slots):j][::-1]
            size = sum(
                math.comb(len(history), k + 1) * np.abs(u.values)
                for k, u in enumerate(history)
            )
            diff = np.abs(got - unbuffered_extrapolation(history))
            assert np.all(diff <= 8 * eps * size)

    def test_states_handed_out_are_never_overwritten(self, monkeypatch):
        # evolve's observed states and both uniqueness marches' states keep
        # the values they had when yielded, after the ring has wrapped
        dom = G.BoxDomain(2, (1.0, 1.0), (10, 10))
        data = M.make_model("singular-drift", dom, 0.1, c=0.08)
        c = cfg(0.01)
        assert c.steps(data) > E._EXTRAPOLATION_ORDER + 1
        seen = []
        E.evolve(data, c, observe=lambda t, u: seen.append((u, u.values.copy())))
        assert len(seen) == c.steps(data) + 1
        march = E._march

        def recording(*args):
            for t, u in march(*args):
                seen.append((u, u.values.copy()))
                yield t, u

        monkeypatch.setattr(E, "_march", recording)
        v0 = data.initial * 0.5
        E.uniqueness_harness(data, c, v0)
        assert len(seen) == 3 * (c.steps(data) + 1)
        assert all(np.array_equal(u.values, copy) for u, copy in seen)


class TestKnownStalls:
    """Valid inputs on which the damped Picard kernel stalls today.

    lipschitz-nonlinear with beta = 100 on 16^2 cells, from 30 times the
    model's initial state, tol 1e-13, 10 steps.  The kernel accepts and
    backtracks on the plain L2 residual, while its safe damping contracts
    in the preconditioner's norm; a kernel that decides in that norm
    should march both to the end, and then these marks must go.  The last
    case is a singular-drift step outside the contraction guarantee, the
    kind `in_contraction_regime` keeps out of the pairing tests.
    """

    @pytest.mark.xfail(strict=True, raises=G.ConvergenceError)
    @pytest.mark.parametrize("dt, failing_step", [(5e-3, 7), (0.05, 1)])
    def test_stiff_lipschitz_march_completes(self, dt, failing_step):
        dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))
        data = M.make_model("lipschitz-nonlinear", dom, 10 * dt, beta=100)
        c = cfg(dt)
        try:
            _, trace = E.evolve(replace(data, initial=30 * data.initial), c)
        except G.ConvergenceError as err:
            assert err.step == failing_step
            raise
        assert len(trace.times) == 10

    @pytest.mark.xfail(strict=True, raises=G.ConvergenceError)
    def test_singular_drift_step_with_clipped_damping_estimate(self):
        # fully implicit, dt = 0.1 on a 1D grid of 3 cells: the estimate m is
        # clipped to its floor, so the kernel has no contraction guarantee
        dom = G.BoxDomain(1, (1.0,), (3,))
        data = M.make_model("singular-drift", dom, 1.0, c=2.0)
        c = one_level(data, cfg(0.1, splitting="fully-implicit"), 1.0)
        op = E._step_operator(data, 0.5, c)
        assert op.contraction_constants(c.dt)[0] == 1e-6
        u_prev = G.GridFunction(dom, np.random.default_rng(1).standard_normal(dom.interior_shape))
        try:
            E._step_detailed(u_prev, c, op)
        except G.ConvergenceError as err:
            assert "stalled" in str(err)
            raise
