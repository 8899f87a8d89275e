import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow import grid as G
from driftflow import lorentz as L
from driftflow import models as M
from driftflow.operators import TruncatedOperator

from _oracles import small_data_reference, t_dependent_drift

DOM2 = G.BoxDomain(2, (1.0, 1.0), (16, 16))
DOM3 = G.BoxDomain(3, (1.0, 1.0, 1.0), (12, 12, 12))


class TestHypotheses:
    @pytest.mark.parametrize("name", sorted(M.builtin_models()))
    def test_builtin_models_satisfy_flux_assumptions(self, name):
        data = M.make_model(name, DOM2, 0.5)
        report = M.verify_hypotheses(data, seed=3)
        assert report.passed, report.as_dict()

    def test_singular_drift_lipschitz_is_equality(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.2)
        rng = np.random.default_rng(5)
        coords = tuple(rng.uniform(0.05, 0.95, 200) for _ in range(2))
        z1 = rng.standard_normal(200)
        z2 = rng.standard_normal(200)
        B1 = data.drift.evaluate(coords, 0.1, z1)
        B2 = data.drift.evaluate(coords, 0.1, z2)
        diff = np.sqrt(sum((a - b) ** 2 for a, b in zip(B1, B2)))
        bound = data.drift.bound(coords, 0.1) * np.abs(z1 - z2)
        assert np.allclose(diff, bound, rtol=1e-12)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            M.make_model("advection-reaction", DOM2, 0.5)

    @pytest.mark.parametrize(
        "name, key", [("singular-drift", "cc"), ("heat", "c"), ("variable-diffusion", "gamma")]
    )
    def test_unknown_parameter_named(self, name, key):
        with pytest.raises(ValueError, match=repr(key)):
            M.make_model(name, DOM2, 0.5, **{key: 5.0})

    @pytest.mark.parametrize("c", [-5.0, math.nan, math.inf])
    def test_singular_drift_rejects_bad_coefficient(self, c):
        # c = -5 used to be certified at every level ("remainder vanishes")
        with pytest.raises(ValueError, match=r"^c must be finite and nonnegative"):
            M.make_model("singular-drift", DOM3, 0.5, c=c)

    def test_singular_drift_accepts_zero_coefficient(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.0)
        assert data.drift_bound_grid(0.0).max_abs() == 0.0


class TestDriftFlux:
    def test_velocity_derives_evaluate(self):
        drift = M.make_model("singular-drift", DOM2, 0.5, c=0.2).drift
        rng = np.random.default_rng(6)
        coords = tuple(rng.uniform(0.05, 0.95, 200) for _ in range(2))
        z = rng.standard_normal(200)
        for B, v in zip(drift.evaluate(coords, 0.1, z), drift.velocity(coords, 0.1)):
            assert np.array_equal(B, z * v)

    def test_evaluate_and_a_different_velocity_are_exclusive(self):
        drift = M.make_model("singular-drift", DOM2, 0.5).drift

        def evaluate(coords, t, z):
            return drift.evaluate(coords, t, z)

        with pytest.raises(ValueError, match="not both"):
            M.DriftFlux(evaluate, bound=drift.bound, velocity=drift.velocity)
        # replace keeps the flux derived from the old velocity
        with pytest.raises(ValueError, match="not both"):
            replace(drift, velocity=lambda c, t: tuple(2 * v for v in drift.velocity(c, t)))
        with pytest.raises(ValueError, match="evaluate or velocity"):
            M.DriftFlux(bound=drift.bound)
        with pytest.raises(TypeError):
            M.DriftFlux(evaluate, drift.bound)  # bound is keyword-only
        # dataclasses.replace hands the derived flux back, which is accepted
        assert replace(drift, autonomous=False).evaluate == drift.evaluate

    def test_without_velocity_is_a_general_drift(self):
        data = M.make_model("singular-drift", DOM2, 0.5)
        general = replace(data.drift, velocity=None)
        assert general.velocity is None
        assert general.evaluate == data.drift.evaluate
        op = TruncatedOperator(replace(data, drift=general), 0.1, drift_mode="full")
        assert not op._linear
        assert M.verify_hypotheses(replace(data, drift=general), seed=3).passed

    def test_velocity_beyond_its_bound_fails_the_hypotheses(self):
        # this used to pass: the check read a hand-written evaluate, while
        # the solver applied the velocity
        data = M.make_model("singular-drift", DOM2, 0.5)
        V = data.drift.velocity
        fast = M.DriftFlux(
            bound=data.drift.bound,
            velocity=lambda c, t: tuple(50 * v for v in V(c, t)),
            autonomous=True,
        )
        report = M.verify_hypotheses(replace(data, drift=fast), seed=3)
        assert report.drift_lipschitz_violations > 0
        assert not report.passed


class TestTruncationWeight:
    def test_all_ones_when_bounded(self):
        b = G.sample(DOM2, lambda c: 0.3 + 0.1 * c[0])
        theta = M.clamp_weight(b.values, 1.0)
        assert np.all(theta == 1.0)

    def test_point_value(self):
        theta = M.clamp_weight(np.array([10.0, 2.0]), 4.0)
        assert theta == pytest.approx([0.4, 1.0])

    def test_weight_times_b_is_clamp(self):
        rng = np.random.default_rng(2)
        b = np.abs(rng.lognormal(0, 1, DOM2.interior_shape))
        for level in (0.2, 1.0, 5.0):
            theta = M.clamp_weight(b, level)
            clamp = np.minimum(b, level)
            assert np.allclose(theta * b, clamp, atol=1e-15)
            rest = (1.0 - theta) * b
            assert np.allclose(rest, b - clamp, atol=1e-15)

    def test_rejects_bad_input(self):
        b = G.sample(DOM2, lambda c: c[0])
        with pytest.raises(ValueError):
            M.clamp_weight(b.values, 0.0)
        with pytest.raises(ValueError):
            M.clamp_weight(-np.ones(DOM2.interior_shape), 1.0)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_level(self, level):
        # a NaN level used to give all ones: nothing clamped
        b = G.sample(DOM2, lambda c: c[0])
        with pytest.raises(ValueError, match="^truncation level must be finite"):
            M.clamp_weight(b.values, level)


class TestCertification:
    def test_bounded_drift_passes_trivially(self):
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        bmax = data.drift_bound_grid(0.0).max_abs()
        cert = M.certify_truncation(data, 2 * bmax)
        assert cert.measured == 0.0
        assert cert.passes_evolution and cert.passes_longtime

    def test_no_drift_passes_in_two_dimensions(self):
        data = M.make_model("heat", DOM2, 0.5)
        cert = M.certify_truncation(data, 1.0)
        assert cert.passes_evolution
        assert "without embedding" in cert.note

    def test_small_coefficient_certifies_every_level(self):
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        for level in (0.3, 1.0, 3.0):
            cert = M.certify_truncation(data, level)
            assert cert.passes_evolution

    def test_large_coefficient_flags_obstruction(self):
        # c * omega_3^{1/3} far above the feasibility bound: no level can pass
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.5)
        cert = M.certify_truncation(data, 2.0)
        assert not cert.passes_evolution
        # a nearly saturated level passes on the fixed grid
        assert M.certify_truncation(data, 5.0).passes_evolution

    def test_level_clamping_a_face_is_uncertified_in_two_dimensions(self):
        # on 16^2 the auto schedule's level 2.008 clears every node (max
        # 1.810) but not the faces (max 2.560): its node remainder is 0, yet
        # A_M still clamps, and below dimension 3 only a level that clamps
        # nothing is certified
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.08)
        plan = M.make_truncation_plan(data)
        bmax = M.drift_bound_max(data)
        assert plan.levels[2] == pytest.approx(2.008, abs=1e-3)
        assert data.drift_bound_grid(0.0).max_abs() < plan.levels[2] < bmax
        for cert in (plan.certificates[2], M.certify_truncation(data, np.nextafter(bmax, 0.0))):
            assert cert.measured == 0.0
            assert not cert.passes_evolution and not cert.passes_longtime
            assert cert.note == "embedding constant undefined below dimension 3"
        # the least level that clamps no node or face certifies
        cert = M.certify_truncation(data, bmax)
        assert cert.passes_evolution and cert.passes_longtime
        assert cert.note == "remainder vanishes; certificate holds without embedding"
        # a drift declared moving is read at every certificate time, to the
        # same verdicts
        moving = replace(data, drift=replace(data.drift, autonomous=False))
        assert M.certify_truncation(moving, bmax) == cert
        assert M.certify_truncation(moving, plan.levels[2]) == plan.certificates[2]

    def test_level_clamping_a_face_passes_on_its_node_remainder_in_three_dimensions(self):
        # on 12^3 the level 1.623 clears every node (max 1.386) but not the
        # faces (max 1.697): it is not saturated, so it loses the note, yet
        # passes on its node remainder of 0; the face remainder is unmeasured
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        cert = M.make_truncation_plan(data).certificates[2]
        assert cert.level == pytest.approx(1.623, abs=1e-3)
        assert cert.measured == 0.0 and not M.saturated(data, cert.level)
        assert cert.passes_evolution and cert.passes_longtime
        assert cert.note == ""

    def test_measured_norm_monotone_in_level(self):
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.3)
        vals = [
            M.certify_truncation(data, level).measured
            for level in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_two_dim_nonzero_remainder_is_uncertified(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.2)
        cert = M.certify_truncation(data, 0.1)
        assert not cert.passes_evolution
        assert "dimension" in cert.note

    def test_plan_auto_schedule_saturates(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        plan = M.make_truncation_plan(data)
        bmax = M.drift_bound_max(data)
        assert len(plan.levels) >= 2
        assert plan.levels[-1] >= bmax
        assert all(b > a for a, b in zip(plan.levels, plan.levels[1:]))
        # in 2D only a saturated level, which clamps no node or face, is certified
        assert [c.passes_evolution for c in plan.certificates] == [
            level >= bmax for level in plan.levels
        ]
        assert not plan.all_certified
        assert M.make_truncation_plan(data, levels=plan.levels[-1:]).all_certified

    def test_saturation_is_one_predicate(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        bmax = M.drift_bound_max(data)
        below = np.nextafter(bmax, 0.0)
        assert M.saturated(data, bmax) and M.saturated(data, 2 * bmax)
        assert not M.saturated(data, below)
        # the auto schedule stops one step after its first saturated level
        plan = M.make_truncation_plan(data)
        flags = [M.saturated(data, level) for level in plan.levels]
        assert flags == [False] * (len(flags) - 2) + [True, True]
        # a drift that depends on t saturates at a time, never at every time
        moving = replace(data, drift=replace(data.drift, autonomous=False))
        assert M.saturated(moving, bmax, 0.0) and not M.saturated(moving, bmax)
        assert M.make_truncation_plan(moving).levels == plan.levels
        # without a drift every level is saturated
        assert M.saturated(M.make_model("heat", DOM2, 0.5), 1e-9)

    def test_saturated_levels_build_one_operator(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        bmax = M.drift_bound_max(data)
        ops = [
            TruncatedOperator(data, 0.25, level=level, drift_mode="remainder")
            for level in (bmax, 3.0 * bmax)
        ]
        w = data.initial.values
        for op in ops:
            for a in range(DOM2.dim):
                assert np.all(op._drift_weight(a, explicit=True) == 1.0)
            op.explicit_drift(w)  # builds the explicit stencil
        first, other = ops
        assert first._linear_stencil().weights.tobytes() == other._linear_stencil().weights.tobytes()
        assert first._explicit_stencil.weights.tobytes() == other._explicit_stencil.weights.tobytes()
        assert first.drift_face_max() == other.drift_face_max() == bmax

    def test_plan_validation(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        certs = tuple(M.certify_truncation(data, m) for m in (1.0, 2.0))
        assert M.TruncationPlan(certs).levels == (1.0, 2.0)
        for bad in (certs[::-1], certs[:1] * 2):
            with pytest.raises(ValueError, match="^levels must be strictly increasing"):
                M.TruncationPlan(bad)
        # an empty plan used to read all_certified and fail in its readers
        with pytest.raises(ValueError, match="^a truncation plan needs at least one level"):
            M.TruncationPlan(())
        with pytest.raises(ValueError, match="^a truncation plan needs at least one level"):
            M.make_truncation_plan(data, levels=[])

    @pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_level_is_rejected(self, level):
        # a NaN level used to be certified as accretive, and a plan of NaN
        # levels passed the increasing check
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        cert = replace(M.certify_truncation(data, 1.0), level=level)
        with pytest.raises(ValueError, match="^truncation level must be finite"):
            M.certify_truncation(data, level)
        with pytest.raises(ValueError, match="^truncation level must be finite"):
            M.TruncationPlan((cert, cert))
        # -1 used to come back as the clamped maximum, NaN as the unclamped one
        with pytest.raises(ValueError, match="^truncation level must be finite"):
            M.drift_bound_max(data, 0.0, level)

    @pytest.mark.parametrize(
        "name, kw",
        [
            ("m0", dict(m0=-3.0)),
            ("m0", dict(m0=0.0)),
            ("m0", dict(m0=math.nan)),
            ("factor", dict(factor=1.0)),
            ("factor", dict(factor=0.5)),
            ("factor", dict(factor=math.nan)),
            ("factor", dict(factor=math.inf)),
            ("count", dict(count=0)),
            ("count", dict(count=-2)),
            ("count", dict(count=2.5)),
        ],
    )
    def test_plan_parameters_name_what_they_reject(self, name, kw):
        # these used to give a schedule from m0 = 1, a single level, a
        # "strictly increasing" complaint or NaN levels
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        with pytest.raises(ValueError, match=f"^{name} must"):
            M.make_truncation_plan(data, **kw)


@st.composite
def small_data_cases(draw):
    """(data, plan or None) over every way the check is asked: a scheduled
    plan or a plan of arbitrary levels, and no plan only without a drift."""
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.sampled_from((0.5, 1.0, 2.0))) for _ in range(dim))
    cells = tuple(draw(st.integers(4, 8 if dim == 3 else 14)) for _ in range(dim))
    dom = G.BoxDomain(dim, lengths, cells)
    kind = draw(st.sampled_from(("none", "autonomous", "time-dependent", "drift_field")))
    if kind == "none":
        data = M.make_model("heat", dom, 0.5)
    elif kind == "autonomous":
        data = M.make_model("singular-drift", dom, 0.5, c=draw(st.floats(0.0, 0.6)))
    elif kind == "time-dependent":
        data = replace(M.make_model("heat", dom, 0.5), drift=t_dependent_drift(dim))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        scale = draw(st.floats(0.0, 3.0))
        field = G.GridFunction(dom, scale * rng.random(dom.interior_shape))
        data = M.make_model("singular-drift", dom, 0.5, drift_field=field)
    alpha = draw(st.floats(0.2, 1.0))
    data = replace(
        data,
        diffusion=M.DiffusionFlux(coefficient=lambda c, t: 1.0, alpha=alpha, beta=1.0),
    )
    ways = ("schedule", "levels") if data.has_drift else ("none", "schedule", "levels")
    how = draw(st.sampled_from(ways))
    plan = None
    if how == "schedule":
        plan = M.make_truncation_plan(
            data,
            m0=draw(st.sampled_from((None, 0.05, 0.3, 20.0))),
            count=draw(st.integers(1, 5)),
            factor=draw(st.sampled_from((1.5, 2.0, 4.0))),
        )
    elif how == "levels":
        levels = draw(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3, unique=True))
        plan = M.make_truncation_plan(data, levels=sorted(levels))
    return data, plan


class TestSmallDataCheck:
    @given(case=small_data_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_both_parts_measured_at_every_level(self, case):
        data, plan = case
        levels = plan.levels if plan is not None else []
        assert M.small_data_check(data, plan) == small_data_reference(data, levels)

    def test_decay_preset_samples_b_three_times(self, monkeypatch):
        # the singular_drift_decay_3d preset's data and plan
        dom = G.BoxDomain(3, (1.0, 1.0, 1.0), (16, 16, 16))
        data = M.make_model("singular-drift", dom, 0.5, c=0.1)
        plan = M.make_truncation_plan(data, factor=2.0)
        counts = {"samples": 0, "weak_norms": 0}
        sample, weak_norm = M.ProblemData.drift_bound_grid, L.weak_norm_of_values

        def counting_sample(self, t):
            counts["samples"] += 1
            return sample(self, t)

        def counting_weak_norm(*args):
            counts["weak_norms"] += 1
            return weak_norm(*args)

        monkeypatch.setattr(M.ProblemData, "drift_bound_grid", counting_sample)
        monkeypatch.setattr(L, "weak_norm_of_values", counting_weak_norm)
        got = M.small_data_check(data, plan)
        assert got[0]
        # the remainder comes from the plan's certificate, so only min(b, M)
        # is measured, and the autonomous b is sampled once, at t = 0
        assert counts == {"samples": 1, "weak_norms": 1}
        counts.update(samples=0, weak_norms=0)
        assert small_data_reference(data, plan.levels) == got
        assert counts == {"samples": 2, "weak_norms": 2}
        # the same b declared moving is sampled at each of the three times
        counts.update(samples=0, weak_norms=0)
        moving = replace(data, drift=replace(data.drift, autonomous=False))
        assert M.small_data_check(moving, plan) == got
        assert counts == {"samples": 3, "weak_norms": 3}

    @pytest.mark.parametrize("c, ok, level", [(0.1, True, 0.2), (0.14, False, 0.4)])
    def test_search_goes_past_failing_levels(self, c, ok, level):
        # on 10^3 the levels 0.05 and 0.1 fail; for c = 0.1 the third passes,
        # for c = 0.14 none does and the least failing one is reported
        dom = G.BoxDomain(3, (1.0, 1.0, 1.0), (10, 10, 10))
        data = M.make_model("singular-drift", dom, 0.5, c=c)
        plan = M.make_truncation_plan(data, m0=0.05, factor=2.0, count=6)
        got = M.small_data_check(data, plan)
        assert got == small_data_reference(data, plan.levels)
        assert got[0] == ok
        assert got[1]["level"] == pytest.approx(level)

    @pytest.mark.parametrize("growing", [False, True])
    def test_coefficient_vanishing_at_the_nodes_at_t0_without_plan(self, growing):
        # the plan-less fallback level was the node maximum at t = 0, here 0,
        # certified outside any plan; without a plan the check now refuses
        dom = G.BoxDomain(3, (1.0, 1.0, 1.0), (6, 6, 6))
        data = M.make_model("singular-drift", dom, 0.5, c=0.0)
        if growing:
            drift = M.DriftFlux(
                bound=lambda c, t: 0.2 * t + 0.0 * c[0],
                velocity=lambda c, t: tuple(0.2 * t + 0.0 * x for x in c),
            )
            data = replace(data, drift=drift)
        with pytest.raises(ValueError, match="needs a truncation plan"):
            M.small_data_check(data, None)
        plan = M.make_truncation_plan(data)
        assert M.small_data_check(data, plan) == small_data_reference(data, plan.levels)

    @pytest.mark.parametrize("level", [math.nan, -1.0])
    def test_given_level_must_be_finite_and_positive(self, level):
        # a NaN level used to pass the check with both weak norms 0; a level
        # reaches the check only inside a plan, and no plan holds one
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        cert = replace(M.certify_truncation(data, 1.0), level=level)
        with pytest.raises(ValueError, match="^truncation level must be finite"):
            M.small_data_check(data, M.TruncationPlan((cert,)))

    def test_drift_without_plan_raises_before_the_dimension_return(self):
        # a drift reaches no verdict without a plan, not even the
        # below-dimension-3 one; without a drift no plan is needed
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        with pytest.raises(ValueError, match="needs a truncation plan"):
            M.small_data_check(data, None)
        ok, detail = M.small_data_check(data, M.make_truncation_plan(data))
        assert not ok and "dimension 3" in detail["reason"]
        assert M.small_data_check(replace(data, drift=None), None) == (True, {"drift": 0.0})


class TestManufactured:
    def test_source_matches_target_solution(self):
        # -div F must equal u_t - Lap(u) = (Lam - 1) e^{-t} E for the target
        dom = G.BoxDomain(2, (1.0, 1.0), (32, 32))
        data = M.make_model("manufactured", dom, 0.5)
        lam = 2 * math.pi**2
        t = 0.3
        F = data.source_field(t)
        got = -G.divergence(F).values
        want = (lam - 1.0) * data.exact_grid(t).values  # exact_grid carries e^{-t}
        err = np.max(np.abs(got - want))
        assert err < 2e-3 * np.max(np.abs(want))  # O(h^2) at this resolution

    def test_initial_state_is_exact_solution_at_zero(self):
        data = M.make_model("manufactured", DOM2, 0.5)
        assert np.allclose(data.initial.values, data.exact_grid(0.0).values)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon_is_rejected(self, horizon):
        with pytest.raises(ValueError, match="^horizon must be finite"):
            M.make_model("heat", DOM2, horizon)

    def test_exact_unavailable_elsewhere(self):
        data = M.make_model("heat", DOM2, 0.5)
        with pytest.raises(ValueError):
            data.exact_grid(0.1)


class TestSingularPoint:
    def test_offset_keeps_samples_finite(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=1.0)
        b = data.drift_bound_grid(0.0)
        assert np.all(np.isfinite(b.values))
        h = DOM2.spacing[0]
        assert b.max_abs() <= 1.0 / (h / math.sqrt(2)) * (1 + 1e-12)

    @pytest.mark.parametrize(
        "dom",
        [
            G.BoxDomain(1, (1.0,), (16,)),
            G.BoxDomain(1, (2.0,), (15,)),
            G.BoxDomain(2, (1.0, 1.0), (15, 15)),
            G.BoxDomain(2, (1.0, 2.5), (15, 8)),
            G.BoxDomain(3, (1.0, 1.0, 1.0), (9, 9, 9)),
            G.BoxDomain(3, (0.5, 1.0, 2.0), (7, 6, 11)),
        ],
        ids=["1d-even", "1d-odd", "2d-odd", "2d-mixed", "3d-odd", "3d-mixed"],
    )
    def test_no_node_or_face_hits_the_singular_point(self, dom):
        c = 1.0
        data = M.make_model("singular-drift", dom, 0.5, c=c)
        # every node and face lies at least a quarter cell from x0
        cap = c / (0.25 * min(dom.spacing)) * (1 + 1e-12)
        assert data.drift_bound_grid(0.0).max_abs() <= cap
        for axis in range(dom.dim):
            b = data.drift.bound(G.face_coordinates(dom, axis), 0.0)
            assert np.max(b) <= cap
        op = TruncatedOperator(data, 0.0, drift_mode="full")
        u = G.GridFunction(dom, np.ones(dom.interior_shape))
        assert np.all(np.isfinite(op.apply(u).values))

    def test_even_counts_keep_the_half_cell_shift(self):
        # the bundled presets use even counts; their x0 is unchanged
        for dom in (DOM2, DOM3, G.BoxDomain(2, (1.0, 3.0), (32, 8))):
            expect = tuple(0.5 * L + 0.5 * h for L, h in zip(dom.lengths, dom.spacing))
            assert M.singular_point(dom) == expect

    def test_custom_drift_field(self):
        field = G.sample(DOM2, lambda c: 0.2 + 0.1 * c[0])
        data = M.make_model("singular-drift", DOM2, 0.5, drift_field=field)
        got = data.drift_bound_grid(0.0)
        assert np.allclose(got.values, field.values)


class TestDriftFileLookup:
    def test_faces_read_the_larger_neighbour(self):
        # rounding halves to even used to give 1, 2, 2, 4, 4, 6, 6, 7: every
        # odd-numbered node was never read on a face
        dom = G.BoxDomain(1, (1.0,), (8,))
        field = G.GridFunction(dom, np.arange(1.0, 8.0))
        data = M.make_model("singular-drift", dom, 0.5, drift_field=field)
        faces = data.drift.bound(G.face_coordinates(dom, 0), 0.0)
        np.testing.assert_array_equal(faces, [1, 2, 3, 4, 5, 6, 7, 7])
        np.testing.assert_array_equal(data.drift_bound_grid(0.0).values, field.values)

    @pytest.mark.parametrize(
        "dom",
        [
            G.BoxDomain(1, (1.0,), (16,)),
            G.BoxDomain(1, (2.0,), (15,)),
            G.BoxDomain(2, (1.0, 2.5), (15, 8)),
            G.BoxDomain(3, (0.5, 1.0, 2.0), (7, 6, 11)),
        ],
        ids=["1d-even", "1d-odd", "2d-mixed", "3d-mixed"],
    )
    def test_stored_analytic_field_brackets_the_analytic_faces(self, dom):
        analytic = M.make_model("singular-drift", dom, 0.5, c=0.3)
        nodes = analytic.drift_bound_grid(0.0)
        stored = M.make_model("singular-drift", dom, 0.5, c=0.3, drift_field=nodes)
        x0 = M.singular_point(dom)
        for a, (h, n) in enumerate(zip(dom.spacing, dom.cells)):
            coords = G.face_coordinates(dom, a)
            read = stored.drift.bound(coords, 0.0)
            exact = np.broadcast_to(analytic.drift.bound(coords, 0.0), read.shape)
            # face k sits between nodes k and k + 1 (stored at k - 1 and k);
            # the boundary nodes are not stored and do not count
            pad = [(0, 0)] * dom.dim
            pad[a] = (1, 1)
            hi = np.pad(nodes.values, pad, constant_values=-np.inf)
            lo = np.pad(nodes.values, pad, constant_values=np.inf)
            left = [slice(None)] * dom.dim
            right = [slice(None)] * dom.dim
            left[a], right[a] = slice(None, -1), slice(1, None)
            upper = np.maximum(hi[tuple(left)], hi[tuple(right)])
            lower = np.minimum(lo[tuple(left)], lo[tuple(right)])
            np.testing.assert_array_equal(read, upper)
            # c/|x - x0| is monotone along every segment between two nodes
            # except the one whose span along `a` contains x0_a
            k = np.arange(n).reshape([-1 if i == a else 1 for i in range(dom.dim)])
            monotone = np.broadcast_to((k * h > x0[a]) | ((k + 1) * h < x0[a]), read.shape)
            interior = np.broadcast_to((k > 0) & (k < n - 1), read.shape)
            assert np.all(exact[monotone] <= read[monotone] * (1 + 1e-13))
            both = monotone & interior
            assert np.all(lower[both] <= exact[both] * (1 + 1e-13))


class TestVariableDiffusion:
    def test_coefficient_respects_bounds(self):
        data = M.make_model("variable-diffusion", DOM2, 0.5, alpha=0.5, beta=1.5)
        rng = np.random.default_rng(0)
        coords = tuple(rng.uniform(0, 1, 500) for _ in range(2))
        eta = (np.ones(500), np.zeros(500))
        for t in (0.0, 0.77, 2.0):
            A = data.diffusion.evaluate(coords, t, eta)
            assert np.all(A[0] >= 0.5 - 1e-12)
            assert np.all(A[0] <= 1.5 + 1e-12)


class TestLipschitzNonlinear:
    @pytest.mark.parametrize("beta", [1.0, 1.8, 100.0])
    def test_flux_rounds_as_the_closed_form(self, beta):
        # evaluated in two temporaries, with the operations of the expression
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        evaluate = M.make_model("lipschitz-nonlinear", dom, 1.0, beta=beta).diffusion.evaluate
        rng = np.random.default_rng(int(beta))
        eta = [rng.standard_normal((9, 7)) * 10.0 ** rng.integers(-200, 200, (9, 7)) for _ in "ab"]
        eta[0][0, :4] = (0.0, -0.0, np.inf, -np.inf)
        kappa = beta - 1.0
        with np.errstate(all="ignore"):
            got = evaluate(None, 0.0, tuple(eta))
            for A, e in zip(got, eta):
                ref = e + kappa * e / np.sqrt(1.0 + e * e)
                assert np.array_equal(A, ref, equal_nan=True)
                assert np.array_equal(np.signbit(A), np.signbit(ref))
        assert not any(np.shares_memory(A, e) for A, e in zip(got, eta))


class TestAutoLevel:
    @given(
        values=st.lists(
            st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=300,
        ),
        repeats=st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_upper_decile_is_numpys_quantile_bit_for_bit(self, values, repeats):
        x = np.array(values * repeats)
        kept = x.copy()
        got = M._upper_decile(x)
        assert got.hex() == float(np.quantile(x, 0.9)).hex()
        assert np.array_equal(x, kept)

    def test_building_a_plan_leaves_numpy_ma_unimported(self):
        # numpy imports numpy.ma on a process's first np.quantile, ~10 ms
        code = (
            "import sys\n"
            "from driftflow import cli, grid as G, models as M\n"
            "dom = G.BoxDomain(2, (1.0, 1.0), (16, 16))\n"
            "M.make_truncation_plan(M.make_model('singular-drift', dom, 0.5))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(M.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
