import math
from dataclasses import replace

import numpy as np
import pytest

from driftflow import grid as G
from driftflow import lorentz as L
from driftflow import models as M
from driftflow.operators import TruncatedOperator

DOM2 = G.BoxDomain(2, (1.0, 1.0), (16, 16))
DOM3 = G.BoxDomain(3, (1.0, 1.0, 1.0), (12, 12, 12))


class TestHypotheses:
    @pytest.mark.parametrize("name", sorted(M.builtin_models()))
    def test_builtin_models_satisfy_flux_assumptions(self, name):
        data = M.make_model(name, DOM2, 0.5)
        report = M.verify_hypotheses(data, samples=1000, seed=3)
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
        theta = M.truncation_weight(b, 1.0)
        assert np.all(theta.values == 1.0)

    def test_point_value(self):
        dom = G.BoxDomain(1, (1.0,), (3,))
        b = G.GridFunction(dom, np.array([10.0, 2.0]))
        theta = M.truncation_weight(b, 4.0)
        assert theta.values == pytest.approx([0.4, 1.0])

    def test_weight_times_b_is_clamp(self):
        rng = np.random.default_rng(2)
        b = G.GridFunction(DOM2, np.abs(rng.lognormal(0, 1, DOM2.interior_shape)))
        for level in (0.2, 1.0, 5.0):
            theta = M.truncation_weight(b, level)
            clamp = L.truncate(b, level)
            assert np.allclose(theta.values * b.values, clamp.values, atol=1e-15)
            rest = (1.0 - theta.values) * b.values
            assert np.allclose(rest, b.values - clamp.values, atol=1e-15)

    def test_rejects_bad_input(self):
        b = G.sample(DOM2, lambda c: c[0])
        with pytest.raises(ValueError):
            M.truncation_weight(b, 0.0)
        with pytest.raises(ValueError):
            M.truncation_weight(G.GridFunction(DOM2, -np.ones(DOM2.interior_shape)), 1.0)


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
        cert = M.certify_truncation(data, 2.0, refinement_cells=(16, 24, 32))
        assert not cert.passes_evolution
        assert cert.obstruction
        # a nearly saturated level passes on the fixed grid, yet the ladder
        # still exposes the continuum obstruction
        high = M.certify_truncation(data, 5.0, refinement_cells=(16, 24, 32))
        assert high.passes_evolution and high.obstruction

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
        bmax = data.drift_bound_grid(0.0).max_abs()
        assert len(plan.levels) >= 2
        assert plan.levels[-1] >= bmax
        assert all(b > a for a, b in zip(plan.levels, plan.levels[1:]))

    def test_plan_validation(self):
        data = M.make_model("singular-drift", DOM2, 0.5, c=0.1)
        with pytest.raises(ValueError):
            M.TruncationPlan((2.0, 1.0), tuple(M.certify_truncation(data, m) for m in (2.0, 1.0)))


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
