import contextlib
import copy
import math
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow import grid as G
from driftflow import models as M
from driftflow import operators as O
from driftflow.operators import (
    ResolventConfig,
    SolverDiagnostics,
    TruncatedOperator,
    _AndersonHistory,
    _full_gradient_at_faces,
    _to_faces,
    stationary_solve,
)

from _oracles import laplacian, laplacian_matrix, t_dependent_drift

DOM = G.BoxDomain(2, (1.0, 1.0), (16, 16))
DOM3 = G.BoxDomain(3, (1.0, 1.0, 1.0), (10, 10, 10))


def rand_gf(dom, rng, scale=1.0):
    return G.GridFunction(dom, scale * rng.standard_normal(dom.interior_shape))


def heat_op(t=0.0):
    return TruncatedOperator(M.make_model("heat", DOM, 0.5), t, drift_mode="none")


def modes_for(data, modes=("none", "full", "remainder")):
    """The drift modes among `modes` that data takes: "none" only without a drift."""
    return tuple(m for m in modes if not (m == "none" and data.has_drift))


class TestApply:
    def test_heat_is_dirichlet_laplacian(self):
        rng = np.random.default_rng(0)
        u = rand_gf(DOM, rng)
        assert np.allclose(
            heat_op().apply(u).values, laplacian(u).values, atol=1e-14
        )

    def test_zero_state_maps_to_zero(self):
        for name, params in (
            ("heat", {}),
            ("lipschitz-nonlinear", {}),
            ("singular-drift", {"c": 0.1}),
        ):
            data = M.make_model(name, DOM, 0.5, **params)
            op = TruncatedOperator(
                data, 0.2, level=1.0, drift_mode="remainder" if data.has_drift else "none"
            )
            out = op.apply(G.zeros(DOM))
            assert np.max(np.abs(out.values)) == 0.0

    def test_pairing_consistency(self):
        rng = np.random.default_rng(1)
        data = M.make_model("singular-drift", DOM, 0.5, c=0.1)
        op = TruncatedOperator(data, 0.1, level=0.5, drift_mode="remainder")
        for _ in range(50):
            u, v = rand_gf(DOM, rng), rand_gf(DOM, rng)
            lhs = G.inner(op.apply(u), v)
            rhs = op.pairing(u, v)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    @pytest.mark.parametrize(
        "name", ["heat", "lipschitz-nonlinear", "manufactured", "variable-diffusion"]
    )
    def test_drift_modes_agree_without_drift(self, name):
        # with no drift there is no drift term for a mode to keep or drop;
        # the resolvent benchmark's sweep builds its operators with "none"
        data = M.make_model(name, DOM, 0.5)
        rng = np.random.default_rng(2)
        u, g = rand_gf(DOM, rng), rand_gf(DOM, rng)
        cfg = ResolventConfig(lam=0.1, tol=1e-12)
        outs = []
        for mode in ("none", "full", "remainder"):
            op = TruncatedOperator(data, 0.2, drift_mode=mode)
            v, diag = op.resolve_detailed(g, cfg)
            outs.append((op.apply(u).values, v.values, diag.as_dict(), op.contraction_constants(0.1)))
        for apply, v, diag, constants in outs[1:]:
            assert np.array_equal(apply, outs[0][0])
            assert np.array_equal(v, outs[0][1])
            assert diag == outs[0][2]
            assert constants == outs[0][3]

    def test_remainder_mode_needs_level(self):
        data = M.make_model("singular-drift", DOM, 0.5, c=0.1)
        with pytest.raises(ValueError):
            TruncatedOperator(data, 0.0, drift_mode="remainder")


class TestAccretivityMargin:
    def test_identity_flux_margin_is_half_dirichlet_form(self):
        rng = np.random.default_rng(2)
        op = heat_op()
        u, v = rand_gf(DOM, rng), rand_gf(DOM, rng)
        w = u - v
        gw = G.gradient(w)
        expect = 0.5 * G.inner_vec(gw, gw)
        assert op.accretivity_margin(u, v) == pytest.approx(expect, rel=1e-12)

    def test_equal_arguments_vanish(self):
        rng = np.random.default_rng(3)
        u = rand_gf(DOM, rng)
        assert heat_op().accretivity_margin(u, u) == 0.0

    def test_certified_drift_margin_nonnegative(self):
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        cert = M.certify_truncation(data, 0.5)
        assert cert.passes_evolution
        op = TruncatedOperator(data, 0.1, level=0.5, drift_mode="remainder")
        rng = np.random.default_rng(4)
        worst = min(
            op.accretivity_margin(rand_gf(DOM3, rng), rand_gf(DOM3, rng))
            for _ in range(100)
        )
        assert worst >= -1e-10


class TestResolve:
    def test_zero_data_fixed_point(self):
        cfg = ResolventConfig(lam=0.5, tol=1e-12)
        sol = heat_op().resolve(G.zeros(DOM), cfg)
        assert np.max(np.abs(sol.values)) == 0.0

    def test_heat_matches_direct_linear_solve(self):
        rng = np.random.default_rng(5)
        g = rand_gf(DOM, rng)
        lam = 0.2
        sol = heat_op().resolve(g, ResolventConfig(lam=lam, tol=1e-13))
        A = laplacian_matrix(DOM)
        direct = scipy.sparse.linalg.spsolve(
            scipy.sparse.eye(A.shape[0], format="csr") + lam * A, g.values.ravel()
        )
        assert np.max(np.abs(sol.values.ravel() - direct)) <= 1e-10

    def test_nonexpansive_on_random_pairs(self):
        data = M.make_model("lipschitz-nonlinear", DOM, 0.5)
        op = TruncatedOperator(data, 0.0, drift_mode="none")
        rng = np.random.default_rng(6)
        cfg = ResolventConfig(lam=0.1, tol=1e-12)
        for _ in range(20):
            g1, g2 = rand_gf(DOM, rng), rand_gf(DOM, rng)
            u1, u2 = op.resolve(g1, cfg), op.resolve(g2, cfg)
            assert G.norm_l2(u1 - u2) <= G.norm_l2(g1 - g2) + 2e-10

    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 1.0])
    def test_resolvent_totality(self, lam):
        # discrete stand-in for the range condition: solves exist for every
        # right-hand side in a random battery at each lambda
        rng = np.random.default_rng(7)
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        op = TruncatedOperator(data, 0.3, level=0.5, drift_mode="remainder")
        cfg = ResolventConfig(lam=lam, tol=1e-11)
        for _ in range(5):
            g = rand_gf(DOM3, rng, scale=2.0)
            u, diag = op.resolve_detailed(g, cfg)
            assert diag.converged
            resid = G.norm_l2(
                G.GridFunction(DOM3, u.values + lam * op.apply(u).values - g.values)
            )
            assert resid <= cfg.tol * (1 + G.norm_l2(g))

    def test_step_functional_coercivity(self):
        # |u|^2 + lam <A u, u> >= min(1, lam alpha) (|u|^2 + |grad u|^2)
        rng = np.random.default_rng(8)
        for name in ("heat", "variable-diffusion", "lipschitz-nonlinear"):
            data = M.make_model(name, DOM, 0.5)
            op = TruncatedOperator(data, 0.1, drift_mode="none")
            alpha = data.diffusion.alpha
            for lam in (0.05, 1.0):
                for _ in range(20):
                    u = rand_gf(DOM, rng)
                    gu = G.gradient(u)
                    lhs = G.inner(u, u) + lam * op.pairing(u, u)
                    rhs = min(1.0, lam * alpha) * (G.inner(u, u) + G.inner_vec(gu, gu))
                    assert lhs >= rhs - 1e-10

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            ResolventConfig(lam=0.0)
        with pytest.raises(ValueError):
            ResolventConfig(lam=-1.0)

    @pytest.mark.parametrize("field", ["lam", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_setting_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            ResolventConfig(**{field: value})

    def test_fractional_max_iter_names_its_field(self):
        # used to fail inside the solve with a TypeError from range()
        with pytest.raises(ValueError, match="^max_iter must be an integer"):
            ResolventConfig(max_iter=2.5)

    @pytest.mark.parametrize("level", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["full", "remainder"])
    def test_bad_level_is_rejected_with_a_drift(self, level, mode):
        # level -1 gave drift_face_max() == -1, and NaN skipped the clamp
        data = M.make_model("singular-drift", DOM, 0.5, c=0.1)
        with pytest.raises(ValueError, match="^truncation level must be finite"):
            TruncatedOperator(data, 0.1, level=level, drift_mode=mode)

    def test_nonconvergence_reports_history(self):
        data = M.make_model("variable-diffusion", DOM, 0.5)
        op = TruncatedOperator(data, 0.0, drift_mode="none")
        rng = np.random.default_rng(9)
        g = rand_gf(DOM, rng)
        with pytest.raises(G.ConvergenceError) as info:
            op.resolve(g, ResolventConfig(lam=1.0, tol=1e-13, max_iter=2))
        assert info.value.last is not None
        assert len(info.value.residuals) >= 1

    def test_diagnostics_serialize(self):
        rng = np.random.default_rng(11)
        g = rand_gf(DOM, rng)
        _, diag = heat_op().resolve_detailed(g, ResolventConfig(lam=0.1, tol=1e-12))
        d = diag.as_dict()
        assert d["converged"] is True
        assert isinstance(d["residuals"], list)


class TestStationary:
    def test_zero_rhs_gives_zero(self):
        data = M.make_model("heat", DOM, 0.5)
        op = TruncatedOperator(data, 0.0, drift_mode="none")
        u, diag = stationary_solve(op, G.zeros(DOM), tol=1e-12)
        assert np.max(np.abs(u.values)) == 0.0
        assert diag.converged

    def test_laplace_problem(self):
        # -Lap u = f with f = Lam E: solution is the sampled eigenfunction
        # up to the discrete eigenvalue correction
        data = M.make_model("heat", DOM, 0.5)
        op = TruncatedOperator(data, 0.0, drift_mode="none")
        lam_h = G.smallest_eigenvalue_exact(DOM)
        E = G.sample(DOM, lambda c: np.sin(np.pi * c[0]) * np.sin(np.pi * c[1]))
        rhs = G.GridFunction(DOM, lam_h * E.values)
        u, _ = stationary_solve(op, rhs, tol=1e-13)
        assert np.max(np.abs(u.values - E.values)) < 1e-10


@st.composite
def resolve_cases(draw):
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    top = (24, 12, 7)[dim - 1]
    cells = tuple(draw(st.integers(2, top)) for _ in range(dim))
    dom = G.BoxDomain(dim, lengths, cells)
    name = draw(st.sampled_from(sorted(M.builtin_models())))
    level, mode = None, "none"
    if name == "singular-drift":
        data = M.make_model(name, dom, 1.0, c=draw(st.floats(0.01, 0.3)))
        # a level below the largest sample certifies only in 3D; the largest
        # sample itself always does, since the remainder then vanishes
        level = draw(st.floats(0.25, 1.0)) * M.drift_bound_max(data)
        if not M.certify_truncation(data, level).passes_evolution:
            level = M.drift_bound_max(data)
        mode = "remainder"
    else:
        data = M.make_model(name, dom, 1.0)
    lam = draw(st.floats(1e-3, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.floats(0.1, 10.0))
    return data, level, mode, lam, rand_gf(dom, rng, scale), rand_gf(dom, rng, scale)


class TestMonotoneKernel:
    @given(case=resolve_cases())
    @settings(max_examples=80, deadline=None)
    def test_resolve_properties(self, case):
        data, level, mode, lam, g1, g2 = case
        if level is not None:
            assert M.certify_truncation(data, level).passes_evolution
        op = TruncatedOperator(data, 0.3, level=level, drift_mode=mode)
        cfg = ResolventConfig(lam=lam, tol=1e-12)
        sols = []
        for g in (g1, g2):
            u, diag = op.resolve_detailed(g, cfg)
            assert diag.converged
            r = G.GridFunction(g.domain, u.values + lam * op.apply(u).values - g.values)
            assert G.norm_l2(r) <= cfg.tol * (1 + G.norm_l2(g))
            # mixed or damped, every accepted step lowers the residual
            assert all(b < a for a, b in zip(diag.residuals, diag.residuals[1:]))
            sols.append(u)
        assert G.norm_l2(sols[0] - sols[1]) <= G.norm_l2(g1 - g2) + 2e-10

    @pytest.mark.parametrize("lam", [1e-3, 0.1, 1.0])
    def test_fast_contractions_never_mix(self, lam):
        rng = np.random.default_rng(16)
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        ops = (
            heat_op(),
            TruncatedOperator(data, 0.3, level=0.5, drift_mode="remainder"),
        )
        for op in ops:
            g = rand_gf(op.domain, rng)
            _, diag = op.resolve_detailed(g, ResolventConfig(lam=lam, tol=1e-12))
            assert diag.converged
            assert diag.mixed_steps == 0 and diag.rejected_mixes == 0

    def test_slow_contraction_mixes(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (64, 64))
        op = TruncatedOperator(
            M.make_model("variable-diffusion", dom, 0.5), 0.25, drift_mode="none"
        )
        g = rand_gf(dom, np.random.default_rng(17))
        _, diag = op.resolve_detailed(g, ResolventConfig(lam=0.1, tol=1e-12))
        # plain damped Picard needs 45 iterations here
        assert diag.converged
        assert diag.mixed_steps > 0
        assert diag.iterations <= 25
        assert diag.as_dict()["mixed_steps"] == diag.mixed_steps

    def test_rejected_mix_falls_back_to_damped_step(self):
        # rough data on a stiffer nonlinearity: measured 27 iterations, 1 rejected mix
        dom = G.BoxDomain(2, (1.0, 1.0), (32, 32))
        op = TruncatedOperator(
            M.make_model("lipschitz-nonlinear", dom, 0.5, beta=5.0), 0.25, drift_mode="none"
        )
        rng = np.random.default_rng(0)
        g = rand_gf(dom, rng, scale=30.0)
        u, diag = op.resolve_detailed(g, ResolventConfig(lam=0.01, tol=1e-12))
        assert diag.converged and diag.rejected_mixes >= 1
        # the rejected iterates never enter the residual history
        assert len(diag.residuals) == diag.iterations + 1
        assert all(b < a for a, b in zip(diag.residuals, diag.residuals[1:]))

    def test_residual_history_ends_at_the_final_residual(self):
        # converging on the last allowed iteration records that residual too
        op = TruncatedOperator(
            M.make_model("lipschitz-nonlinear", DOM, 0.5), 0.25, drift_mode="none"
        )
        g = rand_gf(DOM, np.random.default_rng(19))
        cfg = ResolventConfig(lam=1.0, tol=1e-12)
        _, free = op.resolve_detailed(g, cfg)
        _, diag = op.resolve_detailed(g, replace(cfg, max_iter=free.iterations))
        assert diag.converged and diag.iterations == free.iterations
        assert diag.residuals == free.residuals

    def test_stationary_solve_from_several_guesses(self):
        data = M.make_model("lipschitz-nonlinear", DOM, 0.5, beta=1.8)
        op = TruncatedOperator(data, 0.0, drift_mode="none")
        rng = np.random.default_rng(18)
        rhs = rand_gf(DOM, rng)
        sols = []
        for x0 in (None, rand_gf(DOM, rng), rand_gf(DOM, rng, scale=10.0)):
            u, diag = stationary_solve(op, rhs, tol=1e-12, x0=x0)
            assert isinstance(diag, SolverDiagnostics)
            assert diag.converged and diag.mixed_steps > 0
            assert all(b < a for a, b in zip(diag.residuals, diag.residuals[1:]))
            sols.append(u)
        for u in sols[1:]:
            assert G.norm_l2(u - sols[0]) <= 1e-9


class TestNonFinite:
    def _nan_rhs(self):
        rng = np.random.default_rng(12)
        g = rand_gf(DOM, rng)
        g.values[3, 4] = np.nan
        return g

    @pytest.mark.parametrize("name", ["heat", "lipschitz-nonlinear"])
    def test_resolve_names_nonfinite_residual(self, name):
        op = TruncatedOperator(M.make_model(name, DOM, 0.5), 0.0, drift_mode="none")
        with pytest.raises(G.ConvergenceError, match="non-finite") as info:
            op.resolve(self._nan_rhs(), ResolventConfig(lam=0.1, tol=1e-12))
        # raised at the first non-finite residual, before any backtracking
        assert len(info.value.residuals) == 1

    def test_stationary_names_nonfinite_residual(self):
        op = heat_op()
        with pytest.raises(G.ConvergenceError, match="non-finite") as info:
            stationary_solve(op, self._nan_rhs(), tol=1e-12)
        assert len(info.value.residuals) == 1

    def test_resolve_names_nonfinite_trial_residual(self):
        # a flux that turns non-finite after the initial residual is taken
        calls = []

        def evaluate(coords, t, eta):
            calls.append(1)
            bad = len(calls) > DOM.dim
            return tuple(np.full_like(e, np.nan) if bad else e.copy() for e in eta)

        heat = M.make_model("heat", DOM, 0.5)
        data = M.ProblemData(
            name="nan-after-first-apply",
            domain=DOM,
            diffusion=M.DiffusionFlux(evaluate=evaluate, alpha=1.0, beta=1.0),
            drift=None,
            source=None,
            initial=heat.initial,
            horizon=0.5,
        )
        op = TruncatedOperator(data, 0.0, drift_mode="none")
        g = rand_gf(DOM, np.random.default_rng(13))
        with pytest.raises(G.ConvergenceError, match="non-finite") as info:
            op.resolve(g, ResolventConfig(lam=0.1, tol=1e-12))
        assert len(info.value.residuals) == 1
        assert np.all(np.isfinite(info.value.last.values))


def _infinite_after_the_start(u):
    """Finite at the zero start, infinite at every trial."""
    return np.ones(4) if not np.any(u) else np.full(4, np.inf)


class TestKernelExits:
    """Each failure of `_monotone_iteration` raises where it is detected, one
    ConvergenceError with its message, the last accepted iterate as `last`
    and the residual history up to that iterate."""

    @pytest.mark.parametrize(
        "residual, settings, message, last, residuals",
        [
            # a residual no step lowers: rho halves once to its floor, then stops
            (
                lambda u: np.ones(4), dict(rho_floor=0.5),
                "kernel stalled at residual 2.000e+00 (tol 1.000e-12) after 1 iterations",
                0.0, [2.0],
            ),
            # u - 1 contracts by 0.05 per step, fast enough never to mix
            (
                lambda u: u - 1.0, dict(max_iter=2, precondition=lambda r: 0.95 * r),
                "kernel did not reach tol in 2 iterations (residual 5.000e-03)",
                0.9975, [2.0, 0.1, 0.005],
            ),
            (
                lambda u: np.full(4, np.nan), {},
                "kernel residual is non-finite (nan) after 0 iterations",
                0.0, [np.nan],
            ),
            # no backtracking to a false stall
            (
                _infinite_after_the_start, {},
                "kernel residual is non-finite (inf) after 1 iterations",
                0.0, [2.0],
            ),
        ],
        ids=["stall", "iteration-limit", "non-finite-start", "non-finite-trial"],
    )
    def test_failure_carries_message_last_iterate_and_history(
        self, residual, settings, message, last, residuals
    ):
        kw = dict(precondition=lambda r: r, max_iter=10, rho_floor=1e-4) | settings
        with pytest.raises(G.ConvergenceError) as info:
            O._monotone_iteration(
                residual,
                kw.pop("precondition"),
                lambda r: float(np.linalg.norm(r)),
                np.zeros(4),
                domain=G.BoxDomain(1, (1.0,), (5,)),
                tol=1e-12,
                solver="kernel",
                **kw,
            )
        err = info.value
        assert str(err) == message
        assert np.allclose(err.last.values, last, rtol=1e-15, atol=0)
        # u - 1 near 1 cancels: the history is exact to about eps / 0.0025
        assert np.allclose(err.residuals, residuals, rtol=1e-12, atol=0, equal_nan=True)


# -- flux assembly against the reference assembly ---------------------------


def reference_to_faces(values, axis):
    """Zero-ghost padding followed by adjacent averaging."""
    pad = [(1, 1) if a == axis else (0, 0) for a in range(values.ndim)]
    padded = np.pad(values, pad)
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (padded[tuple(lo)] + padded[tuple(hi)])


def reference_flux_parts(data, t, level, mode, u, axis):
    """Diffusion and weighted drift on one face axis, assembled the long way.

    Every gradient component is reconstructed on the faces, the diffusion
    flux sees all of them, and the drift goes through `drift.evaluate`
    with the clamp weight written out.  Returns (diffusion, drift, theta B),
    the last two None without drift.
    """
    dom = data.domain
    shape = dom.face_shape(axis)
    coords = G.face_coordinates(dom, axis)
    eta = _full_gradient_at_faces(G.gradient(u).components, axis)
    A = data.diffusion.evaluate(coords, t, eta)[axis]
    diffusion = np.array(np.broadcast_to(A, shape), dtype=float)
    if not data.has_drift or mode == "none":
        return diffusion, None, None
    z = reference_to_faces(u.values, axis)
    B = np.broadcast_to(data.drift.evaluate(coords, t, z)[axis], shape)
    if mode == "full":
        return diffusion, B, None
    b = np.broadcast_to(data.drift.bound(coords, t), shape)
    rest = np.zeros(shape)
    theta = np.ones(shape)
    mask = b > level
    rest[mask] = 1.0 - level / b[mask]
    theta[mask] = level / b[mask]
    return diffusion, rest * B, theta * B


def assert_relative(ours, ref, rtol=1e-15):
    """Entrywise |ours - ref| <= rtol |ref|; equal infinities and NaNs agree."""
    same = (ours == ref) | (np.isnan(ours) & np.isnan(ref))
    with np.errstate(invalid="ignore"):
        close = np.abs(ours - ref) <= rtol * np.abs(ref)
    assert np.all(same | close)


@st.composite
def flux_cases(draw):
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    top = (24, 16, 10)[dim - 1]
    cells = tuple(draw(st.integers(2, top)) for _ in range(dim))
    dom = G.BoxDomain(dim, lengths, cells)
    name = draw(st.sampled_from(sorted(M.builtin_models())))
    params = {}
    if name == "singular-drift":
        params = {
            "c": draw(st.floats(0.01, 2.0)),
            "direction": tuple(draw(st.floats(0.1, 1.0)) for _ in range(dim)),
        }
    data = M.make_model(name, dom, 1.0, **params)
    mode = draw(st.sampled_from(modes_for(data)))
    t = draw(st.floats(0.0, 1.0))
    level = draw(st.floats(0.05, 20.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = rand_gf(dom, rng, scale=draw(st.floats(0.1, 10.0)))
    return data, mode, t, level, u


class TestFluxAssembly:
    @given(case=flux_cases())
    @settings(max_examples=80, deadline=None)
    def test_flux_matches_reference_assembly(self, case):
        data, mode, t, level, u = case
        op = TruncatedOperator(data, t, level=level, drift_mode=mode)
        flux = op.flux(u)
        for axis in range(data.domain.dim):
            assert np.array_equal(
                _to_faces(u.values, axis), reference_to_faces(u.values, axis)
            )
            diffusion, drift, explicit = reference_flux_parts(data, t, level, mode, u, axis)
            if drift is None:
                # diffusion alone: bit-identical to the full reconstruction
                assert np.array_equal(flux.components[axis], diffusion)
                continue
            # a drift linear in z multiplies z by the cached weight * V, so
            # only the rounding order differs from weight * (z b e)
            ours = op.drift_flux(u.values, axis)
            assert_relative(ours, drift)
            assert np.array_equal(flux.components[axis], diffusion + ours, equal_nan=True)
            if explicit is not None:
                assert_relative(op.drift_flux(u.values, axis, explicit=True), explicit)

    @given(case=flux_cases())
    @settings(max_examples=40, deadline=None)
    def test_general_paths_are_bit_identical(self, case):
        # a coupled diffusion flux and a drift that is not declared linear in
        # z take the reconstruction and `drift.evaluate` paths
        data, mode, t, level, u = case
        general = replace(
            data,
            diffusion=replace(data.diffusion, componentwise=False, coefficient=None),
            drift=None if data.drift is None else replace(data.drift, velocity=None),
        )
        flux = TruncatedOperator(general, t, level=level, drift_mode=mode).flux(u)
        for axis in range(data.domain.dim):
            diffusion, drift, _ = reference_flux_parts(data, t, level, mode, u, axis)
            expect = diffusion if drift is None else diffusion + drift
            assert np.array_equal(flux.components[axis], expect, equal_nan=True)

    def test_coupled_flux_reads_cross_components(self):
        dom = G.BoxDomain(2, (1.0, 2.0), (8, 10))

        def evaluate(coords, t, eta):
            return (eta[0] + 0.25 * eta[1], eta[1] + 0.25 * eta[0])

        heat = M.make_model("heat", dom, 0.5)
        data = replace(heat, diffusion=M.DiffusionFlux(evaluate, alpha=0.75, beta=1.25))
        u = rand_gf(dom, np.random.default_rng(14))
        flux = TruncatedOperator(data, 0.0, drift_mode="none").flux(u)
        g = G.gradient(u)
        for axis in range(2):
            eta = _full_gradient_at_faces(g.components, axis)
            assert np.array_equal(flux.components[axis], evaluate(None, 0.0, eta)[axis])

    def test_operators_never_share_cached_weights(self):
        # a drift whose velocity changes with t: each (t, level) slice must
        # keep its own cached face drift
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = replace(M.make_model("heat", dom, 1.0), drift=t_dependent_drift(2))
        u = rand_gf(dom, np.random.default_rng(15))
        slices = [(0.0, 1.5), (1.0, 1.5), (1.0, 4.0), (0.0, 4.0)]
        for mode in ("full", "remainder"):
            ops = [TruncatedOperator(data, t, level=lv, drift_mode=mode) for t, lv in slices]
            # fill every cache before any is checked, then read them in reverse
            for op in ops:
                op.flux(u)
            for (t, lv), op in reversed(list(zip(slices, ops))):
                for axis in range(2):
                    _, drift, _ = reference_flux_parts(data, t, lv, mode, u, axis)
                    assert_relative(op.drift_flux(u.values, axis), drift)
            weights = {id(op._face_drift(0, False)) for op in ops}
            assert len(weights) == len(ops)
            # moving a slice of this drift in time samples it afresh
            for t, lv in slices:
                op = TruncatedOperator(data, t, level=lv, drift_mode=mode)
                op.flux(u)
                moved = op.at(t + 0.5)
                assert moved._face_drift(0, False) is not op._face_drift(0, False)
                if op.level is not None:
                    assert moved._drift_weight(1, True) is not op._drift_weight(1, True)
                for axis in range(2):
                    _, drift, _ = reference_flux_parts(data, t + 0.5, lv, mode, u, axis)
                    assert_relative(moved.drift_flux(u.values, axis), drift)
        # the singular drift is autonomous: every slice shares one sample
        autonomous = M.make_model("singular-drift", dom, 1.0, c=0.3)
        for mode in ("full", "remainder"):
            op = TruncatedOperator(autonomous, 0.0, level=1.5, drift_mode=mode)
            op.flux(u)
            moved = op.at(0.5).at(0.75)
            assert moved._face_drift(0, False) is op._face_drift(0, False)
            if op.level is not None:
                assert moved._drift_weight(1, True) is op._drift_weight(1, True)
            assert moved._face_coords is op._face_coords
            assert op.at(0.0) is op


@st.composite
def time_slice_cases(
    draw,
    kinds=("heat", "singular-drift", "variable-diffusion", "t-dependent"),
    modes=("none", "full", "remainder"),
):
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    top = (24, 16, 10)[dim - 1]
    cells = tuple(draw(st.integers(2, top)) for _ in range(dim))
    dom = G.BoxDomain(dim, lengths, cells)
    kind = draw(st.sampled_from(kinds))
    if kind == "singular-drift":
        data = M.make_model(
            kind,
            dom,
            1.0,
            c=draw(st.floats(0.01, 2.0)),
            direction=tuple(draw(st.floats(0.1, 1.0)) for _ in range(dim)),
        )
    elif kind in ("heat", "variable-diffusion"):
        data = M.make_model(kind, dom, 1.0)
    else:
        data = replace(M.make_model("heat", dom, 1.0), drift=t_dependent_drift(dim))
    mode = draw(st.sampled_from(modes_for(data, modes)))
    t1, t2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    level = draw(st.floats(0.05, 20.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = rand_gf(dom, rng, scale=draw(st.floats(0.1, 10.0)))
    return data, mode, t1, t2, level, u


class TestTimeSlices:
    @given(case=time_slice_cases())
    @settings(max_examples=80, deadline=None)
    def test_moved_slice_equals_fresh_operator(self, case):
        data, mode, t1, t2, level, u = case

        def parts(op):
            out = list(op.flux(u).components) + [np.array(op.drift_face_max())]
            if data.has_drift and mode == "remainder":
                out += [op.drift_flux(u.values, a, explicit=True) for a in range(data.domain.dim)]
            return out

        op = TruncatedOperator(data, t1, level=level, drift_mode=mode)
        before = parts(op)  # fills every cache at t1 first
        moved = op.at(t2)
        assert moved.t == t2 and op.at(t1) is op
        fresh = TruncatedOperator(data, t2, level=level, drift_mode=mode)
        for ours, ref in zip(parts(moved), parts(fresh)):
            assert np.array_equal(ours, ref)
        # and the slice it came from still answers for t1
        for ours, ref in zip(parts(op), before):
            assert np.array_equal(ours, ref)


def stencil_face_weights(op):
    """sum over the faces of every node of (|a/h + w V/2| + |a/h - w V/2|) / h.

    The face weights' magnitudes before the diagonal sums them: a node's
    diagonal may cancel to 0 (one interior node and a drift), while both
    forms of -div(flux(u)) still carry the roundoff of every face term.
    """
    dom = op.domain
    out = np.zeros(dom.interior_shape)
    for axis, (a, h) in enumerate(zip(op._face_coefficients(), dom.spacing)):
        up = down = np.broadcast_to(a, dom.face_shape(axis)) / h
        if op.data.has_drift:
            half = 0.5 * op._face_drift(axis, False)
            up, down = up + half, up - half
        w = np.abs(up) + np.abs(down)
        head = (slice(None),) * axis
        out += (w[head + (slice(None, -1),)] + w[head + (slice(1, None),)]) / h
    return out


class TestStencil:
    @given(case=time_slice_cases())
    @settings(max_examples=80, deadline=None)
    def test_stencil_matches_divergence_of_flux(self, case):
        data, mode, t1, t2, level, u = case
        umax = np.max(np.abs(u.values))

        def assert_matches(op):
            ours = op.apply(u).values
            ref = -G.divergence(op.flux(u)).values
            bound = 1e-13 * stencil_face_weights(op) * umax
            assert np.all(np.abs(ours - ref) <= bound)

        op = TruncatedOperator(data, t1, level=level, drift_mode=mode)
        assert op._linear
        assert_matches(op)
        stencil = op._stencil
        moved = op.at(t2)
        assert_matches(moved)
        time_free_drift = data.drift is None or data.drift.autonomous
        if data.name != "variable-diffusion" and time_free_drift:
            # identity diffusion, no drift or an autonomous one
            assert moved._stencil is stencil
        elif data.name == "variable-diffusion" and math.cos(t1) != math.cos(t2):
            assert moved._stencil is not stencil
        elif not time_free_drift and t1 != t2:
            assert moved._stencil is not stencil
        # without a coefficient, or with a drift not declared linear, the
        # slice applies as -div(flux) itself
        general = [replace(data, diffusion=replace(data.diffusion, coefficient=None))]
        if data.has_drift:
            general.append(replace(data, drift=replace(data.drift, velocity=None)))
        for other in general:
            op = TruncatedOperator(other, t1, level=level, drift_mode=mode)
            assert not op._linear
            assert np.array_equal(
                op.apply(u).values, -G.divergence(op.flux(u)).values, equal_nan=True
            )

    def test_coefficient_and_evaluate_are_exclusive(self):
        def a(coords, t):
            return 2.0

        with pytest.raises(ValueError, match="not both"):
            M.DiffusionFlux(lambda c, t, eta: eta, alpha=1.0, beta=2.0, coefficient=a)
        with pytest.raises(ValueError, match="evaluate or coefficient"):
            M.DiffusionFlux(alpha=1.0, beta=2.0)
        flux = M.DiffusionFlux(coefficient=a, alpha=1.0, beta=2.0)
        eta = (np.arange(3.0), np.ones(3))
        assert flux.componentwise
        for A, e in zip(flux.evaluate(None, 0.0, eta), eta):
            assert np.array_equal(A, 2.0 * e)
        # dataclasses.replace hands the derived flux back, which is accepted
        assert replace(flux, beta=3.0).evaluate == flux.evaluate


# the two drifts that declare `velocity`: autonomous and growing with t
drift_slice_cases = time_slice_cases(
    kinds=("singular-drift", "t-dependent"), modes=("full", "remainder")
)
# the same under a level, which the explicit drift theta_M B needs
explicit_slice_cases = time_slice_cases(
    kinds=("singular-drift", "t-dependent"), modes=("remainder",)
)


class TestDriftClosedForms:
    @given(case=explicit_slice_cases)
    @settings(max_examples=80, deadline=None)
    def test_explicit_stencil_matches_divergence_of_drift_flux(self, case):
        data, mode, t1, t2, level, u = case
        dom = data.domain
        umax = np.max(np.abs(u.values))

        def assert_matches(op):
            ours = op.explicit_drift(u.values)
            faces = tuple(op.drift_flux(u.values, a, explicit=True) for a in range(dom.dim))
            ref = -G.divergence(G.VectorField(dom, faces)).values
            # |theta V| / h summed over the faces of every node: with a = 0 the
            # stencil's diagonal is a difference of two of these and may cancel
            weights = np.zeros(dom.interior_shape)
            for a, h in enumerate(dom.spacing):
                w = np.abs(op._face_drift(a, True))
                head = (slice(None),) * a
                weights += (w[head + (slice(None, -1),)] + w[head + (slice(1, None),)]) / h
            assert np.all(np.abs(ours - ref) <= 1e-13 * weights * umax)

        op = TruncatedOperator(data, t1, level=level, drift_mode=mode)
        assert_matches(op)
        stencil, div = op._explicit_stencil, op.drift_divergence()
        moved = op.at(t2)
        assert_matches(moved)
        if data.drift.autonomous:
            assert moved._explicit_stencil is stencil
            assert moved.drift_divergence() is div
        elif t1 != t2:
            assert moved._explicit_stencil is not stencil
            assert moved.drift_divergence() is not div
        fresh = TruncatedOperator(data, t2, level=level, drift_mode=mode)
        assert np.array_equal(moved.drift_divergence(), fresh.drift_divergence())

    @given(case=drift_slice_cases)
    @settings(max_examples=80, deadline=None)
    def test_drift_pairing_closed_form(self, case):
        # (w V avg(u), grad u) = -1/2 inner(div(w V), u^2), before and after at(t)
        data, mode, t1, t2, level, u = case
        dom = data.domain
        first = TruncatedOperator(data, t1, level=level, drift_mode=mode)
        first.drift_divergence()  # cached at t1 before the slice moves
        for op in (first, first.at(t2)):
            faces = [op.drift_flux(u.values, a) for a in range(dom.dim)]
            assembled = G.inner_vec(G.VectorField(dom, tuple(faces)), G.gradient(u))
            closed = -0.5 * G.inner(
                G.GridFunction(dom, op.drift_divergence()), G.GridFunction(dom, u.values**2)
            )
            # every face term of both sides is at most |w V| (u_k^2 + u_{k+1}^2) / 2h
            scale = dom.node_weight * sum(
                np.vdot(np.abs(op._face_drift(a, False)), _to_faces(u.values**2, a)) / h
                for a, h in enumerate(dom.spacing)
            )
            assert abs(closed - assembled) <= 1e-13 * scale


class TestNoAliasing:
    """A returned array is the caller's: later calls, on the same slice or a
    moved one, never write into it through a cache or a scratch array."""

    @given(case=time_slice_cases())
    @settings(max_examples=60, deadline=None)
    def test_apply_and_explicit_drift_results_are_kept(self, case):
        data, mode, t1, t2, level, u = case
        v = rand_gf(data.domain, np.random.default_rng(7))
        u_vals = u.values.copy()
        op = TruncatedOperator(data, t1, level=level, drift_mode=mode)
        calls = [lambda op, w: op.apply(w).values]
        # the explicit drift theta_M B needs a level: remainder mode alone
        if data.has_drift and data.drift.velocity is not None and mode == "remainder":
            calls.append(lambda op, w: op.explicit_drift(w.values))
        for call in calls:
            first = call(op, u)
            kept = first.copy()
            for later in (op, op.at(t2)):
                call(later, v)
            assert np.array_equal(first, kept)
        assert np.array_equal(u.values, u_vals)

    @given(case=resolve_cases())
    @settings(max_examples=30, deadline=None)
    def test_resolve_results_are_kept(self, case):
        data, level, mode, lam, g1, g2 = case
        op = TruncatedOperator(data, 0.3, level=level, drift_mode=mode)
        cfg = ResolventConfig(lam=lam, tol=1e-12)
        g1_vals = g1.values.copy()
        first, _ = op.resolve_detailed(g1, cfg)
        kept = first.values.copy()
        # the first solution as the next starting guess must not be written to
        op.resolve_detailed(g2, cfg, x0=first)
        op.at(0.7).resolve_detailed(g2, cfg, x0=first)
        assert np.array_equal(first.values, kept)
        assert np.array_equal(g1.values, g1_vals)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_moved_slice_recomputes_the_resolve_constants(self, dim):
        # the damping floor reads the drift maximum, which grows with t here
        dom = G.BoxDomain(dim, (1.0,) * dim, (6,) * dim)
        data = replace(M.make_model("heat", dom, 1.0), drift=t_dependent_drift(dim))
        g = rand_gf(dom, np.random.default_rng(dim))
        cfg = ResolventConfig(lam=0.05, tol=1e-12)
        op = TruncatedOperator(data, 0.0, drift_mode="full")
        op.resolve_detailed(g, cfg)
        moved = op.at(1.0)
        u, diag = moved.resolve_detailed(g, cfg)
        fresh = TruncatedOperator(data, 1.0, drift_mode="full")
        ref, ref_diag = fresh.resolve_detailed(g, cfg)
        assert fresh._resolve_constants != op._resolve_constants
        assert moved._resolve_constants == fresh._resolve_constants
        assert np.array_equal(u.values, ref.values)
        assert diag.as_dict() == ref_diag.as_dict()

    def test_autonomous_slices_share_the_resolve_constants(self):
        data = M.make_model("singular-drift", DOM3, 0.5, c=0.1)
        op = TruncatedOperator(data, 0.0, drift_mode="full")
        op.resolve_detailed(data.initial, ResolventConfig(lam=0.05, tol=1e-12))
        assert op.at(0.5)._resolve_constants is op._resolve_constants


def same_bits(a, b):
    """Equal values, NaNs in the same places and zeros of the same sign."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def coupled_diffusion(dim):
    """A diffusion whose component a reads every gradient component."""

    def evaluate(coords, t, eta):
        total = sum(eta)
        return tuple(e + 0.25 * (total - e) for e in eta)

    return M.DiffusionFlux(evaluate, alpha=0.5, beta=1.5)


@st.composite
def raw_face_cases(draw):
    """lipschitz-nonlinear, alone or with a drift, or a coupled diffusion,
    on an anisotropic box of dimension 1-3.

    Returns the problem, drift mode, time, level and a state.
    """
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    top = (24, 16, 10)[dim - 1]
    dom = G.BoxDomain(dim, lengths, tuple(draw(st.integers(2, top)) for _ in range(dim)))
    data = M.make_model("lipschitz-nonlinear", dom, 1.0, beta=draw(st.floats(1.0, 100.0)))
    drift = draw(st.sampled_from(("none", "singular-drift", "t-dependent", "no-velocity")))
    if drift == "singular-drift":
        data = replace(data, drift=M.make_model(drift, dom, 1.0, c=draw(st.floats(0.01, 2.0))).drift)
    elif drift != "none":
        data = replace(data, drift=t_dependent_drift(dim))
        if drift == "no-velocity":
            data = replace(data, drift=replace(data.drift, velocity=None))
    coupled = draw(st.booleans())
    if coupled:
        data = replace(data, diffusion=coupled_diffusion(dim))
    mode = draw(st.sampled_from(modes_for(data)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = rand_gf(dom, rng, scale=10.0 ** draw(st.integers(-3, 3)))
    return data, mode, draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 20.0)), u


class TestRawFaceApply:
    """A nonlinear slice applies on the raw face arrays of its flux."""

    @given(case=raw_face_cases())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_divergence_of_flux(self, case):
        data, mode, t, level, u = case
        op = TruncatedOperator(data, t, level=level, drift_mode=mode)
        assert not op._linear
        ours = op._apply_values(u.values)
        assert same_bits(ours, -G.divergence(op.flux(u)).values)
        assert same_bits(op.apply(u).values, ours)


def stencil_magnitude(op, u):
    """sum over the 2d + 1 points of |w| |u| at every node, w the stencil weights."""
    magnitude = copy.copy(op._linear_stencil())
    magnitude.weights = np.abs(magnitude.weights)
    return magnitude.apply(np.abs(u))


def kernel_residuals(solve):
    """Run solve() and return the residual callables it handed the kernel."""
    with mock.patch.object(O, "_monotone_iteration", wraps=O._monotone_iteration) as kernel:
        with contextlib.suppress(G.ConvergenceError):
            solve()
    return [call.args[0] for call in kernel.call_args_list]


class TestInPlaceResiduals:
    """Every residual is a fresh array: on a nonlinear slice formed in the one
    `_apply_values` returns, on a linear slice gathered from its stencil."""

    @given(case=raw_face_cases())
    @settings(max_examples=40, deadline=None)
    def test_nonlinear_apply_returns_a_fresh_array(self, case):
        data, mode, t, level, u = case
        op = TruncatedOperator(data, t, level=level, drift_mode=mode)
        first = op._apply_values(u.values)
        kept = first.copy()
        second = op._apply_values(u.values)
        assert second is not first and not np.shares_memory(first, second)
        op._apply_values(2.0 * u.values)
        op.at(t + 0.5)._apply_values(u.values)
        assert same_bits(first, kept)

    @given(case=resolve_cases())
    @settings(max_examples=40, deadline=None)
    def test_residuals_equal_the_expressions_and_are_kept(self, case):
        data, level, mode, lam, g1, g2 = case
        op = TruncatedOperator(data, 0.3, level=level, drift_mode=mode)
        cfg = ResolventConfig(lam=lam, tol=1e-12)
        (resolvent,) = kernel_residuals(lambda: op.resolve_detailed(g1, cfg))
        # the stationary solve's residual, taken from one capped iteration
        (stationary,) = kernel_residuals(lambda: stationary_solve(op, g1, 1e-11, max_iter=1))
        u, g = g2.values, g1.values
        r = resolvent(u)
        s = stationary(u)
        if op._linear:
            # one weighted sum over the stencil's points, in another order
            size = stencil_magnitude(op, u)
            eps = np.finfo(float).eps
            assert np.all(np.abs(r - (u + lam * op._apply_values(u) - g))
                          <= 8 * eps * (np.abs(u) + lam * size + np.abs(g)))
            assert np.all(np.abs(s - (op._apply_values(u) - g)) <= 8 * eps * (size + np.abs(g)))
        else:
            assert same_bits(r, u + lam * op._apply_values(u) - g)
            assert same_bits(s, op._apply_values(u) - g)
        kept = r.copy(), s.copy()
        op.resolve_detailed(g2, cfg, x0=G.GridFunction(g2.domain, r))
        resolvent(2.0 * u), stationary(2.0 * u)
        assert same_bits(r, kept[0]) and same_bits(s, kept[1])
        assert np.array_equal(u, g2.values)

    @pytest.mark.parametrize("name", ["heat", "variable-diffusion", "singular-drift"])
    def test_alternating_lams_solve_as_on_fresh_operators(self, name):
        # a linear slice keeps the weights of one lam at a time
        dom = DOM3 if name == "singular-drift" else DOM
        data = M.make_model(name, dom, 0.5, **({"c": 0.1} if name == "singular-drift" else {}))
        level = M.drift_bound_max(data) if data.has_drift else None

        def make():
            return TruncatedOperator(data, 0.2, level=level, drift_mode="remainder")

        op = make()
        assert op._linear
        g = rand_gf(dom, np.random.default_rng(8))
        for lam in (0.1, 1e-3, None, 0.1):
            if lam is None:
                ours, fresh = (stationary_solve(o, g, 1e-11) for o in (op, make()))
            else:
                cfg = ResolventConfig(lam=lam, tol=1e-12)
                ours, fresh = (o.resolve_detailed(g, cfg) for o in (op, make()))
            assert same_bits(ours[0].values, fresh[0].values)
            assert ours[1].as_dict() == fresh[1].as_dict()


def history_of(us, zs):
    """An Anderson history fed the iterates us[1:] and updates zs[1:]."""
    hist = _AndersonHistory(us[0], zs[0])
    for u, z in zip(us[1:], zs[1:]):
        hist.push(u, z)
    return hist


class TestAndersonHistory:
    D = O._MIX_DEPTH

    @pytest.mark.parametrize("beta", [1.0, 0.5, 1e-4])
    @pytest.mark.parametrize("k", range(1, O._MIX_DEPTH + 1))
    def test_one_buffer_matches_the_three_term_formula(self, k, beta):
        rng = np.random.default_rng(100 * k + int(1e4 * beta))
        # a longer history than the depth wraps the ring buffer
        for pushes in (k, k + self.D + 2):
            us = [rng.standard_normal(40) for _ in range(pushes + 1)]
            zs = [rng.standard_normal(40) * 0.1**j for j in range(pushes + 1)]
            hist = history_of(us, zs)
            live = min(pushes, self.D)
            dU = np.diff(us, axis=0)[-live:]
            dZ = np.diff(zs, axis=0)[-live:]
            gamma = np.linalg.solve(dZ @ dZ.T, dZ @ zs[-1])
            u, z = us[-1], zs[-1]
            ref = u - gamma @ dU - beta * (z - gamma @ dZ)
            scale = np.max(np.abs(u)) + beta * np.max(np.abs(z)) + np.sum(np.abs(gamma)) * (
                np.max(np.abs(dU)) + beta * np.max(np.abs(dZ))
            )
            assert np.max(np.abs(hist.mix(beta) - ref)) <= 1e-13 * scale

    def test_singular_gram_returns_none(self):
        # a 1D grid of 3 cells has N = 2 < _MIX_DEPTH: the third update
        # difference repeats the first and the Gram matrix is exactly singular
        zs = [np.array(z, dtype=float) for z in ([0, 0], [1, 0], [0, 1], [1, 1])]
        us = [np.full(2, float(j)) for j in range(4)]
        hist = history_of(us, zs)
        assert hist.count == 3
        assert hist.mix(1.0) is None

    def test_non_finite_gamma_returns_none(self):
        # the Gram matrix overflows to +-inf, and the solve returns NaNs
        us = [np.full(3, float(j)) for j in range(3)]
        zs = [np.zeros(3), np.full(3, 1e200), np.array([1e200, -1e200, 0.0])]
        with np.errstate(all="ignore"):
            hist = history_of(us, zs)
            assert not np.all(np.isfinite(hist.gram[:2, :2]))
            assert hist.mix(0.5) is None

    @pytest.mark.parametrize("refill", [1, 3, O._MIX_DEPTH])
    def test_cleared_history_reads_no_stale_slot(self, refill):
        rng = np.random.default_rng(refill)
        us = [rng.standard_normal(30) for _ in range(12)]
        zs = [rng.standard_normal(30) for _ in range(12)]
        hist = history_of(us[:8], zs[:8])
        hist.count = 0  # the kernel's clear
        for u, z in zip(us[8 : 8 + refill], zs[8 : 8 + refill]):
            hist.push(u, z)
        # slots past the refill are never read: poison them
        hist.H[refill:] = np.nan
        fresh = history_of(us[7 : 8 + refill], zs[7 : 8 + refill])
        for beta in (1.0, 0.3):
            assert same_bits(hist.mix(beta), fresh.mix(beta))


class TestDriftModes:
    """An operator is its data, time and level: "none" names drift-free
    data only, and A + B ("full") clamps nothing, so it keeps no level."""

    @pytest.mark.parametrize("velocity", [True, False])
    def test_none_with_a_drift_raises_naming_the_mode(self, velocity):
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = M.make_model("singular-drift", dom, 1.0, c=0.1)
        if not velocity:
            data = replace(data, drift=replace(data.drift, velocity=None))
        for level in (None, 1.0):
            with pytest.raises(ValueError, match='drift_mode "none"'):
                TruncatedOperator(data, 0.0, level=level, drift_mode="none")

    def test_explicit_drift_needs_a_level(self):
        data = M.make_model("singular-drift", DOM, 1.0, c=0.1)
        w = rand_gf(DOM, np.random.default_rng(3)).values
        for level in (None, 1.0):
            op = TruncatedOperator(data, 0.0, level=level, drift_mode="full")
            with pytest.raises(ValueError, match="needs a truncation level"):
                op.explicit_drift(w)

    def test_full_with_a_level_is_full_without_one(self):
        # the decay benchmark builds A + B with its plan's last level
        dom = G.BoxDomain(3, (1.0, 1.0, 1.0), (8, 8, 8))
        data = M.make_model("singular-drift", dom, 0.5, c=0.3)
        level = M.make_truncation_plan(data).levels[-1]
        given_level = TruncatedOperator(data, 0.5, level=level, drift_mode="full")
        plain = TruncatedOperator(data, 0.5, drift_mode="full")
        assert given_level.level is None
        bmax = M.drift_bound_max(data, 0.5)
        assert given_level.drift_face_max() == plain.drift_face_max() == bmax
        g = rand_gf(dom, np.random.default_rng(23))
        cfg = ResolventConfig(lam=0.01, tol=1e-12)
        (u, diag), (ref, ref_diag) = (op.resolve_detailed(g, cfg) for op in (given_level, plain))
        assert same_bits(u.values, ref.values)
        assert diag.as_dict() == ref_diag.as_dict()

    def test_drift_free_operator_keeps_no_level(self):
        # without a drift no level enters the operator, in any mode
        data = M.make_model("heat", DOM, 1.0)
        for mode in ("remainder", "full", "none"):
            assert TruncatedOperator(data, 0.0, level=2.0, drift_mode=mode).level is None

    @pytest.mark.parametrize("velocity", [True, False], ids=["velocity", "evaluate"])
    @pytest.mark.parametrize("autonomous", [True, False], ids=["autonomous", "moving"])
    def test_clamp_weights_once_per_axis_and_slice(self, monkeypatch, velocity, autonomous):
        # repeated applies and explicit drifts reuse the slice's theta_M;
        # a slice moved in time keeps it for an autonomous drift only
        dom = G.BoxDomain(2, (1.0, 1.0), (8, 8))
        data = replace(M.make_model("heat", dom, 1.0), drift=t_dependent_drift(2))
        drift = replace(data.drift, autonomous=autonomous)
        if not velocity:
            drift = replace(drift, velocity=None)
        data = replace(data, drift=drift)
        calls = []
        clamp = O.clamp_weight
        monkeypatch.setattr(O, "clamp_weight", lambda b, M: calls.append(M) or clamp(b, M))
        u = rand_gf(dom, np.random.default_rng(5))
        op = TruncatedOperator(data, 0.0, level=1.5)
        for t in (0.0, 0.25):
            op = op.at(t)
            for _ in range(3):
                op.apply(u)
                op.explicit_drift(u.values)
        assert calls == [1.5] * (dom.dim if autonomous else 2 * dom.dim)


# (alpha, beta) pairs of a coefficient slice: moderate, wide, and small gamma
COEFFICIENT_RANGES = ((0.5, 1.5), (0.1, 10.0), (0.01, 1.0))


def rough_coefficient(alpha, beta):
    """A coefficient in [alpha, beta] that oscillates on the grid scale."""

    def coefficient(coords, t):
        phase = sum((17.0 + 6.0 * a) * x for a, x in enumerate(coords))
        return alpha + (beta - alpha) * (0.5 + 0.5 * np.sin(phase + t))

    return M.DiffusionFlux(coefficient=coefficient, alpha=alpha, beta=beta)


@st.composite
def coefficient_slices(draw):
    """A slice whose diffusion declares a coefficient -- smooth, rough or
    alpha throughout -- on an anisotropic box of dimension 1-3, with a
    state w: the lowest mode plus noise, spread evenly or gathered where
    the coefficient is small.

    Returns the operator and w.
    """
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    top = (24, 12, 7)[dim - 1]
    dom = G.BoxDomain(dim, lengths, tuple(draw(st.integers(2, top)) for _ in range(dim)))
    alpha, beta = draw(st.sampled_from(COEFFICIENT_RANGES))
    data = M.make_model("variable-diffusion", dom, 1.0, alpha=alpha, beta=beta)
    kind = draw(st.sampled_from(("smooth", "rough", "alpha")))
    if kind != "smooth":
        # a == alpha everywhere is where K overrates the diffusion most
        flux = rough_coefficient(alpha, beta if kind == "rough" else alpha)
        data = replace(data, diffusion=replace(flux, beta=beta))
    op = TruncatedOperator(data, draw(st.floats(0.0, 3.0)), drift_mode="none")
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lowest = G.sample(dom, lambda c: M._eigen_profile(c, lengths)).values
    noise = draw(st.sampled_from((0.0, 1e-3, 1.0))) * rng.standard_normal(dom.interior_shape)
    if draw(st.booleans()):
        a = data.diffusion.coefficient(G.node_coordinates(dom), op.t)
        noise = noise * ((beta - a) / (beta - alpha)) ** 4
    return op, G.GridFunction(dom, lowest + noise)


def within(lo, hi):
    """lo <= hi up to roundoff relative to the terms' sizes."""
    return lo <= hi + 1e-12 * (abs(lo) + abs(hi))


class TestConjugatedPreconditioner:
    """P = sigma K sigma on a coefficient slice: its equivalence to K, the
    damping floor's premise in the P geometry, and where sigma lives."""

    @given(case=coefficient_slices(), lam=st.sampled_from((1e-3, 0.1, 1.0)))
    @settings(max_examples=80, deadline=None)
    def test_floor_premise(self, case, lam):
        op, w = case
        dom, gamma = op.domain, op.precondition_scale()
        A_w = op.apply(w)

        def check(inverse, lower, upper):
            sigma_w = G.GridFunction(dom, w.values / inverse)
            forms = (
                # shift, Laplacian weight, B w, constants of the geometry
                (1.0, lam * gamma, w + A_w * lam, op.contraction_constants(lam)),
                (0.0, gamma, A_w, op.stationary_constants()),
            )
            for shift, scale, B_w, (m, M_) in forms:
                K_ww = shift * G.inner(w, w) + scale * G.gradient_sq(w)
                P_ww = shift * G.inner(sigma_w, sigma_w) + scale * G.gradient_sq(sigma_w)
                assert lower > 0
                assert within(lower * K_ww, P_ww)
                assert within(P_ww, upper * K_ww)
                assert within(m * P_ww, G.inner(B_w, w))
                z = G.GridFunction(dom, op._preconditioner(shift, scale)(B_w.values))
                assert within(G.inner(z, B_w), M_**2 * P_ww)

        check(*astuple(op._conjugation()))
        # the constants of the K geometry, which the P ones are carried from
        with mock.patch.object(TruncatedOperator, "_conjugation", lambda self: None):
            check(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("drift", [None, "t-dependent"])
    def test_moved_slices_share_sigma(self, drift):
        # the coefficient carries cos t, and the drift grows with t
        data = M.make_model("variable-diffusion", DOM, 1.0)
        if drift:
            data = replace(data, drift=t_dependent_drift(2))
        mode = "full" if drift else "none"
        op = TruncatedOperator(data, 0.1, drift_mode=mode)
        moved = op.at(0.9)
        # whichever slice asks first builds sigma for the lineage
        conj = moved._conjugation()
        assert conj is not None
        assert op._conjugation() is conj
        assert op.at(2.0).at(0.5)._conjugation() is conj
        # and it is sigma of the first slice that asked, not sampled again
        for t, same in ((0.9, True), (0.1, False)):
            fresh = TruncatedOperator(data, t, drift_mode=mode)
            assert np.array_equal(fresh._conjugation().inverse, conj.inverse) == same

    @pytest.mark.parametrize(
        "name, level, mode",
        [
            ("heat", None, "none"),
            ("manufactured", None, "none"),
            ("singular-drift", 1.0, "remainder"),
        ],
    )
    def test_identity_diffusion_resolves_as_with_K(self, name, level, mode):
        params = {"c": 0.1} if name == "singular-drift" else {}
        data = M.make_model(name, DOM, 0.5, **params)
        op = TruncatedOperator(data, 0.2, level=level, drift_mode=mode)
        assert op._conjugation() is None
        g = rand_gf(DOM, np.random.default_rng(4))
        lam, dom = 0.1, DOM
        cfg = ResolventConfig(lam=lam, tol=1e-12)
        u, diag = op.resolve_detailed(g, cfg)
        m, M_ = op.contraction_constants(lam)
        scale = lam * op.precondition_scale()
        ref, ref_diag = O._monotone_iteration(
            # the resolve's own residual and start, with K as the preconditioner
            op._residual(g.values, lam),
            lambda r: G.helmholtz_solve(dom, r, 1.0, scale),
            lambda r: math.sqrt(max(dom.node_weight * float(np.vdot(r, r)), 0.0)),
            np.zeros(dom.interior_shape),
            domain=dom,
            tol=cfg.tol * (1.0 + G.norm_l2(g)),
            max_iter=cfg.max_iter,
            rho_floor=max(1e-4, 0.9 * m / M_**2),
            solver="damped Picard",
        )
        assert same_bits(u.values, ref)
        assert diag.as_dict() == ref_diag.as_dict()

    def test_fewer_iterations_than_with_K(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (32, 32))
        data = M.make_model("variable-diffusion", dom, 0.5)
        g = rand_gf(dom, np.random.default_rng(5))

        def iterations():
            op = TruncatedOperator(data, 0.25, drift_mode="none")
            out = [
                op.resolve_detailed(g, ResolventConfig(lam=lam, tol=1e-12))[1]
                for lam in (1e-3, 1.0)
            ]
            out.append(stationary_solve(op, g, tol=1e-11)[1])
            assert all(d.converged for d in out)
            return [d.iterations for d in out]

        ours = iterations()
        with mock.patch.object(TruncatedOperator, "_conjugation", lambda self: None):
            with_K = iterations()
        assert all(a < b for a, b in zip(ours, with_K)), (ours, with_K)

    def test_coefficient_outside_its_range_gives_spd_P(self):
        dom = G.BoxDomain(2, (1.0, 2.0), (5, 6))

        def coefficient(coords, t):
            # -3 .. 7 against [alpha, beta] = [0.5, 1.5]
            return 2.0 + 5.0 * np.sin(7.0 * coords[0] + 3.0 * coords[1])

        data = replace(
            M.make_model("heat", dom, 1.0),
            diffusion=M.DiffusionFlux(coefficient=coefficient, alpha=0.5, beta=1.5),
        )
        op = TruncatedOperator(data, 0.0, drift_mode="none")
        conj = op._conjugation()
        assert np.all(np.isfinite(conj.inverse)) and np.all(conj.inverse > 0)
        assert 0 < conj.lower <= conj.upper < math.inf
        n = dom.interior_count
        for shift, scale in ((1.0, 0.1), (0.0, 1.0)):
            precondition = op._preconditioner(shift, scale)
            P_inv = np.stack(
                [precondition(e.reshape(dom.interior_shape)).ravel() for e in np.eye(n)], axis=1
            )
            assert np.allclose(P_inv, P_inv.T, rtol=0, atol=1e-13 * np.max(np.abs(P_inv)))
            assert np.min(np.linalg.eigvalsh(0.5 * (P_inv + P_inv.T))) > 0


def shifted_diffusion(dim):
    """The identity flux plus a fixed face field s(x): A(x, 0) = s, whose
    divergence does not vanish, so A_M(0) != 0; monotone as the identity."""

    def evaluate(coords, t, eta):
        return tuple(e + np.sin(3.0 * coords[0] + a) for a, e in enumerate(eta))

    return M.DiffusionFlux(evaluate, alpha=1.0, beta=1.0)


class TestZeroStart:
    """A resolve without x0, and the stationary solve, start from 0."""

    @given(case=time_slice_cases(), lam=st.floats(1e-4, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_linear_slice_residual_at_zero_is_minus_g(self, case, lam):
        data, mode, t, _, level, g = case
        op = TruncatedOperator(data, t, level=level, drift_mode=mode)
        assert op._linear
        g = g.values.copy()
        g.flat[::3] = 0.0  # some zeros, whose sign alone may differ
        zeros = np.zeros(g.shape)
        for lam_or_none in (lam, None):
            # equal values: the same bits up to the sign of zero
            assert np.array_equal(op._residual(g, lam_or_none)(zeros), -g)
        u, r = op._start(None, g)
        assert same_bits(u, zeros) and same_bits(r, -g)

    @given(case=time_slice_cases(kinds=("heat", "singular-drift", "t-dependent")))
    @settings(max_examples=20, deadline=None)
    def test_cold_resolve_starts_from_zero(self, case):
        data, mode, t, _, level, g = case
        op = TruncatedOperator(data, t, level=level, drift_mode=mode)
        cfg = ResolventConfig(lam=1e-2, tol=1e-12)
        with mock.patch.object(O, "_monotone_iteration", wraps=O._monotone_iteration) as kernel:
            with contextlib.suppress(G.ConvergenceError):
                op.resolve_detailed(g, cfg)
        (args, _), = kernel.call_args_list
        assert same_bits(args[3], np.zeros(g.values.shape))
        assert same_bits(args[4], -g.values)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_start_with_a_flux_not_vanishing_at_zero(self, dim):
        dom = G.BoxDomain(dim, (1.0, 0.6, 1.4)[:dim], (12, 7, 5)[:dim])
        data = replace(M.make_model("heat", dom, 0.5), diffusion=shifted_diffusion(dim))
        op = TruncatedOperator(data, 0.1, drift_mode="none")
        assert not op._linear
        assert np.max(np.abs(op.apply(G.zeros(dom)).values)) > 0.1
        g = rand_gf(dom, np.random.default_rng(21))
        for lam in (1e-3, 0.1, 1.0):
            cfg = ResolventConfig(lam=lam, tol=1e-12)
            u, diag = op.resolve_detailed(g, cfg)
            assert diag.converged
            r = u.values + lam * op.apply(u).values - g.values
            assert G.norm_l2(G.GridFunction(dom, r)) <= cfg.tol * (1 + G.norm_l2(g))
            # the start is 0, whose residual lam A(0) - g is evaluated
            start = G.GridFunction(dom, lam * op.apply(G.zeros(dom)).values - g.values)
            assert diag.residuals[0] == pytest.approx(G.norm_l2(start), rel=1e-14)
            from_g, _ = op.resolve_detailed(g, cfg, x0=g)
            assert G.norm_l2(u - from_g) <= 1e-10

    def test_stationary_zero_rhs_ends_without_an_apply(self):
        dom = G.BoxDomain(3, (1.0, 0.8, 1.2), (6, 5, 7))
        op = TruncatedOperator(M.make_model("singular-drift", dom, 0.5, c=0.1), 0.5, drift_mode="full")
        u, diag = stationary_solve(op, G.zeros(dom), tol=1e-11)
        assert diag.converged and diag.iterations == 0
        assert not np.any(u.values)
        assert op._stencil._gathered is None

    def test_cold_sweep_iterations(self):
        # the resolvent_sweep benchmark's inputs at seed 1: 8 random 64^2
        # right-hand sides per (model, lam); measured 614 (768 from g)
        rng = np.random.default_rng(1)
        dom = G.BoxDomain(2, (1.0, 1.0), (64, 64))
        ops = [
            TruncatedOperator(M.make_model(name, dom, 0.5), 0.25, drift_mode="none")
            for name in ("variable-diffusion", "lipschitz-nonlinear")
        ]
        lams = (1e-3, 1e-2, 0.1, 1.0)
        cases = [(op, lam, rand_gf(dom, rng)) for op in ops for lam in lams for _ in range(8)]
        total = 0
        for op, lam, g in cases:
            _, diag = op.resolve_detailed(g, ResolventConfig(lam=lam, tol=1e-12))
            assert diag.converged
            total += diag.iterations
        assert total <= 620
