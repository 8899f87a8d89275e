import math

import numpy as np
import pytest

from driftflow import grid as G
from driftflow import models as M
from driftflow import steady as S
from driftflow.evolution import EvolutionConfig
from driftflow.operators import ResolventConfig
from driftflow.steady import SteadyConfig, decay_experiment, solve_steady, solve_steady_detailed

DOM = G.BoxDomain(2, (1.0, 1.0), (24, 24))


def evo(dt, T, **kw):
    kw.setdefault("resolvent", ResolventConfig(tol=1e-13))
    return EvolutionConfig(dt=dt, horizon=T, **kw)


class TestSteadyConfig:
    @pytest.mark.parametrize(
        "field, kw",
        [
            ("tol", dict(tol=math.nan)),
            ("tol", dict(tol=math.inf)),
            ("tol", dict(tol=0.0)),
            ("max_iter", dict(max_iter=0)),
            ("max_iter", dict(max_iter=-3)),
            ("time", dict(time=math.nan)),
            ("time", dict(time=math.inf)),
            ("time", dict(time="start")),
            ("max_iter", dict(max_iter=2.5)),
        ],
    )
    def test_bad_setting_names_its_field(self, field, kw):
        # these used to fail inside the solve ("stalled ... (tol nan)", "did
        # not reach tol in -3 iterations", "residual is non-finite"), and
        # time = inf returned u = 0 marked converged
        with pytest.raises(ValueError, match=rf"^{field} must"):
            SteadyConfig(**kw)


class TestSolveSteady:
    def test_zero_data_gives_zero(self):
        data = M.make_model("heat", DOM, 0.5)
        u = solve_steady(data, SteadyConfig(tol=1e-12))
        assert G.norm_l2(u) <= 1e-12

    def test_eigenfunction_source_oracle(self):
        # F = grad Phi with Phi an eigenfunction multiple: u_inf = Phi + O(h^2)
        errs = []
        for n in (12, 24):
            dom = G.BoxDomain(2, (1.0, 1.0), (n, n))
            data = M.make_model("manufactured", dom, 0.4)
            u = solve_steady(data, SteadyConfig(tol=1e-13))
            lam = 2 * math.pi**2
            phi = G.GridFunction(dom, (lam - 1) / lam * data.exact_grid(0.4).values)
            errs.append(G.norm_l2(u - phi))
        assert math.log2(errs[0] / errs[1]) > 1.8

    def test_initial_guess_independence(self):
        data = M.make_model("manufactured", DOM, 0.4)
        rng = np.random.default_rng(0)
        sols = []
        for _ in range(3):
            guess = G.GridFunction(DOM, rng.standard_normal(DOM.interior_shape))
            sols.append(
                solve_steady(data, SteadyConfig(tol=1e-12, initial_guess=guess))
            )
        for i in range(3):
            for j in range(i + 1, 3):
                assert G.norm_l2(sols[i] - sols[j]) <= 1e-8

    def test_residual_reported(self):
        data = M.make_model("manufactured", DOM, 0.4)
        u, diag = solve_steady_detailed(data, SteadyConfig(tol=1e-12))
        assert diag.converged
        assert diag.residuals[-1] <= 1e-12 * 2

    def test_nonconvergence_error(self):
        # a genuinely nonlinear flux cannot finish in one preconditioned sweep
        base = M.make_model("lipschitz-nonlinear", DOM, 0.4, beta=1.8)
        forced = M.make_model("manufactured", DOM, 0.4)
        data = M.ProblemData(
            name="forced-nonlinear",
            domain=DOM,
            diffusion=base.diffusion,
            drift=None,
            source=forced.source,
            initial=base.initial,
            horizon=0.4,
        )
        with pytest.raises(G.ConvergenceError) as info:
            solve_steady(data, SteadyConfig(tol=1e-13, max_iter=1))
        assert info.value.residuals
        # and the same problem converges with a sensible budget
        u, diag = solve_steady_detailed(data, SteadyConfig(tol=1e-12, max_iter=200))
        assert diag.converged

    def test_drift_steady_state(self):
        dom = G.BoxDomain(3, (1.0, 1.0, 1.0), (10, 10, 10))
        data = M.make_model("singular-drift", dom, 0.5, c=0.1)
        u = solve_steady(data, SteadyConfig(tol=1e-12))
        # no source and B(x, 0) = 0: zero is the unique stationary state
        assert G.norm_l2(u) <= 1e-10


class TestDecay:
    def test_heat_rate_beats_certificate(self):
        data = M.make_model("heat", DOM, 0.5)
        rep = decay_experiment(data, evo(2e-3, 0.5), SteadyConfig(tol=1e-12))
        lam = G.smallest_eigenvalue_exact(DOM)
        assert rep.small_data_pass
        assert rep.lyapunov_monotone
        assert not rep.saturated
        # actual decay follows the first eigenvalue, certificate is lam/4
        assert rep.fitted_rate == pytest.approx(math.log(1 + 2e-3 * lam) / 2e-3, rel=1e-2)
        assert rep.theoretical_omega == pytest.approx(lam / 4, rel=1e-9)
        assert rep.fitted_rate >= 0.95 * rep.theoretical_omega
        assert rep.margin > 0

    def test_one_step_contraction_factor(self):
        # |u_{j+1} - u_inf|^2 <= |u_j - u_inf|^2 / (1 + tau alpha / (2 C_P))
        data = M.make_model("heat", DOM, 0.3)
        tau = 5e-3
        rep = decay_experiment(data, evo(tau, 0.3), SteadyConfig(tol=1e-12))
        cp = rep.poincare_constant
        factor = 1.0 + tau * data.diffusion.alpha / (2 * cp)
        ys = rep.y_values
        for a, b in zip(ys, ys[1:]):
            if a > 1e-28:
                assert b <= a / factor * (1 + 1e-10)

    def test_saturation_branch(self):
        data = M.make_model("heat", DOM, 0.3)
        zero_data = M.ProblemData(
            name="heat",
            domain=DOM,
            diffusion=data.diffusion,
            drift=None,
            source=None,
            initial=G.zeros(DOM),
            horizon=0.3,
        )
        rep = decay_experiment(zero_data, evo(5e-3, 0.3), SteadyConfig(tol=1e-12))
        assert rep.saturated
        assert math.isnan(rep.fitted_rate)

    def test_certified_drift_3d(self):
        dom = G.BoxDomain(3, (1.0, 1.0, 1.0), (12, 12, 12))
        data = M.make_model("singular-drift", dom, 0.4, c=0.1)
        plan = M.make_truncation_plan(data)
        rep = decay_experiment(
            data, evo(2e-3, 0.4, truncation=plan), SteadyConfig(tol=1e-12)
        )
        assert rep.small_data_pass, rep.small_data_detail
        assert rep.lyapunov_monotone
        assert rep.fitted_rate >= 0.95 * rep.theoretical_omega
        detail = rep.small_data_detail
        assert detail["remainder_weak_norm"] <= detail["bound"]
        assert detail["truncated_weak_norm"] <= detail["bound"]
        assert "literal_level_product" in detail

    def test_stationary_solve_applies_no_stencil(self, monkeypatch):
        # no source: the zero start's exact residual -f = 0 ends the solve
        solves = []

        def recorded(op, rhs, **kw):
            out = solve(op, rhs, **kw)
            solves.append((op, out[1]))
            return out

        solve = S.stationary_solve
        monkeypatch.setattr(S, "stationary_solve", recorded)
        dom = G.BoxDomain(3, (1.0, 0.8, 1.2), (6, 5, 7))
        data = M.make_model("singular-drift", dom, 0.02, c=0.1)
        plan = M.make_truncation_plan(data)
        decay_experiment(data, evo(2e-3, 0.02, truncation=plan), SteadyConfig(tol=1e-12))
        (op, diag), = solves
        assert diag.converged and diag.iterations == 0
        assert op._stencil._gathered is None

    def test_two_dim_drift_has_no_certificate(self):
        data = M.make_model("singular-drift", DOM, 0.2, c=0.08)
        plan = M.make_truncation_plan(data)
        rep = decay_experiment(
            data, evo(2e-3, 0.2, truncation=plan), SteadyConfig(tol=1e-12)
        )
        assert not rep.small_data_pass
        assert "reason" in rep.small_data_detail

    def test_intro_omega_and_poincare_bound_reported(self):
        data = M.make_model("heat", DOM, 0.3)
        rep = decay_experiment(data, evo(5e-3, 0.3), SteadyConfig(tol=1e-12))
        assert rep.intro_omega == pytest.approx(2 * rep.theoretical_omega)
        # diam^2 / pi^2 upper bound for the unit square
        assert rep.poincare_upper_bound == pytest.approx(2.0 / math.pi**2)
        assert rep.poincare_constant <= rep.poincare_upper_bound

    def test_report_json_leaves_out_the_series(self):
        data = M.make_model("heat", DOM, 0.3)
        rep = decay_experiment(data, evo(5e-3, 0.3), SteadyConfig(tol=1e-12))
        assert set(rep.as_dict()) == {
            "theoretical_omega", "intro_omega", "fitted_rate", "margin",
            "small_data_pass", "window", "saturated", "lyapunov_monotone",
            "poincare_constant", "poincare_upper_bound", "small_data_detail",
        }
        assert rep.as_dict()["window"] == (0.15, 0.3)

    def test_series_written(self, tmp_path):
        data = M.make_model("heat", DOM, 0.3)
        rep = decay_experiment(data, evo(5e-3, 0.3), SteadyConfig(tol=1e-12))
        path = tmp_path / "y.csv"
        rep.write_series(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == len(rep.times) + 1
