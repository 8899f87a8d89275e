import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftflow import grid as G
from driftflow import lorentz as L

INF = math.inf


def gf(values, length=1.0):
    values = np.asarray(values, dtype=float)
    dom = G.BoxDomain(1, (length,), (values.size + 1,))
    return G.GridFunction(dom, values)


class TestDistribution:
    def test_zero_function(self):
        d = L.distribution(gf([0.0, 0.0, 0.0]))
        assert d.total == 0.0
        assert d.mu(0.0) == 0.0

    def test_two_values_by_counting(self):
        # values {2, 5} each with weight w: mu = 2w below 2, w on [2, 5), 0 beyond
        u = gf([2.0, 5.0])
        w = u.domain.node_weight
        d = L.distribution(u)
        assert d.mu(1.0) == pytest.approx(2 * w)
        assert d.mu(2.0) == pytest.approx(w)
        assert d.mu(4.999) == pytest.approx(w)
        assert d.mu(5.0) == 0.0

    def test_sign_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(17)
        da = L.distribution(gf(np.abs(vals)))
        db = L.distribution(gf(vals))
        assert np.array_equal(da.thresholds, db.thresholds)
        assert np.array_equal(da.measures, db.measures)

    def test_monotone_and_bounded_by_volume(self):
        rng = np.random.default_rng(4)
        u = gf(rng.standard_normal(40))
        d = L.distribution(u)
        assert np.all(np.diff(d.measures) <= 0)
        assert d.total <= u.domain.volume


class TestLorentzNorm:
    def test_indicator_weak_norm_exact(self):
        vals = np.zeros(31)
        vals[4:12] = 1.0
        u = gf(vals)
        measure = 8 * u.domain.node_weight
        for p in (1.5, 2.0, 3.0, 7.0):
            got = L.lorentz_norm(u, L.LorentzExponents(p, INF))
            assert got == measure ** (1.0 / p)

    def test_p_equals_q_recovers_lebesgue(self):
        rng = np.random.default_rng(1)
        u = gf(rng.lognormal(0, 1.5, 33) * rng.choice([-1, 1], 33))
        w = u.domain.node_weight
        for p in (1.2, 2.0, 4.5):
            ln = L.lorentz_norm(u, L.LorentzExponents(p, p))
            lp = (w * np.sum(np.abs(u.values) ** p)) ** (1.0 / p)
            assert abs(ln - lp) <= 1e-12 * lp

    @given(c=st.floats(-50, 50), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        u = gf(rng.standard_normal(21))
        e = L.LorentzExponents(2.5, 1.5)
        base = L.lorentz_norm(u, e)
        scaled = L.lorentz_norm(abs(c) * u, e)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-11, abs=1e-12)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            L.LorentzExponents(1.0, 2.0)
        with pytest.raises(ValueError):
            L.LorentzExponents(2.0, 0.5)


def brute_force_norm(values, weight, p, q):
    """||u||_{p,q} summed over the distribution function, counted node by node.

    Between consecutive distinct values c_{j-1} < c_j of |u|, mu(m) is the
    weight of the nodes with |u| >= c_j, so the integral of
    mu^{q/p} m^{q-1} over that interval is mu^{q/p} (c_j^q - c_{j-1}^q) / q.
    """
    flat = np.abs(np.asarray(values, dtype=float)).ravel()
    levels = sorted({float(x) for x in flat if x > 0})
    mus = [weight * int(np.count_nonzero(flat >= c)) for c in levels]
    if math.isinf(q):
        return max((c * mu ** (1.0 / p) for c, mu in zip(levels, mus)), default=0.0)
    total, prev = 0.0, 0.0
    for c, mu in zip(levels, mus):
        total += mu ** (q / p) * (c**q - prev**q) / q
        prev = c
    return (p * total) ** (1.0 / q)


def rearrangement_norm(values, weight, p, q):
    """||u||_{p,q} = (int_0^inf (t^{1/p} u*(t))^q dt/t)^{1/q}, q finite.

    u* is the decreasing rearrangement: the k-th largest |u| on
    [(k-1) w, k w), where t^{q/p - 1} integrates in closed form.
    """
    a = np.sort(np.abs(np.asarray(values, dtype=float)).ravel())[::-1]
    k = np.arange(1, a.size + 1)
    steps = (k * weight) ** (q / p) - ((k - 1) * weight) ** (q / p)
    return float((p / q * np.sum(a**q * steps)) ** (1.0 / q))


@st.composite
def lorentz_cases(draw):
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    cells = tuple(draw(st.integers(2, (40, 12, 7)[dim - 1])) for _ in range(dim))
    dom = G.BoxDomain(dim, lengths, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = dom.interior_shape
    if draw(st.booleans()):
        # few distinct values, many ties and zeros
        vals = rng.integers(-3, 4, size=shape) * draw(st.floats(0.01, 100.0))
    else:
        vals = rng.lognormal(0.0, 2.0, size=shape) * rng.choice([-1.0, 0.0, 1.0], size=shape)
    p = draw(st.floats(1.05, 8.0))
    q = draw(st.one_of(st.just(INF), st.floats(1.0, 10.0)))
    return G.GridFunction(dom, vals.astype(float)), p, q


class TestAgainstBruteForce:
    @given(case=lorentz_cases())
    @settings(max_examples=120, deadline=None)
    def test_lorentz_norm_and_weak_norm(self, case):
        u, p, q = case
        w = u.domain.node_weight
        got = L.lorentz_norm(u, L.LorentzExponents(p, q))
        ref = brute_force_norm(u.values, w, p, q)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        weak = L.weak_norm_of_values(u.values, w, p)
        assert weak == pytest.approx(brute_force_norm(u.values, w, p, INF), rel=1e-12, abs=0.0)
        if not math.isinf(q):
            assert got == pytest.approx(rearrangement_norm(u.values, w, p, q), rel=1e-10, abs=0.0)


class TestDistToBounded:
    def test_bounded_function_hits_zero(self):
        u = gf([0.3, -0.8, 0.5])
        out = L.dist_to_bounded(u, 2.0, [0.5, 1.0])
        assert out[-1] == 0.0

    def test_nonincreasing(self):
        rng = np.random.default_rng(8)
        u = gf(rng.standard_normal(64) * 3)
        out = L.dist_to_bounded(u, 2.0, [0.5, 1.0, 2.0, 4.0])
        assert all(b <= a + 1e-15 for a, b in zip(out, out[1:]))

    def test_inverse_distance_level_independent_floor(self):
        # b = c/|x - x0| in 2D: the continuum remainder keeps weak-L^2 norm
        # c sqrt(pi) at every level.  Node sampling reproduces that floor
        # from below but overshoots by a bounded cluster factor (the nodes
        # nearest the singularity carry full cell measure), so the value is
        # level-independent within a fixed band rather than convergent.
        c = 0.05
        floor = c * math.sqrt(math.pi)
        dom = G.BoxDomain(2, (1.0, 1.0), (96, 96))
        x0 = tuple(0.5 + 0.5 * h for h in dom.spacing)
        u = G.sample(
            dom,
            lambda crd: c / np.sqrt((crd[0] - x0[0]) ** 2 + (crd[1] - x0[1]) ** 2),
        )
        vals = L.dist_to_bounded(u, 2.0, [0.5, 1.0, 2.0])
        for v in vals:
            assert 0.9 * floor <= v <= 1.8 * floor

    def test_regularized_inverse_distance_converges(self):
        # capping the singularity at radius r0 removes the sampling cluster;
        # the remainder norm then has the closed form
        # (c/r0 - n) sqrt(pi) r0 for the level n, reached under refinement
        c, r0, n_level = 0.05, 0.08, 0.1
        target = (c / r0 - n_level) * math.sqrt(math.pi) * r0
        errors = []
        for n in (48, 96):
            dom = G.BoxDomain(2, (1.0, 1.0), (n, n))
            x0 = tuple(0.5 + 0.5 * h for h in dom.spacing)
            u = G.sample(
                dom,
                lambda crd: c
                / np.maximum(
                    np.sqrt((crd[0] - x0[0]) ** 2 + (crd[1] - x0[1]) ** 2), r0
                ),
            )
            val = L.dist_to_bounded(u, 2.0, [n_level])[0]
            errors.append(abs(val - target) / target)
        assert errors[-1] < 0.08
        assert errors[-1] < errors[0]

    def test_level_validation(self):
        with pytest.raises(ValueError):
            L.dist_to_bounded(gf([1.0]), 2.0, [2.0, 1.0])


class TestSobolevConstant:
    def test_three_dim_p_two(self):
        # omega_3 = 4 pi / 3; constant = omega^{-1/3} * 2
        expect = (4 * math.pi / 3) ** (-1 / 3) * 2
        assert L.sobolev_constant(3, 2.0) == pytest.approx(expect, rel=1e-12)
        assert L.sobolev_constant(3, 2.0) == pytest.approx(1.2407, abs=2e-4)

    def test_three_dim_p_three_halves(self):
        expect = (4 * math.pi / 3) ** (-1 / 3)
        assert L.sobolev_constant(3, 1.5) == pytest.approx(expect, rel=1e-12)

    def test_undefined_at_p_equal_N(self):
        with pytest.raises(ValueError):
            L.sobolev_constant(2, 2.0)

    def test_unit_ball_volumes(self):
        assert L.unit_ball_volume(1) == pytest.approx(2.0)
        assert L.unit_ball_volume(2) == pytest.approx(math.pi)
        assert L.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


class TestHolder:
    def test_zero_factor(self):
        u = gf(np.zeros(9))
        v = gf(np.ones(9))
        rep = L.check_holder(u, v, L.LorentzExponents(3, 2), L.LorentzExponents(3, 2))
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_indicator_equality(self):
        vals = np.zeros(15)
        vals[2:9] = 1.0
        u = gf(vals)
        rep = L.check_holder(
            u, u, L.LorentzExponents(4, INF), L.LorentzExponents(4, INF)
        )
        # |E|^{1/2} = |E|^{1/4} |E|^{1/4}
        assert rep.margin == pytest.approx(0.0, abs=1e-14)

    def test_random_battery_margin(self):
        # target exponents drawn with q <= p, where the unit-constant product
        # inequality is a theorem; beyond it the sharp constant exceeds 1
        rng = np.random.default_rng(123)
        dom = G.BoxDomain(1, (1.0,), (65,))
        checked = 0
        while checked < 100:
            p1, p2 = rng.uniform(1.1, 8, 2)
            if 1 / p1 + 1 / p2 >= 0.99:
                continue
            q1 = INF if rng.random() < 0.3 else rng.uniform(1.0, 10.0)
            q2 = INF if rng.random() < 0.3 else rng.uniform(1.0, 10.0)
            e1, e2 = L.LorentzExponents(p1, q1), L.LorentzExponents(p2, q2)
            try:
                t = L.product_exponents(e1, e2)
            except ValueError:
                continue
            if math.isinf(t.q) or t.q > t.p:
                continue
            u = G.GridFunction(dom, rng.lognormal(0, 2, 64) * rng.choice([-1, 1], 64))
            v = G.GridFunction(dom, rng.lognormal(0, 2, 64) * rng.choice([-1, 1], 64))
            rep = L.check_holder(u, v, e1, e2)
            assert rep.margin >= -1e-12 * max(1.0, rep.rhs)
            checked += 1

    def test_incompatible_exponents(self):
        with pytest.raises(ValueError):
            L.product_exponents(L.LorentzExponents(1.5, 2), L.LorentzExponents(2.5, 2))

    def test_report_serializes(self):
        u = gf([1.0, 2.0, 0.5])
        rep = L.check_holder(u, u, L.LorentzExponents(4, 4), L.LorentzExponents(4, 4))
        d = rep.as_dict()
        assert set(d) == {"lhs", "rhs", "margin", "exponents"}
