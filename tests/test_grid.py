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
from driftflow import models as M
from driftflow.operators import TruncatedOperator

from _oracles import laplacian_matrix


def rand_gf(dom, rng, scale=1.0):
    return G.GridFunction(dom, scale * rng.standard_normal(dom.interior_shape))


def rand_vf(dom, rng):
    return G.VectorField(
        dom, tuple(rng.standard_normal(dom.face_shape(a)) for a in range(dom.dim))
    )


class TestBoxDomain:
    def test_spacing_and_counts(self):
        dom = G.BoxDomain(2, (2.0, 1.0), (8, 4))
        assert dom.spacing == (0.25, 0.25)
        assert dom.interior_shape == (7, 3)
        assert dom.interior_count == 21
        assert dom.node_weight == pytest.approx(0.0625)

    @pytest.mark.parametrize(
        "dim,lengths,cells",
        [
            (0, (), ()),
            (2, (1.0,), (4, 4)),
            (1, (-1.0,), (4,)),
            (1, (1.0,), (1,)),
        ],
    )
    def test_invalid(self, dim, lengths, cells):
        with pytest.raises(ValueError):
            G.BoxDomain(dim, lengths, cells)

    def test_equal_domains_stay_equal_after_geometry_is_read(self):
        a = G.BoxDomain(3, (1.0, 2.0, 0.5), (4, 6, 8))
        b = G.BoxDomain(3, [1, 2, 0.5], [4, 6, 8])
        # read every cached quantity of one of them only
        a.spacing, a.interior_shape, a.interior_count, a.node_weight
        a.face_shape(1)
        assert a == b and hash(a) == hash(b)
        assert G.node_coordinates(a) is G.node_coordinates(b)
        assert G.laplacian_symbol(b) is G.laplacian_symbol(a)
        assert a != G.BoxDomain(3, (1.0, 2.0, 0.5), (4, 6, 9))
        assert b.face_shape(1) == a.face_shape(1) == (3, 6, 7)
        assert a.interior_count == 3 * 5 * 7

    def test_hash_is_the_field_tuple_hash_computed_once(self):
        a = G.BoxDomain(2, (1.0, 3.0), (4, 6))
        assert hash(a) == hash((2, (1.0, 3.0), (4, 6)))
        assert a.__dict__["_hash"] == hash(a)
        # a set of domains still tells equal from unequal ones
        assert len({a, G.BoxDomain(2, [1, 3], [4, 6]), G.BoxDomain(2, (1.0, 3.0), (4, 7))}) == 2

    def test_same_domain_checks_compare_identity_first(self, monkeypatch):
        dom = G.BoxDomain(2, (1.0, 2.0), (5, 4))
        calls = []
        field_eq = G.BoxDomain.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return field_eq(self, other)

        monkeypatch.setattr(G.BoxDomain, "__eq__", counting_eq)
        rng = np.random.default_rng(4)
        u, v = rand_gf(dom, rng), rand_gf(dom, rng)
        G.inner(u, v), u + v, u - v
        G.inner_vec(G.gradient(u), G.gradient(v))
        G.helmholtz_solve(dom, u.values, 1.0, 0.5)
        assert calls == []
        # an equal but distinct domain is still compared field by field
        twin = G.GridFunction(G.BoxDomain(2, (1.0, 2.0), (5, 4)), v.values)
        assert G.inner(u, twin) == G.inner(u, v)
        assert G.inner_vec(G.gradient(u), G.gradient(twin)) == G.inner_vec(
            G.gradient(u), G.gradient(v)
        )
        assert len(calls) == 2
        with pytest.raises(ValueError, match="different domains"):
            G.inner(u, G.zeros(G.BoxDomain(2, (1.0, 2.0), (5, 5))))

    def test_grid_function_shape_mismatch(self):
        dom = G.BoxDomain(1, (1.0,), (4,))
        with pytest.raises(ValueError):
            G.GridFunction(dom, np.zeros(5))

    def test_vector_field_component_count(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (4, 4))
        with pytest.raises(ValueError):
            G.VectorField(dom, (np.zeros(dom.face_shape(0)),))


class TestGradient:
    def test_zero_field(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (6, 6))
        g = G.gradient(G.zeros(dom))
        for comp in g.components:
            assert np.all(comp == 0.0)

    def test_sine_profile_second_order(self):
        # exact derivative of sin(pi x) as oracle; error must drop ~4x per halving
        errs = []
        for n in (32, 64):
            dom = G.BoxDomain(1, (1.0,), (n,))
            u = G.sample(dom, lambda c: np.sin(np.pi * c[0]))
            xf = G.face_coordinates(dom, 0)[0]
            err = np.max(np.abs(G.gradient(u).components[0] - np.pi * np.cos(np.pi * xf)))
            errs.append(err)
        order = math.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_hat_profile_exact(self):
        # nodes at h, 2h, 3h with values s, 2s, s: slopes are +-s/h exactly
        dom = G.BoxDomain(1, (1.0,), (4,))
        s = 0.7
        u = G.GridFunction(dom, np.array([s, 2 * s, s]))
        g = G.gradient(u).components[0]
        h = dom.spacing[0]
        assert g == pytest.approx([s / h, s / h, -s / h, -s / h])


@st.composite
def fields_with_signed_zeros(draw):
    """A random node field and flux field, with zeros of both signs mixed in."""
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    cells = tuple(draw(st.integers(2, (20, 9, 6)[dim - 1])) for _ in range(dim))
    dom = G.BoxDomain(dim, lengths, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    zero_share = draw(st.floats(0.0, 1.0))

    def sprinkle(shape):
        vals = rng.standard_normal(shape)
        mask = rng.random(shape) < zero_share
        vals[mask] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[mask]
        return vals

    q = G.VectorField(dom, tuple(sprinkle(dom.face_shape(a)) for a in range(dim)))
    return G.GridFunction(dom, sprinkle(dom.interior_shape)), q


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@given(case=fields_with_signed_zeros())
@settings(max_examples=80, deadline=None)
def test_difference_operators_match_padded_reference(case):
    u, q = case
    dom = u.domain
    div = np.zeros(dom.interior_shape)
    for a, h in enumerate(dom.spacing):
        grad = np.diff(u.values, axis=a, prepend=0.0, append=0.0) / h
        assert same_bits(G.gradient(u).components[a], grad)
        div += np.diff(q.components[a], axis=a) / h
    assert same_bits(G.divergence(q).values, div)


@st.composite
def adjoint_cases(draw):
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    top = (24, 16, 8)[dim - 1]
    cells = tuple(draw(st.integers(2, top)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return G.BoxDomain(dim, lengths, cells), rng


class TestDivergence:
    def test_zero(self):
        dom = G.BoxDomain(3, (1.0, 1.0, 1.0), (4, 4, 4))
        q = G.VectorField(dom, tuple(np.zeros(dom.face_shape(a)) for a in range(3)))
        assert np.all(G.divergence(q).values == 0.0)

    @given(case=adjoint_cases())
    @settings(max_examples=40, deadline=None)
    def test_adjoint_identity(self, case):
        dom, rng = case
        q, u, v = rand_vf(dom, rng), rand_gf(dom, rng), rand_gf(dom, rng)
        lhs = G.inner(G.divergence(q), v)
        rhs = -G.inner_vec(q, G.gradient(v))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))
        # so inner(apply(u), v) is the weak pairing, by the stencil of a
        # linear slice and by -div(flux) alike
        gv = G.gradient(v)
        for name in sorted(M.builtin_models()):
            data = M.make_model(name, dom, 1.0)
            general = replace(data, diffusion=replace(data.diffusion, coefficient=None))
            for mode in ("full", "remainder") if data.has_drift else ("none",):
                level = 0.5 * M.drift_bound_max(data)
                for d in (data, general):
                    op = TruncatedOperator(d, 0.3, level=level, drift_mode=mode)
                    Au, F = op.apply(u), op.flux(u)
                    lhs, rhs = G.inner(Au, v), op.pairing(u, v)
                    scale = G.norm_l2(Au) * G.norm_l2(v) + math.sqrt(
                        G.inner_vec(F, F) * G.inner_vec(gv, gv)
                    )
                    assert abs(lhs - rhs) <= 1e-12 * scale

    def test_constant_field_interior(self):
        # difference of a constant flux vanishes at interior nodes; the
        # boundary-adjacent stencil sees the zero ghost and keeps the value
        dom = G.BoxDomain(1, (1.0,), (8,))
        q = G.VectorField(dom, (np.full(dom.face_shape(0), 3.0),))
        d = G.divergence(q).values
        assert np.all(d[1:-1] == 0.0)


class TestInner:
    def test_positive_definite(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (5, 5))
        rng = np.random.default_rng(0)
        u = rand_gf(dom, rng)
        assert G.inner(u, u) > 0
        assert G.inner(G.zeros(dom), G.zeros(dom)) == 0.0

    def test_eigenfunction_integral(self):
        # int_0^1 int_0^1 sin^2(pi x) sin^2(pi y) = 1/4; the uniform-weight
        # quadrature is exact here by discrete sine orthogonality
        dom = G.BoxDomain(2, (1.0, 1.0), (32, 32))
        u = G.sample(dom, lambda c: np.sin(np.pi * c[0]) * np.sin(np.pi * c[1]))
        assert G.inner(u, u) == pytest.approx(0.25, abs=1e-13)

    def test_quadrature_second_order(self):
        # int sin(pi x) x(1-x) = 4/pi^3 per axis; trapezoid error is O(h^2)
        exact = (4.0 / math.pi**3) ** 2
        errs = []
        for n in (16, 32):
            dom = G.BoxDomain(2, (1.0, 1.0), (n, n))
            u = G.sample(dom, lambda c: np.sin(np.pi * c[0]) * np.sin(np.pi * c[1]))
            v = G.sample(dom, lambda c: c[0] * (1 - c[0]) * c[1] * (1 - c[1]))
            errs.append(abs(G.inner(u, v) - exact))
        assert math.log2(errs[0] / errs[1]) > 1.9

    def test_bilinear(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (6, 6))
        rng = np.random.default_rng(3)
        for _ in range(10):
            u, v, w = (rand_gf(dom, rng) for _ in range(3))
            a, b = rng.standard_normal(2)
            lhs = G.inner(a * u + b * v, w)
            rhs = a * G.inner(u, w) + b * G.inner(v, w)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_domain_mismatch(self):
        u = G.zeros(G.BoxDomain(1, (1.0,), (4,)))
        v = G.zeros(G.BoxDomain(1, (1.0,), (5,)))
        with pytest.raises(ValueError):
            G.inner(u, v)


class TestPoincare:
    def test_square_matches_separated_eigenvalue(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (48, 48))
        cp = G.poincare_constant(dom)
        # separation of variables: lambda_1 -> 2 pi^2, C_P -> 0.05066
        assert cp == pytest.approx(1.0 / (2 * math.pi**2), rel=2e-3)
        assert cp == pytest.approx(1.0 / G.smallest_eigenvalue_exact(dom), rel=1e-10)

    def test_interval(self):
        dom = G.BoxDomain(1, (1.0,), (64,))
        cp = G.poincare_constant(dom)
        assert 1.0 / cp == pytest.approx(math.pi**2, rel=1e-3)

    def test_second_order_convergence(self):
        lam = 2 * math.pi**2
        errs = []
        for n in (16, 32):
            dom = G.BoxDomain(2, (1.0, 1.0), (n, n))
            errs.append(abs(1.0 / G.poincare_constant(dom) - lam))
        assert math.log2(errs[0] / errs[1]) > 1.9

    @pytest.mark.parametrize(
        "dom",
        [
            G.BoxDomain(1, (1.5,), (40,)),
            G.BoxDomain(2, (1.0, 1.0), (32, 32)),
            G.BoxDomain(2, (0.5, 2.0), (9, 14)),
            G.BoxDomain(3, (1.0, 1.0, 1.0), (16, 16, 16)),
            G.BoxDomain(3, (1.0, 0.75, 2.5), (6, 5, 11)),
        ],
    )
    def test_matches_sparse_eigensolver(self, dom):
        # independent of the closed form: shift-invert Lanczos on the
        # assembled matrix
        from scipy.sparse.linalg import eigsh

        lam = eigsh(laplacian_matrix(dom).tocsc(), k=1, sigma=0.0, which="LM")[0][0]
        assert G.poincare_constant(dom) == pytest.approx(1.0 / lam, rel=1e-10)

    def test_poincare_inequality_random_fields(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (12, 12))
        cp = G.poincare_constant(dom)
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rand_gf(dom, rng)
            gv = G.gradient(v)
            assert G.inner(v, v) <= cp * G.inner_vec(gv, gv) * (1 + 1e-12)


class TestGradientSq:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        lengths=st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
    )
    def test_is_inner_vec_of_the_gradient(self, dim, seed, lengths):
        rng = np.random.default_rng(seed)
        dom = G.BoxDomain(dim, lengths[:dim], tuple(rng.integers(2, 12, size=dim)))
        u = rand_gf(dom, rng)
        g = G.gradient(u)
        assert G.gradient_sq(u) == G.inner_vec(g, g)


class TestLinearAlgebra:
    def test_laplacian_matrix_matches_matrix_free(self):
        dom = G.BoxDomain(2, (1.0, 1.5), (6, 5))
        rng = np.random.default_rng(5)
        u = rand_gf(dom, rng)
        A = laplacian_matrix(dom)
        assert np.allclose(
            A @ u.values.ravel(), G.laplacian(u).values.ravel(), rtol=1e-13, atol=1e-13
        )

    def test_helmholtz_solve_exact(self):
        dom = G.BoxDomain(2, (1.0, 1.0), (10, 10))
        rng = np.random.default_rng(9)
        b = rng.standard_normal(dom.interior_shape)
        x = G.helmholtz_solve(dom, b, shift=0.3, scale=2.0)
        xg = G.GridFunction(dom, x)
        resid = 0.3 * x + 2.0 * G.laplacian(xg).values - b
        assert np.max(np.abs(resid)) < 1e-11


def _scipy_helmholtz(dom, b, shift, scale):
    import scipy.fft

    hat = scipy.fft.dstn(b, type=1, norm="ortho")
    hat /= shift + scale * G.laplacian_symbol(dom)
    return scipy.fft.idstn(hat, type=1, norm="ortho")


# interior points per axis on both sides of the dense/FFT threshold
_AXIS_POINTS = st.one_of(
    st.integers(1, 20),
    st.integers(G._DENSE_SINE_MAX - 2, G._DENSE_SINE_MAX + 3),
)


class TestSineTransform:
    @settings(max_examples=40, deadline=None)
    @given(
        points=st.integers(1, 3).flatmap(lambda d: st.lists(_AXIS_POINTS, min_size=d, max_size=d)),
        lengths=st.lists(st.floats(0.3, 3.0), min_size=3, max_size=3),
        shift=st.floats(0.0, 2.0),
        scale=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_scipy_dstn(self, points, lengths, shift, scale, seed):
        if len(points) == 3:
            points[2] = min(points[2], 12)  # keep 3D boxes small
        dim = len(points)
        dom = G.BoxDomain(dim, lengths[:dim], [m + 1 for m in points])
        b = np.random.default_rng(seed).standard_normal(dom.interior_shape)
        x = G.helmholtz_solve(dom, b, shift, scale)
        ref = _scipy_helmholtz(dom, b, shift, scale)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "points", [(8, G._DENSE_SINE_MAX + 3), (G._DENSE_SINE_MAX + 3, 5), (G._DENSE_SINE_MAX,)]
    )
    def test_mixed_dense_and_fft_axes(self, points):
        dom = G.BoxDomain(len(points), (1.0, 0.7)[: len(points)], [m + 1 for m in points])
        b = np.random.default_rng(3).standard_normal(dom.interior_shape)
        before = b.copy()
        x = G.helmholtz_solve(dom, b, 0.5, 0.25)
        np.testing.assert_array_equal(b, before)
        ref = _scipy_helmholtz(dom, b, 0.5, 0.25)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(st.integers(2, G._DENSE_SINE_MAX), min_size=2, max_size=2),
        square=st.booleans(),
        lengths=st.lists(st.floats(0.3, 3.0), min_size=2, max_size=2),
        shift=st.floats(0.0, 2.0),
        scale=st.floats(1e-3, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_2d_chain_is_bit_identical_to_the_per_axis_loop(
        self, points, square, lengths, shift, scale, seed
    ):
        if square:
            points[1] = points[0]
        self._assert_chain_matches_loop(points, lengths, shift, scale, seed)

    @pytest.mark.parametrize(
        "points", [(2, 2), (2, G._DENSE_SINE_MAX), (G._DENSE_SINE_MAX, 3),
                   (G._DENSE_SINE_MAX, G._DENSE_SINE_MAX)]
    )
    def test_2d_chain_at_the_ends_of_the_dense_range(self, points):
        self._assert_chain_matches_loop(list(points), (1.0, 0.6), 1.0, 0.02, 4)

    @staticmethod
    def _assert_chain_matches_loop(points, lengths, shift, scale, seed):
        dom = G.BoxDomain(2, lengths, [m + 1 for m in points])
        b = np.random.default_rng(seed).standard_normal(dom.interior_shape)
        inv = G._inverse_symbol(dom, shift, scale)
        loop = G._sine_transform(G._sine_transform(b) * inv)
        assert np.array_equal(G.helmholtz_solve(dom, b, shift, scale), loop)

    @pytest.mark.parametrize(
        "cells", [(9,), (G._DENSE_SINE_MAX + 4,), (7, 12), (9, G._DENSE_SINE_MAX + 4), (5, 6, 4)]
    )
    def test_results_are_kept_after_later_calls(self, cells):
        dom = G.BoxDomain(len(cells), (1.0,) * len(cells), cells)
        rng = np.random.default_rng(len(cells))
        b1, b2 = (rng.standard_normal(dom.interior_shape) for _ in "12")
        first = G.helmholtz_solve(dom, b1, 1.0, 0.5)
        kept = first.copy()
        G.helmholtz_solve(dom, b2, 1.0, 0.5)
        G.helmholtz_solve(dom, first, 1.0, 0.5)
        assert np.array_equal(first, kept)

    def test_cached_arrays_are_read_only(self):
        dom = G.BoxDomain(2, (1.0, 2.0), (6, 9))
        for arr in (G._sine_matrix(5), G._inverse_symbol(dom, 1.0, 0.1), G.laplacian_symbol(dom)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert G._inverse_symbol(dom, 1.0, 0.1) is G._inverse_symbol(dom, 1.0, 0.1)

    def test_no_scipy_on_the_import_path(self):
        # the dense transform covers every axis up to the threshold, so
        # importing the library and resolving on a small grid never loads scipy
        code = (
            "import sys\n"
            "import driftflow\n"
            "from driftflow import grid as G, models as M\n"
            "from driftflow.operators import ResolventConfig, TruncatedOperator\n"
            "dom = G.BoxDomain(2, (1.0, 1.0), (33, 33))\n"
            "data = M.make_model('variable-diffusion', dom, 0.5)\n"
            "op = TruncatedOperator(data, 0.0, drift_mode='none')\n"
            "op.resolve(data.initial, ResolventConfig(lam=0.1, tol=1e-12))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ)
        src = str(Path(G.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_roundtrip(self, tmp_path, fmt):
        dom = G.BoxDomain(2, (1.0, 2.5), (6, 9))
        rng = np.random.default_rng(1)
        u = rand_gf(dom, rng)
        path = tmp_path / f"field.{fmt}"
        G.save_grid_function(path, u)
        # the suffix picks the format
        assert (path.read_bytes()[:4] == b"GFB1") == (fmt == "bin")
        w = G.load_grid_function(path)
        assert w.domain == dom
        assert np.array_equal(w.values, u.values)
