import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidereg.geometry import GridGeometry
from slidereg.kernels import (
    KernelSpec,
    default_scale,
    eval_kernel_many,
    eval_mixed_many,
    eval_partial_many,
)
from slidereg.momenta import MomentumSet, VelocityAssembler

from oracles import block, kernel_nd, mixed_nd, partial_nd

GAUSS = KernelSpec("gaussian", 1.3, 9)
WEND = KernelSpec("wendland_c0_mult", 1.3, 9)


def at_pair(fn, *args):
    """``fn``, a d-dimensional kernel term of ``oracles``, at one pair (x, y)."""
    return fn(*args)[0]


kernel_at = functools.partial(at_pair, kernel_nd)  # (spec, x, y)
partial_at = functools.partial(at_pair, partial_nd)  # (spec, i, x, y)
mixed_at = functools.partial(at_pair, mixed_nd)  # (spec, i, x, y)


def fd_partial(spec, i, x, y, h):
    e = np.zeros(len(y))
    e[i] = h
    return (kernel_at(spec, x, y + e) - kernel_at(spec, x, y - e)) / (2 * h)


def fd_mixed(spec, i, x, y, h):
    e = np.zeros(len(y))
    e[i] = h
    return (
        kernel_at(spec, x + e, y + e)
        - kernel_at(spec, x + e, y - e)
        - kernel_at(spec, x - e, y + e)
        + kernel_at(spec, x - e, y - e)
    ) / (4 * h * h)


def sample_pairs(spec, rng, count, dim=2):
    """Random pairs inside 1.5 scale, clear of kinks and the support edge."""
    out = []
    while len(out) < count:
        x = rng.uniform(-1.5, 1.5, dim) * spec.scale
        y = rng.uniform(-1.5, 1.5, dim) * spec.scale
        gap = np.abs(x - y)
        if np.any(gap < 1e-3 * spec.scale):
            continue
        if np.any(np.abs(gap - spec.scale) < 1e-2 * spec.scale):
            continue
        out.append((x, y))
    return out


class TestSpec:
    def test_bad_family(self):
        with pytest.raises(ValueError):
            KernelSpec("triangles", 1.0, 9)

    def test_even_window(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 1.0, 8)

    @pytest.mark.parametrize("window", [9.7, True, "9", float("nan")], ids=repr)
    def test_window_must_be_an_integer(self, window):
        # a fractional window used to act as its floor
        with pytest.raises(ValueError, match="window must be an integer"):
            KernelSpec("gaussian", 1.0, window)

    def test_integral_float_window_becomes_int(self):
        spec = KernelSpec("gaussian", 1.0, 9.0)
        assert spec.window == 9 and type(spec.window) is int

    def test_nonpositive_scale(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 0.0, 9)

    def test_default_scale(self):
        grid = GridGeometry((10, 10), (0.5, 2.0), (0.0, 0.0))
        assert default_scale(grid) == 2.0


class TestEval:
    @pytest.mark.parametrize("spec", [GAUSS, WEND])
    def test_coincident_points_give_one(self, spec, rng):
        for _ in range(5):
            x = rng.uniform(-2, 2, 2)
            assert kernel_at(spec, x, x) == 1.0

    def test_wendland_zero_at_support_edge(self):
        assert kernel_at(WEND, [0.0, 0.0], [WEND.scale, 0.2]) == 0.0

    def test_wendland_half_offsets(self):
        w = KernelSpec("wendland_c0_mult", 1.0, 9)
        got = kernel_at(w, [0.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(0.0625)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.floats(-3, 3), min_size=2, max_size=2),
        st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    )
    def test_symmetry_exact(self, x, y):
        for spec in (GAUSS, WEND):
            assert kernel_at(spec, x, y) == kernel_at(spec, y, x)

    def test_gaussian_factors_multiply_to_the_radial_kernel(self, rng):
        X, y = rng.uniform(-2, 2, (40, 3)), rng.uniform(-2, 2, 3)
        want = np.exp(-np.sum((X - y) ** 2, axis=1) / GAUSS.scale**2)
        np.testing.assert_allclose(kernel_nd(GAUSS, X, y), want, rtol=1e-14)

    @pytest.mark.parametrize("spec", [GAUSS, WEND])
    def test_gram_psd(self, spec, rng):
        for _ in range(10):
            pts = rng.uniform(-2, 2, (40, 2)) * spec.scale
            gram = np.array([kernel_nd(spec, pts, b) for b in pts])
            eig = np.linalg.eigvalsh(gram)
            assert eig[0] >= -1e-8 * eig[-1]


class TestPartial:
    def test_gaussian_zero_at_center(self):
        assert partial_at(GAUSS, 0, [0.4, 0.2], [0.4, 0.2]) == 0.0

    def test_wendland_1d_half_scale(self):
        w = KernelSpec("wendland_c0_mult", 2.0, 9)
        # x=0, y=scale/2: derivative of the squared hat gives -1/scale
        got = fd_partial(w, 0, np.array([0.0]), np.array([1.0]), 1e-6 * w.scale)
        assert partial_at(w, 0, [0.0], [1.0]) == pytest.approx(-1.0 / w.scale)
        assert partial_at(w, 0, [0.0], [1.0]) == pytest.approx(got, rel=1e-7)

    def test_wendland_kink_convention(self):
        assert partial_at(WEND, 0, [0.7, 0.1], [0.7, 0.5]) == 0.0

    @pytest.mark.parametrize("spec", [GAUSS, WEND])
    def test_fd_consistency(self, spec, rng):
        h = 1e-6 * spec.scale
        for x, y in sample_pairs(spec, rng, 250):
            for i in range(2):
                an = partial_at(spec, i, x, y)
                fd = fd_partial(spec, i, x, y, h)
                assert abs(an - fd) <= 1e-5 * max(abs(an), abs(fd), 1e-9)

    def test_wendland_antisymmetry_across_kink(self, rng):
        for _ in range(40):
            x = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, 2)
            mirrored = y.copy()
            mirrored[0] = 2 * x[0] - y[0]
            assert partial_at(WEND, 0, x, y) == pytest.approx(
                -partial_at(WEND, 0, x, mirrored), abs=1e-14
            )


class TestMixed:
    def test_gaussian_diagonal(self):
        g = KernelSpec("gaussian", 1.0, 9)
        assert mixed_at(g, 0, [0.3], [0.3]) == pytest.approx(2.0)

    def test_wendland_diagonal_limit(self):
        w = KernelSpec("wendland_c0_mult", 2.0, 9)
        assert mixed_at(w, 0, [0.5], [0.5]) == pytest.approx(2.0 / w.scale**2)

    @pytest.mark.parametrize("spec", [GAUSS, WEND])
    def test_zero_outside_support_window(self, spec):
        if spec.family == "wendland_c0_mult":
            assert mixed_at(spec, 0, [0.0, 0.0], [spec.scale, 0.0]) == 0.0
            assert mixed_at(spec, 0, [0.0, 0.0], [5 * spec.scale, 0.0]) == 0.0

    @pytest.mark.parametrize("spec", [GAUSS, WEND])
    def test_fd_consistency(self, spec, rng):
        h = 1e-4 * spec.scale
        for x, y in sample_pairs(spec, rng, 250):
            for i in range(2):
                an = mixed_at(spec, i, x, y)
                fd = fd_mixed(spec, i, x, y, h)
                assert abs(an - fd) <= 1e-5 * max(abs(an), abs(fd), 1e-6)


class TestCompactSupport:
    def test_all_evaluations_zero_beyond_scale(self, rng):
        for _ in range(50):
            x = rng.uniform(-1, 1, 2)
            y = x + np.array([WEND.scale + rng.uniform(0.001, 1.0), rng.uniform(-0.5, 0.5)])
            assert np.abs(x[0] - y[0]) >= WEND.scale
            assert kernel_at(WEND, x, y) == 0.0
            for i in range(2):
                assert partial_at(WEND, i, x, y) == 0.0
                assert mixed_at(WEND, i, x, y) == 0.0

    def test_exactly_at_scale_offset_is_zero(self):
        # exact-arithmetic boundary case: offsets representable without rounding
        assert kernel_at(WEND, [0.0, 0.0], [WEND.scale, 0.0]) == 0.0
        assert partial_at(WEND, 0, [0.0, 0.0], [WEND.scale, 0.0]) == 0.0
        assert mixed_at(WEND, 0, [0.0, 0.0], [WEND.scale, 0.0]) == 0.0


class TestProductionCallShape:
    """Kink conventions on the calls ``VelocityAssembler`` and ``KernelGrams``
    make: a whole matrix of 1D offsets at once."""

    OFFSETS = np.arange(-8.0, 9.0)[:, None] - np.arange(-2.0, 3.0)  # lattice step 1, |r| up to 10
    SPEC = KernelSpec("wendland_c0_mult", 4.0, 9)

    def factors(self, spec):
        return (
            eval_kernel_many(spec, self.OFFSETS),
            eval_partial_many(spec, self.OFFSETS),
            eval_mixed_many(spec, self.OFFSETS),
        )

    @pytest.mark.parametrize("spec", [GAUSS, SPEC], ids=["gaussian", "wendland"])
    def test_factors_are_elementwise_in_the_offsets(self, spec):
        # offsets of any shape, a scalar included, each mapped on its own
        for fn, f in zip((eval_kernel_many, eval_partial_many, eval_mixed_many), self.factors(spec)):
            assert f.shape == self.OFFSETS.shape
            np.testing.assert_array_equal(fn(spec, self.OFFSETS.T.reshape(5, 1, 17)), f.T.reshape(5, 1, 17))
            np.testing.assert_array_equal([fn(spec, t) for t in self.OFFSETS.ravel()], f.ravel())

    @pytest.mark.parametrize("spec", [GAUSS, SPEC], ids=["gaussian", "wendland"])
    def test_partial_is_zero_at_zero_offset(self, spec):
        # sign(0) = 0: the symmetric subgradient on the kink
        _, dk, _ = self.factors(spec)
        assert np.all(dk[self.OFFSETS == 0.0] == 0.0)

    @pytest.mark.parametrize("spec", [GAUSS, SPEC], ids=["gaussian", "wendland"])
    def test_mixed_diagonal_is_two_over_scale_squared(self, spec):
        _, _, d2k = self.factors(spec)
        assert np.all(d2k[self.OFFSETS == 0.0] == 2.0 / spec.scale**2)

    def test_wendland_values_inside_and_at_the_support_edge(self):
        s = self.SPEC.scale
        k, dk, d2k = self.factors(self.SPEC)
        r = np.abs(self.OFFSETS)
        inside = (r > 0) & (r < s)
        np.testing.assert_array_equal(k[r < s], (1.0 - r[r < s] / s) ** 2)
        np.testing.assert_array_equal(np.sign(dk[inside]), np.sign(self.OFFSETS[inside]))
        assert np.all(d2k[inside] == -2.0 / s**2)
        assert np.any(r == s)
        for f in (k, dk, d2k):
            assert np.all(f[r >= s] == 0.0)


def footprint(spec, center, grid):
    """Node multi-indices where a unit zeroth momentum at ``center`` is nonzero."""
    ms = MomentumSet(np.array([center], float), np.ones((1, grid.ndim)), np.zeros((1, grid.ndim, grid.ndim)))
    v = VelocityAssembler(spec, grid, ms.points).velocity(block(ms.m0, ms.m1)).T.reshape(grid.dims + (grid.ndim,))
    return np.argwhere(np.any(v != 0.0, axis=-1))


class TestSupportNodes:
    """The discrete kernel footprint that synthesis accumulates over."""

    def test_interior_window_at_most_81(self):
        grid = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
        spec = KernelSpec("gaussian", 4.0, 9)
        nodes = footprint(spec, [16.0, 16.0], grid)
        assert len(nodes) == 81
        assert np.all(np.abs(nodes - 16) <= 4)

    def test_corner_clipped(self):
        grid = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
        spec = KernelSpec("gaussian", 4.0, 9)
        nodes = footprint(spec, [0.0, 0.0], grid)
        assert len(nodes) == 25  # 5 x 5 quarter window
        assert nodes.min() == 0 and nodes.max() == 4

    def test_tiny_wendland_support_keeps_center_only(self):
        grid = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
        spec = KernelSpec("wendland_c0_mult", 0.9, 9)
        nodes = footprint(spec, [16.0, 16.0], grid)
        assert nodes.shape == (1, 2)
        np.testing.assert_array_equal(nodes[0], [16, 16])

    def test_wendland_filtered_by_exact_support(self):
        grid = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
        spec = KernelSpec("wendland_c0_mult", 3.0, 9)
        nodes = footprint(spec, [16.0, 16.0], grid)
        assert len(nodes) == 25  # offsets -2..2 per axis survive |dx| < 3
        pos = grid.to_physical(nodes)
        assert np.all(np.abs(pos - [16.0, 16.0]) < spec.scale)

    def test_center_outside_domain_rejected(self):
        grid = GridGeometry((8, 8), (1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            footprint(GAUSS, [20.0, 0.0], grid)
