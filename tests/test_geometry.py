import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidereg.geometry import (
    DeformationMap,
    GridGeometry,
    ScalarImage,
    Stencil,
    VectorField,
    gradient_central,
    identity_map,
    interp_values,
    interp_with_point_grad,
    sample_linear,
    splat_adjoint,
    warp_image,
)


class TestGridGeometry:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            GridGeometry((5,), (1.0,), (0.0,))

    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError):
            GridGeometry((1, 5), (1.0, 1.0), (0.0, 0.0))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            GridGeometry((4, 5), (1.0, 0.0), (0.0, 0.0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GridGeometry((4, 5), (1.0,), (0.0, 0.0))

    def test_node_positions(self, grid2d_aniso):
        pos = grid2d_aniso.node_positions()
        assert pos.shape == (8, 10, 2)
        np.testing.assert_allclose(pos[0, 0], [-1.0, 3.0])
        np.testing.assert_allclose(pos[2, 3], [-1.0 + 2 * 0.5, 3.0 + 3 * 2.0])

    def test_index_physical_round_trip(self, grid2d_aniso, rng):
        idx = rng.uniform(0, 7, (20, 2))
        back = grid2d_aniso.to_index(grid2d_aniso.to_physical(idx))
        np.testing.assert_allclose(back, idx, atol=1e-12)


class TestContainers:
    def test_image_shape_checked(self, grid2d):
        with pytest.raises(ValueError):
            ScalarImage(grid2d, np.zeros((3, 3)))

    def test_image_finite_checked(self, grid2d):
        vals = np.zeros(grid2d.dims)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarImage(grid2d, vals)

    def test_immutable(self, random_image):
        with pytest.raises(ValueError):
            random_image.values[0, 0] = 1.0

    def test_vector_field_shape(self, grid2d):
        with pytest.raises(ValueError):
            VectorField(grid2d, np.zeros(grid2d.dims + (3,)))

    def test_map_direction_checked(self, grid2d):
        with pytest.raises(ValueError):
            DeformationMap(grid2d, grid2d.node_positions(), "sideways")

    def test_identity_map_targets_are_node_positions(self, grid2d_aniso):
        m = identity_map(grid2d_aniso)
        np.testing.assert_array_equal(m.targets, grid2d_aniso.node_positions())
        assert np.all(m.displacement() == 0.0)


class TestSampleLinear:
    def test_grid_nodes_exact(self, random_image, rng):
        geom = random_image.geometry
        for _ in range(10):
            ij = (rng.integers(0, geom.dims[0]), rng.integers(0, geom.dims[1]))
            p = geom.to_physical(ij)
            assert sample_linear(random_image, p) == random_image.values[ij]

    def test_midpoint_of_two_nodes(self, grid2d):
        vals = np.zeros(grid2d.dims)
        vals[3, 4] = 0.0
        vals[3, 5] = 1.0
        img = ScalarImage(grid2d, vals)
        assert sample_linear(img, grid2d.to_physical([3, 4.5])) == pytest.approx(0.5)

    def test_outside_clamps_to_boundary(self, random_image):
        geom = random_image.geometry
        p = geom.to_physical([3, geom.dims[1] - 1 + 3.0])  # 3 voxels past the edge
        assert sample_linear(random_image, p) == random_image.values[3, geom.dims[1] - 1]

    def test_nonfinite_point_rejected(self, random_image):
        with pytest.raises(ValueError):
            sample_linear(random_image, [np.nan, 0.0])

    @settings(deadline=None, max_examples=30)
    @given(
        a=st.floats(-3, 3), by=st.floats(-3, 3), bx=st.floats(-3, 3),
        py=st.floats(0, 7), px=st.floats(0, 9),
    )
    def test_affine_image_exact_inside(self, a, by, bx, py, px):
        geom = GridGeometry((8, 10), (1.0, 1.0), (0.0, 0.0))
        pos = geom.node_positions()
        img = ScalarImage(geom, a + by * pos[..., 0] + bx * pos[..., 1])
        got = sample_linear(img, [py, px])
        assert got == pytest.approx(a + by * py + bx * px, abs=1e-9)


class TestWarpImage:
    def test_identity_is_identity(self, random_image):
        out = warp_image(random_image, identity_map(random_image.geometry, "inverse"))
        np.testing.assert_array_equal(out.values, random_image.values)

    def test_uniform_shift_translates(self, grid2d, rng):
        img = ScalarImage(grid2d, rng.uniform(0, 1, grid2d.dims))
        targets = grid2d.node_positions().copy()
        targets[..., 1] -= 1.0  # pull from one voxel left: content moves right
        out = warp_image(img, DeformationMap(grid2d, targets, "inverse"))
        np.testing.assert_allclose(out.values[:, 1:], img.values[:, :-1], atol=1e-12)

    def test_forward_map_rejected(self, random_image):
        with pytest.raises(ValueError):
            warp_image(random_image, identity_map(random_image.geometry, "forward"))


class TestGradientCentral:
    def test_constant_image_zero(self, grid2d):
        g = gradient_central(ScalarImage(grid2d, np.full(grid2d.dims, 7.0)))
        assert np.all(g.vectors == 0.0)

    def test_linear_ramp_slope(self, grid2d):
        pos = grid2d.node_positions()
        g = gradient_central(ScalarImage(grid2d, 2.0 * pos[..., 0]))
        np.testing.assert_allclose(g.vectors[..., 0], 2.0, atol=1e-12)
        np.testing.assert_allclose(g.vectors[..., 1], 0.0, atol=1e-12)

    def test_matches_brute_force_stencil(self, grid2d_aniso, rng):
        vals = rng.uniform(0, 1, grid2d_aniso.dims)
        img = ScalarImage(grid2d_aniso, vals)
        got = gradient_central(img).vectors
        ny, nx = grid2d_aniso.dims
        hy, hx = grid2d_aniso.spacing
        want = np.zeros((ny, nx, 2))
        for y in range(ny):
            for x in range(nx):
                if y == 0:
                    want[y, x, 0] = (vals[1, x] - vals[0, x]) / hy
                elif y == ny - 1:
                    want[y, x, 0] = (vals[-1, x] - vals[-2, x]) / hy
                else:
                    want[y, x, 0] = (vals[y + 1, x] - vals[y - 1, x]) / (2 * hy)
                if x == 0:
                    want[y, x, 1] = (vals[y, 1] - vals[y, 0]) / hx
                elif x == nx - 1:
                    want[y, x, 1] = (vals[y, -1] - vals[y, -2]) / hx
                else:
                    want[y, x, 1] = (vals[y, x + 1] - vals[y, x - 1]) / (2 * hx)
        np.testing.assert_array_equal(got, want)

    def test_affine_image_slope_at_interior(self, grid2d_aniso):
        pos = grid2d_aniso.node_positions()
        img = ScalarImage(grid2d_aniso, 1.5 * pos[..., 0] - 0.75 * pos[..., 1])
        g = gradient_central(img).vectors
        np.testing.assert_allclose(g[1:-1, 1:-1, 0], 1.5, atol=1e-12)
        np.testing.assert_allclose(g[1:-1, 1:-1, 1], -0.75, atol=1e-12)


class TestInterpInternals:
    def test_point_grad_matches_fd(self, grid2d_aniso, rng):
        vals = rng.uniform(0, 1, grid2d_aniso.dims)
        pts = np.stack(
            [rng.uniform(0.1, 3.3, 40), rng.uniform(5.2, 20.0, 40)], axis=1
        )
        _, grad = interp_with_point_grad(vals, grid2d_aniso, pts)
        h = 1e-7
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fp = interp_values(vals, grid2d_aniso, pts + e)
            fm = interp_values(vals, grid2d_aniso, pts - e)
            np.testing.assert_allclose(grad[:, a], (fp - fm) / (2 * h), atol=1e-6)

    def test_point_grad_zero_outside(self, grid2d_aniso, rng):
        vals = rng.uniform(0, 1, grid2d_aniso.dims)
        pts = np.array([[-5.0, 4.0]])  # left of the domain along axis 0
        _, grad = interp_with_point_grad(vals, grid2d_aniso, pts)
        assert grad[0, 0] == 0.0

    def test_splat_is_adjoint_of_gather(self, grid2d_aniso, rng):
        vals = rng.uniform(0, 1, grid2d_aniso.dims)
        pts = np.stack(
            [rng.uniform(-1.5, 4.0, 25), rng.uniform(2.0, 22.0, 25)], axis=1
        )
        adj = rng.standard_normal(25)
        gathered = interp_values(vals, grid2d_aniso, pts)
        splatted = splat_adjoint(grid2d_aniso.dims, grid2d_aniso, pts, adj)
        # <gather(v), adj> == <v, splat(adj)> for the same points
        assert np.dot(gathered, adj) == pytest.approx(np.sum(vals * splatted), rel=1e-12)


def _oracle(values, geom, pts, adj):
    """Per-point, per-corner scalar loops: gather, point gradient and splat.

    Same arithmetic and accumulation order as the multilinear stencil, one
    Python float at a time; the splat adds corner by corner, point by point.
    """
    d = geom.ndim
    chan = values.reshape(geom.dims + (-1,))
    c = chan.shape[-1]
    m = pts.shape[0]
    vals, grad = np.zeros((m, c)), np.zeros((m, c, d))
    splat = np.zeros(geom.dims + (c,))
    cells = []
    for j, p in enumerate(pts):
        i0, f, inside = [], [], []
        for a in range(d):
            u = (float(p[a]) - geom.origin[a]) / geom.spacing[a]
            hi = geom.dims[a] - 1.0
            uc = min(max(u, 0.0), hi)
            i0.append(min(int(uc), geom.dims[a] - 2))
            f.append(uc - i0[-1])
            inside.append(1.0 if 0.0 < u < hi else 0.0)
        cells.append((i0, f))
        for corner in itertools.product((0, 1), repeat=d):
            node = chan[tuple(i + b for i, b in zip(i0, corner))]
            w = 1.0
            for a, bit in enumerate(corner):
                w = w * (f[a] if bit else 1.0 - f[a])
            for k in range(c):
                vals[j, k] = vals[j, k] + w * node[k]
            for a in range(d):
                dw = 1.0
                for b, bit in enumerate(corner):
                    if b != a:
                        dw = dw * (f[b] if bit else 1.0 - f[b])
                if corner[a] == 0:
                    dw = -dw
                dw = dw * (1.0 / geom.spacing[a]) * inside[a]
                for k in range(c):
                    grad[j, k, a] = grad[j, k, a] + dw * node[k]
    for corner in itertools.product((0, 1), repeat=d):
        for j, (i0, f) in enumerate(cells):
            w = 1.0
            for a, bit in enumerate(corner):
                w = w * (f[a] if bit else 1.0 - f[a])
            idx = tuple(i + b for i, b in zip(i0, corner))
            for k in range(c):
                splat[idx + (k,)] = splat[idx + (k,)] + w * adj.reshape(m, c)[j, k]
    return vals, grad, splat


def _probe_points(geom, rng):
    """Interior points, nodes, the upper faces, and points clamped past every face and corner."""
    lo, hi = geom.bounds
    span = hi - lo
    inner = lo + span * rng.uniform(0, 1, (40, geom.ndim))
    nodes = geom.to_physical(rng.integers(0, np.asarray(geom.dims), (6, geom.ndim)))
    outside = []
    for side in itertools.product((-1, 0, 1), repeat=geom.ndim):
        q = lo + span * rng.uniform(0.1, 0.9, geom.ndim)
        side = np.asarray(side)
        q = np.where(side < 0, lo - 1.5 * np.asarray(geom.spacing), q)
        q = np.where(side > 0, hi + 2.5 * np.asarray(geom.spacing), q)
        outside.append(q)
    return np.concatenate([inner, nodes, [hi, lo], outside])


class TestStencil:
    @pytest.mark.parametrize(
        "geom",
        [
            GridGeometry((8, 10), (0.5, 2.0), (-1.0, 3.0)),
            GridGeometry((5, 4, 6), (1.5, 0.75, 1.0), (2.0, -1.0, 0.5)),
        ],
        ids=["2d", "3d"],
    )
    @pytest.mark.parametrize("channels", [(), (3,)], ids=["scalar", "channels"])
    def test_matches_per_corner_loop(self, geom, channels, rng):
        pts = _probe_points(geom, rng)
        values = rng.standard_normal(geom.dims + channels)
        adj = rng.standard_normal((pts.shape[0],) + channels)
        vals, grad, splat = _oracle(values, geom, pts, adj)
        st = Stencil(geom, pts)
        np.testing.assert_array_equal(st.gather(values), vals.reshape(st.gather(values).shape))
        np.testing.assert_array_equal(st.point_grad(values), grad.reshape((-1,) + channels + (geom.ndim,)))
        np.testing.assert_array_equal(
            st.splat(adj).reshape(geom.dims + channels), splat.reshape(geom.dims + channels)
        )
        # the contraction regroups the oracle's sums, so it matches to rounding
        want = np.einsum("nca,nc->na", grad, adj.reshape(pts.shape[0], -1))
        got = st.point_grad_dot(values, adj)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_clamped_axes_have_zero_gradient(self, rng):
        geom = GridGeometry((5, 4, 6), (1.5, 0.75, 1.0), (2.0, -1.0, 0.5))
        pts = _probe_points(geom, rng)
        lo, hi = geom.bounds
        outside = (pts <= lo) | (pts >= hi)
        assert outside.any()
        st = Stencil(geom, pts)
        for channels in [(), (3,)]:
            values = rng.standard_normal(geom.dims + channels)
            grad = st.point_grad(values)
            dot = st.point_grad_dot(values, rng.standard_normal((pts.shape[0],) + channels))
            assert np.all(np.moveaxis(grad, -1, 1)[outside] == 0.0)
            assert np.all(dot[outside] == 0.0)

    def test_wrappers_keep_leading_shape(self, grid2d_aniso, rng):
        vals = rng.standard_normal(grid2d_aniso.dims + (2,))
        pts = _probe_points(grid2d_aniso, rng)[:30].reshape(5, 6, 2)
        assert interp_values(vals, grid2d_aniso, pts).shape == (5, 6, 2)
        v, g = interp_with_point_grad(vals, grid2d_aniso, pts)
        assert v.shape == (5, 6, 2) and g.shape == (5, 6, 2, 2)
        out = splat_adjoint(grid2d_aniso.dims + (2,), grid2d_aniso, pts, np.ones((30, 2)))
        assert out.shape == grid2d_aniso.dims + (2,)
        assert np.sum(out) == pytest.approx(60.0, rel=1e-12)
