import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidereg.geometry import (
    DeformationMap,
    GridGeometry,
    ScalarImage,
    Stencil,
    identity_map,
    interp_values,
    interp_with_point_grad,
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

    @pytest.mark.parametrize(
        "spacing, origin",
        [((1.0, np.nan), (0.0, 0.0)), ((np.inf, 1.0), (0.0, 0.0)), ((1.0, 1.0), (np.nan, 0.0)),
         ((1.0, 1.0), (0.0, -np.inf))],
    )
    def test_rejects_non_finite_spacing_or_origin(self, spacing, origin):
        # a NaN origin used to pass and surface later as a non-finite velocity
        with pytest.raises(ValueError, match="must be finite"):
            GridGeometry((4, 5), spacing, origin)

    @pytest.mark.parametrize("count", [12.9, True], ids=repr)
    def test_rejects_non_integer_dims(self, count):
        # int() used to turn (12.9, 12) into (12, 12)
        with pytest.raises(ValueError, match="dims must be an integer"):
            GridGeometry((count, 12), (1.0, 1.0), (0.0, 0.0))

    def test_integral_float_dims_become_int(self):
        dims = GridGeometry((12.0, np.int64(12)), (1.0, 1.0), (0.0, 0.0)).dims
        assert dims == (12, 12) and all(type(n) is int for n in dims)

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

    def test_map_direction_checked(self, grid2d):
        with pytest.raises(ValueError):
            DeformationMap(grid2d, grid2d.node_positions(), "sideways")

    def test_identity_map_targets_are_node_positions(self, grid2d_aniso):
        m = identity_map(grid2d_aniso)
        np.testing.assert_array_equal(m.targets, grid2d_aniso.node_positions())
        assert np.all(m.displacement() == 0.0)


class TestSampleLinear:
    """Multilinear sampling of an image at single points through interp_values."""

    def test_grid_nodes_exact(self, random_image, rng):
        geom = random_image.geometry
        for _ in range(10):
            ij = (rng.integers(0, geom.dims[0]), rng.integers(0, geom.dims[1]))
            p = geom.to_physical(ij)
            assert interp_values(random_image.values, geom, p[None, :])[0] == random_image.values[ij]

    def test_midpoint_of_two_nodes(self, grid2d):
        vals = np.zeros(grid2d.dims)
        vals[3, 4] = 0.0
        vals[3, 5] = 1.0
        assert interp_values(vals, grid2d, grid2d.to_physical([[3, 4.5]]))[0] == pytest.approx(0.5)

    def test_outside_clamps_to_boundary(self, random_image):
        geom = random_image.geometry
        p = geom.to_physical([[3, geom.dims[1] - 1 + 3.0]])  # 3 voxels past the edge
        assert interp_values(random_image.values, geom, p)[0] == random_image.values[3, geom.dims[1] - 1]

    @settings(deadline=None, max_examples=30)
    @given(
        a=st.floats(-3, 3), by=st.floats(-3, 3), bx=st.floats(-3, 3),
        py=st.floats(0, 7), px=st.floats(0, 9),
    )
    def test_affine_image_exact_inside(self, a, by, bx, py, px):
        geom = GridGeometry((8, 10), (1.0, 1.0), (0.0, 0.0))
        pos = geom.node_positions()
        got = interp_values(a + by * pos[..., 0] + bx * pos[..., 1], geom, np.array([[py, px]]))[0]
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


class TestRefusedPoints:
    """The interpolation functions refuse points a stencil cannot locate."""

    GEOM = GridGeometry((4, 4), (1.0, 1.0), (0.0, 0.0))
    ADAPTERS = {
        "interp_values": lambda g, p: interp_values(np.zeros(g.dims), g, p),
        "interp_with_point_grad": lambda g, p: interp_with_point_grad(np.zeros(g.dims), g, p),
        "splat_adjoint": lambda g, p: splat_adjoint(g.dims, g, p, np.ones(len(p))),
    }

    @pytest.mark.parametrize("adapter", ADAPTERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_point(self, adapter, bad):
        # a NaN on the last axis used to hang in np.take on the index it casts to
        for pts in ([[bad, 1.0]], [[1.0, 1.0], [1.0, bad]]):
            with pytest.raises(ValueError, match="points must be finite"):
                self.ADAPTERS[adapter](self.GEOM, np.array(pts))

    @pytest.mark.parametrize("adapter", ADAPTERS)
    def test_wrong_point_dimension(self, adapter):
        # it used to fail later in a bare reshape
        with pytest.raises(ValueError, match=r"points must have shape \(\.\.\., 2\), got \(2, 3\)"):
            self.ADAPTERS[adapter](self.GEOM, np.ones((2, 3)))


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
    """Interior points, nodes, points on each lower face with the other axes
    inside, the upper faces, and points clamped past every face and corner."""
    lo, hi = geom.bounds
    span = hi - lo
    inner = lo + span * rng.uniform(0, 1, (40, geom.ndim))
    nodes = geom.to_physical(rng.integers(0, np.asarray(geom.dims), (6, geom.ndim)))
    # on a lower face frac is 0 as at an interior node; only the cell index tells them apart
    lower = lo + span * rng.uniform(0.1, 0.9, (geom.ndim, geom.ndim))
    lower[np.diag_indices(geom.ndim)] = lo
    outside = []
    for side in itertools.product((-1, 0, 1), repeat=geom.ndim):
        q = lo + span * rng.uniform(0.1, 0.9, geom.ndim)
        side = np.asarray(side)
        q = np.where(side < 0, lo - 1.5 * np.asarray(geom.spacing), q)
        q = np.where(side > 0, hi + 2.5 * np.asarray(geom.spacing), q)
        outside.append(q)
    return np.concatenate([inner, nodes, lower, [hi, lo], outside])


def _collision_points(geom, rng):
    """Many points in the 2^d cells around one node, which reach it through
    different corners, repeats of one point, and points clamped onto the same
    boundary nodes from several sides, shuffled together."""
    lo, hi = geom.bounds
    spacing = np.asarray(geom.spacing)
    cell = lo + spacing * (1.0 + rng.uniform(0, 2, (60, geom.ndim)))
    repeats = np.tile(lo + spacing * 1.25, (5, 1))
    below = lo - spacing * rng.uniform(0.5, 3.0, (8, geom.ndim))
    above = hi + spacing * rng.uniform(0.5, 3.0, (8, geom.ndim))
    onto_lo = np.concatenate([below, np.repeat(lo[None], 4, axis=0)])
    edge = np.where(rng.uniform(0, 1, (8, geom.ndim)) < 0.5, hi, hi + spacing)
    pts = np.concatenate([cell, repeats, onto_lo, above, edge])
    return pts[rng.permutation(len(pts))]


GEOMS = [
    GridGeometry((8, 10), (0.5, 2.0), (-1.0, 3.0)),
    GridGeometry((5, 4, 6), (1.5, 0.75, 1.0), (2.0, -1.0, 0.5)),
]


class TestStencil:
    """The stencil on rows: (d, m) points, (c, node_count) node data and (c, m) samples."""

    @pytest.mark.parametrize("geom", GEOMS, ids=["2d", "3d"])
    @pytest.mark.parametrize("channels", [(), (3,)], ids=["scalar", "channels"])
    def test_matches_per_corner_loop(self, geom, channels, rng):
        pts = _probe_points(geom, rng)
        m, c = len(pts), math.prod(channels)
        rows, adj = rng.standard_normal((c, geom.node_count)), rng.standard_normal((c, m))
        values = rows.T.reshape(geom.dims + channels)
        vals, grad, splat = _oracle(values, geom, pts, adj.T)
        st = Stencil(geom, pts.T)
        np.testing.assert_array_equal(st.gather(rows), vals.T)
        np.testing.assert_array_equal(st.splat(adj), splat.reshape(-1, c).T)
        # the contraction regroups the oracle's sums, so it matches to rounding
        want = np.einsum("nca,cn->an", grad, adj)
        got = st.point_grad_dot(rows, adj)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the wrapper's Jacobian, one unit-adjoint contraction per channel
        jac = interp_with_point_grad(values, geom, pts)[1]
        assert jac.shape == (m,) + channels + (geom.ndim,)
        assert np.max(np.abs(jac - grad.reshape(jac.shape))) <= 1e-12 * np.max(np.abs(grad))

    @pytest.mark.parametrize("geom", GEOMS, ids=["2d", "3d"])
    @pytest.mark.parametrize("c", [1, 3], ids=["scalar", "channels"])
    def test_colliding_points_match_per_corner_loop(self, geom, c, rng):
        # the splat adds many weights onto the same nodes, so its order shows
        pts = _collision_points(geom, rng)
        rows, adj = rng.standard_normal((c, geom.node_count)), rng.standard_normal((c, len(pts)))
        vals, _, splat = _oracle(rows.T.reshape(geom.dims + (c,)), geom, pts, adj.T)
        st = Stencil(geom, pts.T)
        np.testing.assert_array_equal(st.gather(rows), vals.T)
        np.testing.assert_array_equal(st.splat(adj), splat.reshape(-1, c).T)

    @pytest.mark.parametrize("geom", GEOMS, ids=["2d", "3d"])
    def test_channel_major_gather_output_feeds_back(self, geom, rng):
        # the transport passes each gathered (d, node_count) block on as node
        # data, adjoint and points; a strided block, such as the transpose of a
        # node-major field, must give what its contiguous copy gives
        lo, hi = geom.bounds
        d, n = geom.ndim, geom.node_count
        st = Stencil(geom, (lo + (hi - lo) * rng.uniform(-0.1, 1.1, (n, d))).T)
        out = st.gather(rng.standard_normal((d, n)))
        assert out.shape == (d, n) and out.flags.c_contiguous
        strided = rng.standard_normal((n, d)).T
        assert not strided.flags.c_contiguous
        copy = np.ascontiguousarray(strided)
        np.testing.assert_array_equal(st.gather(strided), st.gather(copy))
        np.testing.assert_array_equal(st.point_grad_dot(strided, out), st.point_grad_dot(copy, out))
        np.testing.assert_array_equal(st.point_grad_dot(out, strided), st.point_grad_dot(out, copy))
        np.testing.assert_array_equal(st.splat(strided), st.splat(copy))
        points = (lo + (hi - lo) * rng.uniform(-0.1, 1.1, (n, d))).T
        again, again_copy = Stencil(geom, points), Stencil(geom, np.ascontiguousarray(points))
        for name in ("base", "frac"):
            np.testing.assert_array_equal(getattr(again, name), getattr(again_copy, name))
        np.testing.assert_array_equal(again.gather(out), again_copy.gather(out))

    @pytest.mark.parametrize("geom", GEOMS, ids=["2d", "3d"])
    def test_given_buffers_match_fresh_ones(self, geom, rng):
        # a stencil filling caller-given buffers (here dirty) equals a fresh one
        pts = _probe_points(geom, rng)
        lo, hi = geom.bounds
        assert np.any((pts < lo) | (pts > hi))  # clamped points are covered
        m, d = pts.shape
        buffers = (np.full(m, 99, np.intp), np.full((d, m), np.nan))
        given, fresh = Stencil(geom, pts.T, buffers), Stencil(geom, pts.T)
        for name, buf in zip(("base", "frac"), buffers, strict=True):
            assert getattr(given, name) is buf
            np.testing.assert_array_equal(buf, getattr(fresh, name))
        rows = rng.standard_normal((3, geom.node_count))
        adj = rng.standard_normal((3, m))
        out = np.full((3, m), np.nan)
        np.testing.assert_array_equal(given.gather(rows, out), fresh.gather(rows))
        assert given.gather(rows, out) is out
        np.testing.assert_array_equal(given.point_grad_dot(rows, adj), fresh.point_grad_dot(rows, adj))
        np.testing.assert_array_equal(given.splat(adj), fresh.splat(adj))

    def test_gather_into_a_given_block_peaks_at_per_call_scratch(self, rng):
        # what one 3-channel gather of contiguous node rows into a given block
        # allocates above its entry on a 16^3 stencil (m = 4096 points, 8
        # corners): ``1 - frac``, the prefix-weight block and one reused corner
        # row block and index buffer. It reads about 299,000 B; the bound is
        # the 461,984 B it read with a fresh weight, index array and gathered
        # block per corner and a broadcast weight multiply (numpy 2.4), less the
        # 98,304 B of the contiguous copy of node-major data that it made then.
        import tracemalloc

        geom = GridGeometry((16, 16, 16), (1.0, 0.75, 1.5), (0.0, -2.0, 1.0))
        pts = geom.node_positions() + rng.uniform(-1.5, 1.5, geom.dims + (3,))
        st = Stencil(geom, pts.reshape(-1, 3).T)
        rows = rng.standard_normal((3, geom.node_count))
        out = np.empty((3, geom.node_count))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            got = st.gather(rows, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is out
        assert peak - entry <= 461_984 - 98_304

    @pytest.mark.parametrize("geom", GEOMS, ids=["2d", "3d"])
    def test_flat_index_matches_ravel_multi_index(self, geom, rng):
        pts = _probe_points(geom, rng)
        upper = np.asarray(geom.dims) - 1
        cells = np.minimum(np.clip(geom.to_index(pts), 0, upper).astype(np.intp), upper - 1)
        np.testing.assert_array_equal(Stencil(geom, pts.T).base, np.ravel_multi_index(tuple(cells.T), geom.dims))

    def test_clamped_axes_have_zero_gradient(self, rng):
        geom = GridGeometry((5, 4, 6), (1.5, 0.75, 1.0), (2.0, -1.0, 0.5))
        pts = _probe_points(geom, rng)
        lo, hi = geom.bounds
        outside = ((pts <= lo) | (pts >= hi)).T
        assert outside.any()
        st = Stencil(geom, pts.T)
        for c in (1, 3):
            rows = rng.standard_normal((c, geom.node_count))
            dot = st.point_grad_dot(rows, rng.standard_normal((c, len(pts))))
            assert np.all(dot[outside] == 0.0)

    @pytest.mark.parametrize("geom", GEOMS, ids=["2d", "3d"])
    def test_node_planes_pass_through_only_inside(self, geom):
        # a linear field's gradient is its slope along every axis on which the
        # point lies strictly inside, also on an inner node plane (frac 0, cell
        # above 0) and just off the lower face, and exactly 0 on either face,
        # where frac alone is 0 or 1 as on an inner plane
        slope = np.arange(1.0, geom.ndim + 1.0)
        rows = (geom.node_positions() @ slope).reshape(1, -1)
        lo, hi = geom.bounds
        mid = (lo + hi) / 2.0
        cases = []
        for a in range(geom.ndim):
            h = geom.spacing[a]
            for u, passes in ((lo[a], False), (lo[a] + 1e-3 * h, True), (lo[a] + h, True), (hi[a], False)):
                p = mid.copy()
                p[a] = u
                cases.append((a, p, passes))
        pts = np.array([p for _, p, _ in cases])
        dot = Stencil(geom, pts.T).point_grad_dot(rows, np.ones((1, len(pts))))
        for row, (a, _, passes) in zip(dot.T, cases, strict=True):
            if passes:
                assert row[a] == pytest.approx(slope[a], rel=1e-12)
            else:
                assert row[a] == 0.0
            others = np.delete(np.arange(geom.ndim), a)
            np.testing.assert_allclose(row[others], slope[others], rtol=1e-12)

    def test_wrappers_keep_leading_shape(self, grid2d_aniso, rng):
        vals = rng.standard_normal(grid2d_aniso.dims + (2,))
        pts = _probe_points(grid2d_aniso, rng)[:30].reshape(5, 6, 2)
        assert interp_values(vals, grid2d_aniso, pts).shape == (5, 6, 2)
        v, g = interp_with_point_grad(vals, grid2d_aniso, pts)
        assert v.shape == (5, 6, 2) and g.shape == (5, 6, 2, 2)
        out = splat_adjoint(grid2d_aniso.dims + (2,), grid2d_aniso, pts, np.ones((30, 2)))
        assert out.shape == grid2d_aniso.dims + (2,)
        assert np.sum(out) == pytest.approx(60.0, rel=1e-12)
