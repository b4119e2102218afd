import numpy as np
import pytest

from slidereg.errors import DivergenceError
from slidereg.flow import (
    integrate,
    _Transport,
    _flow_path,
)
from slidereg.geometry import DeformationMap, GridGeometry, identity_map, interp_values
from slidereg.kernels import KernelSpec
from slidereg.momenta import MomentumSet, TimeMomenta, VelocityAssembler, control_lattice

from oracles import block, jacobian_fd, push

GRID = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
GAUSS = KernelSpec("gaussian", 4.0)


def constant_momenta(ms, T):
    return TimeMomenta(tuple(ms for _ in range(T)))


def single_zeroth(center, a):
    pts = np.asarray(center, float)[None, :]
    return MomentumSet(pts, np.asarray(a, float)[None, :], np.zeros((1, 2, 2)))


class TestIntegrate:
    def test_zero_momenta_identity(self):
        tm = TimeMomenta.zeros(np.array([[16.0, 16.0]]), 4)
        fp = integrate(tm, GAUSS, GRID)
        pos = GRID.node_positions()
        assert (fp.final.direction, fp.final_inverse.direction) == ("forward", "inverse")
        for m in (fp.final, fp.final_inverse):
            np.testing.assert_array_equal(m.targets, pos)

    def test_constant_velocity_translates(self):
        # a dense lattice of equal zeroth momenta only approximates a constant
        # field; build the exact constant case through a synthetic velocity
        # by exploiting linearity: kernel value at the single node the map
        # reads is 1, so one momentum per node reproduces c exactly.
        c = np.array([0.25, -0.5])
        pts = GRID.node_positions().reshape(-1, 2)
        # solve for momenta giving exactly v=c at nodes: with wendland scale
        # below the node spacing the Gram is the identity
        spec = KernelSpec("wendland_c0_mult", 0.9)
        m0 = np.tile(c, (pts.shape[0], 1))
        ms = MomentumSet(pts, m0, np.zeros((pts.shape[0], 2, 2)))
        fp = integrate(constant_momenta(ms, 4), spec, GRID)
        pos = GRID.node_positions()
        np.testing.assert_allclose(fp.final.targets, pos + c, atol=1e-12)
        # the inverse is exact wherever the upwind lookups stay inside the
        # domain; the boundary clamp contaminates one extra row per step
        inner = (slice(4, -4), slice(4, -4))
        np.testing.assert_allclose(
            fp.final_inverse.targets[inner], (pos - c)[inner], atol=1e-12
        )

    def test_local_bump_matches_fine_step_reference(self):
        ms = single_zeroth([16.0, 16.0], [0.0, 1.0])
        coarse = integrate(constant_momenta(ms, 10), GAUSS, GRID)
        fine = integrate(constant_momenta(ms, 200), GAUSS, GRID)
        err = np.max(np.abs(coarse.final.targets - fine.final.targets))
        assert err <= 1e-2 * 1.0

    def test_refinement_halving_ratio(self):
        ms = single_zeroth([16.0, 16.0], [1.0, 1.5])
        ref = integrate(constant_momenta(ms, 256), GAUSS, GRID).final.targets
        errs = []
        for T in (8, 16):
            tm = TimeMomenta(tuple(ms for _ in range(T)))
            errs.append(np.max(np.abs(integrate(tm, GAUSS, GRID).final.targets - ref)))
        ratio = errs[1] / errs[0]
        assert 0.3 <= ratio <= 0.7  # first-order scheme halves the error

    def test_positive_jacobian_for_smooth_flow(self):
        ms = single_zeroth([16.0, 16.0], [2.0, 3.0])
        fp = integrate(constant_momenta(ms, 10), GAUSS, GRID)
        pos = GRID.node_positions()
        for x in pos[2:-2:3, 2:-2:3].reshape(-1, 2):
            assert np.linalg.det(jacobian_fd(fp.final, x, 0.5)) > 0.0

    def test_holds_one_velocity_at_a_time(self, rng):
        # what integrate allocates above its entry on a 16^3 grid with T = 10
        # (wendland, stride 2, random momenta), in fields of 16^3 x 3 doubles:
        # it reads 9.9 (numpy 2.4.6), as each map draws its velocities from its
        # own generator; it read 19.2 while all T velocities were held for both
        import tracemalloc

        grid = GridGeometry((16,) * 3, (1.0,) * 3, (0.0,) * 3)
        pts = control_lattice(grid, 2)
        n = len(pts)
        tm = TimeMomenta(tuple(
            MomentumSet(pts, 0.3 * rng.standard_normal((n, 3)), 0.3 * rng.standard_normal((n, 3, 3)))
            for _ in range(10)
        ))
        spec = KernelSpec("wendland_c0_mult", 4.0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            integrate(tm, spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 12 * grid.node_count * 3 * 8

    def test_matches_a_held_list_of_velocities(self, rng):
        # drawing each map's velocities from a generator changes no bit of either
        # map against a transport and a push fed one list of all T velocities
        pts = control_lattice(GRID, 4)
        n = len(pts)
        tm = TimeMomenta(tuple(
            MomentumSet(pts, 0.3 * rng.standard_normal((n, 2)), 0.3 * rng.standard_normal((n, 2, 2)))
            for _ in range(6)
        ))
        asm = VelocityAssembler(GAUSS, GRID, tm.points)
        velocities = [asm.velocity(M) for M in tm.block]
        tr = _Transport(GRID, tm.T, False)
        tr.advect(velocities)
        held = _flow_path(velocities, tr.inverse_map(), GRID, tm.T)
        fp = integrate(tm, GAUSS, GRID)
        np.testing.assert_array_equal(fp.final.targets, held.final.targets)
        np.testing.assert_array_equal(fp.final_inverse.targets, held.final_inverse.targets)
        assert not np.array_equal(fp.final.targets, GRID.node_positions())


class TestFlowPath:
    def test_consumes_a_generator(self):
        # the forward push draws each velocity once, in order, from a generator
        ms = single_zeroth([16.0, 16.0], [1.0, -0.5])
        tm = constant_momenta(ms, 4)
        want = integrate(tm, GAUSS, GRID)
        asm = VelocityAssembler(GAUSS, GRID, tm.points)
        drawn = []

        def velocities():
            for k, step in enumerate(tm.steps):
                drawn.append(k)
                yield asm.velocity(block(step.m0, step.m1))

        fp = _flow_path(velocities(), want.final_inverse, GRID, tm.T)
        assert drawn == [0, 1, 2, 3]
        np.testing.assert_array_equal(fp.final.targets, want.final.targets)
        assert fp.final_inverse is want.final_inverse

    def test_non_finite_forward_map_raises(self):
        v = np.zeros((2, GRID.node_count))
        bad = np.full_like(v, np.nan)
        with pytest.raises(DivergenceError, match="after step 2"):
            _flow_path(iter([v, bad, v]), identity_map(GRID, "inverse"), GRID, 3)

    @pytest.mark.parametrize(
        "grid", [GRID, GridGeometry((6, 5, 7), (1.5, 0.75, 1.0), (2.0, -1.0, 0.5))], ids=["2d", "3d"]
    )
    def test_matches_the_node_major_push(self, grid, rng):
        # the push through a stencil of channel-major rows equals phi + dt * interp_values(v, grid, phi)
        # on node-major arrays bit for bit, also where the points are pushed past the faces
        T, d = 3, grid.ndim
        extent = (np.asarray(grid.dims) - 1.0) * np.asarray(grid.spacing)
        velocities = [rng.uniform(-0.5, 0.5, (d, grid.node_count)) * extent[:, None] for _ in range(T)]
        fp = _flow_path(iter(velocities), identity_map(grid, "inverse"), grid, T)
        lo, hi = grid.bounds
        assert np.any((fp.final.targets < lo) | (fp.final.targets > hi))
        np.testing.assert_array_equal(fp.final.targets, push(velocities, grid, T))


class TestAdvectInverse:
    """``_Transport.advect``, the transport of the inverse map."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_velocity_raises(self, bad):
        v = np.zeros((2, GRID.node_count))
        v[1, 7] = bad
        with pytest.raises(DivergenceError, match="at step 1"):
            _Transport(GRID, 1).advect([v])

    def test_raises_at_the_bad_step(self):
        v = np.zeros((2, GRID.node_count))
        bad = v.copy()
        bad[0, 0] = np.nan
        tr = _Transport(GRID, 3)
        tr.advect([v, v, v])
        with pytest.raises(DivergenceError, match="at step 3"):
            tr.advect([v, v, bad])
        assert tr.final is None  # the failed pass leaves no final sample, nor the last pass's

    @pytest.mark.parametrize("T", [1, 2, 3, 6])
    def test_forward_only_transport_keeps_three_maps_and_matches_a_full_one(self, T):
        rng = np.random.default_rng(T)
        vs = [rng.uniform(-2.0, 2.0, (2, GRID.node_count)) for _ in range(T)]
        full, short = _Transport(GRID, T), _Transport(GRID, T, adjoint=False)
        full.advect(vs)
        short.advect(vs)
        assert len(short.maps) == min(T + 1, 3)
        np.testing.assert_array_equal(short.inverse_map().targets, full.inverse_map().targets)
        np.testing.assert_array_equal(short.final.base, full.final.base)
        np.testing.assert_array_equal(short.final.frac, full.final.frac)

    @pytest.mark.parametrize("T, count", [(1, 2), (2, 3), (3, 4), (10, 7)])
    def test_adjoint_transport_keeps_the_even_maps_psi_T_and_one_odd_map(self, T, count):
        # psi_0, psi_2, ..., psi_T and, for T > 1, one map the odd psi_k share
        assert len(_Transport(GRID, T).maps) == count

    @pytest.mark.parametrize("T", [2, 8])
    def test_any_transport_keeps_two_stencil_buffer_sets(self, T):
        # one set that every step overwrites and one for the final sample,
        # whether or not the transport has an adjoint
        for adjoint in (True, False):
            tr = _Transport(GRID, T, adjoint)
            assert len(tr.base) == len(tr.frac) == 2

    def test_grid_past_the_int32_index_is_refused_before_allocating(self, monkeypatch):
        # the limit is lowered so that a small grid stands in for one of 2**31 nodes
        import tracemalloc

        from slidereg import flow

        monkeypatch.setattr(flow, "_MAX_NODES", 100)
        grid = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int32"):
                _Transport(grid, 1000)  # its maps alone would be 4 MB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        monkeypatch.setattr(flow, "_MAX_NODES", 257)
        assert _Transport(grid, 2).base.dtype == np.int32


class TestJacobianFD:
    def test_identity(self):
        m = identity_map(GRID)
        np.testing.assert_allclose(jacobian_fd(m, [10.0, 12.0], 0.5), np.eye(2), atol=1e-12)

    def test_affine_map_recovered(self):
        A = np.array([[1.1, 0.3], [-0.2, 0.9]])
        pos = GRID.node_positions()
        targets = np.einsum("ab,ijb->ija", A, pos)
        m = DeformationMap(GRID, targets, "forward")
        np.testing.assert_allclose(jacobian_fd(m, [9.0, 11.0], 0.5), A, atol=1e-9)

    def test_boundary_proximity_rejected(self):
        with pytest.raises(ValueError):
            jacobian_fd(identity_map(GRID), [0.2, 10.0], 0.5)


class TestInverseConsistency:
    """The round trip psi(phi(x)) - x of the two end maps, in voxel units."""

    def round_trip(self, fp, region):
        back = interp_values(fp.final_inverse.targets, GRID, fp.final.targets[region])
        return (back - GRID.node_positions()[region]) / np.asarray(GRID.spacing)

    def test_zero_momenta(self):
        tm = TimeMomenta.zeros(np.array([[16.0, 16.0]]), 3)
        fp = integrate(tm, GAUSS, GRID)
        assert np.all(self.round_trip(fp, np.ones(GRID.dims, bool)) == 0.0)

    def test_smooth_bump_round_trip_small(self):
        ms = single_zeroth([16.0, 16.0], [1.0, 1.0])
        fp = integrate(constant_momenta(ms, 20), GAUSS, GRID)
        region = np.zeros(GRID.dims, bool)
        region[3:-3, 3:-3] = True
        assert np.max(np.linalg.norm(self.round_trip(fp, region), axis=-1)) <= 0.1
