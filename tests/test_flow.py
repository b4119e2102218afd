import numpy as np
import pytest

from slidereg.errors import DivergenceError, UnsupportedKernelError
from slidereg.flow import (
    ParticleState,
    integrate,
    inverse_consistency_error,
    jacobian_fd,
    shoot_particles,
    _advect_inverse,
)
from slidereg.geometry import DeformationMap, GridGeometry, identity_map
from slidereg.kernels import KernelSpec, eval_kernel
from slidereg.momenta import MomentumSet, TimeMomenta

GRID = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
GAUSS = KernelSpec("gaussian", 4.0, 9)


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
        for m in list(fp.maps) + list(fp.inv_maps):
            np.testing.assert_array_equal(m.targets, pos)

    def test_identity_at_time_zero(self):
        tm = constant_momenta(single_zeroth([16.0, 16.0], [0.5, 1.0]), 5)
        fp = integrate(tm, GAUSS, GRID)
        pos = GRID.node_positions()
        np.testing.assert_array_equal(fp.maps[0].targets, pos)
        np.testing.assert_array_equal(fp.inv_maps[0].targets, pos)

    def test_constant_velocity_translates(self):
        # a dense lattice of equal zeroth momenta only approximates a constant
        # field; build the exact constant case through a synthetic velocity
        # by exploiting linearity: kernel value at the single node the map
        # reads is 1, so one momentum per node reproduces c exactly.
        c = np.array([0.25, -0.5])
        pts = GRID.node_positions().reshape(-1, 2)
        # solve for momenta giving exactly v=c at nodes: with wendland scale
        # below the node spacing the Gram is the identity
        spec = KernelSpec("wendland_c0_mult", 0.9, 9)
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


class TestAdvectInverse:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_velocity_raises(self, bad):
        v = np.zeros((GRID.node_count, 2))
        v[7, 1] = bad
        with pytest.raises(DivergenceError) as err:
            _advect_inverse([v], GRID, 1)
        assert err.value.step == 1

    def test_raises_at_the_bad_step(self):
        v = np.zeros((GRID.node_count, 2))
        bad = v.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DivergenceError) as err:
            _advect_inverse([v, v, bad], GRID, 3)
        assert err.value.step == 3


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


class TestShootParticles:
    def test_wendland_rejected(self):
        init = ParticleState(np.array([[10.0, 10.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(UnsupportedKernelError):
            shoot_particles(init, KernelSpec("wendland_c0_mult", 4.0, 9), 10)

    def test_single_particle_straight_line(self):
        init = ParticleState(np.array([[10.0, 10.0]]), np.array([[1.0, 2.0]]))
        states = shoot_particles(init, GAUSS, 50)
        np.testing.assert_allclose(states[-1].momenta, init.momenta, atol=1e-12)
        np.testing.assert_allclose(
            states[-1].positions, init.positions + init.momenta, atol=1e-12
        )

    def test_mirror_symmetry_preserved(self):
        pos = np.array([[12.0, 10.0], [12.0, 22.0]])
        mom = np.array([[0.0, 1.0], [0.0, -1.0]])
        states = shoot_particles(ParticleState(pos, mom), GAUSS, 100)
        for s in states:
            np.testing.assert_allclose(s.positions[0, 0], s.positions[1, 0], atol=1e-10)
            np.testing.assert_allclose(
                s.positions[0, 1] - 16.0, 16.0 - s.positions[1, 1], atol=1e-10
            )

    def test_total_momentum_conserved(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(8, 24, (4, 2))
        mom = rng.standard_normal((4, 2))
        states = shoot_particles(ParticleState(pos, mom), GAUSS, 200)
        total0 = mom.sum(axis=0)
        for s in states:
            np.testing.assert_allclose(s.momenta.sum(axis=0), total0, atol=1e-10)

    def test_two_particle_energy_drift_below_one_percent(self):
        pos = np.array([[14.0, 13.0], [18.0, 19.0]])
        mom = np.array([[0.0, 1.2], [0.4, -0.8]])
        states = shoot_particles(ParticleState(pos, mom), GAUSS, 400)

        def v_norm_sq(s):
            e = 0.0
            for j in range(2):
                for k in range(2):
                    e += s.momenta[j] @ s.momenta[k] * eval_kernel(
                        GAUSS, s.positions[j], s.positions[k]
                    )
            return e

        e0 = v_norm_sq(states[0])
        drift = max(abs(v_norm_sq(s) - e0) for s in states)
        assert drift <= 0.01 * e0


class TestInverseConsistency:
    def test_zero_momenta(self):
        tm = TimeMomenta.zeros(np.array([[16.0, 16.0]]), 3)
        fp = integrate(tm, GAUSS, GRID)
        assert inverse_consistency_error(fp, np.ones(GRID.dims, bool)) == 0.0

    def test_exact_translation_pair(self):
        c = np.array([0.75, -0.25])
        pos = GRID.node_positions()
        fwd = DeformationMap(GRID, pos + c, "forward")
        inv = DeformationMap(GRID, pos - c, "inverse")
        from slidereg.flow import FlowPath

        fp = FlowPath((identity_map(GRID), fwd), (identity_map(GRID, "inverse"), inv))
        region = np.zeros(GRID.dims, bool)
        region[2:-2, 2:-2] = True
        assert inverse_consistency_error(fp, region) <= 1e-6

    def test_smooth_bump_round_trip_small(self):
        ms = single_zeroth([16.0, 16.0], [1.0, 1.0])
        fp = integrate(constant_momenta(ms, 20), GAUSS, GRID)
        region = np.zeros(GRID.dims, bool)
        region[3:-3, 3:-3] = True
        assert inverse_consistency_error(fp, region) <= 0.1
