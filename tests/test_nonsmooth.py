import numpy as np
import pytest
from scipy.linalg import expm

from slidereg.errors import DegenerateCrossingError, DivergenceError, TangentialCrossingError
from slidereg.geometry import DeformationMap, GridGeometry, VectorField, identity_map
from slidereg.nonsmooth import (
    AffineVelocity,
    MovingHyperplane,
    PiecewiseVelocity,
    StaticCircle,
    adjoint_transport,
    detect_crossing,
    fundamental_matrix,
    saltation_sliding,
    saltation_transversal,
)

E1 = MovingHyperplane((1.0, 0.0))


def two_piece_field(v_minus, v_plus, boundary=None):
    b = boundary if boundary is not None else E1
    return PiecewiseVelocity(
        (b,),
        {(-1,): AffineVelocity.constant(v_minus), (1,): AffineVelocity.constant(v_plus)},
    )


class TestBoundaries:
    def test_hyperplane_level_set(self):
        b = MovingHyperplane((1.0, 0.0), offset=2.0, rate=0.5)
        assert b.h(0.0, [2.0, 7.0]) == 0.0
        assert b.h(2.0, [2.0, 7.0]) == -1.0
        assert b.dh_dt(1.0, [0.0, 0.0]) == -0.5

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            MovingHyperplane((2.0, 0.0))

    def test_circle_level_set_and_normal(self):
        c = StaticCircle((1.0, 1.0), 2.0)
        assert c.h(0.0, [3.0, 1.0]) == pytest.approx(0.0)
        np.testing.assert_allclose(c.unit_normal(0.0, [3.0, 1.0]), [1.0, 0.0])


class TestDetectCrossing:
    def test_same_side_none(self):
        assert detect_crossing([-2.0, 0.0], [-1.0, 0.0], 0.0, 1.0, E1) is None

    def test_linear_root_at_midpoint(self):
        t1, x1 = detect_crossing([-1.0, 0.3], [1.0, 0.3], 0.0, 1.0, E1)
        assert t1 == pytest.approx(0.5, abs=1e-9)
        assert abs(x1[0]) < 1e-9

    def test_moving_boundary_crossing(self):
        # boundary at x = t; segment from x=-0.5 to x=1.5 crosses where
        # -0.5 + 2t = t, i.e. t = 0.5
        b = MovingHyperplane((1.0, 0.0), offset=0.0, rate=1.0)
        t1, x1 = detect_crossing([-0.5, 0.0], [1.5, 0.0], 0.0, 1.0, b)
        assert t1 == pytest.approx(0.5, abs=1e-6)
        assert x1[0] == pytest.approx(0.5, abs=1e-6)

    def test_endpoint_on_boundary_degenerate(self):
        # starting exactly on the boundary makes the bracketing ill-posed
        with pytest.raises(DegenerateCrossingError):
            detect_crossing([0.0, 0.0], [2.0, 0.0], 0.0, 1.0, E1)

    def test_moving_boundary_root_at_start_degenerate(self):
        # boundary at x = t with trajectory x(t) = 2t: the only root sits at
        # the segment start, a grazing configuration
        b = MovingHyperplane((1.0, 0.0), offset=0.0, rate=1.0)
        with pytest.raises(DegenerateCrossingError):
            detect_crossing([0.0, 0.0], [2.0, 0.0], 0.0, 1.0, b)

    def test_circle_crossing(self):
        c = StaticCircle((0.0, 0.0), 1.0)
        t1, x1 = detect_crossing([0.5, 0.0], [1.5, 0.0], 0.0, 1.0, c)
        assert x1[0] == pytest.approx(1.0, abs=1e-9)


class TestSaltationTransversal:
    def test_equal_velocities_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.standard_normal(2)
            n = rng.standard_normal(2)
            n /= np.linalg.norm(n)
            dh = rng.standard_normal()
            if abs(n @ v + dh) < 1e-6:
                continue
            np.testing.assert_allclose(saltation_transversal(v, v, n, dh), np.eye(2))

    def test_closed_form_example(self):
        S = saltation_transversal([1.0, 0.0], [1.0, 2.0], [1.0, 0.0], 0.0)
        np.testing.assert_allclose(S, [[1.0, 0.0], [2.0, 1.0]])

    def test_tangential_rejected(self):
        with pytest.raises(TangentialCrossingError):
            saltation_transversal([0.0, 1.0], [1.0, 1.0], [1.0, 0.0], 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "v_minus, v_plus, n",
        [([1.0, -1e308], [1.0, 1e308], [1.0, 0.0]), ([1.7e308, 1.7e308], [0.0, 0.0], [0.6, 0.8])],
        ids=["jump", "approach_rate"],
    )
    def test_overflow_raises_divergence(self, v_minus, v_plus, n):
        # v+ - v- or n.v- overflows: a DivergenceError, not a numpy warning
        with pytest.raises(DivergenceError, match="non-finite"):
            saltation_transversal(v_minus, v_plus, n, 0.0)


class TestSaltationSliding:
    def test_projector_along_e1(self):
        np.testing.assert_array_equal(saltation_sliding([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_kills_normal_component(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            S = saltation_sliding(n)
            v = rng.standard_normal(3)
            assert abs(n @ (S @ v)) < 1e-12

    def test_idempotent(self):
        n = np.array([0.6, 0.8])
        S = saltation_sliding(n)
        np.testing.assert_allclose(S @ S, S, atol=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            saltation_sliding([1.0, 1.0])


def integrate_flow(field, x0, t, dt=1e-4):
    """Independent endpoint integrator used for smooth reference trajectories."""
    x = np.asarray(x0, float).copy()
    if isinstance(field, AffineVelocity):
        vel = lambda _t, p: field.velocity(p)
    else:
        vel = field.velocity
    now = 0.0
    while now < t - 1e-12:
        h = min(dt, t - now)
        x = x + h * vel(now, x)
        now += h
    return x


def exact_two_piece_endpoint(v_minus, v_plus, x0, t):
    """Closed-form flow endpoint for constant fields split at x1 = 0."""
    v_minus = np.asarray(v_minus, float)
    v_plus = np.asarray(v_plus, float)
    x0 = np.asarray(x0, float)
    t_hit = -x0[0] / v_minus[0]
    if not 0 < t_hit < t:
        return x0 + t * (v_minus if x0[0] < 0 else v_plus)
    return x0 + t_hit * v_minus + (t - t_hit) * v_plus


class TestFundamentalMatrix:
    @pytest.mark.parametrize(
        "t, step",
        [(float("nan"), 1e-3), (float("inf"), 1e-3), (-1.0, 1e-3),
         (1.0, 0.0), (1.0, -0.1), (1.0, float("nan")), (1.0, float("inf"))],
    )
    def test_invalid_time_or_step_rejected(self, t, step):
        # a NaN t skipped the loop and returned the identity; a zero or
        # negative step, or an infinite t, never ended it
        with pytest.raises(ValueError, match=f"t = {t}, step = {step}"):
            fundamental_matrix(AffineVelocity.constant([1.0, 0.0]), [0.0, 0.0], t, step=step)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "field, x0, message",
        [
            # opposite huge velocities on the two sides overflow v+ - v- at the crossing
            (two_piece_field([1.0, -1e308], [1.0, 1e308]), [-0.5, 0.0], "saltation matrix non-finite"),
            # A x overflows on the first step
            (AffineVelocity(np.array([[1e308, 1e308], [0.0, 0.0]]), np.zeros(2)), [1.0, 1.0],
             "trajectory non-finite at t = 0.001000"),
            # the first step reaches a sliding wall, where projecting the finite velocity overflows
            (PiecewiseVelocity((MovingHyperplane((0.8, 0.6), sliding=True),),
                               {(-1,): AffineVelocity.constant([1.7e308, -1.7e308])}),
             [-1.0, 0.0], "trajectory non-finite"),
        ],
        ids=["velocity_jump", "velocity", "sliding_velocity"],
    )
    def test_overflowing_velocity_raises(self, field, x0, message):
        with pytest.raises(DivergenceError, match=message):
            fundamental_matrix(field, x0, 1.0)

    def test_time_zero_identity(self):
        fm = fundamental_matrix(AffineVelocity.constant([1.0, 0.0]), [0.0, 0.0], 0.0)
        np.testing.assert_array_equal(fm.value, np.eye(2))
        assert fm.crossings == ()

    def test_linear_field_matches_matrix_exponential(self):
        A = np.array([[0.3, -0.8], [0.5, 0.1]])
        fm = fundamental_matrix(AffineVelocity(A, np.zeros(2)), [0.4, -0.2], 1.0, step=1e-4)
        want = expm(A)
        err = np.max(np.abs(fm.value - want)) / np.max(np.abs(want))
        assert err <= 1e-3

    def test_piecewise_constant_crossing(self):
        field = two_piece_field([1.0, 0.0], [1.0, 2.0])
        fm = fundamental_matrix(field, [-0.5, 0.0], 1.0, step=1e-3)
        np.testing.assert_allclose(fm.value, [[1.0, 0.0], [2.0, 1.0]], atol=1e-9)
        assert len(fm.crossings) == 1
        assert fm.crossings[0].time == pytest.approx(0.5, abs=1e-6)

    def test_crossing_matches_fd_flow_jacobian(self):
        v_minus, v_plus = [1.0, 0.0], [1.0, 2.0]
        field = two_piece_field(v_minus, v_plus)
        x0 = np.array([-0.5, 0.0])
        fm = fundamental_matrix(field, x0, 1.0, step=1e-3)
        eps = 1e-5
        J = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fp = exact_two_piece_endpoint(v_minus, v_plus, x0 + e, 1.0)
            fmn = exact_two_piece_endpoint(v_minus, v_plus, x0 - e, 1.0)
            J[:, i] = (fp - fmn) / (2 * eps)
        err = np.max(np.abs(fm.value - J)) / np.max(np.abs(J))
        assert err <= 1e-3

    def test_transition_property_smooth(self):
        A = np.array([[0.2, 0.6], [-0.4, 0.3]])
        field = AffineVelocity(A, np.array([0.1, -0.2]))
        x0 = np.array([0.5, 0.5])
        t1 = 0.4
        full = fundamental_matrix(field, x0, 1.0, step=1e-4)
        first = fundamental_matrix(field, x0, t1, step=1e-4)
        x1 = integrate_flow(field, x0, t1, dt=1e-4)
        # restart the remaining stretch from the intermediate point
        second = fundamental_matrix(field, x1, 1.0 - t1, step=1e-4)
        prod = second.value @ first.value
        err = np.max(np.abs(full.value - prod)) / np.max(np.abs(full.value))
        assert err <= 1e-6

    def test_sliding_contact_projects(self):
        # field pushes into the boundary from the left, then slides along it
        b = MovingHyperplane((1.0, 0.0), sliding=True)
        field = PiecewiseVelocity(
            (b,),
            {
                (-1,): AffineVelocity.constant([1.0, 1.0]),
                (1,): AffineVelocity.constant([1.0, 1.0]),
            },
        )
        fm = fundamental_matrix(field, [-0.5, 0.0], 1.0, step=1e-3)
        assert len(fm.crossings) == 1
        S = fm.crossings[0].saltation
        np.testing.assert_allclose(S, np.diag([0.0, 1.0]), atol=1e-12)
        # after the hit the motion is tangential: x stays on the boundary
        np.testing.assert_allclose(fm.value, np.diag([0.0, 1.0]), atol=1e-9)

    def test_velocity_perturbation_jump_rule(self):
        # sensitivity to a field perturbation: the pre-crossing part is
        # transported through the saltation jump, the post part directly
        v_minus = np.array([1.0, 0.0])
        v_plus = np.array([1.0, 2.0])
        x0 = np.array([-0.5, 0.0])
        h_dir = np.array([0.3, -0.4])  # constant velocity perturbation

        def endpoint(eps):
            return exact_two_piece_endpoint(
                v_minus + eps * h_dir, v_plus + eps * h_dir, x0, 1.0
            )

        eps = 1e-5
        fd = (endpoint(eps) - endpoint(-eps)) / (2 * eps)

        t1 = 0.5
        n = np.array([1.0, 0.0])
        S = saltation_transversal(v_minus, v_plus, n, 0.0)
        # d(t1)/d(eps): crossing time shifts by -t1 (n.h)/(n.v-) for the
        # perturbed approach; pre-crossing sensitivity integrates h over
        # [0, t1], post over [t1, 1]
        pre = t1 * h_dir
        post = (1.0 - t1) * h_dir
        want = S @ pre + post
        err = np.max(np.abs(fd - want)) / np.max(np.abs(want))
        assert err <= 1e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_saltation_product_raises_at_the_crossing(self):
        # M grows like exp(10 t) before the slow trajectory crosses; the jump
        # then holds about 2e299, so S @ M overflows at the crossing itself
        field = PiecewiseVelocity(
            (E1,),
            {
                (-1,): AffineVelocity(np.diag([10.0, 0.0]), np.array([5.00000000001, 0.0])),
                (1,): AffineVelocity.constant([0.0, 1e300]),
            },
        )
        with pytest.raises(DivergenceError) as exc:
            fundamental_matrix(field, [-0.5, 0.0], 4.0)
        # a harmless piece beyond the boundary leaves the flow up to the crossing, and so its time, unchanged
        safe = PiecewiseVelocity((E1,), {**field.pieces, (1,): AffineVelocity.constant([0.0, 1.0])})
        t1 = fundamental_matrix(safe, [-0.5, 0.0], 4.0).crossings[0].time
        assert str(exc.value) == f"fundamental matrix non-finite at t = {t1:.6f}"


class TestAdjointTransport:
    GRID = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))

    def _field(self, rng):
        return VectorField(self.GRID, rng.standard_normal(self.GRID.dims + (2,)))

    def test_identity(self, rng):
        v = self._field(rng)
        out = adjoint_transport(np.eye(2), identity_map(self.GRID, "inverse"), v)
        np.testing.assert_allclose(out.vectors, v.vectors, atol=1e-12)

    def test_translation_shifts_field(self, rng):
        v = self._field(rng)
        pos = self.GRID.node_positions()
        inv = DeformationMap(self.GRID, pos - np.array([0.0, 1.0]), "inverse")
        out = adjoint_transport(np.eye(2), inv, v)
        np.testing.assert_allclose(out.vectors[:, 1:], v.vectors[:, :-1], atol=1e-12)

    def test_affine_matches_symbolic_composition(self):
        # phi(x) = A x, smooth linear field v(x) = B x:
        # (Dphi v) o phi^{-1}(x) = A B A^{-1} x
        A = np.array([[1.2, 0.1], [-0.05, 0.9]])
        B = np.array([[0.3, -0.2], [0.4, 0.1]])
        pos = self.GRID.node_positions()
        v = VectorField(self.GRID, np.einsum("ab,ijb->ija", B, pos))
        inv = DeformationMap(self.GRID, np.einsum("ab,ijb->ija", np.linalg.inv(A), pos), "inverse")
        out = adjoint_transport(A, inv, v)
        want = np.einsum("ab,ijb->ija", A @ B @ np.linalg.inv(A), pos)
        # compare away from the border: the pull-back leaves the domain there
        np.testing.assert_allclose(out.vectors[2:-2, 2:-2], want[2:-2, 2:-2], atol=1e-9)

    def test_matrix_field_accepted(self, rng):
        v = self._field(rng)
        dphi = np.tile(np.eye(2), self.GRID.dims + (1, 1))
        out = adjoint_transport(dphi, identity_map(self.GRID, "inverse"), v)
        np.testing.assert_allclose(out.vectors, v.vectors, atol=1e-12)

    def test_forward_map_rejected(self, rng):
        v = self._field(rng)
        with pytest.raises(ValueError):
            adjoint_transport(np.eye(2), identity_map(self.GRID, "forward"), v)
