import numpy as np
import pytest

from slidereg.errors import DivergenceError, TangentialCrossingError
from slidereg.nonsmooth import (
    MovingHyperplane,
    StaticCircle,
    saltation_sliding,
    saltation_transversal,
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
