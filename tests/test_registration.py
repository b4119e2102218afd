import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidereg import registration
from slidereg.bench import gen_rectangle
from slidereg.flow import integrate
from slidereg.errors import DivergenceError
from slidereg.geometry import (
    DeformationMap,
    GridGeometry,
    LandmarkSet,
    ScalarImage,
    box_downsample,
    warp_image,
)
from slidereg.kernels import KernelSpec
from slidereg.momenta import KernelGrams, MomentumSet, TimeMomenta, control_lattice
from slidereg.registration import (
    RegistrationConfig,
    config_from_dict,
    config_to_dict,
    gradient,
    optimize,
    ssd,
    total_energy,
    _SPARSITY_EPS,
    _Engine,
    _prolong_momenta,
    _sparsity,
    _sparsity_grad,
)

from oracles import block, unblock

GRID16 = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))


def small_config(family="wendland_c0_mult", **kw):
    defaults = dict(
        kernel=KernelSpec(family, 4.0),
        orders="zeroth_and_first",
        T=3,
        lambda0=0.01,
        lambda1=0.02,
        reg_weight=0.5,
        control_stride=4,
        max_iters=50,
    )
    defaults.update(kw)
    return RegistrationConfig(**defaults)


def patched_config(monkeypatch, family="wendland_c0_mult", **kw):
    """:func:`small_config` after setting the solver constants named in kw,
    such as ``_MAX_SHRINKS=2``, on the registration module for this test."""
    for name in [k for k in kw if k.startswith("_")]:
        monkeypatch.setattr(registration, name, kw.pop(name))
    return small_config(family, **kw)


def blob_pair_3d(size):
    """A Gaussian blob on a size^3 unit grid and the same blob one voxel
    further along the last axis."""
    geom = GridGeometry((size,) * 3, (1.0,) * 3, (0.0,) * 3)
    pos = geom.node_positions()
    center = np.full(3, (size - 1) / 2.0)

    def blob(shift):
        r2 = np.sum((pos - center - [0.0, 0.0, shift]) ** 2, axis=-1)
        return ScalarImage(geom, 100.0 * np.exp(-r2 / 8.0))

    return blob(0.0), blob(1.0)


def random_momenta(cfg, grid, rng, scale0=0.4, scale1=0.3):
    pts = control_lattice(grid, cfg.control_stride)
    n, d = pts.shape
    steps = tuple(
        MomentumSet(pts, scale0 * rng.standard_normal((n, d)), scale1 * rng.standard_normal((n, d, d)))
        for _ in range(cfg.T)
    )
    return TimeMomenta(steps)


def fd_gradient_error(cfg, tm, I0, I1, rng, directions=5, eps=1e-4):
    """Worst relative gap between the gradient's directional derivative and
    a central difference of the total energy, over random unit directions."""
    g = gradient(cfg, tm, I0, I1)
    n, d = tm.points.shape
    worst = 0.0
    for _ in range(directions):
        h0 = rng.standard_normal((cfg.T, n, d))
        h1 = rng.standard_normal((cfg.T, n, d, d))
        nrm = np.sqrt(np.sum(h0**2) + np.sum(h1**2))
        h0 /= nrm
        h1 /= nrm
        dd = sum(
            float(np.sum(g.steps[k].m0 * h0[k]) + np.sum(g.steps[k].m1 * h1[k]))
            for k in range(cfg.T)
        )

        def shifted(s):
            return TimeMomenta(
                tuple(
                    MomentumSet(tm.points, tm.steps[k].m0 + s * eps * h0[k], tm.steps[k].m1 + s * eps * h1[k])
                    for k in range(cfg.T)
                )
            )

        fd = (total_energy(cfg, shifted(+1), I0, I1).total - total_energy(cfg, shifted(-1), I0, I1).total) / (2 * eps)
        worst = max(worst, abs(fd - dd) / max(abs(fd), abs(dd), 1e-300))
    return worst


def oracle_descend(eng):
    """Armijo descent from zero that reruns each iterate's forward pass
    before its backward; returns the final momentum block, the energy trace
    and the number of line-search candidates evaluated."""
    cfg, r = eng.cfg, registration
    M = eng.zero_theta()
    trace = [eng.forward(M)]
    alpha_prev, shrunk = r._ARMIJO_INIT, False
    candidates = 0
    for _ in range(cfg.max_iters):
        parts = eng.forward(M)
        G = eng.backward(M)
        gnorm2 = float(np.sum(G * G))
        if gnorm2 <= 1e-30:
            break
        # a search that had to shrink hands its accepted step to the next one
        alpha = alpha_prev if shrunk else min(r._ARMIJO_INIT, 2.0 * alpha_prev)
        for shrinks in range(r._MAX_SHRINKS + 1):
            C = M - alpha * G
            candidates += 1
            try:
                cand = eng.forward(C)
            except DivergenceError:
                cand = None
            if cand is not None and cand.total <= parts.total - r._ARMIJO_SLOPE * alpha * gnorm2:
                break
            alpha *= r._ARMIJO_SHRINK
        else:
            break
        M, alpha_prev, shrunk = C, alpha, shrinks > 0
        trace.append(cand)
        if len(trace) > 5 and (trace[-6].total - cand.total) / max(abs(trace[-6].total), 1e-30) < cfg.stop_rel_tol:
            break
    return M, trace, candidates


class TestSSD:
    def test_identical_zero(self, random_image):
        assert ssd(random_image, random_image) == 0.0

    def test_constant_difference(self, grid2d):
        a = ScalarImage(grid2d, np.zeros(grid2d.dims))
        b = ScalarImage(grid2d, np.full(grid2d.dims, 3.0))
        assert ssd(a, b) == pytest.approx(4.5)

    def test_matches_two_pass_summation(self, grid2d, rng):
        a = ScalarImage(grid2d, rng.uniform(0, 255, grid2d.dims))
        b = ScalarImage(grid2d, rng.uniform(0, 255, grid2d.dims))
        want = math.fsum(
            (float(x) - float(y)) ** 2 for x, y in zip(a.values.ravel(), b.values.ravel())
        ) / (2 * a.geometry.node_count)
        assert ssd(a, b) == pytest.approx(want, rel=1e-13)

    def test_geometry_mismatch(self, grid2d, rng):
        other = GridGeometry((5, 5), (1.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            ssd(ScalarImage(grid2d, np.zeros(grid2d.dims)), ScalarImage(other, np.zeros((5, 5))))

    @pytest.mark.parametrize("spacing, origin", [((2.0, 2.0), (0.0, 0.0)), ((1.0, 1.0), (5.0, 5.0))])
    def test_same_dims_other_spacing_or_origin_refused(self, grid2d, spacing, origin):
        # equal dims used to be enough, so the pair was compared node by node
        other = GridGeometry(grid2d.dims, spacing, origin)
        with pytest.raises(ValueError, match="geometry mismatch") as exc:
            ssd(ScalarImage(grid2d, np.zeros(grid2d.dims)), ScalarImage(other, np.zeros(grid2d.dims)))
        assert str(grid2d) in str(exc.value) and str(other) in str(exc.value)


class TestTotalEnergy:
    def test_zero_momenta_identical_images(self, rng):
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        tm = TimeMomenta.zeros(control_lattice(GRID16, 4), cfg.T)
        parts = total_energy(cfg, tm, pair.template, pair.template)
        assert parts.total == 0.0

    def test_zero_momenta_reduces_to_ssd(self):
        pair = gen_rectangle(16, 2)
        cfg = small_config(lambda0=0.0, lambda1=0.0)
        tm = TimeMomenta.zeros(control_lattice(GRID16, 4), cfg.T)
        parts = total_energy(cfg, tm, pair.template, pair.reference)
        assert parts.similarity == pytest.approx(ssd(pair.template, pair.reference))
        assert parts.regularization == 0.0 and parts.sparsity == 0.0

    def test_similarity_matches_integrate_plus_warp(self, rng):
        # the energy pipeline must agree with the public flow + warp path
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        tm = random_momenta(cfg, GRID16, rng)
        parts = total_energy(cfg, tm, pair.template, pair.reference)
        fp = integrate(tm, cfg.kernel, GRID16)
        warped = warp_image(pair.template, fp.final_inverse)
        assert parts.similarity == pytest.approx(ssd(warped, pair.reference), rel=1e-14)

    def test_ground_truth_like_momenta_lower_similarity(self):
        pair = gen_rectangle(32, 3)
        grid = pair.template.geometry
        cfg = small_config(T=5, control_stride=2, lambda0=0.0, lambda1=0.0, reg_weight=0.0)
        pts = control_lattice(grid, 2)
        m0 = np.zeros_like(pts)
        upper = pts[:, 0] < 16.0
        m0[upper, 1] = 3.0
        m0[~upper, 1] = -3.0
        ms = MomentumSet(pts, 0.35 * m0, np.zeros((pts.shape[0], 2, 2)))
        tm = TimeMomenta(tuple(ms for _ in range(cfg.T)))
        with_motion = total_energy(cfg, tm, pair.template, pair.reference)
        at_zero = total_energy(
            cfg, TimeMomenta.zeros(pts, cfg.T), pair.template, pair.reference
        )
        assert with_motion.similarity < at_zero.similarity

    def test_nan_momenta_raise_divergence(self):
        pair = gen_rectangle(16, 2)
        eng = _Engine(small_config(), pair.template, pair.reference)
        M = eng.zero_theta()
        M[1, 0, 0, 3] = np.nan
        with pytest.raises(DivergenceError):
            eng.forward(M)

    @pytest.mark.parametrize("fn", [total_energy, gradient], ids=["total_energy", "gradient"])
    @pytest.mark.parametrize(
        "points", [control_lattice(GRID16, 2), control_lattice(GRID16, 4) + 1.0], ids=["stride_2", "shifted_lattice"]
    )
    def test_momenta_off_the_config_lattice_are_refused(self, fn, points):
        # stride-2 momenta under a stride-4 config used to run the stride-2 model,
        # while optimize under that config solves on stride 4
        pair = gen_rectangle(16, 2)
        with pytest.raises(ValueError, match="control_stride=4"):
            fn(small_config(), TimeMomenta.zeros(points, 3), pair.template, pair.reference)

    def test_momenta_of_another_T_are_refused(self):
        pair = gen_rectangle(16, 2)
        with pytest.raises(ValueError, match="T=3"):
            total_energy(small_config(), TimeMomenta.zeros(control_lattice(GRID16, 4), 5), pair.template, pair.reference)


class TestGradient:
    def test_zero_at_global_minimum(self):
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        tm = TimeMomenta.zeros(control_lattice(GRID16, 4), cfg.T)
        g = gradient(cfg, tm, pair.template, pair.template)
        for ms in g.steps:
            assert np.max(np.abs(ms.m0)) <= 1e-10
            assert np.max(np.abs(ms.m1)) <= 1e-10

    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_directional_derivative_matches_fd(self, family, rng):
        pair = gen_rectangle(16, 2)
        cfg = small_config(family)
        tm = random_momenta(cfg, GRID16, rng)
        assert fd_gradient_error(cfg, tm, pair.template, pair.reference, rng) <= 1e-4

    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_directional_derivative_matches_fd_3d(self, family, rng):
        grid = GridGeometry((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        x = grid.node_positions()

        def blob(center):
            return ScalarImage(grid, 200.0 * np.exp(-np.sum((x - center) ** 2, axis=-1) / 8.0))

        cfg = small_config(family, control_stride=2)
        tm = random_momenta(cfg, grid, rng)
        assert fd_gradient_error(cfg, tm, blob([3.5, 3.5, 3.5]), blob([3.5, 4.5, 3.0]), rng) <= 1e-4

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
    def test_directional_derivative_matches_fd_for_each_step_count(self, T, rng):
        # the backward re-gathers each odd psi_k but the last from its kept even
        # predecessor, so both parities of T, psi_T on an odd step, T < 4 (no
        # re-gather) and T = 1 (no odd maps) are checked
        pair = gen_rectangle(16, 2)
        cfg = small_config(T=T)
        tm = random_momenta(cfg, GRID16, rng)
        assert fd_gradient_error(cfg, tm, pair.template, pair.reference, rng) <= 1e-4

    @pytest.mark.parametrize("T", [2, 3])
    def test_directional_derivative_matches_fd_3d_for_each_step_count(self, T, rng):
        I0, I1 = blob_pair_3d(8)
        cfg = small_config(T=T, control_stride=2)
        tm = random_momenta(cfg, I0.geometry, rng)
        assert fd_gradient_error(cfg, tm, I0, I1, rng) <= 1e-4

    def test_pure_regularizer_gradient_is_gram_product(self, rng):
        from dataclasses import replace

        pair = gen_rectangle(16, 2)
        cfg = small_config(lambda0=0.0, lambda1=0.0, reg_weight=0.8)
        tm = random_momenta(cfg, GRID16, rng)
        grams = KernelGrams(cfg.kernel, tm.points)
        g = gradient(cfg, tm, pair.template, pair.template)
        # warping I0 over I0 still leaves a data residual at nonzero momenta,
        # so isolate the regularizer by differencing against reg_weight = 0
        g_noreg = gradient(replace(cfg, reg_weight=0.0), tm, pair.template, pair.template)
        scale = cfg.reg_weight / (2.0 * cfg.T)
        for k in range(cfg.T):
            r0, r1 = unblock(grams.grad(block(tm.steps[k].m0, tm.steps[k].m1)))
            np.testing.assert_allclose(
                g.steps[k].m0 - g_noreg.steps[k].m0, scale * r0, rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                g.steps[k].m1 - g_noreg.steps[k].m1, scale * r1, rtol=1e-10, atol=1e-12
            )

    def test_zeroth_only_first_order_blocks_zero(self, rng):
        pair = gen_rectangle(16, 2)
        cfg = small_config(orders="zeroth_only")
        tm = random_momenta(cfg, GRID16, rng, scale1=0.0)
        g = gradient(cfg, tm, pair.template, pair.reference)
        for ms in g.steps:
            assert np.all(ms.m1 == 0.0)

    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_zeroth_only_ignores_m1(self, family, rng):
        # with lambda1 > 0 the sparsity of m1 must not count either: the
        # energy is flat along m1, as the zero m1 gradient says
        pair = gen_rectangle(16, 2)
        cfg = small_config(family, orders="zeroth_only", lambda1=0.05)
        tm = random_momenta(cfg, GRID16, rng)
        flat = TimeMomenta(tuple(MomentumSet(ms.points, ms.m0, np.zeros_like(ms.m1)) for ms in tm.steps))
        e = total_energy(cfg, tm, pair.template, pair.reference)
        assert e == total_energy(cfg, flat, pair.template, pair.reference)
        h = 1e-4
        shifted = [
            TimeMomenta(tuple(MomentumSet(ms.points, ms.m0, ms.m1 * (1.0 + s * h)) for ms in tm.steps))
            for s in (1, -1)
        ]
        fd = (total_energy(cfg, shifted[0], pair.template, pair.reference).total
              - total_energy(cfg, shifted[1], pair.template, pair.reference).total) / (2 * h)
        g = gradient(cfg, tm, pair.template, pair.reference)
        assert fd == sum(float(np.sum(ms.m1 * gs.m1)) for ms, gs in zip(tm.steps, g.steps)) == 0.0

    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_zeroth_only_equals_both_orders_at_zero_m1(self, family, rng):
        # zeroth_only skips the first-order work; each skipped term adds
        # exactly zero when m1 = 0, so the results match bit for bit
        pair = gen_rectangle(16, 2)
        both = small_config(family)
        zeroth = small_config(family, orders="zeroth_only")
        tm = random_momenta(both, GRID16, rng, scale1=0.0)
        assert total_energy(zeroth, tm, pair.template, pair.reference) == total_energy(
            both, tm, pair.template, pair.reference
        )
        gz = gradient(zeroth, tm, pair.template, pair.reference)
        gb = gradient(both, tm, pair.template, pair.reference)
        for a, b in zip(gz.steps, gb.steps):
            np.testing.assert_array_equal(a.m0, b.m0)

    def test_one_lookup_per_point_set(self, rng, monkeypatch):
        # T transport steps plus the final template sample locate their points
        # once each in the forward pass, and the backward pass locates each
        # step's points once more from its re-synthesised velocity, but for
        # step T - 1, whose stencil the forward left
        from slidereg import geometry

        calls = []
        real = geometry._locate
        monkeypatch.setattr(geometry, "_locate", lambda *a: calls.append(1) or real(*a))
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        gradient(cfg, random_momenta(cfg, GRID16, rng), pair.template, pair.reference)
        assert len(calls) == 2 * cfg.T

    def test_one_lookup_per_point_set_in_a_solve(self, monkeypatch):
        # each forward pass locates its T step points and the final sample,
        # each backward pass (one per accepted iterate when the solve stops
        # on max_iters) its T - 1 first step points again; the forward maps
        # locate T more, and the warped image one, from the copied psi_T
        from slidereg import geometry

        calls = []
        real = geometry._locate
        monkeypatch.setattr(geometry, "_locate", lambda *a: calls.append(1) or real(*a))
        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=4, stop_rel_tol=0.0)
        res = optimize(cfg, pair.template, pair.reference)
        assert res.stop_reason == "max_iters"
        assert len(calls) == (cfg.T + 1) * res.forward_passes + (cfg.T - 1) * res.iterations_used + cfg.T + 1

    def test_never_forms_point_jacobian(self, rng, monkeypatch):
        # the adjoint contracts psibar into each stencil through
        # point_grad_dot instead of forming the (N, c, d) point Jacobian
        from slidereg import geometry

        def forbidden(*a):
            raise AssertionError("geometry.interp_with_point_grad called")

        monkeypatch.setattr(geometry, "interp_with_point_grad", forbidden)
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        g = gradient(cfg, random_momenta(cfg, GRID16, rng), pair.template, pair.reference)
        assert any(np.any(ms.m0 != 0.0) for ms in g.steps)


class TestSparsity:
    """The solver's smoothed L1 prior on a momentum block (orders, d, n), at its own eps."""

    def test_zero_momenta(self):
        M = np.zeros((3, 2, 4))
        lam = np.array([0.5, 0.5, 0.5])
        assert _sparsity(M, lam) == 0.0

    def test_gradient_zero_at_zero_momenta(self):
        assert np.all(_sparsity_grad(np.zeros((3, 2, 4)), np.array([0.7, 0.7, 0.7])) == 0.0)

    def test_single_momentum_l1_limit(self):
        M = np.zeros((3, 2, 1))
        M[1, :, 0] = [2.0, 0.0]
        got = _sparsity(M, np.array([0.0, 0.5, 0.5]))
        assert got == pytest.approx(1.0, abs=_SPARSITY_EPS)

    def test_matches_per_order_loop(self, rng):
        # the block core sums and scales order by order, bit for bit like a loop
        M = rng.standard_normal((3, 2, 6))
        lam, eps = np.array([0.3, 0.7, 1.1]), _SPARSITY_EPS
        norms = [np.sqrt(np.sum(M[o] ** 2, axis=0) + eps**2) for o in range(3)]
        total = 0.0
        for w, nrm in zip(lam, norms):
            total += w * np.sum(nrm - eps)
        assert _sparsity(M, lam) == total
        G = _sparsity_grad(M, lam)
        for o in range(3):
            np.testing.assert_array_equal(G[o], lam[o] * M[o] / norms[o])

    @settings(deadline=None, max_examples=25)
    @given(st.floats(0.0, 10.0))
    def test_below_unsmoothed_l1(self, norm):
        M = np.zeros((3, 2, 1))
        M[0, 0, 0] = norm
        got = _sparsity(M, np.array([1.0, 0.0, 0.0]))
        assert got <= norm
        assert got >= norm - _SPARSITY_EPS

    def test_prior_binds_step_zero_only(self, rng):
        from dataclasses import replace

        # the prior weighs the momenta of step 0 alone: steps 1..T-1 carry no L1 cost
        pair = gen_rectangle(16, 2)
        cfg = small_config(lambda0=0.03, lambda1=0.07)
        tm = random_momenta(cfg, GRID16, rng)
        lam = np.array([cfg.lambda0, cfg.lambda1, cfg.lambda1])
        M0 = block(tm.steps[0].m0, tm.steps[0].m1)
        e = total_energy(cfg, tm, pair.template, pair.reference)
        assert e.sparsity == _sparsity(M0, lam)
        later = random_momenta(cfg, GRID16, rng)
        moved = TimeMomenta((tm.steps[0],) + later.steps[1:])
        assert total_energy(cfg, moved, pair.template, pair.reference).sparsity == e.sparsity

        g = gradient(cfg, tm, pair.template, pair.reference)
        g_free = gradient(replace(cfg, lambda0=0.0, lambda1=0.0), tm, pair.template, pair.reference)
        want0, want1 = unblock(_sparsity_grad(M0, lam))
        np.testing.assert_allclose(g.steps[0].m0 - g_free.steps[0].m0, want0, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(g.steps[0].m1 - g_free.steps[0].m1, want1, rtol=1e-9, atol=1e-12)
        for a, b in zip(g.steps[1:], g_free.steps[1:]):
            assert np.array_equal(a.m0, b.m0) and np.array_equal(a.m1, b.m1)


class TestOptimize:
    @pytest.mark.parametrize("pyramid", [False, True])
    def test_pair_of_different_geometry_refused(self, pyramid):
        # a reference at spacing 2 and origin (5, 5) used to register silently
        # in the template's geometry
        pair = gen_rectangle(16, 2)
        other = GridGeometry((16, 16), (2.0, 2.0), (5.0, 5.0))
        reference = ScalarImage(other, pair.reference.values)
        with pytest.raises(ValueError, match="image geometries differ") as exc:
            optimize(small_config(pyramid=pyramid), pair.template, reference)
        assert str(pair.template.geometry) in str(exc.value) and str(other) in str(exc.value)

    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_matches_descent_that_recomputes_each_iterate(self, family, orders):
        # reusing the accepted candidate's forward state for the next
        # gradient must not change a single bit of the descent
        pair = gen_rectangle(16, 2)
        cfg = small_config(family, orders=orders, max_iters=8, stop_rel_tol=0.0)
        M, trace, candidates = oracle_descend(_Engine(cfg, pair.template, pair.reference))
        assert candidates > cfg.max_iters  # some candidates were rejected
        res = optimize(cfg, pair.template, pair.reference)
        assert res.iterations_used == len(trace) - 1 == cfg.max_iters
        np.testing.assert_array_equal(np.array(res.energy_trace), np.array(trace))
        m0, m1 = unblock(M)
        np.testing.assert_array_equal(np.stack([ms.m0 for ms in res.momenta.steps]), m0)
        np.testing.assert_array_equal(np.stack([ms.m1 for ms in res.momenta.steps]), m1)

    def test_one_transport_per_iterate(self, monkeypatch):
        # the initial energy and each line-search candidate transport once
        # each; gradients and the result's flow transport nothing
        from slidereg import flow

        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=6, stop_rel_tol=0.0)
        _, _, candidates = oracle_descend(_Engine(cfg, pair.template, pair.reference))
        calls = []
        real = flow._Transport.advect
        monkeypatch.setattr(flow._Transport, "advect", lambda *a: calls.append(1) or real(*a))
        optimize(cfg, pair.template, pair.reference)
        assert len(calls) == 1 + candidates

    @pytest.mark.parametrize(
        "stop_reason, kw",
        [("max_iters", dict(max_iters=6, stop_rel_tol=0.0)),
         ("line_search_stalled", dict(_MAX_SHRINKS=2, stop_rel_tol=0.0)),
         ("max_iters", dict(max_iters=6, stop_rel_tol=0.0, pyramid=True))],
        ids=["max_iters", "line_search_stalled", "pyramid"],
    )
    def test_forward_passes_counts_transports(self, monkeypatch, stop_reason, kw):
        from slidereg import flow

        pair = gen_rectangle(16, 2)
        cfg = patched_config(monkeypatch, **kw)
        calls = []
        real = flow._Transport.advect
        monkeypatch.setattr(flow._Transport, "advect", lambda *a: calls.append(1) or real(*a))
        res = optimize(cfg, pair.template, pair.reference)
        assert res.stop_reason == stop_reason
        assert res.forward_passes == len(calls)
        assert len(res.line_search) == res.iterations_used == len(res.energy_trace) - 1
        accepted = 1 + sum(s.candidates for s in res.line_search)
        if res.stop_reason == "line_search_stalled":
            # the failed search transports its candidates, then the state is recomputed
            assert accepted + 1 < res.forward_passes <= accepted + registration._MAX_SHRINKS + 2
        elif cfg.pyramid:
            assert res.forward_passes > accepted  # the coarse level's transports count too
        else:
            assert res.forward_passes == accepted

    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_search_starts_at_accepted_step_after_a_shrink(self, family):
        # a search that accepted its first candidate lets the next one try
        # twice its step; one that had to shrink hands on its accepted step
        pair = gen_rectangle(16, 2)
        cfg = small_config(family, max_iters=8, stop_rel_tol=0.0)
        steps = optimize(cfg, pair.template, pair.reference).line_search
        assert len(steps) == cfg.max_iters
        init, shrink = registration._ARMIJO_INIT, registration._ARMIJO_SHRINK
        assert steps[0].alpha == init * shrink ** (steps[0].candidates - 1)
        previous = [s.candidates for s in steps[:-1]]
        assert 1 in previous and any(c > 1 for c in previous)  # both branches are exercised
        for prev, cur in zip(steps, steps[1:]):
            start = min(init, 2.0 * prev.alpha) if prev.candidates == 1 else prev.alpha
            assert cur.alpha == start * shrink ** (cur.candidates - 1)

    @pytest.mark.parametrize("pyramid, levels", [(False, 1), (True, 2)])
    def test_one_assembler_per_level(self, monkeypatch, pyramid, levels):
        from slidereg.momenta import VelocityAssembler

        calls = []
        real = VelocityAssembler.__init__
        monkeypatch.setattr(VelocityAssembler, "__init__", lambda self, *a: calls.append(1) or real(self, *a))
        pair = gen_rectangle(16, 2)
        optimize(small_config(max_iters=4, pyramid=pyramid), pair.template, pair.reference)
        assert len(calls) == levels

    @pytest.mark.parametrize(
        "stop_reason, kw, ndim",
        [
            ("max_iters", dict(max_iters=4, stop_rel_tol=0.0), 2),
            ("max_iters", dict(max_iters=4, stop_rel_tol=0.0, orders="zeroth_only"), 2),
            ("rel_tol", dict(stop_rel_tol=1.0), 2),
            ("gradient_zero", dict(), 2),
            ("line_search_stalled", dict(_MAX_SHRINKS=2, stop_rel_tol=0.0), 2),
            ("max_iters", dict(max_iters=6, stop_rel_tol=0.0, pyramid=True), 2),
            ("max_iters", dict(max_iters=6, stop_rel_tol=0.0, pyramid=True, control_stride=2), 3),
        ],
        ids=["max_iters", "zeroth_only", "rel_tol", "gradient_zero", "line_search_stalled", "pyramid",
             "pyramid_3d"],
    )
    def test_result_equals_integrate_of_momenta(self, monkeypatch, stop_reason, kw, ndim):
        # the flow taken from the descent's final state must be the one
        # flow.integrate computes from scratch for the returned momenta
        if ndim == 2:
            pair = gen_rectangle(16, 2)
            template, reference = pair.template, pair.reference
        else:
            template, reference = blob_pair_3d(12)
        if stop_reason == "gradient_zero":
            reference = template
        cfg = patched_config(monkeypatch, **kw)
        res = optimize(cfg, template, reference)
        assert res.stop_reason == stop_reason
        if stop_reason == "line_search_stalled":
            assert res.iterations_used > 0  # the stall comes after accepted steps
        fp = integrate(res.momenta, cfg.kernel, template.geometry)
        for got, want in ((res.flow.final, fp.final), (res.flow.final_inverse, fp.final_inverse)):
            assert got.direction == want.direction
            np.testing.assert_array_equal(got.targets, want.targets)
        np.testing.assert_array_equal(res.warped.values, warp_image(template, fp.final_inverse).values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_candidate_is_rejected(self, monkeypatch):
        # the first step overflows the momenta; the line search must reject
        # it before synthesis, without a floating-point warning, and shrink
        # past it (the subnormal shrink factor takes alpha from 1e308 to 0.1)
        from slidereg import flow

        pair = gen_rectangle(16, 2)
        cfg = patched_config(monkeypatch, max_iters=3, _ARMIJO_INIT=1e308, _ARMIJO_SHRINK=1e-309)
        eng = _Engine(cfg, pair.template, pair.reference)
        eng.forward(eng.zero_theta())
        G = eng.backward(eng.zero_theta())
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(1e308 * G))

        finite = []
        real = flow._Transport.advect

        def advect(self, velocities):
            def seen():
                for v in velocities:
                    finite.append(bool(np.all(np.isfinite(v))))
                    yield v

            return real(self, seen())

        monkeypatch.setattr(flow._Transport, "advect", advect)
        res = optimize(cfg, pair.template, pair.reference)
        assert finite and all(finite)  # no transport saw the overflowing candidate
        assert res.forward_passes < 1 + sum(s.candidates for s in res.line_search)  # one was never transported
        assert res.iterations_used == 3
        assert res.energy_trace[-1].total < res.energy_trace[0].total

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_candidates_are_rejected_quietly(self, monkeypatch):
        # alpha halves from 1e308: past the first few candidates the momenta
        # stay finite, but their regulariser and sparsity overflow; each is
        # rejected without a floating-point warning until the search stalls
        pair = gen_rectangle(16, 2)
        res = optimize(patched_config(monkeypatch, _ARMIJO_INIT=1e308), pair.template, pair.reference)
        assert res.stop_reason == "line_search_stalled"
        assert res.iterations_used == 0 and len(res.energy_trace) == 1

    def test_identical_images_converges_immediately(self):
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        res = optimize(cfg, pair.template, pair.template)
        assert res.converged
        assert res.stop_reason == "gradient_zero"
        assert res.iterations_used <= 2
        for ms in res.momenta.steps:
            assert np.all(ms.m0 == 0.0) and np.all(ms.m1 == 0.0)

    def test_stops_on_relative_tolerance(self):
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(stop_rel_tol=1.0), pair.template, pair.reference)
        assert res.stop_reason == "rel_tol" and res.converged
        assert res.iterations_used == 5

    def test_stops_on_max_iters(self):
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(max_iters=3, stop_rel_tol=0.0), pair.template, pair.reference)
        assert res.stop_reason == "max_iters" and not res.converged
        assert res.iterations_used == 3

    def test_stops_when_line_search_stalls(self, monkeypatch):
        # no step can meet an absurd sufficient-decrease slope
        pair = gen_rectangle(16, 2)
        cfg = patched_config(monkeypatch, _ARMIJO_SLOPE=1e12, _MAX_SHRINKS=2)
        res = optimize(cfg, pair.template, pair.reference)
        assert res.stop_reason == "line_search_stalled" and not res.converged
        assert res.iterations_used == 0 and len(res.energy_trace) == 1

    def test_monotone_energy_trace(self, rng):
        pair = gen_rectangle(32, 3)
        cfg = small_config(T=5, control_stride=2, max_iters=25, reg_weight=0.2,
                           lambda0=0.01, lambda1=0.01)
        res = optimize(cfg, pair.template, pair.reference)
        totals = [p.total for p in res.energy_trace]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        assert totals[-1] < totals[0]

    def test_trace_parts_sum_to_total(self, rng):
        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=10)
        res = optimize(cfg, pair.template, pair.reference)
        for p in res.energy_trace:
            assert p.total == pytest.approx(p.similarity + p.regularization + p.sparsity)

    def test_result_contains_consistent_warp(self):
        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=15)
        res = optimize(cfg, pair.template, pair.reference)
        again = warp_image(pair.template, res.flow.final_inverse)
        np.testing.assert_array_equal(res.warped.values, again.values)
        assert res.energy_trace[-1].similarity == pytest.approx(
            ssd(res.warped, pair.reference), rel=1e-12
        )


class TestEquality:
    def test_array_holding_containers_compare_and_hash(self):
        # == and != on these used to raise ValueError (an elementwise array ==
        # has no truth value) and hash raised TypeError, also through the
        # dataclasses that hold them; each is now equal only to itself, and
        # those holders compare field by field
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(max_iters=2), pair.template, pair.reference)
        step, fwd, lms = res.momenta.steps[0], res.flow.final, pair.landmarks_template
        twins = [
            (pair.template, ScalarImage(pair.template.geometry, pair.template.values)),
            (fwd, DeformationMap(fwd.geometry, fwd.targets, fwd.direction)),
            (lms, LandmarkSet(lms.points)),
            (step, MomentumSet(step.points, step.m0, step.m1)),
            (res.momenta, TimeMomenta(res.momenta.steps)),
        ]
        for a, twin in twins:
            assert a == a and not a != a and a != twin and not a == twin
            assert hash(a) == hash(a) and a in {a} and a in [twin, a] and a not in [twin]
        for a in (res.flow, res, pair):
            twin = dataclasses.replace(a)
            assert twin is not a and a == twin and not a != twin
            assert hash(a) == hash(twin) and a in {twin} and a in [twin]


def _transport_arrays(eng):
    """The maps and the two stencil buffer sets (the last step's and the final
    sample's) of the engine's last pass, in a fixed order."""
    tr = eng.transport
    maps = [m.T for m in tr.maps]
    return maps + [buf[s] for s in (0, 1) for buf in (tr.base, tr.frac)]


class TestWorkspace:
    """The buffers of the engine's transport: reused by every pass, gone before the result is built."""

    def test_passes_reuse_the_buffers_and_match_a_fresh_engine(self, rng):
        pair = gen_rectangle(16, 2)
        I0, I1 = pair.template, pair.reference
        cfg = small_config()
        eng = _Engine(cfg, I0, I1)
        shape = eng.zero_theta().shape
        eng.forward(0.4 * rng.standard_normal(shape))
        first = _transport_arrays(eng)
        M = 0.4 * rng.standard_normal(shape)
        parts = eng.forward(M)
        second = _transport_arrays(eng)
        for a, b in zip(first, second, strict=True):
            assert np.shares_memory(a, b)
        fresh = _Engine(cfg, I0, I1)
        want_parts = fresh.forward(M)
        assert parts == want_parts
        for a, b in zip(second + [eng.resid], _transport_arrays(fresh) + [fresh.resid], strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(eng.backward(M), fresh.backward(M))

    @pytest.mark.parametrize("before", ["fresh", "diverged", "spent"])
    def test_backward_needs_a_pass_of_its_own(self, before):
        # a gradient must come from the engine's last forward pass, once:
        # a stale pass used to be accepted and to yield a wrong gradient
        pair = gen_rectangle(16, 2)
        eng = _Engine(small_config(), pair.template, pair.reference)
        M = eng.zero_theta()
        if before == "diverged":
            eng.forward(M)
            bad = M.copy()
            bad[1, 0, 0, 3] = np.nan
            with pytest.raises(DivergenceError):
                eng.forward(bad)
        elif before == "spent":
            eng.forward(M)
            eng.backward(M)
        with pytest.raises(RuntimeError, match="backward needs a completed forward pass"):
            eng.backward(M)

    def test_stencil_buffers_are_freed_before_the_result_copies(self, monkeypatch):
        # peak memory: psi_T is copied out, then the whole transport goes before the forward push
        import weakref

        from slidereg import flow

        buffers, alive = [], []

        class Recorded(flow._Transport):
            def __init__(self, *a):
                super().__init__(*a)
                buffers.extend(weakref.ref(b) for b in (self.maps, self.base, self.frac))

        real = flow._flow_path

        def flow_path(*a):
            alive.extend(ref() is not None for ref in buffers)
            return real(*a)

        monkeypatch.setattr(flow, "_Transport", Recorded)
        monkeypatch.setattr(flow, "_flow_path", flow_path)
        pair = gen_rectangle(16, 2)
        optimize(small_config(max_iters=3), pair.template, pair.reference)
        assert len(alive) == 3 and not any(alive)

    def test_backward_peak_is_the_gradient_and_per_call_scratch(self, rng):
        # what one backward allocates above its entry: the gradient block G and
        # the transient work of one step at a time. On this 16^3 engine (m = 4096
        # points, 8 corners) the peak over entry reads G.nbytes + 0.63 MB (628,024 to
        # 633,312 B, numpy 2.4.6), with each step's re-synthesised velocity dropped
        # once its points are staged. It read G.nbytes + 0.73 MB while the backward
        # kept every map, 0.78 MB while the step-0 sparsity gradient was held across
        # the pass, 0.92 MB with a point_grad_dot that made a fresh difference table
        # per axis, and 1.32 MB with a splat that built (2^d, m) index, weight and
        # product blocks. The bound allows about 67 KB over today's reading, so a
        # per-step scratch regression of 0.2 MB fails.
        import tracemalloc

        I0, I1 = blob_pair_3d(16)
        eng = _Engine(small_config(T=4, control_stride=2), I0, I1)
        M = 0.3 * rng.standard_normal(eng.zero_theta().shape)
        eng.forward(M)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            G = eng.backward(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= G.nbytes + 700_000

    def test_backward_into_a_given_block_peaks_at_per_call_scratch(self, rng):
        # with an out block the gradient costs nothing above the per-call scratch
        # of the test above: 0.63 MB over entry on this engine (627,928 to
        # 628,680 B, numpy 2.4.6), against G.nbytes (0.20 MB) more for a fresh
        # block. The bound allows about 71 KB over that reading.
        import tracemalloc

        I0, I1 = blob_pair_3d(16)
        eng = _Engine(small_config(T=4, control_stride=2), I0, I1)
        M = 0.3 * rng.standard_normal(eng.zero_theta().shape)
        eng.forward(M)
        out = np.empty_like(M)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            G = eng.backward(M, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G is out
        assert peak - entry <= 700_000

    def test_backward_drops_the_residual_before_the_step_loop(self, rng):
        # the residual image (node_count doubles) is read only by the final
        # sample's derivative, so no step of the loop holds it
        import weakref

        I0, I1 = blob_pair_3d(8)
        eng = _Engine(small_config(T=3, control_stride=2), I0, I1)
        M = 0.3 * rng.standard_normal(eng.zero_theta().shape)
        eng.forward(M)
        resid, alive = weakref.ref(eng.resid), []
        step_adjoint = eng.transport.step_adjoint

        def recorded(k, pts, psibar):
            alive.append(resid() is not None)
            return step_adjoint(k, pts, psibar)

        eng.transport.step_adjoint = recorded
        eng.backward(M)
        assert alive == [False] * 3

    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    def test_gradient_in_place_equals_a_fresh_block_backward(self, rng, orders):
        # gradient() hands backward a fresh block, since the step loop re-reads M
        I0, I1 = blob_pair_3d(8)
        cfg = small_config(T=3, control_stride=2, orders=orders)
        tm = random_momenta(cfg, I0.geometry, rng)
        eng = _Engine(cfg, I0, I1)
        M = np.stack([block(ms.m0, ms.m1, eng.orders - 1) for ms in tm.steps])
        eng.forward(M)
        want = eng.to_time_momenta(eng.backward(M))
        got = gradient(cfg, tm, I0, I1)
        for g, w in zip(got.steps, want.steps, strict=True):
            assert np.array_equal(g.m0, w.m0) and np.array_equal(g.m1, w.m1)

    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    @pytest.mark.parametrize("entry", ["total_energy", "gradient"])
    def test_engine_reads_the_momenta_block_in_place(self, monkeypatch, rng, orders, entry):
        # the engine's M is the state's own read-only block, not a per-call copy
        seen, real = [], _Engine.forward

        def forward(self, M):
            seen.append((M.shape, M.flags.writeable, np.shares_memory(M, tm.block)))
            return real(self, M)

        monkeypatch.setattr(_Engine, "forward", forward)
        pair = gen_rectangle(16, 2)
        cfg = small_config(orders=orders)
        tm = random_momenta(cfg, GRID16, rng)
        kept = tm.block.copy()
        getattr(registration, entry)(cfg, tm, pair.template, pair.reference)
        orders_used = 3 if orders == "zeroth_and_first" else 1
        assert seen == [((cfg.T, orders_used, 2, len(tm.points)), False, True)]
        assert np.array_equal(tm.block, kept)

    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    def test_results_wrap_the_engine_blocks(self, monkeypatch, rng, orders):
        # a first-order gradient or solution is the engine's own block, made
        # read-only; a zeroth-only one is padded once with read-only zero slots
        grads, finals = [], []
        real_backward, real_descend = _Engine.backward, registration._descend

        def backward(self, *a):
            grads.append(real_backward(self, *a))
            return grads[-1]

        def descend(*a):
            finals.append(real_descend(*a))
            return finals[-1]

        monkeypatch.setattr(_Engine, "backward", backward)
        monkeypatch.setattr(registration, "_descend", descend)
        pair = gen_rectangle(16, 2)
        cfg = small_config(orders=orders, max_iters=2)
        tm = random_momenta(cfg, GRID16, rng)
        g = gradient(cfg, tm, pair.template, pair.reference)
        res = optimize(cfg, pair.template, pair.reference)
        for got, engine_block in ((g, grads[0]), (res.momenta, finals[0][0])):
            assert got.block.shape == (cfg.T, 3, 2, len(tm.points)) and not got.block.flags.writeable
            np.testing.assert_array_equal(got.block[:, :engine_block.shape[1]], engine_block)
            assert np.shares_memory(got.block, engine_block) == (orders == "zeroth_and_first")
            assert all(ms.points is got.points for ms in got.steps)
            if orders == "zeroth_only":
                assert not np.any(got.block[:, 1:])
                with pytest.raises(ValueError, match="read-only"):
                    got.steps[0].m1[0, 0, 0] = 1.0
                # a zeroth-only result is a valid state of a first-order config
                total_energy(small_config(), got, pair.template, pair.reference)

    def test_non_finite_gradient_is_refused(self, monkeypatch, rng):
        # every TimeMomenta is finite: a gradient that overflowed raises, as a step set's check did
        real = _Engine.backward

        def backward(self, *a):
            G = real(self, *a)
            G[1, 0, 0, 2] = np.inf
            return G

        monkeypatch.setattr(_Engine, "backward", backward)
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        with pytest.raises(ValueError, match="momenta must be finite"):
            gradient(cfg, random_momenta(cfg, GRID16, rng), pair.template, pair.reference)

    @pytest.mark.parametrize("alias", ["M", "a view of M"])
    def test_backward_refuses_an_out_that_shares_memory_with_m(self, rng, alias):
        # the step loop re-synthesises each velocity from M after the Gram
        # products have filled out, so an aliased out would give a wrong gradient
        I0, I1 = blob_pair_3d(8)
        eng = _Engine(small_config(T=3, control_stride=2), I0, I1)
        M = 0.3 * rng.standard_normal(eng.zero_theta().shape)
        kept = M.copy()
        eng.forward(M)
        with pytest.raises(ValueError, match="must not share memory with M"):
            eng.backward(M, M if alias == "M" else M[..., ::-1])
        assert np.array_equal(M, kept)
        want = _Engine(small_config(T=3, control_stride=2), I0, I1)
        want.forward(M)
        # the refused call left the pass to a backward of its own
        assert np.array_equal(eng.backward(M, np.empty_like(M)), want.backward(M))

    def test_backward_relocates_the_stencils_the_forward_built(self, rng):
        # each backward step's stencil is the forward's (step T - 1's is kept,
        # the others are located again from velocities re-synthesised from M)
        # and each step reads the forward's psi_k (an odd one but the last
        # gathered again from psi_{k-1}); on a 3D pair whose upwind points leave the domain
        # (so the clamp acts) both equal the forward's bit for bit, for odd
        # and even T
        I0, I1 = blob_pair_3d(8)
        nodes = I0.geometry.node_positions().reshape(-1, 3).T
        hi = np.array(I0.geometry.dims)[:, None] - 1.0
        for T in (3, 4):
            eng = _Engine(small_config(T=T, control_stride=2), I0, I1)
            tr = eng.transport
            built, seen, outside, located = {}, {}, [], []
            advect, step_adjoint, stencil = tr.advect, tr.step_adjoint, tr._stencil

            def snapshot(k, st):
                return [a.copy() for a in (st.base, st.frac, tr.maps[tr._slot(k)])]

            def recorded_stencil(s, pts):
                located.append(stencil(s, pts))
                return located[-1]

            def recorded_advect(velocities):
                def steps():
                    for k, v in enumerate(velocities):
                        if k:
                            built[k - 1] = snapshot(k - 1, located[-1])  # step k - 1 is done once v_k is drawn
                        outside.append(np.any((nodes - v / T < 0.0) | (nodes - v / T > hi)))
                        yield v
                    built[T - 1] = snapshot(T - 1, located[-1])

                advect(steps())

            def recorded_step_adjoint(k, st, psibar):
                seen[k] = snapshot(k, st)
                return step_adjoint(k, st, psibar)

            tr.advect, tr.step_adjoint, tr._stencil = recorded_advect, recorded_step_adjoint, recorded_stencil
            M = 2.0 * rng.standard_normal(eng.zero_theta().shape)
            eng.forward(M)
            eng.backward(M)
            assert any(outside)
            assert sorted(built) == sorted(seen) == list(range(T))
            for k in range(T):
                for a, b in zip(built[k], seen[k], strict=True):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
    def test_backward_keeps_psi_T_and_releases_the_final_sample(self, rng, T):
        # the backward reuses both stencil sets and the odd maps' rows, but never
        # psi_T's: the inverse map stays the pass's, and the final-sample stencil
        # it overwrote is released rather than left stale
        pair = gen_rectangle(16, 2)
        eng = _Engine(small_config(T=T), pair.template, pair.reference)
        tr = eng.transport
        M = 0.4 * rng.standard_normal(eng.zero_theta().shape)
        eng.forward(M)
        want = tr.inverse_map().targets
        eng.backward(M)
        np.testing.assert_array_equal(tr.inverse_map().targets, want)
        assert tr.final is None and tr.last is None
        n = pair.template.geometry.node_count
        with pytest.raises(RuntimeError, match="no pass"):
            next(tr.backward(lambda k: np.zeros((n, 2)), np.zeros((n, 2))))

    def test_descent_gradient_lands_in_the_vacated_block(self, monkeypatch):
        # each backward after the first fills the block the last accepted step
        # vacated; of the blocks the descent has passed to forward or got from
        # backward, only the iterate and that block are alive during it
        import weakref

        seen, prev, checked = [], [], []
        real_forward, real_backward = _Engine.forward, _Engine.backward

        def forward(self, M):
            seen.append(weakref.ref(M))
            return real_forward(self, M)

        def backward(self, M, out=None):
            live = [r() for r in seen]
            assert all(a is None or a is M or a is out for a in live)
            del live
            if prev:
                assert out is not None and out is prev[-1]()
            G = real_backward(self, M, out)
            assert out is None or np.shares_memory(G, out)
            seen.append(weakref.ref(G))
            prev.append(weakref.ref(M))
            checked.append(out is not None)
            return G

        monkeypatch.setattr(_Engine, "forward", forward)
        monkeypatch.setattr(_Engine, "backward", backward)
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(max_iters=5, stop_rel_tol=0.0), pair.template, pair.reference)
        assert res.iterations_used == 5
        assert checked == [False] + [True] * 4

    def test_total_energy_keeps_one_step_stencil_and_no_backward(self, monkeypatch, rng):
        # a pass nothing differentiates keeps one stencil buffer set for its
        # T steps and one for the final sample and three maps (psi_0 and two
        # that alternate); gradient's transport keeps the same two stencil
        # sets and T // 2 + 2 maps for even T (the even psi_k, psi_T and one
        # the odd psi_k share); neither has a points buffer
        from slidereg import flow

        made = []

        class Recorded(flow._Transport):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                made.append(self)

        monkeypatch.setattr(flow, "_Transport", Recorded)
        I0, I1 = blob_pair_3d(16)
        cfg = small_config(T=4, control_stride=2)
        tm = random_momenta(cfg, I0.geometry, rng)
        total_energy(cfg, tm, I0, I1)
        gradient(cfg, tm, I0, I1)
        assert [len(tr.base) for tr in made] == [2, 2]
        assert [len(tr.frac) for tr in made] == [2, 2]
        assert [len(tr.maps) for tr in made] == [3, cfg.T // 2 + 2]
        assert not any(hasattr(tr, "points") for tr in made)
        eng = _Engine(cfg, I0, I1, adjoint=False)
        M = eng.zero_theta()
        eng.forward(M)
        with pytest.raises(RuntimeError, match="forward-only"):
            eng.backward(M)
        n = I0.geometry.node_count
        with pytest.raises(RuntimeError, match="forward-only"):
            next(eng.transport.backward(lambda k: np.zeros((n, 3)), np.zeros((n, 3))))

    def test_forward_only_passes_match_full_ones(self, rng):
        from slidereg import flow

        I0, I1 = blob_pair_3d(16)
        cfg = small_config(T=4, control_stride=2)
        tm = random_momenta(cfg, I0.geometry, rng)
        full = _Engine(cfg, I0, I1)
        M = np.stack([block(ms.m0, ms.m1) for ms in tm.steps])
        assert total_energy(cfg, tm, I0, I1) == full.forward(M)
        tr = flow._Transport(I0.geometry, cfg.T, adjoint=True)
        tr.advect(full.asm.velocity(M[k]) for k in range(cfg.T))
        want = tr.inverse_map().targets
        assert np.array_equal(integrate(tm, cfg.kernel, I0.geometry).final_inverse.targets, want)

    def test_gram_energy_peak_is_one_order_and_apply_scratch(self, rng):
        # the energy multiplies one order's product by M in place and sums it before
        # the next order's is formed. On this 16^3 engine (block 196,608 B, one
        # order's slab 49,152 B) the peak over entry reads one slab + 50,920 B, the
        # two slabs of one order's Gram apply; a product block of all the slots read one slab
        # + 198,232 B (numpy 2.4).
        import tracemalloc

        I0, I1 = blob_pair_3d(16)
        eng = _Engine(small_config(T=4, control_stride=2), I0, I1)
        M = 0.3 * rng.standard_normal(eng.zero_theta().shape)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            eng.grams.energy(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= M[:, 0].nbytes + 120_000

    def test_result_holds_only_the_end_maps(self):
        # what optimize leaves allocated is its result: the momenta, the
        # warped image and the two maps at time 1, not the other 2T of the time path
        import tracemalloc

        I0, I1 = blob_pair_3d(16)
        cfg = small_config(T=10, control_stride=2, max_iters=2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = optimize(cfg, I0, I1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        momenta = {id(a): a.nbytes for ms in res.momenta.steps for a in (ms.points, ms.m0, ms.m1)}
        maps = res.flow.final.targets.nbytes + res.flow.final_inverse.targets.nbytes
        assert held <= sum(momenta.values()) + res.warped.values.nbytes + maps + 64 * 1024

    @pytest.mark.parametrize("pyramid", [False, True], ids=["single", "pyramid"])
    def test_result_shares_no_memory_with_the_workspace(self, monkeypatch, pyramid):
        from slidereg import flow

        made = []

        class Recorded(flow._Transport):
            def __init__(self, *a):
                super().__init__(*a)
                made.append(self)

        monkeypatch.setattr(flow, "_Transport", Recorded)
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(max_iters=3, pyramid=pyramid), pair.template, pair.reference)
        assert len(made) == 1 + pyramid
        buffers = [b for tr in made for b in (tr.maps, tr.base, tr.frac)]
        arrays = [res.warped.values, res.flow.final.targets, res.flow.final_inverse.targets]
        arrays += [a for ms in res.momenta.steps for a in (ms.points, ms.m0, ms.m1)]
        assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)


class TestPyramid:
    def test_warm_start_lowers_initial_energy(self):
        pair = gen_rectangle(32, 3)
        base = small_config(T=4, control_stride=2, max_iters=15, reg_weight=0.1,
                            lambda0=0.01, lambda1=0.01)
        from dataclasses import replace

        cold = optimize(base, pair.template, pair.reference)
        warm = optimize(replace(base, pyramid=True), pair.template, pair.reference)
        # the fine-level trace of the pyramid run starts from the prolonged
        # coarse solution, well below the zero-momenta energy
        assert warm.energy_trace[0].total < cold.energy_trace[0].total
        totals = [p.total for p in warm.energy_trace]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


    def test_coarse_block_and_start_are_not_kept_through_the_fine_descent(self, monkeypatch):
        # optimize holds neither the coarse solution nor the prolonged start: the
        # first is gone before the fine descent, the second once the fine
        # descent's second gradient (written into it) is dropped
        import weakref

        refs, alive = [], []
        real_prolong, real_backward = registration._prolong_momenta, _Engine.backward

        def prolong(coarse_pts, CM, fine_grid, stride):
            M = real_prolong(coarse_pts, CM, fine_grid, stride)
            refs.extend([weakref.ref(CM), weakref.ref(M)])
            return M

        def backward(self, *a):
            if refs:
                alive.append(tuple(r() is not None for r in refs))
            return real_backward(self, *a)

        monkeypatch.setattr(registration, "_prolong_momenta", prolong)
        monkeypatch.setattr(_Engine, "backward", backward)
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(max_iters=4, stop_rel_tol=0.0, pyramid=True), pair.template, pair.reference)
        assert res.iterations_used == 4
        assert alive == [(False, True)] * 2 + [(False, False)] * 2

    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    @pytest.mark.parametrize("spacing", [(2.5, 2.5), (2.5, 1.0), (2.5, 1.0, 2.5)])
    def test_every_coarse_momentum_lands(self, spacing, orders):
        # the coarse grid of a box-downsampled image is offset by half a
        # fine spacing, more than 1 physical unit once spacing > 2
        d = len(spacing)
        fine = GridGeometry((32 if d == 2 else 16,) * d, spacing, (0.0,) * d)
        coarse = box_downsample(ScalarImage(fine, np.zeros(fine.dims)))
        eng = _Engine(small_config(orders=orders, control_stride=2), coarse, coarse)
        fine_pts = control_lattice(fine, 2)
        n = eng.points.shape[0]
        cm = np.arange(1.0, eng.orders * d * n + 1).reshape(1, eng.orders, d, n)
        m = _prolong_momenta(eng.points, cm, fine, 2)
        assert m.shape == (1, eng.orders, d, fine_pts.shape[0])
        hit = np.flatnonzero(np.any(m[0] != 0.0, axis=(0, 1)))
        assert len(hit) == n == 64
        np.testing.assert_array_equal(np.sort(m[0][..., hit].ravel()), cm.ravel())
        # each lands on the fine node nearest to it
        for j, p in enumerate(eng.points):
            k = int(np.flatnonzero(m[0, 0, 0] == cm[0, 0, 0, j])[0])
            assert np.all(np.abs(fine_pts[k] - p) <= np.asarray(spacing))
            np.testing.assert_array_equal(m[0][..., k], cm[0][..., j])


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = small_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self):
        data = config_to_dict(small_config())
        data["zeal"] = 11
        with pytest.raises(ValueError):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [([1, 2], "config must be a JSON object, got list"),
         ({"kernel": "gaussian"}, "config key 'kernel' must be a JSON object, got str"),
         ({"kernel": {"family": "gaussian", "scale": 8, "windw": 17}}, r"unknown kernel keys: \['windw'\]")],
        ids=["top_level_list", "kernel_not_object", "unknown_kernel_key"],
    )
    def test_document_shape_checked(self, data, message):
        # the first two used to raise TypeError, and a misspelt kernel key was ignored
        with pytest.raises(ValueError, match=message):
            config_from_dict(data)

    def test_orders_validated(self):
        with pytest.raises(ValueError):
            small_config(orders="fifth")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(armijo_init=0.0),
            dict(armijo_init=-1.0),
            dict(armijo_shrink=0.0),
            dict(armijo_shrink=1.0),
            dict(armijo_shrink=1.5),
            dict(armijo_slope=-1.0),
            dict(armijo_slope=float("nan")),
            dict(max_shrinks=-1),
            dict(sparsity_eps=1e-6),
            dict(stop_rel_tol=-1e-6),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_line_search_settings_validated(self, kw):
        # a negative stop_rel_tol makes the stop rule meaningless; the line
        # search and smoothing constants are no longer settings, so a config
        # file that sets one, to any value, is refused as an unknown key
        data = config_to_dict(small_config())
        data.update(kw)
        with pytest.raises(ValueError, match=next(iter(kw))):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(T=2.5),
            dict(max_iters=2.5),
            dict(control_stride=2.5),
            dict(T=True),
            dict(max_iters=float("nan")),
            dict(control_stride="4"),
            dict(T=0),
            dict(max_iters=0),
            dict(control_stride=0),
            dict(control_stride=-2),
        ],
        ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
    )
    def test_counts_validated(self, kw):
        # a float T or max_iters crashes the solve with a TypeError, a
        # fractional stride puts control points between the nodes, and a
        # stride below 1 used to fail at engine build, naming no config key
        with pytest.raises(ValueError, match=next(iter(kw))):
            small_config(**kw)

    @pytest.mark.parametrize("name", ["lambda0", "lambda1", "reg_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_weights_must_be_finite(self, name, value):
        # nan < 0 is False, so a NaN weight used to pass and fail the solve numerically
        with pytest.raises(ValueError, match=f"weights must be finite and >= 0, got .*'{name}': {value}"):
            small_config(**{name: value})

    def test_window_key_refused(self):
        # the kernel scale alone sets the footprint, so a window is an unknown key
        data = config_to_dict(small_config())
        assert set(data["kernel"]) == {"family", "scale"}
        data["kernel"]["window"] = 9
        with pytest.raises(ValueError, match=r"unknown kernel keys: \['window'\]"):
            config_from_dict(data)

    def test_integral_float_counts_become_ints(self):
        cfg = small_config(T=2.0, max_iters=np.int64(3), control_stride=4.0)
        assert (cfg.T, cfg.max_iters, cfg.control_stride) == (2, 3, 4)
        assert all(type(v) is int for v in (cfg.T, cfg.max_iters, cfg.control_stride))

    @pytest.mark.parametrize(
        "kw, named",
        [(dict(pyramid="no"), "pyramid must be true or false, got 'no'"),
         (dict(pyramid=1), "pyramid must be true or false, got 1"),
         (dict(lambda0="0.1"), "lambda0 must be a real number, got '0.1'"),
         (dict(lambda1=True), "lambda1 must be a real number, got True"),
         (dict(reg_weight=None), "reg_weight must be a real number, got None"),
         (dict(stop_rel_tol="x"), "stop_rel_tol must be a real number, got 'x'")],
        ids=["pyramid_string", "pyramid_int", "lambda0_string", "lambda1_bool", "reg_weight_null", "tol_string"],
    )
    def test_value_types_checked(self, kw, named):
        # "no" used to run the pyramid, and the others ended in a TypeError
        data = {**config_to_dict(small_config()), **kw}
        with pytest.raises(ValueError, match=named):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "scale, named",
        [(None, "scale must be a real number, got None"), ("4", "scale must be a real number, got '4'"),
         (True, "scale must be a real number, got True"), (float("inf"), "scale must be finite and positive, got inf"),
         (float("nan"), "scale must be finite and positive, got nan")],
        ids=["null", "string", "bool", "infinity", "nan"],
    )
    def test_kernel_scale_checked(self, scale, named):
        data = config_to_dict(small_config())
        data["kernel"]["scale"] = scale
        with pytest.raises(ValueError, match=named):
            config_from_dict(data)

    def test_kernel_scale_becomes_a_float(self):
        cfg = config_from_dict({"kernel": {"family": "gaussian", "scale": 4}, "lambda0": 0})
        assert type(cfg.kernel.scale) is float and type(cfg.lambda0) is float
        assert cfg.kernel == KernelSpec("gaussian", 4.0)

    @pytest.mark.parametrize(
        "data, named",
        [({"T": 3}, "config missing required key 'kernel'"),
         ({"kernel": {"scale": 4.0}}, "kernel missing required key 'family'"),
         ({"kernel": {"family": "gaussian"}}, "kernel missing required key 'scale'")],
        ids=["kernel", "family", "scale"],
    )
    def test_missing_key_named(self, data, named):
        # a missing kernel used to surface as a bare KeyError, 'kernel'
        with pytest.raises(ValueError, match=named):
            config_from_dict(data)
