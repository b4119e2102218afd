import math

import numpy as np
import pytest

from slidereg.bench import gen_rectangle
from slidereg.flow import integrate
from slidereg.errors import DivergenceError
from slidereg.geometry import GridGeometry, ScalarImage, box_downsample, warp_image
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
    _make_engine,
    _prolong_momenta,
)

GRID16 = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))


def small_config(family="wendland_c0_mult", **kw):
    defaults = dict(
        kernel=KernelSpec(family, 4.0, 9),
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


def oracle_descend(eng, I0, I1):
    """Armijo descent from zero that reruns each iterate's forward pass in
    ``energy_and_grad``; returns the final momenta, the energy trace and the
    number of line-search candidates evaluated."""
    cfg = eng.cfg
    m0, m1 = eng.zero_theta()
    trace = [eng.forward(m0, m1, I0, I1)[0]]
    alpha_prev = cfg.armijo_init
    candidates = 0
    for _ in range(cfg.max_iters):
        parts, g0, g1 = eng.energy_and_grad(m0, m1, I0, I1)
        gnorm2 = float(np.sum(g0 * g0) + np.sum(g1 * g1))
        if gnorm2 <= 1e-30:
            break
        alpha = min(cfg.armijo_init, 2.0 * alpha_prev)
        for _shrink in range(cfg.max_shrinks + 1):
            c0, c1 = m0 - alpha * g0, m1 - alpha * g1
            candidates += 1
            try:
                cand = eng.forward(c0, c1, I0, I1)[0]
            except DivergenceError:
                cand = None
            if cand is not None and cand.total <= parts.total - cfg.armijo_slope * alpha * gnorm2:
                break
            alpha *= cfg.armijo_shrink
        else:
            break
        m0, m1, alpha_prev = c0, c1, alpha
        trace.append(cand)
        if len(trace) > 5 and (trace[-6].total - cand.total) / max(abs(trace[-6].total), 1e-30) < cfg.stop_rel_tol:
            break
    return m0, m1, trace, candidates


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
        eng = _make_engine(small_config(), GRID16)
        m0, m1 = eng.zero_theta()
        m0[1, 3, 0] = np.nan
        with pytest.raises(DivergenceError):
            eng.forward(m0, m1, pair.template, pair.reference)


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
            r0, r1 = grams.grad(tm.steps[k].m0, tm.steps[k].m1)
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
        # the backward pass reuses the forward stencils: T transport steps
        # plus the final template sample locate their points once each
        from slidereg import geometry

        calls = []
        real = geometry._locate
        monkeypatch.setattr(geometry, "_locate", lambda *a: calls.append(1) or real(*a))
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        gradient(cfg, random_momenta(cfg, GRID16, rng), pair.template, pair.reference)
        assert len(calls) == cfg.T + 1

    def test_never_forms_point_jacobian(self, rng, monkeypatch):
        # the adjoint contracts psibar into each stencil through
        # point_grad_dot instead of forming the (N, c, d) point Jacobian
        from slidereg.geometry import Stencil

        def forbidden(*a):
            raise AssertionError("Stencil.point_grad called")

        monkeypatch.setattr(Stencil, "point_grad", forbidden)
        pair = gen_rectangle(16, 2)
        cfg = small_config()
        g = gradient(cfg, random_momenta(cfg, GRID16, rng), pair.template, pair.reference)
        assert any(np.any(ms.m0 != 0.0) for ms in g.steps)


class TestOptimize:
    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_matches_descent_that_recomputes_each_iterate(self, family, orders):
        # reusing the accepted candidate's forward state for the next
        # gradient must not change a single bit of the descent
        pair = gen_rectangle(16, 2)
        cfg = small_config(family, orders=orders, max_iters=8, stop_rel_tol=0.0)
        m0, m1, trace, candidates = oracle_descend(_make_engine(cfg, GRID16), pair.template, pair.reference)
        assert candidates > cfg.max_iters  # some candidates were rejected
        res = optimize(cfg, pair.template, pair.reference)
        assert res.iterations_used == len(trace) - 1 == cfg.max_iters
        np.testing.assert_array_equal(np.array(res.energy_trace), np.array(trace))
        np.testing.assert_array_equal(np.stack([ms.m0 for ms in res.momenta.steps]), m0)
        np.testing.assert_array_equal(np.stack([ms.m1 for ms in res.momenta.steps]), m1)

    def test_one_transport_per_iterate(self, monkeypatch):
        # the initial energy and each line-search candidate transport once
        # each; gradients and the result's flow transport nothing
        from slidereg import flow

        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=6, stop_rel_tol=0.0)
        _, _, _, candidates = oracle_descend(_make_engine(cfg, GRID16), pair.template, pair.reference)
        calls = []
        real = flow._advect_inverse
        monkeypatch.setattr(flow, "_advect_inverse", lambda *a: calls.append(1) or real(*a))
        optimize(cfg, pair.template, pair.reference)
        assert len(calls) == 1 + candidates

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
        "stop_reason, kw",
        [
            ("max_iters", dict(max_iters=4, stop_rel_tol=0.0)),
            ("max_iters", dict(max_iters=4, stop_rel_tol=0.0, orders="zeroth_only")),
            ("rel_tol", dict(stop_rel_tol=1.0)),
            ("gradient_zero", dict()),
            ("line_search_stalled", dict(max_shrinks=2, stop_rel_tol=0.0)),
            ("max_iters", dict(max_iters=6, stop_rel_tol=0.0, pyramid=True)),
        ],
        ids=["max_iters", "zeroth_only", "rel_tol", "gradient_zero", "line_search_stalled", "pyramid"],
    )
    def test_result_equals_integrate_of_momenta(self, stop_reason, kw):
        # the flow taken from the descent's final state must be the one
        # flow.integrate computes from scratch for the returned momenta
        pair = gen_rectangle(16, 2)
        reference = pair.template if stop_reason == "gradient_zero" else pair.reference
        cfg = small_config(**kw)
        res = optimize(cfg, pair.template, reference)
        assert res.stop_reason == stop_reason
        if stop_reason == "line_search_stalled":
            assert res.iterations_used > 0  # the stall comes after accepted steps
        fp = integrate(res.momenta, cfg.kernel, GRID16)
        assert len(res.flow.maps) == len(fp.maps) == cfg.T + 1
        for got, want in zip(res.flow.maps + res.flow.inv_maps, fp.maps + fp.inv_maps):
            assert got.direction == want.direction
            np.testing.assert_array_equal(got.targets, want.targets)
        np.testing.assert_array_equal(res.warped.values, warp_image(pair.template, fp.final_inverse).values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_candidate_is_rejected(self, monkeypatch):
        # the first step overflows the momenta; the line search must reject
        # it before synthesis, without a floating-point warning, and shrink
        # past it (the subnormal shrink factor takes alpha from 1e308 to 0.1)
        from slidereg import flow

        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=3, armijo_init=1e308, armijo_shrink=1e-309)
        eng = _make_engine(cfg, GRID16)
        m0, m1 = eng.zero_theta()
        _, g0, g1 = eng.energy_and_grad(m0, m1, pair.template, pair.reference)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(1e308 * g0))

        finite = []
        real = flow._advect_inverse

        def advect(velocities, *a):
            def seen():
                for v in velocities:
                    finite.append(bool(np.all(np.isfinite(v))))
                    yield v

            return real(seen(), *a)

        monkeypatch.setattr(flow, "_advect_inverse", advect)
        res = optimize(cfg, pair.template, pair.reference)
        assert finite and all(finite)  # no transport saw the overflowing candidate
        assert res.iterations_used == 3
        assert res.energy_trace[-1].total < res.energy_trace[0].total

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_candidates_are_rejected_quietly(self):
        # alpha halves from 1e308: past the first few candidates the momenta
        # stay finite, but their regulariser and sparsity overflow; each is
        # rejected without a floating-point warning until the search stalls
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(armijo_init=1e308), pair.template, pair.reference)
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

    def test_stops_when_line_search_stalls(self):
        # no step can meet an absurd sufficient-decrease slope
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(armijo_slope=1e12, max_shrinks=2), pair.template, pair.reference)
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


    @pytest.mark.parametrize("spacing", [(2.5, 2.5), (2.5, 1.0)])
    def test_every_coarse_momentum_lands(self, spacing):
        # the coarse grid of a box-downsampled image is offset by half a
        # fine spacing, more than 1 physical unit once spacing > 2
        fine = GridGeometry((32, 32), spacing, (0.0, 0.0))
        coarse = box_downsample(ScalarImage(fine, np.zeros(fine.dims))).geometry
        coarse_pts = control_lattice(coarse, 2)
        fine_pts = control_lattice(fine, 2)
        n = coarse_pts.shape[0]
        cm0 = np.arange(1.0, 2 * n + 1).reshape(1, n, 2)
        cm1 = np.arange(1.0, 4 * n + 1).reshape(1, n, 2, 2)
        m0, m1 = _prolong_momenta(coarse_pts, cm0, cm1, fine, 2)
        assert m0.shape == (1,) + fine_pts.shape
        hit = np.flatnonzero(np.any(m0[0] != 0.0, axis=1))
        assert len(hit) == n == 64
        np.testing.assert_array_equal(np.sort(m0[0, hit].ravel()), cm0.ravel())
        np.testing.assert_array_equal(np.sort(m1[0, hit].ravel()), cm1.ravel())
        # each lands on the fine node nearest to it
        for j, p in enumerate(coarse_pts):
            k = int(np.flatnonzero(m0[0, :, 0] == cm0[0, j, 0])[0])
            assert np.all(np.abs(fine_pts[k] - p) <= np.asarray(spacing))
            np.testing.assert_array_equal(m1[0, k], cm1[0, j])


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

    def test_orders_validated(self):
        with pytest.raises(ValueError):
            small_config(orders="fifth")
