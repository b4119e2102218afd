import math

import numpy as np
import pytest

from slidereg import registration
from slidereg.bench import gen_rectangle
from slidereg.flow import integrate
from slidereg.errors import DivergenceError
from slidereg.geometry import GridGeometry, ScalarImage, box_downsample, warp_image
from slidereg.kernels import KernelSpec
from slidereg.momenta import KernelGrams, MomentumSet, TimeMomenta, _block, _unblock, control_lattice
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


def oracle_descend(eng, I0, I1):
    """Armijo descent from zero that reruns each iterate's forward pass in
    ``energy_and_grad``; returns the final momentum block, the energy trace
    and the number of line-search candidates evaluated."""
    cfg, r = eng.cfg, registration
    M = eng.zero_theta()
    trace = [eng.forward(M, I0, I1)[0]]
    alpha_prev, shrunk = r._ARMIJO_INIT, False
    candidates = 0
    for _ in range(cfg.max_iters):
        parts, G = eng.energy_and_grad(M, I0, I1)
        gnorm2 = float(np.sum(G * G))
        if gnorm2 <= 1e-30:
            break
        # a search that had to shrink hands its accepted step to the next one
        alpha = alpha_prev if shrunk else min(r._ARMIJO_INIT, 2.0 * alpha_prev)
        for shrinks in range(r._MAX_SHRINKS + 1):
            C = M - alpha * G
            candidates += 1
            try:
                cand = eng.forward(C, I0, I1)[0]
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
        M = eng.zero_theta()
        M[1, 3, 0, 0] = np.nan
        with pytest.raises(DivergenceError):
            eng.forward(M, pair.template, pair.reference)


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
            r0, r1 = _unblock(grams.grad(_block(tm.steps[k].m0, tm.steps[k].m1)))
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

    def test_one_lookup_per_point_set_in_a_solve(self, monkeypatch):
        # each forward pass locates its T step points and the final sample;
        # the forward maps locate T more, and the warped image reuses the
        # final sample's stencil
        from slidereg import geometry

        calls = []
        real = geometry._locate
        monkeypatch.setattr(geometry, "_locate", lambda *a: calls.append(1) or real(*a))
        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=4, stop_rel_tol=0.0)
        res = optimize(cfg, pair.template, pair.reference)
        assert len(calls) == (cfg.T + 1) * res.forward_passes + cfg.T

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


class TestOptimize:
    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    @pytest.mark.parametrize("family", ["gaussian", "wendland_c0_mult"])
    def test_matches_descent_that_recomputes_each_iterate(self, family, orders):
        # reusing the accepted candidate's forward state for the next
        # gradient must not change a single bit of the descent
        pair = gen_rectangle(16, 2)
        cfg = small_config(family, orders=orders, max_iters=8, stop_rel_tol=0.0)
        eng = _make_engine(cfg, GRID16)
        M, trace, candidates = oracle_descend(eng, pair.template, pair.reference)
        assert candidates > cfg.max_iters  # some candidates were rejected
        res = optimize(cfg, pair.template, pair.reference)
        assert res.iterations_used == len(trace) - 1 == cfg.max_iters
        np.testing.assert_array_equal(np.array(res.energy_trace), np.array(trace))
        m0, m1 = _unblock(M)
        np.testing.assert_array_equal(np.stack([ms.m0 for ms in res.momenta.steps]), m0)
        np.testing.assert_array_equal(np.stack([ms.m1 for ms in res.momenta.steps]), m1)

    def test_one_transport_per_iterate(self, monkeypatch):
        # the initial energy and each line-search candidate transport once
        # each; gradients and the result's flow transport nothing
        from slidereg import flow

        pair = gen_rectangle(16, 2)
        cfg = small_config(max_iters=6, stop_rel_tol=0.0)
        _, _, candidates = oracle_descend(_make_engine(cfg, GRID16), pair.template, pair.reference)
        calls = []
        real = flow._advect_inverse
        monkeypatch.setattr(flow, "_advect_inverse", lambda *a: calls.append(1) or real(*a))
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
        real = flow._advect_inverse
        monkeypatch.setattr(flow, "_advect_inverse", lambda *a: calls.append(1) or real(*a))
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
        assert len(res.flow.maps) == len(fp.maps) == cfg.T + 1
        for got, want in zip(res.flow.maps + res.flow.inv_maps, fp.maps + fp.inv_maps):
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
        eng = _make_engine(cfg, GRID16)
        _, G = eng.energy_and_grad(eng.zero_theta(), pair.template, pair.reference)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(1e308 * G))

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


def _transport_arrays(state):
    """The maps and stencil arrays of a forward state, in a fixed order."""
    psis, stencils, final = state[:3]
    return list(psis) + [getattr(st, name) for st in stencils + [final] for name in ("base", "frac", "unclamped")]


class TestWorkspace:
    def test_passes_reuse_the_buffers_and_match_a_fresh_engine(self, rng):
        pair = gen_rectangle(16, 2)
        I0, I1 = pair.template, pair.reference
        cfg = small_config()
        eng = _make_engine(cfg, GRID16)
        shape = eng.zero_theta().shape
        first = eng.forward(0.4 * rng.standard_normal(shape), I0, I1)[1]
        M = 0.4 * rng.standard_normal(shape)
        parts, second = eng.forward(M, I0, I1)
        for a, b in zip(_transport_arrays(first), _transport_arrays(second), strict=True):
            assert np.shares_memory(a, b)
        fresh = _make_engine(cfg, GRID16)
        want_parts, want = fresh.forward(M, I0, I1)
        assert parts == want_parts
        for a, b in zip(_transport_arrays(second) + list(second[3:]), _transport_arrays(want) + list(want[3:]), strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(eng.backward(M, I0, second), fresh.backward(M, I0, want))

    def test_stencil_buffers_are_freed_before_the_result_copies(self, monkeypatch):
        # peak memory: the maps live on in the final state, the stencil buffers do not
        import weakref

        from slidereg import flow

        buffers, alive = [], []

        class Recorded(flow._Workspace):
            def __init__(self, *a):
                super().__init__(*a)
                buffers.extend(weakref.ref(b) for b in (self.base, self.frac, self.unclamped, self.index))

        real = flow._flow_path

        def flow_path(*a):
            alive.extend(ref() is not None for ref in buffers)
            return real(*a)

        monkeypatch.setattr(flow, "_Workspace", Recorded)
        monkeypatch.setattr(flow, "_flow_path", flow_path)
        pair = gen_rectangle(16, 2)
        optimize(small_config(max_iters=3), pair.template, pair.reference)
        assert len(alive) == 4 and not any(alive)

    @pytest.mark.parametrize("pyramid", [False, True], ids=["single", "pyramid"])
    def test_result_shares_no_memory_with_the_workspace(self, monkeypatch, pyramid):
        from slidereg import flow

        made = []

        class Recorded(flow._Workspace):
            def __init__(self, *a):
                super().__init__(*a)
                made.append(self)

        monkeypatch.setattr(flow, "_Workspace", Recorded)
        pair = gen_rectangle(16, 2)
        res = optimize(small_config(max_iters=3, pyramid=pyramid), pair.template, pair.reference)
        assert len(made) == 1 + pyramid
        buffers = [b for ws in made for b in (ws.maps, ws.base, ws.frac, ws.unclamped, ws.index)]
        arrays = [res.warped.values] + [m.targets for m in res.flow.maps + res.flow.inv_maps]
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


    @pytest.mark.parametrize("orders", ["zeroth_only", "zeroth_and_first"])
    @pytest.mark.parametrize("spacing", [(2.5, 2.5), (2.5, 1.0), (2.5, 1.0, 2.5)])
    def test_every_coarse_momentum_lands(self, spacing, orders):
        # the coarse grid of a box-downsampled image is offset by half a
        # fine spacing, more than 1 physical unit once spacing > 2
        d = len(spacing)
        fine = GridGeometry((32 if d == 2 else 16,) * d, spacing, (0.0,) * d)
        coarse = box_downsample(ScalarImage(fine, np.zeros(fine.dims))).geometry
        eng = _make_engine(small_config(orders=orders, control_stride=2), coarse)
        fine_pts = control_lattice(fine, 2)
        n = eng.points.shape[0]
        cm = np.arange(1.0, eng.orders * d * n + 1).reshape(1, n, eng.orders, d)
        m = _prolong_momenta(eng.points, cm, fine, 2)
        assert m.shape == (1, fine_pts.shape[0], eng.orders, d)
        hit = np.flatnonzero(np.any(m[0] != 0.0, axis=(1, 2)))
        assert len(hit) == n == 64
        np.testing.assert_array_equal(np.sort(m[0, hit].ravel()), cm.ravel())
        # each lands on the fine node nearest to it
        for j, p in enumerate(eng.points):
            k = int(np.flatnonzero(m[0, :, 0, 0] == cm[0, j, 0, 0])[0])
            assert np.all(np.abs(fine_pts[k] - p) <= np.asarray(spacing))
            np.testing.assert_array_equal(m[0, k], cm[0, j])


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
        ],
        ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
    )
    def test_counts_validated(self, kw):
        # a float T or max_iters crashes the solve with a TypeError, and a
        # fractional stride puts control points between the nodes
        with pytest.raises(ValueError, match=next(iter(kw))):
            small_config(**kw)

    def test_integral_float_counts_become_ints(self):
        cfg = small_config(T=2.0, max_iters=np.int64(3), control_stride=4.0)
        assert (cfg.T, cfg.max_iters, cfg.control_stride) == (2, 3, 4)
        assert all(type(v) is int for v in (cfg.T, cfg.max_iters, cfg.control_stride))
