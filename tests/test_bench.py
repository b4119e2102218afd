import json

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from slidereg.bench import (
    ExperimentSpec,
    demo_momentum,
    gen_rectangle,
    gen_wheel,
    radial_profile,
    row_profile,
    run_experiment,
    sign_flip,
    transition_width,
    tre,
    _interior_jacobian_dets,
)
from slidereg.fileio import read_pgm, write_pgm
from slidereg.flow import jacobian_fd
from slidereg.geometry import (
    DeformationMap,
    GridGeometry,
    LandmarkSet,
    ScalarImage,
    box_downsample,
    identity_map,
    warp_image,
)
from slidereg.kernels import KernelSpec
from slidereg.registration import RegistrationConfig


class TestGenRectangle:
    def test_zero_shift_identical(self):
        pair = gen_rectangle(32, 0, antialias=False)
        np.testing.assert_array_equal(pair.template.values, pair.reference.values)

    def test_rows_adjacent_to_interface_shift_oppositely(self):
        pair = gen_rectangle(64, 5, antialias=False)
        yc = pair.interface_row
        tpl, ref = pair.template.values, pair.reference.values
        np.testing.assert_array_equal(ref[yc - 1, 5:], tpl[yc - 1, :-5])  # upper: +5
        np.testing.assert_array_equal(ref[yc, :-5], tpl[yc, 5:])  # lower: -5

    def test_binary_intensities(self):
        pair = gen_rectangle(32, 3, antialias=False)
        assert set(np.unique(pair.template.values)) == {0.0, 255.0}

    def test_true_map_reproduces_reference(self):
        pair = gen_rectangle(64, 5, antialias=False)
        warped = warp_image(pair.template, pair.true_map)
        np.testing.assert_allclose(warped.values, pair.reference.values, atol=1e-9)

    def test_landmark_pairs_consistent_with_map(self):
        pair = gen_rectangle(64, 5)
        assert len(pair.landmarks_template) == 20
        err = tre(
            pair.landmarks_reference, pair.landmarks_template, (1.0, 1.0), pair.true_map
        )
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_oversized_shift_rejected(self):
        with pytest.raises(ValueError):
            gen_rectangle(32, 8)


class TestGenWheel:
    def test_zero_angle_identical(self):
        pair = gen_wheel(64, 0.0, antialias=False)
        np.testing.assert_array_equal(pair.template.values, pair.reference.values)

    def test_interface_jump_magnitude(self):
        # a boundary point rotated +angle and -angle lands 2 r sin(angle)
        # apart: the displacement discontinuity of the piecewise rotation
        pair = gen_wheel(64, 5.0)
        r1 = pair.ring_radius
        a = np.deg2rad(5.0)
        for ang in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
            x = r1 * np.array([np.cos(ang), np.sin(ang)])
            rot = lambda s: np.array(
                [
                    np.cos(s) * x[0] - np.sin(s) * x[1],
                    np.sin(s) * x[0] + np.cos(s) * x[1],
                ]
            )
            gap = np.linalg.norm(rot(+a) - rot(-a))
            assert gap == pytest.approx(2 * r1 * np.sin(a), abs=1e-12)
        assert 2 * np.sin(a) == pytest.approx(0.1745, abs=2e-4)

    def test_map_displacements_opposite_across_ring(self):
        # node-sampled targets one pixel inside/outside move opposite ways
        pair = gen_wheel(64, 5.0)
        r1 = pair.ring_radius
        c = (64 - 1) / 2.0
        geom = pair.true_map.geometry
        disp = pair.true_map.displacement()
        from slidereg.geometry import interp_values

        for ang in np.linspace(0.3, 2 * np.pi, 8)[:-1]:
            tangent = np.array([-np.sin(ang), np.cos(ang)])
            p_in = np.array([c + (r1 - 1.2) * np.cos(ang), c + (r1 - 1.2) * np.sin(ang)])
            p_out = np.array([c + (r1 + 1.2) * np.cos(ang), c + (r1 + 1.2) * np.sin(ang)])
            d_in = interp_values(disp, geom, p_in[None, :])[0] @ tangent
            d_out = interp_values(disp, geom, p_out[None, :])[0] @ tangent
            assert d_in * d_out < 0
            assert abs(d_in) > 0.5 and abs(d_out) > 0.5

    def test_rotation_determinant_one_off_interface(self):
        pair = gen_wheel(64, 5.0)
        r1 = pair.ring_radius
        c = (64 - 1) / 2.0
        for radius in (r1 - 4.0, r1 + 4.0):
            x = np.array([c + radius, c])
            det = np.linalg.det(jacobian_fd(pair.true_map, x, 0.4))
            assert det == pytest.approx(1.0, abs=5e-2)

    def test_angle_range_validated(self):
        with pytest.raises(ValueError):
            gen_wheel(64, 45.0)


class TestTRE:
    def test_identity_identical_sets(self, rng):
        pts = rng.uniform(0, 30, (10, 2))
        lms = LandmarkSet(pts)
        assert tre(lms, lms, (1.0, 1.0)) == 0.0

    def test_identity_is_plain_mean_distance(self, rng):
        a = LandmarkSet(rng.uniform(0, 30, (15, 2)))
        b = LandmarkSet(rng.uniform(0, 30, (15, 2)))
        want = float(np.mean(np.linalg.norm(a.points - b.points, axis=1)))
        assert tre(a, b, (1.0, 1.0)) == pytest.approx(want)

    def test_spacing_scales_linearly(self, rng):
        a = LandmarkSet(rng.uniform(0, 30, (15, 3)))
        b = LandmarkSet(rng.uniform(0, 30, (15, 3)))
        one = tre(a, b, (1.0, 1.0, 1.0))
        scaled = tre(a, b, (2.5, 2.5, 2.5))
        assert scaled == pytest.approx(2.5 * one)

    def test_count_mismatch(self, rng):
        a = LandmarkSet(rng.uniform(0, 30, (5, 2)))
        b = LandmarkSet(rng.uniform(0, 30, (6, 2)))
        with pytest.raises(ValueError):
            tre(a, b, (1.0, 1.0))

    def test_map_moves_landmarks(self):
        geom = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
        targets = geom.node_positions() - np.array([0.0, 2.0])
        dmap = DeformationMap(geom, targets, "inverse")
        ref = LandmarkSet(np.array([[10.0, 12.0]]))
        tpl = LandmarkSet(np.array([[10.0, 10.0]]))
        assert tre(ref, tpl, (1.0, 1.0), dmap) == pytest.approx(0.0, abs=1e-12)


class TestTransitionWidth:
    GEOM = GridGeometry((64, 64), (1.0, 1.0), (0.0, 0.0))

    def _step_map(self, profile):
        disp = np.zeros(self.GEOM.dims + (2,))
        disp[..., 1] = profile[:, None]
        return DeformationMap(self.GEOM, self.GEOM.node_positions() + disp, "inverse")

    def test_analytic_rectangle_map_width_one(self):
        pair = gen_rectangle(64, 5)
        assert transition_width(pair.true_map, 0, pair.interface_row) == 1

    def test_blurred_step_at_least_five(self):
        step = np.where(np.arange(64) < 32, -5.0, 5.0)
        smooth = gaussian_filter(step, sigma=3.0)
        assert transition_width(self._step_map(smooth), 0, 32) >= 5

    def test_zero_map_undefined(self):
        dmap = identity_map(self.GEOM, "inverse")
        assert transition_width(dmap, 0, 32) is None


class TestSignFlip:
    def test_sharp_flip_detected(self):
        prof = np.array([-1.0, -1.0, -0.9, 1.0, 1.0, 0.9])
        assert sign_flip(prof)

    def test_gradual_crossing_not_detected(self):
        prof = np.array([-1.0, -0.6, -0.2, 0.2, 0.6, 1.0])
        assert not sign_flip(prof)

    def test_all_zero(self):
        assert not sign_flip(np.zeros(6))

    def test_nan_bins_skipped(self):
        prof = np.array([np.nan, -1.0, 1.0, np.nan])
        assert sign_flip(prof)


class TestRowProfile:
    def test_uniform_shift_profile(self):
        geom = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))
        disp = np.zeros(geom.dims + (2,))
        disp[:8, :, 1] = 2.0
        dmap = DeformationMap(geom, geom.node_positions() + disp, "inverse")
        prof = row_profile(dmap, 0)
        np.testing.assert_allclose(prof[:8], 2.0)
        np.testing.assert_allclose(prof[8:], 0.0)


class TestBoxDownsample:
    def test_block_means(self):
        geom = GridGeometry((4, 4), (1.0, 1.0), (0.0, 0.0))
        vals = np.arange(16, dtype=float).reshape(4, 4)
        small = box_downsample(ScalarImage(geom, vals), 2)
        assert small.geometry.dims == (2, 2)
        np.testing.assert_allclose(small.values, [[2.5, 4.5], [10.5, 12.5]])
        assert small.geometry.spacing == (2.0, 2.0)
        assert small.geometry.origin == (0.5, 0.5)

    def test_factor_one_identity(self, random_image):
        assert box_downsample(random_image, 1) is random_image


class TestDemoMomentum:
    def test_translation_demo_direction_cosine(self):
        demo = demo_momentum("fig1a")
        disp = demo.flow.final.displacement().reshape(-1, 2)
        mags = np.linalg.norm(disp, axis=1)
        moving = mags > 1e-3
        assert moving.any()
        cos = disp[moving, 1] / mags[moving]  # momentum points along +x
        assert np.min(cos) >= 0.99

    @staticmethod
    def _kink_line_probe(demo):
        """Tangential velocity just off the kink line over the column peak."""
        from slidereg.kernels import eval_partial_many

        y = demo.momenta.points[0]
        m = demo.momenta.m1[0, 0]  # derivative slot along rows

        def v_x(row):
            pts = np.array([[row, y[1]]])
            return float(eval_partial_many(demo.kernel, 0, pts, y)[0] * m[1])

        rows = np.linspace(y[0] - 6, y[0] + 6, 121)
        peak = max(abs(v_x(r)) for r in rows)
        above, below = v_x(y[0] + 0.5), v_x(y[0] - 0.5)
        return above, below, peak

    def test_sliding_demo_sign_flip(self):
        # non-smooth kernel: the tangential velocity right at the line is a
        # large fraction of the peak and flips sign across it
        above, below, peak = self._kink_line_probe(demo_momentum("fig1c"))
        assert above * below < 0
        assert min(abs(above), abs(below)) >= 0.8 * peak
        # the integrated map shows the same signature one row out
        demo = demo_momentum("fig1c")
        prof = row_profile(demo.flow.final_inverse, 0, band=(28, 37))
        assert sign_flip(prof, min_frac=0.5, max_gap=1)

    def test_shear_demo_smooth_nonzero(self):
        demo = demo_momentum("fig1b")
        v = demo.velocity.vectors
        assert np.max(np.abs(v)) > 0.0
        grads = np.gradient(v[..., 1])
        assert np.all(np.isfinite(grads))
        # smooth kernel: the velocity right at the line is a small fraction
        # of the peak (linear crossing), so no jump is detected
        above, below, peak = self._kink_line_probe(demo)
        assert min(abs(above), abs(below)) <= 0.4 * peak

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            demo_momentum("fig1z")

    def test_writes_grid_artifact(self, tmp_path):
        demo = demo_momentum("fig1a", str(tmp_path))
        assert len(demo.files) == 1
        from slidereg.fileio import read_pgm

        img = read_pgm(demo.files[0])
        assert img.geometry.dims == (64, 64)


class TestExperimentSpec:
    def _cfg(self):
        return RegistrationConfig(kernel=KernelSpec("gaussian", 4.0, 9))

    def test_needs_method(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec("x", self._cfg(), str(tmp_path), methods=(),
                           generator={"kind": "rectangle"})

    def test_needs_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec("x", self._cfg(), str(tmp_path), methods=("gaussian",))

    def test_unknown_method(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec("x", self._cfg(), str(tmp_path), methods=("splines",),
                           generator={"kind": "rectangle"})


class TestInteriorJacobian:
    @staticmethod
    def per_node_dets(dmap):
        # the per-node jacobian_fd loop the vectorised version replaces
        geom = dmap.geometry
        step = max(1, min(geom.dims) // 32)
        sl = tuple(slice(2, n - 2, step) for n in geom.dims)
        h = 0.5 * min(geom.spacing)
        return np.array([np.linalg.det(jacobian_fd(dmap, x, h)) for x in geom.node_positions()[sl].reshape(-1, geom.ndim)])

    @pytest.mark.parametrize("spacing", [(1.0, 1.0), (0.5, 2.0)])
    def test_matches_per_node_jacobian_fd(self, spacing, rng):
        geom = GridGeometry((20, 24), spacing, (-1.0, 3.0))
        pos = geom.node_positions()
        targets = pos + 0.3 * rng.standard_normal(pos.shape)
        dmap = DeformationMap(geom, targets, "inverse")
        np.testing.assert_allclose(_interior_jacobian_dets(dmap), self.per_node_dets(dmap), rtol=1e-12, atol=1e-12)

    def test_sampled_3d_nodes(self, rng):
        # 64^3 samples every second node from the third face layer on
        geom = GridGeometry((64, 64, 64), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        dets = _interior_jacobian_dets(identity_map(geom, "inverse"))
        assert dets.shape == (30**3,)
        np.testing.assert_allclose(dets, 1.0, rtol=1e-12)

    def test_counts_folded_nodes(self):
        # columns past x = 10 are mirrored back: det -1 there and 0 on the
        # crease column, where the central difference straddles the fold
        geom = GridGeometry((20, 20), (1.0, 1.0), (0.0, 0.0))
        targets = geom.node_positions()
        x = targets[..., 1]
        targets[..., 1] = np.where(x <= 10.0, x, 20.0 - x)
        dets = _interior_jacobian_dets(DeformationMap(geom, targets, "forward"))
        assert dets.size == 16 * 16
        assert int(np.count_nonzero(dets <= 0.0)) == 16 * 8
        assert dets.min() == -1.0


class TestRunExperiment:
    def test_identical_images_all_zero(self, tmp_path):
        cfg = RegistrationConfig(
            kernel=KernelSpec("gaussian", 4.0, 9), T=3, max_iters=5, control_stride=4
        )
        spec = ExperimentSpec(
            "null", cfg, str(tmp_path), methods=("gaussian",),
            generator={"kind": "rectangle", "size": 32, "shift": 0},
        )
        report = run_experiment(spec)
        assert report.ssd_before == 0.0
        assert report.ssd_after["gaussian"] == pytest.approx(0.0, abs=1e-12)
        payload = json.loads((tmp_path / "null" / "report.json").read_text())
        assert payload["ssd_before"] == 0.0
        assert payload["fold_count"] == {"gaussian": 0}
        assert payload["stop_reason"] == {"gaussian": "gradient_zero"}
        assert payload["iterations"] == {"gaussian": 0}
        assert payload["jacobian_min"]["gaussian"] == pytest.approx(1.0)
        for artifact in ("warped.pgm", "deformation_magnitude.pgm", "deformed_grid.pgm", "trace.csv"):
            assert (tmp_path / "null" / "gaussian" / artifact).exists()

    def test_trace_csv_has_header(self, tmp_path):
        cfg = RegistrationConfig(
            kernel=KernelSpec("gaussian", 4.0, 9), T=2, max_iters=3, control_stride=4
        )
        spec = ExperimentSpec(
            "small", cfg, str(tmp_path), methods=("gaussian",),
            generator={"kind": "rectangle", "size": 32, "shift": 2},
        )
        report = run_experiment(spec)
        lines = (tmp_path / "small" / "gaussian" / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,E_S,E_R,sparsity,total"
        assert len(lines) == 2 + report.iterations["gaussian"]

    def test_dataset_pgm_pair_with_one_based_landmarks(self, tmp_path):
        pair = gen_rectangle(32, 2)
        data = tmp_path / "data"
        data.mkdir()
        for name, img in (("tpl.pgm", pair.template), ("ref.pgm", pair.reference)):
            write_pgm(data / name, ScalarImage(img.geometry, np.rint(img.values)))
        np.savetxt(data / "tpl_lms.txt", pair.landmarks_template.points + 1.0, fmt="%.1f")
        np.savetxt(data / "ref_lms.txt", pair.landmarks_reference.points + 1.0, fmt="%.1f")
        cfg = RegistrationConfig(kernel=KernelSpec("gaussian", 4.0, 9), T=2, max_iters=3, control_stride=4)
        spec = ExperimentSpec(
            "pgm", cfg, str(tmp_path / "out"), methods=("wendland_both",),
            dataset={
                "template": str(data / "tpl.pgm"),
                "reference": str(data / "ref.pgm"),
                "template_landmarks": str(data / "tpl_lms.txt"),
                "reference_landmarks": str(data / "ref_lms.txt"),
            },
        )
        report = run_experiment(spec)
        # the generator's 0-based landmarks sit 2 px apart along the rows
        assert report.tre_before_mm == pytest.approx(2.0)
        assert set(report.tre_after_mm) == {"wendland_both"}
        assert report.transition_width_rows is None
        payload = json.loads((tmp_path / "out" / "pgm" / "report.json").read_text())
        assert payload["tre_after_mm"] == report.tre_after_mm
        assert payload["iterations"]["wendland_both"] == 3
        assert payload["stop_reason"]["wendland_both"] == "max_iters"

    def test_dataset_raw16_pair_with_stem_sidecars(self, tmp_path, write_raw16):
        pair = gen_rectangle(24, 2)
        tpl = write_raw16(tmp_path / "tpl", np.rint(pair.template.values), (1.5, 1.0))
        ref = write_raw16(tmp_path / "ref", np.rint(pair.reference.values), (1.5, 1.0))
        cfg = RegistrationConfig(kernel=KernelSpec("gaussian", 4.0, 9), T=2, max_iters=2, control_stride=4)
        spec = ExperimentSpec(
            "raw", cfg, str(tmp_path / "out"), methods=("gaussian",),
            dataset={"template": str(tpl), "reference": str(ref)},
        )
        report = run_experiment(spec)
        expected = 0.5 * np.mean((np.rint(pair.template.values) - np.rint(pair.reference.values)) ** 2)
        assert report.ssd_before == pytest.approx(expected)
        assert report.ssd_after["gaussian"] < report.ssd_before
        assert report.tre_before_mm is None and report.tre_after_mm is None
        assert (tmp_path / "out" / "raw" / "gaussian" / "warped.pgm").exists()

    def test_dataset_raw16_volume(self, tmp_path, write_raw16):
        # a volume's PGM views are its central axis-0 slices
        _, y, x = np.mgrid[0:8, 0:16, 0:16]
        inside = (np.abs(y - 7.5) < 4) & (np.abs(x - 7.5) < 4)
        tpl = write_raw16(tmp_path / "tpl", np.where(inside, 200, 20), (2.0, 1.0, 1.0))
        ref = write_raw16(tmp_path / "ref", np.where(np.roll(inside, 1, axis=2), 200, 20), (2.0, 1.0, 1.0))
        cfg = RegistrationConfig(kernel=KernelSpec("gaussian", 4.0, 9), T=2, max_iters=2, control_stride=4)
        spec = ExperimentSpec(
            "vol", cfg, str(tmp_path / "out"), methods=("gaussian",),
            dataset={"template": str(tpl), "reference": str(ref)},
        )
        report = run_experiment(spec)
        assert report.ssd_after["gaussian"] < report.ssd_before
        assert report.fold_count["gaussian"] == 0
        for artifact in ("warped.pgm", "deformation_magnitude.pgm", "deformed_grid.pgm"):
            assert read_pgm(tmp_path / "out" / "vol" / "gaussian" / artifact).geometry.dims == (16, 16)

    def test_failure_removes_partial_artifacts(self, tmp_path, monkeypatch):
        import slidereg.bench as bench_mod

        cfg = RegistrationConfig(
            kernel=KernelSpec("gaussian", 4.0, 9), T=2, max_iters=3, control_stride=4
        )
        spec = ExperimentSpec(
            "doomed", cfg, str(tmp_path), methods=("gaussian", "wendland_zeroth"),
            generator={"kind": "rectangle", "size": 32, "shift": 2},
        )
        calls = {"n": 0}
        real = bench_mod.reg.optimize

        def explode(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise bench_mod.DivergenceError("boom")
            return real(*a, **kw)

        monkeypatch.setattr(bench_mod.reg, "optimize", explode)
        with pytest.raises(bench_mod.DivergenceError):
            run_experiment(spec)
        assert not (tmp_path / "doomed").exists()
