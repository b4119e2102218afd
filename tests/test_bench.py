import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from slidereg.bench import (
    demo_momentum,
    gen_rectangle,
    gen_wheel,
    row_profile,
    run_experiment,
    transition_width,
    tre,
    _interior_jacobian_dets,
)
from slidereg.fileio import read_pgm, write_pgm
from slidereg.geometry import (
    DeformationMap,
    GridGeometry,
    LandmarkSet,
    ScalarImage,
    box_downsample,
    identity_map,
    warp_image,
)
from slidereg.momenta import VelocityAssembler

from oracles import block, jacobian_fd, partial_nd


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

    @pytest.mark.parametrize("size", range(4, 17))
    def test_landmarks_lie_on_the_grid(self, size):
        # rows size//2 +- 5 used to fall off grids below 12 rows (rows -3 and 7 at size 4)
        for shift in range(0, (size + 3) // 4):
            pair = gen_rectangle(size, shift)
            for lms in (pair.landmarks_template, pair.landmarks_reference):
                assert lms.points.min() >= 0 and lms.points.max() <= size - 1, (shift, lms.points)

    @pytest.mark.parametrize(
        "size, shift, rows, cols",
        [(16, 2, (3.0, 13.0), [6, 6, 7, 7, 7, 8, 8, 8, 9, 9]),
         (64, 5, (27.0, 37.0), [18, 21, 24, 27, 30, 33, 36, 39, 42, 45])],
    )
    def test_landmarks_of_larger_grids_unchanged(self, size, shift, rows, cols):
        pair = gen_rectangle(size, shift)
        tpl = np.concatenate([np.stack([np.full(10, row), cols], axis=1) for row in rows])
        ref = tpl + np.repeat([[0, shift], [0, -shift]], 10, axis=0)
        np.testing.assert_array_equal(pair.landmarks_template.points, tpl)
        np.testing.assert_array_equal(pair.landmarks_reference.points, ref)

    def test_oversized_shift_rejected(self):
        with pytest.raises(ValueError):
            gen_rectangle(32, 8)

    def test_negative_shift_rejected(self):
        # a negative shift used to give identical images with a 2-px "true" map
        with pytest.raises(ValueError, match=r"shift -2 must lie in \[0, size/4\)"):
            gen_rectangle(16, -2)


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

    def test_tangential_displacement_flips_sign_at_ring(self):
        # the disk turns the map by -angle and the annulus by +angle, so each node's
        # tangential displacement is -r sin(angle) inside the ring and +r sin(angle)
        # out to the rim at radius 27: negative inside, positive outside, growing with radius
        pair = gen_wheel(64, 5.0, antialias=False)
        assert pair.ring_radius == 14
        rel = pair.true_map.geometry.node_positions() - 32.0
        r = np.hypot(rel[..., 0], rel[..., 1])
        tangent = np.stack([-rel[..., 1], rel[..., 0]], axis=-1) / np.maximum(r, 1e-9)[..., None]
        tang = np.sum(pair.true_map.displacement() * tangent, axis=-1)
        inner, outer = (r > 0) & (r < 14), (r >= 14) & (r < 27)
        s = np.sin(np.deg2rad(5.0))
        np.testing.assert_allclose(tang[inner], -s * r[inner], rtol=1e-12)
        np.testing.assert_allclose(tang[outer], s * r[outer], rtol=1e-12)
        np.testing.assert_array_equal(tang[r >= 27], 0.0)

    def test_map_keeps_each_node_at_its_radius(self):
        # both pieces are rotations about the centre node (32, 32), so every
        # target lies at its node's distance from the centre, and the nodes past
        # the rim at radius 27 stay where they are
        pair = gen_wheel(64, 5.0, antialias=False)
        pos = pair.true_map.geometry.node_positions()
        r = np.hypot(*np.moveaxis(pos - 32.0, -1, 0))
        r_target = np.hypot(*np.moveaxis(pair.true_map.targets - 32.0, -1, 0))
        np.testing.assert_allclose(r_target, r, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(pair.true_map.targets[r >= 27], pos[r >= 27])
        assert np.all(np.linalg.norm(pair.true_map.displacement()[(r > 0) & (r < 27)], axis=-1) > 0)


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

    @pytest.mark.parametrize(
        "ref_d, tpl_d, spacing, map_d, named",
        [(2, 2, (1.0, 1.0, 1.0), None, "reference landmarks 2, template landmarks 2, spacing 3"),
         (3, 3, (1.0, 1.0, 1.0), 2, "spacing 3, map 2"),
         (2, 3, (1.0, 1.0), None, "reference landmarks 2, template landmarks 3")],
        ids=["spacing", "map", "landmarks"],
    )
    def test_dimension_mismatch_named(self, rng, ref_d, tpl_d, spacing, map_d, named):
        # each used to end in numpy's "operands could not be broadcast together"
        a = LandmarkSet(rng.uniform(0, 7, (4, ref_d)))
        b = LandmarkSet(rng.uniform(0, 7, (4, tpl_d)))
        dmap = identity_map(GridGeometry((8,) * map_d, (1.0,) * map_d, (0.0,) * map_d), "inverse") if map_d else None
        with pytest.raises(ValueError, match="dimensions differ") as exc:
            tre(a, b, spacing, dmap)
        assert named in str(exc.value)

    @pytest.mark.parametrize("spacing", [(np.nan, 1.0), (0.0, 0.0), (np.inf, 1.0), (-1.0, 1.0)],
                             ids=["nan", "zero", "inf", "negative"])
    def test_unusable_spacing_is_refused(self, rng, spacing):
        # nan and inf used to come back as the mean error, 0 as a 0.0 mm error
        lms = LandmarkSet(rng.uniform(0, 7, (4, 2)))
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            tre(lms, lms, spacing)

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
        small = box_downsample(ScalarImage(geom, vals))
        assert small.geometry.dims == (2, 2)
        np.testing.assert_allclose(small.values, [[2.5, 4.5], [10.5, 12.5]])
        assert small.geometry.spacing == (2.0, 2.0)
        assert small.geometry.origin == (0.5, 0.5)


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
        y = demo.momenta.points[0]
        m = demo.momenta.m1[0, 0]  # derivative slot along rows

        def v_x(row):
            pts = np.array([[row, y[1]]])
            return float(partial_nd(demo.kernel, 0, pts, y)[0] * m[1])

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
        disp = demo.flow.final_inverse.displacement()
        prof = disp[:, 28:37, 1].mean(axis=1)  # tangential displacement over the columns around the momentum
        line = int(demo.momenta.points[0, 0])
        assert prof[line - 1] * prof[line + 1] < 0
        assert min(abs(prof[line - 1]), abs(prof[line + 1])) >= 0.5 * np.max(np.abs(prof))

    def test_shear_demo_smooth_nonzero(self):
        demo = demo_momentum("fig1b")
        grid = demo.flow.final.geometry
        ms = demo.momenta
        v = VelocityAssembler(demo.kernel, grid, ms.points).velocity(block(ms.m0, ms.m1))
        v = v.T.reshape(grid.dims + (2,))
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


class TestInteriorJacobian:
    @staticmethod
    def per_node_dets(dmap):
        # the per-node jacobian_fd loop the vectorised version replaces
        geom = dmap.geometry
        h = 0.5 * min(geom.spacing)
        inner = geom.node_positions()[(slice(1, -1),) * geom.ndim]
        return np.array([np.linalg.det(jacobian_fd(dmap, x, h)) for x in inner.reshape(-1, geom.ndim)])

    @pytest.mark.parametrize("spacing", [(1.0, 1.0), (0.5, 2.0)])
    def test_matches_per_node_jacobian_fd(self, spacing, rng):
        geom = GridGeometry((20, 24), spacing, (-1.0, 3.0))
        pos = geom.node_positions()
        targets = pos + 0.3 * rng.standard_normal(pos.shape)
        dmap = DeformationMap(geom, targets, "inverse")
        np.testing.assert_allclose(_interior_jacobian_dets(dmap), self.per_node_dets(dmap), rtol=1e-12, atol=1e-12)

    def test_sampled_3d_nodes(self, rng):
        # every node one or more from each face
        geom = GridGeometry((20, 17, 9), (2.5, 1.0, 0.8), (0.0, 0.0, 0.0))
        dets = _interior_jacobian_dets(identity_map(geom, "inverse"))
        assert dets.shape == (18 * 15 * 7,)
        np.testing.assert_allclose(dets, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("dims, spacing", [((64, 64), (1.0, 1.0)), ((24, 24, 24), (1.0, 1.0, 1.0)),
                                               ((20, 17, 9), (2.5, 1.0, 0.8))])
    def test_same_nodes_as_the_benchmark(self, dims, spacing, rng):
        # the benchmark's jac_det_p1 and the fold statistics sample one node set
        path = Path(__file__).resolve().parents[1] / "perfbench" / "quality.py"
        spec = importlib.util.spec_from_file_location("perfbench_quality", path)
        quality = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quality)
        geom = GridGeometry(dims, spacing, (0.0,) * len(dims))
        pos = geom.node_positions()
        dmap = DeformationMap(geom, pos + 0.3 * rng.standard_normal(pos.shape), "forward")
        np.testing.assert_array_equal(_interior_jacobian_dets(dmap), quality.interior_jacobian_dets(dmap))

    def test_counts_folded_nodes(self):
        # columns past x = 10 are mirrored back: det -1 there and 0 on the
        # crease column, where the central difference straddles the fold
        geom = GridGeometry((20, 20), (1.0, 1.0), (0.0, 0.0))
        targets = geom.node_positions()
        x = targets[..., 1]
        targets[..., 1] = np.where(x <= 10.0, x, 20.0 - x)
        dets = _interior_jacobian_dets(DeformationMap(geom, targets, "forward"))
        assert dets.size == 18 * 18
        assert int(np.count_nonzero(dets <= 0.0)) == 18 * 9
        assert dets.min() == -1.0


class TestRunExperiment:
    @staticmethod
    def doc(name, out, methods, T=2, max_iters=3, **source):
        """An experiment document over a small gaussian config with ``T`` steps and
        ``max_iters`` iterations, its source given as ``generator=`` or ``dataset=``."""
        config = {"kernel": {"family": "gaussian", "scale": 4.0}, "T": T, "max_iters": max_iters,
                  "control_stride": 4}
        return {"name": name, "out": str(out), "methods": methods, "config": config, **source}

    @pytest.mark.parametrize(
        "name, methods, source, named",
        [("x", [], {"generator": {"kind": "rectangle"}}, "at least one method"),
         ("x", ["gaussian"], {}, "exactly one of generator/dataset"),
         ("x", ["gaussian"], {"generator": {"kind": "rectangle"}, "dataset": {"template": "t.pgm", "reference": "r.pgm"}},
          "exactly one of generator/dataset"),
         ("x", ["splines"], {"generator": {"kind": "rectangle"}}, "unknown methods"),
         ("x", ["gaussian", "wendland_both", "gaussian"], {"generator": {"kind": "rectangle"}},
          r"methods \['gaussian'\] are listed more than once"),
         ("../escaped", ["gaussian"], {"generator": {"kind": "rectangle"}}, "one plain path component"),
         ("sub/dir", ["gaussian"], {"generator": {"kind": "rectangle"}}, "one plain path component"),
         ("", ["gaussian"], {"generator": {"kind": "rectangle"}}, "one plain path component"),
         (".", ["gaussian"], {"generator": {"kind": "rectangle"}}, "one plain path component"),
         ("..", ["gaussian"], {"generator": {"kind": "rectangle"}}, "one plain path component"),
         ("{tmp}/abs", ["gaussian"], {"generator": {"kind": "rectangle"}}, "one plain path component")],
        ids=["no_method", "no_source", "both_sources", "unknown_method", "repeated_method", "name_escapes",
             "name_nested", "name_empty", "name_dot", "name_dotdot", "name_absolute"],
    )
    def test_refused_before_any_output(self, tmp_path, name, methods, source, named):
        # a repeated method used to solve twice, its second run overwriting the
        # first's artifacts; "../escaped" wrote beside out, "" and "." into out
        # itself, and an absolute name (here under tmp_path) there
        with pytest.raises(ValueError, match=named):
            run_experiment(self.doc(name.format(tmp=tmp_path), tmp_path / "out", methods, **source))
        assert not any((tmp_path / p).exists() for p in ("out", "escaped", "abs"))

    def test_identical_images_all_zero(self, tmp_path):
        report = run_experiment(self.doc("null", tmp_path, ["gaussian"], T=3, max_iters=5,
                                         generator={"kind": "rectangle", "size": 32, "shift": 0}))
        assert report["ssd_before"] == 0.0
        assert report["runs"]["gaussian"]["ssd_final"] == pytest.approx(0.0, abs=1e-12)
        payload = json.loads((tmp_path / "null" / "report.json").read_text())
        assert payload["ssd_before"] == 0.0
        run = payload["runs"]["gaussian"]
        assert run["fold_count"] == 0
        assert run["stop_reason"] == "gradient_zero"
        assert run["iterations"] == 0
        assert run["forward_passes"] == 1
        assert run["jacobian_min"] == pytest.approx(1.0)
        for artifact in ("warped.pgm", "deformation_magnitude.pgm", "deformed_grid.pgm", "trace.csv"):
            assert (tmp_path / "null" / "gaussian" / artifact).exists()

    def test_trace_csv_has_header(self, tmp_path):
        report = run_experiment(self.doc("small", tmp_path, ["gaussian"],
                                         generator={"kind": "rectangle", "size": 32, "shift": 2}))
        lines = (tmp_path / "small" / "gaussian" / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,E_S,E_R,sparsity,total,alpha,candidates"
        assert len(lines) == 2 + report["runs"]["gaussian"]["iterations"]
        rows = list(csv.reader(lines[1:]))
        assert rows[0][5:] == ["", ""]  # the initial energy has no line search
        candidates = [int(row[6]) for row in rows[1:]]
        assert all(float(row[5]) > 0.0 for row in rows[1:]) and min(candidates) >= 1
        assert report["runs"]["gaussian"]["forward_passes"] == 1 + sum(candidates)

    def test_dataset_pgm_pair_with_one_based_landmarks(self, tmp_path):
        pair = gen_rectangle(32, 2)
        data = tmp_path / "data"
        data.mkdir()
        for name, img in (("tpl.pgm", pair.template), ("ref.pgm", pair.reference)):
            write_pgm(data / name, ScalarImage(img.geometry, np.rint(img.values)))
        np.savetxt(data / "tpl_lms.txt", pair.landmarks_template.points + 1.0, fmt="%.1f")
        np.savetxt(data / "ref_lms.txt", pair.landmarks_reference.points + 1.0, fmt="%.1f")
        dataset = {
            "template": str(data / "tpl.pgm"),
            "reference": str(data / "ref.pgm"),
            "template_landmarks": str(data / "tpl_lms.txt"),
            "reference_landmarks": str(data / "ref_lms.txt"),
        }
        report = run_experiment(self.doc("pgm", tmp_path / "out", ["wendland_both"], dataset=dataset))
        # the generator's 0-based landmarks sit 2 px apart along the rows
        assert report["tre_before_mm"] == pytest.approx(2.0)
        assert set(report["runs"]) == {"wendland_both"} and "tre_mm" in report["runs"]["wendland_both"]
        assert "transition_width_rows" not in report["runs"]["wendland_both"]
        payload = json.loads((tmp_path / "out" / "pgm" / "report.json").read_text())
        assert payload["runs"]["wendland_both"]["tre_mm"] == report["runs"]["wendland_both"]["tre_mm"]
        assert payload["runs"]["wendland_both"]["iterations"] == 3
        assert payload["runs"]["wendland_both"]["stop_reason"] == "max_iters"

    def test_dataset_raw16_pair_with_stem_sidecars(self, tmp_path, write_raw16):
        pair = gen_rectangle(24, 2)
        tpl = write_raw16(tmp_path / "tpl", np.rint(pair.template.values), (1.5, 1.0))
        ref = write_raw16(tmp_path / "ref", np.rint(pair.reference.values), (1.5, 1.0))
        report = run_experiment(self.doc("raw", tmp_path / "out", ["gaussian"], max_iters=2,
                                         dataset={"template": str(tpl), "reference": str(ref)}))
        expected = 0.5 * np.mean((np.rint(pair.template.values) - np.rint(pair.reference.values)) ** 2)
        assert report["ssd_before"] == pytest.approx(expected)
        assert report["runs"]["gaussian"]["ssd_final"] < report["ssd_before"]
        assert report["tre_before_mm"] is None and "tre_mm" not in report["runs"]["gaussian"]
        assert (tmp_path / "out" / "raw" / "gaussian" / "warped.pgm").exists()

    def test_dataset_raw16_volume(self, tmp_path, write_raw16):
        # a volume's PGM views are its central axis-0 slices
        _, y, x = np.mgrid[0:8, 0:16, 0:16]
        inside = (np.abs(y - 7.5) < 4) & (np.abs(x - 7.5) < 4)
        tpl = write_raw16(tmp_path / "tpl", np.where(inside, 200, 20), (2.0, 1.0, 1.0))
        ref = write_raw16(tmp_path / "ref", np.where(np.roll(inside, 1, axis=2), 200, 20), (2.0, 1.0, 1.0))
        report = run_experiment(self.doc("vol", tmp_path / "out", ["gaussian"], max_iters=2,
                                         dataset={"template": str(tpl), "reference": str(ref)}))
        assert report["runs"]["gaussian"]["ssd_final"] < report["ssd_before"]
        assert report["runs"]["gaussian"]["fold_count"] == 0
        for artifact in ("warped.pgm", "deformation_magnitude.pgm", "deformed_grid.pgm"):
            assert read_pgm(tmp_path / "out" / "vol" / "gaussian" / artifact).geometry.dims == (16, 16)

    def test_failure_removes_partial_artifacts(self, tmp_path, monkeypatch):
        import slidereg.bench as bench_mod

        doc = self.doc("doomed", tmp_path, ["gaussian", "wendland_zeroth"],
                       generator={"kind": "rectangle", "size": 32, "shift": 2})
        calls = {"n": 0}
        real = bench_mod.reg.optimize

        def explode(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise bench_mod.DivergenceError("boom")
            return real(*a, **kw)

        monkeypatch.setattr(bench_mod.reg, "optimize", explode)
        with pytest.raises(bench_mod.DivergenceError):
            run_experiment(doc)
        assert not (tmp_path / "doomed").exists()
        assert list(tmp_path.iterdir()) == []  # nor the temporary directory the run was staged in

    def test_failed_rerun_leaves_the_previous_run_untouched(self, tmp_path, monkeypatch):
        # the rollback used to delete the first method's new directory and keep the
        # rest: the old report then listed a run whose artifacts were gone
        import slidereg.bench as bench_mod

        doc = self.doc("toy", tmp_path, ["gaussian", "wendland_both"],
                       generator={"kind": "rectangle", "size": 16, "shift": 2})
        run_experiment(doc)
        root = tmp_path / "toy"

        def snapshot():
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        before = snapshot()
        real = bench_mod.reg.optimize
        calls = {"n": 0}

        def explode(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise bench_mod.DivergenceError("boom")
            return real(*a, **kw)

        monkeypatch.setattr(bench_mod.reg, "optimize", explode)
        with pytest.raises(bench_mod.DivergenceError):
            run_experiment(dict(doc, config=dict(doc["config"], max_iters=2)))
        assert snapshot() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy"]
        monkeypatch.setattr(bench_mod.reg, "optimize", real)
        run_experiment(dict(doc, methods=["gaussian"]))  # a successful run replaces the directory whole
        assert sorted(p.name for p in root.iterdir()) == ["gaussian", "report.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy"]
