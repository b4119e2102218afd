import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slidereg
from slidereg.bench import gen_rectangle
from slidereg.cli import main
from slidereg.fileio import read_pgm
from slidereg.geometry import GridGeometry
from slidereg.kernels import KernelSpec
from slidereg.registration import RegistrationConfig, config_from_dict


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def register_with(tmp_path, capsys, config=None, **settings):
    """``register`` a 16^2 synthetic pair under a small gaussian config
    updated with ``settings``, or under the JSON document ``config``;
    returns the exit code, stderr and --out dir."""
    data = tmp_path / "data"
    assert run(["synth", "rectangle", "--size", "16", "--shift", "2", "--out", str(data)], capsys)[0] == 0
    if config is None:
        config = {"kernel": {"family": "gaussian", "scale": 4.0, "window": 9}, "T": 2, "max_iters": 3,
                  "control_stride": 4, **settings}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "result"
    code, _, err = run(
        ["register", "--template", str(data / "template.pgm"), "--reference", str(data / "reference.pgm"),
         "--config", str(cfg_path), "--out", str(out_dir)],
        capsys,
    )
    return code, err, out_dir


SUMMARY_KEYS = ["iterations", "converged", "stop_reason", "forward_passes", "ssd_initial", "ssd_final",
                "total_initial", "total_final", "magnitude_scale", "jacobian_min", "fold_count"]


def register_raw16(tmp_path, capsys, write_raw16, **sidecar):
    """``register`` a 12^3 raw16 pair whose template sidecar is updated with
    ``sidecar``; returns the exit code, stdout, stderr and --out dir."""
    vals = np.full((12, 12, 12), 20)
    vals[3:9, 3:9, 3:9] = 200
    tpl = write_raw16(tmp_path / "tpl", vals, (1.0, 1.0, 1.0))
    ref = write_raw16(tmp_path / "ref", np.roll(vals, 1, axis=2), (1.0, 1.0, 1.0))
    meta = json.loads((tmp_path / "tpl.json").read_text())
    (tmp_path / "tpl.json").write_text(json.dumps({**meta, **sidecar}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kernel": {"family": "gaussian", "scale": 4.0, "window": 9}, "T": 2,
                                    "max_iters": 3, "control_stride": 4}))
    out_dir = tmp_path / "result"
    code, out, err = run(
        ["register", "--template", str(tpl), "--reference", str(ref),
         "--config", str(cfg_path), "--out", str(out_dir)],
        capsys,
    )
    return code, out, err, out_dir


class TestSynth:
    def test_rectangle_writes_pair(self, tmp_path, capsys):
        code, out, _ = run(
            ["synth", "rectangle", "--size", "32", "--shift", "3", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        tpl = read_pgm(tmp_path / "template.pgm")
        ref = read_pgm(tmp_path / "reference.pgm")
        assert tpl.geometry.dims == (32, 32)
        assert np.any(tpl.values != ref.values)
        assert (tmp_path / "landmarks_template.txt").exists()
        assert (tmp_path / "true_map.npy").exists()

    def test_wheel_writes_pair(self, tmp_path, capsys):
        code, _, _ = run(
            ["synth", "wheel", "--size", "32", "--angle", "4", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "template.pgm").exists()

    def test_bad_scene_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "hexagon", "--out", str(tmp_path)])
        assert exc.value.code == 1


def test_removed_nonsmooth_check_is_usage_error(tmp_path):
    # the subcommand and its scenario files are gone; the process exits 1 on argparse's error line
    src = os.path.dirname(os.path.dirname(slidereg.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "slidereg.cli", "nonsmooth-check", "--scenario", str(tmp_path / "x.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1 and proc.stdout == ""
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("slidereg: error: argument command: invalid choice: 'nonsmooth-check'")
    assert "Traceback" not in proc.stderr


class TestRegister:
    def test_end_to_end(self, tmp_path, capsys):
        data = tmp_path / "data"
        code, _, _ = run(
            ["synth", "rectangle", "--size", "32", "--shift", "2", "--out", str(data)],
            capsys,
        )
        assert code == 0
        cfg = {
            "kernel": {"family": "wendland_c0_mult", "scale": 4.0, "window": 9},
            "orders": "zeroth_and_first",
            "T": 3,
            "max_iters": 8,
            "control_stride": 4,
            "reg_weight": 0.1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "result"
        code, out, _ = run(
            [
                "register",
                "--template", str(data / "template.pgm"),
                "--reference", str(data / "reference.pgm"),
                "--config", str(cfg_path),
                "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["ssd_final"] <= summary["ssd_initial"]
        assert summary["stop_reason"] in ("gradient_zero", "rel_tol", "max_iters", "line_search_stalled")
        assert summary["converged"] == (summary["stop_reason"] in ("gradient_zero", "rel_tol"))
        assert summary["forward_passes"] > summary["iterations"]  # the initial energy and each candidate
        for artifact in ("warped.pgm", "deformation_magnitude.pgm", "deformed_grid.pgm", "trace.csv"):
            assert (out_dir / artifact).exists()

    def test_raw16_pair(self, tmp_path, capsys, write_raw16):
        # each image finds its <stem>.json sidecar
        pair = gen_rectangle(24, 2)
        tpl = write_raw16(tmp_path / "tpl", np.rint(pair.template.values), (1.5, 1.0))
        ref = write_raw16(tmp_path / "ref", np.rint(pair.reference.values), (1.5, 1.0))
        cfg = {"kernel": {"family": "gaussian", "scale": 4.0, "window": 9}, "T": 2, "max_iters": 3,
               "control_stride": 4}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "result"
        code, _, err = run(
            ["register", "--template", str(tpl), "--reference", str(ref),
             "--config", str(cfg_path), "--out", str(out_dir)],
            capsys,
        )
        assert code == 0, err
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["ssd_final"] < summary["ssd_initial"]
        inverse = np.load(out_dir / "inverse_map.npy")
        assert inverse.shape == (24, 24, 2)
        assert inverse[-1, -1, 0] == pytest.approx(23 * 1.5, abs=0.5)  # rows in sidecar spacing

    def test_raw16_volume_pair(self, tmp_path, capsys, write_raw16):
        # a volume registers end to end; its PGM views are central axis-0 slices
        _, y, x = np.mgrid[0:8, 0:16, 0:16]
        inside = (np.abs(y - 7.5) < 4) & (np.abs(x - 7.5) < 4)
        tpl = write_raw16(tmp_path / "tpl", np.where(inside, 200, 20), (2.0, 1.0, 1.0))
        ref = write_raw16(tmp_path / "ref", np.where(np.roll(inside, 1, axis=2), 200, 20), (2.0, 1.0, 1.0))
        cfg = {"kernel": {"family": "gaussian", "scale": 4.0, "window": 9}, "T": 2, "max_iters": 3,
               "control_stride": 4}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "result"
        code, _, err = run(
            ["register", "--template", str(tpl), "--reference", str(ref),
             "--config", str(cfg_path), "--out", str(out_dir)],
            capsys,
        )
        assert code == 0, err
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["ssd_final"] < summary["ssd_initial"]
        assert np.load(out_dir / "inverse_map.npy").shape == (8, 16, 16, 3)
        for artifact in ("warped.pgm", "deformation_magnitude.pgm", "deformed_grid.pgm"):
            assert read_pgm(out_dir / artifact).geometry.dims == (16, 16)

    def test_summary_holds_fold_statistics(self, tmp_path, capsys):
        # stdout, summary.json and a run's per-method summary are one document
        code, _, out_dir = register_with(tmp_path, capsys, kernel={"family": "wendland_c0_mult", "scale": 4.0})
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert list(summary) == SUMMARY_KEYS
        assert summary["fold_count"] == 0 and 0.0 < summary["jacobian_min"] < 2.0
        assert json.loads((out_dir / "inverse_map.json").read_text()) == {
            "dims": [16, 16], "spacing": [1.0, 1.0], "origin": [0.0, 0.0]}

    @staticmethod
    def register_square(tmp_path, capsys, size):
        """``register`` a ``size``^2 unshifted rectangle pair; returns its summary."""
        data = tmp_path / "data"
        assert run(["synth", "rectangle", "--size", str(size), "--shift", "0", "--out", str(data)], capsys)[0] == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": {"family": "gaussian", "scale": 4.0}, "T": 2, "max_iters": 2,
                                        "control_stride": 4}))
        code, out, err = run(
            ["register", "--template", str(data / "template.pgm"), "--reference", str(data / "reference.pgm"),
             "--config", str(cfg_path), "--out", str(tmp_path / "result")],
            capsys,
        )
        assert code == 0, err
        summary = json.loads(out)
        assert json.loads((tmp_path / "result" / "summary.json").read_text()) == summary
        return summary

    def test_four_by_four_pair(self, tmp_path, capsys):
        # the fold statistics cover the 2 x 2 interior nodes of the identity map
        summary = self.register_square(tmp_path, capsys, 4)
        assert summary["jacobian_min"] == 1.0 and summary["fold_count"] == 0

    def test_two_by_two_pair(self, tmp_path, capsys):
        # no node lies one from each face, so there are no fold statistics;
        # an empty sample used to end in "zero-size array to reduction operation minimum"
        summary = self.register_square(tmp_path, capsys, 2)
        assert summary["jacobian_min"] is None and summary["fold_count"] is None

    @pytest.mark.parametrize("sidecar", [{"spacing": [2.0, 2.0, 2.0]}, {"origin": [5.0, 5.0, 5.0]}],
                             ids=["spacing", "origin"])
    def test_pair_of_different_geometry_is_usage_error(self, tmp_path, capsys, write_raw16, sidecar):
        # two sidecars that differ used to register silently in the template's geometry
        code, out, err, out_dir = register_raw16(tmp_path, capsys, write_raw16, **sidecar)
        assert code == 1
        assert err.startswith("error: image geometries differ") and "Traceback" not in err and out == ""
        assert "GridGeometry(dims=(12, 12, 12), spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0))" in err
        assert not out_dir.exists()

    def test_invalid_line_search_config_is_usage_error(self, tmp_path, capsys):
        # a negative tolerance would make the relative-decrease stop meaningless
        code, err, out_dir = register_with(tmp_path, capsys, stop_rel_tol=-1)
        assert code == 1
        assert "stop_rel_tol" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("armijo_init", 1.0), ("armijo_shrink", 0.5), ("armijo_slope", 1e-4), ("max_shrinks", 40),
         ("sparsity_eps", 1e-6)],
    )
    def test_retired_solver_key_is_usage_error(self, tmp_path, capsys, key, value):
        # the line-search and smoothing constants are not settings; a config
        # that still sets one, even to its fixed value, is refused
        code, err, out_dir = register_with(tmp_path, capsys, **{key: value})
        assert code == 1
        assert err.startswith("error: unknown config keys") and key in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["T", "max_iters", "control_stride"])
    def test_fractional_count_is_usage_error(self, tmp_path, capsys, key):
        # a float T or max_iters used to end in a TypeError traceback mid-solve
        code, err, out_dir = register_with(tmp_path, capsys, **{key: 2.5})
        assert code == 1
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_zero_control_stride_is_usage_error(self, tmp_path, capsys):
        # it used to fail at engine build with "stride must be >= 1", naming no config key
        code, err, out_dir = register_with(tmp_path, capsys, control_stride=0)
        assert code == 1
        assert err.startswith("error:") and "control_stride must be >= 1" in err and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "settings, named",
        [({"lambda0": float("nan")}, "weights"), ({"reg_weight": float("inf")}, "weights"),
         ({"kernel": {"family": "gaussian", "scale": 4.0, "window": 9.7}}, "window")],
        ids=["nan_lambda0", "inf_reg_weight", "fractional_window"],
    )
    def test_invalid_weight_or_window_is_usage_error(self, tmp_path, capsys, settings, named):
        # a NaN weight used to pass validation and exit 2 as a numerical
        # failure, and a 9.7 window used to act as 9
        code, err, out_dir = register_with(tmp_path, capsys, **settings)
        assert code == 1
        assert err.startswith("error:") and named in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, named",
        [({"kernel": "gaussian"}, "config key 'kernel' must be a JSON object"),
         ([1, 2], "config must be a JSON object"),
         ({"kernel": {"family": "gaussian", "scale": 8, "windw": 17}}, "unknown kernel keys: ['windw']")],
        ids=["kernel_not_object", "top_level_list", "unknown_kernel_key"],
    )
    def test_config_shape_is_usage_error(self, tmp_path, capsys, config, named):
        # the first two used to end in a TypeError traceback, and a misspelt
        # kernel key used to run silently with the default window
        code, err, out_dir = register_with(tmp_path, capsys, config=config)
        assert code == 1
        assert err.startswith("error:") and named in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, named",
        [({"pyramid": "no"}, "pyramid must be true or false"),
         ({"lambda0": "0.1"}, "lambda0 must be a real number"),
         ({"stop_rel_tol": "x"}, "stop_rel_tol must be a real number"),
         ({"kernel": {"family": "gaussian", "scale": None}}, "scale must be a real number"),
         ({"kernel": {"family": "gaussian", "scale": "4"}}, "scale must be a real number"),
         ({"kernel": {"family": "gaussian", "scale": float("inf")}}, "scale must be finite and positive"),
         ({"T": 2, "kernel": {"scale": 4.0}}, "kernel missing required key 'family'")],
        ids=["pyramid_string", "lambda0_string", "tol_string", "scale_null", "scale_string", "scale_infinity",
             "family_missing"],
    )
    def test_config_value_type_is_usage_error(self, tmp_path, capsys, config, named):
        # "no" used to run the pyramid and Infinity a solve; the others ended in a TypeError traceback
        code, err, out_dir = register_with(tmp_path, capsys, **config)
        assert code == 1
        assert err.startswith("error:") and named in err
        assert not out_dir.exists()

    def test_config_without_kernel_is_usage_error(self, tmp_path, capsys):
        # it used to print only "error: 'kernel'"
        code, err, out_dir = register_with(tmp_path, capsys, config={"T": 2})
        assert code == 1
        assert err == "error: config missing required key 'kernel'\n"
        assert not out_dir.exists()

    def test_non_finite_sidecar_origin_is_usage_error(self, tmp_path, capsys, write_raw16):
        # a NaN origin used to surface as "velocity non-finite at step 1", exit 2
        code, out, err, out_dir = register_raw16(tmp_path, capsys, write_raw16, origin=[float("nan"), 0.0, 0.0])
        assert code == 1
        assert err.startswith("error:") and "origin must be finite" in err and out == ""
        assert not out_dir.exists()

    def test_fractional_sidecar_dims_is_usage_error(self, tmp_path, capsys, write_raw16):
        # [12.9, 12, 12] used to read the 12^3 volume as if the dims were integers
        code, out, err, out_dir = register_raw16(tmp_path, capsys, write_raw16, dims=[12.9, 12, 12])
        assert code == 1
        assert err.startswith("error:") and "tpl.json: sidecar dims must be an integer" in err and out == ""
        assert not out_dir.exists()

    def test_non_list_sidecar_dims_is_usage_error(self, tmp_path, capsys, write_raw16):
        # "dims": 12 used to end in a TypeError traceback
        code, out, err, out_dir = register_raw16(tmp_path, capsys, write_raw16, dims=12)
        assert code == 1
        assert err.startswith("error:") and "tpl.json: sidecar 'dims' must be a list of numbers" in err
        assert out == "" and not out_dir.exists()

    def test_input_too_large_to_allocate_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # "T": 1000000000 on a 32^2 pair used to end in numpy's _ArrayMemoryError traceback;
        # the solve is stubbed so nothing is allocated
        from slidereg import registration

        def too_large(*args):
            raise MemoryError("Unable to allocate 7.45 TiB for an array")

        monkeypatch.setattr(registration, "optimize", too_large)
        code, err, out_dir = register_with(tmp_path, capsys)
        assert code == 1
        assert err.startswith("error: Unable to allocate 7.45 TiB") and "Traceback" not in err
        assert not out_dir.exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            [
                "register",
                "--template", "nope.pgm",
                "--reference", "nope.pgm",
                "--config", str(tmp_path / "absent.json"),
                "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 1


class TestDemo:
    @pytest.mark.parametrize("kind", ["fig1a", "fig1b", "fig1c"])
    def test_kinds(self, kind, tmp_path, capsys):
        code, out, _ = run(["demo", kind, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / f"{kind}_grid.pgm").exists()


class TestTre:
    def test_before_registration(self, tmp_path, capsys):
        a = tmp_path / "ref.txt"
        b = tmp_path / "tpl.txt"
        a.write_text("1 1\n5 5\n")
        b.write_text("1 2\n5 7\n")
        code, out, _ = run(
            ["tre", "--ref-lms", str(a), "--tpl-lms", str(b), "--spacing", "1,1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tre_mm"] == pytest.approx(1.5)
        assert payload["points"] == 2


    @staticmethod
    def identity_registration(tmp_path, capsys, write_raw16):
        """``register`` an identical 16^2 raw16 pair whose sidecars put the
        origin at (3, 3): zero iterations, so the map is the identity; returns
        the map path and landmark files holding the same three points."""
        vals = np.zeros((16, 16))
        vals[4:12, 4:12] = 200
        for stem in ("tpl", "ref"):
            write_raw16(tmp_path / stem, vals, (1.0, 1.0))
            (tmp_path / f"{stem}.json").write_text(json.dumps({"dims": [16, 16], "spacing": [1, 1], "origin": [3, 3]}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": {"family": "gaussian", "scale": 4.0}, "T": 2, "max_iters": 2,
                                        "control_stride": 4}))
        code, out, err = run(["register", "--template", str(tmp_path / "tpl.raw"), "--reference",
                              str(tmp_path / "ref.raw"), "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                             capsys)
        assert code == 0 and json.loads(out)["stop_reason"] == "gradient_zero", err
        lms = tmp_path / "lms.txt"
        lms.write_text("5 5\n9 12\n14 3\n")
        return tmp_path / "out" / "inverse_map.npy", lms

    def test_map_takes_its_sidecar_origin(self, tmp_path, capsys, write_raw16):
        # the map's grid used to sit at origin 0, so an identity map read 4.24 mm
        map_path, lms = self.identity_registration(tmp_path, capsys, write_raw16)
        code, out, err = run(["tre", "--ref-lms", str(lms), "--tpl-lms", str(lms), "--spacing", "1,1",
                              "--map", str(map_path)], capsys)
        assert code == 0, err
        assert json.loads(out)["tre_mm"] == pytest.approx(0.0, abs=1e-9)

    def test_spacing_that_disagrees_with_map_sidecar_is_usage_error(self, tmp_path, capsys, write_raw16):
        map_path, lms = self.identity_registration(tmp_path, capsys, write_raw16)
        code, out, err = run(["tre", "--ref-lms", str(lms), "--tpl-lms", str(lms), "--spacing", "2,2",
                              "--map", str(map_path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: --spacing [2.0, 2.0] disagrees") and "inverse_map.json" in err

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_landmark_outside_map_is_format_error(self, tmp_path, capsys, sidecar):
        # a row-40 landmark on a 16-row map used to be clamped into a 21.2 mm error
        geom = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))
        np.save(tmp_path / "map.npy", geom.node_positions())
        if sidecar:
            (tmp_path / "map.json").write_text(json.dumps({"dims": [16, 16], "spacing": [1, 1]}))
        lms = tmp_path / "lms.txt"
        lms.write_text("5 5\n40 5\n")
        code, out, err = run(["tre", "--ref-lms", str(lms), "--tpl-lms", str(lms), "--spacing", "1,1",
                              "--map", str(tmp_path / "map.npy")], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {lms}: landmark on line 2") and "outside grid dims (16, 16)" in err

    @pytest.mark.parametrize(
        "lms, spacing, with_map, named",
        [("1 1\n5 5\n", "1,1,1", False, "dimensions differ: reference landmarks 2, template landmarks 2, spacing 3"),
         ("1 1 1\n5 5 5\n", "1,1", True, "line 1 has 3 coordinates, need 2"),
         ("1 1\n5 5\n", "1,1,1", True, "--spacing [1.0, 1.0, 1.0] has length 3, but the 2D map ")],
        ids=["spacing", "map", "map_spacing"],
    )
    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys, lms, spacing, with_map, named):
        # spacing and map used to end in numpy's "operands could not be broadcast together",
        # map_spacing (a map with no sidecar) in GridGeometry's "must have equal length"
        path = tmp_path / "lms.txt"
        path.write_text(lms)
        argv = ["tre", "--ref-lms", str(path), "--tpl-lms", str(path), "--spacing", spacing]
        if with_map:
            np.save(tmp_path / "map.npy", GridGeometry((8, 8), (1.0, 1.0), (0.0, 0.0)).node_positions())
            argv += ["--map", str(tmp_path / "map.npy")]
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("spacing", ["nan,1", "0,0", "inf,1"])
    def test_unusable_spacing_is_usage_error(self, tmp_path, capsys, spacing):
        # nan,1 used to print {"tre_mm": NaN, ...}, which is not JSON, and exit 0
        path = tmp_path / "lms.txt"
        path.write_text("1 1\n5 5\n")
        code, out, err = run(["tre", "--ref-lms", str(path), "--tpl-lms", str(path), "--spacing", spacing], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: spacing must be finite and positive") and "Traceback" not in err


DATASET = {"template": "tpl.pgm", "reference": "ref.pgm"}
LANDMARKS = {"template_landmarks": "tpl.txt", "reference_landmarks": "ref.txt"}


class TestRun:
    def test_rectangle_experiment(self, tmp_path, capsys):
        doc = {
            "name": "mini",
            "out": str(tmp_path / "exp"),
            "methods": ["gaussian"],
            "generator": {"kind": "rectangle", "size": 32, "shift": 2},
            "config": {
                "kernel": {"family": "gaussian", "scale": 4.0, "window": 9},
                "T": 3,
                "max_iters": 6,
                "control_stride": 4,
                "reg_weight": 0.1,
            },
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["run", "--experiment", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["runs"]["gaussian"]["ssd_final"] < payload["ssd_before"]
        assert (tmp_path / "exp" / "mini" / "report.json").exists()

    @staticmethod
    def experiment(tmp_path, capsys, **change):
        """``run`` a two-method experiment on a 16^2 rectangle, with the document's
        keys updated by ``change``; returns the exit code, stdout, stderr and the experiment root."""
        doc = {
            "name": "mini",
            "out": str(tmp_path / "exp"),
            "methods": ["gaussian", "wendland_both"],
            "generator": {"kind": "rectangle", "size": 16, "shift": 2},
            "config": {"kernel": {"family": "gaussian", "scale": 4.0}, "T": 2, "max_iters": 2, "control_stride": 4},
            **change,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        return (*run(["run", "--experiment", str(path)], capsys), tmp_path / "exp" / "mini")

    def test_prints_the_report_it_writes(self, tmp_path, capsys):
        code, out, err, root = self.experiment(tmp_path, capsys)
        assert code == 0, err
        assert out == (root / "report.json").read_text()
        report = json.loads(out)
        assert list(report) == ["name", "methods", "ssd_before", "tre_before_mm", "runs"]
        assert report["name"] == "mini" and report["methods"] == list(report["runs"]) == ["gaussian", "wendland_both"]

    def test_each_run_holds_its_summary(self, tmp_path, capsys):
        code, out, err, root = self.experiment(tmp_path, capsys)
        assert code == 0, err
        for method, entry in json.loads(out)["runs"].items():
            summary = json.loads((root / method / "summary.json").read_text())
            assert list(summary) == SUMMARY_KEYS
            assert list(entry) == SUMMARY_KEYS + ["tre_mm", "transition_width_rows"]
            assert {key: entry[key] for key in SUMMARY_KEYS} == summary and entry["tre_mm"] > 0.0

    def test_four_by_four_grid(self, tmp_path, capsys):
        code, out, err, root = self.experiment(tmp_path, capsys, generator={"kind": "rectangle", "size": 4, "shift": 0})
        assert code == 0, err
        report = json.loads(out)
        for entry in report["runs"].values():
            # the fold statistics cover the 2 x 2 interior nodes of the identity map
            assert entry["jacobian_min"] == 1.0 and entry["fold_count"] == 0
            # the landmarks used to sit on rows -3 and 7, and the map's clamping gave a tre_mm of 3.5
            assert entry["tre_mm"] == report["tre_before_mm"] == 0.0

    def test_dataset_of_different_geometry_is_usage_error(self, tmp_path, capsys, write_raw16):
        # the pair used to be solved in the template's geometry
        pair = gen_rectangle(16, 2)
        write_raw16(tmp_path / "tpl", np.rint(pair.template.values), (1.0, 1.0))
        write_raw16(tmp_path / "ref", np.rint(pair.reference.values), (2.0, 2.0))
        dataset = {"template": str(tmp_path / "tpl.raw"), "reference": str(tmp_path / "ref.raw")}
        code, out, err, root = self.experiment(tmp_path, capsys, generator=None, dataset=dataset)
        assert code == 1 and out == ""
        assert err.startswith("error: geometry mismatch") and "Traceback" not in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize(
        "change, named",
        [({"generator": {"kind": "rectangle", "sise": 32}}, "unknown generator keys: ['sise']"),
         ({"generator": {"size": 32}}, "generator must be a JSON object of kind 'rectangle' or 'wheel'"),
         ({"metods": ["gaussian"]}, "unknown experiment keys: ['metods']"),
         ({"methods": "gaussian"}, "experiment key 'methods' must be a list of strings, got \"gaussian\""),
         ({"name": None}, "experiment missing required key 'name'"),
         ({"out": None}, "experiment missing required key 'out'"),
         ({"generator": None, "dataset": {"template": "tpl.pgm"}}, "dataset missing required key 'reference'"),
         ({"generator": {"kind": "rectangle", "size": "16"}}, "size must be an integer, got '16'"),
         ({"generator": {"kind": "rectangle", "size": 16, "shift": 2.7}}, "shift must be an integer, got 2.7"),
         ({"generator": {"kind": "wheel", "size": 16, "angle_deg": "5"}}, "angle_deg must be a real number, got '5'"),
         ({"generator": {"kind": "rectangle", "size": 16, "antialias": "no"}},
          "antialias must be true or false, got 'no'"),
         ({"generator": None, "dataset": {**DATASET, "template_landmarks": "tpl.txt"}},
          "dataset has 'template_landmarks' but is missing 'reference_landmarks'"),
         ({"generator": None, "dataset": {**DATASET, "reference_landmarks": "ref.txt"}},
          "dataset has 'reference_landmarks' but is missing 'template_landmarks'"),
         ({"generator": None, "dataset": {**DATASET, **LANDMARKS, "landmark_base": "one"}},
          "landmark_base must be an integer, got 'one'"),
         ({"generator": None, "dataset": {**DATASET, **LANDMARKS, "landmark_base": 1.7}},
          "landmark_base must be an integer, got 1.7"),
         ({"name": 5}, "experiment key 'name' must be a string, got 5"),
         ({"out": 7}, "experiment key 'out' must be a string, got 7"),
         ({"generator": None, "dataset": {"template": 3, "reference": 4}},
          "dataset key 'template' must be a string, got 3"),
         ({"generator": {"kind": ["rectangle"]}}, "of kind 'rectangle' or 'wheel', got {'kind': ['rectangle']}"),
         ({"config": {"kernel": {"family": "gaussian", "scale": 4.0}, "orders": "zeroth_only"}},
          "experiment config must not hold 'orders'"),
         ({"methods": ["gaussian", "gaussian"]}, "methods ['gaussian'] are listed more than once"),
         ({"name": "../escaped"}, "experiment key 'name' must be one plain path component, got \"../escaped\""),
         ({"name": "{tmp}/abs"}, "experiment key 'name' must be one plain path component"),
         ({"name": ""}, "experiment key 'name' must be one plain path component, got \"\""),
         ({"name": "."}, "experiment key 'name' must be one plain path component, got \".\""),
         ({"name": ".."}, "experiment key 'name' must be one plain path component, got \"..\"")],
        ids=["generator_key_typo", "generator_kind_missing", "top_level_typo", "methods_string", "name_missing",
             "out_missing", "dataset_reference_missing", "size_string", "shift_fraction", "angle_string",
             "antialias_string", "reference_landmarks_missing", "template_landmarks_missing", "landmark_base_string",
             "landmark_base_fraction", "name_number", "out_number", "dataset_path_number", "generator_kind_list",
             "config_orders", "repeated_method", "name_escapes", "name_absolute", "name_empty", "name_dot",
             "name_dotdot"],
    )
    def test_experiment_shape_is_usage_error(self, tmp_path, capsys, change, named):
        # a generator typo used to end in a TypeError traceback, "metods" ran all
        # three methods, "gaussian" was read as the methods 'g', 'a', ... and a
        # missing name or dataset image printed only "error: 'name'" or "error: 'reference'";
        # a string size or angle ended in a TypeError traceback, shift 2.7 ran as 2,
        # antialias "no" blurred, a lone landmark key printed "error: 'reference_landmarks'"
        # and landmark_base 1.7 was read as 1; a number as name, out or a dataset path and
        # a list as generator kind ended in a TypeError traceback, and orders was dropped;
        # a repeated method solved twice into one directory, and a name of "..", "", "."
        # or one holding a separator wrote outside out/<name> (here "{tmp}" is tmp_path)
        doc = {
            "name": "mini",
            "out": str(tmp_path / "exp"),
            "methods": ["gaussian"],
            "generator": {"kind": "rectangle", "size": 16, "shift": 2},
            "config": {"kernel": {"family": "gaussian", "scale": 4.0}, "T": 2, "max_iters": 2, "control_stride": 4},
        }
        doc.update(change)
        if isinstance(doc["name"], str):
            doc["name"] = doc["name"].replace("{tmp}", str(tmp_path))
        doc = {k: v for k, v in doc.items() if v is not None}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["run", "--experiment", str(path)], capsys)
        assert code == 1
        assert err.startswith("error:") and named in err and out == ""
        assert not any((tmp_path / p).exists() for p in ("exp", "escaped", "abs"))


EXPERIMENT_FILES = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.json"))

# the settings of the two synthetic experiments; a change to a checked-in file is a change to these
EXPERIMENT_SETTINGS = {
    "rectangle": (
        {"name": "rectangle", "out": "results", "methods": ["gaussian", "wendland_zeroth", "wendland_both"],
         "generator": {"kind": "rectangle", "size": 64, "shift": 5}},
        RegistrationConfig(kernel=KernelSpec("wendland_c0_mult", 4.0, 9), T=10, lambda0=0.05, lambda1=0.05,
                           reg_weight=0.2, max_iters=120, stop_rel_tol=1e-6, control_stride=2),
    ),
    "wheel": (
        {"name": "wheel", "out": "results", "methods": ["gaussian", "wendland_both"],
         "generator": {"kind": "wheel", "size": 64, "angle_deg": 5.0, "antialias": False}},
        RegistrationConfig(kernel=KernelSpec("wendland_c0_mult", 4.0, 9), T=10, lambda0=0.005, lambda1=0.005,
                           reg_weight=0.02, max_iters=300, stop_rel_tol=1e-7, control_stride=2),
    ),
}


def test_each_experiment_has_its_file():
    assert [p.stem for p in EXPERIMENT_FILES] == sorted(EXPERIMENT_SETTINGS)


@pytest.mark.parametrize("path", EXPERIMENT_FILES, ids=lambda p: p.stem)
class TestExperimentFiles:
    def test_holds_the_experiment_settings(self, path):
        doc = json.loads(path.read_text())
        settings, cfg = EXPERIMENT_SETTINGS[path.stem]
        assert {k: v for k, v in doc.items() if k != "config"} == settings
        assert config_from_dict(doc["config"]) == cfg

    def test_toy_size_copy_runs(self, path, tmp_path, capsys):
        doc = json.loads(path.read_text())
        doc["generator"]["size"] = 32
        doc["config"]["max_iters"] = 3
        doc["out"] = str(tmp_path / "out")
        copy = tmp_path / path.name
        copy.write_text(json.dumps(doc))
        code, out, err = run(["run", "--experiment", str(copy)], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["methods"] == list(report["runs"]) == doc["methods"]
        assert (tmp_path / "out" / doc["name"] / "report.json").read_text() == out
