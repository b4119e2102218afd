import json

import numpy as np
import pytest

from slidereg.bench import gen_rectangle
from slidereg.cli import main
from slidereg.fileio import read_pgm


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def register_with(tmp_path, capsys, **settings):
    """``register`` a 16^2 synthetic pair under a small gaussian config
    updated with ``settings``; returns the exit code, stderr and --out dir."""
    data = tmp_path / "data"
    assert run(["synth", "rectangle", "--size", "16", "--shift", "2", "--out", str(data)], capsys)[0] == 0
    cfg = {"kernel": {"family": "gaussian", "scale": 4.0, "window": 9}, "T": 2, "max_iters": 3,
           "control_stride": 4, **settings}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "result"
    code, _, err = run(
        ["register", "--template", str(data / "template.pgm"), "--reference", str(data / "reference.pgm"),
         "--config", str(cfg_path), "--out", str(out_dir)],
        capsys,
    )
    return code, err, out_dir


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


class TestNonsmoothCheck:
    def test_crossing_scenario_passes(self, tmp_path, capsys):
        scenario = {
            "boundaries": [{"kind": "moving_hyperplane", "normal": [1.0, 0.0]}],
            "pieces": [
                {"when": [-1], "b": [1.0, 0.0]},
                {"when": [1], "b": [1.0, 2.0]},
            ],
            "x0": [-0.5, 0.0],
            "t": 1.0,
            "step": 1e-3,
            "expected": [[1.0, 0.0], [2.0, 1.0]],
            "tol": 1e-3,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run(["nonsmooth-check", "--scenario", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["within_tolerance"] is True
        assert len(payload["crossings"]) == 1

    def test_mismatched_expectation_fails_numerically(self, tmp_path, capsys):
        scenario = {
            "boundaries": [],
            "pieces": [{"when": [], "b": [1.0, 0.0]}],
            "x0": [0.0, 0.0],
            "t": 1.0,
            "expected": [[5.0, 0.0], [0.0, 5.0]],
            "tol": 1e-6,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run(["nonsmooth-check", "--scenario", str(path)], capsys)
        assert code == 2

    def test_overflowing_fundamental_matrix_fails_numerically(self, tmp_path, capsys):
        # the trajectory rests at the origin while M grows by 1e197 per step;
        # the overflow is a numerical failure, raised without a RuntimeWarning
        scenario = {
            "boundaries": [],
            "pieces": [{"when": [], "A": [[1e200, 0.0], [0.0, 1e200]]}],
            "x0": [0.0, 0.0],
            "t": 1.0,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(["nonsmooth-check", "--scenario", str(path)], capsys)
        assert code == 2
        assert "fundamental matrix non-finite" in err and out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_saltation_fails_numerically(self, tmp_path, capsys):
        # the jump at the crossing overflows the fundamental matrix: exit 2
        # with the crossing time, not a RuntimeWarning traceback
        scenario = {
            "boundaries": [{"kind": "moving_hyperplane", "normal": [1.0, 0.0]}],
            "pieces": [
                {"when": [-1], "A": [[10.0, 0.0], [0.0, 0.0]], "b": [5.00000000001, 0.0]},
                {"when": [1], "b": [0.0, 1e300]},
            ],
            "x0": [-0.5, 0.0],
            "t": 4.0,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(["nonsmooth-check", "--scenario", str(path)], capsys)
        assert code == 2
        assert "fundamental matrix non-finite at t = " in err and out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"boundaries": [{"kind": "moving_hyperplane", "normal": [1.0, 0.0]}],
              "pieces": [{"when": [-1], "b": [1.0, -1e308]}, {"when": [1], "b": [1.0, 1e308]}],
              "x0": [-0.5, 0.0], "t": 1.0},
             "saltation matrix non-finite"),
            ({"pieces": [{"when": [], "A": [[1e308, 1e308], [0.0, 0.0]], "b": [0.0, 0.0]}],
              "x0": [1.0, 1.0], "t": 1.0},
             "trajectory non-finite"),
        ],
        ids=["velocity_jump", "velocity"],
    )
    def test_overflowing_velocity_fails_numerically(self, tmp_path, capsys, scenario, message):
        # v+ - v- at the crossing, or A x on the first step, overflows: exit 2, no warning
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(["nonsmooth-check", "--scenario", str(path)], capsys)
        assert code == 2
        assert message in err and out == ""

    @pytest.mark.parametrize("key, value", [("t", float("nan")), ("t", float("inf")), ("step", 0.0), ("step", -0.1)])
    def test_invalid_time_or_step_is_usage_error(self, tmp_path, capsys, key, value):
        # a NaN t used to print the identity and exit 0; the others never ended
        scenario = {"pieces": [{"when": [], "b": [1.0, 0.0]}], "x0": [0.0, 0.0], "t": 1.0, key: value}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(["nonsmooth-check", "--scenario", str(path)], capsys)
        assert code == 1
        assert err.startswith("error:") and out == ""

    def test_grazing_scenario_reports_numerical_failure(self, tmp_path, capsys):
        scenario = {
            "boundaries": [{"kind": "moving_hyperplane", "normal": [1.0, 0.0]}],
            "pieces": [
                {"when": [-1], "b": [0.0, 1.0]},
                {"when": [1], "b": [0.0, 1.0]},
            ],
            # starts on the boundary moving tangentially, then the piece
            # lookup keeps it there: fundamental_matrix is fine, but a
            # crossing scenario with a tangential approach degenerates
            "x0": [-1e-12, 0.0],
            "t": 1.0,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(["nonsmooth-check", "--scenario", str(path)], capsys)
        assert code in (0, 2)  # tangential start: either clean or flagged


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
        assert payload["ssd_after"]["gaussian"] < payload["ssd_before"]
        assert (tmp_path / "exp" / "mini" / "report.json").exists()
