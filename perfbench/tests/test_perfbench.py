"""Toy-size checks of the benchmark's metrics, checks and tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
import functools
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import measure
import quality
from slidereg import bench, geometry
from slidereg.geometry import DeformationMap, GridGeometry, identity_map
from slidereg.kernels import KernelSpec
from slidereg.registration import RegistrationConfig
from tracer import ENTRIES, Entry, Tracer
from workloads import WORKLOADS, Workload, box_slice_width, gen_box, rect_width, wheel_width

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _toy_rect():
    p = bench.gen_rectangle(32, 3)
    return p.template, p.reference, p.true_map


TOY = Workload(
    "toy",
    _toy_rect,
    RegistrationConfig(
        kernel=KernelSpec("wendland_c0_mult", 4.0, 9),
        T=3,
        lambda0=0.05,
        lambda1=0.05,
        reg_weight=0.2,
        max_iters=3,
        stop_rel_tol=0.0,
        control_stride=4,
    ),
    rect_width,
    ssd_ratio_max=1.0,
)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_emitted_with_unit(spec, trace):
    record, result = measure.run(TOY, seed=3, seconds=0.0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    assert record["absent_entry_points"] == []


def test_benchmark_json_lists_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(measure.END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(measure.PER_LAYER)


def test_map_err_zero_for_identity():
    geom = GridGeometry((6, 7), (1.0, 2.0), (0.0, 0.0))
    ident = identity_map(geom, "inverse")
    assert quality.map_err_px(ident, ident, np.ones(geom.dims, bool)) == 0.0


def test_map_err_in_voxels():
    geom = GridGeometry((6, 7), (1.0, 2.0), (0.0, 0.0))
    ident = identity_map(geom, "inverse")
    shifted = DeformationMap(geom, ident.targets + np.array([0.0, 4.0]), "inverse")
    assert quality.map_err_px(shifted, ident, np.ones(geom.dims, bool)) == pytest.approx(2.0)


def test_fold_frac_positive_on_folding_map():
    geom = GridGeometry((12, 12), (1.0, 1.0), (0.0, 0.0))
    targets = geom.node_positions()
    targets[4:8, :, 0] = 11.0 - targets[4:8, :, 0]  # a reflected band folds
    dets = quality.interior_jacobian_dets(DeformationMap(geom, targets, "inverse"))
    assert quality.fold_frac(dets) > 0.0
    assert dets.min() < 0.0


def test_fold_frac_zero_on_identity_3d():
    geom = GridGeometry((5, 5, 5), (1.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    dets = quality.interior_jacobian_dets(identity_map(geom, "inverse"))
    assert dets.shape == (27,)
    np.testing.assert_allclose(dets, 1.0)
    assert quality.fold_frac(dets) == 0.0


def test_failed_check_counted_as_failure():
    strict = replace(TOY, ssd_ratio_max=0.0)
    record, result = measure.run(strict, seed=3, seconds=0.0, trace=False)
    assert result["attempted"] == 1 + measure.REALIZATIONS  # gradient check and one solve per draw
    assert result["failed"] == measure.REALIZATIONS
    assert result["correct"] is False
    assert "ssd_ratio" in record["failures"][0]["reason"]


def test_early_stop_and_energy_rise_are_failures():
    pair = TOY.pair(0)
    cfg = TOY.config
    res = measure.reg.optimize(cfg, pair.template, pair.reference)
    bumped = replace(res, energy_trace=res.energy_trace + (res.energy_trace[0],))
    reasons, _ = quality.solve_failures(bumped, pair, replace(cfg, max_iters=cfg.max_iters + 1), 1.0)
    assert any("energy increased" in r for r in reasons)
    reasons, _ = quality.solve_failures(res, pair, replace(cfg, max_iters=cfg.max_iters + 1), 1.0)
    assert any("stopped after" in r for r in reasons)


def test_gradient_check_passes_and_catches_a_wrong_gradient(monkeypatch):
    pair = TOY.pair(0)
    assert quality.gradient_check(TOY.config, pair, 0, measure.GRAD_RTOL)[-1] <= measure.GRAD_RTOL
    real = measure.reg.gradient

    def halved(*args):
        g = real(*args)
        return type(g)(tuple(replace(ms, m0=0.5 * ms.m0, m1=0.5 * ms.m1) for ms in g.steps))

    monkeypatch.setattr(quality.reg, "gradient", halved)
    errors = quality.gradient_check(TOY.config, pair, 0, measure.GRAD_RTOL)
    assert len(errors) == 2 and min(errors) > 0.1


def test_tracer_reports_absent_entry_and_restores():
    original = geometry.interp_values
    entries = (
        Entry("geometry.interp", "slidereg.geometry", "interp_values"),
        Entry("gone", "slidereg.momenta", "NoSuchAssembler.velocity"),
        Entry("gone", "slidereg.flow", "no_such_function"),
    )
    with Tracer(entries) as tracer:
        assert measure.reg.interp_values is not original  # patched where looked up
        geometry.interp_values(np.zeros((4, 4)), GridGeometry((4, 4), (1.0, 1.0), (0.0, 0.0)), [[1.0, 1.0]])
    assert tracer.absent == list(entries[1:])
    assert tracer.summary()["geometry.interp"]["calls"] == 1
    assert geometry.interp_values is original and measure.reg.interp_values is original


def test_vanished_entry_point_reads_null(monkeypatch):
    renamed = Entry("momenta.synth_adjoint", "slidereg.momenta", "VelocityAssembler.adjoint_renamed")
    entries = tuple(e for e in ENTRIES if e.span != "momenta.synth_adjoint") + (renamed,)
    monkeypatch.setattr(measure, "ENTRIES", entries)
    monkeypatch.setattr(measure, "Tracer", functools.partial(Tracer, entries))
    record, result = measure.run(TOY, seed=3, seconds=0.0, trace=True)
    assert result["correct"], record["failures"]
    assert result["metrics"]["momenta.synth_adjoint_s"]["value"] is None
    assert result["metrics"]["momenta.synth_s"]["value"] > 0.0
    assert record["absent_entry_points"] == ["slidereg.momenta.VelocityAssembler.adjoint_renamed"]


def test_box_generator_true_map_warps_template_to_reference():
    template, reference, true_map = gen_box(16, 2)
    warped = geometry.warp_image(template, true_map).values
    # the blur mixes the halves within a few rows of the interface at row 8
    for rows in (slice(0, 5), slice(11, 16)):
        np.testing.assert_allclose(warped[rows, :, 2:-2], reference.values[rows, :, 2:-2], atol=0.1)
    assert box_slice_width(true_map) == 1


def test_widths_of_true_maps():
    assert rect_width(bench.gen_rectangle(64, 5).true_map) == 1
    wheel = bench.gen_wheel(128, 5.0, antialias=False)
    # polar samples between nodes blend across the circular interface
    assert wheel_width(wheel.true_map, wheel.ring_radius) == 2
