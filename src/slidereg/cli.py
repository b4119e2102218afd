"""Command-line interface.

Subcommands: synth, register, demo, tre, nonsmooth-check, run.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, fileio, nonsmooth
from . import registration as reg
from .errors import (
    DegenerateCrossingError,
    DivergenceError,
    FormatError,
    TangentialCrossingError,
)
from .geometry import ScalarImage

NUMERICAL_ERRORS = (
    DivergenceError,
    DegenerateCrossingError,
    TangentialCrossingError,
    np.linalg.LinAlgError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="slidereg", description="Sliding-motion diffeomorphic registration")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", parents=[], help="generate a synthetic image pair")
    s.add_argument("scene", choices=["rectangle", "wheel"])
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--shift", type=int, default=5, help="rectangle half-shift in px")
    s.add_argument("--angle", type=float, default=5.0, help="wheel rotation in degrees")
    s.add_argument("--no-antialias", action="store_true")
    s.add_argument("--out", required=True, help="output directory")

    r = sub.add_parser("register", help="register a template to a reference image")
    r.add_argument("--template", required=True)
    r.add_argument("--reference", required=True)
    r.add_argument("--config", required=True, help="JSON file mirroring RegistrationConfig")
    r.add_argument("--out", required=True)

    d = sub.add_parser("demo", help="render a single-momentum deformation demo")
    d.add_argument("kind", choices=list(bench.DEMO_KINDS))
    d.add_argument("--out", required=True)

    t = sub.add_parser("tre", help="landmark target registration error")
    t.add_argument("--ref-lms", required=True)
    t.add_argument("--tpl-lms", required=True)
    t.add_argument("--spacing", required=True, help="comma-separated, e.g. 0.97,0.97,2.5")
    t.add_argument("--map", dest="map_path", help="npy file with map targets (dims + (d,))")
    t.add_argument("--index-base", type=int, default=1, choices=[0, 1])

    n = sub.add_parser("nonsmooth-check", help="run a switching-flow scenario file")
    n.add_argument("--scenario", required=True)

    e = sub.add_parser("run", help="run an experiment spec file")
    e.add_argument("--experiment", required=True)
    return p


def _cmd_synth(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.scene == "rectangle":
        pair = bench.gen_rectangle(args.size, args.shift, not args.no_antialias)
        np.savetxt(
            os.path.join(args.out, "landmarks_template.txt"),
            pair.landmarks_template.points + 1.0,
            fmt="%.1f",
        )
        np.savetxt(
            os.path.join(args.out, "landmarks_reference.txt"),
            pair.landmarks_reference.points + 1.0,
            fmt="%.1f",
        )
    else:
        pair = bench.gen_wheel(args.size, args.angle, not args.no_antialias)
    for name, img in (("template.pgm", pair.template), ("reference.pgm", pair.reference)):
        fileio.write_pgm(os.path.join(args.out, name), ScalarImage(img.geometry, np.rint(img.values)))
    np.save(os.path.join(args.out, "true_map.npy"), pair.true_map.targets)
    print(json.dumps({"out": args.out, "scene": args.scene}))
    return 0


def _cmd_register(args) -> int:
    with open(args.config) as fh:
        cfg = reg.config_from_dict(json.load(fh))
    template = fileio.read_image(args.template)
    reference = fileio.read_image(args.reference)
    result = reg.optimize(cfg, template, reference)
    os.makedirs(args.out, exist_ok=True)
    scales = bench.write_registration_artifacts(args.out, result)
    np.save(os.path.join(args.out, "inverse_map.npy"), result.flow.final_inverse.targets)
    first, last = result.energy_trace[0], result.energy_trace[-1]
    summary = {
        "iterations": result.iterations_used,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "ssd_initial": first.similarity,
        "ssd_final": last.similarity,
        "total_initial": first.total,
        "total_final": last.total,
        "magnitude_scale": scales["magnitude_scale"],
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary))
    return 0


def _cmd_demo(args) -> int:
    result = bench.demo_momentum(args.kind, args.out)
    print(json.dumps({"kind": args.kind, "files": list(result.files)}))
    return 0


def _cmd_tre(args) -> int:
    spacing = [float(s) for s in args.spacing.split(",")]
    ref = fileio.read_landmarks(args.ref_lms, args.index_base)
    tpl = fileio.read_landmarks(args.tpl_lms, args.index_base)
    dmap = None
    if args.map_path:
        from .geometry import DeformationMap, GridGeometry

        targets = np.load(args.map_path)
        dims = targets.shape[:-1]
        geom = GridGeometry(dims, tuple(spacing), (0.0,) * len(dims))
        dmap = DeformationMap(geom, targets, "inverse")
    value = bench.tre(ref, tpl, spacing, dmap)
    print(json.dumps({"tre_mm": value, "points": len(ref)}))
    return 0


def _scenario_boundary(doc: dict):
    kind = doc["kind"]
    sliding = bool(doc.get("sliding", False))
    if kind == "moving_hyperplane":
        return nonsmooth.MovingHyperplane(
            tuple(doc["normal"]), float(doc.get("offset", 0.0)),
            float(doc.get("rate", 0.0)), sliding,
        )
    if kind == "static_circle":
        return nonsmooth.StaticCircle(tuple(doc["center"]), float(doc["radius"]), sliding)
    raise FormatError(f"unknown boundary kind {kind!r}")


def _cmd_nonsmooth_check(args) -> int:
    with open(args.scenario) as fh:
        doc = json.load(fh)
    boundaries = tuple(_scenario_boundary(b) for b in doc.get("boundaries", []))
    pieces = {}
    for piece in doc["pieces"]:
        signs = tuple(int(s) for s in piece.get("when", []))
        d = len(doc["x0"])
        A = np.asarray(piece.get("A", np.zeros((d, d))), float)
        b = np.asarray(piece.get("b", np.zeros(d)), float)
        pieces[signs] = nonsmooth.AffineVelocity(A, b)
    field = nonsmooth.PiecewiseVelocity(boundaries, pieces)
    fm = nonsmooth.fundamental_matrix(
        field, np.asarray(doc["x0"], float), float(doc["t"]),
        step=float(doc.get("step", 1e-3)),
    )
    out = {
        "matrix": fm.value.tolist(),
        "crossings": [
            {"time": c.time, "point": np.asarray(c.point).tolist()} for c in fm.crossings
        ],
    }
    if "expected" in doc:
        expected = np.asarray(doc["expected"], float)
        tol = float(doc.get("tol", 1e-3))
        err = float(np.max(np.abs(fm.value - expected)) / max(np.max(np.abs(expected)), 1e-30))
        out["expected_relative_error"] = err
        out["within_tolerance"] = err <= tol
        print(json.dumps(out, indent=2))
        return 0 if err <= tol else 2
    print(json.dumps(out, indent=2))
    return 0


def _cmd_run(args) -> int:
    with open(args.experiment) as fh:
        doc = json.load(fh)
    cfg = reg.config_from_dict(doc["config"])
    spec = bench.ExperimentSpec(
        name=doc["name"],
        config=cfg,
        out_dir=doc["out"],
        methods=tuple(doc.get("methods", list(bench.METHODS))),
        generator=doc.get("generator"),
        dataset=doc.get("dataset"),
    )
    report = bench.run_experiment(spec)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "register": _cmd_register,
    "demo": _cmd_demo,
    "tre": _cmd_tre,
    "nonsmooth-check": _cmd_nonsmooth_check,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (FormatError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
