"""Command-line interface.

Subcommands: synth, register, demo, tre, run.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bench, fileio
from . import registration as reg
from .errors import DivergenceError, FormatError
from .geometry import DeformationMap, GridGeometry, ScalarImage

NUMERICAL_ERRORS = (DivergenceError, np.linalg.LinAlgError)


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
    t.add_argument("--map", dest="map_path", help="npy map targets (dims + (d,)); grid from its sidecar if any")
    t.add_argument("--index-base", type=int, default=1, choices=[0, 1])

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
    summary = bench.write_registration_artifacts(args.out, result)
    inverse = result.flow.final_inverse
    np.save(os.path.join(args.out, "inverse_map.npy"), inverse.targets)
    with open(os.path.join(args.out, "inverse_map.json"), "w") as fh:
        json.dump(dataclasses.asdict(inverse.geometry), fh)
    print(json.dumps(summary))
    return 0


def _cmd_demo(args) -> int:
    result = bench.demo_momentum(args.kind, args.out)
    print(json.dumps({"kind": args.kind, "files": list(result.files)}))
    return 0


def _cmd_tre(args) -> int:
    spacing = tuple(float(s) for s in args.spacing.split(","))
    dmap = dims = None
    if args.map_path:
        targets = np.load(args.map_path)
        sidecar = fileio._sidecar_path(args.map_path)
        if os.path.exists(sidecar):
            geom = fileio._read_sidecar(sidecar)
            if geom.spacing != spacing:
                raise ValueError(f"--spacing {list(spacing)} disagrees with the map's sidecar {sidecar} "
                                 f"spacing {list(geom.spacing)}")
        elif len(spacing) != targets.ndim - 1:
            d = targets.ndim - 1
            raise ValueError(f"--spacing {list(spacing)} has length {len(spacing)}, but the {d}D map "
                             f"{args.map_path} needs {d}")
        else:
            geom = GridGeometry(targets.shape[:-1], spacing, (0.0,) * (targets.ndim - 1))
        dmap = DeformationMap(geom, targets, "inverse")
        dims = geom.dims
    ref = fileio.read_landmarks(args.ref_lms, args.index_base, dims)
    tpl = fileio.read_landmarks(args.tpl_lms, args.index_base, dims)
    value = bench.tre(ref, tpl, spacing, dmap)
    print(json.dumps({"tre_mm": value, "points": len(ref)}))
    return 0


def _cmd_run(args) -> int:
    with open(args.experiment) as fh:
        doc = json.load(fh)
    print(json.dumps(bench.run_experiment(doc), indent=2))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "register": _cmd_register,
    "demo": _cmd_demo,
    "tre": _cmd_tre,
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
    except (FormatError, FileNotFoundError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
