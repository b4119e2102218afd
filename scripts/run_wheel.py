#!/usr/bin/env python3
"""Run the sliding-wheel benchmark comparing the smooth and non-smooth kernels."""
import argparse
import json

from slidereg.bench import ExperimentSpec, run_experiment
from slidereg.kernels import KernelSpec
from slidereg.registration import RegistrationConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--angle", type=float, default=5.0)
    ap.add_argument("--max-iters", type=int, default=300)
    args = ap.parse_args()

    cfg = RegistrationConfig(
        kernel=KernelSpec("wendland_c0_mult", 4.0, 9),
        T=10,
        lambda0=0.005,
        lambda1=0.005,
        reg_weight=0.02,
        max_iters=args.max_iters,
        stop_rel_tol=1e-7,
        control_stride=2,
    )
    spec = ExperimentSpec(
        name="wheel",
        config=cfg,
        out_dir=args.out,
        methods=("gaussian", "wendland_both"),
        # binary intensities: at a 5-degree rotation the sliding jump is a
        # few pixels, and anti-alias blur would reward a smooth transition
        generator={"kind": "wheel", "size": args.size, "angle_deg": args.angle,
                   "antialias": False},
    )
    print(json.dumps(run_experiment(spec), indent=2))


if __name__ == "__main__":
    main()
