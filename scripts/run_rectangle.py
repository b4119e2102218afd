#!/usr/bin/env python3
"""Run the sliding-rectangle benchmark with all three methods."""
import argparse
import json

from slidereg.bench import ExperimentSpec, run_experiment
from slidereg.kernels import KernelSpec
from slidereg.registration import RegistrationConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--shift", type=int, default=5)
    ap.add_argument("--max-iters", type=int, default=120)
    args = ap.parse_args()

    cfg = RegistrationConfig(
        kernel=KernelSpec("wendland_c0_mult", 4.0, 9),
        T=10,
        lambda0=0.05,
        lambda1=0.05,
        reg_weight=0.2,
        max_iters=args.max_iters,
        stop_rel_tol=1e-6,
        control_stride=2,
    )
    spec = ExperimentSpec(
        name="rectangle",
        config=cfg,
        out_dir=args.out,
        methods=("gaussian", "wendland_zeroth", "wendland_both"),
        generator={"kind": "rectangle", "size": args.size, "shift": args.shift},
    )
    print(json.dumps(run_experiment(spec), indent=2))


if __name__ == "__main__":
    main()
