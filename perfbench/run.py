#!/usr/bin/env python3
"""Registration benchmark for slidereg.

Usage, from the repository root (slidereg need not be installed; the
checkout's ``src/`` is put first on the import path):

    python3 perfbench/run.py --workload rect2d --seed 1 --seconds 30 --trace 0

Workloads: rect2d, wheel2d, box3d (see ``perfbench/workloads.py``). With
``--trace 0`` the result carries the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of traced solves and the tracing
overhead. The second-to-last stdout line is the full record (environment,
samples, failure reasons); the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BLAS and OpenMP pools are capped at the number of usable cores.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def src_digest() -> str:
    """SHA-256 over the package sources, to tell checkouts apart without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "slidereg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas_version(show_config) -> str:
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy.show_config),
        "scipy_openblas": blas_version(scipy.show_config),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="slidereg registration benchmark")
    ap.add_argument("--workload", required=True, choices=("rect2d", "wheel2d", "box3d"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "slidereg", "__init__.py")):
        print(f"error: no slidereg sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(nproc)
    sys.path.insert(0, SRC)

    import slidereg

    if os.path.dirname(os.path.abspath(slidereg.__file__)) != os.path.join(SRC, "slidereg"):
        print(f"error: imported slidereg from {slidereg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS

    record, result = measure.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["env"] = environment(nproc)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
